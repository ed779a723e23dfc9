"""Golden artifact pin: the tiny seed-11 pipeline run is byte-for-byte fixed.

The digests were measured on the plain k-loop matmul kernel. Any change to
the arithmetic (kernel choice, skipped products, reordered sums) that moves
a single bit of a weight, a loss or a score changes at least one of them.
"""

import hashlib

from quantdistill.cli import main

TINY_CONFIG = (
    "seed = 11\nn_identities = 20\nlatent_dim = 8\ninput_dim = 16\n"
    "hidden_dim = 16\nembed_dim = 8\nteacher_iterations = 150\n"
    "batch_size = 32\niterations = 60\nbits = 6\ncalibration_batches = 4\n"
    "n_pairs = 100\nfar_targets = 0.05\nout_dir = {out_dir}\n")

GOLDEN_SHA256 = {
    "teacher.qfmd": "5bdbceb665c215e928271a851655a53061b8bd0313536967aa9788a1a4cd8ae6",
    "student_w6a6.qfmd": "d5cd5ed7d262d4d36a02a98acfa0bebc10a1291511263a0d2355504411a6a157",
    "loss_w6a6.csv": "391b7fa08fa9d8351b432c0f205d3cab06234de2287cab1dc3120260a66390f6",
    "eval_report.json": "b9299de54ef4bfa161b93333bea34c05880bc835a7651c755ad177dd4560ab75",
}


def test_tiny_run_artifacts_match_golden_digests(tmp_path):
    out_dir = tmp_path / "run"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(TINY_CONFIG.format(out_dir=out_dir))
    assert main(["pretrain", "--config", str(cfg)]) == 0
    assert main(["distill", "--config", str(cfg),
                 "--teacher", str(out_dir / "teacher.qfmd")]) == 0
    assert main(["eval", "--config", str(cfg),
                 str(out_dir / "teacher.qfmd"), str(out_dir / "student_w6a6.qfmd")]) == 0
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
               for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256
