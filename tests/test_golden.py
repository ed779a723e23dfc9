"""Golden artifact pins: the tiny seed-11 pipeline run is byte-for-byte fixed.

The digests were measured on the plain k-loop matmul kernel and the
one-record-per-channel quantization parameters. Any change to the
arithmetic (kernel choice, skipped products, reordered sums, a different
parameter derivation) that moves a single bit of a weight, a loss or a
score changes at least one of them.

They were measured with numpy 2.4.6 on an x86-64 CPU where numpy
dispatches to every SIMD target it was built for (X86_V3, X86_V4,
AVX512_ICL, AVX512_SPR). The matmul gives the same bits at any SIMD
level, but ``np.tanh``, ``np.exp`` and ``np.log`` do not: under
``NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR"`` (the
X86_V2 baseline loops) every artifact gets other bytes and these tests
fail.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quantdistill.cli import main

TINY_CONFIG = (
    "seed = 11\nn_identities = 20\nlatent_dim = 8\ninput_dim = 16\n"
    "hidden_dim = 16\nembed_dim = 8\nteacher_iterations = 150\n"
    "batch_size = 32\niterations = 60\nbits = 6\ncalibration_batches = 4\n"
    "n_pairs = 100\nfar_targets = 0.05\nout_dir = {out_dir}\n")

TEACHER_SHA256 = "03af6b08888d084976907b59ac82b67dc76b6793dff6037ed22f0ee397c39193"

GOLDEN_SHA256 = {
    "teacher.qfmd": TEACHER_SHA256,
    "student_w6a6.qfmd": "1005727ea9642a41fcf0531e97b46800bcf7ad79c173aaec03670efbb4225ca1",
    "loss_w6a6.csv": "391b7fa08fa9d8351b432c0f205d3cab06234de2287cab1dc3120260a66390f6",
    "eval_report.json": "398cb2019563bbd571e01a57d9eb1b001220aef970c159c03427f5fc0528187a",
}

# The same config distilled with --bits 8,4 and evaluated as teacher+w8+w4.
GOLDEN_W8_W4_SHA256 = {
    "student_w8a8.qfmd": "4cce494c9cd7f691c0471310b8cf64a45fc1515063df07d174ffb0b3ca5a21b5",
    "loss_w8a8.csv": "b05f55ae899b014f17e26119ee20744c6f57700e915dd35a5f69c6f21aafa3f2",
    "student_w4a4.qfmd": "12626a21399fd0b6ff8de3752d9d3af5793598478eaa8ecd2e194fcde2904fdf",
    "loss_w4a4.csv": "f1a1dc8b24e95ac2c9f48be542103fad8add2d91df177b78852a6e5e9fcf7ccc",
    "eval_report.json": "2d1fffec847427b8b47aa8a7eacdbe34d49a93515a038bb867ff496ffb259881",
}

# The JSON and CSV reports of the same runs: the teacher's metrics, each
# distill run's sizes and summary, and the w8/w4 pair's range export.
TEACHER_METRICS_SHA256 = "3e6c10adb0920247a5b1f10a6b3077dc096964c0ee560b3d1a9efe2a013e9217"

GOLDEN_REPORTS_SHA256 = {
    "sizes.json": "10efdf3ad567fe922bfadf1bf803fdc49a913c185c665ac8d1f7525e41d45ba5",
    "distill_summary.json": "51c2700b140699cd95f112b55578151780748a0e6a79e3fe46cc9fa3b1d94901",
}

GOLDEN_W8_W4_REPORTS_SHA256 = {
    "sizes.json": "add5d9bef6a3aca10ac86c72d0e1dda1f54a95f615f2093e1f31b1f9d1005a6e",
    "distill_summary.json": "a84d540c53ab99e5384f4974b52ede289c4c35cf6f5457a4eafb2d8c54defe40",
    "range_student_w8a8_vs_student_w4a4.csv":
        "158427747124d9c0427fdf87cf53b0e98463611dccbe5d9f99c2c7e12a8d9d09",
}


def _digests(out_dir, names):
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in names}


@pytest.fixture(scope="module")
def tiny_teacher(tmp_path_factory):
    """Path of the tiny config's pretrained teacher, shared by both pins."""
    root = tmp_path_factory.mktemp("golden")
    cfg = root / "cfg.txt"
    cfg.write_text(TINY_CONFIG.format(out_dir=root / "teacher"))
    assert main(["pretrain", "--config", str(cfg)]) == 0
    return root / "teacher" / "teacher.qfmd"


def _distill_and_eval(tmp_path, teacher, bits, students):
    out_dir = tmp_path / "run"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(TINY_CONFIG.format(out_dir=out_dir))
    argv = ["distill", "--config", str(cfg), "--teacher", str(teacher)]
    assert main(argv + (["--bits", bits] if bits else [])) == 0
    assert main(["eval", "--config", str(cfg), str(teacher),
                 *(str(out_dir / s) for s in students)]) == 0
    return out_dir


def test_tiny_run_artifacts_match_golden_digests(tmp_path, tiny_teacher):
    assert _digests(tiny_teacher.parent, ["teacher.qfmd"]) == {"teacher.qfmd": TEACHER_SHA256}
    out_dir = _distill_and_eval(tmp_path, tiny_teacher, None, ["student_w6a6.qfmd"])
    students = {k: v for k, v in GOLDEN_SHA256.items() if k != "teacher.qfmd"}
    assert _digests(out_dir, students) == students
    assert _digests(tiny_teacher.parent, ["teacher_metrics.json"]) == {
        "teacher_metrics.json": TEACHER_METRICS_SHA256}
    assert _digests(out_dir, GOLDEN_REPORTS_SHA256) == GOLDEN_REPORTS_SHA256


def test_tiny_run_w8_w4_artifacts_match_golden_digests(tmp_path, tiny_teacher):
    out_dir = _distill_and_eval(tmp_path, tiny_teacher, "8,4",
                                ["student_w8a8.qfmd", "student_w4a4.qfmd"])
    assert _digests(out_dir, GOLDEN_W8_W4_SHA256) == GOLDEN_W8_W4_SHA256
    assert _digests(out_dir, GOLDEN_W8_W4_REPORTS_SHA256) == GOLDEN_W8_W4_REPORTS_SHA256


def test_console_script_path_from_a_fresh_interpreter(tmp_path):
    # The package re-exports nothing, so the CLI module has to import all it
    # runs; an in-process test inherits modules other tests imported.
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(TINY_CONFIG.format(out_dir=tmp_path / "teacher"))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "quantdistill.cli", "pretrain",
                           "--config", str(cfg)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert _digests(tmp_path / "teacher", ["teacher.qfmd"]) == {"teacher.qfmd": TEACHER_SHA256}
