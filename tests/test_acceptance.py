"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured numbers when it clears its stated tolerance.

Criteria 5-8 share one reference pipeline run (seed 42, default config)
executed through the CLI, the same artifact a user would produce.
"""

import csv
import json
import os
import time
import warnings

import numpy as np
import pytest

from quantdistill.bench_eval import range_correlation, write_range_csv
from quantdistill.cli import main
from quantdistill.config import ExperimentConfig
from quantdistill.distiller import calibrate, kd_loss, kd_loss_grad, prepare_student
from quantdistill.graph import (
    fake_quant_backward,
    forward_embed,
    l2_normalize_backward,
    linear_backward,
)
from quantdistill.model_store import load_model, save_model, size_report
from quantdistill.quantizer import QuantizedTensor, dequantize, params_from_range, quantize
from quantdistill.synth import batch_stream, derive_seed, make_identity_space
from quantdistill.tensor_core import Epilogue, Tensor, l2_normalize, matmul, transpose


def _announce(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12))


def _central_diff(f, x: np.ndarray, h: float) -> np.ndarray:
    g = np.zeros_like(x, dtype=np.float64)
    for idx in np.ndindex(*x.shape):
        xp = x.copy(); xp[idx] += h
        xm = x.copy(); xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
    return g


# -- criterion 1: size-law reproduction ---------------------------------------


def test_criterion_1_size_law():
    t0 = time.perf_counter()
    rep = size_report(65_305_000, [8, 6])
    fp32_mb = rep.megabytes()
    w8_mb = rep.megabytes(8)
    assert fp32_mb == pytest.approx(261.22, rel=0.005)
    assert w8_mb == pytest.approx(65.31, rel=0.005)
    assert rep.ratios[8] == pytest.approx(0.25002, rel=0.005)
    assert rep.ratios[6] == pytest.approx(49.01 / 261.22, rel=0.005)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _announce(1, f"fp32 {fp32_mb:.2f}MB, w8a8 {w8_mb:.2f}MB, "
                 f"ratios {rep.ratios[8]:.5f}/{rep.ratios[6]:.5f} in {elapsed:.3f}s")


# -- criterion 2: quantization round trip --------------------------------------


def test_criterion_2_round_trip():
    # Values live in float32, so half an output ulp must stay inside the
    # 1e-6 slack; that holds for magnitudes up to ~16, which brackets the
    # weight/activation scales this package quantizes.
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240)
    worst = 0.0
    for bits in (4, 6, 8):
        remaining = 100_000
        while remaining > 0:
            n = min(remaining, 20_000)
            lo = float(rng.uniform(-12.0, 8.0))
            hi = lo + float(rng.uniform(1e-3, 12.0 - lo))
            p = params_from_range(lo, hi, bits)
            xs = rng.uniform(p.range_lo, p.range_hi, size=n).astype(np.float32)
            t = Tensor(xs)
            back = dequantize(quantize(t, p))
            err = np.abs(back.data.astype(np.float64) - t.data.astype(np.float64))
            bound = p.scale / 2 + 1e-6
            assert err.max() <= bound, f"b={bits} range [{lo},{hi}]: {err.max()} > {bound}"
            worst = max(worst, float(err.max() / bound))
            remaining -= n

    # exhaustive 4-bit code check: every one of the 16 codes survives a
    # dequantize -> quantize cycle and stays inside the code domain
    p4 = params_from_range(-1.3, 2.2, 4)
    codes = np.arange(p4.code_min, p4.code_max + 1, dtype=np.int32)
    assert codes.size == 16
    grid = dequantize(QuantizedTensor(codes=codes, shape=codes.shape, params=p4))
    again = quantize(grid, p4)
    assert np.array_equal(again.codes, codes)
    assert again.codes.min() >= p4.code_min and again.codes.max() <= p4.code_max

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _announce(2, f"3x100k values within s/2+1e-6 (worst {worst:.3f} of bound), "
                 f"16/16 codes exact, in {elapsed:.2f}s")


# -- criterion 3: STE and analytic gradients -----------------------------------


def test_criterion_3_ste_and_gradients():
    t0 = time.perf_counter()

    # STE: exact equality with upstream-times-indicator on a straddling grid
    p = params_from_range(-0.6, 1.4, 8)
    xs = np.linspace(-1.6, 2.4, 10_000).astype(np.float32)
    upstream = np.random.default_rng(3).standard_normal(10_000).astype(np.float32)
    got = fake_quant_backward(Tensor(xs), p, Tensor(upstream)).data
    expected = np.where((xs >= np.float32(p.range_lo)) & (xs <= np.float32(p.range_hi)),
                        upstream, np.float32(0.0))
    assert np.array_equal(got, expected)

    def linear_forward(x, w, b):
        return matmul(x, transpose(w), Epilogue(b, False, None, False))

    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(20):
        m, d_in, d_out = (int(rng.integers(2, 5)) for _ in range(3))
        d_in += 2
        d_out += 2

        # linear wrt x and W
        x = rng.standard_normal((m, d_in)).astype(np.float32)
        w = rng.standard_normal((d_out, d_in)).astype(np.float32)
        b = rng.standard_normal(d_out).astype(np.float32)
        probe = rng.standard_normal((m, d_out)).astype(np.float32)
        d_x, d_w, _ = linear_backward(Tensor(x), Tensor(w), Tensor(probe))

        def f_x(xv):
            y = linear_forward(Tensor(xv.astype(np.float32)), Tensor(w), Tensor(b))
            return float(np.sum(y.data.astype(np.float64) * probe))

        def f_w(wv):
            y = linear_forward(Tensor(x), Tensor(wv.astype(np.float32)), Tensor(b))
            return float(np.sum(y.data.astype(np.float64) * probe))

        e1 = _rel_err(d_x.data.astype(np.float64), _central_diff(f_x, x.astype(np.float64), 1e-2))
        e2 = _rel_err(d_w.data.astype(np.float64), _central_diff(f_w, w.astype(np.float64), 1e-2))

        # l2_normalize
        xn = rng.standard_normal((m, d_in)).astype(np.float32) + 0.2
        pn = rng.standard_normal((m, d_in)).astype(np.float32)

        def f_n(xv):
            y = l2_normalize(Tensor(xv.astype(np.float32)))
            return float(np.sum(y.data.astype(np.float64) * pn))

        e3 = _rel_err(l2_normalize_backward(Tensor(xn), Tensor(pn)).data.astype(np.float64),
                      _central_diff(f_n, xn.astype(np.float64), 1e-3))

        # kd loss wrt pre-normalization student embeddings
        e = rng.standard_normal((m, d_in)).astype(np.float32) + 0.2
        ft = l2_normalize(Tensor(rng.standard_normal((m, d_in)).astype(np.float32)))

        def f_kd(ev):
            return kd_loss(l2_normalize(Tensor(ev.astype(np.float32))), ft)

        analytic = l2_normalize_backward(Tensor(e), kd_loss_grad(l2_normalize(Tensor(e)), ft))
        e4 = _rel_err(analytic.data.astype(np.float64),
                      _central_diff(f_kd, e.astype(np.float64), 1e-3))

        for err in (e1, e2, e3, e4):
            assert err < 1e-4
            worst = max(worst, err)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _announce(3, f"STE exact on 10k grid; 20 instances of linear/normalize/kd "
                 f"gradients within 1e-4 (worst {worst:.2e}) in {elapsed:.2f}s")


# -- criterion 4: KD-loss contract ----------------------------------------------


def test_criterion_4_kd_loss_contract():
    rng = np.random.default_rng(4444)
    for _ in range(10_000):
        m = int(rng.integers(1, 5))
        d = int(rng.integers(2, 9))
        fq = l2_normalize(Tensor(rng.standard_normal((m, d)).astype(np.float32)))
        ft = l2_normalize(Tensor(rng.standard_normal((m, d)).astype(np.float32)))
        loss = kd_loss(fq, ft)
        assert 0.0 <= loss <= 2.0

    ident = l2_normalize(Tensor(rng.standard_normal((8, 16)).astype(np.float32)))
    assert kd_loss(ident, ident) == 0.0
    assert kd_loss(Tensor([[0.0, 1.0]]), Tensor([[0.0, -1.0]])) == 2.0
    _announce(4, "bounds held over 10k random batches; identical -> 0 and "
                 "anti-aligned -> 2 exactly")


# -- criteria 5-8: reference pipeline (seed 42, default config) ------------------


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("reference")
    cfg_path = out_dir / "reference.txt"
    cfg_path.write_text(f"seed = 42\nout_dir = {out_dir}\n")

    timings = {}
    t0 = time.perf_counter()
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    timings["pretrain"] = time.perf_counter() - t0

    teacher = out_dir / "teacher.qfmd"
    t0 = time.perf_counter()
    assert main(["distill", "--config", str(cfg_path), "--teacher", str(teacher),
                 "--bits", "8,6"]) == 0
    timings["distill_8_6"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    assert main(["distill", "--config", str(cfg_path), "--teacher", str(teacher),
                 "--bits", "4"]) == 0
    timings["distill_4"] = time.perf_counter() - t0

    models = [str(teacher)] + [str(out_dir / f"student_w{b}a{b}.qfmd") for b in (8, 6, 4)]
    t0 = time.perf_counter()
    assert main(["eval", "--config", str(cfg_path)] + models) == 0
    timings["eval"] = time.perf_counter() - t0

    report = json.loads((out_dir / "eval_report.json").read_text())
    accuracy = {row["bits"]: row["verification"]["accuracy"] for row in report["models"]}

    def smoothed_tail(bits):
        losses = [float(r["loss"]) for r in
                  csv.DictReader(open(out_dir / f"loss_w{bits}a{bits}.csv"))]
        return float(np.mean(losses[-100:]))

    return {
        "out_dir": out_dir,
        "cfg_path": cfg_path,
        "accuracy": accuracy,
        "smoothed": {b: smoothed_tail(b) for b in (8, 6, 4)},
        "timings": timings,
    }


def test_criterion_5_desk_scale_trend(reference_run):
    acc = reference_run["accuracy"]
    teacher, w8, w6 = acc[32], acc[8], acc[6]
    assert teacher >= 0.90
    assert abs(teacher - w8) <= 0.015
    assert abs(teacher - w6) <= 0.05
    assert teacher >= w8 >= w6

    t = reference_run["timings"]
    trend_runtime = t["pretrain"] + t["distill_8_6"] + t["eval"]
    assert trend_runtime <= 300.0
    _announce(5, f"teacher {teacher:.4f} >= w8a8 {w8:.4f} >= w6a6 {w6:.4f}; "
                 f"deltas {teacher - w8:.4f}/{teacher - w6:.4f}; "
                 f"runtime {trend_runtime:.0f}s")


def test_reference_loss_curves_trend_downward(reference_run):
    # Not a numbered criterion: the fine-tuning contract on the reference
    # run. Endpoints strictly decrease and the 100-step-window means trend
    # down (every window at or below the first, negative regression slope).
    for bits in (8, 6):
        losses = [float(r["loss"]) for r in
                  csv.DictReader(open(reference_run["out_dir"] / f"loss_w{bits}a{bits}.csv"))]
        assert losses[-1] < losses[0]
        windows = [float(np.mean(losses[i:i + 100])) for i in range(0, len(losses), 100)]
        assert windows[-1] < windows[0]
        assert all(w <= windows[0] for w in windows)
        slope = np.polyfit(np.arange(len(windows)), windows, 1)[0]
        assert slope < 0


def test_criterion_6_four_bit_observation(reference_run):
    sm = reference_run["smoothed"]
    acc = reference_run["accuracy"]
    loss_blowup = sm[4] >= 2.0 * sm[6]
    drop_blowup = (acc[32] - acc[4]) > (acc[32] - acc[6])
    summary = json.loads((reference_run["out_dir"] / "distill_summary.json").read_text())
    assert summary["runs"]["w4a4"]["converged"] is False
    if loss_blowup or drop_blowup:
        _announce(6, f"4-bit non-convergence reproduced: smoothed loss ratio "
                     f"{sm[4] / sm[6]:.1f}x (accuracy drops {acc[32] - acc[4]:.4f} "
                     f"vs {acc[32] - acc[6]:.4f})")
    else:
        # soft check: report, do not fail the build
        warnings.warn("4-bit non-convergence observation not reproduced in this run")
        print("\nACCEPTANCE 6: WARN - 4-bit observation not reproduced")


def test_criterion_7_range_overlap_across_sources(reference_run, tmp_path):
    teacher = load_model(str(reference_run["out_dir"] / "teacher.qfmd"))
    cfg = ExperimentConfig(seed=42)
    students = []
    for label in ("source-A", "source-B"):
        space = make_identity_space(cfg.n_identities, cfg.latent_dim, cfg.input_dim,
                                    cfg.noise_sigma, derive_seed(cfg.seed, label))
        student = prepare_student(teacher, 8)
        calibrate(student, batch_stream(space, cfg.batch_size,
                                        derive_seed(cfg.seed, f"cal-{label}")),
                  cfg.calibration_batches)
        students.append(student)
    rep = range_correlation(students[0], students[1])
    assert rep.mean_iou >= 0.8

    csv_path = tmp_path / "ranges.csv"
    write_range_csv(csv_path, rep, source_a="source-A", source_b="source-B")
    rows = list(csv.DictReader(open(csv_path)))
    assert len(rows) == 2 * len(rep.iou)
    for row in rows:
        assert float(row["lo"]) <= float(row["hi"])
        int(row["depth"])
    _announce(7, f"mean interval IoU {rep.mean_iou:.4f} across independent sources "
                 f"(per depth {[f'{v:.3f}' for v in rep.iou]}); CSV parses")


def test_criterion_8_determinism_and_persistence(reference_run, tmp_path):
    # byte-identical reruns of every command with the same seed
    rerun_dir = tmp_path / "rerun"
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(
        "seed = 11\nn_identities = 20\nlatent_dim = 8\ninput_dim = 16\n"
        "hidden_dim = 16\nembed_dim = 8\nteacher_iterations = 150\n"
        "batch_size = 32\niterations = 60\nbits = 6\ncalibration_batches = 4\n"
        f"n_pairs = 100\nfar_targets = 0.05\nout_dir = {rerun_dir}\n")

    digests = []
    for _ in range(2):
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        assert main(["distill", "--config", str(cfg_path),
                     "--teacher", str(rerun_dir / "teacher.qfmd")]) == 0
        digests.append((
            (rerun_dir / "teacher.qfmd").read_bytes(),
            (rerun_dir / "student_w6a6.qfmd").read_bytes(),
            (rerun_dir / "loss_w6a6.csv").read_bytes(),
        ))
    assert digests[0] == digests[1]

    # save -> load -> forward is bit-exact in both modes, on the
    # reference artifacts
    rng = np.random.default_rng(88)
    x = Tensor(rng.standard_normal((16, 64)).astype(np.float32))

    teacher = load_model(str(reference_run["out_dir"] / "teacher.qfmd"))
    resaved = tmp_path / "teacher2.qfmd"
    save_model(teacher, resaved, mode="fp32")
    teacher2 = load_model(resaved)
    a, _ = forward_embed(teacher, x, quantized=False)
    b, _ = forward_embed(teacher2, x, quantized=False)
    assert np.array_equal(a.data, b.data)

    student = load_model(str(reference_run["out_dir"] / "student_w8a8.qfmd"))
    resaved_q = tmp_path / "student2.qfmd"
    save_model(student, resaved_q, mode="quantized")
    assert resaved_q.read_bytes() == (reference_run["out_dir"] / "student_w8a8.qfmd").read_bytes()
    student2 = load_model(resaved_q)
    qa, _ = forward_embed(student, x, quantized=True)
    qb, _ = forward_embed(student2, x, quantized=True)
    assert np.array_equal(qa.data, qb.data)

    _announce(8, "reruns byte-identical; fp32 and quantized save/load/forward bit-exact")
