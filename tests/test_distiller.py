"""Distillation: KD loss contract, calibration, fine-tuning loop."""

import re
import threading

import numpy as np
import pytest

from quantdistill import tensor_core

from quantdistill.distiller import (
    DistillConfig,
    calibrate,
    distill_step,
    final_smoothed_loss,
    finetune,
    kd_loss,
    kd_loss_grad,
    prepare_student,
    write_loss_curve,
)
from quantdistill.errors import DimensionError, DomainError, StateError
from quantdistill.graph import build_embedding_net, net_fingerprint, sgd_step
from quantdistill.model_store import load_model, save_model
from quantdistill.pretrain import TeacherConfig, train_teacher
from quantdistill.synth import batch_stream, make_identity_space
from quantdistill.tensor_core import Tensor, l2_normalize


def _space(seed=0):
    return make_identity_space(20, 8, 12, 0.15, seed)


def _teacher(seed=0):
    return build_embedding_net(12, (16,), 8, seed=seed)


def _rand_unit(rng, m, d):
    x = rng.standard_normal((m, d)).astype(np.float32)
    return l2_normalize(Tensor(x))


class TestKdLoss:
    def test_identical_batches_exactly_zero(self):
        f = _rand_unit(np.random.default_rng(0), 6, 8)
        assert kd_loss(f, f) == 0.0

    def test_orthogonal_single_pair(self):
        assert kd_loss(Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]])) == 1.0

    def test_anti_aligned_single_pair_exactly_two(self):
        assert kd_loss(Tensor([[1.0, 0.0]]), Tensor([[-1.0, 0.0]])) == 2.0

    def test_aligned_plus_anti_aligned_averages_to_one(self):
        # oracle: cosines are {1, -1}, mean 0, loss 1
        fq = Tensor([[1.0, 0.0], [0.0, 1.0]])
        ft = Tensor([[1.0, 0.0], [0.0, -1.0]])
        assert kd_loss(fq, ft) == 1.0

    def test_range_over_random_batches(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            m, d = int(rng.integers(1, 6)), int(rng.integers(2, 9))
            loss = kd_loss(_rand_unit(rng, m, d), _rand_unit(rng, m, d))
            assert 0.0 <= loss <= 2.0

    def test_scaled_rows_score_near_zero(self):
        f = _rand_unit(np.random.default_rng(2), 4, 6)
        scaled = Tensor(f.data * np.float32(3.5))
        assert kd_loss(scaled, f) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            kd_loss(Tensor([[1.0, 0.0]]), Tensor([[1.0, 0.0, 0.0]]))

    def test_zero_norm_row_rejected(self):
        with pytest.raises(DomainError):
            kd_loss(Tensor([[0.0, 0.0]]), Tensor([[1.0, 0.0]]))

    @pytest.mark.parametrize("trial", range(5))
    def test_gradient_matches_finite_differences_through_normalization(self, trial):
        # gradient wrt the pre-normalization student embeddings
        from quantdistill.graph import l2_normalize_backward

        rng = np.random.default_rng(300 + trial)
        e = rng.standard_normal((3, 6)).astype(np.float32) + 0.1
        ft = _rand_unit(rng, 3, 6)

        def loss(ev):
            return kd_loss(l2_normalize(Tensor(ev.astype(np.float32))), ft)

        fq = l2_normalize(Tensor(e))
        analytic = l2_normalize_backward(Tensor(e), kd_loss_grad(fq, ft))

        grad_fd = np.zeros_like(e, dtype=np.float64)
        h = 1e-3
        for idx in np.ndindex(*e.shape):
            ep = e.astype(np.float64).copy(); ep[idx] += h
            em = e.astype(np.float64).copy(); em[idx] -= h
            grad_fd[idx] = (loss(ep) - loss(em)) / (2 * h)
        num = np.linalg.norm(analytic.data.astype(np.float64) - grad_fd)
        den = max(np.linalg.norm(grad_fd), 1e-12)
        assert num / den < 1e-4


# Valid arguments for each stage config; a test replaces the ones it checks.
STAGE_ARGS = {
    DistillConfig: dict(batch_size=16, iterations=1, lr=1e-4, momentum=0.9, weight_decay=5e-4,
                        bit_width=8),
    TeacherConfig: dict(iterations=1, batch_size=16, lr=0.1, momentum=0.9, weight_decay=5e-4,
                        seed=0),
}


def _stage_config(config, **changes):
    return config(**{**STAGE_ARGS[config], **changes})


class TestDistillConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            _stage_config(DistillConfig, batch_size=0)
        with pytest.raises(DomainError):
            _stage_config(DistillConfig, iterations=-1)
        with pytest.raises(DomainError):
            _stage_config(DistillConfig, bit_width=5)

    @pytest.mark.parametrize("config", [DistillConfig, TeacherConfig])
    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
    def test_rejects_lr_not_positive_and_finite(self, config, lr):
        with pytest.raises(DomainError, match="lr must be positive and finite"):
            _stage_config(config, lr=lr)

    @pytest.mark.parametrize("config", [DistillConfig, TeacherConfig])
    @pytest.mark.parametrize("momentum", [-0.1, 1.0, 1.5])
    def test_rejects_momentum_outside_unit_interval(self, config, momentum):
        with pytest.raises(DomainError, match=r"momentum must be in \[0, 1\)"):
            _stage_config(config, momentum=momentum)

    @pytest.mark.parametrize("config", [DistillConfig, TeacherConfig])
    @pytest.mark.parametrize("weight_decay", [-2.0, float("nan")])
    def test_rejects_negative_or_non_finite_weight_decay(self, config, weight_decay):
        with pytest.raises(DomainError, match="weight_decay must be finite and >= 0"):
            _stage_config(config, weight_decay=weight_decay)

    @pytest.mark.parametrize("config", [DistillConfig, TeacherConfig])
    def test_accepts_sgd_values_at_their_bounds(self, config):
        assert _stage_config(config, momentum=0.0, weight_decay=0.0).momentum == 0.0
        assert _stage_config(config, momentum=0.9, weight_decay=5e-4).weight_decay == 5e-4


class TestCalibrate:
    def test_produces_one_param_per_site(self):
        net = prepare_student(_teacher(), 8)
        calibrate(net, batch_stream(_space(), 16, seed=1), 4)
        assert net.is_calibrated
        assert len(net.activation_params) == net.activation_site_count

    def test_zero_batches_rejected(self):
        net = prepare_student(_teacher(), 8)
        with pytest.raises(StateError):
            calibrate(net, batch_stream(_space(), 16, seed=1), 0)

    def test_deterministic_given_same_stream(self):
        a = prepare_student(_teacher(), 8)
        b = prepare_student(_teacher(), 8)
        calibrate(a, batch_stream(_space(), 16, seed=2), 4)
        calibrate(b, batch_stream(_space(), 16, seed=2), 4)
        assert a.activation_params == b.activation_params

    def test_constant_stream_hits_degenerate_fallback(self):
        net = prepare_student(_teacher(), 8)

        def constant_stream():
            from quantdistill.synth import Batch

            while True:
                yield Batch(inputs=Tensor(np.zeros((4, 12), dtype=np.float32)))

        calibrate(net, constant_stream(), 3)
        # relu sites see all zeros -> degenerate range, scale falls back to 1
        assert any(p.range_lo == p.range_hi for p in net.activation_params)

    def test_requires_bit_width(self):
        net = _teacher()
        with pytest.raises(StateError):
            calibrate(net, batch_stream(_space(), 16, seed=1), 2)


class TestFinetune:
    def _setup(self, bits=8, iterations=5):
        teacher = _teacher(seed=3)
        space = _space(seed=4)
        student = prepare_student(teacher, bits)
        calibrate(student, batch_stream(space, 16, seed=5), 4)
        cfg = DistillConfig(batch_size=16, iterations=iterations, lr=1e-4, momentum=0.9,
                            weight_decay=5e-4, bit_width=bits)
        return teacher, student, space, cfg

    def test_zero_iterations_leaves_student_unchanged(self):
        teacher, student, space, cfg = self._setup(iterations=0)
        before = net_fingerprint(student)
        student, curve = finetune(student, teacher, batch_stream(space, 16, seed=7), cfg)
        assert net_fingerprint(student) == before
        assert curve == []

    def test_teacher_bit_identical_after_finetune(self):
        teacher, student, space, cfg = self._setup(iterations=10)
        before = net_fingerprint(teacher)
        finetune(student, teacher, batch_stream(space, 16, seed=7), cfg)
        assert net_fingerprint(teacher) == before

    def test_same_seed_gives_bit_identical_students(self):
        results = []
        for _ in range(2):
            teacher, student, space, cfg = self._setup(iterations=15)
            student, _ = finetune(student, teacher, batch_stream(space, 16, seed=7), cfg)
            results.append(net_fingerprint(student))
        assert results[0] == results[1]

    def test_uncalibrated_student_rejected(self):
        teacher = _teacher(seed=3)
        student = prepare_student(teacher, 8)
        cfg = DistillConfig(batch_size=16, iterations=1, lr=1e-4, momentum=0.9,
                            weight_decay=5e-4, bit_width=8)
        with pytest.raises(StateError):
            finetune(student, teacher, batch_stream(_space(), 16, seed=1), cfg)

    def test_dimension_mismatch_rejected(self):
        teacher, student, space, cfg = self._setup()
        other_teacher = build_embedding_net(12, (16,), 4, seed=9)
        with pytest.raises(DimensionError):
            finetune(student, other_teacher, batch_stream(space, 16, seed=7), cfg)

    def test_labeled_batches_rejected(self):
        teacher, student, space, cfg = self._setup()
        labeled = batch_stream(space, 16, seed=7, labeled=True)
        with pytest.raises(DomainError):
            distill_step(student, teacher, next(labeled), cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow under test
    def test_divergence_names_width_step_layer_and_last_loss(self):
        teacher, student, space, cfg = self._setup(iterations=50)
        cfg.lr = 1e9
        with pytest.raises(DomainError) as info:
            finetune(student, teacher, batch_stream(space, 16, seed=7), cfg)
        assert re.fullmatch(r"distill w8 step \d+: SGD update of layer \d+ is not finite "
                            r"\(last finite loss [0-9.]+\)", str(info.value)), info.value

    def test_loss_recorded_every_step(self):
        teacher, student, space, cfg = self._setup(iterations=8)
        _, curve = finetune(student, teacher, batch_stream(space, 16, seed=7), cfg)
        assert len(curve) == 8
        assert all(0.0 <= r.loss <= 2.0 for r in curve)

    def test_a_loaded_student_cannot_train(self, tmp_path):
        # A loaded net's weights must stay on the grid its pinned
        # parameters describe, which its quantized forward relies on.
        teacher, student, space, cfg = self._setup()
        save_model(student, tmp_path / "w8.qfmd", mode="quantized")
        loaded = load_model(tmp_path / "w8.qfmd")
        pins, before = list(loaded.frozen_weight_params), net_fingerprint(loaded)
        grads = {i: (Tensor(np.ones(l.weight.shape)), Tensor(np.ones(l.bias.shape)))
                 for i, l in enumerate(loaded.layers)}
        with pytest.raises(StateError, match="pinned weight parameters"):
            sgd_step(loaded, grads, 0.1, 0.9, 0.0)
        with pytest.raises(StateError, match="pinned weight parameters"):
            finetune(loaded, teacher, batch_stream(space, 16, seed=7), cfg)
        assert net_fingerprint(loaded) == before
        assert all(a is b for a, b in zip(loaded.frozen_weight_params, pins, strict=True))
        assert loaded._velocity == {}

    def test_a_student_prepared_from_a_loaded_one_trains(self, tmp_path):
        teacher, student, space, cfg = self._setup()
        save_model(student, tmp_path / "w8.qfmd", mode="quantized")
        loaded = load_model(tmp_path / "w8.qfmd")
        again = prepare_student(loaded, 6)
        assert again.frozen_weight_params is None
        calibrate(again, batch_stream(space, 16, seed=5), 4)
        cfg.bit_width = 6
        again, curve = finetune(again, teacher, batch_stream(space, 16, seed=7), cfg)
        assert len(curve) == cfg.iterations
        assert net_fingerprint(again) != net_fingerprint(loaded)


class TestCurveHelpers:
    def test_final_smoothed_loss_is_the_trailing_mean(self):
        from quantdistill.distiller import SMOOTHING_WINDOW, KDBatchResult

        assert SMOOTHING_WINDOW == 100
        curve = [KDBatchResult(loss=float(v)) for v in range(250)]
        assert final_smoothed_loss(curve) == 199.5  # steps 150-249
        assert final_smoothed_loss(curve[:10]) == 4.5  # every step of a short run

    def test_write_loss_curve_format(self, tmp_path):
        from quantdistill.distiller import KDBatchResult

        path = tmp_path / "loss.csv"
        write_loss_curve(path, [KDBatchResult(loss=0.5), KDBatchResult(loss=0.25)])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,loss"
        assert lines[1] == "0,0.5"
        assert lines[2] == "1,0.25"


class TestTrainingStartsNoThread:
    """Every product of a training step at the reference shapes (batch 64,
    64-wide layers, 200 identities) has fewer than ``RANGE_ROWS`` rows, so it
    is one kernel call of one range on the calling thread, and no step
    starts a thread, in Python or in the kernel, however many CPUs the
    process may use."""

    @pytest.fixture
    def started(self, monkeypatch):
        monkeypatch.setattr(tensor_core, "WORKERS", 8)
        started = []
        start = threading.Thread.start

        def record(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", record)
        return started

    @staticmethod
    def assert_one_range_each(product_calls):
        assert product_calls
        assert set(product_calls) == {(1, threading.get_ident())}

    def test_train_teacher_step(self, started, product_calls):
        space = make_identity_space(200, 16, 64, 0.15, seed=0)
        net = build_embedding_net(64, (64, 64), 32, seed=1)
        tcfg = TeacherConfig(iterations=1, batch_size=64, lr=0.1, momentum=0.9,
                             weight_decay=5e-4, seed=0)
        losses = train_teacher(net, space, tcfg)
        assert len(losses) == 1
        assert started == []
        self.assert_one_range_each(product_calls)

    def test_distill_step(self, started, product_calls):
        space = make_identity_space(200, 16, 64, 0.15, seed=0)
        teacher = build_embedding_net(64, (64, 64), 32, seed=1)
        student = prepare_student(teacher, 4)
        calibrate(student, batch_stream(space, 64, seed=2), 2)
        cfg = DistillConfig(batch_size=64, iterations=1, lr=1e-4, momentum=0.9,
                            weight_decay=5e-4, bit_width=4)
        result = distill_step(student, teacher, next(batch_stream(space, 64, seed=3)), cfg)
        assert 0.0 <= result.loss <= 2.0
        assert started == []
        self.assert_one_range_each(product_calls)
