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
    finetune,
    kd_loss,
    kd_loss_grad,
    prepare_student,
    smoothed_losses,
    write_loss_curve,
)
from quantdistill.errors import DimensionError, DomainError, StateError
from quantdistill.graph import build_embedding_net, forward_embed, net_fingerprint
from quantdistill.pretrain import TeacherConfig, train_teacher
from quantdistill.synth import batch_stream, make_identity_space, sample_unlabeled
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


class TestDistillConfig:
    def test_defaults(self):
        cfg = DistillConfig()
        assert cfg.lr == 1e-4
        assert cfg.iterations == 2000
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 5e-4

    def test_full_scale_reference_recorded(self):
        from quantdistill.distiller import DEFAULT_LR, FULL_SCALE_ITERATIONS

        assert FULL_SCALE_ITERATIONS == 11_000
        assert DEFAULT_LR == 1e-4

    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            DistillConfig(batch_size=0)
        with pytest.raises(DomainError):
            DistillConfig(iterations=-1)
        with pytest.raises(DomainError):
            DistillConfig(bit_width=5)


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
        cfg = DistillConfig(batch_size=16, iterations=iterations, bit_width=bits)
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
        cfg = DistillConfig(batch_size=16, iterations=1, bit_width=8)
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
        assert all(len(r.grad_norms) == 2 for r in curve)


class TestCurveHelpers:
    def test_smoothed_losses_window_means(self):
        from quantdistill.distiller import KDBatchResult

        curve = [KDBatchResult(loss=float(v), grad_norms=()) for v in range(10)]
        sm = smoothed_losses(curve, window=5)
        assert sm == [2.0, 7.0]

    def test_write_loss_curve_format(self, tmp_path):
        from quantdistill.distiller import KDBatchResult

        path = tmp_path / "loss.csv"
        write_loss_curve(path, [KDBatchResult(loss=0.5, grad_norms=()),
                                KDBatchResult(loss=0.25, grad_norms=())])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,loss"
        assert lines[1] == "0,0.5"
        assert lines[2] == "1,0.25"


class TestTrainingStartsNoThread:
    """Every product of a training step at the reference shapes (batch 64,
    64-wide layers, 200 identities) takes the small chunked method, so no
    step starts a thread, however many CPUs the process may use."""

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

    def test_train_teacher_step(self, started):
        space = make_identity_space(200, 16, 64, 0.15, seed=0)
        net = build_embedding_net(64, (64, 64), 32, seed=1)
        losses = train_teacher(net, space, TeacherConfig(iterations=1, batch_size=64))
        assert len(losses) == 1
        assert started == []

    def test_distill_step(self, started):
        space = make_identity_space(200, 16, 64, 0.15, seed=0)
        teacher = build_embedding_net(64, (64, 64), 32, seed=1)
        student = prepare_student(teacher, 4)
        calibrate(student, batch_stream(space, 64, seed=2), 2)
        cfg = DistillConfig(batch_size=64, iterations=1, bit_width=4)
        result = distill_step(student, teacher, next(batch_stream(space, 64, seed=3)), cfg)
        assert 0.0 <= result.loss <= 2.0
        assert started == []
