"""Fine-tuning of a quantized student against a frozen full-precision teacher.

The student learns to reproduce the teacher's L2-normalized embeddings on
unlabeled synthetic batches: the loss is one minus the mean cosine
similarity between matching rows, gradients reach only the student (through
the straight-through estimators of its fake-quant nodes), and plain SGD
with momentum updates the student's shadow weights. Activation ranges are
calibrated once, before fine-tuning, and stay frozen afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DimensionError, DomainError, StateError, step_error
from .graph import (
    EmbeddingNet,
    backward_embed,
    clone_net,
    forward_embed,
    observe_activations,
    sgd_step,
)
from .model_store import write_atomic
from .quantizer import RangeObserver, SUPPORTED_BIT_WIDTHS
from .synth import Batch
from .tensor_core import Tensor

# Reference schedule at production scale: 11K iterations at lr 1e-4.
# The desk-scale default keeps the learning rate and scales the iteration
# count down in proportion to the much smaller task.
FULL_SCALE_ITERATIONS = 11_000
DEFAULT_LR = 1e-4
DESK_SCALE_ITERATIONS = 2_000

# Calibration pass before fine-tuning; enough batches to stabilize running
# extrema on the desk-scale task.
DEFAULT_CALIBRATION_BATCHES = 16


@dataclass
class DistillConfig:
    """Hyperparameters for one fine-tuning run."""

    batch_size: int = 64
    iterations: int = DESK_SCALE_ITERATIONS
    lr: float = DEFAULT_LR
    momentum: float = 0.9
    weight_decay: float = 5e-4
    bit_width: int = 8

    def __post_init__(self):
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.iterations < 0:
            raise DomainError(f"iterations must be >= 0, got {self.iterations}")
        if self.lr <= 0:
            raise DomainError(f"lr must be positive, got {self.lr}")
        if self.bit_width not in SUPPORTED_BIT_WIDTHS:
            raise DomainError(f"unsupported bit width {self.bit_width}")


@dataclass(frozen=True)
class KDBatchResult:
    """Loss and per-layer weight-gradient norms for one distillation step."""

    loss: float
    grad_norms: tuple[float, ...]


def kd_loss(fq: Tensor, ft: Tensor) -> float:
    """One minus the mean cosine similarity between matching embedding rows.

    Both inputs must be batches of L2-normalized rows (the forward pass
    guarantees this). Computed as mean(|u - v|^2) / 2 with u, v the
    re-normalized rows, which is algebraically 1 - mean(cos) and lands on
    exactly 0.0 for identical batches and exactly 2.0 for anti-aligned
    unit rows.
    """
    _check_pair(fq, ft)
    diff = _unit_rows(fq) - _unit_rows(ft)
    loss = float(np.mean(np.sum(diff * diff, axis=1)) / 2.0)
    return min(max(loss, 0.0), 2.0)


def kd_loss_grad(fq: Tensor, ft: Tensor) -> Tensor:
    """Gradient of kd_loss wrt the student embeddings fq (teacher frozen)."""
    _check_pair(fq, ft)
    u = _unit_rows(fq)
    v = _unit_rows(ft)
    m = u.shape[0]
    na = np.sqrt(np.sum(fq.data.astype(np.float64) ** 2, axis=1, keepdims=True))
    cos = np.sum(u * v, axis=1, keepdims=True)
    grad = (cos * u - v) / (m * na)
    return Tensor._wrap(grad.astype(np.float32))


def _unit_rows(t: Tensor) -> np.ndarray:
    if t.rank != 2:
        raise DimensionError(f"embeddings must be rank 2, got {t.shape}")
    x = t.data.astype(np.float64)
    norms = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
    if np.any(norms == 0.0):
        raise DomainError("zero-norm embedding row")
    return x / norms


def _check_pair(fq: Tensor, ft: Tensor) -> None:
    if fq.shape != ft.shape:
        raise DimensionError(f"student {fq.shape} and teacher {ft.shape} embeddings differ")


def prepare_student(teacher: EmbeddingNet, bit_width: int) -> EmbeddingNet:
    """Clone the teacher and configure it for quantized training."""
    student = clone_net(teacher)
    student.set_quantization(bit_width)
    return student


def calibrate(net: EmbeddingNet, data: Iterator[Batch], n_batches: int) -> EmbeddingNet:
    """Record activation ranges over full-precision forwards, then freeze them.

    Replaces any previous calibration; the frozen parameters use the net's
    configured bit width.
    """
    if net.quant_bits is None:
        raise StateError("set a bit width before calibrating")
    if n_batches <= 0:
        raise StateError("calibration requires at least one batch")
    observers = [RangeObserver() for _ in range(net.activation_site_count)]
    for _ in range(n_batches):
        batch = next(data)
        observe_activations(net, batch.inputs, observers)
    net.activation_params = [o.freeze(net.quant_bits) for o in observers]
    return net


def distill_step(student: EmbeddingNet, teacher: EmbeddingNet, batch: Batch,
                 cfg: DistillConfig) -> KDBatchResult:
    """One fine-tuning step on one unlabeled batch."""
    if batch.labels is not None:
        raise DomainError("distillation consumes unlabeled batches only")
    ft, _ = forward_embed(teacher, batch.inputs, quantized=False)
    fq, tape = forward_embed(student, batch.inputs, quantized=True)
    _check_pair(fq, ft)
    loss = kd_loss(fq, ft)
    grads = backward_embed(student, tape, kd_loss_grad(fq, ft))
    norms = tuple(float(np.linalg.norm(grads[i][0].data)) for i in sorted(grads))
    sgd_step(student, grads, cfg.lr, cfg.momentum, cfg.weight_decay)
    return KDBatchResult(loss=loss, grad_norms=norms)


def finetune(student: EmbeddingNet, teacher: EmbeddingNet, data: Iterator[Batch],
             cfg: DistillConfig) -> tuple[EmbeddingNet, list[KDBatchResult]]:
    """Run the full distillation schedule; the teacher is never touched.

    Returns the trained student and the per-step loss curve. A step that
    fails, such as on a non-finite loss or update, raises ``DomainError``
    naming the width, the step and the last finite loss.
    """
    if not student.is_calibrated:
        raise StateError("student must be calibrated before fine-tuning")
    if student.embed_dim != teacher.embed_dim:
        raise DimensionError(
            f"embedding dims differ: student {student.embed_dim}, teacher {teacher.embed_dim}")
    if student.quant_bits != cfg.bit_width:
        raise StateError(
            f"student configured for {student.quant_bits}-bit, config says {cfg.bit_width}-bit")
    curve: list[KDBatchResult] = []
    # Overflow, NaN and log(0) show as the step's DomainError, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(cfg.iterations):
            batch = next(data)
            try:
                result = distill_step(student, teacher, batch, cfg)
                if not math.isfinite(result.loss):
                    raise DomainError(f"KD loss is {result.loss}")
            except DomainError as exc:
                raise step_error(f"distill w{cfg.bit_width}", step,
                                 curve[-1].loss if curve else None, exc) from exc
            curve.append(result)
    return student, curve


def smoothed_losses(curve: list[KDBatchResult], window: int = 100) -> list[float]:
    """Trailing-window means of the loss curve, one value per window."""
    losses = [r.loss for r in curve]
    if not losses:
        return []
    window = max(1, min(window, len(losses)))
    return [float(np.mean(losses[i:i + window])) for i in range(0, len(losses), window)]


def write_loss_curve(path, curve: list[KDBatchResult]) -> None:
    """Export the loss curve as CSV with `step,loss` rows."""
    lines = ["step,loss"]
    lines += [f"{i},{r.loss:.9g}" for i, r in enumerate(curve)]
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))
