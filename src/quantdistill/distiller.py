"""Fine-tuning of a quantized student against a frozen full-precision teacher.

The student learns to reproduce the teacher's L2-normalized embeddings on
unlabeled synthetic batches: the loss is one minus the mean cosine
similarity between matching rows, gradients reach only the student (through
the straight-through estimators of its fake-quant nodes), and plain SGD
with momentum updates the student's shadow weights; the loss and its
gradient are one compiled call each. Activation ranges are calibrated
once, before fine-tuning, and stay frozen afterwards.
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
    check_sgd_params,
    clone_net,
    forward_embed,
    observe_activations,
    sgd_step,
)
from .model_store import write_atomic
from .quantizer import RangeObserver, SUPPORTED_BIT_WIDTHS
from .synth import Batch
from .tensor_core import _MATMUL, Tensor

# Calibration pass before fine-tuning; enough batches to stabilize running
# extrema on the desk-scale task.
DEFAULT_CALIBRATION_BATCHES = 16

# Trailing steps averaged by final_smoothed_loss.
SMOOTHING_WINDOW = 100


@dataclass
class DistillConfig:
    """Hyperparameters for one fine-tuning run."""

    batch_size: int
    iterations: int
    lr: float
    momentum: float
    weight_decay: float
    bit_width: int

    def __post_init__(self):
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.iterations < 0:
            raise DomainError(f"iterations must be >= 0, got {self.iterations}")
        check_sgd_params(self.lr, self.momentum, self.weight_decay)
        if self.bit_width not in SUPPORTED_BIT_WIDTHS:
            raise DomainError(f"unsupported bit width {self.bit_width}")


@dataclass(frozen=True)
class KDBatchResult:
    """Loss of one distillation step."""

    loss: float


def kd_loss(fq: Tensor, ft: Tensor) -> float:
    """One minus the mean cosine similarity between matching embedding rows.

    Both inputs must be equal-shaped batches of at least one row (the
    forward pass gives L2-normalized ones). One compiled call gives the
    bits of the float64 mean(|u - v|^2) / 2 with u, v the re-normalized
    rows, clamped to [0, 2]: algebraically 1 - mean(cos), exactly 0.0 for
    identical batches and exactly 2.0 for anti-aligned unit rows.
    """
    return _score(fq, ft, None)


def kd_loss_grad(fq: Tensor, ft: Tensor) -> Tensor:
    """Gradient of kd_loss wrt the student embeddings fq (teacher frozen):
    ``(cos u - v) / (m |fq|)`` per row, in one compiled call."""
    grad = np.empty(fq.shape, dtype=np.float32)
    _score(fq, ft, grad)
    return Tensor._wrap(grad)


def _score(fq: Tensor, ft: Tensor, grad: np.ndarray | None) -> float:
    """The loss and, into ``grad`` unless it is None, its gradient."""
    if fq.shape != ft.shape:
        raise DimensionError(f"student {fq.shape} and teacher {ft.shape} embeddings differ")
    if fq.rank != 2 or fq.shape[0] == 0:
        raise DimensionError(f"embeddings must be a rank-2 batch of rows, got {fq.shape}")
    try:
        return _MATMUL.kd_loss(fq.data, ft.data, np.empty(fq.shape[0]), grad)
    except ZeroDivisionError:
        raise DomainError("zero-norm embedding row") from None


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
    loss = kd_loss(fq, ft)
    grads = backward_embed(student, tape, kd_loss_grad(fq, ft))
    sgd_step(student, grads, cfg.lr, cfg.momentum, cfg.weight_decay)
    return KDBatchResult(loss=loss)


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


def final_smoothed_loss(curve: list[KDBatchResult]) -> float:
    """Mean loss of the last ``SMOOTHING_WINDOW`` steps, or of every step
    when the curve is shorter; an empty curve raises ``DomainError``."""
    if not curve:
        raise DomainError("an empty loss curve has no final loss")
    return float(np.mean([r.loss for r in curve[-SMOOTHING_WINDOW:]]))


def write_loss_curve(path, curve: list[KDBatchResult]) -> None:
    """Export the loss curve as CSV with `step,loss` rows."""
    lines = ["step,loss"]
    lines += [f"{i},{r.loss:.9g}" for i, r in enumerate(curve)]
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))
