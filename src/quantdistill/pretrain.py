"""Full-precision teacher pretraining on labeled synthetic identities.

The teacher is trained with plain softmax cross-entropy over a linear
classifier head attached to the normalized embedding; the head exists only
during pretraining and is dropped afterwards. Logits are scaled by a fixed
constant because normalized embeddings bound the raw dot products to
[-1, 1], which would make the softmax too flat to train.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, step_error
from .graph import (
    EmbeddingNet,
    backward_embed,
    forward_embed,
    sgd_step,
    softmax_cross_entropy,
)
from .synth import IdentitySpace, batch_stream
from .tensor_core import Tensor, matmul, transpose

LOGIT_SCALE = 16.0


@dataclass
class TeacherConfig:
    """Teacher pretraining schedule (desk scale)."""

    iterations: int = 2500
    batch_size: int = 64
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    seed: int = 0
    # Learning rate drops by 10x at these fractions of the schedule,
    # mirroring the usual step decay of full-scale embedding training.
    milestones: tuple[float, ...] = (0.5, 0.8)

    def __post_init__(self):
        if self.iterations < 1:
            raise DomainError(f"iterations must be >= 1, got {self.iterations}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise DomainError(f"lr must be positive, got {self.lr}")


def train_teacher(net: EmbeddingNet, space: IdentitySpace,
                  cfg: TeacherConfig) -> list[float]:
    """Train the net in place as a classifier over the space's identities.

    Returns the per-step cross-entropy curve. The classifier head is local
    to this function; only the embedding stack persists. A step that fails,
    such as on a non-finite loss or update, raises ``DomainError`` naming
    the step and the last finite loss.
    """
    rng = np.random.default_rng(cfg.seed)
    head = (rng.standard_normal((space.n_identities, net.embed_dim))
            / np.sqrt(net.embed_dim)).astype(np.float32)
    head_v = np.zeros_like(head)
    steps = {int(f * cfg.iterations) for f in cfg.milestones}

    data = batch_stream(space, cfg.batch_size, cfg.seed, labeled=True)
    losses: list[float] = []
    lr = cfg.lr
    scale = np.float32(LOGIT_SCALE)
    # Overflow, NaN and log(0) show as the step's DomainError, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(cfg.iterations):
            if step in steps:
                lr /= 10.0
            batch = next(data)
            try:
                emb, tape = forward_embed(net, batch.inputs, quantized=False)
                # head is rebound below, never written in place.
                head_t = Tensor._wrap(head)
                logits = matmul(emb, transpose(head_t))
                logits = Tensor._wrap(logits.data * scale)
                loss, d_logits = softmax_cross_entropy(logits, batch.labels)
                if not math.isfinite(loss):
                    raise DomainError(f"cross-entropy is {loss}")
                losses.append(loss)

                d_logits_scaled = Tensor._wrap(d_logits.data * scale)
                d_emb = matmul(d_logits_scaled, head_t)
                d_head = matmul(transpose(d_logits_scaled), emb)

                grads = backward_embed(net, tape, d_emb)
                sgd_step(net, grads, lr, cfg.momentum, cfg.weight_decay)
            except DomainError as exc:
                raise step_error("pretrain", step, losses[-1] if losses else None, exc) from exc
            head_v = (np.float32(cfg.momentum) * head_v + d_head.data
                      + np.float32(cfg.weight_decay) * head)
            head = head - np.float32(lr) * head_v
    return losses
