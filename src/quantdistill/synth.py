"""Procedural unlabeled-sample source for calibration and distillation.

Samples come from a fixed set of identity prototypes in a latent space:
each draw picks an identity uniformly, perturbs its prototype with
Gaussian noise, and pushes the latent through a fixed random linear map
followed by tanh. The tanh keeps inputs in (-1, 1), which keeps first-layer
activation ranges bounded and calibration well-posed. Labels exist only on
the teacher-pretraining path; the distillation path never sees them.

The stream interface (batches of row vectors) is the integration boundary:
any other generator producing batches of the same width can be swapped in.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DomainError
from .tensor_core import Tensor, matmul


def derive_seed(master: int, label: str) -> int:
    """Stable named sub-seed so components draw from isolated streams."""
    return zlib.crc32(f"{master}:{label}".encode("utf-8")) & 0x7FFFFFFF


@dataclass(frozen=True)
class IdentitySpace:
    """Fixed identity prototypes plus the latent-to-input mixing map."""

    n_identities: int
    latent_dim: int
    noise_sigma: float
    prototypes: np.ndarray  # [n_identities, latent_dim], unit-norm rows
    mixing: np.ndarray      # [latent_dim, input_dim]

    def __post_init__(self):
        for name in ("prototypes", "mixing"):
            arr = getattr(self, name)
            arr = np.ascontiguousarray(arr, dtype=np.float32)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class Batch:
    """One batch of inputs; labels are present only on the pretraining path."""

    inputs: Tensor
    labels: np.ndarray | None = None  # read-only int64, one per row

    def __post_init__(self):
        if self.inputs.rank != 2:
            raise DomainError(f"batch inputs must be rank 2, got {self.inputs.shape}")
        if self.labels is not None:
            labels = np.array(self.labels, dtype=np.int64)
            if labels.shape != (self.inputs.shape[0],):
                raise DomainError(
                    f"labels of shape {labels.shape} for batch of {self.inputs.shape[0]}")
            labels.flags.writeable = False
            object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


def make_identity_space(n_identities: int, latent_dim: int, input_dim: int,
                        noise_sigma: float, seed: int) -> IdentitySpace:
    """Deterministically construct an identity space from a seed.

    Prototypes are standard-normal rows normalized to unit length; the
    mixing map is a standard-normal matrix (drawn after the prototypes,
    so the stream layout is part of the determinism contract).
    """
    if n_identities < 2:
        raise DomainError(f"need at least 2 identities, got {n_identities}")
    if latent_dim < 2 or input_dim < 2:
        raise DomainError(f"dims must be >= 2, got latent={latent_dim} input={input_dim}")
    if noise_sigma < 0:
        raise DomainError(f"noise_sigma must be non-negative, got {noise_sigma}")
    rng = np.random.default_rng(seed)
    protos = rng.standard_normal((n_identities, latent_dim))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    mixing = rng.standard_normal((latent_dim, input_dim))
    return IdentitySpace(n_identities=n_identities, latent_dim=latent_dim,
                         noise_sigma=float(noise_sigma), prototypes=protos.astype(np.float32),
                         mixing=mixing.astype(np.float32))


def render_latents(space: IdentitySpace, latents: np.ndarray) -> Tensor:
    """Map latent rows through the fixed mixing matrix and tanh."""
    mixed = matmul(Tensor(latents.astype(np.float32)), Tensor._wrap(space.mixing))
    return Tensor._wrap(np.tanh(mixed.data))


def _draw(space: IdentitySpace, ids: np.ndarray, rng: np.random.Generator) -> Tensor:
    """One input per identity index: its prototype plus fresh noise, rendered."""
    noise = rng.standard_normal((ids.size, space.latent_dim)) * space.noise_sigma
    latents = space.prototypes[ids].astype(np.float64) + noise
    return render_latents(space, latents)


def sample_unlabeled(space: IdentitySpace, m: int, seed: int) -> Batch:
    """The inputs of sample_labeled with the same seed, labels discarded."""
    return Batch(inputs=sample_labeled(space, m, seed).inputs)


def sample_labeled(space: IdentitySpace, m: int, seed: int) -> Batch:
    """Batch of m inputs of uniformly drawn identities, with their labels."""
    if m < 1:
        raise DomainError(f"batch size must be >= 1, got {m}")
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, space.n_identities, size=m)
    return Batch(inputs=_draw(space, ids, rng), labels=ids)


def sample_for_identities(space: IdentitySpace, ids, seed: int) -> Tensor:
    """One input per requested identity index, with independent noise."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        raise DomainError("no identities requested")
    if ids.min() < 0 or ids.max() >= space.n_identities:
        raise DomainError(f"identity index out of range [0, {space.n_identities})")
    return _draw(space, ids, np.random.default_rng(seed))


def batch_stream(space: IdentitySpace, batch_size: int, seed: int,
                 labeled: bool = False) -> Iterator[Batch]:
    """Endless deterministic stream of batches.

    Batch i is a pure function of (space, seed, i), so a producer thread
    may run ahead of the consumer without affecting results.
    """
    i = 0
    while True:
        batch_seed = derive_seed(seed, f"batch-{i}")
        yield (sample_labeled if labeled else sample_unlabeled)(space, batch_size, batch_seed)
        i += 1

