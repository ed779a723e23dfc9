"""Verification-style evaluation and activation-range comparison.

Evaluation follows the usual embedding-verification protocol: cosine
similarity between normalized embeddings of sample pairs, accuracy at the
best threshold from an exhaustive sweep, and the true acceptance rate at a
fixed false acceptance rate taken from the imposter-score quantile. At
desk scale the imposter pool is a few thousand pairs, so the default FAR
target is 1e-2; smaller quantiles are not estimable from that pool.

A pair whose embedding has zero norm has no cosine, and no pair is
dropped from a report: a request that meets one fails as a whole.
:func:`verify` raises ``DomainError("cannot normalize a zero-norm row")``
(from the embedding forward's normalization), and the ``eval`` command
exits 6. Low-bit models can embed an input to zero when every value of
the last activation site rounds to the zero code.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionError, DomainError, StateError
from .graph import EmbeddingNet, embed
from .model_store import write_atomic
from .synth import IdentitySpace, derive_seed, sample_for_identities
from .tensor_core import _MATMUL, Tensor

DEFAULT_FAR_TARGETS = (0.01,)


@dataclass(frozen=True)
class PairSet:
    """Balanced genuine/imposter input pairs with ground-truth flags.

    ``rows`` stacks every pair's first side above every pair's second
    side, so a request embeds it as it is.
    """

    rows: Tensor
    same: np.ndarray  # bool per pair

    def __post_init__(self):
        same = np.ascontiguousarray(self.same, dtype=bool)
        same.flags.writeable = False
        object.__setattr__(self, "same", same)
        if same.ndim != 1 or self.rows.rank != 2 or self.rows.shape[0] != 2 * same.size:
            raise DimensionError(f"{same.shape} flags for stacked pair rows {self.rows.shape}")

    @property
    def n_pairs(self) -> int:
        return self.same.size


@dataclass(frozen=True)
class VerificationReport:
    """Accuracy at the best threshold plus TAR at the requested FAR targets."""

    accuracy: float
    threshold: float
    tar_at_far: dict[float, float]
    genuine_mean: float
    imposter_mean: float
    n_genuine: int
    n_imposter: int

    def as_dict(self) -> dict:
        return {**asdict(self), "tar_at_far": {
            f"{far:g}": tar for far, tar in sorted(self.tar_at_far.items())}}


@dataclass(frozen=True)
class RangeCorrelationReport:
    """Interval overlap of two calibrations, per activation depth."""

    intervals_a: tuple[tuple[float, float], ...]
    intervals_b: tuple[tuple[float, float], ...]
    iou: tuple[float, ...]
    mean_iou: float

    def as_dict(self) -> dict:
        return {
            "per_depth": [
                {"depth": i, "a": list(self.intervals_a[i]), "b": list(self.intervals_b[i]),
                 "iou": self.iou[i]}
                for i in range(len(self.iou))
            ],
            "mean_iou": self.mean_iou,
        }


def build_pairs(space: IdentitySpace, n_pairs: int, seed: int) -> PairSet:
    """n_pairs/2 genuine pairs (same identity, independent noise) and
    n_pairs/2 imposter pairs (distinct identities), deterministic per seed."""
    if n_pairs < 2 or n_pairs % 2 != 0:
        raise DomainError(f"n_pairs must be even and >= 2, got {n_pairs}")
    if space.n_identities < 2:
        raise DomainError("need at least 2 identities to build imposter pairs")
    half = n_pairs // 2
    rng = np.random.default_rng(derive_seed(seed, "pair-ids"))
    genuine_ids = rng.integers(0, space.n_identities, size=half)
    imp_a = rng.integers(0, space.n_identities, size=half)
    shift = rng.integers(1, space.n_identities, size=half)
    imp_b = (imp_a + shift) % space.n_identities

    first_ids = np.concatenate([genuine_ids, imp_a])
    second_ids = np.concatenate([genuine_ids, imp_b])
    first = sample_for_identities(space, first_ids, derive_seed(seed, "pair-first"))
    second = sample_for_identities(space, second_ids, derive_seed(seed, "pair-second"))
    same = np.concatenate([np.ones(half, dtype=bool), np.zeros(half, dtype=bool)])
    return PairSet(rows=Tensor._wrap(np.concatenate([first.data, second.data])), same=same)


def pair_scores(net: EmbeddingNet, pairs: PairSet) -> np.ndarray:
    """Cosine similarity per pair, quantized exactly when the net is calibrated.

    Both sides go through one tape-free forward of the stacked
    ``pairs.rows``; every row is embedded independently, so the scores
    equal those of one forward per side. Each cosine is the float64 dot
    product of the pair's unit embeddings, in one compiled call with the
    bits of ``np.sum(a * b, axis=1)`` on the float64 sides.
    """
    e = embed(net, pairs.rows).data
    n = pairs.n_pairs
    scores = np.empty(n)
    _MATMUL.row_dots(e[:n], e[n:], scores)
    return scores


def best_threshold_accuracy(scores: np.ndarray, same: np.ndarray) -> tuple[float, float]:
    """Exhaustive sweep over midpoints of adjacent sorted scores.

    Returns (accuracy, threshold) where a pair is called genuine when its
    score is >= threshold; ties in accuracy resolve to the lowest threshold.
    Each candidate's correct count comes from binary searches in the sorted
    genuine and imposter scores, so the sweep is O(n log n); no scores raise ``DomainError``.
    """
    if np.size(scores) == 0:
        raise DomainError("no scores to sweep")
    same = np.asarray(same, dtype=bool)
    order = np.unique(scores)
    candidates = np.concatenate(
        [[order[0] - 1.0], (order[:-1] + order[1:]) / 2.0, [order[-1] + 1.0]])
    genuine = np.sort(scores[same])
    imposter = np.sort(scores[~same])
    # genuine pairs at or above the threshold plus imposter pairs below it
    correct = (genuine.size - np.searchsorted(genuine, candidates, side="left")
               + np.searchsorted(imposter, candidates, side="left"))
    best = int(np.argmax(correct))
    return float(correct[best]) / scores.size, float(candidates[best])


def tar_at_far(scores: np.ndarray, same: np.ndarray, far: float) -> float:
    """TAR with the acceptance threshold set at the FAR quantile of imposters;
    ``far`` must lie in [0, 1]."""
    if not 0 <= far <= 1:
        raise DomainError(f"FAR target must be in [0, 1], got {far}")
    imposter = np.sort(scores[~same])[::-1]
    genuine = scores[same]
    if imposter.size == 0 or genuine.size == 0:
        raise DomainError("both genuine and imposter scores are required")
    k = int(np.floor(far * imposter.size))
    if k >= imposter.size:
        return 1.0
    threshold = imposter[k]
    return float(np.count_nonzero(genuine > threshold)) / genuine.size


def verify(net: EmbeddingNet, pairs: PairSet,
           far_targets=DEFAULT_FAR_TARGETS) -> VerificationReport:
    """Score all pairs and report accuracy and TAR@FAR."""
    if pairs.n_pairs == 0:
        raise DomainError("empty pair set")
    scores = pair_scores(net, pairs)
    acc, thr = best_threshold_accuracy(scores, pairs.same)
    tars = {float(f): tar_at_far(scores, pairs.same, float(f)) for f in far_targets}
    genuine = scores[pairs.same]
    imposter = scores[~pairs.same]
    return VerificationReport(
        accuracy=acc,
        threshold=thr,
        tar_at_far=tars,
        genuine_mean=float(genuine.mean()),
        imposter_mean=float(imposter.mean()),
        n_genuine=int(genuine.size),
        n_imposter=int(imposter.size),
    )


def interval_iou(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Intersection-over-union of two closed intervals.

    Identical zero-length intervals count as fully overlapping (IoU 1).
    """
    overlap = min(a[1], b[1]) - max(a[0], b[0])
    union = max(a[1], b[1]) - min(a[0], b[0])
    if union == 0.0:
        return 1.0 if a == b else 0.0
    return max(overlap, 0.0) / union


def range_correlation(net_a: EmbeddingNet, net_b: EmbeddingNet) -> RangeCorrelationReport:
    """Compare the calibrated activation intervals of two same-architecture nets."""
    if not net_a.same_architecture(net_b):
        raise DimensionError("nets have different architectures")
    if net_a.activation_params is None or net_b.activation_params is None:
        raise StateError("both nets must be calibrated")
    ia = tuple((p.range_lo, p.range_hi) for p in net_a.activation_params)
    ib = tuple((p.range_lo, p.range_hi) for p in net_b.activation_params)
    ious = tuple(interval_iou(a, b) for a, b in zip(ia, ib))
    return RangeCorrelationReport(intervals_a=ia, intervals_b=ib, iou=ious,
                                  mean_iou=float(np.mean(ious)))


def write_range_csv(path, report: RangeCorrelationReport, source_a: str, source_b: str) -> None:
    """Export intervals as `depth,lo,hi,source` rows for external plotting."""
    lines = ["depth,lo,hi,source"]
    for depth, (lo, hi) in enumerate(report.intervals_a):
        lines.append(f"{depth},{lo:.9g},{hi:.9g},{source_a}")
    for depth, (lo, hi) in enumerate(report.intervals_b):
        lines.append(f"{depth},{lo:.9g},{hi:.9g},{source_b}")
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_report_json(path, payload: dict) -> None:
    write_atomic(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))
