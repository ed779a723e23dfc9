"""Affine (asymmetric) quantization to signed low-bit integer codes.

A real value x in [lo, hi] maps to a b-bit signed code via

    code = clip(round(x / s - z), -2**(b-1), 2**(b-1) - 1)

with scale s = (hi - lo) / (2**b - 1) and zero-point
z = round(lo * (2**b - 1) / (hi - lo) + 2**(b-1)); dequantization
approximates x as s * (code + z). Rounding is half-to-even everywhere,
which is deterministic and bias-free.

Weights are quantized per output channel and activations per tensor.
A weight is a rank-2 ``[out, in]`` array, so an output channel is a row,
and the parameters alone fix the layout. One record, :class:`QuantParams`,
holds them at either granularity, with one shape rule:

* Per-tensor: ``scale``, ``zero_point``, ``range_lo`` and ``range_hi`` are
  plain Python scalars, and apply to a tensor of any shape.
* Per-channel: the same four fields are read-only 1-D arrays with one
  entry per row of a rank-2 tensor (float32 scale and range, int64
  zero-point), and the one ``bit_width`` is shared by every row.

Notes on representation:

* ``scale``, ``range_lo`` and ``range_hi`` hold float32 values so that
  serializing them as 32-bit reals is lossless and model files
  round-trip bit-exactly.
* The zero-point is kept in a wide integer: for lo == 0 the formula
  yields exactly 2**(b-1), which does not fit a signed b-bit value.
  Codes are clipped, the zero-point is not.
* Degenerate ranges (hi == lo, e.g. a constant tensor) fall back to
  s = 1 with a zero-point chosen so the constant's code stays in range
  and integer constants round-trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, StateError
from .tensor_core import _MATMUL, Tensor

SUPPORTED_BIT_WIDTHS = (4, 6, 8)

# (name, per-channel array dtype, per-tensor scalar type) of the four
# fields that the shape rule governs.
_FIELDS = (("scale", np.float32, float), ("zero_point", np.int64, int),
           ("range_lo", np.float32, float), ("range_hi", np.float32, float))


@dataclass(frozen=True)
class QuantParams:
    """Affine quantization parameters for one tensor or for each of its slices.

    Scalar fields describe a whole tensor; 1-D array fields (see the
    module notes) describe the rows of a rank-2 tensor.
    """

    scale: float | np.ndarray
    zero_point: int | np.ndarray
    bit_width: int
    range_lo: float | np.ndarray
    range_hi: float | np.ndarray

    def __post_init__(self):
        if self.bit_width not in SUPPORTED_BIT_WIDTHS:
            raise DomainError(f"unsupported bit width {self.bit_width}")
        slices = np.shape(self.scale)[0] if np.ndim(self.scale) else None
        for name, dtype, scalar in _FIELDS:
            value = getattr(self, name)
            if slices is None:
                if np.ndim(value):
                    raise DimensionError(f"per-tensor parameters with an array {name}")
                value = scalar(value)
            else:
                value = np.array(value, dtype=dtype)
                if value.shape != (slices,) or not slices:
                    raise DimensionError(
                        f"per-channel {name} of shape {value.shape}, expected ({slices},)")
                value.flags.writeable = False
            object.__setattr__(self, name, value)
        # np.asarray lets one check serve scalar and array fields.
        if not (np.isfinite(self.range_lo).all() and np.isfinite(self.range_hi).all()):
            raise DomainError(f"non-finite range [{self.range_lo}, {self.range_hi}]")
        if np.asarray(self.range_lo > self.range_hi).any():
            raise DomainError(f"range_lo {self.range_lo} exceeds range_hi {self.range_hi}")
        if not (np.asarray(self.scale > 0).all() and np.isfinite(self.scale).all()):
            raise DomainError(f"scale must be positive and finite, got {self.scale}")

    def __eq__(self, other):
        # Field by field, so that records holding arrays compare by value.
        if not isinstance(other, QuantParams):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f))
                   for f in ("bit_width", *(name for name, _, _ in _FIELDS)))

    @property
    def per_channel(self) -> bool:
        return isinstance(self.scale, np.ndarray)

    @property
    def code_min(self) -> int:
        return -(1 << (self.bit_width - 1))

    @property
    def code_max(self) -> int:
        return (1 << (self.bit_width - 1)) - 1

    def broadcast(self, shape: tuple[int, ...]):
        """(scale, zero_point, range_lo, range_hi) ready to broadcast over a
        tensor of ``shape``: per-tensor fields fit any shape, per-channel
        fields are laid along the rows of a rank-2 tensor with one row each."""
        fields = (self.scale, self.zero_point, self.range_lo, self.range_hi)
        if not self.per_channel:
            return fields
        if len(shape) != 2 or shape[0] != len(self.scale):
            raise DimensionError(f"{len(self.scale)} per-row params for shape {shape}")
        return tuple(f[:, None] for f in fields)


def params_from_range(lo, hi, bit_width: int) -> QuantParams:
    """Build QuantParams from observed range endpoints.

    Scalar endpoints give per-tensor parameters; equal-length 1-D arrays
    give per-channel parameters, one entry per row, derived by the same
    arithmetic. Endpoints are snapped to float32 (the storage precision)
    before the scale and zero-point are derived, so parameters rebuilt
    from a saved model are identical to the originals; one past float32's
    range is refused as non-finite. The law itself (the module notes'
    formulas and the constant-slice fallback) is compiled, in
    ``_matmul.c``, and runs here as the ``derive_params`` entry on the rows
    ``[lo, hi]``; the snapped endpoints themselves are the range returned,
    so a ``[-0.0, +0.0]`` range keeps its signs.
    """
    if bit_width not in SUPPORTED_BIT_WIDTHS:
        raise DomainError(f"unsupported bit width {bit_width}")
    per_channel = np.ndim(lo) > 0
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):  # checked before any cast
        raise DomainError("non-finite range endpoints")
    lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
    hi = np.atleast_1d(np.asarray(hi, dtype=np.float64))
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise DimensionError(f"range endpoints of shapes {lo.shape} and {hi.shape}")
    if (hi < lo).any():
        i = int(np.argmax(hi < lo))
        raise DomainError(f"invalid range [{lo[i]}, {hi[i]}]")
    rows = np.empty((lo.size, 2), np.float32)
    with np.errstate(over="ignore"):  # the law reports an infinite endpoint
        rows[:, 0], rows[:, 1] = lo, hi
    scale, row_lo, row_hi = (np.empty(lo.shape, np.float32) for _ in range(3))
    zero_point = np.empty(lo.shape, np.int64)
    refused = _MATMUL.derive_params(rows, bit_width, None, scale, zero_point, row_lo, row_hi)
    if refused:
        raise DomainError(refused)
    lo32, hi32 = rows.T
    if not per_channel:
        scale, zero_point, lo32, hi32 = scale[0], zero_point[0], lo32[0], hi32[0]
    return QuantParams(scale=scale, zero_point=zero_point, bit_width=bit_width,
                       range_lo=lo32, range_hi=hi32)


@dataclass(frozen=True)
class QuantizedTensor:
    """Integer codes plus the parameters that produced them.

    ``params`` is per-tensor, or per-channel over the rows of rank-2 codes.
    """

    codes: np.ndarray
    shape: tuple[int, ...]
    params: QuantParams

    def __post_init__(self):
        codes = np.ascontiguousarray(self.codes, dtype=np.int32)
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "shape", tuple(self.shape))
        if codes.shape != self.shape:
            raise DimensionError(f"codes shape {codes.shape} != declared {self.shape}")
        self.params.broadcast(self.shape)  # raises on a layout mismatch
        if codes.size and (codes.min() < self.params.code_min
                           or codes.max() > self.params.code_max):
            raise DomainError("codes outside the representable range")


def quantize(x: Tensor, params: QuantParams) -> QuantizedTensor:
    """Map a real tensor to integer codes; out-of-range values saturate."""
    s, z, _, _ = params.broadcast(x.shape)
    t = np.rint(x.data.astype(np.float64) / s - z)
    codes = np.clip(t, params.code_min, params.code_max).astype(np.int32)
    return QuantizedTensor(codes=codes, shape=x.shape, params=params)


def dequantize(q: QuantizedTensor) -> Tensor:
    """Approximate the real values of quantized codes: x ~= s * (code + z)."""
    s, z, _, _ = q.params.broadcast(q.shape)
    x = (s * (q.codes.astype(np.float64) + z)).astype(np.float32)
    if not np.isfinite(x).all():
        raise DomainError("dequantized values overflow float32")
    return Tensor._wrap(x)


def derive_params(t: Tensor, bit_width: int, out: np.ndarray | None) -> QuantParams:
    """Per-channel parameters of a rank-2 tensor: each row gets its own,
    from the row's extrema, by :func:`params_from_range`'s law.

    ``out`` is None, or a writable C-contiguous float32 array of ``t``'s
    shape into which the same compiled call also writes ``t``
    fake-quantized under the parameters, with the bits of ``quantize``
    then ``dequantize``: a live weight's forward takes one call.
    """
    if t.size == 0:
        raise DomainError("cannot derive parameters for an empty tensor")
    if t.rank != 2:
        raise DimensionError(f"per-row parameters need a rank-2 tensor, got shape {t.shape}")
    if bit_width not in SUPPORTED_BIT_WIDTHS:
        raise DomainError(f"unsupported bit width {bit_width}")
    rows = t.shape[0]
    scale, lo, hi = (np.empty(rows, np.float32) for _ in range(3))
    zero_point = np.empty(rows, np.int64)
    refused = _MATMUL.derive_params(t.data, bit_width, out, scale, zero_point, lo, hi)
    if refused:
        raise DomainError(refused)
    return QuantParams(scale=scale, zero_point=zero_point, bit_width=bit_width,
                       range_lo=lo, range_hi=hi)


class RangeObserver:
    """Running min/max of every tensor fed through ``update``.

    Plain extrema (no moving average); mutating, so confine each observer
    to a single updater.
    """

    __slots__ = ("running_lo", "running_hi", "count")

    def __init__(self):
        self.running_lo = float("inf")
        self.running_hi = float("-inf")
        self.count = 0

    def update(self, t: Tensor) -> "RangeObserver":
        if t.size == 0:
            raise DomainError("cannot observe an empty tensor")
        self.running_lo = min(self.running_lo, float(t.data.min()))
        self.running_hi = max(self.running_hi, float(t.data.max()))
        self.count += 1
        return self

    def freeze(self, bit_width: int) -> QuantParams:
        """Snapshot the observed range into fixed QuantParams."""
        if self.count == 0:
            raise StateError("observer has seen no data; range is undefined")
        return params_from_range(self.running_lo, self.running_hi, bit_width)

