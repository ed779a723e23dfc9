"""Property oracle: per-channel parameter derivation matches the scalar one.

The oracle is the original one-row-at-a-time derivation (float32-snapped
endpoints, float32 scale, half-to-even zero-point, the constant-row
fallback). Scale and range are compared as float32 bits and the
zero-point exactly, over rows that are constant, tied, non-negative,
one float32 ulp wide or spread over many binades. Over the same rows,
parameters derived from a weight pass every element of it through the
STE mask.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from quantdistill.graph import in_range_mask  # noqa: E402
from quantdistill.quantizer import derive_params, params_from_range  # noqa: E402
from quantdistill.tensor_core import Tensor  # noqa: E402


def _scalar_oracle(lo: float, hi: float, bits: int) -> tuple[float, int, float, float]:
    """(scale, zero_point, range_lo, range_hi) of one slice, as first specified."""
    lo = float(np.float32(lo))
    hi = float(np.float32(hi))
    code_lo = -(1 << (bits - 1))
    code_hi = (1 << (bits - 1)) - 1
    if hi == lo:
        z = int(round(-lo))
        anchor = int(round(lo))
        return 1.0, min(max(z, anchor - code_hi + 1), anchor - code_lo - 1), lo, hi
    levels = (1 << bits) - 1
    scale = float(np.float32((hi - lo) / float(levels)))
    return scale, int(round(lo * levels / (hi - lo) + float(1 << (bits - 1)))), lo, hi


def _bits32(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float32).view(np.uint32)


def _assert_matches_oracle(params, los, his, bits):
    expected = [_scalar_oracle(float(lo), float(hi), bits) for lo, hi in zip(los, his)]
    assert np.array_equal(_bits32(params.scale), _bits32([e[0] for e in expected]))
    assert params.zero_point.tolist() == [e[1] for e in expected]
    assert np.array_equal(_bits32(params.range_lo), _bits32([e[2] for e in expected]))
    assert np.array_equal(_bits32(params.range_hi), _bits32([e[3] for e in expected]))


def _row(rng, kind: int, width: int) -> np.ndarray:
    magnitude = 10.0 ** rng.uniform(-12, 12)
    base = (rng.standard_normal(width) * magnitude).astype(np.float32)
    if kind == 0:    # constant row
        return np.full(width, base[0], dtype=np.float32)
    if kind == 1:    # two tied values
        return rng.choice(base[:2], size=width).astype(np.float32)
    if kind == 2:    # non-negative, e.g. relu outputs
        return np.abs(base)
    if kind == 3:    # spans one float32 ulp
        lo = base[0]
        return np.where(rng.random(width) < 0.5, lo, np.nextafter(lo, np.float32(np.inf)))
    if kind == 4:    # small integers, including half-fraction zero-points
        return rng.integers(-3, 4, size=width).astype(np.float32)
    return base


@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 70), width=st.integers(1, 9),
       bits=st.sampled_from([4, 6, 8]))
def test_per_channel_derivation_matches_scalar_oracle(seed, rows, width, bits):
    rng = np.random.default_rng(seed)
    w = np.stack([_row(rng, int(rng.integers(0, 6)), width) for _ in range(rows)])
    los, his = w.min(axis=1), w.max(axis=1)
    _assert_matches_oracle(derive_params(Tensor(w), bits, None), los, his, bits)
    # float64 endpoints are snapped to float32 first, as scalars are
    wide = rng.uniform(0.0, 1e-7, size=rows)
    _assert_matches_oracle(params_from_range(los - wide, his + wide, bits),
                           los - wide, his + wide, bits)


@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 70), width=st.integers(1, 9),
       bits=st.sampled_from([4, 6, 8]))
def test_live_weight_parameters_pass_every_weight(seed, rows, width, bits):
    # In training a weight's parameters are derived from the weight itself,
    # so each row's range is its own float32 minimum and maximum and the
    # weight STE mask passes every element.
    rng = np.random.default_rng(seed)
    w = Tensor(np.stack([_row(rng, int(rng.integers(0, 6)), width) for _ in range(rows)]))
    assert np.all(in_range_mask(w, derive_params(w, bits, None)) == 1.0)


@given(a=st.floats(-2.0**60, 2.0**60, width=32), b=st.floats(-2.0**60, 2.0**60, width=32),
       bits=st.sampled_from([4, 6, 8]))
def test_per_tensor_derivation_matches_scalar_oracle(a, b, bits):
    lo, hi = min(a, b), max(a, b)
    p = params_from_range(lo, hi, bits)
    scale, zero_point, range_lo, range_hi = _scalar_oracle(lo, hi, bits)
    assert _bits32(p.scale) == _bits32(scale)
    assert p.zero_point == zero_point
    assert (_bits32(p.range_lo), _bits32(p.range_hi)) == (_bits32(range_lo), _bits32(range_hi))
