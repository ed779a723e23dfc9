"""Property oracle: each fused fake-quant equals quantize-then-dequantize.

Two compiled calls run the quantizer's arithmetic in one float64 pass
without building integer codes: ``graph.fake_quant`` under per-tensor
parameters (an activation site), and ``derive_params(w, bits, out)``,
which derives each weight row's parameters from its extrema and writes
the row fake-quantized under them (the one per-channel fake-quant). The
oracle is the two-step path through ``quantize`` (int32 codes) and
``dequantize`` under the same parameters; outputs are compared as float32
bits at 4, 6 and 8 bits, over values inside the range, outside it (per
tensor; a derived row's range holds the row), on exact half-code
boundaries (where round-half-to-even decides), at signed zeros and on
constant rows.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from quantdistill.graph import fake_quant  # noqa: E402
from quantdistill.quantizer import (  # noqa: E402
    dequantize, derive_params, params_from_range, quantize)
from quantdistill.tensor_core import Tensor  # noqa: E402


def _assert_fused_matches_two_step(x: np.ndarray, params):
    """``fake_quant`` under per-tensor ``params``, or, for per-channel
    ``params``, ``derive_params`` on rows whose extrema give exactly them
    (see :func:`_pinned_rows`)."""
    t = Tensor(_pinned_rows(x, params) if params.per_channel else x)
    if params.per_channel:
        fused = np.empty(t.shape, dtype=np.float32)
        assert derive_params(t, params.bit_width, fused) == params
    else:
        fused = fake_quant(t, params).data
    two_step = dequantize(quantize(t, params)).data
    assert fused.dtype == two_step.dtype == np.float32
    assert np.array_equal(fused.view(np.uint32), two_step.view(np.uint32))


def _pinned_rows(x: np.ndarray, params) -> np.ndarray:
    """Each row of ``x`` clipped to its range, after two columns holding
    the range's endpoints, so that the row's extrema are its range."""
    lo, hi = params.range_lo[:, None], params.range_hi[:, None]
    return np.hstack([lo, hi, np.clip(x, lo, hi)])


def _random_values(rng, shape, lo, hi) -> np.ndarray:
    """Values spread over [lo, hi] and past both ends, plus signed zeros."""
    lo, hi = np.broadcast_to(lo, shape), np.broadcast_to(hi, shape)
    span = np.maximum(hi - lo, 1e-30)
    x = lo + span * rng.uniform(-0.5, 1.5, size=shape)
    x = np.where(rng.random(shape) < 0.05, 0.0, x)
    x = np.where(rng.random(shape) < 0.05, -0.0, x)
    return x.astype(np.float32)


@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 12), width=st.integers(1, 9),
       bits=st.sampled_from([4, 6, 8]), per_channel=st.booleans())
def test_fused_matches_two_step_on_random_ranges(seed, rows, width, bits, per_channel):
    rng = np.random.default_rng(seed)
    magnitude = 10.0 ** rng.uniform(-8, 8)
    if per_channel:
        lo = rng.standard_normal(rows) * magnitude
        hi = lo + np.abs(rng.standard_normal(rows)) * magnitude * rng.choice([0.0, 1.0], rows,
                                                                             p=[0.1, 0.9])
        params = params_from_range(lo, hi, bits)
        x = _random_values(rng, (rows, width), lo[:, None], hi[:, None])
    else:
        lo = float(rng.standard_normal() * magnitude)
        hi = lo + float(abs(rng.standard_normal()) * magnitude)
        params = params_from_range(lo, hi, bits)
        x = _random_values(rng, (rows, width), lo, hi)
    _assert_fused_matches_two_step(x, params)
    _assert_fused_matches_two_step(_near_half_codes(rng, params, x.shape), params)


def _near_half_codes(rng, params, shape) -> np.ndarray:
    """The float32 values nearest s * (z + k + 1/2) and their neighbours one
    ulp away, where single and double precision division round differently."""
    s, z, _, _ = params.broadcast(shape)
    k = rng.integers(params.code_min - 2, params.code_max + 2, size=shape) + 0.5
    x = (s * (z + k)).astype(np.float32)
    nudged = np.nextafter(x, rng.choice(np.float32([-np.inf, np.inf]), size=shape))
    return np.where(rng.random(shape) < 1 / 3, x, nudged)


@given(exponents=st.lists(st.integers(-20, 20), min_size=1, max_size=6),
       offset=st.integers(-300, 300), bits=st.sampled_from([4, 6, 8]),
       per_channel=st.booleans())
def test_fused_matches_two_step_on_half_code_boundaries(exponents, offset, bits, per_channel):
    # A range of levels * 2**e starting at offset * 2**e has scale 2**e and
    # zero-point offset + 2**(b-1) exactly, so s * (z + k + 0.5) is a float32
    # value that lands on k + 0.5 before rounding.
    levels = (1 << bits) - 1
    if not per_channel:
        exponents = exponents[:1]
    s = np.ldexp(1.0, np.asarray(exponents))[:, None]
    lo, hi = offset * s[:, 0], (offset + levels) * s[:, 0]
    params = (params_from_range(lo, hi, bits) if per_channel
              else params_from_range(float(lo[0]), float(hi[0]), bits))
    z = offset + (1 << (bits - 1))
    half = np.arange(params.code_min - 4, params.code_max + 4) + 0.5  # some outside the range
    x = (s * (z + half)).astype(np.float32)
    assert np.all(x.astype(np.float64) / s - z == half)
    _assert_fused_matches_two_step(x, params)


@pytest.mark.parametrize("bits", [4, 6, 8])
@pytest.mark.parametrize("layout", ["per-channel", "per-tensor", "per-tensor rank 1"])
@pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 3079])
def test_fused_matches_two_step_across_row_blocks(rows, layout, bits):
    # One row up to thousands, odd and even counts: per-channel rows each
    # get their own range, so a pass that read another row's scale or
    # zero-point, or misplaced a row's start, would give other bits.
    rng = np.random.default_rng(rows * 10 + bits)
    shape = (rows,) if layout == "per-tensor rank 1" else (rows, 5)
    if layout == "per-channel":
        lo = rng.standard_normal(rows) * 10.0 ** rng.uniform(-4, 4, rows)
        hi = lo + np.abs(rng.standard_normal(rows)) * 10.0 ** rng.uniform(-4, 4, rows)
        params = params_from_range(lo, hi, bits)
        lo, hi = lo[:, None], hi[:, None]
    else:
        lo, hi = -3.7, 12.1
        params = params_from_range(lo, hi, bits)
    _assert_fused_matches_two_step(_random_values(rng, shape, lo, hi), params)
    _assert_fused_matches_two_step(_near_half_codes(rng, params, shape), params)
