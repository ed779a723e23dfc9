"""Quantizer math: scale/zero-point formulas, round trips, observers."""

import numpy as np
import pytest

from quantdistill.errors import DimensionError, DomainError, StateError
from quantdistill.graph import fake_quant, in_range_mask
from quantdistill.quantizer import (
    QuantizedTensor,
    QuantParams,
    RangeObserver,
    dequantize,
    derive_params,
    params_from_range,
    quantize,
)
from quantdistill.tensor_core import Tensor


class TestComputeScale:
    def test_symmetric_range(self):
        # oracle: 2 / 255
        assert params_from_range(-1.0, 1.0, 8).scale == pytest.approx(2.0 / 255.0, rel=1e-7)

    def test_centiunit_range(self):
        # oracle: 2.55 / 255
        assert params_from_range(0.0, 2.55, 8).scale == pytest.approx(0.01, rel=1e-7)

    def test_degenerate_fallback(self):
        assert params_from_range(0.0, 0.0, 8).scale == 1.0

    def test_inverted_range_rejected(self):
        with pytest.raises(DomainError):
            params_from_range(1.0, -1.0, 8)

    def test_scale_is_float32_representable(self):
        s = params_from_range(-0.731, 2.114, 6).scale
        assert type(s) is float and s == float(np.float32(s))


class TestComputeZeroPoint:
    def test_wide_positive_range(self):
        # oracle: round(0 + 128); exceeds the int8 maximum on purpose
        assert params_from_range(0.0, 2.55, 8).zero_point == 128

    def test_half_to_even(self):
        # oracle: round(-127.5 + 128) = round(0.5) -> 0 under half-to-even
        assert params_from_range(-1.0, 1.0, 8).zero_point == 0

    def test_negative_range(self):
        # oracle: round(-255 + 128)
        assert params_from_range(-2.55, 0.0, 8).zero_point == -127

    def test_equal_range_uses_constant_fallback(self):
        # oracle: s = 1 and z = round(-1.0), already inside [1 - 126, 1 + 127]
        p = params_from_range(1.0, 1.0, 8)
        assert (p.scale, p.zero_point) == (1.0, -1)

    def test_per_channel_matches_per_tensor_oracles(self):
        p = params_from_range(np.array([-1.0, 0.0, -2.55, 1.0]),
                              np.array([1.0, 2.55, 0.0, 1.0]), 8)
        assert p.per_channel and p.zero_point.tolist() == [0, 128, -127, -1]
        assert p.scale.tolist() == [np.float32(2.0 / 255.0), np.float32(0.01),
                                    np.float32(0.01), 1.0]
        assert not p.scale.flags.writeable


def _p8(lo, hi):
    return params_from_range(lo, hi, 8)


class TestQuantizeDequantize:
    def test_unit_value_maps_to_minus_28(self):
        # oracle: round(1.0 / 0.01 - 128) = -28
        p = _p8(0.0, 2.55)
        assert p.zero_point == 128
        q = quantize(Tensor([1.0]), p)
        assert q.codes.tolist() == [-28]

    def test_range_floor_maps_to_lowest_code(self):
        for bits, lo, hi in [(4, -0.7, 1.3), (6, 0.0, 5.0), (8, -2.0, -0.5)]:
            p = params_from_range(lo, hi, bits)
            q = quantize(Tensor([lo]), p)
            assert q.codes.tolist() == [p.code_min]

    def test_saturation_above_range(self):
        # oracle: round(1000 - 128) = 872, clipped to 127
        q = quantize(Tensor([10.0]), _p8(0.0, 2.55))
        assert q.codes.tolist() == [127]

    def test_dequantize_minus_28(self):
        # oracle: 0.01 * (-28 + 128) = 1.0
        p = _p8(0.0, 2.55)
        q = QuantizedTensor(codes=np.array([-28]), shape=(1,), params=p)
        assert dequantize(q).tolist() == [1.0]

    def test_dequantize_code_zero(self):
        # oracle: 0.01 * (0 + 128) = 1.28
        p = _p8(0.0, 2.55)
        q = QuantizedTensor(codes=np.array([0]), shape=(1,), params=p)
        assert dequantize(q).tolist() == pytest.approx([1.28], abs=1e-6)

    def test_lowest_code_reproduces_range_floor(self):
        rng = np.random.default_rng(0)
        for bits in (4, 6, 8):
            for _ in range(50):
                lo = float(rng.uniform(-20, 20))
                hi = lo + float(rng.uniform(1e-3, 40))
                p = params_from_range(lo, hi, bits)
                q = QuantizedTensor(codes=np.array([p.code_min]), shape=(1,), params=p)
                assert abs(dequantize(q).tolist()[0] - p.range_lo) <= p.scale + 1e-6

    def test_out_of_range_saturates_to_endpoint_codes(self):
        p = _p8(-1.0, 1.0)
        below = quantize(Tensor([-50.0]), p)
        above = quantize(Tensor([50.0]), p)
        assert below.codes.tolist() == [p.code_min]
        assert above.codes.tolist() == [p.code_max]
        # saturated values dequantize to the endpoint grid points
        assert dequantize(below).tolist()[0] == pytest.approx(p.scale * (p.code_min + p.zero_point))
        assert dequantize(above).tolist()[0] == pytest.approx(p.scale * (p.code_max + p.zero_point))

    @pytest.mark.parametrize("bits", [4, 6, 8])
    def test_monotone_codes(self, bits):
        p = params_from_range(-1.5, 2.5, bits)
        xs = np.sort(np.random.default_rng(bits).uniform(-3, 4, size=2000)).astype(np.float32)
        codes = quantize(Tensor(xs), p).codes
        assert np.all(np.diff(codes) >= 0)

    def test_b4_exhaustive_code_domain(self):
        p = params_from_range(-0.8, 0.7, 4)
        codes = np.arange(p.code_min, p.code_max + 1)
        assert codes.size == 16
        grid = dequantize(QuantizedTensor(codes=codes, shape=(16,), params=p))
        back = quantize(grid, p)
        assert back.codes.tolist() == codes.tolist()


class TestDegenerate:
    def test_constant_integer_round_trips_exactly(self):
        for value in (0.0, 2.0, -3.0, 100.0, -100.0):
            p = params_from_range(value, value, 8)
            assert p.scale == 1.0
            q = quantize(Tensor([value]), p)
            assert p.code_min <= q.codes[0] <= p.code_max
            assert dequantize(q).tolist() == [value]

    def test_constant_fraction_within_half_step(self):
        p = params_from_range(2.3, 2.3, 8)
        got = dequantize(quantize(Tensor([2.3]), p)).tolist()[0]
        assert abs(got - 2.3) <= 0.5 + 1e-6

    def test_fresh_bias_constant_zero(self):
        p = params_from_range(0.0, 0.0, 4)
        assert p.zero_point == 0
        assert dequantize(quantize(Tensor([0.0]), p)).tolist() == [0.0]


class TestDeriveParams:
    def test_per_channel_row_extrema(self):
        ps = derive_params(Tensor([[-1, 1], [0, 4]]), 8, None)
        assert (ps.range_lo.tolist(), ps.range_hi.tolist()) == ([-1.0, 0.0], [1.0, 4.0])
        assert ps == derive_params(Tensor([[-1, 1], [0, 4]]), 8, None)
        assert ps != derive_params(Tensor([[-1, 1], [0, 5]]), 8, None)

    def test_constant_tensor_fallback(self):
        p = derive_params(Tensor([[2.0, 2.0]]), 8, None)
        assert p.range_lo.tolist() == p.range_hi.tolist() == [2.0]
        assert p.scale.tolist() == [1.0]

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            derive_params(Tensor(np.zeros((0,), dtype=np.float32)), 8, None)

    def test_bad_axis_rejected(self):
        with pytest.raises(DimensionError):
            derive_params(Tensor([1.0, 2.0]), 8, None)

    def test_per_channel_round_trip_not_worse_per_slice(self):
        # Per-channel params use a grid at least as fine as the per-tensor
        # grid, so for slices whose range is clearly narrower than the
        # global range the per-slice worst-case round-trip error must not
        # regress. Rows are long enough that the realized max error
        # approaches the half-step bound.
        rng = np.random.default_rng(21)
        for _ in range(20):
            w = rng.standard_normal((4, 512)) * rng.uniform(0.05, 3.0, size=(4, 1))
            t = Tensor(w.astype(np.float32))
            per_tensor = params_from_range(float(t.data.min()), float(t.data.max()), 8)
            per_channel = derive_params(t, 8, None)
            err_t = np.abs(dequantize(quantize(t, per_tensor)).data - t.data)
            err_c = np.abs(dequantize(quantize(t, per_channel)).data - t.data)
            assert np.all(per_channel.scale <= per_tensor.scale + 1e-9)
            for row in range(4):
                if per_channel.scale[row] <= 0.9 * per_tensor.scale:
                    assert err_c[row].max() <= err_t[row].max() + 1e-6


class TestRoundTripBound:
    @pytest.mark.parametrize("bits", [4, 6, 8])
    def test_in_range_error_below_half_step(self, bits):
        # magnitudes capped near 16 so half a float32 output ulp stays
        # below the 1e-6 slack in the bound
        rng = np.random.default_rng(bits * 7)
        for _ in range(30):
            lo = float(rng.uniform(-12, 8))
            hi = lo + float(rng.uniform(1e-3, 12 - lo))
            p = params_from_range(lo, hi, bits)
            xs = rng.uniform(p.range_lo, p.range_hi, size=4000).astype(np.float32)
            t = Tensor(xs)
            back = dequantize(quantize(t, p))
            err = np.abs(back.data.astype(np.float64) - t.data.astype(np.float64))
            assert err.max() <= p.scale / 2 + 1e-6


class TestQuantizedTensor:
    def test_codes_validated_against_range(self):
        p = params_from_range(-1.0, 1.0, 4)
        with pytest.raises(DomainError):
            QuantizedTensor(codes=np.array([99]), shape=(1,), params=p)

    def test_per_channel_needs_matching_params(self):
        p = params_from_range(np.array([-1.0]), np.array([1.0]), 8)
        with pytest.raises(DimensionError):
            QuantizedTensor(codes=np.zeros((2, 3), dtype=np.int32), shape=(2, 3), params=p)


# The three operations that lay parameters over a tensor.
LAYOUT_OPS = {
    "quantize": lambda x, p: quantize(x, p).codes,
    "fake_quant": lambda x, p: fake_quant(x, p).data,
    "in_range_mask": in_range_mask,
}


@pytest.mark.parametrize("op", sorted(LAYOUT_OPS))
@pytest.mark.parametrize("per_channel, shape, fits", [
    (True, (2, 3), True),
    (True, (2,), False),       # rank 1, as long as the parameters
    (True, (2, 1, 3), False),  # rank 3, leading axis as long as the parameters
    (True, (3, 2), False),     # wrong row count
    (False, (5,), True),
    (False, (2, 3), True),
    (False, (2, 1, 3), True),
])
def test_layout_follows_from_params_and_shape(op, per_channel, shape, fits):
    # Per-channel parameters fit the rows of a rank-2 tensor and nothing
    # else; per-tensor parameters fit any shape. Where they fit, each row
    # (per-channel) or the flattened tensor (per-tensor) gives what a
    # per-tensor op on it alone gives. fake_quant takes per-tensor
    # parameters only: derive_params fake-quantizes a weight's rows.
    fits = fits and not (op == "fake_quant" and per_channel)
    apply = LAYOUT_OPS[op]
    lo, hi = np.array([-1.0, 0.0]), np.array([1.0, 2.5])
    p = params_from_range(lo, hi, 6) if per_channel else params_from_range(-1.0, 2.5, 6)
    x = Tensor(np.linspace(-2.0, 3.0, int(np.prod(shape))).reshape(shape).astype(np.float32))
    if not fits:
        with pytest.raises(DimensionError):
            apply(x, p)
        return
    got = apply(x, p)
    if per_channel:
        expected = np.stack([apply(Tensor(row), params_from_range(float(lo[i]), float(hi[i]), 6))
                             for i, row in enumerate(x.data)])
    else:
        expected = apply(Tensor(x.data.ravel()), p).reshape(shape)
    assert got.shape == shape
    assert np.array_equal(got, expected)


class TestRangeObserver:
    def test_first_batch_sets_range(self):
        o = RangeObserver()
        o.update(Tensor([-1.0, 2.0]))
        assert (o.running_lo, o.running_hi, o.count) == (-1.0, 2.0, 1)

    def test_contained_batch_no_change(self):
        o = RangeObserver()
        o.update(Tensor([-1.0, 2.0])).update(Tensor([0.0, 1.0]))
        assert (o.running_lo, o.running_hi) == (-1.0, 2.0)

    def test_expanding_batch(self):
        o = RangeObserver()
        o.update(Tensor([-1.0, 2.0])).update(Tensor([-3.0, 5.0]))
        assert (o.running_lo, o.running_hi) == (-3.0, 5.0)

    def test_freeze_requires_data(self):
        with pytest.raises(StateError):
            RangeObserver().freeze(8)

    def test_freeze_produces_matching_params(self):
        o = RangeObserver()
        o.update(Tensor([-0.5, 1.5]))
        p = o.freeze(6)
        assert (p.range_lo, p.range_hi, p.bit_width) == (-0.5, 1.5, 6)


class TestQuantParamsInvariants:
    @pytest.mark.parametrize("bits", [4, 6, 8])
    def test_scale_formula_holds(self, bits):
        rng = np.random.default_rng(bits)
        for _ in range(100):
            lo = float(rng.uniform(-10, 10))
            hi = lo + float(rng.uniform(1e-4, 20))
            p = params_from_range(lo, hi, bits)
            expected = (p.range_hi - p.range_lo) / (2 ** bits - 1)
            assert p.scale == pytest.approx(expected, rel=1e-7)

    def test_unsupported_bit_width_rejected(self):
        with pytest.raises(DomainError):
            QuantParams(scale=1.0, zero_point=0, bit_width=5, range_lo=0.0, range_hi=1.0)
        for bits in (0, 9):
            with pytest.raises(DomainError):
                params_from_range(0.0, 1.0, bits)

    def test_per_channel_fields_share_one_length(self):
        with pytest.raises(DimensionError):
            QuantParams(scale=np.ones(3), zero_point=np.zeros(2), bit_width=8,
                        range_lo=np.zeros(3), range_hi=np.ones(3))
        with pytest.raises(DimensionError):
            params_from_range(np.zeros(3), np.ones(2), 8)

    @pytest.mark.parametrize("field", ["scale", "range_lo", "range_hi"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_fields_rejected(self, field, value):
        fields = dict(scale=0.5, zero_point=0, bit_width=8, range_lo=-1.0, range_hi=1.0)
        with pytest.raises(DomainError):
            QuantParams(**{**fields, field: value})
        per_channel = {k: (v if k == "bit_width" else np.full(2, v)) for k, v in fields.items()}
        per_channel[field] = np.array([fields[field], value])
        with pytest.raises(DomainError):
            QuantParams(**per_channel)

    def test_constant_beyond_int64_zero_point_rejected(self):
        with pytest.raises(DomainError):
            params_from_range(np.array([1e30]), np.array([1e30]), 8)
