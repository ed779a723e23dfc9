"""Every variant of the compiled quantization kernels this CPU runs gives
the numpy reference's bits.

``_matmul.c`` exports, beside the matmul kernel, one fake-quantization
kernel, one linear-epilogue kernel and one weight-parameter kernel per
vector width (``qd_fake_quant_<v>``, ``qd_epilogue_<v>`` and
``qd_derive_params_<v>`` for ``v`` in base, avx2 and avx512), and the
module runs the widest one the CPU runs. Each variant is reached here by
its exported symbol, through ``ctypes`` on the module's own file, so the
narrower ones are checked on a CPU that would never pick them.

The reference is the numpy code the kernels replaced: ``params_from_range``'s
law, ``fake_quant``'s float64 pass, and a forward linear's ``y + b``,
finite check and ``np.maximum(y, 0)``, kept here the way the k-ordered
loop is kept for the matmul. The cases cover ties at half a code step and
their one-ulp neighbours, values past the clip, signed zeros, subnormals,
constant rows (the ``2**62`` bound included), zero-points too large for
float32, non-finite sums, lengths around every vector width, row counts
around the 4-row tile and the 32-row epilogue block, and every supported
width.
"""

import ctypes

import numpy as np
import pytest

from quantdistill import quantizer, tensor_core
from quantdistill.errors import DomainError
from quantdistill.quantizer import SUPPORTED_BIT_WIDTHS
from quantdistill.tensor_core import Tensor

VARIANTS = ("avx512", "avx2", "base")  # widest first
LAW_OK, LAW_NON_FINITE, LAW_TOO_LARGE = range(3)
PAD = 64
TILE_ROWS = 4
EPILOGUE_ROWS = 32  # rows a product range finishes before their epilogue


def _codes(bits):
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


def reference_law(lo: np.ndarray, hi: np.ndarray, bits: int):
    """(scale, zero_point) of float32 endpoints under params_from_range's
    law, as numpy code, or None where a constant slice is too large."""
    lo, hi = lo.astype(np.float64), hi.astype(np.float64)
    code_min, code_max = _codes(bits)
    levels = code_max - code_min
    const = hi == lo
    span = np.where(const, 1.0, hi - lo)
    scale = np.where(const, np.float32(1.0), (span / levels).astype(np.float32))
    zero_point = np.where(const, 0.0, np.rint(lo * levels / span - float(code_min)))
    zero_point = zero_point.astype(np.int64)
    if const.any():
        anchor = np.rint(lo[const])
        if (np.abs(anchor) > 2.0 ** 62).any():
            return None
        anchor = anchor.astype(np.int64)
        zero_point[const] = np.clip(-anchor, anchor - code_max + 1, anchor - code_min - 1)
    return scale, zero_point


def reference_fake_quant(x: np.ndarray, scale, zero_point, bits: int) -> np.ndarray:
    """``fake_quant``'s float64 pass as numpy code; scale and zero-point are
    scalars or columns broadcast along the rows. A subnormal row may round
    its scale to 0 (which QuantParams refuses); the kernel still has to
    give these bits then."""
    t = x.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        t /= scale
        t -= zero_point
        np.rint(t, out=t)
        np.clip(t, *_codes(bits), out=t)
        t += zero_point
        t *= scale
    return t.astype(np.float32)


@pytest.fixture(params=VARIANTS)
def library(request, supported):
    """The variant's two kernels, by their exported names."""
    if request.param not in supported:
        pytest.skip(f"this CPU does not run the {request.param} variant")
    lib = ctypes.CDLL(tensor_core._MATMUL.__file__)
    fake_quant = getattr(lib, f"qd_fake_quant_{request.param}")
    fake_quant.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t,
                           ctypes.c_double, ctypes.c_double, ctypes.c_int]
    fake_quant.restype = None
    derive = getattr(lib, f"qd_derive_params_{request.param}")
    derive.argtypes = ([ctypes.c_void_p] * 2 + [ctypes.c_ssize_t] * 2 + [ctypes.c_int]
                       + [ctypes.c_void_p] * 4)
    derive.restype = ctypes.c_int
    return fake_quant, derive


@pytest.fixture(params=VARIANTS)
def epilogue(request, supported):
    """The variant's linear-epilogue kernel, by its exported name."""
    if request.param not in supported:
        pytest.skip(f"this CPU does not run the {request.param} variant")
    kernel = getattr(ctypes.CDLL(tensor_core._MATMUL.__file__), f"qd_epilogue_{request.param}")
    kernel.argtypes = [ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t, ctypes.c_void_p,
                       ctypes.c_int, ctypes.c_int, ctypes.c_double, ctypes.c_double]
    kernel.restype = ctypes.c_int
    return kernel


_GUARD = {np.float32: 12345.0, np.int64: -7}


def _guarded(shape, dtype=np.float32):
    """An array of ``shape`` (NaN where float32) followed by ``PAD`` guard
    elements: (the whole buffer, the array)."""
    size = int(np.prod(shape))
    buf = np.full(size + PAD, _GUARD[dtype], dtype=dtype)
    if dtype == np.float32:
        buf[:size] = np.nan
    return buf, buf[:size].reshape(shape)


def _assert_guard(buf, size):
    assert (buf[size:] == _GUARD[buf.dtype.type]).all()


def _bits(x) -> np.ndarray:
    """float32 values as their bits; int64 values as they are."""
    x = np.asarray(x)
    return x.view(np.uint32) if x.dtype == np.float32 else x


def run_fake_quant(kernel, x: np.ndarray, s: float, z: float, bits: int) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float32)
    buf, out = _guarded(x.shape)
    kernel(x.ctypes.data, out.ctypes.data, x.size, s, z, bits)
    _assert_guard(buf, x.size)
    return out


def run_derive(kernel, w: np.ndarray, bits: int, with_out=True):
    """(status, scale, zero_point, lo, hi, out) of the variant's weight kernel."""
    w = np.ascontiguousarray(w, dtype=np.float32)
    rows, n = w.shape
    bufs = [_guarded((rows,)) for _ in range(3)] + [_guarded((rows,), np.int64)]
    out_buf, out = _guarded(w.shape) if with_out else (None, None)
    (_, scale), (_, lo), (_, hi), (_, zero_point) = bufs
    status = kernel(w.ctypes.data, out.ctypes.data if with_out else None, rows, n, bits,
                    scale.ctypes.data, zero_point.ctypes.data, lo.ctypes.data, hi.ctypes.data)
    for buf, _ in bufs:
        _assert_guard(buf, rows)
    if with_out:
        _assert_guard(out_buf, w.size)
    return status, scale, zero_point, lo, hi, out


def _near_half_codes(rng, s, z, bits, size) -> np.ndarray:
    """float32 values nearest s * (z + k + 1/2), some codes past either end
    of the clip, and their neighbours one ulp away."""
    code_min, code_max = _codes(bits)
    k = rng.integers(code_min - 3, code_max + 3, size=size) + 0.5
    x = (s * (z + k)).astype(np.float32)
    nudged = np.nextafter(x, rng.choice(np.float32([-np.inf, np.inf]), size=size))
    return np.where(rng.random(size) < 1 / 3, x, nudged)


def _row(rng, kind: int, n: int) -> np.ndarray:
    magnitude = 10.0 ** rng.uniform(-30, 18)  # a constant row stays inside the 2**62 bound
    base = (rng.standard_normal(n) * magnitude).astype(np.float32)
    if kind == 0:  # constant
        return np.full(n, base[0], dtype=np.float32)
    if kind == 1:  # all zeros of one sign
        return np.full(n, rng.choice([0.0, -0.0]), dtype=np.float32)
    if kind == 2:  # one float32 ulp wide, far from zero: a zero-point past 2**24
        return np.where(rng.random(n) < 0.5, base[0], np.nextafter(base[0], np.float32(np.inf)))
    if kind == 3:  # a few ulps wide near 1e3 to 1e6: zero-points of 1e6 to 1e9
        lo = np.float32(10.0 ** rng.uniform(3, 6) * rng.choice([-1, 1]))
        steps = rng.integers(0, 40, size=n)
        return (lo + steps * np.spacing(lo)).astype(np.float32)
    if kind == 4:  # small integers: half-fraction zero-points
        return rng.integers(-3, 4, size=n).astype(np.float32)
    if kind == 5:  # subnormals
        return (rng.integers(-50, 50, size=n) * np.float32(1e-45)).astype(np.float32)
    if kind == 6:  # non-negative, like relu outputs
        return np.abs(base)
    return base


@pytest.mark.parametrize("bits", SUPPORTED_BIT_WIDTHS)
def test_fake_quant_matches_the_reference(library, bits):
    fake_quant, _ = library
    rng = np.random.default_rng(bits)
    for n in [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 4099]:
        for _ in range(6):
            lo = float(rng.standard_normal() * 10.0 ** rng.uniform(-6, 6))
            hi = lo + float(abs(rng.standard_normal()) * 10.0 ** rng.uniform(-6, 6))
            p = quantizer.params_from_range(lo, hi, bits)
            for x in (_near_half_codes(rng, p.scale, p.zero_point, bits, n),
                      (lo + (hi - lo) * rng.uniform(-3, 4, size=n)).astype(np.float32)):
                got = run_fake_quant(fake_quant, x, p.scale, p.zero_point, bits)
                want = reference_fake_quant(x, p.scale, p.zero_point, bits)
                assert np.array_equal(_bits(got), _bits(want)), (n, lo, hi)


@pytest.mark.parametrize("bits", SUPPORTED_BIT_WIDTHS)
def test_fake_quant_keeps_the_reference_on_special_values(library, bits):
    fake_quant, _ = library
    code_min, code_max = _codes(bits)
    specials = np.float32([0.0, -0.0, 1e-45, -1e-45, 1e-40, -1e-40, 1.17549435e-38,
                           3.4028235e38, -3.4028235e38, 0.5, -0.5, 1.5, -2.5, 7.5])
    # 0.8557434 and 14.58165 are float32 scales where some x / s land on a
    # half code exactly while x * (1 / s) does not, or the other way round.
    for s, z in [(1.0, 0.0), (1.0, 3.0), (2.0 ** -3, 128.0), (1e-40, 0.0), (1e-3, -7.0),
                 (50.0, 1e9), (0.1, 2.0 ** 53 + 2), (3.0, -(2.0 ** 40)),
                 (0.855743408203125, 0.0), (14.581649780273438, 0.0)]:
        half = (s * (z + np.arange(code_min - 2, code_max + 3) + 0.5)).astype(np.float32)
        x = np.concatenate([specials, half, np.nextafter(half, np.float32(np.inf)),
                            np.nextafter(half, np.float32(-np.inf))])
        got = run_fake_quant(fake_quant, x, s, z, bits)
        want = reference_fake_quant(x, s, z, bits)
        assert np.array_equal(_bits(got), _bits(want)), (s, z)


@pytest.mark.parametrize("bits", SUPPORTED_BIT_WIDTHS)
def test_derive_params_matches_the_reference(library, bits):
    _, derive = library
    rng = np.random.default_rng(10 + bits)
    for rows, n in [(1, 1), (3, 2), (7, 9), (32, 17), (64, 64), (5, 200)]:
        for _ in range(8):
            w = np.stack([_row(rng, int(rng.integers(0, 8)), n) for _ in range(rows)])
            status, scale, zero_point, lo, hi, out = run_derive(derive, w, bits)
            assert status == LAW_OK
            # numpy's extrema keep the sign of a zero by their SIMD lanes, so
            # the ranges are compared by value; every other result by bits.
            assert np.array_equal(lo, w.min(axis=1)) and np.array_equal(hi, w.max(axis=1))
            want_scale, want_zero_point = reference_law(lo, hi, bits)
            assert np.array_equal(_bits(scale), _bits(want_scale))
            assert np.array_equal(zero_point, want_zero_point)
            want = reference_fake_quant(w, want_scale[:, None], want_zero_point[:, None], bits)
            assert np.array_equal(_bits(out), _bits(want))
            again = run_derive(derive, w, bits, with_out=False)
            assert again[0] == LAW_OK
            for got, kept in zip(again[1:5], (scale, zero_point, lo, hi)):
                assert np.array_equal(_bits(got), _bits(kept))


def test_derive_params_keeps_the_last_of_equal_extrema(library):
    # Of equal extrema the last is kept, so a zero extremum has the sign of
    # the row's last zero, as numpy's scalar loop gives for short rows.
    _, derive = library
    w = np.float32([[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [-1.0, 0.0, -0.0], [-1.0, -0.0, 0.0],
                    [-0.0, -0.0, -0.0], [0.0, -0.0, 0.0]])
    _, _, _, lo, hi, _ = run_derive(derive, w, 8)
    assert np.signbit(lo).tolist() == [True, False, True, True, True, False]
    assert np.signbit(hi).tolist() == [False, False, True, False, True, False]
    assert np.signbit(lo).tolist() == np.signbit(w.min(axis=1)).tolist()
    assert np.signbit(hi).tolist() == np.signbit(w.max(axis=1)).tolist()


@pytest.mark.parametrize("bits", SUPPORTED_BIT_WIDTHS)
def test_constant_rows_up_to_the_int64_bound(library, bits):
    _, derive = library
    bound = np.float32(2.0 ** 62)
    past = np.nextafter(bound, np.float32(np.inf))
    for value in (bound, -bound, np.float32(2.0 ** 40 + 2.0 ** 20), np.float32(2.5),
                  np.float32(-3.5), np.float32(0.0)):
        w = np.stack([np.full(5, value, np.float32), np.float32([-1.0, 0.0, 2.0, 3.0, 4.0])])
        status, scale, zero_point, lo, hi, out = run_derive(derive, w, bits)
        want_scale, want_zero_point = reference_law(lo, hi, bits)
        assert status == LAW_OK
        assert np.array_equal(_bits(scale), _bits(want_scale))
        assert np.array_equal(zero_point, want_zero_point)
        want = reference_fake_quant(w, want_scale[:, None], want_zero_point[:, None], bits)
        assert np.array_equal(_bits(out), _bits(want))
    for value in (past, -past, np.float32(3.4028235e38)):
        w = np.stack([np.float32([1.0, 2.0]), np.full(2, value, np.float32)])
        assert reference_law(w.min(axis=1), w.max(axis=1), bits) is None
        assert run_derive(derive, w, bits)[0] == LAW_TOO_LARGE


def test_a_non_finite_row_is_refused_before_a_constant_one(library):
    # Every row's range is checked before any row's parameters, as
    # params_from_range checks every endpoint first.
    _, derive = library
    for bad in (np.nan, np.inf, -np.inf):
        w = np.float32([[2.0 ** 63] * 3, [1.0, bad, 2.0], [0.0, 1.0, 2.0]])
        assert run_derive(derive, w, 8)[0] == LAW_NON_FINITE
        w[1] = [bad, bad, bad]
        assert run_derive(derive, w, 8)[0] == LAW_NON_FINITE


# -- the Python entry points, on the variant the module picked ---------------


def test_params_from_range_refuses_a_constant_past_the_bound():
    past = float(np.nextafter(np.float32(2.0 ** 62), np.float32(np.inf)))
    bound = np.float32([2.0 ** 62])
    assert quantizer.params_from_range(2.0 ** 62, 2.0 ** 62, 8).zero_point == 2 ** 62 - 126
    assert reference_law(bound, bound, 8)[1][0] == 2 ** 62 - 126
    with pytest.raises(DomainError, match="^constant range too large for an integer zero-point$"):
        quantizer.params_from_range(past, past, 8)
    with pytest.raises(DomainError, match="^constant range too large for an integer zero-point$"):
        quantizer.params_from_range([0.0, -past], [1.0, -past], 8)


@pytest.mark.parametrize("bits", SUPPORTED_BIT_WIDTHS)
def test_weight_path_matches_derive_then_fake_quant(bits):
    # The one call of a live student's forward equals deriving the
    # parameters and fake-quantizing under them by the reference.
    # Subnormal rows (kind 5) may round a scale to 0, which QuantParams refuses.
    rng = np.random.default_rng(30 + bits)
    w = Tensor(np.stack([_row(rng, int(rng.choice([0, 1, 2, 3, 4, 6, 7])), 64)
                         for _ in range(64)]))
    out = np.empty(w.shape, dtype=np.float32)
    p = quantizer.derive_params(w, bits, out)
    assert p == quantizer.derive_params(w, bits, None)
    want = reference_fake_quant(w.data, p.scale[:, None], p.zero_point[:, None], bits)
    assert np.array_equal(_bits(out), _bits(want))


def test_derive_params_refuses_a_non_finite_weight():
    w = Tensor._wrap(np.float32([[1.0, 2.0], [np.nan, 0.0]]))
    with pytest.raises(DomainError, match="^non-finite range endpoints$"):
        quantizer.derive_params(w, 8, None)


# -- the linear epilogue ------------------------------------------------------


def reference_epilogue(sums: np.ndarray, bias: np.ndarray, relu: bool, quant):
    """A forward linear's numpy passes over its product: (output, whether
    a sum plus its bias is not finite). ``quant`` is (bits, scale,
    zero_point) or None."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = sums + bias[None, :]
    bad = not np.isfinite(y).all()
    if relu:
        y = np.maximum(y, np.float32(0.0))
    if quant is not None:
        bits, s, z = quant
        y = reference_fake_quant(y, s, z, bits)
    return y, bad


def _assert_same(got: np.ndarray, want: np.ndarray):
    """Equal bits, NaN payloads aside: NaN exactly where the reference has one."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(_bits(got)[~nan], _bits(want)[~nan])


def run_epilogue(kernel, sums: np.ndarray, bias: np.ndarray, relu: bool, quant):
    """(output, flag) of the variant's epilogue, run in place on a copy of
    ``sums`` followed by guard elements."""
    rows, n = sums.shape
    buf, out = _guarded(sums.shape)
    out[:] = sums
    bits, s, z = quant if quant is not None else (0, 0.0, 0.0)
    flag = kernel(out.ctypes.data, rows, n, np.ascontiguousarray(bias).ctypes.data, relu, bits,
                  s, z)
    _assert_guard(buf, sums.size)
    return out, flag


def _sums(rng, rows, n, p):
    """float32 sums whose biased values sit on half codes of ``p`` and one
    ulp beside them, past the clip, or anywhere, and a bias of either zero
    in every other column, so those ties survive the add; every third
    column of sums is a zero of either sign, so -0.0 + -0.0 meets the relu."""
    targets = _near_half_codes(rng, p.scale, p.zero_point, p.bit_width, rows * n)
    bias = (rng.standard_normal(n) * abs(p.scale) * 5).astype(np.float32)
    bias[::2] = rng.choice(np.float32([0.0, -0.0]), size=bias[::2].shape)
    sums = (targets.reshape(rows, n) - bias).astype(np.float32)
    sums[:, ::3] = rng.choice(np.float32([0.0, -0.0]), size=sums[:, ::3].shape)
    return sums, bias


ROW_COUNTS = [1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, EPILOGUE_ROWS - 1, EPILOGUE_ROWS,
              EPILOGUE_ROWS + 1, 2 * EPILOGUE_ROWS + 3]


@pytest.mark.parametrize("bits", [None, *SUPPORTED_BIT_WIDTHS])
def test_epilogue_matches_the_reference(epilogue, bits):
    rng = np.random.default_rng(40 + (bits or 0))
    for rows in ROW_COUNTS:
        for n in [1, 3, 4, 7, 8, 16, 17, 33, 64]:
            lo = float(rng.standard_normal() * 10.0 ** rng.uniform(-3, 3))
            hi = lo + float(abs(rng.standard_normal()) * 10.0 ** rng.uniform(-3, 3))
            p = quantizer.params_from_range(lo, hi, bits or 8)
            sums, bias = _sums(rng, rows, n, p)
            quant = None if bits is None else (bits, p.scale, p.zero_point)
            for relu in (False, True):
                got, flag = run_epilogue(epilogue, sums, bias, relu, quant)
                want, bad = reference_epilogue(sums, bias, relu, quant)
                assert flag == bad == 0
                _assert_same(got, want)


@pytest.mark.parametrize("bits", [None, 8, 4])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, "overflow"])
def test_epilogue_flags_a_sum_that_is_not_finite(epilogue, bits, value):
    # Any one element of any row, including one whose finite sum and bias
    # overflow when added, raises the flag; the other elements still get
    # the reference's bits.
    rng = np.random.default_rng(60)
    p = quantizer.params_from_range(-2.0, 3.0, bits or 8)
    quant = None if bits is None else (bits, p.scale, p.zero_point)
    for rows, n in [(1, 1), (TILE_ROWS + 1, 17), (EPILOGUE_ROWS + 1, 64)]:
        for at in {0, rows * n // 2, rows * n - 1}:
            sums = rng.standard_normal((rows, n)).astype(np.float32)
            bias = rng.standard_normal(n).astype(np.float32)
            if value == "overflow":
                sums.flat[at] = 3e38
                bias[at % n] = 3e38
            else:
                sums.flat[at] = value
            for relu in (False, True):
                got, flag = run_epilogue(epilogue, sums, bias, relu, quant)
                want, bad = reference_epilogue(sums, bias, relu, quant)
                assert bad and flag == 1
                _assert_same(got, want)


@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("bits", [None, 8])
def test_product_runs_the_epilogue_on_every_block_of_every_range(parts, bits):
    # Through the module's entry: each range finishes a block of rows, then
    # runs the epilogue on it. A bad element in any block of any range
    # raises the flag.
    rng = np.random.default_rng(70 + parts)
    p = quantizer.params_from_range(-1.0, 4.0, bits or 8)
    quant = () if bits is None else (bits, p.scale, p.zero_point)
    product = tensor_core._MATMUL.product
    for rows in ROW_COUNTS + [4 * EPILOGUE_ROWS + TILE_ROWS + 1]:
        if rows < parts:
            continue
        a = rng.standard_normal((rows, 9)).astype(np.float32)
        b = rng.standard_normal((9, 33)).astype(np.float32)
        bias = rng.standard_normal(33).astype(np.float32)
        sums = np.zeros((rows, 33), dtype=np.float32)
        for i in range(9):
            sums = sums + a[:, i:i + 1] * b[i:i + 1, :]
        want, _ = reference_epilogue(sums, bias, True, quant or None)
        out = np.full((rows, 33), np.nan, dtype=np.float32)
        assert product(a, b, out, parts, bias, True, *quant) is False
        _assert_same(out, want)
        for row in {0, rows // 2, rows - 1}:
            bad = a.copy()
            bad[row, 4] = np.inf
            assert product(bad, b, out, parts, bias, True, *quant) is True
