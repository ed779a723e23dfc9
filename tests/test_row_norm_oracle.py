"""The compiled row normalization and row dot products give numpy's bits.

``_matmul.c`` exports, per vector width, a normalization kernel and a
row dot-product kernel (``qd_normalize_<v>`` and ``qd_row_dots_<v>`` for
``v`` in base, avx2 and avx512), and the linear epilogue
(``qd_epilogue_<v>``) ends with the same normalization when asked. Each
variant this CPU runs is reached here by its exported symbol, through
``ctypes`` on the module's own file, so the narrower ones are checked on a
CPU that would never pick them; variants the CPU cannot run are left out
rather than skipped, so that ``tests/test_simd_targets.py`` can run this
file on numpy's baseline target.

The oracle is the numpy code the kernels replaced, on float64 copies of
the float32 rows: ``x / np.sqrt(np.sum(x * x, axis=1, keepdims=True))``
rounded to float32, and ``np.sum(a * b, axis=1)``. numpy sums a row
pairwise (8 partial sums per block of up to 128 terms, longer rows split
in halves), so the widths run around 8, 16, 32, 128 and past 256, with
values spread over +-30 binades so that a different order shows in the
bits. Results are compared as bits.
"""

import ctypes

import numpy as np
import pytest

from quantdistill import tensor_core
from quantdistill.tensor_core import RANGE_ROWS

VARIANTS = ("avx512", "avx2", "base")  # widest first
WIDTHS = [*range(1, 10), 15, 16, 17, 31, 32, 33, 64, 127, 128, 129, 256, 300]
EPILOGUE_ROWS = 32  # rows a product range finishes before their epilogue
STAGE_RELU, STAGE_NORMALIZE = 1, 2
PAD = 64
GUARD = np.float32(12345.0)


def _kernels(supported, name, argtypes, restype):
    """The named kernel of every variant this CPU runs, by exported symbol."""
    lib = ctypes.CDLL(tensor_core._MATMUL.__file__)
    found = []
    for variant in (v for v in VARIANTS if v in supported):
        kernel = getattr(lib, f"qd_{name}_{variant}")
        kernel.argtypes = argtypes
        kernel.restype = restype
        found.append((variant, kernel))
    return found


@pytest.fixture
def normalizers(supported):
    return _kernels(supported, "normalize", [ctypes.c_void_p] * 2 + [ctypes.c_ssize_t] * 2,
                    ctypes.c_int)


@pytest.fixture
def row_dots(supported):
    return _kernels(supported, "row_dots", [ctypes.c_void_p] * 3 + [ctypes.c_ssize_t] * 2,
                    None)


@pytest.fixture
def epilogues(supported):
    return _kernels(supported, "epilogue",
                    [ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t, ctypes.c_void_p,
                     ctypes.c_int, ctypes.c_int, ctypes.c_double, ctypes.c_double],
                    ctypes.c_int)


def numpy_normalize(x: np.ndarray) -> np.ndarray:
    x64 = x.astype(np.float64)
    with np.errstate(invalid="ignore"):
        return (x64 / np.sqrt(np.sum(x64 * x64, axis=1, keepdims=True))).astype(np.float32)


def numpy_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sum(a.astype(np.float64) * b.astype(np.float64), axis=1)


def _spread(rng, shape, binades=30) -> np.ndarray:
    """float32 values of either sign over +-binades binades, a tenth of them
    zeros of either sign, and no row of zeros only."""
    x = rng.uniform(1.0, 2.0, shape) * np.exp2(rng.integers(-binades, binades + 1, shape))
    x *= rng.choice([-1.0, 1.0], shape)
    x[rng.uniform(size=shape) < 0.1] = rng.choice([0.0, -0.0])
    x[np.all(x == 0, axis=1), 0] = rng.choice([-1.0, 1.0])
    return x.astype(np.float32)


def _guarded(shape, dtype=np.float32):
    """A NaN array of ``shape`` followed by ``PAD`` guard elements: (the
    whole buffer, the array)."""
    size = int(np.prod(shape))
    buf = np.full(size + PAD, GUARD, dtype=dtype)
    buf[:size] = np.nan
    return buf, buf[:size].reshape(shape)


def _run_normalize(kernel, x: np.ndarray, in_place=False):
    """(output, zero-norm flag) of a variant's normalization."""
    x = np.ascontiguousarray(x, dtype=np.float32)
    buf, out = _guarded(x.shape)
    if in_place:
        out[:] = x
    flag = kernel((out if in_place else x).ctypes.data, out.ctypes.data, *x.shape)
    assert (buf[x.size:] == GUARD).all()
    return out, flag


def _run_dots(kernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    buf, out = _guarded((a.shape[0],), np.float64)
    kernel(a.ctypes.data, b.ctypes.data, out.ctypes.data, *a.shape)
    assert (buf[a.shape[0]:] == GUARD).all()
    return out


def _assert_bits(got, want):
    """Equal bits, NaN payloads aside: NaN exactly where numpy has one."""
    view = np.uint32 if want.dtype == np.float32 else np.uint64
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got.view(view)[~nan], want.view(view)[~nan])


@pytest.mark.parametrize("n", WIDTHS)
def test_normalize_matches_numpy_on_every_variant(normalizers, n):
    rng = np.random.default_rng(n)
    x = _spread(rng, (9, n))
    want = numpy_normalize(x)
    for variant, kernel in normalizers:
        for in_place in (False, True):
            got, flag = _run_normalize(kernel, x, in_place)
            assert flag == 0, variant
            _assert_bits(got, want)


@pytest.mark.parametrize("n", WIDTHS)
def test_row_dots_match_numpy_on_every_variant(row_dots, n):
    rng = np.random.default_rng(100 + n)
    a, b = _spread(rng, (9, n)), _spread(rng, (9, n))
    # The rows of a pair's unit embeddings, as the verify request scores them.
    unit = numpy_normalize(a), numpy_normalize(b)
    for variant, kernel in row_dots:
        for x, y in ((a, b), unit, (a, a)):
            _assert_bits(_run_dots(kernel, x, y), numpy_dots(x, y))


def test_row_dots_of_signed_zero_products_are_positive_zero(row_dots):
    # Rows whose products are all -0.0, or zeros of mixed signs: numpy's
    # sum starts at +0.0, so it gives +0.0.
    rng = np.random.default_rng(5)
    for n in WIDTHS:
        a = np.full((3, n), -0.0, dtype=np.float32)
        a[1] = 0.0
        b = np.ones((3, n), dtype=np.float32)
        b[1] = -2.0
        b[2] = rng.choice(np.float32([0.0, -0.0, 1.0, -1.0]), n)
        want = numpy_dots(a, b)
        assert not np.signbit(want).any()
        for variant, kernel in row_dots:
            _assert_bits(_run_dots(kernel, a, b), want)


def test_normalize_flags_a_row_of_zero_norm(normalizers):
    # Zeros of either sign: the flag is raised, the row is NaN as numpy's
    # 0 / 0, and every other row keeps numpy's bits.
    rng = np.random.default_rng(7)
    for n in WIDTHS:
        for row in (0, 4, 8):
            x = _spread(rng, (9, n))
            x[row] = rng.choice(np.float32([0.0, -0.0]), n)
            want = numpy_normalize(x)
            for variant, kernel in normalizers:
                got, flag = _run_normalize(kernel, x)
                assert flag == 1, variant
                _assert_bits(got, want)


@pytest.mark.parametrize("bits", [None, 8, 4])
@pytest.mark.parametrize("relu", [False, True])
def test_epilogue_normalizes_as_numpy_after_its_other_stages(epilogues, bits, relu):
    # The normalization stage equals numpy's on what the epilogue's other
    # stages give, at row counts around the 32-row epilogue block.
    rng = np.random.default_rng(3 + (bits or 0) + relu)
    quant = (0, 0.0, 0.0) if bits is None else (bits, 0.25, 3.0)
    for rows in (1, 3, EPILOGUE_ROWS - 1, EPILOGUE_ROWS, EPILOGUE_ROWS + 1):
        for n in (1, 7, 8, 17, 32, 64, 129):
            sums = _spread(rng, (rows, n), binades=20)
            bias = _spread(rng, (1, n), binades=20)[0]
            sums[:, 0] = np.abs(sums[:, 0]) + 1.0  # no row of zero norm after the relu
            bias[0] = 1.0
            for variant, kernel in epilogues:
                staged = sums.copy()
                assert kernel(staged.ctypes.data, rows, n, bias.ctypes.data, relu,
                              *quant) == 0
                got = sums.copy()
                assert kernel(got.ctypes.data, rows, n, bias.ctypes.data,
                              relu | STAGE_NORMALIZE, *quant) == 0, variant
                _assert_bits(got, numpy_normalize(staged))


@pytest.mark.parametrize("n", WIDTHS)
def test_l2_normalize_and_the_module_entries_match_numpy(n):
    # On the variant the module picked, through its Python entries.
    rng = np.random.default_rng(200 + n)
    x, y = _spread(rng, (40, n)), _spread(rng, (40, n))
    _assert_bits(tensor_core.l2_normalize(tensor_core.Tensor(x)).data, numpy_normalize(x))
    out = np.empty(40)
    tensor_core._MATMUL.row_dots(x, y, out)
    _assert_bits(out, numpy_dots(x, y))


def _products(rng, rows, k=9, n=17):
    a = rng.standard_normal((rows, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    bias = rng.standard_normal(n).astype(np.float32)
    return a, b, bias


# Rows around the 32-row epilogue block, and a count split into two ranges.
ROW_COUNTS = [1, EPILOGUE_ROWS - 1, EPILOGUE_ROWS, EPILOGUE_ROWS + 1, 4 * EPILOGUE_ROWS + 5,
              2 * RANGE_ROWS + 5]


@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("stages", [STAGE_NORMALIZE, STAGE_RELU | STAGE_NORMALIZE])
def test_product_normalizes_every_block_of_every_range(parts, stages):
    rng = np.random.default_rng(parts + stages)
    product = tensor_core._MATMUL.product
    for rows in ROW_COUNTS:
        if rows < parts:
            continue
        a, b, bias = _products(rng, rows)
        b[:, 0] = np.abs(b[:, 0])
        a[:, 0] = 1.0 + np.abs(a[:, 0])
        bias[0] = 10.0  # every row of output keeps a positive first column
        staged = np.empty((rows, 17), dtype=np.float32)
        assert product(a, b, staged, parts, bias, stages & STAGE_RELU) is False
        out = np.full((rows, 17), np.nan, dtype=np.float32)
        assert product(a, b, out, parts, bias, stages) is False
        _assert_bits(out, numpy_normalize(staged))


@pytest.mark.parametrize("where", ["range 0", "range 1", "last partial block"])
def test_product_raises_on_a_zero_norm_row_in_any_range(where):
    # With WORKERS 2, 3005 rows split into ranges of 1502 and 1503 rows;
    # each range's last block holds fewer than 32 rows.
    rows = 2 * RANGE_ROWS + 5
    row = {"range 0": 7, "range 1": RANGE_ROWS + 40, "last partial block": rows - 2}[where]
    rng = np.random.default_rng(9)
    a, b, bias = _products(rng, rows)
    bias[:] = 0.0
    a[row] = 0.0  # its sums and so its outputs are +0.0
    out = np.empty((rows, 17), dtype=np.float32)
    assert tensor_core._MATMUL.product(a, b, out, 2, bias, 0) is False
    with pytest.raises(ZeroDivisionError, match="^cannot normalize a zero-norm row$"):
        tensor_core._MATMUL.product(a, b, out, 2, bias, STAGE_NORMALIZE)
    a[row] = rng.standard_normal(9)
    assert tensor_core._MATMUL.product(a, b, out, 2, bias, STAGE_NORMALIZE) is False


@pytest.mark.parametrize("same_block", [True, False])
def test_a_non_finite_sum_outweighs_a_zero_norm_row(same_block):
    # A zero-norm row and a sum that is not finite, in one block or in the
    # other range: the call reports the non-finite sum, as forward_embed
    # checks a layer's output before it normalizes.
    rows = 2 * RANGE_ROWS + 5
    rng = np.random.default_rng(11)
    a, b, bias = _products(rng, rows)
    bias[:] = 0.0
    a[3] = 0.0
    a[5 if same_block else rows - 1, 2] = np.inf
    out = np.empty((rows, 17), dtype=np.float32)
    for stages in (STAGE_NORMALIZE, STAGE_RELU | STAGE_NORMALIZE):
        assert tensor_core._MATMUL.product(a, b, out, 2, bias, stages, 8, 0.5, 1.0) is True
