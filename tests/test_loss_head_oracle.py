"""The compiled KD loss, its gradient and the normalization backward give
numpy's bits.

``_matmul.c`` exports, per vector width, a KD-loss kernel and a
normalization-backward kernel (``qd_kd_loss_<v>`` and
``qd_normalize_backward_<v>`` for ``v`` in base, avx2 and avx512). Each
variant this CPU runs is reached here by its exported symbol, through
``ctypes`` on the module's own file, so the narrower ones are checked on a
CPU that would never pick them; variants the CPU cannot run are left out
rather than skipped, so that ``tests/test_simd_targets.py`` can run this
file on numpy's baseline target.

The oracle is the numpy code the kernels replaced, kept only here: the
distiller's re-normalized rows, its ``mean(|u - v|^2) / 2`` loss clamped to
[0, 2], its gradient ``(cos u - v) / (m |fq|)``, and the graph's
``(g - (g . u) u) / |x|``, all on float64 copies of the float32 rows.
numpy sums each row pairwise (8 partial sums per block of up to 128
terms, longer rows split in halves), and the loss's mean over the rows the
same way, so the widths run around 8, 16, 32, 128 and past 256 and the
row counts 1-9, 127-129 and 300, with values spread over +-30 binades so
that a different order shows in the bits. Results are compared as bits.
"""

import ctypes

import numpy as np
import pytest

from quantdistill import distiller, graph, tensor_core
from quantdistill.errors import DomainError
from quantdistill.tensor_core import Tensor

VARIANTS = ("avx512", "avx2", "base")  # widest first
WIDTHS = [*range(1, 10), 15, 16, 17, 31, 32, 33, 64, 127, 128, 129, 256, 300]
ROW_COUNTS = [*range(1, 10), 127, 128, 129, 300]
PAD = 64
GUARD = np.float32(12345.0)
P = ctypes.c_void_p
N = ctypes.c_ssize_t


def _kernels(supported, name, argtypes):
    """The named kernel of every variant this CPU runs, by exported symbol."""
    lib = ctypes.CDLL(tensor_core._MATMUL.__file__)
    found = []
    for variant in (v for v in VARIANTS if v in supported):
        kernel = getattr(lib, f"qd_{name}_{variant}")
        kernel.argtypes = argtypes
        kernel.restype = ctypes.c_int
        found.append((variant, kernel))
    return found


@pytest.fixture
def kd_kernels(supported):
    return _kernels(supported, "kd_loss", [P, P, P, P, N, N, P, P])


@pytest.fixture
def backward_kernels(supported):
    return _kernels(supported, "normalize_backward", [P, P, P, N, N, P])


def unit_rows(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.float64)
    return x / np.sqrt(np.sum(x * x, axis=1, keepdims=True))


def numpy_kd(fq: np.ndarray, ft: np.ndarray):
    """(each row's term, the loss, the float32 gradient), as the distiller
    computed them."""
    diff = unit_rows(fq) - unit_rows(ft)
    terms = np.sum(diff * diff, axis=1)
    loss = float(np.mean(terms) / 2.0)
    u, v = unit_rows(fq), unit_rows(ft)
    na = np.sqrt(np.sum(fq.astype(np.float64) ** 2, axis=1, keepdims=True))
    cos = np.sum(u * v, axis=1, keepdims=True)
    grad = ((cos * u - v) / (u.shape[0] * na)).astype(np.float32)
    return terms, min(max(loss, 0.0), 2.0), grad


def numpy_normalize_backward(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    xd = x.astype(np.float64)
    g = g.astype(np.float64)
    norms = np.sqrt(np.sum(xd * xd, axis=1, keepdims=True))
    u = xd / norms
    proj = np.sum(g * u, axis=1, keepdims=True)
    return ((g - proj * u) / norms).astype(np.float32)


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


def _run_kd(kernel, fq, ft, with_grad=True):
    """(terms, loss, gradient or None, zero-norm flag) of a variant."""
    rows, n = fq.shape
    terms_buf, terms = _guarded((rows,), np.float64)
    grad_buf, grad = _guarded((rows, n))
    scratch = np.empty(2 * n)
    loss = ctypes.c_double(np.nan)
    flag = kernel(fq.ctypes.data, ft.ctypes.data, terms.ctypes.data,
                  grad.ctypes.data if with_grad else None, rows, n, scratch.ctypes.data,
                  ctypes.byref(loss))
    assert (terms_buf[rows:] == GUARD).all() and (grad_buf[grad.size:] == GUARD).all()
    if not with_grad:
        assert np.isnan(grad).all()
    return terms, loss.value, grad if with_grad else None, flag


def _run_backward(kernel, x, g):
    buf, out = _guarded(x.shape)
    scratch = np.empty(2 * x.shape[1])
    flag = kernel(x.ctypes.data, g.ctypes.data, out.ctypes.data, *x.shape, scratch.ctypes.data)
    assert (buf[out.size:] == GUARD).all()
    return out, flag


def _assert_bits(got, want):
    """Equal bits, NaN payloads aside: NaN exactly where numpy has one."""
    got, want = np.asarray(got), np.asarray(want)
    view = np.uint32 if want.dtype == np.float32 else np.uint64
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got.view(view)[~nan], want.view(view)[~nan])


def _assert_kd(kernel, fq, ft):
    terms, loss, grad = numpy_kd(fq, ft)
    for with_grad in (False, True):
        got_terms, got_loss, got_grad, flag = _run_kd(kernel, fq, ft, with_grad)
        assert flag == 0
        _assert_bits(got_terms, terms)
        _assert_bits(np.float64(got_loss), np.float64(loss))
        if with_grad:
            _assert_bits(got_grad, grad)


@pytest.mark.parametrize("n", WIDTHS)
def test_kd_loss_matches_numpy_on_every_variant(kd_kernels, n):
    rng = np.random.default_rng(n)
    fq, ft = _spread(rng, (9, n)), _spread(rng, (9, n))
    # Spread rows, and unit rows as the forward gives them.
    unit = unit_rows(fq).astype(np.float32), unit_rows(ft).astype(np.float32)
    for variant, kernel in kd_kernels:
        for a, b in ((fq, ft), unit):
            _assert_kd(kernel, a, b)


@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_kd_loss_mean_matches_numpy_over_the_rows(kd_kernels, rows):
    rng = np.random.default_rng(1000 + rows)
    for n in (5, 32):
        fq, ft = _spread(rng, (rows, n), binades=10), _spread(rng, (rows, n), binades=10)
        for variant, kernel in kd_kernels:
            _assert_kd(kernel, fq, ft)


@pytest.mark.parametrize("rows", [1, 9, 129])
def test_identical_rows_score_exactly_zero(kd_kernels, rows):
    rng = np.random.default_rng(rows)
    for n in WIDTHS:
        f = _spread(rng, (rows, n))
        for variant, kernel in kd_kernels:
            terms, loss, grad, flag = _run_kd(kernel, f, f.copy())
            assert flag == 0 and loss == 0.0 and (terms == 0.0).all(), variant
            _assert_bits(grad, numpy_kd(f, f)[2])


@pytest.mark.parametrize("rows", [1, 9, 129])
def test_anti_aligned_rows_score_exactly_two(kd_kernels, rows):
    # One nonzero element per row: its unit row is exactly +-1 there.
    rng = np.random.default_rng(50 + rows)
    for n in WIDTHS:
        fq = np.zeros((rows, n), dtype=np.float32)
        fq[np.arange(rows), rng.integers(0, n, rows)] = _spread(rng, (rows, 1))[:, 0]
        want = numpy_kd(fq, -fq)
        assert want[1] == 2.0
        for variant, kernel in kd_kernels:
            terms, loss, grad, flag = _run_kd(kernel, fq, -fq)
            assert flag == 0 and loss == 2.0 and (terms == 4.0).all(), variant
            _assert_bits(grad, want[2])


@pytest.mark.parametrize("side", ["student", "teacher"])
def test_a_zero_norm_row_of_either_side_is_flagged(kd_kernels, side):
    rng = np.random.default_rng(7)
    for n in WIDTHS:
        for row in (0, 4, 8):
            fq, ft = _spread(rng, (9, n)), _spread(rng, (9, n))
            (fq if side == "student" else ft)[row] = rng.choice(np.float32([0.0, -0.0]), n)
            for variant, kernel in kd_kernels:
                assert _run_kd(kernel, fq, ft)[3] == 1, variant
            for call in (distiller.kd_loss, distiller.kd_loss_grad):
                with pytest.raises(DomainError, match="^zero-norm embedding row$"):
                    call(Tensor(fq), Tensor(ft))


@pytest.mark.parametrize("n", WIDTHS)
def test_normalize_backward_matches_numpy_on_every_variant(backward_kernels, n):
    rng = np.random.default_rng(300 + n)
    for rows in (1, 9, 129):
        x, g = _spread(rng, (rows, n)), _spread(rng, (rows, n))
        want = numpy_normalize_backward(x, g)
        for variant, kernel in backward_kernels:
            got, flag = _run_backward(kernel, x, g)
            assert flag == 0, variant
            _assert_bits(got, want)


def test_normalize_backward_flags_a_row_of_zero_norm(backward_kernels):
    # The flag is raised, and every other row keeps numpy's bits.
    rng = np.random.default_rng(8)
    for n in WIDTHS:
        for row in (0, 4, 8):
            x, g = _spread(rng, (9, n)), _spread(rng, (9, n))
            x[row] = rng.choice(np.float32([0.0, -0.0]), n)
            with np.errstate(invalid="ignore", divide="ignore"):
                want = numpy_normalize_backward(x, g)
            others = np.arange(9) != row
            for variant, kernel in backward_kernels:
                got, flag = _run_backward(kernel, x, g)
                assert flag == 1, variant
                _assert_bits(got[others], want[others])
            with pytest.raises(DomainError, match="^cannot normalize a zero-norm row$"):
                graph.l2_normalize_backward(Tensor(x), Tensor(g))


@pytest.mark.parametrize("n", [1, 8, 32, 129])
def test_the_package_calls_match_numpy(n):
    # On the variant the module picked, through kd_loss, kd_loss_grad and
    # l2_normalize_backward.
    rng = np.random.default_rng(400 + n)
    fq, ft = _spread(rng, (64, n)), _spread(rng, (64, n))
    _, loss, grad = numpy_kd(fq, ft)
    assert distiller.kd_loss(Tensor(fq), Tensor(ft)) == loss
    _assert_bits(distiller.kd_loss_grad(Tensor(fq), Tensor(ft)).data, grad)
    _assert_bits(graph.l2_normalize_backward(Tensor(fq), Tensor(ft)).data,
                 numpy_normalize_backward(fq, ft))
