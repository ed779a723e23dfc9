"""Every variant of the compiled matmul kernel this CPU runs gives the
k-ordered loop's bits.

``_matmul.c`` exports one kernel per vector width (``qd_matmul_rows_base``
on 16-byte vectors, and, where GCC compiles for x86,
``qd_matmul_rows_avx2`` and ``qd_matmul_rows_avx512``), and the extension
module that ``tensor_core`` imports runs the widest one the CPU runs. Each
variant is reached here by its exported symbol, through ``ctypes`` on the
module's own file, so the narrower ones are checked on a CPU that would
never pick them. The shapes cover every way a variant tiles a product:
row counts that are not a multiple of the 4-row tile, every column
remainder below the widest tile's 32 columns, and k = 1.
"""

import ctypes
import re
import shutil
import subprocess

import numpy as np
import pytest

from quantdistill import tensor_core

ORDER = ("avx512", "avx2", "base")  # widest first
TILE_ROWS = 4
WIDEST_TILE_COLUMNS = 32  # two 16-float vectors


@pytest.fixture(params=ORDER)
def kernel(request, supported):
    if request.param not in supported:
        pytest.skip(f"this CPU does not run the {request.param} variant")
    kernel = getattr(ctypes.CDLL(tensor_core._MATMUL.__file__),
                     f"qd_matmul_rows_{request.param}")
    kernel.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_ssize_t] * 3
    kernel.restype = None
    return kernel


def _k_ordered_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Oracle: start at +0.0, add one rounded float32 product per k, in order."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float32)
    for i in range(a.shape[1]):
        out = out + a[:, i:i + 1] * b[i:i + 1, :]
    return out


def _run(kernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``kernel`` on C-ordered float32 ``a`` and ``b``. The output starts as
    NaN and is followed by guard elements, so an element left unwritten or
    a write past the last row shows."""
    m, k = a.shape
    n = b.shape[1]
    guard = np.float32(12345.0)
    buf = np.full(m * n + 64, np.nan, dtype=np.float32)
    buf[m * n:] = guard
    kernel(a.ctypes.data, b.ctypes.data, buf.ctypes.data, m, k, n)
    assert (buf[m * n:] == guard).all()
    return buf[:m * n].reshape(m, n)


def _operand(rng, shape, spread):
    x = rng.uniform(1.0, 2.0, size=shape) * np.exp2(rng.integers(-spread, spread + 1, size=shape))
    x = (x * rng.choice([-1.0, 1.0], size=shape)).astype(np.float32)
    x[rng.uniform(size=shape) < 0.1] = 0.0
    x[rng.uniform(size=shape) < 0.1] = -0.0
    return x


def _assert_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def test_loaded_kernel_is_the_widest_variant_the_cpu_supports(supported):
    assert tensor_core._MATMUL.variant == supported[0]


@pytest.mark.parametrize("k", [1, 2, 37, 64])
def test_every_row_and_column_remainder_matches_the_oracle(kernel, k):
    rng = np.random.default_rng(k)
    for m in (1, 2, 3, TILE_ROWS, TILE_ROWS + 1, 2 * TILE_ROWS + 3):
        a = _operand(rng, (m, k), 20)
        for n in range(1, 2 * WIDEST_TILE_COLUMNS + 3):
            b = _operand(rng, (k, n), 20)
            _assert_bits(_run(kernel, a, b), _k_ordered_loop(a, b))


def test_training_shapes_match_the_oracle(kernel):
    rng = np.random.default_rng(0)
    for m, k, n in [(64, 64, 64), (64, 32, 200), (64, 200, 32), (200, 64, 32), (2003, 64, 64)]:
        a = _operand(rng, (m, k), 20)
        b = _operand(rng, (k, n), 20)
        _assert_bits(_run(kernel, a, b), _k_ordered_loop(a, b))


def test_all_negative_zero_product_rows_sum_to_positive_zero(kernel):
    for a_value, b_value in ((0.0, -0.5), (-0.5, 0.0), (-0.0, 0.5), (-0.0, -0.0)):
        for m, k, n in [(1, 1, 1), (5, 64, 37), (64, 64, 64), (7, 3, 200)]:
            a = np.full((m, k), a_value, dtype=np.float32)
            b = np.full((k, n), b_value, dtype=np.float32)
            got = _run(kernel, a, b)
            assert (got == 0.0).all() and not np.signbit(got).any()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_and_subnormal_operands_match_the_oracle_but_for_nan_payloads(kernel):
    # Products overflow to +-inf, opposite infinities sum to NaN, and NaN,
    # inf, subnormal and signed-zero operands are mixed in. Every element
    # the oracle gives as a number has its bits; where it gives NaN the
    # variant gives NaN too, whose payload may differ.
    rng = np.random.default_rng(7)
    specials = np.array([np.inf, -np.inf, np.nan, 1e-40, -1e-40, 0.0, -0.0], dtype=np.float32)
    for m, k, n in [(9, 1, 37), (9, 16, 37), (64, 64, 64), (6, 40, 70)]:
        a = _operand(rng, (m, k), 70)
        b = _operand(rng, (k, n), 70)
        for x in (a, b):
            mask = rng.uniform(size=x.shape) < 0.05
            x[mask] = rng.choice(specials, size=int(mask.sum()))
        got = _run(kernel, a, b)
        with np.errstate(all="ignore"):
            want = _k_ordered_loop(a, b)
        nan = np.isnan(want)
        assert (np.isnan(got) == nan).all()
        assert np.array_equal(got[~nan].view(np.uint32), want[~nan].view(np.uint32))


def test_no_variant_fuses_a_multiply_into_an_add():
    # -ffp-contract=off keeps each multiply and add rounded on its own in
    # the product, the quantization kernels and the row sums of the
    # normalization; a fused multiply-add anywhere in the object would mean
    # the flag was lost.
    if shutil.which("objdump") is None:
        pytest.skip("objdump is not installed")
    listing = subprocess.run(["objdump", "-d", tensor_core._MATMUL.__file__], check=True,
                             capture_output=True, text=True, timeout=120).stdout
    for kernel in ("qd_matmul_rows", "qd_fake_quant", "qd_derive_params", "qd_normalize",
                   "qd_row_dots"):
        assert f"<{kernel}_base>:" in listing
    assert not re.findall(r"\bv?f(?:n?madd|n?msub)\w*", listing)
