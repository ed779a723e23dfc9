"""Property oracle: matmul is bit-identical to the explicit k-ordered loop.

Bits are compared, not values, because -0.0 == +0.0: a row whose products
are all -0.0 (relu zeros times negative weights) must still sum to +0.0.
Shapes are drawn on both sides of the kernel's method boundaries (small
chunked products, single-element outputs, row-blocked long products).
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from quantdistill import tensor_core  # noqa: E402
from quantdistill.tensor_core import Tensor, matmul  # noqa: E402


def _k_ordered_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Oracle: start at +0.0, add one rounded float32 product per k, in order."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float32)
    for i in range(a.shape[1]):
        out = out + a[:, i:i + 1] * b[i:i + 1, :]
    return out


def _dims(m, k, n):
    return st.tuples(st.integers(*m), st.integers(*k), st.integers(*n))


SHAPES = st.one_of(
    _dims((1, 2), (64, 300), (1, 2)),        # dot products: numpy would sum a 1x1 pairwise
    _dims((1, 9), (1, 40), (1, 9)),          # includes k=1, m=1 and n=1
    _dims((1, 80), (1, 130), (1, 80)),       # the batch-64 training shapes and more chunks
    _dims((200, 300), (1, 9), (200, 300)),   # outputs too wide for one chunk slot
    _dims((5000, 9000), (1, 24), (1, 4)),    # long inputs: one to three row blocks
)


def _operand(rng, shape, spread, zero_frac, negative):
    mant = rng.uniform(1.0, 2.0, size=shape)
    exps = rng.integers(-spread, spread + 1, size=shape)
    sign = -1.0 if negative else rng.choice([-1.0, 1.0], size=shape)
    x = (sign * np.ldexp(mant, exps)).astype(np.float32)
    x[rng.uniform(size=shape) < zero_frac] = 0.0
    return x


@given(shape=SHAPES,
       seed=st.integers(0, 2**32 - 1),
       spread=st.sampled_from([0, 4, 20, 40]),
       zero_frac=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
       zero_rows=st.booleans(),
       negative_b=st.booleans())
def test_matmul_bits_match_k_ordered_loop(shape, seed, spread, zero_frac, zero_rows,
                                          negative_b):
    m, k, n = shape
    rng = np.random.default_rng(seed)
    a = np.maximum(_operand(rng, (m, k), spread, zero_frac, False), np.float32(0.0))
    if zero_rows:
        a[rng.uniform(size=m) < 0.3] = 0.0
    b = _operand(rng, (k, n), spread, 0.0, negative_b)
    got = matmul(Tensor(a), Tensor(b)).data
    want = _k_ordered_loop(a, b)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def test_all_negative_zero_products_sum_to_positive_zero():
    # relu zeros times negative weights: every product is -0.0, on both methods
    for m in (1, 64, 2 * tensor_core.BLOCK_ROWS):
        a = np.zeros((m, 64), dtype=np.float32)
        b = np.full((64, 64), -0.5, dtype=np.float32)
        got = matmul(Tensor(a), Tensor(b)).data
        assert not np.signbit(got).any()
