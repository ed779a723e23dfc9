"""Property oracle: matmul is bit-identical to the explicit k-ordered loop.

Bits are compared, not values, because -0.0 == +0.0: a row whose products
are all -0.0 (relu zeros times negative weights) must still sum to +0.0.
Shapes run from single-element outputs and dot products through the
batch-64 training shapes to long inputs split into row ranges.
"""

import os
import threading

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
    _dims((1, 80), (1, 130), (1, 80)),       # the batch-64 training shapes and their tile edges
    _dims((200, 300), (1, 9), (200, 300)),   # wide outputs: many column tiles and a tail
    _dims((5000, 9000), (1, 24), (1, 4)),    # long inputs, split into row ranges
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


@given(shape=SHAPES,
       seed=st.integers(0, 2**32 - 1),
       spread=st.sampled_from([0, 20, 40, 70]),
       zero_frac=st.sampled_from([0.0, 0.5, 0.9, 1.0]))
def test_signed_operands_match_k_ordered_loop_through_overflow(shape, seed, spread,
                                                               zero_frac):
    # Backward products take signed upstream gradients and d_logits, which
    # may hold -0.0. With exponents up to +-70 products overflow to +-inf
    # (and sums of opposite infinities to NaN) or underflow to subnormals
    # and zeros of either sign; the bits must still be the oracle's.
    m, k, n = shape
    rng = np.random.default_rng(seed)
    a = _operand(rng, (m, k), spread, zero_frac, False)
    a[rng.uniform(size=(m, k)) < zero_frac / 2] = -0.0
    b = _operand(rng, (k, n), spread, zero_frac / 2, False)
    with np.errstate(all="ignore"):
        got = matmul(Tensor(a), Tensor(b)).data
        want = _k_ordered_loop(a, b)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


# (m, k, n) of every product in a batch-64 training step of the reference
# net (64 -> 64 -> 64 -> 32, 200 identities): forward and backward of the
# linears, the batch draw's latent projection, and the classifier head.
TRAINING_SHAPES = [(64, 64, 64), (64, 64, 32), (32, 64, 64), (64, 32, 64), (64, 16, 64),
                   (64, 32, 200), (64, 200, 32), (200, 64, 32)]


@pytest.mark.parametrize("m, k, n", TRAINING_SHAPES)
def test_training_shapes_run_as_one_range_on_the_calling_thread(monkeypatch, product_calls,
                                                                 m, k, n):
    # However many CPUs the process may use, a training product is one
    # kernel call over all its rows in one range, made by the caller, and
    # gives the oracle's bits with -0.0 operands.
    monkeypatch.setattr(tensor_core, "WORKERS", 8)
    rng = np.random.default_rng(m * k + n)
    a = _operand(rng, (m, k), 20, 0.3, False)
    a[rng.uniform(size=(m, k)) < 0.1] = -0.0
    b = _operand(rng, (k, n), 20, 0.1, False)
    got = matmul(Tensor(a), Tensor(b)).data
    assert product_calls == [(1, threading.get_ident())]
    want = _k_ordered_loop(a, b)
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def test_all_negative_zero_products_sum_to_positive_zero():
    # Every product is -0.0: relu zeros times negative weights, a negative
    # gradient times +0.0, or -0.0 times a positive value. m = 1 and 64 run
    # on the calling thread, 2 * RANGE_ROWS in row ranges.
    for a_value, b_value in ((0.0, -0.5), (-0.5, 0.0), (-0.0, 0.5)):
        for m in (1, 64, 2 * tensor_core.RANGE_ROWS):
            a = np.full((m, 64), a_value, dtype=np.float32)
            b = np.full((64, 64), b_value, dtype=np.float32)
            got = matmul(Tensor(a), Tensor(b)).data
            assert got.shape == (m, 64)
            assert not np.signbit(got).any()


B = tensor_core.RANGE_ROWS
SPLIT_ROWS = [0, 1, B // 2, B // 2 + 1, B - 1, B, 2 * B - 1, 2 * B, 3 * B + 7]
# (rows, workers, None) goes through matmul; (rows, None, parts) straight
# into the kernel's entry, on a NaN output: 1-5 ranges of up to 11 rows,
# most of them uneven, and 3 long ranges.
SPLITS = ([(m, workers, None) for m in SPLIT_ROWS for workers in (1, 2, 3)]
          + [(m, None, parts) for parts in range(1, 6) for m in range(parts, 12)]
          + [(2 * B + 7, None, 3)])


@pytest.mark.parametrize("m, workers, parts", SPLITS, ids=[
    f"{m}-{workers}" if parts is None else f"{m}-rows-{parts}-parts" for m, workers, parts in SPLITS])
def test_row_split_bits_match_k_ordered_loop(monkeypatch, m, workers, parts):
    # Products over every row count around the range boundaries (one
    # range, or ranges split across workers) give the oracle's bits for any
    # worker count or number of ranges, with relu zeros and all-negative
    # weights so that whole rows of -0.0 products must still sum to +0.0.
    # A range that is skipped or cut short leaves NaN rows in the entry's
    # output.
    k, n = 64, 8 if m > 1 else 1
    rng = np.random.default_rng(m * 10 + (workers or 10 * parts))
    a = np.maximum(_operand(rng, (m, k), 20, 0.5, False), np.float32(0.0))
    a[rng.uniform(size=m) < 0.3] = 0.0
    b = _operand(rng, (k, n), 20, 0.0, True)
    if parts is None:
        monkeypatch.setattr(tensor_core, "WORKERS", workers)
        got = matmul(Tensor(a), Tensor(b)).data
    else:
        got = np.full((m, n), np.nan, dtype=np.float32)
        tensor_core._MATMUL.product(a, b, got, parts)
    want = _k_ordered_loop(a, b)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def test_row_ranges_on_more_workers_than_cpus_match_one_worker(monkeypatch):
    # With WORKERS above the CPU count the kernel starts more range threads
    # than there are CPUs to run them, each writing only its own rows of
    # the shared output; the result still equals the one-worker result.
    workers = (os.cpu_count() or 1) + 1
    a = np.random.default_rng(5).standard_normal((workers * B + 3, 24)).astype(np.float32)
    b = np.random.default_rng(6).standard_normal((24, 4)).astype(np.float32)
    monkeypatch.setattr(tensor_core, "WORKERS", 1)
    want = matmul(Tensor(a), Tensor(b)).data
    monkeypatch.setattr(tensor_core, "WORKERS", workers)
    for _ in range(5):
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
