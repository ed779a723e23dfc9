"""The compiled kernel's Python entry refuses every call it cannot run
inside its operands.

``tensor_core._MATMUL.product(a, b, out, parts)`` reads ``a`` and ``b`` and
writes ``out`` through raw pointers, from the calling thread and from the
``parts - 1`` threads it starts, so each check on its operands and on
``parts`` is all that keeps a bad call from reading or writing memory it
was not given, or from starting a thread for an empty range.
Every operand here is a view into a larger array: the output sits between
guard elements and starts as NaN, and the inputs sit inside padding, so a
call that got past a check would read only memory the test owns and show
as a changed output element or guard instead of a crash.
"""

import numpy as np
import pytest

from quantdistill import tensor_core

M, K, N = 6, 5, 7
PAD = 64
GUARD = np.float32(12345.0)

product = tensor_core._MATMUL.product


class Guarded:
    """A NaN-filled output of ``shape`` and ``dtype`` with ``PAD`` guard
    elements on either side."""

    def __init__(self, shape=(M, N), dtype=np.float32):
        self.size = int(np.prod(shape))
        self.buf = np.full(self.size + 2 * PAD, GUARD, dtype=dtype)
        self.buf[PAD:PAD + self.size] = np.nan
        self.out = self.buf[PAD:PAD + self.size].reshape(shape)

    def assert_untouched(self):
        assert (self.buf[:PAD] == GUARD).all() and (self.buf[PAD + self.size:] == GUARD).all()
        assert np.isnan(self.buf[PAD:PAD + self.size]).all()


def _padded(shape, dtype=np.float32) -> np.ndarray:
    """A ``shape`` operand of ones, a view into a padded array."""
    size = int(np.prod(shape))
    return np.ones(size + 2 * PAD, dtype=dtype)[PAD:PAD + size].reshape(shape)


def _refused(a, b, guarded: Guarded, parts=1, error=(ValueError, BufferError)):
    with pytest.raises(error):
        product(a, b, guarded.out, parts)
    guarded.assert_untouched()


# Each part is a thread: only small counts are run.
@pytest.mark.parametrize("parts", [1, 2, 3, M])
def test_a_valid_call_writes_its_output_and_nothing_else(parts):
    rng = np.random.default_rng(parts)
    a = rng.standard_normal((M, K)).astype(np.float32)
    b = rng.standard_normal((K, N)).astype(np.float32)
    guarded = Guarded()
    product(a, b, guarded.out, parts)
    want = np.zeros((M, N), dtype=np.float32)
    for i in range(K):
        want = want + a[:, i:i + 1] * b[i:i + 1, :]
    assert np.array_equal(guarded.out.view(np.uint32), want.view(np.uint32))
    guarded.out[:] = np.nan
    guarded.assert_untouched()


def test_a_product_of_no_rows_writes_nothing():
    guarded = Guarded((0, N))
    product(_padded((0, K)), _padded((K, N)), guarded.out, 1)
    guarded.assert_untouched()


# int32 and float32 have the same item size: only the format tells them
# apart. A float64 output is checked for NaN in its own format.
@pytest.mark.parametrize("operand", ["a", "b", "out"])
def test_an_operand_that_is_not_float32_is_refused(operand):
    a = _padded((M, K), np.int32 if operand == "a" else np.float32)
    b = _padded((K, N), np.int32 if operand == "b" else np.float32)
    guarded = Guarded(dtype=np.float64 if operand == "out" else np.float32)
    _refused(a, b, guarded)


def test_a_read_only_output_is_refused():
    guarded = Guarded()
    guarded.out.flags.writeable = False
    _refused(_padded((M, K)), _padded((K, N)), guarded)


def test_a_non_contiguous_output_is_refused():
    # Every other column of a NaN matrix twice as wide: a contiguous write
    # of M x N floats would land on the columns in between.
    guarded = Guarded((M, 2 * N))
    guarded.out = guarded.out[:, ::2]
    _refused(_padded((M, K)), _padded((K, N)), guarded)


@pytest.mark.parametrize("operand", ["a", "b"])
def test_a_non_contiguous_input_is_refused(operand):
    a = _padded((M, 2 * K))[:, ::2] if operand == "a" else _padded((M, K))
    b = _padded((K, 2 * N))[:, ::2] if operand == "b" else _padded((K, N))
    _refused(a, b, Guarded())


@pytest.mark.parametrize("parts, error", [(0, ValueError), (-1, ValueError), (2.0, TypeError)])
def test_a_part_count_that_is_not_a_positive_integer_is_refused(parts, error):
    _refused(_padded((M, K)), _padded((K, N)), Guarded(), parts, error)


# A part of no rows would start a thread for nothing; a product of no rows
# is one part.
@pytest.mark.parametrize("m", [0, 1, M])
def test_more_parts_than_rows_is_refused(m):
    _refused(_padded((m, K)), _padded((K, N)), Guarded((m, N)), max(1, m) + 1)


@pytest.mark.parametrize("a_shape, b_shape, out_shape", [
    ((M - 1, K), (K, N), (M, N)),
    ((M, K), (K, N), (M - 1, N)),
    ((M, K), (K - 1, N), (M, N)),
    ((M, K), (K, N), (M, N - 1)),
    ((M, K), (K, N), (M, N, 1)),
], ids=["out-long-for-a", "out-short-for-a", "b-short-for-k", "out-narrow-for-n",
        "out-not-a-matrix"])
def test_an_operand_of_the_wrong_shape_for_the_call_is_refused(a_shape, b_shape, out_shape):
    _refused(_padded(a_shape), _padded(b_shape), Guarded(out_shape))


def test_a_call_without_four_arguments_is_refused():
    guarded = Guarded()
    with pytest.raises(TypeError, match="takes 4 arguments"):
        product(_padded((M, K)), _padded((K, N)), guarded.out)
    guarded.assert_untouched()
