"""The compiled module's Python entries refuse every call they cannot run
inside their operands.

``tensor_core._MATMUL.product(a, b, out, parts)`` reads ``a`` and ``b`` and
writes ``out`` through raw pointers, from the calling thread and from the
``parts - 1`` threads it starts, so each check on its operands and on
``parts`` is all that keeps a bad call from reading or writing memory it
was not given, or from starting a thread for an empty range.
Every operand here is a view into a larger array: the output sits between
guard elements and starts as NaN, and the inputs sit inside padding, so a
call that got past a check would read only memory the test owns and show
as a changed output element or guard instead of a crash. The
quantization entries (``fake_quant``, ``params_from_range`` and
``derive_params``) read and write through raw pointers too, so every one
of their checks is tested: a refused call leaves every output as it was.
"""

import os
import subprocess
import sys
from pathlib import Path

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


# Run in a child: allocates the operands and the k-ordered oracle, then
# lowers the child's own address-space limit to 4 MiB above what it maps,
# too little for a thread stack, so that pthread_create fails. A Python
# thread start under the same limit shows whether it does. Prints one of
# "cannot set the limit", "a thread still starts", or whether the
# two-range product equals the oracle.
NO_THREAD = """
import resource, sys, threading
import numpy as np
from quantdistill import tensor_core
rng = np.random.default_rng(0)
a = rng.standard_normal((9, 40)).astype(np.float32)
b = rng.standard_normal((40, 7)).astype(np.float32)
want = np.zeros((9, 7), dtype=np.float32)
for i in range(40):
    want = want + a[:, i:i + 1] * b[i:i + 1, :]
out = np.full((9, 7), np.nan, dtype=np.float32)
try:
    with open("/proc/self/statm") as fh:
        mapped = int(fh.read().split()[0]) * resource.getpagesize()
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (mapped + (4 << 20), hard))
except (OSError, ValueError):
    print("cannot set the limit")
    sys.exit(0)
try:
    threading.Thread(target=int).start()
    print("a thread still starts")
    sys.exit(0)
except RuntimeError:
    pass
tensor_core._MATMUL.product(a, b, out, 2)
resource.setrlimit(resource.RLIMIT_AS, (hard, hard))
print("ok" if np.array_equal(out.view(np.uint32), want.view(np.uint32)) else "differs")
"""


def test_a_range_whose_thread_cannot_start_runs_on_the_calling_thread():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", NO_THREAD], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    result = done.stdout.strip()
    if result in ("cannot set the limit", "a thread still starts"):
        pytest.skip(result)
    assert result == "ok"


# -- the quantization entries ------------------------------------------------

ROWS, COLS = 4, 6


def _quant_calls() -> dict:
    """Valid arguments of each quantization entry; outputs start as NaN or -7."""
    def nan(*shape):
        return np.full(shape, np.nan, dtype=np.float32)

    w = np.ones((ROWS, COLS), dtype=np.float32)
    zero_points = np.full(ROWS, -7, dtype=np.int64)
    return {
        "fake_quant": [w, nan(ROWS, COLS), 8, np.ones(ROWS, np.float32),
                       np.zeros(ROWS, np.int64)],
        "params_from_range": [np.zeros(ROWS, np.float32), np.ones(ROWS, np.float32), 8,
                              nan(ROWS), zero_points],
        "derive_params": [w, 8, nan(ROWS, COLS), nan(ROWS), zero_points.copy(), nan(ROWS),
                          nan(ROWS)],
    }


def _read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


# (entry, argument, what replaces it)
BAD_QUANT_ARGUMENTS = [
    ("fake_quant", 0, lambda a: a.astype(np.float64)),
    ("fake_quant", 0, lambda a: np.ones((ROWS, 2 * COLS), np.float32)[:, ::2]),
    ("fake_quant", 1, _read_only),
    ("fake_quant", 1, lambda a: a[:, :-1].copy()),
    ("fake_quant", 2, lambda a: 0),
    ("fake_quant", 2, lambda a: 33),
    ("fake_quant", 2, lambda a: 8.0),
    ("fake_quant", 3, lambda a: a[:-1].copy()),
    ("fake_quant", 3, lambda a: "1.0"),
    ("fake_quant", 4, lambda a: a.astype(np.int32)),
    ("fake_quant", 4, lambda a: a.astype(np.float64)),
    ("params_from_range", 0, lambda a: a[None, :].copy()),
    ("params_from_range", 1, lambda a: a[:-1].copy()),
    ("params_from_range", 3, _read_only),
    ("params_from_range", 4, lambda a: np.full(ROWS + 1, -7, np.int64)),
    ("derive_params", 0, lambda a: np.ones((ROWS, 0), np.float32)),
    ("derive_params", 2, lambda a: a[:-1].copy()),
    ("derive_params", 4, lambda a: a.astype(np.int32)),
    ("derive_params", 5, lambda a: a[:-1].copy()),
    ("derive_params", 6, _read_only),
]


@pytest.mark.parametrize("entry, index, replace", BAD_QUANT_ARGUMENTS,
                         ids=[f"{e}-{i}-{n}" for n, (e, i, _) in enumerate(BAD_QUANT_ARGUMENTS)])
def test_a_quantization_entry_refuses_a_bad_argument(entry, index, replace):
    args = _quant_calls()[entry]
    kept = [(a, a.copy()) for i, a in enumerate(args) if isinstance(a, np.ndarray) and i != index]
    args[index] = replace(args[index])
    with pytest.raises((ValueError, TypeError, BufferError)):
        getattr(tensor_core._MATMUL, entry)(*args)
    for array, before in kept:
        assert np.array_equal(array, before, equal_nan=True)


@pytest.mark.parametrize("entry", ["fake_quant", "params_from_range", "derive_params"])
def test_a_quantization_entry_refuses_a_call_with_another_argument_count(entry):
    args = _quant_calls()[entry]
    with pytest.raises(TypeError, match=f"takes {len(args)} arguments"):
        getattr(tensor_core._MATMUL, entry)(*args[:-1])
