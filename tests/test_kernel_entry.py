"""The compiled module's Python entries refuse every call they cannot run
inside their operands.

``tensor_core._MATMUL.product(a, b, out, parts)`` reads ``a`` and ``b`` and
writes ``out`` through raw pointers, from the calling thread and from the
``parts - 1`` threads it starts, so each check on its operands and on
``parts`` is all that keeps a bad call from reading or writing memory it
was not given, or from starting a thread for an empty range. Its epilogue
operands (``bias, stages`` and optionally ``bits, scale, zero_point``)
are checked the same way: the bias is read through a raw pointer too.
Every operand here is a view into a larger array: the output sits between
guard elements and starts as NaN, and the inputs sit inside padding, so a
call that got past a check would read only memory the test owns and show
as a changed output element or guard instead of a crash. The
quantization entries (``fake_quant`` and ``derive_params``) and the row
entries (``normalize``, ``row_dots``, ``normalize_backward`` and
``kd_loss``) read and write through raw pointers too, so every one of
their checks is tested: a refused call leaves every output as it was. Every entry in the module's method table
has a caller in the package.
"""

import os
import re
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


def _epilogue_call():
    """Valid ``product`` arguments with a fake-quantizing epilogue, but for
    the output, which a test passes."""
    return [_padded((M, K)), _padded((K, N)), None, 1, _padded((N,)), True, 8, 0.5, 3]


# (argument, what replaces it)
BAD_EPILOGUE_ARGUMENTS = [
    (4, lambda a: a.astype(np.float64)),
    (4, lambda a: a.astype(np.int32)),
    (4, lambda a: a[:-1].copy()),
    (4, lambda a: np.ones(N + 1, np.float32)),
    (4, lambda a: a[None, :].copy()),
    (4, lambda a: np.ones(2 * N, np.float32)[::2]),
    (4, lambda a: None),
    (6, lambda a: 0),
    (6, lambda a: 33),
    (6, lambda a: 8.0),
    (7, lambda a: "0.5"),
    (7, lambda a: np.ones(M, np.float32)),
    (8, lambda a: None),
    (8, lambda a: [3]),
]


@pytest.mark.parametrize("index, replace", BAD_EPILOGUE_ARGUMENTS,
                         ids=[f"{i}-{n}" for n, (i, _) in enumerate(BAD_EPILOGUE_ARGUMENTS)])
def test_an_epilogue_operand_of_the_wrong_kind_is_refused(index, replace):
    args = _epilogue_call()
    args[2] = Guarded().out.copy()
    assert product(*args) is False  # the base call is valid
    guarded = Guarded()
    args[2] = guarded.out
    args[index] = replace(args[index])
    with pytest.raises((ValueError, TypeError, BufferError)):
        product(*args)
    guarded.assert_untouched()


@pytest.mark.parametrize("count", [5, 7, 8, 10])
def test_an_epilogue_call_with_another_argument_count_is_refused(count):
    guarded = Guarded()
    args = _epilogue_call() + [0]
    args[2] = guarded.out
    with pytest.raises(TypeError, match="takes 4 arguments, or 6 or 9 with an epilogue"):
        product(*args[:count])
    guarded.assert_untouched()


@pytest.mark.parametrize("parts", [1, 2, 3, M])
def test_an_epilogue_call_writes_its_output_and_nothing_else(parts):
    rng = np.random.default_rng(10 + parts)
    a = rng.standard_normal((M, K)).astype(np.float32)
    b = rng.standard_normal((K, N)).astype(np.float32)
    bias = rng.standard_normal(N).astype(np.float32)
    guarded = Guarded()
    assert product(a, b, guarded.out, parts, bias, True) is False
    want = np.zeros((M, N), dtype=np.float32)
    for i in range(K):
        want = want + a[:, i:i + 1] * b[i:i + 1, :]
    want = np.maximum(want + bias, np.float32(0.0))
    assert np.array_equal(guarded.out.view(np.uint32), want.view(np.uint32))
    guarded.out[:] = np.nan
    guarded.assert_untouched()


# The epilogue's stage set: 1 runs the relu, 2 the row normalization.
@pytest.mark.parametrize("stages, error", [(-1, ValueError), (4, ValueError), (2.0, TypeError),
                                           (None, TypeError), ("2", TypeError)])
@pytest.mark.parametrize("count", [6, 9])
def test_an_epilogue_stage_set_outside_the_stages_is_refused(stages, error, count):
    args = _epilogue_call()[:count]
    guarded = Guarded()
    args[2] = guarded.out
    args[5] = stages
    with pytest.raises(error):
        product(*args)
    guarded.assert_untouched()


@pytest.mark.parametrize("parts", [1, 2, 3, M])
def test_a_normalizing_epilogue_call_writes_its_output_and_nothing_else(parts):
    rng = np.random.default_rng(20 + parts)
    a = rng.standard_normal((M, K)).astype(np.float32)
    b = rng.standard_normal((K, N)).astype(np.float32)
    bias = rng.standard_normal(N).astype(np.float32)
    guarded = Guarded()
    assert product(a, b, guarded.out, parts, bias, 2) is False
    want = np.zeros((M, N), dtype=np.float32)
    for i in range(K):
        want = want + a[:, i:i + 1] * b[i:i + 1, :]
    want = (want + bias).astype(np.float64)
    want = (want / np.sqrt(np.sum(want * want, axis=1, keepdims=True))).astype(np.float32)
    assert np.array_equal(guarded.out.view(np.uint32), want.view(np.uint32))
    guarded.out[:] = np.nan
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
        "fake_quant": [w, nan(ROWS, COLS), 8, 1.0, 0],
        "derive_params": [w, 8, nan(ROWS, COLS), nan(ROWS), zero_points, nan(ROWS), nan(ROWS)],
    }


def _read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


# case number: (entry, argument, what replaces it). A case keeps its number,
# and so its test id, when other cases are removed.
BAD_QUANT_ARGUMENTS = {
    0: ("fake_quant", 0, lambda a: a.astype(np.float64)),
    1: ("fake_quant", 0, lambda a: np.ones((ROWS, 2 * COLS), np.float32)[:, ::2]),
    2: ("fake_quant", 1, _read_only),
    3: ("fake_quant", 1, lambda a: a[:, :-1].copy()),
    4: ("fake_quant", 2, lambda a: 0),
    5: ("fake_quant", 2, lambda a: 33),
    6: ("fake_quant", 2, lambda a: 8.0),
    # A scale and a zero-point per row: the per-row form is derive_params's.
    7: ("fake_quant", 3, lambda a: np.ones(ROWS, np.float32)),
    8: ("fake_quant", 3, lambda a: "1.0"),
    9: ("fake_quant", 4, lambda a: np.zeros(ROWS, np.int64)),
    10: ("fake_quant", 4, lambda a: None),
    15: ("derive_params", 0, lambda a: np.ones((ROWS, 0), np.float32)),
    16: ("derive_params", 2, lambda a: a[:-1].copy()),
    17: ("derive_params", 4, lambda a: a.astype(np.int32)),
    18: ("derive_params", 5, lambda a: a[:-1].copy()),
    19: ("derive_params", 6, _read_only),
}


@pytest.mark.parametrize("entry, index, replace", list(BAD_QUANT_ARGUMENTS.values()),
                         ids=[f"{e}-{i}-{n}" for n, (e, i, _) in BAD_QUANT_ARGUMENTS.items()])
def test_a_quantization_entry_refuses_a_bad_argument(entry, index, replace):
    args = _quant_calls()[entry]
    getattr(tensor_core._MATMUL, entry)(*[a.copy() if isinstance(a, np.ndarray) else a
                                          for a in args])  # the base call is valid
    kept = [(a, a.copy()) for i, a in enumerate(args) if isinstance(a, np.ndarray) and i != index]
    args[index] = replace(args[index])
    with pytest.raises((ValueError, TypeError, BufferError)):
        getattr(tensor_core._MATMUL, entry)(*args)
    for array, before in kept:
        assert np.array_equal(array, before, equal_nan=True)


@pytest.mark.parametrize("entry", ["fake_quant", "derive_params"])
def test_a_quantization_entry_refuses_a_call_with_another_argument_count(entry):
    args = _quant_calls()[entry]
    with pytest.raises(TypeError, match=f"takes {len(args)} arguments"):
        getattr(tensor_core._MATMUL, entry)(*args[:-1])


# -- the row entries ----------------------------------------------------------


def _row_calls() -> dict:
    """Valid arguments of each row entry; outputs start as NaN."""
    x = np.ones((ROWS, COLS), dtype=np.float32)
    return {
        "normalize": [x, np.full((ROWS, COLS), np.nan, dtype=np.float32)],
        "row_dots": [x, x.copy(), np.full(ROWS, np.nan)],
        "normalize_backward": [x, x.copy(), np.full((ROWS, COLS), np.nan, dtype=np.float32)],
        "kd_loss": [x, x.copy(), np.full(ROWS, np.nan),
                    np.full((ROWS, COLS), np.nan, dtype=np.float32)],
    }


# (entry, argument, what replaces it)
BAD_ROW_ARGUMENTS = [
    ("normalize", 0, lambda a: a.astype(np.float64)),
    ("normalize", 0, lambda a: a.ravel().copy()),
    ("normalize", 0, lambda a: np.ones((ROWS, 2 * COLS), np.float32)[:, ::2]),
    ("normalize", 1, _read_only),
    ("normalize", 1, lambda a: a[:, :-1].copy()),
    ("normalize", 1, lambda a: a[:-1].copy()),
    ("normalize", 1, lambda a: a.astype(np.float64)),
    ("row_dots", 0, lambda a: a.astype(np.int32)),
    ("row_dots", 0, lambda a: np.ones((ROWS, 2 * COLS), np.float32)[:, ::2]),
    ("row_dots", 1, lambda a: a[:-1].copy()),
    ("row_dots", 1, lambda a: a[:, :-1].copy()),
    ("row_dots", 1, lambda a: a.ravel().copy()),
    ("row_dots", 2, lambda a: a.astype(np.float32)),
    ("row_dots", 2, lambda a: a[:-1].copy()),
    ("row_dots", 2, lambda a: a[:, None].copy()),
    ("row_dots", 2, lambda a: np.full(2 * ROWS, np.nan)[::2]),
    ("row_dots", 2, _read_only),
    ("normalize_backward", 0, lambda a: a.astype(np.float64)),
    ("normalize_backward", 0, lambda a: np.ones((ROWS, 2 * COLS), np.float32)[:, ::2]),
    ("normalize_backward", 1, lambda a: a[:1].copy()),
    ("normalize_backward", 1, lambda a: a[:, :-1].copy()),
    ("normalize_backward", 1, lambda a: a.ravel().copy()),
    ("normalize_backward", 2, _read_only),
    ("normalize_backward", 2, lambda a: a[:-1].copy()),
    ("normalize_backward", 2, lambda a: a.astype(np.float64)),
    ("kd_loss", 0, lambda a: a.astype(np.float64)),
    ("kd_loss", 0, lambda a: np.ones((ROWS, 2 * COLS), np.float32)[:, ::2]),
    ("kd_loss", 1, lambda a: a[:-1].copy()),
    ("kd_loss", 1, lambda a: a[:, :-1].copy()),
    ("kd_loss", 1, lambda a: a.ravel().copy()),
    ("kd_loss", 2, lambda a: a.astype(np.float32)),
    ("kd_loss", 2, lambda a: a[:-1].copy()),
    ("kd_loss", 2, lambda a: a[:, None].copy()),
    ("kd_loss", 2, lambda a: np.full(2 * ROWS, np.nan)[::2]),
    ("kd_loss", 2, _read_only),
    ("kd_loss", 3, lambda a: a[:, :-1].copy()),
    ("kd_loss", 3, lambda a: a.astype(np.float64)),
    ("kd_loss", 3, lambda a: np.full((ROWS, 2 * COLS), np.nan, np.float32)[:, ::2]),
    ("kd_loss", 3, _read_only),
    ("kd_loss", 3, lambda a: 0),
]


@pytest.mark.parametrize("entry, index, replace", BAD_ROW_ARGUMENTS,
                         ids=[f"{e}-{i}-{n}" for n, (e, i, _) in enumerate(BAD_ROW_ARGUMENTS)])
def test_a_row_entry_refuses_a_bad_argument(entry, index, replace):
    args = _row_calls()[entry]
    getattr(tensor_core._MATMUL, entry)(*[a.copy() for a in args])  # the base call is valid
    kept = [(a, a.copy()) for i, a in enumerate(args) if i != index]
    args[index] = replace(args[index])
    with pytest.raises((ValueError, TypeError, BufferError)):
        getattr(tensor_core._MATMUL, entry)(*args)
    for array, before in kept:
        assert np.array_equal(array, before, equal_nan=True)


@pytest.mark.parametrize("entry", ["normalize", "row_dots", "normalize_backward", "kd_loss"])
def test_a_row_entry_refuses_a_call_with_another_argument_count(entry):
    args = _row_calls()[entry]
    for count in (len(args) - 1, len(args) + 1):
        with pytest.raises(TypeError, match=f"takes {len(args)} arguments"):
            getattr(tensor_core._MATMUL, entry)(*(args + args)[:count])
    assert np.isnan(args[-1]).all()


def test_kd_loss_refuses_a_batch_of_no_rows():
    # Its mean would divide by zero rows.
    args = [np.ones((0, COLS), np.float32), np.ones((0, COLS), np.float32), np.empty(0),
            np.empty((0, COLS), np.float32)]
    for grad in (args[3], None):
        with pytest.raises(ValueError, match="^fq has no rows$"):
            tensor_core._MATMUL.kd_loss(*args[:3], grad)


def test_kd_loss_without_a_gradient_writes_only_the_terms():
    args = _row_calls()["kd_loss"]
    assert tensor_core._MATMUL.kd_loss(*args[:3], None) == 0.0
    assert (args[2] == 0.0).all() and np.isnan(args[3]).all()


# -- the method table ---------------------------------------------------------


def test_every_entry_of_the_method_table_has_a_caller_in_the_package():
    # An entry that no package code calls would live on only in these tests.
    package = Path(tensor_core.__file__).parent
    source = (package / "_matmul.c").read_text()
    table = re.search(r"PyMethodDef methods\[\] = \{(.*?)\n\};", source, re.S).group(1)
    entries = re.findall(r'^\s*\{"(\w+)",', table, re.M)
    assert entries and all(hasattr(tensor_core._MATMUL, name) for name in entries)
    called = set()
    for path in package.glob("*.py"):
        called.update(re.findall(r"\b_MATMUL\.(\w+)", path.read_text()))
    assert [name for name in entries if name not in called] == []
