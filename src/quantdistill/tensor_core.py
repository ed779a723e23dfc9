"""Dense float32 tensors with reproducible arithmetic.

Everything downstream (quantization, training, evaluation) runs on these
values, so the priorities are: single canonical layout (row-major float32),
immutability after construction, and bit-identical results for identical
inputs.

Matrix products never go through BLAS, whose summation order and use of
fused multiply-add vary by build. ``matmul`` fixes the order instead: each
output element starts at +0.0 and adds its float32 products one at a time
in inner-index order, with every multiply and every add rounded to float32
on its own. One C kernel, ``_matmul.c`` beside this module, does that for
every shape. It is compiled as a CPython extension module on the first
import of each source, platform and interpreter ABI, with ``cc`` and the
interpreter's C headers (both are requirements) and no flag that could
fuse, reorder or flush an operation, cached under ``__pycache__`` and
imported from there. The module's ``product`` takes numpy arrays through
the buffer protocol, refuses any operand that is not a C-contiguous
float32 matrix of the product's shape, and runs the kernel without the
GIL. The object holds a register-blocked variant of
the kernel per vector width (16-byte vectors everywhere, and AVX2 and
AVX-512F where GCC compiles for x86); the widest one this CPU runs is
picked once, when the module is initialised, so the object is built
without ``-march`` and serves every x86-64 host. Every variant gives the
same bits. Every output row is computed on its own, so ``product`` splits
a long product into row ranges and runs them in parallel, one per CPU the
process may use, on threads it starts itself; the bits do not depend on
the split. A forward linear's :class:`Epilogue` runs in the same threads,
on each block of rows as soon as its sums are done; for the last linear of
an inference forward it ends with the rows' L2 normalization.

The same module holds the quantizer's arithmetic, in the same variants:
``fake_quant`` (``graph.fake_quant``'s float64 pass under one scale and
zero-point) and ``derive_params`` (each row's range, its parameters under
the scale and zero-point law, whose one home it is, and, in the same
call, the row fake-quantized; ``quantizer.params_from_range`` passes it
the rows ``[lo, hi]``). Their rounding is
``nearbyint``, which like numpy's ``rint`` follows the floating-point
rounding mode, so their bits, like numpy's, assume the default
round-to-nearest mode. It also holds the float64 row arithmetic of the
embeddings: ``normalize`` (:func:`l2_normalize`, and the epilogue's last
stage), ``row_dots`` (the verify request's pair cosines),
``normalize_backward`` (``graph.l2_normalize_backward``) and ``kd_loss``
(``distiller.kd_loss`` and ``kd_loss_grad``), each summing a row, and
the loss its rows, in the order of numpy's ``np.add.reduce``, so their
bits equal the numpy expressions they replaced.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
import sysconfig
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import DimensionError, DomainError

if TYPE_CHECKING:
    from .quantizer import QuantParams

# Fewest rows per range of a product split across threads, so a product
# is split from 3000 rows. A second range must save more than its thread's
# start costs: about 10 us since the kernel starts it, about 0.1 ms when
# the table below was measured on Python threads (the value is kept until
# it is measured again). Medians of 200 interleaved calls on 2 vCPUs,
# k = 64, one range -> two ranges, in us:
#                      2000 rows    2500 rows    3000 rows    4000 rows
#   AVX-512, n = 64   339 -> 394   381 -> 488   502 -> 504   657 -> 588
#   AVX-512, n = 32   195 -> 322   237 -> 346   278 -> 371   336 -> 421
#   AVX2,    n = 64   384 -> 488   622 -> 586   740 -> 666   999 -> 811
#   AVX2,    n = 32   274 -> 389   331 -> 421   399 -> 466   495 -> 515
#   base,    n = 64  1186 -> 970  1486 -> 1149 1745 -> 1317 2348 -> 1754
# 3000 rows is where the 64-wide products of the wide variants broke even;
# their 32-wide products still lost at 4000 rows, which a row count cannot
# tell apart. Every batch-64 training product (at most 200 rows) is one
# range on the calling thread.
RANGE_ROWS = 1500
# Row ranges a long product is split into, at most: the CPUs in the
# process's affinity mask. The bits do not depend on it.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_matmul.c")
# No -ffast-math, -Ofast or -march: the object stays portable (its AVX2 and
# AVX-512F variants are compiled by target pragmas and picked at run time),
# and nothing may fuse a multiply into an add (-ffp-contract=off; GCC fuses
# by default where the target has FMA) or flush a subnormal to zero.
_COMPILE = ("cc", "-O3", "-shared", "-fPIC", "-ffp-contract=off")


def _build(cache: str, name: str, include: str) -> tuple[str, bool]:
    """Compile ``_SOURCE`` against the headers in ``include`` to
    ``cache/name``: into a temporary file of the same directory first, then
    renamed into place, so interpreters that build at once each load a
    whole object. If ``cache`` cannot be written, build into a directory
    private to this process instead. Returns the object's path and whether
    it is private."""
    import subprocess
    import tempfile

    private = False
    try:
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f".{name}.", dir=cache)
    except OSError:
        cache, private = tempfile.mkdtemp(prefix="quantdistill-"), True
        fd, tmp = tempfile.mkstemp(prefix=f".{name}.", dir=cache)
    os.close(fd)
    command = [*_COMPILE, "-o", tmp, f"-I{include}", _SOURCE]
    try:
        done = subprocess.run(command, capture_output=True, text=True)
        error = done.stderr if done.returncode else None
    except OSError as exc:
        error = str(exc)
    if error is not None:
        os.unlink(tmp)
        if private:
            os.rmdir(cache)
        # A compiler's last line may only say "compilation terminated.".
        lines = error.strip().splitlines() or ["no message"]
        reason = next((line for line in reversed(lines) if "error" in line), lines[-1])
        raise ImportError(f"cannot build the matmul kernel: `{' '.join(command)}` failed: {reason} "
                          "(quantdistill needs a C compiler on PATH as `cc` and the Python "
                          "headers; see README, Install)") from None
    path = os.path.join(cache, name)
    os.replace(tmp, path)
    return path, private


def _object_name(source: bytes, include: str, ext_suffix: str) -> str:
    """The cached object's file name: a SHA-256 of the source, the compile
    command, the headers' directory, the platform and the interpreter's
    ABI (its extension-module suffix), so interpreters that share a
    checkout never load each other's object."""
    key = hashlib.sha256(b"\0".join(
        [source, " ".join(_COMPILE).encode(), include.encode(), sys.platform.encode(),
         platform.machine().encode(), ext_suffix.encode()])).hexdigest()
    return f"_matmul-{key}.so"


def _load_module():
    """The extension module built for this source, compile command,
    platform and interpreter, building it on a cache miss. A hit starts no
    process. A private object is unlinked once loaded."""
    from importlib.machinery import ExtensionFileLoader
    from importlib.util import module_from_spec, spec_from_file_location

    with open(_SOURCE, "rb") as fh:
        source = fh.read()
    include = sysconfig.get_paths()["include"]
    name = _object_name(source, include, sysconfig.get_config_var("EXT_SUFFIX"))
    path = os.path.join(os.path.dirname(_SOURCE), "__pycache__", name)
    private = False
    if not os.path.exists(path):
        path, private = _build(os.path.dirname(path), name, include)
    # The module is named for its PyInit__matmul, whatever the file is called.
    loader = ExtensionFileLoader(f"{__package__}._matmul", path)
    module = module_from_spec(spec_from_file_location(loader.name, path, loader=loader))
    loader.exec_module(module)
    if private:
        os.unlink(path)
        os.rmdir(os.path.dirname(path))
    return module


# The compiled module; ``_MATMUL.variant`` names the variant it runs.
_MATMUL = _load_module()


class Tensor:
    """Immutable dense array of 32-bit reals, stored flat in row-major order."""

    __slots__ = ("_data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float32, order="C", copy=True)
        if not np.all(np.isfinite(arr)):
            raise DomainError("tensor contains non-finite elements")
        arr.flags.writeable = False
        self._data = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        """Take ownership of a freshly allocated float32 array without copying.

        Internal fast path, unchecked: non-finite values pass, to be caught by
        each linear's epilogue (see :class:`Epilogue`) and SGD update in
        ``graph``. Callers must not retain a writable reference.
        """
        t = object.__new__(cls)
        arr = np.asarray(arr, dtype=np.float32)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)  # keeps 0-d scalars 0-d
        arr.flags.writeable = False
        t._data = arr
        return t

    @property
    def data(self) -> np.ndarray:
        """Read-only numpy view of the underlying storage."""
        return self._data

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def rank(self) -> int:
        return self._data.ndim

    @property
    def size(self) -> int:
        return int(self._data.size)

    def tolist(self):
        return self._data.tolist()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class Epilogue(NamedTuple):
    """A forward linear's output stage, run by the kernel on output rows
    still in cache: add ``bias``, check that the result is finite, apply
    :func:`relu` if ``relu``, then ``graph.fake_quant`` under per-tensor
    ``params`` unless they are None, then :func:`l2_normalize` if
    ``normalize``. The bits equal those separate passes'. A taped forward
    passes only the bias and the relu."""

    bias: Tensor
    relu: bool
    params: QuantParams | None
    normalize: bool


def matmul(a: Tensor, b: Tensor, epilogue: Epilogue | None = None) -> Tensor:
    """Matrix product of two rank-2 tensors, in the fixed summation order,
    followed by ``epilogue`` if one is given.

    ``out[r, j]`` is the float32 sum of the float32 products
    ``a[r, i] * b[i, j]``, added one at a time in increasing ``i`` onto a
    sum that starts at +0.0 (so a row of -0.0 products gives +0.0). Each
    product and each sum is rounded separately: no BLAS, no fused
    multiply-add. The compiled kernel computes every shape. Without an
    epilogue it warns of no overflowing product or sum; with one, a sum
    plus its bias that is not finite raises ``DomainError``, and, if every
    one is finite, a row that the epilogue normalizes with zero norm
    raises ``ZeroDivisionError``. The rows are
    split into up to ``WORKERS`` contiguous ranges of at least
    ``RANGE_ROWS`` rows each; the kernel runs the first range on the
    calling thread and each other one on a thread it starts for the call,
    each range with its own epilogue.
    """
    if a.rank != 2 or b.rank != 2:
        raise DimensionError(f"matmul requires rank-2 operands, got {a.shape} x {b.shape}")
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise DimensionError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    out = np.empty((m, n), dtype=np.float32)
    parts = max(1, min(WORKERS, m // RANGE_ROWS))
    if epilogue is None:
        _MATMUL.product(a.data, b.data, out, parts)
    else:
        p = epilogue.params
        quant = () if p is None else (p.bit_width, p.scale, p.zero_point)
        stages = epilogue.relu | epilogue.normalize << 1  # the kernel's stage flags
        if _MATMUL.product(a.data, b.data, out, parts, epilogue.bias.data, stages, *quant):
            raise DomainError("output is not finite")
    return Tensor._wrap(out)


def transpose(t: Tensor) -> Tensor:
    if t.rank != 2:
        raise DimensionError(f"transpose requires a rank-2 tensor, got {t.shape}")
    return Tensor._wrap(np.ascontiguousarray(t.data.T))


def l2_normalize(t: Tensor) -> Tensor:
    """Scale each row of a rank-2 tensor to unit Euclidean norm: the bits of
    ``x / np.sqrt(np.sum(x * x, axis=1, keepdims=True))`` on the float64
    ``x``, rounded to float32, in one compiled call. A zero-norm row raises
    ``DomainError``."""
    if t.rank != 2:
        raise DimensionError(f"l2_normalize requires a rank-2 tensor, got {t.shape}")
    out = np.empty(t.shape, dtype=np.float32)
    try:
        _MATMUL.normalize(t.data, out)
    except ZeroDivisionError as exc:
        raise DomainError(str(exc)) from None
    return Tensor._wrap(out)


def relu(t: Tensor) -> Tensor:
    """Elementwise max(x, 0). No pipeline code calls it (the epilogue runs
    the relu); it stays while the benchmark's metrics read its span."""
    return Tensor._wrap(np.maximum(t.data, np.float32(0.0)))
