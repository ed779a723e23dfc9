"""Dense float32 tensors with reproducible arithmetic.

Everything downstream (quantization, training, evaluation) runs on these
values, so the priorities are: single canonical layout (row-major float32),
immutability after construction, and bit-identical results for identical
inputs.

Matrix products never go through BLAS, whose summation order and use of
fused multiply-add vary by build. ``matmul`` fixes the order instead: each
output element starts at +0.0 and adds its float32 products one at a time
in inner-index order, with every multiply and every add rounded to float32
on its own. Within that contract the kernel is picked by operand shape:
small products (the batch-64 training shapes) are formed in bounded
chunks and folded by one reduction per chunk, large ones (evaluation over
thousands of rows) loop over the inner index in the transposed layout so
numpy's inner loop runs along the rows. Every output row is computed on its
own, so a long product is split into row ranges run in parallel, one per
CPU the process may use. All give the same bits.
"""

from __future__ import annotations

import os
import threading
from typing import Sequence

import numpy as np

from .errors import DimensionError, DomainError

# Products with at most this many multiply-adds (k*m*n) take the chunked
# method; the batch-64 training shapes all do.
SMALL_PRODUCT = 1 << 19
# Elements in the chunked method's buffer (512 KiB of float32): the running
# sum plus as many (m, n) product slices as fit.
CHUNK_ELEMENTS = 1 << 17
# Fewest rows per block of the transposed method. numpy runs a broadcast
# multiply whose inner axis is shorter than its buffer (8192 elements over
# three operands) through copies at several times the cost; blocks at
# least this long keep the direct loop, and splitting longer inputs keeps
# a block's sum and product near the per-core L2. A block of more than
# half this many rows is computed padded to this width, with zero tail
# columns, which costs less than the copies.
BLOCK_ROWS = 2731
# Row ranges a long product is split into, at most: the CPUs in the
# process's affinity mask. The bits do not depend on it.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)


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

        Internal fast path, unchecked: non-finite values pass, to be caught at
        each linear's output and SGD update in ``graph``. Callers must not
        retain a writable reference.
        """
        t = object.__new__(cls)
        arr = np.asarray(arr, dtype=np.float32)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)  # keeps 0-d scalars 0-d
        arr.flags.writeable = False
        t._data = arr
        return t

    @classmethod
    def zeros(cls, shape: Sequence[int]) -> "Tensor":
        return cls._wrap(np.zeros(tuple(shape), dtype=np.float32))

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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors, in the fixed summation order.

    ``out[r, j]`` is the float32 sum of the float32 products
    ``a[r, i] * b[i, j]``, added one at a time in increasing ``i`` onto a
    sum that starts at +0.0 (so a row of -0.0 products gives +0.0). Each
    product and each sum is rounded separately: no BLAS, no fused
    multiply-add. The method is chosen by shape, and every method gives
    the same bits:

    * ``k*m*n <= SMALL_PRODUCT`` and ``2 <= m*n <= CHUNK_ELEMENTS/2``
      (the batch-64 training shapes): products formed a k-chunk at a time
      and folded onto the running sum by one reduction per chunk;
    * everything else: a loop over ``k`` in the transposed (n, m) layout,
      in row blocks of at least ``BLOCK_ROWS`` rows, so numpy's inner loop
      runs along the long ``m`` axis. The rows are split into up to
      ``WORKERS`` contiguous ranges of at least ``BLOCK_ROWS`` rows each;
      the first runs in the caller, each other one on a thread started for
      the call.
    """
    if a.rank != 2 or b.rank != 2:
        raise DimensionError(f"matmul requires rank-2 operands, got {a.shape} x {b.shape}")
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise DimensionError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    if k > 0 and 2 <= m * n <= CHUNK_ELEMENTS // 2 and k * m * n <= SMALL_PRODUCT:
        return Tensor._wrap(_sum_in_chunks(a.data, b.data))
    return Tensor._wrap(_sum_transposed(a.data, b.data))


def _sum_in_chunks(ad: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """Slot 0 of ``buf`` holds the running sum and slots 1.. one k-chunk of
    products; ``np.add.reduce`` over axis 0 adds the slots in order, element
    by element. (With a single output element numpy would sum pairwise,
    which is why ``matmul`` requires ``m*n >= 2`` here.)"""
    m, k = ad.shape
    n = bd.shape[1]
    chunks = -(-k // (CHUNK_ELEMENTS // (m * n) - 1))
    size = -(-k // chunks)
    buf = np.empty((size + 1, m, n), dtype=np.float32)
    buf[0] = 0.0
    a_cols = ad.T[:, :, None]
    b_rows = bd[:, None, :]
    for s in range(0, k, size):
        e = min(s + size, k)
        np.multiply(a_cols[s:e], b_rows[s:e], out=buf[1:e - s + 1])
        total = np.add.reduce(buf[:e - s + 1], axis=0)
        buf[0] = total
    return total


def _sum_transposed(ad: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """Row ranges of ``a``, one per worker, each at least BLOCK_ROWS rows
    long. Range 0 runs here, ranges 1.. on threads that run only numpy,
    each into its own rows of ``out``; the first error of the lowest range
    is raised once every thread has finished."""
    m, k = ad.shape
    n = bd.shape[1]
    out = np.empty((m, n), dtype=np.float32)
    if m == 0:
        return out
    parts = max(1, min(WORKERS, m // BLOCK_ROWS))
    bounds = [m * p // parts for p in range(parts + 1)]
    # Work buffers are allocated here: memory a new thread allocates comes
    # from another malloc arena and raises the process's peak RSS.
    works = [np.empty((k + 2 * n) * _block_width(bounds[p + 1] - bounds[p]), dtype=np.float32)
             for p in range(parts)]
    errors: list[Exception | None] = [None] * parts

    def run(p: int) -> None:
        try:
            _sum_rows(ad, bd, out, bounds[p], bounds[p + 1], works[p])
        except Exception as exc:
            errors[p] = exc

    threads = [threading.Thread(target=run, args=(p,)) for p in range(1, parts)]
    for t in threads:
        t.start()
    try:
        run(0)
    finally:
        for t in threads:
            t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return out


def _block_width(rows: int) -> int:
    """Columns of the work buffer for a range of ``rows`` rows: near-equal
    blocks of at least BLOCK_ROWS rows, or one padded block of BLOCK_ROWS
    columns for a range of more than half that."""
    if BLOCK_ROWS // 2 < rows < BLOCK_ROWS:
        return BLOCK_ROWS
    return -(-rows // max(1, rows // BLOCK_ROWS))


def _sum_rows(ad: np.ndarray, bd: np.ndarray, out: np.ndarray, start: int, stop: int,
              work: np.ndarray) -> None:
    """Rows ``start:stop`` of ``out``, a block of ``work``'s width at a time.
    A block's sum is kept transposed, as (n, width), and grows by
    ``b[i, :, None] * a.T[i]`` per step, so each numpy loop runs along the
    block's rows. ``work`` holds the block's ``a.T``, sum and products;
    columns past the block's rows hold zeros and are not copied out."""
    k = ad.shape[1]
    n = bd.shape[1]
    width = work.size // (k + 2 * n)
    a_t = work[:k * width].reshape(k, width)
    acc = work[k * width:(k + n) * width].reshape(n, width)
    prod = work[(k + n) * width:].reshape(n, width)
    for s in range(start, stop, width):
        w = min(width, stop - s)
        np.copyto(a_t[:, :w], ad[s:s + w].T)
        a_t[:, w:] = 0.0
        acc.fill(0.0)
        for i in range(k):
            np.multiply(bd[i, :, None], a_t[i], out=prod)
            acc += prod
        out[s:s + w] = acc[:, :w].T


def transpose(t: Tensor) -> Tensor:
    if t.rank != 2:
        raise DimensionError(f"transpose requires a rank-2 tensor, got {t.shape}")
    return Tensor._wrap(np.ascontiguousarray(t.data.T))


def l2_normalize(t: Tensor) -> Tensor:
    """Scale each row of a rank-2 tensor to unit Euclidean norm."""
    if t.rank != 2:
        raise DimensionError(f"l2_normalize requires a rank-2 tensor, got {t.shape}")
    x = t.data.astype(np.float64)
    norms = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
    if np.any(norms == 0.0):
        raise DomainError("cannot normalize a zero-norm row")
    return Tensor._wrap((x / norms).astype(np.float32))


def relu(t: Tensor) -> Tensor:
    """Elementwise max(x, 0)."""
    return Tensor._wrap(np.maximum(t.data, np.float32(0.0)))
