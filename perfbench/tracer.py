"""In-memory span tracer installed around the package's layer functions.

Wrappers are installed from outside the package: every public function of
each layer module is replaced, in every ``quantdistill`` module that holds
a reference to it, by a wrapper that records a span (name, parent, start,
end, scope, round). Names a module imported from a lower layer (the
``matmul`` that ``graph`` imports from ``tensor_core``) are therefore
traced where they are used. ``uninstall`` puts every original back, so a
process can alternate traced and untraced rounds.

Spans stay in memory until the run ends; self time is computed afterwards
as a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import inspect
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("tensor_core", "quantizer", "graph", "distiller", "synth",
          "model_store", "bench_eval", "pretrain")

# Per-channel helpers that ``derive_params`` calls once per output row
# (about 160 times per distill step). Tracing them would multiply the span
# count several times over; their cost shows as ``derive_params`` self time.
UNTRACED = {"quantizer.params_from_range", "quantizer.compute_scale",
            "quantizer.compute_zero_point"}

# Span record layout: (name, parent index, start ns, end ns, scope, round).
NAME, PARENT, START, END, SCOPE, ROUND = range(6)


class Tracer:
    """Span and counter store plus the wrappers that feed it.

    ``scope`` and ``round`` are set by the benchmark loop and stamped on
    every span and counter, so a span can be attributed to set-up, to one
    operation, to the rest of a round, or to the benchmark's own checks.
    """

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.counters: dict[tuple[str, int, str], int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.scope = "setup"
        self.round = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        self.counters[(self.scope, self.round, name)] += value

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, perf_counter_ns(), 0, self.scope, self.round])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack corrupted: closed {idx}, top was {popped}")

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _note_failure(self, layer: str, exc: BaseException) -> None:
        # Count an exception once, in the innermost layer it passed through.
        if not getattr(exc, "_perfbench_counted", False):
            self.failed[layer] += 1
            try:
                exc._perfbench_counted = True
            except AttributeError:
                pass

    # -- installation ----------------------------------------------------

    def _wrap(self, layer: str, fname: str, fn, hook=None):
        name = f"{layer}.{fname}"
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._note_failure(layer, exc)
                raise
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, args, kwargs, result, idx)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _wrap_stream(self, fn):
        """``batch_stream`` is a generator: time each ``next`` as batch wait."""
        tracer = self

        def traced_stream(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx = tracer._open("synth.batch_wait")
                try:
                    batch = next(inner)
                except Exception as exc:
                    tracer._note_failure("synth", exc)
                    raise
                finally:
                    tracer._close(idx)
                tracer.count("synth.rows", batch.size)
                yield batch

        traced_stream.__wrapped__ = fn
        return traced_stream

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = self.package.__name__
        replacements = {}
        for layer in LAYERS:
            mod = sys.modules[f"{pkg}.{layer}"]
            for fname, fn in vars(mod).items():
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or f"{layer}.{fname}" in UNTRACED):
                    continue
                if f"{layer}.{fname}" == "synth.batch_stream":
                    replacements[fn] = self._wrap_stream(fn)
                else:
                    replacements[fn] = self._wrap(layer, fname, fn, HOOKS.get(f"{layer}.{fname}"))
        modules = [m for n, m in sys.modules.items() if n == pkg or n.startswith(pkg + ".")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replacements:
                    self._set(mod, attr, replacements[value])

        quantizer = sys.modules[f"{pkg}.quantizer"]
        observer = quantizer.RangeObserver
        for meth in ("update", "freeze"):
            self._set(observer, meth,
                      self._wrap("quantizer", f"RangeObserver.{meth}", getattr(observer, meth)))
        params_cls = quantizer.QuantParams
        post_init = params_cls.__post_init__

        def counted_post_init(this):
            self.count("quantizer.qparams_built")
            post_init(this)

        self._set(params_cls, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def aggregate(self) -> dict[tuple[str, int, str], list[int]]:
        """(scope, round, name) -> [calls, inclusive ns, self ns].

        Self time is a span's duration minus the part of it that its direct
        children cover; spans nest strictly, so the children never overlap.
        """
        if self._stack:
            raise RuntimeError("aggregate called with spans still open")
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        out: dict[tuple[str, int, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        for span, covered in zip(self.spans, child_ns):
            dur = span[END] - span[START]
            acc = out[(span[SCOPE], span[ROUND], span[NAME])]
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - covered
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,name,parent,start_ns,end_ns,scope,round\n")
            for i, (name, parent, start, end, scope, rnd) in enumerate(self.spans):
                fh.write(f"{i},{name},{parent},{start},{end},{scope},{rnd}\n")


class MatmulClock:
    """Clock reads at the entry and exit of every ``tensor_core.matmul`` call.

    Untraced runs install it so that the benchmark can split each timed
    part of a round into pieces at matmul boundaries (see metrics.floors).
    It records no span: a call costs two clock reads and two list appends,
    under a microsecond, against 0.1 ms or more for the matmul itself.
    """

    def __init__(self, package):
        self.package = package
        self.marks: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        pkg = self.package.__name__
        matmul = sys.modules[f"{pkg}.tensor_core"].matmul
        marks = self.marks

        def clocked(*args, **kwargs):
            marks.append(perf_counter_ns())
            try:
                return matmul(*args, **kwargs)
            finally:
                marks.append(perf_counter_ns())

        clocked.__wrapped__ = matmul
        for name, mod in list(sys.modules.items()):
            if name == pkg or name.startswith(pkg + "."):
                for attr, value in list(vars(mod).items()):
                    if value is matmul:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, clocked)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# -- per-function hooks: counts taken at the call boundary --------------------


def _matmul(tr, args, kwargs, out, idx):
    a, b = args[0], args[1]
    tr.count("tensor_core.matmul.flop", 2 * a.shape[0] * a.shape[1] * b.shape[1])


def _transpose(tr, args, kwargs, out, idx):
    tr.count("tensor_core.transpose.bytes", out.data.nbytes)


def _fake_quant(tr, args, kwargs, out, idx):
    tr.count("quantizer.fake_quant.elements", out.size)


def _forward_embed(tr, args, kwargs, out, idx):
    net = args[0]
    quantized = args[2] if len(args) > 2 else kwargs["quantized"]
    tr.spans[idx][NAME] = "graph.forward.student" if quantized else "graph.forward.teacher"
    tape = out[1]
    bits = net.quant_bits
    for rec in tape.records:
        if rec.mask is None:
            continue
        kind = "weight" if rec.kind == "linear" else "act"
        tr.count(f"graph.ste.{kind}_pass.w{bits}", int(rec.mask.sum()))
        tr.count(f"graph.ste.{kind}_elements.w{bits}", rec.mask.size)


def _backward_embed(tr, args, kwargs, out, idx):
    tape = args[1]
    tr.count("graph.ste_masks.consumed", sum(1 for r in tape.records if r.mask is not None))


def _file_bytes(counter):
    def hook(tr, args, kwargs, out, idx):
        path = args[0] if counter.endswith("load.bytes") else args[1]
        tr.count(counter, os.path.getsize(path))
    return hook


HOOKS = {
    "tensor_core.matmul": _matmul,
    "tensor_core.transpose": _transpose,
    "graph.fake_quant": _fake_quant,
    "graph.forward_embed": _forward_embed,
    "graph.backward_embed": _backward_embed,
    "model_store.save_model": _file_bytes("model_store.save.bytes"),
    "model_store.load_model": _file_bytes("model_store.load.bytes"),
}
