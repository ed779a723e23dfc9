"""The benchmark's instrumentation still fits the package.

``perfbench/tracer.py`` patches the package from outside: every public
layer function, ``RangeObserver.update``/``freeze``, ``QuantParams``'
``__post_init__``, and the ``forward_embed`` tape records it reads, whose
kinds tell a weight STE mask from an activation one.
``perfbench/workloads.py`` finds pretrain's step boundaries by replacing
``pretrain.batch_stream``, and runs distillation as bare ``distill_step``
calls. A refactor that breaks one of those fails here, in tier-1, instead
of in a benchmark run.
"""

import ast
import importlib.util
import re
import threading
from pathlib import Path

import numpy as np
import pytest

import quantdistill
from quantdistill import (bench_eval, distiller, graph, model_store, pretrain, quantizer, synth,
                          tensor_core)

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_TRACER_PATH = _PERFBENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for layer in module.LAYERS:  # the benchmark imports every layer it wraps
        importlib.import_module(f"quantdistill.{layer}")
    return module


def _tiny_step_inputs():
    space = synth.make_identity_space(10, 4, 12, 0.15, seed=0)
    teacher = graph.build_embedding_net(12, (16, 16), 8, seed=1)
    cfg = distiller.DistillConfig(batch_size=16, iterations=1, lr=1e-4, momentum=0.9,
                                  weight_decay=5e-4, bit_width=8)
    return space, teacher, cfg


def _calibrated_step(space, teacher, cfg):
    """prepare, calibrate and one distill_step, looked up through the modules
    at call time so that installed wrappers apply."""
    student = distiller.prepare_student(teacher, cfg.bit_width)
    distiller.calibrate(student, synth.batch_stream(space, 16, 2), 2)
    batch = next(synth.batch_stream(space, 16, 3))
    return distiller.distill_step(student, teacher, batch, cfg)


def _patched_names():
    return (graph.forward_embed, distiller.forward_embed,
            quantizer.QuantParams.__post_init__, quantizer.RangeObserver.update)


def test_tracer_installs_and_uninstalls_around_a_traced_distill_step():
    tracer_mod = _load_tracer()
    space, teacher, cfg = _tiny_step_inputs()
    originals = _patched_names()
    tracer = tracer_mod.Tracer(quantdistill)
    tracer.install()
    try:
        tracer.scope, tracer.round = "op", 1
        result = _calibrated_step(space, teacher, cfg)
    finally:
        tracer.uninstall()
    assert _patched_names() == originals
    assert np.isfinite(result.loss)
    assert not tracer.failed

    spans = {name: calls for (_, _, name), (calls, _, _) in tracer.aggregate().items()}
    for name in ("graph.forward.teacher", "graph.forward.student", "graph.backward_embed",
                 "graph.sgd_step", "graph.in_range_mask", "quantizer.derive_params",
                 "quantizer.RangeObserver.update", "quantizer.RangeObserver.freeze",
                 "tensor_core.matmul", "distiller.distill_step"):
        assert spans.get(name), name
    counts = {name: value for (_, _, name), value in tracer.counters.items()}
    # one per-channel record per linear layer, plus one per frozen activation site
    linears, sites = len(teacher.layers), teacher.activation_site_count
    assert counts["quantizer.qparams_built"] == linears + sites
    assert spans["quantizer.derive_params"] == linears
    assert counts["graph.ste.weight_elements.w8"] == teacher.weight_param_count
    assert counts["graph.ste_masks.consumed"] == linears + sites


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_quantized_tape_puts_each_activation_site_after_its_relu(depth):
    # The tracer counts a mask on a "linear" record as a weight mask and
    # any other mask as an activation mask.
    space, _, cfg = _tiny_step_inputs()
    net = graph.build_embedding_net(12, (16,) * (depth - 1), 8, seed=1)
    student = distiller.prepare_student(net, cfg.bit_width)
    observers = [quantizer.RangeObserver() for _ in range(student.activation_site_count)]
    batch = next(synth.batch_stream(space, 16, 2))
    graph.observe_activations(student, batch.inputs, observers)
    assert all(o.running_lo >= 0 for o in observers[:-1])
    assert observers[-1].running_lo < 0
    student.activation_params = [o.freeze(cfg.bit_width) for o in observers]
    _, tape = graph.forward_embed(student, batch.inputs, quantized=True)
    kinds = [rec.kind for rec in tape.records]
    assert kinds == (["linear", "relu", "act_quant"] * (depth - 1)
                     + ["linear", "act_quant", "normalize"])
    assert ([rec.mask is not None for rec in tape.records]
            == [kind in ("linear", "act_quant") for kind in kinds])


def test_matmul_clock_installs_and_uninstalls_around_a_distill_step():
    tracer_mod = _load_tracer()
    space, teacher, cfg = _tiny_step_inputs()
    matmul = graph.matmul
    clock = tracer_mod.MatmulClock(quantdistill)
    clock.install()
    try:
        _calibrated_step(space, teacher, cfg)
    finally:
        clock.uninstall()
    assert graph.matmul is matmul
    assert clock.marks and len(clock.marks) % 2 == 0


def test_verify_request_runs_one_stacked_forward_without_ste_masks(tmp_path):
    # A request embeds both pair sides in one tape-free walk: one matmul per
    # linear layer, and no STE mask, which only a backward pass would read.
    # A live student derives and applies each weight's parameters in one
    # derive_params call; a loaded one, as the benchmark serves, already
    # holds its weights on their pinned grid. Either way each matmul's
    # epilogue runs the relu and the activation site's fake-quant, so
    # neither runs as a call of its own.
    tracer_mod = _load_tracer()
    space, teacher, cfg = _tiny_step_inputs()
    student = distiller.prepare_student(teacher, cfg.bit_width)
    distiller.calibrate(student, synth.batch_stream(space, 16, 2), 2)
    pairs = bench_eval.build_pairs(space, 40, 4)
    for net in (teacher, student):
        clock = tracer_mod.MatmulClock(quantdistill)
        clock.install()
        try:
            bench_eval.verify(net, pairs)
        finally:
            clock.uninstall()
        assert len(clock.marks) == 2 * len(net.layers)

    model_store.save_model(student, tmp_path / "student.qfmd", mode="quantized")
    loaded = model_store.load_model(tmp_path / "student.qfmd")
    for net, derived in ((student, len(student.layers)), (loaded, 0)):
        tracer = tracer_mod.Tracer(quantdistill)
        tracer.install()
        try:
            tracer.scope, tracer.round = "op", 1
            bench_eval.verify(net, pairs)
        finally:
            tracer.uninstall()
        assert not tracer.failed
        spans = {name: calls for (_, _, name), (calls, _, _) in tracer.aggregate().items()}
        assert "graph.in_range_mask" not in spans
        assert spans.get("quantizer.derive_params", 0) == derived
        assert spans["tensor_core.matmul"] == len(net.layers)
        assert spans.get("graph.fake_quant", 0) == 0
        assert spans.get("tensor_core.relu", 0) == 0


def test_row_split_verify_request_is_seen_from_the_calling_thread(monkeypatch, product_calls):
    # A request over at least 2*RANGE_ROWS rows splits each long product into
    # row ranges, which the compiled kernel runs on threads it starts itself.
    # No Python thread is started, so the clock still records one
    # entry/exit pair per linear and the tracer records every span from the
    # thread that made the request. Products are counted from the request
    # only: building the pairs may split its own products.
    monkeypatch.setattr(tensor_core, "WORKERS", 2)
    tracer_mod = _load_tracer()
    space, teacher, cfg = _tiny_step_inputs()
    student = distiller.prepare_student(teacher, cfg.bit_width)
    distiller.calibrate(student, synth.batch_stream(space, 16, 2), 2)
    pairs = bench_eval.build_pairs(space, tensor_core.RANGE_ROWS, 4)
    started = []
    start = threading.Thread.start

    def record(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)

    product_calls.clear()
    clock = tracer_mod.MatmulClock(quantdistill)
    clock.install()
    try:
        bench_eval.verify(student, pairs)
    finally:
        clock.uninstall()
    assert len(clock.marks) == 2 * len(student.layers)
    assert product_calls == [(2, threading.get_ident())] * len(student.layers)
    assert started == []

    tracer = tracer_mod.Tracer(quantdistill)
    open_span = tracer._open
    threads = set()

    def open_from(name):
        threads.add(threading.get_ident())
        return open_span(name)

    tracer._open = open_from
    tracer.install()
    try:
        tracer.scope, tracer.round = "op", 1
        bench_eval.verify(student, pairs)
    finally:
        tracer.uninstall()
    assert not tracer.failed
    assert threads == {threading.get_ident()}
    spans = {name: calls for (_, _, name), (calls, _, _) in tracer.aggregate().items()}
    assert spans["tensor_core.matmul"] == len(student.layers)


def test_train_teacher_draws_every_batch_through_pretrain_batch_stream(monkeypatch):
    drawn = []

    def counted(*args, **kwargs):
        for batch in synth.batch_stream(*args, **kwargs):
            drawn.append(batch)
            yield batch

    monkeypatch.setattr(pretrain, "batch_stream", counted)
    space, teacher, _ = _tiny_step_inputs()
    tcfg = pretrain.TeacherConfig(iterations=3, batch_size=16, lr=0.1, momentum=0.9,
                                  weight_decay=5e-4, seed=0)
    losses = pretrain.train_teacher(teacher, space, tcfg)
    assert len(losses) == len(drawn) == 3


def test_distill_step_carries_momentum_like_finetune():
    # The benchmark calls distill_step(student, teacher, batch, cfg) once per
    # step, so the momentum must carry over through those four arguments.
    space, teacher, cfg = _tiny_step_inputs()
    cfg.iterations = 2
    students = []
    for _ in range(2):
        student = distiller.prepare_student(teacher, cfg.bit_width)
        distiller.calibrate(student, synth.batch_stream(space, 16, 2), 2)
        students.append(student)
    stream = synth.batch_stream(space, 16, 3)
    for _ in range(2):
        distiller.distill_step(students[0], teacher, next(stream), cfg)
    distiller.finetune(students[1], teacher, synth.batch_stream(space, 16, 3), cfg)
    assert graph.net_fingerprint(students[0]) == graph.net_fingerprint(students[1])


class _ThreadedMarks(list):
    """A clock's mark list that also records the thread of every mark."""

    def __init__(self):
        super().__init__()
        self.threads = set()

    def append(self, mark):
        self.threads.add(threading.get_ident())
        super().append(mark)


def test_training_steps_are_seen_from_the_calling_thread(monkeypatch):
    # metrics.floors cuts every operation into pieces at matmul calls and
    # takes the fastest piece at each position, which holds only while each
    # step makes the same matmul calls, one after another, from the thread
    # that runs the step. At the benchmark's shapes (the reference net,
    # batch 64) a step is 12 matmuls: 1 for the batch draw plus 11 in
    # distill_step, or 12 for a train_teacher step, and starts no thread.
    started = []
    start = threading.Thread.start

    def record(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    tracer_mod = _load_tracer()
    space = synth.make_identity_space(200, 16, 64, 0.15, seed=0)
    teacher = graph.build_embedding_net(64, (64, 64), 32, seed=1)
    cfg = distiller.DistillConfig(batch_size=64, iterations=1, lr=1e-4, momentum=0.9,
                                  weight_decay=5e-4, bit_width=8)
    student = distiller.prepare_student(teacher, cfg.bit_width)
    distiller.calibrate(student, synth.batch_stream(space, 64, 2), 2)
    stream = synth.batch_stream(space, 64, 3)

    clock = tracer_mod.MatmulClock(quantdistill)
    clock.marks = _ThreadedMarks()
    clock.install()
    try:
        batch = next(stream)
        drawn = len(clock.marks)
        distiller.distill_step(student, teacher, batch, cfg)
    finally:
        clock.uninstall()
    assert (drawn, len(clock.marks)) == (2 * 1, 2 * 12)
    assert clock.marks.threads == {threading.get_ident()}

    tcfg = pretrain.TeacherConfig(iterations=2, batch_size=64, lr=0.1, momentum=0.9,
                                  weight_decay=5e-4, seed=0)
    clock = tracer_mod.MatmulClock(quantdistill)
    clock.marks = _ThreadedMarks()
    clock.install()
    try:
        pretrain.train_teacher(graph.clone_net(teacher), space, tcfg)
    finally:
        clock.uninstall()
    assert len(clock.marks) == 2 * 24
    assert clock.marks.threads == {threading.get_ident()}
    assert not started


def test_every_span_the_metrics_read_is_recorded():
    # A metric that reads a span nobody records reads 0 on working code, so
    # renaming a traced function (say quantizer.derive_params) must fail
    # here rather than silently zero its metric.
    readers = {"span", "self_ms", "calls", "incl_ms", "round_or_setup"}
    read = set()
    for node in ast.walk(ast.parse((_PERFBENCH / "metrics.py").read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in readers:
            read.update(arg.value for arg in node.args if isinstance(arg, ast.Constant)
                        and isinstance(arg.value, str)
                        and re.fullmatch(r"\w+\.[\w.]+", arg.value))
    assert "quantizer.derive_params" in read

    tracer = _load_tracer().Tracer(quantdistill)
    wrapped = set()
    wrap = tracer._wrap

    def recording_wrap(layer, fname, fn, hook=None):
        wrapped.add(f"{layer}.{fname}")
        return wrap(layer, fname, fn, hook)

    tracer._wrap = recording_wrap
    tracer.install()
    tracer.uninstall()
    # The benchmark loop's own span, and the names the tracer's hooks give.
    named_elsewhere = {"bench.op", "graph.forward.teacher", "graph.forward.student",
                       "synth.batch_wait"}
    assert read - wrapped - named_elsewhere == set()
