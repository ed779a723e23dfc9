"""The benchmark's instrumentation still fits the package.

``perfbench/tracer.py`` patches the package from outside: every public
layer function, ``RangeObserver.update``/``freeze``, ``QuantParams``'
``__post_init__``, and the ``forward_embed`` tape records it reads. A
refactor that removes one of those fails here, in tier-1, instead of in a
benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

import quantdistill
from quantdistill import bench_eval, distiller, graph, quantizer, synth

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
    cfg = distiller.DistillConfig(batch_size=16, iterations=1, bit_width=8)
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
    linears, sites = len(teacher.linear_layers), teacher.activation_site_count
    assert counts["quantizer.qparams_built"] == linears + sites
    assert spans["quantizer.derive_params"] == linears
    assert counts["graph.ste.weight_elements.w8"] == teacher.weight_param_count
    assert counts["graph.ste_masks.consumed"] == linears + sites


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


def test_verify_request_runs_one_stacked_forward_without_ste_masks():
    # A request embeds both pair sides in one tape-free walk: one matmul per
    # linear layer, and no STE mask, which only a backward pass would read.
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
        assert len(clock.marks) == 2 * len(net.linear_layers)

    tracer = tracer_mod.Tracer(quantdistill)
    tracer.install()
    try:
        tracer.scope, tracer.round = "op", 1
        bench_eval.verify(student, pairs)
    finally:
        tracer.uninstall()
    assert not tracer.failed
    spans = {name: calls for (_, _, name), (calls, _, _) in tracer.aggregate().items()}
    assert "graph.in_range_mask" not in spans
    assert spans["graph.fake_quant"] == len(student.linear_layers) + student.activation_site_count
