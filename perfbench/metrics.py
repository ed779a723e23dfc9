"""End-to-end and per-layer metrics from a run's rounds and spans.

End-to-end metrics use the untraced rounds after the warm-up round.
Per-layer metrics use the traced rounds and are normalised per operation
(a training step or a verify request), per round, or per set-up, as
NOTES.md lists; counts normalised that way repeat exactly from run to run.
"""

from __future__ import annotations

import statistics

from tracer import LAYERS

# Operation percentiles that each workload's own vocabulary names.
OP_NAMES = {
    "pretrain": ("step_ms", ("p50", "p99"), "train_samples_per_s"),
    "distill": ("step_ms", ("p50", "p99"), "train_samples_per_s"),
    "verify": ("request_ms", ("p50", "p90"), "embed_rows_per_s"),
}
STEP_SPLIT_TOLERANCE = 0.05   # residual allowed as a share of the step span

# Per-layer counts that depend only on shapes and schedule, never on the
# seed or the clock: they must repeat exactly across runs of the same code.
EXACT_COUNTS = (
    "tensor_core.matmul.calls", "tensor_core.matmul.gflop", "tensor_core.transpose.calls",
    "tensor_core.transpose.bytes", "quantizer.derive_params.calls", "quantizer.qparams_built",
    "quantizer.fake_quant.elements", "graph.in_range_mask.calls", "graph.ste_masks.consumed",
    "synth.rows", "model_store.save.bytes", "model_store.load.bytes",
)


def _quantile(values: list[float], pct: int) -> float:
    # "inclusive" places a percentile on a sample rank that does not depend
    # on how many whole rounds fit in the run (see workloads.PAIR_SIZES).
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def fastest_of(a, b):
    """Merge two (whole ns, pieces ns) timings of one kind of part.

    The whole time is the faster of the two; each piece is the faster of
    the two at its position, or pieces is None if the two were not split
    alike."""
    if a is None:
        return b
    same = a[1] is not None and b[1] is not None and len(a[1]) == len(b[1])
    return min(a[0], b[0]), (tuple(map(min, a[1], b[1])) if same else None)


def floors(measured) -> dict[str, tuple[bool, float, float]]:
    """Each kind of timed part of a round: (is an operation, parts per
    round, floor in ns over the measured rounds).

    A part's floor is the sum of its pieces' fastest times, or its fastest
    whole time if its parts were not split alike. Whatever a round does
    outside its timed parts is one more part, "rest".
    """
    count: dict[str, int] = {"rest": 0}
    is_op = {"rest": False}
    fastest: dict[str, tuple] = {}
    for r in measured:
        for kind, _, op in r.parts:
            count[kind] = count.get(kind, 0) + 1
            is_op[kind] = op
        for kind, timing in r.fastest.items():
            fastest[kind] = fastest_of(fastest.get(kind), timing)
        rest = r.wall_s * 1e9 - sum(ns for _, ns, _ in r.parts)
        fastest["rest"] = fastest_of(fastest.get("rest"), (rest, (rest,)))
        count["rest"] += 1
    n = len(measured)
    return {k: (is_op[k], count[k] / n,
                float(sum(pieces) if pieces is not None else whole))
            for k, (whole, pieces) in fastest.items()}


def end_to_end(workload: str, rounds, setup_times: list[float], peak_rss_mb: float) -> dict:
    """Gated metrics for BENCHMARK.json, and the workload's named metrics.

    The gated timings are floors. The work of a round is deterministic, so
    each kind of part (a distill step of one width, a verify request of
    one model and size, a calibration, ...) has a least time: its time
    when nothing else on the host slows it. A shared VM adds delays on top
    of that in bursts, by a factor that drifts from about 1 to 2 over
    seconds to minutes, so medians and upper percentiles follow the
    neighbours' load. The fastest of many repeats of a short piece of work
    stays close to its least time, and the shorter the piece the closer,
    so each part is split into pieces at its matmul calls (about 0.2 ms
    each in a training step) and its floor is the sum of its pieces'
    fastest times. ``wall_s.floor`` is the round with every part at its
    floor; ``op_ms.floor`` is the mean operation of the round with every
    kind of operation at its floor. Medians and upper percentiles are
    reported ungated.

    Set-up is short or rare, so it has few samples; their 90th percentile,
    which sits in the slow state unless nine tenths of the run was fast,
    has proved steadier than their median or their fastest. The samples
    are spread through the run (see run.run_rounds).
    """
    measured = [r for r in rounds[1:] if not r.traced]
    ops_ms = [ns / 1e6 for r in measured for ns in r.ops_ns]
    walls = [r.wall_s for r in measured]
    rows_per_s = sum(r.rows for r in measured) / (sum(ops_ms) / 1e3)
    p = {pct: _quantile(ops_ms, pct) for pct in (50, 90, 99)}
    parts = floors(measured)
    op_parts = [(n, best) for op, n, best in parts.values() if op]
    gated = {
        "setup_s": (_quantile(setup_times, 90), "s"),
        "wall_s.floor": (sum(n * best for _, n, best in parts.values()) / 1e9, "s"),
        "op_ms.floor": (sum(n * best for n, best in op_parts) / sum(n for n, _ in op_parts) / 1e6,
                        "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    lat, pcts, rate = OP_NAMES[workload]
    named = dict(gated)
    named["wall_s"] = (statistics.median(walls), "s")
    named["wall_s.p90"] = (_quantile(walls, 90), "s")
    named.update({f"{lat}.{q}": (p[int(q[1:])], "ms") for q in pcts})
    named[rate] = (rows_per_s, "1/s")
    named["op_count"] = (len(ops_ms), "count")
    named["round_count"] = (len(walls), "count")

    def fmt(d):
        return {k: {"value": v, "unit": u} for k, (v, u) in d.items()}

    return {"gated": fmt(gated), "named": fmt(named),
            "floors_ms": {k: {"per_round": n, "floor_ms": best / 1e6}
                          for k, (_, n, best) in sorted(parts.items())}}


def per_layer(ctx, rounds, step_split: bool) -> tuple[dict, dict]:
    """Per-layer metrics of the traced rounds, plus the exact counts.

    ``step_split`` checks that a distill step's parts sum to its span."""
    tracer = ctx.tracer
    agg = tracer.aggregate()
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds[1:] if not r.traced]
    ids = [r.index for r in traced]
    n_ops = sum(len(r.ops_ns) for r in traced)
    n_rounds = len(traced)

    # Set-up is traced once, as round -1.
    def span(name, scope, field):
        rs = [-1] if scope == "setup" else ids
        return sum(agg.get((scope, r, name), (0, 0, 0))[field] for r in rs)

    def counter(name, scope):
        rs = [-1] if scope == "setup" else ids
        return sum(tracer.counters.get((scope, r, name), 0) for r in rs)

    calls = lambda name: span(name, "op", 0) / n_ops
    incl_ms = lambda *names: sum(span(n, "op", 1) for n in names) / n_ops / 1e6
    self_ms = lambda *names: sum(span(n, "op", 2) for n in names) / n_ops / 1e6
    per_op = lambda name: counter(name, "op") / n_ops

    def frac(num, den):
        d = counter(den, "op")
        return counter(num, "op") / d if d else 0.0

    def round_or_setup(name, field):
        # Per round, plus what set-up did (verify saves and loads only there).
        return span(name, "round", field) / n_rounds + span(name, "setup", field)

    def bytes_(name):
        return counter(name, "round") / n_rounds + counter(name, "setup")

    flop = counter("tensor_core.matmul.flop", "op")
    matmul_self_ns = span("tensor_core.matmul", "op", 2)
    # forward_embed computes every STE mask with in_range_mask and records
    # it on the tape; backward_embed consumes the tape's masks.
    computed = span("graph.in_range_mask", "op", 0)
    consumed = counter("graph.ste_masks.consumed", "op")

    # Distill-step split: the parts must add up to the step's span.
    step_ns = span("bench.op", "op", 1) if step_split else 0
    parts_ns = (span("graph.forward.teacher", "op", 1) + span("graph.forward.student", "op", 1)
                + span("distiller.kd_loss", "op", 1) + span("distiller.kd_loss_grad", "op", 1)
                + span("graph.backward_embed", "op", 1) + span("graph.sgd_step", "op", 1)
                + span("synth.batch_wait", "op", 1) + span("distiller.distill_step", "op", 2))
    if step_split:
        ctx.check("trace.step_split.sums_to_step",
                  abs(step_ns - parts_ns) <= STEP_SPLIT_TOLERANCE * step_ns)

    traced_wall = statistics.median(r.wall_s for r in traced)
    untraced_wall = statistics.median(r.wall_s for r in untraced)

    m = {
        "tensor_core.matmul.calls": (calls("tensor_core.matmul"), "count", "lower"),
        "tensor_core.matmul.self_ms": (self_ms("tensor_core.matmul"), "ms", "lower"),
        "tensor_core.matmul.gflop": (flop / n_ops / 1e9, "GFLOP", "lower"),
        "tensor_core.matmul.gflops_per_s": (flop / matmul_self_ns if matmul_self_ns else 0.0,
                                            "GFLOP/s", "higher"),
        "tensor_core.transpose.calls": (calls("tensor_core.transpose"), "count", "lower"),
        "tensor_core.transpose.self_ms": (self_ms("tensor_core.transpose"), "ms", "lower"),
        "tensor_core.transpose.bytes": (per_op("tensor_core.transpose.bytes"), "B", "lower"),
        "tensor_core.elementwise.self_ms": (self_ms("tensor_core.relu", "tensor_core.l2_normalize"),
                                            "ms", "lower"),
        "quantizer.derive_params.calls": (calls("quantizer.derive_params"), "count", "lower"),
        "quantizer.derive_params.self_ms": (self_ms("quantizer.derive_params"), "ms", "lower"),
        "quantizer.qparams_built": (per_op("quantizer.qparams_built"), "count", "lower"),
        "quantizer.quantize.self_ms": (self_ms("quantizer.quantize"), "ms", "lower"),
        "quantizer.dequantize.self_ms": (self_ms("quantizer.dequantize"), "ms", "lower"),
        "quantizer.fake_quant.elements": (per_op("quantizer.fake_quant.elements"), "count", "lower"),
        "quantizer.observer.self_ms": (
            (span("quantizer.RangeObserver.update", "round", 2)
             + span("quantizer.RangeObserver.freeze", "round", 2)) / n_rounds / 1e6, "ms", "lower"),
        "graph.forward.teacher_ms": (incl_ms("graph.forward.teacher"), "ms", "lower"),
        "graph.forward.student_ms": (incl_ms("graph.forward.student"), "ms", "lower"),
        "graph.backward_ms": (incl_ms("graph.backward_embed"), "ms", "lower"),
        "graph.sgd_ms": (incl_ms("graph.sgd_step"), "ms", "lower"),
        "graph.in_range_mask.calls": (calls("graph.in_range_mask"), "count", "lower"),
        "graph.in_range_mask.self_ms": (self_ms("graph.in_range_mask"), "ms", "lower"),
        "graph.ste_masks.consumed": (consumed / n_ops, "count", "higher"),
        "graph.ste_masks.unused_frac": ((computed - consumed) / computed if computed else 0.0,
                                        "1", "lower"),
    }
    for kind in ("weight", "act"):
        for b in (8, 6, 4):
            m[f"graph.ste.{kind}_pass_frac.w{b}"] = (
                frac(f"graph.ste.{kind}_pass.w{b}", f"graph.ste.{kind}_elements.w{b}"), "1", "higher")
    m.update({
        "distiller.step.self_ms": (self_ms("distiller.distill_step"), "ms", "lower"),
        "distiller.kd_loss.self_ms": (self_ms("distiller.kd_loss", "distiller.kd_loss_grad"),
                                      "ms", "lower"),
        "distiller.calibrate_ms": (span("distiller.calibrate", "round", 1) / n_rounds / 1e6,
                                   "ms", "lower"),
        "synth.batch_wait_ms": (incl_ms("synth.batch_wait"), "ms", "lower"),
        "synth.rows": (per_op("synth.rows"), "count", "higher"),
        "synth.build_pairs_ms": (span("bench_eval.build_pairs", "setup", 1) / 1e6, "ms", "lower"),
        "model_store.save.ms": (round_or_setup("model_store.save_model", 1) / 1e6, "ms", "lower"),
        "model_store.save.bytes": (bytes_("model_store.save.bytes"), "B", "lower"),
        "model_store.load.ms": (round_or_setup("model_store.load_model", 1) / 1e6, "ms", "lower"),
        "model_store.load.bytes": (bytes_("model_store.load.bytes"), "B", "lower"),
        "bench_eval.pair_scores.self_ms": (self_ms("bench_eval.pair_scores"), "ms", "lower"),
        "bench_eval.threshold_sweep_ms": (incl_ms("bench_eval.best_threshold_accuracy"),
                                          "ms", "lower"),
        "bench_eval.tar_at_far_ms": (incl_ms("bench_eval.tar_at_far"), "ms", "lower"),
        "pretrain.head.self_ms": (self_ms("pretrain.train_teacher"), "ms", "lower"),
    })
    for layer in LAYERS:
        m[f"{layer}.failed"] = (tracer.failed.get(layer, 0), "count", "lower")
    m.update({
        "trace.overhead_s": (traced_wall - untraced_wall, "s", "lower"),
        "trace.step_split.step_ms": (step_ns / n_ops / 1e6, "ms", "lower"),
        "trace.step_split.residual_ms": ((step_ns - parts_ns) / n_ops / 1e6 if step_ns else 0.0,
                                         "ms", "lower"),
    })
    counts = {k: m[k][0] for k in EXACT_COUNTS}
    counts["ops_per_round"] = n_ops / n_rounds
    _check_rounds_repeat(ctx, agg, traced)
    return {k: {"value": v, "unit": u} for k, (v, u, _) in m.items()}, counts


def _check_rounds_repeat(ctx, agg, traced) -> None:
    """Every traced round must make the same calls and counts."""
    tracer = ctx.tracer
    per_round = {r.index: {} for r in traced}
    for (scope, rnd, name), (calls, _, _) in agg.items():
        if rnd in per_round:
            per_round[rnd][(scope, "calls", name)] = calls
    for (scope, rnd, name), value in tracer.counters.items():
        if rnd in per_round:
            per_round[rnd][(scope, "count", name)] = value
    for r in traced:
        per_round[r.index][("op", "ops", "")] = len(r.ops_ns)
    first = per_round[traced[0].index]
    ctx.check("exact_counts.repeat_across_rounds", all(v == first for v in per_round.values()))
