"""The three benchmark workloads: pretrain, distill and verify.

Each workload is a closed loop with one client. ``setup`` builds what the
loop needs from the workload seed; ``run_round`` performs one fixed unit
of pipeline work (a round) whose operations are timed one by one;
``check_round`` then verifies the round's outputs outside the timed
region. Every round of a run repeats the same work on the same inputs, so
a round's artifacts and exact counts must match those of every other
round of the run.

The pipeline is driven through the public functions the CLI calls, looked
up on their modules at call time so that the tracer's wrappers apply.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

from quantdistill import bench_eval, distiller, graph, model_store, pretrain, synth

# Reference net and synthetic identity space (the CLI's default config).
INPUT_DIM, HIDDEN_DIMS, EMBED_DIM = 64, (64, 64), 32
N_IDENTITIES, LATENT_DIM, NOISE_SIGMA = 200, 16, 0.15
BATCH = 64

# Short deterministic teacher schedule: pretrain's round, and the teacher
# that distill and verify build in set-up.
TEACHER_ITERATIONS = 100
CE_TAIL = 10           # ce_loss.final is the mean of the last CE_TAIL steps

WIDTHS = (8, 6, 4)
DISTILL_STEPS = 60     # timed distill_step calls per width per round
KD_TAIL = 10           # kd_loss.w<b> is the mean of the last KD_TAIL steps

VERIFY_MODELS = ("teacher", "w8", "w6")
# Pair-set sizes from 1k to 8k pairs, log-spaced: each side's activations
# run from 0.25 MiB to 2 MiB, across the per-core L2. A cycle is
# 5 sizes x 3 models = 15 request classes; with 15 classes the median and
# the 90th percentile both fall on the middle sample of one class, where a
# percentile is steadiest, whatever the number of whole cycles run.
PAIR_SIZES = (1000, 1682, 2828, 4756, 8000)
ACC_PAIRS = 8000       # acc.<model> is read at this pair-set size


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def make_space(seed: int):
    return synth.make_identity_space(N_IDENTITIES, LATENT_DIM, INPUT_DIM, NOISE_SIGMA,
                                     synth.derive_seed(seed, "data"))


def teacher_config(seed: int):
    return pretrain.TeacherConfig(iterations=TEACHER_ITERATIONS, batch_size=BATCH, lr=0.1,
                                  momentum=0.9, weight_decay=5e-4,
                                  seed=synth.derive_seed(seed, "teacher"))


def fresh_net(seed: int):
    return graph.build_embedding_net(INPUT_DIM, HIDDEN_DIMS, EMBED_DIM,
                                     seed=synth.derive_seed(seed, "init"))


def train_short_teacher(seed: int, space):
    net = fresh_net(seed)
    pretrain.train_teacher(net, space, teacher_config(seed))
    return net


def probe_batch(seed: int, space):
    return synth.sample_unlabeled(space, BATCH, synth.derive_seed(seed, "probe")).inputs


def quantized_embedding(net, x) -> np.ndarray:
    return graph.forward_embed(net, x, quantized=True)[0].data


def check_reload(ctx, net, path, before: np.ndarray, probe, tag: str) -> None:
    """A saved model reloads, re-saves to the same bytes and, if quantized,
    reproduces its forward on the probe batch exactly."""
    loaded = model_store.load_model(path)
    again = f"{path}.resaved"
    model_store.save_model(loaded, again, mode="quantized" if loaded.is_calibrated else "fp32")
    with open(path, "rb") as a, open(again, "rb") as b:
        ctx.check(f"{tag}.resave_identical", a.read() == b.read())
    os.remove(again)
    if before is not None:
        ctx.check(f"{tag}.reload_forward_equal",
                  np.array_equal(before, quantized_embedding(loaded, probe)))


class Pretrain:
    """Full-precision teacher training: ``train_teacher`` at batch 64.

    The round is one ``train_teacher`` call of TEACHER_ITERATIONS steps from
    the same initial net. It never enters ``quantizer``.
    """

    step_split = False

    def __init__(self, ctx):
        self.ctx = ctx
        # train_teacher draws its batches from ``pretrain.batch_stream``;
        # each ``next`` on that stream starts a training step, which gives
        # the step boundaries without touching the package. The inner
        # stream is looked up at call time so that tracing still applies.
        self._restore = pretrain.batch_stream

        def clocked_stream(*args, **kwargs):
            inner = synth.batch_stream(*args, **kwargs)
            while True:
                ctx.op_boundary(BATCH, "step")
                yield next(inner)

        pretrain.batch_stream = clocked_stream

    def close(self):
        pretrain.batch_stream = self._restore

    def setup(self):
        seed = self.ctx.seed
        self.space = make_space(seed)
        self.initial = fresh_net(seed)
        self.tcfg = teacher_config(seed)

    def run_round(self):
        self.losses, self.net = None, graph.clone_net(self.initial)
        with self.ctx.boundary_ops():
            self.losses = pretrain.train_teacher(self.net, self.space, self.tcfg)

    def check_round(self):
        ctx = self.ctx
        losses = self.losses or []
        bad = sum(1 for v in losses if not (math.isfinite(v) and v >= 0.0))
        ctx.fail_ops(bad, "cross-entropy loss not finite and non-negative")
        ctx.artifact("teacher.weights", graph.net_fingerprint(self.net))
        ctx.artifact("teacher.ce_curve", hashlib.sha256(np.asarray(losses).tobytes()).hexdigest())
        if losses:
            ctx.named("ce_loss.final", float(np.mean(losses[-CE_TAIL:])), "nats")


class Distill:
    """Quantization-aware distillation of w8, w6 and w4 students.

    Set-up trains the teacher on the short schedule. A round runs, per
    width, ``prepare_student``, ``calibrate``, DISTILL_STEPS timed
    ``distill_step`` calls, ``save_model`` and ``write_loss_curve``.
    """

    step_split = True

    def __init__(self, ctx):
        self.ctx = ctx

    def close(self):
        pass

    def setup(self):
        seed = self.ctx.seed
        self.space = make_space(seed)
        self.teacher = train_short_teacher(seed, self.space)
        self.probe = probe_batch(seed, self.space)

    def run_round(self):
        ctx, seed = self.ctx, self.ctx.seed
        self.students, self.curves, self.paths = {}, {}, {}
        for b in WIDTHS:
            with ctx.part(f"calibrate.w{b}"):
                student = distiller.prepare_student(self.teacher, b)
                calib = synth.batch_stream(self.space, BATCH,
                                           synth.derive_seed(seed, f"calib-w{b}"))
                distiller.calibrate(student, calib, distiller.DEFAULT_CALIBRATION_BATCHES)
            cfg = distiller.DistillConfig(batch_size=BATCH, iterations=DISTILL_STEPS, lr=1e-4,
                                          momentum=0.9, weight_decay=5e-4, bit_width=b)
            stream = synth.batch_stream(self.space, BATCH, synth.derive_seed(seed, f"distill-w{b}"))
            curve = []
            for _ in range(DISTILL_STEPS):
                with ctx.op(BATCH, f"step.w{b}"):
                    curve.append(distiller.distill_step(student, self.teacher, next(stream), cfg))
            model_path = ctx.path(f"student_w{b}a{b}.qfmd")
            csv_path = ctx.path(f"loss_w{b}a{b}.csv")
            with ctx.part(f"save.w{b}"):
                model_store.save_model(student, model_path, mode="quantized")
                distiller.write_loss_curve(csv_path, curve)
            self.students[b], self.curves[b], self.paths[b] = student, curve, (model_path, csv_path)

    def check_round(self):
        ctx = self.ctx
        total = 0
        for b in WIDTHS:
            losses = [r.loss for r in self.curves[b]]
            bad = sum(1 for v in losses if not (math.isfinite(v) and 0.0 <= v <= 2.0))
            ctx.fail_ops(bad, f"w{b} kd loss not finite or outside [0, 2]")
            model_path, csv_path = self.paths[b]
            before = quantized_embedding(self.students[b], self.probe)
            check_reload(ctx, self.students[b], model_path, before, self.probe, f"w{b}")
            ctx.artifact(os.path.basename(model_path), sha256_file(model_path))
            ctx.artifact(os.path.basename(csv_path), sha256_file(csv_path))
            total += os.path.getsize(model_path)
            if losses:
                ctx.named(f"kd_loss.w{b}", float(np.mean(losses[-KD_TAIL:])), "1")
        ctx.named("student_bytes", total, "B")


class Verify:
    """Verification requests against models loaded from QFMD files.

    Set-up trains the teacher, calibrates the w8 and w6 students, saves all
    three, loads them back and builds the pair sets. A round is one cycle
    of ``verify`` requests over every pair-set size and model.
    """

    step_split = False

    def __init__(self, ctx):
        self.ctx = ctx
        self.first_reports = {}

    def close(self):
        pass

    def setup(self):
        ctx, seed = self.ctx, self.ctx.seed
        space = make_space(seed)
        teacher = train_short_teacher(seed, space)
        nets = {"teacher": teacher}
        for name in VERIFY_MODELS[1:]:
            b = int(name[1:])
            student = distiller.prepare_student(teacher, b)
            calib = synth.batch_stream(space, BATCH, synth.derive_seed(seed, f"calib-w{b}"))
            distiller.calibrate(student, calib, distiller.DEFAULT_CALIBRATION_BATCHES)
            nets[name] = student
        self.paths = {}
        for name, net in nets.items():
            path = ctx.path(f"{name}.qfmd")
            model_store.save_model(net, path, mode="quantized" if net.is_calibrated else "fp32")
            self.paths[name] = path
        self.models = {name: model_store.load_model(path) for name, path in self.paths.items()}
        self.pairs = {n: bench_eval.build_pairs(space, n, synth.derive_seed(seed, f"pairs-{n}"))
                      for n in PAIR_SIZES}
        self.built = nets
        self.probe = probe_batch(seed, space)

    def check_setup(self):
        ctx = self.ctx
        for name, path in self.paths.items():
            net = self.built[name]
            before = quantized_embedding(net, self.probe) if net.is_calibrated else None
            check_reload(ctx, net, path, before, self.probe, name)
            ctx.artifact(os.path.basename(path), sha256_file(path))

    def run_round(self):
        ctx = self.ctx
        self.reports = {}
        for n in PAIR_SIZES:
            pairs = self.pairs[n]
            for name in VERIFY_MODELS:
                with ctx.op(2 * n, f"{name}.{n}"):
                    self.reports[(name, n)] = bench_eval.verify(self.models[name], pairs)

    def check_round(self):
        ctx = self.ctx
        bad = 0
        for key, report in self.reports.items():
            first = self.first_reports.setdefault(key, report)
            bad += not (well_formed(report, key[1]) and report == first)
        ctx.fail_ops(bad, "verification report malformed or not repeatable")
        for name in VERIFY_MODELS:
            report = self.reports.get((name, ACC_PAIRS))
            if report is not None:
                ctx.named(f"acc.{name}", report.accuracy, "1")


def well_formed(report, n_pairs: int) -> bool:
    values = [report.accuracy, report.threshold, report.genuine_mean, report.imposter_mean,
              *report.tar_at_far.values()]
    return (all(math.isfinite(v) for v in values)
            and 0.0 <= report.accuracy <= 1.0
            and all(0.0 <= t <= 1.0 for t in report.tar_at_far.values())
            and report.n_genuine + report.n_imposter == n_pairs
            and report.n_genuine > 0 and report.n_imposter > 0)


WORKLOADS = {"pretrain": Pretrain, "distill": Distill, "verify": Verify}
