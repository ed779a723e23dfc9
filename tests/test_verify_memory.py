"""A verification request's transient memory stays bounded.

A request embeds the pair set's stacked rows as they are. The
exact-order kernel writes straight into its output, holds no work buffer,
and adds the bias, applies the relu, fake-quantizes the activation site
and, at the last linear, L2-normalizes the rows in place, row block by
row block, with no float64 copy; the pair cosines are one compiled pass
over the embeddings that writes only the scores. What a request holds at
its peak is then one layer's input and its output: about 2.0 times the
pair rows at the reference net with two workers, against 3.0 with the
bias add, the relu and the fake-quant as numpy passes that each made a
new array, 3.5 with the numpy kernels' work buffers, and 4.5 (fp32) and
5.0 (w8) with a stacked copy of the rows and whole-array float64 passes.
"""

import tracemalloc

import numpy as np
import pytest

from quantdistill import bench_eval, distiller, graph, synth, tensor_core

PAIRS = 8000
PEAK_LIMIT = 2.5  # times the bytes of the pair rows


@pytest.fixture(scope="module")
def reference_nets():
    """The reference net (64 -> 64 -> 64 -> 32) in fp32 and calibrated w8,
    and a pair set of PAIRS pairs."""
    space = synth.make_identity_space(200, 16, 64, 0.15, seed=0)
    teacher = graph.build_embedding_net(64, (64, 64), 32, seed=1)
    student = distiller.prepare_student(teacher, 8)
    distiller.calibrate(student, synth.batch_stream(space, 64, 2), 4)
    return {"fp32": teacher, "w8": student}, bench_eval.build_pairs(space, PAIRS, 3)


@pytest.mark.parametrize("name", ["fp32", "w8"])
def test_verify_peak_stays_under_two_and_a_half_times_the_pair_rows(monkeypatch, reference_nets,
                                                                   name):
    monkeypatch.setattr(tensor_core, "WORKERS", 2)
    nets, pairs = reference_nets
    net = nets[name]
    first = bench_eval.verify(net, pairs)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        report = bench_eval.verify(net, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == first
    ratio = peak / pairs.rows.data.nbytes
    assert ratio < PEAK_LIMIT, f"{name} request peak {peak} B is {ratio:.2f}x the pair rows"


def test_verify_embeds_the_pair_rows_without_a_copy(monkeypatch, reference_nets):
    nets, pairs = reference_nets
    seen = []
    embed = bench_eval.embed

    def recording(net, x):
        seen.append(x)
        return embed(net, x)

    monkeypatch.setattr(bench_eval, "embed", recording)
    bench_eval.verify(nets["w8"], pairs)
    assert len(seen) == 1
    assert np.shares_memory(seen[0].data, pairs.rows.data)
