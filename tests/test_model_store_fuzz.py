"""Properties of the model file loader.

A single mutated byte never loads as a different model. Any one byte of
a small w8a8 QFMD file is changed and the CRC recomputed, so only the
mutation is wrong. Loading must then either fail with ``FormatError``
(CLI exit 3) or give a net that re-saves to exactly the mutated bytes: a
field the loader accepts is carried through unchanged.

A file's layer stack alternates linear, relu, ..., linear. Every such net
saves and reloads to the same bytes, at every bit width with the same
quantization parameters, and every other stack is rejected.

A loaded quantized net serves its weights as they are: each one lies on
the grid its layer is pinned to, so the loaded net embeds exactly what
the student it was saved from embeds.
"""

import struct
import zlib

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from quantdistill.errors import DomainError, FormatError  # noqa: E402
from quantdistill.graph import (  # noqa: E402
    Linear, build_embedding_net, embed, forward_embed, observe_activations)
from quantdistill.model_store import load_model, save_model  # noqa: E402
from quantdistill.quantizer import RangeObserver, dequantize, quantize  # noqa: E402
from quantdistill.tensor_core import Tensor  # noqa: E402


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """(directory, bytes) of a calibrated 6-8-4 w8a8 model file."""
    net = build_embedding_net(6, (8,), 4, seed=0)
    net.set_quantization(8)
    observers = [RangeObserver() for _ in range(net.activation_site_count)]
    rng = np.random.default_rng(1)
    for _ in range(4):
        observe_activations(net, Tensor(rng.standard_normal((8, 6)).astype(np.float32)),
                            observers)
    net.activation_params = [o.freeze(8) for o in observers]
    root = tmp_path_factory.mktemp("fuzz")
    save_model(net, root / "net.qfmd", mode="quantized")
    return root, (root / "net.qfmd").read_bytes()


@settings(max_examples=600)
@given(data=st.data(), delta=st.integers(1, 255))
def test_single_byte_mutation_is_rejected_or_round_trips(saved, data, delta):
    root, blob = saved
    pos = data.draw(st.integers(4, len(blob) - 5), label="position")
    mutated = bytearray(blob)
    mutated[pos] = (mutated[pos] + delta) % 256
    struct.pack_into("<I", mutated, len(mutated) - 4, zlib.crc32(mutated[4:-4]) & 0xFFFFFFFF)
    path, again = root / "mutated.qfmd", root / "resaved.qfmd"
    path.write_bytes(bytes(mutated))
    try:
        net = load_model(path)
    except FormatError:
        return
    save_model(net, again, mode="quantized" if net.is_calibrated else "fp32")
    assert again.read_bytes() == bytes(mutated)


@pytest.fixture(scope="module")
def stacks_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("stacks")


@settings(max_examples=100)
@given(widths=st.lists(st.integers(1, 9), min_size=2, max_size=5),
       bits=st.sampled_from([4, 6, 8]), seed=st.integers(0, 2**16))
def test_alternating_net_reloads_to_the_same_bytes(stacks_dir, widths, bits, seed):
    net = build_embedding_net(widths[0], widths[1:-1], widths[-1], seed=seed)
    first, again = stacks_dir / "net.qfmd", stacks_dir / "again.qfmd"
    for mode in ("fp32", "quantized"):
        if mode == "quantized":
            net.set_quantization(bits)
            observers = [RangeObserver() for _ in range(net.activation_site_count)]
            x = np.random.default_rng(seed).standard_normal((8, widths[0]))
            observe_activations(net, Tensor(x.astype(np.float32)), observers)
            net.activation_params = [o.freeze(bits) for o in observers]
        save_model(net, first, mode=mode)
        blob = first.read_bytes()
        assert struct.unpack_from("<H", blob, 8)[0] == 2 * len(net.layers) - 1
        back = load_model(first)
        save_model(back, again, mode=mode)
        assert again.read_bytes() == blob
    # The records rebuilt from the stored ranges are the saved net's own.
    assert [l.grid for l in back.layers] == [net.weight_params(i) for i in range(len(net.layers))]
    assert back.activation_params == net.activation_params


@given(kinds=st.lists(st.sampled_from(["linear", "relu"]), max_size=7),
       width=st.integers(1, 4))
def test_only_alternating_stacks_load(stacks_dir, layer_stack_file, kinds, width):
    blob = layer_stack_file(["relu" if k == "relu" else (width, width) for k in kinds])
    path, again = stacks_dir / "stack.qfmd", stacks_dir / "stack-again.qfmd"
    path.write_bytes(blob)
    if kinds == ["linear", "relu"] * (len(kinds) // 2) + ["linear"]:
        save_model(load_model(path), again, mode="fp32")
        assert again.read_bytes() == blob
        return
    with pytest.raises(FormatError) as exc:
        load_model(path)
    assert exc.value.field == "layers"


def _outcome(run, net, x):
    """The bits ``run(net, x)`` gives, or the message of its DomainError."""
    try:
        return run(net, x).data.tobytes()
    except DomainError as exc:
        return str(exc)


@settings(max_examples=60)
@given(widths=st.lists(st.integers(1, 9), min_size=2, max_size=4),
       bits=st.sampled_from([4, 6, 8]), seed=st.integers(0, 2**16))
def test_a_loaded_net_serves_its_stored_grid(stacks_dir, widths, bits, seed):
    rng = np.random.default_rng(seed)
    net = build_embedding_net(widths[0], widths[1:-1], widths[-1], seed=seed)
    for i, layer in enumerate(net.layers):
        # Rows from 1e-6 to 1e6 in magnitude, some constant, and zeros of
        # either sign; biases keep a row whose relus are all off from
        # embedding to zero.
        w = layer.weight.data * 10.0 ** rng.uniform(-6, 6, (layer.out_dim, 1))
        constant = rng.random(layer.out_dim) < 0.2
        w[constant] = rng.choice([0.0, 0.5, -2.5, 1e4], (constant.sum(), 1))
        w = np.where(rng.random(w.shape) < 0.1, rng.choice([0.0, -0.0], w.shape), w)
        net.layers[i] = Linear(Tensor(w.astype(np.float32)),
                               Tensor(rng.standard_normal(layer.out_dim).astype(np.float32)))
    net.set_quantization(bits)
    observers = [RangeObserver() for _ in range(net.activation_site_count)]
    observe_activations(net, Tensor(rng.standard_normal((8, widths[0])).astype(np.float32)),
                        observers)
    net.activation_params = [o.freeze(bits) for o in observers]
    path = stacks_dir / "grid.qfmd"
    try:
        save_model(net, path, mode="quantized")
    except DomainError:
        assume(False)  # a grid float32 cannot hold; the saver refuses it
    back = load_model(path)
    for layer in back.layers:
        grid = dequantize(quantize(layer.weight, layer.grid)).data
        assert np.array_equal(grid.view(np.uint32), layer.weight.data.view(np.uint32))
    # One input row at a time, so that a row that embeds to zero, which
    # both nets refuse alike, does not hide the others.
    for row in rng.standard_normal((5, widths[0])).astype(np.float32):
        x = Tensor(row[None])
        for run in (embed, lambda n, x: forward_embed(n, x, quantized=True)[0]):
            assert _outcome(run, back, x) == _outcome(run, net, x)
