"""The tape-free forward ``embed`` equals the training forward bit for bit."""

import numpy as np
import pytest

from quantdistill.errors import DimensionError, DomainError
from quantdistill.graph import build_embedding_net, embed, forward_embed, observe_activations
from quantdistill.quantizer import RangeObserver
from quantdistill.tensor_core import RANGE_ROWS, Tensor

IN_DIM, HIDDEN, EMBED_DIM = 12, (16, 16), 8


def _net(bits):
    """A three-linear net; calibrated at ``bits`` unless that is None.

    The last bias keeps every embedding away from zero, whose rows the
    final normalization rejects, at 4 bits too."""
    net = build_embedding_net(IN_DIM, HIDDEN, EMBED_DIM, seed=3)
    last = net.layers[-1]
    last.bias = Tensor(np.full(EMBED_DIM, 4.0, dtype=np.float32))
    if bits is not None:
        net.set_quantization(bits)
        observers = [RangeObserver() for _ in range(net.activation_site_count)]
        rng = np.random.default_rng(4)
        for _ in range(4):
            observe_activations(net, Tensor(rng.standard_normal((32, IN_DIM)).astype(np.float32)),
                                observers)
        net.activation_params = [o.freeze(bits) for o in observers]
    return net


@pytest.mark.parametrize("bits", [None, 8, 6, 4])
@pytest.mark.parametrize("rows", [1, 2, 2 * RANGE_ROWS + 5])
def test_embed_equals_forward_embed(bits, rows):
    net = _net(bits)
    x = Tensor(np.random.default_rng(rows).standard_normal((rows, IN_DIM)).astype(np.float32))
    got = embed(net, x).data
    expected = forward_embed(net, x, bits is not None)[0].data
    assert got.shape == (rows, EMBED_DIM)
    assert np.array_equal(got.view(np.uint32), expected.view(np.uint32))


def test_embed_checks_like_forward_embed():
    net = _net(None)
    with pytest.raises(DimensionError):
        embed(net, Tensor(np.zeros((2, IN_DIM + 1), dtype=np.float32)))


def test_calibration_walk_leaves_normalization_out():
    # A fresh net has zero biases, so a zero input embeds to a zero row: the
    # forwards reject it, calibration still records every site.
    net = build_embedding_net(IN_DIM, HIDDEN, EMBED_DIM, seed=3)
    x = Tensor(np.zeros((2, IN_DIM), dtype=np.float32))
    with pytest.raises(DomainError):
        embed(net, x)
    observers = [RangeObserver() for _ in range(net.activation_site_count)]
    observe_activations(net, x, observers)
    assert [(o.running_lo, o.running_hi, o.count) for o in observers] == [(0.0, 0.0, 1)] * 3
