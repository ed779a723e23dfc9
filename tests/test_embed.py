"""The tape-free forward ``embed`` equals the training forward bit for bit,
and fails where it fails, with the same message.

``embed`` runs each layer's bias, finite check, relu and activation
fake-quant, and the last layer's L2 normalization, inside the product;
``forward_embed`` runs only the bias and the check there and the rest as
separate passes.
"""

from dataclasses import replace

import numpy as np
import pytest

from quantdistill import tensor_core
from quantdistill.errors import DimensionError, DomainError
from quantdistill.graph import build_embedding_net, embed, forward_embed, observe_activations
from quantdistill.quantizer import RangeObserver
from quantdistill.tensor_core import RANGE_ROWS, Tensor

IN_DIM, HIDDEN, EMBED_DIM = 12, (16, 16), 8


def _net(bits, last_bias=4.0):
    """A three-linear net; calibrated at ``bits`` unless that is None.

    The default last bias keeps every embedding away from zero, whose rows
    the final normalization rejects, at 4 bits too; with a zero last bias
    a zero input row embeds to zero."""
    net = build_embedding_net(IN_DIM, HIDDEN, EMBED_DIM, seed=3)
    net.layers[-1] = replace(net.layers[-1],
                             bias=Tensor(np.full(EMBED_DIM, last_bias, dtype=np.float32)))
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


# Rows of a batch that the products split into two ranges of 1502 and 1503
# rows when WORKERS is 2; rows from 1502 on are in the second range.
SPLIT_ROWS = 2 * RANGE_ROWS + 5


def _same_failure(net, x, layer=None):
    """Both forwards raise ``DomainError`` naming ``layer``, or, without
    one, the zero-norm row."""
    message = ("^cannot normalize a zero-norm row$" if layer is None
               else f"^output of layer {layer} is not finite$")
    with pytest.raises(DomainError, match=message):
        embed(net, x)
    with pytest.raises(DomainError, match=message):
        forward_embed(net, x, net.is_calibrated)


@pytest.mark.parametrize("bits", [None, 8, 4])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, SPLIT_ROWS // 2 + 1, 2 * RANGE_ROWS + 4])
def test_a_non_finite_input_row_fails_like_forward_embed(monkeypatch, bits, value, row):
    monkeypatch.setattr(tensor_core, "WORKERS", 2)
    net = _net(bits)
    x = np.random.default_rng(5).standard_normal((SPLIT_ROWS, IN_DIM)).astype(np.float32)
    embed(net, Tensor(x))
    x[row, 3] = value
    _same_failure(net, Tensor._wrap(x), 0)


@pytest.mark.parametrize("bits", [None, 8, 6, 4])
@pytest.mark.parametrize("layer", [1, 2])
@pytest.mark.parametrize("rows", [1, 7, SPLIT_ROWS])
def test_a_sum_that_overflows_at_a_layer_fails_like_forward_embed(monkeypatch, bits, layer, rows):
    # The layer's first output unit weighs every input by 1.5e38 or 3e38:
    # relu outputs of a few units at 1 or more overflow its float32 sum.
    monkeypatch.setattr(tensor_core, "WORKERS", 2)
    net = _net(bits)
    x = Tensor((10 * np.random.default_rng(rows).standard_normal((rows, IN_DIM)))
               .astype(np.float32))
    embed(net, x)
    w = net.layers[layer].weight.data.copy()
    w[0] = np.resize(np.float32([3e38, 1.5e38]), w.shape[1])
    net.layers[layer] = replace(net.layers[layer], weight=Tensor(w))
    _same_failure(net, x, layer)


@pytest.mark.parametrize("layer", [1, 2])
def test_one_row_overflowing_in_the_second_range_fails_like_forward_embed(monkeypatch, layer):
    # An fp32 net whose layer weights are 1e20 times larger stays finite on
    # the batch; one row 1e19 times larger, past the first range, overflows
    # the layer's sums there and nowhere before.
    monkeypatch.setattr(tensor_core, "WORKERS", 2)
    net = _net(None)
    net.layers[layer] = replace(net.layers[layer],
                                weight=Tensor(net.layers[layer].weight.data * np.float32(1e20)))
    x = np.random.default_rng(6).standard_normal((SPLIT_ROWS, IN_DIM)).astype(np.float32)
    embed(net, Tensor(x))
    x[SPLIT_ROWS - 2] *= np.float32(1e19)
    _same_failure(net, Tensor(x), layer)


@pytest.mark.parametrize("bits", [None, 8, 6, 4])
@pytest.mark.parametrize("row", [0, RANGE_ROWS - 1, SPLIT_ROWS // 2 + 1, SPLIT_ROWS - 2])
def test_a_zero_norm_embedding_fails_like_forward_embed(monkeypatch, bits, row):
    # A zero input row in the first range, in its last (partial) block, in
    # the second range and in the second range's last block. The other
    # rows are large, so that none of them rounds to zero at 4 bits.
    monkeypatch.setattr(tensor_core, "WORKERS", 2)
    net = _net(bits, last_bias=0.0)
    x = (10 * np.random.default_rng(8).standard_normal((SPLIT_ROWS, IN_DIM))).astype(np.float32)
    embed(net, Tensor(x))
    x[row] = 0.0
    _same_failure(net, Tensor(x))


@pytest.mark.parametrize("bits", [None, 8, 6, 4])
@pytest.mark.parametrize("rows", [7, SPLIT_ROWS])
def test_a_sum_that_overflows_outweighs_a_zero_norm_embedding(monkeypatch, bits, rows):
    # Row 5 embeds to zero in the block where other rows overflow the last
    # layer's sums: both forwards name the overflow, which forward_embed
    # meets first.
    monkeypatch.setattr(tensor_core, "WORKERS", 2)
    net = _net(bits, last_bias=0.0)
    x = (10 * np.random.default_rng(rows).standard_normal((rows, IN_DIM))).astype(np.float32)
    x[5] = 0.0
    w = net.layers[2].weight.data.copy()
    w[0] = np.resize(np.float32([3e38, 1.5e38]), w.shape[1])
    net.layers[2] = replace(net.layers[2], weight=Tensor(w))
    _same_failure(net, Tensor(x), 2)
