"""Graph nodes: fake-quant STE, analytic gradients, SGD, full forwards."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from quantdistill.errors import DimensionError, DomainError, StateError
from quantdistill.graph import (
    EmbeddingNet,
    Linear,
    backward_embed,
    build_embedding_net,
    clone_net,
    fake_quant,
    fake_quant_backward,
    forward_embed,
    in_range_mask,
    l2_normalize_backward,
    linear_backward,
    net_fingerprint,
    observe_activations,
    sgd_step,
    softmax_cross_entropy,
)
from quantdistill.quantizer import RangeObserver, derive_params, params_from_range
from quantdistill.tensor_core import Epilogue, Tensor, l2_normalize, matmul, transpose


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def central_difference(f, x: np.ndarray, h: float = 1e-2) -> np.ndarray:
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy(); xp[idx] += h
        xm = x.copy(); xm[idx] -= h
        grad[idx] = (f(xp) - f(xm)) / (2 * h)
        it.iternext()
    return grad


class TestFakeQuant:
    def test_unit_value_survives_exactly(self):
        p = params_from_range(0.0, 2.55, 8)
        out = fake_quant(Tensor([1.0]), p)
        assert out.tolist() == [1.0]

    def test_backward_inside_range_passes_through(self):
        p = params_from_range(0.0, 2.55, 8)
        g = Tensor([0.37])
        out = fake_quant_backward(Tensor([1.0]), p, g)
        assert np.array_equal(out.data, g.data)

    def test_backward_outside_range_blocks(self):
        p = params_from_range(0.0, 2.55, 8)
        out = fake_quant_backward(Tensor([5.0]), p, Tensor([0.37]))
        assert out.tolist() == [0.0]

    def test_ste_mask_on_straddling_grid(self):
        p = params_from_range(-0.75, 1.25, 6)
        xs = np.linspace(-2.0, 2.5, 10_000).astype(np.float32)
        upstream = np.random.default_rng(1).standard_normal(10_000).astype(np.float32)
        got = fake_quant_backward(Tensor(xs), p, Tensor(upstream)).data
        expected = np.where((xs >= np.float32(p.range_lo)) & (xs <= np.float32(p.range_hi)),
                            upstream, np.float32(0.0))
        assert np.array_equal(got, expected)

    def test_per_channel_mask(self):
        ps = params_from_range(np.array([-1.0, 0.0]), np.array([1.0, 2.0]), 8)
        x = Tensor([[-2.0, 0.5], [1.0, 3.0]])
        mask = in_range_mask(x, ps)
        assert mask.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_forward_snaps_to_grid(self):
        p = params_from_range(-1.0, 1.0, 4)
        xs = Tensor(np.linspace(-1.5, 1.5, 101).astype(np.float32))
        out = fake_quant(xs, p)
        from quantdistill.quantizer import QuantizedTensor, dequantize
        codes = np.arange(p.code_min, p.code_max + 1)
        grid = set(dequantize(QuantizedTensor(codes=codes, shape=codes.shape, params=p)).data.tolist())
        assert set(out.data.tolist()) <= grid


def linear_forward(x, w, b):
    """The forward of one linear, as the training walk runs it: y = x @ W^T + b."""
    return matmul(x, transpose(w), Epilogue(b, False, None, False))


class TestLinear:
    def test_dot_product(self):
        out = linear_forward(Tensor([[1.0, 0.0]]), Tensor([[2.0, 3.0]]), Tensor([0.0]))
        assert out.tolist() == [[2.0]]

    def test_identity_weight(self):
        x = Tensor([[1.0, -2.0], [0.5, 3.0]])
        out = linear_forward(x, Tensor(np.eye(2, dtype=np.float32)), Tensor([0.0, 0.0]))
        assert np.array_equal(out.data, x.data)

    def test_bias_gradient_is_ones_for_sum(self):
        x = Tensor(np.random.default_rng(2).standard_normal((3, 4)).astype(np.float32))
        w = Tensor(np.random.default_rng(3).standard_normal((5, 4)).astype(np.float32))
        upstream = Tensor(np.ones((3, 5), dtype=np.float32))
        _, _, d_b = linear_backward(x, w, upstream)
        assert d_b.tolist() == [3.0] * 5

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            linear_forward(Tensor([[1.0, 2.0, 3.0]]), Tensor([[1.0, 2.0]]), Tensor([0.0]))

    @pytest.mark.parametrize("trial", range(5))
    def test_gradients_match_finite_differences(self, trial):
        rng = np.random.default_rng(100 + trial)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        w = rng.standard_normal((2, 4)).astype(np.float32)
        b = rng.standard_normal(2).astype(np.float32)
        probe = rng.standard_normal((3, 2)).astype(np.float32)

        def loss_x(xv):
            y = linear_forward(Tensor(xv.astype(np.float32)), Tensor(w), Tensor(b))
            return float(np.sum(y.data.astype(np.float64) * probe))

        def loss_w(wv):
            y = linear_forward(Tensor(x), Tensor(wv.astype(np.float32)), Tensor(b))
            return float(np.sum(y.data.astype(np.float64) * probe))

        d_x, d_w, _ = linear_backward(Tensor(x), Tensor(w), Tensor(probe))
        assert relative_error(d_x.data.astype(np.float64), central_difference(loss_x, x.astype(np.float64))) < 1e-4
        assert relative_error(d_w.data.astype(np.float64), central_difference(loss_w, w.astype(np.float64))) < 1e-4


def _pinned_layer():
    """A 3x4 layer whose weight was snapped to the 4-bit grid it is pinned to."""
    w = Tensor(np.random.default_rng(0).standard_normal((3, 4)).astype(np.float32))
    snapped = np.empty(w.shape, dtype=np.float32)
    grid = derive_params(w, 4, snapped)
    return Linear(Tensor(snapped), Tensor(np.zeros(3, dtype=np.float32)), grid)


class TestFrozenLinear:
    @pytest.mark.parametrize("name", ["weight", "bias", "grid"])
    def test_no_field_can_be_assigned(self, name):
        layer = _pinned_layer()
        with pytest.raises(FrozenInstanceError):
            setattr(layer, name, getattr(layer, name))
        with pytest.raises(FrozenInstanceError):
            setattr(Linear(layer.weight, layer.bias), name, None)

    def test_a_per_tensor_grid_is_refused(self):
        with pytest.raises(DimensionError, match="per-channel"):
            replace(_pinned_layer(), grid=params_from_range(-1.0, 1.0, 4))

    def test_a_grid_with_the_wrong_row_count_is_refused(self):
        grid = _pinned_layer().grid
        with pytest.raises(DimensionError, match="one record per row"):
            replace(_pinned_layer(), grid=params_from_range(grid.range_lo[:2],
                                                            grid.range_hi[:2], 4))

    def test_a_weight_off_its_grid_is_refused(self):
        layer = _pinned_layer()
        moved = Tensor(layer.weight.data * np.float32(1.37))
        with pytest.raises(DomainError, match="^weight is off its grid$"):
            replace(layer, weight=moved)
        with pytest.raises(DomainError, match="^weight is off its grid$"):
            Linear(moved, layer.bias, layer.grid)

    def test_set_quantization_unpins_every_layer(self):
        layer = _pinned_layer()
        net = EmbeddingNet([layer])
        grads = {0: (Tensor(np.ones((3, 4), dtype=np.float32)),
                     Tensor(np.ones(3, dtype=np.float32)))}
        with pytest.raises(StateError, match="pinned weight parameters"):
            sgd_step(net, grads, lr=0.1, momentum=0.0, weight_decay=0.0)
        net.set_quantization(8)
        assert net.layers[0].grid is None
        assert net.layers[0].weight is layer.weight and net.layers[0].bias is layer.bias
        sgd_step(net, grads, lr=0.1, momentum=0.0, weight_decay=0.0)
        assert layer.grid is not None and net.layers[0] is not layer


class TestNormalizeBackward:
    @pytest.mark.parametrize("trial", range(5))
    def test_matches_finite_differences(self, trial):
        rng = np.random.default_rng(200 + trial)
        x = rng.standard_normal((3, 5)).astype(np.float32) + 0.1
        probe = rng.standard_normal((3, 5)).astype(np.float32)

        def loss(xv):
            y = l2_normalize(Tensor(xv.astype(np.float32)))
            return float(np.sum(y.data.astype(np.float64) * probe))

        analytic = l2_normalize_backward(Tensor(x), Tensor(probe))
        fd = central_difference(loss, x.astype(np.float64), h=1e-3)
        assert relative_error(analytic.data.astype(np.float64), fd) < 1e-4

    @pytest.mark.parametrize("x_shape, g_shape", [((4, 3), (1, 3)), ((4, 3), (4, 1)),
                                                  ((4, 3), (3, 4)), ((3,), (3,))])
    def test_an_upstream_of_another_shape_or_rank_is_refused(self, x_shape, g_shape):
        # numpy would broadcast a (1, 3) upstream over a (4, 3) input.
        with pytest.raises(DimensionError):
            l2_normalize_backward(Tensor(np.ones(x_shape)), Tensor(np.ones(g_shape)))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = softmax_cross_entropy(Tensor([[0.0, 0.0, 0.0, 0.0]]), [2])
        assert loss == pytest.approx(np.log(4.0))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((4, 6)).astype(np.float32)
        labels = [0, 3, 5, 2]

        def loss(lv):
            return softmax_cross_entropy(Tensor(lv.astype(np.float32)), labels)[0]

        _, grad = softmax_cross_entropy(Tensor(logits), labels)
        fd = central_difference(loss, logits.astype(np.float64), h=1e-3)
        assert relative_error(grad.data.astype(np.float64), fd) < 1e-4


class TestSgdStep:
    def _one_param_net(self, w0):
        return EmbeddingNet([Linear(weight=Tensor([[w0]]), bias=Tensor([0.0]))])

    def test_zero_lr_leaves_weights(self):
        net = self._one_param_net(1.0)
        grads = {0: (Tensor([[0.5]]), Tensor([0.0]))}
        sgd_step(net, grads, lr=0.0, momentum=0.9, weight_decay=5e-4)
        assert net.layers[0].weight.tolist() == [[1.0]]

    def test_single_step_arithmetic(self):
        # oracle: v = 0.5, w = 1 - 0.1 * 0.5 = 0.95
        net = self._one_param_net(1.0)
        sgd_step(net, {0: (Tensor([[0.5]]), Tensor([0.0]))}, lr=0.1, momentum=0.0,
                 weight_decay=0.0)
        assert net.layers[0].weight.tolist()[0][0] == pytest.approx(0.95, rel=1e-6)

    def test_two_momentum_steps(self):
        # oracle: v1 = 1, w1 = -0.1; v2 = 0.9 + 1 = 1.9, w2 = -0.1 - 0.19 = -0.29
        net = self._one_param_net(0.0)
        g = {0: (Tensor([[1.0]]), Tensor([0.0]))}
        sgd_step(net, g, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert net.layers[0].weight.tolist()[0][0] == pytest.approx(-0.1, rel=1e-6)
        sgd_step(net, g, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert net.layers[0].weight.tolist()[0][0] == pytest.approx(-0.29, rel=1e-6)

    def test_grad_shape_mismatch(self):
        net = self._one_param_net(0.0)
        with pytest.raises(DimensionError):
            sgd_step(net, {0: (Tensor([[1.0, 2.0]]), Tensor([0.0]))}, lr=0.1, momentum=0.0,
                     weight_decay=0.0)


def _calibrated_net(bits=8, hidden=(16,), in_dim=6, embed=4, seed=0):
    net = build_embedding_net(in_dim, hidden, embed, seed=seed)
    net.set_quantization(bits)
    rng = np.random.default_rng(seed + 1)
    observers = [RangeObserver() for _ in range(net.activation_site_count)]
    for _ in range(8):
        x = Tensor(rng.standard_normal((16, in_dim)).astype(np.float32))
        observe_activations(net, x, observers)
    net.activation_params = [o.freeze(bits) for o in observers]
    return net


class TestForwardEmbed:
    def test_identity_weight_normalizes_only(self):
        net = EmbeddingNet([Linear(weight=Tensor(np.eye(2, dtype=np.float32)),
                                   bias=Tensor([0.0, 0.0]))])
        out, _ = forward_embed(net, Tensor([[3.0, 4.0]]), quantized=False)
        assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-7)

    def test_deterministic(self):
        net = build_embedding_net(6, (8,), 4, seed=3)
        x = Tensor(np.random.default_rng(4).standard_normal((5, 6)).astype(np.float32))
        a, _ = forward_embed(net, x, quantized=False)
        b, _ = forward_embed(net, x, quantized=False)
        assert np.array_equal(a.data, b.data)

    def test_quantized_requires_calibration(self):
        net = build_embedding_net(6, (8,), 4, seed=3)
        x = Tensor(np.zeros((1, 6), dtype=np.float32))
        with pytest.raises(StateError):
            forward_embed(net, x, quantized=True)
        net.set_quantization(8)
        with pytest.raises(StateError):
            forward_embed(net, x, quantized=True)

    def test_quantized_8bit_close_to_fp(self):
        # measured against the fp oracle: 8-bit round-trip noise stays small
        net = _calibrated_net(bits=8, hidden=(), in_dim=6, embed=4)
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((32, 6)).astype(np.float32))
        fp, _ = forward_embed(net, x, quantized=False)
        q, _ = forward_embed(net, x, quantized=True)
        cos = np.sum(fp.data.astype(np.float64) * q.data.astype(np.float64), axis=1)
        assert np.all(1.0 - cos < 0.02)

    def test_quantized_deterministic(self):
        net = _calibrated_net()
        x = Tensor(np.random.default_rng(11).standard_normal((7, 6)).astype(np.float32))
        a, _ = forward_embed(net, x, quantized=True)
        b, _ = forward_embed(net, x, quantized=True)
        assert np.array_equal(a.data, b.data)

    def test_toggling_quantization_off_restores_fp_exactly(self):
        net = _calibrated_net()
        x = Tensor(np.random.default_rng(12).standard_normal((7, 6)).astype(np.float32))
        before = forward_embed(net, x, quantized=False)[0].data.copy()
        forward_embed(net, x, quantized=True)
        after = forward_embed(net, x, quantized=False)[0].data
        assert np.array_equal(before, after)

    def test_fake_quant_never_mutates_shadow_weights(self):
        net = _calibrated_net()
        fp_before = net_fingerprint(net)
        x = Tensor(np.random.default_rng(13).standard_normal((4, 6)).astype(np.float32))
        forward_embed(net, x, quantized=True)
        assert net_fingerprint(net) == fp_before

    def test_input_dim_mismatch(self):
        net = build_embedding_net(6, (8,), 4, seed=3)
        with pytest.raises(DimensionError):
            forward_embed(net, Tensor(np.zeros((2, 5), dtype=np.float32)), quantized=False)


class TestBackwardEmbed:
    def test_tape_consumed_once(self):
        net = build_embedding_net(6, (8,), 4, seed=3)
        x = Tensor(np.random.default_rng(4).standard_normal((5, 6)).astype(np.float32))
        out, tape = forward_embed(net, x, quantized=False)
        g = Tensor(np.ones_like(out.data))
        backward_embed(net, tape, g)
        with pytest.raises(StateError):
            backward_embed(net, tape, g)

    def test_no_weight_gradient_identically_zero_under_ste(self):
        net = _calibrated_net(bits=8, hidden=(16, 16))
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((16, 6)).astype(np.float32))
        out, tape = forward_embed(net, x, quantized=True)
        g = Tensor(rng.standard_normal(out.shape).astype(np.float32))
        grads = backward_embed(net, tape, g)
        for idx, (d_w, _) in grads.items():
            assert np.any(d_w.data != 0.0), f"layer {idx} gradient vanished"

    def test_fp_net_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        net = build_embedding_net(5, (6,), 3, seed=7)
        x = rng.standard_normal((4, 5)).astype(np.float32)
        probe = rng.standard_normal((4, 3)).astype(np.float32)
        out, tape = forward_embed(net, Tensor(x), quantized=False)
        grads = backward_embed(net, tape, Tensor(probe))
        w0 = net.layers[0].weight.data.astype(np.float64)

        def loss(wv):
            trial = clone_net(net)
            trial.layers[0] = Linear(weight=Tensor(wv.astype(np.float32)),
                                     bias=net.layers[0].bias)
            y, _ = forward_embed(trial, Tensor(x), quantized=False)
            return float(np.sum(y.data.astype(np.float64) * probe))

        fd = central_difference(loss, w0, h=1e-3)
        assert relative_error(grads[0][0].data.astype(np.float64), fd) < 1e-4

    def test_first_linear_input_gradient_skipped(self, monkeypatch):
        # two products per linear, less the first linear's unused d_x; the
        # gradients equal a replay that runs linear_backward everywhere
        import quantdistill.graph as graph_mod

        net = _calibrated_net(bits=8, hidden=(16, 16))
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((16, 6)).astype(np.float32))
        g = Tensor(rng.standard_normal((16, net.embed_dim)).astype(np.float32))
        expected = _backward_with_every_input_gradient(
            net, forward_embed(net, x, quantized=True)[1], g)
        _, tape = forward_embed(net, x, quantized=True)
        calls = []
        real = graph_mod.matmul
        monkeypatch.setattr(graph_mod, "matmul", lambda a, b: calls.append(1) or real(a, b))
        grads = backward_embed(net, tape, g)
        assert len(calls) == 2 * len(net.layers) - 1
        assert grads.keys() == expected.keys()
        for idx, (d_w, d_b) in grads.items():
            assert np.array_equal(d_w.data, expected[idx][0].data)
            assert np.array_equal(d_b.data, expected[idx][1].data)


    def test_ste_gates_are_fake_quant_backward(self):
        # Training gates its gradients by acceptance criterion 3's function:
        # each tape mask is in_range_mask of the gated value under the net's
        # parameters, so backward_embed equals a replay through
        # fake_quant_backward. Inputs past the calibrated range make the
        # activation masks block some elements.
        net = _calibrated_net(bits=6, hidden=(16, 16))
        rng = np.random.default_rng(10)
        x = Tensor(3 * rng.standard_normal((16, 6)).astype(np.float32))
        g = Tensor(rng.standard_normal((16, net.embed_dim)).astype(np.float32))
        _, tape = forward_embed(net, x, quantized=True)
        acts = [r for r in tape.records if r.kind == "act_quant"]
        linears = [r for r in tape.records if r.kind == "linear"]
        assert len(acts) == len(linears) == len(net.layers)
        for i, (act, lin) in enumerate(zip(acts, linears)):
            assert np.array_equal(act.mask, in_range_mask(act.inputs, net.activation_params[i]))
            assert np.array_equal(lin.mask, in_range_mask(net.layers[i].weight,
                                                          net.weight_params(i)))
        assert any(not act.mask.all() for act in acts)
        expected = _backward_with_every_input_gradient(net, tape, g)
        grads = backward_embed(net, tape, g)
        for idx, (d_w, d_b) in grads.items():
            assert np.array_equal(d_w.data, expected[idx][0].data)
            assert np.array_equal(d_b.data, expected[idx][1].data)


def _backward_with_every_input_gradient(net, tape, g):
    """Oracle: the tape replayed with linear_backward on every linear, each
    STE gate applied by fake_quant_backward under the net's parameters
    rather than read from the tape."""
    grads = {}
    site = len(net.layers)
    for rec in reversed(tape.records):
        if rec.kind == "normalize":
            g = l2_normalize_backward(rec.inputs, g)
        elif rec.kind == "act_quant":
            site -= 1
            g = fake_quant_backward(rec.inputs, net.activation_params[site], g)
        elif rec.kind == "relu":
            g = Tensor._wrap(g.data * (rec.inputs.data > 0).astype(np.float32))
        else:
            i = rec.layer_index
            g, d_w, d_b = linear_backward(rec.inputs, rec.weight_used, g)
            grads[i] = (fake_quant_backward(net.layers[i].weight, net.weight_params(i), d_w), d_b)
    return grads


class TestCloneNet:
    def test_clone_is_independent(self):
        net = build_embedding_net(6, (8,), 4, seed=1)
        twin = clone_net(net)
        sgd_step(twin, {0: (Tensor(np.ones((8, 6), dtype=np.float32)),
                            Tensor(np.ones(8, dtype=np.float32)))},
                 lr=0.5, momentum=0.0, weight_decay=0.0)
        assert net_fingerprint(net) != net_fingerprint(twin)

    def test_clone_shares_the_immutable_layers(self):
        net = build_embedding_net(6, (8,), 4, seed=1)
        twin = clone_net(net)
        assert twin.layers is not net.layers
        assert all(a is b for a, b in zip(twin.layers, net.layers, strict=True))

    def test_clone_preserves_outputs(self):
        net = _calibrated_net()
        twin = clone_net(net)
        x = Tensor(np.random.default_rng(3).standard_normal((5, 6)).astype(np.float32))
        a, _ = forward_embed(net, x, quantized=True)
        b, _ = forward_embed(twin, x, quantized=True)
        assert np.array_equal(a.data, b.data)
