"""Differentiable computation graph for small embedding networks.

An :class:`EmbeddingNet` is an ordered stack of fully connected layers
with a relu between each two, finished by L2 normalization of the
embedding rows. The full-precision ("shadow") weights are the single
source of truth; when the net runs in quantized mode every weight passes
through a fake-quantization node (quantize-then-dequantize, per-channel
over output rows, parameters derived live from the current shadow
weights) and every activation site passes through a fake-quantization
node with parameters frozen at calibration time. Layers are immutable; a
loaded quantized net's layers carry the grids their weights lie on, and
it uses those weights as they are. Biases stay full precision.

Each linear is one ``matmul`` call, whose epilogue adds the bias and runs
the relu. Backward passes replay a :class:`GradTape` recorded during the
forward, which runs each activation fake-quant node and the final
normalization as a call of its own, since the tape records the tensors
before them. The inference forward :func:`embed` records none, so the
epilogue runs those nodes too, with the same bits, and runs quantized
exactly when the net is calibrated.
The fake-quantization nodes use the straight-through estimator: the
gradient passes unchanged where the input lies inside the node's clipping
range [range_lo, range_hi] and is zeroed outside, which keeps weight
gradients alive despite the piecewise-constant forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionError, DomainError, StateError
from .quantizer import (
    SUPPORTED_BIT_WIDTHS,
    QuantParams,
    RangeObserver,
    derive_params,
    dequantize,
    quantize,
)
from .tensor_core import _MATMUL, Epilogue, Tensor, l2_normalize, matmul, transpose


@dataclass(frozen=True)
class Linear:
    """Fully connected layer y = x @ W^T + b with shadow weights W [out, in].

    A loaded quantized model's layers are pinned: ``grid`` holds the
    per-channel parameters whose grid the weight lies on exactly.
    """

    weight: Tensor
    bias: Tensor
    grid: QuantParams | None = None

    def __post_init__(self):
        if self.weight.rank != 2 or self.bias.rank != 1:
            raise DimensionError(
                f"linear expects weight rank 2 and bias rank 1, got {self.weight.shape} / {self.bias.shape}")
        if self.bias.shape[0] != self.weight.shape[0]:
            raise DimensionError(
                f"bias size {self.bias.shape[0]} != output dim {self.weight.shape[0]}")
        if self.grid is not None:
            if not self.grid.per_channel or len(self.grid.scale) != self.weight.shape[0]:
                raise DimensionError(f"a grid for {self.weight.shape[0]} output rows must be "
                                     "per-channel with one record per row")
            with np.errstate(over="ignore"):  # dequantize raises DomainError instead
                grid = dequantize(quantize(self.weight, self.grid))
            if not np.array_equal(grid.data.view(np.uint32), self.weight.data.view(np.uint32)):
                raise DomainError("weight is off its grid")

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


class EmbeddingNet:
    """Linears with a relu between each two, ending in an L2-normalized
    embedding head.

    ``layers`` holds the linears. Activation site ``i`` follows linear
    ``i``, after its relu if it has one.

    Quantization state:

    * ``quant_bits`` — bit width used for both weights and activations
      when running in quantized mode (None = not configured).
    * ``activation_params`` — frozen per-site activation QuantParams, one
      per activation site, produced by calibration.

    A layer's weight parameters are its ``grid`` if it is pinned, else
    re-derived from its live shadow weight on every forward pass.
    """

    def __init__(self, layers: Sequence[Linear]):
        layers = list(layers)
        if not layers:
            raise DimensionError("network needs at least one linear layer")
        for prev, layer in zip(layers, layers[1:]):
            if layer.in_dim != prev.out_dim:
                raise DimensionError(
                    f"layer input dim {layer.in_dim} does not compose with previous output {prev.out_dim}")
        self.layers = layers
        self.quant_bits: int | None = None
        self.activation_params: list[QuantParams] | None = None
        self._velocity: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # -- structure ---------------------------------------------------------

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def embed_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def activation_site_count(self) -> int:
        """Fake-quant sites: one after each relu, one after the final linear."""
        return len(self.layers)

    @property
    def weight_param_count(self) -> int:
        return sum(l.weight.size for l in self.layers)

    def set_quantization(self, bit_width: int) -> "EmbeddingNet":
        """Quantize at ``bit_width``, uncalibrated, with every layer unpinned."""
        if bit_width not in SUPPORTED_BIT_WIDTHS:
            raise DomainError(f"unsupported bit width {bit_width}")
        self.quant_bits = bit_width
        self.activation_params = None
        self.layers = [l if l.grid is None else Linear(l.weight, l.bias) for l in self.layers]
        return self

    def weight_params(self, linear_index: int) -> QuantParams:
        """Per-channel (output row) parameters of one linear layer's weight:
        its pinned grid, else derived from the live shadow weight."""
        layer = self.layers[linear_index]
        if layer.grid is not None:
            return layer.grid
        return derive_params(layer.weight, self.quant_bits, None)

    @property
    def is_calibrated(self) -> bool:
        return self.quant_bits is not None and self.activation_params is not None

    def same_architecture(self, other: "EmbeddingNet") -> bool:
        return ([l.weight.shape for l in self.layers]
                == [l.weight.shape for l in other.layers])


def build_embedding_net(input_dim: int, hidden_dims: Sequence[int], embed_dim: int,
                        seed: int) -> EmbeddingNet:
    """Fresh network in -> hidden... -> embed with relu between linears.

    Weights use scaled-normal init (std = 1/sqrt(fan_in)), biases start at
    zero; fully determined by the seed.
    """
    rng = np.random.default_rng(seed)
    dims = [input_dim, *hidden_dims, embed_dim]
    layers = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        w = rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in)
        layers.append(Linear(weight=Tensor(w.astype(np.float32)),
                             bias=Tensor._wrap(np.zeros(fan_out, dtype=np.float32))))
    return EmbeddingNet(layers)


def clone_net(net: EmbeddingNet) -> EmbeddingNet:
    """Copy sharing only immutable state: the layers and activation parameters."""
    out = EmbeddingNet(net.layers)
    out.quant_bits = net.quant_bits
    out.activation_params = list(net.activation_params) if net.activation_params else None
    return out


def net_fingerprint(net: EmbeddingNet) -> str:
    """SHA-256 over all shadow weights and biases, for immutability checks."""
    import hashlib

    h = hashlib.sha256()
    for layer in net.layers:
        h.update(layer.weight.data.tobytes())
        h.update(layer.bias.data.tobytes())
    return h.hexdigest()


# -- differentiable nodes ----------------------------------------------------


def fake_quant(x: Tensor, params: QuantParams) -> Tensor:
    """Quantize-then-dequantize under per-tensor parameters: real-valued
    output snapped to the code grid.

    One compiled float64 pass with the arithmetic of ``quantize`` then
    ``dequantize`` in the same order (divide by s, subtract z, round half
    to even, clip to the codes, add z, multiply by s), so the output is
    bit-identical to the two-step path without building integer codes or
    holding a float64 copy of ``x``. Per-channel parameters raise
    ``DimensionError``: a weight's rows are fake-quantized by
    ``derive_params``, in the call that derives their parameters.
    """
    if params.per_channel:
        raise DimensionError("fake_quant takes per-tensor parameters")
    out = np.empty(x.shape, dtype=np.float32)
    _MATMUL.fake_quant(x.data, out, params.bit_width, params.scale, params.zero_point)
    return Tensor._wrap(out)


def in_range_mask(x: Tensor, params: QuantParams) -> np.ndarray:
    """Indicator of [range_lo, range_hi] per element (the STE pass-through set)."""
    _, _, lo, hi = params.broadcast(x.shape)
    return ((x.data >= lo) & (x.data <= hi)).astype(np.float32)


def fake_quant_backward(x: Tensor, params: QuantParams, upstream: Tensor) -> Tensor:
    """Straight-through estimator: upstream gradient gated by the range mask."""
    if upstream.shape != x.shape:
        raise DimensionError(f"upstream shape {upstream.shape} != input shape {x.shape}")
    return Tensor._wrap(upstream.data * in_range_mask(x, params))


def linear_backward(x: Tensor, weight: Tensor,
                    upstream: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """Gradients of y = x @ W^T + b: returns (d_x, d_weight, d_bias)."""
    if upstream.shape != (x.shape[0], weight.shape[0]):
        raise DimensionError(
            f"upstream shape {upstream.shape} incompatible with {x.shape} x {weight.shape}")
    d_x = matmul(upstream, weight)
    d_w, d_b = _param_grads(x, upstream)
    return d_x, d_w, d_b


def _param_grads(x: Tensor, upstream: Tensor) -> tuple[Tensor, Tensor]:
    """(d_weight, d_bias) of y = x @ W^T + b."""
    d_w = matmul(transpose(upstream), x)
    d_b = Tensor._wrap(upstream.data.sum(axis=0, dtype=np.float32))
    return d_w, d_b


def l2_normalize_backward(x: Tensor, upstream: Tensor) -> Tensor:
    """Gradient of row-wise normalization: (g - (g . u) u) / |x| per row, in
    one compiled call with the bits of that float64 numpy expression. A
    zero-norm row raises ``DomainError``."""
    if x.rank != 2 or upstream.shape != x.shape:
        raise DimensionError(f"upstream shape {upstream.shape} != rank-2 input shape {x.shape}")
    out = np.empty(x.shape, dtype=np.float32)
    try:
        _MATMUL.normalize_backward(x.data, upstream.data, out)
    except ZeroDivisionError as exc:
        raise DomainError(str(exc)) from None
    return Tensor._wrap(out)


def softmax_cross_entropy(logits: Tensor, labels: Sequence[int]) -> tuple[float, Tensor]:
    """Mean cross-entropy over the batch and its gradient wrt the logits."""
    if logits.rank != 2:
        raise DimensionError(f"logits must be rank 2, got {logits.shape}")
    m, c = logits.shape
    idx = np.asarray(labels, dtype=np.int64)
    if idx.shape != (m,):
        raise DimensionError(f"{idx.shape[0] if idx.ndim else 0} labels for batch of {m}")
    if idx.min() < 0 or idx.max() >= c:
        raise DimensionError(f"labels out of range for {c} classes")
    z = logits.data.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    expz = np.exp(z)
    p = expz / expz.sum(axis=1, keepdims=True)
    loss = float(-np.mean(np.log(p[np.arange(m), idx])))
    grad = p.copy()
    grad[np.arange(m), idx] -= 1.0
    return loss, Tensor._wrap((grad / m).astype(np.float32))


# -- forward / backward over a whole net -------------------------------------


@dataclass
class _Record:
    kind: str
    layer_index: int | None = None
    inputs: Tensor | None = None
    mask: np.ndarray | None = None
    weight_used: Tensor | None = None


@dataclass
class GradTape:
    """Cached activations from one forward pass; backward consumes it once."""

    records: list[_Record] = field(default_factory=list)
    consumed: bool = False


def forward_embed(net: EmbeddingNet, x: Tensor, quantized: bool) -> tuple[Tensor, GradTape]:
    """Run the net on a batch, returning L2-normalized embeddings and a tape.

    ``quantized`` routes every weight and activation site through fake
    quantization (a loaded net's weights already lie on their grid); it
    requires ``quant_bits`` and calibrated activation parameters. The
    tape holds what :func:`backward_embed` replays, including the STE
    masks of every fake-quant node.
    """
    tape = GradTape()
    h = _walk(net, x, quantized, tape)
    tape.records.append(_Record(kind="normalize", inputs=h))
    return l2_normalize(h), tape


def embed(net: EmbeddingNet, x: Tensor) -> Tensor:
    """The embeddings of :func:`forward_embed`, bit for bit, without a tape,
    quantized exactly when the net is calibrated, and failing with its
    messages.

    The inference forward: it records nothing and computes no STE mask,
    and its last linear's epilogue normalizes the rows. Every row is
    computed independently of the others, so a batch may stack unrelated
    inputs.
    """
    return _walk(net, x, net.is_calibrated, None)


def _walk(net: EmbeddingNet, x: Tensor, quantized: bool, tape: GradTape | None,
          observers: list[RangeObserver] | None = None) -> Tensor:
    """The layer stack, with the final L2 normalization only where neither
    a ``tape`` nor ``observers`` are given (:func:`embed`).

    Each linear ``i`` is followed by a relu unless it is the last, then by
    activation site ``i``: one index names both the layer and the site.
    Each linear is one ``matmul`` call, whose epilogue adds the bias,
    checks the output and runs the relu, and, without a ``tape``, runs the
    site and, without ``observers`` either, normalizes the last linear's
    rows.
    With a ``tape``, appends the records :func:`backward_embed` replays;
    with ``observers`` (on an unquantized walk), feeds each activation
    site's input to its observer.
    """
    if x.rank != 2 or x.shape[1] != net.input_dim:
        raise DimensionError(f"input shape {x.shape} incompatible with input dim {net.input_dim}")
    if quantized and not net.is_calibrated:
        raise StateError("quantized forward requires a bit width and calibrated ranges")

    last = len(net.layers) - 1
    h = x
    for i, layer in enumerate(net.layers):
        w = layer.weight
        mask = None
        if quantized:
            # A loaded weight already lies on its grid.
            wp = layer.grid
            if wp is None:
                # One compiled call derives the parameters and applies them.
                fq = np.empty(w.shape, dtype=np.float32)
                try:
                    wp = derive_params(w, net.quant_bits, fq)
                except DomainError as exc:
                    raise DomainError(f"layer {i}: {exc}") from exc
                w = Tensor._wrap(fq)
            if tape is not None:
                mask = in_range_mask(layer.weight, wp)
        p = net.activation_params[i] if quantized else None
        if tape is not None:
            tape.records.append(_Record(kind="linear", layer_index=i,
                                        inputs=h, mask=mask, weight_used=w))
        epilogue = Epilogue(layer.bias, i < last, p if tape is None else None,
                            tape is None and observers is None and i == last)
        # The epilogue checks before the relu and the fake-quant, which
        # clips +-inf to codes, and a zero norm counts only where every
        # output is finite, as in forward_embed.
        try:
            h = matmul(h, transpose(w), epilogue)
        except DomainError:
            raise DomainError(f"output of layer {i} is not finite") from None
        except ZeroDivisionError as exc:
            raise DomainError(str(exc)) from None
        if tape is not None:
            if i < last:
                # The relu's output keeps the sign pattern its backward reads.
                tape.records.append(_Record(kind="relu", inputs=h))
            if quantized:
                tape.records.append(_Record(kind="act_quant", inputs=h,
                                            mask=in_range_mask(h, p)))
                h = fake_quant(h, p)
        if observers is not None:
            observers[i].update(h)
    return h


def observe_activations(net: EmbeddingNet, x: Tensor,
                        observers: list[RangeObserver]) -> None:
    """Full-precision forward that feeds every activation-site output to its
    observer (calibration).

    Skips the final normalization (irrelevant to activation ranges), so
    degenerate inputs that would produce zero-norm embeddings still
    calibrate cleanly.
    """
    if len(observers) != net.activation_site_count:
        raise DimensionError(
            f"{len(observers)} observers for {net.activation_site_count} activation sites")
    _walk(net, x, False, None, observers)


def backward_embed(net: EmbeddingNet, tape: GradTape,
                   grad_output: Tensor) -> dict[int, tuple[Tensor, Tensor]]:
    """Backpropagate a gradient wrt the normalized embeddings through the tape.

    Returns per-linear-layer (d_weight, d_bias) addressed by linear index.
    Weight gradients flow to the shadow weights through the fake-quant STE
    mask when the forward ran quantized.
    """
    if tape.consumed:
        raise StateError("gradient tape already consumed")
    tape.consumed = True
    grads: dict[int, tuple[Tensor, Tensor]] = {}
    g = grad_output
    for rec in reversed(tape.records):
        if rec.kind == "normalize":
            g = l2_normalize_backward(rec.inputs, g)
        elif rec.kind == "act_quant":
            g = Tensor._wrap(g.data * rec.mask)
        elif rec.kind == "relu":
            g = Tensor._wrap(g.data * (rec.inputs.data > 0).astype(np.float32))
        else:  # linear
            if rec.layer_index == 0:
                # Nothing before the first linear has parameters, so its
                # input gradient would be discarded: skip that product.
                d_w, d_b = _param_grads(rec.inputs, g)
            else:
                d_x, d_w, d_b = linear_backward(rec.inputs, rec.weight_used, g)
                g = d_x
            if rec.mask is not None:
                d_w = Tensor._wrap(d_w.data * rec.mask)
            grads[rec.layer_index] = (d_w, d_b)
            if rec.layer_index == 0:
                break
    return grads


def sgd_step(net: EmbeddingNet, grads: dict[int, tuple[Tensor, Tensor]],
             lr: float, momentum: float, weight_decay: float) -> EmbeddingNet:
    """Apply :func:`sgd_update` to every weight and bias that has a gradient.

    Replaces each such layer in ``net.layers`` with one holding the updated
    weights, and returns the net for chaining. A net with a pinned layer (a
    loaded quantized model) raises ``StateError``: its weights must stay on
    their grid.
    """
    if any(layer.grid is not None for layer in net.layers):
        raise StateError("cannot train a net with pinned weight parameters; "
                         "prepare_student clears them")
    for idx in sorted(grads):
        if not 0 <= idx < len(net.layers):
            raise DimensionError(f"gradient for unknown layer {idx}")
        layer = net.layers[idx]
        d_w, d_b = grads[idx]
        if d_w.shape != layer.weight.shape or d_b.shape != layer.bias.shape:
            raise DimensionError(f"gradient shapes {d_w.shape}/{d_b.shape} do not match layer {idx}")
        if idx not in net._velocity:
            net._velocity[idx] = (np.zeros(layer.weight.shape, dtype=np.float32),
                                  np.zeros(layer.bias.shape, dtype=np.float32))
        v_w, v_b = net._velocity[idx]
        w, v_w = sgd_update(layer.weight.data, v_w, d_w.data, lr, momentum, weight_decay)
        b, v_b = sgd_update(layer.bias.data, v_b, d_b.data, lr, momentum, weight_decay)
        net._velocity[idx] = (v_w, v_b)
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise DomainError(f"SGD update of layer {idx} is not finite")
        net.layers[idx] = Linear(Tensor._wrap(w), Tensor._wrap(b))
    return net


def check_sgd_params(lr: float, momentum: float, weight_decay: float) -> None:
    """Raise ``DomainError`` unless ``lr`` is positive and finite,
    ``0 <= momentum < 1`` and ``weight_decay`` is finite and non-negative.
    The message starts with the parameter's name (``lr``, ``momentum`` or
    ``weight_decay``). ``ExperimentConfig``, ``DistillConfig`` and
    ``TeacherConfig`` all check their SGD values here."""
    if not (math.isfinite(lr) and lr > 0):
        raise DomainError(f"lr must be positive and finite, got {lr}")
    if not 0 <= momentum < 1:
        raise DomainError(f"momentum must be in [0, 1), got {momentum}")
    if not (math.isfinite(weight_decay) and weight_decay >= 0):
        raise DomainError(f"weight_decay must be finite and >= 0, got {weight_decay}")


def sgd_update(w: np.ndarray, v: np.ndarray, grad: np.ndarray, lr: float,
               momentum: float, weight_decay: float) -> tuple[np.ndarray, np.ndarray]:
    """SGD with momentum and classic weight decay on one float32 array.

    v <- momentum * v + grad + weight_decay * w;  w <- w - lr * v, every
    operation in float32. Returns the new (w, v) as fresh arrays.
    """
    v = np.float32(momentum) * v + grad + np.float32(weight_decay) * w
    return w - np.float32(lr) * v, v
