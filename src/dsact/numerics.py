"""Minimal dense network with hand-written backprop and Adam.

Everything runs in float64 numpy. A network is a list of affine layers
with GELU on the hidden layers and an identity output layer; forward
keeps the activation trace so backward can produce exact reverse-mode
derivatives without an autodiff framework.

Each network's parameters live in one flat buffer (its arena), and
every layer's weight and bias is a view into it. Gradients and Adam
moments use the same layout, so Adam, soft updates and finite checks
are single vector passes over the buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import erf

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_DELTA = 1e-8

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class NumericalError(RuntimeError):
    """Raised when an update would propagate non-finite values."""


def _gelu_cdf(z):
    """Phi(z), the exact normal CDF (erf form); GELU(z) = z * Phi(z)."""
    return 0.5 * (1.0 + erf(z * _INV_SQRT2))


def _gelu_slope(z, cdf):
    """GELU'(z) = Phi(z) + z * pdf(z), given cdf = Phi(z)."""
    return cdf + z * _INV_SQRT_2PI * np.exp(-0.5 * z * z)


def gelu(x):
    """x * Phi(x), as mlp_forward computes it."""
    x = np.asarray(x, dtype=np.float64)
    return x * _gelu_cdf(x)


def gelu_grad(x):
    """Derivative of gelu, as mlp_backward computes it."""
    x = np.asarray(x, dtype=np.float64)
    return _gelu_slope(x, _gelu_cdf(x))


@dataclass
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str  # "gelu" or "identity"


class Layout:
    """Where each layer's weight and bias sit in a network's flat buffer.

    Weights and biases alternate layer by layer (w0, b0, w1, b1, ...);
    ``spans`` holds (weight slice, weight shape, bias slice, bias shape)
    per layer. A layout is immutable: it is built once per network and
    shared by the network's copies, its gradients and its Adam moments.
    """

    __slots__ = ("shapes", "size", "spans")

    def __init__(self, shapes):
        """``shapes``: one (weight shape, bias shape) pair per layer."""
        self.shapes = tuple((tuple(w_shape), tuple(b_shape)) for w_shape, b_shape in shapes)
        spans = []
        start = 0
        for w_shape, b_shape in self.shapes:
            w_end = start + math.prod(w_shape)
            b_end = w_end + math.prod(b_shape)
            spans.append((slice(start, w_end), w_shape, slice(w_end, b_end), b_shape))
            start = b_end
        self.spans = tuple(spans)
        self.size = start

    def __eq__(self, other):
        return self is other or (isinstance(other, Layout) and self.shapes == other.shapes)

    def __deepcopy__(self, memo):
        return self

    def weight_views(self, flat: np.ndarray) -> list[np.ndarray]:
        return [flat[w].reshape(w_shape) for w, w_shape, _, _ in self.spans]

    def bias_views(self, flat: np.ndarray) -> list[np.ndarray]:
        return [flat[b].reshape(b_shape) for _, _, b, b_shape in self.spans]

    def pack(self, weights, biases) -> np.ndarray:
        """A fresh flat buffer holding copies of the given arrays."""
        flat = np.empty(self.size)
        for view, arr in zip(self.weight_views(flat) + self.bias_views(flat), [*weights, *biases]):
            view[...] = arr
        return flat


class _Arena:
    """Owner of flat buffers whose per-layer views are cut lazily, on
    first access, and cached on the instance.

    The cached views are left out of the pickled or deep-copied state, so
    a copy cuts its own views from its own buffers and keeps them aliased.
    """

    _views: tuple[str, ...] = ()

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in self._views}


class ParamSet(_Arena):
    """Ordered affine layers; the unit of ownership for one network.

    Every parameter lives in one float64 buffer, ``flat``; each layer's
    weight and bias are views into it. ``ParamSet(layers)`` copies the
    given arrays into a new buffer.
    """

    _views = ("layers",)

    def __init__(self, layers: list[Layer]):
        weights = [np.asarray(l.weight, dtype=np.float64) for l in layers]
        biases = [np.asarray(l.bias, dtype=np.float64) for l in layers]
        self.layout = Layout((w.shape, b.shape) for w, b in zip(weights, biases, strict=True))
        self.flat = self.layout.pack(weights, biases)
        self.activations = tuple(l.activation for l in layers)

    @classmethod
    def from_flat(cls, flat: np.ndarray, layout: Layout, activations) -> "ParamSet":
        """A network over ``flat`` itself (no copy)."""
        net = cls.__new__(cls)
        net.flat, net.layout, net.activations = flat, layout, tuple(activations)
        return net

    @cached_property
    def layers(self) -> list[Layer]:
        weights, biases = self.layout.weight_views(self.flat), self.layout.bias_views(self.flat)
        return [Layer(w, b, a) for w, b, a in zip(weights, biases, self.activations)]

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[0]

    def copy(self) -> "ParamSet":
        return ParamSet.from_flat(self.flat.copy(), self.layout, self.activations)


class GradSet(_Arena):
    """Per-parameter partials in the layout of a ParamSet: one buffer,
    ``flat``, with per-layer views ``d_weights`` and ``d_biases``."""

    _views = ("d_weights", "d_biases")

    def __init__(self, d_weights: list[np.ndarray], d_biases: list[np.ndarray]):
        d_weights = [np.asarray(dw, dtype=np.float64) for dw in d_weights]
        d_biases = [np.asarray(db, dtype=np.float64) for db in d_biases]
        self.layout = Layout((w.shape, b.shape) for w, b in zip(d_weights, d_biases, strict=True))
        self.flat = self.layout.pack(d_weights, d_biases)

    @classmethod
    def from_flat(cls, flat: np.ndarray, layout: Layout) -> "GradSet":
        """A gradient over ``flat`` itself (no copy)."""
        grads = cls.__new__(cls)
        grads.flat, grads.layout = flat, layout
        return grads

    @cached_property
    def d_weights(self) -> list[np.ndarray]:
        return self.layout.weight_views(self.flat)

    @cached_property
    def d_biases(self) -> list[np.ndarray]:
        return self.layout.bias_views(self.flat)

    def scale(self, c: float) -> "GradSet":
        """Multiply in place and return self; the caller must own the buffer."""
        self.flat *= c
        return self

    def add(self, other: "GradSet") -> "GradSet":
        if other.layout != self.layout:
            raise ValueError("gradient layouts differ")
        return GradSet.from_flat(self.flat + other.flat, self.layout)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.flat))) if self.flat.size else 0.0

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


def zeros_grad(params: ParamSet) -> GradSet:
    return GradSet.from_flat(np.zeros(params.layout.size), params.layout)


class AdamState(_Arena):
    """First and second moments in the layout of one network: flat
    buffers ``m`` and ``v`` with per-layer views ``m_weights``,
    ``m_biases``, ``v_weights`` and ``v_biases``."""

    _views = ("m_weights", "m_biases", "v_weights", "v_biases")

    def __init__(
        self,
        layout: Layout,
        step: int = 0,
        beta1: float = ADAM_BETA1,
        beta2: float = ADAM_BETA2,
        delta: float = ADAM_DELTA,
    ):
        self.layout = layout
        self.m = np.zeros(layout.size)
        self.v = np.zeros(layout.size)
        self.step, self.beta1, self.beta2, self.delta = step, beta1, beta2, delta

    @cached_property
    def m_weights(self) -> list[np.ndarray]:
        return self.layout.weight_views(self.m)

    @cached_property
    def m_biases(self) -> list[np.ndarray]:
        return self.layout.bias_views(self.m)

    @cached_property
    def v_weights(self) -> list[np.ndarray]:
        return self.layout.weight_views(self.v)

    @cached_property
    def v_biases(self) -> list[np.ndarray]:
        return self.layout.bias_views(self.v)


def init_adam(params: ParamSet) -> AdamState:
    return AdamState(params.layout)


def init_mlp(rng: np.random.Generator, sizes: list[int]) -> ParamSet:
    """Uniform +-sqrt(1/fan_in) init; GELU hidden layers, identity output.

    ``sizes`` is [in, hidden..., out]; must have at least one affine layer.
    """
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    layers = []
    n = len(sizes) - 1
    for i in range(n):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        bound = np.sqrt(1.0 / fan_in)
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        b = rng.uniform(-bound, bound, size=(fan_out,))
        act = "identity" if i == n - 1 else "gelu"
        layers.append(Layer(w, b, act))
    return ParamSet(layers)


@dataclass
class ForwardCache:
    """Activation trace: per-layer inputs, pre-activations, and the
    normal CDF values reused by the GELU derivative."""

    inputs: list[np.ndarray] = field(default_factory=list)
    pre_acts: list[np.ndarray] = field(default_factory=list)
    cdfs: list[np.ndarray | None] = field(default_factory=list)
    single: bool = False


def mlp_forward(params: ParamSet, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Evaluate the network on one vector or a (batch, in) matrix."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    h = x[None, :] if single else x
    if h.shape[1] != params.in_dim:
        raise ValueError(
            f"input width {h.shape[1]} does not match network in_dim {params.in_dim}"
        )
    cache = ForwardCache(single=single)
    for layer in params.layers:
        cache.inputs.append(h)
        z = h @ layer.weight.T + layer.bias
        cache.pre_acts.append(z)
        if layer.activation == "gelu":
            cdf = _gelu_cdf(z)
            cache.cdfs.append(cdf)
            h = z * cdf
        else:
            cache.cdfs.append(None)
            h = z
    out = h[0] if single else h
    return out, cache


def mlp_backward(
    params: ParamSet, cache: ForwardCache, output_grad: np.ndarray
) -> tuple[GradSet, np.ndarray]:
    """Reverse-mode derivatives of sum_batch <output, output_grad>.

    Returns the parameter gradient and the gradient with respect to the
    input (same leading shape as the forward input). For batched calls
    the parameter gradient is the sum over the batch; divide by the
    batch size for a mean.
    """
    if len(cache.inputs) != len(params.layers):
        raise ValueError("cache does not match network depth")
    g = np.asarray(output_grad, dtype=np.float64)
    if cache.single:
        g = g[None, :]
    if g.shape != cache.pre_acts[-1].shape:
        raise ValueError("output_grad shape does not match cached forward pass")
    layout = params.layout
    flat = np.empty(layout.size)
    for i in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[i]
        if layer.activation == "gelu":
            g = g * _gelu_slope(cache.pre_acts[i], cache.cdfs[i])
        w, _, b, _ = layout.spans[i]
        # copied in: matmul/reduce with out= views measured slower in training
        flat[w] = (g.T @ cache.inputs[i]).ravel()
        flat[b] = g.sum(axis=0)
        g = g @ layer.weight
    input_grad = g[0] if cache.single else g
    return GradSet.from_flat(flat, layout), input_grad


def adam_step(
    state: AdamState, params: ParamSet, grads: GradSet, lr: float
) -> tuple[ParamSet, AdamState]:
    """One bias-corrected Adam update over the whole flat buffer; mutates
    state and params in place."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    if grads.layout != params.layout or state.layout != params.layout:
        raise ValueError("adam_step layouts differ")
    if not grads.is_finite():
        raise NumericalError("non-finite gradient entry in adam_step")
    state.step += 1
    t = state.step
    b1, b2, d = state.beta1, state.beta2, state.delta
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    m, v, g = state.m, state.v, grads.flat
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    params.flat -= lr * (m / c1) / (np.sqrt(v / c2) + d)
    return params, state


def params_all_finite(params: ParamSet) -> bool:
    return bool(np.isfinite(params.flat).all())
