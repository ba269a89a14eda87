"""Minimal dense network with hand-written backprop and Adam.

Everything runs in float64 numpy. A network is a list of affine layers
with GELU on every layer but the last and an identity last layer, so its
layer sizes alone define it; forward keeps the activation trace so
backward can produce exact reverse-mode derivatives without an autodiff
framework.

Each network's parameters live in one flat buffer (its arena), and
every layer's weight and bias is a view into it. Gradients and Adam
moments are bare float64 arrays of the buffer's shape, in its order;
they carry no layout of their own, and `adam_step` checks their shapes
against ``params.flat``. Adam, soft updates and finite checks are
single vector passes over the buffer; only `ParamSet` has per-layer
views (`layers`), because the forward and backward passes walk them.

One batch contract holds across `numerics`, `distributions`, `critic`
and `actor`: inside the engine a batch is a float64 (rows, n) array,
and nothing there coerces lists, scalars or single vectors into one.
`mlp_forward` refuses any other rank or width with a ValueError naming
the (batch, in_dim) shape it expects. `actor.act_stochastic` and
`actor.act_deterministic` are the one boundary: a single observation
goes in as a 1-row batch (``obs[None]``) and its row 0 comes back.

A name in `dsact` exists only if engine code, the CLI or the benchmark
(`perfbench/`) calls it, or if it is an independent judge the tests
hold production to: the oracles (`finite_diff_grad`, `numeric_soft_q`),
the kernel judges `critic._assemble_fixed_boundary_gradient` and
`critic._assemble_sac_gradient` (kept in `critic` only because the
benchmark's tracer names them), and
`environments.point_robot_reference_action`, the controller that
validates the point-robot fixture. A named wrapper of production code
is no judge: the tests reach the GELU through `mlp_forward` and
`mlp_backward`, and the policy's log density through `policy_sample`,
and hold both to the formulas `tests/scalar_reference.py` spells out.
Each name has one import path, the module that defines it: the package
namespace (`dsact/__init__.py`) re-exports nothing and binds only
`__version__`.
`tests/test_name_rule.py` checks both rules with an AST scan. Tests
reach everything else through the production API: `.flat`, `.layout`,
`Layout.weight_views`/`bias_views` and `ParamSet.layers`;
`tests/conftest.py` builds networks from `Layer` lists itself.

The GELU's `erf` is scipy's ufunc, taken from the one extension that
defines it, `scipy.special._special_ufuncs`, loaded by path (`_scipy_erf`).
Importing `scipy.special` itself runs its `__init__`, which builds
scipy's array-API layer (numpy.testing, numpy.f2py, unittest and more)
and loads four more extensions through `scipy.special._ufuncs`: most of
the time and memory that importing scipy.special adds to a process, and
none of it needed by the ufunc. The ufunc is the same object as
`scipy.special.erf`, so no result moves.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy


def _scipy_erf():
    """scipy's ``erf`` ufunc, from the one extension that defines it.

    The extension is loaded by path, without importing ``scipy.special``,
    and its ``sys.modules`` entry is dropped again: left there, its dotted
    name would sit in ``sys.modules`` without its package, and a later
    ``import scipy.special`` could not bind it as an attribute. The
    extension uses single-phase init, so that later import gets the same
    ufunc objects. A SciPy whose ``_special_ufuncs`` is missing or has no
    ``erf`` gets it from ``scipy.special``."""
    name = "scipy.special._special_ufuncs"
    module = sys.modules.get(name)
    if module is None:
        path = [os.path.join(entry, "special") for entry in scipy.__path__]
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(name, None)
    if hasattr(module, "erf"):
        return module.erf
    from scipy.special import erf

    return erf


erf = _scipy_erf()

# glibc hands a free heap top larger than its trim threshold back to the
# system, and the threshold stays 128 KiB until freeing a block that malloc
# had to mmap raises it to twice that block's size. An update's batch
# temporaries free more than that at once, so each update would fault the
# same pages in again (about 500 per update with the default 256-unit nets,
# batch 256). Freeing one 8 MiB block at import sets the threshold to
# 16 MiB; elsewhere it is one allocation and one free.
np.empty(1 << 20)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_DELTA = 1e-8

# The GELU's constants are 0-d float64 arrays, not Python floats:
# numpy converts a Python float operand anew on every ufunc call, which
# adds about half again to each op on a batch-1 row. Same floats.
_INV_SQRT2, _ONE, _HALF = np.array(1.0 / np.sqrt(2.0)), np.array(1.0), np.array(0.5)
_INV_SQRT_2PI, _MINUS_HALF = np.array(1.0 / np.sqrt(2.0 * np.pi)), np.array(-0.5)


class NumericalError(RuntimeError):
    """Raised when an update would propagate non-finite values."""


def _gelu_cdf(z):
    """Phi(z), the exact normal CDF (erf form); GELU(z) = z * Phi(z).

    Computed as 0.5 * (1 + erf(z * (1 / sqrt 2))) in one buffer: the scaled
    input, then erf written over it, then the two in-place steps. ``z``
    is a hidden layer's (batch, width) pre-activation from `mlp_forward`."""
    cdf = z * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += _ONE
    cdf *= _HALF
    return cdf


def _gelu_slope(z, cdf):
    """GELU'(z) = Phi(z) + z * pdf(z), given cdf = Phi(z), as
    cdf + (z * (1 / sqrt(2 pi))) * exp((-0.5 * z) * z) in two buffers."""
    bell = z * _MINUS_HALF
    bell *= z
    np.exp(bell, out=bell)
    slope = z * _INV_SQRT_2PI
    slope *= bell
    slope += cdf
    return slope


@dataclass
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)


class Layout:
    """Where each layer's weight and bias sit in the flat buffer of a
    network with layer sizes [in, hidden..., out].

    Weights and biases alternate layer by layer (w0, b0, w1, b1, ...);
    ``spans`` holds (weight slice, weight shape, bias slice, bias shape)
    per layer. A layout is immutable: it is built once per network and
    shared by the network's copies.
    """

    __slots__ = ("sizes", "size", "spans")

    def __init__(self, sizes):
        self.sizes = tuple(sizes)
        spans = []
        start = 0
        for n_in, n_out in zip(self.sizes, self.sizes[1:]):
            w_end = start + n_out * n_in
            spans.append((slice(start, w_end), (n_out, n_in), slice(w_end, w_end + n_out), (n_out,)))
            start = w_end + n_out
        self.spans = tuple(spans)
        self.size = start

    def __eq__(self, other):
        return self is other or (isinstance(other, Layout) and self.sizes == other.sizes)

    def __deepcopy__(self, memo):
        return self

    def weight_views(self, flat: np.ndarray) -> list[np.ndarray]:
        return [flat[w].reshape(w_shape) for w, w_shape, _, _ in self.spans]

    def bias_views(self, flat: np.ndarray) -> list[np.ndarray]:
        return [flat[b].reshape(b_shape) for _, _, b, b_shape in self.spans]


class ParamSet:
    """Ordered affine layers; the unit of ownership for one network.

    Every parameter lives in one float64 buffer, ``flat``; each layer's
    weight and bias are views into it. ``ParamSet(flat, layout)`` is a
    network over ``flat`` itself (no copy).
    """

    def __init__(self, flat: np.ndarray, layout: Layout):
        self.flat, self.layout = flat, layout

    @cached_property
    def layers(self) -> list[Layer]:
        weights, biases = self.layout.weight_views(self.flat), self.layout.bias_views(self.flat)
        return [Layer(w, b) for w, b in zip(weights, biases)]

    def __getstate__(self):
        # a pickled or deep-copied network cuts its own views from its own buffer
        return {k: v for k, v in self.__dict__.items() if k != "layers"}

    def copy(self) -> "ParamSet":
        return ParamSet(self.flat.copy(), self.layout)


@dataclass
class AdamState:
    """First and second moments ``m`` and ``v``, bare arrays of the
    network's flat shape, and the step count; the betas and delta are
    the module constants."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_mlp(rng: np.random.Generator, sizes: list[int]) -> ParamSet:
    """Uniform +-sqrt(1/fan_in) init, drawn layer by layer, weight then bias.

    ``sizes`` is [in, hidden..., out]; must have at least one affine layer.
    """
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    layout = Layout(sizes)
    flat = np.empty(layout.size)
    for w, b in zip(layout.weight_views(flat), layout.bias_views(flat)):
        bound = np.sqrt(1.0 / w.shape[1])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
        b[...] = rng.uniform(-bound, bound, size=b.shape)
    return ParamSet(flat, layout)


class ForwardCache:
    """Activation trace: per-layer inputs and pre-activations, and the
    normal CDF values the GELU derivative reuses (one per GELU layer,
    that is, every layer but the last)."""

    __slots__ = ("inputs", "pre_acts", "cdfs")

    def __init__(self):
        self.inputs: list[np.ndarray] = []
        self.pre_acts: list[np.ndarray] = []
        self.cdfs: list[np.ndarray] = []


def mlp_forward(params: ParamSet, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Evaluate the network on a (batch, in_dim) float64 batch."""
    layers = params.layers
    in_dim = layers[0].weight.shape[1]
    if x.ndim != 2 or x.shape[1] != in_dim:
        raise ValueError(f"mlp_forward takes a (batch, {in_dim}) batch, got shape {x.shape}")
    cache = ForwardCache()
    inputs, pre_acts, cdfs = cache.inputs, cache.pre_acts, cache.cdfs
    h = x
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        inputs.append(h)
        h = h @ layer.weight.T
        h += layer.bias
        pre_acts.append(h)
        if i < last:
            cdf = _gelu_cdf(h)
            cdfs.append(cdf)
            h = h * cdf
    return h, cache


def mlp_backward(
    params: ParamSet, cache: ForwardCache, output_grad: np.ndarray, input_only: bool = False
) -> tuple[np.ndarray | None, np.ndarray]:
    """Reverse-mode derivatives of sum_batch <output, output_grad>.

    ``output_grad`` has the forward output's (batch, out_dim) shape.
    Returns the parameter gradient as a flat array in the network's
    layout, summed over the batch (divide by the batch size for a mean),
    and the (batch, in_dim) gradient with respect to the input. With ``input_only`` the parameter gradient
    is not formed and None stands in its place; the input gradient is
    the same.
    """
    if len(cache.inputs) != len(params.layers):
        raise ValueError("cache does not match network depth")
    g = output_grad
    if g.shape != cache.pre_acts[-1].shape:
        raise ValueError(
            f"output_grad shape {g.shape} is not the forward output's {cache.pre_acts[-1].shape}"
        )
    layout = params.layout
    flat = None if input_only else np.empty(layout.size)
    last = len(params.layers) - 1
    for i in range(last, -1, -1):
        layer = params.layers[i]
        if i < last:
            slope = _gelu_slope(cache.pre_acts[i], cache.cdfs[i])
            slope *= g
            g = slope
        if flat is not None:
            w, _, b, _ = layout.spans[i]
            # copied in: matmul/reduce with out= views measured slower in training
            flat[w] = (g.T @ cache.inputs[i]).ravel()
            flat[b] = g.sum(axis=0)
        g = g @ layer.weight
    return flat, g


def adam_step(
    state: AdamState, params: ParamSet, grads: np.ndarray, lr: float
) -> tuple[ParamSet, AdamState]:
    """One bias-corrected Adam update over the whole flat buffer; mutates
    state and params in place.

    The step is lr * (m / c1) / (sqrt(v / c2) + delta), with every
    product and quotient formed in one scratch buffer and the numerator
    in a second."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    shape = params.flat.shape
    if grads.shape != shape or state.m.shape != shape or state.v.shape != shape:
        raise ValueError(
            f"adam_step shapes differ: params {shape}, grads {grads.shape}, m {state.m.shape}, v {state.v.shape}"
        )
    if not np.isfinite(grads).all():
        raise NumericalError("non-finite gradient entry in adam_step")
    state.step += 1
    t = state.step
    b1, b2, d = ADAM_BETA1, ADAM_BETA2, ADAM_DELTA
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    m, v, g = state.m, state.v, grads
    m *= b1
    scratch = np.multiply(g, 1.0 - b1)
    m += scratch
    v *= b2
    np.multiply(g, 1.0 - b2, out=scratch)
    scratch *= g
    v += scratch
    np.divide(v, c2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += d
    step = np.divide(m, c1)
    step *= lr
    step /= scratch
    params.flat -= step
    return params, state


def params_all_finite(params: ParamSet) -> bool:
    return bool(np.isfinite(params.flat).all())
