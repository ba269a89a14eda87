import numpy as np
import pytest

from dsact.critic import clip_target
from dsact.numerics import AdamState, Layout, ParamSet, init_mlp


def per_array(flat: np.ndarray, layout) -> list[np.ndarray]:
    """The weight and bias views of a flat buffer, weights first."""
    return layout.weight_views(flat) + layout.bias_views(flat)


def pack(layout, weights, biases) -> np.ndarray:
    """A fresh flat buffer in ``layout`` holding copies of the given arrays."""
    flat = np.empty(layout.size)
    for view, arr in zip(per_array(flat, layout), [*weights, *biases]):
        view[...] = arr
    return flat


def net_from_layers(layers) -> ParamSet:
    """A network over a fresh buffer holding copies of the `Layer`s' arrays."""
    weights = [np.asarray(l.weight, dtype=np.float64) for l in layers]
    biases = [np.asarray(l.bias, dtype=np.float64) for l in layers]
    layout = Layout([weights[0].shape[1], *(w.shape[0] for w in weights)])
    return ParamSet(pack(layout, weights, biases), layout)


def clip_one(y_z: float, q: float, b: float) -> float:
    """clip_target on a one-sample batch."""
    return float(clip_target(np.array([y_z]), np.array([q]), b)[0])


def fresh_adam(net: ParamSet) -> AdamState:
    """Zero moments and step 0 for ``net``, as the engine starts them."""
    return AdamState(np.zeros(net.flat.shape), np.zeros(net.flat.shape))


def grad_rel_err(got: np.ndarray, want: np.ndarray, layout) -> float:
    """Worst per-array relative error of two flat gradients in ``layout``,
    normalized by the larger max-norm."""
    worst = 0.0
    for a, f in zip(per_array(got, layout), per_array(want, layout)):
        denom = max(np.max(np.abs(a)), np.max(np.abs(f)), 1e-12)
        worst = max(worst, float(np.max(np.abs(a - f)) / denom))
    return worst


def params_equal(a: ParamSet, b: ParamSet) -> bool:
    return all(
        np.array_equal(la.weight, lb.weight) and np.array_equal(la.bias, lb.bias)
        for la, lb in zip(a.layers, b.layers)
    )


def random_net(rng: np.random.Generator, max_hidden_layers=3, max_units=16, in_dim=None, out_dim=None):
    sizes = [in_dim or int(rng.integers(1, 5))]
    for _ in range(int(rng.integers(0, max_hidden_layers + 1))):
        sizes.append(int(rng.integers(1, max_units + 1)))
    sizes.append(out_dim or int(rng.integers(1, 4)))
    return init_mlp(rng, sizes), sizes


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
