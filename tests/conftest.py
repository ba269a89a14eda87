import numpy as np
import pytest

from dsact.numerics import GradSet, ParamSet, init_mlp


def per_array(flat: np.ndarray, layout) -> list[np.ndarray]:
    """The weight and bias views of a flat buffer, weights first."""
    return layout.weight_views(flat) + layout.bias_views(flat)


def grad_rel_err(got: GradSet, want: GradSet) -> float:
    """Worst per-array relative error, normalized by the larger max-norm."""
    worst = 0.0
    for a, f in zip(per_array(got.flat, got.layout), per_array(want.flat, want.layout)):
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
