import os
import platform
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from dsact.numerics import (
    Layer,
    NumericalError,
    adam_step,
    init_mlp,
    mlp_backward,
    mlp_forward,
)
from dsact.oracles import finite_diff_grad

from conftest import fresh_adam, grad_rel_err, net_from_layers, pack, params_equal, random_net
from scalar_reference import gelu, gelu_slope

# the spelled-out GELU and its slope, on arrays
gelu_ref = np.vectorize(gelu, otypes=[np.float64])
gelu_slope_ref = np.vectorize(gelu_slope, otypes=[np.float64])


def identity_layer(n):
    return Layer(np.eye(n), np.zeros(n))


def gelu_layer(x):
    """The engine's GELU and its slope at ``x`` (rows, n): a GELU layer
    with `eye` weights and zero bias, then an identity `eye` output, so
    mlp_forward returns GELU(x) and mlp_backward of a ones output
    gradient returns GELU'(x), each with no other rounding."""
    net = net_from_layers([identity_layer(x.shape[1]), identity_layer(x.shape[1])])
    out, cache = mlp_forward(net, x)
    _, input_grad = mlp_backward(net, cache, np.ones_like(x))
    return out, input_grad


def within_ulps(got, want, n=4):
    """|got - want| <= n ulp of max(1, |want|), elementwise."""
    return bool(np.all(np.abs(got - want) <= n * np.spacing(np.maximum(1.0, np.abs(want)))))


def test_gelu_fixed_points():
    out, slope = gelu_layer(np.array([[0.0, 10.0, -10.0]]))
    assert out[0, 0] == 0.0 and slope[0, 0] == 0.5
    assert abs(out[0, 1] - 10.0) / 10.0 < 1e-9
    assert abs(out[0, 2]) < 1e-8


def test_gelu_layer_matches_erf_formula():
    """The engine's GELU and slope on 24,001 points over [-12, 12],
    against x * Phi(x) and Phi(x) + x * phi(x) spelled with math.erf:
    within 4 ulp of max(1, |value|). The largest gap on this grid is
    2 ulp (4.4e-16) for each."""
    x = np.linspace(-12.0, 12.0, 24001)[:, None]
    out, slope = gelu_layer(x)
    assert within_ulps(out, gelu_ref(x))
    assert within_ulps(slope, gelu_slope_ref(x))


def test_gelu_derivative_matches_central_differences():
    xs = np.linspace(-4, 4, 41)[:, None]
    h = 1e-6
    fd = (gelu_layer(xs + h)[0] - gelu_layer(xs - h)[0]) / (2 * h)
    assert np.max(np.abs(gelu_layer(xs)[1] - fd)) < 1e-6


def test_forward_zero_weights_returns_bias(rng):
    net = init_mlp(rng, [3, 4, 2])
    for layer in net.layers:
        layer.weight[:] = 0.0
    out, _ = mlp_forward(net, np.ones((2, 3)))
    # hidden bias passes through gelu, then the output layer sees zero weights
    assert np.allclose(out, net.layers[-1].bias)


def test_forward_identity_layer():
    net = net_from_layers([identity_layer(3)])
    x = np.array([[0.3, -1.2, 2.0]])
    out, _ = mlp_forward(net, x)
    assert np.array_equal(out, x)


def test_forward_deterministic(rng):
    net, sizes = random_net(rng)
    x = rng.standard_normal((4, sizes[0]))
    o1, _ = mlp_forward(net, x)
    o2, _ = mlp_forward(net, x)
    assert np.array_equal(o1, o2)


@pytest.mark.parametrize("shape", [(4,), (3,), (2, 4), (1, 1, 3)])
def test_forward_dimension_mismatch(rng, shape):
    """A batch is (batch, in_dim): a single vector, even of the right
    width, a wrong width and a wrong rank are refused by name."""
    net = init_mlp(rng, [3, 2])
    with pytest.raises(ValueError, match=re.escape(f"takes a (batch, 3) batch, got shape {shape}")):
        mlp_forward(net, np.zeros(shape))


def test_backward_zero_output_grad(rng):
    net, sizes = random_net(rng)
    _, cache = mlp_forward(net, rng.standard_normal((2, sizes[0])))
    grads, input_grad = mlp_backward(net, cache, np.zeros((2, sizes[-1])))
    assert not grads.any()
    assert np.all(input_grad == 0.0)


def test_backward_matches_finite_differences(rng):
    """Invariant: 100+ random (net, input) pairs within 1e-5."""
    worst = 0.0
    for _ in range(100):
        net, sizes = random_net(rng)
        x = rng.standard_normal((2, sizes[0]))
        og = rng.standard_normal((2, sizes[-1]))
        _, cache = mlp_forward(net, x)
        grads, _ = mlp_backward(net, cache, og)
        fd = finite_diff_grad(lambda p: float(np.sum(mlp_forward(p, x)[0] * og)), net, 1e-5)
        worst = max(worst, grad_rel_err(grads, fd, net.layout))
    assert worst <= 1e-5


def test_backward_stacked_identity_layers_outer_product():
    """eye weights, GELU between: the output layer's weight gradient is
    og x GELU(x), the hidden layer's is (og * GELU'(x)) x x."""
    net = net_from_layers([identity_layer(3), identity_layer(3)])
    x = np.array([1.0, -2.0, 0.5])
    og = np.array([0.7, 0.1, -1.3])
    _, cache = mlp_forward(net, x[None])
    grads, _ = mlp_backward(net, cache, og[None])
    d_weights = net.layout.weight_views(grads)
    assert np.allclose(d_weights[0], np.outer(og * gelu_slope_ref(x), x))
    assert np.allclose(d_weights[1], np.outer(og, gelu_ref(x)))


def test_backward_batched_equals_sum_of_singles(rng):
    net = init_mlp(rng, [3, 8, 2])
    xs = rng.standard_normal((5, 3))
    ogs = rng.standard_normal((5, 2))
    _, cache = mlp_forward(net, xs)
    batched, _ = mlp_backward(net, cache, ogs)
    total = np.zeros(net.layout.size)
    for j in range(5):
        _, c = mlp_forward(net, xs[j : j + 1])
        g, _ = mlp_backward(net, c, ogs[j : j + 1])
        total = total + g
    assert grad_rel_err(batched, total, net.layout) < 1e-12


@pytest.mark.parametrize("batch", [1, 128])
def test_input_only_backward_is_the_full_input_gradient(rng, batch):
    """input_only forms no parameter gradient and the same input
    gradient, bit for bit, for batch 1 and batch 128."""
    for _ in range(10):
        net, sizes = random_net(rng, max_units=64)
        x = rng.standard_normal((batch, sizes[0]))
        og = rng.standard_normal((batch, sizes[-1]))
        _, cache = mlp_forward(net, x)
        _, full = mlp_backward(net, cache, og)
        none, only = mlp_backward(net, cache, og, input_only=True)
        assert none is None and only.shape == x.shape
        assert np.array_equal(only, full)


def test_backward_rejects_mismatched_cache(rng):
    net = init_mlp(rng, [3, 4, 2])
    other = init_mlp(rng, [3, 4, 4, 2])
    _, cache = mlp_forward(net, np.zeros((1, 3)))
    with pytest.raises(ValueError):
        mlp_backward(other, cache, np.zeros((1, 2)))


@pytest.mark.parametrize("shape", [(2,), (5, 3), (4, 2), (1, 5, 2)])
def test_backward_rejects_wrong_output_grad_shape(rng, shape):
    """The output gradient has the forward output's (batch, out_dim)
    shape; any other is refused with the shape it should have."""
    net = init_mlp(rng, [3, 4, 2])
    _, cache = mlp_forward(net, np.zeros((5, 3)))
    with pytest.raises(ValueError, match=re.escape(f"output_grad shape {shape} is not the forward output's (5, 2)")):
        mlp_backward(net, cache, np.zeros(shape))


def test_adam_zero_gradient_fixed_point(rng):
    net = init_mlp(rng, [2, 4, 1])
    before = net.copy()
    state = fresh_adam(net)
    for _ in range(5):
        adam_step(state, net, np.zeros(net.layout.size), lr=0.1)
    assert params_equal(net, before)
    assert state.step == 5


def test_adam_first_step_magnitude_near_lr():
    net = net_from_layers([Layer(np.array([[2.0]]), np.array([0.0]))])
    state = fresh_adam(net)
    g = pack(net.layout, [[[0.3]]], [[0.0]])
    lr = 1e-2
    adam_step(state, net, g, lr)
    step_size = abs(2.0 - net.layers[0].weight[0, 0])
    assert abs(step_size - lr) < 1e-6  # lr * |g| / (|g| + delta)
    assert state.step == 1


def test_adam_rejects_non_finite_gradient(rng):
    net = init_mlp(rng, [2, 2])
    state = fresh_adam(net)
    g = np.zeros(net.layout.size)
    net.layout.weight_views(g)[0][0, 0] = np.nan
    with pytest.raises(NumericalError):
        adam_step(state, net, g, 1e-3)


def test_adam_learning_rate_passthrough():
    # the configured rate reaches the update unmodified
    from dsact.config import RunConfig

    cfg = RunConfig()
    assert cfg.lr_critic == 1e-4
    assert cfg.lr_actor == 1e-4
    net = net_from_layers([Layer(np.array([[0.0]]), np.array([0.0]))])
    state = fresh_adam(net)
    g = pack(net.layout, [[[1.0]]], [[0.0]])
    adam_step(state, net, g, cfg.lr_critic)
    assert abs(abs(net.layers[0].weight[0, 0]) - cfg.lr_critic) < 1e-9


def test_init_bounds_follow_fan_in(rng):
    net = init_mlp(rng, [4, 64, 2])
    w0 = net.layers[0].weight
    assert np.max(np.abs(w0)) <= np.sqrt(1 / 4)
    w1 = net.layers[1].weight
    assert np.max(np.abs(w1)) <= np.sqrt(1 / 64)
    # GELU on every layer but the last, identity on the last
    x = rng.standard_normal((3, 4))
    out, _ = mlp_forward(net, x)
    want = gelu_ref(x @ w0.T + net.layers[0].bias) @ w1.T + net.layers[1].bias
    assert np.allclose(out, want, rtol=0.0, atol=1e-12)


ROOT = Path(__file__).resolve().parents[1]


def _fresh_interpreter(code: str) -> None:
    """Run ``code`` in a new interpreter that imports dsact from src/; an
    assert that fails there fails the test with the child's stderr."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr


def test_engine_import_skips_scipy_special_array_api_layer():
    """The engine takes erf from scipy.special._special_ufuncs, loaded by
    path: no scipy.special module stays loaded, nor the array-API layer
    scipy.special's __init__ builds. A later import of the extension
    binds it on its package as usual."""
    _fresh_interpreter(
        """
        import sys
        import dsact.harness, dsact.agent, dsact.cli
        loaded = [m for m in ("scipy._lib._array_api", "numpy.f2py") if m in sys.modules]
        assert not loaded, loaded
        special = sorted(m for m in sys.modules if m.startswith("scipy.special"))
        assert not special, special
        import scipy
        import scipy.special._special_ufuncs as m
        assert scipy.special._special_ufuncs is m
        assert m.erf is dsact.numerics.erf
        """
    )


def test_engine_import_keeps_scipys_own_special_ufuncs():
    """Where scipy.special is already imported, the engine uses its
    _special_ufuncs module and leaves it registered."""
    _fresh_interpreter(
        """
        import sys
        import scipy.special
        before = sys.modules["scipy.special._special_ufuncs"]
        import dsact.numerics
        assert sys.modules["scipy.special._special_ufuncs"] is before
        assert dsact.numerics.erf is before.erf is scipy.special.erf
        """
    )


@pytest.mark.parametrize(
    "stub",
    [
        "importlib.machinery.PathFinder, 'find_spec', lambda name, path=None, target=None: None",
        "importlib.util, 'module_from_spec', lambda spec: types.ModuleType(spec.name)",
    ],
    ids=["missing", "no-erf"],
)
def test_erf_falls_back_to_scipy_special(stub):
    """Where the engine's lookup of _special_ufuncs finds no extension, or
    one without erf, it takes erf from scipy.special. The stub answers the
    engine's first call for that name only, so scipy.special's own import
    of the extension runs as usual."""
    _fresh_interpreter(
        f"""
        import importlib.machinery, importlib.util, sys, types
        owner, attr, answer = {stub}
        saved, real = vars(owner)[attr], getattr(owner, attr)

        def once(first, *args):
            if getattr(first, "name", first) != "scipy.special._special_ufuncs":
                return real(first, *args)
            setattr(owner, attr, saved)
            return answer(first, *args)

        setattr(owner, attr, once)
        import dsact.numerics
        assert vars(owner)[attr] is saved, "the engine did not look the extension up"
        assert "scipy.special" in sys.modules
        import scipy.special
        assert dsact.numerics.erf is scipy.special.erf
        """
    )


@pytest.mark.parametrize("first", ["import dsact.numerics", "import scipy.special", "import scipy.stats"])
def test_erf_is_scipy_special_erf_in_either_import_order(first):
    _fresh_interpreter(
        f"""
        {first}
        import scipy.special, dsact.numerics
        assert scipy.special.erf is dsact.numerics.erf
        """
    )


def test_scipy_special_stays_whole_after_engine_import():
    """Importing dsact first leaves one scipy.special module, whose
    names, submodules and dependents all work once asked for."""
    _fresh_interpreter(
        """
        import sys
        import dsact.numerics
        import scipy.special
        assert scipy.special.__all__
        from scipy.special import ndtr
        assert ndtr(0.0) == 0.5
        import scipy.special._gufuncs
        assert scipy.special._gufuncs is sys.modules["scipy.special._gufuncs"]
        import scipy.special._ufuncs
        assert scipy.special._ufuncs.erf is dsact.numerics.erf
        import scipy.stats
        assert scipy.stats.norm.cdf(0.0) == 0.5
        """
    )


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc trim threshold")
def test_freed_batch_temporaries_stay_mapped():
    """Freeing 4 MiB of 64 KiB arrays at the heap top, as an update frees
    its batch temporaries, must not hand the pages back to the system
    for the next round to fault in again (about 860 faults a round)."""
    _fresh_interpreter(
        """
        import resource
        import numpy as np
        import dsact.numerics

        def churn():
            live = [np.ones(8192) for _ in range(64)]
            del live

        churn()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(50):
            churn()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 500, f"{faults} minor faults in 50 rounds"
        """
    )
