import numpy as np
import pytest

from dsact.numerics import (
    NumericalError,
    adam_step,
    gelu,
    gelu_grad,
    init_adam,
    init_mlp,
    mlp_backward,
    mlp_forward,
    zeros_grad,
)
from dsact.numerics import GradSet, Layer, ParamSet
from dsact.oracles import finite_diff_grad

from conftest import grad_rel_err, params_equal, random_net


def test_gelu_fixed_points():
    assert gelu(0.0) == 0.0
    assert abs(gelu(10.0) - 10.0) / 10.0 < 1e-9
    assert abs(gelu(-10.0)) < 1e-8


def test_gelu_derivative_matches_central_differences():
    xs = np.linspace(-4, 4, 41)
    h = 1e-6
    fd = (gelu(xs + h) - gelu(xs - h)) / (2 * h)
    assert np.max(np.abs(gelu_grad(xs) - fd)) < 1e-6


def identity_layer(n, activation="identity"):
    return Layer(np.eye(n), np.zeros(n), activation)


def test_forward_zero_weights_returns_bias(rng):
    net = init_mlp(rng, [3, 4, 2])
    for layer in net.layers:
        layer.weight[:] = 0.0
    out, _ = mlp_forward(net, np.ones(3))
    # hidden bias passes through gelu, then the output layer sees zero weights
    assert np.allclose(out, net.layers[-1].bias)


def test_forward_identity_layer():
    net = ParamSet([identity_layer(3)])
    x = np.array([0.3, -1.2, 2.0])
    out, _ = mlp_forward(net, x)
    assert np.array_equal(out, x)


def test_gelu_layer_is_gelu_bit_for_bit(rng):
    """A one-layer GELU network computes gelu and backpropagates gelu_grad
    exactly, so the GELU tests above judge the engine's formula."""
    x = rng.standard_normal((64, 5)) * 3.0
    net = ParamSet([identity_layer(5, "gelu")])
    out, cache = mlp_forward(net, x)
    assert np.array_equal(out, gelu(x))
    _, input_grad = mlp_backward(net, cache, np.ones_like(x))
    assert np.array_equal(input_grad, gelu_grad(x))


def test_forward_deterministic(rng):
    net, sizes = random_net(rng)
    x = rng.standard_normal(sizes[0])
    o1, _ = mlp_forward(net, x)
    o2, _ = mlp_forward(net, x)
    assert np.array_equal(o1, o2)


def test_forward_dimension_mismatch(rng):
    net = init_mlp(rng, [3, 2])
    with pytest.raises(ValueError):
        mlp_forward(net, np.zeros(4))


def test_backward_zero_output_grad(rng):
    net, sizes = random_net(rng)
    _, cache = mlp_forward(net, rng.standard_normal(sizes[0]))
    grads, input_grad = mlp_backward(net, cache, np.zeros(sizes[-1]))
    assert grads.max_abs() == 0.0
    assert np.all(input_grad == 0.0)


def test_backward_matches_finite_differences(rng):
    """Invariant: 100+ random (net, input) pairs within 1e-5."""
    worst = 0.0
    for _ in range(100):
        net, sizes = random_net(rng)
        x = rng.standard_normal(sizes[0])
        og = rng.standard_normal(sizes[-1])
        _, cache = mlp_forward(net, x)
        grads, _ = mlp_backward(net, cache, og)
        fd = finite_diff_grad(lambda p: float(mlp_forward(p, x)[0] @ og), net, 1e-5)
        worst = max(worst, grad_rel_err(grads, fd))
    assert worst <= 1e-5


def test_backward_stacked_identity_layers_outer_product():
    net = ParamSet([identity_layer(3), identity_layer(3)])
    x = np.array([1.0, -2.0, 0.5])
    og = np.array([0.7, 0.1, -1.3])
    _, cache = mlp_forward(net, x)
    grads, _ = mlp_backward(net, cache, og)
    outer = np.outer(og, x)
    assert np.allclose(grads.d_weights[0], outer)
    assert np.allclose(grads.d_weights[1], outer)


def test_backward_batched_equals_sum_of_singles(rng):
    net = init_mlp(rng, [3, 8, 2])
    xs = rng.standard_normal((5, 3))
    ogs = rng.standard_normal((5, 2))
    _, cache = mlp_forward(net, xs)
    batched, _ = mlp_backward(net, cache, ogs)
    total = zeros_grad(net)
    for j in range(5):
        _, c = mlp_forward(net, xs[j])
        g, _ = mlp_backward(net, c, ogs[j])
        total = total.add(g)
    assert grad_rel_err(batched, total) < 1e-12


def test_backward_rejects_mismatched_cache(rng):
    net = init_mlp(rng, [3, 4, 2])
    other = init_mlp(rng, [3, 4, 4, 2])
    _, cache = mlp_forward(net, np.zeros(3))
    with pytest.raises(ValueError):
        mlp_backward(other, cache, np.zeros(2))


def test_adam_zero_gradient_fixed_point(rng):
    net = init_mlp(rng, [2, 4, 1])
    before = net.copy()
    state = init_adam(net)
    for _ in range(5):
        adam_step(state, net, zeros_grad(net), lr=0.1)
    assert params_equal(net, before)
    assert state.step == 5


def test_adam_first_step_magnitude_near_lr():
    net = ParamSet([Layer(np.array([[2.0]]), np.array([0.0]), "identity")])
    state = init_adam(net)
    g = GradSet([np.array([[0.3]])], [np.array([0.0])])
    lr = 1e-2
    adam_step(state, net, g, lr)
    step_size = abs(2.0 - net.layers[0].weight[0, 0])
    assert abs(step_size - lr) < 1e-6  # lr * |g| / (|g| + delta)
    assert state.step == 1


def test_adam_rejects_non_finite_gradient(rng):
    net = init_mlp(rng, [2, 2])
    state = init_adam(net)
    g = zeros_grad(net)
    g.d_weights[0][0, 0] = np.nan
    with pytest.raises(NumericalError):
        adam_step(state, net, g, 1e-3)


def test_adam_learning_rate_passthrough():
    # the configured rate reaches the update unmodified
    from dsact.config import RunConfig

    cfg = RunConfig()
    assert cfg.lr_critic == 1e-4
    assert cfg.lr_actor == 1e-4
    net = ParamSet([Layer(np.array([[0.0]]), np.array([0.0]), "identity")])
    state = init_adam(net)
    g = GradSet([np.array([[1.0]])], [np.array([0.0])])
    adam_step(state, net, g, cfg.lr_critic)
    assert abs(abs(net.layers[0].weight[0, 0]) - cfg.lr_critic) < 1e-9


def test_init_bounds_follow_fan_in(rng):
    net = init_mlp(rng, [4, 64, 2])
    w0 = net.layers[0].weight
    assert np.max(np.abs(w0)) <= np.sqrt(1 / 4)
    w1 = net.layers[1].weight
    assert np.max(np.abs(w1)) <= np.sqrt(1 / 64)
    assert net.layers[0].activation == "gelu"
    assert net.layers[-1].activation == "identity"
