"""The flat parameter arena: every network keeps one buffer with
per-layer views into it; gradients and Adam moments are flat buffers in
the network's layout.

Two kinds of check. Aliasing: however a network was made (init, copy,
deepcopy, checkpoint load), its views write through to its own buffer,
so a whole-buffer update moves the network's outputs. Bits: the
per-layer code the arena replaced is kept here as a reference, slicing
gradients and moments with the layout's views, and the arena's
single-pass ops must match it exactly, down to a training run's
metrics.csv.
"""

import copy
import dataclasses
import re
import sys

import numpy as np
import pytest

import dsact.critic as critic
import dsact.numerics as numerics
from dsact.agent import build_agent, load_checkpoint, save_checkpoint
from dsact.critic import init_critic_pair, soft_update
from dsact.environments import make_env
from dsact.harness import make_streams, train
from dsact.numerics import (
    NumericalError,
    adam_step,
    init_mlp,
    mlp_backward,
    mlp_forward,
    params_all_finite,
)

from conftest import fresh_adam, pack, params_equal, per_array, random_net
from test_harness import tiny_cfg


# ---- per-layer reference: the code before the arena, one pass per array ----


def ref_is_finite(grads, layout):
    return all(np.all(np.isfinite(a)) for a in per_array(grads, layout))


def ref_scale(grads, layout, c):
    d_weights, d_biases = layout.weight_views(grads), layout.bias_views(grads)
    return pack(layout, [c * dw for dw in d_weights], [c * db for db in d_biases])


def ref_adam_step(state, params, grads, lr):
    if lr <= 0:
        raise ValueError("lr must be positive")
    if not ref_is_finite(grads, params.layout):
        raise NumericalError("non-finite gradient entry in adam_step")
    state.step += 1
    t = state.step
    b1, b2, d = numerics.ADAM_BETA1, numerics.ADAM_BETA2, numerics.ADAM_DELTA
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    layout = params.layout
    m_weights, m_biases = layout.weight_views(state.m), layout.bias_views(state.m)
    v_weights, v_biases = layout.weight_views(state.v), layout.bias_views(state.v)
    d_weights, d_biases = layout.weight_views(grads), layout.bias_views(grads)
    for i, layer in enumerate(params.layers):
        for m, v, g, p in (
            (m_weights[i], v_weights[i], d_weights[i], layer.weight),
            (m_biases[i], v_biases[i], d_biases[i], layer.bias),
        ):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + d)
    return params, state


def ref_soft_update(source, target, tau):
    if not 0 < tau <= 1:
        raise ValueError("tau must be in (0, 1]")
    if len(source.layers) != len(target.layers):
        raise ValueError("network shapes differ")
    for ls, lt in zip(source.layers, target.layers):
        if ls.weight.shape != lt.weight.shape:
            raise ValueError("network shapes differ")
        lt.weight *= 1.0 - tau
        lt.weight += tau * ls.weight
        lt.bias *= 1.0 - tau
        lt.bias += tau * ls.bias
    return target


def ref_mlp_backward(params, cache, output_grad, input_only=False):
    if len(cache.inputs) != len(params.layers):
        raise ValueError("cache does not match network depth")
    g = output_grad
    if g.shape != cache.pre_acts[-1].shape:
        raise ValueError("output_grad shape does not match cached forward pass")
    d_weights = [None] * len(params.layers)
    d_biases = [None] * len(params.layers)
    last = len(params.layers) - 1
    for i in range(last, -1, -1):
        layer = params.layers[i]
        if i < last:  # GELU on every layer but the last
            z = cache.pre_acts[i]
            g = g * (cache.cdfs[i] + z * numerics._INV_SQRT_2PI * np.exp(-0.5 * z * z))
        d_weights[i] = g.T @ cache.inputs[i]
        d_biases[i] = g.sum(axis=0)
        g = g @ layer.weight
    if input_only:  # the same input gradient, no parameter gradient
        return None, g
    return pack(params.layout, d_weights, d_biases), g


def ref_params_all_finite(params):
    return all(np.all(np.isfinite(l.weight)) and np.all(np.isfinite(l.bias)) for l in params.layers)


# ---- aliasing ----


def assert_aliased(net):
    views = [a for l in net.layers for a in (l.weight, l.bias)]
    for view in views:
        assert np.shares_memory(view, net.flat)
    assert sum(view.size for view in views) == net.flat.size


def nets_and_states(how, tmp_path):
    """(network, its Adam state or None) pairs made the given way."""
    rng = np.random.default_rng(5)
    net = init_mlp(rng, [3, 6, 5, 2])
    state = fresh_adam(net)
    adam_step(state, net, mlp_backward(net, mlp_forward(net, rng.standard_normal((4, 3)))[1], np.ones((4, 2)))[0], 1e-3)
    if how == "init_mlp":
        return [(net, state)]
    if how == "copy":
        return [(net.copy(), None)]
    if how == "deepcopy":
        return [(copy.deepcopy(net), copy.deepcopy(state))]
    if how == "deepcopy_pair":
        pair = copy.deepcopy(init_critic_pair((rng, rng), 2, 1, [6, 5]))
        return [*zip(pair.theta, pair.adam), *((t, None) for t in pair.theta_bar)]
    cfg = tiny_cfg(tmp_path)
    env = make_env(cfg.env, cfg.env_overrides)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, build_agent(cfg, env.spec, make_streams(cfg.seed)), cfg, env.spec)
    agent, _, _ = load_checkpoint(path)
    critics = agent.critics
    return [
        (agent.phi, agent.adam_actor),
        (agent.phi_bar, None),
        *zip(critics.theta, critics.adam),
        *((t, None) for t in critics.theta_bar),
    ]


@pytest.mark.parametrize("how", ["init_mlp", "copy", "deepcopy", "deepcopy_pair", "load_checkpoint"])
def test_views_alias_the_buffer_and_updates_reach_the_outputs(how, tmp_path):
    rng = np.random.default_rng(11)
    for net, state in nets_and_states(how, tmp_path):
        assert_aliased(net)
        in_dim = net.layers[0].weight.shape[1]
        x = rng.standard_normal((4, in_dim))
        out0, cache = mlp_forward(net, x)
        grads, _ = mlp_backward(net, cache, rng.standard_normal(out0.shape))
        if state is not None:
            adam_step(state, net, grads, 1e-2)
            out1 = mlp_forward(net, x)[0]
            assert not np.array_equal(out0, out1)
            out0 = out1
        source = init_mlp(rng, [in_dim, *(l.weight.shape[0] for l in net.layers)])
        soft_update(source, net, 0.5)
        assert not np.array_equal(out0, mlp_forward(net, x)[0])


def test_copies_own_their_buffers(rng):
    net = init_mlp(rng, [2, 4, 1])
    state = fresh_adam(net)
    pair = init_critic_pair((rng, rng), 2, 1, [4])
    pair2 = copy.deepcopy(pair)
    for a, b in [
        (net.flat, net.copy().flat),
        (net.flat, copy.deepcopy(net).flat),
        (state.m, copy.deepcopy(state).m),
        (state.v, copy.deepcopy(state).v),
        *((p.flat, q.flat) for p, q in zip(pair.theta + pair.theta_bar, pair2.theta + pair2.theta_bar)),
        *((p.m, q.m) for p, q in zip(pair.adam, pair2.adam)),
    ]:
        assert not np.shares_memory(a, b)


def test_soft_update_rejects_equal_size_different_layout(rng):
    # 17 parameters each: 2x4 + 4 + 1x4 + 1 against 3x2 + 3 + 2x3 + 2
    src, dst = init_mlp(rng, [2, 4, 1]), init_mlp(rng, [2, 3, 2])
    assert src.flat.size == dst.flat.size
    with pytest.raises(ValueError):
        soft_update(src, dst, 0.5)


def test_adam_step_rejects_mismatched_shapes(rng):
    """A gradient or moments of another network's size are refused;
    they are bare arrays, so their shapes are all adam_step can check."""
    net = init_mlp(rng, [2, 4, 1])  # 17 parameters
    other = init_mlp(rng, [2, 3, 1])  # 13 parameters
    with pytest.raises(ValueError, match=re.escape("grads (13,)")):
        adam_step(fresh_adam(net), net, np.zeros(other.flat.shape), 1e-3)
    with pytest.raises(ValueError, match=re.escape("m (13,), v (13,)")):
        adam_step(fresh_adam(other), net, np.zeros(net.flat.shape), 1e-3)


# ---- bits: arena ops against the per-layer reference ----


def test_arena_ops_match_per_layer_reference(rng):
    for _ in range(25):
        net, sizes = random_net(rng)
        target = init_mlp(rng, sizes)
        ref_net, ref_target = copy.deepcopy(net), copy.deepcopy(target)
        state, ref_state = fresh_adam(net), fresh_adam(ref_net)
        x = rng.standard_normal((int(rng.integers(1, 9)), sizes[0]))
        for _ in range(4):
            og = rng.standard_normal((x.shape[0], sizes[-1]))
            grads, input_grad = mlp_backward(net, mlp_forward(net, x)[1], og)
            ref_grads, ref_input_grad = ref_mlp_backward(ref_net, mlp_forward(ref_net, x)[1], og)
            assert np.array_equal(input_grad, ref_input_grad)
            _, only = mlp_backward(net, mlp_forward(net, x)[1], og, input_only=True)
            assert np.array_equal(only, ref_input_grad)
            for a, b in zip(per_array(grads, net.layout), per_array(ref_grads, ref_net.layout)):
                assert np.array_equal(a, b)
            c = float(rng.uniform(0.1, 3.0))
            grads *= c  # critic_update's in-place omega scaling
            adam_step(state, net, grads, 1e-2)
            ref_adam_step(ref_state, ref_net, ref_scale(ref_grads, ref_net.layout, c), 1e-2)
            soft_update(net, target, 0.3)
            ref_soft_update(ref_net, ref_target, 0.3)
            assert params_equal(net, ref_net) and params_equal(target, ref_target)
            for a, b in zip(
                per_array(state.m, net.layout) + per_array(state.v, net.layout),
                per_array(ref_state.m, ref_net.layout) + per_array(ref_state.v, ref_net.layout),
            ):
                assert np.array_equal(a, b)
            assert params_all_finite(net) == ref_params_all_finite(ref_net)


def test_finite_checks_see_every_array(rng):
    """params_all_finite and adam_step's gradient check each see a
    non-finite entry in any layer's weight or bias."""
    net, _ = random_net(rng)
    assert params_all_finite(net)
    adam_step(fresh_adam(net), net.copy(), np.zeros(net.flat.shape), 1e-3)
    for value in (np.nan, np.inf, -np.inf):
        for i in range(len(net.layers)):
            for part in ("weight", "bias"):
                probe = net.copy()
                getattr(probe.layers[i], part).flat[-1] = value
                grads = probe.flat.copy()
                assert not params_all_finite(probe) and not ref_params_all_finite(probe)
                assert not ref_is_finite(grads, probe.layout)
                with pytest.raises(NumericalError):
                    adam_step(fresh_adam(net), net.copy(), grads, 1e-3)


def _per_layer_reference(monkeypatch):
    """Swap the reference in wherever the engine binds the arena version;
    returns a dict of call counts so a test can see it was used."""
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    swaps = [
        (numerics, "adam_step", ref_adam_step),
        (critic, "soft_update", ref_soft_update),
        (numerics, "mlp_backward", ref_mlp_backward),
        (numerics, "params_all_finite", ref_params_all_finite),
    ]
    for home, name, ref in swaps:
        wrapped = counted(name, ref)
        prod = getattr(home, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("dsact") and getattr(mod, name, None) is prod:
                monkeypatch.setattr(mod, name, wrapped)
    return calls


@pytest.mark.parametrize("algorithm", ["dsact", "dsacv1"])
def test_train_matches_per_layer_reference(tmp_path, monkeypatch, algorithm):
    """A run on the arena ops gives metrics.csv byte for byte as the
    per-layer reference does."""
    cfg = tiny_cfg(tmp_path, algorithm=algorithm, out_dir=str(tmp_path / "arena"))
    train(cfg)
    calls = _per_layer_reference(monkeypatch)
    summary = train(dataclasses.replace(cfg, out_dir=str(tmp_path / "reference")))
    assert summary["critic_updates"] > 0
    assert set(calls) == {"adam_step", "soft_update", "mlp_backward", "params_all_finite"}
    assert (tmp_path / "arena" / "metrics.csv").read_bytes() == (tmp_path / "reference" / "metrics.csv").read_bytes()
