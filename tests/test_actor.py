import re

import numpy as np
import pytest
from scipy.special import erf

import dsact.actor as actor_module
from dsact.actor import (
    ALPHA_MIN,
    act_deterministic,
    act_stochastic,
    actor_gradient,
    policy_forward,
    temperature_update,
)
from dsact.critic import critic_forward, init_critic_pair
from dsact.distributions import (
    EPS_TANH,
    LOG_STD_MAX,
    LOG_STD_MIN,
    PolicyDistParams,
    policy_head,
    policy_logprob,
    policy_sample,
)
from dsact.numerics import init_mlp, mlp_forward
from dsact.oracles import finite_diff_grad

from conftest import grad_rel_err


def make_setup(seed=0, obs_dim=3, act_dim=2, hidden=(8, 8), n=4):
    critics = init_critic_pair(
        (np.random.default_rng(seed), np.random.default_rng(seed + 500)),
        obs_dim,
        act_dim,
        list(hidden),
    )
    phi = init_mlp(np.random.default_rng(seed + 99), [obs_dim, *hidden, 2 * act_dim])
    states = np.random.default_rng(seed + 7).standard_normal((n, obs_dim))
    return phi, critics, states


def sampled_loss(phi, critics, states, alpha, noise_seed, active=(0, 1)):
    """The frozen-noise actor loss the analytic gradient should match."""
    raw, _ = mlp_forward(phi, states)
    d = raw.shape[1] // 2
    mu = raw[:, :d]
    ls = np.clip(raw[:, d:], LOG_STD_MIN, LOG_STD_MAX)
    zeta = np.random.default_rng(noise_seed).standard_normal(mu.shape)
    u = mu + np.exp(ls) * zeta
    a = np.tanh(u)
    qs = [critic_forward(critics.theta[i], states, a)[0] for i in active]
    q_min = np.min(np.stack(qs, axis=0), axis=0)
    lp = policy_logprob(PolicyDistParams(mu, ls), u)
    return float(np.mean(alpha * lp - q_min))


def test_flat_objective_zero_gradient():
    """alpha = 0 with constant critics leaves nothing to ascend."""
    phi, critics, states = make_setup(seed=3)
    for i in range(2):
        for layer in critics.theta[i].layers:
            layer.weight[:] = 0.0
    g = actor_gradient(phi, states, critics, alpha=0.0, rng=np.random.default_rng(0))
    assert np.max(np.abs(g)) < 1e-8


def test_actor_gradient_matches_finite_differences():
    worst = 0.0
    for seed in range(6):
        phi, critics, states = make_setup(seed=seed, hidden=(2,), n=3)
        noise_seed = 1234 + seed
        alpha = 0.3
        g = actor_gradient(
            phi, states, critics, alpha, np.random.default_rng(noise_seed)
        )
        fd = finite_diff_grad(
            lambda p: sampled_loss(p, critics, states, alpha, noise_seed),
            phi,
            1e-5,
        )
        worst = max(worst, grad_rel_err(g, fd, phi.layout))
    assert worst <= 1e-4


def test_min_selection_inactive_branch():
    """When critic 1 is lower everywhere, the twin gradient equals the
    single-critic gradient."""
    phi, critics, states = make_setup(seed=9)
    # push critic 2's mean output far above critic 1's
    critics.theta[1].layers[-1].bias[0] += 1000.0
    g_twin = actor_gradient(phi, states, critics, 0.2, np.random.default_rng(5), (0, 1))
    g_single = actor_gradient(phi, states, critics, 0.2, np.random.default_rng(5), (0,))
    assert grad_rel_err(g_twin, g_single, phi.layout) < 1e-15


def test_constant_critic_shift_invariance():
    """Adding the same constant to both critics' mean outputs does not
    change the actor gradient."""
    phi, critics, states = make_setup(seed=21)
    g1 = actor_gradient(phi, states, critics, 0.4, np.random.default_rng(11))
    for i in range(2):
        critics.theta[i].layers[-1].bias[0] += 123.456
    g2 = actor_gradient(phi, states, critics, 0.4, np.random.default_rng(11))
    assert grad_rel_err(g1, g2, phi.layout) < 1e-9


def spy_forward_shapes(monkeypatch) -> list:
    """The input shape of every mlp_forward call the actor module makes."""
    shapes = []

    def spy(params, x):
        shapes.append(x.shape)
        return mlp_forward(params, x)

    monkeypatch.setattr(actor_module, "mlp_forward", spy)
    return shapes


def test_act_deterministic_is_row_0_of_the_batch_mode(monkeypatch):
    """One observation's evaluation action is row 0 of tanh(mu) on its
    1-row batch, bit for bit, from one mlp_forward call of one row."""
    phi, _, states = make_setup(seed=2)
    shapes = spy_forward_shapes(monkeypatch)
    for obs in states:
        a = act_deterministic(phi, obs)
        want = np.tanh(policy_forward(phi, obs[None]).mu)[0]
        assert a.shape == (2,) and np.array_equal(a, want)
        assert np.all(np.abs(a) < 1)
    assert shapes == [(1, 3)] * (2 * len(states))


@pytest.mark.parametrize("act_dim", [1, 2])
def test_act_stochastic_is_row_0_of_the_batch_draw(monkeypatch, act_dim):
    """With the same draw, one observation's action and log density are
    row 0 of policy_forward + policy_sample on its 1-row batch, bit for
    bit, from one mlp_forward call of one row."""
    phi, _, states = make_setup(seed=6, act_dim=act_dim)
    shapes = spy_forward_shapes(monkeypatch)
    for obs in states:
        a, logp = act_stochastic(phi, obs, np.random.default_rng(5))
        dist = policy_forward(phi, obs[None])
        a_rows, logp_rows = policy_sample(dist, np.random.default_rng(5).standard_normal(dist.mu.shape))
        assert a.shape == (act_dim,) and np.array_equal(a, a_rows[0])
        assert type(logp) is float and logp == logp_rows[0]
    assert shapes == [(1, 3)] * (2 * len(states))


@pytest.mark.parametrize("act", [act_deterministic, lambda phi, obs: act_stochastic(phi, obs, np.random.default_rng(0))])
def test_acting_refuses_a_batch(act):
    """The acting functions take one observation; batches go through
    policy_forward and policy_sample."""
    phi, _, states = make_setup(seed=2)
    with pytest.raises(ValueError, match=re.escape("(batch, 3)")):
        act(phi, states)


def test_act_stochastic_reproducible():
    phi, _, states = make_setup(seed=2)
    a1, lp1 = act_stochastic(phi, states[0], np.random.default_rng(3))
    a2, lp2 = act_stochastic(phi, states[0], np.random.default_rng(3))
    assert np.array_equal(a1, a2) and lp1 == lp2


def reference_draw(phi, states, rng):
    """A batch's policy draw as separate numpy-function steps: the forward with
    an out-of-place bias add and GELU CDF, np.clip for the log_std clamp
    and the action box, and a log density that recomputes exp(log_std)
    and tanh(u)."""
    h = states
    for i, layer in enumerate(phi.layers):
        z = h @ layer.weight.T + layer.bias
        h = z * (0.5 * (1.0 + erf(z * (1.0 / np.sqrt(2.0))))) if i < len(phi.layers) - 1 else z
    d = h.shape[1] // 2
    mu, log_std = h[:, :d], np.clip(h[:, d:], LOG_STD_MIN, LOG_STD_MAX)
    u = mu + np.exp(log_std) * rng.standard_normal(mu.shape)
    a_max = np.nextafter(1.0, 0.0)
    a = np.clip(np.tanh(u), -a_max, a_max)
    std = np.exp(log_std)
    zs = (u - mu) / std
    base = -0.5 * zs * zs - np.log(std) - 0.5 * np.log(2.0 * np.pi)
    t = np.tanh(u)
    return a, np.sum(base - np.log(1.0 - t * t + EPS_TANH), axis=-1)


@pytest.mark.parametrize(
    "hidden, act_dim, n",
    [((256, 256, 256), 1, None), ((256, 256, 256), 1, 128), ((8, 8), 2, None), ((8, 8), 2, 1)],
)
@pytest.mark.parametrize("out_scale", [1.0, 60.0, 1000.0])
def test_policy_draw_matches_reference_bit_for_bit(hidden, act_dim, n, out_scale):
    """n=None steps one observation vector at a time through
    act_stochastic, as a rollout does; an n-row batch goes through
    policy_forward and policy_sample. Scaled output layers drive log_std
    onto both clamps and |u| past 19."""
    phi, _, _ = make_setup(seed=4, obs_dim=3, act_dim=act_dim, hidden=hidden)
    phi.layers[-1].weight[:] *= out_scale
    phi.layers[-1].bias[:] *= out_scale
    states = np.random.default_rng(11).standard_normal((n or 16, 3)) * 3.0
    if n:
        dist = policy_forward(phi, states)
        a, logp = policy_sample(dist, np.random.default_rng(5).standard_normal(dist.mu.shape))
        a_ref, logp_ref = reference_draw(phi, states, np.random.default_rng(5))
        assert np.array_equal(a, a_ref) and np.array_equal(logp, logp_ref)
        return
    for obs in states:
        a, logp = act_stochastic(phi, obs, np.random.default_rng(5))
        a_ref, logp_ref = reference_draw(phi, obs[None], np.random.default_rng(5))
        assert np.array_equal(a, a_ref[0]) and logp == logp_ref[0]


@pytest.mark.parametrize("n", [1, 128])
def test_actor_draws_the_policy_sample_action(monkeypatch, n):
    """The action the actor gradient feeds its critics is
    policy_sample(dist, zeta)[0] for the same zeta, bit for bit. A
    scaled output layer drives log_std onto both clamps and |u| past 19,
    where tanh saturates and the box clip binds."""
    obs_dim, act_dim = 3, 2
    phi, critics, _ = make_setup(seed=4, obs_dim=obs_dim, act_dim=act_dim, hidden=(8, 8))
    phi.layers[-1].weight[:] *= 400.0
    phi.layers[-1].bias[:] *= 400.0
    states = np.random.default_rng(11).standard_normal((128, obs_dim)) * 3.0
    critic_inputs = []

    def spy(params, x):
        if params is critics.theta[0]:
            critic_inputs.append(np.array(x))
        return mlp_forward(params, x)

    monkeypatch.setattr(actor_module, "mlp_forward", spy)
    seen_ls, seen_u = [], []
    for j in range(0, 128, n):
        batch = states[j : j + n]
        actor_gradient(phi, batch, critics, 0.3, np.random.default_rng(j))
        raw, _ = mlp_forward(phi, batch)
        dist = policy_head(raw)
        zeta = np.random.default_rng(j).standard_normal(dist.mu.shape)
        assert np.array_equal(critic_inputs[-1][:, obs_dim:], policy_sample(dist, zeta)[0])
        seen_ls.append(raw[:, act_dim:])
        seen_u.append(dist.mu + np.exp(dist.log_std) * zeta)
    seen_ls, seen_u = np.concatenate(seen_ls), np.concatenate(seen_u)
    assert (seen_ls < LOG_STD_MIN).any() and (seen_ls > LOG_STD_MAX).any()
    assert (np.abs(seen_u) > 19.0).any() and (np.abs(seen_u) < 19.0).any()


def test_temperature_fixed_point():
    # logp == target entropy everywhere -> no change
    assert temperature_update(0.5, np.array([2.0, 2.0, 2.0]), target_entropy=-2.0, lr_alpha=3e-4) == 0.5


def test_temperature_decreases_when_too_random():
    # entropy estimate -logp = 2 > target -1 -> alpha shrinks
    out = temperature_update(0.5, np.array([-2.0]), target_entropy=-1.0, lr_alpha=0.1)
    assert out < 0.5
    assert out == pytest.approx(0.5 - 0.1 * 3.0)


def test_temperature_increases_when_too_deterministic():
    out = temperature_update(0.5, np.array([5.0]), target_entropy=-1.0, lr_alpha=0.1)  # entropy -5 < target
    assert out > 0.5


def test_temperature_default_rate():
    from dsact.config import RunConfig

    assert RunConfig().lr_alpha == 3e-4


def test_temperature_stays_positive():
    alpha = 0.01
    for _ in range(100):
        # strong shrink pressure
        alpha = temperature_update(alpha, np.array([-10.0]), target_entropy=-1.0, lr_alpha=0.5)
        assert alpha >= ALPHA_MIN
