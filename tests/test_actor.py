import numpy as np
import pytest
from scipy.special import erf

from dsact.actor import (
    ALPHA_MIN,
    Temperature,
    act_deterministic,
    act_stochastic,
    actor_gradient,
    policy_forward,
    temperature_update,
)
from dsact.critic import critic_forward, init_critic_pair
from dsact.distributions import EPS_TANH, LOG_STD_MAX, LOG_STD_MIN, PolicyDistParams, policy_logprob
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


def sampled_objective(phi, critics, states, alpha, noise_seed, active=(0, 1)):
    """The frozen-noise objective the analytic gradient should match."""
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
    return float(np.mean(q_min - alpha * lp))


def test_flat_objective_zero_gradient():
    """alpha = 0 with constant critics leaves nothing to ascend."""
    phi, critics, states = make_setup(seed=3)
    for i in range(2):
        for layer in critics.theta[i].layers:
            layer.weight[:] = 0.0
    g = actor_gradient(phi, states, critics, alpha=0.0, rng=np.random.default_rng(0))
    assert np.max(np.abs(g.flat)) < 1e-8


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
            lambda p: sampled_objective(p, critics, states, alpha, noise_seed),
            phi,
            1e-5,
        )
        worst = max(worst, grad_rel_err(g, fd))
    assert worst <= 1e-4


def test_min_selection_inactive_branch():
    """When critic 1 is lower everywhere, the twin gradient equals the
    single-critic gradient."""
    phi, critics, states = make_setup(seed=9)
    # push critic 2's mean output far above critic 1's
    critics.theta[1].layers[-1].bias[0] += 1000.0
    g_twin = actor_gradient(phi, states, critics, 0.2, np.random.default_rng(5), (0, 1))
    g_single = actor_gradient(phi, states, critics, 0.2, np.random.default_rng(5), (0,))
    assert grad_rel_err(g_twin, g_single) < 1e-15


def test_constant_critic_shift_invariance():
    """Adding the same constant to both critics' mean outputs does not
    change the actor gradient."""
    phi, critics, states = make_setup(seed=21)
    g1 = actor_gradient(phi, states, critics, 0.4, np.random.default_rng(11))
    for i in range(2):
        critics.theta[i].layers[-1].bias[0] += 123.456
    g2 = actor_gradient(phi, states, critics, 0.4, np.random.default_rng(11))
    assert grad_rel_err(g1, g2) < 1e-9


def test_act_deterministic_is_squashed_mode():
    phi, _, states = make_setup(seed=2)
    a = act_deterministic(phi, states[0])
    dist = policy_forward(phi, states[0])
    assert np.allclose(a, np.tanh(dist.mu))
    assert np.all(np.abs(a) < 1)


def test_act_stochastic_reproducible():
    phi, _, states = make_setup(seed=2)
    a1, lp1 = act_stochastic(phi, states[0], np.random.default_rng(3))
    a2, lp2 = act_stochastic(phi, states[0], np.random.default_rng(3))
    assert np.array_equal(a1, a2) and lp1 == lp2


def reference_act_stochastic(phi, obs, rng):
    """act_stochastic as separate numpy-function steps: the forward with
    an out-of-place bias add and GELU CDF, np.clip for the log_std clamp
    and the action box, and a log density that recomputes exp(log_std)
    and tanh(u)."""
    x = np.asarray(obs, dtype=np.float64)
    h = x[None, :] if x.ndim == 1 else x
    for i, layer in enumerate(phi.layers):
        z = h @ layer.weight.T + layer.bias
        h = z * (0.5 * (1.0 + erf(z * (1.0 / np.sqrt(2.0))))) if i < len(phi.layers) - 1 else z
    raw = h[0] if x.ndim == 1 else h
    d = raw.shape[-1] // 2
    mu, log_std = raw[..., :d], np.clip(raw[..., d:], LOG_STD_MIN, LOG_STD_MAX)
    u = mu + np.exp(log_std) * rng.standard_normal(mu.shape)
    a_max = np.nextafter(1.0, 0.0)
    a = np.clip(np.tanh(u), -a_max, a_max)
    std = np.exp(log_std)
    zs = (u - mu) / std
    base = -0.5 * zs * zs - np.log(std) - 0.5 * np.log(2.0 * np.pi)
    t = np.tanh(u)
    logp = np.sum(base - np.log(1.0 - t * t + EPS_TANH), axis=-1)
    return a, float(logp) if np.ndim(logp) == 0 else logp


@pytest.mark.parametrize(
    "hidden, act_dim, n",
    [((256, 256, 256), 1, None), ((256, 256, 256), 1, 128), ((8, 8), 2, None), ((8, 8), 2, 1)],
)
@pytest.mark.parametrize("out_scale", [1.0, 60.0, 1000.0])
def test_act_stochastic_matches_reference_bit_for_bit(hidden, act_dim, n, out_scale):
    """n=None steps one observation vector at a time, as a rollout does.
    Scaled output layers drive log_std onto both clamps and |u| past 19."""
    phi, _, _ = make_setup(seed=4, obs_dim=3, act_dim=act_dim, hidden=hidden)
    phi.layers[-1].weight[:] *= out_scale
    phi.layers[-1].bias[:] *= out_scale
    states = np.random.default_rng(11).standard_normal((n or 16, 3)) * 3.0
    batches = [states] if n else list(states)
    for obs in batches:
        a, logp = act_stochastic(phi, obs, np.random.default_rng(5))
        a_ref, logp_ref = reference_act_stochastic(phi, obs, np.random.default_rng(5))
        assert np.array_equal(a, a_ref)
        assert type(logp) is type(logp_ref) and np.array_equal(logp, logp_ref)


def test_temperature_fixed_point():
    temp = Temperature(alpha=0.5, target_entropy=-2.0, lr_alpha=3e-4)
    # logp == target entropy everywhere -> no change
    out = temperature_update(temp, [2.0, 2.0, 2.0])
    assert out.alpha == temp.alpha


def test_temperature_decreases_when_too_random():
    temp = Temperature(alpha=0.5, target_entropy=-1.0, lr_alpha=0.1)
    # entropy estimate -logp = 2 > target -1 -> alpha shrinks
    out = temperature_update(temp, [-2.0])
    assert out.alpha < temp.alpha
    assert out.alpha == pytest.approx(0.5 - 0.1 * 3.0)


def test_temperature_increases_when_too_deterministic():
    temp = Temperature(alpha=0.5, target_entropy=-1.0, lr_alpha=0.1)
    out = temperature_update(temp, [5.0])  # entropy -5 < target
    assert out.alpha > temp.alpha


def test_temperature_default_rate():
    from dsact.config import RunConfig

    assert RunConfig().lr_alpha == 3e-4


def test_temperature_stays_positive():
    temp = Temperature(alpha=0.01, target_entropy=-1.0, lr_alpha=0.5)
    for _ in range(100):
        temp = temperature_update(temp, [-10.0])  # strong shrink pressure
        assert temp.alpha >= ALPHA_MIN
