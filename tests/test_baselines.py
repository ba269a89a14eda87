import copy

import numpy as np
import pytest

from dsact.baselines import build_variant
from dsact.config import ConfigError, RunConfig, config_from_dict
from dsact.critic import (
    assemble_critic_gradient,
    batch_arrays,
    build_targets,
    critic_forward,
    critic_update,
    _assemble_fixed_boundary_gradient,
    _assemble_sac_gradient,
    update_boundary_scale,
)
from dsact.numerics import adam_step, init_mlp

from conftest import params_equal
from scalar_reference import grad_coeff_sac, grad_coeffs_dsact, grad_coeffs_v1
from test_critic import KernelCfg, make_batch, make_pair


def kernel(**flags):
    """The kernel spec a run config with these fields resolves to."""
    return RunConfig(**flags).kernel()


def test_v1_zero_mean_coefficient():
    assert grad_coeffs_v1(y_z=2.0, y_z_clipped=2.0, q=2.0, sigma=1.0).g_q == 0.0


def test_v1_printed_values():
    c = grad_coeffs_v1(y_z=3.0, y_z_clipped=3.0, q=1.0, sigma=1.0)
    assert c.g_q == -2.0
    assert c.g_sigma == -3.0


def test_v1_sigma_floor_guard():
    c = grad_coeffs_v1(y_z=1.0, y_z_clipped=1.0, q=0.0, sigma=0.0)
    assert np.isfinite(c.g_q) and np.isfinite(c.g_sigma)


def test_sac_coefficient():
    assert grad_coeff_sac(2.0, 2.0) == 0.0
    assert grad_coeff_sac(2.0, 1.0) == -1.0
    for c in (0.5, 3.0, 100.0):
        assert grad_coeff_sac(c * 2.0, c * 1.0) == c * grad_coeff_sac(2.0, 1.0)


def test_v1_mean_coefficient_expectation_matches_dsact(rng):
    """Averaging the random-target coefficient over z-draws recovers the
    expected-target coefficient (epsilon off)."""
    q, sigma = 1.2, 0.8
    r, gamma, alpha, logp = 0.3, 0.99, 0.2, -0.5
    q_next, sigma_next = 2.0, 1.5
    n = 100_000
    z = q_next + sigma_next * rng.standard_normal(n)
    y_z = r + gamma * (z - alpha * logp)
    y_q = r + gamma * (q_next - alpha * logp)
    coeffs = -(y_z - q) / sigma**2
    want = grad_coeffs_dsact(y_q, y_q, q, sigma, eps=0.0).g_q
    sem = np.std(coeffs, ddof=1) / np.sqrt(n)
    assert abs(np.mean(coeffs) - want) < 4 * sem


def test_v1_mean_coefficient_higher_variance(rng):
    """Across z-draws the random-target coefficient fluctuates; the
    expected-target coefficient is a constant."""
    q, sigma = 0.4, 1.1
    r, gamma, alpha, logp = 0.0, 0.95, 0.1, -1.0
    q_next, sigma_next = 1.0, 0.9
    n = 10_000
    z = q_next + sigma_next * rng.standard_normal(n)
    y_z = r + gamma * (z - alpha * logp)
    y_q = r + gamma * (q_next - alpha * logp)
    v1_coeffs = -(y_z - q) / sigma**2
    dsact_coeffs = np.full(n, -(y_q - q) / sigma**2)
    assert np.var(dsact_coeffs) == 0.0
    assert np.var(v1_coeffs) > 0.0
    assert np.var(v1_coeffs) > np.var(dsact_coeffs)


def test_family_defaults():
    full = kernel(algorithm="dsact")
    assert full.expected_value_substitution and full.twin_distributions and full.variance_adjustment
    assert full.active_critics == (0, 1)
    v1 = kernel(algorithm="dsacv1")
    assert not (v1.expected_value_substitution or v1.twin_distributions or v1.variance_adjustment)
    assert v1.fixed_b == 20.0
    assert v1.active_critics == (0,)
    sac = kernel(algorithm="sac")
    assert sac.active_critics == (0, 1)
    sac_single = kernel(algorithm="sac", twin_distributions=False)
    assert sac_single.active_critics == (0,)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        kernel(algorithm="td3")
    with pytest.raises(ValueError):
        config_from_dict({"algorithm": "ddpg"})


def test_contradictory_v1_flags_rejected():
    with pytest.raises(ValueError):
        kernel(algorithm="dsacv1", twin_distributions=True)


@pytest.mark.parametrize(
    "algorithm, flag, value",
    [
        ("dsacv1", "expected_value_substitution", True),
        ("dsacv1", "twin_distributions", True),
        ("dsacv1", "variance_adjustment", True),
        ("sac", "expected_value_substitution", False),
        ("sac", "variance_adjustment", True),
    ],
)
def test_flag_the_family_cannot_honour_rejected(algorithm, flag, value):
    with pytest.raises(ConfigError, match=f"{algorithm} does not accept {flag}={value}"):
        config_from_dict({"algorithm": algorithm, flag: value})


@pytest.mark.parametrize(
    "algorithm, flags",
    [
        ("dsact", {"expected_value_substitution": False}),
        ("dsact", {"twin_distributions": False}),
        ("dsact", {"variance_adjustment": False, "fixed_boundary_b": 5.0}),
        ("dsacv1", {"expected_value_substitution": False, "twin_distributions": False, "variance_adjustment": False}),
        ("sac", {"twin_distributions": False}),
        ("sac", {"expected_value_substitution": True, "variance_adjustment": False}),
    ],
)
def test_flag_the_family_honours_reaches_the_kernel(algorithm, flags):
    spec = config_from_dict({"algorithm": algorithm, **flags}).kernel()
    for name, value in flags.items():
        assert getattr(spec, "fixed_b" if name == "fixed_boundary_b" else name) == value
    assert spec.distributional == (algorithm != "sac")


def test_all_on_variant_matches_critic_update(rng):
    """Composition identity: the all-on variant is the full kernel."""
    pair1 = make_pair(seed=31)
    pair2 = copy.deepcopy(pair1)
    policy = init_mlp(np.random.default_rng(3), [3, 8, 2])
    batch = make_batch(rng, n=8)
    cfg = KernelCfg()
    critic_update(pair1, batch, policy, 0.2, cfg, np.random.default_rng(9))
    step = build_variant(kernel())
    step(pair2, batch, policy, 0.2, cfg, np.random.default_rng(9))
    for i in range(2):
        assert params_equal(pair1.theta[i], pair2.theta[i])
        assert pair1.b[i] == pair2.b[i]
        assert pair1.omega[i] == pair2.omega[i]


def test_dsacv1_composition(rng):
    """Single distribution, random target in the mean term, fixed b,
    unit scale, and no boundary statistics tracking."""
    pair = make_pair(seed=17)
    pair2 = copy.deepcopy(pair)
    policy = init_mlp(np.random.default_rng(8), [3, 8, 2])
    batch = make_batch(rng, n=6)
    cfg = KernelCfg()
    step = build_variant(kernel(algorithm="dsacv1"))
    step(pair, batch, policy, 0.2, cfg, np.random.default_rng(4))

    # critic 2 untouched, boundary stats untouched
    assert params_equal(pair.theta[1], pair2.theta[1])
    assert pair.b == [0.0, 0.0] and pair.omega == [0.0, 0.0]

    # manual replay: single-critic targets, y_z in the mean term, b = 20
    s, a, r, s2, mask = batch_arrays(batch)
    y_q, y_z, chosen, _ = build_targets(
        pair2, s2, r, mask, policy, 0.2, cfg.gamma, np.random.default_rng(4), twin=False
    )
    assert np.all(chosen == 0)
    grads, _, _ = _assemble_fixed_boundary_gradient(
        pair2.theta[0], s, a, y_z, y_z, 20.0
    )
    adam_step(pair2.adam[0], pair2.theta[0], grads, cfg.lr_critic)
    assert params_equal(pair.theta[0], pair2.theta[0])


def test_fixed_boundary_keeps_expected_target(rng):
    """Turning off only the variance adjustment keeps the expected
    target in the mean term."""
    pair = make_pair(seed=23)
    pair2 = copy.deepcopy(pair)
    policy = init_mlp(np.random.default_rng(6), [3, 8, 2])
    batch = make_batch(rng, n=6)
    cfg = KernelCfg()
    step = build_variant(kernel(variance_adjustment=False))
    step(pair, batch, policy, 0.2, cfg, np.random.default_rng(12))

    s, a, r, s2, mask = batch_arrays(batch)
    y_q, y_z, _, _ = build_targets(
        pair2, s2, r, mask, policy, 0.2, cfg.gamma, np.random.default_rng(12), twin=True
    )
    for i in range(2):
        grads, _, _ = _assemble_fixed_boundary_gradient(
            pair2.theta[i], s, a, y_q, y_z, 20.0
        )
        adam_step(pair2.adam[i], pair2.theta[i], grads, cfg.lr_critic)
        assert params_equal(pair.theta[i], pair2.theta[i])
    assert pair.b == [0.0, 0.0]  # no statistics tracking


def test_sac_composition(rng):
    """Twin mean-squared TD kernel: min target, no sigma gradient."""
    pair = make_pair(seed=41)
    pair2 = copy.deepcopy(pair)
    policy = init_mlp(np.random.default_rng(2), [3, 8, 2])
    batch = make_batch(rng, n=6)
    cfg = KernelCfg()
    step = build_variant(kernel(algorithm="sac"))
    step(pair, batch, policy, 0.2, cfg, np.random.default_rng(33))

    s, a, r, s2, mask = batch_arrays(batch)
    y_q, _, _, _ = build_targets(
        pair2, s2, r, mask, policy, 0.2, cfg.gamma, np.random.default_rng(33),
        twin=True, draw_z=False,
    )
    for i in range(2):
        grads, _, _ = _assemble_sac_gradient(pair2.theta[i], s, a, y_q)
        adam_step(pair2.adam[i], pair2.theta[i], grads, cfg.lr_critic)
        assert params_equal(pair.theta[i], pair2.theta[i])
        # the spread head carries no gradient
        out = pair.theta[i].layers[-1]
        out0 = make_pair(seed=41).theta[i].layers[-1]
        assert np.array_equal(out.weight[1], out0.weight[1])
        assert out.bias[1] == out0.bias[1]


def test_no_evs_composition(rng):
    """Turning off only the expected-value substitution puts the random
    target in the mean term and keeps twin critics with adaptive b and
    omega."""
    pair = make_pair(seed=29)
    pair2 = copy.deepcopy(pair)
    policy = init_mlp(np.random.default_rng(5), [3, 8, 2])
    batch = make_batch(rng, n=6)
    cfg = KernelCfg()
    step = build_variant(kernel(expected_value_substitution=False))
    step(pair, batch, policy, 0.2, cfg, np.random.default_rng(19))

    s, a, r, s2, mask = batch_arrays(batch)
    y_q, y_z, _, _ = build_targets(
        pair2, s2, r, mask, policy, 0.2, cfg.gamma, np.random.default_rng(19), twin=True
    )
    assert not np.array_equal(y_q, y_z)
    for i in range(2):
        grads, _, sigma = assemble_critic_gradient(
            pair2.theta[i], s, a, y_z, y_z, pair2.b[i], cfg.eps
        )
        scale = pair2.omega[i] + cfg.eps_omega
        adam_step(pair2.adam[i], pair2.theta[i], grads * scale, cfg.lr_critic)
        pair2.b[i], pair2.omega[i] = update_boundary_scale(
            pair2.b[i], pair2.omega[i], sigma, 1.0, cfg.xi
        )
        assert params_equal(pair.theta[i], pair2.theta[i])
        assert pair.b[i] == pair2.b[i] > 0
        assert pair.omega[i] == pair2.omega[i] > 0


def test_single_dist_composition(rng):
    """Turning off only the twin distributions trains the first critic
    alone, on its own target critic, with the expected mean target and
    adaptive b and omega."""
    pair = make_pair(seed=37)
    pair2 = copy.deepcopy(pair)
    policy = init_mlp(np.random.default_rng(7), [3, 8, 2])
    batch = make_batch(rng, n=6)
    cfg = KernelCfg()
    step = build_variant(kernel(twin_distributions=False))
    step(pair, batch, policy, 0.2, cfg, np.random.default_rng(15))

    # critic 2 untouched, and so are its boundary stats
    assert params_equal(pair.theta[1], pair2.theta[1])
    assert pair.b[1] == 0.0 and pair.omega[1] == 0.0

    s, a, r, s2, mask = batch_arrays(batch)
    y_q, y_z, chosen, _ = build_targets(
        pair2, s2, r, mask, policy, 0.2, cfg.gamma, np.random.default_rng(15), twin=False
    )
    assert np.all(chosen == 0)
    grads, _, sigma = assemble_critic_gradient(pair2.theta[0], s, a, y_q, y_z, 0.0, cfg.eps)
    adam_step(pair2.adam[0], pair2.theta[0], grads * cfg.eps_omega, cfg.lr_critic)
    pair2.b[0], pair2.omega[0] = update_boundary_scale(0.0, 0.0, sigma, 1.0, cfg.xi)
    assert params_equal(pair.theta[0], pair2.theta[0])
    assert pair.b[0] == pair2.b[0] and pair.omega[0] == pair2.omega[0]


def test_sac_single_composition(rng):
    """SAC without twin distributions: one mean-squared TD critic on its
    own target critic's expected target."""
    pair = make_pair(seed=59)
    pair2 = copy.deepcopy(pair)
    policy = init_mlp(np.random.default_rng(9), [3, 8, 2])
    batch = make_batch(rng, n=6)
    cfg = KernelCfg()
    step = build_variant(kernel(algorithm="sac", twin_distributions=False))
    step(pair, batch, policy, 0.2, cfg, np.random.default_rng(35))

    assert params_equal(pair.theta[1], pair2.theta[1])
    assert pair.b == [0.0, 0.0] and pair.omega == [0.0, 0.0]

    s, a, r, s2, mask = batch_arrays(batch)
    y_q, _, chosen, _ = build_targets(
        pair2, s2, r, mask, policy, 0.2, cfg.gamma, np.random.default_rng(35),
        twin=False, draw_z=False,
    )
    assert np.all(chosen == 0)
    # the twin minimum would have taken critic 2's target somewhere
    _, _, twin_chosen, _ = build_targets(
        pair2, s2, r, mask, policy, 0.2, cfg.gamma, np.random.default_rng(35),
        twin=True, draw_z=False,
    )
    assert np.any(twin_chosen == 1)
    grads, _, _ = _assemble_sac_gradient(pair2.theta[0], s, a, y_q)
    adam_step(pair2.adam[0], pair2.theta[0], grads, cfg.lr_critic)
    assert params_equal(pair.theta[0], pair2.theta[0])


def test_sac_fixed_point(rng):
    """When every TD error is zero the SAC kernel leaves parameters
    unchanged from fresh moments."""
    pair = make_pair(seed=51)
    s = rng.standard_normal((5, 3))
    a = rng.standard_normal((5, 1))
    q, _, _, _ = critic_forward(pair.theta[0], s, a)
    grads, _, _ = _assemble_sac_gradient(pair.theta[0], s, a, q.copy())
    assert not grads.any()


def test_variant_fixed_points_share_zero():
    """All kernels vanish at zero TD error with matched deviations."""
    assert grad_coeffs_dsact(1.0, 1.0, 1.0, 2.0, 0.1).g_q == 0.0
    assert grad_coeffs_v1(1.0, 3.0, 1.0, 2.0).g_q == 0.0
    assert grad_coeff_sac(1.0, 1.0) == 0.0
    assert grad_coeffs_dsact(0.0, 3.0, 1.0, 2.0, 0.0).g_sigma == 0.0
    assert grad_coeffs_v1(0.0, 3.0, 1.0, 2.0).g_sigma == 0.0
