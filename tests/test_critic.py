import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsact.config import RunConfig
from dsact.critic import (
    assemble_critic_gradient,
    batch_arrays,
    build_targets,
    clip_target,
    critic_forward,
    critic_update,
    init_critic_pair,
    soft_update,
    update_boundary_scale,
)
from dsact.distributions import policy_head
from dsact.numerics import adam_step, init_mlp, mlp_forward
from dsact.replay import Batch

from conftest import clip_one, fresh_adam, params_equal
from scalar_reference import compute_targets, grad_coeffs_dsact, select_min_target, squashed_logprob


def make_pair(seed=0, obs_dim=3, act_dim=1, hidden=(8, 8)):
    rngs = (np.random.default_rng(seed), np.random.default_rng(seed + 1000))
    return init_critic_pair(rngs, obs_dim, act_dim, list(hidden))


def make_batch(rng, n=6, obs_dim=3, act_dim=1) -> Batch:
    s, a, r, s2 = [], [], [], []
    for _ in range(n):
        s.append(rng.standard_normal(obs_dim))
        a.append(np.tanh(rng.standard_normal(act_dim)))
        r.append(float(rng.standard_normal()))
        s2.append(rng.standard_normal(obs_dim))
    return Batch(
        s=np.array(s).reshape(n, obs_dim),
        a=np.array(a).reshape(n, act_dim),
        r=np.array(r),
        s_next=np.array(s2).reshape(n, obs_dim),
        done=np.zeros(n, dtype=bool),
    )


def test_select_min_target():
    assert select_min_target(3.0, 5.0) == 1
    assert select_min_target(5.0, 3.0) == 2
    assert select_min_target(4.0, 4.0) == 1  # documented tie-break


def test_compute_targets_one_step():
    t = compute_targets(r=2.0, done=False, q_next=10.0, z_draw=11.0, logp_next=-0.5, alpha=0.2, gamma=0.0)
    assert t.y_q == 2.0 and t.y_z == 2.0


def test_compute_targets_termination_mask():
    t = compute_targets(r=1.0, done=True, q_next=99.0, z_draw=-99.0, logp_next=3.0, alpha=0.7, gamma=0.95)
    assert t.y_q == 1.0 and t.y_z == 1.0


def test_compute_targets_printed_formula():
    t = compute_targets(r=0.0, done=False, q_next=10.0, z_draw=12.0, logp_next=-1.0, alpha=0.2, gamma=0.99)
    assert t.y_q == pytest.approx(10.098, abs=1e-12)
    assert t.y_z == pytest.approx(12.078, abs=1e-12)


def test_clip_target_cases():
    got = clip_target(np.array([10.0, -10.0, 2.0]), np.zeros(3), 3.0)
    assert np.array_equal(got, [3.0, -3.0, 2.0])


@given(
    y_z=st.floats(-1e6, 1e6),
    q=st.floats(-1e4, 1e4),
    b=st.floats(0, 1e4),
)
def test_clip_containment(y_z, q, b):
    slack = 1e-12 * max(1.0, abs(q), b)  # rounding of q +- b
    assert abs(clip_one(y_z, q, b) - q) <= b + slack


def test_grad_coeffs_zero_td_error():
    c = grad_coeffs_dsact(y_q=4.0, y_z_clipped=7.0, q=4.0, sigma=1.0, eps=0.1)
    assert c.g_q == 0.0


def test_grad_coeffs_variance_fixed_point():
    c = grad_coeffs_dsact(y_q=1.0, y_z_clipped=3.0, q=1.0, sigma=2.0, eps=0.1)
    assert c.g_sigma == 0.0  # (clipped - q)^2 == sigma^2


def test_grad_coeffs_printed_values():
    c = grad_coeffs_dsact(y_q=2.0, y_z_clipped=2.0, q=1.0, sigma=1.0, eps=0.0)
    assert c.g_q == -1.0
    assert c.g_sigma == 0.0


@pytest.mark.parametrize("c", [0.01, 100.0])
def test_kernel_scale_equivariance(c):
    """With eps = eps_omega = 0, scaling inputs by c and omega by c^2
    multiplies both coefficient products by exactly c."""
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = float(rng.normal(0, 5))
        sigma = float(rng.uniform(0.1, 4))
        y_q = float(rng.normal(0, 5))
        y_z = float(rng.normal(0, 5))
        b = float(rng.uniform(0.1, 5))
        omega = float(rng.uniform(0.01, 9))
        g = grad_coeffs_dsact(y_q, clip_one(y_z, q, b), q, sigma, eps=0.0)
        g_scaled = grad_coeffs_dsact(
            c * y_q, clip_one(c * y_z, c * q, c * b), c * q, c * sigma, eps=0.0
        )
        prod_q, prod_s = omega * g.g_q, omega * g.g_sigma
        prod_q_c = (c * c * omega) * g_scaled.g_q
        prod_s_c = (c * c * omega) * g_scaled.g_sigma
        assert prod_q_c == pytest.approx(c * prod_q, rel=1e-12)
        assert prod_s_c == pytest.approx(c * prod_s, rel=1e-12)


def test_update_boundary_scale_direct():
    b, omega = update_boundary_scale(0.0, 0.0, np.array([2.0, 2.0, 2.0]), tau=1.0, xi=3.0)
    assert b == 6.0 and omega == 4.0


def test_update_boundary_scale_frozen():
    b, omega = update_boundary_scale(1.5, 0.7, np.array([9.0, 2.0]), tau=0.0, xi=3.0)
    assert b == 1.5 and omega == 0.7


def test_update_boundary_scale_geometric_convergence():
    b, omega = 10.0, 10.0
    tau, xi = 0.25, 3.0
    sigma = np.full(4, 2.0)
    b_star, omega_star = 6.0, 4.0
    gap_b, gap_o = b - b_star, omega - omega_star
    for _ in range(20):
        b, omega = update_boundary_scale(b, omega, sigma, tau, xi)
        gap_b *= 1 - tau
        gap_o *= 1 - tau
        assert b - b_star == pytest.approx(gap_b, rel=1e-12, abs=1e-12)
        assert omega - omega_star == pytest.approx(gap_o, rel=1e-12, abs=1e-12)


def test_update_boundary_scale_rejects_empty():
    with pytest.raises(ValueError):
        update_boundary_scale(0.0, 0.0, np.array([]), 0.5, 3.0)


@given(
    sigmas=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=8),
    tau=st.floats(0.0, 1.0),
    b0=st.floats(0, 1e3),
    omega0=st.floats(0, 1e6),
)
@settings(max_examples=200)
def test_boundary_scale_nonnegative(sigmas, tau, b0, omega0):
    b, omega = update_boundary_scale(b0, omega0, np.array(sigmas), tau, 3.0)
    assert b >= 0.0 and omega >= 0.0


def test_soft_update_hard_copy(rng):
    src = init_mlp(rng, [2, 4, 1])
    dst = init_mlp(rng, [2, 4, 1])
    soft_update(src, dst, tau=1.0)
    assert params_equal(src, dst)


def test_soft_update_geometric_contraction(rng):
    src = init_mlp(rng, [2, 4, 1])
    dst = init_mlp(rng, [2, 4, 1])
    tau = 0.005
    gap0 = max(
        np.max(np.abs(ls.weight - lt.weight)) for ls, lt in zip(src.layers, dst.layers)
    )
    for n in range(1, 30):
        soft_update(src, dst, tau)
        gap = max(
            np.max(np.abs(ls.weight - lt.weight)) for ls, lt in zip(src.layers, dst.layers)
        )
        assert gap == pytest.approx((1 - tau) ** n * gap0, rel=1e-9)


def test_soft_update_shape_mismatch(rng):
    src = init_mlp(rng, [2, 4, 1])
    dst = init_mlp(rng, [2, 5, 1])
    with pytest.raises(ValueError):
        soft_update(src, dst, 0.5)


def test_default_tau_is_marginal():
    from dsact.config import RunConfig

    assert RunConfig().tau == 0.005


def test_build_targets_matches_scalar_op(rng):
    """Vectorized targets agree with the per-sample operation."""
    pair = make_pair(seed=5)
    policy = init_mlp(np.random.default_rng(9), [3, 8, 2])
    batch = make_batch(rng, n=5)
    batch.done[2] = True
    s, a, r, s2, mask = batch_arrays(batch)
    alpha, gamma = 0.3, 0.95

    rng_targets = np.random.default_rng(77)
    y_q, y_z, chosen, sigma_next = build_targets(
        pair, s2, r, mask, policy, alpha, gamma, rng_targets
    )

    # replay the same draws through the scalar path
    rng_replay = np.random.default_rng(77)
    raw, _ = mlp_forward(policy, s2)
    dist = policy_head(raw)
    noise = rng_replay.standard_normal(dist.mu.shape)
    u = dist.mu + np.exp(dist.log_std) * noise
    a2 = np.tanh(u)
    z_noise_all = None
    q_bars = [critic_forward(pair.theta_bar[i], s2, a2)[0] for i in range(2)]
    sig_bars = [critic_forward(pair.theta_bar[i], s2, a2)[1] for i in range(2)]
    z_noise_all = rng_replay.standard_normal(len(batch))
    for j in range(len(batch)):
        idx = select_min_target(q_bars[0][j], q_bars[1][j])
        q_next = q_bars[idx - 1][j]
        z_draw = q_next + sig_bars[idx - 1][j] * z_noise_all[j]
        logp = squashed_logprob(u[j], dist.mu[j], dist.log_std[j])
        t = compute_targets(r[j], batch.done[j], q_next, z_draw, logp, alpha, gamma, idx)
        assert y_q[j] == pytest.approx(t.y_q, rel=1e-12, abs=1e-12)
        assert y_z[j] == pytest.approx(t.y_z, rel=1e-12, abs=1e-12)
        assert chosen[j] == idx - 1


def test_twin_min_dominance(rng):
    """y_q from the chosen index never exceeds either critic's y_q."""
    pair = make_pair(seed=11)
    policy = init_mlp(np.random.default_rng(4), [3, 8, 2])
    batch = make_batch(rng, n=16)
    s, a, r, s2, mask = batch_arrays(batch)
    y_q_min, _, _, _ = build_targets(
        pair, s2, r, mask, policy, 0.25, 0.97, np.random.default_rng(21)
    )
    for forced in (0, 1):
        rng2 = np.random.default_rng(21)
        raw, _ = mlp_forward(policy, s2)
        dist = policy_head(raw)
        noise = rng2.standard_normal(dist.mu.shape)
        u = dist.mu + np.exp(dist.log_std) * noise
        a2 = np.tanh(u)
        logp = squashed_logprob(u, dist.mu, dist.log_std)
        q_i = critic_forward(pair.theta_bar[forced], s2, a2)[0]
        y_q_forced = r + mask * 0.97 * (q_i - 0.25 * logp)
        assert np.all(y_q_min <= y_q_forced + 1e-12)


def test_expectation_equivalence(rng):
    """Averaging the random target over draws recovers the expected target."""
    n_draws = 100_000
    gamma, alpha = 0.99, 0.2
    r, q_next, sigma_next, logp = 0.5, 3.0, 1.7, -0.8
    z = q_next + sigma_next * rng.standard_normal(n_draws)
    y_z = r + gamma * (z - alpha * logp)
    y_q = r + gamma * (q_next - alpha * logp)
    assert abs(np.mean(y_z) - y_q) <= 4 * gamma * sigma_next / np.sqrt(n_draws)


def test_critic_update_fixed_point():
    """Zero TD error and sigma-matched clipped deviation give a zero
    gradient, so fresh Adam moments leave the parameters unchanged."""
    pair = make_pair(seed=2)
    theta = pair.theta[0]
    rng = np.random.default_rng(0)
    s = rng.standard_normal((4, 3))
    a = rng.standard_normal((4, 1))
    q, sigma, _, _ = critic_forward(theta, s, a)
    # nudge y_z until the float subtraction y_z - q lands exactly on
    # sigma; round-to-even can make some samples unreachable, drop those
    y_z = q + sigma
    keep = []
    for j in range(len(y_z)):
        for _ in range(8):
            d = y_z[j] - q[j]
            if d == sigma[j]:
                keep.append(j)
                break
            y_z[j] = np.nextafter(y_z[j], y_z[j] + (sigma[j] - d))
    assert len(keep) >= 2
    s, a, y_z = s[keep], a[keep], y_z[keep]
    q, sigma = q[keep], sigma[keep]
    y_q = q.copy()
    b = float(np.max(sigma) + 1.0)
    grads, _, _ = assemble_critic_gradient(theta, s, a, y_q, y_z, b, eps=0.1)
    assert not grads.any()
    before = theta.copy()
    adam_step(fresh_adam(theta), theta, grads, 1e-3)
    assert params_equal(theta, before)


def test_critic_update_composition_order(rng):
    """The update applies coefficients with the pre-update b and omega,
    scales by omega + eps_omega, steps Adam, then refreshes b and omega
    from the current batch's sigma statistics."""
    pair = make_pair(seed=8)
    pair2 = copy.deepcopy(pair)
    policy = init_mlp(np.random.default_rng(14), [3, 8, 2])
    batch = make_batch(rng, n=8)
    cfg = RunConfig(lr_critic=1e-3)

    critic_update(pair, batch, policy, alpha=0.2, cfg=cfg, rng=np.random.default_rng(55))

    # manual replay
    s, a, r, s2, mask = batch_arrays(batch)
    y_q, y_z, _, _ = build_targets(
        pair2, s2, r, mask, policy, 0.2, cfg.gamma, np.random.default_rng(55)
    )
    for i in range(2):
        grads, _, sigma = assemble_critic_gradient(
            pair2.theta[i], s, a, y_q, y_z, pair2.b[i], cfg.eps
        )
        scale = pair2.omega[i] + cfg.eps_omega  # omega starts at 0 -> scale eps_omega
        assert scale == cfg.eps_omega
        adam_step(pair2.adam[i], pair2.theta[i], grads * scale, cfg.lr_critic)
        pair2.b[i], pair2.omega[i] = update_boundary_scale(
            pair2.b[i], pair2.omega[i], sigma, 1.0, cfg.xi  # first refresh is pure batch stats
        )
    for i in range(2):
        assert params_equal(pair.theta[i], pair2.theta[i])
        assert pair.b[i] == pair2.b[i]
        assert pair.omega[i] == pair2.omega[i]
        assert pair.b[i] > 0 and pair.omega[i] > 0


def test_critic_update_second_call_uses_config_tau(rng):
    pair = make_pair(seed=8)
    policy = init_mlp(np.random.default_rng(14), [3, 8, 2])
    cfg = RunConfig(lr_critic=1e-3)
    batch = make_batch(rng, n=8)
    critic_update(pair, batch, policy, 0.2, cfg, np.random.default_rng(1))
    b_prev, om_prev = pair.b[0], pair.omega[0]
    critic_update(pair, batch, policy, 0.2, cfg, np.random.default_rng(2))
    # once the stats are initialized the moving average crawls at tau
    assert pair.b[0] != b_prev
    assert abs(pair.b[0] - b_prev) <= 2 * cfg.tau * max(b_prev, 1.0)
    assert pair.omega[0] != om_prev


def test_critic_update_rejects_empty_batch():
    pair = make_pair()
    policy = init_mlp(np.random.default_rng(0), [3, 8, 2])
    empty = make_batch(np.random.default_rng(0), n=0)
    with pytest.raises(ValueError):
        critic_update(pair, empty, policy, 0.2, RunConfig(lr_critic=1e-3), np.random.default_rng(0))
