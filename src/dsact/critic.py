"""Twin return-distribution critics and their update kernel.

Covers target construction (expected and random targets from the
smaller-mean target critic), clipping of the random target around the
current mean, the two-coefficient gradient kernel with its epsilon
guards, the moving-average clipping boundary b and gradient scale
omega, and target-network synchronization. The generalized update
`variant_critic_update` also drives the ablation and baseline kernels
composed in `baselines`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import SIGMA_MIN, policy_head, policy_logprob, value_head_batch, value_head_sigma_grad
from .numerics import (
    AdamState,
    GradSet,
    NumericalError,
    ParamSet,
    adam_step,
    init_adam,
    init_mlp,
    mlp_backward,
    mlp_forward,
)

SIGMA_FLOOR_V1 = 1e-8


@dataclass
class CriticPairState:
    """Twin critics, their slow copies, and the per-critic b/omega stats."""

    theta: tuple[ParamSet, ParamSet]
    theta_bar: tuple[ParamSet, ParamSet]
    adam: tuple[AdamState, AdamState]
    b: list[float]
    omega: list[float]
    stats_initialized: list[bool]


@dataclass
class TargetPair:
    y_q: float
    y_z: float
    chosen_index: int  # 1 or 2


@dataclass
class GradCoeffs:
    g_q: float
    g_sigma: float


def init_critic_pair(
    rngs: tuple[np.random.Generator, np.random.Generator],
    obs_dim: int,
    act_dim: int,
    hidden: list[int],
) -> CriticPairState:
    sizes = [obs_dim + act_dim, *hidden, 2]
    nets = tuple(init_mlp(r, sizes) for r in rngs)
    return CriticPairState(
        theta=nets,
        theta_bar=tuple(n.copy() for n in nets),
        adam=tuple(init_adam(n) for n in nets),
        b=[0.0, 0.0],
        omega=[0.0, 0.0],
        stats_initialized=[False, False],
    )


def critic_forward(theta: ParamSet, states: np.ndarray, actions: np.ndarray):
    """Batched (q, sigma) with the forward cache kept for backprop."""
    x = np.concatenate([np.atleast_2d(states), np.atleast_2d(actions)], axis=1)
    raw, cache = mlp_forward(theta, x)
    q, sigma = value_head_batch(raw)
    return q, sigma, raw, cache


def select_min_target(q1_next: float, q2_next: float) -> int:
    """Index (1 or 2) of the smaller target mean; ties go to 1."""
    return 1 if q1_next <= q2_next else 2


def compute_targets(
    r: float,
    done: bool,
    q_next: float,
    z_draw: float,
    logp_next: float,
    alpha: float,
    gamma: float,
    chosen_index: int = 1,
) -> TargetPair:
    """Expected and random one-step targets with termination masking."""
    m = 0.0 if done else 1.0
    y_q = r + m * gamma * (q_next - alpha * logp_next)
    y_z = r + m * gamma * (z_draw - alpha * logp_next)
    return TargetPair(float(y_q), float(y_z), chosen_index)


def clip_target(y_z, q_current, b):
    """Clamp the random target into [q_current - b, q_current + b]."""
    return np.clip(y_z, q_current - b, q_current + b)


def _coeff_arrays(mean_target, y_z_clipped, q, sigma, eps):
    g_q = -(mean_target - q) / (sigma * sigma + eps)
    g_sigma = -((y_z_clipped - q) ** 2 - sigma * sigma) / (sigma**3 + eps)
    return g_q, g_sigma


def grad_coeffs_dsact(
    y_q: float, y_z_clipped: float, q: float, sigma: float, eps: float
) -> GradCoeffs:
    """Coefficients multiplying grad-Q and grad-sigma in the critic update.

    q and sigma are treated as constants here; the caller chains the
    coefficients through the network backward pass.
    """
    g_q, g_sigma = _coeff_arrays(
        np.float64(y_q), np.float64(y_z_clipped), np.float64(q), np.float64(sigma), eps
    )
    return GradCoeffs(float(g_q), float(g_sigma))


def update_boundary_scale(
    b: float, omega: float, sigma_batch, tau: float, xi: float
) -> tuple[float, float]:
    """Moving-average refresh of the clip boundary and gradient scale."""
    sigma_batch = np.asarray(sigma_batch, dtype=np.float64)
    if sigma_batch.size == 0:
        raise ValueError("sigma_batch must be non-empty")
    if not 0 <= tau <= 1:
        raise ValueError("tau must be in [0, 1]")
    b_new = tau * xi * float(np.mean(sigma_batch)) + (1.0 - tau) * b
    omega_new = tau * float(np.mean(sigma_batch**2)) + (1.0 - tau) * omega
    return b_new, omega_new


def soft_update(source: ParamSet, target: ParamSet, tau: float) -> ParamSet:
    """target <- tau * source + (1 - tau) * target, elementwise, in place,
    as one pass over the flat buffers."""
    if not 0 < tau <= 1:
        raise ValueError("tau must be in (0, 1]")
    if source.layout != target.layout:
        raise ValueError("network shapes differ")
    target.flat *= 1.0 - tau
    target.flat += tau * source.flat
    return target


def batch_arrays(batch) -> tuple[np.ndarray, ...]:
    """A replay `Batch` as (S, A, R, S2, bootstrap_mask)."""
    return batch.s, batch.a, batch.r, batch.s_next, 1.0 - batch.done


def build_targets(
    state: CriticPairState,
    s2: np.ndarray,
    r: np.ndarray,
    mask: np.ndarray,
    policy_target: ParamSet,
    alpha: float,
    gamma: float,
    rng: np.random.Generator,
    twin: bool = True,
    draw_z: bool = True,
):
    """Vectorized targets: one fresh next action and one shared z-draw
    per sample, both reused by the two critics' updates.

    Returns (y_q, y_z, chosen, sigma_next) arrays; chosen is 0-based.
    """
    raw, _ = mlp_forward(policy_target, s2)
    dist = policy_head(raw)
    noise = rng.standard_normal(dist.mu.shape)
    u = dist.mu + np.exp(dist.log_std) * noise
    a2 = np.tanh(u)
    logp = policy_logprob(dist, u)

    q_bars = []
    sigma_bars = []
    for i in range(2):
        q_i, sigma_i, _, _ = critic_forward(state.theta_bar[i], s2, a2)
        q_bars.append(q_i)
        sigma_bars.append(sigma_i)
    if twin:
        chosen = np.where(q_bars[0] <= q_bars[1], 0, 1)
    else:
        chosen = np.zeros(len(r), dtype=int)
    q_next = np.where(chosen == 0, q_bars[0], q_bars[1])
    sigma_next = np.where(chosen == 0, sigma_bars[0], sigma_bars[1])

    entropy_adjusted = q_next - alpha * logp
    y_q = r + mask * gamma * entropy_adjusted
    if draw_z:
        z_noise = rng.standard_normal(len(r))
        z_draw = q_next + sigma_next * z_noise
        y_z = r + mask * gamma * (z_draw - alpha * logp)
    else:
        y_z = y_q.copy()
    return y_q, y_z, chosen, sigma_next


def assemble_critic_gradient(
    theta: ParamSet,
    s: np.ndarray,
    a: np.ndarray,
    mean_target: np.ndarray,
    y_z: np.ndarray,
    b: float,
    eps: float,
) -> tuple[GradSet, np.ndarray, np.ndarray]:
    """Batch-mean parameter gradient of the two-coefficient kernel.

    The random target is clipped against this critic's current means
    with boundary b before entering the sigma coefficient.
    """
    q, sigma, raw, cache = critic_forward(theta, s, a)
    y_z_clipped = clip_target(y_z, q, b)
    g_q, g_sigma = _coeff_arrays(mean_target, y_z_clipped, q, sigma, eps)
    n = len(q)
    out_grad = np.stack(
        [g_q / n, g_sigma * value_head_sigma_grad(raw[:, 1]) / n], axis=1
    )
    grads, _ = mlp_backward(theta, cache, out_grad)
    return grads, q, sigma


def _assemble_fixed_boundary_gradient(theta, s, a, mean_target, y_z, b):
    # pre-adjustment kernel: fixed b, bare sigma powers, no eps guards
    q, sigma, raw, cache = critic_forward(theta, s, a)
    sigma = np.maximum(sigma, SIGMA_FLOOR_V1)
    y_z_clipped = clip_target(y_z, q, b)
    g_q, g_sigma = _coeff_arrays(mean_target, y_z_clipped, q, sigma, 0.0)
    n = len(q)
    out_grad = np.stack(
        [g_q / n, g_sigma * value_head_sigma_grad(raw[:, 1]) / n], axis=1
    )
    grads, _ = mlp_backward(theta, cache, out_grad)
    return grads, q, sigma


def _assemble_sac_gradient(theta, s, a, y_q):
    # mean-squared TD kernel; the sigma channel carries no gradient
    q, sigma, raw, cache = critic_forward(theta, s, a)
    g_q = -(y_q - q)
    n = len(q)
    out_grad = np.stack([g_q / n, np.zeros(n)], axis=1)
    grads, _ = mlp_backward(theta, cache, out_grad)
    return grads, q, sigma


def variant_critic_update(
    state: CriticPairState,
    batch,
    policy_target: ParamSet,
    alpha: float,
    cfg,
    rng: np.random.Generator,
    *,
    expected_mean_target: bool = True,
    twin: bool = True,
    adaptive: bool = True,
    family: str = "dist",
    fixed_b: float = 20.0,
) -> CriticPairState:
    """One critic update step under the given kernel composition.

    cfg supplies gamma, eps, eps_omega, xi, tau and lr_critic. Active
    critics are both when twin, else only the first.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    s, a, r, s2, mask = batch_arrays(batch)
    distributional = family == "dist"
    y_q, y_z, _, _ = build_targets(
        state,
        s2,
        r,
        mask,
        policy_target,
        alpha,
        cfg.gamma,
        rng,
        twin=twin,
        draw_z=distributional,
    )
    active = (0, 1) if twin else (0,)
    for i in active:
        if not distributional:
            grads, q, sigma = _assemble_sac_gradient(state.theta[i], s, a, y_q)
            scale = 1.0
        else:
            mean_target = y_q if expected_mean_target else y_z
            if adaptive:
                grads, q, sigma = assemble_critic_gradient(
                    state.theta[i], s, a, mean_target, y_z, state.b[i], cfg.eps
                )
                scale = state.omega[i] + cfg.eps_omega
            else:
                grads, q, sigma = _assemble_fixed_boundary_gradient(
                    state.theta[i], s, a, mean_target, y_z, fixed_b
                )
                scale = 1.0
        if scale != 1.0:  # x * 1.0 == x bit for bit, so the unit-scale kernels skip the copy
            grads = grads.scale(scale)
        try:
            adam_step(state.adam[i], state.theta[i], grads, cfg.lr_critic)
        except NumericalError as exc:
            raise NumericalError(
                "non-finite critic gradient "
                f"(critic {i + 1}, q range [{np.min(q):.3g}, {np.max(q):.3g}], "
                f"sigma range [{np.min(sigma):.3g}, {np.max(sigma):.3g}], "
                f"target range [{np.min(y_q):.3g}, {np.max(y_q):.3g}])"
            ) from exc
        if distributional and adaptive:
            tau_stats = 1.0 if not state.stats_initialized[i] else cfg.tau
            state.b[i], state.omega[i] = update_boundary_scale(
                state.b[i], state.omega[i], sigma, tau_stats, cfg.xi
            )
            state.stats_initialized[i] = True
    return state


def critic_update(
    state: CriticPairState,
    batch,
    policy_target: ParamSet,
    alpha: float,
    cfg,
    rng: np.random.Generator,
) -> CriticPairState:
    """The full kernel: expected mean target, twin distributions, and
    variance-based boundary/scale adjustment."""
    return variant_critic_update(state, batch, policy_target, alpha, cfg, rng)
