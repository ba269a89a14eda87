"""Twin return-distribution critics and their update kernel.

Covers target construction (expected and random targets from the
smaller-mean target critic), clipping of the random target around the
current mean, the two-coefficient gradient kernel with its epsilon
guards, the moving-average clipping boundary b and gradient scale
omega, and target-network synchronization. A frozen `KernelSpec` says
which of the paper's refinements an update applies; `critic_update`
runs every kernel from it, the full one by default, and `baselines`
holds the spec of each named family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import policy_head, policy_sample, value_head_batch, value_head_sigma_grad
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


@dataclass(frozen=True)
class KernelSpec:
    """One critic kernel, resolved once per run.

    The three refinement fields are the paper's switches. With
    variance adjustment the clip boundary b and the gradient scale
    omega + eps_omega adapt per critic; without it the boundary is
    `fixed_b`, the scale is 1 and the epsilon guards are off. A
    non-distributional kernel is SAC's mean-squared TD on the mean
    channel, with the expected target and no boundary.
    """

    expected_value_substitution: bool = True  # mean term uses y_q, else the random y_z
    twin_distributions: bool = True  # both critics learn; targets take the smaller mean
    variance_adjustment: bool = True
    distributional: bool = True
    fixed_b: float = 20.0

    @property
    def active_critics(self) -> tuple[int, ...]:
        return (0, 1) if self.twin_distributions else (0,)


def critic_sizes(obs_dim: int, act_dim: int, hidden) -> list[int]:
    """A critic's layer sizes: state and action in, the return
    distribution's mean and raw (pre-softplus) sigma out."""
    return [obs_dim + act_dim, *hidden, 2]


def init_critic_pair(
    rngs: tuple[np.random.Generator, np.random.Generator],
    obs_dim: int,
    act_dim: int,
    hidden: list[int],
) -> CriticPairState:
    nets = tuple(init_mlp(r, critic_sizes(obs_dim, act_dim, hidden)) for r in rngs)
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


def clip_target(y_z, q_current, b):
    """Clamp the random target into [q_current - b, q_current + b]."""
    return np.asarray(y_z).clip(q_current - b, q_current + b)


def _coeff_arrays(mean_target, y_z_clipped, q, sigma, eps):
    g_q = -(mean_target - q) / (sigma * sigma + eps)
    g_sigma = -((y_z_clipped - q) ** 2 - sigma * sigma) / (sigma**3 + eps)
    return g_q, g_sigma


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
    a2, logp = policy_sample(dist, rng.standard_normal(dist.mu.shape))

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
    # pre-adjustment kernel: fixed b, bare sigma powers, no eps guards.
    # critic_update runs it as assemble_critic_gradient(..., b, eps=0.0),
    # which matches bit for bit: the value head keeps sigma >= SIGMA_MIN,
    # so the floor never binds, and x + 0.0 == x for the positive powers.
    # Kept as the reference the kernel tests replay against.
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


def critic_update(
    state: CriticPairState,
    batch,
    policy_target: ParamSet,
    alpha: float,
    cfg,
    rng: np.random.Generator,
    spec: KernelSpec = KernelSpec(),
) -> CriticPairState:
    """One critic update step under the kernel `spec`, by default the
    full one: expected mean target, twin distributions, and
    variance-based boundary/scale adjustment.

    cfg supplies gamma, eps, eps_omega, xi, tau and lr_critic.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    s, a, r, s2, mask = batch_arrays(batch)
    y_q, y_z, _, _ = build_targets(
        state,
        s2,
        r,
        mask,
        policy_target,
        alpha,
        cfg.gamma,
        rng,
        twin=spec.twin_distributions,
        draw_z=spec.distributional,
    )
    mean_target = y_q if spec.expected_value_substitution else y_z
    adaptive = spec.distributional and spec.variance_adjustment
    for i in spec.active_critics:
        if not spec.distributional:
            grads, q, sigma = _assemble_sac_gradient(state.theta[i], s, a, y_q)
        elif adaptive:
            grads, q, sigma = assemble_critic_gradient(
                state.theta[i], s, a, mean_target, y_z, state.b[i], cfg.eps
            )
            grads = grads.scale(state.omega[i] + cfg.eps_omega)
        else:
            grads, q, sigma = assemble_critic_gradient(
                state.theta[i], s, a, mean_target, y_z, spec.fixed_b, 0.0
            )
        try:
            adam_step(state.adam[i], state.theta[i], grads, cfg.lr_critic)
        except NumericalError as exc:
            raise NumericalError(
                "non-finite critic gradient "
                f"(critic {i + 1}, q range [{np.min(q):.3g}, {np.max(q):.3g}], "
                f"sigma range [{np.min(sigma):.3g}, {np.max(sigma):.3g}], "
                f"target range [{np.min(y_q):.3g}, {np.max(y_q):.3g}])"
            ) from exc
        if adaptive:
            tau_stats = 1.0 if not state.stats_initialized[i] else cfg.tau
            state.b[i], state.omega[i] = update_boundary_scale(
                state.b[i], state.omega[i], sigma, tau_stats, cfg.xi
            )
            state.stats_initialized[i] = True
    return state
