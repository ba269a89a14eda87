"""Policy improvement and temperature adaptation.

The actor ascends the batch mean of min-critic Q at a reparameterized
action minus the temperature-weighted log-probability; the gradient is
assembled analytically by chaining through the squash, the critic's
action input, and the policy trunk. The temperature follows a plain
gradient step toward the target entropy with a positivity floor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .critic import CriticPairState, critic_forward
from .distributions import (
    EPS_TANH,
    LOG_STD_MAX,
    LOG_STD_MIN,
    PolicyDistParams,
    policy_head,
    policy_sample,
)
from .numerics import GradSet, NumericalError, ParamSet, mlp_backward, mlp_forward

ALPHA_MIN = 1e-6


@dataclass
class Temperature:
    alpha: float
    target_entropy: float
    lr_alpha: float


def actor_sizes(obs_dim: int, act_dim: int, hidden) -> list[int]:
    """The policy network's layer sizes: observation in, mean and
    log-std per action dimension out."""
    return [obs_dim, *hidden, 2 * act_dim]


def policy_forward(phi: ParamSet, states: np.ndarray) -> PolicyDistParams:
    raw, _ = mlp_forward(phi, states)
    return policy_head(raw)


def act_stochastic(phi: ParamSet, obs: np.ndarray, rng: np.random.Generator):
    """Sample an action for rollout; returns (action, logp)."""
    dist = policy_forward(phi, obs)
    return policy_sample(dist, rng.standard_normal(dist.mu.shape))


def act_deterministic(phi: ParamSet, obs: np.ndarray) -> np.ndarray:
    """Evaluation action: the squashed distribution mode tanh(mu)."""
    return np.tanh(policy_forward(phi, obs).mu)


def actor_gradient(
    phi: ParamSet,
    batch_states: np.ndarray,
    critics: CriticPairState,
    alpha: float,
    rng: np.random.Generator,
    active: tuple[int, ...] = (0, 1),
) -> GradSet:
    """Ascent gradient of mean[min_i Q_i(s, a(phi)) - alpha * log pi(a|s)].

    One fresh reparameterization draw per state; critic parameters are
    constants, but the gradient flows through the action into the
    chosen critic's input and through the squash correction.
    """
    states = np.atleast_2d(np.asarray(batch_states, dtype=np.float64))
    n = states.shape[0]
    raw, cache_pi = mlp_forward(phi, states)
    dist = policy_head(raw)
    d = dist.mu.shape[1]
    raw_ls = raw[:, d:]
    in_range = ((raw_ls > LOG_STD_MIN) & (raw_ls < LOG_STD_MAX)).astype(np.float64)
    zeta = rng.standard_normal((n, d))
    t, _ = policy_sample(dist, zeta)

    q_vals = []
    caches = []
    for i in active:
        q_i, _, _, cache_i = critic_forward(critics.theta[i], states, t)
        q_vals.append(q_i)
        caches.append(cache_i)
    if len(active) == 1:
        choice = np.zeros(n, dtype=int)
    else:
        choice = np.argmin(np.stack(q_vals, axis=0), axis=0)

    # dQ/da of the per-sample chosen critic, via masked input gradients
    dq_da = np.zeros((n, d))
    for k, i in enumerate(active):
        sel = (choice == k).astype(np.float64)
        out_grad = np.stack([sel, np.zeros(n)], axis=1)
        _, input_grad = mlp_backward(critics.theta[i], caches[k], out_grad)
        dq_da += input_grad[:, states.shape[1] :]

    one_minus_t2 = 1.0 - t * t
    dlogp_du = 2.0 * t * one_minus_t2 / (one_minus_t2 + EPS_TANH)
    g_u = dq_da * one_minus_t2 - alpha * dlogp_du
    g_mu = g_u
    # direct log_std part of logp is -1 per dimension; the rest rides on u
    g_ls = (g_u * np.exp(dist.log_std) * zeta + alpha) * in_range
    out_grad_pi = np.concatenate([g_mu, g_ls], axis=1) / n
    grads, _ = mlp_backward(phi, cache_pi, out_grad_pi)
    if not grads.is_finite():
        raise NumericalError(
            f"non-finite actor gradient (alpha={alpha:.3g}, "
            f"q range [{np.min(q_vals):.3g}, {np.max(q_vals):.3g}])"
        )
    return grads


def temperature_update(temp: Temperature, logp_batch) -> Temperature:
    """Move alpha toward the target entropy; floors keep it positive."""
    logp = np.asarray(logp_batch, dtype=np.float64)
    grad = float(np.mean(-logp - temp.target_entropy))
    alpha_new = max(ALPHA_MIN, temp.alpha - temp.lr_alpha * grad)
    return replace(temp, alpha=alpha_new)
