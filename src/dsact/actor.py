"""Policy improvement and temperature adaptation.

The actor descends the loss: the batch mean of the temperature-weighted
log-probability minus min-critic Q at a reparameterized action; the
gradient is assembled analytically by chaining through the squash, the
critic's action input, and the policy trunk. The temperature alpha is
one float that follows a plain gradient step toward the target entropy
with a positivity floor.
"""

from __future__ import annotations

import numpy as np

from .critic import CriticPairState, critic_input
from .distributions import (
    EPS_TANH,
    LOG_STD_MAX,
    LOG_STD_MIN,
    PolicyDistParams,
    policy_head,
    policy_sample,
    reparameterized_draw,
)
from .numerics import NumericalError, ParamSet, mlp_backward, mlp_forward

ALPHA_MIN = 1e-6


def actor_sizes(obs_dim: int, act_dim: int, hidden) -> list[int]:
    """The policy network's layer sizes: observation in, mean and
    log-std per action dimension out."""
    return [obs_dim, *hidden, 2 * act_dim]


def policy_forward(phi: ParamSet, states: np.ndarray) -> PolicyDistParams:
    raw, _ = mlp_forward(phi, states)
    return policy_head(raw)


def act_stochastic(phi: ParamSet, obs: np.ndarray, rng: np.random.Generator):
    """Sample an action for one observation, drawn as a 1-row batch;
    returns (action, logp)."""
    dist = policy_forward(phi, obs[None])
    a, logp = policy_sample(dist, rng.standard_normal(dist.mu.shape))
    return a[0], float(logp[0])


def act_deterministic(phi: ParamSet, obs: np.ndarray) -> np.ndarray:
    """Evaluation action for one observation: the squashed mode tanh(mu)."""
    return np.tanh(policy_forward(phi, obs[None]).mu)[0]


def actor_gradient(
    phi: ParamSet,
    states: np.ndarray,
    critics: CriticPairState,
    alpha: float,
    rng: np.random.Generator,
    active: tuple[int, ...] = (0, 1),
) -> np.ndarray:
    """Gradient of the actor loss mean[alpha * log pi(a|s) - min_i Q_i(s, a(phi))],
    the negated objective, as a flat array in phi's layout; Adam steps
    along it as it is.

    One fresh reparameterization draw per state; critic parameters are
    constants, but the gradient flows through the action into the
    chosen critic's input and through the squash correction.
    """
    n, obs_dim = states.shape
    raw, cache_pi = mlp_forward(phi, states)
    dist = policy_head(raw)
    d = dist.mu.shape[1]
    raw_ls = raw[:, d:]
    in_range = (raw_ls > LOG_STD_MIN) & (raw_ls < LOG_STD_MAX)
    zeta = rng.standard_normal((n, d))
    t, std, _, _ = reparameterized_draw(dist, zeta)  # t: the action tanh(u), kept inside the box

    # only the critics' mean channel is read
    x = critic_input(states, t)
    q_vals = []
    caches = []
    for i in active:
        raw_i, cache_i = mlp_forward(critics.theta[i], x)
        q_vals.append(raw_i[:, 0])
        caches.append(cache_i)
    choice = np.argmin(np.stack(q_vals, axis=0), axis=0)  # all 0 for one active critic

    # dQ/da of the per-sample chosen critic, via masked input gradients
    dq_da = np.zeros((n, d))
    for k, i in enumerate(active):
        out_grad = np.zeros((n, 2))
        out_grad[:, 0] = choice == k
        _, input_grad = mlp_backward(critics.theta[i], caches[k], out_grad, input_only=True)
        dq_da += input_grad[:, obs_dim:]

    one_minus_t2 = t * t
    np.subtract(1.0, one_minus_t2, out=one_minus_t2)
    dlogp_du = 2.0 * t
    dlogp_du *= one_minus_t2
    dlogp_du /= one_minus_t2 + EPS_TANH
    dlogp_du *= alpha
    g_u = dq_da
    g_u *= one_minus_t2
    g_u -= dlogp_du  # dQ/da * (1 - t^2) - alpha * dlogp/du
    # direct log_std part of logp is -1 per dimension; the rest rides on u
    g_ls = g_u * std
    g_ls *= zeta
    g_ls += alpha
    g_ls *= in_range
    # [g_mu, g_ls] / -n: the loss is the negated objective, and IEEE
    # negation is exact, so this is the ascent direction negated bit for bit
    out_grad_pi = np.empty((n, 2 * d))
    np.divide(g_u, -n, out=out_grad_pi[:, :d])
    np.divide(g_ls, -n, out=out_grad_pi[:, d:])
    grads, _ = mlp_backward(phi, cache_pi, out_grad_pi)
    if not np.isfinite(grads).all():
        raise NumericalError(
            f"non-finite actor gradient (alpha={alpha:.3g}, "
            f"q range [{np.min(q_vals):.3g}, {np.max(q_vals):.3g}])"
        )
    return grads


def temperature_update(alpha: float, logp: np.ndarray, target_entropy: float, lr_alpha: float) -> float:
    """Move alpha toward the target entropy, given a batch of log
    densities; floors keep it positive."""
    grad = float(np.mean(-logp - target_entropy))
    return max(ALPHA_MIN, alpha - lr_alpha * grad)
