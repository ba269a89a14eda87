"""Gaussian heads: the return-distribution output and the squashed policy.

The value head turns the two raw critic outputs into (Q, sigma) with a
softplus floor on sigma. The policy head is a diagonal Gaussian whose
samples are squashed through tanh, with the matching log-density
correction so entropies stay well defined on the bounded action box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIGMA_MIN = 1e-4
LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
EPS_TANH = 1e-6

# The per-draw arithmetic meets 0-d float64 arrays, not Python floats:
# numpy converts a Python float operand anew on every ufunc call, which
# adds about half again to each op on a batch-1 draw. Same floats.
_MINUS_HALF, _ONE = np.array(-0.5), np.array(1.0)
_HALF_LOG_2PI = np.array(0.5 * np.log(2.0 * np.pi))
_EPS_TANH = np.array(EPS_TANH)
_LOG_STD_LO, _LOG_STD_HI = np.array(LOG_STD_MIN), np.array(LOG_STD_MAX)


@dataclass
class PolicyDistParams:
    """Pre-squash diagonal Gaussians, one (batch, act_dim) row per state."""

    mu: np.ndarray
    log_std: np.ndarray  # already clamped to [LOG_STD_MIN, LOG_STD_MAX]


def gaussian_logpdf(y, mean, std):
    """Log density of N(mean, std^2) at y, for float64 arrays or floats.

    std is not checked: the one engine caller passes std = exp(log_std)
    with log_std >= LOG_STD_MIN, so std >= e^-20 > 0 always."""
    z = (y - mean) / std
    return _MINUS_HALF * z * z - np.log(std) - _HALF_LOG_2PI


def softplus(x):
    # log(1 + e^x), overflow-safe
    return np.logaddexp(0.0, x)


def value_head_batch(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map raw (batch, 2) critic outputs to (Q, sigma) with sigma >= SIGMA_MIN."""
    return raw[:, 0], softplus(raw[:, 1]) + SIGMA_MIN


def value_head_sigma_grad(raw_spread: np.ndarray) -> np.ndarray:
    """d sigma / d raw_spread, the softplus derivative (a sigmoid)."""
    return 1.0 / (1.0 + np.exp(-raw_spread))


def policy_head(raw_out: np.ndarray) -> PolicyDistParams:
    """Split a raw (batch, 2*act_dim) network output into clamped (mu, log_std)."""
    d = raw_out.shape[1] // 2
    mu = raw_out[:, :d]
    log_std = raw_out[:, d:].clip(_LOG_STD_LO, _LOG_STD_HI)
    return PolicyDistParams(mu, log_std)


_A_MAX = np.nextafter(1.0, 0.0)  # tanh saturates to exactly 1.0 past |u| ~ 19
_A_LO, _A_HI = np.array(-_A_MAX), np.array(_A_MAX)


def _squashed_logprob(u, mu, std, t):
    """Sum over the last axis of the Gaussian log density at u minus the
    tanh correction log(1 - t^2 + EPS_TANH), given t = tanh(u)."""
    return (gaussian_logpdf(u, mu, std) - np.log(_ONE - t * t + _EPS_TANH)).sum(axis=-1)


def reparameterized_draw(dist: PolicyDistParams, noise: np.ndarray):
    """The one reparameterized draw u = mu + std * noise; returns
    (a, std, u, t) with std = exp(log_std), t = tanh(u), and the action
    a = t kept strictly inside the open action box.

    Rollout actions, target actions and the entropy estimates draw
    through it by way of `policy_sample`; the actor's gradient draws
    through it directly, since it needs std and no log density.
    """
    std = np.exp(dist.log_std)
    u = dist.mu + std * noise
    t = np.tanh(u)
    # the ndarray method skips np.clip's dispatch, a few us per batch-1 call
    return t.clip(_A_LO, _A_HI), std, u, t


def policy_sample(dist: PolicyDistParams, noise: np.ndarray):
    """The squashed action of `reparameterized_draw` and its log
    density under the policy: (a, logp).

    It reuses the draw's std and tanh(u), with the same floats as
    ``policy_logprob(dist, u)``.
    """
    a, std, u, t = reparameterized_draw(dist, noise)
    return a, _squashed_logprob(u, dist.mu, std, t)


def policy_logprob(dist: PolicyDistParams, u: np.ndarray) -> np.ndarray:
    """Log density of the squashed action a = tanh(u) under the policy.

    Sums the per-dimension Gaussian log density at the pre-squash point
    and the tanh change-of-variables correction. The named form of the
    log density ``policy_sample`` returns, bit for bit.
    """
    u = np.asarray(u, dtype=np.float64)
    return _squashed_logprob(u, dist.mu, np.exp(dist.log_std), np.tanh(u))
