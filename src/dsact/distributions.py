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
_ZERO, _MINUS_HALF, _ONE = np.array(0.0), np.array(-0.5), np.array(1.0)
_HALF_LOG_2PI = np.array(0.5 * np.log(2.0 * np.pi))
_EPS_TANH = np.array(EPS_TANH)
_LOG_STD_LO, _LOG_STD_HI = np.array(LOG_STD_MIN), np.array(LOG_STD_MAX)


@dataclass
class PolicyDistParams:
    """Pre-squash diagonal Gaussian for one state."""

    mu: np.ndarray
    log_std: np.ndarray  # already clamped to [LOG_STD_MIN, LOG_STD_MAX]


def gaussian_logpdf(y, mean, std):
    """Log density of N(mean, std^2) at y; std must be positive."""
    std = np.asarray(std, dtype=np.float64)
    if (std <= _ZERO).any():
        raise ValueError("std must be > 0")
    z = (np.asarray(y, dtype=np.float64) - mean) / std
    return _MINUS_HALF * z * z - np.log(std) - _HALF_LOG_2PI


def softplus(x):
    # log(1 + e^x), overflow-safe
    return np.logaddexp(0.0, np.asarray(x, dtype=np.float64))


def value_head_batch(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map raw (..., 2) critic outputs to (Q, sigma) with sigma >= SIGMA_MIN."""
    raw = np.asarray(raw, dtype=np.float64)
    return raw[..., 0], softplus(raw[..., 1]) + SIGMA_MIN


def value_head_sigma_grad(raw_spread):
    """d sigma / d raw_spread, the softplus derivative (a sigmoid)."""
    x = np.asarray(raw_spread, dtype=np.float64)
    return 1.0 / (1.0 + np.exp(-x))


def policy_head(raw_out: np.ndarray) -> PolicyDistParams:
    """Split a raw 2*act_dim network output into clamped (mu, log_std)."""
    raw_out = np.asarray(raw_out, dtype=np.float64)
    d = raw_out.shape[-1] // 2
    mu = raw_out[..., :d]
    log_std = raw_out[..., d:].clip(_LOG_STD_LO, _LOG_STD_HI)
    return PolicyDistParams(mu, log_std)


_A_MAX = np.nextafter(1.0, 0.0)  # tanh saturates to exactly 1.0 past |u| ~ 19
_A_LO, _A_HI = np.array(-_A_MAX), np.array(_A_MAX)


def _squashed_logprob(u, mu, std, t):
    """Sum over the last axis of the Gaussian log density at u minus the
    tanh correction log(1 - t^2 + EPS_TANH), given t = tanh(u)."""
    out = (gaussian_logpdf(u, mu, std) - np.log(_ONE - t * t + _EPS_TANH)).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def policy_sample(dist: PolicyDistParams, noise: np.ndarray):
    """Reparameterized draw u = mu + std * noise; returns (a, logp) with
    a = tanh(u) kept strictly inside the open action box and logp its
    log density under the policy.

    The one sampler of the engine: rollout actions, target actions, the
    actor's reparameterized actions and the entropy estimates all draw
    through it. It computes std and tanh(u) once for both outputs, with
    the same floats as ``policy_logprob(dist, u)``.
    """
    std = np.exp(dist.log_std)
    u = dist.mu + std * noise
    t = np.tanh(u)
    # the ndarray method skips np.clip's dispatch, a few us per batch-1 call
    return t.clip(_A_LO, _A_HI), _squashed_logprob(u, dist.mu, std, t)


def policy_logprob(dist: PolicyDistParams, u: np.ndarray) -> float:
    """Log density of the squashed action a = tanh(u) under the policy.

    Sums the per-dimension Gaussian log density at the pre-squash point
    and the tanh change-of-variables correction. The named form of the
    log density ``policy_sample`` returns, bit for bit.
    """
    u = np.asarray(u, dtype=np.float64)
    return _squashed_logprob(u, dist.mu, np.exp(dist.log_std), np.tanh(u))
