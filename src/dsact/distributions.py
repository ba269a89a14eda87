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

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


@dataclass
class PolicyDistParams:
    """Pre-squash diagonal Gaussian for one state."""

    mu: np.ndarray
    log_std: np.ndarray  # already clamped to [LOG_STD_MIN, LOG_STD_MAX]


def gaussian_logpdf(y, mean, std):
    """Log density of N(mean, std^2) at y; std must be positive."""
    std = np.asarray(std, dtype=np.float64)
    if np.any(std <= 0):
        raise ValueError("std must be > 0")
    z = (np.asarray(y, dtype=np.float64) - mean) / std
    return -0.5 * z * z - np.log(std) - _HALF_LOG_2PI


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
    log_std = np.clip(raw_out[..., d:], LOG_STD_MIN, LOG_STD_MAX)
    return PolicyDistParams(mu, log_std)


_A_MAX = np.nextafter(1.0, 0.0)  # tanh saturates to exactly 1.0 past |u| ~ 19


def policy_sample(dist: PolicyDistParams, noise: np.ndarray):
    """Reparameterized draw: u = mu + std * noise, a = tanh(u), with a
    kept strictly inside the open action box.

    The one sampler of the engine: rollout actions, target actions, the
    actor's reparameterized actions and the entropy estimates all draw
    through it.
    """
    u = dist.mu + np.exp(dist.log_std) * noise
    # the ndarray method skips np.clip's dispatch, a few us per batch-1 call
    return u, np.tanh(u).clip(-_A_MAX, _A_MAX)


def policy_logprob(dist: PolicyDistParams, u: np.ndarray) -> float:
    """Log density of the squashed action a = tanh(u) under the policy.

    Sums the per-dimension Gaussian log density at the pre-squash point
    and the tanh change-of-variables correction.
    """
    u = np.asarray(u, dtype=np.float64)
    std = np.exp(dist.log_std)
    base = gaussian_logpdf(u, dist.mu, std)
    t = np.tanh(u)
    corr = np.log(1.0 - t * t + EPS_TANH)
    out = np.sum(base - corr, axis=-1)
    return float(out) if np.ndim(out) == 0 else out
