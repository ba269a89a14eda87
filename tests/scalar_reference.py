"""Per-sample scalar forms of the engine's batched ops.

The production path works on whole batches; these one-sample versions
spell out the printed formulas so tests can check the batched code,
and the kernels' fixed points and scale laws, one sample at a time.
None of them calls the engine's private code: the GELU and its slope
use `math.erf`, the policy's log density and the critic coefficients
are written out term by term (in the engine's op order, so a test may
compare them with ``==``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dsact.critic import SIGMA_FLOOR_V1
from dsact.distributions import EPS_TANH, SIGMA_MIN, softplus


@dataclass
class ValueDistParams:
    """Mean and spread of the soft-return distribution at one (s, a)."""

    q: float
    sigma: float


@dataclass
class TargetPair:
    y_q: float
    y_z: float
    chosen_index: int  # 1 or 2


@dataclass
class GradCoeffs:
    g_q: float
    g_sigma: float


def gelu(x: float) -> float:
    """GELU(x) = x * Phi(x), with Phi(x) = (1 + erf(x / sqrt 2)) / 2."""
    return x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def gelu_slope(x: float) -> float:
    """GELU'(x) = Phi(x) + x * phi(x), phi the standard normal density."""
    pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) + x * pdf


def squashed_logprob(u, mu, log_std):
    """Log density of the action tanh(u) under the tanh-squashed Gaussian
    policy (mu, exp(log_std)), summed over the last (action) axis:
    sum of -((u - mu) / sigma)^2 / 2 - log sigma - log(2 pi) / 2
    - log(1 - tanh(u)^2 + EPS_TANH). Works on one row or a batch of rows."""
    sigma = np.exp(log_std)
    z = (u - mu) / sigma
    t = np.tanh(u)
    terms = -0.5 * z * z - np.log(sigma) - 0.5 * np.log(2.0 * np.pi) - np.log(1.0 - t * t + EPS_TANH)
    return terms.sum(axis=-1)


def value_head(raw_mean: float, raw_spread: float) -> ValueDistParams:
    """Map raw network channels to (Q, sigma) with sigma >= SIGMA_MIN."""
    return ValueDistParams(float(raw_mean), float(softplus(raw_spread) + SIGMA_MIN))


def sample_value(dist: ValueDistParams, noise: float) -> float:
    """One draw from the return distribution: Q + sigma * noise."""
    return dist.q + dist.sigma * float(noise)


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


def grad_coeff_arrays(mean_target, y_z_clipped, q, sigma, eps):
    """The printed critic coefficients, elementwise:
    g_q = -(mean_target - q) / (sigma^2 + eps) and
    g_sigma = -((y_z_clipped - q)^2 - sigma^2) / (sigma^3 + eps)."""
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
    g_q, g_sigma = grad_coeff_arrays(
        np.float64(y_q), np.float64(y_z_clipped), np.float64(q), np.float64(sigma), eps
    )
    return GradCoeffs(float(g_q), float(g_sigma))


def grad_coeffs_v1(y_z: float, y_z_clipped: float, q: float, sigma: float) -> GradCoeffs:
    """Pre-refinement coefficients: random target in the mean term, no
    epsilon guards; sigma is floored rather than regularized."""
    sigma = max(float(sigma), SIGMA_FLOOR_V1)
    g_q, g_sigma = grad_coeff_arrays(
        np.float64(y_z), np.float64(y_z_clipped), np.float64(q), np.float64(sigma), 0.0
    )
    return GradCoeffs(float(g_q), float(g_sigma))


def grad_coeff_sac(y_q: float, q: float) -> float:
    """Gradient coefficient of 0.5 * (y_q - q)^2 with respect to q."""
    return -(float(y_q) - float(q))
