"""Per-sample scalar forms of the engine's batched ops.

The production path works on whole batches; these one-sample versions
spell out the printed formulas so tests can check the batched code,
and the kernels' fixed points and scale laws, one sample at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dsact.critic import SIGMA_FLOOR_V1, _coeff_arrays
from dsact.distributions import SIGMA_MIN, softplus


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


def grad_coeffs_v1(y_z: float, y_z_clipped: float, q: float, sigma: float) -> GradCoeffs:
    """Pre-refinement coefficients: random target in the mean term, no
    epsilon guards; sigma is floored rather than regularized."""
    sigma = max(float(sigma), SIGMA_FLOOR_V1)
    g_q, g_sigma = _coeff_arrays(
        np.float64(y_z), np.float64(y_z_clipped), np.float64(q), np.float64(sigma), 0.0
    )
    return GradCoeffs(float(g_q), float(g_sigma))


def grad_coeff_sac(y_q: float, q: float) -> float:
    """Gradient coefficient of 0.5 * (y_q - q)^2 with respect to q."""
    return -(float(y_q) - float(q))
