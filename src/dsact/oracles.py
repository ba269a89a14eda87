"""Independent ground-truth generators for tests and bias measurement.

Nothing here shares code paths with the learners: gradients come from
central differences, true Q-values from discounted Monte-Carlo rollouts
(entropy bonuses included for every action after the queried one), and
the bandit chain's soft values from quadrature-backed value iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .environments import ChainSpec
from .numerics import GradSet, ParamSet


def truth_horizon(gamma: float, tail: float = 1e-3) -> int:
    """Smallest T >= 1 with gamma^T below the tail mass cutoff."""
    if not 0 <= gamma < 1:
        raise ValueError("gamma must be in [0, 1)")
    if gamma == 0:
        return 1
    t = math.floor(math.log(tail) / math.log(gamma)) + 1
    while gamma**t >= tail:  # guard the edge of floor rounding
        t += 1
    return max(t, 1)


def finite_diff_grad(scalar_fn, params: ParamSet, h: float) -> GradSet:
    """Central differences of a deterministic scalar over every parameter."""
    if h <= 0:
        raise ValueError("h must be positive")
    flat = params.flat
    gflat = np.zeros_like(flat)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        f_plus = scalar_fn(params)
        flat[k] = orig - h
        f_minus = scalar_fn(params)
        flat[k] = orig
        gflat[k] = (f_plus - f_minus) / (2.0 * h)
    return GradSet(gflat, params.layout)


def mc_true_q(
    env,
    policy,
    start,
    n_rollouts: int,
    gamma: float,
    alpha: float,
    rng: np.random.Generator,
    tail: float = 1e-3,
) -> float:
    """Monte-Carlo soft Q at a forced (state, action) start.

    ``policy`` is a callable (obs, rng) -> (action, logp); entropy
    bonuses enter from the first policy-chosen action on, never for the
    queried action itself. The rollout horizon is where the discount
    tail drops below ``tail``, so truncation error is bounded uniformly.
    """
    start_state, start_action = start
    horizon = truth_horizon(gamma, tail)
    total = 0.0
    for _ in range(n_rollouts):
        sim = env.clone(max_episode_steps=horizon + 1)
        sim.reset(int(rng.integers(0, 2**63)))
        sim.set_state(start_state)
        a = np.asarray(start_action, dtype=np.float64)
        g = 0.0
        for t in range(horizon):
            obs, r, done, _ = sim.step(a)
            g += gamma**t * r
            if done:
                break
            if t + 1 < horizon:
                a, logp = policy(obs, rng)
                g -= gamma ** (t + 1) * alpha * logp
        total += g
    return total / n_rollouts


@dataclass
class SoftQTable:
    """Converged soft values of the bandit chain on an action grid."""

    chain: ChainSpec
    alpha: float
    gamma: float
    actions: np.ndarray  # (G,)
    q: np.ndarray  # (3, G)
    v: np.ndarray  # (3,)
    ret_std: np.ndarray  # (3, G)

    def q_at(self, state: int, action: float) -> float:
        return float(np.interp(action, self.actions, self.q[state]))

    def std_at(self, state: int, action: float) -> float:
        return float(np.interp(action, self.actions, self.ret_std[state]))

    def policy_logpdf(self, state: int, action: float) -> float:
        return (self.q_at(state, action) - float(self.v[state])) / self.alpha

    def make_policy(self):
        """Sampler over the grid usable as an mc_true_q policy; the obs
        is the chain's one-hot state encoding."""
        weights = _trapezoid_weights(self.actions)
        probs = []
        for s in range(3):
            p = weights * np.exp((self.q[s] - self.v[s]) / self.alpha)
            probs.append(p / p.sum())

        def policy(obs, rng):
            s = int(np.argmax(obs))
            a = float(self.actions[rng.choice(len(self.actions), p=probs[s])])
            return np.array([a]), self.policy_logpdf(s, a)

        return policy


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    h = grid[1] - grid[0]
    w = np.full(len(grid), h)
    w[0] = w[-1] = h / 2.0
    return w


def _solve_chain(chain: ChainSpec, alpha: float, gamma: float, grid_step: float, tol: float):
    n_pts = int(round(2.0 / grid_step)) + 1
    actions = np.linspace(-1.0, 1.0, n_pts)
    w = _trapezoid_weights(actions)
    r_mean = np.stack([np.array([chain.mean_reward(s, a) for a in actions]) for s in range(3)])
    nxt = [chain.next_state(s) for s in range(3)]

    v = np.zeros(3)
    q = r_mean.copy()
    for _ in range(100_000):
        # V(s) = alpha * log integral exp(Q(s, .)/alpha)
        peak = q.max(axis=1, keepdims=True)
        v_new = (peak[:, 0] + alpha * np.log((w * np.exp((q - peak) / alpha)).sum(axis=1)))
        q_new = r_mean + gamma * v_new[nxt][:, None]
        delta = np.max(np.abs(q_new - q))
        q, v = q_new, v_new
        if delta < tol:
            break
    else:
        raise RuntimeError("soft value iteration did not converge")

    logpi = (q - v[:, None]) / alpha
    pi_w = w * np.exp(logpi)
    # second moments of the soft return, iterated alongside the policy
    m2 = r_mean**2 + chain.noise_std**2
    for _ in range(100_000):
        w_sq = (pi_w * (m2 - 2.0 * alpha * logpi * q + (alpha * logpi) ** 2)).sum(axis=1)
        m2_new = (
            r_mean**2
            + chain.noise_std**2
            + 2.0 * r_mean * gamma * v[nxt][:, None]
            + gamma**2 * w_sq[nxt][:, None]
        )
        delta = np.max(np.abs(m2_new - m2))
        m2 = m2_new
        if delta < tol:
            break
    else:
        raise RuntimeError("second-moment iteration did not converge")
    var = np.maximum(m2 - q**2, 0.0)
    return actions, q, v, np.sqrt(var)


def numeric_soft_q(
    chain: ChainSpec,
    alpha: float,
    gamma: float,
    grid_step: float = 1e-3,
    refine_tol: float = 1e-6,
) -> SoftQTable:
    """Soft-optimal values of the chain by quadrature value iteration.

    Solves at the requested grid step and at half the step; refuses if
    the refinement moves any Q entry by more than ``refine_tol``.
    Returns the finer solution.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not 0 <= gamma < 1:
        raise ValueError("gamma must be in [0, 1)")
    if grid_step > 1e-3:
        raise ValueError("grid resolution must be <= 1e-3")
    coarse = _solve_chain(chain, alpha, gamma, grid_step, tol=1e-13)
    fine = _solve_chain(chain, alpha, gamma, grid_step / 2.0, tol=1e-13)
    drift = np.max(np.abs(coarse[1] - fine[1][:, ::2]))
    if drift > refine_tol:
        raise ValueError(
            f"grid too coarse: halving the step moved Q by {drift:.2e} > {refine_tol:.0e}"
        )
    actions, q, v, std = fine
    return SoftQTable(chain, alpha, gamma, actions, q, v, std)


@dataclass
class BiasReport:
    """Mean gap between critic estimates and Monte-Carlo truth."""

    mean_bias: float
    pairs: list[tuple[float, float]] = field(default_factory=list)
    n_rollouts: int = 0
    horizon: int = 0

    def sem(self) -> float:
        diffs = np.array([e - t for e, t in self.pairs])
        if len(diffs) < 2:
            return 0.0
        return float(np.std(diffs, ddof=1) / np.sqrt(len(diffs)))

    def to_jsonable(self) -> dict:
        return {
            "mean_bias": self.mean_bias,
            "sem": self.sem(),
            "n_samples": len(self.pairs),
            "n_rollouts": self.n_rollouts,
            "horizon": self.horizon,
            "pairs": [[float(e), float(t)] for e, t in self.pairs],
        }
