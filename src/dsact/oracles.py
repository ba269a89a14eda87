"""Independent ground-truth generators for tests and bias measurement.

Nothing here shares code paths with the learners: gradients come from
central differences, true Q-values from discounted Monte-Carlo rollouts
(entropy bonuses included for every action after the queried one), and
the bandit chain's soft values and return std from quadrature over an
action grid plus two 3x3 linear solves. That std is one number per
state: no action moves the chain and the reward noise is the same for
every action, so the action changes the return's mean but not its spread.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .environments import ChainSpec
from .numerics import ParamSet

# the discount mass a Monte-Carlo truth rollout may leave beyond its horizon
_TAIL = 1e-3


def truth_horizon(gamma: float) -> int:
    """Smallest T >= 1 with gamma^T below the tail mass cutoff."""
    if not 0 <= gamma < 1:
        raise ValueError("gamma must be in [0, 1)")
    if gamma == 0:
        return 1
    t = math.floor(math.log(_TAIL) / math.log(gamma)) + 1
    while gamma**t >= _TAIL:  # guard the edge of floor rounding
        t += 1
    return max(t, 1)


def finite_diff_grad(scalar_fn, params: ParamSet, h: float) -> np.ndarray:
    """Central differences of a deterministic scalar over every parameter,
    as a flat array in the network's layout."""
    if not 0 < h < math.inf:  # NaN fails every comparison
        raise ValueError(f"h must be finite and positive, got {h!r}")
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
    return gflat


def mc_true_q(
    env,
    policy,
    start,
    n_rollouts: int,
    gamma: float,
    alpha: float,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo soft Q at a forced (state, action) start.

    ``policy`` is a callable (obs, rng) -> (action, logp); entropy
    bonuses enter from the first policy-chosen action on, never for the
    queried action itself. The rollout horizon is where the discount
    tail drops below 1e-3, so truncation error is bounded uniformly.
    Only ``done`` ends a rollout early; the env's time limit does not.
    """
    if isinstance(n_rollouts, bool) or not isinstance(n_rollouts, numbers.Integral) or n_rollouts < 1:
        raise ValueError(f"n_rollouts must be an integer >= 1, got {n_rollouts!r}")
    start_state, start_action = start
    horizon = truth_horizon(gamma)
    total = 0.0
    for _ in range(n_rollouts):
        sim = env.clone()
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
    """Soft-optimal values of the bandit chain on an action grid, and the
    std of the soft return from (s, a): one per state, since a moves
    neither the next state nor the reward noise."""

    chain: ChainSpec
    alpha: float
    gamma: float
    actions: np.ndarray  # (G,)
    q: np.ndarray  # (3, G)
    v: np.ndarray  # (3,)
    ret_std: np.ndarray  # (3,)

    def q_at(self, state: int, action: float) -> float:
        return float(np.interp(action, self.actions, self.q[state]))

    def std_at(self, state: int) -> float:
        return float(self.ret_std[state])

    def policy_logpdf(self, state: int, action: float) -> float:
        return (self.q_at(state, action) - float(self.v[state])) / self.alpha

    def make_policy(self):
        """Sampler over the grid usable as an mc_true_q policy; the obs
        is the chain's one-hot state encoding. Each draw is the index
        ``rng.choice(len(actions), p=p_s)`` gives for the same single
        uniform of ``rng``; the state's CDF is built once."""
        weights = _trapezoid_weights(self.actions)
        cdfs = []
        for s in range(3):
            p = weights * np.exp((self.q[s] - self.v[s]) / self.alpha)
            # Generator.choice's own inverse-CDF construction
            cdf = (p / p.sum()).cumsum()
            cdfs.append(cdf / cdf[-1])

        def policy(obs, rng):
            s = int(np.argmax(obs))
            a = float(self.actions[cdfs[s].searchsorted(rng.random(), side="right")])
            return np.array([a]), self.policy_logpdf(s, a)

        return policy


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    h = grid[1] - grid[0]
    w = np.full(len(grid), h)
    w[0] = w[-1] = h / 2.0
    return w


def _solve_chain(chain: ChainSpec, alpha: float, gamma: float, grid_step: float):
    n_pts = int(round(2.0 / grid_step)) + 1
    actions = np.linspace(-1.0, 1.0, n_pts)
    w = _trapezoid_weights(actions)
    r_mean = np.stack([np.array([chain.mean_reward(s, a) for a in actions]) for s in range(3)])
    nxt = [chain.next_state(s) for s in range(3)]
    # No action moves the chain: every action in s leads to nxt[s]. So each
    # Bellman equation below is linear in one unknown per state, and a 3x3
    # solve gives its fixed point exactly; step @ x is x[nxt].
    step = np.eye(3)[nxt]

    # V(s) = alpha * log integral exp(Q(s, .)/alpha) with Q = r_mean + gamma * V(next),
    # so V = c + gamma * V(next)
    peak = r_mean.max(axis=1)
    c = peak + alpha * np.log((w * np.exp((r_mean - peak[:, None]) / alpha)).sum(axis=1))
    v = np.linalg.solve(np.eye(3) - gamma * step, c)
    q = r_mean + gamma * v[nxt][:, None]

    logpi = (q - v[:, None]) / alpha
    pi_w = w * np.exp(logpi)
    # variance of the soft return from s on, by the law of total variance:
    # U(s) = sum_a pi_w * (Q - alpha logpi - V)^2 + mass(s) * (sigma^2 + gamma^2 U(next)),
    # with mass = sum_a pi_w kept as computed (it is 1 only to rounding)
    d = (pi_w * (q - alpha * logpi - v[:, None]) ** 2).sum(axis=1)
    mass = pi_w.sum(axis=1)
    u = np.linalg.solve(np.eye(3) - gamma**2 * mass[:, None] * step, mass * chain.noise_std**2 + d)
    # from (s, a) the return is the reward noise plus gamma times the soft
    # return from next(s), whatever a is
    return actions, q, v, np.sqrt(chain.noise_std**2 + gamma**2 * u[nxt])


def numeric_soft_q(
    chain: ChainSpec,
    alpha: float,
    gamma: float,
    grid_step: float = 1e-3,
    refine_tol: float = 1e-6,
) -> SoftQTable:
    """Soft-optimal values and per-state return std of the chain, by
    trapezoid quadrature over the action grid and two 3x3 linear solves.

    Solves at the requested grid step and at half the step; refuses if
    the refinement moves any Q entry by more than ``refine_tol``.
    Returns the finer solution.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not 0 <= gamma < 1:
        raise ValueError("gamma must be in [0, 1)")
    if not 0 < grid_step <= 1e-3:
        raise ValueError(f"grid_step must be in (0, 1e-3], got {grid_step}")
    coarse = _solve_chain(chain, alpha, gamma, grid_step)
    fine = _solve_chain(chain, alpha, gamma, grid_step / 2.0)
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
    pairs: list[tuple[float, float]]
    n_rollouts: int
    horizon: int

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
