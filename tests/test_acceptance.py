"""Acceptance suite: one test per criterion, each printing a PASS line.

The training-based criteria run real agents on the desk-scale configs
shipped in `configs/` (small GELU networks, raised learning rates), the
files the benchmark and the CLI examples train: each criterion's config
is one of those files plus the fields the criterion states, and its runs
write under pytest's temporary directory. Budgets are enforced where the
criterion states one.
"""

import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from dsact.actor import actor_gradient
from dsact.agent import load_checkpoint
from dsact.config import RunConfig, load_config
from dsact.critic import (
    assemble_critic_gradient,
    clip_target,
    critic_forward,
    init_critic_pair,
)
from dsact.distributions import LOG_STD_MAX, LOG_STD_MIN
from dsact.environments import ChainSpec
from dsact.harness import collect_on_policy_pairs, train
from dsact.numerics import init_mlp, mlp_forward
from dsact.oracles import finite_diff_grad, numeric_soft_q

from conftest import clip_one, grad_rel_err
from scalar_reference import grad_coeff_arrays, grad_coeffs_dsact, squashed_logprob

pytestmark = pytest.mark.acceptance

DATA = Path(__file__).parent / "data"
THRESHOLD = json.loads((DATA / "pendulum_threshold.json").read_text())
CONFIGS = Path(__file__).parents[1] / "configs"


def desk_config(name: str, **fields) -> RunConfig:
    """``configs/<name>.json`` with ``fields`` set over it."""
    return dataclasses.replace(load_config(CONFIGS / f"{name}.json"), **fields).validate()


def _announce(name: str, detail: str) -> None:
    print(f"\n[acceptance] {name}: PASS ({detail})")


def test_criterion_1_gradient_oracle_suite():
    """Assembled critic and actor gradients match central finite
    differences on 200 random configurations within 1e-4."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_critic = 0.0
    worst_actor = 0.0
    for trial in range(200):
        obs_dim = int(rng.integers(1, 5))
        act_dim = int(rng.integers(1, 3))
        n_hidden = int(rng.integers(1, 3))
        hidden = [int(rng.integers(2, 17)) for _ in range(n_hidden)]
        batch = int(rng.integers(1, 9))
        pair = init_critic_pair(
            (np.random.default_rng(1000 + trial), np.random.default_rng(2000 + trial)),
            obs_dim,
            act_dim,
            hidden,
        )
        s = rng.standard_normal((batch, obs_dim))
        a = np.tanh(rng.standard_normal((batch, act_dim)))

        if trial % 2 == 0:
            # critic side: assembled gradient vs finite differences of
            # Q and sigma with the coefficients frozen
            theta = pair.theta[0]
            y_q = rng.standard_normal(batch) * 3
            y_z = rng.standard_normal(batch) * 3
            b = float(rng.uniform(0.5, 5))
            eps = 0.1
            grads, q, sigma = assemble_critic_gradient(theta, s, a, y_q, y_z, b, eps)
            g_q, g_sigma = grad_coeff_arrays(y_q, clip_target(y_z, q, b), q, sigma, eps)

            def critic_scalar(p):
                qq, ss, _, _ = critic_forward(p, s, a)
                return float(np.mean(g_q * qq + g_sigma * ss))

            fd = finite_diff_grad(critic_scalar, theta, 1e-5)
            worst_critic = max(worst_critic, grad_rel_err(grads, fd, theta.layout))
        else:
            phi = init_mlp(np.random.default_rng(3000 + trial), [obs_dim, *hidden, 2 * act_dim])
            alpha = float(rng.uniform(0.05, 0.5))
            noise_seed = 4000 + trial
            g = actor_gradient(phi, s, pair, alpha, np.random.default_rng(noise_seed))

            def actor_loss(p):
                raw, _ = mlp_forward(p, s)
                mu = raw[:, :act_dim]
                ls = np.clip(raw[:, act_dim:], LOG_STD_MIN, LOG_STD_MAX)
                zeta = np.random.default_rng(noise_seed).standard_normal(mu.shape)
                u = mu + np.exp(ls) * zeta
                t = np.tanh(u)
                qs = [critic_forward(pair.theta[i], s, t)[0] for i in (0, 1)]
                lp = squashed_logprob(u, mu, ls)
                return float(np.mean(alpha * lp - np.minimum(qs[0], qs[1])))

            fd = finite_diff_grad(actor_loss, phi, 1e-5)
            worst_actor = max(worst_actor, grad_rel_err(g, fd, phi.layout))
    elapsed = time.perf_counter() - t0
    assert worst_critic <= 1e-4
    assert worst_actor <= 1e-4
    assert elapsed <= 120.0
    _announce(
        "criterion 1 gradient oracles",
        f"critic max rel err {worst_critic:.2e}, actor {worst_actor:.2e}, {elapsed:.0f}s",
    )


def test_criterion_2_expectation_equivalence():
    """The mean of the random target over draws matches the expected
    target within the CLT band on at least 48 of 50 configurations."""
    rng = np.random.default_rng(202)
    n_draws = 100_000
    hits = 0
    for _ in range(50):
        gamma = float(rng.uniform(0.5, 0.999))
        alpha = float(rng.uniform(0.01, 0.5))
        r = float(rng.normal(0, 2))
        q_next = float(rng.normal(0, 10))
        sigma_next = float(rng.uniform(0.05, 5))
        logp = float(rng.normal(-1, 1))
        z = q_next + sigma_next * rng.standard_normal(n_draws)
        y_z = r + gamma * (z - alpha * logp)
        y_q = r + gamma * (q_next - alpha * logp)
        if abs(np.mean(y_z) - y_q) <= 4 * gamma * sigma_next / np.sqrt(n_draws):
            hits += 1
    assert hits >= 48
    _announce("criterion 2 expectation equivalence", f"{hits}/50 within the 4-sigma band")


def test_criterion_3_variance_learning(tmp_path):
    """On the one-step noisy bandit the critic's spread head recovers
    the reward noise and the mean head is nearly unbiased."""
    t0 = time.perf_counter()
    # the file's 1050 iterations of 20 samples: 20k updates of each critic after warm
    cfg = desk_config(
        "bandit_chain",
        env_overrides={"noise_std": 0.3},
        gamma=0.0,
        batch_size=256,
        eval_interval=500,
        eval_episodes=2,
        out_dir=str(tmp_path),
    )
    summary = train(cfg)
    assert summary["critic_updates"] >= 20_000
    elapsed = time.perf_counter() - t0
    assert elapsed <= 180.0

    agent, _, env = load_checkpoint(Path(cfg.out_dir) / summary["checkpoint"])
    pairs = collect_on_policy_pairs(env.clone(), agent.phi, 200, np.random.default_rng(777))
    table = numeric_soft_q(ChainSpec(noise_std=0.3), alpha=0.2, gamma=0.0)
    sigmas, gaps = [], []
    for phys, obs, a in pairs:
        per_critic = [
            critic_forward(agent.critics.theta[i], obs[None, :], a[None, :])[:2]
            for i in (0, 1)
        ]
        k = int(np.argmin([q[0] for q, _ in per_critic]))
        sigmas.append(per_critic[k][1][0])
        gaps.append(per_critic[k][0][0] - table.q_at(int(phys), float(a[0])))
    mean_sigma = float(np.mean(sigmas))
    mean_bias = float(np.mean(gaps))
    assert abs(mean_sigma - 0.3) <= 0.05
    assert abs(mean_bias) <= 0.02
    _announce(
        "criterion 3 variance learning",
        f"mean sigma {mean_sigma:.3f} (target 0.3), |bias| {abs(mean_bias):.4f}, {elapsed:.0f}s",
    )


def test_criterion_5_kernel_scale_equivariance():
    """With both epsilon guards at zero, scaling kernel inputs by c and
    omega by c^2 scales the coefficient products by exactly c."""
    rng = np.random.default_rng(505)
    worst = 0.0
    for c in (0.01, 100.0):
        for _ in range(200):
            q = float(rng.normal(0, 5))
            sigma = float(rng.uniform(0.05, 5))
            y_q = float(rng.normal(0, 5))
            y_z = float(rng.normal(0, 8))
            b = float(rng.uniform(0.1, 6))
            omega = float(rng.uniform(1e-3, 20))
            g = grad_coeffs_dsact(y_q, clip_one(y_z, q, b), q, sigma, 0.0)
            gc = grad_coeffs_dsact(
                c * y_q, clip_one(c * y_z, c * q, c * b), c * q, c * sigma, 0.0
            )
            for base, scaled in ((g.g_q, gc.g_q), (g.g_sigma, gc.g_sigma)):
                want = c * omega * base
                got = (c * c * omega) * scaled
                if want != 0:
                    worst = max(worst, abs(got - want) / abs(want))
                else:
                    assert got == 0.0
    assert worst <= 1e-12
    _announce("criterion 5 scale equivariance", f"max relative deviation {worst:.2e}")


def test_criterion_6_pendulum_convergence(tmp_path):
    """Full training reaches the pinned threshold within 150k env steps
    (the file's 7500 iterations of 20 samples) on all three seeds, each
    within its runtime budget."""
    r_star = THRESHOLD["threshold_return"]
    reached = {}
    for seed in (12345, 22345, 32345):
        cfg = desk_config("pendulum", stop_return=r_star, seed=seed, out_dir=str(tmp_path / f"seed{seed}"))
        t0 = time.perf_counter()
        summary = train(cfg)
        elapsed = time.perf_counter() - t0
        assert elapsed <= 20 * 60, f"seed {seed} exceeded the 20 min budget"
        assert summary["stopped_early"], (
            f"seed {seed} never reached {r_star} within 150k env steps"
        )
        assert summary["env_steps"] <= 150_000
        reached[seed] = summary["env_steps"]
    _announce(
        "criterion 6 pendulum convergence",
        f"threshold {r_star} reached at env steps {reached}",
    )


def test_criterion_9_training_determinism(tmp_path):
    """Identical config and seed reproduce metrics.csv bit-exactly."""
    outs = []
    for tag in ("a", "b"):
        cfg = desk_config(
            "pendulum", total_iterations=300, warm_size=1000, seed=42345, out_dir=str(tmp_path / tag)
        )
        train(cfg)
        outs.append((Path(cfg.out_dir) / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]
    _announce("criterion 9 determinism", f"{len(outs[0])} byte metrics identical")
