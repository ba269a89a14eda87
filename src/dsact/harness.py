"""The executable training loop, evaluation, bias measurement and
ablation studies (`STUDIES`, arms of config fields over `train`), with
CSV/JSON/SVG artifacts.

Per iteration the loop collects a fixed number of environment steps
with the stochastic policy, then (once the buffer is warm) runs one
critic update per collected step; actor, temperature and target-network
updates fire on every policy_delay-th critic update. All randomness is
drawn from named streams derived from the run seed, so a config/seed
pair reproduces metrics.csv bit-exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path

import numpy as np

from .actor import act_deterministic, act_stochastic, actor_gradient, policy_forward, temperature_update
from .agent import AgentState, build_agent, load_checkpoint, save_checkpoint
from .baselines import build_variant
from .charts import write_line_chart
from .config import ConfigError, RunConfig, check_number
from .critic import critic_forward, soft_update
from .distributions import policy_sample
from .environments import make_env
from .harness_util import derived_seed, write_atomic
from .numerics import NumericalError, adam_step, params_all_finite
from .oracles import BiasReport, mc_true_q, truth_horizon
from .replay import ReplayBuffer

# metrics.csv's header; each eval writes one row of values in this order
METRICS_COLUMNS = (
    "iteration", "env_steps", "avg_return", "q_mean", "sigma_mean", "alpha",
    "b1", "b2", "omega1", "omega2", "entropy_estimate", "bias_estimate",
)

_STREAMS = (
    "actor_init",
    "critic1_init",
    "critic2_init",
    "env",
    "policy",
    "replay",
    "targets",
    "actor_noise",
    "temp_noise",
)

_EVAL_TAG = 0xE7A1
_PROBE_TAG = 0x9B0B
_BIAS_TAG = 0xB1A5


def make_streams(seed: int) -> dict[str, np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(len(_STREAMS))
    return {name: np.random.default_rng(c) for name, c in zip(_STREAMS, children)}


def build_id() -> str:
    """Digest of the package sources, echoed into summaries."""
    root = Path(__file__).parent
    digest = hashlib.sha1()
    for p in sorted(root.glob("*.py")):
        digest.update(p.read_bytes())
    return digest.hexdigest()[:12]


def _cell(column: str, x) -> str:
    """A metrics.csv cell: the two counts as integers, blank for None,
    else repr(float(x))."""
    if column in ("iteration", "env_steps"):
        return str(x)
    return "" if x is None else repr(float(x))


def rollout_return(phi, env, seed: int, policy_rng: np.random.Generator | None = None) -> float:
    """One episode's undiscounted raw-reward return."""
    obs = env.reset(seed)
    total = 0.0
    while True:
        if policy_rng is None:
            a = act_deterministic(phi, obs)
        else:
            a = act_stochastic(phi, obs, policy_rng)[0]
        obs, r, done, truncated = env.step(a)
        total += r
        if done or truncated:
            return total


def evaluate_policy(
    phi,
    env,
    episodes: int,
    deterministic: bool,
    seed_parts: tuple[int, ...],
) -> tuple[float, float]:
    """Mean and std of episode returns over fresh evaluation episodes."""
    sim = env.clone()
    returns = []
    for e in range(episodes):
        ep_seed = derived_seed(*seed_parts, e)
        rng = None if deterministic else np.random.default_rng(derived_seed(*seed_parts, e, 1))
        returns.append(rollout_return(phi, sim, ep_seed, rng))
    returns = np.asarray(returns)
    std = float(np.std(returns)) if episodes > 1 else 0.0
    return float(np.mean(returns)), std


def evaluate(checkpoint: str | Path, episodes: int = 10, deterministic: bool = True, seed: int = 0):
    """Evaluate a stored policy in the env its config echo names."""
    check_number("seed", seed, "int", least=0)
    check_number("episodes", episodes, "int", least=1)
    agent, _, env = load_checkpoint(checkpoint)
    return evaluate_policy(
        agent.phi, env, episodes, deterministic, seed_parts=(seed, _EVAL_TAG)
    )


def _probe_metrics(agent: AgentState, buffer: ReplayBuffer, cfg: RunConfig, active, eval_index: int):
    """Diagnostics over a probe batch; never touches training streams.
    An eval follows at least one push, so the buffer is never empty."""
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, _PROBE_TAG, eval_index])
    )
    batch = buffer.sample(min(cfg.batch_size, buffer.count), rng)
    s, a = batch.s, batch.a
    q_means, sigma_means = [], []
    for i in active:
        q, sigma, _, _ = critic_forward(agent.critics.theta[i], s, a)
        q_means.append(np.mean(q))
        sigma_means.append(np.mean(sigma))
    dist = policy_forward(agent.phi, s)
    _, logp = policy_sample(dist, rng.standard_normal(dist.mu.shape))
    entropy = float(np.mean(-logp))
    return float(np.mean(q_means)), float(np.mean(sigma_means)), entropy


def _write_metrics(path: Path, rows: list[tuple]) -> None:
    """metrics.csv whole, header and one line per eval row, written
    atomically, so a failed or killed write leaves the previous evals."""
    lines = [",".join(METRICS_COLUMNS)]
    lines += [",".join(_cell(c, x) for c, x in zip(METRICS_COLUMNS, row, strict=True)) for row in rows]
    text = "".join(line + "\n" for line in lines).encode()
    write_atomic(path, lambda f: f.write(text))


def _write_json(path: Path, doc: dict) -> None:
    text = json.dumps(doc, indent=2)
    write_atomic(path, lambda f: f.write(text.encode()))


def train(cfg: RunConfig) -> dict:
    """Run the full loop; returns the summary document (also saved).

    A non-finite parameter or gradient halts the run, with diagnostics
    written next to the other artifacts before the error propagates.
    """
    cfg.validate()
    out = Path(cfg.out_dir)
    try:
        return _train_inner(cfg, out)
    except NumericalError as exc:
        _write_json(out / "diagnostics.json", {"error": str(exc), "config": cfg.to_jsonable()})
        raise


def _train_inner(cfg: RunConfig, out: Path) -> dict:
    started = time.perf_counter()
    out.mkdir(parents=True, exist_ok=True)
    env = make_env(cfg.env, cfg.env_overrides)
    streams = make_streams(cfg.seed)
    agent = build_agent(cfg, env.spec, streams)
    spec = cfg.kernel()
    update_step = build_variant(spec)
    active = spec.active_critics
    buffer = ReplayBuffer(cfg.buffer_capacity)
    target_entropy = -float(env.spec.act_dim) if cfg.target_entropy is None else cfg.target_entropy
    # every update steps critic 1's Adam, and every actor update the actor's
    critic_adam, actor_adam = agent.critics.adam[0], agent.adam_actor

    # a checkpoint at iteration 0, each multiple of checkpoint_interval and the iteration the run ends at, each once
    checkpoint = "checkpoint_0.npz"
    save_checkpoint(out / checkpoint, agent, cfg, env.spec)
    rows: list[tuple] = []  # one per eval, in METRICS_COLUMNS order
    metrics_path = out / "metrics.csv"
    _write_metrics(metrics_path, rows)
    stopped_early = False

    obs = env.reset(int(streams["env"].integers(0, 2**63)))
    for iteration in range(1, cfg.total_iterations + 1):
        for _ in range(cfg.samples_per_iteration):
            a, _ = act_stochastic(agent.phi, obs, streams["policy"])
            obs2, r, done, truncated = env.step(a)
            buffer.push(obs, a, r * cfg.reward_scale, obs2, done)
            if done or truncated:
                obs = env.reset(int(streams["env"].integers(0, 2**63)))
            else:
                obs = obs2
        if buffer.count >= cfg.warm_size:
            for _ in range(cfg.updates):
                batch = buffer.sample(cfg.batch_size, streams["replay"])
                update_step(
                    agent.critics,
                    batch,
                    agent.phi_bar,
                    agent.alpha,
                    cfg,
                    streams["targets"],
                )
                if critic_adam.step % cfg.policy_delay == 0:
                    s_batch = batch.s
                    grads = actor_gradient(
                        agent.phi,
                        s_batch,
                        agent.critics,
                        agent.alpha,
                        streams["actor_noise"],
                        active,
                    )
                    adam_step(actor_adam, agent.phi, grads, cfg.lr_actor)
                    dist = policy_forward(agent.phi, s_batch)
                    noise = streams["temp_noise"].standard_normal(dist.mu.shape)
                    _, logp = policy_sample(dist, noise)
                    agent.alpha = temperature_update(agent.alpha, logp, target_entropy, cfg.lr_alpha)
                    for i in active:
                        soft_update(agent.critics.theta[i], agent.critics.theta_bar[i], cfg.tau)
                    soft_update(agent.phi, agent.phi_bar, cfg.tau)
        agent.iteration = iteration

        if not params_all_finite(agent.phi) or not all(
            params_all_finite(agent.critics.theta[i]) for i in active
        ):
            raise NumericalError(
                f"non-finite parameters at iteration {iteration} "
                f"(alpha={agent.alpha:.3g}, b={agent.critics.b}, "
                f"omega={agent.critics.omega})"
            )

        if iteration % cfg.eval_interval == 0 or iteration == cfg.total_iterations:
            eval_index = len(rows) + 1
            env_steps = iteration * cfg.samples_per_iteration
            avg_return, _ = evaluate_policy(
                agent.phi,
                env,
                cfg.eval_episodes,
                deterministic=True,
                seed_parts=(cfg.seed, _EVAL_TAG, eval_index),
            )
            q_mean, sigma_mean, entropy = _probe_metrics(
                agent, buffer, cfg, active, eval_index
            )
            row = (
                iteration, env_steps, avg_return, q_mean, sigma_mean, agent.alpha,
                *agent.critics.b, *agent.critics.omega, entropy, None,  # no bias_estimate yet
            )
            rows.append(row)
            _write_metrics(metrics_path, rows)
            stopped_early = cfg.stop_return is not None and avg_return >= cfg.stop_return
        last = stopped_early or iteration == cfg.total_iterations
        if last or (cfg.checkpoint_interval and iteration % cfg.checkpoint_interval == 0):
            checkpoint = f"checkpoint_{iteration}.npz"
            save_checkpoint(out / checkpoint, agent, cfg, env.spec)
        if stopped_early:
            break

    curve = {c: [row[METRICS_COLUMNS.index(c)] for row in rows] for c in ("env_steps", "avg_return")}
    if rows:
        series = {"avg_return": (curve["env_steps"], curve["avg_return"])}
        write_line_chart(out / "curves.svg", series, f"{cfg.algorithm} on {cfg.env}", "env steps", "return")
    summary = {
        "config": cfg.to_jsonable(),
        "env_fixture": env.fixture_constants(),
        "build_id": build_id(),
        "iterations_run": agent.iteration,
        "env_steps": agent.iteration * cfg.samples_per_iteration,
        "critic_updates": critic_adam.step,
        "actor_updates": actor_adam.step,
        "final_return": curve["avg_return"][-1] if rows else None,
        "final_alpha": agent.alpha,
        "stopped_early": stopped_early,
        "runtime_s": time.perf_counter() - started,
        "checkpoint": checkpoint,
        "curve": curve,
    }
    _write_json(out / "summary.json", summary)
    return summary


def collect_on_policy_pairs(env, phi, n_samples: int, rng: np.random.Generator):
    """(physical state, obs, action) triples from fresh stochastic
    rollouts, subsampled uniformly."""
    triples = []
    episodes = 0
    while len(triples) < 5 * n_samples and episodes < max(n_samples, 4):
        obs = env.reset(int(rng.integers(0, 2**63)))
        episodes += 1
        while True:
            phys = env.get_state()
            a, _ = act_stochastic(phi, obs, rng)
            triples.append((phys, np.array(obs), a))
            obs, _, done, truncated = env.step(a)
            if done or truncated:
                break
    idx = rng.choice(len(triples), size=min(n_samples, len(triples)), replace=False)
    return [triples[i] for i in idx]


def measure_bias(
    checkpoint: str | Path,
    n_samples: int = 20,
    n_rollouts: int = 100,
    seed: int = 0,
) -> BiasReport:
    """Critic estimate minus Monte-Carlo truth over on-policy pairs.

    Negative mean bias means underestimation. Truth rollouts follow the
    stored stochastic policy with entropy bonuses after the first step.
    """
    check_number("seed", seed, "int", least=0)
    check_number("n_samples", n_samples, "int", least=1)
    check_number("n_rollouts", n_rollouts, "int", least=1)
    agent, cfg, env = load_checkpoint(checkpoint)
    active = cfg.kernel().active_critics
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _BIAS_TAG, seed]))
    pairs = collect_on_policy_pairs(env.clone(), agent.phi, n_samples, rng)

    def policy(obs, prng):
        return act_stochastic(agent.phi, obs, prng)

    alpha = agent.alpha
    report_pairs = []
    for phys, obs, a in pairs:
        estimates = [
            critic_forward(agent.critics.theta[i], obs[None, :], a[None, :])[0][0]
            for i in active
        ]
        estimate = float(np.min(estimates))
        truth = mc_true_q(env, policy, (phys, a), n_rollouts, cfg.gamma, alpha, rng)
        report_pairs.append((estimate, truth))
    mean_bias = float(np.mean([e - t for e, t in report_pairs]))
    return BiasReport(
        mean_bias=mean_bias,
        pairs=report_pairs,
        n_rollouts=n_rollouts,
        horizon=truth_horizon(cfg.gamma),
    )


REWARD_SCALES = (0.01, 0.1, 1.0, 10.0, 100.0)

# study -> arm -> the config fields that arm sets over the base config
STUDIES = {
    "refinements": {
        "full": {},
        "no-evs": {"expected_value_substitution": False},
        "single-dist": {"twin_distributions": False},
    },
    "reward-scale": {
        f"scale-{s:g}-{kernel}": {"reward_scale": s, **fields}
        for s in REWARD_SCALES
        for kernel, fields in (("adaptive", {}), ("fixed-b", {"variance_adjustment": False}))
    },
}


def run_ablation(
    study: str,
    base_cfg: RunConfig,
    seeds: list[int] | None = None,
    out_dir: str | Path | None = None,
) -> dict:
    """Run an arm-by-arm comparison with shared seeds.

    ``refinements`` toggles off one refinement at a time;
    ``reward-scale`` crosses reward scales with the adaptive and
    fixed-boundary kernels. Every arm x seed config is resolved before
    the first run trains, so a bad one refuses the study with nothing
    written, and the report is built from the return curves that the
    runs' summaries carry. Each arm's config is echoed in its own run
    directory, so any arm reproduces independently.
    """
    if study not in STUDIES:
        raise ConfigError(f"unknown study {study!r}; choose from {tuple(STUDIES)}")
    if base_cfg.total_iterations < 1:
        raise ConfigError(f"total_iterations must be >= 1 for a study, got {base_cfg.total_iterations}")
    seeds = list(seeds) if seeds else [base_cfg.seed]
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"seeds must differ, got {seeds}: a repeated seed trains one run directory twice")
    out = Path(out_dir) if out_dir else Path(base_cfg.out_dir)
    arms = {
        arm: [
            dataclasses.replace(base_cfg, seed=seed, out_dir=str(out / arm / f"seed{seed}"), **fields).validate()
            for seed in seeds
        ]
        for arm, fields in STUDIES[study].items()
    }

    report: dict = {"study": study, "seeds": seeds, "arms": {}}
    curves = {}
    for arm, cfgs in arms.items():
        summaries = [train(cfg) for cfg in cfgs]
        n_common = min(len(s["curve"]["avg_return"]) for s in summaries)
        matrix = np.array([s["curve"]["avg_return"][:n_common] for s in summaries])
        steps = summaries[-1]["curve"]["env_steps"][:n_common]
        mean_curve = matrix.mean(axis=0)
        report["arms"][arm] = {
            "runs": [
                {"seed": cfg.seed, "final_return": s["final_return"], "run_dir": cfg.out_dir}
                for cfg, s in zip(cfgs, summaries)
            ],
            "mean_final_return": float(mean_curve[-1]),
            "aulc": float(np.trapezoid(mean_curve, steps)) if n_common > 1 else float(mean_curve[0]),
            "mid_return_variance": float(matrix[:, n_common // 2].var(ddof=1)) if len(seeds) > 1 else 0.0,
            "mean_curve": {"env_steps": steps, "avg_return": mean_curve.tolist()},
        }
        curves[arm] = (steps, mean_curve.tolist())

    _write_json(out / "report.json", report)
    write_line_chart(out / "curves.svg", curves, f"{study} study ({base_cfg.env})", "env steps", "return")
    return report
