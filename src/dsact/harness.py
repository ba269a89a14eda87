"""The executable training loop, evaluation, bias measurement and
ablation studies (`STUDIES`, arms of config fields over `train`), with
CSV/JSON/SVG artifacts.

A run's state is one `RunState` with a method per phase, which `train`
calls in order. Per iteration `collect` takes a fixed number of
environment steps with the stochastic policy; `update` then (once the
buffer is warm) runs one critic update per collected step, with actor,
temperature and target-network updates on every policy_delay-th;
`evaluate` writes a metrics.csv row at each eval point and `save` a
checkpoint at each save point. All randomness is drawn from named
streams derived from the run seed, so a config/seed pair reproduces
metrics.csv bit-exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path

import numpy as np

from .actor import act_deterministic, act_stochastic, actor_gradient, policy_forward, temperature_update
from .agent import build_agent, load_checkpoint, save_checkpoint
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


def evaluate_policy(
    phi,
    env,
    episodes: int,
    deterministic: bool,
    seed_parts: tuple[int, ...],
) -> tuple[float, float]:
    """Mean and std of the undiscounted raw-reward returns of fresh
    evaluation episodes."""
    sim = env.clone()
    returns = []
    for e in range(episodes):
        rng = None if deterministic else np.random.default_rng(derived_seed(*seed_parts, e, 1))
        obs = sim.reset(derived_seed(*seed_parts, e))
        total = 0.0
        while True:
            a = act_deterministic(phi, obs) if rng is None else act_stochastic(phi, obs, rng)[0]
            obs, r, done, truncated = sim.step(a)
            total += r
            if done or truncated:
                break
        returns.append(total)
    returns = np.asarray(returns)
    std = float(np.std(returns)) if episodes > 1 else 0.0
    return float(np.mean(returns)), std


def evaluate(checkpoint: str | Path, episodes: int = 10, deterministic: bool = True, seed: int = 0):
    """Evaluate a stored policy in the env its config echo names."""
    check_number("seed", seed, "int", least=0)
    check_number("episodes", episodes, "int", least=1)
    agent, _, env = load_checkpoint(checkpoint, keep=("actor",))
    return evaluate_policy(
        agent.phi, env, episodes, deterministic, seed_parts=(seed, _EVAL_TAG)
    )


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


class RunState:
    """One run between its phases, built from a validated config: the env
    and its current obs, the nine streams, the agent, the kernel-bound
    critic update and its active critics, the replay ring, the target
    entropy, the eval rows (METRICS_COLUMNS order) and the name of the
    last checkpoint saved. Building it resets the env, drawing from the
    env stream only."""

    def __init__(self, cfg: RunConfig):
        self.cfg, self.out = cfg, Path(cfg.out_dir)
        self.env = make_env(cfg.env, cfg.env_overrides)
        self.streams = make_streams(cfg.seed)
        self.agent = build_agent(cfg, self.env.spec, self.streams)
        spec = cfg.kernel()
        self.update_step, self.active = build_variant(spec), spec.active_critics
        self.buffer = ReplayBuffer(cfg.buffer_capacity)
        act_dim = self.env.spec.act_dim
        self.target_entropy = -float(act_dim) if cfg.target_entropy is None else cfg.target_entropy
        self.rows: list[tuple] = []
        self.checkpoint: str | None = None
        self.obs = self._reset()

    def _reset(self):
        return self.env.reset(int(self.streams["env"].integers(0, 2**63)))

    def collect(self) -> None:
        """samples_per_iteration steps of the stochastic policy into the
        ring, rewards scaled; a finished episode resets the env."""
        cfg = self.cfg
        for _ in range(cfg.samples_per_iteration):
            a, _ = act_stochastic(self.agent.phi, self.obs, self.streams["policy"])
            obs2, r, done, truncated = self.env.step(a)
            self.buffer.push(self.obs, a, r * cfg.reward_scale, obs2, done)
            self.obs = self._reset() if done or truncated else obs2

    def update(self) -> None:
        """Once the ring holds warm_size rows, `cfg.updates` critic
        updates, each policy_delay-th followed by the actor, temperature
        and target-network updates; then the iteration ends, and a
        non-finite parameter raises NumericalError."""
        cfg, agent, streams = self.cfg, self.agent, self.streams
        critics = agent.critics
        if self.buffer.count >= cfg.warm_size:
            for _ in range(cfg.updates):
                batch = self.buffer.sample(cfg.batch_size, streams["replay"])
                self.update_step(critics, batch, agent.phi_bar, agent.alpha, cfg, streams["targets"])
                # every update steps critic 1's Adam
                if critics.adam[0].step % cfg.policy_delay == 0:
                    grads = actor_gradient(agent.phi, batch.s, critics, agent.alpha, streams["actor_noise"], self.active)
                    adam_step(agent.adam_actor, agent.phi, grads, cfg.lr_actor)
                    dist = policy_forward(agent.phi, batch.s)
                    _, logp = policy_sample(dist, streams["temp_noise"].standard_normal(dist.mu.shape))
                    agent.alpha = temperature_update(agent.alpha, logp, self.target_entropy, cfg.lr_alpha)
                    for i in self.active:
                        soft_update(critics.theta[i], critics.theta_bar[i], cfg.tau)
                    soft_update(agent.phi, agent.phi_bar, cfg.tau)
        agent.iteration += 1
        if not params_all_finite(agent.phi) or not all(params_all_finite(critics.theta[i]) for i in self.active):
            raise NumericalError(
                f"non-finite parameters at iteration {agent.iteration} "
                f"(alpha={agent.alpha:.3g}, b={critics.b}, omega={critics.omega})"
            )

    def evaluate(self) -> float:
        """Append the next metrics.csv row and rewrite the file; returns
        the row's deterministic eval return. The eval episodes and the
        probe batch draw from streams of the seed and the eval's index,
        never from a training stream; an eval follows at least one push,
        so the ring is never empty."""
        cfg, agent = self.cfg, self.agent
        eval_index = len(self.rows) + 1
        avg_return, _ = evaluate_policy(
            agent.phi, self.env, cfg.eval_episodes, deterministic=True, seed_parts=(cfg.seed, _EVAL_TAG, eval_index)
        )
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _PROBE_TAG, eval_index]))
        batch = self.buffer.sample(min(cfg.batch_size, self.buffer.count), rng)
        forwards = (critic_forward(agent.critics.theta[i], batch.s, batch.a) for i in self.active)
        q_means, sigma_means = zip(*[(np.mean(q), np.mean(sigma)) for q, sigma, _, _ in forwards])
        dist = policy_forward(agent.phi, batch.s)
        _, logp = policy_sample(dist, rng.standard_normal(dist.mu.shape))
        self.rows.append((
            agent.iteration, agent.iteration * cfg.samples_per_iteration, avg_return,
            float(np.mean(q_means)), float(np.mean(sigma_means)), agent.alpha,
            *agent.critics.b, *agent.critics.omega, float(np.mean(-logp)), None,  # no bias_estimate yet
        ))
        _write_metrics(self.out / "metrics.csv", self.rows)
        return avg_return

    def save(self) -> None:
        """checkpoint_<iteration>.npz in the run directory."""
        self.checkpoint = f"checkpoint_{self.agent.iteration}.npz"
        save_checkpoint(self.out / self.checkpoint, self.agent, self.cfg, self.env.spec)


def train(cfg: RunConfig) -> dict:
    """Run the full loop; returns the summary document (also saved).

    Each iteration collects, then updates; an eval every eval_interval
    iterations and at the last; a checkpoint at iteration 0, each multiple
    of checkpoint_interval and the iteration the run ends at, each once.
    A non-finite parameter or gradient halts the run, with diagnostics
    written next to the other artifacts before the error propagates.
    """
    cfg.validate()
    started, out = time.perf_counter(), Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out_dir {cfg.out_dir!r} cannot hold a run: {exc}") from exc
    stopped_early = False
    try:
        run = RunState(cfg)
        run.save()
        _write_metrics(out / "metrics.csv", run.rows)
        for iteration in range(1, cfg.total_iterations + 1):
            run.collect()
            run.update()
            last = iteration == cfg.total_iterations
            if iteration % cfg.eval_interval == 0 or last:
                avg_return = run.evaluate()  # every due eval runs, stop_return or not
                stopped_early = cfg.stop_return is not None and avg_return >= cfg.stop_return
            if stopped_early or last or (cfg.checkpoint_interval and iteration % cfg.checkpoint_interval == 0):
                run.save()
            if stopped_early:
                break
    except NumericalError as exc:
        _write_json(out / "diagnostics.json", {"error": str(exc), "config": cfg.to_jsonable()})
        raise

    curve = {c: [row[METRICS_COLUMNS.index(c)] for row in run.rows] for c in ("env_steps", "avg_return")}
    if run.rows:
        series = {"avg_return": (curve["env_steps"], curve["avg_return"])}
        write_line_chart(out / "curves.svg", series, f"{cfg.algorithm} on {cfg.env}", "env steps", "return")
    summary = {
        "config": cfg.to_jsonable(),
        "env_fixture": run.env.fixture_constants(),
        "build_id": build_id(),
        "iterations_run": run.agent.iteration,
        "env_steps": run.agent.iteration * cfg.samples_per_iteration,
        "critic_updates": run.agent.critics.adam[0].step,
        "actor_updates": run.agent.adam_actor.step,
        "final_return": curve["avg_return"][-1] if run.rows else None,
        "final_alpha": run.agent.alpha,
        "stopped_early": stopped_early,
        "runtime_s": time.perf_counter() - started,
        "checkpoint": run.checkpoint,
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
    agent, cfg, env = load_checkpoint(checkpoint, keep=("actor", "critic1", "critic2"))
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
        "no-va": {"variance_adjustment": False},
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
    seeds = [base_cfg.seed] if seeds is None else list(seeds)
    if not seeds:
        raise ConfigError("seeds is empty: give at least one seed, or none to train the config's seed")
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
