"""The benchmark's own checks: traced call counts reconcile exactly with
the engine's counters, tracing leaves outputs unchanged, and
BENCHMARK.json matches the metrics run.py prints.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import dsact.agent as agent  # noqa: E402
import dsact.baselines as baselines  # noqa: E402
import dsact.config as config  # noqa: E402
import dsact.environments as environments  # noqa: E402
import dsact.harness as harness  # noqa: E402
import dsact.replay as replay  # noqa: E402
from refclock import NOMINAL_PROBE_S, RefClock  # noqa: E402
from repeat import reconcile  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from tracer import Tracer, traced  # noqa: E402
from workloads import ACTIVE_CRITICS, PINNED, WORKLOADS, expected_counts, truth_horizon  # noqa: E402


def tiny_config(tmp_path: Path, algorithm: str, name: str = "run") -> config.RunConfig:
    doc = {
        **PINNED,
        "algorithm": algorithm,
        "env": "bandit-chain",
        "gamma": 0.9,
        "hidden_actor": [8, 8],
        "hidden_critic": [8, 8],
        "batch_size": 16,
        "warm_size": 40,
        "total_iterations": 5,
        "eval_interval": 3,
        "eval_episodes": 1,
        "seed": 7,
        "out_dir": str(tmp_path / name),
    }
    return config.config_from_dict(doc)


def run_traced(fn, setup=None):
    """(fn's result, trace summary, wall of fn) as repeat.py measures
    them; `setup` runs first, traced in its own phase."""
    tracer = Tracer()
    with traced(tracer):
        if setup is not None:
            with tracer.phase("setup"):
                setup()
        with tracer.phase("timed"):
            t0 = time.monotonic()
            out = fn()
            wall = time.monotonic() - t0
    return out, tracer.summary(), wall


def train_counts(summary: dict) -> dict:
    return {k: summary[k] for k in ("critic_updates", "actor_updates", "env_steps")}


@pytest.mark.parametrize("algorithm", ["dsact", "dsacv1", "sac"])
def test_traced_training_counts_reconcile(tmp_path, algorithm):
    cfg = tiny_config(tmp_path, algorithm)
    summary, trace, wall = run_traced(lambda: harness.train(cfg))
    spans = trace["spans"]
    counts = train_counts(summary)
    want = expected_counts("chain-dsacv1", cfg.to_jsonable())
    assert counts == {k: want[k] for k in counts}
    assert counts["critic_updates"] > 0
    assert want["active_critics"] == len(cfg.variant().active_critics)
    assert spans["critic.update"]["calls"] == summary["critic_updates"]
    assert spans["actor.actor_gradient"]["calls"] == summary["actor_updates"]
    assert trace["missing"] == []
    assert reconcile("chain-dsacv1", trace, counts, want, wall) == []


@pytest.fixture(scope="module")
def dsact_trace(tmp_path_factory):
    cfg = tiny_config(tmp_path_factory.mktemp("lost"), "dsact")
    summary, trace, wall = run_traced(lambda: harness.train(cfg))
    return trace, train_counts(summary), expected_counts("pendulum-dsact", cfg.to_jsonable()), wall


def test_reconcile_reports_a_lost_span(dsact_trace):
    trace, counts, want, wall = dsact_trace
    spans = dict(trace["spans"])
    spans["critic.update"] = {**spans["critic.update"], "calls": spans["critic.update"]["calls"] - 1}
    failures = reconcile("pendulum-dsact", {**trace, "spans": spans}, counts, want, wall)
    assert len(failures) == 1 and "critic.update" in failures[0]


def test_reconcile_reports_kernel_calls_that_bypass_mlp_forward(dsact_trace):
    # as if the target critics were evaluated by a helper the tracer does not see
    trace, counts, want, wall = dsact_trace
    fwd = trace["spans"]["numerics.mlp_forward"]
    lost = 2 * counts["critic_updates"]
    by_parent = {**fwd["by_parent"], "critic.build_targets": fwd["by_parent"]["critic.build_targets"] - lost}
    spans = {**trace["spans"], "numerics.mlp_forward": {**fwd, "calls": fwd["calls"] - lost, "by_parent": by_parent}}
    rows = trace["counters"]["numerics.mlp_forward.rows"] - lost * want["batch_size"]
    counters = {**trace["counters"], "numerics.mlp_forward.rows": rows}
    failures = reconcile("pendulum-dsact", {**trace, "spans": spans, "counters": counters}, counts, want, wall)
    assert {f.split(" = ")[0] for f in failures} == {
        "traced numerics.mlp_forward.calls",
        "traced numerics.mlp_forward.rows",
        "traced numerics.mlp_forward.calls under critic.build_targets",
    }


def test_reconcile_reports_missing_targets_and_unaccounted_time(dsact_trace):
    trace, counts, want, wall = dsact_trace
    assert reconcile("pendulum-dsact", trace, counts, want, wall) == []
    failures = reconcile("pendulum-dsact", {**trace, "missing": ["critic.batch_arrays"]}, counts, want, wall)
    assert failures == ["trace target critic.batch_arrays not found in the engine"]
    failures = reconcile("pendulum-dsact", trace, counts, want, wall * 0.9)
    assert len(failures) == 1 and "self times add to" in failures[0]


def test_tracing_leaves_bindings_and_outputs_unchanged(tmp_path):
    bindings = (
        harness.build_variant,
        harness.load_checkpoint,
        harness.act_stochastic,
        replay.ReplayBuffer.push,
        environments.PendulumEnv.step,
    )
    plain = tiny_config(tmp_path, "dsact", "plain")
    harness.train(plain)
    with_trace = tiny_config(tmp_path, "dsact", "traced")
    run_traced(lambda: harness.train(with_trace))
    assert (Path(plain.out_dir) / "metrics.csv").read_bytes() == (
        Path(with_trace.out_dir) / "metrics.csv"
    ).read_bytes()
    assert bindings == (
        baselines.build_variant,
        agent.load_checkpoint,
        harness.act_stochastic,
        replay.ReplayBuffer.push,
        environments.PendulumEnv.step,
    )
    assert harness.load_checkpoint is agent.load_checkpoint


def test_traced_bias_counts_reconcile(tmp_path):
    doc = {**PINNED, "env": "pendulum", "gamma": 0.9, "hidden_actor": [8], "hidden_critic": [8], "seed": 3}
    cfg = config.config_from_dict({**doc, "out_dir": str(tmp_path)})
    env = environments.make_env(cfg.env)
    ckpt = tmp_path / "checkpoint.json"
    built = agent.build_agent(cfg, env.spec, harness.make_streams(cfg.seed))
    n = 2
    report, trace, wall = run_traced(
        lambda: harness.measure_bias(ckpt, n_samples=n, n_rollouts=n, seed=1),
        setup=lambda: agent.save_checkpoint(ckpt, built, cfg, env.spec),
    )
    horizon = truth_horizon(cfg.gamma)
    want = {"env_steps": n * n * horizon, "n_rollouts": n, "horizon": horizon}
    want["active_critics"] = ACTIVE_CRITICS[cfg.algorithm]
    assert reconcile("pendulum-bias", trace, {"bias_pairs": len(report.pairs)}, want, wall) == []
    assert len(report.pairs) == n
    assert trace["counters"]["agent.load_checkpoint.bytes"] == ckpt.stat().st_size


def test_self_times_add_up_to_the_phase(tmp_path):
    cfg = tiny_config(tmp_path, "dsact")
    _, trace, wall = run_traced(lambda: harness.train(cfg))
    spans = trace["spans"]
    total_self = sum(rec["self_s"] for rec in spans.values())
    assert total_self == pytest.approx(spans["phase.timed"]["total_s"], rel=1e-9)
    assert trace["phase_self_s"]["phase.timed"] == pytest.approx(total_self, rel=1e-9)
    assert trace["negative_self_spans"] == 0
    assert wall <= total_self <= wall + 1e-3


def test_benchmark_json_matches_printed_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("slowdown", [1.0, 2.0])
def test_refclock_leaves_out_probes_and_scales_by_their_speed(slowdown):
    clock = RefClock()
    d = NOMINAL_PROBE_S * slowdown
    clock.probes = [(float(i), i + d) for i in range(20)]  # one probe a second
    program = (12.5 - 3.5) - 9 * d  # the readings straddle probes 4..12
    assert clock.ref(12.5) - clock.ref(3.5) == pytest.approx(program / slowdown)
    assert clock.ref(0.0) - clock.ref(-1.0) == pytest.approx(1.0 / slowdown)  # before the first probe
    with pytest.raises(ValueError):
        clock.ref(19.5)


def test_refclock_in_a_traced_run_keeps_self_times_adding_up(tmp_path):
    cfg = tiny_config(tmp_path, "dsact")
    tracer, clock = Tracer(), RefClock().start()
    with traced(tracer), tracer.phase("timed"):
        t0 = time.monotonic()
        summary = harness.train(cfg)
        t1 = time.monotonic()
    clock.stop()
    assert len(clock.probes) >= 2
    trace = tracer.summary(clock.ref_ns)
    wall = clock.ref(t1) - clock.ref(t0)
    want = expected_counts("pendulum-dsact", cfg.to_jsonable())
    assert reconcile("pendulum-dsact", trace, train_counts(summary), want, wall) == []
