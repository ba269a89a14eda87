"""One repeat of a workload in a fresh interpreter.

Started by run.py as ``python3 perfbench/repeat.py <job.json> <spawn time>``
with BLAS pinned to one thread in its environment; the spawn time is
``time.monotonic()`` read by the parent just before starting it, so the
set-up time includes interpreter start. Times are reported in reference
seconds (refclock.py), with the raw wall-clock ones beside them. Prints
one JSON result line.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer, traced
from workloads import WORKLOADS, check_counts, check_metrics_csv

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def fingerprint(numpy, scipy, harness) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "build_id": harness.build_id(),
    }


def reconcile(name: str, trace: dict, counts: dict, expected: dict, wall_s: float) -> list[str]:
    """Traced call counts against the run's own counters and the call
    structure of an update, a collection step and a bias pair.

    The kernel counts (``numerics.*``) follow from that structure: a
    change to how an update calls the network kernels changes them, and
    must change this model with it, so a lost span never reads as a
    saving.
    """
    spans = trace["spans"]

    def calls(span, parent=None):
        rec = spans.get(span, {"calls": 0, "by_parent": {}})
        return rec["calls"] if parent is None else rec["by_parent"].get(parent, 0)

    fwd, step, act = "numerics.mlp_forward", "environments.step", "actor.act_stochastic"
    k = expected["active_critics"]
    if WORKLOADS[name]["kind"] == "bias":
        n, rollouts, horizon = counts["bias_pairs"], expected["n_rollouts"], expected["horizon"]
        acts = calls(act)
        pairs = {
            "oracles.mc_true_q.calls": (calls("oracles.mc_true_q"), n),
            f"{step}.calls under oracles.mc_true_q": (calls(step, "oracles.mc_true_q"), expected["env_steps"]),
            f"{act}.calls under oracles.mc_true_q": (calls(act, "oracles.mc_true_q"), n * rollouts * (horizon - 1)),
            f"{act}.calls while collecting pairs": (calls(act, "phase.timed"), calls(step, "phase.timed")),
            f"{fwd}.calls under {act}": (calls(fwd, act), acts),
            f"{fwd}.calls for critic estimates": (calls(fwd, "phase.timed"), k * n),
            f"{fwd}.calls": (calls(fwd), acts + k * n),
            f"{fwd}.rows": (trace["counters"].get(f"{fwd}.rows", 0), acts + k * n),
            "numerics.mlp_backward.calls": (calls("numerics.mlp_backward"), 0),
            "critic.update.calls": (calls("critic.update"), 0),
            "agent.save_checkpoint.calls": (calls("agent.save_checkpoint"), 1),
            "agent.load_checkpoint.calls": (calls("agent.load_checkpoint"), 1),
        }
    else:
        u, a, e = counts["critic_updates"], counts["actor_updates"], counts["env_steps"]
        v, b = expected["metrics_rows"], expected["batch_size"]
        eval_steps = calls(step, "harness.evaluate_policy")
        # parent span -> (forward calls, forward rows) under it
        forwards = {
            act: (e, e),  # one batch-1 policy forward per collected step
            "critic.build_targets": (3 * u, 3 * b * u),  # target policy and both target critics
            "critic.assemble_critic_gradient": (k * u, k * b * u),
            "actor.actor_gradient": ((1 + k) * a, (1 + k) * b * a),
            "harness.evaluate_policy": (eval_steps, eval_steps),
            # policy forward for the temperature update, and the evaluation probes
            "phase.timed": (a + (k + 1) * v, b * a + (k + 1) * expected["probe_rows"]),
        }
        pairs = {
            "critic.update.calls": (calls("critic.update"), u),
            "critic.batch_arrays.calls": (calls("critic.batch_arrays"), u),
            "critic.build_targets.calls": (calls("critic.build_targets"), u),
            "critic.assemble_critic_gradient.calls": (calls("critic.assemble_critic_gradient"), k * u),
            "critic.soft_update.calls": (calls("critic.soft_update"), (k + 1) * a),
            "replay.sample.calls": (calls("replay.sample"), u + v),
            "replay.push.calls": (calls("replay.push"), e),
            f"{act}.calls": (calls(act), e),
            "actor.actor_gradient.calls": (calls("actor.actor_gradient"), a),
            "actor.temperature_update.calls": (calls("actor.temperature_update"), a),
            "harness.evaluate_policy.calls": (calls("harness.evaluate_policy"), v),
            f"{step}.calls in the collection loop": (calls(step, "phase.timed"), e),
            "agent.save_checkpoint.calls": (calls("agent.save_checkpoint"), 2),
            "numerics.mlp_backward.calls": (calls("numerics.mlp_backward"), k * u + (k + 1) * a),
            "numerics.adam_step.calls": (calls("numerics.adam_step"), k * u + a),
            f"{fwd}.calls": (calls(fwd), sum(c for c, _ in forwards.values())),
            f"{fwd}.rows": (trace["counters"].get(f"{fwd}.rows", 0), sum(r for _, r in forwards.values())),
        }
        pairs.update({f"{fwd}.calls under {p}": (calls(fwd, p), c) for p, (c, _) in forwards.items()})
    failures = [f"traced {what} = {got}, expected {want}" for what, (got, want) in pairs.items() if got != want]
    failures += [f"trace target {t} not found in the engine" for t in trace["missing"]]
    if trace["negative_self_spans"]:
        failures.append(f"{trace['negative_self_spans']} spans have a negative self time")
    # the timed phase's self times must add up to the wall measured around it
    attributed = trace["phase_self_s"]["phase.timed"]
    if not wall_s - 1e-6 <= attributed <= wall_s + 0.001 + 0.001 * wall_s:
        failures.append(f"span self times add to {attributed:.6f} s, the timed wall is {wall_s:.6f} s")
    return failures


def main(job_path: str, spawned: float) -> None:
    job = json.loads(Path(job_path).read_text())
    missing = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if missing:
        raise SystemExit(f"BLAS thread variables not pinned to 1: {missing}")
    from refclock import RefClock  # imports numpy, so only once the pins are checked

    clock = RefClock().start()
    root = Path(job["root"])
    sys.path.insert(0, str(root / "src"))
    import numpy
    import scipy

    import dsact
    import dsact.agent as agent
    import dsact.config as config
    import dsact.environments as environments
    import dsact.harness as harness

    if root / "src" not in Path(dsact.__file__).resolve().parents:
        raise SystemExit(f"dsact imported from {dsact.__file__}, not from {root / 'src'}")

    name, spec = job["workload"], WORKLOADS[job["workload"]]
    tracer = None
    with contextlib.ExitStack() as stack:
        if job["trace"]:
            tracer = stack.enter_context(traced(Tracer()))

        def phase(label):
            return tracer.phase(label) if tracer else contextlib.nullcontext()

        with phase("setup"):
            cfg = config.load_config(job["config"])
            env = environments.make_env(cfg.env, cfg.env_overrides)
            out = Path(cfg.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            if spec["kind"] == "bias":
                # train() builds its own agent inside the timed phase; only
                # the bias workload builds one here, for its checkpoint
                built = agent.build_agent(cfg, env.spec, harness.make_streams(cfg.seed))
                ckpt = out / "checkpoint.json"
                agent.save_checkpoint(ckpt, built, cfg, env.spec)
        ready = time.monotonic()

        with phase("timed"):
            t0 = time.monotonic()
            if spec["kind"] == "bias":
                report = harness.measure_bias(
                    ckpt, n_samples=spec["n_samples"], n_rollouts=spec["n_rollouts"], seed=cfg.seed
                )
            else:
                summary = harness.train(cfg)
            t1 = time.monotonic()
    clock.stop()
    wall = clock.ref(t1) - clock.ref(t0)

    expected = job["expected"]
    if spec["kind"] == "bias":
        values = [report.mean_bias] + [x for pair in report.pairs for x in pair]
        counts = {"bias_pairs": len(report.pairs)}
        failures = check_counts(counts, {"bias_pairs": expected["bias_pairs"]})
        if not all(math.isfinite(v) for v in values):
            failures.append("non-finite value in the bias report")
        if len(report.pairs) * report.n_rollouts * report.horizon != expected["env_steps"]:
            failures.append(f"bias report horizon {report.horizon} implies another rollout length")
        counts["env_steps"] = expected["env_steps"]
        work = counts["bias_pairs"]
        report_bytes = json.dumps([report.mean_bias, report.pairs, report.horizon]).encode()
        digest = hashlib.sha256(report_bytes).hexdigest()
    else:
        counts = {k: summary[k] for k in ("critic_updates", "actor_updates", "env_steps")}
        metrics_csv = out / "metrics.csv"
        failures = check_counts(counts, {k: expected[k] for k in counts})
        failures += check_metrics_csv(metrics_csv, expected["metrics_rows"])
        work = counts["critic_updates"]
        digest = hashlib.sha256(metrics_csv.read_bytes()).hexdigest()

    result = {
        "setup_s": clock.ref(ready) - clock.ref(spawned),
        "wall_s": wall,
        "raw_setup_s": ready - spawned,
        "raw_wall_s": t1 - t0,
        "probes": len(clock.probes),
        "work": work,
        "env_steps": counts["env_steps"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counts": counts,
        "digest": digest,
        "fingerprint": fingerprint(numpy, scipy, harness),
        "failures": failures,
    }
    if tracer is not None:
        trace = tracer.summary(clock.ref_ns)
        result["trace"] = trace
        result["failures"] += reconcile(name, trace, counts, expected, wall)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
