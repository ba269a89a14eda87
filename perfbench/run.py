"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, both modes

Each repeat is one closed-loop run of the workload in a fresh child
interpreter (repeat.py) with BLAS pinned to one thread; repeats run one
after another until ``--seconds`` is used up, and every timing is the
median over the repeats, in reference seconds: program time counted at
the machine's speed of the moment (refclock.py). With ``--trace 0`` the repeats are untraced
and the last line carries the end-to-end metrics; with ``--trace 1``
traced and untraced repeats alternate and the last line carries the
per-layer metrics. The line before it is the full record: environment
fingerprint, output digests, per-repeat samples and run counts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repeat import THREAD_VARS
from workloads import WORKLOADS, expected_counts, make_config

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
HARD_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says

# name -> (unit, better)
END_TO_END = {
    "updates_per_s": ("1/s", "higher"),
    "env_steps_per_s": ("1/s", "higher"),
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}
_SPAN_METRICS = {
    "numerics.mlp_forward": ("calls", "self_s", "p50_us", "p99_us"),
    "numerics.mlp_backward": ("calls", "self_s"),
    "numerics.adam_step": ("calls", "self_s"),
    "critic.update": ("calls", "self_s"),
    "critic.build_targets": ("calls", "self_s"),
    "critic.assemble_critic_gradient": ("calls", "self_s"),
    "critic.soft_update": ("calls", "self_s"),
    "critic.batch_arrays": ("calls", "self_s"),
    "replay.sample": ("calls", "self_s"),
    "replay.push": ("calls", "self_s"),
    "actor.actor_gradient": ("calls", "self_s"),
    "actor.act_stochastic": ("calls", "self_s", "p50_us"),
    "actor.temperature_update": ("calls", "self_s"),
    "environments.step": ("calls", "self_s", "p50_us"),
    "agent.save_checkpoint": ("calls", "self_s"),
    "agent.load_checkpoint": ("calls", "self_s"),
    "harness.evaluate_policy": ("calls", "self_s"),
    "oracles.mc_true_q": ("calls", "self_s"),
}
_UNITS = {"calls": "count", "self_s": "s", "p50_us": "us", "p99_us": "us"}
# name -> unit
PER_LAYER = {f"{span}.{field}": _UNITS[field] for span, fields in _SPAN_METRICS.items() for field in fields}
PER_LAYER.update(
    {
        "numerics.mlp_forward.rows": "count",
        "numerics.matmul_mflop": "MFLOP-computed",
        "agent.save_checkpoint.bytes": "B",
        "agent.load_checkpoint.bytes": "B",
        "harness.unattributed_s": "s",
        "trace_overhead": "ratio",
    }
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    return env


def run_repeat(name: str, seed: int, index: int, trace: bool, run_dir: Path, timeout: float) -> dict:
    """One child process; returns its result, or one with a failure."""
    rep_dir = run_dir / f"r{index}"
    rep_dir.mkdir(parents=True)
    try:
        cfg = make_config(ROOT, name, seed, str(rep_dir / "run"))
        job = rep_dir / "job.json"
        config_path = rep_dir / "config.json"
        config_path.write_text(json.dumps(cfg))
        job.write_text(
            json.dumps(
                {
                    "root": str(ROOT),
                    "workload": name,
                    "config": str(config_path),
                    "trace": trace,
                    "expected": expected_counts(name, cfg),
                }
            )
        )
        cmd = [sys.executable, str(Path(__file__).with_name("repeat.py")), str(job)]
        try:
            proc = subprocess.run(
                cmd + [repr(time.monotonic())],
                cwd=ROOT,
                env=child_env(),
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"failures": [f"repeat {index} timed out after {timeout:.0f} s"], "trace_on": trace}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-5:]
            failure = f"repeat {index} exited {proc.returncode}: {' | '.join(tail)}"
            return {"failures": [failure], "trace_on": trace}
        result = json.loads(lines[-1])
        result["trace_on"] = trace
        return result
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail(values: list[float], better: str):
    """The highest percentile with at least ten samples beyond it, on
    the worse side; None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values, reverse=(better == "lower"))  # best first
    return {"percentile": round(100.0 * (n - 10) / n, 1), "value": ordered[n - 11], "beyond": 10}


def summarize(samples: dict[str, list[float]]) -> dict:
    out = {}
    for name, values in samples.items():
        unit, better = END_TO_END[name]
        q1, q3 = quartiles(values)
        out[name] = {
            "unit": unit,
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "n": len(values),
            "tail": tail(values, better),
        }
    return out


def e2e_samples(results: list[dict]) -> dict[str, list[float]]:
    return {
        "updates_per_s": [r["work"] / r["wall_s"] for r in results],
        "env_steps_per_s": [r["env_steps"] / r["wall_s"] for r in results],
        "wall_s": [r["wall_s"] for r in results],
        "setup_s": [r["setup_s"] for r in results],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
    }


def layer_values(trace: dict) -> dict[str, float]:
    spans, counters = trace["spans"], trace["counters"]
    values = {
        f"{span}.{field}": spans.get(span, {}).get(field, 0)
        for span, fields in _SPAN_METRICS.items()
        for field in fields
    }
    values["numerics.mlp_forward.rows"] = counters.get("numerics.mlp_forward.rows", 0)
    values["numerics.matmul_mflop"] = counters.get("numerics.matmul_flop", 0) / 1e6
    for span in ("agent.save_checkpoint", "agent.load_checkpoint"):
        values[f"{span}.bytes"] = counters.get(f"{span}.bytes", 0)
    values["harness.unattributed_s"] = spans["phase.timed"]["self_s"]
    return values


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run repeats for `seconds`; returns (record, result line)."""
    start = time.monotonic()
    run_dir = OUT / f"{name}-{seed}-{os.getpid()}"
    results: list[dict] = []
    durations: list[float] = []
    min_repeats = 4 if trace else 3
    try:
        while True:
            elapsed = time.monotonic() - start
            budget = HARD_LIMIT_S - elapsed
            predicted = statistics.median(durations) if durations else 0.0
            if len(results) >= min_repeats and elapsed + predicted > seconds:
                break
            if budget < 2 * predicted or budget < 5:
                break
            t = time.monotonic()
            traced_repeat = trace and len(results) % 2 == 1
            results.append(run_repeat(name, seed, len(results), traced_repeat, run_dir, budget))
            durations.append(time.monotonic() - t)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()  # succeeds only when no other run is using it

    failures = [f for r in results for f in r["failures"]]
    good = [r for r in results if not r["failures"]]
    digests = sorted({r["digest"] for r in good})
    if len(digests) > 1:
        failures.append(f"repeats disagree on the output digest: {digests}")
        good = [r for r in good if r["digest"] == good[0]["digest"]]
    failed = len(results) - len(good)
    fingerprints = [json.dumps(r["fingerprint"], sort_keys=True) for r in good]
    if len(set(fingerprints)) > 1:
        failures.append("repeats report different environment fingerprints")

    plain = [r for r in good if not r["trace_on"]]
    traced = [r for r in good if r["trace_on"]]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "repeats": {"untraced": len(plain), "traced": len(traced), "failed": failed},
        "fingerprint": good[0]["fingerprint"] if good else None,
        "digest": {"metrics_csv" if WORKLOADS[name]["kind"] == "train" else "bias_report": digests},
        "counts": good[0]["counts"] if good else None,
        "failures": failures,
    }
    metrics = {}
    if plain:
        samples = e2e_samples(plain)
        record["samples"] = samples
        record["end_to_end"] = summarize(samples)
        # the same times on the wall clock, machine swings and all
        record["raw"] = {k: [r[f"raw_{k}"] for r in plain] for k in ("wall_s", "setup_s")}
        record["probes"] = [r["probes"] for r in plain]
        if not trace:
            metrics = {k: {"value": v["median"], "unit": v["unit"]} for k, v in record["end_to_end"].items()}
    if trace and traced and plain:
        per_repeat = [layer_values(r["trace"]) for r in traced]
        layers = {k: statistics.median(v[k] for v in per_repeat) for k in per_repeat[0]}
        layers["trace_overhead"] = statistics.median(r["wall_s"] for r in traced) / statistics.median(
            r["wall_s"] for r in plain
        )
        record["per_layer"] = layers
        metrics = {k: {"value": layers[k], "unit": unit} for k, unit in PER_LAYER.items()}
    result = {
        "correct": failed == 0 and not failures and bool(metrics),
        "attempted": len(results),
        "failed": failed if metrics else len(results),
        "metrics": metrics,
    }
    return record, result


def table(record: dict) -> list[str]:
    rows = [f"== {record['workload']} (seed {record['seed']}, repeats {record['repeats']})"]
    for k, v in record.get("end_to_end", {}).items():
        t = v["tail"]
        tail_txt = f"p{t['percentile']:g} {t['value']:.4g}" if t else "tail needs >= 11 repeats"
        rows.append(f"  {k:36s} {v['median']:12.4f} {v['unit']:8s} (n={v['n']}, {tail_txt})")
    for k, v in record.get("per_layer", {}).items():
        rows.append(f"  {k:36s} {v:12.4f} {PER_LAYER[k]}")
    rows += [f"  FAILED: {f}" for f in record["failures"]]
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into an exception, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    needed = ["src/dsact/__init__.py", *dict.fromkeys(w["config"] for w in WORKLOADS.values())]
    absent = [p for p in needed if not (ROOT / p).is_file()]
    if absent:
        print(f"perfbench: the engine sources are not in {ROOT}: missing {absent}", file=sys.stderr)
        return 2

    if args.workload != "all":
        record, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"record": record}))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (False, True):
            record, result = measure(name, args.seed, args.seconds, trace)
            print(json.dumps({"record": record}))
            print("\n".join(table(record)), flush=True)
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
