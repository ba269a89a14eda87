"""The benchmark's workloads: generated configs, expected counts and
output checks.

Nothing here imports the engine, so the parent process can build
configs and expectations without numpy; the repeat process applies the
checks to what a run wrote.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

METRICS_HEADER = (
    "iteration,env_steps,avg_return,q_mean,sigma_mean,alpha,"
    "b1,b2,omega1,omega2,entropy_estimate,bias_estimate"
)
# columns the engine leaves blank on purpose; every other cell must be finite
INTENTIONAL_BLANKS = {"bias_estimate"}

# Why each workload exists is recorded in perfbench/README.md.
WORKLOADS = {
    "pendulum-dsact": {
        "kind": "train",
        "config": "configs/pendulum.json",
        "overrides": {"warm_size": 1000, "total_iterations": 120},
    },
    "chain-dsacv1": {
        "kind": "train",
        "config": "configs/bandit_chain.json",
        "overrides": {"algorithm": "dsacv1", "total_iterations": 200},
    },
    "pendulum-bias": {
        "kind": "bias",
        "config": "configs/pendulum.json",
        # default-width (256x3) nets: drop the desk config's 64x64 sizes
        "drop": ("hidden_actor", "hidden_critic"),
        "overrides": {"gamma": 0.99},
        "n_samples": 8,
        "n_rollouts": 8,
    },
}

# pinned so the expected counts follow from the config file alone
PINNED = {
    "samples_per_iteration": 20,
    "policy_delay": 2,
    "updates_per_iteration": None,
    "buffer_capacity": 1_000_000,
    "checkpoint_interval": None,
    "stop_return": None,
}
# critics each update trains, by algorithm family (twin or single)
ACTIVE_CRITICS = {"dsact": 2, "sac": 2, "dsacv1": 1}


def make_config(root: Path, name: str, seed: int, out_dir: str) -> dict:
    """The config document the engine receives for one repeat."""
    spec = WORKLOADS[name]
    doc = json.loads((root / spec["config"]).read_text())
    for key in spec.get("drop", ()):
        doc.pop(key, None)
    doc.update(PINNED)
    doc.update(spec["overrides"])
    doc["seed"] = seed
    doc["out_dir"] = out_dir
    return doc


def truth_horizon(gamma: float, tail: float = 1e-3) -> int:
    """Monte-Carlo rollout length: smallest T with gamma**T < tail."""
    t = math.floor(math.log(tail) / math.log(gamma)) + 1
    while gamma**t >= tail:
        t += 1
    return t


def expected_counts(name: str, cfg: dict) -> dict:
    """Counters a correct run of this config must report exactly, and
    the sizes the traced run's call counts are reconciled against."""
    spec = WORKLOADS[name]
    active = ACTIVE_CRITICS[cfg["algorithm"]]
    if spec["kind"] == "bias":
        n, k = spec["n_samples"], spec["n_rollouts"]
        horizon = truth_horizon(cfg["gamma"])
        return {
            "bias_pairs": n,
            "env_steps": n * k * horizon,
            "n_rollouts": k,
            "horizon": horizon,
            "active_critics": active,
        }
    spi, iters, batch = cfg["samples_per_iteration"], cfg["total_iterations"], cfg["batch_size"]
    first_update_iter = math.ceil(cfg["warm_size"] / spi)
    critic_updates = max(0, iters - first_update_iter + 1) * spi
    evals = [i for i in range(1, iters + 1) if i % cfg["eval_interval"] == 0 or i == iters]
    return {
        "critic_updates": critic_updates,
        "actor_updates": critic_updates // cfg["policy_delay"],
        "env_steps": iters * spi,
        "metrics_rows": len(evals),
        "active_critics": active,
        "batch_size": batch,
        # each evaluation's diagnostics probe one batch from the buffer
        "probe_rows": sum(min(batch, cfg["buffer_capacity"], i * spi) for i in evals),
    }


def check_metrics_csv(path: Path, rows_expected: int) -> list[str]:
    """Header, row count, and every cell finite or an intentional blank."""
    lines = path.read_text().splitlines()
    failures = []
    if not lines or lines[0] != METRICS_HEADER:
        return [f"metrics.csv header differs: {lines[:1]!r}"]
    header = lines[0].split(",")
    if len(lines) - 1 != rows_expected:
        failures.append(f"metrics.csv has {len(lines) - 1} rows, expected {rows_expected}")
    for n, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(header):
            failures.append(f"metrics.csv row {n} has {len(cells)} cells")
            continue
        for col, cell in zip(header, cells):
            if cell == "" and col in INTENTIONAL_BLANKS:
                continue
            try:
                ok = math.isfinite(float(cell))
            except ValueError:
                ok = False
            if not ok:
                failures.append(f"metrics.csv row {n} column {col} is {cell!r}")
    return failures


def check_counts(got: dict, want: dict) -> list[str]:
    return [f"{k} is {got.get(k)}, expected {v}" for k, v in want.items() if got.get(k) != v]
