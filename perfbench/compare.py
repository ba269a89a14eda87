"""Compare two commits on the benchmark, with identical benchmark code.

    python3 perfbench/compare.py BASE HEAD [--workloads NAME ...] [--trace]

Both commits are exported with ``git archive`` under
.perfbench_out/compare/, and this tree's perfbench/ and BENCHMARK.json
are copied into both. Each of ten pairs runs BASE and HEAD on one seed
(seeds 1..10) for BENCHMARK.json's run_seconds, the side that goes
first alternating. For every workload and end-to-end
metric it prints each side's median and quartiles over the runs, the
share of pairs HEAD won, and a verdict:

  gain        HEAD wins at least 9 of the 10 pairs, and the
              medians differ by more than BASE's quartile spread
  regression  HEAD's median is worse than BASE's by more than the bound
  unresolved  BASE's own spread is wider than the bound, and HEAD does
              not beat every BASE run
  same        none of the above

It also says whether the output digests (metrics.csv, bias report)
match. ``--trace`` adds one traced run per side and prints the
per-layer metrics side by side.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

from run import END_TO_END, PER_LAYER, quartiles, tail

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def export(rev: str, dest: Path) -> Path:
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    tree = dest / sha[:12]
    shutil.rmtree(tree, ignore_errors=True)
    data = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(tree, filter="data")
    shutil.rmtree(tree / "perfbench", ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", tree / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    return tree


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
        + ["--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"benchmark failed in {tree}: {proc.stderr.strip()[-2000:]}")
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    if not result["correct"]:
        print(f"  ! {tree.name} {workload} seed {seed}: {record['failures']}", file=sys.stderr)
    return record


def verdict(base: list[float], head: list[float], better: str, bound: float) -> tuple[str, float]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    share = wins / len(base)
    mb, mh = statistics.median(base), statistics.median(head)
    q1, q3 = quartiles(base)
    if share >= 0.9 and sign * (mh - mb) > q3 - q1:
        return "gain", share
    if sign * (mb - mh) > bound * mb:
        return "regression", share
    if (q3 - q1) > bound * mb and not all(sign * (h - b) > 0 for h in head for b in base):
        return "unresolved", share
    return "same", share


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    dest = ROOT / ".perfbench_out" / "compare"
    trees = {"base": export(args.base, dest), "head": export(args.head, dest)}
    print(f"base {args.base} -> {trees['base'].name}, head {args.head} -> {trees['head'].name}")

    for workload in workloads:
        runs: dict[str, list[dict]] = {"base": [], "head": []}
        for seed in range(1, PAIRS + 1):
            order = ("base", "head") if seed % 2 else ("head", "base")
            for side in order:
                runs[side].append(bench(trees[side], workload, seed, seconds, 0))
        print(f"\n== {workload}: {PAIRS} pairs of {seconds:g} s runs")
        heads = ("metric", "base median [q1, q3]", "head median [q1, q3]")
        print(f"  {heads[0]:18s} {heads[1]:>34s} {heads[2]:>34s}  change  won  verdict")
        for name, (unit, better) in END_TO_END.items():
            b = [r["end_to_end"][name]["median"] for r in runs["base"]]
            h = [r["end_to_end"][name]["median"] for r in runs["head"]]
            word, share = verdict(b, h, better, bounds[name])
            mb, mh = statistics.median(b), statistics.median(h)
            cells = []
            for v in (b, h):
                q1, q3 = quartiles(v)
                cells.append(f"{statistics.median(v):.4g} [{q1:.4g}, {q3:.4g}] {unit}")
            change = 100 * (mh - mb) / mb
            print(f"  {name:18s} {cells[0]:>34s} {cells[1]:>34s} {change:+6.1f}% {share:4.0%}  {word}")
        for side in ("base", "head"):
            pooled = {n: [x for r in runs[side] for x in r["samples"][n]] for n in END_TO_END}
            tails = {n: tail(v, END_TO_END[n][1]) for n, v in pooled.items()}
            text = ", ".join(f"{n} p{t['percentile']:g}={t['value']:.4g}" for n, t in tails.items() if t)
            print(f"  {side} tails over {len(pooled['wall_s'])} repeats: {text or 'fewer than 11 repeats'}")
        machines = {
            json.dumps({k: v for k, v in r["fingerprint"].items() if k != "build_id"}, sort_keys=True)
            for side in runs
            for r in runs[side]
        }
        if len(machines) > 1:
            print(f"  WARNING: runs differ in environment fingerprint: {sorted(machines)}")
        same = all(rb["digest"] == rh["digest"] for rb, rh in zip(runs["base"], runs["head"]))
        print(f"  output digests on the same seed: {'identical' if same else 'CHANGED'}")
        if args.trace:
            layers = {side: bench(trees[side], workload, 1, seconds, 1) for side in trees}
            for name, unit in PER_LAYER.items():
                vb, vh = (layers[s].get("per_layer", {}).get(name, float("nan")) for s in ("base", "head"))
                print(f"  {name:40s} {vb:14.6g} {vh:14.6g} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
