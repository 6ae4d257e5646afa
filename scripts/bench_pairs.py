#!/usr/bin/env python3
"""Run the benchmark on two trees in alternating pairs and compare them.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload dense-16x16 --seeds 701-710

Pair i runs ``perfbench/run.py --workload W --seed S_i`` once in each tree,
each in a fresh process with the tree as its working directory; the
parent runs first in even pairs and the change in odd ones, so a drift in
the host's speed falls on both sides alike. Every run's result line is
printed as it arrives. Then, per metric, each side's median and quartiles
(q1-q3), how many pairs the change read better (ties count for neither),
and two verdicts: ``gain`` (the change won at least 9 in 10 pairs and the
medians differ by more than the parent's quartile distance) and, where
``BENCHMARK.json`` fixes a bound, ``within_bound`` (the change's median is
worse than the parent's by at most that fraction). Wins are counted out
of every pair run, so a pair in which either side crashed, timed out or
printed no result counts against the change. Metric directions, bounds
and the run length (``run_seconds``) are read from the change tree's
``BENCHMARK.json``. With ``--trace 1`` the per-layer figures of traced
runs are compared instead.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles


def parse_seeds(text: str) -> list[int]:
    """``"701-710"`` (inclusive) or ``"3,5,9"``."""
    if "-" in text.strip("-"):
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process; its last stdout line is the result JSON. A run
    that exits non-zero, times out or prints no result counts as incorrect."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    failed = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False,
                              timeout=300 + 20 * seconds)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"timeout: {' '.join(cmd)} in {tree}\n")
        return failed
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = failed
    if proc.returncode != 0:
        result["correct"] = False
        sys.stderr.write(proc.stderr)
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], spec: dict, runs: int | None = None) -> list[str]:
    """One line per metric that both sides of every pair report.

    ``pairs`` holds (parent result, change result) of the pairs in which
    both sides produced metrics; ``runs`` is the number of pairs run
    (default ``len(pairs)``), the denominator of the win count. ``spec``
    maps a metric name to its ``BENCHMARK.json`` entry (``better``,
    optional ``bound``).
    """
    runs = len(pairs) if runs is None else runs
    lines = []
    names = [n for n in pairs[0][0]["metrics"]
             if all(n in p["metrics"] and n in c["metrics"] for p, c in pairs)]
    for name in names:
        base = [p["metrics"][name]["value"] for p, _ in pairs]
        new = [c["metrics"][name]["value"] for _, c in pairs]
        unit = pairs[0][0]["metrics"][name]["unit"]
        b1, b2, b3 = quartiles(base)
        n1, n2, n3 = quartiles(new)
        line = (f"metric {name} unit={unit} parent={b2:.6g} [{b1:.6g}-{b3:.6g}] "
                f"change={n2:.6g} [{n1:.6g}-{n3:.6g}]")
        if b2:
            line += f" delta={100.0 * (n2 - b2) / abs(b2):+.1f}%"
        better = spec.get(name, {}).get("better")
        if better in ("lower", "higher"):
            sign = 1.0 if better == "lower" else -1.0
            wins = sum(sign * (b - n) > 0 for b, n in zip(base, new))
            gain = wins >= 0.9 * runs and sign * (b2 - n2) > b3 - b1
            line += f" better={better} wins={wins}/{runs} gain={'yes' if gain else 'no'}"
            bound = spec[name].get("bound")
            if bound is not None:
                worse = sign * (n2 - b2)
                line += f" within_bound={'yes' if worse <= bound * abs(b2) else 'no'}"
        lines.append(line)
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="root of the parent tree")
    p.add_argument("--change", required=True, help="root of the changed tree")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=parse_seeds, help="'701-710' or '3,5,9'")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    spec = {m["name"]: m for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}

    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            got[side] = run_once(trees[side], args.workload, seed, bench["run_seconds"],
                                 args.trace)
            print(f"run pair={i} seed={seed} side={side} {json.dumps(got[side])}", flush=True)
        pairs.append((got["parent"], got["change"]))

    for side, k in (("parent", 0), ("change", 1)):
        runs = [pair[k] for pair in pairs]
        print(f"side {side} runs={len(runs)} correct={sum(r['correct'] for r in runs)} "
              f"attempted={sum(r['attempted'] for r in runs)} "
              f"failed={sum(r['failed'] for r in runs)}")
    complete = [(a, b) for a, b in pairs if a["metrics"] and b["metrics"]]
    if not complete:
        print("error: no pair produced metrics on both sides", file=sys.stderr)
        return 1
    for line in summarize(complete, spec, runs=len(pairs)):
        print(line)
    return 0 if all(a["correct"] and b["correct"] for a, b in pairs) else 1


if __name__ == "__main__":
    sys.exit(main())
