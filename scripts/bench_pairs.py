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
worse than the parent's by at most that fraction) and ``resolved``. A
metric is unresolved when the parent's quartile distance exceeds the
bound times the parent's median, so the runs spread too widely to tell a
change within the bound from one past it, unless every run of the change
reads better than every run of the parent. Wins are counted out
of every pair run, so a pair in which either side crashed, timed out or
printed no result counts against the change. Metric directions, bounds
and the run length (``run_seconds``) are read from the change tree's
``BENCHMARK.json``. With ``--trace 1`` the per-layer figures of traced
runs are compared instead. ``--out BENCH_<label>.json`` also writes the
comparison as JSON: per metric each side's median and quartiles, the
wins and the verdicts, plus the seeds, the CPU count, the Python and
numpy versions and each tree's ``git rev-parse HEAD`` and whether
``git status`` lists an uncommitted change (both null without a ``.git``).
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


def compare(pairs: list[tuple[dict, dict]], spec: dict, runs: int | None = None) -> list[dict]:
    """One record per metric that both sides of every pair report.

    ``pairs`` holds (parent result, change result) of the pairs in which
    both sides produced metrics; ``runs`` is the number of pairs run
    (default ``len(pairs)``), the denominator of the win count. ``spec``
    maps a metric name to its ``BENCHMARK.json`` entry (``better``,
    optional ``bound``). A record holds the name, unit, each side's
    median and quartiles and, when the direction is known, each side's
    wins (pairs it read better in; ties count for neither), ``better``,
    ``runs`` and the verdicts ``gain`` and (with a bound) ``within_bound``
    and ``resolved``.
    """
    runs = len(pairs) if runs is None else runs
    records = []
    names = [n for n in pairs[0][0]["metrics"]
             if all(n in p["metrics"] and n in c["metrics"] for p, c in pairs)]
    for name in names:
        base = [p["metrics"][name]["value"] for p, _ in pairs]
        new = [c["metrics"][name]["value"] for _, c in pairs]
        rec = {"name": name, "unit": pairs[0][0]["metrics"][name]["unit"]}
        for side, values in (("parent", base), ("change", new)):
            q1, q2, q3 = quartiles(values)
            rec[side] = {"median": q2, "q1": q1, "q3": q3}
        b1, b2, b3 = rec["parent"]["q1"], rec["parent"]["median"], rec["parent"]["q3"]
        n2 = rec["change"]["median"]
        better = spec.get(name, {}).get("better")
        if better in ("lower", "higher"):
            sign = 1.0 if better == "lower" else -1.0
            wins = sum(sign * (b - n) > 0 for b, n in zip(base, new))
            rec["parent"]["wins"] = sum(sign * (n - b) > 0 for b, n in zip(base, new))
            rec["change"]["wins"] = wins
            rec.update(better=better, runs=runs,
                       gain=wins >= 0.9 * runs and sign * (b2 - n2) > b3 - b1)
            bound = spec[name].get("bound")
            if bound is not None:
                rec["within_bound"] = sign * (n2 - b2) <= bound * abs(b2)
                rec["resolved"] = (b3 - b1 <= bound * abs(b2)
                                   or max(sign * n for n in new) < min(sign * b for b in base))
        records.append(rec)
    return records


def summary_line(rec: dict) -> str:
    """One of :func:`compare`'s records as a printed line."""
    b, c = rec["parent"], rec["change"]
    line = (f"metric {rec['name']} unit={rec['unit']} "
            f"parent={b['median']:.6g} [{b['q1']:.6g}-{b['q3']:.6g}] "
            f"change={c['median']:.6g} [{c['q1']:.6g}-{c['q3']:.6g}]")
    if b["median"]:
        line += f" delta={100.0 * (c['median'] - b['median']) / abs(b['median']):+.1f}%"
    if "better" in rec:
        line += (f" better={rec['better']} wins={c['wins']}/{rec['runs']} "
                 f"gain={'yes' if rec['gain'] else 'no'}")
    if "within_bound" in rec:
        line += (f" within_bound={'yes' if rec['within_bound'] else 'no'}"
                 f" resolved={'yes' if rec['resolved'] else 'no'}")
    return line


def git_head(tree: str) -> dict:
    """``{"rev": git rev-parse HEAD, "dirty": whether git status lists a
    change}`` in ``tree``; both None when it has no ``.git``. A dirty tree
    ran code that its rev does not hold."""
    state = {"rev": None, "dirty": None}
    if not os.path.exists(os.path.join(tree, ".git")):
        return state
    for key, cmd in (("rev", ["rev-parse", "HEAD"]), ("dirty", ["status", "--porcelain"])):
        proc = subprocess.run(["git", *cmd], cwd=tree, capture_output=True, text=True,
                              check=False)
        if proc.returncode == 0:
            state[key] = proc.stdout.strip() if key == "rev" else bool(proc.stdout.strip())
    return state


def side_counts(pairs: list[tuple[dict, dict]]) -> dict:
    """Per side, the runs and the summed correct, attempted and failed."""
    return {side: {"runs": len(pairs),
                   **{key: sum(pair[k][key] for pair in pairs)
                      for key in ("correct", "attempted", "failed")}}
            for side, k in (("parent", 0), ("change", 1))}


def bench_record(workload: str, seeds: list[int], trace: int, trees: dict,
                 pairs: list[tuple[dict, dict]], records: list[dict]) -> dict:
    """What ``--out`` writes: the set-up, each side's rev and run counts
    and the per-metric records of :func:`compare`."""
    import numpy

    sides = side_counts(pairs)
    for side, tree in trees.items():
        sides[side].update(git_head(tree))
    return {"workload": workload, "seeds": seeds, "trace": trace, "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": numpy.__version__, "trees": sides,
            "metrics": records}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="root of the parent tree")
    p.add_argument("--change", required=True, help="root of the changed tree")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=parse_seeds, help="'701-710' or '3,5,9'")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the comparison as JSON here (BENCH_<label>.json)")
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

    for side, count in side_counts(pairs).items():
        print(f"side {side} " + " ".join(f"{k}={v}" for k, v in count.items()))
    complete = [(a, b) for a, b in pairs if a["metrics"] and b["metrics"]]
    if not complete:
        print("error: no pair produced metrics on both sides", file=sys.stderr)
        return 1
    records = compare(complete, spec, runs=len(pairs))
    for rec in records:
        print(summary_line(rec))
    if args.out:
        record = bench_record(args.workload, args.seeds, args.trace, trees, pairs, records)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0 if all(a["correct"] and b["correct"] for a, b in pairs) else 1


if __name__ == "__main__":
    sys.exit(main())
