"""vtprune benchmark: one workload per process, or all four in turn.

One run (what the benchmark contract calls):

    python3 perfbench/run.py --workload serve-8x8 --seed 1 --seconds 20 --trace 0

prints the run record and the workload's figures by name, then, as its
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones named
in ``END_TO_END``; with ``--trace 1`` they are the per-layer ones from a
traced run (see ``layers.py``), and the spans go to a JSONL file under
``.bench_build/perfbench/``. A run whose outputs fail a check exits 1.

All workloads, each in a fresh process, then the pruning-versus-dense
report:

    python3 perfbench/run.py --all --seed 1 --seconds 20

The single process runs one closed-loop client: callers of this package
wait for each answer, and it has no server or arrival process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import env  # noqa: E402

WORKDIR = os.path.join(env.ROOT, ".bench_build", "perfbench")

# Gated end-to-end metrics; every workload reports each of them. What an
# operation and its first result are differs by workload (see README.md).
# "rel" figures are operation times divided by the time of a fixed
# reference kernel run right before and after the operation (reference.py),
# so they follow the program rather than the shared host's speed. The tail
# is p75, the highest percentile with ten samples beyond it on every
# workload (dense-16x16 completes about 40 requests in 20 s).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_rel": "ref",
    "latency_p75_rel": "ref",
    "op_p50_rel": "ref",
}
WORKLOAD_NAMES = ("serve-8x8", "serve-16x16", "dense-16x16", "train-8x8")
UNTRACED_SHARE = 1.0 / 3.0  # of a traced run's window, measured with tracing off


def git_rev() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(env.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(args) -> dict:
    import numpy as np
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": git_rev(), "nproc": env.NPROC,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in env.THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_one(args) -> tuple[dict, int]:
    """Set up, measure and check one workload. Returns (record, exit code)."""
    import layers
    import workloads as wl
    from stats import percentile
    from vtprune.numerics import FlopMeter

    os.makedirs(WORKDIR, exist_ok=True)
    record = run_record(args)
    failures = wl.Failures()
    serving = args.workload != "train-8x8"
    run_loop = wl.run_serving if serving else wl.run_training

    def setup():
        if serving:
            return wl.serving_setup(args.workload, args.seed)
        return wl.training_setup(args.seed, WORKDIR)

    if args.trace:
        tracer = layers.build_tracer()
        tracer.op = "setup"
        tracer.install()
        try:
            state = setup()
        finally:
            tracer.uninstall()
        untraced = run_loop(state, args.seconds * UNTRACED_SHARE, failures, wl.Outcome())
        tracer.instances = 0
        origin = time.perf_counter()
        tracer.install()
        try:
            # Training charges no meter of its own; this one catches its FLOPs.
            with FlopMeter().bucket("traced"):
                out = run_loop(state, args.seconds * (1 - UNTRACED_SHARE), failures,
                               wl.Outcome(first_op=untraced.attempted),
                               on_op=lambda op: setattr(tracer, "op", op))
        finally:
            tracer.uninstall()
        attempted = untraced.attempted + out.attempted
        failed = untraced.failed + out.failed
    else:
        setup_times = []
        for _ in range(wl.SETUP_REPEATS):
            t0 = time.perf_counter()
            state = setup()
            setup_times.append(time.perf_counter() - t0)
        out = run_loop(state, args.seconds, failures, wl.Outcome())
        attempted, failed = out.attempted, out.failed

    done = bool(out.first_s)
    record.update(attempted=attempted, failed=failed, failures=failures.messages[:20],
                  correct=done and failed == 0)
    if args.trace and done:
        path = os.path.join(WORKDIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_jsonl(path, origin)
        record["spans"] = os.path.relpath(path, env.ROOT)
        record["per_layer"] = layers.per_layer_metrics(tracer, out, untraced, failures)
    elif done:
        first_rel = [t / ref for t, ref in zip(out.first_s, out.ref_s)]
        op_rel = [t / ref for t, ref in zip(out.op_s, out.ref_s)]
        record["end_to_end"] = {
            "setup_s": median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "latency_p50_rel": median(first_rel),
            "latency_p75_rel": percentile(first_rel, 75),
            "op_p50_rel": median(op_rel),
        }
        figures = wl.serving_report(state, out) if serving else wl.training_report(out)
        figures["setup_s"] = (record["end_to_end"]["setup_s"], "s")
        figures["peak_rss_mb"] = (record["end_to_end"]["peak_rss_mb"], "MB")
        figures["failed_share"] = (failed / attempted, "share")
        figures["reference_p50_ms"] = (median(out.ref_s) * 1e3, "ms")
        record["figures"] = {k: {"value": v, "unit": u} for k, (v, u) in figures.items()}
        record["samples"] = len(out.first_s)
    with open(os.path.join(WORKDIR, f"record-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record, 0 if record["correct"] else 1


def print_run(record: dict) -> None:
    print("run " + " ".join(f"{k}={record[k]}" for k in
                            ("workload", "seed", "seconds", "trace", "git_rev", "nproc",
                             "python", "numpy")))
    print("blas_threads " + " ".join(f"{k}={v}" for k, v in record["blas_threads"].items()))
    for name, value in record.get("end_to_end", {}).items():
        print(f"gated {name}={value:.6g} {END_TO_END[name]}")
    for name, fig in record.get("figures", {}).items():
        print(f"metric {name}={fig['value']:.6g} {fig['unit']}")
    if "samples" in record:
        print(f"samples latency={record['samples']}")
    for name, (value, unit) in record.get("per_layer", {}).items():
        print(f"layer {name}={value:.6g} {unit}")
    if "spans" in record:
        print(f"spans {record['spans']}")
    for message in record["failures"]:
        print(f"failure {message}")


def result_line(record: dict) -> str:
    if record["trace"]:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in record.get("per_layer", {}).items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in record.get("end_to_end", {}).items()}
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def run_all(args) -> int:
    """Every workload in its own process, then the pruning-versus-dense
    ratios next to costmodel's analytic ones."""
    code = 0
    records = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                              check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        path = os.path.join(WORKDIR, f"record-{name}-seed{args.seed}-trace0.json")
        if proc.returncode == 0:
            with open(path, encoding="ascii") as fh:
                records[name] = json.load(fh)
    if "serve-16x16" in records and "dense-16x16" in records:
        import layers
        for line in layers.pruning_report(records["serve-16x16"], records["dense-16x16"]):
            print(line)
    return code


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--all", action="store_true", help="run every workload in turn")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    env.cap_blas_threads()
    try:
        env.use_checkout_src()
    except env.MissingSource as exc:
        print(f"error: {exc}; run from the root of a vtprune checkout", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    record, code = run_one(args)
    print_run(record)
    print(result_line(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
