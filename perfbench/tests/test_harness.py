"""Tests of the benchmark harness itself.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import env
import layers
import run
import workloads as wl
from spans import END, PARENT, START, Tracer, self_times, totals_by_name
from stats import percentile
from vtprune import prune_engine as pe


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90
    assert percentile(values, 10) == 10
    assert percentile(values, 100) == 100
    assert percentile([7.0], 90) == 7.0
    assert percentile([3, 1, 2], 50) == 2
    assert percentile([4, 1, 3, 2], 50) == 2
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 0)


def _span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, 0, 0, attrs]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("child", 1.0, 4.0, 0),
        _span("grandchild", 2.0, 3.0, 1),
        _span("child", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    totals = totals_by_name(spans, self_times(spans), lambda s: True)
    assert totals["child"]["calls"] == 2
    assert totals["child"]["self_s"] == 6.0
    assert totals["child"]["total_s"] == 7.0
    assert totals_by_name(spans, self_times(spans), lambda s: s[0] == "root").keys() == {"root"}


def test_tracer_records_nesting_and_restores_originals():
    class Counter:
        def bump(self, x):
            return x + 1

    def outer(x):
        return Counter().bump(x) * 2

    module = types.SimpleNamespace(outer=outer)
    t = Tracer()
    t.wrap(module, "outer", "outer")
    t.wrap(Counter, "bump", "bump", attrs=lambda a, k, r: {"out": r})
    t.install()
    try:
        assert module.outer(1) == 4
    finally:
        t.uninstall()
    assert module.outer is outer and vars(Counter)["bump"].__name__ == "bump"
    assert [s[0] for s in t.spans] == ["outer", "bump"]
    assert t.spans[1][PARENT] == 0 and t.spans[0][PARENT] == -1
    assert t.spans[0][START] <= t.spans[1][START] <= t.spans[1][END] <= t.spans[0][END]
    assert t.spans[1][-1] == {"out": 2}


def test_same_seed_gives_identical_inputs():
    for grid in (8, 16):
        a, b = wl.request_pool(3, grid), wl.request_pool(3, grid)
        assert all(wl.samples_equal(x, y) for x, y in zip(a, b))
        other = wl.request_pool(4, grid)
        assert not all(wl.samples_equal(x, y) for x, y in zip(a, other))
    assert wl.round_seed(3, 0) == wl.round_seed(3, 0) != wl.round_seed(4, 0)


def test_run_record_names_the_environment():
    args = run.parse_args(["--workload", "serve-8x8", "--seed", "1", "--seconds", "1"])
    record = run.run_record(args)
    assert record["nproc"] == env.NPROC >= 1
    assert record["numpy"] == np.__version__
    assert record["python"].count(".") == 2
    assert record["blas_threads"] == {v: str(env.NPROC) for v in env.THREAD_VARS}
    assert record["git_rev"]


def test_benchmark_json_matches_the_metrics_the_code_reports():
    with open(os.path.join(env.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER


def _run(capsys, *argv):
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_short_run_is_correct_and_reports_every_end_to_end_metric(capsys, workload):
    code, result, lines = _run(capsys, "--workload", workload, "--seed", "2",
                               "--seconds", "0.5", "--trace", "0")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("metric failed_share=0 ") for line in lines)


def test_traced_run_reports_every_per_layer_metric(capsys):
    code, result, lines = _run(capsys, "--workload", "serve-8x8", "--seed", "2",
                               "--seconds", "1.5", "--trace", "1")
    assert code == 0
    metrics = result["metrics"]
    assert set(metrics) == set(layers.PER_LAYER)
    assert metrics["numerics.matmul.calls"]["value"] > 0
    assert metrics["costmodel.flop_mismatch"]["value"] == 0
    assert metrics["training.AdamW.step.self_ms"]["value"] == 0
    spans = [line for line in lines if line.startswith("spans ")]
    assert spans and os.path.getsize(os.path.join(env.ROOT, spans[0].split()[1])) > 0


def test_injected_fault_is_reported_and_fails_the_run(capsys):
    pe.FAULT_INJECT = "drop-text-row"
    try:
        code, result, _ = _run(capsys, "--workload", "serve-8x8", "--seed", "2",
                               "--seconds", "0.5", "--trace", "0")
    finally:
        pe.FAULT_INJECT = None
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_run_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(env.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(env.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "serve-8x8",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "correct" not in proc.stdout
