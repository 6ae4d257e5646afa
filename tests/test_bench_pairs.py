"""The pairwise benchmark comparison script's seed parsing and summary."""

import importlib.util
import json
import os
import subprocess

import numpy as np

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_pairs.py")


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(**values):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {k: {"value": v, "unit": "ref"} for k, v in values.items()}}


def _lines(bp, pairs, spec, runs=None):
    return [bp.summary_line(rec) for rec in bp.compare(pairs, spec, runs)]


def test_parse_seeds():
    bp = _load()
    assert bp.parse_seeds("701-704") == [701, 702, 703, 704]
    assert bp.parse_seeds("3,5,9") == [3, 5, 9]
    assert bp.parse_seeds("-2") == [-2]


def test_summary_counts_wins_and_checks_gain_and_bound():
    bp = _load()
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    change = [8.0, 8.1, 7.9, 8.2, 8.0, 10.5, 8.1, 7.8, 8.0, 8.1]  # loses pair 5
    pairs = [(_result(lat=p, rss=1.0), _result(lat=c, rss=1.2)) for p, c in zip(parent, change)]
    spec = {"lat": {"better": "lower", "bound": 0.15}, "rss": {"better": "lower", "bound": 0.1}}
    lat, rss = _lines(bp, pairs, spec)
    assert lat.startswith("metric lat unit=ref parent=10 ") and "change=8.05 " in lat
    assert "wins=9/10 gain=yes within_bound=yes resolved=yes" in lat
    # rss is 20% worse in every pair: no win, past its 10% bound
    assert "wins=0/10 gain=no within_bound=no resolved=yes" in rss


def test_resolved_needs_parent_quartiles_within_the_bound():
    bp = _load()
    # the parent's quartiles span 1.225-1.775, 37% of its median 1.5
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.6, 1.7, 1.8, 1.9, 2.0]
    spec = {"t": {"better": "lower", "bound": 0.25}, "r": {"better": "higher", "bound": 0.25}}

    def line(change, name="t"):
        pairs = [(_result(**{name: p}), _result(**{name: c})) for p, c in zip(parent, change)]
        return _lines(bp, pairs, spec)[0]

    # a median 7% higher is within the bound but cannot be told apart
    assert "within_bound=yes resolved=no" in line([x + 0.1 for x in parent])
    # one change run no better than the best parent run: still unresolved
    assert "resolved=no" in line([0.95] * 9 + [1.0])
    # every change run beats every parent run
    assert "resolved=yes" in line([0.9] * 10)
    assert "resolved=no" in line([2.05] * 9 + [2.0], "r")
    assert "resolved=yes" in line([2.1] * 10, "r")


def test_summary_higher_is_better_and_unknown_metric():
    bp = _load()
    pairs = [(_result(rate=100.0, other=1.0), _result(rate=90.0, other=2.0))] * 3
    rate, other = _lines(bp, pairs, {"rate": {"better": "higher"}})
    assert "wins=0/3 gain=no" in rate and "within_bound" not in rate
    assert "wins=" not in other


def test_wins_count_out_of_every_pair_run():
    bp = _load()
    pairs = [(_result(lat=10.0 + 0.1 * i), _result(lat=8.0)) for i in range(9)]
    spec = {"lat": {"better": "lower"}}
    # nine won pairs of ten run: a gain; of eleven run (two crashed): not
    assert "wins=9/10 gain=yes" in _lines(bp, pairs, spec, runs=10)[0]
    assert "wins=9/11 gain=no" in _lines(bp, pairs, spec, runs=11)[0]


def test_timed_out_run_counts_as_incorrect(monkeypatch):
    bp = _load()

    def hang(cmd, timeout, **kwargs):
        raise bp.subprocess.TimeoutExpired(cmd, timeout)

    monkeypatch.setattr(bp.subprocess, "run", hang)
    result = bp.run_once(".", "serve-8x8", 1, 20, 0)
    assert result == {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def test_out_writes_the_comparison_as_json(tmp_path, monkeypatch, capsys):
    bp = _load()
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1,
        "end_to_end": [{"name": "lat", "better": "lower", "bound": 0.15}]}))
    lat = {str(parent): [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1],
           str(change): [8.0, 8.1, 7.9, 8.2, 8.0, 10.5, 8.1, 7.8, 8.0, 8.1]}

    def fake_run(tree, workload, seed, seconds, trace):
        return _result(lat=lat[tree][seed - 1])

    monkeypatch.setattr(bp, "run_once", fake_run)
    out = tmp_path / "BENCH_test.json"
    assert bp.main(["--parent", str(parent), "--change", str(change), "--workload", "w",
                    "--seeds", "1-10", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "side parent runs=10 correct=10 attempted=100 failed=0" in printed
    rec = json.loads(out.read_text())
    assert rec["workload"] == "w" and rec["seeds"] == list(range(1, 11))
    assert rec["nproc"] == os.cpu_count() and rec["numpy"] == np.__version__
    # neither tree has a .git
    assert rec["trees"]["parent"] == {"runs": 10, "correct": 10, "attempted": 100,
                                      "failed": 0, "rev": None, "dirty": None}
    [m] = rec["metrics"]
    assert m["name"] == "lat" and m["unit"] == "ref" and m["runs"] == 10
    assert m["parent"]["median"] == 10.0 and m["change"]["median"] == 8.05
    assert m["parent"]["q1"] < m["parent"]["median"] < m["parent"]["q3"]
    assert (m["change"]["wins"], m["parent"]["wins"]) == (9, 1)
    assert m["gain"] is True and m["within_bound"] is True and m["resolved"] is True


def test_git_head_reads_rev_and_dirty(tmp_path):
    bp = _load()
    assert bp.git_head(str(tmp_path)) == {"rev": None, "dirty": None}
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "a.txt").write_text("one\n")

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              cwd=tree, capture_output=True, text=True,
                              check=True).stdout.strip()

    git("init", "-q")
    git("add", "a.txt")
    git("commit", "-q", "-m", "one")
    head = git("rev-parse", "HEAD")
    assert bp.git_head(str(tree)) == {"rev": head, "dirty": False}
    (tree / "a.txt").write_text("two\n")  # an edit the rev does not hold
    assert bp.git_head(str(tree)) == {"rev": head, "dirty": True}
