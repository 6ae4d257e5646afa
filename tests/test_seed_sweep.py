"""The seed sweep script's summary and seed parsing (no training runs here)."""

import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "seed_sweep.py")


def _load():
    spec = importlib.util.spec_from_file_location("seed_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _row(seed, recall, passed):
    return {"seed": seed, "recall": recall, "retention": 0.12, "iou": 0.5,
            "answer_accuracy": 0.1, "passed": passed, "seconds": 30.0}


def test_summary_counts_passes_and_finds_the_worst_seed():
    sweep = _load()
    rows = [_row(0, 0.9, True), _row(1, 0.7, False), _row(2, 0.86, True), _row(3, 0.7, False)]
    summary = sweep.summarise(rows)
    assert summary["seeds"] == 4 and summary["passed"] == 2
    assert summary["mean_recall"] == pytest.approx(0.79)
    # a tie on recall goes to the lower seed
    assert (summary["worst_seed"], summary["worst_recall"]) == (1, 0.7)
    with pytest.raises(ValueError):
        sweep.summarise([])


def test_parse_seeds():
    sweep = _load()
    assert sweep.parse_seeds("0-7") == list(range(8))
    assert sweep.parse_seeds("3,5,9") == [3, 5, 9]
