#!/usr/bin/env python3
"""Run acceptance criterion 9's training recipe on many seeds.

    PYTHONPATH=src python3 scripts/seed_sweep.py --seeds 0-7 --out SWEEP.json

Criterion 9 (``tests/test_acceptance.py``) builds the default model at
seed s, trains it for one epoch on ``make_dataset(0, 2000)`` with lr 5e-3
and no accumulation, and evaluates it on ``make_dataset(10001, 200)`` at
tau 0.5 and r_max 1.0. A seed passes at foreground recall >= 0.85 with
mean retention <= 0.35. The criterion reads three seeds; this script
reads as many as ``--seeds`` names (default 0-7), so a change that moves
training bits is judged on more than which two of three pass. ``--grid``
sets the image side (8) and ``--K`` the prune layer (the decoder's
default, ceil(2L/3)); both datasets take the grid.

Seeds run two at a time, in two worker processes. Each seed's recall,
retention, IoU, answer accuracy, pass/fail and seconds go to ``--out``
as JSON, with a summary: the pass count, the mean recall and the worst
seed. Every seed's line is printed as it finishes. A seed takes about
half a minute at 8x8 on one core.
"""

from __future__ import annotations

import argparse
import functools
import json
import multiprocessing
import sys
import time

from vtprune import backbone as bb
from vtprune import prune_engine as pe
from vtprune import training as tr
from vtprune.vip import VipConfig

RECALL_MIN = 0.85
RETENTION_MAX = 0.35
TRAIN_SEED, TRAIN_COUNT = 0, 2000
HELD_SEED, HELD_COUNT = 10_001, 200


def parse_seeds(text: str) -> list[int]:
    """``"0-7"`` (inclusive) or ``"3,5,9"``."""
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


@functools.lru_cache(maxsize=1)
def _datasets(grid: int):
    return (tr.make_dataset(TRAIN_SEED, TRAIN_COUNT, grid, grid),
            tr.make_dataset(HELD_SEED, HELD_COUNT, grid, grid))


def run_seed(seed: int, grid: int, K: int | None) -> dict:
    """Criterion 9's recipe at one model seed; one row of the sweep."""
    t0 = time.time()
    dataset, held = _datasets(grid)
    model = pe.build_model(bb.DecoderConfig(K=K), bb.VisualStubConfig(grid_h=grid, grid_w=grid),
                           VipConfig(), seed=seed)
    tr.train(dataset, model, tr.TrainConfig(lr=5e-3, grad_accum=1, epochs=1,
                                            dataset_size=TRAIN_COUNT, seed=seed))
    ev = tr.evaluate(held, model, tau=0.5, r_max=1.0)
    return {
        "seed": seed,
        "recall": ev["foreground_recall"],
        "retention": ev["mean_retention"],
        "iou": ev["mean_iou"],
        "answer_accuracy": ev["answer_accuracy"],
        "passed": ev["foreground_recall"] >= RECALL_MIN and ev["mean_retention"] <= RETENTION_MAX,
        "seconds": round(time.time() - t0, 1),
    }


def summarise(rows: list[dict]) -> dict:
    """Pass count, mean recall and the worst seed (lowest recall) of the rows."""
    if not rows:
        raise ValueError("no seeds to summarise")
    worst = min(rows, key=lambda r: (r["recall"], r["seed"]))
    return {
        "seeds": len(rows),
        "passed": sum(1 for r in rows if r["passed"]),
        "mean_recall": sum(r["recall"] for r in rows) / len(rows),
        "worst_seed": worst["seed"],
        "worst_recall": worst["recall"],
    }


def _report(row: dict) -> dict:
    print(f"s{row['seed']}: recall={row['recall']:.3f} retention={row['retention']:.3f} "
          f"accuracy={row['answer_accuracy']:.3f} {'pass' if row['passed'] else 'FAIL'} "
          f"({row['seconds']:.0f}s)", flush=True)
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=parse_seeds, default=list(range(8)))
    ap.add_argument("--grid", type=int, default=8)
    ap.add_argument("--K", type=int, default=None)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    t0 = time.time()
    task = functools.partial(run_seed, grid=args.grid, K=args.K)
    with multiprocessing.Pool(min(2, len(args.seeds))) as pool:
        rows = [_report(row) for row in pool.imap_unordered(task, args.seeds)]
    rows.sort(key=lambda r: r["seed"])
    summary = summarise(rows)
    record = {"grid": args.grid, "K": bb.DecoderConfig(K=args.K).K, "recall_min": RECALL_MIN,
              "retention_max": RETENTION_MAX, "rows": rows, "summary": summary,
              "seconds": round(time.time() - t0, 1)}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"{summary['passed']}/{summary['seeds']} pass, mean recall "
          f"{summary['mean_recall']:.3f}, worst s{summary['worst_seed']} "
          f"{summary['worst_recall']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
