#!/usr/bin/env python3
"""Print one sha256 per pipeline artifact, to prove two trees byte-identical.

A kernel change that claims to keep every bit must leave these digests
unchanged. Run the script in both trees and diff the output:

    PYTHONPATH=src python3 scripts/fingerprint.py > after.txt
    (cd ../parent && PYTHONPATH=src python3 /path/to/fingerprint.py) > before.txt
    diff before.txt after.txt

Per grid (8x8 and 16x16) it serves a few requests through the
pruned pipeline and hashes the prefill logits, every decode step's
logits, the keep sets, the importance maps, every cache layer after
decoding, the FLOP buckets of prefill and of each decode step, the
unpruned arm's logits and the cache-free oracle's logits. The model's
predictor head gets seeded random weights so keep sets are not trivial.
It also runs ``vtprune gen-data --count 24 --seed 5`` and ``vtprune
train --seed 5`` and hashes the checkpoint and the metrics CSV. Output
is ``name=sha256`` lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile

import numpy as np

from vtprune import backbone as bb
from vtprune import cli
from vtprune import prune_engine as pe
from vtprune import training as tr
from vtprune.numerics import FlopMeter, Rng
from vtprune.vip import VipConfig

DECODE_TOKENS = 4
MODEL_SEED = 0
REQUEST_SEED = 7


class Digests:
    """Named sha256 accumulators, printed in insertion order."""

    def __init__(self) -> None:
        self.by_name: dict = {}

    def add(self, name: str, data) -> None:
        h = self.by_name.setdefault(name, hashlib.sha256())
        if isinstance(data, np.ndarray):
            h.update(str((data.dtype.str, data.shape)).encode())
            data = np.ascontiguousarray(data).tobytes()
        elif not isinstance(data, bytes):
            data = json.dumps(data, sort_keys=True).encode()
        h.update(data)

    def lines(self) -> list[str]:
        return [f"{name}={h.hexdigest()}" for name, h in self.by_name.items()]


def serve_grid(grid: int, requests: int, out: Digests) -> None:
    model = pe.build_model(bb.DecoderConfig(), bb.VisualStubConfig(grid_h=grid, grid_w=grid),
                           VipConfig(), seed=MODEL_SEED)
    head = model.vip.head_w
    head[...] = Rng(MODEL_SEED).derive("fingerprint-head").uniform_array(head.shape, -2.0, 2.0)
    pfx = f"grid{grid}."
    for i in range(requests):
        sample = tr.sample_for_index(REQUEST_SEED, i, grid, grid)
        meter = FlopMeter()
        cache, logits, imap, stats = pe.glimpse_prune_prefill(
            sample.image, sample.question_ids, model, meter=meter)
        out.add(pfx + "prefill_logits", logits)
        out.add(pfx + "keep", stats.keep)
        out.add(pfx + "importance", imap.logits)
        out.add(pfx + "importance", imap.p)
        out.add(pfx + "flops", meter.by_bucket)
        tokens = []
        pos = stats.Nv + stats.Nt
        for t in range(DECODE_TOKENS):
            tokens.append(int(np.argmax(logits)))
            step = FlopMeter()
            logits = bb.decode_step(model.backbone, cache, tokens[-1], pos + t, meter=step)
            out.add(pfx + "decode_logits", logits)
            out.add(pfx + "flops", step.by_bucket)
        for layer in range(cache.layers):
            out.add(pfx + "cache", cache.k[layer])
            out.add(pfx + "cache", cache.v[layer])
        out.add(pfx + "oracle_logits", pe.reference_oracle(
            sample.image, sample.question_ids, stats.keep, model, generated_ids=tokens))
        _, dense = pe.baseline_prefill(sample.image, sample.question_ids, model)
        out.add(pfx + "baseline_logits", dense)


def train_small(out: Digests) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        data, ckpt, metrics = (os.path.join(tmp, n) for n in ("d.jsonl", "c.json", "m.csv"))
        for argv in (["gen-data", "--out", data, "--count", "24", "--seed", "5"],
                     ["train", "--data", data, "--out", ckpt, "--seed", "5",
                      "--metrics", metrics]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.app(argv)
            if code != 0:
                raise SystemExit(f"vtprune {argv[0]} exited {code}")
        for name, path in (("train.checkpoint", ckpt), ("train.metrics", metrics)):
            with open(path, "rb") as fh:
                out.add(name, fh.read())


def fingerprint(grids=(8, 16), requests: int = 3, train: bool = True) -> list[str]:
    out = Digests()
    for grid in grids:
        serve_grid(grid, requests, out)
    if train:
        train_small(out)
    return out.lines()


def main() -> None:
    print("\n".join(fingerprint()))


if __name__ == "__main__":
    main()
