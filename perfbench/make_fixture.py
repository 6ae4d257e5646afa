"""Rebuild the benchmark's trained predictor checkpoint.

Trains the glimpse embeddings and the importance predictor once with the
library's own ``training.train`` on the criterion-9 recipe (seed 0,
2000 samples, lr 5e-3, grad_accum 1, one epoch) and writes the result
with ``persist.save_checkpoint``. Takes about 4 minutes on a 2-vCPU
Xeon VM; the output is the same byte for byte on every rebuild.

Run from the repository root:

    python3 perfbench/make_fixture.py

It then scores the checkpoint on the held-out set ``make_dataset(10001,
200)`` at 8x8 and on the same indices drawn at 16x16, and prints both.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import env  # noqa: E402

env.cap_blas_threads()
env.use_checkout_src()

from vtprune import persist  # noqa: E402
from vtprune import training as tr  # noqa: E402
from vtprune.backbone import DecoderConfig, VisualStubConfig  # noqa: E402
from vtprune.prune_engine import build_model  # noqa: E402
from vtprune.vip import VipConfig  # noqa: E402

FIXTURE = os.path.join(HERE, "fixture", "predictor_seed0.json")


def main() -> int:
    model = build_model(DecoderConfig(), VisualStubConfig(), VipConfig(), seed=0)
    tcfg = tr.TrainConfig(lr=5e-3, grad_accum=1, epochs=1, dataset_size=2000, seed=0)
    tr.train(tr.make_dataset(0, 2000), model, tcfg)
    config = persist.default_run_config()
    config["train"].update(lr=5e-3, grad_accum=1, epochs=1, dataset_size=2000, seed=0)
    persist.save_checkpoint(FIXTURE, model, config)

    ckpt = persist.load_checkpoint(FIXTURE)
    for grid in (8, 16):
        m = build_model(DecoderConfig(), VisualStubConfig(grid_h=grid, grid_w=grid),
                        VipConfig(), seed=0)
        m.glimpse.matrix[...] = ckpt.glimpse
        m.vip.load_named(ckpt.vip_named)
        held = tr.make_dataset(10_001, 200, grid, grid)
        ev = tr.evaluate(held, m, tau=0.5, r_max=1.0)
        print(f"grid={grid}x{grid} recall={ev['foreground_recall']:.4f} "
              f"retention={ev['mean_retention']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
