"""The small seeded model and random prompt the pipeline tests share."""

from vtprune import backbone as bb
from vtprune import prune_engine as pe
from vtprune.numerics import Rng
from vtprune.vip import VipConfig


def toy_model(L=4, D=32, H=4, grid=(4, 4), seed=0, K=None):
    """A decoder of L layers, width D and H heads over a grid[0] x grid[1]
    image, with an untrained (all-zero) predictor head."""
    dcfg = bb.DecoderConfig(L=L, D=D, H=H, ffn_dim=2 * D, vocab=16, K=K)
    vcfg = bb.VisualStubConfig(grid_h=grid[0], grid_w=grid[1], C=12, M=2,
                               embed_dim=D, seed=seed + 3)
    return pe.build_model(dcfg, vcfg, VipConfig(), seed)


def toy_inputs(model, nt=5, seed=0):
    """A uniform-noise image and ``nt`` random question tokens."""
    rng = Rng(seed + 50)
    vcfg = model.vcfg
    image = rng.uniform_array((vcfg.grid_h, vcfg.grid_w, 3), 0.0, 255.0)
    question = [int(rng.randint(model.cfg.vocab)) for _ in range(nt)]
    return image, question
