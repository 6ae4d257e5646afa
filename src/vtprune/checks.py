"""The invariants behind the pruning guarantees, one function each.

Each check runs one case its caller picks, raises ``AssertionError`` past
its bound and returns the worst deviation it saw (0.0 for exact checks).
``vtprune selftest`` runs ``SELFTEST``; the tests run their own cases.
"""

from __future__ import annotations

import math

import numpy as np

from . import backbone as bb
from . import costmodel as cm
from . import numerics
from . import prune_engine as pe
from . import training as tr
from . import vip
from .numerics import ACCUMULATE_MAX_CELLS, FlopMeter, Rng


def _require(ok, message, *args) -> None:
    """``assert`` that ``python -O`` keeps; formats ``message % args`` only on failure."""
    if not ok:
        raise AssertionError(message % args)


def triple_loop(a, b):
    """Scalar triple loop, left to right over k."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i, j in np.ndindex(out.shape):
        acc = 0.0
        for t in range(a.shape[1]):
            acc += a[i, t] * b[t, j]
        out[i, j] = acc
    return out


def matmul_oracle(a, b) -> float:
    """``numerics.matmul`` equals the triple loop byte for byte."""
    _require(numerics.matmul(a, b).tobytes() == triple_loop(a, b).tobytes(),
             "matmul disagrees with the triple-loop oracle at %s @ %s", a.shape, b.shape)
    return 0.0


def oracle_equivalence(model, image, question, steps, *, keep=None, tau=None) -> float:
    """The cached, pruned pipeline matches the cache-free oracle below 1e-10
    at prefill and after each of ``steps`` greedy decode steps. ``keep``
    forces the surviving visual tokens; else the predictor picks at ``tau``."""
    cache, logits, _, stats = pe.glimpse_prune_prefill(image, question, model,
                                                       tau=tau, force_keep=keep)
    keep = stats.keep if keep is None else keep
    generated, worst = [], 0.0
    for step in range(steps + 1):
        ref = pe.reference_oracle(image, question, keep, model, generated_ids=tuple(generated))
        dev = float(np.abs(logits - ref).max())
        _require(dev < 1e-10, "logits after %d decode steps off by %.3e", step, dev)
        worst = max(worst, dev)
        if step < steps:
            generated.append(int(np.argmax(logits)))
            _require(generated[-1] == int(np.argmax(ref)), "decode step %d picks another token",
                     step)
            logits = bb.decode_step(model.backbone, cache, generated[-1],
                                    position=stats.Nv + stats.Nt + step)
    return worst


def non_perturbation(model, image, question) -> float:
    """Appending the glimpse row moves no other final hidden row, nor its
    logits, over 1e-12."""
    params, cfg = model.backbone, model.cfg
    seq, _ = bb.embed_prompt(image, question, params, model.glimpse)
    n = seq.glimpse_pos
    hidden = []
    for x0, g, gp in ((seq.embeddings[:n], None, None),
                      (seq.embeddings, model.glimpse, seq.glimpse_pos)):
        cache = bb.KVCache(cfg.L, cfg.H, cfg.head_dim)
        hidden.append(bb.prefill_layers(params, x0, np.arange(x0.shape[0]), cache, 1, cfg.L,
                                        glimpse=g, glimpse_pos=gp)[0][:n])
    dev = float(np.abs(hidden[1] - hidden[0]).max())
    _require(dev <= 1e-12, "glimpse perturbs other rows by %.3e", dev)
    logits = [bb.lm_logits(params, h) for h in hidden]
    dev_logits = float(np.abs(logits[1] - logits[0]).max())
    _require(dev_logits <= 1e-12, "glimpse perturbs other rows' logits by %.3e", dev_logits)
    return max(dev, dev_logits)


def keep_all_neutrality(model, image, question) -> float:
    """tau=0, r_max=1 keeps every visual token, and the no-glimpse baseline's
    logits stay below 1e-10 at prefill and after each of 4 greedy decode
    steps, which pick the same tokens."""
    cache, logits, _, stats = pe.glimpse_prune_prefill(image, question, model,
                                                       tau=0.0, r_max=1.0)
    _require(stats.Nv_kept == stats.Nv, "tau=0 did not keep every token")
    base_cache, base = pe.baseline_prefill(image, question, model)
    worst = 0.0
    for step in range(5):
        dev = float(np.abs(logits - base).max())
        _require(dev < 1e-10, "keep-all logits after %d decode steps drift %.3e", step, dev)
        worst = max(worst, dev)
        if step < 4:
            tok = int(np.argmax(logits))
            _require(tok == int(np.argmax(base)), "decode step %d picks another token", step)
            pos = stats.Nv + stats.Nt + step
            logits = bb.decode_step(model.backbone, cache, tok, position=pos)
            base = bb.decode_step(model.backbone, base_cache, tok, position=pos)
    return worst


def selection_oracle(p, tau, r_max):
    """Independent restatement of the selection rule: (kept indices, cap)."""
    cap = math.ceil(r_max * p.size)
    above = [i for i in range(p.size) if p[i] >= tau]
    if not above:
        return [max(range(p.size), key=lambda i: (p[i], -i))], cap
    return sorted(sorted(above, key=lambda i: (-p[i], i))[:cap]), cap


def selection(p, tau, r_max) -> float:
    """``select_tokens`` keeps exactly the oracle's tokens, under its cap."""
    got = vip.select_tokens(p, tau, r_max)
    kept, (want, cap) = got.keep.tolist(), selection_oracle(p, tau, r_max)
    _require(kept == want, "selection %s != %s (p=%s, tau=%r, r_max=%r)",
             kept, want, p.tolist(), tau, r_max)
    _require(got.cap == cap and 1 <= got.kept <= max(1, cap), "cap %d != %d", got.cap, cap)
    return 0.0


def gradient(model, sample, weights, draw, *, floor, names=None, h=1e-4, tol=1e-4) -> float:
    """Analytic gradients match central differences to ``tol`` relative at
    the indices ``draw(size)`` picks in each trainable group (or ``names``).
    ``floor`` keeps fd roundoff (~1e-12 at this h) from dominating the ratio."""
    _, _, grads = tr.grad(sample, model, weights)
    named = {"glimpse": model.glimpse.matrix, **model.vip.named()}
    worst = 0.0
    for name in names or named:
        flat, g = named[name].reshape(-1), grads[name].reshape(-1)
        for idx in draw(flat.size):
            old = flat[idx]
            flat[idx] = old + h
            plus, _ = tr.total_loss(sample, model, weights)
            flat[idx] = old - h
            minus, _ = tr.total_loss(sample, model, weights)
            flat[idx] = old
            fd = (plus - minus) / (2 * h)
            rel = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), floor)
            _require(rel <= tol, "%s[%d] gradient off by rel %.2e", name, idx, rel)
            worst = max(worst, float(rel))
    return worst


def cost_agreement(model, image, question, tau) -> float:
    """A pruned prefill's counted decoder and predictor FLOPs equal the cost model."""
    dcfg, vcfg, vcf, nt = model.cfg, model.vcfg, model.vip_cfg, len(question)
    meter = FlopMeter()
    _, _, _, stats = pe.glimpse_prune_prefill(image, question, model, tau=tau, meter=meter)
    head, tail = (cm.layer_flops(S, dcfg.D, dcfg.H, dcfg.ffn_dim)
                  for S in (vcfg.nv + nt + 1, stats.Nv_kept + nt))
    want = dcfg.K * head + (dcfg.L - dcfg.K) * tail
    _require(meter.get("decoder") == want, "decoder flops %s != %s", meter.get("decoder"), want)
    want = cm.vip_flops(vcfg.nv, dcfg.H, vcfg.C, vcf.E, vcf.F, vcf.M, vcf.heads)
    _require(meter.get("vip") == want, "vip flops %s != %s", meter.get("vip"), want)
    return 0.0


def kv_accounting(model, image, question, *, keep=None, tau=None) -> float:
    """Cache elements equal 2 * L * rows * D, unpruned and after pruning."""
    L, D, nt = model.cfg.L, model.cfg.D, len(question)
    S = model.vcfg.nv + nt
    _require(cm.kv_elements(L, S + 1, D) == 2 * L * (S + 1) * D, "kv_elements formula")
    base = pe.baseline_prefill(image, question, model)[0].element_count()
    _require(base == cm.kv_elements(L, S, D), "baseline cache elements %d", base)
    cache, _, _, stats = pe.glimpse_prune_prefill(image, question, model,
                                                  tau=tau, force_keep=keep)
    want = 2 * L * ((stats.Nv_kept if keep is None else len(keep)) + nt) * D
    _require(cache.element_count() == want, "pruned cache elements %d != %d",
             cache.element_count(), want)
    return 0.0


# ---------------------------------------------------------------------------
# The self-test's cases
# ---------------------------------------------------------------------------


def _toy(model_seed, sample_seed, index=0):
    """A 4-layer decoder on a 4x4 grid, and one generated sample."""
    dcfg = bb.DecoderConfig(L=4, D=32, H=4, ffn_dim=64, vocab=16)
    vcfg = bb.VisualStubConfig(grid_h=4, grid_w=4, C=8, M=2, embed_dim=32, seed=3)
    model = pe.build_model(dcfg, vcfg, vip.VipConfig(E=8, F=8, heads=4), seed=model_seed)
    s = tr.sample_for_index(sample_seed, index, 4, 4)
    return model, s.image, s.question_ids


def _selftest_matmul():
    rng = Rng(12)
    # one product per strategy: accumulate, rank-1 loop, transposed rank-1 loop
    for m, k, n in ((1, 5, 16), (ACCUMULATE_MAX_CELLS // 16 + 1, 5, 16), (200, 5, 4)):
        matmul_oracle(rng.uniform_array((m, k), -1.0, 1.0), rng.uniform_array((k, n), -1.0, 1.0))


def _selftest_selection():
    rng = Rng(9)
    for _ in range(2000):
        p = np.array([rng.random() for _ in range(1 + rng.randint(24))])
        if rng.random() < 0.3:  # tie-heavy values
            p = np.round(p * 4) / 4
        selection(p, rng.random(), 0.05 + 0.95 * rng.random())


def _selftest_gradient():
    dcfg = bb.DecoderConfig(L=3, D=16, H=2, ffn_dim=24, vocab=16, K=2)
    vcfg = bb.VisualStubConfig(grid_h=3, grid_w=3, C=8, M=2, embed_dim=16, seed=5)
    model = pe.build_model(dcfg, vcfg, vip.VipConfig(E=4, F=4, heads=2), seed=11)
    w = model.vip.head_w
    w[:] = np.linspace(-0.3, 0.3, w.size).reshape(w.shape)
    probe = np.random.default_rng(1)
    return gradient(model, tr.sample_for_index(3, 0, 3, 3), tr.LossWeights(),
                    lambda n: probe.choice(n, size=2, replace=False), floor=1e-8,
                    names=("glimpse", "vip.head_w", "vip.b0.wq"))


SELFTEST = (
    ("matmul_oracle", _selftest_matmul),
    ("oracle_equivalence",
     lambda: max(oracle_equivalence(*_toy(s, 40 + s), 4, tau=0.6) for s in (0, 1))),
    ("non_perturbation", lambda: non_perturbation(*_toy(2, 77))),
    ("keep_all_neutrality", lambda: keep_all_neutrality(*_toy(4, 41, 1))),
    ("selection_cap_properties", _selftest_selection),
    ("gradient_check", _selftest_gradient),
    ("cost_agreement", lambda: cost_agreement(*_toy(6, 50), tau=0.6)),
    ("kv_accounting", lambda: kv_accounting(*_toy(7, 51), tau=0.6)),
)
