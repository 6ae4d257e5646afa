"""Acceptance gate: one test per release criterion, one verdict line each.

Every test here re-derives its expectation independently (brute-force
oracles, closed-form arithmetic, published reference figures) rather
than trusting library internals; invariant criteria call ``vtprune.checks``,
as ``vtprune selftest`` does. Each criterion records a single
machine-greppable ``[criterion NN] ...: PASS/FAIL`` line; conftest
prints the collected lines after the run, where pytest's capture can't
eat them. Run the whole gate with::

    pytest tests/test_acceptance.py -v

The training criterion (09) dominates the runtime (a few minutes) and is
marked ``slow``; all others finish in seconds, so ``pytest -m "not slow"``
is the quick loop.
"""

from __future__ import annotations

import functools
import itertools
import time

import numpy as np
import pytest

import vtprune.prune_engine as pe
from vtprune import backbone as bb
from vtprune import checks, cli
from vtprune import costmodel as cm
from vtprune import training as tr
from vtprune.numerics import Rng
from vtprune.vip import VipConfig

from toymodel import toy_inputs, toy_model

_GATE = "[criterion {:02d}] {}"

# conftest.pytest_terminal_summary prints these once the capture is over.
VERDICTS: list[str] = []


def criterion(num: int, label: str):
    """Record exactly one PASS/FAIL line per criterion."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            t0 = time.time()
            try:
                detail = fn(*a, **kw)
            except BaseException as exc:
                VERDICTS.append(_GATE.format(num, label) + f": FAIL ({exc})")
                raise
            extra = f", {detail}" if detail else ""
            VERDICTS.append(_GATE.format(num, label)
                            + f": PASS ({time.time() - t0:.1f}s{extra})")

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# 1. Oracle equivalence over the full configuration matrix
# ---------------------------------------------------------------------------


@criterion(1, "pruned pipeline equals cache-free oracle over config matrix")
def test_c01_oracle_equivalence_matrix():
    t0 = time.time()
    worst = 0.0
    runs = 0
    grids = {16: (4, 4), 64: (8, 8)}
    for L, H, D, nv, nt in itertools.product((4, 6), (2, 4), (16, 32),
                                             (16, 64), (4, 8)):
        for seed in range(3):
            model = toy_model(L, D, H, grids[nv], seed)
            image, question = toy_inputs(model, nt, seed)
            keep = np.sort(Rng(seed * 977 + nv + nt).sample(range(nv), max(1, nv // 3)))
            worst = max(worst, checks.oracle_equivalence(model, image, question, 8, keep=keep))
            runs += 1
    elapsed = time.time() - t0
    assert elapsed <= 60.0, f"matrix took {elapsed:.1f}s, budget is 60s"
    return f"{runs} runs, worst {worst:.2e}"


# ---------------------------------------------------------------------------
# 2. Non-perturbation: the glimpse row never changes other rows' states
# ---------------------------------------------------------------------------


@criterion(2, "glimpse row does not perturb visual/text states")
def test_c02_non_perturbation():
    worst = 0.0
    for seed in range(3):
        model = toy_model(4, 32, 4, (4, 4), seed)
        worst = max(worst, checks.non_perturbation(model, *toy_inputs(model, 5, seed)))
    return f"worst {worst:.2e}"


# ---------------------------------------------------------------------------
# 3. Keep-all neutrality: tau=0, r_max=1 reproduces the plain decoder
# ---------------------------------------------------------------------------


@criterion(3, "keep-all pruning is logit-neutral vs no-glimpse baseline")
def test_c03_keep_all_neutrality():
    worst = 0.0
    for seed in range(3):
        model = toy_model(4, 32, 4, (4, 4), seed)
        worst = max(worst, checks.keep_all_neutrality(model, *toy_inputs(model, 6, seed)))
    return f"worst {worst:.2e}"


# ---------------------------------------------------------------------------
# 4. Gradient correctness against central finite differences
# ---------------------------------------------------------------------------


@criterion(4, "analytic gradients match finite differences")
def test_c04_gradient_finite_differences():
    dcfg = bb.DecoderConfig(L=3, D=16, H=2, ffn_dim=24, vocab=16, K=2)
    vcfg = bb.VisualStubConfig(grid_h=3, grid_w=3, C=8, M=2, embed_dim=16, seed=7)
    model = pe.build_model(dcfg, vcfg, VipConfig(E=4, F=4, heads=2), seed=7)
    model.vip.head_w[:] = Rng(11).uniform_array(model.vip.head_w.shape, -0.3, 0.3)
    rng = Rng(99)
    worst = checks.gradient(model, tr.sample_for_index(3, 0, 3, 3), tr.LossWeights(),
                            lambda n: rng.sample(range(n), min(3, n)), floor=1e-6)
    return f"worst rel {worst:.2e} over {1 + len(model.vip.named())} groups x 3 points"


# ---------------------------------------------------------------------------
# 5. Published-scale prefill arithmetic, 7B shape
# ---------------------------------------------------------------------------


@criterion(5, "7B prefill ratio and baseline match published figures")
def test_c05_full_scale_prefill_ratio():
    preset = cm.PRESETS["qwen2.5-vl-7b"]
    base, pruned, ratio = cm.pruned_prefill_flops(preset, S=5074, S_pruned=203)
    assert 0.64 <= ratio <= 0.74, f"ratio {ratio}"
    ref = 77.8e12
    assert abs(base - ref) / ref <= 0.15, f"baseline {base / 1e12:.1f}T vs 77.8T"
    return f"ratio {ratio:.4f}, baseline {base / 1e12:.1f}T"


# ---------------------------------------------------------------------------
# 6. Prune-layer sweep on the 3B shape
# ---------------------------------------------------------------------------


@criterion(6, "3B prune-layer sweep tracks published totals")
def test_c06_prune_layer_sweep():
    import dataclasses

    preset = cm.PRESETS["qwen2.5-vl-3b"]
    refs = {18: 17.4e12, 24: 23.1e12, 30: 28.5e12, 36: 34.1e12}
    got = []
    for k, ref in refs.items():
        variant = dataclasses.replace(preset, K=k)
        _, pruned, _ = cm.pruned_prefill_flops(variant, S=4500, S_pruned=400)
        assert abs(pruned - ref) / ref <= 0.20, \
            f"K={k}: {pruned / 1e12:.2f}T vs {ref / 1e12}T"
        got.append(pruned)
    assert all(a < b for a, b in zip(got, got[1:])), "sweep not increasing"
    return "K=18..36 -> " + "/".join(f"{v / 1e12:.1f}T" for v in got)


# ---------------------------------------------------------------------------
# 7. KV accounting is exact
# ---------------------------------------------------------------------------


@criterion(7, "KV cache accounting exact before and after pruning")
def test_c07_kv_accounting():
    model = toy_model(4, 32, 4, (4, 4), seed=2)
    image, question = toy_inputs(model, 5, 2)
    keep = [0, 3, 7, 9, 12]
    checks.kv_accounting(model, image, question, keep=keep)
    L, D, nt = model.cfg.L, model.cfg.D, len(question)
    before = cm.kv_elements(L, model.vcfg.nv + nt + 1, D)
    return f"{before} -> {cm.kv_elements(L, len(keep) + nt, D)} elements"


# ---------------------------------------------------------------------------
# 8. Selection rule vs brute-force oracle
# ---------------------------------------------------------------------------


@criterion(8, "selection matches brute-force oracle on 10k random cases")
def test_c08_selection_oracle():
    rng = Rng(4242)
    for case in range(10_000):
        nv = 1 + int(rng.randint(64))
        p = rng.uniform_array((nv,), 0.0, 1.0)
        if case % 3 == 0:  # exercise ties
            p = np.round(p, 1)
        checks.selection(p, float(rng.random()), float(1.0 - 0.999 * rng.random()))
    return "10000 cases exact"


# ---------------------------------------------------------------------------
# 9. End-to-end training reaches the recall/retention target
# ---------------------------------------------------------------------------


@pytest.mark.slow
@criterion(9, "1-epoch training: recall >= 0.85, retention <= 0.35, 2/3 seeds")
def test_c09_end_to_end_training():
    t0 = time.time()
    dataset = tr.make_dataset(0, 2000)
    held = tr.make_dataset(10_001, 200)
    outcomes = []
    for seed in (0, 1, 2):
        model = pe.build_model(bb.DecoderConfig(), bb.VisualStubConfig(),
                               VipConfig(), seed=seed)
        tcfg = tr.TrainConfig(lr=5e-3, grad_accum=1, epochs=1,
                              dataset_size=2000, seed=seed)
        tr.train(dataset, model, tcfg)
        ev = tr.evaluate(held, model, tau=0.5, r_max=1.0)
        ok = ev["foreground_recall"] >= 0.85 and ev["mean_retention"] <= 0.35
        outcomes.append((seed, ev["foreground_recall"], ev["mean_retention"], ok))
    elapsed = time.time() - t0
    passed = sum(1 for o in outcomes if o[3])
    detail = " ".join(f"s{s}:r={r:.3f}/ret={m:.3f}" for s, r, m, _ in outcomes)
    assert elapsed <= 15 * 60, f"took {elapsed:.0f}s, budget 900s"
    assert passed >= 2, f"only {passed}/3 seeds passed ({detail})"
    return f"{passed}/3 seeds, {detail}, {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 10. Determinism of the command-line entry points
# ---------------------------------------------------------------------------


@criterion(10, "cmd_train and cmd_gen_data are byte-deterministic")
def test_c10_cli_determinism(tmp_path):
    data = tmp_path / "train.jsonl"
    assert cli.app(["gen-data", "--out", str(data), "--count", "24",
                    "--seed", "5"]) == 0
    twin = tmp_path / "twin.jsonl"
    assert cli.app(["gen-data", "--out", str(twin), "--count", "24",
                    "--seed", "5"]) == 0
    assert data.read_bytes() == twin.read_bytes()

    ckpts = []
    for tag in ("a", "b"):
        out = tmp_path / f"ckpt_{tag}.json"
        assert cli.app(["train", "--data", str(data), "--out", str(out),
                        "--seed", "5"]) == 0
        ckpts.append(out.read_bytes())
    assert ckpts[0] == ckpts[1]
    return f"dataset {len(data.read_bytes())}B, checkpoint {len(ckpts[0])}B"
