"""Cost-model tests: exact agreement with the instrumented counter on toy
runs, and loose-tolerance agreement with published full-scale figures."""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from vtprune import checks
from vtprune import costmodel as cm
from vtprune import training as tr
from vtprune.backbone import DecoderConfig, VisualStubConfig, decode_step
from vtprune.errors import ConfigError, StateError
from vtprune.numerics import FlopMeter
from vtprune.prune_engine import baseline_prefill, build_model
from vtprune.vip import VipConfig


def _toy(seed=1, **dec):
    dcfg = DecoderConfig(**dec)
    vcfg = VisualStubConfig(embed_dim=dcfg.D)
    vip_cfg = VipConfig()
    return build_model(dcfg, vcfg, vip_cfg, seed=seed)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def test_kv_elements_direct_and_linear():
    assert cm.kv_elements(4, 20, 8) == 1280
    assert cm.kv_elements(4, 10, 8) * 2 == cm.kv_elements(4, 20, 8)
    with pytest.raises(ConfigError):
        cm.kv_elements(0, 20, 8)


def test_kv_elements_matches_allocated_cache():
    s = tr.sample_for_index(5, 0)
    checks.kv_accounting(_toy(), s.image, s.question_ids)


def test_layer_flops_superlinear_in_s():
    one = cm.layer_flops(64, 32, 4, 64)
    two = cm.layer_flops(128, 32, 4, 64)
    assert two > 2 * one


def test_layer_flops_validation():
    with pytest.raises(ConfigError):
        cm.layer_flops(0, 32, 4, 64)
    with pytest.raises(ConfigError):
        cm.decode_layer_flops(0, 32, 4, 64)


# ---------------------------------------------------------------------------
# Counted == analytic, exactly
# ---------------------------------------------------------------------------


def test_counted_prefill_matches_layer_formula_exactly():
    model = _toy()
    dcfg, vcfg = model.cfg, model.vcfg
    s = tr.sample_for_index(7, 0)
    meter = FlopMeter()
    baseline_prefill(s.image, s.question_ids, model, meter=meter)
    S = vcfg.nv + len(s.question_ids)
    assert meter.get("decoder") == dcfg.L * cm.layer_flops(S, dcfg.D, dcfg.H, dcfg.ffn_dim)
    assert meter.get("visual") == cm.visual_flops(vcfg.nv, dcfg.D, vcfg.C, vcfg.M)
    assert meter.get("lm_head") == cm.lm_head_flops(1, dcfg.D, dcfg.vocab)


def test_counted_prefill_matches_across_shapes():
    for L, D, H, nt in [(2, 16, 2, 3), (4, 32, 4, 7), (5, 24, 2, 1)]:
        dcfg = DecoderConfig(L=L, D=D, H=H, ffn_dim=2 * D, vocab=16)
        vcfg = VisualStubConfig(grid_h=3, grid_w=5, embed_dim=D)
        model = build_model(dcfg, vcfg, VipConfig(), seed=2)
        image = np.zeros((3, 5, 3), dtype=np.uint8)
        meter = FlopMeter()
        baseline_prefill(image, list(range(nt)), model, meter=meter)
        S = vcfg.nv + nt
        assert meter.get("decoder") == dcfg.L * cm.layer_flops(S, D, H, dcfg.ffn_dim)


def test_counted_pruned_pipeline_matches_exactly():
    s = tr.sample_for_index(7, 0)
    checks.cost_agreement(_toy(), s.image, s.question_ids, tau=0.6)


def test_counted_decode_step_matches_exactly():
    model = _toy()
    dcfg = model.cfg
    s = tr.sample_for_index(9, 0)
    cache, _ = baseline_prefill(s.image, s.question_ids, model)
    n0 = cache.uniform_len()
    meter = FlopMeter()
    decode_step(model.backbone, cache, token_id=3, position=n0, meter=meter)
    assert meter.get("decoder") == dcfg.L * cm.decode_layer_flops(
        n0 + 1, dcfg.D, dcfg.H, dcfg.ffn_dim)
    assert meter.get("lm_head") == cm.lm_head_flops(1, dcfg.D, dcfg.vocab)


# ---------------------------------------------------------------------------
# Full-scale estimates
# ---------------------------------------------------------------------------


def test_full_scale_prefill_and_ratio():
    preset = cm.PRESETS["qwen2.5-vl-7b"]
    base, pruned, ratio = cm.pruned_prefill_flops(preset, 5074, 203)
    assert abs(base / 1e12 - 77.8) / 77.8 < 0.15
    assert 0.64 <= ratio <= 0.74
    assert pruned < base


def test_full_scale_prune_layer_sweep():
    preset = cm.PRESETS["qwen2.5-vl-3b"]
    published = {18: 17.4, 24: 23.1, 30: 28.5, 36: 34.1}
    previous = 0.0
    for K, expect_tflops in published.items():
        _, pruned, _ = cm.pruned_prefill_flops(replace(preset, K=K), 4500, 400)
        assert abs(pruned / 1e12 - expect_tflops) / expect_tflops < 0.20
        assert pruned > previous
        previous = pruned


def test_presets_well_formed():
    expected = {
        "qwen2.5-vl-3b": (36, 2048, 24),
        "qwen2.5-vl-7b": (28, 3584, 19),
        "llava-1.5-7b": (32, 4096, 22),
        "llava-1.5-13b": (40, 5120, 27),
    }
    for name, (L, D, K) in expected.items():
        p = cm.PRESETS[name]
        assert (p.L, p.D, p.K) == (L, D, K)
        assert 1 <= p.K <= p.L
        assert p.D % p.H == 0


def test_degenerate_no_pruning_ratio_near_one():
    preset = cm.PRESETS["llava-1.5-7b"]
    base, pruned, ratio = cm.pruned_prefill_flops(preset, 1024, 1024)
    # identical lengths leave only the predictor overhead
    overhead = cm.vip_flops(1024, preset.H, preset.C, cm.FULL_SCALE_E,
                            cm.FULL_SCALE_F, cm.FULL_SCALE_M, cm.FULL_SCALE_HEADS)
    assert pruned == pytest.approx(base + overhead)
    assert 1.0 < ratio < 1.01


def test_pruned_prefill_rejects_growth():
    with pytest.raises(ConfigError):
        cm.pruned_prefill_flops(cm.PRESETS["qwen2.5-vl-7b"], 100, 200)


def test_monotonic_in_pruned_length():
    preset = cm.PRESETS["qwen2.5-vl-7b"]
    values = [cm.pruned_prefill_flops(preset, 4096, sp)[1]
              for sp in (64, 256, 1024, 4096)]
    assert all(b > a for a, b in zip(values, values[1:]))
    kv = [cm.kv_elements(preset.L, sp, preset.D) for sp in (64, 256, 1024, 4096)]
    assert all(b > a for a, b in zip(kv, kv[1:]))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_compare_report_decode_ratio_tracks_cache_for_long_sequences():
    # With the D-quadratic terms held fixed, the n-linear attention term
    # dominates once the cache is much longer than D, so the total decode
    # ratio converges to the cache-length ratio from above.
    preset = cm.PRESETS["qwen2.5-vl-7b"]
    gaps = []
    for S in (10_000, 100_000, 1_000_000, 10_000_000):
        report = cm.analytic_report(preset, S=S, S_pruned=S // 10)
        gaps.append(report.ratios["decode_per_token"] - report.ratios["decode_attention"])
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.01


def test_report_serialization_bit_exact():
    report = cm.analytic_report(cm.PRESETS["qwen2.5-vl-7b"], 5074, 203)
    assert json.loads(report.to_json()) == asdict(report)


def test_report_csv_row_matches_columns():
    report = cm.analytic_report(cm.PRESETS["llava-1.5-13b"], 2048, 128)
    row = report.csv_row()
    cells = row.split(",")
    assert len(cells) == len(cm.CSV_COLUMNS)
    assert cells[0] == "llava-1.5-13b"
    assert cells[1] == "40" and cells[3] == "27"
    assert float(cells[8]) == report.ratios["prefill"]


def test_report_validation_catches_bad_ratio():
    report = cm.analytic_report(cm.PRESETS["qwen2.5-vl-7b"], 5074, 203)
    report.ratios["kv"] = 1.5
    with pytest.raises(StateError):
        report.validate()
