"""Data generator, loss stack, gradient, and training-loop tests.

Gradients are checked against central finite differences; losses against
hand-computed values and direct-summation oracles. The training tests run
on a deliberately small decoder so the full loop stays fast.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtprune import checks
from vtprune import training as tr
from vtprune.backbone import DecoderConfig, VisualStubConfig
from vtprune.errors import ConfigError, ShapeError
from vtprune.numerics import Rng
from vtprune.prune_engine import build_model, glimpse_prune_prefill
from vtprune.vip import ImportanceMap, VipConfig


def _tiny_model(seed=11):
    dcfg = DecoderConfig(L=3, D=16, H=2, ffn_dim=24, vocab=16, K=2)
    vcfg = VisualStubConfig(grid_h=3, grid_w=3, C=8, M=2, embed_dim=16, seed=5)
    vip_cfg = VipConfig(E=4, F=4, heads=2, M=2)
    return build_model(dcfg, vcfg, vip_cfg, seed=seed)


def _desk_model(seed=0):
    return build_model(DecoderConfig(), VisualStubConfig(), VipConfig(), seed=seed)


# ---------------------------------------------------------------------------
# Data generator
# ---------------------------------------------------------------------------


def test_sample_determinism_and_addressability():
    a = tr.sample_for_index(3, 17)
    b = tr.sample_for_index(3, 17)
    assert np.array_equal(a.image, b.image)
    assert a.question_ids == b.question_ids
    assert a.answer_ids == b.answer_ids
    assert a.boxes == b.boxes
    assert np.array_equal(a.mask, b.mask)
    c = tr.sample_for_index(3, 18)
    assert not np.array_equal(a.image, c.image) or a.question_ids != c.question_ids


def test_sample_mask_matches_boxes_and_has_foreground():
    for i in range(50):
        s = tr.sample_for_index(7, i)
        assert np.array_equal(s.mask, tr.mask_from_boxes(s.boxes, 8, 8))
        assert s.mask.sum() >= 1
        assert set(np.unique(s.mask)) <= {0.0, 1.0}


def test_sample_question_answer_consistency():
    for i in range(100):
        s = tr.sample_for_index(11, i)
        assert len(s.question_ids) == 4
        assert s.question_ids[0] == tr.TOKEN_IDS["<q>"]
        assert s.question_ids[1] == tr.TOKEN_IDS["ask"]
        assert s.question_ids[3] == tr.TOKEN_IDS["</q>"]
        given = s.question_ids[2]
        assert len(s.answer_ids) == 1
        answer = s.answer_ids[0]
        pair = {given, answer}
        # one color attribute and one type attribute, in either direction
        assert len(pair & set(tr.COLOR_TOKENS)) == 1
        assert len(pair & set(tr.TYPE_TOKENS)) == 1


def test_sample_boxes_inside_grid_and_shape_sized():
    for i in range(100):
        s = tr.sample_for_index(13, i)
        (r0, c0, r1, c1) = s.boxes[0]
        assert 0 <= r0 <= r1 < 8 and 0 <= c0 <= c1 < 8
        assert (r1 - r0 + 1, c1 - c0 + 1) in {(2, 2), (2, 3), (3, 2)}


def test_foreground_fraction_over_many_samples():
    fractions = [tr.sample_for_index(0, i).mask.mean() for i in range(1000)]
    assert 0.02 <= float(np.mean(fractions)) <= 0.6
    assert min(fractions) > 0.0
    assert max(fractions) <= 0.6


def test_sample_answer_region_is_painted():
    # Target box pixels should look like the named color, not background.
    for i in range(20):
        s = tr.sample_for_index(21, i)
        r0, c0, r1, c1 = s.boxes[0]
        patch = s.image[r0 : r1 + 1, c0 : c1 + 1].astype(float)
        background = s.image.astype(float).mean(axis=(0, 1))
        assert np.abs(patch.mean(axis=(0, 1)) - background).max() > 10.0


def test_mask_from_boxes_hand_case_and_validation():
    mask = tr.mask_from_boxes([(0, 0, 1, 1)], 3, 3)
    assert np.array_equal(mask, np.array([1, 1, 0, 1, 1, 0, 0, 0, 0], dtype=float))
    two = tr.mask_from_boxes([(0, 0, 0, 0), (2, 2, 2, 2)], 3, 3)
    assert two.sum() == 2
    with pytest.raises(ConfigError):
        tr.mask_from_boxes([(0, 0, 3, 1)], 3, 3)
    with pytest.raises(ConfigError):
        tr.mask_from_boxes([(1, 1, 0, 0)], 3, 3)


def test_generate_sample_rejects_tiny_grid():
    with pytest.raises(ConfigError):
        tr.generate_sample(Rng(0), grid_h=1, grid_w=8)


# ---------------------------------------------------------------------------
# Loss hand values and oracles
# ---------------------------------------------------------------------------


def test_dice_exact_match_is_zero():
    mask = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    assert tr.dice_loss(mask.copy(), mask) == 0.0


def test_dice_exact_miss():
    mask = np.array([1.0, 0.0, 1.0, 0.0])
    p = 1.0 - mask
    nv = mask.size
    expected = 1.0 - 1.0 / (nv + 1.0)
    assert abs(tr.dice_loss(p, mask) - expected) < 1e-15


def test_dice_half_confidence_hand_value():
    mask = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=float)
    p = np.full(8, 0.5)
    # inter=2, sums: p=4, m=4 -> 1 - (4+1)/(4+4+1) = 4/9
    assert abs(tr.dice_loss(p, mask) - 4.0 / 9.0) < 1e-15


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=32),
       st.data())
@settings(max_examples=100, deadline=None)
def test_dice_range_property(ps, data):
    p = np.array(ps)
    mask = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]),
                                       min_size=p.size, max_size=p.size)))
    d = tr.dice_loss(p, mask)
    assert 0.0 <= d < 1.0


def test_dice_shape_guard():
    with pytest.raises(ShapeError):
        tr.dice_loss(np.ones(4), np.ones(5))


def test_bce_half_confidence_is_ln2():
    imap = ImportanceMap(logits=np.zeros(9), p=np.full(9, 0.5))
    assert abs(tr.bce_loss(imap, np.array([1.0] * 4 + [0.0] * 5)) - math.log(2)) < 1e-15


def test_bce_matches_direct_summation_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        logits = rng.standard_normal(16) * 3
        mask = (rng.random(16) < 0.4).astype(float)
        imap = ImportanceMap(logits=logits, p=1.0 / (1.0 + np.exp(-logits)))
        direct = -np.mean(mask * np.log(imap.p) + (1 - mask) * np.log(1 - imap.p))
        assert abs(tr.bce_loss(imap, mask) - direct) < 1e-12
        # probability-array entry point agrees too
        assert abs(tr.bce_loss(imap.p, mask) - direct) < 1e-12


def test_bce_stable_at_saturation():
    imap = ImportanceMap(logits=np.array([500.0, -500.0]), p=np.array([1.0, 0.0]))
    val = tr.bce_loss(imap, np.array([1.0, 0.0]))
    assert np.isfinite(val) and val < 1e-12


def test_lang_uniform_logits_is_log_vocab():
    rows = np.zeros((3, 16))
    assert abs(tr.lang_loss(rows, [2, 7, 15]) - math.log(16)) < 1e-15


def test_lang_saturated_is_near_zero():
    rows = np.zeros((2, 16))
    rows[0, 3] = 50.0
    rows[1, 9] = 50.0
    assert tr.lang_loss(rows, [3, 9]) < 1e-12


def test_lang_matches_softmax_log_oracle():
    rng = np.random.default_rng(9)
    rows = rng.standard_normal((5, 16)) * 2
    ids = [1, 4, 4, 0, 15]
    probs = np.exp(rows) / np.exp(rows).sum(axis=1, keepdims=True)
    direct = -np.mean(np.log(probs[np.arange(5), ids]))
    assert abs(tr.lang_loss(rows, ids) - direct) < 1e-12


def test_lang_validation():
    with pytest.raises(ConfigError):
        tr.lang_loss(np.zeros((0, 16)), [])
    with pytest.raises(ShapeError):
        tr.lang_loss(np.zeros((2, 16)), [1, 2, 3])


# ---------------------------------------------------------------------------
# Forward decomposition and gradients
# ---------------------------------------------------------------------------


def test_total_loss_decomposition():
    model = _tiny_model()
    s = tr.sample_for_index(3, 0, 3, 3)
    w = tr.LossWeights(w_lang=1.0, w_dice=1.0, w_bce=0.1)
    total, parts = tr.total_loss(s, model, w)
    assert abs(total - (parts["lang"] + parts["dice"] + 0.1 * parts["bce"])) <= 1e-12

    g_t, vip_t = tr.trainable_tensors(model)
    fw = tr.training_forward(model, s, g_t, vip_t)
    imap = ImportanceMap(logits=fw.logits, p=fw.p)
    assert abs(parts["dice"] - tr.dice_loss(imap, s.mask)) <= 1e-12
    assert abs(parts["bce"] - tr.bce_loss(imap, s.mask)) <= 1e-12
    assert abs(parts["lang"] - tr.lang_loss(fw.answer_logits, s.answer_ids)) <= 1e-12


def test_training_importance_matches_inference_pipeline():
    # Single-token answers give the training layout [vis|q|glimpse], the
    # same rows the inference prefill sees, so p must agree closely.
    model = _desk_model(seed=7)
    rng = np.random.default_rng(1)
    model.vip.head_w[:] = rng.standard_normal(model.vip.head_w.shape) * 0.5
    model.vip.head_b[:] = 0.2
    s = tr.sample_for_index(42, 5)
    g_t, vip_t = tr.trainable_tensors(model)
    fw = tr.training_forward(model, s, g_t, vip_t)
    _, _, imap, _ = glimpse_prune_prefill(s.image, s.question_ids, model,
                                          tau=0.0, r_max=1.0)
    assert np.abs(fw.p - imap.p).max() < 1e-10


def test_gradients_match_finite_differences():
    model = _tiny_model()
    # move the head off its zero init so no path is accidentally dead
    model.vip.head_w[:] = np.linspace(-0.3, 0.3, model.vip.head_w.size).reshape(
        model.vip.head_w.shape)
    model.vip.head_b[:] = 0.1
    rng = np.random.default_rng(0)
    checks.gradient(model, tr.sample_for_index(3, 0, 3, 3), tr.LossWeights(),
                    lambda n: rng.choice(n, size=min(3, n), replace=False), floor=1e-6)


def test_gradients_match_finite_differences_more_points():
    model = _tiny_model(seed=23)
    model.vip.head_w[:] = np.linspace(0.2, -0.2, model.vip.head_w.size).reshape(
        model.vip.head_w.shape)
    rng = np.random.default_rng(0)
    checks.gradient(model, tr.sample_for_index(8, 1, 3, 3),
                    tr.LossWeights(w_lang=0.7, w_dice=1.3, w_bce=0.2),
                    lambda n: rng.choice(n, size=min(3, n), replace=False), floor=1e-6)


def test_gradient_reaches_every_trainable_group():
    model = _tiny_model()
    model.vip.head_w[:] = 0.1
    s = tr.sample_for_index(3, 2, 3, 3)
    _, _, grads = tr.grad(s, model)
    for name, g in grads.items():
        assert np.abs(g).max() > 0.0, f"no gradient reached {name}"


def test_gradient_vanishes_at_saturation():
    # All-foreground mask plus a hugely positive head bias saturates the
    # sigmoid; with the language term switched off the remaining gradients
    # must be numerically zero rather than NaN.
    model = _tiny_model()
    model.vip.head_b[:] = 40.0
    s = tr.sample_for_index(3, 0, 3, 3)
    s.mask = np.ones_like(s.mask)
    _, parts, grads = tr.grad(s, model, tr.LossWeights(w_lang=0.0, w_dice=1.0, w_bce=0.1))
    assert np.isfinite(parts["dice"]) and np.isfinite(parts["bce"])
    total_norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    assert total_norm <= 1e-8


def test_gradient_determinism():
    s = tr.sample_for_index(5, 3, 3, 3)
    runs = []
    for _ in range(2):
        model = _tiny_model(seed=31)
        _, _, grads = tr.grad(s, model)
        runs.append(grads)
    for name in runs[0]:
        assert np.array_equal(runs[0][name], runs[1][name])


def test_backbone_frozen_through_training():
    model = _tiny_model()
    before = [a.copy() for a in model.backbone.all_arrays()]
    ds = [tr.sample_for_index(1, i, 3, 3) for i in range(8)]
    tr.train(ds, model, tr.TrainConfig(lr=1e-2, grad_accum=4, epochs=2, dataset_size=8))
    after = model.backbone.all_arrays()
    assert len(before) == len(after)
    for b, a in zip(before, after):
        assert np.array_equal(b, a)


# ---------------------------------------------------------------------------
# Optimizer and schedule
# ---------------------------------------------------------------------------


def test_lr_schedule_endpoints_and_shape():
    tcfg = tr.TrainConfig(lr=1e-3, warmup_ratio=0.1)
    total = 100
    assert tr.lr_at(0, total, tcfg) == 0.0
    warmup = math.ceil(0.1 * total)
    assert tr.lr_at(warmup, total, tcfg) == tcfg.lr
    assert abs(tr.lr_at(total, total, tcfg)) < 1e-18
    # rising through warmup, falling after
    rising = [tr.lr_at(i, total, tcfg) for i in range(warmup + 1)]
    assert all(b > a for a, b in zip(rising, rising[1:]))
    falling = [tr.lr_at(i, total, tcfg) for i in range(warmup, total + 1)]
    assert all(b <= a for a, b in zip(falling, falling[1:]))


def test_adamw_single_step_hand_check():
    p = np.array([1.0, -2.0])
    opt = tr.AdamW({"w": p})
    g = np.array([0.5, -0.25])
    opt.step({"w": g}, lr=0.1)
    # bias-corrected first step reduces to p - lr * g / (|g| + eps)
    expected = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p, expected, atol=1e-12)


def test_adamw_updates_in_place():
    model = _tiny_model()
    glimpse_arr = model.glimpse.matrix
    ds = [tr.sample_for_index(1, i, 3, 3) for i in range(4)]
    tr.train(ds, model, tr.TrainConfig(lr=1e-2, grad_accum=4, epochs=2, dataset_size=4))
    assert model.glimpse.matrix is glimpse_arr
    assert np.abs(glimpse_arr).sum() > 0


def test_adamw_state_roundtrip():
    p = np.array([1.0, 2.0, 3.0])
    opt = tr.AdamW({"w": p})
    opt.step({"w": np.array([0.1, -0.2, 0.3])}, lr=0.01)
    snap = opt.state()
    q = p.copy()
    opt2 = tr.AdamW({"w": q})
    opt2.load_state(snap)
    g2 = np.array([0.05, 0.05, -0.1])
    opt.step({"w": g2}, lr=0.02)
    opt2.step({"w": g2}, lr=0.02)
    assert np.array_equal(p, q)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def test_train_loss_decreases_on_small_set():
    model = _tiny_model(seed=2)
    ds = [tr.sample_for_index(12, i, 3, 3) for i in range(32)]
    tcfg = tr.TrainConfig(lr=3e-3, grad_accum=8, epochs=13, dataset_size=32)
    history = tr.train(ds, model, tcfg)
    assert len(history) == 52
    losses = [row["loss"] for row in history]
    head = float(np.mean(losses[:5]))
    tail = float(np.mean(losses[-5:]))
    assert tail < head, f"moving average did not drop: {head} -> {tail}"


def test_train_first_step_uses_zero_lr():
    model = _tiny_model()
    ds = [tr.sample_for_index(1, i, 3, 3) for i in range(8)]
    history = tr.train(ds, model, tr.TrainConfig(grad_accum=8, dataset_size=8))
    assert history[0]["lr"] == 0.0
    assert {"step", "lr", "loss", "lang", "dice", "bce", "recall",
            "retention"} <= set(history[0])


def test_train_determinism():
    def run():
        model = _tiny_model(seed=6)
        ds = [tr.sample_for_index(4, i, 3, 3) for i in range(16)]
        hist = tr.train(ds, model, tr.TrainConfig(lr=1e-3, grad_accum=4,
                                                  epochs=2, dataset_size=16))
        return hist, model.glimpse.matrix.copy(), model.vip.head_w.copy()

    h1, g1, w1 = run()
    h2, g2, w2 = run()
    assert h1 == h2
    assert np.array_equal(g1, g2)
    assert np.array_equal(w1, w2)


def test_train_empty_dataset_rejected():
    with pytest.raises(ConfigError):
        tr.train([], _tiny_model(), tr.TrainConfig())


def test_config_validation():
    with pytest.raises(ConfigError):
        tr.TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        tr.TrainConfig(schedule="linear")
    with pytest.raises(ConfigError):
        tr.TrainConfig(grad_accum=0)
    with pytest.raises(ConfigError):
        tr.LossWeights(w_dice=-1.0)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_evaluate_untrained_keeps_everything():
    # Zero-init head gives p = 0.5 everywhere, which is >= tau, so nothing
    # is pruned and recall is trivially perfect.
    model = _desk_model(seed=3)
    ds = [tr.sample_for_index(60, i) for i in range(6)]
    out = tr.evaluate(ds, model)
    assert out["foreground_recall"] == 1.0
    assert out["mean_retention"] == 1.0
    assert 0.0 < out["mean_iou"] <= 1.0
    assert 0.0 <= out["answer_accuracy"] <= 1.0


def test_evaluate_respects_threshold_override():
    model = _desk_model(seed=3)
    ds = [tr.sample_for_index(61, i) for i in range(4)]
    out = tr.evaluate(ds, model, tau=0.51)
    # untrained p = 0.5 < tau prunes down to the single fallback token
    assert out["mean_retention"] == pytest.approx(1.0 / 64.0)


def test_evaluate_empty_rejected():
    with pytest.raises(ConfigError):
        tr.evaluate([], _tiny_model())
