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

from vtprune import autograd as ag
from vtprune import backbone as bb
from vtprune import checks
from vtprune import training as tr
from vtprune.backbone import DecoderConfig, VisualStubConfig
from vtprune.errors import ConfigError, ShapeError
from vtprune.numerics import Rng
from vtprune.prune_engine import build_model, dense_layers, glimpse_prune_prefill
from vtprune.vip import VipConfig, importance_logits


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
    # below 3x3 the 2x3 or 3x2 shape does not fit, so a draw may place none
    for grid_h, grid_w in [(1, 8), (2, 8), (8, 2), (2, 2)]:
        with pytest.raises(ConfigError, match=f"grid {grid_h}x{grid_w} "):
            tr.generate_sample(Rng(0), grid_h=grid_h, grid_w=grid_w)


def test_generate_sample_grid_sides_stop_at_256():
    """256 is the largest side; one past it, or 999999999, raises before
    an image is allocated."""
    for grid_h, grid_w in [(256, 3), (3, 256)]:
        assert tr.generate_sample(Rng(0), grid_h, grid_w).image.shape == (grid_h, grid_w, 3)
    for grid_h, grid_w in [(257, 8), (8, 257), (999999999, 999999999)]:
        with pytest.raises(ConfigError, match=f"grid {grid_h}x{grid_w} outside"):
            tr.generate_sample(Rng(0), grid_h=grid_h, grid_w=grid_w)


# ---------------------------------------------------------------------------
# Loss hand values and oracles: tr.dice_loss and the tape's BCE and CE
# ---------------------------------------------------------------------------


def _bce(logits, mask):
    return ag.bce_with_logits(logits, mask).item()


def _lang(rows, ids):
    return ag.cross_entropy_rows(rows, ids).item()


def test_dice_exact_match_is_zero():
    mask = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    assert tr.dice_loss(mask.copy(), mask).item() == 0.0


def test_dice_exact_miss():
    mask = np.array([1.0, 0.0, 1.0, 0.0])
    p = 1.0 - mask
    nv = mask.size
    expected = 1.0 - 1.0 / (nv + 1.0)
    assert abs(tr.dice_loss(p, mask).item() - expected) < 1e-15


def test_dice_half_confidence_hand_value():
    mask = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=float)
    p = np.full(8, 0.5)
    # inter=2, sums: p=4, m=4 -> 1 - (4+1)/(4+4+1) = 4/9
    assert abs(tr.dice_loss(p, mask).item() - 4.0 / 9.0) < 1e-15


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=32),
       st.data())
@settings(max_examples=100, deadline=None)
def test_dice_range_property(ps, data):
    p = np.array(ps)
    mask = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]),
                                       min_size=p.size, max_size=p.size)))
    d = tr.dice_loss(p, mask).item()
    assert 0.0 <= d < 1.0


def test_dice_shape_guard():
    with pytest.raises(ShapeError):
        tr.dice_loss(np.ones(4), np.ones(5))


def test_bce_half_confidence_is_ln2():
    assert abs(_bce(np.zeros(9), np.array([1.0] * 4 + [0.0] * 5)) - math.log(2)) < 1e-15


def test_bce_matches_direct_summation_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        logits = rng.standard_normal(16) * 3
        mask = (rng.random(16) < 0.4).astype(float)
        p = 1.0 / (1.0 + np.exp(-logits))
        direct = -np.mean(mask * np.log(p) + (1 - mask) * np.log(1 - p))
        assert abs(_bce(logits, mask) - direct) < 1e-12


def test_bce_stable_at_saturation():
    val = _bce(np.array([500.0, -500.0]), np.array([1.0, 0.0]))
    assert np.isfinite(val) and val < 1e-12


def test_bce_shape_guard():
    with pytest.raises(ShapeError):
        _bce(np.zeros(4), np.ones(5))
    with pytest.raises(ShapeError):  # broadcasting would hide this one
        _bce(np.zeros(1), np.ones(5))


def test_lang_uniform_logits_is_log_vocab():
    rows = np.zeros((3, 16))
    assert abs(_lang(rows, [2, 7, 15]) - math.log(16)) < 1e-15


def test_lang_saturated_is_near_zero():
    rows = np.zeros((2, 16))
    rows[0, 3] = 50.0
    rows[1, 9] = 50.0
    assert _lang(rows, [3, 9]) < 1e-12


def test_lang_matches_softmax_log_oracle():
    rng = np.random.default_rng(9)
    rows = rng.standard_normal((5, 16)) * 2
    ids = [1, 4, 4, 0, 15]
    probs = np.exp(rows) / np.exp(rows).sum(axis=1, keepdims=True)
    direct = -np.mean(np.log(probs[np.arange(5), ids]))
    assert abs(_lang(rows, ids) - direct) < 1e-12


def test_lang_validation():
    model = _tiny_model()
    s = tr.sample_for_index(3, 0, 3, 3)
    s.answer_ids = []
    with pytest.raises(ConfigError):
        tr.training_forward(model, s, *tr.trainable_tensors(model))
    with pytest.raises(ShapeError):
        _lang(np.zeros((2, 16)), [1, 2, 3])


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
    assert parts["dice"] == tr.dice_loss(fw.p, s.mask).item()
    assert parts["bce"] == _bce(fw.logits, s.mask)
    assert parts["lang"] == _lang(fw.answer_logits, s.answer_ids)


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


def _single_pass_grad(model, s):
    """Reference: the training forward with every row of [visual | question
    | glimpse | answer[:-1]] on the tape, one dense_layers pass over all n
    rows, then the same losses and backward. Returns (loss, parts, p,
    answer logits, gradients)."""
    params = model.backbone
    dcfg, vcfg = params.cfg, params.vcfg
    ans = list(s.answer_ids)
    g_t, vip_t = tr.trainable_tensors(model)
    seq, levels = bb.embed_prompt(s.image, s.question_ids, params, None)
    nv, gp = seq.nv, seq.total_len
    n = gp + len(ans)
    parts = [ag.as_tensor(seq.embeddings), g_t[0:1]]
    if len(ans) > 1:
        parts.append(ag.as_tensor(params.text_emb[np.asarray(ans[:-1], dtype=np.int64)]))
    causal = np.arange(n)[None, :] <= np.arange(n)[:, None]
    x, a_rows = dense_layers(params, ag.cat(parts, axis=0), np.arange(n), causal, 1, dcfg.L,
                             glimpse=g_t, gp=gp, capture=(dcfg.K, gp, nv))
    grid_rows, grid_cols = bb.grid_coords(vcfg.grid_h, vcfg.grid_w)
    logits = ag.reshape(importance_logits(a_rows, levels, grid_rows, grid_cols, vip_t,
                                          model.vip_cfg), (nv,))
    p_t = ag.sigmoid(logits)
    inter = ag.tsum(p_t * s.mask)
    dice = 1.0 - (inter * 2.0 + 1.0) / (ag.tsum(p_t) + (float(s.mask.sum()) + 1.0))
    bce = ag.bce_with_logits(logits, s.mask)
    ans_logits = ag.matmul(ag.rms_norm_rows(x[gp:], params.final_gain, dcfg.eps), params.w_out)
    lang = ag.cross_entropy_rows(ans_logits, ans)
    w = tr.LossWeights()
    loss = lang * w.w_lang + dice * w.w_dice + bce * w.w_bce
    loss.backward()
    grads = {"glimpse": g_t.grad, **{k: t.grad for k, t in vip_t.items()}}
    return (loss.item(), {"lang": lang.item(), "dice": dice.item(), "bce": bce.item()},
            p_t.data, ans_logits.data, grads)


@pytest.mark.parametrize("grid,K,q_len,a_len", [
    (8, 3, 7, 1), (8, 3, 7, 2), (8, 3, 8, 2), (8, 3, 8, 3), (8, 3, 7, 3),
    (16, 3, 7, 2), (8, 1, 8, 2), (8, 4, 7, 3),
])
def test_training_forward_equals_single_pass_byte_for_byte(grid, K, q_len, a_len):
    # Shapes the dataset never reaches: n = Nv + q + a falls on both sides
    # of a multiple of 8 (numpy's pairwise sums group in blocks of 8), the
    # capture runs at the first and the last layer, and the grid is 16x16.
    # The prefix's keys and values come from the cached layer's BLAS
    # products, the single pass's from the exact kernel, so the two agree
    # to rounding: values within criterion 1's 1e-10, and each gradient
    # within 1e-9 of its group's largest entry.
    model = build_model(DecoderConfig(K=K), VisualStubConfig(grid_h=grid, grid_w=grid),
                        VipConfig(), seed=2)
    rng = np.random.default_rng(K + q_len + a_len)
    model.vip.head_w[:] = rng.standard_normal(model.vip.head_w.shape) * 0.3
    s = tr.sample_for_index(9, q_len * a_len, grid, grid)
    s.question_ids = [int(t) for t in rng.integers(0, 12, q_len)]
    s.answer_ids = [int(t) for t in rng.integers(0, 12, a_len)]

    loss, parts, grads = tr.grad(s, model)
    g_t, vip_t = tr.trainable_tensors(model)
    fw = tr.training_forward(model, s, g_t, vip_t)
    ref_loss, ref_parts, ref_p, ref_logits, ref_grads = _single_pass_grad(model, s)
    assert abs(loss - ref_loss) <= 1e-10
    assert parts.keys() == ref_parts.keys()
    assert all(abs(parts[k] - v) <= 1e-10 for k, v in ref_parts.items())
    assert np.abs(fw.p - ref_p).max() <= 1e-10
    assert np.abs(fw.answer_logits - ref_logits).max() <= 1e-10
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        ref = ref_grads[name]
        assert np.abs(g - ref).max() <= 1e-9 * np.abs(ref).max(), name


def test_prefix_pass_builds_no_tape(monkeypatch):
    # The [visual | question] rows run through the serving prefill: it fills
    # a KVCache of L layers by gp rows and constructs no Tensor.
    model = _desk_model()
    s = tr.sample_for_index(0, 0)
    made, prefills = [], []
    init, prefill = ag.Tensor.__init__, bb.prefill_layers

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    def spy(params, hidden, positions, cache, *args, **kwargs):
        before = len(made)
        out = prefill(params, hidden, positions, cache, *args, **kwargs)
        prefills.append((cache, len(made) - before))
        return out

    monkeypatch.setattr(ag.Tensor, "__init__", counting_init)
    monkeypatch.setattr(bb, "prefill_layers", spy)
    g_t, vip_t = tr.trainable_tensors(model)
    tr.training_forward(model, s, g_t, vip_t)
    gp = model.vcfg.nv + len(s.question_ids)
    [(cache, tensors)] = prefills
    assert cache.lengths() == [gp] * model.cfg.L
    assert tensors == 0 and made  # the tape rows that follow do make tensors


@pytest.mark.parametrize("answer", [[-1, 3], [3, -2], [16]])
def test_training_rejects_answer_ids_outside_vocab(answer):
    model = _desk_model()
    assert model.cfg.vocab == 16
    s = tr.sample_for_index(0, 0)
    s.answer_ids = answer
    with pytest.raises(ConfigError, match="outside the vocabulary") as info:
        tr.grad(s, model)
    assert not isinstance(info.value, IndexError)


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
    for ratio in (-0.1, 1.5, 1e308):
        with pytest.raises(ConfigError, match="warmup_ratio"):
            tr.TrainConfig(warmup_ratio=ratio)
    for ratio in (0.0, 1.0):
        assert tr.TrainConfig(warmup_ratio=ratio).warmup_ratio == ratio
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
