"""End-to-end pipeline tests: slice oracle, equivalence, neutrality.

The decisive check is cross-implementation agreement: the cached pipeline
with a one-shot prune must match a cache-free dense recomputation at the
prefill output and at every generated position.
"""

import numpy as np
import pytest

import vtprune.prune_engine as pe
from vtprune import backbone as bb
from vtprune import checks
from vtprune.errors import ConfigError, NumericError, StateError
from vtprune.numerics import FlopMeter, Rng
from vtprune.vip import SelectionResult, VipConfig


def _model(L=4, D=32, H=4, grid=4, seed=0, K=None):
    dcfg = bb.DecoderConfig(L=L, D=D, H=H, ffn_dim=2 * D, vocab=16, K=K)
    vcfg = bb.VisualStubConfig(grid_h=grid, grid_w=grid, C=12, M=2, embed_dim=D, seed=seed + 3)
    return pe.build_model(dcfg, vcfg, VipConfig(), seed)


def _sample_inputs(model, nt=5, seed=0):
    rng = Rng(seed + 50)
    vcfg = model.vcfg
    image = rng.uniform_array((vcfg.grid_h, vcfg.grid_w, 3), 0.0, 255.0)
    question = [int(rng.randint(model.cfg.vocab)) for _ in range(nt)]
    return image, question


def test_build_model_is_deterministic_and_seed_sensitive():
    a, b, c = _model(seed=1), _model(seed=1), _model(seed=2)
    assert np.array_equal(a.backbone.wq[0], b.backbone.wq[0])
    assert np.array_equal(a.glimpse.matrix, b.glimpse.matrix)
    assert not np.array_equal(a.backbone.wq[0], c.backbone.wq[0])
    assert np.all(a.vip.head_w == 0.0)


# ---------------------------------------------------------------------------
# prune_state
# ---------------------------------------------------------------------------


def _prefilled_state(model, keep_vis, nt=5, seed=0):
    image, question = _sample_inputs(model, nt=nt, seed=seed)
    params = model.backbone
    dcfg, vcfg = params.cfg, params.vcfg
    embeds, _ = bb.encode_visual(image, vcfg, params)
    rows, cols = bb.grid_coords(vcfg.grid_h, vcfg.grid_w)
    seq = bb.TokenSequence(visual_embeds=embeds, rows=rows, cols=cols, text_ids=question)
    gseq = bb.append_glimpse(seq, model.glimpse)
    x0 = bb.assemble_input_rows(gseq, params, model.glimpse)
    cache = bb.KVCache(dcfg.L, dcfg.H, dcfg.head_dim)
    hidden, _ = bb.prefill_layers(params, x0, np.arange(gseq.total_len), cache, 1, dcfg.K,
                                  glimpse=model.glimpse, glimpse_pos=gseq.glimpse_pos)
    sel = SelectionResult(keep=np.asarray(keep_vis, dtype=np.int64), cap=seq.nv)
    return gseq, cache, hidden, sel


def test_prune_state_matches_slice_oracle():
    model = _model()
    keep_vis = [1, 4, 7, 9, 15]
    gseq, cache, hidden, sel = _prefilled_state(model, keep_vis)
    # Fresh prefill for the oracle before the shared cache is compacted.
    _, cache_ref, hidden_ref, _ = _prefilled_state(model, keep_vis)
    hp, cache, pruned_seq, positions = pe.prune_state(hidden, cache, sel, gseq)

    keep_rows = np.array(keep_vis + list(range(gseq.nv, gseq.nv + gseq.nt)))
    assert np.array_equal(positions, keep_rows)
    assert np.array_equal(hp, hidden_ref[keep_rows])
    K = model.cfg.K
    for li in range(K):
        assert np.array_equal(cache.k[li], cache_ref.k[li][keep_rows])
        assert np.array_equal(cache.v[li], cache_ref.v[li][keep_rows])
    for li in range(K, model.cfg.L):
        assert cache.layer_len(li) == 0
    assert not pruned_seq.glimpse_present
    assert pruned_seq.text_ids == gseq.text_ids
    assert np.array_equal(pruned_seq.rows, gseq.rows[keep_vis])


def test_prune_state_keep_all_drops_only_glimpse():
    model = _model()
    nv = model.vcfg.nv
    gseq, cache, hidden, sel = _prefilled_state(model, list(range(nv)))
    before_k = [kl.copy() for kl in cache.k]
    hp, cache, _, positions = pe.prune_state(hidden, cache, sel, gseq)
    n = gseq.nv + gseq.nt
    assert hp.shape[0] == n
    assert np.array_equal(positions, np.arange(n))
    for li in range(model.cfg.K):
        assert cache.layer_len(li) == n
        assert np.array_equal(cache.k[li], before_k[li][:n])


def test_prune_state_keep_one_token():
    model = _model(grid=2)  # Nv = 4
    gseq, cache, hidden, sel = _prefilled_state(model, [0], nt=2)
    hp, cache, _, _ = pe.prune_state(hidden, cache, sel, gseq)
    assert hp.shape[0] == 3
    for li in range(model.cfg.K):
        assert cache.layer_len(li) == 3


def test_prune_state_rejects_bad_indices():
    model = _model()
    gseq, cache, hidden, _ = _prefilled_state(model, [0])
    bad = SelectionResult(keep=np.array([model.vcfg.nv]), cap=model.vcfg.nv)
    with pytest.raises(IndexError):
        pe.prune_state(hidden, cache, bad, gseq)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def test_untrained_predictor_keeps_everything_at_default_tau():
    model = _model()
    image, question = _sample_inputs(model)
    cache, logits, imap, stats = pe.glimpse_prune_prefill(image, question, model)
    assert np.all(imap.p == 0.5)
    assert stats.Nv_kept == stats.Nv  # p == tau everywhere, >= keeps all
    assert stats.cache_len_after == stats.Nv + stats.Nt
    assert stats.cache_len_before == stats.Nv + stats.Nt + 1
    assert stats.retention_rate == 1.0
    assert stats.prefill_flops_counted > 0


def test_raising_tau_above_half_falls_back_to_argmax():
    model = _model()
    image, question = _sample_inputs(model)
    _, _, imap, stats = pe.glimpse_prune_prefill(image, question, model, tau=0.51)
    assert stats.Nv_kept == 1
    assert stats.keep.tolist() == [0]  # all p tie at 0.5, first argmax wins
    assert stats.cache_len_after == 1 + stats.Nt


def test_keep_all_reproduces_plain_baseline():
    model = _model()
    image, question = _sample_inputs(model)
    base_cache, logits_b = pe.baseline_prefill(image, question, model, with_glimpse=False)
    cache, logits_p, _, stats = pe.glimpse_prune_prefill(
        image, question, model, tau=0.0, r_max=1.0)
    assert stats.Nv_kept == stats.Nv
    assert np.abs(logits_p - logits_b).max() < 1e-10

    # Decoding from the keep-all pruned cache matches decoding from the
    # plain baseline cache, step by step.
    pos0 = stats.Nv + stats.Nt
    for t in range(4):
        tok_p, tok_b = int(np.argmax(logits_p)), int(np.argmax(logits_b))
        assert tok_p == tok_b
        logits_p = bb.decode_step(model.backbone, cache, tok_p, position=pos0 + t)
        logits_b = bb.decode_step(model.backbone, base_cache, tok_b, position=pos0 + t)
        assert np.abs(logits_p - logits_b).max() < 1e-10


@pytest.mark.parametrize("seed,keep_vis", [
    (0, [0]),
    (1, [2, 3, 11]),
    (2, [0, 1, 2, 3, 4, 5, 6, 7]),
    (3, [15]),
    (4, list(range(16))),
])
def test_pipeline_matches_reference_oracle(seed, keep_vis):
    model = _model(seed=seed)
    checks.oracle_equivalence(model, *_sample_inputs(model, seed=seed), 4, keep=keep_vis)


def test_dense_layers_capture_matches_cached_glimpse_attention():
    # training_forward reads its layer-K glimpse attention from this capture
    model = _model(seed=5)
    params, dcfg, vcfg = model.backbone, model.cfg, model.vcfg
    image, question = _sample_inputs(model, seed=5)
    embeds, _ = bb.encode_visual(image, vcfg, params)
    rows, cols = bb.grid_coords(vcfg.grid_h, vcfg.grid_w)
    seq = bb.append_glimpse(bb.TokenSequence(embeds, rows, cols, question), model.glimpse)
    x0 = bb.assemble_input_rows(seq, params, model.glimpse)
    S, gp = seq.total_len, seq.glimpse_pos
    cache = bb.KVCache(dcfg.L, dcfg.H, dcfg.head_dim)
    hidden, probs = bb.prefill_layers(params, x0, np.arange(S), cache, 1, dcfg.K,
                                      glimpse=model.glimpse, glimpse_pos=gp,
                                      capture_attn_at=dcfg.K)
    causal = np.arange(S)[None, :] <= np.arange(S)[:, None]
    x, a_rows = pe.dense_layers(params, x0, np.arange(S), causal, 1, dcfg.K,
                                glimpse=model.glimpse.matrix, gp=gp,
                                capture=(dcfg.K, gp, seq.nv))
    assert a_rows.shape == (seq.nv, dcfg.H)
    assert np.abs(a_rows.data - bb.extract_glimpse_attention(probs, seq)).max() < 1e-12
    assert np.abs(x.data - hidden).max() < 1e-10
    assert pe.dense_layers(params, x0, np.arange(S), causal, 1, 1)[1] is None


def test_oracle_keep_all_equals_baseline():
    model = _model()
    image, question = _sample_inputs(model)
    sel = SelectionResult(keep=np.arange(16), cap=16)
    ref = pe.reference_oracle(image, question, sel, model)
    _, base_logits = pe.baseline_prefill(image, question, model)
    assert np.abs(ref - base_logits).max() < 1e-10


def test_generate_contracts():
    model = _model()
    image, question = _sample_inputs(model)
    ids1, stats, flops1 = pe.generate(image, question, model, max_new=6,
                                      force_keep=[0, 5, 9])
    ids2, _, _ = pe.generate(image, question, model, max_new=6, force_keep=[0, 5, 9])
    assert ids1 == ids2
    assert len(ids1) == 6
    assert all(0 <= t < model.cfg.vocab for t in ids1)
    assert stats.Nv_kept == 3
    assert flops1 > 0
    with pytest.raises(ConfigError):
        pe.generate(image, question, model, max_new=0)


def test_decode_flops_drop_with_pruning():
    model = _model()
    image, question = _sample_inputs(model)
    _, _, flops_small = pe.generate(image, question, model, max_new=4,
                                    force_keep=[0, 1])
    _, _, flops_all = pe.generate(image, question, model, max_new=4,
                                  tau=0.0, r_max=1.0)
    assert flops_small < flops_all

    # Keep-all decoding costs exactly what the glimpse-free baseline costs:
    # the glimpse row is gone, so cache lengths agree.
    meter = FlopMeter()
    cache, logits = pe.baseline_prefill(image, question, model)
    before = meter.total()
    pos0 = 16 + len(question)
    for t in range(4):
        tok = int(np.argmax(logits))
        logits = bb.decode_step(model.backbone, cache, tok, position=pos0 + t, meter=meter)
    baseline_decode = meter.total() - before
    assert flops_all == baseline_decode


def test_stats_validation_catches_injected_fault():
    model = _model()
    image, question = _sample_inputs(model)
    pe.FAULT_INJECT = "drop-text-row"
    try:
        with pytest.raises(StateError):
            pe.glimpse_prune_prefill(image, question, model, force_keep=[0, 1, 2])
    finally:
        pe.FAULT_INJECT = None


def test_force_keep_deduplicates_and_validates():
    model = _model()
    image, question = _sample_inputs(model)
    _, _, _, stats = pe.glimpse_prune_prefill(image, question, model,
                                              force_keep=[3, 3, 1])
    assert stats.keep.tolist() == [1, 3]
    with pytest.raises(ConfigError):
        pe.glimpse_prune_prefill(image, question, model, force_keep=[])


def test_prune_layer_midpoint_variants():
    # The pipeline works at K = 1 (prune immediately) and K = L (prune at
    # the very top); oracle agreement holds at the extremes too.
    for K in (1, 4):
        model = _model(K=K)
        assert model.cfg.K == K
        checks.oracle_equivalence(model, *_sample_inputs(model), 0, keep=[1, 6, 10])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_generate_rejects_non_finite_logits():
    model = _model()
    image, question = _sample_inputs(model)
    model.backbone.w_out[1, 2] = np.nan
    with pytest.raises(NumericError, match="after prefill"):
        pe.generate(image, question, model, max_new=2)
    model.backbone.w_out[1, 2] = 0.0
    _, logits, _, _ = pe.glimpse_prune_prefill(image, question, model)
    tok = int(np.argmax(logits))
    assert tok not in question
    model.backbone.text_emb[tok, 3] = np.inf
    with pytest.raises(NumericError, match="at decode step 0"):
        pe.generate(image, question, model, max_new=2)
