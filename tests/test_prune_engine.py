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
from vtprune.numerics import FlopMeter
from vtprune.vip import SelectionResult

from toymodel import toy_inputs, toy_model


def test_build_model_is_deterministic_and_seed_sensitive():
    a, b, c = toy_model(seed=1), toy_model(seed=1), toy_model(seed=2)
    assert np.array_equal(a.backbone.wq[0], b.backbone.wq[0])
    assert np.array_equal(a.glimpse.matrix, b.glimpse.matrix)
    assert not np.array_equal(a.backbone.wq[0], c.backbone.wq[0])
    assert np.all(a.vip.head_w == 0.0)


# ---------------------------------------------------------------------------
# prune_state
# ---------------------------------------------------------------------------


def _prefilled_state(model, keep_vis, nt=5, seed=0):
    image, question = toy_inputs(model, nt=nt, seed=seed)
    params, dcfg = model.backbone, model.cfg
    seq, _ = bb.embed_prompt(image, question, params, model.glimpse)
    cache = bb.KVCache(dcfg.L, dcfg.H, dcfg.head_dim)
    hidden, _ = bb.prefill_layers(params, seq.embeddings, np.arange(seq.total_len), cache,
                                  1, dcfg.K, glimpse=model.glimpse, glimpse_pos=seq.glimpse_pos)
    sel = SelectionResult(keep=np.asarray(keep_vis, dtype=np.int64), cap=seq.nv)
    return seq, cache, hidden, sel


def test_prune_state_matches_slice_oracle():
    model = toy_model()
    keep_vis = [1, 4, 7, 9, 15]
    seq, cache, hidden, sel = _prefilled_state(model, keep_vis)
    # Fresh prefill for the oracle before the shared cache is compacted.
    _, cache_ref, hidden_ref, _ = _prefilled_state(model, keep_vis)
    hp, positions = pe.prune_state(hidden, cache, sel, seq)

    keep_rows = np.array(keep_vis + list(range(seq.nv, seq.nv + seq.nt)))
    assert np.array_equal(positions, keep_rows)
    assert np.array_equal(hp, hidden_ref[keep_rows])
    K = model.cfg.K
    for li in range(K):
        assert np.array_equal(cache.k[li], cache_ref.k[li][keep_rows])
        assert np.array_equal(cache.v[li], cache_ref.v[li][keep_rows])
    for li in range(K, model.cfg.L):
        assert cache.layer_len(li) == 0


def test_prune_state_keep_all_drops_only_glimpse():
    model = toy_model()
    nv = model.vcfg.nv
    seq, cache, hidden, sel = _prefilled_state(model, list(range(nv)))
    before_k = [kl.copy() for kl in cache.k]
    hp, positions = pe.prune_state(hidden, cache, sel, seq)
    n = seq.nv + seq.nt
    assert hp.shape[0] == n
    assert np.array_equal(positions, np.arange(n))
    for li in range(model.cfg.K):
        assert cache.layer_len(li) == n
        assert np.array_equal(cache.k[li], before_k[li][:n])


def test_prune_state_keep_one_token():
    model = toy_model(grid=(2, 2))  # Nv = 4
    seq, cache, hidden, sel = _prefilled_state(model, [0], nt=2)
    hp, _ = pe.prune_state(hidden, cache, sel, seq)
    assert hp.shape[0] == 3
    for li in range(model.cfg.K):
        assert cache.layer_len(li) == 3


def test_prune_state_rejects_bad_indices():
    model = toy_model()
    seq, cache, hidden, _ = _prefilled_state(model, [0])
    bad = SelectionResult(keep=np.array([model.vcfg.nv]), cap=model.vcfg.nv)
    with pytest.raises(IndexError):
        pe.prune_state(hidden, cache, bad, seq)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def test_untrained_predictor_keeps_everything_at_default_tau():
    model = toy_model()
    image, question = toy_inputs(model)
    cache, logits, imap, stats = pe.glimpse_prune_prefill(image, question, model)
    assert np.all(imap.p == 0.5)
    assert stats.Nv_kept == stats.Nv  # p == tau everywhere, >= keeps all
    assert stats.cache_len_after == stats.Nv + stats.Nt
    assert stats.cache_len_before == stats.Nv + stats.Nt + 1
    assert stats.retention_rate == 1.0
    assert stats.prefill_flops_counted > 0


def test_raising_tau_above_half_falls_back_to_argmax():
    model = toy_model()
    image, question = toy_inputs(model)
    _, _, imap, stats = pe.glimpse_prune_prefill(image, question, model, tau=0.51)
    assert stats.Nv_kept == 1
    assert stats.keep.tolist() == [0]  # all p tie at 0.5, first argmax wins
    assert stats.cache_len_after == 1 + stats.Nt


def test_keep_all_reproduces_plain_baseline():
    model = toy_model()
    checks.keep_all_neutrality(model, *toy_inputs(model))


@pytest.mark.parametrize("seed,keep_vis", [
    (0, [0]),
    (1, [2, 3, 11]),
    (2, [0, 1, 2, 3, 4, 5, 6, 7]),
    (3, [15]),
    (4, list(range(16))),
])
def test_pipeline_matches_reference_oracle(seed, keep_vis):
    model = toy_model(seed=seed)
    checks.oracle_equivalence(model, *toy_inputs(model, seed=seed), 4, keep=keep_vis)


def test_dense_layers_capture_matches_cached_glimpse_attention():
    # training_forward reads its layer-K glimpse attention from this capture
    model = toy_model(seed=5)
    params, dcfg = model.backbone, model.cfg
    image, question = toy_inputs(model, seed=5)
    seq, _ = bb.embed_prompt(image, question, params, model.glimpse)
    x0, S, gp = seq.embeddings, seq.total_len, seq.glimpse_pos
    cache = bb.KVCache(dcfg.L, dcfg.H, dcfg.head_dim)
    hidden, probs = bb.prefill_layers(params, x0, np.arange(S), cache, 1, dcfg.K,
                                      glimpse=model.glimpse, glimpse_pos=gp,
                                      capture_attn_at=dcfg.K)
    causal = np.arange(S)[None, :] <= np.arange(S)[:, None]
    x, a_rows = pe.dense_layers(params, x0, np.arange(S), causal, 1, dcfg.K,
                                glimpse=model.glimpse.matrix, gp=gp,
                                capture=(dcfg.K, gp, seq.nv))
    assert a_rows.shape == (seq.nv, dcfg.H)
    assert np.abs(a_rows.data - probs[:, : seq.nv].T).max() < 1e-12
    assert np.abs(x.data - hidden).max() < 1e-10
    assert pe.dense_layers(params, x0, np.arange(S), causal, 1, 1)[1] is None


def test_predictor_reads_raw_visual_glimpse_attention(monkeypatch):
    model = toy_model()
    cfg = model.cfg
    image, question = toy_inputs(model)
    # Zero keys at layer K tie every score, so the glimpse row attends
    # uniformly over all S columns.
    model.backbone.wk[cfg.K - 1] = np.zeros_like(model.backbone.wk[cfg.K - 1])
    seen = []

    def spy(A, *args, **kwargs):
        seen.append(A)
        return real(A, *args, **kwargs)

    real = pe.vip_forward
    monkeypatch.setattr(pe, "vip_forward", spy)
    _, _, _, stats = pe.glimpse_prune_prefill(image, question, model)
    (A,) = seen
    nv, S = stats.Nv, stats.cache_len_before
    assert A.shape == (nv, cfg.H)
    assert np.abs(A - 1.0 / S).max() < 1e-12
    # Visual mass is Nv/S, strictly less than one: the text share is kept
    # as missing probability, not renormalized away.
    assert np.abs(A.sum(axis=0) - nv / S).max() < 1e-12


def test_oracle_keep_all_equals_baseline():
    model = toy_model()
    image, question = toy_inputs(model)
    sel = SelectionResult(keep=np.arange(16), cap=16)
    ref = pe.reference_oracle(image, question, sel, model)
    _, base_logits = pe.baseline_prefill(image, question, model)
    assert np.abs(ref - base_logits).max() < 1e-10


def test_generate_contracts():
    model = toy_model()
    image, question = toy_inputs(model)
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
    model = toy_model()
    image, question = toy_inputs(model)
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
    model = toy_model()
    image, question = toy_inputs(model)
    pe.FAULT_INJECT = "drop-text-row"
    try:
        with pytest.raises(StateError):
            pe.glimpse_prune_prefill(image, question, model, force_keep=[0, 1, 2])
    finally:
        pe.FAULT_INJECT = None


def test_force_keep_deduplicates_and_validates():
    model = toy_model()
    image, question = toy_inputs(model)
    _, _, _, stats = pe.glimpse_prune_prefill(image, question, model,
                                              force_keep=[3, 3, 1])
    assert stats.keep.tolist() == [1, 3]
    with pytest.raises(ConfigError):
        pe.glimpse_prune_prefill(image, question, model, force_keep=[])


def test_prune_layer_midpoint_variants():
    # The pipeline works at K = 1 (prune immediately) and K = L (prune at
    # the very top); oracle agreement holds at the extremes too.
    for K in (1, 4):
        model = toy_model(K=K)
        assert model.cfg.K == K
        checks.oracle_equivalence(model, *toy_inputs(model), 0, keep=[1, 6, 10])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_generate_rejects_non_finite_logits():
    model = toy_model()
    image, question = toy_inputs(model)
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
