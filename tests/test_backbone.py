"""Backbone tests: dense-forward oracle, cache contracts, glimpse behavior.

The oracle here recomputes the decoder with plain numpy matrix ops and a
full (S, S) causal mask, no cache, so any bookkeeping bug in the chunked
cache path shows up as a logits mismatch.
"""

import numpy as np
import pytest

from vtprune import backbone as bb
from vtprune.errors import ConfigError, ShapeError, StateError
from vtprune.numerics import FlopMeter, Rng


# ---------------------------------------------------------------------------
# Independent dense reference
# ---------------------------------------------------------------------------


def _rope_ref(x, positions, theta):
    S, H, dh = x.shape
    half = dh // 2
    freqs = theta ** (-2.0 * np.arange(half) / dh)
    ang = np.asarray(positions, dtype=np.float64)[:, None] * freqs[None, :]
    cos, sin = np.cos(ang)[:, None, :], np.sin(ang)[:, None, :]
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def _softmax_ref(scores):
    m = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - m)
    return e / e.sum(axis=-1, keepdims=True)


def _rms_ref(x, gain, eps):
    return x / np.sqrt((x * x).mean(axis=-1, keepdims=True) + eps) * gain


def dense_forward(params, x0, positions, glimpse=None, gp=None, capture_at=None):
    """Full-sequence decoder forward without any cache. Returns the final
    hidden rows and, if capture_at is set, the glimpse row's layer-K
    attention probabilities with shape (H, S)."""
    cfg = params.cfg
    S = x0.shape[0]
    dh = cfg.head_dim
    mask = np.where(np.arange(S)[None, :] <= np.arange(S)[:, None], 0.0, -np.inf)
    x = np.array(x0, dtype=np.float64)
    captured = None
    for layer in range(1, cfg.L + 1):
        li = layer - 1
        if glimpse is not None and gp is not None and layer >= 2:
            x = x.copy()
            x[gp] = x[gp] + glimpse.matrix[li]
        xn = _rms_ref(x, params.gain_attn[li], cfg.eps)
        q = _rope_ref((xn @ params.wq[li]).reshape(S, cfg.H, dh), positions, cfg.rope_theta)
        k = _rope_ref((xn @ params.wk[li]).reshape(S, cfg.H, dh), positions, cfg.rope_theta)
        v = (xn @ params.wv[li]).reshape(S, cfg.H, dh)
        scores = np.einsum("shd,thd->hst", q, k) / np.sqrt(dh) + mask[None]
        probs = _softmax_ref(scores)
        if capture_at == layer and gp is not None:
            captured = probs[:, gp, :].copy()
        attn = np.einsum("hst,thd->shd", probs, v).reshape(S, cfg.D)
        x = x + attn @ params.wo[li]
        xn2 = _rms_ref(x, params.gain_mlp[li], cfg.eps)
        g = xn2 @ params.w_gate[li]
        g = g * (1.0 / (1.0 + np.exp(-g)))  # silu
        x = x + (g * (xn2 @ params.w_up[li])) @ params.w_down[li]
    return x, captured


def _make_model(L=4, D=32, H=4, grid=4, nt=5, seed=0):
    """Frozen params, a glimpse, and a random image and question."""
    cfg = bb.DecoderConfig(L=L, D=D, H=H, ffn_dim=2 * D, vocab=16)
    vcfg = bb.VisualStubConfig(grid_h=grid, grid_w=grid, C=12, M=2, embed_dim=D, seed=seed + 7)
    params = bb.init_backbone(cfg, vcfg, Rng(seed))
    g = bb.init_glimpse(cfg, Rng(seed).derive("glimpse"))
    img_rng = Rng(seed + 100)
    image = img_rng.uniform_array((grid, grid, 3), 0.0, 255.0)
    text = [int(img_rng.randint(cfg.vocab)) for _ in range(nt)]
    return cfg, vcfg, params, g, image, text


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("L,D,H", [(4, 32, 4), (3, 16, 2), (6, 24, 4)])
def test_prefill_matches_dense_oracle(L, D, H, seed):
    cfg, _, params, g, image, text = _make_model(L=L, D=D, H=H, seed=seed)
    seq, _ = bb.embed_prompt(image, text, params, g)
    x0 = seq.embeddings
    positions = np.arange(seq.total_len)
    cache = bb.KVCache(cfg.L, cfg.H, cfg.head_dim)
    hidden, probs = bb.prefill_layers(
        params, x0, positions, cache, 1, cfg.L,
        glimpse=g, glimpse_pos=seq.glimpse_pos, capture_attn_at=cfg.K)
    ref_hidden, ref_probs = dense_forward(
        params, x0, positions, glimpse=g, gp=seq.glimpse_pos, capture_at=cfg.K)
    assert np.abs(hidden - ref_hidden).max() < 1e-10
    assert np.abs(probs - ref_probs).max() < 1e-12
    logits = bb.lm_logits(params, hidden)
    ref_logits = _rms_ref(ref_hidden, params.final_gain, cfg.eps) @ params.w_out
    assert np.abs(logits - ref_logits).max() < 1e-10


def test_layer_range_split_is_bit_exact():
    cfg, _, params, g, image, text = _make_model()
    seq, _ = bb.embed_prompt(image, text, params, g)
    x0 = seq.embeddings
    pos = np.arange(seq.total_len)

    cache_a = bb.KVCache(cfg.L, cfg.H, cfg.head_dim)
    full, _ = bb.prefill_layers(params, x0, pos, cache_a, 1, cfg.L,
                                glimpse=g, glimpse_pos=seq.glimpse_pos)

    cache_b = bb.KVCache(cfg.L, cfg.H, cfg.head_dim)
    mid, _ = bb.prefill_layers(params, x0, pos, cache_b, 1, cfg.K,
                               glimpse=g, glimpse_pos=seq.glimpse_pos)
    out, _ = bb.prefill_layers(params, mid, pos, cache_b, cfg.K + 1, cfg.L,
                               glimpse=g, glimpse_pos=seq.glimpse_pos)
    assert np.array_equal(full, out)
    for li in range(cfg.L):
        assert np.array_equal(cache_a.k[li], cache_b.k[li])
        assert np.array_equal(cache_a.v[li], cache_b.v[li])


def test_decode_step_matches_fresh_prefill():
    cfg, _, params, _, image, text = _make_model()
    seq, _ = bb.embed_prompt(image, text, params, None)
    pos = np.arange(seq.total_len)
    cache = bb.KVCache(cfg.L, cfg.H, cfg.head_dim)
    hidden, _ = bb.prefill_layers(params, seq.embeddings, pos, cache, 1, cfg.L)
    logits = bb.lm_logits(params, hidden[-1:])[0]

    generated = []
    for step in range(4):
        tok = int(np.argmax(logits))
        generated.append(tok)
        logits = bb.decode_step(params, cache, tok, position=seq.total_len + step)

        # Re-prefill the extended sequence from scratch. The two paths chunk
        # the sequence differently, which shifts where numpy's vectorized
        # exp kernel places its remainder lanes, so agreement is to a tight
        # tolerance rather than bit-for-bit.
        ext, _ = bb.embed_prompt(image, text + generated, params, None)
        cache2 = bb.KVCache(cfg.L, cfg.H, cfg.head_dim)
        h2, _ = bb.prefill_layers(params, ext.embeddings, np.arange(ext.total_len), cache2,
                                  1, cfg.L)
        ref = bb.lm_logits(params, h2[-1:])[0]
        assert np.abs(logits - ref).max() < 1e-10
        assert int(np.argmax(logits)) == int(np.argmax(ref))


def test_glimpse_rows_are_all_consumed():
    # Zeroing any single glimpse row must change the glimpse position's
    # final hidden state (each row enters at a distinct layer).
    cfg, _, params, g, image, text = _make_model()

    def run(matrix):
        gg = bb.GlimpseEmbeddings(matrix=matrix)
        seq, _ = bb.embed_prompt(image, text, params, gg)
        cache = bb.KVCache(cfg.L, cfg.H, cfg.head_dim)
        hidden, _ = bb.prefill_layers(params, seq.embeddings, np.arange(seq.total_len), cache,
                                      1, cfg.L, glimpse=gg, glimpse_pos=seq.glimpse_pos)
        return hidden[seq.glimpse_pos]

    base = run(g.matrix)
    for row in range(cfg.L):
        m = g.matrix.copy()
        m[row] = 0.0
        assert not np.allclose(run(m), base, atol=1e-12), f"row {row} had no effect"


def test_glimpse_attention_uniform_when_keys_constant():
    cfg, _, params, g, image, text = _make_model()
    seq, _ = bb.embed_prompt(image, text, params, g)
    params.wk[cfg.K - 1] = np.zeros_like(params.wk[cfg.K - 1])
    cache = bb.KVCache(cfg.L, cfg.H, cfg.head_dim)
    _, probs = bb.prefill_layers(params, seq.embeddings, np.arange(seq.total_len), cache,
                                 1, cfg.L, glimpse=g, glimpse_pos=seq.glimpse_pos,
                                 capture_attn_at=cfg.K)
    S = seq.total_len
    assert probs.shape == (cfg.H, S)
    # All keys identical (zero) at layer K; rotation keeps them identical
    # per position pair up to the rotary angle, but zero stays zero, so
    # every score ties and the glimpse row is uniform over all S columns.
    assert np.abs(probs - 1.0 / S).max() < 1e-12


def test_embed_prompt_layout():
    cfg, vcfg, params, g, image, text = _make_model()
    embeds, levels = bb.encode_visual(image, vcfg, params)
    seq, seq_levels = bb.embed_prompt(image, text, params, g)
    nv, nt = vcfg.nv, len(text)
    assert (seq.nv, seq.nt, seq.total_len, seq.glimpse_pos) == (nv, nt, nv + nt + 1, nv + nt)
    assert np.array_equal(seq.embeddings[:nv], embeds)
    assert np.array_equal(seq.embeddings[nv : nv + nt], params.text_emb[text])
    assert np.array_equal(seq.embeddings[-1], g.matrix[0])
    assert np.array_equal(seq_levels, levels)
    plain, _ = bb.embed_prompt(image, text, params, None)
    assert np.array_equal(plain.embeddings, seq.embeddings[:-1])
    assert plain.total_len == nv + nt and not plain.glimpse_present
    with pytest.raises(StateError):
        _ = plain.glimpse_pos


# ---------------------------------------------------------------------------
# Cache contracts
# ---------------------------------------------------------------------------


def test_cache_lengths_through_staged_prefill_and_decode():
    cfg, _, params, g, image, text = _make_model()
    seq, _ = bb.embed_prompt(image, text, params, g)
    S = seq.total_len
    cache = bb.KVCache(cfg.L, cfg.H, cfg.head_dim)

    mid, _ = bb.prefill_layers(params, seq.embeddings, np.arange(S), cache, 1, cfg.K,
                               glimpse=g, glimpse_pos=seq.glimpse_pos)
    assert cache.lengths() == [S] * cfg.K + [0] * (cfg.L - cfg.K)
    with pytest.raises(StateError):
        cache.uniform_len()

    bb.prefill_layers(params, mid, np.arange(S), cache, cfg.K + 1, cfg.L,
                      glimpse=g, glimpse_pos=seq.glimpse_pos)
    assert cache.uniform_len() == S
    assert cache.element_count() == 2 * cfg.L * S * cfg.D

    bb.decode_step(params, cache, 0, position=S)
    assert cache.uniform_len() == S + 1


def test_cache_prune_keep_gathers_rows():
    cache = bb.KVCache(2, 2, 4)
    rng = Rng(3)
    k = rng.uniform_array((6, 2, 4), -1, 1)
    v = rng.uniform_array((6, 2, 4), -1, 1)
    cache.append(0, k, v)
    cache.prune_keep([0, 2, 5])
    assert cache.lengths() == [3, 0]
    assert np.array_equal(cache.k[0], k[[0, 2, 5]])
    assert np.array_equal(cache.v[0], v[[0, 2, 5]])
    with pytest.raises(IndexError):
        cache.prune_keep([7])


def test_token_ids_outside_vocab_rejected():
    cfg, _, params, g, image, text = _make_model()
    for bad in (-1, cfg.vocab):
        with pytest.raises(ConfigError, match="token id"):
            bb.embed_prompt(image, [0, bad, 1], params, g)
    seq, _ = bb.embed_prompt(image, text, params, None)
    S = seq.total_len
    cache = bb.KVCache(cfg.L, cfg.H, cfg.head_dim)
    bb.prefill_layers(params, seq.embeddings, np.arange(S), cache, 1, cfg.L)
    for bad in (-1, cfg.vocab):
        with pytest.raises(ConfigError, match="token id"):
            bb.decode_step(params, cache, bad, position=S)
    assert cache.uniform_len() == S  # a rejected step appends nothing


# ---------------------------------------------------------------------------
# Visual stub
# ---------------------------------------------------------------------------


def test_encode_visual_shapes_and_determinism():
    cfg, vcfg, params, _, _, _ = _make_model()
    image = Rng(9).uniform_array((vcfg.grid_h, vcfg.grid_w, 3), 0.0, 255.0)
    e1, f1 = bb.encode_visual(image, vcfg, params)
    e2, f2 = bb.encode_visual(image, vcfg, params)
    assert e1.shape == (vcfg.nv, cfg.D)
    assert f1.shape == (vcfg.M, vcfg.nv, vcfg.C)
    assert np.array_equal(e1, e2) and np.array_equal(f1, f2)
    with pytest.raises(ShapeError):
        bb.encode_visual(image[:-1], vcfg, params)


def test_encode_visual_levels_pool_neighborhoods():
    cfg, vcfg, params, _, _, _ = _make_model()
    # A constant image is a fixed point of neighborhood averaging, so all
    # levels project the same constant pixel and every row within a level
    # is identical.
    image = np.full((vcfg.grid_h, vcfg.grid_w, 3), 120.0)
    _, feats = bb.encode_visual(image, vcfg, params)
    for m in range(vcfg.M):
        assert np.abs(feats[m] - feats[m][0]).max() < 1e-12
    # A single bright pixel spreads into its neighbors at level 1 but not
    # beyond distance one.
    image2 = np.zeros((vcfg.grid_h, vcfg.grid_w, 3))
    image2[0, 0] = 255.0
    _, feats2 = bb.encode_visual(image2, vcfg, params)
    lvl1 = feats2[1].reshape(vcfg.grid_h, vcfg.grid_w, vcfg.C)
    assert np.abs(lvl1[0, 1]).max() > 0
    assert np.abs(lvl1[1, 1]).max() > 0
    assert np.abs(lvl1[0, 3]).max() == 0


def _box_mean_per_cell(grid):
    """np.mean over each cell's in-bounds 3x3 block, one cell at a time."""
    h, w, c = grid.shape
    out = np.empty_like(grid)
    for r in range(h):
        for cc in range(w):
            block = grid[max(0, r - 1) : r + 2, max(0, cc - 1) : cc + 2]
            out[r, cc] = block.reshape(-1, c).mean(axis=0)
    return out


@pytest.mark.parametrize("h,w", [(1, 1), (1, 5), (2, 3), (7, 3), (8, 8), (16, 16), (32, 32)])
def test_box_mean_matches_per_cell_mean_bytes(h, w):
    grid = Rng(h * 100 + w).uniform_array((h, w, 3), 0.0, 1.0)
    grid.flat[::7] = 0.0
    grid.flat[::11] = -0.0
    once = bb._box_mean(grid)
    assert once.tobytes() == _box_mean_per_cell(grid).tobytes()
    assert bb._box_mean(once).tobytes() == _box_mean_per_cell(once).tobytes()


def test_visual_seed_controls_projection():
    cfg = bb.DecoderConfig()
    a = bb.init_backbone(cfg, bb.VisualStubConfig(seed=1), Rng(0))
    b = bb.init_backbone(cfg, bb.VisualStubConfig(seed=2), Rng(0))
    assert not np.array_equal(a.w_visual, b.w_visual)
    assert np.array_equal(a.wq[0], b.wq[0])  # decoder untouched by stub seed


# ---------------------------------------------------------------------------
# Config and misc
# ---------------------------------------------------------------------------


def test_default_prune_layer_values():
    assert bb.default_prune_layer(4) == 3
    assert bb.default_prune_layer(28) == 19
    assert bb.default_prune_layer(32) == 22
    assert bb.default_prune_layer(36) == 24
    assert bb.default_prune_layer(40) == 27
    with pytest.raises(ConfigError):
        bb.default_prune_layer(0)


def test_decoder_config_validation():
    assert bb.DecoderConfig(L=6).K == 4
    with pytest.raises(ConfigError):
        bb.DecoderConfig(D=30, H=4)
    with pytest.raises(ConfigError):
        bb.DecoderConfig(L=4, K=5)
    with pytest.raises(ConfigError):
        bb.init_backbone(bb.DecoderConfig(D=32), bb.VisualStubConfig(embed_dim=16), Rng(0))


def test_meter_buckets_populated():
    cfg, _, params, g, image, text = _make_model()
    meter = FlopMeter()
    seq, _ = bb.embed_prompt(image, text, params, g, meter=meter)
    cache = bb.KVCache(cfg.L, cfg.H, cfg.head_dim)
    hidden, _ = bb.prefill_layers(params, seq.embeddings, np.arange(seq.total_len), cache,
                                  1, cfg.L, glimpse=g, glimpse_pos=seq.glimpse_pos, meter=meter)
    bb.lm_logits(params, hidden[-1:], meter=meter)
    assert meter.get("visual") > 0
    assert meter.get("decoder") > 0
    assert meter.get("lm_head") == 2 * cfg.D * cfg.vocab
    assert meter.total() == meter.get("visual") + meter.get("decoder") + meter.get("lm_head")
