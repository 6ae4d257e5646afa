"""Toy decoder-only vision-language backbone.

The model consumed here is deliberately small but structurally faithful:
a seeded visual front end turns a pixel grid into one projected token per
patch plus M levels of multi-scale features, and a pre-norm causal
decoder (RMSNorm, rotary attention, gated MLP) runs over the layout
``[visual | text | glimpse?]`` with a per-layer KV cache.
:func:`embed_prompt` is the one place that lays those input rows out.

The glimpse token is a learnable L x D matrix: row 0 is appended to the
input sequence as one extra embedding, and row l-1 is added to the hidden
state at the glimpse position at the input of layer l (for l >= 2), so
every row is consumed exactly once over a full-depth pass. Because the
attention is causal and the glimpse sits last, its presence cannot change
any other position's hidden state; that non-perturbation property is
load-bearing and tested.

All backbone weights are frozen after seeding. Only the glimpse matrix
(and the importance predictor, see :mod:`vtprune.vip`) ever train.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError, StateError
from .numerics import (
    FlopMeter,
    Rng,
    attention,
    matmul,
    rms_norm_rows,
    rope_1d,
)

__all__ = [
    "DecoderConfig",
    "VisualStubConfig",
    "TokenSequence",
    "KVCache",
    "GlimpseEmbeddings",
    "BackboneParams",
    "default_prune_layer",
    "grid_coords",
    "encode_visual",
    "embed_prompt",
    "init_backbone",
    "init_glimpse",
    "prefill_layers",
    "decode_step",
    "lm_logits",
]


def default_prune_layer(L: int) -> int:
    """Default prune layer: ceil(2L/3), two thirds of the way up."""
    if L < 1:
        raise ConfigError(f"layer count must be >= 1, got {L}")
    return (2 * L + 2) // 3  # integer ceil: no float overflow on a huge L


@dataclass
class DecoderConfig:
    L: int = 4
    D: int = 32
    H: int = 8
    ffn_dim: int = 64
    vocab: int = 16
    K: int | None = None
    rope_theta: float = 10000.0
    eps: float = 1e-6

    def __post_init__(self) -> None:
        if min(self.L, self.D, self.H, self.ffn_dim, self.vocab) < 1:
            raise ConfigError("L, D, H, ffn_dim and vocab must be positive")
        if self.K is None:
            self.K = default_prune_layer(self.L)
        if self.D % self.H != 0:
            raise ConfigError(f"hidden size {self.D} not divisible by {self.H} heads")
        if (self.D // self.H) % 2 != 0:
            raise ConfigError("head_dim must be even for rotary encoding")
        if not 1 <= self.K <= self.L:
            raise ConfigError(f"prune layer {self.K} outside 1..{self.L}")

    @property
    def head_dim(self) -> int:
        return self.D // self.H


@dataclass
class VisualStubConfig:
    grid_h: int = 8
    grid_w: int = 8
    C: int = 12
    M: int = 2
    embed_dim: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.grid_h, self.grid_w, self.C, self.embed_dim) < 1:
            raise ConfigError("grid dimensions, C and embed_dim must be positive")
        if self.M < 1:
            raise ConfigError("need at least one feature level")

    @property
    def nv(self) -> int:
        return self.grid_h * self.grid_w


@dataclass
class TokenSequence:
    """Input rows of the layout [visual | text | glimpse?], (total_len, D)."""

    embeddings: np.ndarray
    nv: int
    nt: int
    glimpse_present: bool

    @property
    def total_len(self) -> int:
        return self.nv + self.nt + (1 if self.glimpse_present else 0)

    @property
    def glimpse_pos(self) -> int:
        if not self.glimpse_present:
            raise StateError("sequence has no glimpse token")
        return self.nv + self.nt


@dataclass
class GlimpseEmbeddings:
    """Learnable per-layer glimpse embeddings, one row per decoder layer."""

    matrix: np.ndarray  # (L, D)


class KVCache:
    """Per-layer key/value storage, keys and values shaped (len, H, head_dim).

    Length changes only through :meth:`append` (prefill and decode) or
    :meth:`prune_keep` (the one-shot pruning event). Between pipeline
    stages individual layers may transiently hold different lengths; at
    every rest point all layers agree, which :meth:`uniform_len` asserts.
    """

    def __init__(self, L: int, H: int, head_dim: int) -> None:
        self.k: list[np.ndarray] = [np.zeros((0, H, head_dim)) for _ in range(L)]
        self.v: list[np.ndarray] = [np.zeros((0, H, head_dim)) for _ in range(L)]

    @property
    def layers(self) -> int:
        return len(self.k)

    def layer_len(self, layer0: int) -> int:
        return self.k[layer0].shape[0]

    def lengths(self) -> list[int]:
        return [kl.shape[0] for kl in self.k]

    def uniform_len(self) -> int:
        lens = set(self.lengths())
        if len(lens) != 1:
            raise StateError(f"cache layers disagree on length: {self.lengths()}")
        return lens.pop()

    def append(self, layer0: int, k_rows: np.ndarray, v_rows: np.ndarray) -> None:
        self.k[layer0] = np.concatenate([self.k[layer0], k_rows], axis=0)
        self.v[layer0] = np.concatenate([self.v[layer0], v_rows], axis=0)

    def prune_keep(self, keep_rows) -> None:
        """Gather ``keep_rows`` (ascending cache row indices) in every
        non-empty layer; empty layers have not been filled yet and are
        left alone."""
        idx = np.asarray(keep_rows, dtype=np.int64)
        for layer0 in range(self.layers):
            if self.k[layer0].shape[0] == 0:
                continue
            if idx.size and (idx.min() < 0 or idx.max() >= self.k[layer0].shape[0]):
                raise IndexError(f"keep rows out of range for cache layer {layer0}")
            self.k[layer0] = self.k[layer0][idx].copy()
            self.v[layer0] = self.v[layer0][idx].copy()

    def element_count(self) -> int:
        """Total stored scalars: sum over layers of 2 * len * H * head_dim."""
        return sum(kl.size + vl.size for kl, vl in zip(self.k, self.v))


@dataclass
class BackboneParams:
    """Frozen decoder and visual-stub weights plus their configs."""

    cfg: DecoderConfig
    vcfg: VisualStubConfig
    wq: list[np.ndarray]
    wk: list[np.ndarray]
    wv: list[np.ndarray]
    wo: list[np.ndarray]
    gain_attn: list[np.ndarray]
    gain_mlp: list[np.ndarray]
    w_gate: list[np.ndarray]
    w_up: list[np.ndarray]
    w_down: list[np.ndarray]
    final_gain: np.ndarray
    w_out: np.ndarray  # (D, vocab), untied head
    text_emb: np.ndarray  # (vocab, D)
    w_visual: np.ndarray  # (3, D) pixel projection for token embeddings
    w_levels: list[np.ndarray] = field(default_factory=list)  # M of (3, C)

    def all_arrays(self) -> list[np.ndarray]:
        out = [self.final_gain, self.w_out, self.text_emb, self.w_visual]
        out += self.w_levels
        for group in (self.wq, self.wk, self.wv, self.wo, self.gain_attn,
                      self.gain_mlp, self.w_gate, self.w_up, self.w_down):
            out += list(group)
        return out


def init_backbone(cfg: DecoderConfig, vcfg: VisualStubConfig, rng: Rng) -> BackboneParams:
    """Seeded scaled-uniform initialization of every frozen weight."""
    if vcfg.embed_dim != cfg.D:
        raise ConfigError(f"visual embed_dim {vcfg.embed_dim} must equal decoder D {cfg.D}")
    wq, wk, wv, wo = [], [], [], []
    gain_attn, gain_mlp = [], []
    w_gate, w_up, w_down = [], [], []
    for layer in range(cfg.L):
        sub = rng.derive(f"layer{layer}")
        wq.append(sub.scaled_uniform(cfg.D, cfg.D))
        wk.append(sub.scaled_uniform(cfg.D, cfg.D))
        wv.append(sub.scaled_uniform(cfg.D, cfg.D))
        wo.append(sub.scaled_uniform(cfg.D, cfg.D))
        w_gate.append(sub.scaled_uniform(cfg.D, cfg.ffn_dim))
        w_up.append(sub.scaled_uniform(cfg.D, cfg.ffn_dim))
        w_down.append(sub.scaled_uniform(cfg.ffn_dim, cfg.D))
        gain_attn.append(np.ones(cfg.D))
        gain_mlp.append(np.ones(cfg.D))
    head_rng = rng.derive("head")
    emb_rng = rng.derive("embeddings")
    stub_rng = Rng(vcfg.seed)
    return BackboneParams(
        cfg=cfg,
        vcfg=vcfg,
        wq=wq, wk=wk, wv=wv, wo=wo,
        gain_attn=gain_attn, gain_mlp=gain_mlp,
        w_gate=w_gate, w_up=w_up, w_down=w_down,
        final_gain=np.ones(cfg.D),
        w_out=head_rng.scaled_uniform(cfg.D, cfg.vocab),
        text_emb=emb_rng.uniform_array((cfg.vocab, cfg.D), -0.5, 0.5),
        w_visual=stub_rng.derive("embed").scaled_uniform(3, cfg.D),
        w_levels=[stub_rng.derive(f"level{m}").scaled_uniform(3, vcfg.C) for m in range(vcfg.M)],
    )


def init_glimpse(cfg: DecoderConfig, rng: Rng) -> GlimpseEmbeddings:
    scale = 1.0 / math.sqrt(cfg.D)
    return GlimpseEmbeddings(matrix=rng.uniform_array((cfg.L, cfg.D), -scale, scale))


# ---------------------------------------------------------------------------
# Visual front end
# ---------------------------------------------------------------------------


def grid_coords(grid_h: int, grid_w: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(grid_h * grid_w)
    return idx // grid_w, idx % grid_w


def _box_mean(grid: np.ndarray) -> np.ndarray:
    """3x3 neighborhood mean with edge cells averaging their in-bounds
    neighbors only."""
    h, w, _ = grid.shape
    # each cell sums its in-bounds neighbours from 0.0 in row-major order,
    # the additions np.mean makes over the cell's block, bit for bit
    total = np.zeros(grid.shape)
    count = np.zeros((h, w, 1))
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            # cells whose neighbour at (dr, dc) lies inside the grid
            dst = slice(max(0, -dr), h - max(0, dr)), slice(max(0, -dc), w - max(0, dc))
            src = slice(max(0, dr), h + min(0, dr)), slice(max(0, dc), w + min(0, dc))
            total[dst] += grid[src]
            count[dst] += 1.0
    return total / count


def encode_visual(image: np.ndarray, cfg: VisualStubConfig, params: BackboneParams,
                  meter: FlopMeter | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Project a pixel grid into (Nv, D) decoder tokens and (M, Nv, C)
    feature levels.

    Level 0 projects raw pixel colors; level m first applies m rounds of
    3x3 neighborhood averaging, so deeper levels carry coarser spatial
    context. Everything is a fixed seeded projection: the front end never
    trains.
    """
    image = np.asarray(image)
    if image.shape != (cfg.grid_h, cfg.grid_w, 3):
        raise ShapeError(f"image shape {image.shape} does not match grid {cfg.grid_h}x{cfg.grid_w}x3")
    px = image.astype(np.float64) / 255.0
    flat = px.reshape(cfg.nv, 3)
    ctx = meter.bucket("visual") if meter is not None else nullcontext()
    with ctx:
        embeds = matmul(flat, params.w_visual)
        levels = []
        pooled = px
        for m in range(cfg.M):
            if m > 0:
                pooled = _box_mean(pooled)
            levels.append(matmul(pooled.reshape(cfg.nv, 3), params.w_levels[m]))
    return embeds, np.stack(levels, axis=0)


# ---------------------------------------------------------------------------
# Input layout
# ---------------------------------------------------------------------------


def _check_token_ids(ids, vocab: int) -> None:
    """Reject ids outside the vocabulary: indexing the embedding table
    would wrap a negative id to a real row and fail on a large one."""
    for t in ids:
        if not 0 <= t < vocab:
            raise ConfigError(f"token id {t} outside the vocabulary 0..{vocab - 1}")


def embed_prompt(image, question_ids, params: BackboneParams,
                 glimpse: GlimpseEmbeddings | None,
                 meter: FlopMeter | None = None) -> tuple[TokenSequence, np.ndarray]:
    """Encode the image and lay out the input rows [visual | question | glimpse?].

    With ``glimpse`` set, its row 0 is the last input row; later rows
    enter inside :func:`prefill_layers`. Returns (sequence, the (M, Nv, C)
    feature levels).
    """
    _check_token_ids(question_ids, params.cfg.vocab)
    embeds, levels = encode_visual(image, params.vcfg, params, meter=meter)
    parts = [embeds, params.text_emb[np.asarray(question_ids, dtype=np.int64)]]
    if glimpse is not None:
        parts.append(glimpse.matrix[0:1])
    seq = TokenSequence(np.concatenate(parts, axis=0), embeds.shape[0], len(question_ids),
                        glimpse is not None)
    return seq, levels


# ---------------------------------------------------------------------------
# Decoder forward
# ---------------------------------------------------------------------------


def _layer_forward(params: BackboneParams, layer: int, x: np.ndarray,
                   positions: np.ndarray, cache: KVCache,
                   capture_row: int | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """One decoder layer over a chunk of new rows.

    ``layer`` is 1-based. The chunk's keys/values are appended to the
    cache first, then each chunk row attends causally over every cache row
    up to and including itself (cache order is arrival order, which is
    what makes pruned caches just work). Returns the new hidden rows and,
    if ``capture_row`` is set, that row's per-head attention probabilities
    over the cache, shape (H, cache_len).
    """
    cfg = params.cfg
    li = layer - 1
    s = x.shape[0]
    H, dh = cfg.H, cfg.head_dim
    offset = cache.layer_len(li)

    xn = rms_norm_rows(x, params.gain_attn[li], cfg.eps)
    q = matmul(xn, params.wq[li]).reshape(s, H, dh)
    k = matmul(xn, params.wk[li]).reshape(s, H, dh)
    v = matmul(xn, params.wv[li]).reshape(s, H, dh)
    q = rope_1d(q, positions, cfg.rope_theta)
    k = rope_1d(k, positions, cfg.rope_theta)
    cache.append(li, k, v)

    total = offset + s
    # every head at once: (H, s, dh) @ (H, dh, total) scores in one buffer
    visible = np.arange(total)[None, :] <= (offset + np.arange(s))[:, None]
    probs, attn = attention(q.transpose(1, 0, 2), cache.k[li].transpose(1, 2, 0),
                            cache.v[li].transpose(1, 0, 2), 1.0 / math.sqrt(dh), visible)
    captured = probs[:, capture_row].copy() if capture_row is not None else None
    x = x + matmul(attn.transpose(1, 0, 2).reshape(s, H * dh), params.wo[li])

    xn2 = rms_norm_rows(x, params.gain_mlp[li], cfg.eps)
    gate = matmul(xn2, params.w_gate[li])
    gate = gate * _sigmoid(gate)
    up = matmul(xn2, params.w_up[li])
    x = x + matmul(gate * up, params.w_down[li])
    return x, captured


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def prefill_layers(params: BackboneParams, hidden: np.ndarray, positions,
                   cache: KVCache, from_layer: int, to_layer: int,
                   glimpse: GlimpseEmbeddings | None = None,
                   glimpse_pos: int | None = None,
                   capture_attn_at: int | None = None,
                   meter: FlopMeter | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Run layers ``from_layer..to_layer`` (1-based, inclusive) over a chunk.

    When a glimpse is present, row l-1 of its matrix is added to the
    hidden state at ``glimpse_pos`` at the input of layer l (for l >= 2;
    row 0 entered with the embeddings). Pass ``capture_attn_at=K`` to get
    back the glimpse row's attention probabilities at layer K, shape
    (H, seq).

    Returns (hidden after to_layer, captured attention or None).
    """
    cfg = params.cfg
    if not (1 <= from_layer <= to_layer <= cfg.L):
        raise ConfigError(f"bad layer range {from_layer}..{to_layer} for L={cfg.L}")
    positions = np.asarray(positions)
    x = np.array(hidden, dtype=np.float64)
    captured = None
    ctx = meter.bucket("decoder") if meter is not None else nullcontext()
    with ctx:
        for layer in range(from_layer, to_layer + 1):
            if glimpse is not None and glimpse_pos is not None and layer >= 2:
                x[glimpse_pos] = x[glimpse_pos] + glimpse.matrix[layer - 1]
            want = glimpse_pos if (capture_attn_at == layer and glimpse_pos is not None) else None
            x, probs = _layer_forward(params, layer, x, positions, cache, capture_row=want)
            if probs is not None:
                captured = probs
    return x, captured


def decode_step(params: BackboneParams, cache: KVCache, token_id: int,
                position: int, meter: FlopMeter | None = None) -> np.ndarray:
    """One greedy-decoding step: embed, run all layers against the cache,
    return vocabulary logits. Cache length grows by one at every layer."""
    _check_token_ids((token_id,), params.cfg.vocab)
    x = params.text_emb[token_id : token_id + 1].copy()
    pos = np.array([position])
    ctx = meter.bucket("decoder") if meter is not None else nullcontext()
    with ctx:
        for layer in range(1, params.cfg.L + 1):
            x, _ = _layer_forward(params, layer, x, pos, cache)
    return lm_logits(params, x, meter)[0]


def lm_logits(params: BackboneParams, hidden: np.ndarray,
              meter: FlopMeter | None = None) -> np.ndarray:
    """Final RMSNorm plus the untied vocabulary projection."""
    ctx = meter.bucket("lm_head") if meter is not None else nullcontext()
    with ctx:
        return matmul(rms_norm_rows(hidden, params.final_gain, params.cfg.eps), params.w_out)

