"""Pipeline orchestration: prefill, predict, prune once, decode.

The flow implemented by :func:`glimpse_prune_prefill` is the core of the
system. Lay out ``[visual | question | glimpse]`` with
:func:`vtprune.backbone.embed_prompt`, prefill layers 1..K,
read how the glimpse attended to each visual token at layer K, score
tokens with the importance predictor, pick survivors, then compact the
layer-K hidden state and every cached layer in one shot. The glimpse row
is dropped in the same event so nothing downstream can attend to it.
Layers K+1..L then prefill over the shortened sequence, and decoding
runs entirely against the pruned cache.

Two properties anchor the tests here. Survivors keep their original
rotary positions (attention geometry is untouched for rows that stay),
and pruning happens exactly once per response; afterwards the cache only
ever grows by one row per generated token.

:func:`reference_oracle` reimplements the same semantics without any
cache, materializing full attention matrices with an explicit visibility
mask, so the two code paths share only the input rows. Its layers come from
:func:`dense_layers`, the one dense, tape-based decoder stack, which the
training forward runs too; oracle equivalence therefore also checks the
layer math that training differentiates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import backbone as bb
from .autograd import Tensor
from .errors import ConfigError, NumericError, StateError
# matmul has no caller here; the benchmark's tracer wraps it by this module's name.
from .numerics import FlopMeter, Rng, matmul, rope_cos_sin  # noqa: F401
from .vip import ImportanceMap, SelectionResult, VipConfig, VipParams, init_vip, select_tokens, vip_forward

__all__ = [
    "Model",
    "PruneStats",
    "build_model",
    "prune_state",
    "glimpse_prune_prefill",
    "baseline_prefill",
    "dense_layers",
    "reference_oracle",
    "generate",
]

# Test hook: when set to "drop-text-row" by the self-test command,
# prune_state silently discards the first text row as well, which must be
# caught by the oracle-equivalence and cache-length checks.
FAULT_INJECT: str | None = None


@dataclass
class Model:
    """Everything one pipeline instance needs, seeded reproducibly."""

    backbone: bb.BackboneParams
    glimpse: bb.GlimpseEmbeddings
    vip: VipParams
    vip_cfg: VipConfig

    @property
    def cfg(self) -> bb.DecoderConfig:
        return self.backbone.cfg

    @property
    def vcfg(self) -> bb.VisualStubConfig:
        return self.backbone.vcfg


def build_model(dcfg: bb.DecoderConfig, vcfg: bb.VisualStubConfig,
                vip_cfg: VipConfig, seed: int) -> Model:
    root = Rng(seed)
    return Model(
        backbone=bb.init_backbone(dcfg, vcfg, root.derive("backbone")),
        glimpse=bb.init_glimpse(dcfg, root.derive("glimpse")),
        vip=init_vip(vip_cfg, dcfg.H, vcfg.C, root.derive("vip")),
        vip_cfg=vip_cfg,
    )


@dataclass
class PruneStats:
    Nv: int
    Nv_kept: int
    Nt: int
    retention_rate: float
    K: int
    prefill_flops_counted: int
    cache_len_before: int
    cache_len_after: int
    keep: np.ndarray  # surviving visual indices, ascending (for reporting)
    importance: np.ndarray  # predicted keep probability of every visual token

    def validate(self) -> None:
        if self.cache_len_after != self.Nv_kept + self.Nt:
            raise StateError(
                f"pruned cache holds {self.cache_len_after} rows, expected "
                f"{self.Nv_kept} + {self.Nt}")
        if abs(self.retention_rate - self.Nv_kept / self.Nv) > 1e-15:
            raise StateError("retention rate inconsistent with kept count")


def prune_state(hidden_k: np.ndarray, cache: bb.KVCache, keep: SelectionResult,
                seq: bb.TokenSequence) -> tuple[np.ndarray, np.ndarray]:
    """One-shot compaction of the layer-K hidden state and the cache.

    Retains the selected visual rows and all text rows, drops everything
    else including the glimpse row, in every cache layer filled so far.
    Returns (pruned hidden, original positions of the surviving rows).
    Positions are not re-compacted: a survivor that sat at position p
    still rotates as position p.
    """
    if not seq.glimpse_present:
        raise StateError("prune_state expects the glimpse row to be present")
    nv, nt = seq.nv, seq.nt
    vis = np.asarray(keep.keep, dtype=np.int64)
    if vis.size and (vis.min() < 0 or vis.max() >= nv):
        raise IndexError(f"keep indices outside visual range 0..{nv - 1}")
    keep_rows = np.concatenate([vis, np.arange(nv, nv + nt, dtype=np.int64)])
    if FAULT_INJECT == "drop-text-row":
        keep_rows = keep_rows[keep_rows != nv]
    hidden_pruned = hidden_k[keep_rows].copy()
    cache.prune_keep(keep_rows)
    return hidden_pruned, keep_rows


def _resolve_selection(imap: ImportanceMap, nv: int, vip_cfg: VipConfig,
                       tau: float | None, r_max: float | None,
                       force_keep=None) -> SelectionResult:
    if force_keep is not None:
        vis = np.unique(np.asarray(list(force_keep), dtype=np.int64))
        if vis.size == 0:
            raise ConfigError("force_keep must name at least one visual token")
        return SelectionResult(keep=vis, cap=nv)
    tau = vip_cfg.tau if tau is None else tau
    r_max = vip_cfg.r_max if r_max is None else r_max
    return select_tokens(imap.p, tau, r_max)


def glimpse_prune_prefill(image, question_ids, model: Model,
                          tau: float | None = None, r_max: float | None = None,
                          force_keep=None, meter: FlopMeter | None = None,
                          ) -> tuple[bb.KVCache, np.ndarray, ImportanceMap, PruneStats]:
    """Run the full prefill pipeline with one pruning event at layer K.

    Returns (cache over all L layers, logits at the last retained row,
    importance map over all Nv tokens, stats). ``tau``/``r_max`` override
    the predictor config for this call; ``force_keep`` bypasses selection
    entirely (testing hook).
    """
    params = model.backbone
    dcfg, vcfg = params.cfg, params.vcfg
    meter = FlopMeter() if meter is None else meter
    start_flops = meter.total()

    seq, levels = bb.embed_prompt(image, question_ids, params, model.glimpse, meter=meter)
    S = seq.total_len
    cache = bb.KVCache(dcfg.L, dcfg.H, dcfg.head_dim)

    hidden_k, probs = bb.prefill_layers(
        params, seq.embeddings, np.arange(S), cache, 1, dcfg.K,
        glimpse=model.glimpse, glimpse_pos=seq.glimpse_pos,
        capture_attn_at=dcfg.K, meter=meter)
    # the glimpse row's raw attention over visual columns, (Nv, H); the
    # text share stays missing mass rather than being renormalized away
    A = probs[:, : seq.nv].T.copy()
    rows, cols = bb.grid_coords(vcfg.grid_h, vcfg.grid_w)
    imap = vip_forward(A, levels, rows, cols, model.vip, model.vip_cfg, meter=meter)
    sel = _resolve_selection(imap, seq.nv, model.vip_cfg, tau, r_max, force_keep)

    hidden_p, positions = prune_state(hidden_k, cache, sel, seq)
    if dcfg.K < dcfg.L:
        hidden_out, _ = bb.prefill_layers(params, hidden_p, positions, cache,
                                          dcfg.K + 1, dcfg.L, meter=meter)
    else:
        hidden_out = hidden_p
    last_logits = bb.lm_logits(params, hidden_out[-1:], meter=meter)[0]

    stats = PruneStats(
        Nv=seq.nv,
        Nv_kept=int(sel.keep.size),
        Nt=seq.nt,
        retention_rate=sel.keep.size / seq.nv,
        K=dcfg.K,
        prefill_flops_counted=meter.total() - start_flops,
        cache_len_before=S,
        cache_len_after=cache.uniform_len(),
        keep=sel.keep.copy(),
        importance=imap.p.copy(),
    )
    stats.validate()
    return cache, last_logits, imap, stats


def baseline_prefill(image, question_ids, model: Model,
                     meter: FlopMeter | None = None) -> tuple[bb.KVCache, np.ndarray]:
    """Plain full-depth prefill with no glimpse and no pruning: the
    reference the keep-all pipeline must reproduce."""
    params = model.backbone
    dcfg = params.cfg
    seq, _ = bb.embed_prompt(image, question_ids, params, None, meter=meter)
    cache = bb.KVCache(dcfg.L, dcfg.H, dcfg.head_dim)
    hidden, _ = bb.prefill_layers(params, seq.embeddings, np.arange(seq.total_len), cache,
                                  1, dcfg.L, meter=meter)
    return cache, bb.lm_logits(params, hidden[-1:], meter=meter)[0]


# ---------------------------------------------------------------------------
# Cache-free reference implementation
# ---------------------------------------------------------------------------


def dense_layers(params: bb.BackboneParams, x, positions: np.ndarray,
                 visible: np.ndarray, from_layer: int, to_layer: int,
                 glimpse: np.ndarray | Tensor | None = None, gp: int | None = None,
                 capture: tuple[int, int, int] | None = None,
                 ) -> tuple[Tensor, Tensor | None]:
    """Full-matrix decoder layers on the autograd tape, under a visibility mask.

    No cache, no chunking: every layer materializes the complete (n, n)
    attention matrix, in which row i attends to column j only where the
    boolean ``visible[i, j]`` is set. It
    shares only the numeric primitives with the cached path, none of its
    state handling. ``glimpse`` (an (L, D) array or tensor) adds row l-1 at
    row ``gp`` on entry to layer l >= 2. ``capture=(layer, row, ncols)``
    also returns that row's per-head attention over the first ``ncols``
    columns at ``layer``, shape (ncols, H). The reference oracle and the
    training forward both run on this one function.
    """
    cfg = params.cfg
    n = x.shape[0]
    H, dh = cfg.H, cfg.head_dim
    cos, sin = rope_cos_sin(positions, dh, cfg.rope_theta)
    cos3, sin3 = cos[:, None, :], sin[:, None, :]
    scale = 1.0 / math.sqrt(dh)
    cap_layer, cap_row, cap_cols = capture if capture is not None else (0, 0, 0)
    x = ag.as_tensor(x)
    captured = None
    for layer in range(from_layer, to_layer + 1):
        li = layer - 1
        if glimpse is not None and layer >= 2:
            x = ag.cat([x[:gp], x[gp : gp + 1] + glimpse[li : li + 1], x[gp + 1 :]], axis=0)
        xn = ag.rms_norm_rows(x, params.gain_attn[li], cfg.eps)
        q3 = ag.rotate_pairs(ag.reshape(ag.matmul(xn, params.wq[li]), (n, H, dh)), cos3, sin3)
        k3 = ag.rotate_pairs(ag.reshape(ag.matmul(xn, params.wk[li]), (n, H, dh)), cos3, sin3)
        v3 = ag.reshape(ag.matmul(xn, params.wv[li]), (n, H, dh))
        # every head at once: (H, n, dh) @ (H, dh, n) scores, (H, n, n) @ (H, n, dh)
        probs = ag.attention_probs(ag.transpose(q3, (1, 0, 2)), ag.transpose(k3, (1, 2, 0)),
                                   scale, visible)
        if layer == cap_layer:
            captured = ag.transpose(probs[:, cap_row, :cap_cols])
        heads = ag.transpose(ag.matmul(probs, ag.transpose(v3, (1, 0, 2))), (1, 0, 2))
        del probs  # without a tape, frees the (H, n, n) buffer before the next layer's
        x = x + ag.matmul(ag.reshape(heads, (n, H * dh)), params.wo[li])
        xn2 = ag.rms_norm_rows(x, params.gain_mlp[li], cfg.eps)
        gate = ag.silu(ag.matmul(xn2, params.w_gate[li]))
        x = x + ag.matmul(gate * ag.matmul(xn2, params.w_up[li]), params.w_down[li])
    return x, captured


def reference_oracle(image, question_ids, keep, model: Model,
                     generated_ids=()) -> np.ndarray:
    """Recompute the pruned pipeline's logits from scratch, cache-free.

    Phase one runs layers 1..K densely over [visual | text | glimpse |
    generated...] with a visibility mask under which original rows are
    plainly causal while generated rows see only surviving visual rows,
    text rows, earlier generated rows, and themselves (never the glimpse
    or a dropped row), reproducing exactly what the pruned cache exposes.
    Phase two deletes the dropped and glimpse rows and runs layers
    K+1..L causally. Returns the final row's logits: with no generated
    ids that is the prefill output, otherwise the logits that follow the
    last generated token. ``keep`` is a SelectionResult or a plain array
    of surviving visual indices.
    """
    params = model.backbone
    dcfg = params.cfg
    seq, _ = bb.embed_prompt(image, question_ids, params, model.glimpse)
    nv, nt = seq.nv, seq.nt
    S = seq.total_len
    gp = seq.glimpse_pos
    gen = [int(t) for t in generated_ids]
    G = len(gen)
    n = S + G

    x0 = seq.embeddings
    if G:
        x0 = np.concatenate([x0, params.text_emb[np.asarray(gen, dtype=np.int64)]], axis=0)
    # Generated token t reuses the position the glimpse vacated: nv+nt+t.
    positions = np.concatenate([np.arange(S), gp + np.arange(G)])

    kept_idx = keep.keep if isinstance(keep, SelectionResult) else keep
    survivors = np.concatenate([np.asarray(kept_idx, dtype=np.int64),
                                np.arange(nv, nv + nt, dtype=np.int64)])
    allowed = np.zeros((n, n), dtype=bool)
    for i in range(S):
        allowed[i, : i + 1] = True
    for t in range(G):
        i = S + t
        allowed[i, survivors] = True
        allowed[i, S : i + 1] = True

    x, _ = dense_layers(params, x0, positions, allowed, 1, dcfg.K,
                        glimpse=model.glimpse.matrix, gp=gp)

    live = np.concatenate([survivors, np.arange(S, n, dtype=np.int64)])
    x2 = x.data[live]
    pos2 = positions[live]
    if dcfg.K < dcfg.L:
        n2 = live.size
        causal = np.arange(n2)[None, :] <= np.arange(n2)[:, None]
        x2 = dense_layers(params, x2, pos2, causal, dcfg.K + 1, dcfg.L)[0].data
    return bb.lm_logits(params, x2[-1:])[0]


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _require_finite(logits: np.ndarray, where: str) -> None:
    if not np.isfinite(logits).all():
        raise NumericError(f"non-finite logits {where}")


def generate(image, question_ids, model: Model, max_new: int,
             tau: float | None = None, r_max: float | None = None,
             force_keep=None, meter: FlopMeter | None = None,
             ) -> tuple[list[int], PruneStats, int]:
    """Greedy decoding from the pruned cache.

    Returns (generated ids, prune stats, decode FLOPs). The pruning event
    happens exactly once, inside the prefill; every decode step grows the
    cache by a single row. Non-finite prefill or decode logits raise
    ``NumericError``.
    """
    if max_new < 1:
        raise ConfigError(f"max_new must be >= 1, got {max_new}")
    meter = FlopMeter() if meter is None else meter
    cache, logits, _, stats = glimpse_prune_prefill(
        image, question_ids, model, tau=tau, r_max=r_max,
        force_keep=force_keep, meter=meter)
    prefill_total = meter.total()
    base_pos = stats.Nv + stats.Nt
    answer: list[int] = []
    _require_finite(logits, "after prefill")
    for t in range(max_new):
        tok = int(np.argmax(logits))
        answer.append(tok)
        logits = bb.decode_step(model.backbone, cache, tok, position=base_pos + t,
                                meter=meter)
        _require_finite(logits, f"at decode step {t}")
    expected = stats.cache_len_after + max_new
    if cache.uniform_len() != expected:
        raise StateError(f"cache grew to {cache.uniform_len()}, expected {expected}")
    return answer, stats, meter.total() - prefill_total
