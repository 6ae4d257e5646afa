"""Visual importance prediction and token selection.

The predictor answers one question per visual token: given how the
glimpse token attended to it at the prune layer, and given the token's
multi-scale visual features, how likely is it to matter for the answer?
It is a small bidirectional attention stack over the Nv visual tokens.
Per block, queries and keys are the per-head concatenation of a
projected attention descriptor (rotated by 2-D patch position) and a
projected feature level, so pairing between patches is conditioned on
image content, not just on how the glimpse looked at them. Values stay
in the descriptor space. A zero-initialized sigmoid head maps the final
descriptors to keep probabilities, so an untrained predictor scores
every token exactly 0.5 and pruning behavior starts out neutral.

The forward pass is written against the autograd tape so training and
inference share one code path; inference just drops the gradient graph.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ConfigError, ShapeError
from .numerics import FlopMeter, Rng, rope_cos_sin

__all__ = [
    "VipConfig",
    "VipBlockParams",
    "VipParams",
    "ImportanceMap",
    "SelectionResult",
    "init_vip",
    "importance_logits",
    "vip_forward",
    "select_tokens",
]


@dataclass
class VipConfig:
    E: int = 16
    F: int = 16
    M: int = 2
    heads: int = 4
    tau: float = 0.5
    r_max: float = 1.0
    use_rope: bool = True
    rope_theta: float = 10000.0
    eps: float = 1e-6

    def __post_init__(self) -> None:
        if min(self.E, self.F, self.M, self.heads) < 1:
            raise ConfigError("E, F, M and heads must be positive")
        if self.E % self.heads != 0:
            raise ConfigError(f"E={self.E} not divisible by {self.heads} heads")
        if (self.E + self.F) % self.heads != 0:
            raise ConfigError(f"E+F={self.E + self.F} not divisible by {self.heads} heads")
        if self.use_rope and self.E % 4 != 0:
            raise ConfigError("rotary patch encoding needs E divisible by 4")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError(f"tau must lie in [0, 1], got {self.tau}")
        if not 0.0 < self.r_max <= 1.0:
            raise ConfigError(f"r_max must lie in (0, 1], got {self.r_max}")


@dataclass
class VipBlockParams:
    proj_v: np.ndarray  # (C, F)
    wq: np.ndarray  # (E, E)
    wk: np.ndarray  # (E, E)
    wv: np.ndarray  # (E, E)
    wo: np.ndarray  # (E, E)
    gain: np.ndarray  # (E,)


@dataclass
class VipParams:
    proj_a: np.ndarray  # (H, E)
    blocks: list[VipBlockParams]
    head_w: np.ndarray  # (E, 1)
    head_b: np.ndarray  # (1,)

    def named(self) -> dict[str, np.ndarray]:
        """Stable name-to-array view used by the optimizer and checkpoints."""
        out = {"vip.proj_a": self.proj_a}
        for m, blk in enumerate(self.blocks):
            out[f"vip.b{m}.proj_v"] = blk.proj_v
            out[f"vip.b{m}.wq"] = blk.wq
            out[f"vip.b{m}.wk"] = blk.wk
            out[f"vip.b{m}.wv"] = blk.wv
            out[f"vip.b{m}.wo"] = blk.wo
            out[f"vip.b{m}.gain"] = blk.gain
        out["vip.head_w"] = self.head_w
        out["vip.head_b"] = self.head_b
        return out

    def load_named(self, named: dict[str, np.ndarray]) -> None:
        mine = self.named()
        if set(named) != set(mine):
            missing = set(mine) - set(named)
            extra = set(named) - set(mine)
            raise ShapeError(f"parameter names disagree (missing {missing}, extra {extra})")
        for name, arr in mine.items():
            src = np.asarray(named[name], dtype=np.float64)
            if src.shape != arr.shape:
                raise ShapeError(f"{name}: shape {src.shape} != {arr.shape}")
            arr[...] = src

    def tensors(self, requires_grad: bool) -> dict[str, Tensor]:
        return {name: Tensor(arr, requires_grad=requires_grad)
                for name, arr in self.named().items()}


def init_vip(cfg: VipConfig, attn_heads: int, C: int, rng: Rng) -> VipParams:
    """Scaled-uniform weights everywhere except the head, which starts at
    zero so the untrained predictor is exactly neutral."""
    blocks = []
    for m in range(cfg.M):
        sub = rng.derive(f"block{m}")
        blocks.append(VipBlockParams(
            proj_v=sub.scaled_uniform(C, cfg.F),
            wq=sub.scaled_uniform(cfg.E, cfg.E),
            wk=sub.scaled_uniform(cfg.E, cfg.E),
            wv=sub.scaled_uniform(cfg.E, cfg.E),
            wo=sub.scaled_uniform(cfg.E, cfg.E),
            gain=np.ones(cfg.E),
        ))
    return VipParams(
        proj_a=rng.derive("proj_a").scaled_uniform(attn_heads, cfg.E),
        blocks=blocks,
        head_w=np.zeros((cfg.E, 1)),
        head_b=np.zeros(1),
    )


def _rope2d(x: Tensor, cos_r, sin_r, cos_c, sin_c) -> Tensor:
    """Rotate the first half of the feature width by patch row, the second
    half by patch column. Applied over the full width E before the head
    split (the per-head width is too narrow to carry both axes)."""
    half = x.shape[1] // 2
    a = ag.rotate_pairs(x[:, :half], cos_r, sin_r)
    b = ag.rotate_pairs(x[:, half:], cos_c, sin_c)
    return ag.cat([a, b], axis=1)


def importance_logits(A, V: np.ndarray, rows, cols, par: dict[str, Tensor],
                      cfg: VipConfig) -> Tensor:
    """Autograd forward from glimpse attention to per-token keep logits.

    ``A`` is (Nv, H) glimpse attention (array or Tensor), ``V`` is the
    (M, Nv, C) feature stack, ``rows``/``cols`` are patch coordinates,
    ``par`` maps :meth:`VipParams.named` keys to tensors. Returns logits
    with shape (Nv, 1).
    """
    V = np.asarray(V, dtype=np.float64)
    if V.ndim != 3 or V.shape[0] != cfg.M:
        raise ShapeError(f"feature stack shape {V.shape} does not provide {cfg.M} levels")
    x = ag.matmul(ag.as_tensor(A), par["vip.proj_a"])
    nv = x.shape[0]
    if V.shape[1] != nv:
        raise ShapeError(f"feature rows {V.shape[1]} != attention rows {nv}")
    E, F, heads = cfg.E, cfg.F, cfg.heads
    eh, fh = E // heads, F // heads
    scale = 1.0 / math.sqrt(eh + fh)
    if cfg.use_rope:
        cos_r, sin_r = rope_cos_sin(np.asarray(rows), E // 2, cfg.rope_theta)
        cos_c, sin_c = rope_cos_sin(np.asarray(cols), E // 2, cfg.rope_theta)
    for m in range(cfg.M):
        pfx = f"vip.b{m}."
        xn = ag.rms_norm_rows(x, par[pfx + "gain"], cfg.eps)
        vm = ag.matmul(ag.as_tensor(V[m]), par[pfx + "proj_v"])
        qe = ag.matmul(xn, par[pfx + "wq"])
        ke = ag.matmul(xn, par[pfx + "wk"])
        ve = ag.matmul(xn, par[pfx + "wv"])
        if cfg.use_rope:
            qe = _rope2d(qe, cos_r, sin_r, cos_c, sin_c)
            ke = _rope2d(ke, cos_r, sin_r, cos_c, sin_c)
        # per head, queries and keys are [descriptor | feature] columns; all
        # heads at once: (heads, Nv, eh+fh) @ (heads, eh+fh, Nv)
        vm3 = ag.reshape(vm, (nv, heads, fh))
        q3 = ag.cat([ag.reshape(qe, (nv, heads, eh)), vm3], axis=2)
        k3 = ag.cat([ag.reshape(ke, (nv, heads, eh)), vm3], axis=2)
        probs = ag.attention_probs(ag.transpose(q3, (1, 0, 2)), ag.transpose(k3, (1, 2, 0)),
                                   scale)
        v3 = ag.transpose(ag.reshape(ve, (nv, heads, eh)), (1, 0, 2))
        outs = ag.transpose(ag.matmul(probs, v3), (1, 0, 2))
        del probs  # without a tape, frees the (heads, Nv, Nv) buffer before the next block's
        x = x + ag.matmul(ag.reshape(outs, (nv, E)), par[pfx + "wo"])
    return ag.matmul(x, par["vip.head_w"]) + par["vip.head_b"]


@dataclass
class ImportanceMap:
    logits: np.ndarray  # (Nv,)
    p: np.ndarray  # (Nv,) sigmoid of logits


def vip_forward(A: np.ndarray, V: np.ndarray, rows, cols, params: VipParams,
                cfg: VipConfig, meter: FlopMeter | None = None) -> ImportanceMap:
    """Inference wrapper: same math as :func:`importance_logits` with the
    gradient graph switched off."""
    ctx = meter.bucket("vip") if meter is not None else nullcontext()
    with ctx:
        t = importance_logits(A, V, rows, cols, params.tensors(False), cfg)
    logits = t.data.ravel().copy()
    return ImportanceMap(logits=logits, p=ag.sigmoid(ag.as_tensor(logits)).data.copy())


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


@dataclass
class SelectionResult:
    keep: np.ndarray  # ascending visual token indices
    cap: int  # ceil(r_max * Nv)

    @property
    def kept(self) -> int:
        return int(self.keep.size)


def select_tokens(p: np.ndarray, tau: float, r_max: float) -> SelectionResult:
    """Thresholded selection with a hard budget.

    Keep every token with probability at least ``tau``. If that set
    exceeds ``ceil(r_max * Nv)`` tokens, keep the highest-probability
    ones, breaking ties toward lower indices. If the set is empty, keep
    the single argmax token so the decoder never loses the image
    entirely. Returned indices are ascending.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ShapeError(f"probabilities must be a non-empty vector, got shape {p.shape}")
    if not 0.0 <= tau <= 1.0:
        raise ConfigError(f"tau must lie in [0, 1], got {tau}")
    if not 0.0 < r_max <= 1.0:
        raise ConfigError(f"r_max must lie in (0, 1], got {r_max}")
    cap = math.ceil(r_max * p.size)
    chosen = np.where(p >= tau)[0]
    if chosen.size == 0:
        keep = np.array([int(np.argmax(p))], dtype=np.int64)
    elif chosen.size > cap:
        ranked = sorted(chosen.tolist(), key=lambda i: (-p[i], i))
        keep = np.sort(np.asarray(ranked[:cap], dtype=np.int64))
    else:
        keep = np.sort(chosen).astype(np.int64)
    return SelectionResult(keep=keep, cap=cap)
