"""Synthetic grounded QA data, the loss stack, gradients, and training.

The data generator stands in for a grounded-QA corpus: colored
rectangles on a noisy background, a symbolic question naming one
attribute of a target shape, the paired attribute as the answer, and the
target's bounding box as supervision for which visual tokens matter.
Shapes within an image have distinct colors and distinct types, so every
question identifies its target unambiguously.

Training optimizes only the glimpse embeddings and the importance
predictor; the decoder and visual stub stay frozen. The forward pass
runs the glimpse pipeline WITHOUT pruning (the localization losses need
probabilities over every visual token) on
:func:`vtprune.prune_engine.dense_layers`, the dense, tape-based layer
stack the reference oracle shares, captures the glimpse attention at
layer K inside the autograd graph, and supervises:

* language: teacher-forced cross-entropy where the glimpse row predicts
  the first answer token and each appended answer row predicts the next;
* localization: Dice plus BCE between the predicted importance and the
  box mask, with gradient flowing through the attention capture into the
  glimpse rows (no stop-gradient).

Only rows that a trainable array reaches go on the tape. Under the causal
mask the [visual | question] rows never see the glimpse row, and the
backbone is frozen, so their keys and values are constants of the
sample: the serving prefill, :func:`vtprune.backbone.prefill_layers`,
writes them into a KV cache, then the glimpse and forced answer rows run
on the tape against those constants. The prefill sums its products on
BLAS, so losses and gradients agree with putting every row on the tape
to rounding, not byte for byte, in about half the time per sample; the
same machine and BLAS build give the same bytes.

Note one asymmetry kept on purpose: training supervises answers at the
glimpse position, while inference decodes from the last question row, so
answer accuracy is a reported metric rather than a training target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import backbone as bb
from .autograd import Tensor
from .errors import ConfigError, ShapeError
from .numerics import Rng
from .prune_engine import Model, dense_layers, generate
from .vip import importance_logits, select_tokens

__all__ = [
    "SYMBOLS",
    "COLOR_TOKENS",
    "TYPE_TOKENS",
    "GroundedSample",
    "LossWeights",
    "TrainConfig",
    "mask_from_boxes",
    "generate_sample",
    "sample_for_index",
    "make_dataset",
    "dice_loss",
    "trainable_tensors",
    "training_forward",
    "total_loss",
    "grad",
    "lr_at",
    "AdamW",
    "train",
    "evaluate",
]

# Token table. Ids 12..15 are reserved padding so the default vocab of 16
# has headroom for experiments.
SYMBOLS: dict[int, str] = {
    0: "<q>",
    1: "</q>",
    2: "ask",
    3: "red",
    4: "green",
    5: "blue",
    6: "yellow",
    7: "magenta",
    8: "cyan",
    9: "square",
    10: "wide",
    11: "tall",
}
TOKEN_IDS: dict[str, int] = {name: tok for tok, name in SYMBOLS.items()}

COLOR_TOKENS = (3, 4, 5, 6, 7, 8)
TYPE_TOKENS = (9, 10, 11)

# Every palette entry keeps each channel at 96 or 255, so any shape pixel
# clears the background's channel sum (< 3*132) by a wide margin even after
# jitter, while the six high/low channel patterns keep hues distinct. Without
# that margin, half the palette is only separable from noise by an opposite-
# sign direction and training reliably finds just one of the two.
_COLOR_RGB = {
    3: (255, 96, 96),
    4: (96, 255, 96),
    5: (96, 96, 255),
    6: (255, 255, 96),
    7: (255, 96, 255),
    8: (96, 255, 255),
}
_TYPE_HW = {9: (2, 2), 10: (2, 3), 11: (3, 2)}


@dataclass
class GroundedSample:
    image: np.ndarray  # (grid_h, grid_w, 3) uint8
    question_ids: list[int]
    answer_ids: list[int]
    boxes: list[tuple[int, int, int, int]]  # inclusive (r0, c0, r1, c1)
    mask: np.ndarray  # (Nv,) float 0/1, patch centers inside any box


@dataclass
class LossWeights:
    w_lang: float = 1.0
    w_dice: float = 1.0
    w_bce: float = 0.1

    def __post_init__(self) -> None:
        if min(self.w_lang, self.w_dice, self.w_bce) < 0:
            raise ConfigError("loss weights must be nonnegative")


@dataclass
class TrainConfig:
    lr: float = 1e-4
    warmup_ratio: float = 0.1
    schedule: str = "cosine"
    epochs: int = 1
    grad_accum: int = 8
    seed: int = 0
    dataset_size: int = 2000

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {self.lr}")
        if not 0 <= self.warmup_ratio <= 1:
            raise ConfigError(f"warmup_ratio must be in [0, 1], got {self.warmup_ratio}")
        if self.schedule != "cosine":
            raise ConfigError(f"unsupported schedule {self.schedule!r}")
        if self.grad_accum < 1 or self.epochs < 1:
            raise ConfigError("grad_accum and epochs must be >= 1")


# ---------------------------------------------------------------------------
# Data generation
# ---------------------------------------------------------------------------


def mask_from_boxes(boxes, grid_h: int, grid_w: int) -> np.ndarray:
    """Binary per-patch mask: 1 where the patch center falls inside any
    inclusive box. On an integer patch grid the center test degenerates
    to simple bounds containment."""
    mask = np.zeros(grid_h * grid_w)
    for r0, c0, r1, c1 in boxes:
        if not (0 <= r0 <= r1 < grid_h and 0 <= c0 <= c1 < grid_w):
            raise ConfigError(f"box {(r0, c0, r1, c1)} outside {grid_h}x{grid_w} grid")
        for r in range(r0, r1 + 1):
            mask[r * grid_w + c0 : r * grid_w + c1 + 1] = 1.0
    return mask


def _overlaps(box, others) -> bool:
    r0, c0, r1, c1 = box
    for s0, t0, s1, t1 in others:
        if r0 <= s1 and s0 <= r1 and c0 <= t1 and t0 <= c1:
            return True
    return False


def generate_sample(rng: Rng, grid_h: int = 8, grid_w: int = 8) -> GroundedSample:
    """One question-answer pair over a procedurally drawn image.

    Places 1..3 rectangles (weights 0.5/0.3/0.2) with pairwise distinct
    colors and types on uniform-noise background, picks one as target,
    and asks for one of its attributes given the other. The box list
    covers the target only: that is the region the answer depends on.
    Sides run from 3, where the 2x3 and 3x2 shapes fit, to 256 (a 1.5 MB
    image); ``ConfigError`` otherwise, raised before any allocation.
    """
    if not (3 <= grid_h <= 256 and 3 <= grid_w <= 256):
        raise ConfigError(f"grid {grid_h}x{grid_w} outside 3x3..256x256")
    img = rng.uniform_array((grid_h, grid_w, 3), 96.0, 132.0)

    roll = rng.random()
    count = 1 if roll < 0.5 else (2 if roll < 0.8 else 3)
    colors = rng.sample(list(COLOR_TOKENS), count)
    types = rng.sample(list(TYPE_TOKENS), count)

    placed: list[tuple[int, int, tuple[int, int, int, int]]] = []
    taken: list[tuple[int, int, int, int]] = []
    for color_tok, type_tok in zip(colors, types):
        h, w = _TYPE_HW[type_tok]
        if h > grid_h or w > grid_w:
            continue
        box = None
        for _ in range(200):
            r0 = rng.randint(grid_h - h + 1)
            c0 = rng.randint(grid_w - w + 1)
            cand = (r0, c0, r0 + h - 1, c0 + w - 1)
            if not _overlaps(cand, taken):
                box = cand
                break
        if box is None:
            # Crowded grid: keep what fit so far (always >= 1 shape).
            break
        taken.append(box)
        placed.append((color_tok, type_tok, box))
        base = np.array(_COLOR_RGB[color_tok], dtype=np.float64)
        r0, c0, r1, c1 = box
        jitter = rng.uniform_array((r1 - r0 + 1, c1 - c0 + 1, 3), -10.0, 10.0)
        img[r0 : r1 + 1, c0 : c1 + 1] = base + jitter

    target = placed[rng.randint(len(placed))]
    color_tok, type_tok, box = target
    if rng.random() < 0.5:
        given, answer = type_tok, color_tok  # "what color is the wide shape"
    else:
        given, answer = color_tok, type_tok  # "what type is the red shape"
    question = [TOKEN_IDS["<q>"], TOKEN_IDS["ask"], given, TOKEN_IDS["</q>"]]

    return GroundedSample(
        image=np.clip(img, 0, 255).astype(np.uint8),
        question_ids=question,
        answer_ids=[answer],
        boxes=[box],
        mask=mask_from_boxes([box], grid_h, grid_w),
    )


def sample_for_index(seed: int, index: int, grid_h: int = 8, grid_w: int = 8) -> GroundedSample:
    """Addressable generation: sample ``index`` of the dataset rooted at
    ``seed``, independent of any other index."""
    return generate_sample(Rng(seed).derive(f"sample{index}"), grid_h, grid_w)


def make_dataset(seed: int, count: int, grid_h: int = 8, grid_w: int = 8) -> list[GroundedSample]:
    return [sample_for_index(seed, i, grid_h, grid_w) for i in range(count)]


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def dice_loss(p, mask: np.ndarray) -> Tensor:
    """Smooth Dice on the tape: 1 - (2 sum(p*m) + 1) / (sum(p) + sum(m) + 1).
    BCE and the language loss are :func:`ag.bce_with_logits` and
    :func:`ag.cross_entropy_rows`."""
    p = ag.as_tensor(p)
    mask = np.asarray(mask, dtype=np.float64)
    if p.shape != mask.shape:
        raise ShapeError(f"probabilities {p.shape} vs mask {mask.shape}")
    inter = ag.tsum(p * mask)
    return 1.0 - (inter * 2.0 + 1.0) / (ag.tsum(p) + (float(mask.sum()) + 1.0))


# ---------------------------------------------------------------------------
# Autograd forward
# ---------------------------------------------------------------------------


def trainable_tensors(model: Model) -> tuple[Tensor, dict[str, Tensor]]:
    """Wrap the trainable arrays (glimpse matrix + predictor weights) in
    gradient-tracking tensors sharing the underlying storage."""
    return Tensor(model.glimpse.matrix, requires_grad=True), model.vip.tensors(True)


@dataclass
class ForwardParts:
    lang: Tensor
    dice: Tensor
    bce: Tensor
    p: np.ndarray  # detached importance probabilities, for metrics
    logits: np.ndarray  # detached importance logits
    answer_logits: np.ndarray  # detached (len(answer), vocab) rows


def training_forward(model: Model, sample: GroundedSample, g_t: Tensor,
                     vip_t: dict[str, Tensor]) -> ForwardParts:
    """Full-depth glimpse forward with no pruning; the trainables' rows on
    the autograd tape.

    Layout is [visual | question | glimpse | answer[:-1]]: the glimpse row
    predicts the first answer token and teacher-forced answer rows predict
    the rest. Under the causal mask the [visual | question] rows never see
    the glimpse row, and the backbone is frozen, so their keys and values
    are constants of the sample: :func:`vtprune.backbone.prefill_layers`
    fills a KV cache with them, off the tape, as a serving prefill does.
    Only [glimpse | answer[:-1]] then go on the tape, through
    :func:`dense_layers`, attending to [those constants | their own keys
    and values]. Glimpse attention over visual tokens is captured at
    layer K as part of the graph so the localization loss reaches the
    glimpse embeddings through it.
    """
    params = model.backbone
    dcfg, vcfg = params.cfg, params.vcfg
    ans = list(sample.answer_ids)
    if not ans:
        raise ConfigError("sample has no answer tokens")
    bb._check_token_ids(ans, dcfg.vocab)

    seq, levels = bb.embed_prompt(sample.image, sample.question_ids, params, None)
    grid_rows, grid_cols = bb.grid_coords(vcfg.grid_h, vcfg.grid_w)
    nv, gp = seq.nv, seq.total_len  # the glimpse row follows [visual | question]
    n = gp + len(ans)  # glimpse row plus len(ans)-1 forced rows
    causal = np.arange(n)[None, :] <= np.arange(n)[:, None]

    cache = bb.KVCache(dcfg.L, dcfg.H, dcfg.head_dim)
    bb.prefill_layers(params, seq.embeddings, np.arange(gp), cache, 1, dcfg.L)
    # the glimpse row goes on the tape as g_t's row 0, so gradients reach it
    parts = [g_t[0:1]]
    if len(ans) > 1:
        parts.append(ag.as_tensor(params.text_emb[np.asarray(ans[:-1], dtype=np.int64)]))
    x, a_rows = dense_layers(params, ag.cat(parts, axis=0), np.arange(gp, n), causal[gp:],
                             1, dcfg.L, glimpse=g_t, gp=0, capture=(dcfg.K, 0, nv),
                             prefix_kv=list(zip(cache.k, cache.v)))

    vip_logits = importance_logits(a_rows, levels, grid_rows, grid_cols, vip_t, model.vip_cfg)
    logits_flat = ag.reshape(vip_logits, (nv,))
    p_t = ag.sigmoid(logits_flat)
    dice = dice_loss(p_t, sample.mask)
    bce = ag.bce_with_logits(logits_flat, sample.mask)

    ans_hidden = ag.rms_norm_rows(x, params.final_gain, dcfg.eps)
    ans_logits = ag.matmul(ans_hidden, params.w_out)
    lang = ag.cross_entropy_rows(ans_logits, ans)

    return ForwardParts(lang=lang, dice=dice, bce=bce, p=p_t.data.copy(),
                        logits=logits_flat.data.copy(),
                        answer_logits=ans_logits.data.copy())


def total_loss(sample: GroundedSample, model: Model,
               weights: LossWeights | None = None) -> tuple[float, dict[str, float]]:
    """Weighted objective and its unweighted parts (no gradients kept)."""
    weights = weights or LossWeights()
    g_t, vip_t = trainable_tensors(model)
    fw = training_forward(model, sample, g_t, vip_t)
    parts = {"lang": fw.lang.item(), "dice": fw.dice.item(), "bce": fw.bce.item()}
    total = (weights.w_lang * parts["lang"] + weights.w_dice * parts["dice"]
             + weights.w_bce * parts["bce"])
    return total, parts


def grad(sample: GroundedSample, model: Model, weights: LossWeights | None = None,
         ) -> tuple[float, dict[str, float], dict[str, np.ndarray]]:
    """Exact gradients of the weighted objective for every trainable array."""
    loss, parts, grads, _ = _grad_full(sample, model, weights or LossWeights())
    return loss, parts, grads


def _grad_full(sample: GroundedSample, model: Model, weights: LossWeights,
               ) -> tuple[float, dict[str, float], dict[str, np.ndarray], np.ndarray]:
    g_t, vip_t = trainable_tensors(model)
    fw = training_forward(model, sample, g_t, vip_t)
    loss_t = fw.lang * weights.w_lang + fw.dice * weights.w_dice + fw.bce * weights.w_bce
    loss_t.backward()
    grads = {"glimpse": _grad_of(g_t)}
    for name, t in vip_t.items():
        grads[name] = _grad_of(t)
    parts = {"lang": fw.lang.item(), "dice": fw.dice.item(), "bce": fw.bce.item()}
    return loss_t.item(), parts, grads, fw.p


def _grad_of(t: Tensor) -> np.ndarray:
    return np.zeros_like(t.data) if t.grad is None else t.grad.copy()


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------


def lr_at(step: int, total_steps: int, tcfg: TrainConfig) -> float:
    """Linear warmup from zero over warmup_ratio of steps, then cosine
    decay to zero at total_steps."""
    warmup = max(1, math.ceil(tcfg.warmup_ratio * total_steps))
    if step < warmup:
        return tcfg.lr * step / warmup
    span = max(1, total_steps - warmup)
    progress = (step - warmup) / span
    return tcfg.lr * 0.5 * (1.0 + math.cos(math.pi * progress))


class AdamW:
    """Decoupled-weight-decay Adam over a dict of named parameter arrays.

    Updates happen in place so the arrays inside the model stay the single
    source of truth.
    """

    def __init__(self, params: dict[str, np.ndarray], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        self.t += 1
        for name, p in self.params.items():
            g = grads[name]
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            m_hat = self.m[name] / (1.0 - self.beta1 ** self.t)
            v_hat = self.v[name] / (1.0 - self.beta2 ** self.t)
            p -= lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * p)


def train(dataset: list[GroundedSample], model: Model, tcfg: TrainConfig,
          weights: LossWeights | None = None) -> list[dict[str, float]]:
    """Gradient-accumulated AdamW over the dataset, in dataset order.

    Returns one metrics row per optimizer step: losses averaged over the
    accumulation window plus foreground recall and retention at the
    configured threshold.
    """
    if not dataset:
        raise ConfigError("training dataset is empty")
    weights = weights or LossWeights()
    named = {"glimpse": model.glimpse.matrix, **model.vip.named()}
    opt = AdamW(named)
    per_epoch = math.ceil(len(dataset) / tcfg.grad_accum)
    total_steps = per_epoch * tcfg.epochs
    vip_cfg = model.vip_cfg
    history: list[dict[str, float]] = []
    step = 0
    for _ in range(tcfg.epochs):
        for start in range(0, len(dataset), tcfg.grad_accum):
            batch = dataset[start : start + tcfg.grad_accum]
            acc = {k: np.zeros_like(v) for k, v in named.items()}
            sums = {"loss": 0.0, "lang": 0.0, "dice": 0.0, "bce": 0.0,
                    "recall": 0.0, "retention": 0.0}
            for s in batch:
                loss, parts, grads, p = _grad_full(s, model, weights)
                for k in acc:
                    acc[k] += grads[k] / len(batch)
                sums["loss"] += loss / len(batch)
                for k in ("lang", "dice", "bce"):
                    sums[k] += parts[k] / len(batch)
                sel = select_tokens(p, vip_cfg.tau, vip_cfg.r_max)
                fg = np.where(s.mask > 0.5)[0]
                inter = np.intersect1d(sel.keep, fg).size
                sums["recall"] += (inter / fg.size if fg.size else 1.0) / len(batch)
                sums["retention"] += sel.keep.size / s.mask.size / len(batch)
            lr = lr_at(step, total_steps, tcfg)
            opt.step(acc, lr)
            history.append({"step": float(step), "lr": lr, **sums})
            step += 1
    return history


def evaluate(dataset: list[GroundedSample], model: Model,
             tau: float | None = None, r_max: float | None = None) -> dict[str, float]:
    """Inference-path metrics over a held-out set.

    Recall and IoU compare the pruned keep set against the box mask;
    retention is the kept fraction; answer accuracy greedily decodes as
    many tokens as the reference answer with :func:`generate`, so
    non-finite logits raise ``NumericError``.
    """
    if not dataset:
        raise ConfigError("evaluation dataset is empty")
    recalls, ious, retentions, hits = [], [], [], 0
    for s in dataset:
        decoded, stats, _ = generate(s.image, s.question_ids, model,
                                     max_new=len(s.answer_ids), tau=tau, r_max=r_max)
        fg = np.where(s.mask > 0.5)[0]
        keep = stats.keep
        inter = np.intersect1d(keep, fg).size
        union = np.union1d(keep, fg).size
        recalls.append(inter / fg.size if fg.size else 1.0)
        ious.append(inter / union if union else 1.0)
        retentions.append(stats.Nv_kept / stats.Nv)
        hits += int(decoded == list(s.answer_ids))
    return {
        "foreground_recall": float(np.mean(recalls)),
        "mean_iou": float(np.mean(ious)),
        "mean_retention": float(np.mean(retentions)),
        "answer_accuracy": hits / len(dataset),
    }
