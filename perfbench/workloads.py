"""The four benchmark workloads: set-up, the timed closed loop, checks.

One client sends one operation at a time and waits for it (closed loop,
no think time). For the serving workloads an operation is a request:
prefill, then ``DECODE_TOKENS`` greedy ``decode_step`` calls. For
``train-8x8`` it is one training sample inside a ``train`` call over a
freshly generated, saved and reloaded round of ``TRAIN_ROUND`` samples.

Every output check runs outside the timed spans. A request or round that
raises, or whose outputs fail a check, counts as failed.
"""

from __future__ import annotations

import math
import os
import time
from statistics import median
from dataclasses import dataclass, field, replace

import numpy as np

from vtprune import backbone as bb
from vtprune import costmodel as cm
from vtprune import persist
from vtprune import prune_engine as pe
from vtprune import training as tr
from vtprune.numerics import FlopMeter
from vtprune.vip import VipConfig

import reference
from stats import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "fixture", "predictor_seed0.json")

WORKLOADS = ("serve-8x8", "serve-16x16", "dense-16x16", "train-8x8")
GRID = {"serve-8x8": 8, "serve-16x16": 16, "dense-16x16": 16, "train-8x8": 8}

DECODE_TOKENS = 8
POOL = 128  # distinct requests per run, served in order and cycled
CHECKED = 2  # leading pool entries re-derived by the oracle and generate
ORACLE_TOL = 1e-10
REQUEST_SEED_BASE = 100_000  # keeps request streams apart from training seed 0
SETUP_REPEATS = 5
TRAIN_ROUND = 2
TRAIN_CFG = tr.TrainConfig(lr=5e-3, grad_accum=1, epochs=1,
                           dataset_size=TRAIN_ROUND, seed=0)
LOSS_KEYS = ("loss", "lang", "dice", "bce")


class Failures:
    """Failed-check messages, and how many steps disagreed with costmodel."""

    def __init__(self) -> None:
        self.messages: list[str] = []
        self.flop_mismatch = 0

    def add(self, op: int, message: str) -> None:
        self.messages.append(f"op {op}: {message}")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def request_pool(seed: int, grid: int) -> list[tr.GroundedSample]:
    return [tr.sample_for_index(REQUEST_SEED_BASE + seed, i, grid, grid)
            for i in range(POOL)]


def round_seed(seed: int, r: int) -> int:
    return REQUEST_SEED_BASE + seed * 10_000 + r


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------


@dataclass
class Served:
    pool_index: int
    ttft_s: float
    total_s: float
    tpot_s: list[float]
    tokens: list[int]
    keep: np.ndarray
    kv_elements: int
    prefill_flops: int
    cache_rows: int
    first_logits: np.ndarray | None
    last_logits: np.ndarray | None
    meters: tuple | None  # (prefill meter, one meter per decode step)


@dataclass
class ServingState:
    model: pe.Model
    pool: list[tr.GroundedSample]
    dense: bool


def serving_setup(workload: str, seed: int) -> ServingState:
    """Load the trained predictor into a model at the workload's grid and
    draw the request pool."""
    ckpt = persist.load_checkpoint(FIXTURE)
    bundle = persist.parse_run_config(ckpt.config)
    grid = GRID[workload]
    vcfg = replace(bundle.visual, grid_h=grid, grid_w=grid)
    model = pe.build_model(bundle.decoder, vcfg, bundle.vip, seed=bundle.seed)
    model.glimpse.matrix[...] = ckpt.glimpse
    model.vip.load_named(ckpt.vip_named)
    return ServingState(model, request_pool(seed, grid), workload.startswith("dense"))


def serve(state: ServingState, index: int) -> Served:
    """One timed request. Its outputs are checked afterwards, outside
    the timing."""
    model, sample = state.model, state.pool[index % POOL]
    nv = model.vcfg.nv
    meter = FlopMeter()
    t0 = time.perf_counter()
    if state.dense:
        cache, logits = pe.baseline_prefill(sample.image, sample.question_ids, model,
                                            meter=meter)
    else:
        cache, logits, _, stats = pe.glimpse_prune_prefill(
            sample.image, sample.question_ids, model, meter=meter)
    t1 = time.perf_counter()
    first = logits
    pos0 = nv + len(sample.question_ids)
    tokens, tpot, step_meters = [], [], []
    for t in range(DECODE_TOKENS):
        tok = int(np.argmax(logits))
        step = FlopMeter()
        a = time.perf_counter()
        logits = bb.decode_step(model.backbone, cache, tok, position=pos0 + t, meter=step)
        tpot.append(time.perf_counter() - a)
        tokens.append(tok)
        step_meters.append(step)
    t2 = time.perf_counter()
    keep = np.arange(nv) if state.dense else stats.keep
    return Served(index % POOL, t1 - t0, t2 - t0, tpot, tokens, keep,
                  cache.element_count(), meter.total(), cache.uniform_len(),
                  first, logits, (meter, step_meters))


def expected_flops(model: pe.Model, nt: int, kept: int, dense: bool) -> tuple[dict, int]:
    """Analytic per-bucket prefill FLOPs and the cache rows it leaves,
    composed from costmodel as the cost-agreement tests do."""
    d, v, p = model.cfg, model.vcfg, model.vip_cfg
    expect = {"visual": cm.visual_flops(v.nv, d.D, v.C, v.M),
              "lm_head": cm.lm_head_flops(1, d.D, d.vocab)}
    if dense:
        rows = v.nv + nt
        expect["decoder"] = d.L * cm.layer_flops(rows, d.D, d.H, d.ffn_dim)
    else:
        rows = kept + nt
        expect["decoder"] = (d.K * cm.layer_flops(v.nv + nt + 1, d.D, d.H, d.ffn_dim)
                             + (d.L - d.K) * cm.layer_flops(rows, d.D, d.H, d.ffn_dim))
        expect["vip"] = cm.vip_flops(v.nv, d.H, v.C, p.E, p.F, p.M, p.heads)
    return expect, rows


def check_served(state: ServingState, r: Served, op: int, failures: Failures) -> bool:
    """Exact FLOP agreement for the prefill and every decode step, and the
    cache length after decoding."""
    model = state.model
    d = model.cfg
    nt = len(state.pool[r.pool_index].question_ids)
    expect, rows = expected_flops(model, nt, r.keep.size, state.dense)
    prefill_meter, step_meters = r.meters
    ok = True
    if prefill_meter.by_bucket != expect:
        failures.flop_mismatch += 1
        failures.add(op, f"prefill FLOPs {prefill_meter.by_bucket} != analytic {expect}")
        ok = False
    for t, step in enumerate(step_meters):
        want = {"decoder": d.L * cm.decode_layer_flops(rows + t + 1, d.D, d.H, d.ffn_dim),
                "lm_head": cm.lm_head_flops(1, d.D, d.vocab)}
        if step.by_bucket != want:
            failures.flop_mismatch += 1
            failures.add(op, f"decode step {t} FLOPs {step.by_bucket} != analytic {want}")
            ok = False
    if r.cache_rows != rows + DECODE_TOKENS:
        failures.add(op, f"cache holds {r.cache_rows} rows, expected "
                         f"{rows} + {DECODE_TOKENS}")
        ok = False
    r.meters = None
    return ok


def check_against_oracle(state: ServingState, r: Served, op: int,
                         failures: Failures) -> bool:
    """Cache-free oracle at prefill and after decoding, and for pruned
    serving the library's own ``generate`` on the same request."""
    model, sample = state.model, state.pool[r.pool_index]
    ok = True
    for generated, got in (((), r.first_logits), (r.tokens, r.last_logits)):
        ref = pe.reference_oracle(sample.image, sample.question_ids, r.keep, model,
                                  generated_ids=generated)
        worst = float(np.abs(ref - got).max())
        if not worst <= ORACLE_TOL:
            failures.add(op, f"oracle differs by {worst:.3e} after "
                             f"{len(generated)} tokens")
            ok = False
    if not state.dense:
        answer, _, _ = pe.generate(sample.image, sample.question_ids, model,
                                   max_new=DECODE_TOKENS)
        if answer != r.tokens:
            failures.add(op, f"generate gave {answer}, decode loop gave {r.tokens}")
            ok = False
    return ok


def recall_of(keep: np.ndarray, mask: np.ndarray) -> float:
    fg = np.where(mask > 0.5)[0]
    return np.intersect1d(keep, fg).size / fg.size if fg.size else 1.0


@dataclass
class Outcome:
    """What a timed phase measured."""

    first_op: int = 0  # operations run before this phase, which numbers its ops
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0  # summed duration of the timed operations
    first_s: list[float] = field(default_factory=list)  # time to the first result
    op_s: list[float] = field(default_factory=list)  # time of the whole operation
    ref_s: list[float] = field(default_factory=list)  # reference kernel around each op
    served: list = field(default_factory=list)  # serving: one Served per request
    rounds: list = field(default_factory=list)  # training: one dict per round

    @property
    def ops_per_s(self) -> float:
        done = self.attempted - self.failed
        return done / self.busy_s if self.busy_s > 0 else 0.0


def run_serving(state: ServingState, seconds: float, failures: Failures,
                outcome: Outcome, on_op=None) -> Outcome:
    deadline = time.perf_counter() + seconds
    ref_before = reference.timed()
    while True:
        op = outcome.first_op + outcome.attempted
        outcome.attempted += 1
        if on_op is not None:
            on_op(op)
        try:
            r = serve(state, op)
        except Exception as exc:  # any error fails this request, not the run
            outcome.failed += 1
            failures.add(op, f"{type(exc).__name__}: {exc}")
            r = None
        ref_after = reference.timed()
        if r is not None:
            ok = check_served(state, r, op, failures)
            if op < CHECKED:
                ok = check_against_oracle(state, r, op, failures) and ok
            if ok:
                outcome.busy_s += r.total_s
                outcome.first_s.append(r.ttft_s)
                outcome.op_s.append(r.total_s)
                outcome.ref_s.append((ref_before + ref_after) / 2)
                r.first_logits = r.last_logits = None
                outcome.served.append(r)
            else:
                outcome.failed += 1
        if time.perf_counter() >= deadline:
            return outcome
        # The oracle checks after the first requests take long enough to
        # need a fresh reading.
        ref_before = ref_after if op >= CHECKED else reference.timed()


def serving_report(state: ServingState, out: Outcome) -> dict[str, tuple[float, str]]:
    """The serving figures each run prints by name."""
    ttft = [r.ttft_s * 1e3 for r in out.served]
    tpot = [s * 1e3 for r in out.served for s in r.tpot_s]
    pool = state.pool
    return {
        "ttft_p50_ms": (median(ttft), "ms"),
        "ttft_p90_ms": (percentile(ttft, 90), "ms"),
        "tpot_p50_ms": (median(tpot), "ms"),
        "tpot_p90_ms": (percentile(tpot, 90), "ms"),
        "requests_per_s": (out.ops_per_s, "1/s"),
        "foreground_recall": (float(np.mean([recall_of(r.keep, pool[r.pool_index].mask)
                                             for r in out.served])), "share"),
        "mean_retention": (float(np.mean([r.keep.size / state.model.vcfg.nv
                                          for r in out.served])), "share"),
        "kv_elements_mean": (float(np.mean([r.kv_elements for r in out.served])), "count"),
        "prefill_mflop_mean": (float(np.mean([r.prefill_flops for r in out.served])) / 1e6,
                               "MFLOP"),
        "mean_kept": (float(np.mean([r.keep.size for r in out.served])), "count"),
    }


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainingState:
    model: pe.Model
    initial: dict[str, np.ndarray]  # trainable arrays before any round
    frozen: list[bytes]  # backbone arrays, byte for byte
    seed: int
    path: str


def training_setup(seed: int, workdir: str) -> TrainingState:
    model = pe.build_model(bb.DecoderConfig(), bb.VisualStubConfig(), VipConfig(),
                           seed=TRAIN_CFG.seed)
    named = {"glimpse": model.glimpse.matrix, **model.vip.named()}
    return TrainingState(model, {k: v.copy() for k, v in named.items()},
                         [a.tobytes() for a in model.backbone.all_arrays()], seed,
                         os.path.join(workdir, f"train-{os.getpid()}.jsonl"))


def samples_equal(a: tr.GroundedSample, b: tr.GroundedSample) -> bool:
    return (a.image.dtype == b.image.dtype and a.image.tobytes() == b.image.tobytes()
            and a.question_ids == b.question_ids and a.answer_ids == b.answer_ids
            and [tuple(x) for x in a.boxes] == [tuple(x) for x in b.boxes]
            and a.mask.tobytes() == b.mask.tobytes())


def train_round(state: TrainingState, r: int, op: int, failures: Failures) -> dict:
    """Generate, save and reload one round of samples, then train on it
    from the same initial trainables. Returns the timings and history."""
    model = state.model
    data_seed = round_seed(state.seed, r)
    t0 = time.perf_counter()
    samples = tr.make_dataset(data_seed, TRAIN_ROUND)
    persist.save_dataset(state.path, samples, 8, 8, data_seed)
    loaded, _ = persist.load_dataset(state.path)
    t1 = time.perf_counter()
    model.glimpse.matrix[...] = state.initial["glimpse"]
    model.vip.load_named({k: v for k, v in state.initial.items() if k != "glimpse"})
    t2 = time.perf_counter()
    history = tr.train(loaded, model, TRAIN_CFG)
    t3 = time.perf_counter()

    ok = True
    if len(loaded) != len(samples) or not all(map(samples_equal, samples, loaded)):
        failures.add(op, f"round {r}: dataset round trip is not exact")
        ok = False
    if len(history) != TRAIN_ROUND or not all(math.isfinite(row[k]) for row in history
                                              for k in LOSS_KEYS):
        failures.add(op, f"round {r}: {len(history)} steps or a non-finite loss")
        ok = False
    if [a.tobytes() for a in model.backbone.all_arrays()] != state.frozen:
        failures.add(op, f"round {r}: training changed a frozen backbone array")
        ok = False
    if not ok:
        return {"ok": False}
    return {"ok": True, "gen_s": t1 - t0, "train_s": t3 - t2,
            "recall": float(np.mean([row["recall"] for row in history])),
            "retention": float(np.mean([row["retention"] for row in history]))}


def run_training(state: TrainingState, seconds: float, failures: Failures,
                 outcome: Outcome, on_op=None) -> Outcome:
    deadline = time.perf_counter() + seconds
    r = outcome.first_op // TRAIN_ROUND
    ref_before = reference.timed()
    while True:
        op = outcome.first_op + outcome.attempted
        outcome.attempted += TRAIN_ROUND
        if on_op is not None:
            on_op(op)
        try:
            rnd = train_round(state, r, op, failures)
        except Exception as exc:  # any error fails this round, not the run
            rnd = {"ok": False}
            failures.add(op, f"round {r}: {type(exc).__name__}: {exc}")
        ref_after = reference.timed()
        if rnd["ok"]:
            outcome.busy_s += rnd["train_s"]
            outcome.first_s.append(rnd["train_s"] / TRAIN_ROUND)
            outcome.op_s.append((rnd["gen_s"] + rnd["train_s"]) / TRAIN_ROUND)
            outcome.ref_s.append((ref_before + ref_after) / 2)
            outcome.rounds.append(rnd)
        else:
            outcome.failed += TRAIN_ROUND
        ref_before = ref_after
        r += 1
        if time.perf_counter() >= deadline:
            break
    if os.path.exists(state.path):
        os.remove(state.path)
    return outcome


def training_report(out: Outcome) -> dict[str, tuple[float, str]]:
    gen_s = sum(rnd["gen_s"] for rnd in out.rounds)
    n = len(out.rounds) * TRAIN_ROUND
    per_sample = [s * 1e3 for s in out.first_s]
    return {
        "train_samples_per_s": (out.ops_per_s, "1/s"),
        "gen_samples_per_s": (n / gen_s if gen_s > 0 else 0.0, "1/s"),
        "train_sample_p50_ms": (median(per_sample), "ms"),
        "train_sample_p90_ms": (percentile(per_sample, 90), "ms"),
        "foreground_recall": (float(np.mean([rnd["recall"] for rnd in out.rounds])), "share"),
        "mean_retention": (float(np.mean([rnd["retention"] for rnd in out.rounds])), "share"),
    }
