"""Per-layer metrics from a traced run, and the pruning-versus-dense report.

The layers are the library's modules. ``cli`` and ``errors`` carry no
hot-path work and get no metric. One thread runs everything and nothing
waits for a lock or a queue, so there is no wait metric either.

Unless a name says otherwise, a figure is per operation (a request, or a
trained sample) of the traced phase. ``rows``, ``cache_rows`` and
``kept_share`` are means per call; ``persist.*`` figures are per call;
``costmodel.flop_mismatch`` counts mismatching steps over the whole run.
A layer a workload never enters reads 0.
"""

from __future__ import annotations

import os
from statistics import median

from vtprune import autograd as ag
from vtprune import backbone as bb
from vtprune import costmodel as cm
from vtprune import numerics
from vtprune import persist
from vtprune import prune_engine as pe
from vtprune import training as tr
from vtprune import vip

import workloads as wl
from spans import OP, Tracer, self_times, totals_by_name


def _from_layer(args, kwargs) -> int:
    return args[4] if len(args) > 4 else kwargs["from_layer"]


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _kept_share(args, kwargs, result) -> dict:
    return {"kept_share": result.keep.size / args[0].size}


def build_tracer() -> Tracer:
    """Wrap each public function where its callers look it up."""
    t = Tracer()
    t.count_flops(numerics.FlopMeter)
    t.count_instances(ag.Tensor)
    for owner in (numerics, bb, pe):
        t.wrap(owner, "matmul", "numerics.matmul")
    t.wrap(ag.Tensor, "backward", "autograd.backward")
    t.wrap(bb, "encode_visual", "backbone.encode_visual")
    t.wrap(bb, "prefill_layers",
           lambda a, k: "backbone.prefill_layers." + ("head" if _from_layer(a, k) == 1
                                                       else "tail"),
           attrs=lambda a, k, r: {"rows": a[1].shape[0]})
    t.wrap(bb, "decode_step", "backbone.decode_step",
           attrs=lambda a, k, r: {"cache_rows": a[1].layer_len(0)})
    t.wrap(bb.KVCache, "append", "backbone.KVCache.append",
           attrs=lambda a, k, r: {"bytes_copied": a[0].k[a[1]].nbytes + a[0].v[a[1]].nbytes})
    t.wrap(bb, "lm_logits", "backbone.lm_logits")
    t.wrap(pe, "vip_forward", "vip.vip_forward")
    for owner in (vip, tr):
        t.wrap(owner, "importance_logits", "vip.importance_logits")
    for owner in (pe, tr):
        t.wrap(owner, "select_tokens", "vip.select_tokens", attrs=_kept_share)
    t.wrap(pe, "prune_state", "prune_engine.prune_state",
           attrs=lambda a, k, r: {"rows_dropped": a[3].total_len - r[0].shape[0]})
    t.wrap(pe, "glimpse_prune_prefill", "prune_engine.glimpse_prune_prefill")
    t.wrap(pe, "baseline_prefill", "prune_engine.baseline_prefill")
    t.wrap(tr, "train", "training.train")
    t.wrap(tr, "training_forward", "training.training_forward")
    t.wrap(tr.AdamW, "step", "training.AdamW.step")
    t.wrap(tr, "make_dataset", "training.make_dataset")
    for name in ("save_dataset", "load_dataset", "load_checkpoint"):
        t.wrap(persist, name, f"persist.{name}", attrs=_file_bytes)
    return t


# (metric, span name, what, unit). "calls", "self_ms", "mflop" and
# "sum:<attr>" are per operation; "rate" is inclusive GFLOP/s; "mean:<attr>"
# and "call:<attr>" average an attribute per call; "call_ms" is self time
# per call.
LAYER_TABLE = (
    ("numerics.matmul.calls", "numerics.matmul", "calls", "count"),
    ("numerics.matmul.self_ms", "numerics.matmul", "self_ms", "ms"),
    ("numerics.matmul.mflop", "numerics.matmul", "mflop", "MFLOP"),
    ("numerics.matmul.gflops_per_s", "numerics.matmul", "rate", "GFLOP/s"),
    ("autograd.backward.self_ms", "autograd.backward", "self_ms", "ms"),
    ("backbone.encode_visual.self_ms", "backbone.encode_visual", "self_ms", "ms"),
    ("backbone.prefill_layers.head.self_ms", "backbone.prefill_layers.head", "self_ms", "ms"),
    ("backbone.prefill_layers.head.rows", "backbone.prefill_layers.head", "mean:rows", "count"),
    ("backbone.prefill_layers.head.mflop", "backbone.prefill_layers.head", "mflop", "MFLOP"),
    ("backbone.prefill_layers.tail.self_ms", "backbone.prefill_layers.tail", "self_ms", "ms"),
    ("backbone.prefill_layers.tail.rows", "backbone.prefill_layers.tail", "mean:rows", "count"),
    ("backbone.prefill_layers.tail.mflop", "backbone.prefill_layers.tail", "mflop", "MFLOP"),
    ("backbone.decode_step.self_ms", "backbone.decode_step", "self_ms", "ms"),
    ("backbone.decode_step.cache_rows", "backbone.decode_step", "mean:cache_rows", "count"),
    ("backbone.KVCache.append.calls", "backbone.KVCache.append", "calls", "count"),
    ("backbone.KVCache.append.bytes_copied", "backbone.KVCache.append", "sum:bytes_copied",
     "B"),
    ("backbone.lm_logits.self_ms", "backbone.lm_logits", "self_ms", "ms"),
    ("vip.vip_forward.self_ms", "vip.vip_forward", "self_ms", "ms"),
    ("vip.vip_forward.mflop", "vip.vip_forward", "mflop", "MFLOP"),
    ("vip.vip_forward.gflops_per_s", "vip.vip_forward", "rate", "GFLOP/s"),
    ("vip.importance_logits.self_ms", "vip.importance_logits", "self_ms", "ms"),
    ("vip.select_tokens.self_ms", "vip.select_tokens", "self_ms", "ms"),
    ("vip.select_tokens.kept_share", "vip.select_tokens", "mean:kept_share", "share"),
    ("prune_engine.prune_state.self_ms", "prune_engine.prune_state", "self_ms", "ms"),
    ("prune_engine.prune_state.rows_dropped", "prune_engine.prune_state",
     "sum:rows_dropped", "count"),
    ("prune_engine.glimpse_prune_prefill.self_ms", "prune_engine.glimpse_prune_prefill",
     "self_ms", "ms"),
    ("prune_engine.baseline_prefill.self_ms", "prune_engine.baseline_prefill", "self_ms",
     "ms"),
    ("training.train.self_ms", "training.train", "self_ms", "ms"),
    ("training.training_forward.self_ms", "training.training_forward", "self_ms", "ms"),
    ("training.AdamW.step.self_ms", "training.AdamW.step", "self_ms", "ms"),
    ("training.make_dataset.self_ms", "training.make_dataset", "self_ms", "ms"),
    ("persist.save_dataset.self_ms", "persist.save_dataset", "call_ms", "ms"),
    ("persist.save_dataset.bytes", "persist.save_dataset", "call:bytes", "B"),
    ("persist.load_dataset.self_ms", "persist.load_dataset", "call_ms", "ms"),
    ("persist.load_dataset.bytes", "persist.load_dataset", "call:bytes", "B"),
    ("persist.load_checkpoint.self_ms", "persist.load_checkpoint", "call_ms", "ms"),
    ("persist.load_checkpoint.bytes", "persist.load_checkpoint", "call:bytes", "B"),
)

OTHER_METRICS = {
    "autograd.tensors_created": "count",
    "backbone.KVCache.elements": "count",
    "costmodel.flop_mismatch": "count",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_pct": "%",
}

PER_LAYER = {name: unit for name, _, _, unit in LAYER_TABLE} | OTHER_METRICS


def _layer_value(t: dict | None, what: str, ops: int) -> float:
    if not t:
        return 0.0
    if what == "calls":
        return t["calls"] / ops
    if what == "self_ms":
        return t["self_s"] * 1e3 / ops
    if what == "mflop":
        return t["flops"] / 1e6 / ops
    if what == "rate":
        return t["flops"] / t["total_s"] / 1e9 if t["total_s"] > 0 else 0.0
    if what == "call_ms":
        return t["self_s"] * 1e3 / t["calls"]
    kind, key = what.split(":")
    if kind == "sum":
        return t.get(key, 0) / ops
    return t.get(key, 0) / t["calls"]  # "mean" and "call"


def per_layer_metrics(tracer: Tracer, traced: wl.Outcome, untraced: wl.Outcome,
                      failures: wl.Failures) -> dict[str, tuple[float, str]]:
    own = self_times(tracer.spans)
    hot = totals_by_name(tracer.spans, own, lambda s: s[OP] != "setup")
    setup = totals_by_name(tracer.spans, own, lambda s: s[OP] == "setup")
    ops = traced.attempted
    out = {}
    for metric, span, what, unit in LAYER_TABLE:
        totals = setup if span == "persist.load_checkpoint" else hot
        out[metric] = (_layer_value(totals.get(span), what, ops), unit)
    kv = [r.kv_elements for r in traced.served]
    rate_off, rate_on = untraced.ops_per_s, traced.ops_per_s
    rel_off, rel_on = (median([t / r for t, r in zip(o.op_s, o.ref_s)]) if o.op_s else 0.0
                       for o in (untraced, traced))
    extra = {
        "autograd.tensors_created": tracer.instances / ops,
        "backbone.KVCache.elements": sum(kv) / len(kv) if kv else 0.0,
        "costmodel.flop_mismatch": float(failures.flop_mismatch),
        "trace.untraced_ops_per_s": rate_off,
        "trace.traced_ops_per_s": rate_on,
        "trace.overhead_pct": (rel_on / rel_off - 1.0) * 100.0 if rel_off else 0.0,
    }
    out.update((k, (v, OTHER_METRICS[k])) for k, v in extra.items())
    return out


def pruning_report(pruned: dict, dense: dict) -> list[str]:
    """Measured serve/dense ratios beside costmodel's at the measured
    mean pruned length S' (report only, no gate)."""
    p, d = pruned["figures"], dense["figures"]
    dcfg = bb.DecoderConfig()
    vcfg = bb.VisualStubConfig(grid_h=wl.GRID["serve-16x16"], grid_w=wl.GRID["serve-16x16"])
    vip_cfg = vip.VipConfig()
    nt = 4  # every generated question is <q> ask x </q>
    s_pruned = p["mean_kept"]["value"] + nt
    s_dense = vcfg.nv + nt
    L, K, D, H, F = dcfg.L, dcfg.K, dcfg.D, dcfg.H, dcfg.ffn_dim
    fixed = (cm.visual_flops(vcfg.nv, D, vcfg.C, vcfg.M)
             + cm.lm_head_flops(1, D, dcfg.vocab))
    prefill = ((fixed + K * cm.layer_flops(s_dense + 1, D, H, F)
                + (L - K) * cm.layer_flops(s_pruned, D, H, F)
                + cm.vip_flops(vcfg.nv, H, vcfg.C, vip_cfg.E, vip_cfg.F, vip_cfg.M,
                               vip_cfg.heads))
               / (fixed + L * cm.layer_flops(s_dense, D, H, F)))
    steps = range(1, wl.DECODE_TOKENS + 1)
    head = cm.lm_head_flops(1, D, dcfg.vocab)
    decode = (sum(L * cm.decode_layer_flops(s_pruned + t, D, H, F) + head for t in steps)
              / sum(L * cm.decode_layer_flops(s_dense + t, D, H, F) + head for t in steps))
    kv = (cm.kv_elements(L, s_pruned + wl.DECODE_TOKENS, D)
          / cm.kv_elements(L, s_dense + wl.DECODE_TOKENS, D))

    def ratio(name):
        return p[name]["value"] / d[name]["value"]

    ttft_rel = pruned["end_to_end"]["latency_p50_rel"] / dense["end_to_end"]["latency_p50_rel"]
    return [
        f"pruning-vs-dense seed={pruned['seed']} mean_S'={s_pruned:.2f} S={s_dense}",
        f"ratio prefill measured_ttft_p50={ratio('ttft_p50_ms'):.4f} "
        f"measured_ttft_rel={ttft_rel:.4f} "
        f"counted_mflop={ratio('prefill_mflop_mean'):.4f} analytic={prefill:.4f}",
        f"ratio decode measured_tpot_p50={ratio('tpot_p50_ms'):.4f} analytic={decode:.4f}",
        f"ratio kv measured_kv_elements={ratio('kv_elements_mean'):.4f} analytic={kv:.4f}",
    ]
