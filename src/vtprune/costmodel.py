"""Closed-form FLOP and KV-memory model, plus the analytic cost report.

The formulas use the same accounting convention as the instrumented
counter in :mod:`vtprune.numerics`: every matrix product of shapes
(m, k) @ (k, n) costs 2mkn, and nothing else is counted (softmax, norms,
rotations, and elementwise work are excluded on both sides). That makes
"counted equals analytic" an exact statement rather than an estimate,
and the tests hold it to zero tolerance on instrumented toy runs.

The same formulas evaluated at published model dimensions give the
full-scale estimates used by the `cost` command. Those are estimates of
a different implementation's accounting, so they come with loose
tolerances rather than exactness claims.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

from .errors import ConfigError, StateError

__all__ = [
    "ArchPreset",
    "PRESETS",
    "CostReport",
    "kv_elements",
    "layer_flops",
    "decode_layer_flops",
    "visual_flops",
    "vip_flops",
    "lm_head_flops",
    "prefill_flops",
    "pruned_prefill_flops",
    "analytic_report",
    "CSV_COLUMNS",
]

# Predictor dimensions used for full-scale estimates. The toy pipeline
# runs much smaller ones; vip_flops takes them as arguments either way.
FULL_SCALE_E = 256
FULL_SCALE_F = 512
FULL_SCALE_M = 4
FULL_SCALE_HEADS = 4


@dataclass(frozen=True)
class ArchPreset:
    """Published decoder dimensions for analytic estimates.

    ffn_dim values follow the public architecture family configs; C is
    the vision-tower feature width feeding the conditional predictor.
    L, D, H, ffn_dim and C must be at least 1, and the prune layer K
    must lie in 1..L.
    """

    name: str
    L: int
    D: int
    H: int
    ffn_dim: int
    K: int
    C: int
    notes: str = ""

    def __post_init__(self) -> None:
        for dim in ("L", "D", "H", "ffn_dim", "C"):
            if getattr(self, dim) < 1:
                raise ConfigError(f"{dim} must be >= 1, got {getattr(self, dim)}")
        if not 1 <= self.K <= self.L:
            raise ConfigError(f"K={self.K} outside 1..L={self.L}")


PRESETS: dict[str, ArchPreset] = {
    p.name: p
    for p in (
        ArchPreset("qwen2.5-vl-3b", L=36, D=2048, H=16, ffn_dim=11008, K=24, C=1280),
        ArchPreset("qwen2.5-vl-7b", L=28, D=3584, H=28, ffn_dim=18944, K=19, C=1280),
        ArchPreset("llava-1.5-7b", L=32, D=4096, H=32, ffn_dim=11008, K=22, C=1024),
        ArchPreset("llava-1.5-13b", L=40, D=5120, H=40, ffn_dim=13824, K=27, C=1024),
    )
}


def kv_elements(L: int, S: int, D: int) -> int:
    """Stored cache scalars for S cached positions: 2·L·S·D."""
    if min(L, S, D) < 1:
        raise ConfigError("kv_elements needs positive L, S, D")
    return 2 * L * S * D


def layer_flops(S: int, D: int, H: int, ffn_dim: int) -> float:
    """One decoder layer prefilling S rows.

    8·S·D² for the QKVO projections, 4·S²·D for scores plus weighted
    values (head count cancels: H heads of width D/H), and 6·S·D·ffn for
    the three gated-MLP products.
    """
    if S < 1:
        raise ConfigError(f"sequence length must be >= 1, got {S}")
    return 8.0 * S * D * D + 4.0 * S * S * D + 6.0 * S * D * ffn_dim


def decode_layer_flops(n: int, D: int, H: int, ffn_dim: int) -> float:
    """One decoder layer advancing a single row against n cached keys:
    8·D² + 4·n·D + 6·D·ffn. Linear in n, which is the whole point of
    pruning the cache."""
    if n < 1:
        raise ConfigError(f"cache length must be >= 1, got {n}")
    return 8.0 * D * D + 4.0 * n * D + 6.0 * D * ffn_dim


def visual_flops(nv: int, D: int, C: int, M: int) -> float:
    """Visual front end: raw-pixel projection to D plus M pooled-level
    projections to C (pooling itself is not matmul and is uncounted)."""
    return 6.0 * nv * D + 6.0 * M * nv * C


def vip_flops(nv: int, attn_heads: int, C: int, E: int, F: int, M: int,
              heads: int) -> float:
    """Conditional importance predictor over nv visual tokens.

    Per block: value projection 2·nv·C·F, four E×E projections 8·nv·E²,
    score products 2·nv²·(E+F) (queries and keys carry the concatenated
    conditioning), and weighted values 2·nv²·E. Head count cancels. The
    input projection costs 2·nv·attn_heads·E and the scoring head 2·nv·E.
    """
    per_block = (2.0 * nv * C * F + 8.0 * nv * E * E
                 + 2.0 * nv * nv * (E + F) + 2.0 * nv * nv * E)
    return 2.0 * nv * attn_heads * E + M * per_block + 2.0 * nv * E


def lm_head_flops(rows: int, D: int, vocab: int) -> float:
    return 2.0 * rows * D * vocab


def prefill_flops(L: int, S: int, D: int, H: int, ffn_dim: int) -> float:
    return L * layer_flops(S, D, H, ffn_dim)


def pruned_prefill_flops(preset: ArchPreset, S: int, S_pruned: int,
                         E: int = FULL_SCALE_E, F: int = FULL_SCALE_F,
                         M: int = FULL_SCALE_M, heads: int = FULL_SCALE_HEADS,
                         ) -> tuple[float, float, float]:
    """(baseline, pruned, ratio) prefill FLOPs for a preset.

    Baseline runs all L layers at length S. The pruned pipeline pays the
    first K layers at S, the predictor over all S tokens, and the
    remaining L-K layers at S_pruned. The sequence is treated as
    visual-dominated (S ~ Nv), which is the regime the estimate targets.
    """
    if S_pruned > S:
        raise ConfigError(f"S_pruned {S_pruned} exceeds S {S}")
    baseline = prefill_flops(preset.L, S, preset.D, preset.H, preset.ffn_dim)
    pruned = (preset.K * layer_flops(S, preset.D, preset.H, preset.ffn_dim)
              + (preset.L - preset.K) * layer_flops(S_pruned, preset.D, preset.H,
                                                    preset.ffn_dim)
              + vip_flops(S, preset.H, preset.C, E, F, M, heads))
    return baseline, pruned, pruned / baseline


CSV_COLUMNS = ("name", "L", "D", "K", "S", "S_pruned", "prefill_base",
               "prefill_pruned", "ratio", "kv_base", "kv_pruned")


@dataclass
class CostReport:
    name: str
    L: int
    D: int
    K: int
    S: int
    S_pruned: int
    prefill_flops_baseline: float
    prefill_flops_pruned: float
    decode_flops_per_token_baseline: float
    decode_flops_per_token_pruned: float
    kv_elements_baseline: int
    kv_elements_pruned: int
    kv_bytes_baseline: float
    kv_bytes_pruned: float
    ratios: dict[str, float] = field(default_factory=dict)

    def validate(self) -> None:
        """Internal-consistency checks.

        Cache and decode ratios are exact consequences of the cache
        lengths and must sit in (0, 1] whenever S_pruned <= S. The
        prefill ratio can exceed 1 only in the degenerate case where the
        predictor costs more than the layers it failed to shrink, so it
        is only required to be positive.
        """
        for key in ("kv", "decode_per_token", "decode_attention"):
            r = self.ratios[key]
            if not (0.0 < r <= 1.0) and self.S_pruned <= self.S:
                raise StateError(f"ratio {key}={r} outside (0, 1]")
        if self.ratios["prefill"] <= 0.0:
            raise StateError("prefill ratio must be positive")
        if self.kv_elements_pruned > self.kv_elements_baseline and self.S_pruned <= self.S:
            raise StateError("pruned cache larger than baseline")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def csv_row(self) -> str:
        values = (self.name, self.L, self.D, self.K, self.S, self.S_pruned,
                  repr(self.prefill_flops_baseline), repr(self.prefill_flops_pruned),
                  repr(self.ratios["prefill"]), self.kv_elements_baseline,
                  self.kv_elements_pruned)
        return ",".join(str(v) for v in values)


def analytic_report(preset: ArchPreset, S: int, S_pruned: int,
                    bytes_per_element: float = 2.0) -> CostReport:
    """Closed-form report for a preset at the given sequence lengths;
    ``ConfigError`` if a FLOP, byte or ratio figure is not a finite float."""
    try:
        prefill_base, prefill_pruned, _ = pruned_prefill_flops(preset, S, S_pruned)
        L, D, H, ffn_dim = preset.L, preset.D, preset.H, preset.ffn_dim
        decode_base = L * decode_layer_flops(S + 1, D, H, ffn_dim)
        decode_pruned = L * decode_layer_flops(S_pruned + 1, D, H, ffn_dim)
        kv_base = kv_elements(L, S, D)
        kv_pruned = kv_elements(L, S_pruned, D)
        report = CostReport(
            name=preset.name, L=L, D=D, K=preset.K, S=S, S_pruned=S_pruned,
            prefill_flops_baseline=prefill_base,
            prefill_flops_pruned=prefill_pruned,
            decode_flops_per_token_baseline=decode_base,
            decode_flops_per_token_pruned=decode_pruned,
            kv_elements_baseline=kv_base,
            kv_elements_pruned=kv_pruned,
            kv_bytes_baseline=kv_base * bytes_per_element,
            kv_bytes_pruned=kv_pruned * bytes_per_element,
            ratios={
                "prefill": prefill_pruned / prefill_base,
                "decode_per_token": decode_pruned / decode_base,
                # the attention term 4nD alone, which scales exactly with
                # the cache length
                "decode_attention": (S_pruned + 1) / (S + 1),
                "kv": kv_pruned / kv_base,
            },
        )
    except OverflowError:  # an integer past the float range
        raise ConfigError("sequence length too large for float cost figures") from None
    figures = {**asdict(report), **report.ratios}
    bad = [k for k, v in figures.items() if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise ConfigError(f"inputs too large: non-finite {', '.join(bad)}")
    report.validate()
    return report
