"""Command-line surface: data generation, training, inference, cost
reports, and a self-test runner.

Conventions shared by every subcommand:

* stdout is machine-parseable: ``key=value`` lines, ``grid`` blocks whose
  following rows are the ASCII keep-map, and ``PASS``/``FAIL`` lines from
  the self-test. Diagnostics go to stderr.
* exit codes: 0 success, 1 invariant failure, 2 usage or IO error,
  3 numeric failure.
* the default seed comes from the VTPRUNE_SEED environment variable and
  is overridden by ``--seed``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import costmodel as cm
from . import persist
from . import prune_engine as pe
from . import training as tr
from .backbone import decode_step
from .errors import ConfigError, DataFormatError, NumericError, StateError, VtpruneError
from .numerics import ACCUMULATE_MAX_CELLS, FlopMeter, Rng, matmul
from .vip import select_tokens

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

SEED_ENV_VAR = "VTPRUNE_SEED"


def _env_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        print(f"warning: ignoring non-integer {SEED_ENV_VAR}={raw!r}", file=sys.stderr)
        return 0


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        h_str, w_str = text.lower().split("x")
        h, w = int(h_str), int(w_str)
    except ValueError:
        raise ConfigError(f"grid must look like 8x8, got {text!r}")
    if h < 2 or w < 2:
        raise ConfigError(f"grid {text!r} too small, need at least 2x2")
    return h, w


def _parse_question(text: str) -> list[int]:
    """Space-separated symbol names or integer token ids."""
    ids = []
    for word in text.split():
        if word in tr.TOKEN_IDS:
            ids.append(tr.TOKEN_IDS[word])
        else:
            try:
                ids.append(int(word))
            except ValueError:
                known = " ".join(sorted(tr.TOKEN_IDS))
                raise ConfigError(f"unknown token {word!r}; known symbols: {known}")
    if not ids:
        raise ConfigError("question is empty")
    return ids


def _symbols_of(ids) -> str:
    return " ".join(tr.SYMBOLS.get(t, str(t)) for t in ids)


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    grid_h, grid_w = _parse_grid(args.grid)
    if args.count < 1:
        raise ConfigError(f"--count must be at least 1, got {args.count}")
    samples = tr.make_dataset(args.seed, args.count, grid_h, grid_w)
    persist.save_dataset(args.out, samples, grid_h, grid_w, args.seed)
    print(f"out={args.out}")
    print(f"count={len(samples)}")
    print(f"grid={grid_h}x{grid_w}")
    print(f"seed={args.seed}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    if args.config is not None:
        bundle = persist.load_run_config(args.config)
    else:
        bundle = persist.parse_run_config(persist.default_run_config())
    if args.seed is not None:
        bundle.seed = args.seed
    samples, header = persist.load_dataset(args.data)
    grid_h, grid_w = header["grid"]
    if (grid_h, grid_w) != (bundle.visual.grid_h, bundle.visual.grid_w):
        raise DataFormatError(
            f"dataset grid {grid_h}x{grid_w} does not match configured "
            f"{bundle.visual.grid_h}x{bundle.visual.grid_w}")

    model = pe.build_model(bundle.decoder, bundle.visual, bundle.vip, seed=bundle.seed)
    history = tr.train(samples, model, bundle.train)
    bad = [row for row in history if not all(math.isfinite(v) for v in row.values())]
    if bad:
        raise NumericError(f"non-finite training metrics at step {bad[0]['step']:.0f}")

    config_snapshot = {
        "decoder": asdict(bundle.decoder),
        "visual": asdict(bundle.visual),
        "vip": asdict(bundle.vip),
        "train": asdict(bundle.train),
        "seed": bundle.seed,
    }
    persist.save_checkpoint(args.out, model, config_snapshot)
    if args.metrics:
        persist.save_metrics(args.metrics, history)
        print(f"metrics={args.metrics}")
    last = history[-1]
    print(f"checkpoint={args.out}")
    print(f"steps={len(history)}")
    print(f"final_loss={last['loss']!r}")
    print(f"final_recall={last['recall']!r}")
    print(f"final_retention={last['retention']!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    ckpt = persist.load_checkpoint(args.ckpt)
    model, bundle = persist.model_from_checkpoint(ckpt)
    vcfg = model.vcfg

    if args.image is not None:
        image = persist.read_ppm(args.image)
        if image.shape != (vcfg.grid_h, vcfg.grid_w, 3):
            raise DataFormatError(
                f"image shape {image.shape[:2]} does not match the model grid "
                f"{vcfg.grid_h}x{vcfg.grid_w}")
        if args.question is None:
            raise ConfigError("--question is required with --image")
        question = _parse_question(args.question)
        reference_answer = None
    else:
        sample = tr.sample_for_index(args.seed, args.sample_id,
                                     vcfg.grid_h, vcfg.grid_w)
        image = sample.image
        question = (_parse_question(args.question)
                    if args.question is not None else sample.question_ids)
        reference_answer = sample.answer_ids

    meter = FlopMeter()
    answer_ids, stats, decode_flops = pe.generate(
        image, question, model, max_new=args.max_new,
        tau=args.tau, r_max=args.rmax, meter=meter)

    print(f"question_ids={','.join(map(str, question))}")
    print(f"question_symbols={_symbols_of(question)}")
    print(f"answer_ids={','.join(map(str, answer_ids))}")
    print(f"answer_symbols={_symbols_of(answer_ids)}")
    if reference_answer is not None:
        print(f"reference_answer_symbols={_symbols_of(reference_answer)}")
    print(f"nv={stats.Nv}")
    print(f"nv_kept={stats.Nv_kept}")
    print(f"retention={stats.retention_rate!r}")
    print(f"cache_len={stats.cache_len_after}")
    print(f"prefill_flops={stats.prefill_flops_counted!r}")
    print(f"decode_flops={decode_flops!r}")
    print(f"total_flops={meter.total()!r}")

    if args.heatmap:
        gray = np.clip(np.round(stats.importance * 255.0), 0, 255).astype(np.uint8)
        persist.write_pgm(args.heatmap, gray.reshape(vcfg.grid_h, vcfg.grid_w))
        print(f"heatmap={args.heatmap}")

    kept = np.zeros(stats.Nv, dtype=bool)
    kept[stats.keep] = True
    print("grid kept=# dropped=.")
    for r in range(vcfg.grid_h):
        row = kept[r * vcfg.grid_w : (r + 1) * vcfg.grid_w]
        print("".join("#" if k else "." for k in row))
    return EXIT_OK


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------


def cmd_cost(args) -> int:
    if args.preset is not None:
        preset = cm.PRESETS.get(args.preset)
        if preset is None:
            raise ConfigError(f"unknown preset {args.preset!r}; "
                              f"known: {', '.join(sorted(cm.PRESETS))}")
    else:
        if args.L is None or args.D is None or args.K is None:
            raise ConfigError("either --preset or all of --L/--D/--K are required")
        preset = cm.ArchPreset(name="custom", L=args.L, D=args.D,
                               H=args.H if args.H is not None else 1,
                               ffn_dim=args.ffn if args.ffn is not None else 4 * args.D,
                               K=args.K,
                               C=args.C if args.C is not None else 1024)
    if not (1 <= preset.K <= preset.L):
        raise ConfigError(f"K={preset.K} outside 1..L={preset.L}")
    if args.S_pruned > args.S:
        raise ConfigError(f"--S-pruned {args.S_pruned} exceeds --S {args.S}")
    if not (math.isfinite(args.bytes_per_element) and args.bytes_per_element > 0):
        raise ConfigError(f"--bytes-per-element must be a positive finite number, "
                          f"got {args.bytes_per_element}")

    report = cm.analytic_report(preset, args.S, args.S_pruned,
                                bytes_per_element=args.bytes_per_element)
    if args.json:
        print(report.to_json())
        return EXIT_OK
    if args.csv:
        print(",".join(cm.CSV_COLUMNS))
        print(report.csv_row())
        return EXIT_OK
    print(f"preset={report.name}")
    print(f"L={report.L}")
    print(f"D={report.D}")
    print(f"K={report.K}")
    print(f"S={report.S}")
    print(f"S_pruned={report.S_pruned}")
    print(f"prefill_base={report.prefill_flops_baseline!r}")
    print(f"prefill_pruned={report.prefill_flops_pruned!r}")
    print(f"prefill_ratio={report.ratios['prefill']!r}")
    print(f"decode_per_token_base={report.decode_flops_per_token_baseline!r}")
    print(f"decode_per_token_pruned={report.decode_flops_per_token_pruned!r}")
    print(f"kv_base={report.kv_elements_baseline}")
    print(f"kv_pruned={report.kv_elements_pruned}")
    print(f"kv_bytes_base={report.kv_bytes_baseline!r}")
    print(f"kv_bytes_pruned={report.kv_bytes_pruned!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def _toy_model(seed=0, L=4, D=32, H=4, grid=4):
    from .backbone import DecoderConfig, VisualStubConfig
    from .vip import VipConfig

    dcfg = DecoderConfig(L=L, D=D, H=H, ffn_dim=2 * D, vocab=16)
    vcfg = VisualStubConfig(grid_h=grid, grid_w=grid, C=8, M=2, embed_dim=D, seed=3)
    return pe.build_model(dcfg, vcfg, VipConfig(E=8, F=8, heads=4), seed=seed)


def _check_matmul_oracle() -> None:
    rng = Rng(12)
    # one product per strategy: accumulate, rank-1 loop, transposed rank-1 loop
    for m, k, n in ((1, 5, 16), (ACCUMULATE_MAX_CELLS // 16 + 1, 5, 16), (200, 5, 4)):
        a = rng.uniform_array((m, k), -1.0, 1.0)
        b = rng.uniform_array((k, n), -1.0, 1.0)
        slow = np.zeros((m, n))
        for i in range(m):
            for j in range(n):
                acc = 0.0
                for t in range(k):
                    acc += a[i, t] * b[t, j]
                slow[i, j] = acc
        if matmul(a, b).tobytes() != slow.tobytes():
            raise AssertionError(f"matmul disagrees with the triple-loop oracle "
                                 f"at ({m}, {k}) @ ({k}, {n})")


def _check_oracle_equivalence() -> None:
    for seed in (0, 1):
        model = _toy_model(seed=seed)
        s = tr.sample_for_index(40 + seed, 0, 4, 4)
        cache, logits, _, stats = pe.glimpse_prune_prefill(
            s.image, s.question_ids, model, tau=0.6)
        ref = pe.reference_oracle(s.image, s.question_ids, stats.keep, model)
        if np.abs(logits - ref).max() > 1e-10:
            raise AssertionError(f"prefill logits off by "
                                 f"{np.abs(logits - ref).max():.3e} (seed {seed})")
        generated = []
        pos0 = stats.Nv + stats.Nt
        cur = logits
        for step in range(4):
            tok = int(np.argmax(cur))
            generated.append(tok)
            cur = decode_step(model.backbone, cache, tok, position=pos0 + step)
            ref = pe.reference_oracle(s.image, s.question_ids, stats.keep, model,
                                      generated_ids=tuple(generated))
            if np.abs(cur - ref).max() > 1e-10:
                raise AssertionError(f"decode step {step} logits off by "
                                     f"{np.abs(cur - ref).max():.3e} (seed {seed})")


def _check_non_perturbation() -> None:
    from .backbone import (KVCache, TokenSequence, append_glimpse,
                           assemble_input_rows, encode_visual, grid_coords,
                           prefill_layers)

    model = _toy_model(seed=2)
    params = model.backbone
    cfg, vcfg = params.cfg, params.vcfg
    s = tr.sample_for_index(77, 0, 4, 4)
    embeds, _ = encode_visual(s.image, vcfg, params)
    rows, cols = grid_coords(vcfg.grid_h, vcfg.grid_w)
    seq = TokenSequence(visual_embeds=embeds, rows=rows, cols=cols,
                        text_ids=list(s.question_ids))
    plain_in = assemble_input_rows(seq, params)
    cache_a = KVCache(cfg.L, cfg.H, cfg.head_dim)
    plain, _ = prefill_layers(params, plain_in, np.arange(seq.total_len),
                              cache_a, 1, cfg.L)

    seq_g = append_glimpse(seq, model.glimpse)
    glimpse_in = assemble_input_rows(seq_g, params, model.glimpse)
    cache_b = KVCache(cfg.L, cfg.H, cfg.head_dim)
    with_g, _ = prefill_layers(params, glimpse_in, np.arange(seq_g.total_len),
                               cache_b, 1, cfg.L, glimpse=model.glimpse,
                               glimpse_pos=seq_g.glimpse_pos)
    diff = np.abs(with_g[: seq.total_len] - plain).max()
    if diff > 1e-12:
        raise AssertionError(f"glimpse perturbs other rows by {diff:.3e}")


def _check_keep_all_neutrality() -> None:
    model = _toy_model(seed=4)
    s = tr.sample_for_index(41, 1, 4, 4)
    _, base_logits = pe.baseline_prefill(s.image, s.question_ids, model)
    _, logits, _, stats = pe.glimpse_prune_prefill(s.image, s.question_ids, model,
                                                   tau=0.0, r_max=1.0)
    if stats.Nv_kept != stats.Nv:
        raise AssertionError("tau=0 did not keep every token")
    if np.abs(logits - base_logits).max() > 1e-10:
        raise AssertionError(f"keep-all logits drift "
                             f"{np.abs(logits - base_logits).max():.3e}")


def _check_selection_cap_properties() -> None:
    rng = Rng(9)
    for case in range(2000):
        nv = 1 + rng.randint(24)
        p = np.array([rng.random() for _ in range(nv)])
        if rng.random() < 0.3:  # tie-heavy values
            p = np.round(p * 4) / 4
        tau = rng.random()
        r_max = 0.05 + 0.95 * rng.random()
        sel = select_tokens(p, tau, r_max)
        cap = max(1, math.ceil(r_max * nv))
        if not (1 <= sel.keep.size <= cap):
            raise AssertionError(f"case {case}: keep size {sel.keep.size} "
                                 f"outside 1..{cap}")
        above = np.where(p >= tau)[0]
        if above.size == 0:
            expect = np.array([int(np.argmax(p))])
        elif above.size <= cap:
            expect = above
        else:
            order = sorted(above, key=lambda i: (-p[i], i))[:cap]
            expect = np.array(sorted(order))
        if not np.array_equal(sel.keep, expect):
            raise AssertionError(f"case {case}: selection {sel.keep} != {expect}")


def _check_gradient() -> None:
    from .backbone import DecoderConfig, VisualStubConfig
    from .vip import VipConfig

    dcfg = DecoderConfig(L=3, D=16, H=2, ffn_dim=24, vocab=16, K=2)
    vcfg = VisualStubConfig(grid_h=3, grid_w=3, C=8, M=2, embed_dim=16, seed=5)
    model = pe.build_model(dcfg, vcfg, VipConfig(E=4, F=4, heads=2), seed=11)
    model.vip.head_w[:] = np.linspace(-0.3, 0.3, model.vip.head_w.size).reshape(
        model.vip.head_w.shape)
    s = tr.sample_for_index(3, 0, 3, 3)
    w = tr.LossWeights()
    _, _, grads = tr.grad(s, model, w)
    named = {"glimpse": model.glimpse.matrix, **model.vip.named()}
    probe = np.random.default_rng(1)
    h = 1e-4
    for name in ("glimpse", "vip.head_w", "vip.b0.wq"):
        arr, g = named[name].reshape(-1), grads[name].reshape(-1)
        for idx in probe.choice(arr.size, size=2, replace=False):
            old = arr[idx]
            arr[idx] = old + h
            plus, _ = tr.total_loss(s, model, w)
            arr[idx] = old - h
            minus, _ = tr.total_loss(s, model, w)
            arr[idx] = old
            fd = (plus - minus) / (2 * h)
            rel = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-8)
            if rel > 1e-4:
                raise AssertionError(f"{name}[{idx}] gradient off by rel {rel:.2e}")


def _check_cost_agreement() -> None:
    model = _toy_model(seed=6)
    dcfg, vcfg, vip_cfg = model.cfg, model.vcfg, model.vip_cfg
    s = tr.sample_for_index(50, 0, 4, 4)
    meter = FlopMeter()
    _, _, _, stats = pe.glimpse_prune_prefill(s.image, s.question_ids, model,
                                              tau=0.6, meter=meter)
    S = vcfg.nv + stats.Nt + 1
    Sp = stats.Nv_kept + stats.Nt
    expect = (dcfg.K * cm.layer_flops(S, dcfg.D, dcfg.H, dcfg.ffn_dim)
              + (dcfg.L - dcfg.K) * cm.layer_flops(Sp, dcfg.D, dcfg.H, dcfg.ffn_dim))
    if meter.get("decoder") != expect:
        raise AssertionError(f"decoder flops {meter.get('decoder')} != {expect}")
    expect_vip = cm.vip_flops(vcfg.nv, dcfg.H, vcfg.C, vip_cfg.E, vip_cfg.F,
                              vip_cfg.M, vip_cfg.heads)
    if meter.get("vip") != expect_vip:
        raise AssertionError(f"vip flops {meter.get('vip')} != {expect_vip}")


def _check_kv_accounting() -> None:
    model = _toy_model(seed=7)
    dcfg, vcfg = model.cfg, model.vcfg
    s = tr.sample_for_index(51, 0, 4, 4)
    cache_base, _ = pe.baseline_prefill(s.image, s.question_ids, model)
    S = vcfg.nv + len(s.question_ids)
    if cache_base.element_count() != cm.kv_elements(dcfg.L, S, dcfg.D):
        raise AssertionError("baseline cache element count mismatch")
    cache, _, _, stats = pe.glimpse_prune_prefill(s.image, s.question_ids, model,
                                                  tau=0.6)
    expect = cm.kv_elements(dcfg.L, stats.Nv_kept + stats.Nt, dcfg.D)
    if cache.element_count() != expect:
        raise AssertionError(f"pruned cache elements {cache.element_count()} "
                             f"!= {expect}")


_SELFTEST_CHECKS = (
    ("matmul_oracle", _check_matmul_oracle),
    ("oracle_equivalence", _check_oracle_equivalence),
    ("non_perturbation", _check_non_perturbation),
    ("keep_all_neutrality", _check_keep_all_neutrality),
    ("selection_cap_properties", _check_selection_cap_properties),
    ("gradient_check", _check_gradient),
    ("cost_agreement", _check_cost_agreement),
    ("kv_accounting", _check_kv_accounting),
)


def cmd_selftest(args) -> int:
    if args.fault_inject_prune:
        pe.FAULT_INJECT = "drop-text-row"
    failures = []
    try:
        for name, check in _SELFTEST_CHECKS:
            try:
                check()
            except Exception as exc:  # report and continue with the rest
                failures.append(name)
                print(f"FAIL {name}: {exc}")
            else:
                print(f"PASS {name}")
    finally:
        pe.FAULT_INJECT = None
    total = len(_SELFTEST_CHECKS)
    print(f"selftest={total - len(failures)}/{total}")
    return EXIT_OK if not failures else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vtprune",
        description="Glimpse-conditioned visual token pruning on a toy decoder.")
    sub = parser.add_subparsers(dest="command", required=True)
    seed_default = _env_seed()

    p = sub.add_parser("gen-data", help="write a synthetic grounded QA dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=2000)
    p.add_argument("--grid", default="8x8")
    p.add_argument("--seed", type=int, default=seed_default)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train glimpse + predictor on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None,
                   help="JSON run config; defaults apply when omitted")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--metrics", default=None, help="optional metrics CSV path")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("run", help="answer a question with pruning enabled")
    p.add_argument("--ckpt", required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--image", default=None, help="binary PPM (P6) input")
    src.add_argument("--sample-id", type=int, default=None,
                     help="generate the dataset sample with this index")
    p.add_argument("--question", default=None,
                   help="space-separated symbols or token ids")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--rmax", type=float, default=None)
    p.add_argument("--max-new", type=int, default=1)
    p.add_argument("--heatmap", default=None, help="write importance as PGM")
    p.add_argument("--seed", type=int, default=seed_default,
                   help="generator seed for --sample-id")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("cost", help="analytic FLOP and cache report")
    p.add_argument("--preset", default=None,
                   help=f"one of: {', '.join(sorted(cm.PRESETS))}")
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--D", type=int, default=None)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--H", type=int, default=None)
    p.add_argument("--ffn", type=int, default=None)
    p.add_argument("--C", type=int, default=None)
    p.add_argument("--S", type=int, required=True)
    p.add_argument("--S-pruned", dest="S_pruned", type=int, required=True)
    p.add_argument("--bytes-per-element", type=float, default=2.0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("selftest", help="run the invariant suite")
    p.add_argument("--fault-inject-prune", action="store_true",
                   help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_selftest)

    return parser


def app(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep its code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DataFormatError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (StateError, VtpruneError) as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(app())
