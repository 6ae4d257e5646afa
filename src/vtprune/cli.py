"""Command-line surface: data generation, training, inference, cost
reports, and a self-test runner.

Conventions shared by every subcommand:

* stdout is machine-parseable: ``key=value`` lines, ``grid`` blocks whose
  following rows are the ASCII keep-map, and ``PASS``/``FAIL`` lines from
  the self-test. Diagnostics go to stderr.
* exit codes: 0 success, 1 invariant failure, 2 usage or IO error,
  3 numeric failure.
* ``gen-data`` and ``run`` take their default seed from the VTPRUNE_SEED
  environment variable, which ``--seed`` overrides; a malformed value
  is a usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import asdict

import numpy as np

from . import checks
from . import costmodel as cm
from . import persist
from . import prune_engine as pe
from . import training as tr
from .errors import ConfigError, DataFormatError, NumericError, StateError, VtpruneError
from .numerics import FlopMeter

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

SEED_ENV_VAR = "VTPRUNE_SEED"


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
    """Space-separated symbol names or ASCII decimal token ids. ``int``
    alone would also take other scripts' digits, a ``+`` sign and ``_``
    separators, so ``'٣'``, ``'１'`` or ``'+3'`` would run as an id."""
    ids = []
    for word in text.split():
        if word in tr.TOKEN_IDS:
            ids.append(tr.TOKEN_IDS[word])
        elif re.fullmatch(r"-?[0-9]{1,18}", word):  # int() refuses 4301+ digits
            ids.append(int(word))
        else:
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


def cmd_selftest(args) -> int:
    pe.FAULT_INJECT = "drop-text-row" if args.fault_inject_prune else None
    failures = 0
    try:
        for name, check in checks.SELFTEST:
            try:
                check()
            except Exception as exc:  # report and continue with the rest
                failures += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"PASS {name}")
    finally:
        pe.FAULT_INJECT = None
    total = len(checks.SELFTEST)
    print(f"selftest={total - failures}/{total}")
    return EXIT_INVARIANT if failures else EXIT_OK


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vtprune",
        description="Glimpse-conditioned visual token pruning on a toy decoder.")
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse converts a string default only when the flag is absent, so a
    # malformed VTPRUNE_SEED is a usage error unless --seed overrides it
    seed_default = os.environ.get(SEED_ENV_VAR, "0")

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
