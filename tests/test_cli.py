"""End-to-end command tests through the argparse entry point.

Every test drives ``app(argv)`` directly and checks exit codes plus the
machine-parseable stdout contract.
"""

import json
import math

import numpy as np
import pytest

from vtprune import persist
from vtprune import prune_engine as pe
from vtprune import training as tr
from vtprune.backbone import DecoderConfig, VisualStubConfig
from vtprune.cli import app
from vtprune.vip import VipConfig


def _kv(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        if "=" in line and " " not in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            pairs[key] = value
    return pairs


def _write_config(path, **train_overrides):
    cfg = persist.default_run_config()
    cfg["train"].update(train_overrides)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


def _untrained_checkpoint(path, seed=0):
    model = pe.build_model(DecoderConfig(), VisualStubConfig(), VipConfig(),
                           seed=seed)
    persist.save_checkpoint(str(path), model, persist.default_run_config())
    return str(path), model


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def test_gen_data_writes_and_is_reloadable(tmp_path, capsys):
    out = str(tmp_path / "ds.jsonl")
    assert app(["gen-data", "--out", out, "--count", "7", "--grid", "8x8",
                "--seed", "3"]) == 0
    pairs = _kv(capsys.readouterr().out)
    assert pairs["count"] == "7" and pairs["grid"] == "8x8"
    samples, header = persist.load_dataset(out)
    assert len(samples) == 7
    assert all(s.mask.size == 64 for s in samples)


def test_gen_data_byte_identical_reruns(tmp_path):
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    for out in (a, b):
        assert app(["gen-data", "--out", out, "--count", "5", "--seed", "11"]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_gen_data_malformed_flags_exit_2(tmp_path, capsys):
    assert app(["gen-data", "--out", str(tmp_path / "x"), "--count", "abc"]) == 2
    assert app(["gen-data", "--out", str(tmp_path / "x"), "--grid", "weird"]) == 2
    err = capsys.readouterr().err
    assert "grid" in err


@pytest.mark.parametrize("grid", ["\uff18x\uff18", "1_6x16", "+8x8", " 8x8"])
def test_gen_data_grid_non_ascii_decimal_exit_2(tmp_path, capsys, grid):
    """Fullwidth digits, ``_`` separators, a sign and padding all pass
    ``int()``; the grid takes ASCII digits only, as token ids do."""
    out = tmp_path / "x.jsonl"
    assert app(["gen-data", "--out", str(out), "--count", "1", "--grid", grid]) == 2
    assert f"got {grid!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid", ["8x8", "8X8"])
def test_gen_data_grid_either_x(tmp_path, grid):
    out = str(tmp_path / "x.jsonl")
    assert app(["gen-data", "--out", out, "--count", "1", "--grid", grid]) == 0
    assert persist.load_dataset(out)[1]["grid"] == [8, 8]


def test_gen_data_grid_below_3x3_exit_2(tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    assert app(["gen-data", "--out", str(out), "--grid", "2x8"]) == 2
    assert "grid 2x8" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid", ["257x8", "8x257", "999999999x999999999"])
def test_gen_data_grid_past_256_exit_2(tmp_path, capsys, grid):
    """Sides above 256 exit 2 before any image is allocated; 999999999
    squared pixels would otherwise fail with numpy's "array is too big"."""
    out = tmp_path / "x.jsonl"
    assert app(["gen-data", "--out", str(out), "--count", "1", "--grid", grid]) == 2
    captured = capsys.readouterr()
    assert f"grid {grid} outside 3x3..256x256" in captured.err
    assert "Traceback" not in captured.err and not out.exists()


@pytest.mark.parametrize("count", ["0", "-2"])
def test_gen_data_count_below_one_exit_2(tmp_path, capsys, count):
    out = tmp_path / "x.jsonl"
    assert app(["gen-data", "--out", str(out), "--count", count]) == 2
    assert "--count" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_unwritable_path_exit_2(tmp_path):
    assert app(["gen-data", "--out", str(tmp_path / "no" / "dir" / "x"),
                "--count", "1"]) == 2


def test_gen_data_seed_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VTPRUNE_SEED", "21")
    out = str(tmp_path / "env.jsonl")
    assert app(["gen-data", "--out", out, "--count", "2"]) == 0
    _, header = persist.load_dataset(out)
    assert header["seed"] == 21
    # a malformed value is a usage error, and an explicit flag wins over it
    monkeypatch.setenv("VTPRUNE_SEED", "abc")
    out2 = tmp_path / "flag.jsonl"
    assert app(["gen-data", "--out", str(out2), "--count", "2"]) == 2
    assert "--seed" in capsys.readouterr().err and not out2.exists()
    assert app(["gen-data", "--out", str(out2), "--count", "2", "--seed", "4"]) == 0
    assert persist.load_dataset(str(out2))[1]["seed"] == 4


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_checkpoint_and_metrics(tmp_path, capsys):
    ds = str(tmp_path / "ds.jsonl")
    assert app(["gen-data", "--out", ds, "--count", "8", "--seed", "2"]) == 0
    cfg = _write_config(tmp_path / "run.json", grad_accum=4, epochs=1)
    ck = str(tmp_path / "ck.json")
    metrics = str(tmp_path / "m.csv")
    capsys.readouterr()
    assert app(["train", "--data", ds, "--config", cfg, "--out", ck,
                "--metrics", metrics]) == 0
    pairs = _kv(capsys.readouterr().out)
    steps = int(pairs["steps"])
    assert steps == 2  # 8 samples / grad_accum 4
    lines = open(metrics).read().splitlines()
    assert len(lines) == steps + 1
    ckpt = persist.load_checkpoint(ck)
    model, _ = persist.model_from_checkpoint(ckpt)
    assert np.array_equal(model.glimpse.matrix, ckpt.glimpse)


def test_train_identical_runs_identical_checkpoints(tmp_path):
    ds = str(tmp_path / "ds.jsonl")
    assert app(["gen-data", "--out", ds, "--count", "8", "--seed", "6"]) == 0
    cfg = _write_config(tmp_path / "run.json", grad_accum=4)
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert app(["train", "--data", ds, "--config", cfg, "--out", a]) == 0
    assert app(["train", "--data", ds, "--config", cfg, "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_train_missing_data_exit_2(tmp_path, capsys):
    assert app(["train", "--data", str(tmp_path / "nope.jsonl"),
                "--out", str(tmp_path / "ck.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_train_grid_mismatch_exit_2(tmp_path):
    ds = str(tmp_path / "ds.jsonl")
    assert app(["gen-data", "--out", ds, "--count", "2", "--grid", "4x4",
                "--seed", "1"]) == 0
    # default config expects 8x8
    assert app(["train", "--data", ds, "--out", str(tmp_path / "ck.json")]) == 2


@pytest.mark.parametrize("key,value", [("H", 0), ("L", 0), ("D", -32),
                                       ("ffn_dim", 0), ("vocab", 0), ("L", math.nan)])
def test_train_config_bad_decoder_size_exit_2(tmp_path, capsys, key, value):
    ds = str(tmp_path / "ds.jsonl")
    assert app(["gen-data", "--out", ds, "--count", "2", "--seed", "1"]) == 0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"decoder": {key: value}}))
    capsys.readouterr()
    assert app(["train", "--data", ds, "--config", str(cfg),
                "--out", str(tmp_path / "ck.json")]) == 2
    assert "decoder" in capsys.readouterr().err


def test_train_config_past_the_parameter_cap_exit_2(tmp_path, capsys, monkeypatch):
    # D = embed_dim = 2,000,000 at H = 1 asks for 1.6e13 weights (29 TiB); the
    # config parse refuses it before build_model allocates any of them
    ds = str(tmp_path / "ds.jsonl")
    assert app(["gen-data", "--out", ds, "--count", "2", "--seed", "1"]) == 0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"decoder": {"D": 2_000_000, "H": 1},
                               "visual": {"embed_dim": 2_000_000}}))

    def never(*args, **kwargs):
        raise AssertionError("build_model ran on a config past the cap")

    monkeypatch.setattr(pe, "build_model", never)
    capsys.readouterr()
    assert app(["train", "--data", ds, "--config", str(cfg),
                "--out", str(tmp_path / "ck.json")]) == 2
    err = capsys.readouterr().err
    assert f"more than the {persist.MAX_PARAMETERS} allowed" in err and "Traceback" not in err


def test_train_config_huge_warmup_ratio_exit_2(tmp_path, capsys):
    ds = str(tmp_path / "ds.jsonl")
    assert app(["gen-data", "--out", ds, "--count", "16", "--seed", "1"]) == 0
    cfg = _write_config(tmp_path / "run.json", warmup_ratio=1e308, grad_accum=1)
    capsys.readouterr()
    assert app(["train", "--data", ds, "--config", cfg,
                "--out", str(tmp_path / "ck.json")]) == 2
    err = capsys.readouterr().err
    assert "warmup_ratio" in err and "Traceback" not in err


def _mismatched_levels_config():
    """A run config whose visual stub makes 3 feature levels while the
    predictor keeps its default of 2."""
    cfg = persist.default_run_config()
    cfg["visual"]["M"] = 3
    assert cfg["vip"]["M"] == 2
    return cfg


def test_train_mismatched_feature_levels_exit_2(tmp_path, capsys):
    ds = str(tmp_path / "ds.jsonl")
    assert app(["gen-data", "--out", ds, "--count", "2", "--seed", "1"]) == 0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(_mismatched_levels_config()))
    ck = tmp_path / "ck.json"
    capsys.readouterr()
    assert app(["train", "--data", ds, "--config", str(cfg), "--out", str(ck)]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "feature levels" in captured.err
    assert "Traceback" not in captured.err and not ck.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exit_3(tmp_path, capsys):
    ds = str(tmp_path / "ds.jsonl")
    assert app(["gen-data", "--out", ds, "--count", "8", "--seed", "2"]) == 0
    cfg = _write_config(tmp_path / "run.json", lr=1e160, grad_accum=4, epochs=2)
    code = app(["train", "--data", ds, "--config", cfg,
                "--out", str(tmp_path / "ck.json")])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_on_generated_sample(tmp_path, capsys):
    ck, _ = _untrained_checkpoint(tmp_path / "ck.json")
    capsys.readouterr()
    assert app(["run", "--ckpt", ck, "--sample-id", "3", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    pairs = _kv(out)
    assert pairs["nv"] == "64"
    assert 0.0 < float(pairs["retention"]) <= 1.0
    assert int(pairs["cache_len"]) == int(pairs["nv_kept"]) + 4
    grid_rows = out.split("grid kept=# dropped=.\n", 1)[1].splitlines()[:8]
    assert len(grid_rows) == 8 and all(len(r) == 8 for r in grid_rows)
    kept_in_grid = sum(row.count("#") for row in grid_rows)
    assert kept_in_grid == int(pairs["nv_kept"])


def test_run_rmax_caps_retention(tmp_path, capsys):
    ck, _ = _untrained_checkpoint(tmp_path / "ck.json")
    capsys.readouterr()
    # untrained p = 0.5 everywhere passes tau = 0.5, so the cap binds
    assert app(["run", "--ckpt", ck, "--sample-id", "0", "--rmax", "0.111"]) == 0
    pairs = _kv(capsys.readouterr().out)
    assert float(pairs["retention"]) == math.ceil(0.111 * 64) / 64


def test_run_keep_all_matches_baseline(tmp_path, capsys):
    ck, model = _untrained_checkpoint(tmp_path / "ck.json")
    sample = tr.sample_for_index(5, 3)
    capsys.readouterr()
    assert app(["run", "--ckpt", ck, "--sample-id", "3", "--seed", "5",
                "--tau", "0", "--rmax", "1"]) == 0
    pairs = _kv(capsys.readouterr().out)
    _, logits = pe.baseline_prefill(sample.image, sample.question_ids, model)
    assert pairs["answer_ids"] == str(int(np.argmax(logits)))
    assert float(pairs["retention"]) == 1.0


def test_run_image_input_and_heatmap(tmp_path, capsys):
    ck, _ = _untrained_checkpoint(tmp_path / "ck.json")
    sample = tr.sample_for_index(7, 1)
    ppm = str(tmp_path / "img.ppm")
    persist.write_ppm(ppm, sample.image)
    heat = str(tmp_path / "h.pgm")
    capsys.readouterr()
    assert app(["run", "--ckpt", ck, "--image", ppm,
                "--question", "<q> ask red </q>", "--heatmap", heat]) == 0
    pairs = _kv(capsys.readouterr().out)
    assert pairs["question_ids"] == "0,2,3,1"
    blob = open(heat, "rb").read()
    assert blob.startswith(b"P5\n8 8\n255\n")
    assert len(blob) == len(b"P5\n8 8\n255\n") + 64
    # untrained predictor sits at p = 0.5 -> mid-gray everywhere
    payload = np.frombuffer(blob, dtype=np.uint8, offset=len(b"P5\n8 8\n255\n"))
    assert set(payload.tolist()) == {128}


def test_run_heatmap_runs_prefill_once(tmp_path, monkeypatch):
    ck, _ = _untrained_checkpoint(tmp_path / "ck.json")
    real, calls = pe.glimpse_prune_prefill, []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(pe, "glimpse_prune_prefill", counting)
    assert app(["run", "--ckpt", ck, "--sample-id", "2", "--max-new", "2",
                "--heatmap", str(tmp_path / "h.pgm")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("header", [b"P6 abc 4 255\n", b"P6\n4 -4\n255\n",
                                    b"P6\n0 4\n255\n", b"P6\n4 4\n0\n"])
def test_run_malformed_ppm_header_exit_2(tmp_path, capsys, header):
    ck, _ = _untrained_checkpoint(tmp_path / "ck.json")
    ppm = tmp_path / "bad.ppm"
    ppm.write_bytes(header + bytes(4 * 4 * 3))
    capsys.readouterr()
    assert app(["run", "--ckpt", ck, "--image", str(ppm),
                "--question", "<q> ask red </q>"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "PPM" in captured.err


def test_run_image_requires_question(tmp_path, capsys):
    ck, _ = _untrained_checkpoint(tmp_path / "ck.json")
    sample = tr.sample_for_index(7, 1)
    ppm = str(tmp_path / "img.ppm")
    persist.write_ppm(ppm, sample.image)
    assert app(["run", "--ckpt", ck, "--image", ppm]) == 2
    assert "question" in capsys.readouterr().err


def test_run_negative_sample_id_exit_2(tmp_path, capsys):
    # gen-data numbers its samples 0..count-1
    ck, _ = _untrained_checkpoint(tmp_path / "ck.json")
    assert app(["run", "--ckpt", ck, "--sample-id", "-1"]) == 2
    assert "--sample-id" in capsys.readouterr().err


def test_run_sample_id_grid_past_256_exit_2(tmp_path, capsys):
    """A checkpoint whose grid has a side past 256 generates no sample."""
    config = persist.default_run_config()
    config["visual"].update(grid_h=257, grid_w=3)
    model = pe.build_model(DecoderConfig(), VisualStubConfig(grid_h=257, grid_w=3),
                           VipConfig(), seed=0)
    ck = str(tmp_path / "ck.json")
    persist.save_checkpoint(ck, model, config)
    assert app(["run", "--ckpt", ck, "--sample-id", "0"]) == 2
    captured = capsys.readouterr()
    assert "grid 257x3 outside" in captured.err and "Traceback" not in captured.err


def test_run_bad_question_symbol(tmp_path, capsys):
    ck, _ = _untrained_checkpoint(tmp_path / "ck.json")
    assert app(["run", "--ckpt", ck, "--sample-id", "0",
                "--question", "<q> ask chartreuse </q>"]) == 2
    assert "chartreuse" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["٣", "１", "+3", "3_0"])
def test_run_question_non_ascii_decimal_id_exit_2(tmp_path, capsys, token):
    # int() alone would run these as ids 3, 1, 3 and 30
    ck, _ = _untrained_checkpoint(tmp_path / "ck.json")
    capsys.readouterr()
    assert app(["run", "--ckpt", ck, "--sample-id", "0",
                "--question", f"<q> ask {token} </q>"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown token {token!r}" in captured.err


@pytest.mark.parametrize("token", ["-3", "99"])
def test_run_question_token_id_out_of_range_exit_2(tmp_path, capsys, token):
    ck, _ = _untrained_checkpoint(tmp_path / "ck.json")
    capsys.readouterr()
    assert app(["run", "--ckpt", ck, "--sample-id", "0",
                "--question", f"<q> ask {token} </q>"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"token id {token} outside the vocabulary" in captured.err


def test_run_checkpoint_missing_key_exit_2(tmp_path, capsys):
    ck, _ = _untrained_checkpoint(tmp_path / "ck.json")
    doc = json.load(open(ck))
    del doc["glimpse"]
    json.dump(doc, open(ck, "w"))
    capsys.readouterr()
    assert app(["run", "--ckpt", ck, "--sample-id", "0"]) == 2
    assert "missing key 'glimpse'" in capsys.readouterr().err


def test_run_checkpoint_mismatched_feature_levels_exit_2(tmp_path, capsys):
    model = pe.build_model(DecoderConfig(), VisualStubConfig(), VipConfig(), seed=0)
    ck = str(tmp_path / "ck.json")
    persist.save_checkpoint(ck, model, _mismatched_levels_config())
    capsys.readouterr()
    assert app(["run", "--ckpt", ck, "--sample-id", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err
    assert "feature levels" in captured.err and "Traceback" not in captured.err


def test_train_truncated_dataset_line_exit_2(tmp_path, capsys):
    ds = tmp_path / "ds.jsonl"
    assert app(["gen-data", "--out", str(ds), "--count", "3", "--seed", "2"]) == 0
    lines = ds.read_text().splitlines()
    lines[2] = lines[2][: len(lines[2]) // 2]
    ds.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert app(["train", "--data", str(ds), "--out", str(tmp_path / "ck.json")]) == 2
    assert "malformed dataset" in capsys.readouterr().err


def test_run_checkpoint_nonfinite_predictor_exit_2(tmp_path, capsys):
    model = pe.build_model(DecoderConfig(), VisualStubConfig(), VipConfig(), seed=0)
    model.vip.head_b[:] = np.nan
    ck = str(tmp_path / "ck.json")
    persist.save_checkpoint(ck, model, persist.default_run_config())
    capsys.readouterr()
    assert app(["run", "--ckpt", ck, "--sample-id", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "vip.head_b holds non-finite values" in captured.err


def _nan_backbone_run(tmp_path, monkeypatch, plant):
    """``run`` on a model whose backbone ``plant`` poisons with a NaN."""
    ck, _ = _untrained_checkpoint(tmp_path / "ck.json")
    load = persist.model_from_checkpoint

    def poisoned(ckpt):
        model, bundle = load(ckpt)
        plant(model)
        return model, bundle

    monkeypatch.setattr(persist, "model_from_checkpoint", poisoned)
    return app(["run", "--ckpt", ck, "--sample-id", "0", "--max-new", "3"])


def _first_token(model, sample):
    _, logits, _, _ = pe.glimpse_prune_prefill(sample.image, sample.question_ids, model)
    return int(np.argmax(logits))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_nan_prefill_logits_exit_3(tmp_path, capsys, monkeypatch):
    def plant(model):
        model.backbone.w_out[0, 0] = np.nan

    assert _nan_backbone_run(tmp_path, monkeypatch, plant) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "after prefill" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_nan_decode_logits_exit_3(tmp_path, capsys, monkeypatch):
    sample = tr.sample_for_index(0, 0, 8, 8)

    def plant(model):
        # the first answer token's embedding: prefill stays finite, decode does not
        tok = _first_token(model, sample)
        assert tok not in sample.question_ids
        model.backbone.text_emb[tok, 0] = np.nan

    assert _nan_backbone_run(tmp_path, monkeypatch, plant) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "at decode step 0" in err


def test_run_invalid_checkpoint_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format":"other"}')
    assert app(["run", "--ckpt", str(bad), "--sample-id", "0"]) == 2
    assert app(["run", "--ckpt", str(tmp_path / "missing.json"),
                "--sample-id", "0"]) == 2


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------


def test_cost_preset_prints_dimensions(capsys):
    assert app(["cost", "--preset", "qwen2.5-vl-7b", "--S", "5074",
                "--S-pruned", "203"]) == 0
    pairs = _kv(capsys.readouterr().out)
    assert pairs["L"] == "28" and pairs["D"] == "3584" and pairs["K"] == "19"
    assert 0.64 <= float(pairs["prefill_ratio"]) <= 0.74


def test_cost_explicit_dims_kv_example(capsys):
    assert app(["cost", "--L", "4", "--D", "8", "--K", "3", "--S", "20",
                "--S-pruned", "10"]) == 0
    pairs = _kv(capsys.readouterr().out)
    assert pairs["kv_base"] == "1280" and pairs["kv_pruned"] == "640"


def test_cost_json_and_csv(capsys):
    assert app(["cost", "--preset", "llava-1.5-7b", "--S", "1024",
                "--S-pruned", "128", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "llava-1.5-7b" and doc["L"] == 32
    assert app(["cost", "--preset", "llava-1.5-7b", "--S", "1024",
                "--S-pruned", "128", "--csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("name,L,D,K,S,S_pruned")
    assert lines[1].split(",")[0] == "llava-1.5-7b"


def test_cost_errors(capsys):
    assert app(["cost", "--preset", "nope", "--S", "10", "--S-pruned", "5"]) == 2
    assert app(["cost", "--S", "10", "--S-pruned", "5"]) == 2
    assert app(["cost", "--preset", "qwen2.5-vl-7b", "--S", "10",
                "--S-pruned", "20"]) == 2


@pytest.mark.parametrize("dims", [["--L", "5", "--K", "99", "--D", "7"], ["--H", "4"],
                                  ["--ffn", "64"], ["--C", "12"]])
def test_cost_preset_with_dimensions_exit_2(capsys, dims):
    # the preset fixes every dimension, so a given one would be dropped silently
    assert app(["cost", "--preset", "qwen2.5-vl-7b", "--S", "5074", "--S-pruned", "203",
                *dims]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and dims[0] in captured.err
    assert "Traceback" not in captured.err


def test_cost_json_and_csv_are_exclusive(capsys):
    assert app(["cost", "--preset", "llava-1.5-7b", "--S", "1024", "--S-pruned", "128",
                "--json", "--csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not allowed with" in captured.err


@pytest.mark.parametrize("dims", [["--L", "2", "--D", "0", "--K", "1"],
                                  ["--L", "2", "--D", "8", "--K", "1", "--ffn", "-5"],
                                  ["--L", "2", "--D", "8", "--K", "1", "--C", "-1"],
                                  ["--L", "2", "--D", "8", "--K", "1", "--H", "-2"],
                                  ["--L", "0", "--D", "8", "--K", "1"],
                                  ["--L", "2", "--D", "8", "--K", "3"]])
def test_cost_impossible_custom_dimensions_exit_2(capsys, dims):
    assert app(["cost", *dims, "--S", "10", "--S-pruned", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
def test_cost_bytes_per_element_must_be_positive_finite(capsys, value):
    assert app(["cost", "--preset", "qwen2.5-vl-7b", "--S", "100", "--S-pruned", "10",
                "--bytes-per-element", value]) == 2
    captured = capsys.readouterr()
    assert "--bytes-per-element" in captured.err and "kv_bytes" not in captured.out


# Each report figure must be a finite float: a kv byte count past the float
# range, an S whose prefill FLOPs overflow (and whose ratio is then nan), and
# an S that no float holds.
@pytest.mark.parametrize("args,figure", [
    (["--S", "64", "--bytes-per-element", "1e308"], "kv_bytes_baseline"),
    (["--S", "1" + "0" * 300], "prefill_flops_baseline"),
    (["--S", "1" + "0" * 400], "sequence length too large"),
])
def test_cost_non_finite_figures_exit_2(capsys, args, figure):
    assert app(["cost", "--L", "4", "--D", "32", "--K", "3", "--S-pruned", "16", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and figure in captured.err
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


SELFTEST_NAMES = ["matmul_oracle", "oracle_equivalence", "non_perturbation",
                  "keep_all_neutrality", "selection_cap_properties", "gradient_check",
                  "cost_agreement", "kv_accounting"]


def test_selftest_passes_clean(capsys):
    assert app(["selftest"]) == 0
    assert capsys.readouterr().out.splitlines() == (
        [f"PASS {name}" for name in SELFTEST_NAMES] + ["selftest=8/8"])


def test_selftest_fault_injection_names_invariant(capsys):
    # the glimpse row kept in place of a text row leaves every row count
    # intact, so the checks that compare logits must catch it themselves
    failing = {"oracle_equivalence", "keep_all_neutrality"}
    assert app(["selftest", "--fault-inject-prune"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == (
        [("FAIL " if name in failing else "PASS ") + name for name in SELFTEST_NAMES]
        + ["selftest=6/8"])
    assert not any("pruned cache holds" in line for line in lines)
    assert "logits after 0 decode steps off by" in lines[1]
    # the hook must not leak into later runs
    assert pe.FAULT_INJECT is None
    assert app(["selftest"]) == 0
