"""Round-trip and rejection tests for every on-disk format."""

import base64
import json

import numpy as np
import pytest

from vtprune import persist
from vtprune import training as tr
from vtprune.backbone import DecoderConfig, VisualStubConfig
from vtprune.errors import DataFormatError
from vtprune.prune_engine import build_model, glimpse_prune_prefill
from vtprune.vip import VipConfig


def _model(seed=3):
    return build_model(DecoderConfig(), VisualStubConfig(), VipConfig(), seed=seed)


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


def test_dataset_round_trip(tmp_path):
    path = str(tmp_path / "ds.jsonl")
    samples = tr.make_dataset(9, 8)
    persist.save_dataset(path, samples, 8, 8, seed=9)
    loaded, header = persist.load_dataset(path)
    assert header["count"] == 8 and header["grid"] == [8, 8] and header["seed"] == 9
    assert header["vocab"]["9"] == "square"
    for a, b in zip(samples, loaded):
        assert np.array_equal(a.image, b.image)
        assert a.question_ids == b.question_ids
        assert a.answer_ids == b.answer_ids
        assert a.boxes == b.boxes
        assert np.array_equal(a.mask, b.mask)


def test_dataset_save_is_byte_deterministic(tmp_path):
    samples = tr.make_dataset(4, 5)
    p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    persist.save_dataset(p1, samples, 8, 8, seed=4)
    persist.save_dataset(p2, samples, 8, 8, seed=4)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_dataset_rejects_bad_version(tmp_path):
    path = str(tmp_path / "ds.jsonl")
    persist.save_dataset(path, tr.make_dataset(1, 2), 8, 8, seed=1)
    lines = open(path).read().splitlines()
    header = json.loads(lines[0])
    header["version"] = 99
    open(path, "w").write("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(DataFormatError, match="version"):
        persist.load_dataset(path)


def test_dataset_rejects_count_mismatch(tmp_path):
    path = str(tmp_path / "ds.jsonl")
    persist.save_dataset(path, tr.make_dataset(1, 3), 8, 8, seed=1)
    lines = open(path).read().splitlines()
    open(path, "w").write("\n".join(lines[:-1]) + "\n")  # drop one sample
    with pytest.raises(DataFormatError, match="claims"):
        persist.load_dataset(path)


def test_dataset_rejects_mask_box_disagreement(tmp_path):
    path = str(tmp_path / "ds.jsonl")
    persist.save_dataset(path, tr.make_dataset(1, 1), 8, 8, seed=1)
    lines = open(path).read().splitlines()
    rec = json.loads(lines[1])
    flipped = ("1" if rec["mask"][0] == "0" else "0") + rec["mask"][1:]
    rec["mask"] = flipped
    open(path, "w").write(lines[0] + "\n" + json.dumps(rec) + "\n")
    with pytest.raises(DataFormatError, match="mask"):
        persist.load_dataset(path)


def test_dataset_rejects_truncated_line(tmp_path):
    path = str(tmp_path / "ds.jsonl")
    persist.save_dataset(path, tr.make_dataset(1, 3), 8, 8, seed=1)
    lines = open(path).read().splitlines()
    lines[2] = lines[2][:40]  # cut mid-record, count still agrees
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="malformed dataset"):
        persist.load_dataset(path)


def test_dataset_rejects_record_missing_key(tmp_path):
    path = str(tmp_path / "ds.jsonl")
    persist.save_dataset(path, tr.make_dataset(1, 1), 8, 8, seed=1)
    lines = open(path).read().splitlines()
    rec = json.loads(lines[1])
    del rec["boxes"]
    open(path, "w").write(lines[0] + "\n" + json.dumps(rec) + "\n")
    with pytest.raises(DataFormatError, match="missing key 'boxes'"):
        persist.load_dataset(path)


def test_dataset_rejects_missing_file(tmp_path):
    with pytest.raises(DataFormatError):
        persist.load_dataset(str(tmp_path / "nope.jsonl"))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    path = str(tmp_path / "ck.json")
    model = _model()
    rng = np.random.default_rng(0)
    model.glimpse.matrix[:] = rng.standard_normal(model.glimpse.matrix.shape)
    model.vip.head_w[:] = rng.standard_normal(model.vip.head_w.shape)
    opt_state = {"t": 5,
                 "m": {"glimpse": rng.standard_normal(model.glimpse.matrix.shape)},
                 "v": {"glimpse": rng.standard_normal(model.glimpse.matrix.shape)}}
    persist.save_checkpoint(path, model, persist.default_run_config(), opt_state)
    ckpt = persist.load_checkpoint(path)
    assert np.array_equal(ckpt.glimpse, model.glimpse.matrix)
    for name, arr in model.vip.named().items():
        assert np.array_equal(ckpt.vip_named[name], arr), name
    assert ckpt.optimizer_state["t"] == 5
    assert np.array_equal(ckpt.optimizer_state["m"]["glimpse"], opt_state["m"]["glimpse"])


def test_checkpoint_save_is_byte_deterministic(tmp_path):
    model = _model()
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    persist.save_checkpoint(p1, model, persist.default_run_config())
    persist.save_checkpoint(p2, model, persist.default_run_config())
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_checkpoint_version_rejected(tmp_path):
    path = str(tmp_path / "ck.json")
    persist.save_checkpoint(path, _model(), persist.default_run_config())
    doc = json.load(open(path))
    doc["version"] = 2
    json.dump(doc, open(path, "w"))
    with pytest.raises(DataFormatError, match="version"):
        persist.load_checkpoint(path)


@pytest.mark.parametrize("key", ["glimpse", "vip", "config"])
def test_checkpoint_missing_key_rejected(tmp_path, key):
    path = str(tmp_path / "ck.json")
    persist.save_checkpoint(path, _model(), persist.default_run_config())
    doc = json.load(open(path))
    del doc[key]
    json.dump(doc, open(path, "w"))
    with pytest.raises(DataFormatError, match=f"missing key '{key}'"):
        persist.load_checkpoint(path)


def test_checkpoint_missing_predictor_array_rejected(tmp_path):
    path = str(tmp_path / "ck.json")
    persist.save_checkpoint(path, _model(), persist.default_run_config())
    doc = json.load(open(path))
    del doc["vip"]["vip.head_b"]
    json.dump(doc, open(path, "w"))
    with pytest.raises(DataFormatError, match="vip.head_b"):
        persist.model_from_checkpoint(persist.load_checkpoint(path))


@pytest.mark.parametrize("name,value,dtype", [
    ("glimpse", np.inf, "<f8"),
    ("vip.head_b", np.nan, "<f8"),
    ("glimpse", 0.5, "<f4"),
    ("vip.proj_a", 1.0, "|u1"),
])
def test_checkpoint_rejects_nonfinite_or_non_float64_arrays(tmp_path, name, value, dtype):
    path = str(tmp_path / "ck.json")
    model = _model()
    persist.save_checkpoint(path, model, persist.default_run_config())
    doc = json.load(open(path))
    shape = (model.glimpse.matrix if name == "glimpse" else model.vip.named()[name]).shape
    rec = {"dtype": dtype, "shape": list(shape),
           "data": base64.b64encode(np.full(shape, value).astype(dtype).tobytes()).decode()}
    if name == "glimpse":
        doc["glimpse"] = rec
    else:
        doc["vip"][name] = rec
    json.dump(doc, open(path, "w"))
    with pytest.raises(DataFormatError, match=name):
        persist.load_checkpoint(path)


def test_model_from_checkpoint_reproduces_behavior(tmp_path):
    path = str(tmp_path / "ck.json")
    model = _model(seed=8)
    rng = np.random.default_rng(2)
    model.vip.head_w[:] = rng.standard_normal(model.vip.head_w.shape) * 0.3
    model.glimpse.matrix += 0.01
    # the config snapshot must carry the seed the backbone was built from;
    # the frozen weights are reproduced from it rather than stored
    config = persist.default_run_config()
    config["seed"] = 8
    persist.save_checkpoint(path, model, config)

    rebuilt, bundle = persist.model_from_checkpoint(persist.load_checkpoint(path))
    assert bundle.seed == 8
    s = tr.sample_for_index(30, 0)
    _, logits_a, imap_a, _ = glimpse_prune_prefill(s.image, s.question_ids, model)
    _, logits_b, imap_b, _ = glimpse_prune_prefill(s.image, s.question_ids, rebuilt)
    assert np.array_equal(imap_a.p, imap_b.p)
    assert np.array_equal(logits_a, logits_b)


def test_model_from_checkpoint_rejects_wrong_shape(tmp_path):
    path = str(tmp_path / "ck.json")
    persist.save_checkpoint(path, _model(), persist.default_run_config())
    ckpt = persist.load_checkpoint(path)
    ckpt.glimpse = ckpt.glimpse[:, :4]
    with pytest.raises(DataFormatError, match="shape"):
        persist.model_from_checkpoint(ckpt)


# ---------------------------------------------------------------------------
# Run config
# ---------------------------------------------------------------------------


def test_run_config_defaults_parse():
    bundle = persist.parse_run_config(persist.default_run_config())
    assert bundle.decoder.L == 4 and bundle.decoder.D == 32
    assert bundle.visual.nv == 64
    assert bundle.train.lr == 1e-4
    assert bundle.seed == 0


def test_run_config_rejects_unknown_keys():
    cfg = persist.default_run_config()
    cfg["extra"] = 1
    with pytest.raises(DataFormatError, match="unknown run config keys"):
        persist.parse_run_config(cfg)
    cfg = persist.default_run_config()
    cfg["decoder"]["bogus"] = 7
    with pytest.raises(DataFormatError, match="bogus"):
        persist.parse_run_config(cfg)


def test_run_config_rejects_invalid_values():
    cfg = persist.default_run_config()
    cfg["decoder"]["D"] = 33  # not divisible by H
    with pytest.raises(DataFormatError, match="decoder"):
        persist.parse_run_config(cfg)
    cfg = persist.default_run_config()
    cfg["seed"] = "zero"
    with pytest.raises(DataFormatError, match="seed"):
        persist.parse_run_config(cfg)
    # each would crash model building, the last with a ZeroDivisionError
    for section, key, value in (("visual", "C", -1), ("visual", "embed_dim", 0),
                                ("vip", "heads", 0)):
        cfg = persist.default_run_config()
        cfg[section][key] = value
        with pytest.raises(DataFormatError, match=section):
            persist.parse_run_config(cfg)


def test_run_config_partial_sections_use_defaults():
    bundle = persist.parse_run_config({"decoder": {"L": 6}, "seed": 3})
    assert bundle.decoder.L == 6
    assert bundle.decoder.D == 32
    assert bundle.train.grad_accum == 8
    assert bundle.seed == 3


# ---------------------------------------------------------------------------
# Images
# ---------------------------------------------------------------------------


def test_pgm_header_and_payload(tmp_path):
    path = str(tmp_path / "h.pgm")
    gray = np.arange(12, dtype=np.uint8).reshape(3, 4)
    persist.write_pgm(path, gray)
    blob = open(path, "rb").read()
    assert blob.startswith(b"P5\n4 3\n255\n")
    assert blob[len(b"P5\n4 3\n255\n"):] == gray.tobytes()


def test_ppm_round_trip(tmp_path):
    path = str(tmp_path / "img.ppm")
    image = tr.sample_for_index(2, 0).image
    persist.write_ppm(path, image)
    back = persist.read_ppm(path)
    assert np.array_equal(back, image)


def test_ppm_reader_handles_comments(tmp_path):
    path = str(tmp_path / "c.ppm")
    pixels = bytes(range(2 * 2 * 3))
    with open(path, "wb") as fh:
        fh.write(b"P6\n# made by hand\n2 2\n# another\n255\n" + pixels)
    img = persist.read_ppm(path)
    assert img.shape == (2, 2, 3)
    assert img.tobytes() == pixels


def test_ppm_reader_rejects_bad_files(tmp_path):
    p5 = tmp_path / "x.pgm"
    p5.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(DataFormatError, match="P6"):
        persist.read_ppm(str(p5))
    short = tmp_path / "short.ppm"
    short.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
    with pytest.raises(DataFormatError, match="truncated"):
        persist.read_ppm(str(short))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def test_metrics_csv_shape(tmp_path):
    path = str(tmp_path / "m.csv")
    history = [{"step": 0.0, "lr": 0.0, "loss": 1.5, "lang": 1.0, "dice": 0.4,
                "bce": 0.1, "recall": 1.0, "retention": 1.0},
               {"step": 1.0, "lr": 1e-4, "loss": 1.2, "lang": 0.8, "dice": 0.3,
                "bce": 0.1, "recall": 0.9, "retention": 0.5}]
    persist.save_metrics(path, history)
    lines = open(path).read().splitlines()
    assert lines[0] == "step,lr,loss,lang,dice,bce,recall,retention"
    assert len(lines) == 3
    assert float(lines[2].split(",")[2]) == 1.2
