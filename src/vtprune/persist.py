"""On-disk formats: datasets, checkpoints, run configs, images, metrics.

Every format here is line-oriented text (JSON or Netpbm) so runs diff
cleanly and stay byte-deterministic: JSON is emitted with sorted keys and
fixed separators, arrays travel as base64 of their little-endian bytes,
and loaders reject unknown versions and unknown config keys instead of
guessing.
"""

from __future__ import annotations

import base64
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields

import numpy as np

from .backbone import DecoderConfig, VisualStubConfig
from .errors import ConfigError, DataFormatError
from .prune_engine import Model, build_model
from .training import GroundedSample, SYMBOLS, TrainConfig, mask_from_boxes
from .vip import VipConfig

__all__ = [
    "DATASET_FORMAT",
    "CHECKPOINT_FORMAT",
    "MAX_PARAMETERS",
    "RunBundle",
    "default_run_config",
    "parse_run_config",
    "load_run_config",
    "save_dataset",
    "load_dataset",
    "save_checkpoint",
    "load_checkpoint",
    "model_from_checkpoint",
    "write_pgm",
    "read_ppm",
    "write_ppm",
    "save_metrics",
]

DATASET_FORMAT = "vtprune-dataset"
DATASET_VERSION = 1
CHECKPOINT_FORMAT = "vtprune-checkpoint"
CHECKPOINT_VERSION = 1

_JSON_KW = {"sort_keys": True, "separators": (",", ":")}


def _encode_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a)
    dtype = "<f8" if a.dtype == np.float64 else "|u1"
    if a.dtype not in (np.float64, np.uint8):
        raise DataFormatError(f"unsupported array dtype {a.dtype}")
    raw = a.astype(dtype, copy=False).tobytes()
    return {"dtype": dtype, "shape": list(a.shape),
            "data": base64.b64encode(raw).decode("ascii")}


@contextmanager
def _malformed_is_format_error(what: str):
    """Report a missing key, wrong type or unparsable value inside a file
    as DataFormatError, the documented error for a malformed file."""
    try:
        yield
    except DataFormatError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise DataFormatError(f"malformed {what}: {reason}") from exc


def _decode_array(rec: dict) -> np.ndarray:
    raw = base64.b64decode(rec["data"])
    a = np.frombuffer(raw, dtype=rec["dtype"]).reshape(rec["shape"])
    return a.astype(np.float64) if rec["dtype"] == "<f8" else a.copy()


def _decode_trained(rec: dict, name: str) -> np.ndarray:
    """A trained array: float64 and finite, or the predictor would score
    every token from garbage and still exit cleanly."""
    if rec["dtype"] != "<f8":
        raise DataFormatError(f"{name} has dtype {rec['dtype']!r}, expected '<f8'")
    a = _decode_array(rec)
    if not np.all(np.isfinite(a)):
        raise DataFormatError(f"{name} holds non-finite values")
    return a


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


@dataclass
class RunBundle:
    """Validated configuration for one run, covering every component."""

    decoder: DecoderConfig
    visual: VisualStubConfig
    vip: VipConfig
    train: TrainConfig
    seed: int


_SECTIONS = {
    "decoder": DecoderConfig,
    "visual": VisualStubConfig,
    "vip": VipConfig,
    "train": TrainConfig,
}


# JSON values each config field annotation accepts. A bool is a Python int,
# so _check_value admits it only where the annotation says bool.
_JSON_TYPES = {"int": int, "int | None": (int, type(None)), "float": (int, float),
               "bool": bool, "str": str}


def _check_value(where: str, value, annotation: str) -> None:
    ok = (isinstance(value, _JSON_TYPES[annotation])
          and (annotation == "bool" or not isinstance(value, bool))
          and not (isinstance(value, float) and not math.isfinite(value)))
    if not ok:
        raise DataFormatError(f"{where} must be a finite {annotation}, got {value!r}")


# The most float64 scalars a run config or checkpoint may ask build_model to
# allocate, 80 MB: the default model has 45,177, and a config past the
# cap is refused before any of it is allocated.
MAX_PARAMETERS = 10_000_000


def _parameter_count(decoder: DecoderConfig, visual: VisualStubConfig, vip: VipConfig) -> int:
    """Scalars :func:`build_model` allocates for these configs: the
    backbone's weights and gains, the glimpse matrix and the predictor, in
    Python integers, so no size overflows."""
    D = decoder.D
    layer = 4 * D * D + 3 * D * decoder.ffn_dim + 2 * D
    backbone = decoder.L * layer + D + 2 * D * decoder.vocab + 3 * D + 3 * visual.C * visual.M
    predictor = (decoder.H * vip.E + vip.M * (visual.C * vip.F + 4 * vip.E * vip.E + vip.E)
                 + vip.E + 1)
    return backbone + decoder.L * D + predictor


def default_run_config() -> dict:
    """The full schema with defaults, as a plain dict ready to serialize."""
    out = {name: asdict(cls()) for name, cls in _SECTIONS.items()}
    out["seed"] = 0
    return out


def parse_run_config(raw: dict) -> RunBundle:
    """Strict parse: unknown keys anywhere are format errors, section
    values go through the dataclass validators, and a model of more than
    ``MAX_PARAMETERS`` scalars is refused."""
    if not isinstance(raw, dict):
        raise DataFormatError("run config must be a JSON object")
    unknown = set(raw) - set(_SECTIONS) - {"seed"}
    if unknown:
        raise DataFormatError(f"unknown run config keys: {sorted(unknown)}")
    parsed = {}
    for name, cls in _SECTIONS.items():
        section = raw.get(name, {})
        if not isinstance(section, dict):
            raise DataFormatError(f"section {name!r} must be an object")
        allowed = {f.name for f in fields(cls)}
        bad = set(section) - allowed
        if bad:
            raise DataFormatError(f"unknown keys in {name!r}: {sorted(bad)}")
        for f in fields(cls):
            if f.name in section:
                _check_value(f"{name}.{f.name}", section[f.name], f.type)
        try:
            parsed[name] = cls(**section)
        except (ConfigError, TypeError) as exc:
            raise DataFormatError(f"invalid {name} config: {exc}") from exc
    seed = raw.get("seed", 0)
    _check_value("seed", seed, "int")
    count = _parameter_count(parsed["decoder"], parsed["visual"], parsed["vip"])
    if count > MAX_PARAMETERS:
        raise DataFormatError(f"run config describes {count} parameters, more than "
                              f"the {MAX_PARAMETERS} allowed")
    return RunBundle(decoder=parsed["decoder"], visual=parsed["visual"],
                     vip=parsed["vip"], train=parsed["train"], seed=seed)


def load_run_config(path: str) -> RunBundle:
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DataFormatError(f"cannot read run config {path}: {exc}") from exc
    return parse_run_config(raw)


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


def save_dataset(path: str, samples: list[GroundedSample], grid_h: int,
                 grid_w: int, seed: int) -> None:
    """One JSON header line plus one JSON line per sample. Pixels travel
    as base64 RGB bytes, masks as 0/1 strings."""
    header = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "grid": [grid_h, grid_w],
        "vocab": {str(tok): name for tok, name in SYMBOLS.items()},
        "count": len(samples),
        "seed": seed,
    }
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(json.dumps(header, **_JSON_KW) + "\n")
        for i, s in enumerate(samples):
            rec = {
                "id": i,
                "pixels": base64.b64encode(
                    np.ascontiguousarray(s.image, dtype=np.uint8).tobytes()
                ).decode("ascii"),
                "question": list(map(int, s.question_ids)),
                "answer": list(map(int, s.answer_ids)),
                "boxes": [list(map(int, b)) for b in s.boxes],
                "mask": "".join(str(int(v)) for v in s.mask),
            }
            fh.write(json.dumps(rec, **_JSON_KW) + "\n")


def load_dataset(path: str) -> tuple[list[GroundedSample], dict]:
    """Returns (samples, header). Checks version, counts, mask shape, and
    mask/box agreement, raising DataFormatError on any mismatch."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except (OSError, ValueError) as exc:
        raise DataFormatError(f"cannot read dataset {path}: {exc}") from exc
    if not lines:
        raise DataFormatError(f"dataset {path} is empty")
    with _malformed_is_format_error(f"dataset {path}"):
        header = json.loads(lines[0])
        if header.get("format") != DATASET_FORMAT:
            raise DataFormatError(f"not a dataset file: {header.get('format')!r}")
        if header.get("version") != DATASET_VERSION:
            raise DataFormatError(
                f"dataset version {header.get('version')} unsupported "
                f"(expected {DATASET_VERSION})")
        grid_h, grid_w = header["grid"]
        if header["count"] != len(lines) - 1:
            raise DataFormatError(
                f"header claims {header['count']} samples, file has {len(lines) - 1}")
        samples = []
        for line in lines[1:]:
            rec = json.loads(line)
            raw = base64.b64decode(rec["pixels"])
            if len(raw) != grid_h * grid_w * 3:
                raise DataFormatError(f"sample {rec.get('id')}: pixel payload size "
                                      f"{len(raw)} != {grid_h * grid_w * 3}")
            image = np.frombuffer(raw, dtype=np.uint8).reshape(grid_h, grid_w, 3).copy()
            mask = np.array([float(ch) for ch in rec["mask"]])
            if mask.size != grid_h * grid_w:
                raise DataFormatError(f"sample {rec.get('id')}: mask length {mask.size}")
            boxes = [tuple(int(v) for v in b) for b in rec["boxes"]]
            if not np.array_equal(mask, mask_from_boxes(boxes, grid_h, grid_w)):
                raise DataFormatError(f"sample {rec.get('id')}: mask does not match boxes")
            samples.append(GroundedSample(image=image,
                                          question_ids=[int(t) for t in rec["question"]],
                                          answer_ids=[int(t) for t in rec["answer"]],
                                          boxes=boxes, mask=mask))
    return samples, header


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path: str, model: Model, run_config: dict) -> None:
    """Single JSON document: version, config snapshot, trained arrays by
    name. Frozen backbone weights are not stored; they are reproduced
    from the config seed."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": run_config,
        "glimpse": _encode_array(model.glimpse.matrix),
        "vip": {name: _encode_array(arr) for name, arr in model.vip.named().items()},
    }
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(json.dumps(doc, **_JSON_KW) + "\n")


@dataclass
class Checkpoint:
    config: dict
    glimpse: np.ndarray
    vip_named: dict[str, np.ndarray]


def load_checkpoint(path: str) -> Checkpoint:
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DataFormatError(f"cannot read checkpoint {path}: {exc}") from exc
    with _malformed_is_format_error(f"checkpoint {path}"):
        if doc.get("format") != CHECKPOINT_FORMAT:
            raise DataFormatError(f"not a checkpoint file: {doc.get('format')!r}")
        if doc.get("version") != CHECKPOINT_VERSION:
            raise DataFormatError(f"checkpoint version {doc.get('version')} unsupported "
                                  f"(expected {CHECKPOINT_VERSION})")
        return Checkpoint(config=doc["config"],
                          glimpse=_decode_trained(doc["glimpse"], "glimpse"),
                          vip_named={k: _decode_trained(v, k) for k, v in doc["vip"].items()})


def model_from_checkpoint(ckpt: Checkpoint) -> tuple[Model, RunBundle]:
    """Rebuild the frozen backbone from the config seed, then overwrite
    the trained arrays with the stored ones."""
    bundle = parse_run_config(ckpt.config)
    try:
        model = build_model(bundle.decoder, bundle.visual, bundle.vip, seed=bundle.seed)
    except ConfigError as exc:
        raise DataFormatError(f"checkpoint config builds no model: {exc}") from exc
    if ckpt.glimpse.shape != model.glimpse.matrix.shape:
        raise DataFormatError(f"glimpse shape {ckpt.glimpse.shape} does not fit "
                              f"config {model.glimpse.matrix.shape}")
    model.glimpse.matrix[...] = ckpt.glimpse
    with _malformed_is_format_error("checkpoint predictor arrays"):
        model.vip.load_named(ckpt.vip_named)
    return model, bundle


# ---------------------------------------------------------------------------
# Netpbm images
# ---------------------------------------------------------------------------


def write_pgm(path: str, gray: np.ndarray) -> None:
    """Binary PGM (P5, maxval 255) for heatmaps."""
    gray = np.asarray(gray)
    if gray.ndim != 2:
        raise DataFormatError(f"PGM wants a 2-D array, got shape {gray.shape}")
    h, w = gray.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(gray.astype(np.uint8).tobytes())


def write_ppm(path: str, image: np.ndarray) -> None:
    """Binary PPM (P6, maxval 255) for sample images."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise DataFormatError(f"PPM wants (H, W, 3), got shape {image.shape}")
    h, w, _ = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.astype(np.uint8).tobytes())


def read_ppm(path: str) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataFormatError(f"cannot read image {path}: {exc}") from exc
    tokens = []
    pos = 0
    # header is whitespace-separated tokens with # comments, then one
    # whitespace byte, then the binary payload
    while len(tokens) < 4 and pos < len(blob):
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        tokens.append(blob[start:pos])
    if len(tokens) != 4 or tokens[0] != b"P6":
        raise DataFormatError(f"{path} is not a binary PPM (P6) file")
    if not all(t.isdigit() for t in tokens[1:]):
        raise DataFormatError(f"PPM width, height and maxval in {path} must be integers")
    with _malformed_is_format_error(f"PPM header in {path}"):  # int() caps digit count
        w, h, maxval = (int(t) for t in tokens[1:])
    if w <= 0 or h <= 0:
        raise DataFormatError(f"PPM size {w}x{h} in {path} is not positive")
    if maxval != 255:
        raise DataFormatError(f"unsupported PPM maxval {maxval}")
    payload = blob[pos + 1 :]
    if len(payload) < w * h * 3:
        raise DataFormatError(f"PPM payload truncated: {len(payload)} < {w * h * 3}")
    return np.frombuffer(payload[: w * h * 3], dtype=np.uint8).reshape(h, w, 3).copy()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

_METRIC_COLUMNS = ("step", "lr", "loss", "lang", "dice", "bce", "recall", "retention")


def save_metrics(path: str, history: list[dict]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(_METRIC_COLUMNS) + "\n")
        for row in history:
            fh.write(",".join(repr(float(row[c])) for c in _METRIC_COLUMNS) + "\n")
