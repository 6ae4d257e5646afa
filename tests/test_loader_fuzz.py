"""Hypothesis fuzzing of the file and run-config loaders and of
``vtprune run --question``.

A malformed file or config has one documented outcome: DataFormatError,
which the CLI reports with exit code 2. Each fuzzer feeds malformed input
to a loader and lets any other exception fail the test. A malformed
question exits 2 through the CLI, never with a traceback.
"""

import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtprune import persist
from vtprune.backbone import DecoderConfig, VisualStubConfig
from vtprune.cli import app
from vtprune.errors import DataFormatError
from vtprune.prune_engine import build_model
from vtprune.training import TOKEN_IDS, TrainConfig, make_dataset, mask_from_boxes
from vtprune.vip import VipConfig


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# Header-shaped pieces, so examples reach past the magic number and into
# the size and maxval checks, mixed with arbitrary bytes.
_PPM_PIECES = st.one_of(
    st.sampled_from([b" ", b"\n", b"\t", b"#", b"# c\n", b"0", b"2", b"4", b"255",
                     b"-1", b"+3", b"1.5", b"abc", b"9" * 5000]),
    st.binary(max_size=4),
)


@given(header=st.lists(_PPM_PIECES, max_size=10).map(b"".join),
       payload=st.binary(max_size=80))
@settings(max_examples=200, deadline=None)
def test_read_ppm_returns_image_or_format_error(fuzz_dir, header, payload):
    path = fuzz_dir / "fuzz.ppm"
    path.write_bytes(b"P6" + header + payload)
    try:
        image = persist.read_ppm(str(path))
    except DataFormatError:
        return
    assert image.dtype == np.uint8 and image.ndim == 3 and image.shape[2] == 3
    assert min(image.shape) > 0


def _mutated(blob: bytes, edits) -> bytes:
    out = bytearray(blob)
    for where, byte in edits:
        out[int(where * len(out))] = byte
    return bytes(out)


# up to four bytes overwritten; half the new bytes are JSON syntax or digits,
# so edits reach the checks past the parser
_EDITS = st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                            st.one_of(st.integers(0, 255), st.sampled_from(b'0123456789-.,:[]{}"e'))),
                  min_size=1, max_size=4)


@pytest.fixture(scope="module")
def checkpoint_bytes(fuzz_dir):
    """A valid checkpoint of a tiny model, so each example builds fast."""
    dcfg = DecoderConfig(L=2, D=8, H=2, ffn_dim=8)
    vcfg = VisualStubConfig(grid_h=2, grid_w=2, C=4, embed_dim=8)
    vip_cfg = VipConfig(E=4, F=4, heads=2)
    config = {"decoder": asdict(dcfg), "visual": asdict(vcfg), "vip": asdict(vip_cfg),
              "train": asdict(TrainConfig()), "seed": 1}
    path = fuzz_dir / "valid.json"
    persist.save_checkpoint(str(path), build_model(dcfg, vcfg, vip_cfg, seed=1), config)
    return path.read_bytes()


@given(edits=_EDITS)
@settings(max_examples=150, deadline=None)
def test_checkpoint_loads_or_format_error(fuzz_dir, checkpoint_bytes, edits):
    path = fuzz_dir / "mutated.json"
    path.write_bytes(_mutated(checkpoint_bytes, edits))
    try:
        model, _ = persist.model_from_checkpoint(persist.load_checkpoint(str(path)))
    except DataFormatError:
        return
    assert np.all(np.isfinite(model.glimpse.matrix))
    assert all(np.all(np.isfinite(a)) for a in model.vip.named().values())


@pytest.fixture(scope="module")
def dataset_bytes(fuzz_dir):
    """Two 4x4 samples, so edits often land in the header, boxes or ids."""
    path = fuzz_dir / "valid.jsonl"
    persist.save_dataset(str(path), make_dataset(3, 2, 4, 4), 4, 4, seed=3)
    return path.read_bytes()


@given(edits=_EDITS)
@settings(max_examples=200, deadline=None)
def test_dataset_loads_or_format_error(fuzz_dir, dataset_bytes, edits):
    path = fuzz_dir / "mutated.jsonl"
    path.write_bytes(_mutated(dataset_bytes, edits))
    try:
        samples, header = persist.load_dataset(str(path))
    except DataFormatError:
        return
    grid_h, grid_w = header["grid"]
    assert len(samples) == header["count"]
    for s in samples:
        assert s.image.dtype == np.uint8 and s.image.shape == (grid_h, grid_w, 3)
        assert np.array_equal(s.mask, mask_from_boxes(s.boxes, grid_h, grid_w))
        assert all(type(t) is int for t in s.question_ids + s.answer_ids)


@pytest.fixture(scope="module")
def run_checkpoint(fuzz_dir):
    """An untrained default-size checkpoint for ``vtprune run``."""
    path = fuzz_dir / "run.json"
    model = build_model(DecoderConfig(), VisualStubConfig(), VipConfig(), seed=0)
    persist.save_checkpoint(str(path), model, persist.default_run_config())
    return str(path)


_QUESTION_WORDS = st.one_of(
    st.sampled_from(sorted(TOKEN_IDS)),
    st.sampled_from(["0", "3", "15", "16", "-1", "+3", "007", "3_0", "1e1", "0x3", "\u0663",
                     "\uff11", "\u00b3", "-", "", "9" * 30]),
    st.text(max_size=4),
)


@given(words=st.lists(_QUESTION_WORDS, max_size=8),
       seps=st.lists(st.sampled_from([" ", "  ", "\t", "\n", "\u3000"]), min_size=8,
                     max_size=8))
@settings(max_examples=100, deadline=None)
def test_run_question_exits_0_or_2(run_checkpoint, words, seps):
    text = "".join(w + sep for w, sep in zip(words, seps))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = app(["run", "--ckpt", run_checkpoint, "--sample-id", "0", "--max-new", "1",
                    f"--question={text}"])
    assert code in (0, 2), err.getvalue()
    if code == 0:
        # only known symbols and ASCII decimal ids inside the vocabulary run
        want = [TOKEN_IDS[w] if w in TOKEN_IDS else int(w) for w in text.split()]
        assert all(w in TOKEN_IDS or re.fullmatch(r"[0-9]+", w) for w in text.split())
        assert f"question_ids={','.join(map(str, want))}\n" in out.getvalue()


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.5, 1.0]),
    st.text(max_size=4), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_SECTIONS = {name: sorted(keys) for name, keys in persist.default_run_config().items()
             if isinstance(keys, dict)}
_RUN_CONFIGS = st.fixed_dictionaries(
    {}, optional={**{name: st.dictionaries(st.sampled_from(keys), _JSON_VALUES, max_size=4)
                     for name, keys in _SECTIONS.items()},
                  "seed": _JSON_VALUES})


@given(raw=_RUN_CONFIGS)
@settings(max_examples=300, deadline=None)
def test_parse_run_config_returns_bundle_or_format_error(raw):
    try:
        bundle = persist.parse_run_config(raw)
    except DataFormatError:
        return
    assert bundle.decoder.L >= 1 and 1 <= bundle.decoder.K <= bundle.decoder.L
    assert isinstance(bundle.seed, int)
