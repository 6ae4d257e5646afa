"""Hypothesis fuzzing of the file and run-config loaders.

A malformed file or config has one documented outcome: DataFormatError,
which the CLI reports with exit code 2. Each fuzzer feeds malformed input
to a loader and lets any other exception fail the test.
"""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtprune import persist
from vtprune.backbone import DecoderConfig, VisualStubConfig
from vtprune.errors import DataFormatError
from vtprune.prune_engine import build_model
from vtprune.training import TrainConfig
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


@given(edits=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                st.integers(0, 255)), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_checkpoint_loads_or_format_error(fuzz_dir, checkpoint_bytes, edits):
    blob = bytearray(checkpoint_bytes)
    for where, byte in edits:
        blob[int(where * len(blob))] = byte
    path = fuzz_dir / "mutated.json"
    path.write_bytes(bytes(blob))
    try:
        model, _ = persist.model_from_checkpoint(persist.load_checkpoint(str(path)))
    except DataFormatError:
        return
    assert np.all(np.isfinite(model.glimpse.matrix))
    assert all(np.all(np.isfinite(a)) for a in model.vip.named().values())


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
