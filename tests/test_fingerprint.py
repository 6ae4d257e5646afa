"""The byte-identity fingerprint script runs and is deterministic."""

import importlib.util
import os
import re

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "fingerprint.py")


def _load():
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fingerprint_at_8x8_prints_one_digest_per_artifact():
    fp = _load()
    lines = fp.fingerprint(grids=(8,), requests=2, train=False)
    names = [line.split("=", 1)[0] for line in lines]
    assert names == [f"grid8.{a}" for a in ("prefill_logits", "keep", "importance", "flops",
                                            "decode_logits", "cache", "oracle_logits",
                                            "baseline_logits")]
    assert all(re.fullmatch(r"[0-9a-z_.]+=[0-9a-f]{64}", line) for line in lines)
    assert fp.fingerprint(grids=(8,), requests=2, train=False) == lines
