"""The byte-identity fingerprint script runs and is deterministic."""

import importlib.util
import os
import re
import subprocess
import sys

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


def test_serving_digests_do_not_depend_on_the_blas_thread_count():
    # the cached decoder layer runs on BLAS, in serving and in training's
    # frozen prefix; each thread count needs its own process, as OpenBLAS
    # reads it once at load
    code = ("import importlib.util; "
            f"spec = importlib.util.spec_from_file_location('fingerprint', {SCRIPT!r}); "
            "fp = importlib.util.module_from_spec(spec); spec.loader.exec_module(fp); "
            "print('\\n'.join(fp.fingerprint(grids=(8,), requests=2, train=True)))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300, check=False)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].count("=") == 10 and outputs[0] == outputs[1]
