"""Process set-up shared by the benchmark scripts.

Call :func:`cap_blas_threads` before numpy is first imported, then
:func:`use_checkout_src`, which puts the checkout's ``src`` on the import
path so the benchmark always measures the source tree it sits in.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))  # what `nproc` prints
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class MissingSource(RuntimeError):
    pass


def cap_blas_threads() -> None:
    """Cap every BLAS thread pool at NPROC. Has no effect once numpy is
    loaded, because the pools are sized when the library starts."""
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)


def use_checkout_src() -> None:
    if not os.path.isfile(os.path.join(SRC, "vtprune", "__init__.py")):
        raise MissingSource(f"no vtprune package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
