"""A fixed unit of CPU work that operations are timed against.

On a shared host the speed of this process changes by up to 2x for
seconds or minutes at a time. Timing this kernel right before and right
after every operation, and dividing the operation's time by the mean of
the two, gives a figure that moves with the program and not with the
host. The kernel does the kind of work the library does per decoder
layer: rank-1-update matrix products over small float64 arrays, a
row softmax and a gated MLP, for 64 rows of width 32 with 8 heads.

It imports nothing from the library, so a change to the library never
changes it. Changing it changes every relative figure, so it changes
only together with the benchmark.
"""

from __future__ import annotations

import time

import numpy as np

ROWS, WIDTH, HEADS, FFN = 64, 32, 8, 64


def _inputs():
    grid = np.arange(ROWS * WIDTH, dtype=np.float64).reshape(ROWS, WIDTH)
    x = np.sin(grid * 0.37)
    w = np.cos(np.arange(WIDTH * WIDTH, dtype=np.float64).reshape(WIDTH, WIDTH) * 0.11) / WIDTH
    w_up = np.sin(np.arange(WIDTH * FFN, dtype=np.float64).reshape(WIDTH, FFN) * 0.07) / WIDTH
    w_down = np.cos(np.arange(FFN * WIDTH, dtype=np.float64).reshape(FFN, WIDTH) * 0.05) / FFN
    return x, w, w_up, w_down


_X, _W, _W_UP, _W_DOWN = _inputs()


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[1]):
        out += a[:, i:i + 1] * b[i:i + 1, :]
    return out


def kernel() -> float:
    """One pass of the fixed work; returns a checksum so none of it is
    dead."""
    q, k, v = _matmul(_X, _W), _matmul(_X, _W.T), _matmul(_X, _W * 0.5)
    dh = WIDTH // HEADS
    heads = []
    for h in range(HEADS):
        cols = slice(h * dh, (h + 1) * dh)
        scores = _matmul(q[:, cols], np.ascontiguousarray(k[:, cols].T))
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        heads.append(_matmul(e / e.sum(axis=1, keepdims=True), v[:, cols]))
    x = _X + np.concatenate(heads, axis=1)
    gate = _matmul(x, _W_UP)
    return float(_matmul(gate / (1.0 + np.exp(-gate)), _W_DOWN).sum())


def timed() -> float:
    """Seconds one pass of :func:`kernel` takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
