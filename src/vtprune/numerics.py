"""Deterministic dense linear algebra and positional-encoding primitives.

Everything downstream (decoder, importance predictor, training, cost
accounting) is built on the handful of operations in this module. Two
properties are load-bearing and worth stating up front:

* All math runs in float64 with a fixed summation order. ``matmul``
  accumulates over the inner dimension strictly left to right, so its
  output is bit-identical to a naive triple loop and to itself across
  runs and platforms. It has two inner strategies, picked by output
  size: a rank-1 update loop for large outputs and one sequential
  ``np.add.accumulate`` over all rank-1 products for small ones (the
  decode path, where every product has one row). Both perform the same
  IEEE additions in the same order, so which one runs never changes a
  bit of any result that is not a nan.
* Randomness comes from :class:`Rng`, a SplitMix64 generator written in
  integer arithmetic. Identical seeds give identical streams everywhere;
  no libm-dependent transforms (like Box-Muller) are used.

One caveat scopes the determinism claim: transcendental kernels (exp,
cos, sin) are numpy's vectorized ones, and the SIMD body and the scalar
remainder tail of those loops may round the same value differently. Any
two code paths that chunk a sequence into different array shapes can
therefore drift at the last ulp. Contracts that compare across
chunkings (incremental decode against fresh prefill, pruned against
dense recompute) use small tolerances instead of bit equality; only
same-shaped replays are expected to match exactly.

Matrices are plain ``numpy.ndarray`` objects in row-major float64. A
tensor of shape ``(m, n)`` stores ``m * n`` scalars; helper code treats
the last axis as contiguous.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, ShapeError

_MASK64 = (1 << 64) - 1

# ---------------------------------------------------------------------------
# FLOP metering
# ---------------------------------------------------------------------------

# Stack of (meter, bucket) pairs. matmul() charges 2*m*n*k to the top of the
# stack, so callers can attribute work to named phases without threading a
# counter through every signature. Metering is opt-in and process-global;
# generation sessions are single-threaded (see module concurrency notes).
_METER_STACK: list[tuple["FlopMeter", str]] = []


class FlopMeter:
    """Counts matmul FLOPs by named bucket.

    Only matrix multiplies are charged (2*m*n*k per product). Softmax,
    normalization and rotary arithmetic are excluded by convention so the
    counted totals agree exactly with the closed forms in ``costmodel``.
    """

    def __init__(self) -> None:
        self.by_bucket: dict[str, int] = {}

    def add(self, bucket: str, flops: int) -> None:
        self.by_bucket[bucket] = self.by_bucket.get(bucket, 0) + flops

    def get(self, bucket: str) -> int:
        return self.by_bucket.get(bucket, 0)

    def total(self) -> int:
        return sum(self.by_bucket.values())

    @contextmanager
    def bucket(self, name: str):
        """Attribute matmul FLOPs inside the context to ``name``."""
        _METER_STACK.append((self, name))
        try:
            yield self
        finally:
            _METER_STACK.pop()


def _charge_matmul(m: int, n: int, k: int) -> None:
    if _METER_STACK:
        meter, bucket = _METER_STACK[-1]
        meter.add(bucket, 2 * m * n * k)


# ---------------------------------------------------------------------------
# Core dense ops
# ---------------------------------------------------------------------------


# Outputs with at most this many cells take the accumulate strategy in
# matmul(). Below it one numpy call for all k products beats k calls of
# the rank-1 loop; above it (measured crossover ~300-1000 cells, later for
# larger k) the accumulate's per-cell inner loops cost more than the
# loop's per-k calls.
ACCUMULATE_MAX_CELLS = 256


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with a fixed left-to-right summation order over k.

    Every output cell is ``((0.0 + a[i][0]*b[0][j]) + a[i][1]*b[1][j]) + ...``,
    the same IEEE additions in the same order as the scalar triple loop,
    which makes equality against a loop oracle exact rather than
    tolerance-based, signed zeros and infinities included. A nan lands in
    the same cells too, but IEEE 754 leaves the sign and payload of a nan
    result open, and numpy's vector loops and scalar code pick them
    differently. Two strategies compute it:

    * outputs of more than ``ACCUMULATE_MAX_CELLS`` cells: one rank-1
      update ``out += a[:, i] b[i, :]`` per inner index into a zeroed
      output;
    * smaller outputs (k >= 1): all k rank-1 products are written into a
      ``(k+1, m, n)`` buffer whose row 0 is ``0.0``, and
      ``np.add.accumulate`` over axis 0 sums them. Accumulation is
      strictly sequential (it never reorders or pairs terms, unlike
      ``np.sum``), so its last row equals the rank-1 loop's output bit
      for bit.

    The FLOP charge, 2*m*n*k, is the same for both.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    m, k = a.shape
    kb, n = b.shape
    if k != kb:
        raise ShapeError(f"inner dimensions disagree: {a.shape} @ {b.shape}")
    _charge_matmul(m, n, k)
    if k and m * n <= ACCUMULATE_MAX_CELLS:
        terms = np.empty((k + 1, m, n))
        terms[0] = 0.0
        np.multiply(a.T[:, :, None], b[:, None, :], out=terms[1:])
        # copy the last row so the result does not pin the whole buffer
        return np.add.accumulate(terms, axis=0, out=terms)[-1].copy()
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(k):
        out += a[:, i : i + 1] * b[i : i + 1, :]
    return out


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction.

    Rows may contain ``-inf`` entries (used as an additive mask upstream);
    each row must keep at least one finite entry.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ShapeError(f"softmax_rows expects a non-empty 2-D tensor, got {x.shape}")
    mx = np.max(x, axis=1, keepdims=True)
    e = np.exp(x - mx)
    return e / np.sum(e, axis=1, keepdims=True)


def rms_norm(x: np.ndarray, gain: np.ndarray, eps: float) -> np.ndarray:
    """RMS normalization of a single vector: gain * x / sqrt(mean(x^2) + eps)."""
    x = np.asarray(x, dtype=np.float64)
    gain = np.asarray(gain, dtype=np.float64)
    if x.ndim != 1 or x.shape != gain.shape or x.shape[0] < 1:
        raise ShapeError(f"rms_norm expects matching 1-D tensors, got {x.shape} and {gain.shape}")
    if eps <= 0:
        raise ConfigError("rms_norm requires eps > 0")
    inv = 1.0 / np.sqrt(np.mean(x * x) + eps)
    return gain * (x * inv)


def rms_norm_rows(x: np.ndarray, gain: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Row-wise ``rms_norm`` over a 2-D tensor with a shared gain vector."""
    x = np.asarray(x, dtype=np.float64)
    gain = np.asarray(gain, dtype=np.float64)
    if x.ndim != 2 or gain.shape != (x.shape[1],):
        raise ShapeError(f"rms_norm_rows shapes disagree: {x.shape} vs {gain.shape}")
    if eps <= 0:
        raise ConfigError("rms_norm_rows requires eps > 0")
    inv = 1.0 / np.sqrt(np.mean(x * x, axis=1, keepdims=True) + eps)
    return (x * inv) * gain


# ---------------------------------------------------------------------------
# Rotary position encoding
# ---------------------------------------------------------------------------


def rope_cos_sin(positions: np.ndarray, d: int, theta: float = 10000.0) -> tuple[np.ndarray, np.ndarray]:
    """Cos/sin tables for pairwise rotation of a width-``d`` vector.

    Pair i (dims 2i and 2i+1) rotates by angle ``pos * theta**(-2i/d)``.
    Returns arrays of shape ``(len(positions), d // 2)``.
    """
    if d % 2 != 0:
        raise ConfigError(f"rotary width must be even, got {d}")
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 1)
    freqs = theta ** (-2.0 * np.arange(d // 2, dtype=np.float64) / d)
    ang = positions * freqs
    return np.cos(ang), np.sin(ang)


def rotate_pairs(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate interleaved (even, odd) dim pairs of the last axis.

    ``cos``/``sin`` must broadcast against ``x[..., 0::2]``. The rotation is
    orthogonal, so per-vector norms are preserved; applying the same tables
    with negated ``sin`` inverts it exactly.
    """
    xe = x[..., 0::2]
    xo = x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = xe * cos - xo * sin
    out[..., 1::2] = xe * sin + xo * cos
    return out


def rope_1d(x: np.ndarray, positions, theta: float = 10000.0) -> np.ndarray:
    """1-D rotary encoding of ``x`` with shape (seq, heads, d).

    Every head is rotated by the same per-position angles. ``d`` must be
    even; positions may be any integers (they need not be contiguous, which
    is what lets pruned sequences keep their original positions).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"rope_1d expects (seq, heads, d), got {x.shape}")
    seq, _, d = x.shape
    positions = np.asarray(positions)
    if positions.shape != (seq,):
        raise ShapeError(f"positions length {positions.shape} does not match seq {seq}")
    cos, sin = rope_cos_sin(positions, d, theta)
    return rotate_pairs(x, cos[:, None, :], sin[:, None, :])


def rope_2d(x: np.ndarray, rows, cols, theta: float = 10000.0) -> np.ndarray:
    """2-D rotary encoding for grid tokens, shape (n, heads, d), d % 4 == 0.

    The first d/2 dims form an independent 1-D rotary space driven by the
    row index, the last d/2 dims one driven by the column index. Dot
    products between two encoded tokens then depend on their grid offset
    (delta_row, delta_col) rather than absolute placement.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"rope_2d expects (n, heads, d), got {x.shape}")
    d = x.shape[2]
    if d % 4 != 0:
        raise ConfigError(f"rope_2d width must be divisible by 4, got {d}")
    half = d // 2
    out = np.empty_like(x)
    out[..., :half] = rope_1d(x[..., :half], rows, theta)
    out[..., half:] = rope_1d(x[..., half:], cols, theta)
    return out


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------


def _splitmix_round(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


class Rng:
    """SplitMix64 stream: 64-bit state, pure integer arithmetic.

    Floats are drawn as ``(u64 >> 11) * 2**-53``, uniform in [0, 1). All
    sampling helpers reduce to ``u64`` so the stream is reproducible on any
    platform regardless of the C library.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def u64(self) -> int:
        self.state, out = _splitmix_round(self.state)
        return out

    def random(self) -> float:
        return (self.u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ConfigError(f"randint bound must be positive, got {n}")
        limit = ((1 << 64) // n) * n
        while True:
            u = self.u64()
            if u < limit:
                return u % n

    def choice(self, seq):
        return seq[self.randint(len(seq))]

    def sample(self, seq, k: int) -> list:
        """k distinct elements, order determined by the draw sequence."""
        pool = list(seq)
        if k > len(pool):
            raise ConfigError(f"cannot sample {k} from {len(pool)} items")
        out = []
        for _ in range(k):
            out.append(pool.pop(self.randint(len(pool))))
        return out

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def uniform_array(self, shape, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
        size = 1
        for s in shape:
            size *= s
        flat = np.fromiter((self.uniform(lo, hi) for _ in range(size)), dtype=np.float64, count=size)
        return flat.reshape(shape)

    def scaled_uniform(self, rows: int, cols: int) -> np.ndarray:
        """Weight init: uniform in +-1/sqrt(fan_in) with fan_in = rows."""
        a = 1.0 / np.sqrt(rows)
        return self.uniform_array((rows, cols), -a, a)

    def derive(self, label: str) -> "Rng":
        """Independent child stream named by ``label``; does not advance self."""
        mixed = self.state ^ _fnv1a64(label)
        _, seed = _splitmix_round(mixed)
        return Rng(seed)
