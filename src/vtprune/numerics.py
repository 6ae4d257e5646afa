"""Deterministic dense linear algebra and positional-encoding primitives.

Everything downstream (decoder, importance predictor, training, cost
accounting) is built on the handful of operations in this module. Two
properties are load-bearing and worth stating up front:

* All math runs in float64 with a fixed summation order. ``matmul``
  accumulates over the inner dimension strictly left to right, so its
  output is bit-identical to a naive triple loop and to itself across
  runs and platforms. It also takes stacks ``(B, m, k) @ (B, k, n)``,
  which is how every attention head of a layer runs in one call, and a
  stacked product equals its slices byte for byte. Its inner strategy
  (one sequential ``np.add.accumulate`` over all rank-1 products for
  small outputs, a rank-1 update loop for the rest, laid out so the
  longer output side is contiguous) depends on the shapes only. Every
  strategy performs the same IEEE additions in the same order, so which
  one runs never changes a bit of any result that is not a nan.
* ``attention`` fuses the masked softmax with its product by the values
  and skips the columns a causal mask hides and the products they would
  add, about half of every prefill layer. It charges the FLOPs of the two
  dense products and, while the scores and values are finite, returns
  their bytes exactly.
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

import math
import sys
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


# Switch between matmul()'s strategies; see its docstring for the
# measurements behind the three constants.
ACCUMULATE_MAX_CELLS = 640
ACCUMULATE_FIXED_CELLS = 1536
SHORT_ROW_CELLS = 8
# The rank-1 loop works through the output in bands of rows of at most this
# many cells (512 KB), so its per-step term stays small and each band stays
# in cache over all k steps: (8, 261, 4) @ (8, 4, 261) took 5.2 ms as one
# band and 4.0 ms in bands of 65536 cells. Without bands, with an
# output-sized term, the 16x16 serving peak RSS was 5.5 MB (dense arm 9.5
# MB) above the per-head loop's instead of 1.6 (2.0) MB, and time to first
# token 5% (2%) longer.
TILE_CELLS = 65536
# Outputs of at least this many bytes are carved from one pooled buffer.
POOL_MIN_BYTES = 1 << 20
_POOL: list[np.ndarray] = []  # at most one buffer, reused once no array uses it


def _refs(pool: list) -> int:
    return sys.getrefcount(pool[0])


# what _refs reads for a buffer that only its pool references
_FREE_REFS = _refs([np.empty(0)])


def _zeros(shape) -> np.ndarray:
    """A zeroed float64 array of ``shape`` that the caller owns until it
    drops it.

    From ``POOL_MIN_BYTES`` up it is a view of one pooled buffer whenever
    no live array still views that buffer (its reference count says so);
    otherwise a fresh pooled buffer replaces it. Freeing a block this
    large raises glibc's mmap threshold, after which glibc serves such
    blocks from its heap and keeps them when freed: with every head's
    (H, s, T) attention scores in a fresh block per layer (4.4 MB at
    16x16), the 16x16 serving peak RSS was 5.3 MB (dense arm 5.9 MB) above
    the per-head loop's; with the pool it is 1.6 (2.0) MB above. The
    reference count is exact only under CPython, and like the FLOP meter
    the pool assumes one thread.
    """
    size = math.prod(shape)
    if 8 * size < POOL_MIN_BYTES:
        return np.zeros(shape)
    if _POOL and _POOL[0].size >= size and _refs(_POOL) == _FREE_REFS:
        out = _POOL[0][:size].reshape(shape)
        out[...] = 0.0
        return out
    _POOL[:] = [np.zeros(size)]
    return _POOL[0].reshape(shape)


def accumulates(cells: int, k: int) -> bool:
    """Whether matmul sums an output of ``cells`` cells (over the whole
    stack) and inner length ``k`` with the accumulate strategy."""
    return k * (ACCUMULATE_MAX_CELLS - cells) >= ACCUMULATE_FIXED_CELLS


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with a fixed left-to-right summation order over k.

    Takes ``(m, k) @ (k, n)`` or a stack ``(B, m, k) @ (B, k, n)``, which
    is B independent products in one call (every attention head of a
    layer at once). Every output cell is
    ``((0.0 + a[i][0]*b[0][j]) + a[i][1]*b[1][j]) + ...``, the same IEEE
    additions in the same order as the scalar triple loop, which makes
    equality against a loop oracle exact rather than tolerance-based,
    signed zeros and infinities included, and a stacked product equal byte
    for byte to its slices taken one at a time. A nan lands in the same
    cells too, but IEEE 754 leaves the sign and payload of a nan result
    open, and numpy's vector loops and scalar code pick them differently.
    Two strategies compute it, chosen by :func:`accumulates` on the
    whole stack's output cells (B*m*n) and k:

    * the accumulate, for small outputs: all k rank-1 products are written
      into a ``(k+1, B, m, n)`` buffer whose row 0 is ``0.0``, and
      ``np.add.accumulate`` over axis 0 sums them. Accumulation is
      strictly sequential (it never reorders or pairs terms, unlike
      ``np.sum``), so its last row equals the rank-1 loop's output bit
      for bit;
    * the rank-1 loop: one update ``out += a[..., :, i] b[..., i, :]`` per
      inner index into a zeroed output, so each numpy call covers every
      slice of the stack. Output rows of n <= ``SHORT_ROW_CELLS`` cells
      are too short for numpy's inner loop, so when m is longer the loop
      builds the transpose ``b.T @ a.T`` instead, with m contiguous and
      ``a`` read through a strided view: (8, 261, 261) @ (8, 261, 4), every
      head's probabilities times values at 16x16, took 6 ms that way and
      14 ms row-major. Past 8 cells the strided reads cost more than the
      short rows save.

    On a 2-vCPU Xeon VM (numpy 2.4, AVX-512) a call of the rank-1 loop
    cost about k * (3.5 us + 2 ns * cells) and one of the accumulate about
    8 us + 9 ns * k * cells, so the accumulate runs while
    ``k * (ACCUMULATE_MAX_CELLS - cells) >= ACCUMULATE_FIXED_CELLS``. The
    largest output (in cells) at which the accumulate measured faster,
    against what that rule allows:

    ======== === === === === ======= =======
    k         1   2   3   4   6-16    32-256
    measured  -   -  128 256  384     512
    rule      -   -  128 256  384-544 592-634
    ======== === === === === ======= =======

    The result is C-contiguous. The FLOP charge, ``B*2*m*n*k``, is the same
    for every strategy and equals that of the B slices.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim not in (2, 3) or b.ndim != a.ndim:
        raise ShapeError(f"matmul expects two 2-D or two 3-D operands, "
                         f"got {a.shape} and {b.shape}")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"operand dimensions disagree: {a.shape} @ {b.shape}")
    batch = a.shape[0] if a.ndim == 3 else 1
    m, k = a.shape[-2:]
    n = b.shape[-1]
    _charge_matmul(batch * m, n, k)
    if a.ndim == 2:
        return _stacked(a[None], b[None])[0]
    return _stacked(a, b)


def _stacked(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``(B, m, k) @ (B, k, n)`` without the FLOP charge: a fresh
    C-contiguous array, or written into ``out``, a zeroed ``(B, m, n)``
    array or view, which is returned."""
    batch, m, k = a.shape
    n = b.shape[2]
    if accumulates(batch * m * n, k):
        terms = np.empty((k + 1, batch, m, n))
        terms[0] = 0.0
        np.multiply(a.transpose(2, 0, 1)[..., None], b.transpose(1, 0, 2)[:, :, None, :],
                    out=terms[1:])
        last = np.add.accumulate(terms, axis=0, out=terms)[-1]
        if out is None:
            # copy the last row so the result does not pin the whole buffer
            return last.copy()
        out[...] = last
        return out
    transposed = n <= SHORT_ROW_CELLS < m
    given = out is not None
    if not given:
        out = _zeros((batch, n, m)).transpose(0, 2, 1) if transposed else _zeros((batch, m, n))
    if transposed:
        # out.T = b.T @ a.T, so the longer m is the contiguous axis
        left, right, target = b.transpose(0, 2, 1), a.transpose(0, 2, 1), out.transpose(0, 2, 1)
    else:
        left, right, target = a, b, out
    rows, cols = left.shape[1], right.shape[2]
    # a band of rows at a time, so a (k-step) term never exceeds TILE_CELLS
    band = max(1, TILE_CELLS // max(1, batch * cols))
    term = np.empty((batch, min(band, rows), cols))
    for r0 in range(0, rows, band):
        acc, lhs = target[:, r0 : r0 + band], left[:, r0 : r0 + band]
        tile = term[:, : acc.shape[1]]
        for t in range(k):
            np.multiply(lhs[:, :, t : t + 1], right[:, t : t + 1, :], out=tile)
            acc += tile
    return out if given else np.ascontiguousarray(out)


def attention_probs(q: np.ndarray, kt: np.ndarray, scale: float,
                    visible: np.ndarray | None = None) -> np.ndarray:
    """``softmax_rows(q @ kt * scale)`` with every score whose ``visible``
    entry is False set to -inf first; ``visible`` (bool) broadcasts against
    the ``(..., s, T)`` scores. It is built in the product's own buffer: for
    ``(H, s, d) @ (H, d, T)`` the only array of the scores' size is the one
    returned. For finite scores this equals adding an additive mask of 0
    and -inf bit for bit; a masked inf or nan no longer reaches the row."""
    scores = matmul(q, kt)
    scores *= scale
    if visible is not None:
        np.copyto(scores, -np.inf, where=~visible)
    return softmax_rows(scores, out=scores)


def attention(q: np.ndarray, kt: np.ndarray, v: np.ndarray, scale: float,
              visible: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``attention_probs(q, kt, scale, visible)`` and those probabilities
    times ``v``, as ``(probs, out)``, without the work the mask discards.

    ``q`` is ``(B, s, d)``, ``kt`` ``(B, d, T)``, ``v`` ``(B, T, dv)`` and
    ``visible`` a bool ``(s, T)`` mask shared by the B slices, in which
    every row sees at least one column. Rows go in bands; each band forms
    its scores, max, exp and quotient only up to the last column one of
    its rows sees. Past it the probabilities stay exact ``0.0``, what a
    masked score gives, so each row still sums over all T columns in
    numpy's pairwise tree. ``probs @ v`` goes in chunks of inner steps: a
    chunk's products sit below the running sums in one buffer and
    ``np.add.reduce`` over axis 0 adds them in order, so each cell sums
    left to right from ``+0.0`` as :func:`matmul` does, and a chunk
    touches only the rows that see one of its columns. A skipped product
    is ``0.0 * v``, a signed zero, which leaves such a sum unchanged.
    Both results therefore equal the unfused pair byte for byte while the
    scores and ``v`` are finite; past that, a masked column no longer
    turns a row's output (an inf or nan in ``v``) or its masked
    probabilities (an inf score) into nan. Bands and chunks hold about
    ``TILE_CELLS`` cells. The FLOP charge is the two dense products',
    ``B*2*s*T*d + B*2*s*dv*T``.
    """
    batch, s, d = q.shape
    T = kt.shape[2]
    dv = v.shape[2]
    if kt.shape[:2] != (batch, d) or v.shape[:2] != (batch, T) or visible.shape != (s, T):
        raise ShapeError(f"attention shapes disagree: q {q.shape}, kt {kt.shape}, "
                         f"v {v.shape}, visible {visible.shape}")
    _charge_matmul(batch * s, T, d)
    _charge_matmul(batch * s, dv, T)
    # Bounds only matter past one band or chunk: a lone band takes all T
    # columns and a lone chunk all s rows (decode has both).
    band = max(1, TILE_CELLS // (batch * T))
    band_starts = range(0, s, band)
    # one past the last column a row of the band sees
    band_ends = [T] if s <= band else np.maximum.reduceat(
        T - np.argmax(visible[:, ::-1], axis=1), band_starts).tolist()
    probs = _zeros((batch, s, T))
    for r0, hi in zip(band_starts, band_ends):
        e = _stacked(q[:, r0 : r0 + band], kt[:, :, :hi], out=probs[:, r0 : r0 + band, :hi])
        e *= scale
        np.copyto(e, -np.inf, where=~visible[r0 : r0 + band, :hi])
        # the ufuncs' own reduce, which np.max and np.sum call after ~2 us of Python
        e -= np.maximum.reduce(e, axis=-1, keepdims=True)
        np.exp(e, out=e)
        e /= np.add.reduce(probs[:, r0 : r0 + band], axis=-1, keepdims=True)

    # Sums are built transposed, (B, dv, s), so the long s axis is the
    # contiguous one, as in matmul's short-row loop. A reduce whose rows
    # hold one cell is numpy's pairwise sum, not a sequential one, so a
    # single-cell output (B = dv = 1) takes one inner step per reduce.
    chunk = min(T, max(1, TILE_CELLS // (batch * dv * s))) if batch * dv > 1 else 1
    chunk_starts = range(0, T, chunk)
    # the first row that sees a column of the chunk
    chunk_rows = [0] if T <= chunk else np.minimum.reduceat(
        np.argmax(visible, axis=0), chunk_starts).tolist()
    acc = np.zeros((batch, dv, s))
    buf = np.empty((chunk + 1) * batch * dv * s)
    for t0, lo in zip(chunk_starts, chunk_rows):
        sums = acc[:, :, lo:]
        pv = probs[:, lo:, t0 : t0 + chunk].transpose(2, 0, 1)
        terms = buf[: (pv.shape[0] + 1) * sums.size].reshape(-1, *sums.shape)
        terms[0] = sums
        np.multiply(v[:, t0 : t0 + chunk].transpose(1, 0, 2)[..., None], pv[:, :, None, :],
                    out=terms[1:])
        np.add.reduce(terms, axis=0, out=sums)
    return probs, acc.transpose(0, 2, 1).copy()


def softmax_rows(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis with per-row max subtraction.

    ``x`` has at least two axes; leading axes are batch (one slice per
    attention head). Rows may contain ``-inf`` entries (used as an
    additive mask upstream); each row must keep at least one finite
    entry. With ``out`` (which may be ``x`` itself) the result is written
    there, so no buffer of the input's size is allocated.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] == 0:
        raise ShapeError(f"softmax_rows expects a non-empty tensor of 2+ axes, got {x.shape}")
    e = np.subtract(x, np.max(x, axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def rms_norm_rows(x: np.ndarray, gain: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Row-wise RMS normalization with a shared gain vector:
    gain * x / sqrt(mean(x^2) + eps) for every row of ``x``."""
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


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------


_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix_round(state: int) -> tuple[int, int]:
    state = (state + _GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
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

    def sample(self, seq, k: int) -> list:
        """k distinct elements, order determined by the draw sequence."""
        pool = list(seq)
        if k > len(pool):
            raise ConfigError(f"cannot sample {k} from {len(pool)} items")
        out = []
        for _ in range(k):
            out.append(pool.pop(self.randint(len(pool))))
        return out

    def uniform_array(self, shape, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
        """``size`` draws of :meth:`uniform` at once, byte-identical to
        the scalar stream. Draw i (from 1) mixes state ``s0 + i*gamma``;
        numpy's ``uint64`` arithmetic wraps mod 2**64 like ``_MASK64``."""
        size = 1
        for s in shape:
            size *= s
        z = np.uint64(self.state) + np.arange(1, size + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        self.state = (self.state + size * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        unit = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return (lo + (hi - lo) * unit).reshape(shape)

    def scaled_uniform(self, rows: int, cols: int) -> np.ndarray:
        """Weight init: uniform in +-1/sqrt(fan_in) with fan_in = rows."""
        a = 1.0 / np.sqrt(rows)
        return self.uniform_array((rows, cols), -a, a)

    def derive(self, label: str) -> "Rng":
        """Independent child stream named by ``label``; does not advance self."""
        mixed = self.state ^ _fnv1a64(label)
        _, seed = _splitmix_round(mixed)
        return Rng(seed)
