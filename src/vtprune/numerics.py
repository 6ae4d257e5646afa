"""Deterministic dense linear algebra and positional-encoding primitives.

Everything downstream (decoder, importance predictor, training, cost
accounting) is built on the handful of operations in this module. Two
properties are load-bearing and worth stating up front:

* All math runs in float64. ``matmul`` and ``attention`` run their
  products on one of two kernels, which each caller picks in code. The
  cached decoder layer (``backbone._layer_forward``), which serving and
  training's frozen prefix run, passes ``blas=True``: ``_blas`` hands
  each product to the BLAS build's gemm through ``np.matmul``, in that
  build's summation order, so the same machine and BLAS build give the
  same bytes. Everything else keeps the exact kernel, the default: the
  autograd tape (and so training's trainable rows, the predictor and the
  cache-free oracle), the visual stub, the LM head and
  ``checks.matmul_oracle``. It accumulates over the inner dimension strictly
  left to right, so its output is bit-identical to a naive triple loop
  and to itself across runs. ``matmul`` also takes stacks
  ``(B, m, k) @ (B, k, n)``, which is how every attention head of a
  layer runs in one call, and on the exact kernel a stacked product
  equals its slices byte for byte. One function, ``_stacked``, is the
  exact kernel: it sums each product with one call to ``np.einsum``,
  numpy's C sum-of-products loop, on C-contiguous operands (it copies
  any that are not; the decoder's KV cache is stored in the layouts
  ``attention`` reads, so a decode step copies none of it), laid out so
  the longer output side is innermost. Exactness
  rests on that loop adding the products of each cell in k order with a
  separate multiply and add. This holds for numpy 2.4.6 built for an
  X86_V2 baseline, and ``vtprune selftest`` checks it on the running
  build.
* ``attention`` fuses the masked softmax with its product by the values
  in one loop over bands of rows, in the manner of FlashAttention: each
  band forms its scores, probabilities and share of the output up to the
  last column one of its rows sees, which skips about half of every
  causal prefill layer. It charges the FLOPs of the two dense products
  and, on the exact kernel while the scores and values are finite,
  returns their bytes exactly. Both products of every band go through
  the kernel its caller names. The bands run in a
  one-band scratch, and the caller gets only the row range it names: the
  whole block for the training tape, the glimpse row, or none.
* Randomness comes from :class:`Rng`, a SplitMix64 generator written in
  integer arithmetic. Identical seeds give identical streams everywhere;
  no libm-dependent transforms (like Box-Muller) are used.

Concurrency notes. Apart from any threads the BLAS build runs inside
one ``_blas`` product, ``attention`` is the only code that runs work off
the calling thread. When a block of at least two heads spans more than one
band of ``TILE_CELLS`` scores, it hands heads ``[B//2:]`` to one helper
thread, started on first use and never on a one-CPU host, runs the
other half itself, and waits for the helper before it returns or
raises. The helper runs only the band loop, ``_attend``, and the
kernel calls in it, on its own slices of the inputs, the outputs
and the band scratch. The caller allocates every buffer the helper
writes; the helper allocates only its band loop's temporaries.
It never touches the FLOP meter: the caller charges the whole block
before the split, so ``_METER_STACK`` is read and written by calling
threads alone. The bytes cannot change with the split, because heads
share no sum: each head's scores, maxima, exps, row sums and output
cells come from that head's slices alone, and ``attention``'s results do
not depend on how its rows fall into bands. A forked child starts its
own helper.

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

import os
import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, ShapeError

if TYPE_CHECKING:
    from collections.abc import Callable
    from concurrent.futures import ThreadPoolExecutor

_MASK64 = (1 << 64) - 1

# ---------------------------------------------------------------------------
# FLOP metering
# ---------------------------------------------------------------------------

# Stack of (meter, bucket) pairs. matmul() charges 2*m*n*k to the top of the
# stack, so callers can attribute work to named phases without threading a
# counter through every signature. Metering is opt-in and process-global;
# only calling threads charge it (see module concurrency notes).
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
# Helper thread
# ---------------------------------------------------------------------------

# attention() runs half the heads of a block larger than one band here (see
# module concurrency notes).
_HELPER: ThreadPoolExecutor | None = None
_HELPER_LOCK = threading.Lock()


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _helper() -> ThreadPoolExecutor | None:
    """The one helper thread, started on first use; None on one CPU."""
    global _HELPER
    if _HELPER is None:
        with _HELPER_LOCK:
            if _HELPER is None and _cpu_count() > 1:
                # imported on first use: it loads logging, about 0.7 MB that
                # a process which never splits need not hold
                from concurrent.futures import ThreadPoolExecutor
                _HELPER = ThreadPoolExecutor(max_workers=1)
    return _HELPER


def _forget_helper() -> None:
    """A forked child has no helper thread and starts its own."""
    global _HELPER, _HELPER_LOCK
    _HELPER = None
    _HELPER_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_forget_helper)


# ---------------------------------------------------------------------------
# Core dense ops
# ---------------------------------------------------------------------------


# attention() forms its scores in bands of rows of about this many cells
# (512 KB) each.
TILE_CELLS = 65536


def matmul(a: np.ndarray, b: np.ndarray, *, blas: bool = False) -> np.ndarray:
    """Matrix product with a fixed left-to-right summation order over k,
    or on BLAS with ``blas=True``.

    Takes ``(m, k) @ (k, n)`` or a stack ``(B, m, k) @ (B, k, n)``, which
    is B independent products in one call (every attention head of a
    layer at once). On the exact kernel, the default, every output cell is
    ``((0.0 + a[i][0]*b[0][j]) + a[i][1]*b[1][j]) + ...``, the same IEEE
    additions in the same order as the scalar triple loop, which makes
    equality against a loop oracle exact rather than tolerance-based,
    signed zeros and infinities included, and a stacked product equal byte
    for byte to its slices taken one at a time. A nan lands in the same
    cells too, but IEEE 754 leaves the sign and payload of a nan result
    open, and numpy's vector loops and scalar code pick them differently.
    :func:`_stacked` computes it with numpy's einsum loop. With
    ``blas=True``, :func:`_blas` computes it in the BLAS build's own order.
    The result is C-contiguous. The FLOP charge is ``B*2*m*n*k``, that of
    the B slices, on either kernel.
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
    product = _blas if blas else _stacked
    if a.ndim == 2:
        return product(a[None], b[None])[0]
    return product(a, b)


def _blas(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``(B, m, k) @ (B, k, n)`` by ``np.matmul``, which hands each slice
    to the BLAS build's float64 gemm: a fresh C-contiguous array, or
    written straight into ``out``, whose rows may be strided. The order of
    its sums is the build's and may differ with the CPU it detects; the
    fingerprint, training included, reads the same at one and two OpenBLAS
    threads (``tests/test_fingerprint.py``). No FLOP charge. Only the
    cached decoder layer asks for it: serving, and training's prefix.
    """
    return np.matmul(a, b, out=out)


def _stacked(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``(B, m, k) @ (B, k, n)`` as a fresh C-contiguous array, or copied
    into ``out``, each cell summed left to right from ``+0.0``. No FLOP
    charge.

    The exact kernel: one ``np.einsum`` call,
    numpy's C sum-of-products loop, which adds each product into its cell
    with a separate multiply and add and never forms the k*m*n products.
    It keeps k off the loop's innermost axis, which einsum sums unrolled,
    in three ways. The operands are made C-contiguous, a copy of any that
    is not, as other strides (a transposed ``b``, say) can reorder the
    axes. The longer output side
    is innermost: when n < m the sums are built as ``b.T @ a.T``, as an
    n = 1 output would otherwise leave k innermost. A one-cell output has
    no other axis, so it adds one product at a time across the stack.
    ``optimize`` stays False, so einsum never calls BLAS. ``vtprune
    selftest`` checks on the running build that the loop adds in k order
    without an FMA, which holds for numpy 2.4.6 built for an X86_V2
    baseline.
    """
    if out is not None:
        out[...] = _stacked(a, b)
        return out
    batch, m, k = a.shape
    n = b.shape[2]
    if m * n == 1:
        sums = np.zeros((batch, 1, 1))
        for t in range(k):
            sums += a[:, :, t : t + 1] * b[:, t : t + 1]
        return sums
    if n < m:
        sums = _stacked(b.transpose(0, 2, 1), a.transpose(0, 2, 1))
        return np.ascontiguousarray(sums.transpose(0, 2, 1))
    return np.einsum("bmk,bkn->bmn", np.ascontiguousarray(a), np.ascontiguousarray(b))


def attention(q: np.ndarray, kt: np.ndarray, v: np.ndarray, scale: float,
              visible: np.ndarray, *, keep: slice = slice(None),
              blas: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``softmax_rows(q @ kt * scale)``, each score whose ``visible`` entry
    is False set to -inf first, and those probabilities times ``v``, as
    ``(probs, out)``, without the work the mask discards.

    ``q`` is ``(B, s, d)``, ``kt`` ``(B, d, T)``, ``v`` ``(B, T, dv)`` and
    ``visible`` a bool ``(s, T)`` mask shared by the B slices, in which
    every row sees at least one column. One loop walks the rows in bands
    of about ``TILE_CELLS`` scores, each in one zeroed scratch of one band
    of rows per head. Each band forms its scores, max, exp and quotient
    only up to the last column one of its rows sees. Past it the
    probabilities stay exact ``0.0``, what a masked score gives, so each
    row still sums over all T columns in numpy's pairwise tree. The band
    then adds its probabilities times ``v`` over the same columns with one
    product call. On the exact kernel, the default, that is
    :func:`_stacked`, so each cell sums left to right from ``+0.0`` as
    :func:`matmul` does; the product a skipped column would add is
    ``0.0 * v``, a signed zero, which leaves such a sum unchanged. Both
    results therefore equal the unfused :func:`softmax_rows` and
    :func:`matmul` byte for byte while the scores and ``v`` are finite.
    With ``blas=True`` both products of every band run on :func:`_blas`
    instead, in the BLAS build's order, so they agree with the exact ones
    to rounding only. An all-True ``visible`` gives plain attention.

    ``keep`` is the contiguous range of probability rows the caller reads,
    all s by default; each band copies its overlap with it into ``probs``,
    ``(B, n, T)`` for its n rows. A range outside ``[0, s]``, or with a
    step, raises ``IndexError`` before any FLOP is charged, where a slice
    would clamp it. Both results are fresh arrays. A block of two or more
    heads that spans more than one band shares its heads with the helper
    thread (see the module's concurrency notes), on bands sized for the
    larger half. The caller charges ``B*2*s*T*d + B*2*s*dv*T`` FLOPs on
    either kernel.
    """
    batch, s, d = q.shape
    T = kt.shape[2]
    dv = v.shape[2]
    if kt.shape[:2] != (batch, d) or v.shape[:2] != (batch, T) or visible.shape != (s, T):
        raise ShapeError(f"attention shapes disagree: q {q.shape}, kt {kt.shape}, "
                         f"v {v.shape}, visible {visible.shape}")
    first, stop = keep.start or 0, s if keep.stop is None else keep.stop
    if keep.step is not None or not 0 <= first <= stop <= s:
        raise IndexError(f"row range {keep} is not a range within [0, {s}]")
    _charge_matmul(batch * s, T, d)
    _charge_matmul(batch * s, dv, T)
    half = batch // 2
    # a block of one band gains nothing from a thread: decode and every 8x8 call
    helper = _helper() if half and batch * s * T > TILE_CELLS else None
    band = max(1, TILE_CELLS // ((batch - half if helper else batch) * T))
    # Both halves' scratch in one allocation made before the arrays that
    # outlive the call. Each choice cut the page faults glibc takes trimming
    # and regrowing its heap around the freed scratch: ~1,580 per 16x16
    # request with a buffer per half, ~490 with one; 690 per 2-sample
    # training round with it made after probs, 156 before. BLAS products
    # written into it, not copied from temporaries, take ~250 per request.
    work = np.zeros((batch, min(s, band), T))
    probs = np.empty((batch, stop - first, T))
    out = np.empty((batch, s, dv))
    product = _blas if blas else _stacked
    if helper is None:
        _attend(q, kt, v, scale, visible, work, band, out, probs, first, product)
    else:
        done = helper.submit(_attend, q[half:], kt[half:], v[half:], scale, visible,
                             work[half:], band, out[half:], probs[half:], first, product)
        try:
            _attend(q[:half], kt[:half], v[:half], scale, visible, work[:half], band,
                    out[:half], probs[:half], first, product)
        finally:  # never return while the helper still writes into work, out and probs
            done.result()
    return probs, out


def _attend(q: np.ndarray, kt: np.ndarray, v: np.ndarray, scale: float,
            visible: np.ndarray, work: np.ndarray, band: int, out: np.ndarray,
            probs: np.ndarray, first: int, product: Callable[..., np.ndarray]) -> None:
    """:func:`attention`'s band loop over the heads it is given, ``band``
    rows at a time in the zeroed scratch ``work``: fills ``out``, and copies
    into ``probs`` each band's overlap with the rows from ``first`` on.
    ``product`` is the kernel ``attention``'s caller chose, :func:`_stacked`
    or :func:`_blas`, and runs both products of every band, each written
    into the band's part of ``work`` or ``out``. No FLOP charge."""
    s = q.shape[1]
    T = kt.shape[2]
    band_starts = range(0, s, band)
    # one past the last column a row of the band sees; a lone band takes all T
    band_ends = [T] if s <= band else np.maximum.reduceat(
        T - np.argmax(visible[:, ::-1], axis=1), band_starts).tolist()
    filled = 0  # scratch columns past this are 0.0
    for r0, hi in zip(band_starts, band_ends):
        r1 = min(r0 + band, s)
        block = work[:, : r1 - r0]
        if hi < filled:  # an earlier band saw further
            work[:, :, hi:filled] = 0.0
        filled = hi
        e = block[:, :, :hi]
        product(q[:, r0:r1], kt[:, :, :hi], out=e)
        e *= scale
        np.copyto(e, -np.inf, where=~visible[r0:r1, :hi])
        # the ufuncs' own reduce, which np.max and np.sum call after ~2 us of Python
        e -= np.maximum.reduce(e, axis=-1, keepdims=True)
        np.exp(e, out=e)
        e /= np.add.reduce(block, axis=-1, keepdims=True)
        product(e, v[:, :hi], out=out[:, r0:r1])
        lo, up = max(r0, first), min(r1, first + probs.shape[1])
        if lo < up:
            probs[:, lo - first : up - first] = block[:, lo - r0 : up - r0]


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with per-row max subtraction.

    ``x`` has at least two axes; leading axes are batch (one slice per
    attention head). Rows may contain ``-inf`` entries (used as an
    additive mask upstream); each row must keep at least one finite
    entry.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] == 0:
        raise ShapeError(f"softmax_rows expects a non-empty tensor of 2+ axes, got {x.shape}")
    e = x - np.max(x, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def sigmoid(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` elementwise, computed as ``exp(x) / (1 + exp(x))``
    where x is negative, so no exp overflows. The cached layer's gate and
    the tape's sigmoid, silu and BCE backward all call it."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def rms_norm_rows(x: np.ndarray, gain: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Row-wise RMS normalization with a shared gain vector:
    gain * x / sqrt(mean(x^2) + eps) for every row of ``x``. The mean is
    ``np.add.reduce(x * x, axis=1) / n``, the pairwise sum and true divide
    ``np.mean`` makes, without its Python wrapper."""
    x = np.asarray(x, dtype=np.float64)
    gain = np.asarray(gain, dtype=np.float64)
    if x.ndim != 2 or gain.shape != (x.shape[1],):
        raise ShapeError(f"rms_norm_rows shapes disagree: {x.shape} vs {gain.shape}")
    if eps <= 0:
        raise ConfigError("rms_norm_rows requires eps > 0")
    inv = 1.0 / np.sqrt(np.add.reduce(x * x, axis=1, keepdims=True) / x.shape[1] + eps)
    return (x * inv) * gain


# ---------------------------------------------------------------------------
# Rotary position encoding
# ---------------------------------------------------------------------------


def rope_cos_sin(positions: np.ndarray, d: int, theta: float = 10000.0) -> tuple[np.ndarray, np.ndarray]:
    """Cos/sin tables for pairwise rotation of a width-``d`` vector.

    Pair i (dims 2i and 2i+1) rotates by angle ``pos * theta**(-2i/d)``.
    Returns arrays of shape ``(len(positions), d // 2)``. Positions may be
    any integers; they need not be contiguous, which is what lets pruned
    sequences keep their original positions.
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
