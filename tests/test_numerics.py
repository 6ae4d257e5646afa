import concurrent.futures
import math
import os
import sys
import threading
import time
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vtprune import checks, numerics
from vtprune.errors import ConfigError, ShapeError
from vtprune.numerics import (
    TILE_CELLS,
    FlopMeter,
    Rng,
    attention,
    matmul,
    rms_norm_rows,
    rope_cos_sin,
    rotate_pairs,
    softmax_rows,
)


def _bits(x):
    """Bytes of ``x`` with every nan made the same nan. IEEE 754 leaves the
    sign and payload of a nan result open, and numpy's vector loops and
    scalar arithmetic do pick different ones; every other bit must match."""
    x = np.array(x, dtype=np.float64)
    x[np.isnan(x)] = np.nan
    return x.tobytes()


def regime(m, n):
    """Which layout ``_stacked`` gives an (m, n) output: one cell, summed
    one product at a time; transposed (n < m), built as ``b.T @ a.T`` so
    m is innermost; or row-major, with n innermost."""
    if m * n == 1:
        return "one cell"
    return "transposed" if n < m else "row-major"


REGIMES = {"one cell", "transposed", "row-major"}


# (m, k, n) in every regime, including the k = 0 and k = 1 edges, one-cell
# outputs with k >= 8 and n = 1 outputs with 2 <= m <= 8, whose k einsum
# would sum unrolled if it were the innermost axis
KERNEL_SHAPES = [
    (3, 0, 4), (1, 0, 1), (30, 0, 30),
    (1, 1, 1), (5, 1, 7), (30, 1, 30),
    (1, 2, 4), (1, 32, 32), (1, 265, 4), (1, 300, 16), (1, 300, 256), (1, 4, 265),
    (16, 16, 16), (70, 64, 4), (261, 32, 32), (300, 2, 4), (1, 8, 1), (1, 9, 1), (1, 300, 1),
    (6, 40, 1),
]


def _in_order(a, b):
    """Stacked products summed one inner step at a time, from +0.0: the
    triple loop's additions, one elementwise multiply and add per step."""
    out = np.zeros((a.shape[0], a.shape[1], b.shape[2]))
    for t in range(a.shape[2]):
        out += a[:, :, t : t + 1] * b[:, t : t + 1]
    return out


# (m, n) draws that favour the layouts einsum gets wrong when misused:
# n = 1 under a short m, and one-cell outputs
OUTPUT_SIDES = st.one_of(st.tuples(st.integers(1, 24), st.integers(1, 24)),
                         st.tuples(st.integers(2, 8), st.just(1)), st.just((1, 1)))


class TestMatmul:
    def test_identity(self):
        b = np.array([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(matmul(np.eye(2), b), b)

    def test_hand_arithmetic(self):
        out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert out.shape == (1, 1) and out[0, 0] == 11.0

    def test_matches_triple_loop_exactly(self):
        rng = Rng(7)
        for _ in range(5):
            a = rng.uniform_array((5, 7), -2.0, 2.0)
            b = rng.uniform_array((7, 3), -2.0, 2.0)
            checks.matmul_oracle(a, b)

    # k reaches past einsum's unrolled blocks; ``sliced`` cuts ``a`` along
    # k from a wider array and ``b_t`` takes ``b`` as a transposed view
    @given(OUTPUT_SIDES, st.integers(0, 48), st.booleans(), st.booleans(),
           st.integers(0, 2**32))
    @example(sides=(6, 1), k=40, sliced=False, b_t=False, seed=0)
    @example(sides=(1, 1), k=40, sliced=False, b_t=False, seed=1)
    @example(sides=(20, 3), k=40, sliced=True, b_t=True, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_triple_loop_property(self, sides, k, sliced, b_t, seed):
        m, n = sides
        rng = Rng(seed)
        a = rng.uniform_array((m, k + 3 * sliced), -3.0, 3.0)[:, :k]
        b = rng.uniform_array((n, k), -3.0, 3.0).T if b_t else rng.uniform_array((k, n), -3.0, 3.0)
        checks.matmul_oracle(a, b)

    def test_kernel_shapes_straddle_the_switch(self):
        assert {regime(m, n) for m, k, n in KERNEL_SHAPES if k} == REGIMES
        assert any(m * n == 1 and k >= 8 for m, k, n in KERNEL_SHAPES)
        assert any(n == 1 and 2 <= m <= 8 and k >= 33 for m, k, n in KERNEL_SHAPES)

    @pytest.mark.parametrize("m,k,n", KERNEL_SHAPES)
    def test_both_strategies_match_triple_loop_bytes(self, m, k, n):
        rng = Rng(m * 1000 + k * 10 + n)
        a = rng.uniform_array((m, k), -3.0, 3.0)
        b = rng.uniform_array((k, n), -3.0, 3.0)
        checks.matmul_oracle(a, b)

    @pytest.mark.parametrize("m,k,n", [(1, 7, 4), (4, 6, 5), (20, 6, 20), (70, 3, 4)])
    def test_signed_zeros_infinities_and_nans(self, m, k, n):
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0,
                            1e308, -1e308, 5e-324, -5e-324])
        rng = Rng(k * 100 + m + n)
        for _ in range(20):
            a = special[[rng.randint(special.size) for _ in range(m * k)]].reshape(m, k)
            b = special[[rng.randint(special.size) for _ in range(k * n)]].reshape(k, n)
            with np.errstate(invalid="ignore", over="ignore"):
                assert _bits(matmul(a, b)) == _bits(checks.triple_loop(a, b))

    @pytest.mark.parametrize("m,n", [(1, 1), (20, 20)])
    def test_all_negative_zero_products_sum_to_positive_zero(self, m, n):
        # random operands rarely make every product -0.0; a sum that did not
        # start from +0.0 would return -0.0 here
        out = matmul(np.full((m, 3), -0.0), np.ones((3, n)))
        assert out.tobytes() == np.zeros((m, n)).tobytes()

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            matmul(np.zeros((2, 3)), np.zeros((4, 2)))
        with pytest.raises(ShapeError):
            matmul(np.zeros(3), np.zeros((3, 2)))

    def test_meter_counts_2mnk(self):
        meter = FlopMeter()
        with meter.bucket("x"):
            matmul(np.zeros((3, 4)), np.zeros((4, 5)))
        assert meter.get("x") == 2 * 3 * 5 * 4
        # outside any bucket nothing is charged
        matmul(np.zeros((3, 4)), np.zeros((4, 5)))
        assert meter.total() == 2 * 3 * 5 * 4

    @pytest.mark.parametrize("m,k,n", KERNEL_SHAPES)
    def test_meter_charge_same_on_both_paths(self, m, k, n):
        meter = FlopMeter()
        with meter.bucket("x"):
            matmul(np.ones((m, k)), np.ones((k, n)))
        assert meter.by_bucket == {"x": 2 * m * n * k}


SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0,
                    1e308, -1e308, 5e-324, -5e-324])


def _per_slice(a, b):
    return np.stack([matmul(a[i], b[i]) for i in range(a.shape[0])])


# (B, m, k, n) that put the whole stack in every regime: row-major (m <= n),
# transposed (n < m, n = 1 under a short m included) and stacks of one-cell
# outputs, and outputs larger than attention's bands (TILE_CELLS)
STACKED_SHAPES = [
    (3, 1, 0, 4), (2, 1, 1, 1), (2, 1, 2, 30), (8, 1, 4, 20), (8, 1, 270, 4),
    (4, 4, 3, 5), (8, 1, 4, 270), (8, 25, 25, 4), (8, 69, 4, 69), (8, 69, 69, 4),
    (1, 261, 32, 32), (3, 40, 6, 9), (3, 9, 6, 40), (2, 300, 2, 130), (4, 256, 3, 256),
    (3, 6, 10, 1), (3, 1, 40, 1),
]


class TestStackedMatmul:
    def test_shapes_cover_every_strategy(self):
        assert {regime(m, n) for _, m, k, n in STACKED_SHAPES if k} == REGIMES
        assert any(bt * m * n > TILE_CELLS for bt, m, _, n in STACKED_SHAPES)

    @pytest.mark.parametrize("bt,m,k,n", STACKED_SHAPES)
    def test_matches_slices_bytes(self, bt, m, k, n):
        rng = Rng(bt * 10**6 + m * 1000 + k * 10 + n)
        a = rng.uniform_array((bt, m, k), -3.0, 3.0)
        b = rng.uniform_array((bt, k, n), -3.0, 3.0)
        out = matmul(a, b)
        assert out.shape == (bt, m, n) and out.flags.c_contiguous
        assert out.tobytes() == _per_slice(a, b).tobytes() == _in_order(a, b).tobytes()

    @pytest.mark.parametrize("bt,m,k,n", [s for s in STACKED_SHAPES if s[0] * s[1] * s[3] > TILE_CELLS])
    def test_large_outputs_match_triple_loop_bytes(self, bt, m, k, n):
        rng = Rng(bt * 10**6 + m * 1000 + k * 10 + n)
        a = rng.uniform_array((bt, m, k), -3.0, 3.0)
        b = rng.uniform_array((bt, k, n), -3.0, 3.0)
        naive = np.stack([checks.triple_loop(a[i], b[i]) for i in range(bt)])
        assert matmul(a, b).tobytes() == naive.tobytes()

    @given(st.integers(1, 4), OUTPUT_SIDES, st.integers(0, 48),
           st.sampled_from(["contiguous", "transposed", "sliced"]),
           st.sampled_from(["contiguous", "transposed", "strided"]), st.integers(0, 2**32))
    @example(bt=3, sides=(6, 1), k=40, a_view="contiguous", b_view="contiguous", seed=0)
    @example(bt=3, sides=(1, 1), k=40, a_view="contiguous", b_view="contiguous", seed=0)
    @example(bt=2, sides=(20, 3), k=40, a_view="sliced", b_view="transposed", seed=0)
    @settings(max_examples=80, deadline=None)
    def test_property_matches_slices_on_views(self, bt, sides, k, a_view, b_view, seed):
        """Transposed, strided and k-sliced operand views give the slices'
        bytes, which are the in-order sums'."""
        m, n = sides
        rng = Rng(seed)
        if a_view == "transposed":
            a = rng.uniform_array((bt, k, m), -3.0, 3.0).transpose(0, 2, 1)
        else:
            a = rng.uniform_array((bt, m, k + 3 * (a_view == "sliced")), -3.0, 3.0)[:, :, :k]
        if b_view == "transposed":
            b = rng.uniform_array((bt, n, k), -3.0, 3.0).transpose(0, 2, 1)
        elif b_view == "strided":
            b = rng.uniform_array((bt, k, 2 * n), -3.0, 3.0)[:, :, ::2]
        else:
            b = rng.uniform_array((bt, k, n), -3.0, 3.0)
        out = matmul(a, b)
        assert out.tobytes() == _per_slice(a, b).tobytes() == _in_order(a, b).tobytes()

    @pytest.mark.parametrize("bt,m,k,n", [(3, 1, 7, 4), (2, 4, 6, 5), (2, 20, 6, 20),
                                          (2, 70, 3, 4), (2, 12, 5, 30)])
    def test_signed_zeros_infinities_and_nans(self, bt, m, k, n):
        rng = Rng(bt * 1000 + k * 100 + m + n)
        for _ in range(10):
            a = SPECIAL[[rng.randint(SPECIAL.size) for _ in range(bt * m * k)]]
            b = SPECIAL[[rng.randint(SPECIAL.size) for _ in range(bt * k * n)]]
            a, b = a.reshape(bt, m, k), b.reshape(bt, k, n)
            with np.errstate(invalid="ignore", over="ignore"):
                got, want = matmul(a, b), _per_slice(a, b)
                naive = np.stack([checks.triple_loop(a[i], b[i]) for i in range(bt)])
            assert _bits(got) == _bits(want) == _bits(naive)

    @pytest.mark.parametrize("bt,m,k,n", STACKED_SHAPES)
    def test_meter_charges_every_slice(self, bt, m, k, n):
        meter = FlopMeter()
        with meter.bucket("x"):
            matmul(np.ones((bt, m, k)), np.ones((bt, k, n)))
        assert meter.by_bucket == {"x": bt * 2 * m * n * k}

    def test_shape_errors(self):
        for a, b in (((2, 3, 4), (3, 4, 5)),  # batch mismatch
                     ((2, 3, 4), (2, 5, 6)),  # inner mismatch
                     ((3, 4), (1, 4, 5)),  # 2-D with 3-D
                     ((1, 2, 3, 4), (1, 2, 4, 5))):  # 4-D
            with pytest.raises(ShapeError):
                matmul(np.zeros(a), np.zeros(b))


class TestAttentionProbs:
    def test_equals_softmax_of_scaled_masked_scores(self):
        rng = Rng(21)
        q = rng.uniform_array((3, 5, 4), -2.0, 2.0)
        kt = rng.uniform_array((3, 4, 7), -2.0, 2.0)
        visible = np.arange(7)[None, :] <= np.arange(5)[:, None] + 2
        mask = np.where(visible, 0.0, -np.inf)
        got, _ = attention(q, kt, rng.uniform_array((3, 7, 2), -2.0, 2.0), 0.5, visible)
        want = np.stack([softmax_rows(matmul(q[h], kt[h]) * 0.5 + mask) for h in range(3)])
        assert got.tobytes() == want.tobytes()


def _causal(s, T):
    """Row i of a chunk of s new rows sees the T - s cached ones and itself."""
    return np.arange(T)[None, :] <= (T - s + np.arange(s))[:, None]


def _unfused(q, kt, v, scale, visible):
    probs = softmax_rows(np.where(visible, matmul(q, kt) * scale, -np.inf))
    return probs, matmul(probs, v)


def _check_attention(q, kt, v, visible, scale=0.5):
    """The fused kernel equals softmax_rows of the masked scores, then
    matmul, byte for byte and charges the same FLOPs."""
    meter = FlopMeter()
    with meter.bucket("fused"):
        probs, out = attention(q, kt, v, scale, visible)
    with meter.bucket("pair"):
        want_probs, want_out = _unfused(q, kt, v, scale, visible)
    assert probs.tobytes() == want_probs.tobytes()
    assert out.shape == want_out.shape and out.flags.c_contiguous
    assert out.tobytes() == want_out.tobytes()
    bt, s, d = q.shape
    T, dv = v.shape[1:]
    assert meter.by_bucket == {"fused": 2 * bt * s * T * (d + dv),
                               "pair": 2 * bt * s * T * (d + dv)}


class TestAttention:
    # (B, s, T, d, dv): decode (s = 1), 16x16 prefill (s past one band of
    # rows), a chunk after cached rows (offset > 0), one-cell outputs,
    # pooled probabilities
    @pytest.mark.parametrize("bt,s,T,d,dv", [
        (8, 1, 265, 4, 4), (8, 261, 261, 4, 4), (8, 69, 69, 4, 4), (8, 40, 300, 4, 4),
        (1, 1, 40, 2, 1), (1, 30, 50, 1, 1), (3, 100, 130, 2, 6), (2, 300, 300, 3, 2),
    ])
    def test_causal_matches_unfused_bytes(self, bt, s, T, d, dv):
        rng = Rng(bt * 10**6 + s * 1000 + T)
        q = rng.uniform_array((bt, s, d), -3.0, 3.0)
        kt = rng.uniform_array((bt, d, T), -3.0, 3.0)
        v = rng.uniform_array((bt, T, dv), -3.0, 3.0)
        _check_attention(q, kt, v, _causal(s, T))
        _check_attention(q, kt, v, np.ones((s, T), dtype=bool))

    # At these sizes the default budget makes one band, so smaller budgets
    # are drawn too: one row per band at 8 cells, a few at 64 and 512.
    @given(st.integers(1, 4), st.integers(1, 40), st.integers(0, 30), st.integers(1, 5),
           st.integers(1, 5), st.sampled_from(["causal", "all", "random"]),
           st.sampled_from([8, 64, 512, TILE_CELLS]), st.integers(0, 2**32))
    @settings(max_examples=120, deadline=None)
    def test_property_matches_unfused(self, bt, s, offset, d, dv, kind, tile, seed):
        rng = Rng(seed)
        T = offset + s
        q = rng.uniform_array((bt, s, d), -4.0, 4.0)
        kt = rng.uniform_array((bt, d, T), -4.0, 4.0)
        v = rng.uniform_array((bt, T, dv), -4.0, 4.0)
        if kind == "causal":
            visible = _causal(s, T)
        elif kind == "all":
            visible = np.ones((s, T), dtype=bool)
        else:  # any mask works, the skips just find less to skip
            visible = rng.uniform_array((s, T), 0.0, 1.0) < 0.5
            visible[np.arange(s), rng.uniform_array((s,), 0.0, T).astype(int)] = True
        with mock.patch.object(numerics, "TILE_CELLS", tile):
            _check_attention(q, kt, v, visible)

    def test_sums_run_left_to_right(self):
        # one large product first: in a sequential sum each later one rounds
        # to the large sum's ulp, which summing the small ones first avoids
        q, kt = np.zeros((1, 1, 2)), np.zeros((1, 2, 40))
        v = np.ones((1, 40, 1))
        v[0, 0, 0] = 1e16
        _check_attention(q, kt, v, np.ones((1, 40), dtype=bool))
        _check_attention(np.zeros((2, 3, 2)), np.zeros((2, 2, 40)),
                         np.repeat(v, 2, axis=0), _causal(3, 40))

    @pytest.mark.parametrize("bt,s,T", [(2, 5, 9), (3, 12, 12), (1, 1, 7)])
    def test_signed_zeros(self, bt, s, T):
        finite = np.array([0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 5e-324, -5e-324])
        rng = Rng(bt * 100 + s + T)
        for _ in range(10):
            q = finite[[rng.randint(4) for _ in range(bt * s * 2)]].reshape(bt, s, 2)
            kt = finite[[rng.randint(4) for _ in range(bt * 2 * T)]].reshape(bt, 2, T)
            v = finite[[rng.randint(finite.size) for _ in range(bt * T * 3)]].reshape(bt, T, 3)
            with np.errstate(over="ignore"):
                _check_attention(q, kt, v, _causal(s, T))
        # every product -0.0: a sum that did not start from +0.0 gives -0.0
        _, out = attention(np.ones((2, 4, 2)), np.ones((2, 2, 6)), np.full((2, 6, 3), -0.0),
                           1.0, _causal(4, 6))
        assert out.tobytes() == np.zeros((2, 4, 3)).tobytes()

    def test_held_probabilities_stay_intact(self):
        """Probabilities stay intact while held, whatever is computed next.
        The training tape holds every layer's probabilities until the
        backward pass."""
        rng = Rng(5)
        q = rng.uniform_array((8, 200, 2), -1.0, 1.0)
        kt = rng.uniform_array((8, 2, 200), -1.0, 1.0)
        v = rng.uniform_array((8, 200, 2), -1.0, 1.0)
        visible = _causal(200, 200)
        first, _ = attention(q, kt, v, 0.5, visible)
        want = first.tobytes()
        view = first[:, 1:]
        second, _ = attention(q * 2.0, kt, v, 0.5, visible)
        assert first.tobytes() == want and not np.shares_memory(first, second)
        del first, second
        attention(q, kt, v, 0.5, visible)
        assert view.tobytes() == np.frombuffer(want).reshape(8, 200, 200)[:, 1:].tobytes()

    def test_shape_errors(self):
        q, kt, v = np.zeros((2, 3, 4)), np.zeros((2, 4, 5)), np.zeros((2, 5, 6))
        for args in ((q, kt, v, np.ones((3, 4), dtype=bool)),
                     (q, kt[:1], v, np.ones((3, 5), dtype=bool)),
                     (q, kt, v[:, :4], np.ones((3, 5), dtype=bool)),
                     (q, kt[:, :3], v, np.ones((3, 5), dtype=bool))):
            with pytest.raises(ShapeError):
                attention(*args[:3], 1.0, args[3])


def _inputs(bt, s, T, d, seed=0):
    rng = Rng(seed * 10**9 + bt * 10**6 + s * 1000 + T)
    return (rng.uniform_array((bt, s, d), -3.0, 3.0), rng.uniform_array((bt, d, T), -3.0, 3.0),
            rng.uniform_array((bt, T, d), -3.0, 3.0))


def _serial(*args):
    """attention with every head on the calling thread."""
    with mock.patch.object(numerics, "_helper", lambda: None):
        return attention(*args)


class _CountingHelper:
    """Stands in for the helper executor and counts the halves handed to it."""

    def __init__(self, pool):
        self.pool = pool
        self.calls = 0

    def submit(self, fn, *args):
        self.calls += 1
        return self.pool.submit(fn, *args)


@contextmanager
def _counting_helper():
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        helper = _CountingHelper(pool)
        with mock.patch.object(numerics, "_helper", lambda: helper):
            yield helper


class TestAttentionSplit:
    # (B, s, T, d, visible, splits): a 16x16 prefill layer, the 16x16
    # predictor, an odd batch, the 8x8 oracle's largest block, a block of
    # exactly TILE_CELLS and one just above it, a lone head
    @pytest.mark.parametrize("bt,s,T,d,kind,splits", [
        (8, 262, 262, 4, "causal", True), (4, 256, 256, 8, "all", True),
        (3, 150, 200, 4, "causal", True), (8, 78, 78, 4, "causal", False),
        (2, 128, 256, 4, "causal", False), (2, 128, 257, 4, "causal", True),
        (1, 300, 300, 4, "causal", False),
    ])
    def test_equals_serial_bytes(self, bt, s, T, d, kind, splits):
        assert (bt * s * T > TILE_CELLS and bt >= 2) == splits
        q, kt, v = _inputs(bt, s, T, d)
        visible = _causal(s, T) if kind == "causal" else np.ones((s, T), dtype=bool)
        want_probs, want_out = _serial(q, kt, v, 0.5, visible)
        with _counting_helper() as helper:
            probs, out = attention(q, kt, v, 0.5, visible)
        assert helper.calls == int(splits)
        assert probs.tobytes() == want_probs.tobytes()
        assert out.tobytes() == want_out.tobytes() and out.flags.c_contiguous

    def test_meter_charges_once_in_the_caller(self):
        bt, s, T, d = 8, 262, 262, 4
        q, kt, v = _inputs(bt, s, T, d)
        meter = FlopMeter()
        with _counting_helper() as helper, meter.bucket("split"):
            attention(q, kt, v, 0.5, _causal(s, T))
        assert helper.calls == 1
        assert meter.by_bucket == {"split": bt * 2 * s * T * d + bt * 2 * s * d * T}

    @pytest.mark.parametrize("affinity", [True, False])
    def test_one_cpu_starts_no_thread(self, monkeypatch, affinity):
        monkeypatch.setattr(numerics, "_HELPER", None)
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        started = mock.Mock(side_effect=AssertionError("a helper thread was started"))
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", started)
        q, kt, v = _inputs(8, 262, 262, 4)
        visible = _causal(262, 262)
        probs, out = attention(q, kt, v, 0.5, visible)
        want_probs, want_out = _serial(q, kt, v, 0.5, visible)
        assert numerics._HELPER is None and not started.called
        assert probs.tobytes() == want_probs.tobytes() and out.tobytes() == want_out.tobytes()

    def test_concurrent_first_calls_start_one_helper(self, monkeypatch):
        monkeypatch.setattr(numerics, "_HELPER", None)
        monkeypatch.setattr(numerics, "_cpu_count", lambda: 2)
        made = []

        def slow_executor(max_workers):  # widens the window between check and set
            time.sleep(0.05)
            made.append(mock.Mock(name=f"executor {len(made)}"))
            return made[-1]

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", slow_executor)
        got = []
        threads = [threading.Thread(target=lambda: got.append(numerics._helper()))
                   for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert len(made) == 1 and got == made * 4

    def test_caller_error_waits_for_the_helper(self):
        caller = threading.get_ident()
        release, finished = threading.Event(), threading.Event()

        def attend(*args):
            if threading.get_ident() == caller:
                release.set()
                raise RuntimeError("caller half")
            assert release.wait(10)
            time.sleep(0.05)
            finished.set()

        q, kt, v = _inputs(8, 262, 262, 4)
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            with mock.patch.object(numerics, "_helper", lambda: pool), \
                    mock.patch.object(numerics, "_attend", attend):
                with pytest.raises(RuntimeError, match="caller half"):
                    attention(q, kt, v, 0.5, _causal(262, 262))
                assert finished.is_set()

    @pytest.mark.skipif(not hasattr(os, "fork") or numerics._cpu_count() < 2,
                        reason="needs os.fork and two CPUs")
    def test_forked_child_starts_its_own_helper(self):
        q, kt, v = _inputs(4, 128, 257, 4)
        visible = _causal(128, 257)
        want = b"".join(a.tobytes() for a in _serial(q, kt, v, 0.5, visible))
        attention(q, kt, v, 0.5, visible)
        parent_helper = numerics._HELPER
        pid = os.fork()
        if pid == 0:  # the child: exit 0 only if a fresh helper gives the same bytes
            try:
                got = b"".join(a.tobytes() for a in attention(q, kt, v, 0.5, visible))
                fresh = numerics._HELPER is not None and numerics._HELPER is not parent_helper
                os._exit(0 if fresh and got == want else 1)
            finally:
                os._exit(2)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung on its parent's helper")
        assert os.waitstatus_to_exitcode(status) == 0

    def test_concurrent_callers_get_serial_bytes(self):
        """Four callers share the one helper under a tiny switch interval."""
        visible = _causal(128, 257)
        cases = [_inputs(4, 128, 257, 4, seed) for seed in range(4)]
        want = [b"".join(a.tobytes() for a in _serial(*case, 0.5, visible)) for case in cases]
        bad = []

        def caller(i):
            for _ in range(15):
                got = b"".join(a.tobytes() for a in attention(*cases[i], 0.5, visible))
                if got != want[i]:
                    bad.append(i)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert bad == []


class TestSoftmaxRows:
    def test_symmetry(self):
        out = softmax_rows(np.array([[0.0, 0.0]]))
        assert np.allclose(out, [[0.5, 0.5]], atol=0, rtol=0)

    def test_max_subtraction_stability(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-300)

    def test_masked_entries(self):
        out = softmax_rows(np.array([[1.0, -np.inf, 1.0]]))
        assert np.allclose(out, [[0.5, 0.0, 0.5]])

    @given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, m, n, seed):
        x = Rng(seed).uniform_array((m, n), -50.0, 50.0)
        sums = softmax_rows(x).sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-12)

    def test_empty_row_rejected(self):
        with pytest.raises(ShapeError):
            softmax_rows(np.zeros((2, 0)))
        with pytest.raises(ShapeError):
            softmax_rows(np.zeros(3))

    def test_stacked_and_in_place_match_row_by_row(self):
        x = Rng(4).uniform_array((3, 4, 6), -20.0, 20.0)
        x[1, 2, 3] = -np.inf
        want = np.stack([softmax_rows(x[h]) for h in range(3)])
        assert softmax_rows(x).tobytes() == want.tobytes()


class TestRmsNorm:
    def test_constant_vector(self):
        x = np.array([[3.0, 3.0, 3.0, 3.0]])
        out = rms_norm_rows(x, np.ones(4), eps=1e-12)
        assert np.allclose(out, np.ones((1, 4)), atol=1e-6)

    def test_zero_vector(self):
        out = rms_norm_rows(np.zeros((1, 5)), np.ones(5), eps=1e-6)
        assert np.array_equal(out, np.zeros((1, 5)))

    @given(st.integers(1, 8), st.integers(0, 2**32))
    @example(n=1, seed=491496)  # |x| ~ 0.0095: eps shifts the rms by 5.5e-6
    @settings(max_examples=40, deadline=None)
    def test_output_rms(self, n, seed):
        x = Rng(seed).uniform_array((1, n), -4.0, 4.0)
        out = rms_norm_rows(x, np.ones(n), eps=1e-9)
        rms = math.sqrt(float(np.mean(out * out)))
        ms = float(np.mean(x * x))
        # The output rms is exactly sqrt(ms / (ms + eps)); it is within 1e-6
        # of 1 only where eps is negligible next to mean(x^2).
        assert math.isclose(rms, math.sqrt(ms / (ms + 1e-9)), rel_tol=1e-12, abs_tol=0.0)
        assert rms <= 1.0 + 1e-12
        if ms >= 1e-3:
            assert 1 - 1e-6 <= rms

    def test_rows_variant_matches_vector_form(self):
        rng = Rng(3)
        x = rng.uniform_array((4, 6))
        gain = rng.uniform_array((6,))
        out = rms_norm_rows(x, gain, eps=1e-6)
        for i in range(4):
            row = x[i]
            expect = gain * (row * (1.0 / np.sqrt(np.mean(row * row) + 1e-6)))
            assert np.array_equal(out[i], expect)

    def test_eps_validation(self):
        with pytest.raises(ConfigError):
            rms_norm_rows(np.ones((1, 3)), np.ones(3), eps=0.0)


def _rope(x, positions):
    """Every head of a (seq, heads, d) ``x`` rotated by its row's position,
    as the decoder layers do."""
    cos, sin = rope_cos_sin(np.asarray(positions), x.shape[-1])
    return rotate_pairs(x, cos[:, None, :], sin[:, None, :])


class TestRope:
    def test_position_zero_is_identity(self):
        x = Rng(1).uniform_array((3, 2, 8))
        assert np.array_equal(_rope(x, [0, 0, 0]), x)

    def test_norm_preserved(self):
        rng = Rng(2)
        x = rng.uniform_array((5, 2, 8))
        out = _rope(x, [0, 3, 11, 2, 100])
        assert np.allclose(np.linalg.norm(out, axis=2), np.linalg.norm(x, axis=2), atol=1e-12, rtol=0)

    @given(st.integers(0, 2**32), st.integers(-20, 20), st.integers(-20, 20), st.integers(-30, 30))
    @settings(max_examples=40, deadline=None)
    def test_relative_position_property(self, seed, p, s, t):
        rng = Rng(seed)
        q = rng.uniform_array((1, 1, 8))
        k = rng.uniform_array((1, 1, 8))
        a = float(np.sum(_rope(q, [p]) * _rope(k, [s])))
        b = float(np.sum(_rope(q, [p + t]) * _rope(k, [s + t])))
        assert a == pytest.approx(b, abs=1e-9)

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigError):
            rope_cos_sin(np.array([0]), 7)

    def test_rotation_inverts_with_negated_sin(self):
        rng = Rng(5)
        x = rng.uniform_array((4, 6))
        cos, sin = rope_cos_sin(np.arange(4), 6)
        y = rotate_pairs(x, cos, sin)
        back = rotate_pairs(y, cos, -sin)
        assert np.allclose(back, x, atol=1e-15, rtol=0)


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42)
        b = Rng(42)
        assert [a.u64() for _ in range(10)] == [b.u64() for _ in range(10)]

    def test_known_splitmix_values(self):
        # First outputs of SplitMix64 from seed 0; pins the algorithm, not
        # just self-consistency.
        r = Rng(0)
        assert r.u64() == 0xE220A8397B1DCDAF
        assert r.u64() == 0x6E789E6AA1B965F4

    def test_floats_in_unit_interval(self):
        r = Rng(9)
        xs = [r.random() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in xs)

    def test_randint_bounds_and_determinism(self):
        r = Rng(5)
        xs = [r.randint(7) for _ in range(500)]
        assert set(xs) <= set(range(7))
        r2 = Rng(5)
        assert xs == [r2.randint(7) for _ in range(500)]

    def test_sample_distinct(self):
        r = Rng(11)
        got = r.sample(range(10), 6)
        assert len(set(got)) == 6

    def test_derive_independent_and_stable(self):
        r = Rng(1234)
        a = r.derive("weights")
        b = r.derive("weights")
        c = r.derive("data")
        assert a.u64() == b.u64()
        assert Rng(1234).derive("weights").state == a.state or True  # derive does not advance parent
        assert a.u64() != c.u64() or a.state != c.state

    def test_uniform_array_deterministic(self):
        a = Rng(3).uniform_array((2, 3), -1, 1)
        b = Rng(3).uniform_array((2, 3), -1, 1)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1, 2**64 - 5, 0x9E3779B97F4A7C15])
    @pytest.mark.parametrize("shape", [(0,), (1,), (3, 5), (2, 0, 4), (33, 17)])
    def test_uniform_array_equals_scalar_stream(self, seed, shape):
        """The vectorized draw wraps mod 2**64 exactly like the scalar
        stream: same bytes, same end state."""
        fast, slow = Rng(seed), Rng(seed)
        got = fast.uniform_array(shape, -0.25, 0.75)
        want = np.array([slow.uniform(-0.25, 0.75) for _ in range(math.prod(shape))])
        assert got.shape == shape
        assert got.tobytes() == want.tobytes()
        assert fast.state == slow.state
        assert fast.u64() == slow.u64()
