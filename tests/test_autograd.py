import numpy as np
import pytest

from vtprune import autograd as ag
from vtprune import numerics
from vtprune.errors import ShapeError
from vtprune.numerics import Rng, rope_cos_sin


def fd_check(build, leaves, h=1e-6, rel_tol=1e-6, abs_tol=1e-8):
    """Compare analytic gradients of ``build(leaves) -> scalar Tensor``
    against central finite differences for every scalar in every leaf."""
    out = build(*leaves)
    out.backward()
    analytic = [leaf.grad.copy() for leaf in leaves]
    for li, leaf in enumerate(leaves):
        flat = leaf.data.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = float(build(*leaves).data)
            flat[j] = orig - h
            dn = float(build(*leaves).data)
            flat[j] = orig
            fd = (up - dn) / (2 * h)
            a = analytic[li].reshape(-1)[j]
            assert a == pytest.approx(fd, rel=rel_tol, abs=abs_tol), (
                f"leaf {li} index {j}: analytic {a} vs fd {fd}"
            )


def _probs_chain(q, kt, scale, visible):
    """The attention probabilities as the ops that ``ag.attention`` fuses."""
    return ag.softmax_rows(ag.matmul(q, kt) * scale + np.where(visible, 0.0, -np.inf))


def leaf(rng, shape, lo=-1.5, hi=1.5):
    return ag.Tensor(rng.uniform_array(shape, lo, hi), requires_grad=True)


class TestBasicOps:
    def test_add_mul_broadcast(self):
        rng = Rng(0)
        a, b = leaf(rng, (3, 4)), leaf(rng, (1, 4))
        fd_check(lambda a, b: ag.tsum(ag.mul(ag.add(a, b), a)), [a, b])

    def test_div(self):
        rng = Rng(1)
        a, b = leaf(rng, (2, 3)), leaf(rng, (2, 3), 0.5, 2.0)
        fd_check(lambda a, b: ag.tsum(ag.div(a, b)), [a, b])

    def test_matmul(self):
        rng = Rng(2)
        a, b = leaf(rng, (3, 4)), leaf(rng, (4, 2))
        fd_check(lambda a, b: ag.tsum(ag.matmul(a, b)), [a, b])

    def test_stacked_matmul(self):
        rng = Rng(12)
        a, b = leaf(rng, (2, 3, 4)), leaf(rng, (2, 4, 5))
        fd_check(lambda a, b: ag.tsum(ag.mul(ag.matmul(a, b), ag.matmul(a, b))), [a, b])

    def test_transpose_axes(self):
        rng = Rng(13)
        a = leaf(rng, (2, 3, 4))
        weights = rng.uniform_array((4, 2, 3))
        fd_check(lambda a: ag.tsum(ag.mul(ag.transpose(a, (2, 0, 1)), weights)), [a])
        b = leaf(rng, (2, 3, 4))  # fd_check accumulates into the leaf's grad
        fd_check(lambda b: ag.tsum(ag.mul(ag.transpose(b), weights.transpose(1, 0, 2))), [b])

    def test_transpose_reshape(self):
        rng = Rng(3)
        a = leaf(rng, (2, 6))
        fd_check(lambda a: ag.tsum(ag.mul(ag.reshape(ag.transpose(a), (3, 4)), 2.0)), [a])

    def test_slice_and_cat(self):
        rng = Rng(4)
        a = leaf(rng, (5, 3))

        def build(a):
            top = a[0:2]
            bottom = a[2:5]
            return ag.tsum(ag.mul(ag.cat([bottom, top], axis=0), ag.cat([bottom, top], axis=0)))

        fd_check(build, [a])

    def test_sum_keepdims(self):
        rng = Rng(6)
        a = leaf(rng, (3, 3))
        fd_check(lambda a: ag.tsum(ag.mul(a, ag.tsum(a, axis=1, keepdims=True))), [a])


class TestNonlinearities:
    def test_sigmoid(self):
        rng = Rng(7)
        a = leaf(rng, (2, 5), -4, 4)
        fd_check(lambda a: ag.tsum(ag.sigmoid(a)), [a])

    def test_silu(self):
        rng = Rng(8)
        a = leaf(rng, (2, 5), -4, 4)
        fd_check(lambda a: ag.tsum(ag.silu(a)), [a])

    def test_silu_and_bce_stay_finite_far_below_zero(self):
        # exp(-x) overflows below -709; numerics.sigmoid never forms it
        x = ag.Tensor(np.array([-800.0, -1e300, 0.5]), requires_grad=True)
        with np.errstate(over="raise"):
            ag.tsum(ag.silu(x)).backward()
            loss = ag.bce_with_logits(x, np.array([0.0, 1.0, 1.0]))
            x.grad = None
            loss.backward()
        assert np.isfinite(x.grad).all() and x.grad[1] == -1.0 / 3

    def test_softmax_rows(self):
        rng = Rng(9)
        a = leaf(rng, (3, 5), -3, 3)
        w = Rng(99).uniform_array((3, 5))
        fd_check(lambda a: ag.tsum(ag.mul(ag.softmax_rows(a), w)), [a])

    def test_softmax_with_masked_columns(self):
        rng = Rng(10)
        a = leaf(rng, (3, 4), -2, 2)
        mask = np.zeros((3, 4))
        mask[0, 3] = -np.inf
        mask[1, 2:] = -np.inf
        w = Rng(100).uniform_array((3, 4))
        fd_check(lambda a: ag.tsum(ag.mul(ag.softmax_rows(ag.add(a, mask)), w)), [a])

    def test_attention_probs(self):
        rng = Rng(14)
        q, kt = leaf(rng, (2, 3, 4)), leaf(rng, (2, 4, 5))
        visible = np.arange(5)[None, :] <= np.arange(3)[:, None] + 1
        v = rng.uniform_array((2, 5, 3))
        weights = rng.uniform_array((2, 3, 5))
        fd_check(lambda q, kt: ag.tsum(ag.mul(ag.attention(q, kt, v, 0.5, visible)[0],
                                              weights)), [q, kt])

    def test_attention_probs_matches_op_chain_bitwise(self):
        """The fused op's probabilities are the four-op chain, forward and
        backward."""
        rng = Rng(15)
        q0, kt0 = rng.uniform_array((3, 6, 4)), rng.uniform_array((3, 4, 6))
        visible = np.arange(6)[None, :] <= np.arange(6)[:, None]
        weights = rng.uniform_array((3, 6, 6))
        fused = [ag.Tensor(x.copy(), requires_grad=True) for x in (q0, kt0)]
        chain = [ag.Tensor(x.copy(), requires_grad=True) for x in (q0, kt0)]
        p_fused, _ = ag.attention(fused[0], fused[1], np.ones((3, 6, 2)), 0.3, visible)
        p_chain = _probs_chain(chain[0], chain[1], 0.3, visible)
        assert p_fused.data.tobytes() == p_chain.data.tobytes()
        ag.tsum(ag.mul(p_fused, weights)).backward()
        ag.tsum(ag.mul(p_chain, weights)).backward()
        for f, c in zip(fused, chain):
            assert f.grad.tobytes() == c.grad.tobytes()

    def test_attention(self):
        rng = Rng(16)
        q, kt, v = leaf(rng, (2, 3, 4)), leaf(rng, (2, 4, 5)), leaf(rng, (2, 5, 3))
        visible = np.arange(5)[None, :] <= np.arange(3)[:, None] + 1
        wp, wo = rng.uniform_array((2, 3, 5)), rng.uniform_array((2, 3, 3))

        def build(q, kt, v):
            probs, out = ag.attention(q, kt, v, 0.5, visible)
            return ag.add(ag.tsum(ag.mul(probs, wp)), ag.tsum(ag.mul(out, wo)))

        fd_check(build, [q, kt, v])

    @pytest.mark.parametrize("tile", [64, numerics.TILE_CELLS])
    @pytest.mark.parametrize("mask", ["causal", "random", "prefix", "none"])
    def test_attention_matches_op_chain_bitwise(self, mask, tile, monkeypatch):
        """The fused op is the four-op chain then matmul, forward and
        backward, also under an all-True mask; "prefix" is a prefix pass's
        mask, its trailing columns unseen. A 64-cell tile splits the rows
        into bands."""
        monkeypatch.setattr(numerics, "TILE_CELLS", tile)
        rng = Rng(18)
        s, T = (9, 21) if mask == "prefix" else (21, 21)
        q0, kt0, v0 = (rng.uniform_array(shape) for shape in ((3, s, 4), (3, 4, T), (3, T, 4)))
        if mask == "random":
            visible = np.random.default_rng(0).random((s, T)) < 0.4
            visible[np.arange(s), np.arange(s)] = True
        elif mask == "none":  # the importance predictor's
            visible = np.ones((s, T), dtype=bool)
        else:
            visible = np.arange(T)[None, :] <= np.arange(s)[:, None]
        wp, wo = rng.uniform_array((3, s, T)), rng.uniform_array((3, s, 4))
        fused = [ag.Tensor(x.copy(), requires_grad=True) for x in (q0, kt0, v0)]
        pair = [ag.Tensor(x.copy(), requires_grad=True) for x in (q0, kt0, v0)]
        p_fused, o_fused = ag.attention(*fused[:2], fused[2], 0.3, visible)
        p_pair = _probs_chain(pair[0], pair[1], 0.3, visible)
        o_pair = ag.matmul(p_pair, pair[2])
        assert p_fused.data.tobytes() == p_pair.data.tobytes()
        assert o_fused.data.tobytes() == o_pair.data.tobytes()
        for probs, out in ((p_fused, o_fused), (p_pair, o_pair)):
            ag.add(ag.tsum(ag.mul(probs, wp)), ag.tsum(ag.mul(out, wo))).backward()
        for f, c in zip(fused, pair):
            assert f.grad.tobytes() == c.grad.tobytes()

    @pytest.mark.parametrize("rows", [slice(0, 0), slice(2, 3), slice(9, 21), slice(0, 21)])
    @pytest.mark.parametrize("taped", [True, False])
    def test_attention_rows_are_the_full_blocks_rows(self, rows, taped, monkeypatch):
        """A row range returns those rows of the whole block, and on the
        tape the same gradients as slicing the whole block. A 64-cell tile
        puts 1 row in a band, so 9..21 spans 12 bands."""
        monkeypatch.setattr(numerics, "TILE_CELLS", 64)
        rng = Rng(19)
        x0 = [rng.uniform_array(shape) for shape in ((3, 21, 4), (3, 4, 21), (3, 21, 4))]
        visible = np.arange(21)[None, :] <= np.arange(21)[:, None]
        n = rows.stop - rows.start
        wp, wo = rng.uniform_array((3, n, 21)), rng.uniform_array((3, 21, 4))
        part = [ag.Tensor(x.copy(), requires_grad=taped) for x in x0]
        full = [ag.Tensor(x.copy(), requires_grad=taped) for x in x0]
        p_part, o_part = ag.attention(*part, 0.3, visible, keep=rows)
        p_full, o_full = ag.attention(*full, 0.3, visible)
        p_full = p_full[:, rows]
        assert p_part.shape == (3, n, 21) and p_part.requires_grad == taped
        assert p_part.data.tobytes() == p_full.data.tobytes()
        assert o_part.data.tobytes() == o_full.data.tobytes()
        if taped:
            for probs, out in ((p_part, o_part), (p_full, o_full)):
                ag.add(ag.tsum(ag.mul(probs, wp)), ag.tsum(ag.mul(out, wo))).backward()
            for a, b in zip(part, full):
                assert a.grad.tobytes() == b.grad.tobytes()

    def test_rms_norm_rows(self):
        rng = Rng(11)
        a = leaf(rng, (4, 6))
        g = leaf(rng, (6,))
        fd_check(lambda a, g: ag.tsum(ag.mul(ag.rms_norm_rows(a, g, 1e-6), 0.7)), [a, g], rel_tol=1e-5)

    def test_rotate_pairs(self):
        rng = Rng(12)
        a = leaf(rng, (4, 8))
        cos, sin = rope_cos_sin(np.array([0, 2, 5, 9]), 8)
        w = Rng(101).uniform_array((4, 8))
        fd_check(lambda a: ag.tsum(ag.mul(ag.rotate_pairs(a, cos, sin), w)), [a])


class TestLosses:
    def test_bce_with_logits(self):
        rng = Rng(13)
        a = leaf(rng, (10,), -3, 3)
        target = (Rng(55).uniform_array((10,)) > 0).astype(np.float64)
        fd_check(lambda a: ag.bce_with_logits(a, target), [a])

    def test_bce_matches_direct_formula(self):
        rng = Rng(14)
        logits = rng.uniform_array((20,), -4, 4)
        target = (Rng(56).uniform_array((20,)) > 0).astype(np.float64)
        p = 1.0 / (1.0 + np.exp(-logits))
        direct = float(np.mean(-(target * np.log(p) + (1 - target) * np.log(1 - p))))
        got = ag.bce_with_logits(ag.Tensor(logits), target).item()
        assert got == pytest.approx(direct, abs=1e-12)

    def test_cross_entropy_rows(self):
        rng = Rng(15)
        a = leaf(rng, (4, 6), -2, 2)
        targets = [0, 3, 5, 2]
        fd_check(lambda a: ag.cross_entropy_rows(a, targets), [a])

    def test_cross_entropy_matches_log_softmax(self):
        rng = Rng(16)
        x = rng.uniform_array((3, 7), -5, 5)
        targets = [1, 0, 6]
        expected = 0.0
        for i, t in enumerate(targets):
            row = x[i]
            expected += -(row[t] - np.log(np.sum(np.exp(row))))
        expected /= 3
        got = ag.cross_entropy_rows(ag.Tensor(x), targets).item()
        assert got == pytest.approx(expected, abs=1e-12)

    def test_cross_entropy_shape_error(self):
        with pytest.raises(ShapeError):
            ag.cross_entropy_rows(ag.Tensor(np.zeros((2, 3))), [0, 1, 2])


class TestGraphMechanics:
    def test_constants_build_no_graph(self):
        a = ag.Tensor(np.ones((2, 2)))
        b = ag.Tensor(np.ones((2, 2)))
        out = ag.matmul(a, b)
        assert not out.requires_grad and out._backprop is None

    def test_backward_requires_scalar(self):
        a = ag.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            ag.mul(a, 2.0).backward()

    def test_grad_accumulates_on_reuse(self):
        a = ag.Tensor(np.array([2.0]), requires_grad=True)
        out = ag.tsum(ag.add(ag.mul(a, a), a))  # a^2 + a
        out.backward()
        assert a.grad[0] == pytest.approx(2 * 2.0 + 1.0)

    def test_deep_chain_backward(self):
        # iterative topo sort must handle graphs deeper than the default
        # recursion limit would allow
        a = ag.Tensor(np.array([1.0]), requires_grad=True)
        x = a
        for _ in range(3000):
            x = ag.add(x, 0.0)
        ag.tsum(x).backward()
        assert a.grad[0] == 1.0

    def test_forward_matches_numpy_bitwise(self):
        rng = Rng(17)
        x = rng.uniform_array((4, 4))
        y = rng.uniform_array((4, 4))
        got = ag.matmul(ag.Tensor(x, requires_grad=True), ag.Tensor(y)).data
        assert np.array_equal(got, numerics.matmul(x, y))
