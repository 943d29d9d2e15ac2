import itertools

import numpy as np
import pytest

import bundlecraft.numerics as nm
from bundlecraft import kernels
from bundlecraft.bundle_encoder import BundleEncoderParams, encode_bundle
from bundlecraft.errors import DegenerateVectorError, GraphError, NonFiniteError, ShapeError

from conftest import numeric_grad, rel_err
from graph_ops import mul, select_rows, sum_all, vconcat
from test_kernels import softmax_rows_grad_oracle, softmax_rows_oracle

F64 = np.float64


def scalar_of(node):
    return node.item()


class TestMatmul:
    """The graph's one product, ``a @ b^T`` (matmul_nt)."""

    def test_identity(self, rng):
        m = rng.normal(size=(2, 2))
        out = nm.matmul_nt(nm.constant(np.eye(2), F64), nm.constant(m, F64))
        np.testing.assert_array_equal(out.value, m.T)
        out = nm.matmul_nt(nm.constant(m, F64), nm.constant(np.eye(2), F64))
        np.testing.assert_array_equal(out.value, m)

    def test_hand_arithmetic(self):
        out = nm.matmul_nt(nm.constant([[1.0, 2.0]], F64), nm.constant([[3.0, 4.0]], F64))
        assert out.value.tolist() == [[11.0]]

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 4\)"):
            nm.matmul_nt(nm.constant(np.zeros((2, 3)), F64), nm.constant(np.zeros((2, 4)), F64))

    def test_gradient_matches_finite_differences(self, rng):
        a = nm.parameter(rng.normal(size=(3, 4)), F64)
        b = nm.parameter(rng.normal(size=(2, 4)), F64)

        loss = sum_all(nm.matmul_nt(a, b))
        nm.backward(loss)

        def f():
            return sum_all(nm.matmul_nt(nm.constant(a.value, F64), nm.constant(b.value, F64))).item()

        for p in (a, b):
            num = numeric_grad(f, p.value, h=1e-5)
            assert rel_err(p.adjoint, num) < 1e-6


class TestSoftmaxRows:
    """The row softmax kernel set attention runs, and its backward."""

    def test_uniform_on_constant_row(self):
        out = kernels.softmax_rows(np.zeros((1, 3)))
        np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_analytic_two_logits(self):
        out = kernels.softmax_rows(np.array([[np.log(2.0), 0.0]]))
        np.testing.assert_allclose(out, [[2 / 3, 1 / 3]], atol=1e-15)

    def test_rows_sum_to_one_extreme_inputs(self, rng):
        x = rng.uniform(-50, 50, size=(40, 7))
        out = kernels.softmax_rows(x)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_jvp_matches_finite_differences(self, rng):
        x = rng.normal(size=(3, 5))
        w = rng.normal(size=(3, 5))
        got = kernels.softmax_rows_grad(kernels.softmax_rows(x), w)
        num = numeric_grad(lambda: float((kernels.softmax_rows(x) * w).sum()), x, h=1e-6)
        assert rel_err(got, num) < 1e-6


def set_means(h, groups=1, mask=None, layers=()):
    """The bundle encoder's node over ``groups`` member-major sets of ``h``,
    with the given (w_k, w_q) attention layers; the set means with none."""
    return encode_bundle(h, BundleEncoderParams(layers=list(layers)), True, groups, mask)


class TestMeanRows:
    """The row mean is the bundle encoder with no layer over a single set."""

    def test_single_row_unchanged(self, rng):
        row = rng.normal(size=(1, 6))
        out = set_means(nm.constant(row, F64))
        np.testing.assert_array_equal(out.value, row)

    def test_hand_arithmetic(self):
        out = set_means(nm.constant([[1.0, 3.0], [3.0, 1.0]], F64))
        assert out.value.tolist() == [[2.0, 2.0]]

    def test_zero_rows_error(self):
        with pytest.raises(ShapeError):
            set_means(nm.constant(np.zeros((0, 3)), F64))

    def test_backward_distributes_evenly(self, rng):
        x = nm.parameter(rng.normal(size=(4, 3)), F64)
        w = rng.normal(size=(1, 3))
        loss = sum_all(mul(set_means(x), nm.constant(w, F64)))
        nm.backward(loss)

        def f():
            m = set_means(nm.constant(x.value, F64))
            return sum_all(mul(m, nm.constant(w, F64))).item()

        num = numeric_grad(f, x.value)
        assert rel_err(x.adjoint, num) < 1e-6
        # every row receives g / rows
        np.testing.assert_allclose(x.adjoint, np.tile(w / 4, (4, 1)))


def cosine(a, b):
    """Cosine similarity of two row vectors as info_nce forms it."""
    return nm.matmul_nt(nm.normalize_rows(a), nm.normalize_rows(b))


class TestCosine:
    def test_self_similarity_is_one(self, rng):
        v = rng.normal(size=(1, 8))
        out = cosine(nm.constant(v, F64), nm.constant(v, F64))
        assert abs(out.item() - 1.0) < 1e-12

    def test_orthogonal(self):
        out = cosine(nm.constant([[1.0, 0.0]], F64), nm.constant([[0.0, 1.0]], F64))
        assert abs(out.item()) < 1e-15

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateVectorError):
            cosine(nm.constant([[0.0, 0.0]], F64), nm.constant([[1.0, 0.0]], F64))

    def test_range(self, rng):
        for _ in range(50):
            a = rng.normal(size=(1, 5))
            b = rng.normal(size=(1, 5))
            val = cosine(nm.constant(a, F64), nm.constant(b, F64)).item()
            assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        a = nm.parameter(rng.normal(size=(1, 6)), F64)
        b_val = rng.normal(size=(1, 6))
        loss = cosine(a, nm.constant(b_val, F64))
        nm.backward(loss)

        def f():
            return cosine(nm.constant(a.value, F64), nm.constant(b_val, F64)).item()

        num = numeric_grad(f, a.value)
        assert rel_err(a.adjoint, num) < 1e-6


class TestBackwardContract:
    def test_sum_gives_ones(self, rng):
        w = nm.parameter(rng.normal(size=(3, 4)), F64)
        loss = sum_all(w)
        nm.backward(loss)
        np.testing.assert_array_equal(w.adjoint, np.ones((3, 4)))

    def test_null_loss_gives_zeros(self, rng):
        w = nm.parameter(rng.normal(size=(3, 4)), F64)
        loss = nm.smul(sum_all(w), 0.0)
        nm.backward(loss)
        np.testing.assert_array_equal(w.adjoint, np.zeros((3, 4)))

    def test_non_scalar_root_rejected(self, rng):
        w = nm.parameter(rng.normal(size=(3, 4)), F64)
        with pytest.raises(GraphError):
            nm.backward(nm.smul(w, 2.0))

    def test_repeated_backward_rejected(self, rng):
        w = nm.parameter(rng.normal(size=(2, 2)), F64)
        loss = sum_all(w)
        nm.backward(loss)
        with pytest.raises(GraphError):
            nm.backward(loss)

    def test_fanout_adjoints_sum(self, rng):
        w = nm.parameter(rng.normal(size=(2, 2)), F64)
        loss = sum_all(nm.add(w, w))
        nm.backward(loss)
        np.testing.assert_array_equal(w.adjoint, 2 * np.ones((2, 2)))


class TestHardErrors:
    def test_nan_input_rejected(self):
        with pytest.raises(NonFiniteError):
            nm.constant([[np.nan]], F64)

    def test_overflow_is_hard_error(self):
        big = nm.constant(np.full((1, 1), 1e308), F64)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            mul(big, big)

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(ShapeError):
            nm.add(nm.constant([[1.0]], np.float32), nm.constant([[1.0]], np.float64))

    @pytest.mark.parametrize("idx", [[-1], [0, -5], [5], [2, 99], [[0]]])
    def test_take_rows_bad_index_rejected(self, idx):
        with pytest.raises(ShapeError):
            nm.take_rows(nm.constant(np.zeros((5, 2)), F64), idx)


def test_graph_evaluation_deterministic(rng):
    x = rng.normal(size=(5, 4))
    w = rng.normal(size=(4, 4))

    def build():
        a = nm.constant(x, F64)
        b = nm.constant(w, F64)
        out = set_means(nm.matmul_nt(a, b), layers=[(b, b)])
        return out.value.tobytes() + nm.log_softmax_pick(out, [0, 0], [1, 3], 0.5).value.tobytes()

    assert build() == build()


# every differentiable op, analytic vs central finite differences, 64-bit
def _op_cases(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    sq = rng.normal(size=(4, 4))
    sets = rng.normal(size=(6, 4))  # three sets of two members
    mask = np.array([[True, True, True], [True, False, True]])
    g3 = rng.normal(size=(3, 4))
    rows = rng.random(3) < 0.5

    def attn(h, wk, wq, m=None):
        return sum_all(mul(set_means(h, 3, m, [(wk, wq)]), nm.constant(g3, F64)))

    def attn2(h, m=None):
        """Two layers, ``h``'s gradient through both."""
        layers = [(nm.constant(sq, F64), nm.constant(sq.T.copy(), F64)),
                  (nm.constant(sq.T.copy(), F64), nm.constant(sq, F64))]
        return sum_all(mul(set_means(h, 3, m, layers), nm.constant(g3, F64)))

    return [
        ("add", lambda p: sum_all(mul(nm.add(p, nm.constant(b, F64)), nm.constant(b, F64))), a),
        ("mul", lambda p: sum_all(mul(p, nm.constant(b, F64))), a),
        ("smul", lambda p: sum_all(nm.smul(p, 2.7)), a),
        ("sdiv", lambda p: sum_all(nm.sdiv(p, 3.1)), a),
        ("log_softmax_pick", lambda p: nm.log_softmax_pick(p, *np.nonzero(b > 0), -0.3), a),
        ("matmul_nt", lambda p: sum_all(mul(nm.matmul_nt(p, nm.constant(b, F64)),
                                                  nm.constant(sq[:3, :3], F64))), a),
        ("matmul_nt_right", lambda p: sum_all(mul(nm.matmul_nt(nm.constant(b, F64), p),
                                                        nm.constant(sq[:3, :3], F64))), a),
        ("sum_squares", lambda p: nm.sum_squares([p, nm.smul(p, -0.5), nm.constant(b, F64)]), a),
        ("normalize", lambda p: sum_all(mul(nm.normalize_rows(p), nm.constant(b, F64))), a),
        ("vconcat", lambda p: sum_all(mul(vconcat([p, p]), nm.constant(np.vstack([b, b]), F64))), a),
        ("take_rows", lambda p: sum_all(nm.take_rows(p, [0, 2, 2])), a),
        ("select_rows", lambda p: sum_all(mul(
            select_rows(rows, p, nm.smul(p, -2.0)), nm.constant(b, F64))), a),
        ("set_mean", lambda p: sum_all(mul(set_means(p, 3), nm.constant(g3, F64))), sets),
        ("set_mean_masked", lambda p: sum_all(mul(set_means(p, 3, mask), nm.constant(g3, F64))),
         sets),
        ("set_attention_h", lambda p: attn(p, nm.constant(sq, F64), nm.constant(sq.T.copy(), F64)), sets),
        ("set_attention_h_masked", lambda p: attn(
            p, nm.constant(sq, F64), nm.constant(sq.T.copy(), F64), mask), sets),
        ("set_attention_wk", lambda p: attn(nm.constant(sets, F64), p, nm.constant(sq.T.copy(), F64),
                                            mask), sq),
        ("set_attention_wq", lambda p: attn(nm.constant(sets, F64), nm.constant(sq, F64), p, mask), sq),
        ("set_attention_unmasked_wq", lambda p: attn(nm.constant(sets, F64), nm.constant(sq, F64), p), sq),
        ("set_attention_two_layers_h", attn2, sets),
        ("set_attention_two_layers_h_masked", lambda p: attn2(p, mask), sets),
    ]


def test_all_ops_gradcheck_many_draws():
    checked = 0
    for draw in range(6):
        rng = np.random.default_rng(1000 + draw)
        for name, expr, x0 in _op_cases(rng):
            p = nm.parameter(x0.copy(), F64)
            loss = expr(p)
            nm.backward(loss)
            analytic = p.adjoint.copy()

            def f(p=p, expr=expr):
                frozen = nm.constant(p.value, F64)
                frozen.requires_grad = False
                return expr(frozen).item()

            num = numeric_grad(f, p.value)
            assert rel_err(analytic, num) < 1e-4, f"{name} draw {draw}"
            checked += 1
    assert checked >= 100


@pytest.mark.parametrize("dtype", [np.float32, F64])
def test_sum_squares_matches_the_op_composition(rng, dtype):
    """One node against sum_all(mul(p, p)) per node, added in order: the
    same value and gradient bits."""
    shapes = [(30, 8), (8, 8), (1, 5), (8, 8)]
    arrays = [rng.normal(size=s).astype(dtype) for s in shapes]
    results = []
    for fused in (True, False):
        leaves = [nm.parameter(a, dtype) for a in arrays[:3]] + [nm.constant(arrays[3], dtype)]
        if fused:
            total = nm.sum_squares(leaves)
        else:
            total = None
            for p in leaves:
                term = sum_all(mul(p, p))
                total = term if total is None else nm.add(total, term)
        nm.backward(nm.smul(total, 1e-3))
        results.append((total.value.tobytes(), [p.adjoint for p in leaves]))
    assert results[0][0] == results[1][0]
    for got, want in zip(results[0][1], results[1][1]):
        assert (got is None and want is None) or got.tobytes() == want.tobytes()


def padded_batch(rng, sizes, d=4, scatter=False):
    """Sets of the given sizes stored member-major under a mask.

    Members fill the first slots of their column, or random slots when
    ``scatter``; padded rows hold junk that must not matter.
    """
    size, groups = max(sizes), len(sizes)
    members = [rng.normal(size=(n, d)) for n in sizes]
    x = rng.normal(size=(size, groups, d)) * 100.0
    mask = np.zeros((size, groups), dtype=bool)
    for g, rows in enumerate(members):
        slots = np.sort(rng.permutation(size)[: len(rows)]) if scatter else np.arange(len(rows))
        x[slots, g] = rows
        mask[slots, g] = True
    return members, x.reshape(size * groups, d), mask


class TestSetOps:
    SIZES = [3, 1, 5, 2, 5, 4]

    def test_match_per_set_oracle(self, rng):
        from test_item_encoder import brute_force_attention, encode_set_oracle

        wk, wq = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        for scatter in (False, True):
            members, x, mask = padded_batch(rng, self.SIZES, scatter=scatter)
            groups = len(self.SIZES)
            rows = nm.attention_forward(x, wk @ wq.T, x.shape[0] // groups, groups, mask)[0]
            rows = rows.reshape(-1, groups, 4)
            layer = [(nm.constant(wk, F64), nm.constant(wq, F64))]
            means = set_means(nm.constant(x, F64), groups, mask, layer).value
            plain = set_means(nm.constant(x, F64), groups, mask).value
            for g, h in enumerate(members):
                np.testing.assert_allclose(rows[mask[:, g], g], brute_force_attention(h, wk, wq),
                                           atol=1e-10)
                np.testing.assert_allclose(means[g], encode_set_oracle(h, [(wk, wq)]), atol=1e-10)
                np.testing.assert_allclose(plain[g], h.mean(axis=0), atol=1e-10)
            # padded rows come out zero and receive no gradient
            assert not rows[~mask].any()
            h = nm.parameter(x, F64)
            nm.backward(sum_all(set_means(h, groups, mask, layer)))
            assert not h.adjoint.reshape(-1, groups, 4)[~mask].any()

    def test_permutation_invariance_under_padding(self):
        worst = 0.0
        for trial in range(50):
            rng = np.random.default_rng(trial)
            sizes = [int(n) for n in rng.integers(1, 8, size=int(rng.integers(1, 6)))]
            members, x, mask = padded_batch(rng, sizes)
            groups = len(sizes)
            layers = [(nm.constant(rng.normal(size=(4, 4)), F64),
                       nm.constant(rng.normal(size=(4, 4)), F64))
                      for _ in range(int(rng.integers(1, 3)))]

            def encode(x, mask):
                return set_means(nm.constant(x, F64), groups, mask, layers).value

            base = encode(x, mask)
            # shuffle each set's members over all of its slots, padding included
            size = mask.shape[0]
            perm = np.stack([rng.permutation(size) for _ in range(groups)], axis=1)
            cols = np.arange(groups)[None, :]
            x2 = x.reshape(size, groups, -1)[perm, cols].reshape(x.shape)
            worst = max(worst, float(np.abs(encode(x2, mask[perm, cols]) - base).max()))
        assert worst < 1e-10

    def test_set_mean_bitwise_np_mean(self):
        rng = np.random.default_rng(6)
        sizes = list(range(1, 40))
        members, x, mask = padded_batch(rng, sizes, d=8)
        got = set_means(nm.constant(x, np.float32), len(sizes), mask).value
        for g, h in enumerate(members):
            want = h.astype(np.float32).mean(axis=0)
            assert got[g].tobytes() == want.tobytes(), sizes[g]

    def test_malformed_sets_rejected(self, rng):
        x = nm.constant(rng.normal(size=(6, 4)), F64)
        w = nm.constant(rng.normal(size=(4, 4)), F64)
        with pytest.raises(ShapeError, match="do not split"):
            set_means(x, 4)
        with pytest.raises(ShapeError, match="mask shape"):
            set_means(x, 3, np.ones((3, 2), dtype=bool))
        with pytest.raises(ShapeError, match="no members"):
            set_means(x, 3, np.array([[True, False, True], [True, False, False]]), [(w, w)])
        with pytest.raises(ShapeError, match="for width"):
            set_means(x, 3, None, [(w, nm.constant(np.ones((4, 3)), F64))])
        with pytest.raises(ShapeError, match="float32 for float64 rows"):
            set_means(x, 3, None, [(w, nm.constant(np.ones((4, 4)), np.float32))])

    def test_select_rows_routes_rows_and_gradients(self, rng):
        on = nm.parameter(rng.normal(size=(4, 3)), F64)
        off = nm.parameter(rng.normal(size=(4, 3)), F64)
        mask = np.array([True, False, False, True])
        out = select_rows(mask, on, off)
        np.testing.assert_array_equal(out.value, np.where(mask[:, None], on.value, off.value))
        nm.backward(sum_all(out))
        np.testing.assert_array_equal(on.adjoint, np.repeat(mask[:, None], 3, axis=1) * 1.0)
        np.testing.assert_array_equal(off.adjoint, np.repeat(~mask[:, None], 3, axis=1) * 1.0)


def set_attention_oracle(h, w_k, w_q, groups, mask, g):
    """One set-attention layer with keys and queries projected apart and the
    per-set products copied back to member-major rows, as numpy arrays.
    Returns the output and the gradients of sum(out * g) for h, w_k and w_q."""
    size, d = h.shape[0] // groups, h.shape[1]
    scale = np.sqrt(float(d))

    def sets(a):
        return a.reshape(size, groups, -1).transpose(1, 0, 2)

    def rows(a):
        return np.ascontiguousarray(a.transpose(1, 0, 2)).reshape(-1, d)

    x, keys, queries, g = sets(h), sets(h @ w_k), sets(h @ w_q), sets(g)
    logits = (keys @ queries.transpose(0, 2, 1)) / scale
    if mask is not None:
        logits = np.where(mask.T[:, None, :], logits, -np.inf)
    p = softmax_rows_oracle(logits.reshape(-1, size)).reshape(groups, size, size)
    out = p @ x
    if mask is not None:
        out *= mask.T[:, :, None]
        g = g * mask.T[:, :, None]
    dp = g @ x.transpose(0, 2, 1)
    dl = softmax_rows_grad_oracle(p.reshape(-1, size), dp.reshape(-1, size))
    dl = dl.reshape(groups, size, size) / scale
    d_keys = rows(dl @ queries)
    d_queries = rows(dl.transpose(0, 2, 1) @ keys)
    d_x = rows(p.transpose(0, 2, 1) @ g)
    return rows(out), d_x + d_keys @ w_k.T + d_queries @ w_q.T, h.T @ d_keys, h.T @ d_queries


class TestSetAttentionOracle:
    """The bundle encoder's one-layer bilinear form against separately
    projected keys and queries: its set means weighted by ``g_sets`` are the
    oracle's rows weighted by each member's share of its set's weight."""

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 2e-6)])
    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    @pytest.mark.parametrize("size", [1, 3, 10])
    def test_value_and_gradients(self, size, masked, dtype, tol):
        rng = np.random.default_rng(10 * size + masked)
        groups, d = 40, 8
        if masked:
            sizes = rng.integers(1, size + 1, groups)
            sizes[0] = size
            _, x, mask = padded_batch(rng, sizes, d, scatter=True)
        else:
            x, mask = rng.normal(size=(size * groups, d)), None
        w_k, w_q = rng.normal(size=(2, d, d)) / np.sqrt(d)
        g_sets = rng.normal(size=(groups, d))
        count = size if mask is None else mask.sum(axis=0)[:, None]
        g = np.broadcast_to(g_sets / count, (size, groups, d)).reshape(x.shape)
        arrays = [a.astype(dtype) for a in (x, w_k, w_q)]
        want = list(set_attention_oracle(*arrays, groups, mask, g.astype(dtype)))
        out = want[0].reshape(size, groups, d)
        if mask is not None:
            out = out * mask[:, :, None]
        want[0] = (out.sum(axis=0) / count).astype(dtype)

        def check(got, want):
            assert got.dtype == dtype and got.shape == want.shape
            assert np.abs(got - want).max() <= tol * np.abs(want).max()

        for grads in itertools.product([False, True], repeat=3):
            leaves = [nm.parameter(a, dtype) if r else nm.constant(a, dtype)
                      for a, r in zip(arrays, grads)]
            out = set_means(leaves[0], groups, mask, [leaves[1:]])
            check(out.value, want[0])
            nm.backward(sum_all(mul(out, nm.constant(g_sets, dtype))))
            for leaf, takes_grad, grad in zip(leaves, grads, want[1:]):
                if takes_grad:
                    check(leaf.adjoint, grad)
                else:
                    assert leaf.adjoint is None
