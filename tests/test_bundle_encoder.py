import numpy as np
import pytest

import bundlecraft.numerics as nm
from bundlecraft import bundle_encoder as be
from bundlecraft.errors import ShapeError

from conftest import numeric_grad, rel_err
from graph_ops import mul, sum_all
from test_item_encoder import brute_force_attention

F64 = np.float64


def make_params(rng, d=4, layers=2):
    return be.init_bundle_params(d, layers, rng, F64)


class TestEncodeBundle:
    def test_singleton_is_identity(self, rng):
        for z in (0, 1, 3):
            params = make_params(rng, layers=z)
            f = rng.normal(size=(1, 4))
            e = be.encode_bundle(nm.constant(f, F64), params)
            np.testing.assert_allclose(e.value, f, atol=1e-12)

    def test_no_layers_plain_mean(self, rng):
        params = make_params(rng, layers=0)
        rows = rng.normal(size=(2, 4))
        e = be.encode_bundle(nm.constant(rows, F64), params)
        np.testing.assert_allclose(e.value[0], rows.mean(axis=0), atol=1e-12)

    def test_matches_layered_brute_force(self, rng):
        params = make_params(rng, layers=2)
        rows = rng.normal(size=(4, 4))
        got = be.encode_bundle(nm.constant(rows, F64), params).value[0]
        h = rows
        for wk, wq in params.layers:
            h = brute_force_attention(h, wk.value, wq.value)
        np.testing.assert_allclose(got, h.mean(axis=0), atol=1e-9)

    def test_empty_bundle_rejected(self, rng):
        params = make_params(rng)
        with pytest.raises(ShapeError):
            be.encode_bundle(nm.constant(np.zeros((0, 4)), F64), params)


class TestSetFunctionProperties:
    def test_permutation_invariance_many_bundles(self):
        for trial in range(100):
            rng = np.random.default_rng(trial)
            params = make_params(rng, layers=int(rng.integers(1, 3)))
            n = int(rng.integers(2, 9))
            rows = rng.normal(size=(n, 4))
            perm = rng.permutation(n)
            e1 = be.encode_bundle(nm.constant(rows, F64), params).value
            e2 = be.encode_bundle(nm.constant(rows[perm], F64), params).value
            np.testing.assert_allclose(e1, e2, atol=1e-10)

    def test_duplicate_item_fixed_point(self, rng):
        params = make_params(rng, layers=2)
        f = rng.normal(size=(1, 4))
        e = be.encode_bundle(nm.constant(np.vstack([f, f]), F64), params)
        np.testing.assert_allclose(e.value, f, atol=1e-12)


def test_gradients_match_finite_differences(rng):
    params = make_params(rng, layers=1)
    rows_val = rng.normal(size=(3, 4))
    weights = rng.normal(size=(1, 4))
    rows = nm.parameter(rows_val.copy(), F64)
    loss = sum_all(mul(be.encode_bundle(rows, params), nm.constant(weights, F64)))
    nm.backward(loss)

    def f():
        out = be.encode_bundle(nm.constant(rows.value, F64), params)
        return sum_all(mul(out, nm.constant(weights, F64))).item()

    for name, p in (("wk", params.layers[0][0]), ("wq", params.layers[0][1]), ("rows", rows)):
        analytic = p.adjoint.copy()
        num = numeric_grad(f, p.value, h=1e-6)
        assert rel_err(analytic, num) < 1e-4, name


class TestBatchedViews:
    SETS = [{1, 2, 3}, {4}, {5, 6}, {7, 8, 9, 0}, {2, 9}]

    def check_batch(self, rng, sets):
        """Batch rows against the one-set encoder and the attention oracle."""
        from test_item_encoder import encode_set_oracle

        params = make_params(rng, layers=2)
        table = rng.normal(size=(10, 4))
        rows, mask = be.gather_members(nm.constant(table, F64), sets)
        sizes = [len(s) for s in sets]
        assert rows.shape == (max(sizes) * len(sets), 4)
        e = be.encode_bundle(rows, params, groups=len(sets), mask=mask).value
        np.testing.assert_array_equal(e, be.encode_sets(nm.constant(table, F64), sets,
                                                         params).value)
        layers = [(wk.value, wq.value) for wk, wq in params.layers]
        for g, items in enumerate(sets):
            want = encode_set_oracle(table[sorted(items)], layers)
            np.testing.assert_allclose(e[g], want, atol=1e-10)
            single = be.encode_bundle(nm.constant(table[sorted(items)], F64), params).value
            np.testing.assert_allclose(e[g], single[0], atol=1e-12)
        return mask

    def test_batch_matches_one_at_a_time(self, rng):
        mask = self.check_batch(rng, self.SETS)
        assert mask.sum(axis=0).tolist() == [len(s) for s in self.SETS]

    def test_a_batch_is_two_nodes(self, rng):
        """The gather and one encoder node, whatever the layer count."""
        for layers in (0, 1, 3):
            params = make_params(rng, layers=layers)
            table = nm.parameter(rng.normal(size=(10, 4)), F64)
            e = be.encode_sets(table, self.SETS, params)
            gather, *weights = e.parents
            assert gather.parents == (table,)
            assert weights == [w for pair in params.layers for w in pair]

    def test_unpadded_batch_has_no_mask(self, rng):
        for sets in ([{1, 2, 3}, {0, 4, 9}, {5, 7, 8}], [{3, 1}], [{6}, {2}]):
            assert self.check_batch(rng, sets) is None

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    @pytest.mark.parametrize("layers", [0, 1, 2])
    def test_forward_only_path_has_the_graph_path_bits(self, rng, dtype, layers):
        params = be.init_bundle_params(8, layers, rng, dtype)
        table = rng.normal(size=(10, 8)).astype(dtype)
        matrices = be.attention_matrices(params)
        for sets in (self.SETS, [{1, 2, 3}, {0, 4, 9}], [{6}]):
            want = be.encode_sets(nm.constant(table, dtype), sets, params).value
            got = be.encode_sets_forward(table, sets, matrices)
            assert got.dtype == dtype and got.tobytes() == want.tobytes()
        assert be.attention_matrices(params, use_attention=False) == []
        for sets in ([], [set()], [{1, 2}, set()]):
            with pytest.raises(ShapeError):
                be.encode_sets_forward(table, sets, matrices)

    def test_batch_gradients_match_finite_differences(self, rng):
        params = make_params(rng, layers=1)
        table = nm.parameter(rng.normal(size=(10, 4)), F64)
        weights = nm.constant(rng.normal(size=(len(self.SETS), 4)), F64)

        def loss():
            rows, mask = be.gather_members(table, self.SETS)
            e = be.encode_bundle(rows, params, groups=len(self.SETS), mask=mask)
            return sum_all(mul(e, weights))

        nm.backward(loss())
        for name, p in (("wk", params.layers[0][0]), ("wq", params.layers[0][1]), ("table", table)):
            num = numeric_grad(lambda: loss().item(), p.value, h=1e-6)
            assert rel_err(p.adjoint, num) < 1e-4, name
