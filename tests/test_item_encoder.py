import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import bundlecraft.numerics as nm
from bundlecraft import item_encoder as ie
from bundlecraft.bundle_encoder import BundleEncoderParams, encode_bundle
from bundlecraft.corpus import FeatureTable
from bundlecraft.errors import ShapeError

from conftest import numeric_grad, rel_err
from graph_ops import matmul, mul, select_rows, sum_all, vconcat

F64 = np.float64


def make_params(rng, n_items=6, feat_dim=5, cf_dim=3, d=4, layers=2):
    return ie.init_item_params(n_items, feat_dim, cf_dim, d, layers, rng, F64)


# ---------------------------------------------------------------------------
# plain-numpy per-set oracles
# ---------------------------------------------------------------------------

def brute_force_attention(h, w_k, w_q):
    d = w_k.shape[0]
    logits = (h @ w_k) @ (h @ w_q).T / np.sqrt(d)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    return p @ h


def encode_set_oracle(h, layers):
    """L attention layers over one n x d set, then the row mean."""
    for w_k, w_q in layers:
        h = brute_force_attention(h, w_k, w_q)
    return h.mean(axis=0)


def item_rows_oracle(params, content, feedback, id_row, forced=()):
    """One item's 3 x d slot rows: projected content, feedback (None when the
    item has none) and id row (None when id-cold), with slot filling and the
    slots in ``forced`` replaced by the projected content."""
    w_c, w_p = params.w_c.value, params.w_p.value
    row_c = content @ w_c
    row_p = row_c if feedback is None else feedback @ w_p
    row_v = row_c if id_row is None else id_row
    rows = [row_c, row_p, row_v]
    return np.vstack([row_c if s in forced else row for s, row in enumerate(rows)])


def random_inputs(rng, n, feat=5, cfd=3, forced=False):
    content = rng.normal(size=(n, feat))
    feedback = rng.normal(size=(n, cfd))
    present = rng.random(n) > 0.4
    feedback[~present] = 0.0
    return ie.ItemInputs(
        content=content, feedback=feedback, feedback_present=present,
        id_warm=rng.random(n) > 0.3,
        forced_fallback=rng.random((n, 3)) < 0.3 if forced else None,
    )


def oracle_rows_of(inputs, params, i):
    forced = inputs.forced_fallback
    return item_rows_oracle(
        params, inputs.content[i],
        inputs.feedback[i] if inputs.feedback_present[i] else None,
        params.v.value[i] if inputs.id_warm[i] else None,
        forced=() if forced is None else set(np.flatnonzero(forced[i])),
    )


def slot_rows(inputs, params, i):
    """Item i's rows of the (unattended) slot stack, one per slot."""
    return ie.attended_slots(inputs, params, use_attention=False, dtype=F64)[1][:, i]


# ---------------------------------------------------------------------------
# the graph-op composition the fused table node replaced, kept as its oracle
# ---------------------------------------------------------------------------

def composed_item_slots(inputs, params, use_feedback=True, dtype=F64):
    """The slot rows of every item before attention as one (S*N) x d node,
    slot s of item i at row s * N + i, built from generic graph ops."""
    forced = inputs.forced_fallback

    def own(present, slot):
        return present if forced is None else present & ~forced[:, slot]

    content = nm.constant(inputs.content, dtype)
    projected_content = matmul(content, params.w_c)
    slots = [projected_content]
    if use_feedback:
        feedback = matmul(nm.constant(inputs.feedback, dtype), params.w_p)
        slots.append(select_rows(own(inputs.feedback_present, ie.SLOT_FEEDBACK), feedback,
                                 projected_content))
    v = params.v if inputs.rows is None else nm.take_rows(params.v, inputs.rows)
    slots.append(select_rows(own(inputs.id_warm, ie.SLOT_ID), v, projected_content))
    return vconcat(slots)


def composed_item_table(inputs, params, use_feedback=True, use_attention=True, dtype=F64):
    """The slot rows' attention and mean by the bundle encoder's node, one set
    per item."""
    slots = composed_item_slots(inputs, params, use_feedback, dtype)
    return encode_bundle(slots, BundleEncoderParams(params.layers), use_attention,
                         inputs.n_items)


def attention(h, wk, wq):
    """The set-attention layer on a single set."""
    return nm.attention_forward(h, wk @ wq.T, h.shape[0], 1)[0]


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

class TestContentFeature:
    """build_item_inputs averages the modalities an item has."""

    def content_of(self, text, media):
        present = [x for x in (text, media) if x is not None]
        dim = len(present[0]) if present else 4

        def row(x):
            return np.zeros((1, dim)) if x is None else np.asarray(x, F64).reshape(1, dim)

        features = FeatureTable(
            text=row(text), text_present=np.array([text is not None]),
            media=row(media), media_present=np.array([media is not None]),
        )
        inputs = ie.build_item_inputs(
            SimpleNamespace(n_items=1), features,
            SimpleNamespace(item_table=np.zeros((1, 2))),
            SimpleNamespace(item_degree=np.zeros(1, dtype=np.int64)),
            frozenset(), F64,
        )
        return inputs.content[0]

    def test_mean_of_equal_inputs(self, rng):
        t = rng.normal(size=5)
        np.testing.assert_array_equal(self.content_of(t, t), t)

    def test_single_modality_passthrough(self, rng):
        t = rng.normal(size=5)
        np.testing.assert_array_equal(self.content_of(t, None), t)
        np.testing.assert_array_equal(self.content_of(None, t), t)

    def test_arithmetic(self):
        out = self.content_of(np.ones(4), 3 * np.ones(4))
        np.testing.assert_array_equal(out, 2 * np.ones(4))

    def test_both_absent_rejected(self):
        with pytest.raises(ShapeError):
            self.content_of(None, None)

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    def test_cf_table_left_unmodified(self, rng, dtype):
        n = 6
        text = rng.normal(size=(n, 4)).astype(np.float32)
        features = FeatureTable(text=text, text_present=np.ones(n, dtype=bool),
                                media=np.zeros((n, 4), np.float32),
                                media_present=np.zeros(n, dtype=bool))
        item_table = rng.normal(size=(n, 3)).astype(np.float32)
        intact = item_table.copy()
        degree = np.array([0, 2, 0, 1, 5, 0])
        inputs = ie.build_item_inputs(
            SimpleNamespace(n_items=n), features, SimpleNamespace(item_table=item_table),
            SimpleNamespace(item_degree=degree), frozenset({1, 4}), dtype,
        )
        assert item_table.tobytes() == intact.tobytes()
        want = np.where((degree > 0)[:, None], intact.astype(dtype), 0)
        assert inputs.feedback.dtype == dtype and inputs.feedback.tobytes() == want.tobytes()
        assert inputs.content.dtype == dtype and not np.shares_memory(inputs.content, text)
        np.testing.assert_array_equal(inputs.content, text.astype(dtype))

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    def test_content_bytes_match_the_where_formula(self, rng, dtype):
        """Rows with both modalities, text only and media only, against the
        two nested ``np.where`` selections the content was once built with."""
        n = 60
        text = rng.normal(size=(n, 7)).astype(np.float32)
        media = (rng.normal(size=(n, 7)) * 3).astype(np.float32)
        kind = np.arange(n) % 3
        text_present, media_present = kind != 2, kind != 1
        features = FeatureTable(text=text, text_present=text_present,
                                media=media, media_present=media_present)
        inputs = ie.build_item_inputs(
            SimpleNamespace(n_items=n), features, SimpleNamespace(item_table=np.zeros((n, 2))),
            SimpleNamespace(item_degree=np.ones(n, dtype=np.int64)), frozenset(), dtype,
        )
        want = np.where(
            (text_present & media_present)[:, None],
            (text + media) / 2,
            np.where(text_present[:, None], text, media),
        ).astype(dtype, copy=False)
        assert inputs.content.dtype == dtype and inputs.content.tobytes() == want.tobytes()


class TestBuildFeatureMatrix:
    """The slot stack: slot s of item i is row s * N + i."""

    def inputs(self, rng, n=4, feat=5, cfd=3, present=True, warm=True):
        return ie.ItemInputs(
            content=rng.normal(size=(n, feat)),
            feedback=rng.normal(size=(n, cfd)) if present else np.zeros((n, cfd)),
            feedback_present=np.full(n, present),
            id_warm=np.full(n, warm),
        )

    def test_warm_item_shape_and_rows(self, rng):
        params = make_params(rng, n_items=4)
        inputs = self.inputs(rng)
        table, slots = ie.attended_slots(inputs, params, use_attention=False, dtype=F64)
        assert slots.shape == (3, 4, 4) and table.shape == (4, 4)
        rows = slot_rows(inputs, params, 2)
        np.testing.assert_allclose(rows[0], inputs.content[2] @ params.w_c.value, atol=1e-12)
        np.testing.assert_allclose(rows[1], inputs.feedback[2] @ params.w_p.value, atol=1e-12)
        np.testing.assert_allclose(rows[2], params.v.value[2], atol=1e-12)

    def test_fully_cold_collapses_to_content(self, rng):
        params = make_params(rng, n_items=4)
        inputs = self.inputs(rng, present=False, warm=False)
        rows = slot_rows(inputs, params, 1)
        row = inputs.content[1] @ params.w_c.value
        for r in range(3):
            np.testing.assert_allclose(rows[r], row, atol=1e-12)

    def test_feedback_cold_bundle_warm(self, rng):
        params = make_params(rng, n_items=4)
        inputs = self.inputs(rng, present=False, warm=True)
        rows = slot_rows(inputs, params, 3)
        np.testing.assert_array_equal(rows[0], rows[1])
        np.testing.assert_allclose(rows[2], params.v.value[3], atol=1e-12)


class TestAttentionLayer:
    def test_single_row_identity(self, rng):
        h = rng.normal(size=(1, 4))
        out = attention(h, rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
        np.testing.assert_allclose(out, h, atol=1e-12)

    def test_zero_weights_give_uniform_mean(self, rng):
        h = rng.normal(size=(5, 4))
        zero = np.zeros((4, 4))
        out = attention(h, zero, zero)
        np.testing.assert_allclose(out, np.tile(h.mean(axis=0), (5, 1)), atol=1e-12)

    def test_matches_brute_force(self, rng):
        h = rng.normal(size=(3, 4))
        wk = rng.normal(size=(4, 4))
        wq = rng.normal(size=(4, 4))
        np.testing.assert_allclose(attention(h, wk, wq), brute_force_attention(h, wk, wq), atol=1e-10)

    def test_output_rows_are_convex_combinations(self, rng):
        for _ in range(25):
            h = rng.normal(size=(4, 3))
            out = attention(h, rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
            lo = h.min(axis=0) - 1e-12
            hi = h.max(axis=0) + 1e-12
            assert (out >= lo).all() and (out <= hi).all()

    def test_row_permutation_equivariance(self, rng):
        h = rng.normal(size=(3, 4))
        wk = rng.normal(size=(4, 4))
        wq = rng.normal(size=(4, 4))
        perm = np.array([2, 0, 1])
        np.testing.assert_allclose(attention(h[perm], wk, wq), attention(h, wk, wq)[perm], atol=1e-12)

    def test_identical_rows_fixed_point(self, rng):
        h = np.tile(rng.normal(size=(1, 4)), (3, 1))
        out = attention(h, rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
        np.testing.assert_allclose(out, h, atol=1e-12)


class TestEncodeItem:
    def test_no_layers_gives_slot_mean(self, rng):
        params = make_params(rng, layers=0)
        inputs = random_inputs(rng, 6)
        table = ie.encode_item_table(inputs, params, dtype=F64).value
        for i in range(6):
            np.testing.assert_allclose(
                table[i], oracle_rows_of(inputs, params, i).mean(axis=0), atol=1e-12)

    def test_cold_collapse_invariance_any_depth(self, rng):
        params = make_params(rng, layers=3)
        inputs = random_inputs(rng, 6)
        inputs.feedback_present[0] = False
        inputs.feedback[0] = 0.0
        inputs.id_warm[0] = False
        table = ie.encode_item_table(inputs, params, dtype=F64).value
        np.testing.assert_allclose(table[0], inputs.content[0] @ params.w_c.value, atol=1e-10)

    def test_matches_layered_brute_force(self, rng):
        params = make_params(rng, layers=2)
        inputs = random_inputs(rng, 6)
        table = ie.encode_item_table(inputs, params, dtype=F64).value
        layers = [(wk.value, wq.value) for wk, wq in params.layers]
        for i in range(6):
            want = encode_set_oracle(oracle_rows_of(inputs, params, i), layers)
            np.testing.assert_allclose(table[i], want, atol=1e-9)

    def test_gradients_match_finite_differences(self, rng):
        params = make_params(rng, n_items=4, layers=1)
        inputs = random_inputs(rng, 4, forced=True)
        weights = nm.constant(rng.normal(size=(4, 4)), F64)

        def loss():
            return sum_all(mul(ie.encode_item_table(inputs, params, dtype=F64), weights))

        nm.backward(loss())
        named = [
            ("w_c", params.w_c), ("w_p", params.w_p), ("v", params.v),
            ("wk", params.layers[0][0]), ("wq", params.layers[0][1]),
        ]
        for name, p in named:
            num = numeric_grad(lambda: loss().item(), p.value, h=1e-6)
            assert rel_err(p.adjoint, num) < 1e-4, name


class TestBatchedPath:
    def test_matches_single_item_path(self, rng):
        n = 7
        for forced in (False, True):
            params = make_params(rng, n_items=n, feat_dim=5, cf_dim=3, layers=2)
            inputs = random_inputs(rng, n, cfd=3, forced=forced)
            table = ie.encode_item_table(inputs, params, dtype=F64)
            layers = [(wk.value, wq.value) for wk, wq in params.layers]
            for i in range(n):
                want = encode_set_oracle(oracle_rows_of(inputs, params, i), layers)
                np.testing.assert_allclose(table.value[i], want, atol=1e-11)

    def test_attention_off_is_slot_mean(self, rng):
        n = 4
        params = make_params(rng, n_items=n, layers=1)
        inputs = ie.ItemInputs(
            content=rng.normal(size=(n, 5)),
            feedback=rng.normal(size=(n, 3)),
            feedback_present=np.ones(n, dtype=bool),
            id_warm=np.ones(n, dtype=bool),
        )
        table = ie.encode_item_table(inputs, params, use_attention=False, dtype=F64)
        cp = inputs.content @ params.w_c.value
        pp = inputs.feedback @ params.w_p.value
        np.testing.assert_allclose(table.value, (cp + pp + params.v.value) / 3, atol=1e-12)

    def test_forced_fallback_replaces_slot(self, rng):
        n = 3
        params = make_params(rng, n_items=n, layers=0)
        forced = np.zeros((n, 3), dtype=bool)
        forced[1, ie.SLOT_ID] = True
        inputs = ie.ItemInputs(
            content=rng.normal(size=(n, 5)),
            feedback=rng.normal(size=(n, 3)),
            feedback_present=np.ones(n, dtype=bool),
            id_warm=np.ones(n, dtype=bool),
            forced_fallback=forced,
        )
        cp = inputs.content @ params.w_c.value
        np.testing.assert_allclose(slot_rows(inputs, params, 1)[ie.SLOT_ID], cp[1], atol=1e-12)
        np.testing.assert_allclose(
            slot_rows(inputs, params, 0)[ie.SLOT_ID], params.v.value[0], atol=1e-12)


class TestRowRestriction:
    """Encoding ``inputs.take(rows)`` against the full table as the oracle."""

    @pytest.mark.parametrize("use_feedback", [True, False])
    @pytest.mark.parametrize("use_attention", [True, False])
    @pytest.mark.parametrize("augment", ["none", "forced", "MD", "FN", "FD"])
    def test_subset_equals_rows_of_full_table(self, rng, use_feedback, use_attention, augment):
        from bundlecraft.contrastive import augment_inputs
        from test_contrastive import aug_config

        n = 13
        params = make_params(rng, n_items=n, feat_dim=5, cf_dim=3, layers=2)
        inputs = random_inputs(rng, n, cfd=3, forced=augment == "forced")
        if augment in ("MD", "FN", "FD"):
            config = aug_config(item_mode=augment, dropout_ratio=0.5, noise_weight=0.3)
            inputs = augment_inputs(inputs, augment, config, rng)
        kw = dict(use_feedback=use_feedback, use_attention=use_attention, dtype=F64)
        full = ie.encode_item_table(inputs, params, **kw)
        for rows in ([0, 3, 4, 9, 12], [7], [11, 2, 2, 5], list(range(n))):
            sub = ie.encode_item_table(inputs.take(rows), params, **kw)
            want = nm.take_rows(full, rows).value
            assert sub.shape == (len(rows), params.d)
            np.testing.assert_allclose(sub.value, want, rtol=0, atol=1e-12)

    def test_take_subsets_every_field(self, rng):
        inputs = random_inputs(rng, 9, forced=True)
        rows = np.array([8, 1, 4])
        sub = inputs.take(rows)
        for name in ("content", "feedback", "feedback_present", "id_warm", "forced_fallback"):
            np.testing.assert_array_equal(getattr(sub, name), getattr(inputs, name)[rows])
        np.testing.assert_array_equal(sub.rows, rows)
        assert inputs.rows is None and inputs.take([]).n_items == 0

    def test_take_composes_to_catalog_rows(self, rng):
        params = make_params(rng, n_items=9, layers=1)
        inputs = random_inputs(rng, 9)
        outer = inputs.take([8, 6, 4, 2, 0])
        inner = outer.take([1, 3])
        np.testing.assert_array_equal(inner.rows, [6, 2])
        np.testing.assert_allclose(
            ie.encode_item_table(inner, params, dtype=F64).value,
            ie.encode_item_table(inputs.take([6, 2]), params, dtype=F64).value, atol=1e-12)

    @pytest.mark.parametrize("rows", [[-1], [9], [[0, 1]]])
    def test_take_rejects_bad_rows(self, rng, rows):
        with pytest.raises(ShapeError):
            random_inputs(rng, 9).take(rows)

    def test_subset_gradients_match_finite_differences(self, rng):
        n, rows = 7, [5, 1, 3]
        params = make_params(rng, n_items=n, layers=1)
        inputs = random_inputs(rng, n, forced=True)
        inputs = dataclasses.replace(inputs, id_warm=np.ones(n, dtype=bool))
        weights = nm.constant(rng.normal(size=(len(rows), params.d)), F64)

        def loss():
            sub = ie.encode_item_table(inputs.take(rows), params, dtype=F64)
            return sum_all(mul(sub, weights))

        nm.backward(loss())
        named = [
            ("w_c", params.w_c), ("w_p", params.w_p), ("v", params.v),
            ("wk", params.layers[0][0]), ("wq", params.layers[0][1]),
        ]
        for name, p in named:
            num = numeric_grad(lambda: loss().item(), p.value, h=1e-6)
            assert rel_err(p.adjoint, num) < 1e-4, name
        off = np.setdiff1d(np.arange(n), rows)
        assert (params.v.adjoint[off] == 0).all()
        # id-warm rows that keep their id slot receive a gradient
        kept = [r for i, r in enumerate(rows) if not inputs.forced_fallback[r, ie.SLOT_ID]]
        assert kept and np.abs(params.v.adjoint[kept]).sum(axis=1).min() > 0


class TestFusedTableNode:
    """The tiled table node against the graph-op composition it replaced:
    the same value bits, and f64 gradients at rtol = atol = 1e-12."""

    CASES = {
        "default": {},
        "feedback_off": {"use_feedback": False},
        "attention_off": {"use_attention": False},
    }

    def setup(self, rng, n, layers=2, d=4, md=False, dtype=F64):
        params = ie.init_item_params(n, 5, 5, d, layers, rng, dtype)
        inputs = random_inputs(rng, n, feat=5, cfd=5)
        if md:
            from bundlecraft.contrastive import augment_inputs
            from test_contrastive import aug_config

            config = aug_config(item_mode="MD", dropout_ratio=0.6)
            inputs = augment_inputs(inputs, "MD", config, rng)
            assert inputs.forced_fallback.any()
        return params, inputs

    def check(self, params, inputs, dtype=F64, **kw):
        fused = ie.encode_item_table(inputs, params, dtype=dtype, **kw)
        oracle = composed_item_table(inputs, params, dtype=dtype, **kw)
        assert fused.value.dtype == dtype
        assert fused.value.tobytes() == oracle.value.tobytes()
        # the inference entry: the node's value as a contiguous d x N table
        table_t = ie.encode_item_table_forward(inputs, params, dtype=dtype, **kw)
        assert table_t.dtype == dtype and table_t.flags.c_contiguous
        assert table_t.T.tobytes() == fused.value.tobytes()
        if dtype != F64:
            return
        weights = nm.constant(np.random.default_rng(5).normal(size=fused.shape), F64)
        grads = []
        for table in (fused, oracle):
            nm.backward(sum_all(mul(table, weights)))
            grads.append({name: None if p.adjoint is None else p.adjoint.copy()
                          for name, p in self.named(params)})
            nm.zero_adjoints([p for _, p in self.named(params)])
        for name, want in grads[1].items():
            if want is None:
                assert grads[0][name] is None, name
            else:
                np.testing.assert_allclose(grads[0][name], want, rtol=1e-12, atol=1e-12,
                                           err_msg=name)

    @staticmethod
    def named(params):
        named = [("w_c", params.w_c), ("w_p", params.w_p), ("v", params.v)]
        for l, (w_k, w_q) in enumerate(params.layers):
            named += [(f"wk{l}", w_k), (f"wq{l}", w_q)]
        return named

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("layers", [0, 1, 2])
    @pytest.mark.parametrize("md", [False, True], ids=["plain", "MD"])
    def test_matches_composition_over_small_tiles(self, rng, monkeypatch, case, layers, md):
        """Five-item tiles: 13 items run as tiles of 4, 4 and 5, and the
        restrictions as one, two or three tiles."""
        d = 4
        monkeypatch.setattr(ie, "TILE_BYTES", 5 * ie.N_SLOTS * d * 8)
        params, inputs = self.setup(rng, 13, layers, d, md)
        for rows in (None, [3], [11, 2, 2, 5, 2], [12, 0, 0, 7, 7, 7, 1, 9, 4, 4, 10, 6]):
            self.check(params, inputs if rows is None else inputs.take(rows), **self.CASES[case])

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    @pytest.mark.parametrize("extra", [-1, 1], ids=["below_one_tile", "one_tile_plus_one"])
    def test_matches_composition_at_the_real_tile_size(self, rng, dtype, extra):
        d = 4
        row_bytes = ie.N_SLOTS * d * np.dtype(dtype).itemsize
        per = ie.TILE_BYTES // row_bytes
        n = per + extra if extra > 0 else 7
        assert len(ie._tiles(n, row_bytes)) - 1 == (2 if extra > 0 else 1)
        params, inputs = self.setup(rng, n, 2, d, md=True, dtype=dtype)
        self.check(params, inputs, dtype=dtype)

    def test_tiles_never_split_off_one_row(self):
        for per in (1, 2, 3, 5, 64):
            for n in range(1, 4 * per + 2):
                bounds = ie._tiles(n, ie.TILE_BYTES // per)
                sizes = np.diff(bounds)
                assert bounds[0] == 0 and bounds[-1] == n and sizes.max() <= per
                assert len(sizes) == -(-n // per)
                assert n == 1 or per <= 2 or sizes.min() >= 2, (per, n, sizes)

    def test_attended_slots_are_the_compositions_rows(self, rng, monkeypatch):
        monkeypatch.setattr(ie, "TILE_BYTES", 4 * ie.N_SLOTS * 4 * 8)
        params, inputs = self.setup(rng, 11, md=True)
        table, slots = ie.attended_slots(inputs, params, dtype=F64)
        want = composed_item_slots(inputs, params).value
        for w_k, w_q in params.layers:
            want = nm.attention_forward(want, w_k.value @ w_q.value.T, 3, 11)[0]
        assert slots.tobytes() == want.reshape(3, 11, 4).tobytes()
        assert table.tobytes() == composed_item_table(inputs, params).value.tobytes()

    @pytest.mark.parametrize("where", ["content", "feedback", "weight", "id_row"])
    def test_non_finite_values_raise(self, rng, monkeypatch, where):
        """Both entries raise the same error; an id row feeds only the middle
        of three tiles."""
        from bundlecraft.errors import NonFiniteError

        monkeypatch.setattr(ie, "TILE_BYTES", 4 * ie.N_SLOTS * 4 * 8)
        params, inputs = self.setup(rng, 11)
        if where == "weight":
            params.layers[1][0].value[0, 0] = np.inf
        elif where == "id_row":
            inputs.id_warm[5] = True
            params.v.value[5, 1] = np.nan
        else:
            getattr(inputs, where)[9, 1] = np.nan
        errors = []
        for encode in (ie.encode_item_table, ie.encode_item_table_forward):
            with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError) as err:
                encode(inputs, params, dtype=F64)
            errors.append(str(err.value))
        op = "constant" if where in ("content", "feedback") else "encode_item_table"
        assert errors[0] == errors[1] == f"{op} produced a non-finite value"

    def test_one_graph_node(self, rng):
        params, inputs = self.setup(rng, 6)
        table = ie.encode_item_table(inputs.take([4, 1, 1]), params, dtype=F64)
        assert set(map(id, table.parents)) == {id(p) for _, p in self.named(params)}
        assert all(p.parents == () for p in table.parents)
