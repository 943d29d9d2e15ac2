import gc
import math
import os
import subprocess
import sys
import textwrap
import threading
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest

import bundlecraft
from bundlecraft import evaluation as ev
from bundlecraft import kernels
from bundlecraft.corpus import PartialBundleView
from bundlecraft.errors import IntegrityError


def rank_oracle(scores, excluded, k):
    """Full lexsort of every score, then a walk that skips excluded ids."""
    if k < 1:
        raise IntegrityError(f"k must be >= 1, got {k}")
    scores = np.asarray(scores).reshape(-1)
    order = np.lexsort((np.arange(scores.shape[0]), -scores))
    out = []
    for idx in order:
        if int(idx) in excluded:
            continue
        out.append(int(idx))
        if len(out) == k:
            break
    return out


def random_case(rng):
    """Small scores with heavy ties, planted specials and a loose excluded set."""
    n = int(rng.integers(0, 30))
    if rng.random() < 0.5:
        scores = rng.integers(-3, 4, size=n).astype(np.float64)
    else:
        scores = rng.normal(size=n)
    specials = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0])
    if n:
        planted = rng.random(n) < rng.choice([0.0, 0.1, 0.4])
        scores[planted] = rng.choice(specials, size=int(planted.sum()))
    excluded = {int(i) for i in rng.integers(-3, n + 4, size=int(rng.integers(0, 8)))}
    k = int(rng.integers(1, n + 5))
    form = rng.choice(["list", "int list", "float32", "float64"])
    if form == "list":
        scores = scores.tolist()
    elif form == "int list":
        scores = rng.integers(-2, 3, size=n).tolist()
    else:
        scores = scores.astype(form)
    return scores, excluded, k


def large_case(rng):
    """A catalog-sized row, n not a multiple of ``RANK_GROUPS``, with ties at
    the cut, specials planted in the grouped head or the tail, and an
    excluded set holding top scorers and out-of-range ids."""
    g = ev.RANK_GROUPS
    n = g * int(rng.integers(1_000 // g, 60_000 // g)) + int(rng.integers(1, g))
    head = g * (n // g)
    k = int(rng.integers(1, 101))
    form = rng.choice(["float32", "float64", "int"])
    if form == "int":
        scores = rng.integers(-50, 50, size=n)
    else:
        scores = rng.normal(size=n).astype(form)
        if rng.random() < 0.5:
            # many items tied at about the k-th best score
            value = np.sort(scores)[-min(n, k + int(rng.integers(0, 40)))]
            scores[rng.choice(n, size=int(rng.integers(10, 400)), replace=False)] = value
        if rng.random() < 0.5:
            where = rng.choice(["head", "tail"])
            lo, hi = (0, head) if where == "head" else (head, n)
            specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])
            at = rng.integers(lo, hi, size=int(rng.integers(1, 6)))
            scores[at] = rng.choice(specials, size=at.shape[0])
    top = np.lexsort((np.arange(n), -scores))[: int(rng.integers(0, 60))]
    excluded = {int(i) for i in top}
    excluded |= {int(i) for i in rng.integers(0, n, size=int(rng.integers(0, 130)))}
    excluded |= {int(i) for i in rng.integers(-20, 0, size=int(rng.integers(0, 6)))}
    excluded |= {int(i) for i in rng.integers(n, n + 20, size=int(rng.integers(0, 6)))}
    return scores, excluded, k


def takes_bounded_path(scores, excluded, k):
    """Whether the column-maxima cut applies: more columns than ``need`` and
    no NaN in the grouped head."""
    g = ev.RANK_GROUPS
    n = scores.shape[0]
    need = k + sum(1 for i in excluded if 0 <= i < n)
    c = n // g
    return c > need and not np.isnan(scores[: g * c].astype(np.float64)).any()


class TestRankCandidates:
    def test_plain_sort(self):
        assert ev.rank_candidates([3.0, 1.0, 2.0], set(), 2) == [0, 2]

    def test_exclusion(self):
        assert ev.rank_candidates([3.0, 1.0, 2.0], {0}, 2) == [2, 1]

    def test_tie_break_ascending_index(self):
        assert ev.rank_candidates([1.0, 1.0, 1.0], set(), 3) == [0, 1, 2]

    def test_short_candidate_list(self):
        assert ev.rank_candidates([1.0, 2.0], {1}, 5) == [0]

    def test_non_finite_last(self):
        scores = [np.nan, -np.inf, 0.5, np.inf, -0.0, 0.0]
        assert ev.rank_candidates(scores, set(), 6) == [3, 2, 4, 5, 1, 0]

    def test_out_of_range_exclusions_ignored(self):
        assert ev.rank_candidates([1.0, 2.0, 3.0], {-1, 3, 99, 2}, 3) == [1, 0]

    def test_empty_scores(self):
        assert ev.rank_candidates(np.zeros(0, np.float32), {0}, 3) == []

    def test_k_below_one_rejected(self):
        with pytest.raises(IntegrityError):
            ev.rank_candidates([1.0], set(), 0)

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(4000):
            scores, excluded, k = random_case(rng)
            assert ev.rank_candidates(scores, excluded, k) == rank_oracle(scores, excluded, k), (
                scores, excluded, k)

    def test_large_catalog_ties_at_the_cut(self):
        rng = np.random.default_rng(12)
        n, k = 50_000, 20
        scores = rng.uniform(-1.0, 0.5, size=n).astype(np.float32)
        tied = rng.choice(n, size=500, replace=False)
        top = rng.choice(np.setdiff1d(np.arange(n), tied), size=10, replace=False)
        scores[tied] = 0.75
        scores[top] = 1.0
        excluded = {int(tied[0]), int(top[0]), -5, n + 7}
        got = ev.rank_candidates(scores, excluded, k)
        assert got == rank_oracle(scores, excluded, k)
        kept_tied = sorted(int(i) for i in tied[1:])
        assert got == sorted(int(i) for i in top[1:]) + kept_tied[: k - 9]

    def test_column_maxima_cut_matches_full_sort_oracle(self):
        rng = np.random.default_rng(13)
        bounded = 0
        for _ in range(250):
            scores, excluded, k = large_case(rng)
            bounded += takes_bounded_path(scores, excluded, k)
            assert ev.rank_candidates(scores, excluded, k) == rank_oracle(scores, excluded, k), (
                scores.shape[0], scores.dtype, k, len(excluded))
        # both the cut and the sort of every kept item ran
        assert 100 <= bounded <= 240

    def test_too_few_columns_for_the_cut_sorts_every_item(self):
        rng = np.random.default_rng(14)
        n, k = 290 * ev.RANK_GROUPS + 7, 100
        scores = rng.normal(size=n).astype(np.float32)
        scores[rng.choice(n, size=300, replace=False)] = np.sort(scores)[-150]
        excluded = {int(i) for i in np.argsort(-scores)[:200]} | {-1, n}
        assert not takes_bounded_path(scores, excluded, k)
        assert ev.rank_candidates(scores, excluded, k) == rank_oracle(scores, excluded, k)

    @pytest.mark.parametrize("spare", [-1, 0, 1, 2])
    def test_columns_around_need(self, spare):
        """``c`` one below, at, and just above ``need``: the last two columns
        of slack decide between the full sort and the cut."""
        rng = np.random.default_rng(15 + spare)
        k, n_excluded = 20, 6
        c = k + n_excluded + spare
        n = ev.RANK_GROUPS * c + 3
        scores = rng.normal(size=n)
        excluded = {int(i) for i in np.argsort(-scores)[:n_excluded]}
        assert takes_bounded_path(scores, excluded, k) == (spare > 0)
        assert ev.rank_candidates(scores, excluded, k) == rank_oracle(scores, excluded, k)

    def test_cut_holds_exactly_need_items(self):
        """Descending scores put the best ``c`` items in the first row, one per
        column, so exactly ``need`` items reach the cut."""
        n = 100 * ev.RANK_GROUPS + 5
        scores = np.linspace(1.0, 0.0, n)
        excluded = {0, 3, 7}
        assert takes_bounded_path(scores, excluded, 20)
        assert ev.rank_candidates(scores, excluded, 20) == [
            i for i in range(23) if i not in excluded]

    def test_nan_in_the_head_sorts_every_item(self):
        """NaN column maxima would count as the largest, so the cut is not used."""
        g = ev.RANK_GROUPS
        c = 100
        n = g * c + 5
        scores = np.linspace(1.0, 0.0, n)
        scores[(g - 1) * c : (g - 1) * c + 40] = np.nan  # last row, 40 columns
        excluded = set(range(10))
        assert not takes_bounded_path(scores, excluded, 20)
        got = ev.rank_candidates(scores, excluded, 20)
        assert got == list(range(10, 30))
        assert got == rank_oracle(scores, excluded, 20)

    def test_nan_in_the_tail_keeps_the_cut_exact(self):
        g = ev.RANK_GROUPS
        n = 100 * g + 5
        scores = np.linspace(0.0, 1.0, n)[::-1].copy()
        scores[-3:] = [np.nan, np.inf, -0.0]
        excluded = {0, 1, n + 3}
        assert takes_bounded_path(scores, excluded, 20)
        got = ev.rank_candidates(scores, excluded, 20)
        assert got == [n - 2] + list(range(2, 21))
        assert got == rank_oracle(scores, excluded, 20)


class TestMetrics:
    def test_recall_perfect_hit(self):
        assert ev.recall_at_k([4, 1, 2], {4}, 1) == 1.0

    def test_recall_half(self):
        assert ev.recall_at_k([4, 1, 2], {4, 9}, 3) == 0.5

    def test_ndcg_rank_one(self):
        assert ev.ndcg_at_k([7, 1], {7}, 20) == 1.0

    def test_ndcg_rank_two(self):
        got = ev.ndcg_at_k([1, 7], {7}, 20)
        assert abs(got - 1 / math.log2(3)) < 1e-12

    def test_ndcg_no_hits(self):
        assert ev.ndcg_at_k([1, 2, 3], {9}, 20) == 0.0

    def test_empty_targets_rejected(self):
        with pytest.raises(IntegrityError):
            ev.recall_at_k([1], set(), 1)
        with pytest.raises(IntegrityError):
            ev.ndcg_at_k([1], set(), 1)

    def test_brute_force_agreement_many_instances(self):
        def recall_oracle(ranked, targets, k):
            hits = 0
            for item in list(ranked)[:k]:
                if item in targets:
                    hits += 1
            return hits / len(targets)

        def ndcg_oracle(ranked, targets, k):
            dcg = 0.0
            for pos, item in enumerate(list(ranked)[:k]):
                if item in targets:
                    dcg += 1.0 / math.log2(pos + 2)
            ideal = sum(1.0 / math.log2(p + 2) for p in range(min(k, len(targets))))
            return dcg / ideal

        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(3, 40))
            ranked = list(rng.permutation(n)[: int(rng.integers(1, n + 1))])
            ranked = [int(x) for x in ranked]
            n_targets = int(rng.integers(1, n + 1))
            targets = set(int(x) for x in rng.choice(n, size=n_targets, replace=False))
            k = int(rng.integers(1, 25))
            assert ev.recall_at_k(ranked, targets, k) == pytest.approx(
                recall_oracle(ranked, targets, k)
            )
            assert ev.ndcg_at_k(ranked, targets, k) == pytest.approx(
                ndcg_oracle(ranked, targets, k)
            )

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(0.1, 5.0, size=30)
        view_targets = {3, 7}
        base = ev.rank_candidates(scores, {1}, 10)
        squared = ev.rank_candidates(scores**2, {1}, 10)
        assert base == squared
        assert ev.recall_at_k(base, view_targets, 10) == ev.recall_at_k(squared, view_targets, 10)
        assert ev.ndcg_at_k(base, view_targets, 10) == ev.ndcg_at_k(squared, view_targets, 10)


def set_scorer(one):
    """A set scorer, one row per seed list, from a one-set ``one(seed_list)``."""
    def score_sets(seed_lists):
        return (one(seeds) for seeds in seed_lists)

    return score_sets


def indicator_scorer(targets_by_seeds, n_items):
    def scorer(seed_idx):
        scores = np.zeros(n_items)
        for t in targets_by_seeds[tuple(seed_idx)]:
            scores[t] = 1.0
        return scores

    return set_scorer(scorer)


class TestEvaluate:
    def views(self):
        return [
            PartialBundleView(0, frozenset({0, 1}), frozenset({2})),
            PartialBundleView(1, frozenset({3}), frozenset({4, 5})),
        ]

    def test_perfect_model_scores_one(self):
        views = self.views()
        table = {tuple(sorted(v.seeds)): v.targets for v in views}
        report = ev.evaluate(indicator_scorer(table, 10), views, k=5)
        assert report.recall == 1.0
        assert report.ndcg == 1.0
        assert report.n_bundles == 2

    def test_perfect_model_all_settings(self):
        views = self.views()
        table = {tuple(sorted(v.seeds)): v.targets for v in views}
        warm = frozenset(range(10))
        rng = np.random.default_rng(0)
        for setting, rate in (("standard", 0.0), ("warm", 0.0), ("sparsify", 0.5)):
            # sparsify changes the seed key, so the oracle must tolerate subsets
            if setting == "sparsify":
                @set_scorer
                def scorer(seed_idx):
                    scores = np.zeros(10)
                    for v in views:
                        if set(seed_idx) <= v.seeds:
                            for t in v.targets:
                                scores[t] = 1.0
                    return scores
            else:
                scorer = indicator_scorer(table, 10)
            report = ev.evaluate(
                scorer, views, k=5, setting=setting, rate=rate, rng=rng, n_items=10, warm=warm
            )
            assert report.recall == 1.0, setting

    def test_warm_filter_subset_and_empty(self):
        views = self.views()
        table = {tuple(sorted(v.seeds)): v.targets for v in views}
        warm_partial = frozenset({0, 1, 2})
        report = ev.evaluate(indicator_scorer(table, 10), views, k=5,
                             setting="warm", warm=warm_partial)
        assert report.n_bundles == 1
        assert report.per_bundle[0]["bundle"] == 0
        report_none = ev.evaluate(indicator_scorer(table, 10), views, k=5,
                                  setting="warm", warm=frozenset({0}))
        assert report_none.empty
        assert report_none.recall is None

    def test_per_bundle_records_average_to_means(self):
        views = self.views()

        @set_scorer
        def scorer(seed_idx):
            scores = np.zeros(10)
            scores[2] = 1.0  # only bundle 0's target
            return scores

        report = ev.evaluate(scorer, views, k=5)
        mean_r = sum(r["recall"] for r in report.per_bundle) / 2
        assert abs(report.recall - mean_r) < 1e-12

    def test_scorer_yielding_too_few_rows_rejected(self):
        views = self.views()
        with pytest.raises(ValueError):
            ev.evaluate(lambda seed_lists: [np.zeros(10)], views, k=5)

    def test_seeds_excluded_from_candidates(self):
        views = [PartialBundleView(0, frozenset({0}), frozenset({1}))]

        @set_scorer
        def scorer(seed_idx):
            return np.array([10.0, 1.0, 0.5])

        report = ev.evaluate(scorer, views, k=2)
        assert report.per_bundle[0]["hits"] == [1]
        assert report.recall == 1.0


class TestExplain:
    @pytest.fixture
    def model_and_inputs(self, rng):
        import copy

        from bundlecraft.cf_pretrain import CfEmbeddings
        from bundlecraft.config import DEFAULTS, train_config
        from bundlecraft.item_encoder import ItemInputs
        from bundlecraft.trainer import init_model

        n, feat, cfd = 6, 5, 3
        cfgd = copy.deepcopy(DEFAULTS)
        cfgd["model"]["d"] = 4
        tc = train_config(cfgd)
        cf = CfEmbeddings(
            user_table=np.zeros((2, cfd), np.float32),
            item_table=rng.normal(size=(n, cfd)).astype(np.float32),
            k_layers=1,
        )
        inputs = ItemInputs(
            content=rng.normal(size=(n, feat)).astype(np.float32),
            feedback=rng.normal(size=(n, cfd)).astype(np.float32),
            feedback_present=np.array([1, 1, 1, 1, 1, 0], dtype=bool),
            id_warm=np.array([1, 1, 1, 1, 1, 0], dtype=bool),
        )
        inputs.feedback[5] = 0.0
        model = init_model(n, feat, cf, tc, rng)
        return model, inputs

    def test_row_counts_and_range(self, model_and_inputs):
        model, inputs = model_and_inputs
        table = ev.explain(model, inputs, {0, 2, 3}, bundle_index=7)
        assert table["bundle"] == 7
        assert len(table["features"]) == 9
        assert len(table["items"]) == 3
        for row in table["features"] + table["items"]:
            assert -1.0 - 1e-6 <= row["cosine"] <= 1.0 + 1e-6

    def test_fully_cold_item_has_equal_feature_cosines(self, model_and_inputs):
        model, inputs = model_and_inputs
        table = ev.explain(model, inputs, {5, 1})
        cold_rows = [r["cosine"] for r in table["features"] if r["item"] == 5]
        assert len(cold_rows) == 3
        assert max(cold_rows) - min(cold_rows) < 1e-5

    def test_singleton_bundle_cosine_is_one(self, model_and_inputs):
        model, inputs = model_and_inputs
        table = ev.explain(model, inputs, {2})
        assert table["items"][0]["cosine"] == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# model-backed set scorer against the one-set direct gather it replaced
# ---------------------------------------------------------------------------

def random_model(rng, n, attention, d=8, item_layers=1, feat=5, cfd=3):
    import copy

    from bundlecraft.cf_pretrain import CfEmbeddings
    from bundlecraft.config import DEFAULTS, train_config
    from bundlecraft.item_encoder import ItemInputs
    from bundlecraft.trainer import init_model

    cfgd = copy.deepcopy(DEFAULTS)
    cfgd["model"].update(d=d, l_layers=item_layers)
    cfgd["ablation"].update(use_item_attention=attention, use_bundle_attention=attention)
    cf = CfEmbeddings(user_table=np.zeros((2, cfd), np.float32),
                      item_table=rng.normal(size=(n, cfd)).astype(np.float32), k_layers=1)
    present = rng.random(n) > 0.3
    inputs = ItemInputs(
        content=rng.normal(size=(n, feat)).astype(np.float32),
        feedback=np.where(present[:, None], rng.normal(size=(n, cfd)), 0.0).astype(np.float32),
        feedback_present=present,
        id_warm=rng.random(n) > 0.2,
    )
    return init_model(n, feat, cf, train_config(cfgd), rng), inputs


def one_set_oracle(model, inputs, seeds):
    """Scores of one sorted seed list by a direct gather of its rows of the
    catalog table and one 1 x d by d x N product."""
    from bundlecraft import numerics as nm
    from bundlecraft.bundle_encoder import encode_bundle
    from bundlecraft.item_encoder import encode_item_table

    cfg, ab = model.config, model.config.ablation
    dtype = nm.DTYPES[cfg.precision]
    table = encode_item_table(inputs, model.item_params, ab.use_feedback,
                              ab.use_item_attention, dtype).value
    rows = nm.constant(table[np.asarray(seeds, dtype=np.int64)], dtype)
    e = encode_bundle(rows, model.bundle_params, ab.use_bundle_attention)
    return (e.value @ np.ascontiguousarray(table.T))[0]


class TestSetScorer:
    N = 37

    def seed_lists(self, rng, count):
        """Sorted seed lists of sizes 1-5, so batches mix padded and full sets."""
        return [sorted(rng.choice(self.N, size=int(rng.integers(1, 6)), replace=False).tolist())
                for _ in range(count)]

    @pytest.mark.parametrize("attention", [True, False])
    def test_one_set_scores_byte_identical_to_oracle(self, rng, attention):
        model, inputs = random_model(rng, self.N, attention)
        scorer = ev.make_scorer(model, inputs)
        for seeds in self.seed_lists(rng, 30):
            got = scorer(seeds)
            assert got.shape == (self.N,)
            assert got.tobytes() == one_set_oracle(model, inputs, seeds).tobytes(), seeds

    @pytest.mark.parametrize("attention", [True, False])
    @pytest.mark.parametrize("chunk_sets", [None, 3])
    def test_rows_match_oracle_across_padding_and_chunks(self, rng, monkeypatch, attention,
                                                          chunk_sets):
        model, inputs = random_model(rng, self.N, attention)
        if chunk_sets is not None:
            # 11 lists score in chunks of 3, 3, 3 and 2
            monkeypatch.setattr(ev, "SCORE_CHUNK", chunk_sets * self.N)
        seed_lists = self.seed_lists(rng, 11)
        rows = list(ev.make_set_scorer(model, inputs)(seed_lists))
        assert len(rows) == len(seed_lists)
        for seeds, row in zip(seed_lists, rows):
            want = one_set_oracle(model, inputs, seeds)
            assert np.abs(row - want).max() <= 1e-5 * np.abs(want).max(), seeds
            assert ev.rank_candidates(row, set(seeds), 10) == ev.rank_candidates(
                want, set(seeds), 10)

    def test_chunk_of_one_set_is_the_one_set_scorer(self, rng, monkeypatch):
        model, inputs = random_model(rng, self.N, True)
        monkeypatch.setattr(ev, "SCORE_CHUNK", 1)
        seed_lists = self.seed_lists(rng, 5)
        rows = ev.make_set_scorer(model, inputs)(seed_lists)
        for seeds, row in zip(seed_lists, rows, strict=True):
            assert row.tobytes() == one_set_oracle(model, inputs, seeds).tobytes()

    def test_scorers_build_no_graph_node(self, rng, monkeypatch):
        from bundlecraft import numerics as nm

        model, inputs = random_model(rng, self.N, True)
        built = []
        init = nm.GraphNode.__init__

        def counted(node, *args, **kwargs):
            built.append(node)
            init(node, *args, **kwargs)

        monkeypatch.setattr(nm.GraphNode, "__init__", counted)
        scorer = ev.make_scorer(model, inputs)
        scorer([1, 4])
        score_sets = ev.make_set_scorer(model, inputs)
        assert len(list(score_sets(self.seed_lists(rng, 6)))) == 6
        assert built == []

    def test_scorer_set_up_allocates_the_table_and_a_few_tiles(self, rng):
        """make_scorer's peak allocation is the d x N table plus a few tiles of
        the forward pass (about 7 ``TILE_BYTES`` at two item layers, the
        inputs' finiteness checks included), not a graph node's backward
        caches and a transposed copy of the table."""
        import tracemalloc

        from bundlecraft.item_encoder import TILE_BYTES

        n, d = 20000, 32
        model, inputs = random_model(rng, n, True, d=d, item_layers=2, feat=8, cfd=8)
        table_bytes = n * d * 4
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            scorer = ev.make_scorer(model, inputs)
            now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table_bytes <= now - before <= table_bytes + TILE_BYTES  # one table kept
        assert peak - before <= table_bytes + 10 * TILE_BYTES, (peak - before) / TILE_BYTES
        assert scorer([0, 7]).shape == (n,)

    @pytest.mark.parametrize("where, message", [
        ("content", "constant"), ("weight", "encode_item_table"),
    ])
    def test_non_finite_model_raises_as_before(self, rng, where, message):
        from bundlecraft.errors import NonFiniteError

        model, inputs = random_model(rng, self.N, True)
        if where == "content":
            inputs.content[3, 0] = np.nan
        else:
            model.item_params.layers[0][0].value[0, 0] = np.inf
        for make in (ev.make_scorer, ev.make_set_scorer):
            with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
                    NonFiniteError, match=f"^{message} produced a non-finite value$"):
                make(model, inputs)


# ---------------------------------------------------------------------------
# the catalog score product over two threads
# ---------------------------------------------------------------------------

SWEEP = textwrap.dedent("""
    import os
    import numpy as np
    from bundlecraft import evaluation as ev

    os.sched_getaffinity = lambda pid: {0, 1}  # split on hosts of any size
    rng = np.random.default_rng(21)
    split = 0
    for dtype in (np.float32, np.float64):
        for d, n in ((16, 2048), (24, 10000), (32, 65536), (64, 50000), (64, 4096),
                     (128, 50000), (16, 160000), (48, 18016)):
            table_t = np.ascontiguousarray(rng.standard_normal((n, d)).astype(dtype).T)
            product = ev.ScoreProduct(table_t)
            top = ev.SCORE_CHUNK // n
            low = product.min_rows
            assert product.whole_because is None and low <= top, (d, n)
            for g in sorted({low - 1, low, low + 1, (low + top) // 2, top} - {0}):
                rows = rng.standard_normal((g, d)).astype(dtype)
                got = product(rows)
                assert product.splits(g) == (g >= low), (d, n, g)
                assert np.array_equal(got, rows @ table_t), (np.dtype(dtype).name, d, n, g)
                split += product.splits(g)
    print(split)
""")


def one_thread_blas_env():
    src = str(Path(bundlecraft.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.update({var: "1" for var in ev.BLAS_THREAD_VARS})
    return env


def forced_split(monkeypatch, cpus=2):
    """Let a ScoreProduct split in this process: ``cpus`` CPUs, BLAS pinned."""
    monkeypatch.setattr(ev.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(ev, "_blas_threads", lambda: 1)


def call_bounded(fn, *args, timeout=30):
    """``fn(*args)`` on a thread joined with a timeout: its result or its
    exception, and a failure if it is still running."""
    box = {}
    errstate = np.geterr()  # numpy's error state is per thread

    def run():
        try:
            with np.errstate(**errstate):
                box["result"] = fn(*args)
        except BaseException as exc:  # handed to the test
            box["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), "the score product hung"
    if "error" in box:
        raise box["error"]
    return box["result"]


def table(rng, d, n, dtype=np.float32):
    return np.ascontiguousarray(rng.standard_normal((n, d)).astype(dtype).T)


class TestScoreProduct:
    def test_split_domain_sweep_matches_the_whole_product(self):
        """In a fresh interpreter with BLAS on one thread, as the benchmark
        runs it: every split product equals ``rows @ table_t`` bit for bit,
        f32 and f64, several d and N (16-aligned halves and not), rows from
        below the work bound to ``SCORE_CHUNK // N``."""
        proc = subprocess.run([sys.executable, "-c", SWEEP], capture_output=True, text=True,
                              env=one_thread_blas_env(), timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) >= 2 * 8 * 2  # at least two split products a shape

    @pytest.mark.parametrize("d, n, g, why", [
        (64, 50001, 1, "N=50001 is not a multiple of 16"),
        (64, 19032, 20, "N=19032 is not a multiple of 16"),
        (8, 16, 5, "N=16 is below 32"),
        (32, 20000, 1, None),  # 32 * 10000 multiply-adds, under SPLIT_MIN_WORK
    ])
    def test_shapes_outside_the_domain_run_whole(self, rng, monkeypatch, d, n, g, why):
        forced_split(monkeypatch)
        product = ev.ScoreProduct(table(rng, d, n))
        assert product.whole_because == why
        rows = rng.standard_normal((g, d)).astype(np.float32)
        assert not product.splits(g)
        assert np.array_equal(product(rows), rows @ product.table_t)
        assert product._thread is None

    def test_unpinned_blas_runs_whole(self, rng, monkeypatch):
        monkeypatch.setattr(ev.os, "sched_getaffinity", lambda pid: {0, 1})
        for var in ev.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        assert ev.ScoreProduct(table(rng, 64, 50000)).describe() == "whole (BLAS on every CPU)"
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert ev.ScoreProduct(table(rng, 64, 50000)).describe() == "whole (BLAS on 2 threads)"

    @pytest.mark.parametrize("values, threads", [
        ({}, None), ({"OPENBLAS_NUM_THREADS": "1"}, 1), ({"OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 3),
    ])
    def test_blas_threads_follow_openblas_variable_order(self, monkeypatch, values, threads):
        for var in ev.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in values.items():
            monkeypatch.setenv(var, value)
        assert ev._blas_threads() == threads

    def test_one_cpu_starts_no_thread_and_keeps_the_bits(self, rng, monkeypatch):
        forced_split(monkeypatch, cpus=1)
        before = threading.active_count()
        product = ev.ScoreProduct(table(rng, 64, 50000))
        assert product.describe() == "whole (one CPU)"
        for g in (1, 20):
            rows = rng.standard_normal((g, 64)).astype(np.float32)
            assert not product.splits(g)
            assert product(rows).tobytes() == (rows @ product.table_t).tobytes()
        assert product._thread is None and threading.active_count() == before

    def test_split_runs_on_one_helper_thread_that_ends_with_the_product(self, rng, monkeypatch):
        forced_split(monkeypatch)
        product = ev.ScoreProduct(table(rng, 64, 50000))
        assert product.describe() == "split over 2 threads for 1+ rows"
        assert product.width == 24992
        rows = rng.standard_normal((1, 64)).astype(np.float32)
        for _ in range(3):
            got = call_bounded(product, rows)
            np.testing.assert_allclose(got, rows @ product.table_t, rtol=1e-5, atol=1e-5)
        helper = product._thread
        assert helper.daemon and helper.is_alive()
        del product
        gc.collect()
        helper.join(10)
        assert not helper.is_alive()

    def test_exception_in_the_helper_reaches_the_caller(self, rng, monkeypatch):
        """Only the second block's columns overflow: under ``over="raise"``
        every call raises FloatingPointError, some from the helper thread (a
        caller that finds the block unstarted raises its own); under the
        caller's ``ignore`` the helper warns nothing, and the product still
        works."""
        forced_split(monkeypatch)
        t = table(rng, 64, 50000)
        product = ev.ScoreProduct(t)
        t[:, product.width:] = 1e30
        rows = np.full((1, 64), 1e10, np.float32)
        from_helper = 0
        with np.errstate(over="raise"):
            assert np.isfinite(rows @ t[:, :product.width]).all()
            for _ in range(20):
                with pytest.raises(FloatingPointError, match="overflow") as err:
                    call_bounded(product, rows)
                frames = traceback.extract_tb(err.value.__traceback__)
                from_helper += any(f.name == "_serve_jobs" for f in frames)
        assert from_helper > 0
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            got = call_bounded(product, rows)
        assert np.isinf(got[:, product.width:]).all() and np.isfinite(got[:, :product.width]).all()
        small = rng.standard_normal((1, 64)).astype(np.float32)
        np.testing.assert_allclose(call_bounded(product, small)[:, :product.width],
                                   small @ t[:, :product.width], rtol=1e-5, atol=1e-5)

    def test_caller_computes_a_block_the_helper_has_not_started(self, rng, monkeypatch):
        """A helper held before its first job: the caller computes both blocks
        and returns; released, the helper skips that job and serves the next."""
        forced_split(monkeypatch)
        gate = threading.Event()
        serve = kernels._serve_jobs
        monkeypatch.setattr(kernels, "_serve_jobs", lambda jobs: gate.wait(60) and serve(jobs))
        product = ev.ScoreProduct(table(rng, 64, 50000))
        rows = rng.standard_normal((2, 64)).astype(np.float32)
        want = rows @ product.table_t
        try:
            np.testing.assert_allclose(call_bounded(product, rows, timeout=20), want,
                                       rtol=1e-5, atol=1e-5)
            assert product._thread.is_alive()
        finally:
            gate.set()
        for _ in range(3):
            np.testing.assert_allclose(call_bounded(product, rows), want, rtol=1e-5, atol=1e-5)

    def test_concurrent_callers_each_get_their_own_rows(self, rng, monkeypatch):
        forced_split(monkeypatch)
        product = ev.ScoreProduct(table(rng, 32, 65536))
        assert product.splits(1)
        rows = [rng.standard_normal((1 + i % 3, 32)).astype(np.float32) for i in range(6)]
        want = [r @ product.table_t for r in rows]
        wrong = []

        def caller(i):
            for _ in range(25):
                got = product(rows[i])
                if got.shape != want[i].shape or not np.allclose(got, want[i], rtol=1e-5,
                                                                  atol=1e-5):
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller, args=(i,), daemon=True)
                       for i in range(len(rows))]
            for c in callers:
                c.start()
            for c in callers:
                c.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(c.is_alive() for c in callers)
        assert wrong == []

    def test_scorers_carry_the_product_and_split_through_it(self, rng, monkeypatch):
        forced_split(monkeypatch)
        model, inputs = random_model(rng, 4096, True)
        scorer = ev.make_scorer(model, inputs)
        score_sets = ev.make_set_scorer(model, inputs)
        # d = 8: 8 * 2048 multiply-adds a row, so 64 rows split
        assert scorer.product.min_rows == score_sets.product.min_rows == 64
        assert not scorer.product.splits(1)
        seed_lists = [[i, i + 7] for i in range(0, 200, 2)]
        rows = list(score_sets(seed_lists))
        assert score_sets.product._thread is not None
        for seeds, row in zip(seed_lists, rows, strict=True):
            want = scorer(seeds)
            np.testing.assert_allclose(row, want, rtol=1e-5, atol=1e-6)
            assert ev.rank_candidates(row, set(seeds), 10) == ev.rank_candidates(
                want, set(seeds), 10)

