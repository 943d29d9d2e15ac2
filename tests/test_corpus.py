import numpy as np
import pytest

from bundlecraft import corpus as C
from bundlecraft.errors import CorpusFormatError, InsufficientDataError, IntegrityError


def write_corpus(tmp_path, interactions, affiliations, items, dim=4, absent=()):
    (tmp_path / "interactions.tsv").write_text(
        "".join(f"{u}\t{i}\n" for u, i in interactions), encoding="utf-8"
    )
    (tmp_path / "affiliations.tsv").write_text(
        "".join(f"{b}\t{i}\n" for b, i in affiliations), encoding="utf-8"
    )
    (tmp_path / "item_index.tsv").write_text(
        "".join(f"{tok}\t{r}\n" for r, tok in enumerate(items)), encoding="utf-8"
    )
    n = len(items)
    rng = np.random.default_rng(0)
    present = np.ones(n, dtype=bool)
    for a in absent:
        present[a] = False
    data = rng.normal(size=(n, dim)).astype(np.float32)
    C.write_features(tmp_path / "features_text.bin", data, present)
    C.write_features(tmp_path / "features_media.bin", data + 1, np.ones(n, dtype=bool))
    return tmp_path


ITEMS = ["apple", "pear", "plum", "fig"]
BUNDLES = [("b0", "apple"), ("b0", "pear"), ("b1", "plum"), ("b1", "fig"), ("b1", "apple")]


class TestLoad:
    def test_empty_interactions_ok(self, tmp_path):
        write_corpus(tmp_path, [], BUNDLES, ITEMS)
        catalog, features, graph = C.load_dir(tmp_path)
        assert graph.n_edges == 0
        assert catalog.n_users == 0
        assert catalog.n_bundles == 2
        assert (graph.item_degree == 0).all()

    def test_duplicate_edge_rejected_with_line(self, tmp_path):
        edges = [("u1", "apple"), ("u2", "pear"), ("u1", "plum"), ("u1", "apple")]
        write_corpus(tmp_path, edges, BUNDLES, ITEMS)
        with pytest.raises(IntegrityError, match=r":4"):
            C.load_dir(tmp_path)

    def test_unknown_item_in_bundle_rejected_with_line(self, tmp_path):
        write_corpus(tmp_path, [], BUNDLES + [("b2", "mango"), ("b2", "apple")], ITEMS)
        with pytest.raises(IntegrityError, match="mango"):
            C.load_dir(tmp_path)

    def test_duplicate_item_in_bundle_rejected(self, tmp_path):
        write_corpus(tmp_path, [], BUNDLES + [("b0", "apple")], ITEMS)
        with pytest.raises(IntegrityError, match="duplicate item"):
            C.load_dir(tmp_path)

    def test_tiny_bundle_rejected(self, tmp_path):
        write_corpus(tmp_path, [], BUNDLES + [("b2", "fig")], ITEMS)
        with pytest.raises(IntegrityError, match="fewer than 2"):
            C.load_dir(tmp_path)

    def test_feature_row_count_mismatch(self, tmp_path):
        write_corpus(tmp_path, [], BUNDLES, ITEMS)
        data = np.zeros((2, 4), dtype=np.float32)
        C.write_features(tmp_path / "features_text.bin", data, np.ones(2, dtype=bool))
        with pytest.raises(CorpusFormatError, match="feature rows"):
            C.load_dir(tmp_path)

    def test_bad_magic(self, tmp_path):
        write_corpus(tmp_path, [], BUNDLES, ITEMS)
        (tmp_path / "features_text.bin").write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CorpusFormatError, match="magic"):
            C.load_dir(tmp_path)

    def test_absent_rows_flagged_and_zeroed(self, tmp_path):
        write_corpus(tmp_path, [], BUNDLES, ITEMS, absent=[2])
        _, features, _ = C.load_dir(tmp_path)
        assert not features.text_present[2]
        assert (features.text[2] == 0).all()
        assert features.text_present[[0, 1, 3]].all()

    def test_both_modalities_absent_rejected(self, tmp_path):
        write_corpus(tmp_path, [], BUNDLES, ITEMS, absent=[1])
        data = np.zeros((4, 4), dtype=np.float32)
        present = np.array([True, False, True, True])
        C.write_features(tmp_path / "features_media.bin", data, present)
        with pytest.raises(IntegrityError, match="pear"):
            C.load_dir(tmp_path)

    def test_sparse_index_rejected(self, tmp_path):
        write_corpus(tmp_path, [], BUNDLES, ITEMS)
        (tmp_path / "item_index.tsv").write_text("apple\t0\npear\t2\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="dense"):
            C.load_dir(tmp_path)


def test_round_trip(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    edges = [("u1", "apple"), ("u1", "plum"), ("u2", "pear")]
    write_corpus(src, edges, BUNDLES, ITEMS, absent=[3])
    catalog, features, graph = C.load_dir(src)
    dst = tmp_path / "dst"
    C.save(dst, catalog, features, graph)
    catalog2, features2, graph2 = C.load_dir(dst)
    assert catalog2.item_tokens == catalog.item_tokens
    assert catalog2.user_tokens == catalog.user_tokens
    assert catalog2.bundles == catalog.bundles
    np.testing.assert_array_equal(features2.text, features.text)
    np.testing.assert_array_equal(features2.text_present, features.text_present)
    np.testing.assert_array_equal(graph2.user_idx, graph.user_idx)
    np.testing.assert_array_equal(graph2.item_idx, graph.item_idx)


class TestSplit:
    def test_ten_bundles(self):
        train, val, test = C.split_indices(10, seed=1)
        assert (len(train), len(val), len(test)) == (8, 1, 1)

    def test_twenty_bundles(self):
        train, val, test = C.split_indices(20, seed=1)
        assert (len(train), len(val), len(test)) == (16, 2, 2)

    def test_deterministic(self):
        assert C.split_indices(37, seed=5) == C.split_indices(37, seed=5)

    def test_partition_exhaustive_disjoint(self):
        for total in (10, 11, 23, 100):
            train, val, test = C.split_indices(total, seed=3)
            combined = sorted(train + val + test)
            assert combined == list(range(total))

    def test_too_few_bundles(self):
        with pytest.raises(InsufficientDataError):
            C.split_indices(9, seed=0)


class TestSamplePartial:
    def test_half_split(self):
        rng = np.random.default_rng(0)
        view = C.sample_partial({1, 2, 3, 4}, 0.5, rng)
        assert len(view.seeds) == 2 and len(view.targets) == 2

    def test_clamped_pair(self):
        rng = np.random.default_rng(0)
        view = C.sample_partial({7, 9}, 0.9, rng)
        assert len(view.seeds) == 1 and len(view.targets) == 1

    def test_partition_of_bundle(self):
        rng = np.random.default_rng(0)
        bundle = {3, 1, 4, 1, 5, 9, 2, 6}
        view = C.sample_partial(bundle, 0.4, rng)
        assert view.seeds | view.targets == set(bundle)
        assert not view.seeds & view.targets

    def test_too_small_bundle(self):
        with pytest.raises(IntegrityError):
            C.sample_partial({1}, 0.5, np.random.default_rng(0))

    def test_uniform_seed_frequency(self):
        rng = np.random.default_rng(42)
        bundle = [10, 11, 12, 13, 14]
        counts = {i: 0 for i in bundle}
        draws = 10_000
        for _ in range(draws):
            view = C.sample_partial(bundle, 0.5, rng)
            for s in view.seeds:
                counts[s] += 1
        for i in bundle:
            assert abs(counts[i] / draws - 0.4) < 0.02


class TestCorruptPartial:
    def view(self):
        return C.PartialBundleView(0, frozenset({1, 2, 3, 4}), frozenset({5, 6}))

    def test_rate_zero_identity(self):
        rng = np.random.default_rng(0)
        for mode in ("sparsify", "noisify"):
            assert C.corrupt_partial(self.view(), mode, 0.0, rng, 100) == self.view()

    def test_sparsify_half(self):
        rng = np.random.default_rng(0)
        out = C.corrupt_partial(self.view(), "sparsify", 0.5, rng, 100)
        assert len(out.seeds) == 2
        assert out.seeds <= self.view().seeds
        assert out.targets == self.view().targets

    def test_sparsify_keeps_at_least_one(self):
        rng = np.random.default_rng(0)
        v = C.PartialBundleView(0, frozenset({1, 2}), frozenset({3}))
        out = C.corrupt_partial(v, "sparsify", 0.9, rng, 100)
        assert len(out.seeds) == 1

    def test_noisify_adds_nonmembers(self):
        rng = np.random.default_rng(0)
        out = C.corrupt_partial(self.view(), "noisify", 0.5, rng, 100)
        assert len(out.seeds) == 6
        added = out.seeds - self.view().seeds
        assert len(added) == 2
        assert not added & (self.view().seeds | self.view().targets)

    def test_noise_never_hits_targets(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            out = C.corrupt_partial(self.view(), "noisify", 0.9, rng, 12)
            assert not (out.seeds - self.view().seeds) & self.view().targets

    def test_rate_out_of_range(self):
        with pytest.raises(IntegrityError):
            C.corrupt_partial(self.view(), "sparsify", 0.95, np.random.default_rng(0), 100)


def perturb_oracle(view, mode, ratio, rng, n_items):
    """The per-mode seed perturbations as separate Python loops: sparsify and
    ID drop seeds, noisify adds non-members, IR drops and then adds."""
    seeds = sorted(view.seeds)
    k = int(ratio * len(seeds))
    if mode in ("sparsify", "ID"):
        k = min(k, len(seeds) - 1)
    if k <= 0:
        return view
    member = view.seeds | view.targets
    candidates = np.asarray([i for i in range(n_items) if i not in member], dtype=np.int64)
    new = view.seeds
    if mode in ("sparsify", "ID", "IR"):
        drop = set(int(x) for x in rng.choice(len(seeds), size=k, replace=False))
        new = frozenset(s for pos, s in enumerate(seeds) if pos not in drop)
    if mode in ("noisify", "IR"):
        new = new | frozenset(int(x) for x in rng.choice(candidates, size=k, replace=False))
    return C.PartialBundleView(view.bundle_index, new, view.targets)


def test_seed_perturbations_match_loop_oracle():
    from bundlecraft.contrastive import augment_bundle
    from test_contrastive import aug_config

    draw = np.random.default_rng(17)
    for trial in range(300):
        n_items = int(draw.integers(12, 60))
        items = draw.permutation(n_items)
        n_seeds = int(draw.integers(1, 7))
        view = C.PartialBundleView(trial, frozenset(int(i) for i in items[:n_seeds]),
                                   frozenset(int(i) for i in items[n_seeds: n_seeds + 3]))
        mode = ("sparsify", "noisify", "ID", "IR")[trial % 4]
        ratio = float(draw.choice([0.0, 0.25, 0.5, 0.9]))
        got_rng, want_rng = np.random.default_rng(trial), np.random.default_rng(trial)
        if mode in ("sparsify", "noisify"):
            got = C.corrupt_partial(view, mode, ratio, got_rng, n_items)
        else:
            cfg = aug_config(dropout_ratio=ratio)
            got = augment_bundle(view, mode, cfg, got_rng, n_items)
        assert got == perturb_oracle(view, mode, ratio, want_rng, n_items), (trial, mode)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
