import re
import struct

import numpy as np
import pytest

from bundlecraft import corpus as C
from bundlecraft.errors import CorpusFormatError, InsufficientDataError, IntegrityError


# ---------------------------------------------------------------------------
# the line-by-line loader, kept as the oracle for corpus.load
# ---------------------------------------------------------------------------

def _oracle_pairs(path):
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise CorpusFormatError(f"{path}:{lineno}: expected 2 tab-separated fields")
            pairs.append((parts[0], parts[1], lineno))
    return pairs


def _oracle_item_index(path):
    rows = {}
    tokens = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise CorpusFormatError(f"{path}:{lineno}: expected token<TAB>row")
            token = parts[0]
            try:
                row = int(parts[1])
            except ValueError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: row is not an integer") from exc
            if token in tokens:
                raise CorpusFormatError(f"{path}:{lineno}: duplicate item token {token!r}")
            if row in rows:
                raise CorpusFormatError(f"{path}:{lineno}: duplicate row {row}")
            tokens[token] = row
            rows[row] = token
    n = len(rows)
    if sorted(rows) != list(range(n)):
        raise CorpusFormatError(f"{path}: rows are not dense 0..{n - 1}")
    ordered = tuple(rows[r] for r in range(n))
    return ordered, tokens


def load_oracle(data_dir):
    """corpus.load_dir as one Python loop over the lines of each file."""
    p = C.corpus_paths(data_dir)
    item_tokens, item_index = _oracle_item_index(p["index"])
    n_items = len(item_tokens)

    bundle_tokens = []
    bundle_members = []
    bundle_pos = {}
    for bt, it, lineno in _oracle_pairs(p["affiliations"]):
        if it not in item_index:
            raise IntegrityError(f"{p['affiliations']}:{lineno}: unknown item token {it!r}")
        if bt not in bundle_pos:
            bundle_pos[bt] = len(bundle_tokens)
            bundle_tokens.append(bt)
            bundle_members.append([])
        members = bundle_members[bundle_pos[bt]]
        idx = item_index[it]
        if idx in members:
            raise IntegrityError(f"{p['affiliations']}:{lineno}: duplicate item {it!r} in bundle {bt!r}")
        members.append(idx)
    for bt, members in zip(bundle_tokens, bundle_members):
        if len(members) < 2:
            raise IntegrityError(f"{p['affiliations']}: bundle {bt!r} has fewer than 2 items")
    bundles = tuple(frozenset(m) for m in bundle_members)

    user_tokens = []
    user_index = {}
    u_list = []
    i_list = []
    seen = set()
    for ut, it, lineno in _oracle_pairs(p["interactions"]):
        if it not in item_index:
            raise IntegrityError(f"{p['interactions']}:{lineno}: unknown item token {it!r}")
        if ut not in user_index:
            user_index[ut] = len(user_tokens)
            user_tokens.append(ut)
        u = user_index[ut]
        i = item_index[it]
        if (u, i) in seen:
            raise IntegrityError(f"{p['interactions']}:{lineno}: duplicate edge ({ut!r}, {it!r})")
        seen.add((u, i))
        u_list.append(u)
        i_list.append(i)
    user_idx = np.asarray(u_list, dtype=np.int64)
    item_idx = np.asarray(i_list, dtype=np.int64)
    user_degree = np.bincount(user_idx, minlength=len(user_tokens)).astype(np.int64)
    item_degree = np.bincount(item_idx, minlength=n_items).astype(np.int64)

    text, text_present = C.read_features(p["text"], expected_rows=n_items)
    media, media_present = C.read_features(p["media"], expected_rows=n_items)
    if media.shape[1] != text.shape[1]:
        raise CorpusFormatError(f"feature width mismatch: text {text.shape[1]} vs media {media.shape[1]}")
    both_absent = ~(text_present | media_present)
    if both_absent.any():
        missing = int(np.flatnonzero(both_absent)[0])
        raise IntegrityError(f"item {item_tokens[missing]!r} has neither text nor media feature")

    catalog = C.Catalog(item_tokens=item_tokens, user_tokens=tuple(user_tokens),
                        bundle_tokens=tuple(bundle_tokens), bundles=bundles,
                        item_index=dict(item_index), user_index=user_index)
    features = C.FeatureTable(text=text, text_present=text_present, media=media,
                              media_present=media_present)
    graph = C.InteractionGraph(user_idx=user_idx, item_idx=item_idx, user_degree=user_degree,
                               item_degree=item_degree)
    return catalog, features, graph


def assert_same_load(got, want):
    """Equal structures, down to dict order, dtypes and bundle iteration order."""
    (cat, feat, graph), (cat0, feat0, graph0) = got, want
    for name in ("item_tokens", "user_tokens", "bundle_tokens", "bundles"):
        assert getattr(cat, name) == getattr(cat0, name), name
    assert [list(b) for b in cat.bundles] == [list(b) for b in cat0.bundles]
    for name in ("item_index", "user_index"):
        assert list(getattr(cat, name).items()) == list(getattr(cat0, name).items()), name
    for obj, obj0 in ((feat, feat0), (graph, graph0)):
        for name in obj.__dataclass_fields__:
            a, b = getattr(obj, name), getattr(obj0, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            np.testing.assert_array_equal(a, b, err_msg=name)
    assert graph.user_idx.dtype == np.int64 and graph.item_degree.dtype == np.int64


def outcome(loader, data_dir):
    """The loaded corpus, or the class and message of the error it raised."""
    try:
        return loader(data_dir)
    except (CorpusFormatError, IntegrityError) as exc:
        return type(exc), str(exc)


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


def set_feature(path, row, value):
    """Overwrite column 1 of ``row`` in a ``BFV1`` file in place."""
    blob = bytearray(path.read_bytes())
    rows, dim = struct.unpack_from("<II", blob, 4)
    struct.pack_into("<f", blob, 12 + (rows + 7) // 8 + 4 * (dim * row + 1), value)
    path.write_bytes(blob)


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

    def test_log_line_reports_counts_and_seconds(self, tmp_path, caplog):
        write_corpus(tmp_path, [("u1", "apple"), ("u2", "apple")], BUNDLES, ITEMS)
        with caplog.at_level("INFO", logger="bundlecraft.corpus"):
            C.load_dir(tmp_path)
        assert re.fullmatch(r"corpus loaded: #U=2 #I=4 #B=2 #B-I=5 #U-I=2 in \d+\.\d{3} s",
                            caplog.messages[-1])

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

    def test_zero_feature_width_rejected(self, tmp_path):
        write_corpus(tmp_path, [], BUNDLES, ITEMS, dim=0)
        with pytest.raises(CorpusFormatError, match="dim=0"):
            C.load_dir(tmp_path)

    @pytest.mark.parametrize("edit, message", [
        (lambda blob: blob[:-1], "truncated"), (lambda blob: blob + b"\0", "1 trailing bytes"),
    ], ids=["short", "long"])
    def test_feature_file_length_checked(self, tmp_path, edit, message):
        write_corpus(tmp_path, [], BUNDLES, ITEMS)
        path = tmp_path / "features_media.bin"
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(CorpusFormatError, match=re.escape(f"{path}: ") + message):
            C.load_dir(tmp_path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_present_row_rejected(self, tmp_path, value):
        write_corpus(tmp_path, [], BUNDLES, ITEMS, absent=[2])
        path = tmp_path / "features_text.bin"
        set_feature(path, 3, value)
        message = re.escape(f"{path}: features holds a non-finite value at row 3, column 1")
        with pytest.raises(CorpusFormatError, match=message):
            C.load_dir(tmp_path)

    def test_non_finite_absent_row_ignored(self, tmp_path):
        write_corpus(tmp_path, [], BUNDLES, ITEMS, absent=[2])
        set_feature(tmp_path / "features_text.bin", 2, np.nan)
        _, features, _ = C.load_dir(tmp_path)
        assert (features.text[2] == 0).all()

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


# ---------------------------------------------------------------------------
# the vectorised loader against the oracle
# ---------------------------------------------------------------------------

# includes characters str.splitlines would break a line at, which the files do not
ALPHABET = ["a", "Z", "7", " ", "-", "'", "é", "日", "🙂", "\ufeff", "\u2028", "\x0b", "\x1c", "\x85"]
ROW_FORMS = ["{}", "{}", "{}", " {}", "+{}", "{:03d}", "{} "]


def distinct_tokens(draw, n):
    tokens = {}
    while len(tokens) < n:
        tokens["".join(draw.choice(ALPHABET, size=int(draw.integers(0, 4))).tolist())] = None
    return list(tokens)


def write_lines(path, lines, draw):
    """Write ``lines`` with random line ends, blank lines and final newline."""
    ends = ["\n", "\r\n", "\r"]
    out = []
    for line in lines:
        if draw.random() < 0.1:
            out.append(ends[int(draw.integers(3))])
        out.append(line + ends[int(draw.integers(3))])
    text = "".join(out)
    if text and draw.random() < 0.3:
        text = text.rstrip("\r\n")
    path.write_bytes(text.encode("utf-8"))


def random_corpus(draw, path):
    """A valid corpus with random tokens, row order, line ends and blank lines."""
    path.mkdir()
    n_items = int(draw.integers(2, 10))
    items = distinct_tokens(draw, n_items)
    rows = draw.permutation(n_items)
    index = [f"{items[r]}\t{draw.choice(ROW_FORMS).format(r)}" for r in rows]
    links = []
    for b in distinct_tokens(draw, int(draw.integers(0, 5))):
        members = draw.choice(n_items, size=int(draw.integers(2, min(n_items, 4) + 1)), replace=False)
        links += [f"{b}\t{items[i]}" for i in members]
    users = distinct_tokens(draw, int(draw.integers(0, 6)))
    pairs = [(u, i) for u in users for i in items]
    edges = [f"{u}\t{i}" for u, i in pairs if draw.random() < 0.4]
    for name, lines in (("item_index.tsv", index), ("affiliations.tsv", links),
                        ("interactions.tsv", edges)):
        write_lines(path / name, [lines[k] for k in draw.permutation(len(lines))], draw)
    data = draw.normal(size=(n_items, 2)).astype(np.float32)
    C.write_features(path / "features_text.bin", data, draw.random(n_items) < 0.7)
    C.write_features(path / "features_media.bin", data, np.ones(n_items, dtype=bool))
    return path


def test_load_matches_oracle_on_random_corpora(tmp_path):
    draw = np.random.default_rng(5)
    for trial in range(300):
        path = random_corpus(draw, tmp_path / str(trial))
        assert_same_load(C.load_dir(path), load_oracle(path))


@pytest.mark.parametrize("edits, seed", [(1, 6), (2, 7)])
def test_load_fails_like_oracle_on_mutated_corpora(tmp_path, edits, seed):
    """Random lines inserted, repeated or deleted: the same outcome as the oracle."""
    draw = np.random.default_rng(seed)
    failures = 0
    for trial in range(300):
        path = random_corpus(draw, tmp_path / str(trial))
        target = path / str(draw.choice(["item_index.tsv", "affiliations.tsv", "interactions.tsv"]))
        lines = target.read_text(encoding="utf-8").split("\n")
        for edit in range(edits):
            k = int(draw.integers(len(lines) + 1))
            kind = (trial + edit) % 3
            if kind == 0:
                pool = distinct_tokens(draw, 3) + [line.split("\t")[0] for line in lines]
                line = "\t".join(draw.choice(pool, size=int(draw.integers(0, 4))).tolist())
                lines.insert(k, line)
            elif kind == 1 and k < len(lines):
                lines.insert(int(draw.integers(len(lines) + 1)), lines[k])
            elif k < len(lines):
                del lines[k]
        target.write_text("\n".join(lines), encoding="utf-8")
        got, want = outcome(C.load_dir, path), outcome(load_oracle, path)
        if isinstance(want[0], type):
            failures += 1
            assert got == want, trial
        else:
            assert_same_load(got, want)
    assert failures > 100


BASE = {
    "item_index.tsv": ["apple\t0", "pear\t1", "plum\t2", "fig\t3", "kiwi\t4"],
    "affiliations.tsv": ["b0\tapple", "b0\tpear", "b1\tplum", "b1\tfig", "b1\tapple"],
    "interactions.tsv": ["u1\tapple", "u2\tpear", "u1\tplum", "u2\tfig", "u3\tkiwi"],
}

# name -> {file: {line position: replacement line}}; positions past the end append
MALFORMED = {
    "index_fields_first": {"item_index.tsv": {0: "apple 0"}},
    "index_fields_middle": {"item_index.tsv": {2: "plum\t2\t9"}},
    "index_fields_last": {"item_index.tsv": {4: "kiwi"}},
    "affiliations_fields_first": {"affiliations.tsv": {0: "b0 apple"}},
    "affiliations_fields_middle": {"affiliations.tsv": {2: "b1\tplum\t"}},
    "affiliations_fields_last": {"affiliations.tsv": {4: " "}},
    "interactions_fields_first": {"interactions.tsv": {0: "u1"}},
    "interactions_fields_middle": {"interactions.tsv": {2: "u1\t\tplum"}},
    "interactions_fields_last": {"interactions.tsv": {4: "u3 kiwi"}},
    "non_integer_row": {"item_index.tsv": {3: "fig\tthree"}},
    "duplicate_index_token": {"item_index.tsv": {3: "pear\t3"}},
    "duplicate_row": {"item_index.tsv": {3: "fig\t1"}},
    "sparse_rows": {"item_index.tsv": {4: "kiwi\t7"}},
    "unknown_item_affiliations": {"affiliations.tsv": {5: "b2\tmango"}},
    "unknown_item_interactions": {"interactions.tsv": {1: "u2\tmango"}},
    "duplicate_edge": {"interactions.tsv": {5: "u1\tplum"}},
    "duplicate_member": {"affiliations.tsv": {5: "b0\tpear"}},
    "one_item_bundle": {"affiliations.tsv": {5: "b2\tkiwi"}},
    "two_in_index": {"item_index.tsv": {1: "pear\t+x", 3: "pear\t3"}},
    "row_before_index_fields": {"item_index.tsv": {1: "pear\tx", 4: "kiwi"}},
    "token_before_index_fields": {"item_index.tsv": {3: "pear\t3", 4: "kiwi"}},
    "duplicate_row_before_index_fields": {"item_index.tsv": {2: "plum\t0", 3: "fig"}},
    "index_fields_before_row": {"item_index.tsv": {1: "pear", 3: "fig\tx"}},
    "two_in_affiliations": {"affiliations.tsv": {1: "b9\tapple", 3: "b1\tplum"}},
    "two_small_bundles": {"affiliations.tsv": {0: "b9\tapple"}},
    "two_in_interactions": {"interactions.tsv": {3: "u1\tapple", 4: "u3\tmango"}},
    "fields_after_unknown": {"interactions.tsv": {0: "u1\tmango", 4: "u3"}},
    "index_before_affiliations": {"item_index.tsv": {4: "kiwi\t9"},
                                  "affiliations.tsv": {0: "b0"}},
}


def write_edited(path, edits):
    """The BASE corpus with the lines ``edits`` names replaced or appended."""
    path.mkdir(parents=True, exist_ok=True)
    for fname, base in BASE.items():
        lines = list(base)
        for k, line in edits.get(fname, {}).items():
            lines[k : k + 1] = [line]
        (path / fname).write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    data = np.ones((len(BASE["item_index.tsv"]), 2), dtype=np.float32)
    C.write_features(path / "features_text.bin", data, np.ones(data.shape[0], dtype=bool))
    C.write_features(path / "features_media.bin", data, np.ones(data.shape[0], dtype=bool))
    return path


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_corpus_fails_like_oracle(tmp_path, name):
    path = write_edited(tmp_path, MALFORMED[name])
    want = outcome(load_oracle, path)
    assert isinstance(want[0], type), want
    assert outcome(C.load_dir, path) == want


def test_malformed_battery_pins_precedence(tmp_path):
    """Which of two violations wins, and at which line, as the oracle reports it."""
    expected = {
        "two_in_index": "item_index.tsv:2: row is not an integer",
        "row_before_index_fields": "item_index.tsv:2: row is not an integer",
        "token_before_index_fields": "item_index.tsv:4: duplicate item token 'pear'",
        "duplicate_row_before_index_fields": "item_index.tsv:3: duplicate row 0",
        "index_fields_before_row": "item_index.tsv:2: expected token<TAB>row",
        "two_in_affiliations": "affiliations.tsv:4: duplicate item 'plum' in bundle 'b1'",
        "two_small_bundles": "affiliations.tsv: bundle 'b9' has fewer than 2 items",
        "two_in_interactions": "interactions.tsv:4: duplicate edge ('u1', 'apple')",
        "fields_after_unknown": "interactions.tsv:5: expected 2 tab-separated fields",
        "index_before_affiliations": "item_index.tsv: rows are not dense 0..4",
    }
    for name, tail in expected.items():
        _, message = outcome(C.load_dir, write_edited(tmp_path / name, MALFORMED[name]))
        assert message.endswith(tail), (name, message)


def test_base_corpus_loads(tmp_path):
    path = write_edited(tmp_path, {})
    assert_same_load(C.load_dir(path), load_oracle(path))


def test_invalid_utf8_names_file_and_line(tmp_path):
    write_corpus(tmp_path, [("u1", "apple")], BUNDLES, ITEMS)
    with open(tmp_path / "interactions.tsv", "ab") as fh:
        fh.write(b"u2\tpear\r\nu\xff\tapple\n")
    with pytest.raises(CorpusFormatError, match=r"interactions\.tsv:3: not valid UTF-8"):
        C.load_dir(tmp_path)


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
