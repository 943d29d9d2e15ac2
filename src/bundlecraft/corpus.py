"""Corpus loading, validation, splitting and partial-bundle views.

Three information sources are served: bundle-item affiliations, user-item
interactions and per-item content features. File formats:

* interactions: UTF-8 text, one ``user_token<TAB>item_token`` per line.
* affiliations: UTF-8 text, one ``bundle_token<TAB>item_token`` per line.
* item index:   UTF-8 text, one ``item_token<TAB>row`` per line, rows
  0..N-1 dense.

  In these three files lines end in LF, CRLF or CR, blank lines are
  skipped and every other line holds exactly one TAB; tokens may contain
  anything else, spaces included. Each file is read at once and checked
  with array operations.
* features:     binary, magic ``BFV1``, u32 LE row count, u32 LE dim >= 1,
  presence bitmap of ceil(rows/8) bytes (bit r%8 of byte r//8 set = row
  present), then rows*dim float32 LE values row-major and nothing more.
  Absent rows occupy space but their content is ignored (zeroed on load);
  a NaN or inf in a present row is a format error (exit 2).

All loaded structures are immutable after load; rng state is owned by the
caller everywhere randomness is involved.
"""

import logging
import re
import struct
import time
from dataclasses import dataclass, field
from itertools import islice, repeat

import numpy as np

from .binio import Reader
from .errors import CorpusFormatError, InsufficientDataError, IntegrityError

log = logging.getLogger(__name__)

FEATURE_MAGIC = b"BFV1"


@dataclass(frozen=True)
class Catalog:
    """Interned id tables plus the bundle list (order = affiliations file order)."""

    item_tokens: tuple
    user_tokens: tuple
    bundle_tokens: tuple
    bundles: tuple  # tuple of frozenset[int]
    item_index: dict = field(repr=False)
    user_index: dict = field(repr=False)

    @property
    def n_items(self):
        return len(self.item_tokens)

    @property
    def n_users(self):
        return len(self.user_tokens)

    @property
    def n_bundles(self):
        return len(self.bundles)


@dataclass(frozen=True)
class FeatureTable:
    """Raw per-item content features with explicit presence flags."""

    text: np.ndarray
    text_present: np.ndarray
    media: np.ndarray
    media_present: np.ndarray

    @property
    def dim(self):
        return self.text.shape[1]


@dataclass(frozen=True)
class InteractionGraph:
    """User-item bipartite edges with per-node degrees."""

    user_idx: np.ndarray
    item_idx: np.ndarray
    user_degree: np.ndarray
    item_degree: np.ndarray

    @property
    def n_edges(self):
        return int(self.user_idx.shape[0])

    @property
    def n_users(self):
        return int(self.user_degree.shape[0])

    @property
    def n_items(self):
        return int(self.item_degree.shape[0])


@dataclass(frozen=True)
class PartialBundleView:
    """Seed items of a bundle plus the missing items to predict."""

    bundle_index: int
    seeds: frozenset
    targets: frozenset

    def __post_init__(self):
        if self.seeds & self.targets:
            raise IntegrityError("partial view: seeds and targets overlap")
        if not self.seeds or not self.targets:
            raise IntegrityError("partial view: seeds and targets must both be nonempty")


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------

def _read_tsv(path):
    """Read a two-field TSV file at once: ``(first fields, second fields, line numbers, bad line)``.

    Line ends are translated as text mode does (CRLF and lone CR become LF),
    blank lines are skipped, and every other line must hold exactly one TAB.
    ``bad line`` is the number of the first line that does not, or None; the
    fields and line numbers cover the lines before it.
    """
    with open(path, "rb") as fh:
        raw = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise CorpusFormatError(f"{path}:{lineno}: not valid UTF-8") from None
    # one pass over the bytes: where each line ends, and how many TABs it holds
    # (both are ASCII, so never part of a multi-byte character)
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(buf == 10)
    if not raw.endswith(b"\n"):
        ends = np.append(ends, len(raw))  # the last line has no newline
    sizes = np.diff(ends, prepend=-1)  # line length plus its newline
    filled = sizes > 1
    tabs = np.bincount(np.searchsorted(ends, np.flatnonzero(buf == 9)), minlength=len(ends))
    bad = _first(filled & (tabs != 1))
    if bad is not None:  # keep the lines before it
        text = raw[: ends[bad] - sizes[bad] + 1].decode("utf-8")
        filled = filled[:bad]
        bad += 1
    lines = np.flatnonzero(filled) + 1
    n = len(lines)
    fields = re.sub("\n\n+", "\n", text).strip("\n").replace("\t", "\n").split("\n")
    return fields[0 : 2 * n : 2], fields[1 : 2 * n : 2], lines, bad


def _first(mask):
    """Position of the first True in ``mask``, or None."""
    return int(np.argmax(mask)) if mask.any() else None


def _intern(values):
    """Number the distinct values by first appearance: ``(distinct, index, codes)``."""
    distinct = list(dict.fromkeys(values))
    index = dict(zip(distinct, range(len(distinct))))
    codes = np.fromiter(map(index.__getitem__, values), dtype=np.int64, count=len(values))
    return distinct, index, codes


def _first_repeat(values):
    """Position of the first value equal to an earlier one, or None."""
    if not isinstance(values, np.ndarray):
        if len(set(values)) == len(values):
            return None
        values = _intern(values)[2]
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    later = order[1:][ranked[1:] == ranked[:-1]]
    return int(later.min()) if later.size else None


def _parse_ints(texts):
    """``int`` of each text up to the first that is not an integer.

    Returns ``(ints, position of that text or None)``.
    """
    try:
        return list(map(int, texts)), None
    except ValueError:
        pass
    ints = []  # error path only: find the text ``int`` rejects
    for text in texts:
        try:
            ints.append(int(text))
        except ValueError:
            return ints, len(ints)


def _read_item_index(path):
    """Item tokens in row order, and the token -> row dict in file order."""
    tokens, row_texts, lines, bad_line = _read_tsv(path)
    rows, bad_row = _parse_ints(row_texts)
    # checked line by line: fields, integer row, then token, then row uniqueness;
    # the fields stop before the first bad field line, so that error comes last
    dup_token = _first_repeat(tokens[: len(rows)])
    dup_row = _first_repeat(rows)
    if dup_token is not None and (dup_row is None or dup_token <= dup_row):
        raise CorpusFormatError(f"{path}:{lines[dup_token]}: duplicate item token {tokens[dup_token]!r}")
    if dup_row is not None:
        raise CorpusFormatError(f"{path}:{lines[dup_row]}: duplicate row {rows[dup_row]}")
    if bad_row is not None:
        raise CorpusFormatError(f"{path}:{lines[bad_row]}: row is not an integer")
    if bad_line is not None:
        raise CorpusFormatError(f"{path}:{bad_line}: expected token<TAB>row")
    n = len(rows)
    if n and (min(rows) < 0 or max(rows) >= n):  # n distinct rows are 0..n-1 iff all lie in range
        raise CorpusFormatError(f"{path}: rows are not dense 0..{n - 1}")
    ordered = tuple(map(tokens.__getitem__, np.argsort(np.asarray(rows, dtype=np.int64)).tolist()))
    return ordered, dict(zip(tokens, rows))


def _read_links(path, item_index, what):
    """Read ``owner<TAB>item`` lines: ``(owner tokens, {token: number}, owner codes, item codes)``.

    Owners are numbered by first appearance. Line by line, an unknown item
    and then a repeated (owner, item) pair are errors; ``what(owner, item)``
    words the latter.
    """
    owner_texts, item_texts, lines, bad_line = _read_tsv(path)
    if bad_line is not None:
        raise CorpusFormatError(f"{path}:{bad_line}: expected 2 tab-separated fields")
    n = len(item_texts)
    items = np.fromiter(map(item_index.get, item_texts, repeat(-1)), dtype=np.int64, count=n)
    unknown = _first(items < 0)
    known = n if unknown is None else unknown
    owners, owner_index, codes = _intern(owner_texts[:known])
    items = items[:known]
    dup = _first_repeat(codes * len(item_index) + items)
    if dup is not None:
        raise IntegrityError(f"{path}:{lines[dup]}: {what(owner_texts[dup], item_texts[dup])}")
    if unknown is not None:
        raise IntegrityError(f"{path}:{lines[unknown]}: unknown item token {item_texts[unknown]!r}")
    return owners, owner_index, codes, items


def read_features(path, expected_rows=None):
    """Read one binary feature file; returns (matrix, presence flags)."""
    reader = Reader(path, FEATURE_MAGIC)
    rows, dim = reader.u32(2)
    if expected_rows is not None and rows != expected_rows:
        raise CorpusFormatError(f"{path}: {rows} feature rows, item index has {expected_rows}")
    if dim < 1:
        raise CorpusFormatError(f"{path}: feature width dim={dim}, must be >= 1")
    bitmap = np.frombuffer(reader.take((rows + 7) // 8), dtype=np.uint8)
    present = np.unpackbits(bitmap, count=rows, bitorder="little").astype(bool)
    data = reader.f32(rows, dim, "features", present=present)  # absent rows' content is ignored
    reader.end()
    return data, present


def write_features(path, data, present):
    rows, dim = data.shape
    bitmap = np.packbits(present.astype(np.uint8), bitorder="little")
    bitmap_len = (rows + 7) // 8
    if bitmap.shape[0] < bitmap_len:
        bitmap = np.pad(bitmap, (0, bitmap_len - bitmap.shape[0]))
    out = data.astype("<f4", copy=True)
    out[~np.asarray(present, dtype=bool)] = 0.0
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<II", rows, dim))
        fh.write(bitmap.tobytes())
        fh.write(out.tobytes())


def load(interactions_path, affiliations_path, text_feat_path, media_feat_path, index_path):
    """Load, validate and intern the full corpus.

    Returns ``(catalog, features, graph)``. The first violation found raises
    :class:`CorpusFormatError` (file format) or :class:`IntegrityError`
    (unknown tokens, duplicate edges, malformed bundles) naming the file and,
    where there is one, the line. The checks run in this order: the item
    index, line by line and then for dense rows; the affiliations, for the
    line format anywhere in the file, then line by line for unknown items and
    repeated members, then for bundles of fewer than 2 items in order of
    first appearance; the interactions, likewise; then the feature files.
    """
    started = time.perf_counter()
    item_tokens, item_index = _read_item_index(index_path)
    n_items = len(item_tokens)

    # bundles, in file order; membership must be duplicate-free and size >= 2
    bundle_tokens, _, bundle_of, members = _read_links(
        affiliations_path, item_index, lambda bt, it: f"duplicate item {it!r} in bundle {bt!r}"
    )
    sizes = np.bincount(bundle_of, minlength=len(bundle_tokens))
    small = _first(sizes < 2)
    if small is not None:
        raise IntegrityError(f"{affiliations_path}: bundle {bundle_tokens[small]!r} has fewer than 2 items")
    # each bundle's members in file order, cut from one iterator by the bundle sizes
    flat = iter(members[np.argsort(bundle_of, kind="stable")].tolist())
    bundles = tuple(map(frozenset, map(islice, repeat(flat), sizes.tolist())))

    # interactions; users interned in first-appearance order
    user_tokens, user_index, user_idx, item_idx = _read_links(
        interactions_path, item_index, lambda ut, it: f"duplicate edge ({ut!r}, {it!r})"
    )
    n_users = len(user_tokens)
    user_degree = np.bincount(user_idx, minlength=n_users).astype(np.int64)
    item_degree = np.bincount(item_idx, minlength=n_items).astype(np.int64)

    text, text_present = read_features(text_feat_path, expected_rows=n_items)
    media, media_present = read_features(media_feat_path, expected_rows=n_items)
    if media.shape[1] != text.shape[1]:
        raise CorpusFormatError(
            f"feature width mismatch: text {text.shape[1]} vs media {media.shape[1]}"
        )
    both_absent = ~(text_present | media_present)
    if both_absent.any():
        missing = int(np.flatnonzero(both_absent)[0])
        raise IntegrityError(
            f"item {item_tokens[missing]!r} has neither text nor media feature"
        )

    catalog = Catalog(
        item_tokens=item_tokens,
        user_tokens=tuple(user_tokens),
        bundle_tokens=tuple(bundle_tokens),
        bundles=bundles,
        item_index=item_index,
        user_index=user_index,
    )
    features = FeatureTable(text=text, text_present=text_present, media=media, media_present=media_present)
    graph = InteractionGraph(
        user_idx=user_idx, item_idx=item_idx, user_degree=user_degree, item_degree=item_degree
    )
    log.info(
        "corpus loaded: #U=%d #I=%d #B=%d #B-I=%d #U-I=%d in %.3f s",
        catalog.n_users,
        catalog.n_items,
        catalog.n_bundles,
        len(members),
        graph.n_edges,
        time.perf_counter() - started,
    )
    return catalog, features, graph


def corpus_paths(data_dir):
    """Standard file names inside a corpus directory."""
    import os

    return {
        "interactions": os.path.join(data_dir, "interactions.tsv"),
        "affiliations": os.path.join(data_dir, "affiliations.tsv"),
        "index": os.path.join(data_dir, "item_index.tsv"),
        "text": os.path.join(data_dir, "features_text.bin"),
        "media": os.path.join(data_dir, "features_media.bin"),
    }


def load_dir(data_dir):
    p = corpus_paths(data_dir)
    return load(p["interactions"], p["affiliations"], p["text"], p["media"], p["index"])


# ---------------------------------------------------------------------------
# splitting and partial views
# ---------------------------------------------------------------------------

def split_indices(total, seed):
    """8:1:1 partition of range(total): floor/floor/remainder, shuffled by ``seed``."""
    if total < 10:
        raise InsufficientDataError(f"need at least 10 bundles to split, have {total}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(total)
    n_train = int(0.8 * total)
    n_val = int(0.1 * total)
    train = sorted(int(b) for b in order[:n_train])
    val = sorted(int(b) for b in order[n_train : n_train + n_val])
    test = sorted(int(b) for b in order[n_train + n_val :])
    return train, val, test


def split_bundles(catalog, seed):
    """Partition bundle indices 8:1:1; the shuffle is driven solely by ``seed``."""
    return split_indices(catalog.n_bundles, seed)


def sample_partial(bundle, seed_ratio, rng, bundle_index=-1):
    """Draw a seed/target split of one bundle, uniformly without replacement.

    ``|seeds| = max(1, floor(seed_ratio * |bundle|))``; if that would leave
    no targets one item is moved back.
    """
    items = sorted(bundle)
    n = len(items)
    if n < 2:
        raise IntegrityError(f"bundle must have >= 2 items, has {n}")
    if not 0.0 < seed_ratio < 1.0:
        raise IntegrityError(f"seed_ratio must lie in (0, 1), got {seed_ratio}")
    n_seeds = max(1, int(seed_ratio * n))
    if n_seeds >= n:
        n_seeds = n - 1
    order = rng.permutation(n)
    seeds = frozenset(items[k] for k in order[:n_seeds])
    targets = frozenset(items[k] for k in order[n_seeds:])
    return PartialBundleView(bundle_index=bundle_index, seeds=seeds, targets=targets)


def perturb_seeds(view, rng, n_items, drop=0, add=0):
    """Drop ``drop`` seeds, then add ``add`` items from outside the bundle.

    The dropped seeds are uniform positions of the sorted seed list; the
    added items are uniform, without replacement, among the catalog items
    that are neither seeds nor targets. Targets are untouched, and a view
    with nothing to drop or add comes back as it is.
    """
    if drop <= 0 and add <= 0:
        return view
    seeds = sorted(view.seeds)
    if add > 0:
        member = np.fromiter(view.seeds | view.targets, dtype=np.int64)
        candidates = np.setdiff1d(np.arange(n_items, dtype=np.int64), member)
        if candidates.shape[0] < add:
            raise IntegrityError(f"only {candidates.shape[0]} non-member items to add {add}")
    kept = view.seeds
    if drop > 0:
        gone = set(int(x) for x in rng.choice(len(seeds), size=drop, replace=False))
        kept = frozenset(s for pos, s in enumerate(seeds) if pos not in gone)
    if add > 0:
        kept = kept | frozenset(int(x) for x in rng.choice(candidates, size=add, replace=False))
    return PartialBundleView(view.bundle_index, kept, view.targets)


def corrupt_partial(view, mode, rate, rng, n_items):
    """Corrupt a view's seed set for robustness protocols; targets unchanged.

    ``sparsify`` removes ``floor(rate * |seeds|)`` seeds (at least one seed
    always survives); ``noisify`` adds that many uniformly random items that
    belong neither to the seeds nor to the targets of the original bundle.
    """
    if not 0.0 <= rate <= 0.9:
        raise IntegrityError(f"corruption rate must lie in [0, 0.9], got {rate}")
    k = int(rate * len(view.seeds))
    if mode == "sparsify":
        return perturb_seeds(view, rng, n_items, drop=min(k, len(view.seeds) - 1))
    if mode == "noisify":
        return perturb_seeds(view, rng, n_items, add=k)
    raise IntegrityError(f"unknown corruption mode {mode!r}")


def warm_items(catalog, train_bundle_indices):
    """Items that appear in at least one training bundle."""
    warm = set()
    for b in train_bundle_indices:
        warm |= catalog.bundles[b]
    return frozenset(warm)
