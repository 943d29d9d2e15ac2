"""Ranking metrics, evaluation protocols, the set scorer and the explainer.

A model scores seed sets on one batched path: :func:`make_set_scorer`
chunks many sets through it and :func:`make_scorer` scores a batch of one.
Set-up encodes the catalog forward only, building no graph, straight into
one contiguous d x N table, the only copy of the table the scorer holds;
seed rows are gathered from its transpose. Scores are one product of the
batch's set vectors with that table, run by :class:`ScoreProduct`: where
that is known to keep the bits of the product taken whole on one thread,
the calling thread computes the first half of the columns and a helper
thread the second, so both CPUs of a two-CPU host read the table (it stays
in the last-level cache between queries, so one core's read rate, not
memory, bounded the whole product).
Metrics use binary relevance. Seeds that the encoder actually saw
(post-corruption, for the sparsify/noisify settings) are excluded from the
candidate pool: the task is completion, not re-retrieval. The warm setting
keeps only test bundles whose seeds and targets consist entirely of items
seen in at least one training bundle.
"""

import functools
import math
import os
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from . import numerics as nm
from .bundle_encoder import _encode, attention_matrices, encode_sets_forward
from .corpus import corrupt_partial
from .errors import IntegrityError
from .item_encoder import attended_slots, encode_item_table_forward

SETTINGS = ("standard", "warm", "sparsify", "noisify")

# score elements per batch of seed sets (4 MiB of float32): scoring many sets
# holds one batch's score rows at a time
SCORE_CHUNK = 1 << 20
# ScoreProduct splits only where the split was measured to give the whole
# product's bits (OpenBLAS 0.3.31, Haswell kernels, one BLAS thread; f32 and
# f64, d 16-128, 1-104 rows, N 2k-160k): N a multiple of SPLIT_ALIGN, the
# first block SPLIT_ALIGN-aligned, and rows * d * N/2 of at least
# SPLIT_MIN_WORK. A one-row f32 product outside that domain differed in up to
# 81% of its elements, and 18 one-row f32 shapes inside it did with BLAS on
# two threads.
SPLIT_ALIGN = 16
SPLIT_MIN_WORK = 1 << 20
# the variables OpenBLAS takes its thread count from, in its order; with none
# set it runs on every CPU
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# rows of the view whose column maxima bound the k-th score in
# rank_candidates; 16, 32 and 64 rows ranked 50k-item score rows in about the
# same time, and fewer rows mean more columns to select the cut from
RANK_GROUPS = 32


def rank_candidates(scores, excluded, k):
    """Top-k item indices by descending score, ties broken by ascending index.

    ``excluded`` holds integer item ids that are never returned; ids outside
    ``[0, len(scores))`` are ignored. ``-inf`` ranks below every finite score
    and NaN below ``-inf``. Fewer than ``k`` indices come back when fewer
    items are left.

    Only the items at or above a cut are sorted, every tie at the cut
    included. The cut comes from the column maxima of the row's first
    ``RANK_GROUPS * c`` scores seen as a ``RANK_GROUPS`` x ``c`` array, with
    ``c = n // RANK_GROUPS``: it is the ``need``-th largest of the ``c``
    maxima, where ``need`` is ``k`` plus the number of in-range excluded ids.
    This is exact: each column maximum is a different item, so at least
    ``need`` items score at or above the cut and at least ``k`` of them are
    kept; the k-th best kept score, and every tie with it, is therefore at or
    above the cut. Items past the grouped head are compared with the cut
    too. When ``c <= need`` (k of about n / RANK_GROUPS or more) or a column
    maximum is NaN, every kept item is sorted instead.
    """
    if k < 1:
        raise IntegrityError(f"k must be >= 1, got {k}")
    scores = np.asarray(scores).reshape(-1)
    n = scores.shape[0]
    drop = [i for i in excluded if 0 <= i < n]
    need = k + len(drop)
    c = n // RANK_GROUPS
    hit = None
    if c > need:
        col_max = scores[: RANK_GROUPS * c].reshape(RANK_GROUPS, c).max(axis=0)
        if not np.isnan(col_max).any():
            hit = scores >= np.partition(col_max, c - need)[c - need]
    if hit is None:
        hit = np.ones(n, dtype=bool)
    hit[drop] = False
    cand = np.flatnonzero(hit)
    order = np.lexsort((cand, -scores[cand]))
    return cand[order[:k]].tolist()


def recall_at_k(ranked, targets, k):
    if not targets:
        raise IntegrityError("recall_at_k: empty target set")
    hits = sum(1 for i in ranked[:k] if i in targets)
    return hits / len(targets)


def ndcg_at_k(ranked, targets, k):
    """Binary-relevance NDCG with the ideal DCG truncated at min(k, |targets|)."""
    if not targets:
        raise IntegrityError("ndcg_at_k: empty target set")
    dcg = 0.0
    for pos, item in enumerate(ranked[:k], start=1):
        if item in targets:
            dcg += 1.0 / math.log2(pos + 1)
    ideal = sum(1.0 / math.log2(p + 1) for p in range(1, min(k, len(targets)) + 1))
    return dcg / ideal


@dataclass
class EvalReport:
    setting: str
    k: int
    recall: float | None
    ndcg: float | None
    n_bundles: int
    per_bundle: list = field(default_factory=list)

    @property
    def empty(self):
        return self.n_bundles == 0


def evaluate(score_sets, views, k, setting="standard", rate=0.0, rng=None, n_items=None,
             warm=None):
    """Score every view with a set scorer, ``score_sets(sorted_seed_lists)``
    yielding one row of N scores per list (see :func:`make_set_scorer`).

    ``setting`` selects the protocol; sparsify/noisify corrupt the seed set
    first (``rng`` and ``n_items`` required), warm filters views through the
    ``warm`` item set. An exhausted warm filter yields an explicit empty
    report rather than an error.
    """
    tag = setting if setting in ("standard", "warm") else f"{setting}({rate})"
    if setting == "warm":
        if warm is None:
            raise IntegrityError("warm setting needs the warm item set")
        views = [v for v in views if (v.seeds | v.targets) <= warm]
    elif setting in ("sparsify", "noisify"):
        if rng is None or n_items is None:
            raise IntegrityError(f"{setting} needs rng and n_items")
        views = [corrupt_partial(v, setting, rate, rng, n_items) for v in views]
    elif setting != "standard":
        raise IntegrityError(f"unknown evaluation setting {setting!r}")

    if not views:
        return EvalReport(setting=tag, k=k, recall=None, ndcg=None, n_bundles=0)

    seed_lists = [sorted(v.seeds) for v in views]
    records = []
    for view, seeds, scores in zip(views, seed_lists, score_sets(seed_lists), strict=True):
        ranked = rank_candidates(scores, view.seeds, k)
        records.append({
            "bundle": view.bundle_index,
            "seeds": seeds,
            "targets": sorted(view.targets),
            "hits": [i for i in ranked if i in view.targets],
            "recall": recall_at_k(ranked, view.targets, k),
            "ndcg": ndcg_at_k(ranked, view.targets, k),
        })
    records.sort(key=lambda r: r["bundle"])
    recall = sum(r["recall"] for r in records) / len(records)
    ndcg = sum(r["ndcg"] for r in records) / len(records)
    return EvalReport(
        setting=tag, k=k, recall=recall, ndcg=ndcg, n_bundles=len(records), per_bundle=records
    )


# ---------------------------------------------------------------------------
# model-backed scorers and explainer
# ---------------------------------------------------------------------------

def _blas_threads():
    """OpenBLAS's thread count as its variables set it, or None when none
    does (it then runs on every CPU)."""
    for var in BLAS_THREAD_VARS:
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return None


class ScoreProduct:
    """``rows @ table_t`` for a contiguous d x N table, over two threads where
    that keeps the bits of the product taken whole.

    A product splits when N is a multiple of ``SPLIT_ALIGN``, rows * d * N/2
    is at least ``SPLIT_MIN_WORK``, the process may run on two or more CPUs
    and BLAS runs on one thread. The calling thread then computes the first
    ``width`` columns, ``SPLIT_ALIGN``-aligned N/2 rounded down, and a daemon
    helper thread, started on first use, the rest; both write into one
    output. The two blocks go through ``kernels.run_split``: a caller that
    finishes its block before the helper has started the other one, because
    the helper's CPU is busy or descheduled, computes that block itself
    instead of waiting; an exception in the helper is raised in the caller,
    which always waits for a block the helper started. Callers on several
    threads each get their own rows. Every other product runs whole on the
    calling thread. The helper ends when the object is collected.
    """

    def __init__(self, table_t):
        self.table_t = table_t
        d, n = table_t.shape
        self.width = (n // 2) // SPLIT_ALIGN * SPLIT_ALIGN
        cpus = kernels.cpus()
        blas = _blas_threads()
        if n % SPLIT_ALIGN:
            self.whole_because = f"N={n} is not a multiple of {SPLIT_ALIGN}"
        elif not self.width:
            self.whole_because = f"N={n} is below {2 * SPLIT_ALIGN}"
        elif cpus < 2:
            self.whole_because = "one CPU"
        elif blas != 1:
            self.whole_because = f"BLAS on {blas} threads" if blas else "BLAS on every CPU"
        else:
            self.whole_because = None
        # fewest rows whose product splits
        self.min_rows = -(-SPLIT_MIN_WORK // (d * (n // 2))) if self.whole_because is None else None
        self._left, self._right = table_t[:, : self.width], table_t[:, self.width :]
        self._start = threading.Lock()
        self._thread = None
        self._jobs = None

    def splits(self, n_rows):
        return self.min_rows is not None and n_rows >= self.min_rows

    def describe(self):
        if self.whole_because is not None:
            return f"whole ({self.whole_because})"
        return f"split over 2 threads for {self.min_rows}+ rows"

    def _helper_jobs(self):
        with self._start:
            # a forked child keeps this object but not the thread
            if self._thread is None or not self._thread.is_alive():
                self._jobs, self._thread = kernels.start_helper("bundlecraft-score-product")
                weakref.finalize(self, self._jobs.put, None)
            return self._jobs

    def __call__(self, rows):
        if not self.splits(rows.shape[0]):
            return rows @ self.table_t
        w = self.width
        out = np.empty((rows.shape[0], self.table_t.shape[1]),
                       dtype=np.result_type(rows, self.table_t))
        # the jobs hold the blocks, not self, so a job the helper still
        # references does not keep this object alive
        kernels.run_split(self._helper_jobs(),
                          functools.partial(np.matmul, rows, self._left, out=out[:, :w]),
                          functools.partial(np.matmul, rows, self._right, out=out[:, w:]))
        return out


def _batch_scorer(model, inputs):
    """Encode the catalog once, forward only, into one contiguous d x N
    table. Returns N, the :class:`ScoreProduct` and
    ``score_batch(sorted_seed_lists)``: the G x N scores of G seed lists,
    encoded as one padded batch with no graph and scored by one product with
    the catalog table."""
    cfg = model.config
    dtype = nm.DTYPES[cfg.precision]
    table_t = encode_item_table_forward(inputs, model.item_params, cfg.ablation.use_feedback,
                                        cfg.ablation.use_item_attention, dtype)
    product = ScoreProduct(table_t)
    matrices = attention_matrices(model.bundle_params, cfg.ablation.use_bundle_attention)

    def score_batch(seed_lists):
        return product(encode_sets_forward(table_t.T, seed_lists, matrices))

    return table_t.shape[1], product, score_batch


def make_set_scorer(model, inputs):
    """Set scorer of a model: ``score_sets(sorted_seed_lists)`` yields one row
    of N catalog scores per seed list, in order. Lists are scored
    ``SCORE_CHUNK // N`` at a time, so memory does not grow with their number.
    ``score_sets.product`` is the :class:`ScoreProduct` that scores them.
    """
    n, product, score_batch = _batch_scorer(model, inputs)
    step = max(1, SCORE_CHUNK // n)

    def score_sets(seed_lists):
        for start in range(0, len(seed_lists), step):
            yield from score_batch(seed_lists[start : start + step])

    score_sets.product = product
    return score_sets


def make_scorer(model, inputs):
    """Closure scoring all catalog items for one seed set:
    ``scorer(sorted_seed_idx) -> N scores``, a batch of one on the set
    scorer's path. ``scorer.product`` is the :class:`ScoreProduct` that
    scores it."""
    _, product, score_batch = _batch_scorer(model, inputs)

    def scorer(seed_idx):
        return score_batch([seed_idx])[0]

    scorer.product = product
    return scorer


def _np_cosine(a, b):
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise IntegrityError("cosine of a zero vector is undefined")
    return float(np.dot(a, b) / (na * nb))


def explain(model, inputs, bundle_items, bundle_index=-1):
    """Similarity table for one bundle.

    Per item: cosine between each last-layer feature row and the fused item
    vector. Per bundle: cosine between each last-layer item row and the
    bundle vector. Emits 3n + n rows for an n-item bundle. The bundle half
    runs the scorers' checked set forward, so a non-finite layer raises
    :class:`NonFiniteError`.
    """
    cfg = model.config
    dtype = nm.DTYPES[cfg.precision]
    items = sorted(bundle_items)

    table, slot_values = attended_slots(
        inputs,
        model.item_params,
        use_feedback=cfg.ablation.use_feedback,
        use_attention=cfg.ablation.use_item_attention,
        dtype=dtype,
    )

    feature_rows = []
    for i in items:
        for s, sv in enumerate(slot_values):
            feature_rows.append(
                {"item": i, "slot": s, "cosine": _np_cosine(sv[i], table[i])}
            )

    e, _, attended = _encode(
        table[np.asarray(items, dtype=np.int64)],
        attention_matrices(model.bundle_params, cfg.ablation.use_bundle_attention),
        len(items), 1, None,
    )
    bundle_rows = [
        {"item": i, "cosine": _np_cosine(attended[j], e[0])} for j, i in enumerate(items)
    ]
    return {"bundle": bundle_index, "features": feature_rows, "items": bundle_rows}
