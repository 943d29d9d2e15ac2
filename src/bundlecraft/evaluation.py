"""Ranking metrics, evaluation protocols, the set scorer and the explainer.

A model scores seed sets on one batched path: :func:`make_set_scorer`
chunks many sets through it and :func:`make_scorer` scores a batch of one.
Metrics use binary relevance. Seeds that the encoder actually saw
(post-corruption, for the sparsify/noisify settings) are excluded from the
candidate pool: the task is completion, not re-retrieval. The warm setting
keeps only test bundles whose seeds and targets consist entirely of items
seen in at least one training bundle.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .bundle_encoder import attention_matrices, encode_sets_forward
from .corpus import corrupt_partial
from .errors import IntegrityError
from .item_encoder import attended_slots, encode_item_table

SETTINGS = ("standard", "warm", "sparsify", "noisify")

# score elements per batch of seed sets (4 MiB of float32): scoring many sets
# holds one batch's score rows at a time
SCORE_CHUNK = 1 << 20
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
    too. When ``c <= need`` or a column maximum is NaN, the k-th best kept
    score is found by selection over every kept item (``np.partition``)
    instead.
    """
    if k < 1:
        raise IntegrityError(f"k must be >= 1, got {k}")
    scores = np.asarray(scores).reshape(-1)
    n = scores.shape[0]
    drop = [i for i in excluded if 0 <= i < n]
    need = k + len(drop)
    c = n // RANK_GROUPS
    cand = None
    if c > need:
        col_max = scores[: RANK_GROUPS * c].reshape(RANK_GROUPS, c).max(axis=0)
        if not np.isnan(col_max).any():
            cut = np.partition(col_max, c - need)[c - need]
            hit = scores >= cut
            hit[drop] = False
            cand = np.flatnonzero(hit)
    if cand is None:
        key = -scores
        kept = np.ones(n, dtype=bool)
        kept[drop] = False
        kept_key = key[kept]
        if k < kept_key.shape[0]:
            cut = np.partition(kept_key, k - 1)[k - 1]
            if not np.isnan(cut):
                cand = np.flatnonzero((key <= cut) & kept)
        if cand is None:
            # nothing to select, or NaN at the cut: sort every kept item
            cand = np.flatnonzero(kept)
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

def _batch_scorer(model, inputs):
    """Encode the catalog once, forward only. Returns N and
    ``score_batch(sorted_seed_lists)``: the G x N scores of G seed lists,
    encoded as one padded batch with no graph and scored by one GEMM."""
    cfg = model.config
    dtype = nm.DTYPES[cfg.precision]
    table = encode_item_table(inputs, model.item_params, cfg.slot_fill, cfg.ablation.use_feedback,
                              cfg.ablation.use_item_attention, dtype).value
    table_t = np.ascontiguousarray(table.T)
    matrices = attention_matrices(model.bundle_params, cfg.ablation.use_bundle_attention)

    def score_batch(seed_lists):
        return encode_sets_forward(table, seed_lists, matrices) @ table_t

    return table.shape[0], score_batch


def make_set_scorer(model, inputs):
    """Set scorer of a model: ``score_sets(sorted_seed_lists)`` yields one row
    of N catalog scores per seed list, in order. Lists are scored
    ``SCORE_CHUNK // N`` at a time, so memory does not grow with their number.
    """
    n, score_batch = _batch_scorer(model, inputs)
    step = max(1, SCORE_CHUNK // n)

    def score_sets(seed_lists):
        for start in range(0, len(seed_lists), step):
            yield from score_batch(seed_lists[start : start + step])

    return score_sets


def make_scorer(model, inputs):
    """Closure scoring all catalog items for one seed set:
    ``scorer(sorted_seed_idx) -> N scores``, a batch of one on the set
    scorer's path."""
    _, score_batch = _batch_scorer(model, inputs)

    def scorer(seed_idx):
        return score_batch([seed_idx])[0]

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
    bundle vector. Emits 3n + n rows for an n-item bundle.
    """
    cfg = model.config
    dtype = nm.DTYPES[cfg.precision]
    items = sorted(bundle_items)

    table, slot_values = attended_slots(
        inputs,
        model.item_params,
        slot_fill=cfg.slot_fill,
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

    attended = table[np.asarray(items, dtype=np.int64)]
    for m in attention_matrices(model.bundle_params, cfg.ablation.use_bundle_attention):
        attended = nm.attention_forward(attended, m, len(items), 1)[0]
    e = attended.mean(axis=0)
    bundle_rows = [
        {"item": i, "cosine": _np_cosine(attended[j], e)} for j, i in enumerate(items)
    ]
    return {"bundle": bundle_index, "features": feature_rows, "items": bundle_rows}
