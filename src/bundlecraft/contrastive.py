"""Augmented views and the two InfoNCE losses.

Item-level augmentations perturb the raw encoder inputs and the perturbed
view is re-encoded, so the contrast measures encoder robustness rather
than output jitter (NA is the exception: it reuses the original pass).
Bundle-level augmentations perturb the seed set itself.

Modes: NA (none), FN (uniform noise on raw feature rows, scaled by
``noise_weight``), FD (independent coordinate dropout at ``dropout_ratio``),
MD (per item, with probability ``dropout_ratio``, one uniformly chosen
feature slot is replaced by the content fallback) at the item level;
ID (seed dropout, at least one seed survives) and IR (seed replacement
with uniform non-members) at the bundle level.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .corpus import PartialBundleView
from .errors import IntegrityError, ShapeError
from .item_encoder import N_SLOTS, ItemInputs

ITEM_MODES = ("NA", "FN", "FD", "MD")
BUNDLE_MODES = ("ID", "IR")


@dataclass(frozen=True)
class AugmentationConfig:
    item_mode: str = "MD"
    bundle_mode: str = "ID"
    dropout_ratio: float = 0.2
    noise_weight: float = 0.05
    tau: float = 0.5
    negatives: str = "batch"  # or "full"

    def __post_init__(self):
        if self.item_mode not in ITEM_MODES:
            raise IntegrityError(f"unknown item augmentation mode {self.item_mode!r}")
        if self.bundle_mode not in BUNDLE_MODES:
            raise IntegrityError(f"unknown bundle augmentation mode {self.bundle_mode!r}")
        if not self.tau > 0:
            raise IntegrityError(f"temperature must be positive, got {self.tau}")
        if self.negatives not in ("batch", "full"):
            raise IntegrityError(f"negatives must be 'batch' or 'full', got {self.negatives!r}")


def augment_inputs(inputs, mode, config, rng):
    """Produce the augmented raw-input view of the whole catalog."""
    if mode == "NA":
        return inputs
    if mode == "FN":
        w = config.noise_weight
        content = inputs.content + w * rng.uniform(-1.0, 1.0, size=inputs.content.shape)
        feedback = inputs.feedback + w * rng.uniform(-1.0, 1.0, size=inputs.feedback.shape)
        feedback[~inputs.feedback_present] = 0.0
        return ItemInputs(
            content=content.astype(inputs.content.dtype),
            feedback=feedback.astype(inputs.feedback.dtype),
            feedback_present=inputs.feedback_present,
            id_warm=inputs.id_warm,
            forced_fallback=inputs.forced_fallback,
        )
    if mode == "FD":
        r = config.dropout_ratio
        keep_c = rng.random(inputs.content.shape) >= r
        keep_p = rng.random(inputs.feedback.shape) >= r
        return ItemInputs(
            content=(inputs.content * keep_c).astype(inputs.content.dtype),
            feedback=(inputs.feedback * keep_p).astype(inputs.feedback.dtype),
            feedback_present=inputs.feedback_present,
            id_warm=inputs.id_warm,
            forced_fallback=inputs.forced_fallback,
        )
    if mode == "MD":
        # independent per-item Bernoulli; a hit drops one uniformly chosen slot
        hit = rng.random(inputs.n_items) < config.dropout_ratio
        slot = rng.integers(0, N_SLOTS, size=inputs.n_items)
        forced = np.zeros((inputs.n_items, N_SLOTS), dtype=bool)
        forced[np.arange(inputs.n_items), slot] = hit
        if inputs.forced_fallback is not None:
            forced |= inputs.forced_fallback
        return ItemInputs(
            content=inputs.content,
            feedback=inputs.feedback,
            feedback_present=inputs.feedback_present,
            id_warm=inputs.id_warm,
            forced_fallback=forced,
        )
    raise IntegrityError(f"unknown item augmentation mode {mode!r}")


def augment_bundle(view, mode, config, rng, n_items):
    """Perturb a view's seed set; targets and bundle index are untouched."""
    seeds = sorted(view.seeds)
    k = int(config.dropout_ratio * len(seeds))
    if mode == "ID":
        k = min(k, len(seeds) - 1)
        if k <= 0:
            return view
        drop = set(int(x) for x in rng.choice(len(seeds), size=k, replace=False))
        kept = frozenset(s for pos, s in enumerate(seeds) if pos not in drop)
        return PartialBundleView(view.bundle_index, kept, view.targets)
    if mode == "IR":
        if k <= 0:
            return view
        member = view.seeds | view.targets
        candidates = np.asarray([i for i in range(n_items) if i not in member], dtype=np.int64)
        if candidates.shape[0] < k:
            raise IntegrityError("not enough non-member items for replacement")
        drop = set(int(x) for x in rng.choice(len(seeds), size=k, replace=False))
        added = rng.choice(candidates, size=k, replace=False)
        new_seeds = frozenset(s for pos, s in enumerate(seeds) if pos not in drop) | frozenset(
            int(x) for x in added
        )
        return PartialBundleView(view.bundle_index, new_seeds, view.targets)
    raise IntegrityError(f"unknown bundle augmentation mode {mode!r}")


def info_nce(anchors, positives, tau):
    """Mean over anchors of -log softmax(cos(a_i, p_v)/tau) at v = i.

    ``anchors`` and ``positives`` are matrix nodes with one vector per row
    (or equal-length lists of row nodes). Every anchor is contrasted
    against all positives in the pool, its own positive included in the
    denominator, so the loss is nonnegative and equals ln N when all
    similarities coincide.
    """
    if isinstance(anchors, (list, tuple)):
        anchors = nm.vconcat(list(anchors))
    if isinstance(positives, (list, tuple)):
        positives = nm.vconcat(list(positives))
    if anchors.shape != positives.shape:
        raise ShapeError(f"info_nce: shapes {anchors.shape} vs {positives.shape}")
    if anchors.shape[0] < 1:
        raise ShapeError("info_nce: empty input")
    if not tau > 0:
        raise IntegrityError(f"temperature must be positive, got {tau}")
    sims = nm.matmul(nm.normalize_rows(anchors), nm.transpose(nm.normalize_rows(positives)))
    log_probs = nm.log_softmax_rows(nm.sdiv(sims, tau))
    return nm.smul(nm.mean_all(nm.take_diag(log_probs)), -1.0)
