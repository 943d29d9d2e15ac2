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

from dataclasses import dataclass, replace

import numpy as np

from . import numerics as nm
from .corpus import perturb_seeds
from .errors import IntegrityError, ShapeError
from .item_encoder import N_SLOTS

ITEM_MODES = ("NA", "FN", "FD", "MD")
BUNDLE_MODES = ("ID", "IR")


@dataclass(frozen=True)
class AugmentationConfig:
    item_mode: str
    bundle_mode: str
    dropout_ratio: float
    noise_weight: float
    tau: float

    def __post_init__(self):
        if self.item_mode not in ITEM_MODES:
            raise IntegrityError(f"unknown item augmentation mode {self.item_mode!r}")
        if self.bundle_mode not in BUNDLE_MODES:
            raise IntegrityError(f"unknown bundle augmentation mode {self.bundle_mode!r}")
        if not 0 <= self.dropout_ratio <= 1:
            raise IntegrityError(f"dropout_ratio must be in [0, 1], got {self.dropout_ratio}")
        if not 0 <= self.noise_weight < np.inf:
            raise IntegrityError(f"noise_weight must be finite and nonnegative, got {self.noise_weight}")
        if not 0 < self.tau < np.inf:
            raise IntegrityError(f"temperature tau must be finite and positive, got {self.tau}")


def augment_inputs(inputs, mode, config, rng):
    """Produce the augmented raw-input view of every row of ``inputs``."""
    if mode == "NA":
        return inputs
    if mode == "FN":
        w = config.noise_weight
        content = inputs.content + w * rng.uniform(-1.0, 1.0, size=inputs.content.shape)
        feedback = inputs.feedback + w * rng.uniform(-1.0, 1.0, size=inputs.feedback.shape)
        feedback[~inputs.feedback_present] = 0.0
        return replace(
            inputs,
            content=content.astype(inputs.content.dtype),
            feedback=feedback.astype(inputs.feedback.dtype),
        )
    if mode == "FD":
        r = config.dropout_ratio
        keep_c = rng.random(inputs.content.shape) >= r
        keep_p = rng.random(inputs.feedback.shape) >= r
        return replace(
            inputs,
            content=(inputs.content * keep_c).astype(inputs.content.dtype),
            feedback=(inputs.feedback * keep_p).astype(inputs.feedback.dtype),
        )
    if mode == "MD":
        # independent per-item Bernoulli; a hit drops one uniformly chosen slot
        hit = rng.random(inputs.n_items) < config.dropout_ratio
        slot = rng.integers(0, N_SLOTS, size=inputs.n_items)
        forced = np.zeros((inputs.n_items, N_SLOTS), dtype=bool)
        forced[np.arange(inputs.n_items), slot] = hit
        if inputs.forced_fallback is not None:
            forced |= inputs.forced_fallback
        return replace(inputs, forced_fallback=forced)
    raise IntegrityError(f"unknown item augmentation mode {mode!r}")


def augment_bundle(view, mode, config, rng, n_items):
    """Perturb a view's seed set; targets and bundle index are untouched."""
    k = int(config.dropout_ratio * len(view.seeds))
    if mode == "ID":
        return perturb_seeds(view, rng, n_items, drop=min(k, len(view.seeds) - 1))
    if mode == "IR":
        return perturb_seeds(view, rng, n_items, drop=k, add=k)
    raise IntegrityError(f"unknown bundle augmentation mode {mode!r}")


def info_nce(anchors, positives, tau):
    """Mean over anchors of -log softmax(cos(a_i, p_v)/tau) at v = i.

    ``anchors`` and ``positives`` are matrix nodes with one vector per row.
    Every anchor is contrasted against all positives in the pool, its own
    positive included in the denominator, so the loss is nonnegative and
    equals ln N when all similarities coincide. It is the NLL's two ops on
    the scaled cosine matrix: :func:`numerics.matmul_nt` of the unit rows,
    and :func:`numerics.log_softmax_pick` of its diagonal times ``-1/N``.
    """
    if anchors.shape != positives.shape:
        raise ShapeError(f"info_nce: shapes {anchors.shape} vs {positives.shape}")
    n = anchors.shape[0]
    if n < 1:
        raise ShapeError("info_nce: empty input")
    if not tau > 0:
        raise IntegrityError(f"temperature must be positive, got {tau}")
    sims = nm.matmul_nt(nm.normalize_rows(anchors), nm.normalize_rows(positives))
    diag = np.arange(n)
    return nm.log_softmax_pick(nm.sdiv(sims, tau), diag, diag, -1.0 / n)
