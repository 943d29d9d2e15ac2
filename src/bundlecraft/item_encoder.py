"""Fused item representations from content, feedback and id features.

Each item contributes three feature rows, its slots: projected content,
projected collaborative-filtering feedback, and a learnable id embedding.
Missing feedback or id history is slot-filled from the content feature
(projected by default; a ``raw`` mode projects the raw content vector
through the feedback projection, which requires matching widths).

The encoder works on a batch of items: the whole catalog, or the rows an
``ItemInputs.take`` restriction keeps. The slots of its N items are stacked
member-major into one 3N x d node, the sets of the numerics set ops: one
set per item, one member per slot. L set-attention layers (key/query
projections only) run over it, and each item's vector is the mean of its
attended slots. No step mixes items, so encoding a restriction gives
exactly those rows of the full table. The bundle encoder applies the same
layer to seed sets.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ConfigError, ShapeError

SLOT_CONTENT, SLOT_FEEDBACK, SLOT_ID = 0, 1, 2
N_SLOTS = 3
SLOT_FILLS = ("projected", "raw")


@dataclass
class ItemEncoderParams:
    w_c: nm.GraphNode
    w_p: nm.GraphNode
    v: nm.GraphNode
    layers: list  # [(w_k, w_q), ...]

    @property
    def d(self):
        return self.w_c.shape[1]


def init_item_params(n_items, feat_dim, cf_dim, d, n_layers, rng, dtype=np.float32):
    from .cf_pretrain import xavier_uniform

    layers = [
        (
            nm.parameter(xavier_uniform(d, d, rng), dtype),
            nm.parameter(xavier_uniform(d, d, rng), dtype),
        )
        for _ in range(n_layers)
    ]
    return ItemEncoderParams(
        w_c=nm.parameter(xavier_uniform(feat_dim, d, rng), dtype),
        w_p=nm.parameter(xavier_uniform(cf_dim, d, rng), dtype),
        v=nm.parameter(xavier_uniform(n_items, d, rng), dtype),
        layers=layers,
    )


@dataclass(frozen=True)
class ItemInputs:
    """Raw inputs for the batched encoder, one row per item.

    ``feedback`` rows of feedback-cold items are zero and masked out;
    ``forced_fallback`` (N x 3 bool, optional) overrides individual slots
    with the projected-content fallback, which is how modality dropout is
    realized.

    ``rows`` is None for the whole catalog. Inputs made by :meth:`take`
    hold only some catalog rows: row r of every array belongs to catalog
    item ``rows[r]``, whose id embedding is row ``rows[r]`` of V. Encoding
    them gives those rows of the full table, and V's gradient reaches only
    those rows.
    """

    content: np.ndarray
    feedback: np.ndarray
    feedback_present: np.ndarray
    id_warm: np.ndarray
    forced_fallback: np.ndarray | None = None
    rows: np.ndarray | None = None

    @property
    def n_items(self):
        return self.content.shape[0]

    def take(self, rows):
        """The inputs of the given rows, in that order (repeats allowed)."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1 or (rows.size and (rows.min() < 0 or rows.max() >= self.n_items)):
            raise ShapeError(f"ItemInputs.take: rows must be 1-D indices below {self.n_items}")
        return ItemInputs(
            content=self.content[rows],
            feedback=self.feedback[rows],
            feedback_present=self.feedback_present[rows],
            id_warm=self.id_warm[rows],
            forced_fallback=None if self.forced_fallback is None else self.forced_fallback[rows],
            rows=rows if self.rows is None else self.rows[rows],
        )


def build_item_inputs(catalog, features, cf, graph, warm, dtype=np.float32):
    """Derive catalog-wide encoder inputs from loaded corpus structures."""
    n = catalog.n_items
    if not (features.text_present | features.media_present).all():
        raise ShapeError("an item has neither text nor media feature")
    both = features.text_present & features.media_present
    content = np.where(
        both[:, None],
        (features.text + features.media) / 2,
        np.where(features.text_present[:, None], features.text, features.media),
    ).astype(dtype)
    feedback_present = graph.item_degree > 0
    feedback = cf.item_table.astype(dtype).copy()
    feedback[~feedback_present] = 0.0
    id_warm = np.zeros(n, dtype=bool)
    id_warm[sorted(warm)] = True
    return ItemInputs(
        content=content,
        feedback=feedback,
        feedback_present=feedback_present,
        id_warm=id_warm,
    )


def attend(h, layers, groups, mask=None):
    """The L set-attention layers of one encoder level, in order."""
    for w_k, w_q in layers:
        h = nm.set_attention(h, w_k, w_q, groups, mask)
    return h


def item_slots(inputs, params, slot_fill="projected", use_feedback=True, use_attention=True,
               dtype=np.float32):
    """The attended slot rows of every item as one (S*N) x d node.

    Slot s of item i is row s * N + i; S is 3, or 2 when feedback is off.
    Modality dropout (``forced_fallback``) replaces a slot by the projected
    content. Restricted inputs read their id rows of V with one ``take_rows``.
    """
    n = inputs.n_items
    forced = inputs.forced_fallback

    def own(present, slot):
        """Rows whose ``slot`` keeps its own value rather than the projected content."""
        return present if forced is None else present & ~forced[:, slot]

    content = nm.constant(inputs.content, dtype)
    projected_content = nm.matmul(content, params.w_c)
    slots = [projected_content]
    if use_feedback:
        feedback = nm.matmul(nm.constant(inputs.feedback, dtype), params.w_p)
        present = inputs.feedback_present
        if slot_fill == "raw":
            if params.w_p.shape[0] != inputs.content.shape[1]:
                raise ConfigError(
                    "slot_fill=raw needs cf_dim == feature dim, "
                    f"have {params.w_p.shape[0]} vs {inputs.content.shape[1]}"
                )
            feedback = nm.select_rows(present, feedback, nm.matmul(content, params.w_p))
            present = np.ones(n, dtype=bool)
        slots.append(nm.select_rows(own(present, SLOT_FEEDBACK), feedback, projected_content))
    v = params.v if inputs.rows is None else nm.take_rows(params.v, inputs.rows)
    slots.append(nm.select_rows(own(inputs.id_warm, SLOT_ID), v, projected_content))
    h = nm.vconcat(slots)
    return attend(h, params.layers, n) if use_attention else h


def encode_item_table(inputs, params, slot_fill="projected", use_feedback=True,
                      use_attention=True, dtype=np.float32):
    """The representations of the inputs' N items as one N x d node."""
    h = item_slots(inputs, params, slot_fill, use_feedback, use_attention, dtype)
    return nm.group_mean(h, inputs.n_items)
