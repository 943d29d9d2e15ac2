"""Fused item representations from content, feedback and id features.

Each item contributes three feature rows, its slots: projected content,
projected collaborative-filtering feedback, and a learnable id embedding.
Missing feedback or id history is slot-filled from the projected content.

The encoder works on a batch of items: the whole catalog, or the rows an
``ItemInputs.take`` restriction keeps. Its N x d table is one graph node,
computed over tiles of about ``TILE_BYTES`` of slot rows, so that a tile's
arrays stay in cache from the projections to the mean. In a tile of T
items the slots are stacked member-major into a 3T x d matrix, the sets of
the numerics set ops: one set per item, one member per slot. L
set-attention layers (key/query projections only) run over it, and each
item's vector is the mean of its attended slots. The backward runs over the
same tiles with the closed-form rules of those ops. No step mixes items, so
encoding a restriction gives exactly those rows of the full table, and the
tiling does not change the table's bits. Inference runs the same tile loop
forward only (:func:`encode_item_table_forward`): it builds no graph node,
drops each tile's caches once its rows are written, and writes the table
into the transpose of the contiguous d x N array that the scorers read.
The bundle encoder applies the same attention layer to seed sets.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ShapeError

SLOT_CONTENT, SLOT_FEEDBACK, SLOT_ID = 0, 1, 2
N_SLOTS = 3

# bytes of slot rows per tile of the table node (3 x d per item; 682 items at
# d = 32 in float32): a tile's few arrays of this size stay in a 2 MiB L2
TILE_BYTES = 1 << 18


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
    # the mean of both modalities, then the rows that have only one: one array
    content = features.text + features.media
    content /= 2
    np.copyto(content, features.text, where=~features.media_present[:, None])
    np.copyto(content, features.media, where=~features.text_present[:, None])
    content = content.astype(dtype, copy=False)
    feedback_present = graph.item_degree > 0
    feedback = cf.item_table.astype(dtype)  # a copy, so zeroing leaves cf intact
    feedback[~feedback_present] = 0.0
    id_warm = np.zeros(n, dtype=bool)
    id_warm[sorted(warm)] = True
    return ItemInputs(
        content=content,
        feedback=feedback,
        feedback_present=feedback_present,
        id_warm=id_warm,
    )


def _tiles(n, row_bytes):
    """Bounds of the fewest near-equal tiles of at most ``TILE_BYTES // row_bytes``
    rows that cover ``n`` rows.

    Equal shares keep every tile at two or more rows unless ``n`` is one: numpy
    computes a one-row product on its vector path, whose rounding differs from
    the matrix product's.
    """
    per = max(1, TILE_BYTES // row_bytes)
    k = -(-n // per)
    return [n * t // k for t in range(k + 1)]


def _fills(inputs, use_feedback):
    """N x 1 masks of the rows whose feedback slot (when feedback is on) and id
    slot are filled from the projected content, in slot order."""
    forced = inputs.forced_fallback

    def filled(present, slot):
        own = present if forced is None else present & ~forced[:, slot]
        return ~own[:, None]

    fills = [filled(inputs.id_warm, SLOT_ID)]
    if use_feedback:
        fills.insert(0, filled(inputs.feedback_present, SLOT_FEEDBACK))
    return fills


def _check_inputs(inputs, params, use_feedback, dtype):
    if inputs.n_items == 0:
        raise ShapeError("encode_item_table: no items")
    for w in (params.w_c, params.w_p, params.v, *(w for pair in params.layers for w in pair)):
        if w.dtype != dtype:
            raise ShapeError(f"encode_item_table: a {w.dtype} parameter for {np.dtype(dtype)}")
    if inputs.content.shape[1] != params.w_c.shape[0]:
        raise ShapeError(f"encode_item_table: content width {inputs.content.shape[1]} "
                         f"for W_c {params.w_c.shape}")
    if use_feedback and inputs.feedback.shape[1] != params.w_p.shape[0]:
        raise ShapeError(f"encode_item_table: feedback width {inputs.feedback.shape[1]} "
                         f"for W_p {params.w_p.shape}")
    n_v = params.v.shape[0]
    if (inputs.n_items != n_v) if inputs.rows is None else (inputs.rows.max() >= n_v):
        raise ShapeError(f"encode_item_table: {inputs.n_items} items for {n_v} id rows")


@dataclass
class _TablePass:
    """A tiled forward pass. Iterating ``tiles`` runs it: each tile writes its
    rows of ``table`` and yields ``(lo, hi, layers, h)``, with ``layers`` each
    attention layer's (input rows, softmax weights, h @ m) and ``h`` the
    attended rows. The backward keeps every tile; inference drops each one."""

    table: np.ndarray
    tiles: object  # generator of (lo, hi, layers, h)
    ms: list  # each layer's Wk Wq^T
    content: np.ndarray
    feedback: np.ndarray | None
    size: int  # slots per item
    fills: list  # see _fills


def _forward(inputs, params, use_feedback, use_attention, dtype, table=None):
    """The table pass, tile by tile: slots, attention layers, slot mean, into
    ``table`` (an N x d array of the dtype, a new one when None)."""
    _check_inputs(inputs, params, use_feedback, dtype)
    n, d = inputs.n_items, params.d
    if table is None:
        table = np.empty((n, d), dtype=dtype)
    content = nm.finite_matrix(inputs.content, dtype)
    feedback = nm.finite_matrix(inputs.feedback, dtype) if use_feedback else None
    fills = _fills(inputs, use_feedback)
    w_c, w_p, v = params.w_c.value, params.w_p.value, params.v.value
    ms = [w_k.value @ w_q.value.T for w_k, w_q in params.layers] if use_attention else []
    size = len(fills) + 1

    def tiles():
        bounds = _tiles(n, size * d * np.dtype(dtype).itemsize)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            t = hi - lo
            h = np.empty((size * t, d), dtype=dtype)
            slots = h.reshape(size, t, d)
            # every projected-content and attended row feeds the table, which
            # is checked; rows that the fill replaces below are checked here
            np.matmul(content[lo:hi], w_c, out=slots[0])
            if use_feedback:
                np.matmul(feedback[lo:hi], w_p, out=slots[1])
                nm.check_finite(slots[1], "feedback projection")
            if inputs.rows is None:
                slots[-1] = v[lo:hi]
            else:
                np.take(v, inputs.rows[lo:hi], axis=0, out=slots[-1])
                nm.check_finite(slots[-1], "id rows")
            for slot, fill in zip(slots[1:], fills):
                np.copyto(slot, slots[0], where=fill[lo:hi])
            layers = []
            for m in ms:
                out, p, hm = nm.attention_forward(h, m, size, t)
                layers.append((h, p, hm))
                h = out
            table[lo:hi] = nm.set_mean(h, size, t)
            yield lo, hi, layers, h

    return _TablePass(table, tiles(), ms, content, feedback, size, fills)


def encode_item_table_forward(inputs, params, use_feedback=True, use_attention=True,
                              dtype=np.float32):
    """The transpose of :func:`encode_item_table`'s value, bit for bit, as
    the contiguous d x N array that the scorers read, with no graph node and
    no backward caches: each tile is dropped once its rows are written.

    A non-finite row raises the node's ``NonFiniteError``, checked tile by
    tile.
    """
    table_t = np.empty((params.d, inputs.n_items), dtype=dtype)
    f = _forward(inputs, params, use_feedback, use_attention, dtype, table_t.T)
    for lo, hi, _, _ in f.tiles:
        nm.check_finite(f.table[lo:hi], "encode_item_table")
    return table_t


def attended_slots(inputs, params, use_feedback=True, use_attention=True, dtype=np.float32):
    """Forward only: the N x d item table and the attended slot rows as an
    S x N x d array, slot s of item i at ``[s, i]`` (S is 3, or 2 when
    feedback is off)."""
    f = _forward(inputs, params, use_feedback, use_attention, dtype)
    rows = [h.reshape(f.size, hi - lo, -1) for lo, hi, _, h in f.tiles]
    return f.table, np.concatenate(rows, axis=1)


def encode_item_table(inputs, params, use_feedback=True, use_attention=True,
                      dtype=np.float32):
    """The representations of the inputs' N items as one N x d node.

    Modality dropout (``forced_fallback``) replaces a slot by the projected
    content. The backward sums the weight gradients tile by tile; restricted
    inputs scatter their id-slot gradients into rows ``inputs.rows`` of V
    (repeats add up).
    """
    f = _forward(inputs, params, use_feedback, use_attention, dtype)
    tiles = list(f.tiles)
    w_c, w_p, v = params.w_c, params.w_p, params.v
    layers = params.layers if use_attention else []
    parents = (w_c, *((w_p,) if use_feedback else ()), v, *(w for pair in layers for w in pair))
    size = f.size

    def rule(g):
        d_wc = np.zeros_like(w_c.value)
        d_wp = np.zeros_like(w_p.value)
        d_ms = [np.zeros_like(m) for m in f.ms]
        if v.requires_grad and v.adjoint is None:
            v.adjoint = np.zeros_like(v.value)
        for lo, hi, cache, _ in tiles:
            t = hi - lo
            d_h = np.empty((size * t, g.shape[1]), dtype=g.dtype)
            d_h.reshape(size, t, -1)[:] = g[lo:hi] / size
            for (h, p, hm), m, d_m in zip(reversed(cache), reversed(f.ms), reversed(d_ms)):
                d_hm, d_h = nm.attention_backward(d_h, h, m, p, hm, size, t)
                d_m += h.T @ d_hm
            # slot rows filled from the projected content pass their gradient to
            # it, and nothing to their own branch
            d_projected, *d_slots = d_h.reshape(size, t, -1)
            for d_slot, fill in zip(d_slots, f.fills):
                np.add(d_projected, d_slot, out=d_projected, where=fill[lo:hi])
                d_slot *= ~fill[lo:hi]
            if use_feedback:
                d_wp += f.feedback[lo:hi].T @ d_slots[0]
            if v.requires_grad:
                if inputs.rows is None:
                    v.adjoint[lo:hi] += d_slots[-1]
                else:
                    np.add.at(v.adjoint, inputs.rows[lo:hi], d_slots[-1])
            d_wc += f.content[lo:hi].T @ d_projected
        nm.accumulate(w_c, d_wc)
        if use_feedback:
            nm.accumulate(w_p, d_wp)
        for (w_k, w_q), d_m in zip(layers, d_ms):
            nm.accumulate(w_k, d_m @ w_q.value)
            nm.accumulate(w_q, d_m.T @ w_k.value)

    return nm.make_node(f.table, parents, rule, "encode_item_table")
