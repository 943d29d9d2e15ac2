"""Partial-bundle representations from their members' item vectors.

The same set-attention layer as the item encoder, with its own Z layers,
runs over each bundle's seed rows, and the bundle vector is their mean. A
batch of bundles is one member-major matrix (see the numerics set
arithmetic): seed sets of different sizes are padded to the largest under a
mask, and a whole batch is encoded by one graph node, as the item table is.
Scoring encodes with :func:`encode_sets_forward` instead, the same
arithmetic on plain arrays, which builds no graph and forms each layer's
``Wk Wq^T`` once per model. The result is a set function: permuting a
bundle's rows permutes the attended rows identically and the mean forgets
the order.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ShapeError


@dataclass
class BundleEncoderParams:
    layers: list  # [(w_k, w_q), ...]


def init_bundle_params(d, n_layers, rng, dtype=np.float32):
    from .cf_pretrain import xavier_uniform

    layers = [
        (
            nm.parameter(xavier_uniform(d, d, rng), dtype),
            nm.parameter(xavier_uniform(d, d, rng), dtype),
        )
        for _ in range(n_layers)
    ]
    return BundleEncoderParams(layers=layers)


def member_index(seed_sets):
    """The S x G member-major item indices of G seed sets, S being the largest
    set, and the S x G mask of real members, padded slots repeating item 0.
    The mask is None when no set is padded."""
    seeds = [sorted(s) for s in seed_sets]
    if not seeds or not all(seeds):
        raise ShapeError("an empty seed set, or no seed sets")
    size = max(map(len, seeds))
    if all(len(s) == size for s in seeds):
        return np.array(seeds, dtype=np.int64).T, None
    idx = np.zeros((size, len(seeds)), dtype=np.int64)
    mask = np.zeros((size, len(seeds)), dtype=bool)
    for g, items in enumerate(seeds):
        idx[: len(items), g] = items
        mask[: len(items), g] = True
    return idx, mask


def gather_members(table, seed_sets):
    """Gather the seed rows of G bundles from an item ``table`` node: the
    member-major (S*G) x d rows and the mask of :func:`member_index`."""
    idx, mask = member_index(seed_sets)
    return nm.take_rows(table, idx.reshape(-1)), mask


def _set_shape(rows, groups, mask):
    """The set size and count of member-major ``rows`` and the checked mask."""
    groups = int(groups)
    if groups < 1 or rows.shape[0] == 0 or rows.shape[0] % groups:
        raise ShapeError(f"encode_bundle: {rows.shape[0]} rows do not split into "
                         f"{groups} nonempty sets")
    size = rows.shape[0] // groups
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (size, groups):
            raise ShapeError(f"encode_bundle: mask shape {mask.shape}, sets need {(size, groups)}")
        if not mask.any(axis=0).all():
            raise ShapeError("encode_bundle: a set has no members")
    return size, groups, mask


def _encode(h, matrices, size, groups, mask):
    """The set means of member-major rows ``h`` after one attention layer per
    ``Wk Wq^T`` in ``matrices``, each layer's (input rows, softmax weights,
    h @ m), which the backward reads, and the last layer's rows. A
    non-finite layer or mean raises :class:`NonFiniteError`."""
    layers = []
    for m in matrices:
        out, p, hm = nm.attention_forward(h, m, size, groups, mask)
        nm.check_finite(out, "set attention")
        layers.append((h, p, hm))
        h = out
    e = nm.set_mean(h, size, groups, mask)
    nm.check_finite(e, "set mean")
    return e, layers, h


def encode_bundle(member_rows, params, use_attention=True, groups=1, mask=None):
    """Bundle representations, one row per set, as one node: the mean of the
    attended member rows of each of the ``groups`` member-major sets.

    Attention has no value projection and no residual path: within a set,
    member rows become softmax((H Wk)(H Wq)^T / sqrt(d)) H, taken in the
    bilinear form (H M) H^T with M = Wk Wq^T, and padded members get zero
    weight. The backward runs each layer's closed form from the last layer
    down, with dM = H^T d(HM), dWk = dM Wq and dWq = dM^T Wk.
    """
    size, groups, mask = _set_shape(member_rows, groups, mask)
    layers = params.layers if use_attention else []
    d = member_rows.shape[1]
    for w_k, w_q in layers:
        if w_k.dtype != member_rows.dtype or w_q.dtype != member_rows.dtype:
            raise ShapeError(f"encode_bundle: weights {w_k.dtype}, {w_q.dtype} "
                             f"for {member_rows.dtype} rows")
        if w_k.shape != (d, d) or w_q.shape != (d, d):
            raise ShapeError(f"encode_bundle: weights {w_k.shape}, {w_q.shape} for width {d}")
    ms = attention_matrices(params, use_attention)
    e, cache, _ = _encode(member_rows.value, ms, size, groups, mask)
    count = nm.member_count(size, mask, e.dtype)

    def rule(g):
        d_h = np.broadcast_to(g / count, (size, groups, g.shape[1]))
        if mask is not None:
            d_h = d_h * mask[:, :, None]
        d_h = d_h.reshape(member_rows.shape)
        for j in reversed(range(len(ms))):
            (h, p, hm), (w_k, w_q) = cache[j], layers[j]
            d_hm, d_h = nm.attention_backward(d_h, h, ms[j], p, hm, size, groups, mask,
                                              j > 0 or member_rows.requires_grad)
            if w_k.requires_grad or w_q.requires_grad:
                d_m = h.T @ d_hm
                nm.accumulate(w_k, d_m @ w_q.value)
                nm.accumulate(w_q, d_m.T @ w_k.value)
        nm.accumulate(member_rows, d_h)

    parents = (member_rows, *(w for pair in layers for w in pair))
    return nm.make_node(e, parents, rule, "encode_bundle")


def encode_sets(table, seed_sets, params, use_attention=True):
    """One row per seed set: the sets' rows of ``table`` encoded as one padded batch."""
    rows, mask = gather_members(table, seed_sets)
    return encode_bundle(rows, params, use_attention, len(seed_sets), mask)


def attention_matrices(params, use_attention=True):
    """Each layer's ``Wk Wq^T``; none with attention off."""
    return [w_k.value @ w_q.value.T for w_k, w_q in params.layers] if use_attention else []


def encode_sets_forward(table, seed_sets, matrices):
    """:func:`encode_sets`'s value, bit for bit, from a plain N x d array
    ``table`` of any layout (the scorers pass the transpose of their d x N
    table) and the layers' :func:`attention_matrices`; builds no graph
    node."""
    idx, mask = member_index(seed_sets)
    size, groups = idx.shape
    # C-contiguous rows whatever the table's layout: the products' bits
    # depend on it
    h = np.ascontiguousarray(table[idx.reshape(-1)])
    return _encode(h, matrices, size, groups, mask)[0]
