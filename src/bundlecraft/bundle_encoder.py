"""Partial-bundle representations from their members' item vectors.

The same set-attention layer as the item encoder, with its own Z layers,
runs over each bundle's seed rows, and the bundle vector is their mean. A
batch of bundles is one member-major node (see the numerics set ops):
seed sets of different sizes are padded to the largest under a mask, so a
whole batch is encoded by Z + 1 graph nodes. Scoring encodes with
:func:`encode_sets_forward` instead, the same arithmetic on plain arrays,
which builds no graph and forms each layer's ``Wk Wq^T`` once per model.
The result is a set function: permuting a bundle's rows permutes the
attended rows identically and the mean forgets the order.
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


def encode_bundle(member_rows, params, use_attention=True, groups=1, mask=None):
    """Bundle representations, one row per set: the mean of the attended
    member rows of each of the ``groups`` member-major sets."""
    if use_attention:
        for w_k, w_q in params.layers:
            member_rows = nm.set_attention(member_rows, w_k, w_q, groups, mask)
    return nm.group_mean(member_rows, groups, mask)


def encode_sets(table, seed_sets, params, use_attention=True):
    """One row per seed set: the sets' rows of ``table`` encoded as one padded batch."""
    rows, mask = gather_members(table, seed_sets)
    return encode_bundle(rows, params, use_attention, len(seed_sets), mask)


def attention_matrices(params, use_attention=True):
    """Each layer's ``Wk Wq^T``, for :func:`encode_sets_forward`."""
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
    for m in matrices:
        h = nm.attention_forward(h, m, size, groups, mask)[0]
        nm.check_finite(h, "set attention")
    e = nm.set_mean(h, size, groups, mask)
    nm.check_finite(e, "set mean")
    return e
