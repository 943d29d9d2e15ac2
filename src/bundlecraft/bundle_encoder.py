"""Partial-bundle representations from their members' item vectors.

The same set-attention layer as the item encoder, with its own Z layers,
runs over each bundle's seed rows, and the bundle vector is their mean. A
batch of bundles is one member-major node (see the numerics set ops):
seed sets of different sizes are padded to the largest under a mask, so a
whole batch is encoded by Z + 1 graph nodes. The result is a set function:
permuting a bundle's rows permutes the attended rows identically and the
mean forgets the order.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .item_encoder import attend


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


def gather_members(table, seed_sets):
    """Gather the seed rows of G bundles from an item ``table`` node.

    Returns the member-major (S*G) x d rows, S being the largest seed set,
    and the S x G mask of real members, padded slots repeating item 0. The
    mask is None when no set is padded.
    """
    seeds = [sorted(s) for s in seed_sets]
    size = max(map(len, seeds))
    if all(len(s) == size for s in seeds):
        idx = np.array(seeds, dtype=np.int64).T
        mask = None
    else:
        idx = np.zeros((size, len(seeds)), dtype=np.int64)
        mask = np.zeros((size, len(seeds)), dtype=bool)
        for g, items in enumerate(seeds):
            idx[: len(items), g] = items
            mask[: len(items), g] = True
    return nm.take_rows(table, idx.reshape(-1)), mask


def encode_bundle(member_rows, params, use_attention=True, groups=1, mask=None):
    """Bundle representations, one row per set: the mean of the attended
    member rows of each of the ``groups`` member-major sets."""
    if use_attention:
        member_rows = attend(member_rows, params.layers, groups, mask)
    return nm.group_mean(member_rows, groups, mask)


def encode_sets(table, seed_sets, params, use_attention=True):
    """One row per seed set: the sets' rows of ``table`` encoded as one padded batch."""
    rows, mask = gather_members(table, seed_sets)
    return encode_bundle(rows, params, use_attention, len(seed_sets), mask)
