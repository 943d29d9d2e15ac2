"""Collaborative-filtering pretraining on the user-item bipartite graph.

Layer-0 user/item tables are trained with a pairwise ranking objective
(observed item scored above a sampled unobserved item, sigmoid link, global
L2 decay), then propagated through symmetric degree-normalized graph layers
and aggregated by a true mean over layers 0..K. The exported item vectors
are frozen inputs to the bundle model and are never updated by it.

Checkpoint format: magic ``CFE1``, u32 LE version, u32 LE M, N, d, K, then
the user table and item table as float32 LE values row-major.
"""

import logging
import struct
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import CorpusFormatError

log = logging.getLogger(__name__)

CF_MAGIC = b"CFE1"
CF_VERSION = 1


@dataclass(frozen=True)
class CfEmbeddings:
    user_table: np.ndarray
    item_table: np.ndarray
    k_layers: int

    @property
    def d(self):
        return int(self.item_table.shape[1])


def xavier_uniform(rows, cols, rng, dtype=np.float64):
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols)).astype(dtype)


def propagate(user0, item0, graph, k_layers):
    """Run ``k_layers`` propagation steps; returns per-layer (user, item) pairs.

    Layer k of user u is the degree-normalized sum of its neighbors' layer
    k-1 item rows (and symmetrically for items). Rows with zero degree have
    an empty neighbor sum and are zero from layer 1 on.
    """
    du = graph.user_degree[graph.user_idx].astype(user0.dtype)
    di = graph.item_degree[graph.item_idx].astype(user0.dtype)
    coeff = 1.0 / (np.sqrt(du) * np.sqrt(di)) if graph.n_edges else np.zeros(0, dtype=user0.dtype)
    layers = [(user0, item0)]
    u_prev, i_prev = user0, item0
    for _ in range(k_layers):
        u_next, i_next = kernels.propagate_step(graph.user_idx, graph.item_idx, coeff, u_prev, i_prev)
        layers.append((u_next, i_next))
        u_prev, i_prev = u_next, i_next
    return layers


def aggregate_layers(layers):
    """Element-wise mean over the K+1 per-layer tables."""
    users = np.mean([u for u, _ in layers], axis=0)
    items = np.mean([i for _, i in layers], axis=0)
    return users, items


def _sample_negatives(users, per_user_sets, n_items, rng):
    """One uniform unobserved negative per positive, by rejection."""
    neg = np.empty(users.shape[0], dtype=np.int64)
    for n in range(users.shape[0]):
        interacted = per_user_sets[int(users[n])]
        j = int(rng.integers(0, n_items))
        tries = 0
        while j in interacted and tries < 100:
            j = int(rng.integers(0, n_items))
            tries += 1
        neg[n] = j
    return neg


def pretrain(graph, d, k_layers, epochs, lr, neg_samples, rng, reg=1e-4):
    """Train layer-0 tables, then propagate and aggregate.

    With zero edges training is skipped and the untrained layer-0
    initialization is exported directly (there is nothing to propagate).
    Same rng seed, same result, bit for bit.
    """
    m, n = graph.n_users, graph.n_items
    user0 = xavier_uniform(m, d, rng)
    item0 = xavier_uniform(n, d, rng)
    if graph.n_edges == 0:
        log.warning("no interactions; embeddings untrained")
        return CfEmbeddings(
            user_table=user0.astype(np.float32),
            item_table=item0.astype(np.float32),
            k_layers=k_layers,
        )

    per_user = [set() for _ in range(m)]
    for u, i in zip(graph.user_idx, graph.item_idx):
        per_user[int(u)].add(int(i))

    for _ in range(epochs):
        order = rng.permutation(graph.n_edges)
        us = graph.user_idx[order]
        pos = graph.item_idx[order]
        for _ in range(neg_samples):
            neg = _sample_negatives(us, per_user, n, rng)
            kernels.bpr_epoch(user0, item0, us, pos, neg, float(lr), float(reg))

    layers = propagate(user0, item0, graph, k_layers)
    users, items = aggregate_layers(layers)
    return CfEmbeddings(
        user_table=users.astype(np.float32),
        item_table=items.astype(np.float32),
        k_layers=k_layers,
    )


def save_cf(path, emb):
    m, d = emb.user_table.shape
    n = emb.item_table.shape[0]
    with open(path, "wb") as fh:
        fh.write(CF_MAGIC)
        fh.write(struct.pack("<IIIII", CF_VERSION, m, n, d, emb.k_layers))
        fh.write(emb.user_table.astype("<f4").tobytes())
        fh.write(emb.item_table.astype("<f4").tobytes())


def load_cf(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CF_MAGIC:
        raise CorpusFormatError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 24:
        raise CorpusFormatError(f"{path}: truncated header, {len(blob)} of 24 bytes")
    version, m, n, d, k = struct.unpack_from("<IIIII", blob, 4)
    if version != CF_VERSION:
        raise CorpusFormatError(f"{path}: unsupported version {version}")
    need = 24 + (m + n) * d * 4
    if len(blob) != need:
        raise CorpusFormatError(f"{path}: expected {need} bytes, found {len(blob)}")
    users = np.frombuffer(blob, dtype="<f4", count=m * d, offset=24).reshape(m, d).copy()
    items = np.frombuffer(blob, dtype="<f4", count=n * d, offset=24 + m * d * 4).reshape(n, d).copy()
    return CfEmbeddings(user_table=users, item_table=items, k_layers=int(k))
