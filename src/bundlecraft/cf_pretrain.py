"""Collaborative-filtering pretraining on the user-item bipartite graph.

Layer-0 user/item tables are trained with a pairwise ranking objective
(observed item scored above a sampled unobserved item, sigmoid link, global
L2 decay), then propagated through symmetric degree-normalized graph layers
and aggregated by a true mean over layers 0..K. The exported item vectors
are frozen inputs to the bundle model and are never updated by it.

The ranking updates are applied in dependency waves, each a batch of
updates that share no row and see every earlier update to their rows, in an
in-place form that rounds differently from the textbook update in the last
place (a few float32 CF values move by one ulp). Negatives are drawn for a
whole epoch at once. So CF checkpoints differ from those written by the
earlier per-update loop at the same seed; the same seed still writes the
same bytes.

On a host with two or more CPUs the ranking sweep and each propagation
layer also run on a helper thread that lives for one kernel call: each
large wave is split by rows, and the user and item sides of a layer are
computed at the same time (see ``kernels``). That changes no bit: the
tables are the same on one thread or two. Each epoch's log line and the
propagation line say how the work ran, ``split over 2 threads`` or
``inline (<reason>)``.

Checkpoint format: magic ``CFE1``, u32 LE version, u32 LE M, N, d >= 1, K,
then the user and item tables as float32 LE values row-major and nothing
more. A NaN or inf in either table is a format error (exit 2).
"""

import logging
import math
import numbers
import struct
import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .binio import Reader
from .errors import ConfigError, CorpusFormatError, NonFiniteError

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
    return rng.uniform(-bound, bound, size=(rows, cols)).astype(dtype, copy=False)


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
    """Element-wise mean over the K+1 per-layer tables.

    Sums in layer order and divides once, the bits ``np.mean`` over the
    stacked tables gives, without building the stack.
    """
    users, items = layers[0][0].copy(), layers[0][1].copy()
    for u, i in layers[1:]:
        users += u
        items += i
    return users / len(layers), items / len(layers)


MAX_REDRAWS = 100


def _observed(keys, edge_keys):
    """Which ``user * N + item`` keys are in the sorted ``edge_keys``."""
    at = np.searchsorted(edge_keys, keys)
    return edge_keys[np.minimum(at, edge_keys.shape[0] - 1)] == keys


def _sample_negatives(users, edge_keys, n_items, rng):
    """One uniform unobserved negative per positive, by rejection.

    All negatives are drawn at once; observed pairs are redrawn, up to
    ``MAX_REDRAWS`` rounds, after which the last draw is accepted even if
    observed (a give-up). Returns the negatives, the number of entries that
    were redrawn at least once and the number of give-ups.
    """
    neg = rng.integers(0, n_items, size=users.shape[0])
    todo = np.flatnonzero(_observed(users * n_items + neg, edge_keys))
    redrawn = int(todo.size)
    for _ in range(MAX_REDRAWS):
        if not todo.size:
            break
        neg[todo] = rng.integers(0, n_items, size=todo.size)
        todo = todo[_observed(users[todo] * n_items + neg[todo], edge_keys)]
    return neg, redrawn, int(todo.size)


def _check_settings(d, k_layers, epochs, lr, neg_samples, reg):
    """Reject CF settings that cannot train or cannot be saved."""
    for name, value, low in (("d", d, 1), ("k_layers", k_layers, 0), ("epochs", epochs, 0),
                             ("neg_samples", neg_samples, 0)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
            raise ConfigError(f"cf.{name} must be an integer >= {low}, got {value!r}")
    for name, value in (("lr", lr), ("reg", reg)):
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not math.isfinite(value) or value < 0):
            raise ConfigError(f"cf.{name} must be a finite number >= 0, got {value!r}")


def pretrain(graph, d, k_layers, epochs, lr, neg_samples, rng, reg=1e-4):
    """Train layer-0 tables, then propagate and aggregate.

    With zero edges training is skipped and the untrained layer-0
    initialization is exported directly (there is nothing to propagate).
    Same rng seed, same result, bit for bit. Logs one line per epoch and one
    for propagation; raises ``NonFiniteError`` as soon as an epoch leaves a
    non-finite layer-0 value.
    """
    _check_settings(d, k_layers, epochs, lr, neg_samples, reg)
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

    edge_keys = np.sort(graph.user_idx * n + graph.item_idx)
    bpr_runs = kernels.describe(kernels.inline_because(graph.n_edges))
    for epoch in range(1, epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(graph.n_edges)
        us = graph.user_idx[order]
        pos = graph.item_idx[order]
        waves = redrawn = give_ups = 0
        for _ in range(neg_samples):
            neg, r, g = _sample_negatives(us, edge_keys, n, rng)
            redrawn += r
            give_ups += g
            waves += kernels.bpr_epoch(user0, item0, us, pos, neg, float(lr), float(reg))
        if not (np.isfinite(user0).all() and np.isfinite(item0).all()):
            raise NonFiniteError(f"cf pretraining diverged in epoch {epoch}: non-finite "
                                 f"embeddings (lr={lr}, reg={reg})")
        log.info("cf epoch %d/%d: %.3f s, %d waves %s, %d negatives redrawn, %d give-ups",
                 epoch, epochs, time.perf_counter() - t0, waves, bpr_runs, redrawn, give_ups)
        if give_ups:
            log.warning("cf epoch %d: %d negatives are observed pairs after %d redraws "
                        "(users adjacent to nearly every item)", epoch, give_ups, MAX_REDRAWS)

    t0 = time.perf_counter()
    layers = propagate(user0, item0, graph, k_layers)
    log.info("cf propagation: K=%d over %d edges, %.3f s, %s", k_layers, graph.n_edges,
             time.perf_counter() - t0,
             kernels.describe(kernels.inline_because() if k_layers else "no layers"))
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
    reader = Reader(path, CF_MAGIC)
    (version,) = reader.u32(1)
    if version != CF_VERSION:
        raise CorpusFormatError(f"{path}: unsupported version {version}")
    m, n, d, k = reader.u32(4)
    if d < 1:
        raise CorpusFormatError(f"{path}: embedding width d={d}, must be >= 1")
    users = reader.f32(m, d, "user table")
    items = reader.f32(n, d, "item table")
    reader.end()
    return CfEmbeddings(user_table=users, item_table=items, k_layers=int(k))
