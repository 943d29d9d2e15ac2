"""Hot numeric kernels, in numpy, with scipy.sparse for graph propagation.

Dense matrix products are left to BLAS on purpose; only genuinely
loop-shaped work lives here (row softmax passes, the pairwise-ranking SGD
sweep, applied as batched runs of updates that touch no row twice) and graph
propagation, which is one sparse matrix product per side: a CSR adjacency
built from the edge list, times the dense table, through ``scipy.sparse``.
Given the same inputs each kernel always produces the same bits.

``softmax_rows`` and its backward serve set attention, whose rows are set
sizes: 3 slots per item, the largest seed set per bundle. Their row max and
row sum run one column at a time, which costs a pass per column instead of
numpy's per-row reduction; the log-softmax pair takes catalog-wide rows and
keeps numpy's row reductions.

The kernels are module attributes that callers look up at call time
(``kernels.softmax_rows(...)``), so a tracer can rebind them by name.
"""

import numpy as np

# Name of the kernel path, recorded in benchmark records and matched when
# two records are compared; numpy is the only path.
ACTIVE = "numpy"


def softmax_rows(x):
    """Row softmax with row-max subtraction."""
    m = _row_reduce(np.maximum, x)
    e = np.exp(x - m)
    e /= _row_reduce(np.add, e)
    return e


def softmax_rows_grad(p, g):
    """Backward of row softmax: dx = p * (g - sum(g * p, row))."""
    dx = g - _row_reduce(np.add, g * p)
    dx *= p
    return dx


def _row_reduce(op, x):
    """``op`` folded over the columns of ``x`` left to right, as an N x 1 column.

    One pass per column beats numpy's per-row reduction on short rows; below
    8 columns numpy's row sum also adds in order, so the bits are the same.
    """
    acc = x[:, :1].copy()
    for j in range(1, x.shape[1]):
        op(acc, x[:, j : j + 1], out=acc)
    return acc


def log_softmax_rows(x):
    m = x.max(axis=1, keepdims=True)
    s = x - m
    lse = np.log(np.exp(s).sum(axis=1, keepdims=True))
    return s - lse


def log_softmax_rows_grad(y, g):
    """Backward of row log-softmax: dx = g - exp(y) * sum(g, row)."""
    return g - np.exp(y) * g.sum(axis=1, keepdims=True)


def propagate_step(u_idx, i_idx, coeff, user_prev, item_prev):
    """One bipartite propagation layer.

    For every edge (u, i) with weight ``coeff = 1/(sqrt(deg_u) sqrt(deg_i))``
    accumulates ``coeff * item_prev[i]`` into the next user table and
    ``coeff * user_prev[u]`` into the next item table. Zero-degree rows stay
    zero (empty neighbor sum).

    Each side is one CSR matrix times the source table, in float64. Each
    destination row adds its edge products in edge order, starting from
    zero, as an edge-by-edge ``np.add.at`` does: float64 tables are
    bit-identical to it, and float32 tables are that ``np.add.at`` on the
    upcast inputs (every product exact), rounded once. The result keeps the
    input dtype.
    """
    return (_edge_sum(u_idx, i_idx, coeff, item_prev, user_prev),
            _edge_sum(i_idx, u_idx, coeff, user_prev, item_prev))


def _edge_sum(dst, src, coeff, table, like):
    """``out[dst[e]] += coeff[e] * table[src[e]]`` for every edge e, into
    zeros shaped and typed like ``like``.

    The CSR arrays are built here, not through COO: scipy's COO to CSR
    conversion sorts each row's columns and merges repeated edges, which
    would reorder the sum. Sorting by destination, then edge, keeps each
    row's edges in edge order, and scipy's CSR times dense product adds them
    in that order.
    """
    # imported on first use: scipy.sparse adds ~22 MB to the resident set,
    # and only pretraining propagates
    from scipy.sparse import csr_matrix

    # the keys are distinct, so numpy's quicksort gives the stable order,
    # about 3x faster than a stable sort of ``dst`` on unsorted edges
    e = dst.shape[0]
    order = np.argsort(dst.astype(np.int64, copy=False) * e + np.arange(e))
    indptr = np.zeros(like.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=like.shape[0]), out=indptr[1:])
    adj = csr_matrix((coeff[order].astype(np.float64, copy=False), src[order], indptr),
                     shape=(like.shape[0], table.shape[0]))
    out = adj @ table.astype(np.float64, copy=False)
    return out.astype(like.dtype, copy=False)


def _previous_touch(keys, rows):
    """For each event ``(keys[e], rows[e])``, the latest earlier row with the
    same key, or -1. Events of one row never count against each other."""
    prev = np.full(keys.shape[0], -1, dtype=np.int64)
    # rows < len(keys), so sorting key * len(keys) + row orders by key, then row
    order = np.argsort(keys * keys.shape[0] + rows)
    k, r = keys[order], rows[order]
    linked = (k[1:] == k[:-1]) & (r[1:] != r[:-1])
    prev[order[1:][linked]] = r[:-1][linked]
    return prev


def _conflict_free_runs(us, pos, neg):
    """Boundaries ``[0, b1, ..., n]`` of the maximal consecutive runs of
    updates in which no user row and no item row repeats.

    ``pos`` and ``neg`` share one item namespace. A run ends just before the
    first update that touches a row an earlier update of the run touched.
    """
    n = us.shape[0]
    rows = np.arange(n)
    items = _previous_touch(np.concatenate([pos, neg]), np.concatenate([rows, rows]))
    last = np.maximum(_previous_touch(us, rows), np.maximum(items[:n], items[n:]))
    bounds = [0]
    start = 0
    while start < n:
        width = 64
        while True:
            hit = np.flatnonzero(last[start + 1 : start + 1 + width] >= start)
            if hit.size:
                start += 1 + int(hit[0])
                break
            if start + 1 + width >= n:
                start = n
                break
            width *= 2
        bounds.append(start)
    return bounds


def bpr_epoch(user, item, us, pos, neg, lr, reg):
    """One sweep of pairwise-ranking SGD updates, in place.

    ``us[n]`` interacted with ``pos[n]`` but not with ``neg[n]``; the update
    pushes score(u, pos) above score(u, neg) through a sigmoid link with L2
    weight decay ``reg``.

    The stream is cut into maximal consecutive runs that touch no user row
    and no item row twice, and each run is applied as one gathered update
    from the rows as they stood before the run. Rows within a run are
    disjoint, so this is the sequential sweep, not a racing one: only the
    rounding of the dot products differs. Within an update the item writes
    go ``pos`` then ``neg``, so an update with ``pos == neg`` keeps the
    ``neg`` write.
    """
    bounds = _conflict_free_runs(us, pos, neg)
    for a, b in zip(bounds[:-1], bounds[1:]):
        u, i, j = us[a:b], pos[a:b], neg[a:b]
        pu, pi, pj = user[u], item[i], item[j]
        diff = pi - pj
        x = np.einsum("ij,ij->i", pu, diff)
        e = np.exp(-np.abs(x))
        s = np.where(x >= 0.0, e / (1.0 + e), 1.0 / (1.0 + e))[:, None]
        user[u] = pu + lr * (s * diff - reg * pu)
        item[i] = pi + lr * (s * pu - reg * pi)
        item[j] = pj + lr * (-s * pu - reg * pj)
