"""Hot numeric kernels with two interchangeable implementations.

Each kernel exists as a numba ``@njit`` version and a pure-numpy fallback.
The active path is picked once at import time from the ``BUNDLECRAFT_NUMBA``
environment variable: "0", "false", "no" or "off" select the numpy path,
anything else (or unset) selects the jit path whenever numba imports
cleanly. ``benchmarks/bench_kernels.py`` times the two side by side.

Dense matrix products are left to BLAS on purpose; only genuinely
loop-shaped work lives here (row softmax passes, edge scatter propagation,
the per-sample pairwise-ranking update sweep). No fastmath, no thread
parallelism: given the same inputs a path always produces the same bits.
"""

import os

import numpy as np

_ENV_FLAG = os.environ.get("BUNDLECRAFT_NUMBA", "").strip().lower()

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # numba is the optional "jit" extra; the numpy path is complete
    _HAVE_NUMBA = False

USE_NUMBA = _HAVE_NUMBA and _ENV_FLAG not in ("0", "false", "no", "off")


# ---------------------------------------------------------------------------
# numpy fallbacks
# ---------------------------------------------------------------------------

def softmax_rows_numpy(x):
    """Row softmax with row-max subtraction."""
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=1, keepdims=True)


def softmax_rows_grad_numpy(p, g):
    """Backward of row softmax: dx = p * (g - sum(g * p, row))."""
    dot = (g * p).sum(axis=1, keepdims=True)
    return p * (g - dot)


def log_softmax_rows_numpy(x):
    m = x.max(axis=1, keepdims=True)
    s = x - m
    lse = np.log(np.exp(s).sum(axis=1, keepdims=True))
    return s - lse


def log_softmax_rows_grad_numpy(y, g):
    """Backward of row log-softmax: dx = g - exp(y) * sum(g, row)."""
    return g - np.exp(y) * g.sum(axis=1, keepdims=True)


def propagate_step_numpy(u_idx, i_idx, coeff, user_prev, item_prev):
    """One bipartite propagation layer.

    For every edge (u, i) with weight ``coeff = 1/(sqrt(deg_u) sqrt(deg_i))``
    accumulates ``coeff * item_prev[i]`` into the next user table and
    ``coeff * user_prev[u]`` into the next item table. Zero-degree rows stay
    zero (empty neighbor sum).
    """
    user_next = np.zeros_like(user_prev)
    item_next = np.zeros_like(item_prev)
    if u_idx.shape[0]:
        w = coeff[:, None]
        np.add.at(user_next, u_idx, w * item_prev[i_idx])
        np.add.at(item_next, i_idx, w * user_prev[u_idx])
    return user_next, item_next


def bpr_epoch_numpy(user, item, us, pos, neg, lr, reg):
    """One sequential sweep of pairwise-ranking SGD updates, in place.

    ``us[n]`` interacted with ``pos[n]`` but not with ``neg[n]``; the update
    pushes score(u, pos) above score(u, neg) through a sigmoid link with L2
    weight decay ``reg``.
    """
    for n in range(us.shape[0]):
        u, i, j = us[n], pos[n], neg[n]
        pu = user[u].copy()
        pi = item[i].copy()
        pj = item[j].copy()
        x = float(np.dot(pu, pi - pj))
        if x >= 0.0:
            e = np.exp(-x)
            s = e / (1.0 + e)
        else:
            s = 1.0 / (1.0 + np.exp(x))
        user[u] = pu + lr * (s * (pi - pj) - reg * pu)
        item[i] = pi + lr * (s * pu - reg * pi)
        item[j] = pj + lr * (-s * pu - reg * pj)


# ---------------------------------------------------------------------------
# numba versions
# ---------------------------------------------------------------------------

if _HAVE_NUMBA:

    @njit(cache=True)
    def softmax_rows_numba(x):
        n, m = x.shape
        out = np.empty_like(x)
        for r in range(n):
            mx = x[r, 0]
            for c in range(1, m):
                if x[r, c] > mx:
                    mx = x[r, c]
            tot = 0.0
            for c in range(m):
                v = np.exp(x[r, c] - mx)
                out[r, c] = v
                tot += v
            for c in range(m):
                out[r, c] = out[r, c] / tot
        return out

    @njit(cache=True)
    def softmax_rows_grad_numba(p, g):
        n, m = p.shape
        out = np.empty_like(p)
        for r in range(n):
            dot = 0.0
            for c in range(m):
                dot += g[r, c] * p[r, c]
            for c in range(m):
                out[r, c] = p[r, c] * (g[r, c] - dot)
        return out

    @njit(cache=True)
    def log_softmax_rows_numba(x):
        n, m = x.shape
        out = np.empty_like(x)
        for r in range(n):
            mx = x[r, 0]
            for c in range(1, m):
                if x[r, c] > mx:
                    mx = x[r, c]
            tot = 0.0
            for c in range(m):
                tot += np.exp(x[r, c] - mx)
            lse = np.log(tot)
            for c in range(m):
                out[r, c] = x[r, c] - mx - lse
        return out

    @njit(cache=True)
    def log_softmax_rows_grad_numba(y, g):
        n, m = y.shape
        out = np.empty_like(y)
        for r in range(n):
            tot = 0.0
            for c in range(m):
                tot += g[r, c]
            for c in range(m):
                out[r, c] = g[r, c] - np.exp(y[r, c]) * tot
        return out

    @njit(cache=True)
    def propagate_step_numba(u_idx, i_idx, coeff, user_prev, item_prev):
        user_next = np.zeros_like(user_prev)
        item_next = np.zeros_like(item_prev)
        d = user_prev.shape[1]
        for n in range(u_idx.shape[0]):
            u = u_idx[n]
            i = i_idx[n]
            c = coeff[n]
            for k in range(d):
                user_next[u, k] += c * item_prev[i, k]
                item_next[i, k] += c * user_prev[u, k]
        return user_next, item_next

    @njit(cache=True)
    def bpr_epoch_numba(user, item, us, pos, neg, lr, reg):
        d = user.shape[1]
        for n in range(us.shape[0]):
            u = us[n]
            i = pos[n]
            j = neg[n]
            x = 0.0
            for k in range(d):
                x += user[u, k] * (item[i, k] - item[j, k])
            if x >= 0.0:
                e = np.exp(-x)
                s = e / (1.0 + e)
            else:
                s = 1.0 / (1.0 + np.exp(x))
            for k in range(d):
                pu = user[u, k]
                pi = item[i, k]
                pj = item[j, k]
                user[u, k] = pu + lr * (s * (pi - pj) - reg * pu)
                item[i, k] = pi + lr * (s * pu - reg * pi)
                item[j, k] = pj + lr * (-s * pu - reg * pj)


IMPLEMENTATIONS = {
    "numpy": {
        "softmax_rows": softmax_rows_numpy,
        "softmax_rows_grad": softmax_rows_grad_numpy,
        "log_softmax_rows": log_softmax_rows_numpy,
        "log_softmax_rows_grad": log_softmax_rows_grad_numpy,
        "propagate_step": propagate_step_numpy,
        "bpr_epoch": bpr_epoch_numpy,
    }
}
if _HAVE_NUMBA:
    IMPLEMENTATIONS["numba"] = {
        "softmax_rows": softmax_rows_numba,
        "softmax_rows_grad": softmax_rows_grad_numba,
        "log_softmax_rows": log_softmax_rows_numba,
        "log_softmax_rows_grad": log_softmax_rows_grad_numba,
        "propagate_step": propagate_step_numba,
        "bpr_epoch": bpr_epoch_numba,
    }

ACTIVE = "numba" if USE_NUMBA else "numpy"

softmax_rows = IMPLEMENTATIONS[ACTIVE]["softmax_rows"]
softmax_rows_grad = IMPLEMENTATIONS[ACTIVE]["softmax_rows_grad"]
log_softmax_rows = IMPLEMENTATIONS[ACTIVE]["log_softmax_rows"]
log_softmax_rows_grad = IMPLEMENTATIONS[ACTIVE]["log_softmax_rows_grad"]
propagate_step = IMPLEMENTATIONS[ACTIVE]["propagate_step"]
bpr_epoch = IMPLEMENTATIONS[ACTIVE]["bpr_epoch"]
