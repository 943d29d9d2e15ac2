"""Hot numeric kernels, in numpy.

Dense matrix products are left to BLAS on purpose; only genuinely
loop-shaped work lives here (row softmax passes, edge scatter propagation,
the per-sample pairwise-ranking update sweep). Given the same inputs each
kernel always produces the same bits.

The kernels are module attributes that callers look up at call time
(``kernels.softmax_rows(...)``), so a tracer can rebind them by name.
"""

import numpy as np

# Name of the kernel path, recorded in benchmark records and matched when
# two records are compared; numpy is the only path.
ACTIVE = "numpy"


def softmax_rows(x):
    """Row softmax with row-max subtraction."""
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=1, keepdims=True)


def softmax_rows_grad(p, g):
    """Backward of row softmax: dx = p * (g - sum(g * p, row))."""
    dot = (g * p).sum(axis=1, keepdims=True)
    return p * (g - dot)


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
    """
    user_next = np.zeros_like(user_prev)
    item_next = np.zeros_like(item_prev)
    if u_idx.shape[0]:
        w = coeff[:, None]
        np.add.at(user_next, u_idx, w * item_prev[i_idx])
        np.add.at(item_next, i_idx, w * user_prev[u_idx])
    return user_next, item_next


def bpr_epoch(user, item, us, pos, neg, lr, reg):
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
