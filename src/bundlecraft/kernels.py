"""Hot numeric kernels, in numpy, with scipy.sparse for graph propagation.

Dense matrix products are left to BLAS on purpose; only genuinely
loop-shaped work lives here (row softmax passes, the pairwise-ranking SGD
sweep) and graph propagation, which is one sparse matrix product per side: a
CSR adjacency built from the edge list, times the dense table, through
``scipy.sparse``. Given the same inputs each kernel always produces the same
bits.

The SGD sweep is applied in dependency waves: an update joins the wave after
the latest earlier update that shares a row with it, and each wave is one
gathered, in-place update of rows that no other update in it touches. That
is the sequential sweep's order of row updates, with the last-place
rounding of the in-place form (``bpr_epoch``).

``softmax_rows`` and its backward serve set attention, whose rows are set
sizes: 3 slots per item, the largest seed set per bundle. Their row max and
row sum run one column at a time, which costs a pass per column instead of
numpy's per-row reduction; the log-softmax pair takes catalog-wide rows and
keeps numpy's row reductions.

CF pretraining uses the second CPU of a two-CPU host where its work is
row-independent. Each ``bpr_epoch`` or ``propagate_step`` call starts one
helper thread and ends it before returning. ``bpr_epoch`` builds the user
links and the item links of its schedule at the same time and splits each
wave of ``SPLIT_MIN_ROWS`` or more updates by rows, half on the calling
thread and half on the helper; ``propagate_step`` computes its user side and
its item side at the same time. The halves touch disjoint rows and compute
each row as the whole would, so the tables are the same bits on one thread
or two. With one CPU to run on, or a stream too short to hold a wave worth
splitting, everything runs on the calling thread and no thread starts
(``inline_because``).

Jobs reach a helper through one protocol (``run_split``), which
``evaluation.ScoreProduct`` shares with its own long-lived helper: a job is
a callable, a job the helper has not claimed when the caller finishes its
own part is run by the caller, the caller's numpy error state applies in
the helper, and the helper's exception is raised in the caller.

The kernels are module attributes that callers look up at call time
(``kernels.softmax_rows(...)``), so a tracer can rebind them by name. The
work a helper runs calls no traced kernel: a tracer keeps one span stack
for all threads.
"""

import contextlib
import functools
import os
import queue
import threading

import numpy as np

# Name of the kernel path, recorded in benchmark records and matched when
# two records are compared; numpy is the only path.
ACTIVE = "numpy"
# bpr_epoch runs a dependency wave of fewer updates on the calling thread
# alone. On forty chained waves of d=64 rows over a 50k-row item table
# (2 vCPUs), the split ran 19% slower than inline at 384 updates a wave,
# even at 512, and 8%, 24% and 41% faster at 640, 1024 and 2048; the two
# halves contend for the GIL, and each wave ends in a hand-off. On the
# benchmark's pretraining stream, waves of 512 or more hold 94% of the
# updates.
SPLIT_MIN_ROWS = 512
# name of the helper thread a bpr_epoch or propagate_step call starts
CALL_HELPER_NAME = "bundlecraft-cf-helper"


def cpus():
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def inline_because(updates=None):
    """Why a ``bpr_epoch`` over ``updates`` updates, or a ``propagate_step``
    when ``updates`` is None, runs on the calling thread alone; None when it
    uses a helper thread."""
    if cpus() < 2:
        return "one CPU"
    if updates is not None and updates < SPLIT_MIN_ROWS:
        return f"{updates} updates, under {SPLIT_MIN_ROWS}"
    return None


def describe(reason):
    """How a call ran, given its ``inline_because`` reason."""
    return "split over 2 threads" if reason is None else f"inline ({reason})"


def _serve_jobs(jobs):
    """Helper thread: run each job until a None job arrives, handing the
    caller None or the exception raised. A job whose claim the caller took
    first is skipped: the caller ran it itself."""
    while (job := jobs.get()) is not None:
        fn, errstate, claim, done = job
        if not claim.acquire(blocking=False):
            continue
        try:
            with np.errstate(**errstate):
                fn()
        except BaseException as exc:  # raised again by the caller waiting on done
            done.put(exc)
        else:
            done.put(None)


def start_helper(name):
    """A daemon helper thread serving a new job queue; returns the queue
    and the thread. Putting None on the queue ends the thread."""
    jobs = queue.SimpleQueue()
    thread = threading.Thread(target=_serve_jobs, args=(jobs,), name=name, daemon=True)
    thread.start()
    return jobs, thread


@contextlib.contextmanager
def call_helper(reason):
    """The job queue of a helper thread that lives for one call, or None,
    starting no thread, when ``reason`` says why the call runs inline."""
    if reason is not None:
        yield None
        return
    jobs, thread = start_helper(CALL_HELPER_NAME)
    try:
        yield jobs
    finally:
        jobs.put(None)
        thread.join()


def run_split(jobs, mine, theirs):
    """Run ``mine()`` on the calling thread and ``theirs()`` on the helper
    serving ``jobs``; return when both have run.

    If the helper has not claimed ``theirs`` by the time ``mine`` returns
    (its CPU is busy, or it is still on an earlier job), the caller runs it
    instead of waiting. A job the helper claimed is always waited for, and
    its exception is raised here. The helper runs under the caller's numpy
    error state. With ``jobs`` None both run on the calling thread.
    """
    if jobs is None:
        mine()
        theirs()
        return
    claim, done = threading.Lock(), queue.SimpleQueue()
    jobs.put((theirs, np.geterr(), claim, done))
    try:
        mine()
    finally:
        taken = claim.acquire(blocking=False)
        failure = None if taken else done.get()
    if taken:
        theirs()
    elif failure is not None:
        raise failure


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

    With two CPUs the item side runs on a helper thread while the calling
    thread computes the user side; each side's bits are its own.
    """
    sides = [None, None]

    def side(k, dst, src, table, like):
        sides[k] = _edge_sum(dst, src, coeff, table, like)

    with call_helper(inline_because()) as jobs:
        run_split(jobs, functools.partial(side, 0, u_idx, i_idx, item_prev, user_prev),
                  functools.partial(side, 1, i_idx, u_idx, user_prev, item_prev))
    return sides[0], sides[1]


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
    data = np.take(coeff, order).astype(np.float64, copy=False)
    adj = csr_matrix((data, np.take(src, order), indptr), shape=(like.shape[0], table.shape[0]))
    out = adj @ table.astype(np.float64, copy=False)
    return out.astype(like.dtype, copy=False)


def _dependency_waves(us, pos, neg, jobs=None):
    """Schedule the updates ``(us[n], pos[n], neg[n])`` in dependency waves.

    An update's wave is one more than the latest wave among the earlier
    updates that share its user row or one of its item rows (``pos`` and
    ``neg`` share one item namespace; an update never depends on itself).
    Returns ``order``, the update indices wave by wave, and ``bounds``, with
    wave ``w`` at ``order[bounds[w]:bounds[w + 1]]``.

    Each update links to the next update that touches each of its rows, so
    a row's updates form a chain in stream order; the waves are the
    frontiers of a topological sort of those links. The user links are built
    on the helper serving ``jobs``, if any, while the caller builds the item
    links; the two write disjoint columns.
    """
    n = us.shape[0]
    # children[k] = the next updates after k on its user row, its pos row
    # and its neg row, or -1; ``flat`` is its row-major view
    children = np.full((n, 3), -1, dtype=np.int64)
    flat = children.ravel()

    def user_links():
        order = np.argsort(us.astype(np.int64, copy=False) * n + np.arange(n))
        rows = us[order]
        same = rows[1:] == rows[:-1]
        flat[3 * order[:-1][same]] = order[1:][same]

    def item_links():
        # item events (n, 2) in update order, pos before neg, so ties sort by
        # update; event e is update e >> 1 and sits in column 1 + (e & 1)
        items = np.stack([pos, neg], axis=1).ravel().astype(np.int64, copy=False)
        order = np.argsort(items * (2 * n) + np.arange(2 * n))
        rows, update = items[order], order >> 1
        same = (rows[1:] == rows[:-1]) & (update[1:] != update[:-1])
        event = order[:-1][same]
        flat[3 * (event >> 1) + 1 + (event & 1)] = update[1:][same]

    run_split(jobs, item_links, user_links)

    indegree = np.bincount(flat + 1, minlength=n + 1)[1:]
    front = np.flatnonzero(indegree == 0)
    tag = np.empty(n, dtype=np.int64)
    fronts = []
    while front.size:
        fronts.append(front)
        child = np.take(children, front, axis=0).ravel()
        child = child[child >= 0]
        np.subtract.at(indegree, child, 1)
        child = child[indegree[child] == 0]
        # a child linked twice from this front appears twice: keep one copy
        slot = np.arange(child.size)
        tag[child] = slot
        front = child[tag[child] == slot]
    bounds = np.zeros(len(fronts) + 1, dtype=np.int64)
    np.cumsum([f.size for f in fronts], out=bounds[1:])
    order = np.concatenate(fronts) if fronts else np.zeros(0, dtype=np.int64)
    return order, bounds


def bpr_epoch(user, item, us, pos, neg, lr, reg):
    """One sweep of pairwise-ranking SGD updates, in place; returns the
    number of dependency waves it applied.

    ``us[n]`` interacted with ``pos[n]`` but not with ``neg[n]``; the update
    pushes score(u, pos) above score(u, neg) through a sigmoid link with L2
    weight decay ``reg``.

    The stream is scheduled in dependency waves (``_dependency_waves``) and
    each wave is applied as one gathered update. No row repeats within a
    wave, each row's updates apply in stream order, and each update reads
    its rows as the updates before it left them: this is the sequential
    sweep, not a racing one. The update is written as in-place ufuncs,
    ``pu = c*pu + g*(pi - pj)``, ``pi = c*pi + g*pu``, ``pj = c*pj - g*pu``
    with ``g = lr*sigmoid(-x)`` and ``c = 1 - lr*reg``, which rounds
    differently from the textbook form ``p + lr*(grad - reg*p)`` in the last
    place. Within an update the item writes go ``pos`` then ``neg``, so an
    update with ``pos == neg`` keeps the ``neg`` write.

    With two CPUs and ``SPLIT_MIN_ROWS`` or more updates, the call starts a
    helper thread and ends it before returning: the helper builds half of
    the schedule's links and computes the second half of the rows of each
    wave of ``SPLIT_MIN_ROWS`` or more updates. A wave's rows are disjoint,
    so the halves neither read nor write each other's rows, and the result
    is the same bits as on one thread.
    """
    c = 1.0 - lr * reg
    with call_helper(inline_because(us.shape[0])) as jobs:
        order, bounds = _dependency_waves(us, pos, neg, jobs)
        us, pos, neg = np.take(us, order), np.take(pos, order), np.take(neg, order)

        def update(a, b):
            u, i, j = us[a:b], pos[a:b], neg[a:b]
            # np.take, unlike fancy indexing, lets the other thread run
            # while it gathers; pos rows, then neg rows: one gather and one
            # decay for both
            pu = np.take(user, u, axis=0)
            pij = np.take(item, np.concatenate((i, j)), axis=0)
            pi, pj = pij[: b - a], pij[b - a :]
            diff = pi - pj
            x = np.einsum("ij,ij->i", pu, diff)
            # g = lr * sigmoid(-x), as e / (1 + e) or 1 / (1 + e) with e = exp(-|x|)
            e = np.exp(-np.abs(x))
            g = np.where(x >= 0.0, e, 1.0)
            g /= 1.0 + e
            g *= lr
            g = g[:, None]
            diff *= g
            step = g * pu
            pu *= c
            pu += diff
            pij *= c
            pi += step
            pj -= step
            user[u] = pu
            item[i] = pi
            item[j] = pj

        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            if jobs is None or b - a < SPLIT_MIN_ROWS:
                update(a, b)
            else:
                mid = (a + b) // 2
                run_split(jobs, functools.partial(update, a, mid), functools.partial(update, mid, b))
    return len(bounds) - 1
