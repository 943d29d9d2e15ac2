"""Dense-matrix computation graph with reverse-mode differentiation.

Values are 2-D, C-contiguous numpy arrays ("matrices"); scalars are 1x1
matrices. Two precisions are supported: float32 for training throughput and
float64 for gradient checking, chosen when leaves are created and enforced
across every operation. Every operation validates shapes, and every output
is checked for NaN/Inf, which is always a hard error.

The graph is built eagerly: each operation returns a :class:`GraphNode`
holding the computed value, references to its parents and a local backward
rule. :func:`backward` walks the graph once in reverse topological order and
accumulates adjoints additively (fan-out sums). A graph is confined to one
thread; values are never mutated after construction, so nodes may be shared
read-only across threads.

Training needs only a few ops: the scores ``a @ b^T`` (:func:`matmul_nt`),
the picked log-softmax sum that both the NLL and InfoNCE reduce to
(:func:`log_softmax_pick`), row normalization, row gathers, sums of squares
and scalar arithmetic. The two encoders are one node each, built with
:func:`make_node` in their own modules on the set arithmetic at the end of
this one.
"""

import math

import numpy as np

from . import kernels
from .errors import DegenerateVectorError, GraphError, NonFiniteError, ShapeError

DTYPES = {"f32": np.float32, "f64": np.float64}


def check_finite(value, op):
    if not np.isfinite(value).all():
        raise NonFiniteError(f"{op} produced a non-finite value")


def _as_matrix(data, dtype):
    arr = np.ascontiguousarray(data, dtype=dtype)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"matrices are 2-D, got ndim={arr.ndim}")
    return arr


class GraphNode:
    """One node of the computation graph.

    ``value`` is the forward result, ``adjoint`` the gradient accumulator
    (None until the first gradient arrives, then a copy of it that later
    contributions add to; same shape and dtype as ``value``).
    ``requires_grad`` marks leaves that should receive gradients; interior
    nodes inherit it from their parents.
    """

    __slots__ = ("value", "adjoint", "parents", "requires_grad", "_rule", "_done")

    def __init__(self, value, parents=(), rule=None, requires_grad=False):
        self.value = value
        self.adjoint = None
        self.parents = parents
        self.requires_grad = requires_grad
        self._rule = rule
        self._done = False

    @property
    def shape(self):
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    def item(self):
        if self.value.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 node, got {self.value.shape}")
        return float(self.value[0, 0])

    def __repr__(self):
        return f"GraphNode(shape={self.value.shape}, requires_grad={self.requires_grad})"


def finite_matrix(data, dtype=np.float32):
    """``data`` as the checked C-contiguous matrix a :func:`constant` holds,
    with no node; a copy only when the dtype or layout differs."""
    value = _as_matrix(data, dtype)
    check_finite(value, "constant")
    return value


def constant(data, dtype=np.float32):
    """Leaf that never receives a gradient."""
    return GraphNode(finite_matrix(data, dtype))


def parameter(data, dtype=np.float32):
    """Trainable leaf; :func:`backward` fills its adjoint."""
    value = _as_matrix(data, dtype)
    check_finite(value, "parameter")
    return GraphNode(value, requires_grad=True)


def accumulate(node, grad):
    """Add ``grad`` to the adjoint of ``node``, if it takes gradients."""
    if not node.requires_grad:
        return
    if node.adjoint is None:
        node.adjoint = np.array(grad, dtype=node.value.dtype, order="C")
    else:
        node.adjoint += grad


def zero_adjoints(nodes):
    for node in nodes:
        node.adjoint = None


def backward(loss):
    """Populate adjoints of every reachable ``requires_grad`` node.

    ``loss`` must be scalar (1x1). Each node is visited exactly once in
    reverse topological order; fan-out contributions are summed. Calling
    backward twice on the same root without rebuilding the graph is an
    error, because adjoints would silently double.
    """
    if loss.value.shape != (1, 1):
        raise GraphError(f"backward root must be 1x1, got {loss.value.shape}")
    if loss._done:
        raise GraphError("backward already ran on this root; rebuild the graph or reset adjoints")

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    loss.adjoint = np.ones_like(loss.value)
    for node in reversed(topo):
        if node._rule is not None and node.adjoint is not None:
            node._rule(node.adjoint)
    loss._done = True


def _binary_preflight(a, b, op):
    if a.dtype != b.dtype:
        raise ShapeError(f"{op}: mixed dtypes {a.dtype} vs {b.dtype}")


def make_node(value, parents, rule, op):
    """A graph node for ``value``, checked finite, with backward ``rule``;
    ops built outside this module (the item encoder's table) use it too."""
    check_finite(value, op)
    requires = any(p.requires_grad for p in parents)
    return GraphNode(value, parents, rule if requires else None, requires)


# ---------------------------------------------------------------------------
# elementwise and scalar ops
# ---------------------------------------------------------------------------

def add(a, b):
    _binary_preflight(a, b, "add")
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} vs {b.shape}")

    def rule(g):
        accumulate(a, g)
        accumulate(b, g)

    return make_node(a.value + b.value, (a, b), rule, "add")


def smul(a, c):
    """Multiply by a python scalar."""
    c = float(c)

    def rule(g):
        accumulate(a, g * c)

    return make_node(a.value * c, (a,), rule, "smul")


def sdiv(a, c):
    """Divide by a python scalar (true division, kept distinct from smul
    so reductions match plain numpy means bit for bit)."""
    c = float(c)
    if c == 0.0:
        raise ShapeError("sdiv: divisor is zero")

    def rule(g):
        accumulate(a, g / c)

    return make_node(a.value / c, (a,), rule, "sdiv")


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul_nt(a, b):
    """``a @ b.T`` with no transposed copy in either pass: the backward is
    ``dA = G B`` and ``dB = G^T A``."""
    _binary_preflight(a, b, "matmul_nt")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"matmul_nt: {a.shape} x {b.shape}^T")

    def rule(g):
        if a.requires_grad:
            accumulate(a, g @ b.value)
        if b.requires_grad:
            accumulate(b, g.T @ a.value)

    return make_node(a.value @ b.value.T, (a, b), rule, "matmul_nt")


# ---------------------------------------------------------------------------
# row-structured ops
# ---------------------------------------------------------------------------

def log_softmax_pick(a, rows, cols, c):
    """``c`` times the sum of log softmax(row) over the entries
    ``(rows[k], cols[k])``, in that order, as a 1x1 node.

    Only the picked entries are summed, and the backward hands
    ``log_softmax_rows_grad`` a gradient that is ``g * c`` at the picked
    entries and zero elsewhere; neither pass forms a mask or a product with one.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape or rows.ndim != 1 or not rows.size:
        raise ShapeError(f"log_softmax_pick: {rows.shape} rows for {cols.shape} columns")
    n, m = a.shape
    if rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= m:
        raise ShapeError(f"log_softmax_pick: an entry outside {a.shape}")
    c = float(c)
    y = kernels.log_softmax_rows(a.value)

    def rule(g):
        picked = np.zeros_like(y)
        picked[rows, cols] = (g * c)[0, 0]
        accumulate(a, kernels.log_softmax_rows_grad(y, picked))

    return make_node(y[rows, cols].sum().reshape(1, 1) * c, (a,), rule, "log_softmax_pick")


def sum_squares(nodes):
    """The sum of squares of every entry of ``nodes`` as a 1x1 node.

    Each node's squares are summed by one ``(p * p).sum()``, and the per-node
    totals are added in order; the backward adds ``g * p`` to each node twice,
    once for each factor of the product, as an elementwise-product node with
    ``p`` as both parents would.
    """
    nodes = list(nodes)
    if not nodes:
        raise ShapeError("sum_squares: no inputs")
    total = None
    for p in nodes:
        _binary_preflight(nodes[0], p, "sum_squares")
        term = (p.value * p.value).sum().reshape(1, 1)
        total = term if total is None else total + term

    def rule(g):
        for p in nodes:
            if p.requires_grad:
                grad = g * p.value
                accumulate(p, grad)
                accumulate(p, grad)

    return make_node(total, tuple(nodes), rule, "sum_squares")


def normalize_rows(a):
    """Scale each row to unit L2 norm; a zero row is a degenerate input."""
    sq = (a.value * a.value).sum(axis=1, keepdims=True)
    if (sq == 0.0).any():
        raise DegenerateVectorError("normalize_rows: zero-norm row")
    norms = np.sqrt(sq)
    y = a.value / norms

    def rule(g):
        s = (g * y).sum(axis=1, keepdims=True)
        accumulate(a, (g - y * s) / norms)

    return make_node(y, (a,), rule, "normalize_rows")


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------

def take_rows(a, idx):
    """Gather rows by index; backward scatter-adds (indices may repeat)."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("take_rows: index must be 1-D")
    if idx.size and idx.min() < 0:
        raise ShapeError(f"take_rows: negative index for {a.shape[0]} rows")
    try:
        value = a.value[idx]
    except IndexError as exc:  # an index past the end
        raise ShapeError(f"take_rows: index out of range for {a.shape[0]} rows") from exc

    def rule(g):
        if not a.requires_grad:
            return
        if a.adjoint is None:
            a.adjoint = np.zeros_like(a.value)
        np.add.at(a.adjoint, idx, g)

    return make_node(value, (a,), rule, "take_rows")


# ---------------------------------------------------------------------------
# set ops
#
# A batch of G sets of up to S members is one (S*G) x d matrix stored
# member-major: row s*G + g is member s of set g. An optional S x G boolean
# mask marks the real members; padded rows are ignored, and set attention
# returns them as zero rows. The per-set products run on G x S x d strided
# views of these rows (_group_major) and write their results through such a
# view into a member-major buffer, so no step copies between the layouts.
#
# These are plain array functions, not graph ops: the item encoder's tiled
# table node and the bundle encoder's node call them in both passes, and
# forward-only scoring calls them with no graph at all.
# ---------------------------------------------------------------------------

def _group_major(x, size, groups):
    """(S*G) x d member-major rows as a G x S x d view."""
    return x.reshape(size, groups, -1).transpose(1, 0, 2)


def attention_forward(h, m, size, groups, mask=None):
    """One set-attention layer on member-major rows ``h``, with ``m = Wk Wq^T``.

    Returns the attended rows, the G x S x S softmax weights and ``h @ m``;
    the last two are what :func:`attention_backward` needs.
    """
    scale = math.sqrt(float(h.shape[1]))
    hm = h @ m
    x = _group_major(h, size, groups)
    logits = _group_major(hm, size, groups) @ x.transpose(0, 2, 1)
    logits /= scale
    if mask is not None:
        np.copyto(logits, -np.inf, where=~mask.T[:, None, :])
    p = kernels.softmax_rows(logits.reshape(-1, size)).reshape(groups, size, size)
    out = np.empty_like(h)
    np.matmul(p, x, out=_group_major(out, size, groups))
    if mask is not None:
        out *= mask.reshape(-1, 1)
    return out, p, hm


def attention_backward(g, h, m, p, hm, size, groups, mask=None, input_grad=True):
    """Backward of :func:`attention_forward` for the output adjoint ``g``.

    Returns ``d(HM)``, from which ``dM = H^T d(HM)``, and the input gradient
    ``dH`` (None unless ``input_grad``).
    """
    scale = math.sqrt(float(h.shape[1]))
    if mask is not None:
        g = g * mask.reshape(-1, 1)
    x = _group_major(h, size, groups)
    g_sets = _group_major(g, size, groups)
    dp = g_sets @ x.transpose(0, 2, 1)
    dl = kernels.softmax_rows_grad(p.reshape(-1, size), dp.reshape(-1, size))
    dl = dl.reshape(groups, size, size)
    dl /= scale
    d_hm = np.empty_like(hm)
    np.matmul(dl, x, out=_group_major(d_hm, size, groups))
    if not input_grad:
        return d_hm, None
    d_h = d_hm @ m.T
    part = np.empty_like(d_h)
    part_sets = _group_major(part, size, groups)
    np.matmul(p.transpose(0, 2, 1), g_sets, out=part_sets)
    d_h += part
    np.matmul(dl.transpose(0, 2, 1), _group_major(hm, size, groups), out=part_sets)
    d_h += part
    return d_hm, d_h


def set_mean(h, size, groups, mask=None):
    """Mean of each set's members of member-major rows ``h``, as G x d.

    Members are summed in order and the sum is divided once by the member
    count, which is how ``np.mean(axis=0)`` reduces a stack of rows, so each
    mean has the same bits as ``np.mean`` over that set's members.
    """
    x = h.reshape(size, groups, -1)
    acc = x[0].copy() if mask is None else np.where(mask[0][:, None], x[0], 0)
    for s in range(1, size):
        np.add(acc, x[s], out=acc, where=True if mask is None else mask[s][:, None])
    return acc / member_count(size, mask, h.dtype)


def member_count(size, mask, dtype):
    """Each set's member count, as :func:`set_mean` divides by it."""
    return size if mask is None else mask.sum(axis=0).astype(dtype)[:, None]
