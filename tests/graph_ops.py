"""Graph ops only the tests use, built on :func:`bundlecraft.numerics.make_node`
as the package's own ops are: each value is checked finite, and each backward
rule accumulates into the parents that take gradients.

``mul`` and ``sum_all`` build the losses of the gradient checks.
``matmul``, ``vconcat`` and ``select_rows`` compose the slot rows of the item
table the fused table node replaced (``test_item_encoder.composed_item_slots``),
its oracle.
"""

import numpy as np

import bundlecraft.numerics as nm
from bundlecraft.errors import ShapeError


def mul(a, b):
    """Elementwise product of same-shape, same-dtype matrices."""
    if a.dtype != b.dtype or a.shape != b.shape:
        raise ShapeError(f"mul: {a.shape} {a.dtype} vs {b.shape} {b.dtype}")

    def rule(g):
        nm.accumulate(a, g * b.value)
        nm.accumulate(b, g * a.value)

    return nm.make_node(a.value * b.value, (a, b), rule, "mul")


def sum_all(a):
    """Sum of every entry as a 1x1 node."""
    def rule(g):
        nm.accumulate(a, np.broadcast_to(g, a.shape))

    return nm.make_node(a.value.sum().reshape(1, 1), (a,), rule, "sum_all")


def matmul(a, b):
    """``a @ b`` of same-dtype matrices."""
    if a.dtype != b.dtype or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} {a.dtype} x {b.shape} {b.dtype}")

    def rule(g):
        if a.requires_grad:
            nm.accumulate(a, g @ b.value.T)
        if b.requires_grad:
            nm.accumulate(b, a.value.T @ g)

    return nm.make_node(a.value @ b.value, (a, b), rule, "matmul")


def vconcat(nodes):
    """Stack nodes' rows; each gets its slice of the gradient back."""
    nodes = list(nodes)
    if not nodes or len({(n.shape[1], n.dtype) for n in nodes}) != 1:
        raise ShapeError("vconcat: no inputs, or column counts or dtypes differ")
    offsets = np.cumsum([0] + [n.shape[0] for n in nodes])

    def rule(g):
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            nm.accumulate(n, g[lo:hi, :])

    value = np.concatenate([n.value for n in nodes], axis=0)
    return nm.make_node(value, tuple(nodes), rule, "vconcat")


def select_rows(mask, on, off):
    """Row-wise select: row r of ``on`` where ``mask[r]``, else row r of
    ``off``; each row's gradient flows only to the branch it came from."""
    mask = np.asarray(mask, dtype=bool).reshape(-1, 1)
    if on.shape != off.shape or on.dtype != off.dtype or mask.shape[0] != on.shape[0]:
        raise ShapeError(f"select_rows: {mask.shape[0]} mask rows for {on.shape}, {off.shape}")

    def rule(g):
        if on.requires_grad:
            nm.accumulate(on, np.where(mask, g, 0.0))
        if off.requires_grad:
            nm.accumulate(off, np.where(mask, 0.0, g))

    return nm.make_node(np.where(mask, on.value, off.value), (on, off), rule, "select_rows")
