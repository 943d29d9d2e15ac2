"""Span tracing around calls into ``bundlecraft``, installed from outside.

A :class:`Tracer` replaces each traced function with a wrapper at every
place the package binds it: the defining module and every module that did
``from .x import f`` (``trainer.rank_candidates``, ``cli.make_scorer`` and
so on). Spans are kept in memory as ``[name, start, end, parent, op]``
lists and written out once, when the run ends. ``op`` identifies the
operation a span belongs to (a query, a training batch, a pretraining
epoch); wrappers given an ``op_kind`` open a new one.

Counters are recorded at the same boundaries (rows encoded, candidates
sorted, kernel elements and bytes), so ratios are taken where the work
happens. :meth:`Tracer.uninstall` restores every original binding.
"""

import json
import sys
import time
from collections import defaultdict

SOFTMAX_KERNELS = ("softmax_rows", "softmax_rows_grad", "log_softmax_rows", "log_softmax_rows_grad")


def graph_size(root):
    """Number of distinct nodes reachable from ``root`` through ``parents``."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.op = None
        self._stack = []
        self._ops = 0
        self._undo = []

    # -- spans ------------------------------------------------------------
    def new_op(self, kind):
        self._ops += 1
        self.op = f"{kind}:{self._ops}"

    def wrap(self, name, fn, before=None, after=None, op_kind=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``before(counts, args, kwargs)`` runs outside the span, ``after(counts,
        result, args)`` inside it; ``op_kind`` makes each call a new operation.
        """
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if op_kind is not None:
                self.new_op(op_kind)
            if before is not None:
                before(counts, args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    result = after(counts, result, args) or result
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------
    def install(self, module, attr, name, **kw):
        """Wrap ``module.attr`` and rebind every package name bound to it."""
        orig = getattr(module, attr)
        wrapped = self.wrap(name, orig, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("bundlecraft"):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, orig))
        return wrapped

    def install_method(self, cls, attr, name, **kw):
        orig = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, orig, **kw))
        self._undo.append((cls, attr, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- reduction --------------------------------------------------------
    def totals(self):
        """Per span name: (total seconds, self seconds, call count)."""
        child = defaultdict(float)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for sid, (name, t0, t1, _, _) in enumerate(self.spans):
            acc = out[name]
            acc[0] += t1 - t0
            acc[1] += t1 - t0 - child[sid]
            acc[2] += 1
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")


def install_all(tracer, bc):
    """Wrap every traced layer boundary of the package ``bc``."""

    def count(key, fn):
        def before(counts, args, kwargs):
            counts[key] += fn(*args)
        return before

    def size_of(arr, *_):
        return arr.size

    k = bc.kernels
    for kname in SOFTMAX_KERNELS:
        tracer.install(k, kname, f"kernels.{kname}", before=count(f"kernels.{kname}.elements", size_of))

    def bpr_before(counts, args, kwargs):
        user, us = args[0], args[2]
        counts["kernels.bpr_epoch.updates"] += us.shape[0]
        # per update: read three d-rows, write three d-rows
        counts["kernels.bpr_epoch.bytes_computed"] += us.shape[0] * 6 * user.shape[1] * user.itemsize

    def prop_before(counts, args, kwargs):
        u_idx, user_prev = args[0], args[3]
        counts["kernels.propagate_step.edges"] += u_idx.shape[0]
        # per edge: read two source rows, read-modify-write two destination rows
        counts["kernels.propagate_step.bytes_computed"] += (
            u_idx.shape[0] * 6 * user_prev.shape[1] * user_prev.itemsize
        )

    tracer.install(k, "bpr_epoch", "kernels.bpr_epoch", before=bpr_before, op_kind="epoch")
    tracer.install(k, "propagate_step", "kernels.propagate_step", before=prop_before)

    def backward_before(counts, args, kwargs):
        counts["numerics.graph_nodes"] += graph_size(args[0])

    tracer.install(bc.numerics, "backward", "numerics.backward", before=backward_before)

    tracer.install(bc.corpus, "load_dir", "corpus.load_dir")
    tracer.install(bc.corpus, "sample_partial", "corpus.sample_partial")
    tracer.install(bc.cf_pretrain, "pretrain", "cf_pretrain.pretrain")
    tracer.install(bc.cf_pretrain, "propagate", "cf_pretrain.propagate")

    tracer.install(bc.item_encoder, "build_item_inputs", "item_encoder.build_item_inputs")
    tracer.install(
        bc.item_encoder, "encode_item_table", "item_encoder.encode_item_table",
        before=count("item_encoder.encode_item_table.rows", lambda inputs, *_: inputs.n_items),
    )
    tracer.install(
        bc.bundle_encoder, "encode_bundle", "bundle_encoder.encode_bundle",
        before=count("bundle_encoder.encode_bundle.rows", lambda rows, *_: rows.shape[0]),
    )

    for fname in ("augment_inputs", "augment_bundle", "info_nce"):
        tracer.install(bc.contrastive, fname, f"contrastive.{fname}")

    tracer.install(bc.trainer, "total_loss", "trainer.total_loss", op_kind="batch")
    tracer.install_method(bc.trainer.Adam, "step", "trainer.Adam.step")
    tracer.install(bc.trainer, "_validate", "trainer.validate", op_kind="validate")
    tracer.install(bc.trainer, "fit", "trainer.fit")
    tracer.install(bc.trainer, "load_checkpoint", "trainer.load_checkpoint")

    def rank_after(counts, result, args):
        counts["evaluation.rank_candidates.candidates_sorted"] += len(args[0])
        counts["evaluation.rank_candidates.returned"] += len(result)

    tracer.install(bc.evaluation, "rank_candidates", "evaluation.rank_candidates", after=rank_after)

    def scorer_after(counts, scorer, args):
        return tracer.wrap("evaluation.scorer", scorer)

    tracer.install(bc.evaluation, "make_scorer", "evaluation.make_scorer", after=scorer_after)
