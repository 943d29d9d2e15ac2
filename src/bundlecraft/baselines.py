"""Reference mean-pooling scorer, coded straight in numpy.

This is the "no attention, no contrastive learning" reduction: projected
feature slots with the usual slot fills, a plain mean over slots, a plain
mean over seed rows, and inner-product scores. It deliberately shares no
code with the graph-based model so the two can be compared as independent
routes; the trainer with both attention stacks disabled must reproduce it
bit for bit.
"""

import numpy as np


def mean_pool_item_table(inputs, w_c, w_p, v, use_feedback=True):
    """All item vectors under mean pooling of the projected feature slots."""
    cp = inputs.content @ w_c
    slots = [cp]
    if use_feedback:
        pp = inputs.feedback @ w_p
        slots.append(np.where(inputs.feedback_present[:, None], pp, cp))
    slots.append(np.where(inputs.id_warm[:, None], v, cp))
    acc = slots[0]
    for s in slots[1:]:
        acc = acc + s
    return acc / len(slots)


def mean_pool_scores(inputs, w_c, w_p, v, seed_idx, use_feedback=True):
    """Scores of every catalog item for one partial bundle."""
    table = mean_pool_item_table(inputs, w_c, w_p, v, use_feedback)
    e = table[np.asarray(sorted(seed_idx), dtype=np.int64)].mean(axis=0, keepdims=True)
    return (e @ np.ascontiguousarray(table.T))[0]
