"""Seeded corpus generator owned by the benchmark.

Writes the documented corpus formats (``item_index.tsv``,
``affiliations.tsv``, ``interactions.tsv`` and the two ``BFV1`` feature
files) with planted topic structure, independently of
``bundlecraft.synth`` so the benchmark inputs stay fixed when the
package's own generator changes.

Structure: every item belongs to one topic and has a popularity rank inside
it. Bundles draw 4..8 members from one topic by Zipf popularity. Users
prefer one or two topics and draw most interactions from them, again by
popularity. Content features are the topic centroid plus Gaussian noise;
a tenth of the items lack one of the two modalities (never both).

``withheld`` interactions are removed from ``interactions.tsv`` and written
to ``withheld.tsv`` as ``user<TAB>item<TAB>negative``, where ``negative``
is an item the user never interacted with; the pretrain workload scores
the pair with the CF tables.

Same spec, same bytes.
"""

import os
import struct
from dataclasses import dataclass

import numpy as np

FEATURE_MAGIC = b"BFV1"
BUNDLE_SIZE_MIN, BUNDLE_SIZE_MAX = 4, 8
POPULARITY_SKEW = 1.1
OFF_TOPIC_RATE = 0.1
MODALITY_MISSING = 0.1
FEATURE_NOISE = 1.0


@dataclass(frozen=True)
class CorpusSpec:
    n_items: int
    n_users: int
    n_bundles: int
    n_edges: int
    n_topics: int
    feature_dim: int = 64
    n_withheld: int = 0


def _zipf_cdf(n, skew):
    w = np.arange(1, n + 1, dtype=np.float64) ** (-skew)
    return np.cumsum(w / w.sum())


def _write_pairs(path, left, right):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{a}\t{b}\n" for a, b in zip(left, right)))


def _write_features(path, data, present):
    rows, dim = data.shape
    out = data.astype("<f4", copy=True)
    out[~present] = 0.0
    bitmap = np.packbits(present.astype(np.uint8), bitorder="little")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<II", rows, dim))
        fh.write(bitmap.tobytes())
        fh.write(out.tobytes())


def generate(spec, seed, out_dir):
    """Write one corpus into ``out_dir``; returns a small manifest dict.

    ``manifest["members"][k]`` lists topic ``k``'s items, most popular first.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, spec.n_items, spec.n_edges]))
    n, t = spec.n_items, spec.n_topics
    os.makedirs(out_dir, exist_ok=True)

    topic_of = rng.integers(0, t, size=n)
    members = [rng.permutation(np.flatnonzero(topic_of == k)) for k in range(t)]  # popularity order

    # bundles: one topic each, members by popularity without replacement
    affil_b, affil_i = [], []
    for b in range(spec.n_bundles):
        pool = members[int(rng.integers(0, t))]
        size = int(rng.integers(BUNDLE_SIZE_MIN, BUNDLE_SIZE_MAX + 1))
        w = np.arange(1, pool.shape[0] + 1, dtype=np.float64) ** (-POPULARITY_SKEW)
        picked = np.sort(pool[rng.choice(pool.shape[0], size=size, replace=False, p=w / w.sum())])
        affil_b.extend([b] * size)
        affil_i.extend(picked.tolist())

    # interactions: preferred topics by popularity, plus off-topic noise
    n_pref = rng.integers(1, 3, size=spec.n_users)
    prefs = rng.integers(0, t, size=(spec.n_users, 2))
    draw = int(spec.n_edges * 1.5) + 16
    eu = rng.integers(0, spec.n_users, size=draw)
    etopic = prefs[eu, ((rng.random(draw) < 0.5) & (n_pref[eu] == 2)).astype(np.int64)]
    sizes = np.asarray([m.shape[0] for m in members])
    cdfs = [_zipf_cdf(int(s), POPULARITY_SKEW) for s in sizes]
    u01 = rng.random(draw)
    ei = np.empty(draw, dtype=np.int64)
    for k in range(t):
        sel = np.flatnonzero(etopic == k)
        ranks = np.minimum(np.searchsorted(cdfs[k], u01[sel]), sizes[k] - 1)
        ei[sel] = members[k][ranks]
    noise = rng.random(draw) < OFF_TOPIC_RATE
    ei[noise] = rng.integers(0, n, size=int(noise.sum()))
    _, first = np.unique(eu * n + ei, return_index=True)
    keep = np.sort(first)[: spec.n_edges + spec.n_withheld]
    eu, ei = eu[keep], ei[keep]
    order = np.lexsort((ei, eu))
    eu, ei = eu[order], ei[order]

    withheld = []
    if spec.n_withheld:
        deg = np.bincount(eu, minlength=spec.n_users)
        start = np.concatenate([[0], np.cumsum(deg)[:-1]])
        users = rng.choice(np.flatnonzero(deg >= 3), size=spec.n_withheld, replace=False)
        drop = start[users] + rng.integers(0, deg[users])
        for u, e in zip(users.tolist(), drop.tolist()):
            seen = set(ei[start[u] : start[u] + deg[u]].tolist())
            j = int(rng.integers(0, n))
            while j in seen:
                j = int(rng.integers(0, n))
            withheld.append((u, int(ei[e]), j))
        mask = np.ones(eu.shape[0], dtype=bool)
        mask[drop] = False
        eu, ei = eu[mask], ei[mask]

    centroids = rng.normal(size=(t, spec.feature_dim))
    text = centroids[topic_of] + FEATURE_NOISE * rng.normal(size=(n, spec.feature_dim))
    media = centroids[topic_of] + FEATURE_NOISE * rng.normal(size=(n, spec.feature_dim))
    r = rng.random(n)
    text_present = r >= MODALITY_MISSING / 2
    media_present = (r < MODALITY_MISSING / 2) | (r >= MODALITY_MISSING)

    item = [f"i{i:06d}" for i in range(n)]
    user = [f"u{u:06d}" for u in range(spec.n_users)]
    _write_pairs(os.path.join(out_dir, "item_index.tsv"), item, range(n))
    _write_pairs(
        os.path.join(out_dir, "affiliations.tsv"),
        [f"b{b:06d}" for b in affil_b],
        [item[i] for i in affil_i],
    )
    _write_pairs(os.path.join(out_dir, "interactions.tsv"), [user[u] for u in eu], [item[i] for i in ei])
    _write_features(os.path.join(out_dir, "features_text.bin"), text, text_present)
    _write_features(os.path.join(out_dir, "features_media.bin"), media, media_present)
    if spec.n_withheld:
        with open(os.path.join(out_dir, "withheld.tsv"), "w", encoding="utf-8") as fh:
            fh.write("".join(f"{user[u]}\t{item[i]}\t{item[j]}\n" for u, i, j in withheld))
    return {
        "items": n,
        "users": int(np.unique(eu).shape[0]),
        "bundles": spec.n_bundles,
        "edges": int(eu.shape[0]),
        "withheld": len(withheld),
        "members": members,
    }
