"""Planted-structure synthetic corpora.

Items belong to latent topics; bundles draw their members from a single
topic through a popularity-skewed (Zipf-like) distribution, with a small
cross-topic noise rate; users prefer one or two topics and interact with
their items at a configurable density; content features are the topic
centroid plus unit Gaussian noise, with a fraction of modality rows
flagged absent (never both modalities of one item).

Cold items are excluded from every bundle that the downstream 8:1:1 split
will place in training. The generator simulates that split with the same
seed and split function the trainer uses, so the plant holds exactly when
the training config uses the generator's seed (the manifest records it);
with a different training seed the corpus still loads and trains, only the
set of bundle-cold items shifts. Held-out bundles draw their members from
the items the training bundles actually cover, so nothing is cold by
accident; each simulated-test bundle additionally hosts a planted
same-topic cold item with probability 1/2.

A topic-oracle self-check (score 1 for items of the seed-majority topic,
index tie-break) runs on the simulated test bundles and its Recall@20 is
recorded in the manifest.

A spec document meets ``config._merge``'s key and type rules, then
:meth:`SynthSpec.validate`, before a file is written. Same seed, byte-identical files.
"""

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .config import _merge
from .corpus import sample_partial, split_indices, write_features
from .errors import ConfigError, SynthSpecError
from .evaluation import rank_candidates, recall_at_k

COLD_PLANT_RATE = 0.5


@dataclass(frozen=True)
class SynthSpec:
    n_items: int = 2000
    n_users: int = 500
    n_bundles: int = 400
    n_topics: int = 8
    feature_dim: int = 64
    bundle_size_min: int = 4
    bundle_size_max: int = 8
    feedback_density: float = 0.02
    cold_item_fraction: float = 0.1
    modality_missing_fraction: float = 0.1
    feature_noise: float = 1.0
    popularity_skew: float = 1.2
    cross_topic_noise: float = 0.05
    seed: int = 0

    def validate(self):
        if self.n_topics < 1 or self.n_topics > self.n_items:
            raise SynthSpecError(f"n_topics must lie in [1, n_items], got {self.n_topics}")
        for name in ("feedback_density", "cold_item_fraction", "modality_missing_fraction", "cross_topic_noise"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise SynthSpecError(f"{name} must lie in [0, 1], got {v}")
        if not 0 <= self.feature_noise < np.inf:
            raise SynthSpecError(f"feature_noise must be finite and nonnegative, got {self.feature_noise}")
        if self.bundle_size_min < 2 or self.bundle_size_max < self.bundle_size_min:
            raise SynthSpecError(
                f"bundle sizes must satisfy 2 <= min <= max, got {self.bundle_size_min}..{self.bundle_size_max}"
            )
        # rng.choice needs a nonzero Zipf weight for every member a bundle draws
        skew = self.popularity_skew
        if not 0 <= skew < np.inf or not self.bundle_size_max ** -skew > 0:
            raise SynthSpecError(f"popularity_skew must be finite, nonnegative and leave "
                                 f"bundle_size_max ** -popularity_skew > 0, got {skew}")
        if self.n_bundles < 10:
            raise SynthSpecError(f"need at least 10 bundles, got {self.n_bundles}")
        for name in ("n_items", "n_users", "feature_dim"):
            if getattr(self, name) < 1:
                raise SynthSpecError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise SynthSpecError(f"seed must be >= 0, got {self.seed}")
        # train bundles draw from the non-cold members of one topic
        per_topic = self.n_items // self.n_topics
        n_cold = int(self.cold_item_fraction * self.n_items)
        if self.bundle_size_max > per_topic - (n_cold // self.n_topics + 1):
            raise SynthSpecError(
                f"bundle_size_max {self.bundle_size_max} exceeds the warm population of a topic"
            )


def spec_from_dict(data):
    """A validated :class:`SynthSpec` from a JSON spec document; keys and types
    follow the run config's rules, with the spec defaults as the schema."""
    try:
        spec = SynthSpec(**_merge(asdict(SynthSpec()), data))
    except ConfigError as exc:
        raise SynthSpecError(str(exc)) from exc
    spec.validate()
    return spec


def _zipf_weights(n, skew):
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** (-skew)
    return w / w.sum()


def _draw_members(pool, size, skew, rng):
    """Weighted draw without replacement; pool is sorted by global index."""
    weights = _zipf_weights(len(pool), skew)
    picked = rng.choice(len(pool), size=size, replace=False, p=weights)
    return [pool[int(k)] for k in picked]


def _swap_in_noise(members, pool, rate, rng):
    """Replace each member, with probability ``rate``, by a uniform draw from
    ``pool`` (cross-topic items) that is not already a member."""
    for pos in range(len(members)):
        if rng.random() < rate and len(pool) > len(members):
            while True:
                other = pool[int(rng.integers(0, len(pool)))]
                if other not in members:
                    members[pos] = other
                    break


def generate(spec, out_dir):
    """Write the six corpus files and return the manifest dict."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    os.makedirs(out_dir, exist_ok=True)

    n, t = spec.n_items, spec.n_topics
    topic_of = np.arange(n) % t  # interleaved: global index order = within-topic rank
    topic_members = [sorted(np.flatnonzero(topic_of == k).tolist()) for k in range(t)]

    n_cold = int(spec.cold_item_fraction * n)
    cold = set(int(x) for x in rng.choice(n, size=n_cold, replace=False)) if n_cold else set()

    train_idx, val_idx, test_idx = split_indices(spec.n_bundles, spec.seed)
    train_set, test_set = set(train_idx), set(test_idx)

    bundle_topics = [int(rng.integers(0, t)) for _ in range(spec.n_bundles)]
    bundle_sizes = [
        int(rng.integers(spec.bundle_size_min, spec.bundle_size_max + 1))
        for _ in range(spec.n_bundles)
    ]

    # training bundles first: they define which items count as warm
    bundles = [None] * spec.n_bundles
    planted_cold = [None] * spec.n_bundles
    for b in train_idx:
        topic = bundle_topics[b]
        pool = [i for i in topic_members[topic] if i not in cold]
        size = min(bundle_sizes[b], len(pool))
        if size < spec.bundle_size_min:
            raise SynthSpecError(f"topic {topic} has too few warm items for a bundle")
        members = _draw_members(pool, size, spec.popularity_skew, rng)
        noise_pool = [i for i in range(n) if topic_of[i] != topic and i not in cold]
        _swap_in_noise(members, noise_pool, spec.cross_topic_noise, rng)
        bundles[b] = sorted(set(members))

    warm = set()
    for b in train_idx:
        warm |= set(bundles[b])

    # held-out bundles draw from the warm pool so nothing is cold by accident;
    # test bundles additionally host a planted same-topic cold item
    for b in sorted(set(range(spec.n_bundles)) - train_set):
        topic = bundle_topics[b]
        pool = [i for i in topic_members[topic] if i in warm]
        if len(pool) < spec.bundle_size_min:
            raise SynthSpecError(f"topic {topic} has too few warm items for held-out bundles")
        size = min(bundle_sizes[b], len(pool))
        members = _draw_members(pool, size, spec.popularity_skew, rng)
        warm_other = [i for i in sorted(warm) if topic_of[i] != topic]
        _swap_in_noise(members, warm_other, spec.cross_topic_noise, rng)
        planted = None
        if b in test_set and cold:
            topic_cold = [i for i in topic_members[topic] if i in cold and i not in members]
            if topic_cold and rng.random() < COLD_PLANT_RATE:
                planted = topic_cold[int(rng.integers(0, len(topic_cold)))]
                members[int(rng.integers(0, len(members)))] = planted
        bundles[b] = sorted(set(members))
        if len(bundles[b]) < 2:
            raise SynthSpecError("degenerate bundle after noise injection")
        planted_cold[b] = planted

    # users prefer 1-2 topics and interact at feedback_density
    user_topics = []
    edges = []
    for u in range(spec.n_users):
        k = int(rng.integers(1, 3))
        prefs = sorted(int(x) for x in rng.choice(t, size=min(k, t), replace=False))
        user_topics.append(prefs)
        for topic in prefs:
            for i in topic_members[topic]:
                if rng.random() < spec.feedback_density:
                    edges.append((u, i))

    centroids = rng.normal(size=(t, spec.feature_dim))
    sigma = spec.feature_noise
    text = (centroids[topic_of] + sigma * rng.normal(size=(n, spec.feature_dim))).astype(np.float32)
    media = (centroids[topic_of] + sigma * rng.normal(size=(n, spec.feature_dim))).astype(np.float32)
    miss_text = rng.random(n) < spec.modality_missing_fraction
    miss_media = rng.random(n) < spec.modality_missing_fraction
    miss_media &= ~miss_text  # content must exist: never drop both
    text_present = ~miss_text
    media_present = ~miss_media

    item_tokens = [f"i{i:05d}" for i in range(n)]
    user_tokens = [f"u{u:05d}" for u in range(spec.n_users)]
    bundle_tokens = [f"b{b:05d}" for b in range(spec.n_bundles)]

    with open(os.path.join(out_dir, "item_index.tsv"), "w", encoding="utf-8") as fh:
        for i, tok in enumerate(item_tokens):
            fh.write(f"{tok}\t{i}\n")
    with open(os.path.join(out_dir, "affiliations.tsv"), "w", encoding="utf-8") as fh:
        for b, members in enumerate(bundles):
            for i in members:
                fh.write(f"{bundle_tokens[b]}\t{item_tokens[i]}\n")
    with open(os.path.join(out_dir, "interactions.tsv"), "w", encoding="utf-8") as fh:
        for u, i in edges:
            fh.write(f"{user_tokens[u]}\t{item_tokens[i]}\n")
    write_features(os.path.join(out_dir, "features_text.bin"), text, text_present)
    write_features(os.path.join(out_dir, "features_media.bin"), media, media_present)

    oracle = _oracle_self_check(bundles, topic_of, test_idx, rng)

    manifest = {
        "spec": asdict(spec),
        "counts": {
            "users": spec.n_users,
            "items": n,
            "bundles": spec.n_bundles,
            "bundle_items": sum(len(b) for b in bundles),
            "interactions": len(edges),
        },
        "topic_of_item": topic_of.tolist(),
        "bundle_topic": bundle_topics,
        "cold_items": sorted(cold),
        "planted_cold": planted_cold,
        "user_topics": user_topics,
        "simulated_split": {"train": train_idx, "val": val_idx, "test": test_idx},
        "oracle_recall_at_20": oracle,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def topic_oracle_scores(seed_items, topic_of, n_items):
    """1 for items of the seed-majority topic, 0 otherwise."""
    topics = [int(topic_of[i]) for i in sorted(seed_items)]
    counts = np.bincount(topics)
    majority = int(np.argmax(counts))  # lowest topic wins ties
    return (np.asarray(topic_of) == majority).astype(np.float64)


def _oracle_self_check(bundles, topic_of, test_idx, rng, k=20):
    recalls = []
    n = len(topic_of)
    for b in test_idx:
        view = sample_partial(bundles[b], 0.5, rng, bundle_index=b)
        scores = topic_oracle_scores(view.seeds, topic_of, n)
        ranked = rank_candidates(scores, view.seeds, k)
        recalls.append(recall_at_k(ranked, view.targets, k))
    return float(np.mean(recalls)) if recalls else 0.0
