"""Untimed preparation of the benchmark inputs, cached per workload and seed.

Run as ``python3 perfbench/prep.py <workload> <seed> <out_dir>``; the
benchmark starts it as a child process on a cache miss, so neither its
time nor its memory shows in the measured process.

* ``serve``: one 50k-item world, the same for every seed (the seed picks the
  traffic, see ``run.py``). Its model checkpoint is planted, not trained:
  item id embeddings point along a per-topic direction scaled by
  popularity, so completions are meaningful and the served quality does not
  move when training code changes. Training a 50k-item model with the
  package is no substitute: three epochs at batch 128 took 78 s and 2.1 GB
  on a 2-vCPU Xeon and left validation NDCG@20 at 0.001.
* ``train``: a 10k-item corpus with 2000 bundles and a CF table pretrained
  for one epoch by the package.
* ``pretrain``: a 50k-item interaction graph with withheld interactions.
"""

import json
import os
import struct
import sys
from pathlib import Path

import numpy as np

from gen import CorpusSpec, generate

ROOT = Path(__file__).resolve().parent.parent

SPECS = {
    "serve": CorpusSpec(n_items=50_000, n_users=4_000, n_bundles=3_000, n_edges=110_000, n_topics=50),
    "train": CorpusSpec(n_items=10_000, n_users=1_500, n_bundles=2_000, n_edges=30_000, n_topics=20),
    # pretraining reads only the graph; narrow features keep the cache small
    "pretrain": CorpusSpec(n_items=50_000, n_users=4_200, n_bundles=200, n_edges=110_000,
                           n_topics=50, feature_dim=8, n_withheld=4_000),
}
SERVE_WORLD_SEED = 0
SERVE_D = 64
CKPT_MAGIC = b"CLHE"

# the header echoes the training config; unnamed keys take the package defaults
SERVE_CONFIG = {"d": SERVE_D, "seed": SERVE_WORLD_SEED, "augment": {}, "ablation": {}}


def _xavier(rows, cols, rng):
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def write_checkpoint(path, matrices, header):
    """Model checkpoint in the documented ``CLHE`` version-1 layout."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC + struct.pack("<II", 1, len(blob)) + blob)
        for name, value in matrices:
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)) + nb + struct.pack("<II", *value.shape))
            fh.write(np.ascontiguousarray(value, dtype="<f4").tobytes())


def planted_serve_model(manifest, out_path):
    """Seeded model whose id embeddings encode topic and popularity."""
    spec = SPECS["serve"]
    rng = np.random.default_rng(np.random.SeedSequence([SERVE_WORLD_SEED, 7]))
    n, d, f = spec.n_items, SERVE_D, spec.feature_dim
    topic_dir = rng.normal(size=(spec.n_topics, d))
    topic_dir /= np.linalg.norm(topic_dir, axis=1, keepdims=True)
    pop_dir = rng.normal(size=d) / np.sqrt(d)
    v = np.zeros((n, d))
    for k, members in enumerate(manifest["members"]):
        pop = 1.0 / np.sqrt(np.arange(1, members.shape[0] + 1))
        v[members] = 6.0 * topic_dir[k] + 6.0 * pop[:, None] * pop_dir
    v += 0.3 * rng.normal(size=v.shape)
    matrices = [
        # weak content and feedback projections, so the id slot decides
        ("W_c", 0.1 * _xavier(f, d, rng)),
        ("W_p", 0.1 * _xavier(d, d, rng)),
        ("V", v),
        # near-uniform attention, so every slot and seed keeps its share
        ("item_0_WK", 0.05 * _xavier(d, d, rng)),
        ("item_0_WQ", 0.05 * _xavier(d, d, rng)),
        ("bundle_0_WK", 0.05 * _xavier(d, d, rng)),
        ("bundle_0_WQ", 0.05 * _xavier(d, d, rng)),
        ("cf_item_table", 0.1 * rng.normal(size=(n, d))),
    ]
    header = {
        "config": SERVE_CONFIG, "epoch": 0, "metrics": {},
        "matrices": [name for name, _ in matrices], "frozen": ["cf_item_table"], "cf_k_layers": 2,
    }
    write_checkpoint(out_path, matrices, header)


def prep(workload, seed, out_dir):
    out = Path(out_dir)
    if workload == "serve":
        manifest = generate(SPECS["serve"], SERVE_WORLD_SEED, out / "data")
        planted_serve_model(manifest, out / "model.ckpt")
    elif workload == "train":
        generate(SPECS["train"], seed, out / "data")
        sys.path.insert(0, str(ROOT / "src"))
        from bundlecraft import cf_pretrain, config, corpus

        cf = config.DEFAULTS["cf"]
        _, _, graph = corpus.load_dir(str(out / "data"))
        emb = cf_pretrain.pretrain(graph, d=cf["d"], k_layers=cf["k_layers"], epochs=1, lr=cf["lr"],
                                   neg_samples=cf["neg_samples"], rng=np.random.default_rng(seed),
                                   reg=cf["reg"])
        cf_pretrain.save_cf(str(out / "cf.ckpt"), emb)
    elif workload == "pretrain":
        generate(SPECS["pretrain"], seed, out / "data")
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    if len(sys.argv) != 4:
        raise SystemExit("usage: prep.py <workload> <seed> <out_dir>")
    os.makedirs(sys.argv[3], exist_ok=True)
    prep(sys.argv[1], int(sys.argv[2]), sys.argv[3])
