"""bundlecraft benchmark: serve, train and pretrain workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it carries the
environment (kernel path, numpy, BLAS, Python, nproc, BLAS threads), the
workload's named metrics (``complete_p50_ms``, ``complete_ndcg20``,
``train_views_per_s``, ``train_val_ndcg20``, ``pretrain_pair_acc`` ...) and
sample counts. Each run also writes that record under
``.perfbench_cache/results/``; ``perfbench/compare.py`` compares two of them
and refuses when the kernel path or the BLAS thread count differ.

Workloads (one process; BLAS pinned to one thread before numpy loads):

* ``serve``: a 50k-item catalog and a d=64 model; one closed-loop client
  sends k=20 completion queries. Seeds are partial views of held-out
  bundles drawn by Zipf popularity, so most queries repeat. A request is one
  query: ``make_scorer``'s scorer, then ``rank_candidates``.
* ``train``: ``fit`` on a 10k-item corpus with 2000 bundles at the README
  quick-start settings, one epoch per call, early stopping off. A request
  is one ``fit`` call; throughput counts training views.
* ``pretrain``: CF pretraining (d=64, K=2, one epoch per call, so a run
  holds enough calls for a steady median) on a graph of 110k edges, 4000+
  users and 50k items. A request is one ``pretrain`` call; throughput counts
  edge updates.

End-to-end metrics (``--trace 0``): ``setup_s`` is the median of repeated
set-ups, made in blocks spread over the run, each block followed by
requests on the state it built: serve loads the corpus and
the checkpoint, builds the inputs and calls ``make_scorer``; train loads the
corpus and the CF table and builds the inputs; pretrain loads the corpus.
``latency_p50_ms`` and ``latency_p90_ms`` are request latencies.
``throughput`` is queries per second over the whole run on serve, and on
train and pretrain, whose requests last seconds each, the work of one
request over the median request time, so one slow request does not move
it. ``peak_rss_mb`` is the process's peak resident set. Every run checks its
outputs and counts failures in ``failed``.

Per-layer metrics (``--trace 1``) come from a separate run that does a fixed
amount of work twice, untraced and then traced by ``perfbench/spans.py``;
``trace.overhead_share`` is the traced time over the untraced one, minus one.
Spans go to ``.perfbench_cache/spans/``.

Inputs are generated from ``--seed`` by ``perfbench/gen.py`` and
``perfbench/prep.py`` and cached in ``.perfbench_cache/inputs/``; the
preparation runs in a child process, outside every timed region, and its
time is reported as ``prep_s``.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

# set before numpy is imported below, so OpenBLAS starts with this many threads
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the pinning above)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"

WORKLOADS = ("serve", "train", "pretrain")
SETUP_BLOCK_S = 0.6
SERVE_BLOCK_S = 3.0
K = 20
STREAM_LEN = 4000
ZIPF_SKEW = 1.0
CHECKED_QUERIES = 50
TRACE_QUERIES = 400
TRAIN_EPOCHS = 1
PRETRAIN_EPOCHS = 1
E2E_UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms", "throughput": "1/s",
             "peak_rss_mb": "MB"}
# the workloads' own names for what they measure, printed beside the metrics
NAMED_UNITS = {"setup_s": "s", "complete_p50_ms": "ms", "complete_p99_ms": "ms", "complete_qps": "1/s",
               "complete_ndcg20": "ratio", "train_views_per_s": "1/s", "train_val_ndcg20": "ratio",
               "pretrain_edges_per_s": "1/s", "pretrain_pair_acc": "ratio", "peak_rss_mb": "MB",
               "ops_attempted": "count", "ops_failed": "count"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "bundlecraft" / "__init__.py").is_file():
        fail(f"package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import bundlecraft
    import bundlecraft.cli  # noqa: F401  (binds names the tracer must rebind too)

    if Path(bundlecraft.__file__).resolve().parent != SRC / "bundlecraft":
        fail(f"imported bundlecraft from {bundlecraft.__file__}, not from {SRC}")
    return bundlecraft


def environment(bc):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "kernels.active": bc.kernels.ACTIVE,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def fingerprint(workload):
    """Cache key: the generator, and for prep that runs package code, the package."""
    files = [HERE / "gen.py", HERE / "prep.py"]
    if workload == "train":
        files += sorted((SRC / "bundlecraft").glob("*.py"))
    h = hashlib.sha256()
    for path in files:
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def ensure_inputs(workload, seed):
    """Directory of prepared inputs; prepares them in a child process on a miss."""
    from prep import SERVE_WORLD_SEED

    world = SERVE_WORLD_SEED if workload == "serve" else seed
    out = CACHE / "inputs" / f"{workload}-{world}-{fingerprint(workload)}"
    if (out / "done").is_file():
        return out, 0.0
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "prep.py"), workload, str(world), str(tmp)],
                   check=True, timeout=800)
    (tmp / "done").write_text("ok\n")
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)
    return out, time.perf_counter() - t0


def zipf_stream(rng, n_views, length, skew):
    """View indices drawn by Zipf popularity over a seeded ranking of views."""
    w = np.arange(1, n_views + 1, dtype=np.float64) ** (-skew)
    ranks = np.searchsorted(np.cumsum(w / w.sum()), rng.random(length))
    return rng.permutation(n_views)[np.minimum(ranks, n_views - 1)]


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------

def percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def timed_setups(setup, times):
    """Calls ``setup`` until SETUP_BLOCK_S have passed, at least once.

    Appends each call's seconds to ``times`` and returns the last call's
    state. The caller drops its own state first, so each call starts from
    nothing loaded. The workloads call this once per block of requests, so
    the set-ups are spread over the whole run, like the requests, and their
    median does not hang on the host's speed in the run's first seconds.
    """
    spent = 0.0
    while True:
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - t0)
        spent += times[-1]
        if spent >= SETUP_BLOCK_S:
            return state


def more_time(start, blocks, seconds):
    """Whether another block of the median length still fits in ``seconds``."""
    return time.perf_counter() - start + statistics.median(blocks) <= seconds


def ndcg(ranked, targets, k):
    dcg = sum(1.0 / math.log2(pos + 2) for pos, i in enumerate(ranked[:k]) if i in targets)
    ideal = sum(1.0 / math.log2(pos + 2) for pos in range(min(k, len(targets))))
    return dcg / ideal


def reference_top(scores, excluded, k):
    """Top-k by score descending, then index ascending, seeds excluded."""
    order = np.argsort(-scores, kind="stable")
    return [int(i) for i in order if int(i) not in excluded][:k]


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        self.named = {}
        self.info = {}

    def check(self, ok, what, n=1):
        """Count ``n`` checked operations, failing them all when ``ok`` is false."""
        self.attempted += n
        if not ok:
            self.failed += n
            print(f"perfbench: check failed: {what}", file=sys.stderr)


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

def serve_setup(bc, inputs):
    catalog, features, graph = bc.corpus.load_dir(str(inputs / "data"))
    model, _, _ = bc.trainer.load_checkpoint(str(inputs / "model.ckpt"))
    train_idx, _, test_idx = bc.corpus.split_bundles(catalog, model.config.seed)
    warm = bc.corpus.warm_items(catalog, train_idx)
    item_inputs = bc.item_encoder.build_item_inputs(
        catalog, features, model.cf, graph, warm, bc.numerics.DTYPES[model.config.precision])
    scorer = bc.evaluation.make_scorer(model, item_inputs)
    return catalog, test_idx, scorer


def serve_queries(catalog, test_idx, seed):
    """Seeded partial views of the held-out bundles and a Zipf stream over them."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    views = []
    for b in test_idx:
        items = sorted(catalog.bundles[b])
        perm = rng.permutation(len(items))
        n_seeds = max(1, len(items) // 2)
        seeds = sorted(items[j] for j in perm[:n_seeds])
        views.append((seeds, frozenset(seeds), frozenset(items[j] for j in perm[n_seeds:])))
    return views, zipf_stream(rng, len(views), STREAM_LEN, ZIPF_SKEW).tolist()


def run_queries(bc, scorer, views, stream, seconds=None, limit=None, offset=0):
    """Closed loop over ``stream``, from ``offset``, for ``seconds`` or ``limit`` queries."""
    lat, served = [], []
    rank = bc.evaluation.rank_candidates
    start = time.perf_counter()
    n = 0
    while n < limit if limit is not None else time.perf_counter() - start < seconds:
        v = stream[(offset + n) % len(stream)]
        seeds, seed_set, _ = views[v]
        t0 = time.perf_counter()
        top = rank(scorer(seeds), seed_set, K)
        lat.append(time.perf_counter() - t0)
        served.append((v, top))
        n += 1
    return lat, served, time.perf_counter() - start


def check_serve(res, scorer, views, served):
    """Served top-k against an argsort reference; repeats must agree."""
    first = {}
    repeat_ok = True
    for v, top in served:
        repeat_ok &= first.setdefault(v, top) == top
    res.check(repeat_ok, "a repeated query returned a different top-k", n=len(served))
    for v in sorted(first)[:CHECKED_QUERIES]:
        seeds, seed_set, _ = views[v]
        scores = np.asarray(scorer(seeds))
        ok = bool(np.isfinite(scores).all()) and reference_top(scores, seed_set, K) == first[v]
        res.check(ok, f"query {v} differs from the argsort reference")
    return first


def workload_serve(bc, inputs, seed, seconds, res):
    """Blocks of a fresh set-up, then SERVE_BLOCK_S of queries on it."""
    setups, lat, served, wall = [], [], [], 0.0
    views, start = None, time.perf_counter()
    while not lat or time.perf_counter() - start < seconds:
        catalog = test_idx = scorer = None
        catalog, test_idx, scorer = timed_setups(lambda: serve_setup(bc, inputs), setups)
        if views is None:
            views, stream = serve_queries(catalog, test_idx, seed)
        run_queries(bc, scorer, views, stream, limit=20)  # warm-up
        left = seconds - (time.perf_counter() - start)
        # each block goes on along the stream where the last one stopped
        b_lat, b_served, b_wall = run_queries(bc, scorer, views, stream,
                                              min(SERVE_BLOCK_S, max(left, 0.1)), offset=len(lat))
        lat += b_lat
        served += b_served
        wall += b_wall
    setup_s = statistics.median(setups)
    first = check_serve(res, scorer, views, served)
    distinct = sorted(set(stream))
    quality = []
    for v in distinct:
        seeds, seed_set, targets = views[v]
        top = first.get(v) or bc.evaluation.rank_candidates(scorer(seeds), seed_set, K)
        quality.append(ndcg(top, targets, K))
    ms = [x * 1e3 for x in lat]
    res.metrics.update(setup_s=setup_s, latency_p50_ms=percentile(ms, 50),
                       latency_p90_ms=percentile(ms, 90), throughput=len(lat) / wall)
    res.named.update(setup_s=setup_s, complete_p50_ms=res.metrics["latency_p50_ms"],
                     complete_p99_ms=percentile(ms, 99),
                     complete_qps=res.metrics["throughput"],
                     complete_ndcg20=statistics.fmean(quality))
    res.info.update(queries=len(lat), setups=len(setups), distinct_views=len(distinct), stream_len=STREAM_LEN,
                    repeat_share=1.0 - len(distinct) / STREAM_LEN, catalog_items=catalog.n_items)


def trace_serve(bc, tracer, install, inputs, seed, res):
    catalog, test_idx, scorer = serve_setup(bc, inputs)
    views, stream = serve_queries(catalog, test_idx, seed)
    run_queries(bc, scorer, views, stream, limit=20)
    _, plain, untraced = run_queries(bc, scorer, views, stream, limit=TRACE_QUERIES)

    install()
    tracer.new_op("setup")
    catalog, test_idx, scorer = serve_setup(bc, inputs)
    seeds = views[stream[0]][0]
    cmd = [sys.executable, "-m", "bundlecraft.cli", "complete", "--model", str(inputs / "model.ckpt"),
           "--data", str(inputs / "data"), "--k", str(K),
           "--seeds", ",".join(catalog.item_tokens[i] for i in seeds)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=170)
    cold = time.perf_counter() - t0
    tokens = [line.split("\t")[0] for line in out.stdout.splitlines()]
    res.check(out.returncode == 0 and tokens == [catalog.item_tokens[i] for i in plain[0][1]],
              "bundlecraft complete disagrees with the in-process top-k")

    rank = bc.evaluation.rank_candidates
    t_start = time.perf_counter()
    traced_top = []
    for n in range(TRACE_QUERIES):
        tracer.new_op("query")
        s, seed_set, _ = views[stream[n % len(stream)]]
        traced_top.append(rank(scorer(s), seed_set, K))
    traced = time.perf_counter() - t_start
    res.check(traced_top == [top for _, top in plain], "traced queries differ from untraced ones",
              n=TRACE_QUERIES)
    return {"cli.complete_cold_s": cold}, traced / untraced - 1.0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def train_config(bc, seed):
    # the README quick-start settings through the CLI's own config path
    sets = ["model.d=32", "train.batch_size=64", "train.lr=0.01",
            f"train.epochs={TRAIN_EPOCHS}", f"train.patience={TRAIN_EPOCHS}", f"seed={seed}"]
    return bc.config.train_config(bc.config.load_config(None, sets))


def train_setup(bc, inputs, seed):
    catalog, features, graph = bc.corpus.load_dir(str(inputs / "data"))
    cf = bc.cf_pretrain.load_cf(str(inputs / "cf.ckpt"))
    train_idx, _, _ = bc.corpus.split_bundles(catalog, seed)
    warm = bc.corpus.warm_items(catalog, train_idx)
    item_inputs = bc.item_encoder.build_item_inputs(catalog, features, cf, graph, warm)
    return catalog, features, graph, cf, item_inputs


def one_fit(bc, state, config, res):
    catalog, features, graph, cf, _ = state
    t0 = time.perf_counter()
    try:
        result = bc.trainer.fit(catalog, features, graph, cf, config)
    except bc.errors.DivergenceError as exc:
        res.check(False, f"fit diverged: {exc}")
        return None, time.perf_counter() - t0
    wall = time.perf_counter() - t0
    losses = [h[key] for h in result.history for key in ("train_loss", "nll", "cl_item", "cl_bundle")]
    n_batches = math.ceil(len(result.split[0]) / config.batch_size) * len(result.history)
    res.check(bool(np.isfinite(losses).all()), "non-finite training loss", n=n_batches)
    return result, wall


def check_round_trip(bc, state, result, seed, res):
    """save_checkpoint -> load_checkpoint -> make_scorer reproduces the scores."""
    path = CACHE / f"roundtrip-{os.getpid()}.ckpt"
    try:
        bc.trainer.save_checkpoint(str(path), result.model, epoch=result.best_epoch)
        loaded, _, _ = bc.trainer.load_checkpoint(str(path))
    finally:
        path.unlink(missing_ok=True)
    item_inputs = state[4]
    before = bc.evaluation.make_scorer(result.model, item_inputs)
    after = bc.evaluation.make_scorer(loaded, item_inputs)
    rng = np.random.default_rng(seed)
    probes = [sorted(rng.choice(state[0].n_items, size=3, replace=False).tolist()) for _ in range(5)]
    res.check(all(np.array_equal(before(p), after(p)) for p in probes),
              "checkpoint round trip changed the scores")


def workload_train(bc, inputs, seed, seconds, res):
    """Blocks of fresh set-ups, then one ``fit`` on the last of them."""
    config = train_config(bc, seed)
    setups, walls, blocks = [], [], []
    state = result = None
    start = time.perf_counter()
    while not blocks or more_time(start, blocks, seconds):
        t0 = time.perf_counter()
        state = result = None  # free the previous model, so the peak is one fit's
        state = timed_setups(lambda: train_setup(bc, inputs, seed), setups)
        gc.collect()
        result, wall = one_fit(bc, state, config, res)
        walls.append(wall)
        blocks.append(time.perf_counter() - t0)
        if result is None:
            break
    setup_s = statistics.median(setups)
    views = TRAIN_EPOCHS * len(result.split[0]) if result else 0
    if result is not None:
        check_round_trip(bc, state, result, seed, res)
    res.metrics.update(setup_s=setup_s, latency_p50_ms=statistics.median(walls) * 1e3,
                       latency_p90_ms=percentile([w * 1e3 for w in walls], 90),
                       throughput=views / statistics.median(walls))
    res.named.update(setup_s=setup_s, train_views_per_s=res.metrics["throughput"],
                     train_val_ndcg20=result.best_metrics.get("val_ndcg20", 0.0) if result else 0.0)
    res.info.update(fits=len(walls), setups=len(setups), epochs_per_fit=TRAIN_EPOCHS, views_per_fit=views,
                    catalog_items=state[0].n_items, bundles=state[0].n_bundles)


def trace_train(bc, tracer, install, inputs, seed, res):
    config = train_config(bc, seed)
    state = train_setup(bc, inputs, seed)
    plain, untraced = one_fit(bc, state, config, res)
    install()
    tracer.new_op("setup")
    state = train_setup(bc, inputs, seed)
    result, traced = one_fit(bc, state, config, res)
    res.check(plain is not None and result is not None and plain.history[-1]["train_loss"]
              == result.history[-1]["train_loss"], "traced training differs from untraced")
    views = TRAIN_EPOCHS * len(result.split[0]) if result else 1
    return {"train_views": views}, traced / untraced - 1.0


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------

def pretrain_call(bc, graph, seed):
    cf = bc.config.DEFAULTS["cf"]
    return bc.cf_pretrain.pretrain(graph, d=cf["d"], k_layers=cf["k_layers"], epochs=PRETRAIN_EPOCHS,
                                   lr=cf["lr"], neg_samples=cf["neg_samples"],
                                   rng=np.random.default_rng(seed), reg=cf["reg"])


def pair_accuracy(catalog, emb, withheld_path):
    users, pos, neg = [], [], []
    with open(withheld_path, encoding="utf-8") as fh:
        for line in fh:
            u, i, j = line.rstrip("\n").split("\t")
            users.append(catalog.user_index[u])
            pos.append(catalog.item_index[i])
            neg.append(catalog.item_index[j])
    u = emb.user_table[users]
    above = (u * emb.item_table[pos]).sum(axis=1) > (u * emb.item_table[neg]).sum(axis=1)
    return float(above.mean()), len(users)


def check_cf_determinism(bc, graph, seed, res):
    """Two same-seed pretrains of a small subgraph write identical bytes."""
    keep = graph.user_idx < 300
    u_idx, i_idx = graph.user_idx[keep], graph.item_idx[keep]
    small = bc.corpus.InteractionGraph(
        user_idx=u_idx, item_idx=i_idx,
        user_degree=np.bincount(u_idx, minlength=300).astype(np.int64),
        item_degree=np.bincount(i_idx, minlength=graph.n_items).astype(np.int64))
    blobs = []
    for rep in range(2):
        path = CACHE / f"cf-{os.getpid()}-{rep}.ckpt"
        try:
            bc.cf_pretrain.save_cf(str(path), pretrain_call(bc, small, seed))
            blobs.append(path.read_bytes())
        finally:
            path.unlink(missing_ok=True)
    res.check(blobs[0] == blobs[1], "same-seed pretraining wrote different bytes",
              n=2 * PRETRAIN_EPOCHS)


def workload_pretrain(bc, inputs, seed, seconds, res):
    """Blocks of fresh corpus loads, then one ``pretrain`` call on the last."""
    setups, walls, blocks = [], [], []
    emb, start = None, time.perf_counter()
    while not blocks or more_time(start, blocks, seconds):
        b0 = time.perf_counter()
        catalog = graph = emb = None
        catalog, _, graph = timed_setups(lambda: bc.corpus.load_dir(str(inputs / "data")), setups)
        gc.collect()
        t0 = time.perf_counter()
        emb = pretrain_call(bc, graph, seed)
        walls.append(time.perf_counter() - t0)
        blocks.append(time.perf_counter() - b0)
        res.check(bool(np.isfinite(emb.user_table).all() and np.isfinite(emb.item_table).all()),
                  "non-finite CF embeddings", n=PRETRAIN_EPOCHS)
    check_cf_determinism(bc, graph, seed, res)
    acc, n_pairs = pair_accuracy(catalog, emb, inputs / "data" / "withheld.tsv")
    setup_s = statistics.median(setups)
    edges = graph.n_edges * PRETRAIN_EPOCHS
    res.metrics.update(setup_s=setup_s, latency_p50_ms=statistics.median(walls) * 1e3,
                       latency_p90_ms=percentile([w * 1e3 for w in walls], 90),
                       throughput=edges / statistics.median(walls))
    res.named.update(setup_s=setup_s, pretrain_edges_per_s=res.metrics["throughput"],
                     pretrain_pair_acc=acc)
    res.info.update(calls=len(walls), setups=len(setups), epochs_per_call=PRETRAIN_EPOCHS,
                    edges=graph.n_edges, users=graph.n_users, items=graph.n_items, withheld_pairs=n_pairs)


def trace_pretrain(bc, tracer, install, inputs, seed, res):
    _, _, graph = bc.corpus.load_dir(str(inputs / "data"))
    t0 = time.perf_counter()
    plain = pretrain_call(bc, graph, seed)
    untraced = time.perf_counter() - t0
    install()
    tracer.new_op("setup")
    _, _, graph = bc.corpus.load_dir(str(inputs / "data"))
    t0 = time.perf_counter()
    emb = pretrain_call(bc, graph, seed)
    traced = time.perf_counter() - t0
    res.check(np.array_equal(plain.item_table, emb.item_table), "traced pretraining differs from untraced",
              n=PRETRAIN_EPOCHS)
    return {}, traced / untraced - 1.0


# ---------------------------------------------------------------------------
# per-layer reduction
# ---------------------------------------------------------------------------

def per_layer(tracer, extra, overhead):
    tot = tracer.totals()
    c = tracer.counts

    def s(name):
        return tot[name][0] if name in tot else 0.0

    def calls(name):
        return tot[name][2] if name in tot else 0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "corpus.load_dir.s": (s("corpus.load_dir"), "s"),
        "corpus.sample_partial.calls": (calls("corpus.sample_partial"), "count"),
        "corpus.sample_partial.s": (s("corpus.sample_partial"), "s"),
        "cf_pretrain.pretrain.self_s": (tot["cf_pretrain.pretrain"][1] if "cf_pretrain.pretrain" in tot
                                        else 0.0, "s"),
        "cf_pretrain.propagate.s": (s("cf_pretrain.propagate"), "s"),
        "kernels.bpr_epoch.s": (s("kernels.bpr_epoch"), "s"),
        "kernels.bpr_epoch.updates": (c["kernels.bpr_epoch.updates"], "count"),
        "kernels.bpr_epoch.bytes_computed": (c["kernels.bpr_epoch.bytes_computed"], "bytes"),
        "kernels.propagate_step.s": (s("kernels.propagate_step"), "s"),
        "kernels.propagate_step.edges": (c["kernels.propagate_step.edges"], "count"),
        "kernels.propagate_step.bytes_computed": (c["kernels.propagate_step.bytes_computed"], "bytes"),
    }
    for k in spans.SOFTMAX_KERNELS:
        m[f"kernels.{k}.s"] = (s(f"kernels.{k}"), "s")
        m[f"kernels.{k}.calls"] = (calls(f"kernels.{k}"), "count")
        m[f"kernels.{k}.elements"] = (c[f"kernels.{k}.elements"], "count")
    n_backward = calls("numerics.backward")
    train_views = extra.get("train_views", 0)
    m.update({
        "numerics.backward.s": (s("numerics.backward"), "s"),
        "numerics.backward.calls": (n_backward, "count"),
        "numerics.graph_nodes_per_batch": (ratio(c["numerics.graph_nodes"], n_backward), "nodes/batch"),
        "item_encoder.build_item_inputs.s": (s("item_encoder.build_item_inputs"), "s"),
        "item_encoder.encode_item_table.s": (s("item_encoder.encode_item_table"), "s"),
        "item_encoder.encode_item_table.calls": (calls("item_encoder.encode_item_table"), "count"),
        "item_encoder.encode_item_table.rows": (c["item_encoder.encode_item_table.rows"], "count"),
        "item_encoder.rows_per_train_view": (
            ratio(c["item_encoder.encode_item_table.rows"], train_views), "rows/view"),
        "bundle_encoder.encode_bundle.s": (s("bundle_encoder.encode_bundle"), "s"),
        "bundle_encoder.encode_bundle.calls": (calls("bundle_encoder.encode_bundle"), "count"),
        "bundle_encoder.encode_bundle.rows": (c["bundle_encoder.encode_bundle.rows"], "count"),
        "contrastive.augment_inputs.s": (s("contrastive.augment_inputs"), "s"),
        "contrastive.augment_bundle.s": (s("contrastive.augment_bundle"), "s"),
        "contrastive.info_nce.s": (s("contrastive.info_nce"), "s"),
        "trainer.total_loss.s": (s("trainer.total_loss"), "s"),
        "trainer.Adam.step.s": (s("trainer.Adam.step"), "s"),
        "trainer.validation_share": (ratio(s("trainer.validate"), s("trainer.fit")), "ratio"),
        "trainer.load_checkpoint.s": (s("trainer.load_checkpoint"), "s"),
        "evaluation.make_scorer.s": (s("evaluation.make_scorer"), "s"),
        "evaluation.scorer.s": (s("evaluation.scorer"), "s"),
        "evaluation.rank_candidates.s": (s("evaluation.rank_candidates"), "s"),
        "evaluation.rank_candidates.calls": (calls("evaluation.rank_candidates"), "count"),
        "evaluation.rank_candidates.candidates_sorted": (
            c["evaluation.rank_candidates.candidates_sorted"], "count"),
        "evaluation.rank.sorted_per_returned": (
            ratio(c["evaluation.rank_candidates.candidates_sorted"],
                  c["evaluation.rank_candidates.returned"]), "ratio"),
        "cli.complete_cold_s": (extra.get("cli.complete_cold_s", 0.0), "s"),
        "trace.overhead_share": (overhead, "ratio"),
    })
    return m


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description="bundlecraft benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    bc = import_package()
    CACHE.mkdir(exist_ok=True)
    inputs, prep_s = ensure_inputs(args.workload, args.seed)
    res = Result()
    if args.trace:
        tracer = spans.Tracer()
        runner = {"serve": trace_serve, "train": trace_train, "pretrain": trace_pretrain}[args.workload]
        try:
            extra, overhead = runner(bc, tracer, lambda: spans.install_all(tracer, bc),
                                     inputs, args.seed, res)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, extra, overhead)
        out_dir = CACHE / "spans"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"{args.workload}-{args.seed}.jsonl")
        res.info["spans"] = len(tracer.spans)
        res.info["span_totals"] = {name: {"s": t, "self_s": own, "calls": n}
                                   for name, (t, own, n) in sorted(tracer.totals().items())}
    else:
        runner = {"serve": workload_serve, "train": workload_train,
                  "pretrain": workload_pretrain}[args.workload]
        runner(bc, inputs, args.seed, args.seconds, res)
        res.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        res.named["peak_rss_mb"] = res.metrics["peak_rss_mb"]
        metrics = {name: (value, E2E_UNITS[name]) for name, value in res.metrics.items()}
    res.named.update(ops_attempted=res.attempted, ops_failed=res.failed)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": environment(bc), "prep_s": prep_s, "info": res.info,
        "named": {name: {"value": v, "unit": NAMED_UNITS[name]} for name, v in res.named.items()},
    }
    results = CACHE / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    summary = {
        "correct": res.failed == 0 and res.attempted > 0,
        "attempted": max(res.attempted, 1),
        "failed": res.failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    record["summary"] = summary
    (results / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({k: record[k] for k in ("env", "prep_s", "named", "info")}, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
