"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Criteria 7-10 train real models on synthetic corpora and take
minutes; everything else is fast.
"""

import copy
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import bundlecraft.numerics as nm
from bundlecraft import corpus as C
from bundlecraft import trainer as tr
from bundlecraft.bundle_encoder import encode_bundle, init_bundle_params
from bundlecraft.cf_pretrain import CfEmbeddings, pretrain, propagate
from bundlecraft.cli import main as cli_main
from bundlecraft.config import DEFAULTS, train_config
from bundlecraft.contrastive import info_nce
from bundlecraft.corpus import PartialBundleView, sample_partial, warm_items
from bundlecraft.evaluation import evaluate, make_scorer, make_set_scorer, ndcg_at_k, recall_at_k
from bundlecraft.item_encoder import ItemInputs, build_item_inputs
from bundlecraft.synth import SynthSpec, generate
from bundlecraft.trainer import fit, nll_loss, total_loss

import baselines

pytestmark = pytest.mark.acceptance

SEEDS = (0, 1, 2, 3, 4)


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name:<28s} {status} {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


# ---------------------------------------------------------------------------
# shared training harness for criteria 7-10
# ---------------------------------------------------------------------------

TRAIN_KNOBS = {
    "model.d": 32,
    "train.epochs": 120,
    "train.batch_size": 64,
    "train.patience": 120,
    "train.lr": 1e-2,
    "cf.d": 32,
    "cf.epochs": 10,
}

NO_CL_FLAGS = {
    "train.alpha1": 0.0,
    "train.alpha2": 0.0,
}

REDUCED_FLAGS = {
    "ablation.use_item_attention": False,
    "ablation.use_bundle_attention": False,
    **NO_CL_FLAGS,
}


def _config(seed, overrides):
    cfgd = copy.deepcopy(DEFAULTS)
    cfgd["seed"] = seed
    for key, value in {**TRAIN_KNOBS, **overrides}.items():
        section, name = key.split(".")
        cfgd[section][name] = value
    return train_config(cfgd)


def _train_and_score(spec, seed, overrides, tmp, settings):
    """Train one arm and evaluate repeat-averaged metrics per setting."""
    out = tmp / f"corpus-{seed}-{spec.feedback_density}-{spec.cold_item_fraction}"
    if not (out / "manifest.json").exists():
        generate(spec, out)
    catalog, features, graph = C.load_dir(out)
    cf = pretrain(graph, d=32, k_layers=2, epochs=10, lr=0.05, neg_samples=1,
                  rng=np.random.default_rng(seed))
    cfg = _config(seed, overrides)
    result = fit(catalog, features, graph, cf, cfg)
    warm = warm_items(catalog, result.split[0])
    inputs = build_item_inputs(catalog, features, cf, graph, warm, np.float32)
    score_sets = make_set_scorer(result.model, inputs)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[3])
    metrics = {key: [] for key in settings}
    for _ in range(3):
        views = [
            sample_partial(catalog.bundles[b], cfg.eval_seed_ratio, rng, bundle_index=b)
            for b in result.split[2]
        ]
        for key in settings:
            setting, rate = key
            rep = evaluate(score_sets, views, k=20, setting=setting, rate=rate, rng=rng,
                           n_items=catalog.n_items, warm=warm)
            metrics[key].append((rep.recall, rep.ndcg) if not rep.empty else (np.nan, np.nan))
    return {
        key: (float(np.nanmean([m[0] for m in metrics[key]])),
              float(np.nanmean([m[1] for m in metrics[key]])))
        for key in settings
    }


@pytest.fixture(scope="module")
def default_runs(tmp_path_factory):
    """Criterion 7: full model vs mean-pooling reduction on the default corpus."""
    tmp = tmp_path_factory.mktemp("accept-default")
    wanted = [("standard", 0.0)]
    out = {"full": [], "reduced": []}
    for seed in SEEDS:
        spec = SynthSpec(seed=seed)
        out["full"].append(_train_and_score(spec, seed, {}, tmp, wanted))
        out["reduced"].append(_train_and_score(spec, seed, REDUCED_FLAGS, tmp, wanted))
    return out


@pytest.fixture(scope="module")
def sparse_runs(tmp_path_factory):
    """Criteria 8-10: full vs no-CL on the sparsified corpus (fd halved, cold 0.2)."""
    tmp = tmp_path_factory.mktemp("accept-sparse")
    wanted = [("standard", 0.0), ("warm", 0.0),
              ("sparsify", 0.25), ("sparsify", 0.5)]
    out = {"full": [], "nocl": []}
    for seed in SEEDS:
        spec = SynthSpec(seed=seed, feedback_density=0.01, cold_item_fraction=0.2)
        out["full"].append(_train_and_score(spec, seed, {}, tmp, wanted))
        out["nocl"].append(_train_and_score(spec, seed, NO_CL_FLAGS, tmp, wanted))
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_oracle(rng):
    t0 = time.time()
    n_items, feat, cfd, d = 5, 6, 3, 4
    cfgd = copy.deepcopy(DEFAULTS)
    cfgd["precision"] = "f64"
    cfgd["model"].update({"d": d, "l_layers": 1, "z_layers": 1})
    cfgd["train"].update({"alpha1": 0.3, "alpha2": 0.2, "beta": 1e-3})
    cfgd["augment"].update({"dropout_ratio": 0.5, "tau": 0.7})
    tc = train_config(cfgd)
    cf = CfEmbeddings(
        user_table=np.zeros((2, cfd), np.float32),
        item_table=rng.normal(size=(n_items, cfd)).astype(np.float32),
        k_layers=1,
    )
    inputs = ItemInputs(
        content=rng.normal(size=(n_items, feat)),
        feedback=np.where(np.array([1, 0, 1, 1, 0])[:, None], rng.normal(size=(n_items, cfd)), 0.0),
        feedback_present=np.array([1, 0, 1, 1, 0], dtype=bool),
        id_warm=np.array([1, 1, 0, 1, 1], dtype=bool),
    )
    views = [
        PartialBundleView(0, frozenset({0, 1}), frozenset({2})),
        PartialBundleView(1, frozenset({3}), frozenset({4, 0})),
    ]
    model = tr.init_model(n_items, feat, cf, tc, rng)

    def loss_node():
        node, _ = total_loss(views, model, inputs, np.random.default_rng(42))
        return node

    node = loss_node()
    nm.backward(node)
    worst = 0.0
    h = 1e-5
    for name, p in model.named_trainables():
        analytic = p.adjoint
        num = np.zeros_like(p.value)
        it = np.nditer(p.value, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = p.value[ix]
            p.value[ix] = orig + h
            lp = loss_node().item()
            p.value[ix] = orig - h
            lm = loss_node().item()
            p.value[ix] = orig
            num[ix] = (lp - lm) / (2 * h)
        denom = np.maximum.reduce([np.abs(analytic), np.abs(num), np.full_like(num, 1e-6)])
        worst = max(worst, float((np.abs(analytic - num) / denom).max()))
    elapsed = time.time() - t0
    report(1, "gradient oracle", worst < 1e-4 and elapsed < 60,
           f"(max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_propagation_oracle():
    from test_cf_pretrain import dense_propagation_oracle, graph_of

    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(trial)
        m = int(rng.integers(1, 11))
        n = int(rng.integers(1, 11))
        edges = sorted(
            {(int(u), int(i)) for u in range(m) for i in range(n)
             if rng.random() < rng.uniform(0.05, 0.6)}
        )
        g = graph_of(edges, m, n)
        u0 = rng.normal(size=(m, 4))
        i0 = rng.normal(size=(n, 4))
        k = int(rng.integers(1, 4))
        got = propagate(u0, i0, g, k)
        want = dense_propagation_oracle(u0, i0, g, k)
        for (gu, gi), (wu, wi) in zip(got, want):
            worst = max(worst, float(np.abs(gu - wu).max()) if gu.size else 0.0)
            worst = max(worst, float(np.abs(gi - wi).max()) if gi.size else 0.0)
    report(2, "propagation oracle", worst < 1e-10, f"(max abs err {worst:.2e})")


def test_criterion_03_loss_oracles():
    from test_contrastive import info_nce_oracle
    from test_trainer import nll_oracle

    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        a = rng.normal(size=(n, 5))
        p = rng.normal(size=(n, 5))
        tau = float(rng.uniform(0.2, 3.0))
        got = info_nce(nm.constant(a, np.float64), nm.constant(p, np.float64), tau).item()
        worst = max(worst, abs(got - info_nce_oracle(a, p, tau)))

    for _ in range(100):
        n = int(rng.integers(2, 30))
        scores = rng.normal(size=(1, n))
        targets = set(int(x) for x in rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        got = nll_loss(nm.constant(scores, np.float64), [targets]).item()
        worst = max(worst, abs(got - nll_oracle(scores[0], targets)))

    v = rng.normal(size=(1, 6))
    anchors = nm.constant(np.repeat(v, 9, axis=0), np.float64)
    ln_n_err = abs(info_nce(anchors, anchors, 0.7).item() - math.log(9))
    two = nm.constant(np.eye(2), np.float64)
    pair_err = abs(info_nce(two, two, 1.0).item() - math.log(1 + math.exp(-1.0)))
    passed = worst < 1e-9 and ln_n_err < 1e-12 and pair_err < 1e-12
    report(3, "loss oracles", passed,
           f"(max err {worst:.2e}, lnN err {ln_n_err:.1e}, pair err {pair_err:.1e})")


def test_criterion_04_metric_oracles():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 40))
        ranked = [int(x) for x in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
        targets = set(int(x) for x in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        k = int(rng.integers(1, 25))
        hits = [i for i in ranked[:k] if i in targets]
        want_recall = len(hits) / len(targets)
        want_dcg = sum(1 / math.log2(ranked[:k].index(h) + 2) for h in hits)
        want_idcg = sum(1 / math.log2(p + 2) for p in range(min(k, len(targets))))
        worst = max(worst, abs(recall_at_k(ranked, targets, k) - want_recall))
        worst = max(worst, abs(ndcg_at_k(ranked, targets, k) - want_dcg / want_idcg))
    rank2 = abs(ndcg_at_k([5, 7], {7}, 20) - 1 / math.log2(3))
    report(4, "metric oracles", worst < 1e-12 and rank2 < 1e-12,
           f"(max err {worst:.2e}, rank-2 err {rank2:.1e})")


def test_criterion_05_set_function_property():
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        params = init_bundle_params(6, int(rng.integers(1, 3)), rng, np.float64)
        n = int(rng.integers(2, 9))
        rows = rng.normal(size=(n, 6))
        perm = rng.permutation(n)
        e1 = encode_bundle(nm.constant(rows, np.float64), params).value
        e2 = encode_bundle(nm.constant(rows[perm], np.float64), params).value
        worst = max(worst, float(np.abs(e1 - e2).max()))
    report(5, "set-function property", worst < 1e-10, f"(max perm diff {worst:.2e})")


def test_criterion_06_reduction_equivalence(tmp_path):
    spec = SynthSpec(n_items=200, n_users=60, n_bundles=40, n_topics=4, feature_dim=16,
                     bundle_size_min=3, bundle_size_max=6, feedback_density=0.05,
                     cold_item_fraction=0.1, seed=2)
    generate(spec, tmp_path)
    catalog, features, graph = C.load_dir(tmp_path)
    cf = pretrain(graph, d=8, k_layers=2, epochs=5, lr=0.05, neg_samples=1,
                  rng=np.random.default_rng(2))
    cfg = _config(2, {**REDUCED_FLAGS, "model.d": 8, "train.epochs": 3,
                      "train.batch_size": 16, "cf.d": 8})
    result = fit(catalog, features, graph, cf, cfg)
    warm = warm_items(catalog, result.split[0])
    inputs = build_item_inputs(catalog, features, cf, graph, warm, np.float32)
    scorer = make_scorer(result.model, inputs)
    rng = np.random.default_rng(7)
    identical = True
    for b in result.split[2]:
        view = sample_partial(catalog.bundles[b], 0.5, rng, bundle_index=b)
        seeds = sorted(view.seeds)
        got = scorer(seeds)
        want = baselines.mean_pool_scores(
            inputs,
            result.model.item_params.w_c.value,
            result.model.item_params.w_p.value,
            result.model.item_params.v.value,
            seeds,
        )
        identical = identical and got.tobytes() == want.tobytes()
    report(6, "reduction equivalence", identical, "(bit-identical scores)")


@pytest.mark.slow
def test_criterion_07_learning_signal(default_runs):
    t0 = time.time()
    full = [m[("standard", 0.0)][0] for m in default_runs["full"]]
    reduced = [m[("standard", 0.0)][0] for m in default_runs["reduced"]]
    mean_full = float(np.mean(full))
    mean_reduced = float(np.mean(reduced))
    ratio = mean_full / mean_reduced if mean_reduced > 0 else float("inf")
    report(7, "learning signal", ratio >= 1.10,
           f"(recall@20 full {mean_full:.4f} vs reduced {mean_reduced:.4f}, {ratio:.2f}x)")


@pytest.mark.slow
def test_criterion_08_ablation_direction(sparse_runs):
    full = [m[("standard", 0.0)][1] for m in sparse_runs["full"]]
    nocl = [m[("standard", 0.0)][1] for m in sparse_runs["nocl"]]
    mean_full = float(np.mean(full))
    mean_nocl = float(np.mean(nocl))
    report(8, "ablation direction", mean_nocl < mean_full,
           f"(ndcg@20 full {mean_full:.4f} vs no-CL {mean_nocl:.4f}, "
           f"per-seed deltas {[f'{f - n:+.3f}' for f, n in zip(full, nocl)]})")


@pytest.mark.slow
def test_criterion_09_corruption_trend(sparse_runs):
    rates = [("standard", 0.0), ("sparsify", 0.25), ("sparsify", 0.5)]
    means = [float(np.mean([m[r][1] for m in sparse_runs["full"]])) for r in rates]
    monotone = means[0] >= means[1] >= means[2]
    full5 = float(np.mean([m[("sparsify", 0.5)][1] for m in sparse_runs["full"]]))
    nocl5 = float(np.mean([m[("sparsify", 0.5)][1] for m in sparse_runs["nocl"]]))
    report(9, "corruption trend", monotone and full5 > nocl5,
           f"(sweep {means[0]:.4f} >= {means[1]:.4f} >= {means[2]:.4f}; "
           f"rate-0.5 full {full5:.4f} vs no-CL {nocl5:.4f})")


@pytest.mark.slow
def test_criterion_10_cold_start_path(sparse_runs):
    warm = float(np.mean([m[("warm", 0.0)][1] for m in sparse_runs["full"]]))
    standard = float(np.mean([m[("standard", 0.0)][1] for m in sparse_runs["full"]]))
    report(10, "cold-start path", warm > standard,
           f"(warm ndcg {warm:.4f} vs standard {standard:.4f})")


def test_criterion_11_determinism(tmp_path):
    spec = dict(n_items=120, n_users=30, n_bundles=20, n_topics=3, feature_dim=8,
                bundle_size_min=3, bundle_size_max=5, feedback_density=0.06,
                cold_item_fraction=0.1, seed=9)
    fast = ["--set", "model.d=8", "--set", "train.epochs=3", "--set", "train.batch_size=8",
            "--set", "cf.d=8", "--set", "cf.epochs=3", "--seed", "9"]

    def run_pipeline(root):
        root.mkdir()
        spec_path = root / "spec.json"
        spec_path.write_text(json.dumps(spec))
        data = root / "data"
        assert cli_main(["synth", "--spec", str(spec_path), "--out", str(data)]) == 0
        cf = root / "cf.ckpt"
        assert cli_main(["pretrain", "--data", str(data), "--out", str(cf)] + fast) == 0
        model = root / "model.ckpt"
        log = root / "train.log"
        assert cli_main(["train", "--data", str(data), "--cf", str(cf), "--out", str(model),
                         "--log", str(log)] + fast) == 0
        rep = root / "report.json"
        assert cli_main(["eval", "--model", str(model), "--data", str(data),
                         "--out", str(rep)]) == 0
        hashes = {}
        for p in sorted(data.iterdir()):
            hashes[f"data/{p.name}"] = hashlib.sha256(p.read_bytes()).hexdigest()
        for name in ("cf.ckpt", "model.ckpt", "report.json"):
            hashes[name] = hashlib.sha256((root / name).read_bytes()).hexdigest()
        log_entries = [
            {k: v for k, v in json.loads(line).items() if k != "seconds"}
            for line in log.read_text().strip().split("\n")
        ]
        hashes["train.log"] = hashlib.sha256(
            json.dumps(log_entries, sort_keys=True).encode()
        ).hexdigest()
        return hashes

    first = run_pipeline(tmp_path / "a")
    second = run_pipeline(tmp_path / "b")
    mismatches = [k for k in first if first[k] != second[k]]
    report(11, "determinism", not mismatches, f"(mismatches: {mismatches or 'none'})")
