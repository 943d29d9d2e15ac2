import copy
import importlib.util
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

import bundlecraft.numerics as nm
from bundlecraft import corpus as C
from bundlecraft import kernels
from bundlecraft import trainer as tr
from bundlecraft.bundle_encoder import encode_sets
from bundlecraft.cf_pretrain import CfEmbeddings, pretrain
from bundlecraft.config import DEFAULTS, train_config
from bundlecraft.contrastive import augment_bundle, augment_inputs, info_nce
from bundlecraft.corpus import PartialBundleView, sample_partial, warm_items
from bundlecraft.errors import CorpusFormatError, DivergenceError, IntegrityError, ShapeError
from bundlecraft.evaluation import make_scorer
from bundlecraft.item_encoder import ItemInputs, build_item_inputs, encode_item_table
from bundlecraft.synth import SynthSpec, generate

import baselines
from graph_ops import mul, sum_all

F64 = np.float64


def small_config(**kw):
    cfgd = copy.deepcopy(DEFAULTS)
    cfgd["model"]["d"] = 8
    cfgd["train"].update({"epochs": 3, "batch_size": 16, "patience": 10})
    for key, value in kw.items():
        section, name = key.split(".")
        cfgd[section][name] = value
    return train_config(cfgd)


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tinycorpus")
    spec = SynthSpec(
        n_items=120, n_users=40, n_bundles=30, n_topics=3, feature_dim=16,
        bundle_size_min=3, bundle_size_max=5, feedback_density=0.05,
        cold_item_fraction=0.1, seed=5,
    )
    generate(spec, tmp)
    catalog, features, graph = C.load_dir(tmp)
    cf = pretrain(graph, d=8, k_layers=2, epochs=5, lr=0.05, neg_samples=1,
                  rng=np.random.default_rng(5))
    return catalog, features, graph, cf


class TestScore:
    def test_arithmetic(self):
        out = nm.matmul_nt(nm.constant([[1.0, 0.0]], F64), nm.constant([[0.5, 0.5]], F64))
        assert out.value.tolist() == [[0.5]]

    def test_zero_bundle_vector(self, rng):
        table = rng.normal(size=(5, 3))
        out = nm.matmul_nt(nm.constant(np.zeros((1, 3)), F64), nm.constant(table, F64))
        assert (out.value == 0).all()

    def test_matches_loop_oracle(self, rng):
        e = rng.normal(size=(1, 4))
        table = rng.normal(size=(3, 4))
        out = nm.matmul_nt(nm.constant(e, F64), nm.constant(table, F64))
        for i in range(3):
            assert out.value[0, i] == pytest.approx(float(e[0] @ table[i]), abs=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_node_matches_matmul_of_transpose(self, rng, dtype):
        """One node with no transpose copy against the product with a
        transposed copy of the table, in numpy: the same value, and gradients
        equal to rounding."""
        e0, t0 = rng.normal(size=(5, 8)).astype(dtype), rng.normal(size=(300, 8)).astype(dtype)
        g = rng.normal(size=(5, 300)).astype(dtype)
        e, t = nm.parameter(e0, dtype), nm.parameter(t0, dtype)
        out = nm.matmul_nt(e, t)
        nm.backward(sum_all(mul(out, nm.constant(g, dtype))))
        t_copy = np.ascontiguousarray(t0.T)
        assert out.value.tobytes() == (e0 @ t_copy).tobytes()
        tol = 1e-12 if dtype == np.float64 else 1e-5
        for got, want in ((e.adjoint, g @ t_copy.T), (t.adjoint, (e0.T @ g).T)):
            assert got.dtype == dtype
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


def nll_oracle(logits, targets):
    """(1/N) sum over targets of -log softmax(logits), for one row of N scores."""
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    return sum(-math.log(probs[t]) for t in targets) / len(logits)


class TestNllLoss:
    def test_uniform_scores(self):
        loss = tr.nll_loss(nm.constant(np.zeros((1, 4)), F64), [{1}])
        assert abs(loss.item() - np.log(4) / 4) < 1e-12

    def test_direct_formula(self):
        loss = tr.nll_loss(nm.constant([[1.0, 0.0, 0.0, 0.0]], F64), [{0}])
        want = -np.log(np.e / (np.e + 3)) / 4
        assert abs(loss.item() - want) < 1e-12
        assert abs(loss.item() - 0.1859) < 5e-5

    def test_dominant_score_drives_loss_to_zero(self):
        scores = np.zeros((1, 4))
        scores[0, 2] = 50.0
        loss = tr.nll_loss(nm.constant(scores, F64), [{2}])
        assert loss.item() < 1e-10

    def test_empty_targets_rejected(self):
        with pytest.raises(IntegrityError):
            tr.nll_loss(nm.constant(np.zeros((1, 4)), F64), [set()])

    def test_strictly_positive(self, rng):
        for _ in range(20):
            scores = rng.normal(size=(1, 6))
            loss = tr.nll_loss(nm.constant(scores, F64), [{0, 3}])
            assert loss.item() > 0

    def test_batch_is_the_mean_of_its_rows(self, rng):
        for _ in range(50):
            b, n = int(rng.integers(2, 7)), int(rng.integers(2, 30))
            scores = rng.normal(size=(b, n))
            target_sets = [set(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
                           for _ in range(b)]
            got = tr.nll_loss(nm.constant(scores, F64), target_sets).item()
            want = sum(nll_oracle(row, t) for row, t in zip(scores, target_sets)) / b
            assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_node_matches_the_op_composition(self, rng, dtype):
        """The fused node against log-softmax times a constant mask, summed
        and scaled, in numpy: the same gradient bits. The value sums only the
        picked entries, in row then column order, so it equals that sum bit
        for bit and the full-matrix sum to a few ulps."""
        for _ in range(20):
            b, n = int(rng.integers(1, 7)), int(rng.integers(2, 300))
            scores = (rng.normal(size=(b, n)) * 4).astype(dtype)
            target_sets = [set(rng.choice(n, size=int(rng.integers(1, min(n, 9))),
                                          replace=False).tolist()) for _ in range(b)]
            mask = np.zeros((b, n), dtype=dtype)
            for r, targets in enumerate(target_sets):
                mask[r, sorted(targets)] = 1.0
            fused_in = nm.parameter(scores, dtype)
            fused = tr.nll_loss(fused_in, target_sets)
            assert fused.parents == (fused_in,)
            c = -1.0 / (b * n)
            rows, cols = np.nonzero(mask)
            y = kernels.log_softmax_rows(scores)
            want = y[rows, cols].sum().reshape(1, 1) * c
            assert fused.value.dtype == dtype and fused.value.tobytes() == want.tobytes()
            eps = np.finfo(dtype).eps
            parts = float((y * mask).sum() * c)
            assert abs(fused.item() - parts) <= 8 * eps * abs(parts)
            nm.backward(nm.smul(fused, 1.7))
            # the seed the chain smul(1.7), smul(c), sum, mask product hands down
            seed = np.ones((1, 1), dtype) * 1.7 * c
            grad = kernels.log_softmax_rows_grad(y, np.broadcast_to(seed, mask.shape) * mask)
            assert fused_in.adjoint.tobytes() == grad.tobytes()

    @pytest.mark.parametrize("target_sets", [[{0}, set()], [{0}, {4}], [{-1}, {1}], [{0}]])
    def test_bad_target_sets_rejected(self, target_sets):
        with pytest.raises((IntegrityError, ShapeError)):
            tr.nll_loss(nm.constant(np.zeros((2, 4)), F64), target_sets)


def toy_setup(rng, alpha1=0.3, alpha2=0.2, beta=1e-3, **kw):
    n, feat, cfd = 5, 6, 3
    cfgd = copy.deepcopy(DEFAULTS)
    cfgd["precision"] = "f64"
    cfgd["model"]["d"] = 4
    cfgd["train"].update({"alpha1": alpha1, "alpha2": alpha2, "beta": beta})
    cfgd["augment"].update({"dropout_ratio": 0.5, "tau": 0.7})
    for key, value in kw.items():
        section, name = key.split(".")
        cfgd[section][name] = value
    tc = train_config(cfgd)
    cf = CfEmbeddings(
        user_table=np.zeros((2, cfd), np.float32),
        item_table=rng.normal(size=(n, cfd)).astype(np.float32),
        k_layers=1,
    )
    inputs = ItemInputs(
        content=rng.normal(size=(n, feat)),
        feedback=np.where(np.array([1, 0, 1, 1, 0])[:, None], rng.normal(size=(n, cfd)), 0.0),
        feedback_present=np.array([1, 0, 1, 1, 0], dtype=bool),
        id_warm=np.array([1, 1, 0, 1, 1], dtype=bool),
    )
    views = [
        PartialBundleView(0, frozenset({0, 1}), frozenset({2})),
        PartialBundleView(1, frozenset({3}), frozenset({4, 0})),
    ]
    model = tr.init_model(n, feat, cf, tc, rng)
    return model, inputs, views


class TestTotalLoss:
    def test_term_isolation(self, rng):
        model, inputs, views = toy_setup(rng, alpha1=0.0, alpha2=0.0, beta=0.0)
        loss, parts = tr.total_loss(views, model, inputs, np.random.default_rng(1))
        assert loss.item() == pytest.approx(parts["nll"], abs=1e-15)
        assert parts["cl_item"] == 0.0 and parts["cl_bundle"] == 0.0

    def test_l2_zero_when_params_zero(self, rng):
        model, inputs, views = toy_setup(rng, alpha1=0.0, alpha2=0.0, beta=1.0)
        for p in model.trainables():
            p.value[:] = 0.0
        _, parts = tr.total_loss(views, model, inputs, np.random.default_rng(1))
        assert parts["l2"] == 0.0

    def test_l2_matches_brute_force(self, rng):
        model, inputs, views = toy_setup(rng, beta=1e-2)
        _, parts = tr.total_loss(views, model, inputs, np.random.default_rng(1))
        want = sum(float((p.value**2).sum()) for p in model.trainables())
        assert parts["l2"] == pytest.approx(want, rel=1e-10)

    def test_gradients_match_finite_differences(self, rng):
        from conftest import numeric_grad, rel_err

        model, inputs, views = toy_setup(rng)

        def loss_fn():
            node, _ = tr.total_loss(views, model, inputs, np.random.default_rng(42))
            return node

        node = loss_fn()
        nm.backward(node)
        for name, p in model.named_trainables():
            analytic = p.adjoint.copy()
            num = numeric_grad(lambda: loss_fn().item(), p.value, h=1e-5)
            assert rel_err(analytic, num) < 1e-4, name
        nm.zero_adjoints(model.trainables())

    def test_single_adam_step_decreases_loss(self):
        for trial in range(20):
            rng = np.random.default_rng(5000 + trial)
            model, inputs, views = toy_setup(rng)
            opt = tr.Adam(model.trainables(), lr=1e-3)
            node, _ = tr.total_loss(views, model, inputs, np.random.default_rng(9))
            before = node.item()
            nm.backward(node)
            opt.step()
            node2, _ = tr.total_loss(views, model, inputs, np.random.default_rng(9))
            assert node2.item() < before


def adam_oracle(values, grads, lr, t, m, v, beta1=0.9, beta2=0.999, eps=1e-8):
    """The textbook Adam step, one temporary per operation, in place on
    ``values``, ``m`` and ``v``."""
    b1t = 1.0 - beta1 ** t
    b2t = 1.0 - beta2 ** t
    for p, g, m_, v_ in zip(values, grads, m, v):
        m_ *= beta1
        m_ += (1.0 - beta1) * g
        v_ *= beta2
        v_ += (1.0 - beta2) * g * g
        update = (m_ / b1t) / (np.sqrt(v_ / b2t) + eps)
        p -= lr * update


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_adam_matches_the_textbook_step(rng, dtype):
    shapes = [(40, 8), (8, 8), (1, 3)]
    params = [nm.parameter(rng.normal(size=s), dtype) for s in shapes]
    values = [p.value.copy() for p in params]
    m = [np.zeros_like(x) for x in values]
    v = [np.zeros_like(x) for x in values]
    opt = tr.Adam(params, lr=3e-2)
    for t in range(1, 8):
        grads = [(rng.normal(size=s) * 10.0 ** rng.integers(-6, 2)).astype(dtype) for s in shapes]
        # a parameter without a gradient is skipped and keeps its moments
        if t == 3:
            grads[1] = None
        for p, g in zip(params, grads):
            p.adjoint = None if g is None else g.copy()
        opt.step()
        kept = [(x, g, m_, v_) for x, g, m_, v_ in zip(values, grads, m, v) if g is not None]
        x, g, m_, v_ = map(list, zip(*kept))
        adam_oracle(x, g, 3e-2, t, m_, v_)
        for p, x, m_, v_, m2, v2 in zip(params, values, m, v, opt.m, opt.v):
            assert p.value.tobytes() == x.tobytes()
            assert m2.tobytes() == m_.tobytes() and v2.tobytes() == v_.tobytes()
            assert p.adjoint is None


def graph_size(root):
    """Distinct nodes reachable from ``root`` through ``parents``."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def test_loss_graph_size_independent_of_batch(tiny_corpus):
    """Both CL terms on: 7 leaves, the item table, the batch's gather and
    bundle node, the scores and the NLL, 9 nodes per CL term (the positives'
    encode, 5 InfoNCE nodes, the weight and the add) and 3 for L2. A second
    bundle layer adds only its two weight leaves."""
    catalog, features, graph, cf = tiny_corpus
    inputs = build_item_inputs(catalog, features, cf, graph, frozenset(range(60)), np.float32)
    for z_layers, want in ((1, 33), (2, 35)):
        cfg = small_config(**{"model.z_layers": z_layers})
        assert cfg.alpha1 > 0 and cfg.alpha2 > 0 and cfg.augment.item_mode != "NA"
        rng = np.random.default_rng(3)
        model = tr.init_model(catalog.n_items, features.dim, cf, cfg, rng)
        sizes = []
        for batch in (4, 32):
            views = [sample_partial(catalog.bundles[b % catalog.n_bundles], 0.5, rng,
                                    bundle_index=b) for b in range(batch)]
            assert len({len(v.seeds) for v in views}) > 1
            loss, _ = tr.total_loss(views, model, inputs, rng)
            sizes.append(graph_size(loss))
        assert sizes == [want, want], (z_layers, sizes)


class TestReductionEquivalence:
    def test_bit_identical_to_mean_pool_baseline(self, tiny_corpus):
        catalog, features, graph, cf = tiny_corpus
        cfg = small_config(**{
            "ablation.use_item_attention": False,
            "ablation.use_bundle_attention": False,
            "train.alpha1": 0.0,
            "train.alpha2": 0.0,
            "train.epochs": 2,
        })
        result = tr.fit(catalog, features, graph, cf, cfg)
        warm = warm_items(catalog, result.split[0])
        inputs = build_item_inputs(catalog, features, cf, graph, warm, np.float32)
        scorer = make_scorer(result.model, inputs)
        rng = np.random.default_rng(0)
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
            assert got.tobytes() == want.tobytes()


class TestFit:
    def test_zero_lr_keeps_parameters(self, tiny_corpus):
        catalog, features, graph, cf = tiny_corpus
        cfg = small_config(**{"train.lr": 0.0, "train.epochs": 2})
        rng_probe = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[0])
        probe = tr.init_model(catalog.n_items, features.dim, cf, cfg, rng_probe)
        result = tr.fit(catalog, features, graph, cf, cfg)
        for (_, a), (_, b) in zip(probe.named_trainables(), result.model.named_trainables()):
            np.testing.assert_array_equal(a.value, b.value)
        vals = [h["val_ndcg20"] for h in result.history]
        assert len(set(vals)) == 1

    def test_same_seed_identical_curves(self, tiny_corpus):
        catalog, features, graph, cf = tiny_corpus
        runs = []
        for _ in range(2):
            cfg = small_config(**{"train.epochs": 3})
            result = tr.fit(catalog, features, graph, cf, cfg)
            runs.append([
                {k: v for k, v in h.items() if k != "seconds"} for h in result.history
            ])
        assert runs[0] == runs[1]

    def test_zero_epochs_returns_init(self, tiny_corpus):
        catalog, features, graph, cf = tiny_corpus
        cfg = small_config(**{"train.epochs": 0})
        result = tr.fit(catalog, features, graph, cf, cfg)
        assert result.best_epoch == 0
        assert result.history == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_epoch(self, tiny_corpus):
        catalog, features, graph, cf = tiny_corpus
        cfg = small_config(**{"train.lr": 1e12, "train.epochs": 8})
        with pytest.raises(DivergenceError, match="epoch"):
            tr.fit(catalog, features, graph, cf, cfg)

    def test_log_file_schema(self, tiny_corpus, tmp_path):
        catalog, features, graph, cf = tiny_corpus
        cfg = small_config(**{"train.epochs": 2})
        log_path = tmp_path / "train.log.jsonl"
        tr.fit(catalog, features, graph, cf, cfg, log_path=str(log_path))
        lines = log_path.read_text().strip().split("\n")
        assert len(lines) == 2
        entry = json.loads(lines[0])
        assert set(entry) == {
            "epoch", "train_loss", "nll", "cl_item", "cl_bundle", "l2",
            "val_recall20", "val_ndcg20", "seconds",
        }
        seconds = entry["seconds"]
        assert set(seconds) == {"total", "loss", "backward", "adam", "validate"}
        assert all(v >= 0 for v in seconds.values())
        parts = seconds["loss"] + seconds["backward"] + seconds["adam"] + seconds["validate"]
        assert parts <= seconds["total"]


class TestCheckpoint:
    def test_round_trip_and_bit_exact_scoring(self, tiny_corpus, tmp_path):
        catalog, features, graph, cf = tiny_corpus
        cfg = small_config(**{"train.epochs": 2})
        result = tr.fit(catalog, features, graph, cf, cfg)
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(path, result.model, epoch=result.best_epoch,
                           metrics=result.best_metrics)
        blob = path.read_bytes()
        assert blob[:4] == b"CLHE"
        (jlen,) = struct.unpack_from("<I", blob, 8)
        written = json.loads(blob[12 : 12 + jlen])["matrices"]
        assert written == tr.matrix_names(cfg) + ["cf_item_table"]
        assert [name for name, _ in result.model.named_trainables()] == tr.matrix_names(cfg)

        loaded, epoch, metrics = tr.load_checkpoint(path)
        assert epoch == result.best_epoch
        assert metrics == pytest.approx(result.best_metrics)
        assert loaded.config == result.model.config
        for (na, a), (nb, b) in zip(
            result.model.named_trainables(), loaded.named_trainables()
        ):
            assert na == nb
            np.testing.assert_array_equal(a.value, b.value)

        warm = warm_items(catalog, result.split[0])
        inputs = build_item_inputs(catalog, features, cf, graph, warm, np.float32)
        s1 = make_scorer(result.model, inputs)
        inputs2 = build_item_inputs(catalog, features, loaded.cf, graph, warm, np.float32)
        s2 = make_scorer(loaded, inputs2)
        seeds = sorted(catalog.bundles[result.split[2][0]])[:2]
        assert s1(seeds).tobytes() == s2(seeds).tobytes()

    def test_partial_config_echo_takes_run_defaults(self):
        # the benchmark's planted serve checkpoint echoes only these keys
        cfg = tr.config_from_dict({"d": 64, "seed": 0, "augment": {},
                                   "ablation": {"use_feedback": False}})
        want = train_config(DEFAULTS)
        assert cfg.d == 64 and cfg.ablation.use_feedback is False
        assert cfg.alpha1 == want.alpha1 and cfg.patience == want.patience
        assert cfg.augment == want.augment
        assert cfg.ablation.use_bundle_attention == want.ablation.use_bundle_attention

    def test_benchmark_serve_config_echo_loads(self, monkeypatch):
        # a config key deletion that breaks the benchmark's planted serve
        # checkpoint fails here, not in a benchmark run
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.syspath_prepend(str(perfbench))  # prep.py imports ``gen``
        spec = importlib.util.spec_from_file_location("perfbench_prep", perfbench / "prep.py")
        prep = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(prep)
        cfg = tr.config_from_dict(prep.SERVE_CONFIG)
        assert cfg.d == prep.SERVE_D and cfg.seed == prep.SERVE_WORLD_SEED
        assert cfg.augment == train_config(DEFAULTS).augment

    @pytest.mark.parametrize("name", ["V", "bundle_0_WQ", "cf_item_table"])
    def test_non_finite_matrix_rejected(self, tiny_corpus, tmp_path, name):
        catalog, features, _, cf = tiny_corpus
        model = tr.init_model(catalog.n_items, features.text.shape[1], cf, small_config(),
                              np.random.default_rng(0))
        model.cf = CfEmbeddings(cf.user_table, cf.item_table.copy(), cf.k_layers)
        values = {name: node.value for name, node in model.named_trainables()}
        values["cf_item_table"] = model.cf.item_table
        values[name][-1, -1] = np.nan
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(path, model)
        with pytest.raises(CorpusFormatError, match=f"{name} holds a non-finite value"):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize("name", ["W_p", "V", "item_0_WK", "bundle_0_WQ"])
    def test_shape_disagreeing_with_config_rejected(self, tiny_corpus, tmp_path, name):
        catalog, features, _, cf = tiny_corpus
        model = tr.init_model(catalog.n_items, features.text.shape[1], cf, small_config(),
                              np.random.default_rng(0))
        node = dict(model.named_trainables())[name]
        node.value = node.value[:-1]
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(path, model)
        with pytest.raises(CorpusFormatError, match=name):
            tr.load_checkpoint(path)


@pytest.mark.slow
def test_smoke_train_validation_rises_early(tmp_path):
    """Planted corpus, d=32: the validation curve climbs from the start."""
    from bundlecraft.synth import SynthSpec, generate

    generate(
        SynthSpec(n_items=400, n_users=150, n_bundles=120, n_topics=4, feature_dim=32,
                  bundle_size_min=4, bundle_size_max=8, feedback_density=0.04,
                  cold_item_fraction=0.05, seed=2),
        tmp_path,
    )
    catalog, features, graph = C.load_dir(tmp_path)
    cf = pretrain(graph, d=32, k_layers=2, epochs=8, lr=0.05, neg_samples=1,
                  rng=np.random.default_rng(2))
    import dataclasses

    cfg = small_config(**{
        "model.d": 32, "train.epochs": 30, "train.batch_size": 16,
        "train.lr": 1e-2, "train.patience": 30,
    })
    cfg = dataclasses.replace(cfg, seed=2)
    result = tr.fit(catalog, features, graph, cf, cfg)
    vals = [h["val_ndcg20"] for h in result.history]
    assert all(vals[i] < vals[i + 1] for i in range(4)), vals[:5]
    assert max(vals) > vals[0]


def test_ablation_flags_zero_terms(rng):
    """Zero weights skip both contrastive terms and their random draws."""
    model, inputs, views = toy_setup(rng, alpha1=0.0, alpha2=0.0)
    draws = np.random.default_rng(2)
    state = draws.bit_generator.state
    _, parts = tr.total_loss(views, model, inputs, draws)
    assert parts["cl_item"] == 0.0
    assert parts["cl_bundle"] == 0.0
    assert draws.bit_generator.state == state


# ---------------------------------------------------------------------------
# augmented item view: restricted encode against the full-catalog oracle
# ---------------------------------------------------------------------------

def full_aug_total_loss_oracle(views, model, inputs, rng):
    """``total_loss`` as it was when the augmented item view was encoded for
    the whole catalog and then cut to the anchor rows."""
    cfg, ab = model.config, model.config.ablation
    dtype = nm.DTYPES[cfg.precision]
    f_table = encode_item_table(
        inputs, model.item_params, ab.use_feedback, ab.use_item_attention, dtype)
    def encode(vs):
        return encode_sets(f_table, [v.seeds for v in vs], model.bundle_params,
                           ab.use_bundle_attention)

    e_batch = encode(views)
    loss = tr.nll_loss(nm.matmul_nt(e_batch, f_table), [v.targets for v in views])
    aug_inputs = augment_inputs(inputs, cfg.augment.item_mode, cfg.augment, rng)
    if cfg.augment.item_mode == "NA":
        f_aug = f_table
    else:
        f_aug = encode_item_table(aug_inputs, model.item_params, ab.use_feedback,
                                  ab.use_item_attention, dtype)
    anchor_idx = sorted(set().union(*(v.seeds | v.targets for v in views)))
    cl_item = info_nce(nm.take_rows(f_table, anchor_idx), nm.take_rows(f_aug, anchor_idx),
                       cfg.augment.tau)
    loss = nm.add(loss, nm.smul(cl_item, cfg.alpha1))
    aug_views = [augment_bundle(v, cfg.augment.bundle_mode, cfg.augment, rng, inputs.n_items)
                 for v in views]
    e_aug = encode(aug_views)
    loss = nm.add(loss, nm.smul(info_nce(e_batch, e_aug, cfg.augment.tau), cfg.alpha2))
    l2 = None
    for p in model.trainables():
        term = sum_all(mul(p, p))
        l2 = term if l2 is None else nm.add(l2, term)
    return nm.add(loss, nm.smul(l2, cfg.beta))


def sparse_anchor_setup(rng, **kw):
    """A 12-item catalog whose batch touches only items 0-6."""
    n, feat, cfd = 12, 6, 3
    cfgd = copy.deepcopy(DEFAULTS)
    cfgd["precision"] = "f64"
    cfgd["model"]["d"] = 4
    cfgd["train"].update({"alpha1": 0.3, "alpha2": 0.2, "beta": 1e-3})
    cfgd["augment"].update({"dropout_ratio": 0.5, "noise_weight": 0.2, "tau": 0.7})
    for key, value in kw.items():
        section, name = key.split(".")
        cfgd[section][name] = value
    present = rng.random(n) > 0.3
    inputs = ItemInputs(
        content=rng.normal(size=(n, feat)),
        feedback=np.where(present[:, None], rng.normal(size=(n, cfd)), 0.0),
        feedback_present=present,
        id_warm=rng.random(n) > 0.2,
    )
    cf = CfEmbeddings(user_table=np.zeros((2, cfd), np.float32),
                      item_table=rng.normal(size=(n, cfd)).astype(np.float32), k_layers=1)
    views = [
        PartialBundleView(0, frozenset({0, 1}), frozenset({2})),
        PartialBundleView(1, frozenset({3, 5, 6}), frozenset({4, 0})),
        PartialBundleView(2, frozenset({6}), frozenset({1, 5})),
    ]
    model = tr.init_model(n, feat, cf, train_config(cfgd), rng)
    return model, inputs, views


@pytest.mark.parametrize("item_mode", ["MD", "FN", "FD", "NA"])
def test_restricted_augmented_view_matches_full_catalog_oracle(item_mode):
    model, inputs, views = sparse_anchor_setup(
        np.random.default_rng(31), **{"augment.item_mode": item_mode})
    results = []
    for fn in (full_aug_total_loss_oracle, lambda *a: tr.total_loss(*a)[0]):
        rng = np.random.default_rng(77)
        loss = fn(views, model, inputs, rng)
        nm.backward(loss)
        results.append((loss.item(), {name: p.adjoint.copy() for name, p in
                                      model.named_trainables()}, rng.bit_generator.state))
        nm.zero_adjoints(model.trainables())
    (want_loss, want_grads, want_state), (got_loss, got_grads, got_state) = results
    assert got_loss == pytest.approx(want_loss, rel=1e-12)
    for name, grad in want_grads.items():
        np.testing.assert_allclose(got_grads[name], grad, rtol=1e-9, atol=1e-13, err_msg=name)
    assert got_state == want_state
