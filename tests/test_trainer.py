import copy
import json

import numpy as np
import pytest

import bundlecraft.numerics as nm
from bundlecraft import baselines
from bundlecraft import corpus as C
from bundlecraft import trainer as tr
from bundlecraft.cf_pretrain import CfEmbeddings, pretrain
from bundlecraft.config import DEFAULTS, train_config
from bundlecraft.contrastive import AugmentationConfig
from bundlecraft.corpus import PartialBundleView, sample_partial, warm_items
from bundlecraft.errors import CorpusFormatError, DivergenceError, IntegrityError
from bundlecraft.evaluation import make_scorer
from bundlecraft.item_encoder import ItemInputs, build_item_inputs
from bundlecraft.synth import SynthSpec, generate

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
        out = tr.score(nm.constant([[1.0, 0.0]], F64), nm.constant([[0.5, 0.5]], F64))
        assert out.value.tolist() == [[0.5]]

    def test_zero_bundle_vector(self, rng):
        table = rng.normal(size=(5, 3))
        out = tr.score(nm.constant(np.zeros((1, 3)), F64), nm.constant(table, F64))
        assert (out.value == 0).all()

    def test_matches_loop_oracle(self, rng):
        e = rng.normal(size=(1, 4))
        table = rng.normal(size=(3, 4))
        out = tr.score(nm.constant(e, F64), nm.constant(table, F64))
        for i in range(3):
            assert out.value[0, i] == pytest.approx(float(e[0] @ table[i]), abs=1e-12)


class TestNllLoss:
    def test_uniform_scores(self):
        loss = tr.nll_loss(nm.constant(np.zeros((1, 4)), F64), {1})
        assert abs(loss.item() - np.log(4) / 4) < 1e-12

    def test_direct_formula(self):
        loss = tr.nll_loss(nm.constant([[1.0, 0.0, 0.0, 0.0]], F64), {0})
        want = -np.log(np.e / (np.e + 3)) / 4
        assert abs(loss.item() - want) < 1e-12
        assert abs(loss.item() - 0.1859) < 5e-5

    def test_dominant_score_drives_loss_to_zero(self):
        scores = np.zeros((1, 4))
        scores[0, 2] = 50.0
        loss = tr.nll_loss(nm.constant(scores, F64), {2})
        assert loss.item() < 1e-10

    def test_empty_targets_rejected(self):
        with pytest.raises(IntegrityError):
            tr.nll_loss(nm.constant(np.zeros((1, 4)), F64), set())

    def test_strictly_positive(self, rng):
        for _ in range(20):
            scores = rng.normal(size=(1, 6))
            loss = tr.nll_loss(nm.constant(scores, F64), {0, 3})
            assert loss.item() > 0


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


class TestReductionEquivalence:
    def test_bit_identical_to_mean_pool_baseline(self, tiny_corpus):
        catalog, features, graph, cf = tiny_corpus
        cfg = small_config(**{
            "ablation.use_item_attention": False,
            "ablation.use_bundle_attention": False,
            "ablation.use_item_cl": False,
            "ablation.use_bundle_cl": False,
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


class TestCheckpoint:
    def test_round_trip_and_bit_exact_scoring(self, tiny_corpus, tmp_path):
        catalog, features, graph, cf = tiny_corpus
        cfg = small_config(**{"train.epochs": 2})
        result = tr.fit(catalog, features, graph, cf, cfg)
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(path, result.model, epoch=result.best_epoch,
                           metrics=result.best_metrics)
        assert path.read_bytes()[:4] == b"CLHE"

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
    model, inputs, views = toy_setup(
        rng, **{"ablation.use_item_cl": False, "ablation.use_bundle_cl": False}
    )
    _, parts = tr.total_loss(views, model, inputs, np.random.default_rng(2))
    assert parts["cl_item"] == 0.0
    assert parts["cl_bundle"] == 0.0
