import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bundlecraft import cf_pretrain as cf
from bundlecraft.corpus import InteractionGraph
from bundlecraft.errors import ConfigError, CorpusFormatError


def graph_of(edges, m, n):
    u = np.asarray([e[0] for e in edges], dtype=np.int64)
    i = np.asarray([e[1] for e in edges], dtype=np.int64)
    return InteractionGraph(
        user_idx=u,
        item_idx=i,
        user_degree=np.bincount(u, minlength=m).astype(np.int64),
        item_degree=np.bincount(i, minlength=n).astype(np.int64),
    )


def dense_propagation_oracle(user0, item0, graph, k_layers):
    """D^{-1/2} A D^{-1/2} over the (M+N)-node graph, powers applied to E."""
    m, n = user0.shape[0], item0.shape[0]
    adj = np.zeros((m + n, m + n))
    for u, i in zip(graph.user_idx, graph.item_idx):
        adj[u, m + i] = 1.0
        adj[m + i, u] = 1.0
    deg = adj.sum(axis=1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    norm = inv_sqrt[:, None] * adj * inv_sqrt[None, :]
    e = np.vstack([user0, item0])
    layers = [(user0, item0)]
    for _ in range(k_layers):
        e = norm @ e
        layers.append((e[:m].copy(), e[m:].copy()))
    return layers


class TestPropagate:
    def test_single_edge_swaps_rows(self, rng):
        g = graph_of([(0, 0)], 1, 1)
        u0 = rng.normal(size=(1, 3))
        i0 = rng.normal(size=(1, 3))
        layers = cf.propagate(u0, i0, g, 1)
        np.testing.assert_allclose(layers[1][0], i0, atol=1e-12)
        np.testing.assert_allclose(layers[1][1], u0, atol=1e-12)

    def test_zero_edge_graph_zeroes_deep_layers(self, rng):
        g = graph_of([], 3, 4)
        layers = cf.propagate(rng.normal(size=(3, 2)), rng.normal(size=(4, 2)), g, 2)
        for u, i in layers[1:]:
            assert (u == 0).all() and (i == 0).all()

    def test_matches_dense_oracle_on_random_graphs(self):
        for trial in range(50):
            rng = np.random.default_rng(trial)
            m = int(rng.integers(1, 11))
            n = int(rng.integers(1, 11))
            density = rng.uniform(0.05, 0.6)
            edges = sorted(
                {(int(u), int(i)) for u in range(m) for i in range(n) if rng.random() < density}
            )
            g = graph_of(edges, m, n)
            u0 = rng.normal(size=(m, 4))
            i0 = rng.normal(size=(n, 4))
            k = int(rng.integers(1, 4))
            got = cf.propagate(u0, i0, g, k)
            want = dense_propagation_oracle(u0, i0, g, k)
            for (gu, gi), (wu, wi) in zip(got, want):
                np.testing.assert_allclose(gu, wu, atol=1e-10)
                np.testing.assert_allclose(gi, wi, atol=1e-10)

    def test_linearity(self, rng):
        g = graph_of([(0, 1), (1, 0), (2, 1)], 3, 2)
        u0 = rng.normal(size=(3, 4))
        i0 = rng.normal(size=(2, 4))
        a = cf.propagate(3.7 * u0, 3.7 * i0, g, 2)
        b = cf.propagate(u0, i0, g, 2)
        for (au, ai), (bu, bi) in zip(a, b):
            np.testing.assert_allclose(au, 3.7 * bu, atol=1e-10)
            np.testing.assert_allclose(ai, 3.7 * bi, atol=1e-10)

    def test_edge_coefficient_symmetry(self, rng):
        # one edge (u, i): the u->i and i->u transfers use the same weight
        g = graph_of([(0, 0), (0, 1)], 1, 2)
        u0 = np.ones((1, 1))
        i0 = np.ones((2, 1))
        layers = cf.propagate(u0, i0, g, 1)
        w_u = layers[1][0][0, 0]  # sum of both item rows, weighted
        w_i0 = layers[1][1][0, 0]
        # |N_u|=2, |N_i|=1 each: user gets 2 * 1/sqrt(2), item gets 1/sqrt(2)
        np.testing.assert_allclose(w_u, 2 / np.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(w_i0, 1 / np.sqrt(2), atol=1e-12)


class TestAggregate:
    def test_identical_layers(self, rng):
        u = rng.normal(size=(3, 2))
        i = rng.normal(size=(4, 2))
        users, items = cf.aggregate_layers([(u, i), (u, i), (u, i)])
        np.testing.assert_allclose(users, u, atol=1e-14)
        np.testing.assert_allclose(items, i, atol=1e-14)

    def test_two_layer_mean(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        users, _ = cf.aggregate_layers([(a, a), (b, b)])
        np.testing.assert_allclose(users, (a + b) / 2, atol=1e-14)

    def test_matches_brute_force_mean(self, rng):
        layers = [(rng.normal(size=(3, 2)), rng.normal(size=(4, 2))) for _ in range(3)]
        users, items = cf.aggregate_layers(layers)
        np.testing.assert_allclose(users, sum(u for u, _ in layers) / 3, atol=1e-12)
        np.testing.assert_allclose(items, sum(i for _, i in layers) / 3, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_layers", [1, 2, 3, 5])
    def test_bit_identical_to_stacked_mean(self, rng, dtype, n_layers):
        layers = [(rng.normal(size=(7, 5)).astype(dtype), rng.normal(size=(9, 5)).astype(dtype))
                  for _ in range(n_layers)]
        users, items = cf.aggregate_layers(layers)
        np.testing.assert_array_equal(users, np.mean([u for u, _ in layers], axis=0))
        np.testing.assert_array_equal(items, np.mean([i for _, i in layers], axis=0))
        assert users.dtype == dtype


class TestPretrain:
    def test_zero_lr_returns_aggregated_init(self):
        g = graph_of([(0, 0), (1, 1)], 2, 2)
        emb = cf.pretrain(g, d=4, k_layers=2, epochs=3, lr=0.0, neg_samples=1,
                          rng=np.random.default_rng(7))
        rng2 = np.random.default_rng(7)
        u0 = cf.xavier_uniform(2, 4, rng2)
        i0 = cf.xavier_uniform(2, 4, rng2)
        users, items = cf.aggregate_layers(cf.propagate(u0, i0, g, 2))
        np.testing.assert_array_equal(emb.user_table, users.astype(np.float32))
        np.testing.assert_array_equal(emb.item_table, items.astype(np.float32))

    def test_ranking_sanity(self):
        # 1 user, 2 items, edge only to item 0
        g = graph_of([(0, 0)], 1, 2)
        emb = cf.pretrain(g, d=8, k_layers=1, epochs=200, lr=0.1, neg_samples=1,
                          rng=np.random.default_rng(3))
        score_a = float(emb.user_table[0] @ emb.item_table[0])
        score_b = float(emb.user_table[0] @ emb.item_table[1])
        assert score_a > score_b

    def test_deterministic(self):
        g = graph_of([(0, 0), (0, 1), (1, 2)], 2, 3)
        a = cf.pretrain(g, d=4, k_layers=2, epochs=5, lr=0.05, neg_samples=1,
                        rng=np.random.default_rng(11))
        b = cf.pretrain(g, d=4, k_layers=2, epochs=5, lr=0.05, neg_samples=1,
                        rng=np.random.default_rng(11))
        assert a.user_table.tobytes() == b.user_table.tobytes()
        assert a.item_table.tobytes() == b.item_table.tobytes()

    def test_zero_edges_returns_untrained_init(self):
        g = graph_of([], 3, 5)
        emb = cf.pretrain(g, d=4, k_layers=2, epochs=3, lr=0.1, neg_samples=1,
                          rng=np.random.default_rng(1))
        rng2 = np.random.default_rng(1)
        np.testing.assert_array_equal(
            emb.user_table, cf.xavier_uniform(3, 4, rng2).astype(np.float32)
        )

    def test_full_user_gives_up_and_others_never_do(self, caplog):
        # user 0 is adjacent to every item, so no negative exists for it
        n = 6
        edges = [(0, i) for i in range(n)] + [(1, 0), (1, 3), (2, 5)]
        g = graph_of(edges, 3, n)
        edge_keys = np.sort(g.user_idx * n + g.item_idx)
        observed = set(edges)
        rng = np.random.default_rng(5)
        for _ in range(20):
            us = g.user_idx[rng.permutation(g.n_edges)]
            neg, redrawn, give_ups = cf._sample_negatives(us, edge_keys, n, rng)
            assert give_ups == n
            assert give_ups <= redrawn <= len(us)
            assert all((int(u), int(j)) not in observed for u, j in zip(us, neg) if u != 0)
        with caplog.at_level("INFO", logger="bundlecraft.cf_pretrain"):
            cf.pretrain(g, d=4, k_layers=1, epochs=3, lr=0.05, neg_samples=2,
                        rng=np.random.default_rng(2))
        epoch_lines = [r.getMessage() for r in caplog.records
                       if r.levelname == "INFO" and r.getMessage().startswith("cf epoch")]
        assert len(epoch_lines) == 3
        assert all(line.endswith(f" {n * 2} give-ups") for line in epoch_lines)
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 3 and all(f" {n * 2} negatives" in w for w in warnings)

    def test_epoch_line_logs_the_kernels_wave_count(self, caplog, monkeypatch):
        g = graph_of([(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 3)], 3, 5)
        returned = []
        bpr_epoch = cf.kernels.bpr_epoch

        def counted(*args):
            returned.append(bpr_epoch(*args))
            return returned[-1]

        monkeypatch.setattr(cf.kernels, "bpr_epoch", counted)
        with caplog.at_level("INFO", logger="bundlecraft.cf_pretrain"):
            cf.pretrain(g, d=4, k_layers=1, epochs=2, lr=0.05, neg_samples=3,
                        rng=np.random.default_rng(6))
        lines = [r.getMessage() for r in caplog.records
                 if r.levelname == "INFO" and r.getMessage().startswith("cf epoch")]
        waves = [int(re.fullmatch(r"cf epoch \d/2: \d+\.\d{3} s, (\d+) waves, \d+ negatives "
                                  r"redrawn, \d+ give-ups", line).group(1)) for line in lines]
        assert len(returned) == 6 and min(returned) >= 2
        assert waves == [sum(returned[:3]), sum(returned[3:])]

    def test_logs_one_propagation_line(self, caplog):
        g = graph_of([(0, 0), (0, 1), (1, 2), (2, 2)], 3, 3)
        with caplog.at_level("INFO", logger="bundlecraft.cf_pretrain"):
            cf.pretrain(g, d=4, k_layers=3, epochs=2, lr=0.05, neg_samples=1,
                        rng=np.random.default_rng(4))
        lines = [r.getMessage() for r in caplog.records
                 if r.levelname == "INFO" and r.getMessage().startswith("cf propagation")]
        assert len(lines) == 1
        assert re.fullmatch(r"cf propagation: K=3 over 4 edges, \d+\.\d{3} s", lines[0])

    # out-of-range values reach pretrain through the CLI too (tests/test_cli.py);
    # these types only through the Python API
    @pytest.mark.parametrize("setting", [dict(d=2.0), dict(k_layers=True), dict(lr="0.1")])
    def test_bad_setting_types_rejected(self, setting):
        g = graph_of([(0, 0)], 1, 2)
        kwargs = dict(d=4, k_layers=1, epochs=1, lr=0.05, neg_samples=1, reg=1e-4)
        with pytest.raises(ConfigError):
            cf.pretrain(g, rng=np.random.default_rng(0), **{**kwargs, **setting})


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        emb = cf.CfEmbeddings(
            user_table=rng.normal(size=(3, 4)).astype(np.float32),
            item_table=rng.normal(size=(5, 4)).astype(np.float32),
            k_layers=2,
        )
        path = tmp_path / "cf.ckpt"
        cf.save_cf(path, emb)
        loaded = cf.load_cf(path)
        assert loaded.k_layers == 2
        np.testing.assert_array_equal(loaded.user_table, emb.user_table)
        np.testing.assert_array_equal(loaded.item_table, emb.item_table)
        assert path.read_bytes()[:4] == b"CFE1"

    @pytest.mark.parametrize("edit, message", [
        (lambda blob: blob[:-1], "truncated"),
        (lambda blob: blob + b"\0", "1 trailing bytes"),
        (lambda blob: blob[:-4] + np.float32(np.nan).tobytes(),
         "item table holds a non-finite value at row 4, column 3"),
        (lambda blob: blob[:24] + np.float32(-np.inf).tobytes() + blob[28:],
         "user table holds a non-finite value at row 0, column 0"),
    ], ids=["short", "long", "nan", "inf"])
    def test_damaged_file_rejected(self, tmp_path, rng, edit, message):
        emb = cf.CfEmbeddings(
            user_table=rng.normal(size=(3, 4)).astype(np.float32),
            item_table=rng.normal(size=(5, 4)).astype(np.float32),
            k_layers=2,
        )
        path = tmp_path / "cf.ckpt"
        cf.save_cf(path, emb)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(CorpusFormatError, match=re.escape(f"{path}: {message}")):
            cf.load_cf(path)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "x.ckpt").write_bytes(b"XXXX" + b"\x00" * 24)
        with pytest.raises(CorpusFormatError):
            cf.load_cf(tmp_path / "x.ckpt")


# Run in a fresh interpreter, after a CF table is saved. Training and serving
# load it and never propagate, so they must not pay scipy.sparse's memory.
SCIPY_PROBE = """
import sys
import numpy as np
import bundlecraft.cli
from bundlecraft import corpus
from bundlecraft.cf_pretrain import load_cf, pretrain
from bundlecraft.config import load_config, train_config
from bundlecraft.evaluation import make_scorer
from bundlecraft.item_encoder import build_item_inputs
from bundlecraft.trainer import fit

data, cf_path = sys.argv[1:]
catalog, features, graph = corpus.load_dir(data)
cf = load_cf(cf_path)
config = train_config(load_config(None, ["model.d=8", "train.epochs=1"]))
model = fit(catalog, features, graph, cf, config).model
inputs = build_item_inputs(catalog, features, cf, graph, corpus.warm_items(catalog, range(4)))
make_scorer(model, inputs)(np.array([0, 1]))
print("scipy" in sys.modules)
pretrain(graph, d=4, k_layers=1, epochs=1, lr=0.05, neg_samples=1, rng=np.random.default_rng(0))
print("scipy" in sys.modules)
"""


def test_only_propagation_imports_scipy(tmp_path):
    from bundlecraft import corpus
    from bundlecraft.synth import SynthSpec, generate

    generate(SynthSpec(n_items=40, n_users=12, n_bundles=10, n_topics=2, feature_dim=6,
                       bundle_size_min=3, bundle_size_max=5, seed=3), tmp_path)
    _, _, graph = corpus.load_dir(tmp_path)
    cf.save_cf(tmp_path / "cf.bin", cf.pretrain(graph, d=4, k_layers=1, epochs=1, lr=0.05,
                                                neg_samples=1, rng=np.random.default_rng(3)))
    package = Path(cf.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(package), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path), str(tmp_path / "cf.bin")],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
