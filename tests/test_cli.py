import hashlib
import io
import json
import logging
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bundlecraft
from bundlecraft import corpus as C
from bundlecraft.cli import main

SPEC = dict(
    n_items=150, n_users=40, n_bundles=24, n_topics=3, feature_dim=12,
    bundle_size_min=3, bundle_size_max=6, feedback_density=0.06,
    cold_item_fraction=0.1, seed=17,
)

FAST_TRAIN = [
    "--set", "model.d=8",
    "--set", "train.epochs=6",
    "--set", "train.batch_size=16",
    "--set", "train.lr=0.01",
    "--set", "cf.d=8",
    "--set", "cf.epochs=4",
    "--seed", "17",
]


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cli_subprocess(*args):
    """Run the CLI in a fresh interpreter that imports this package."""
    src = str(Path(bundlecraft.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "bundlecraft.cli", *args],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> pretrain -> train once; reused by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    data = root / "data"
    assert main(["synth", "--spec", str(spec_path), "--out", str(data)]) == 0
    cf = root / "cf.ckpt"
    assert main(["pretrain", "--data", str(data), "--out", str(cf)] + FAST_TRAIN) == 0
    model = root / "model.ckpt"
    assert main(["train", "--data", str(data), "--cf", str(cf), "--out", str(model)] + FAST_TRAIN) == 0
    return root, spec_path, data, cf, model


class TestSynthCommand:
    def test_writes_six_files(self, pipeline):
        _, _, data, _, _ = pipeline
        assert len(list(Path(data).iterdir())) == 6

    def test_missing_spec_exits_2(self, tmp_path):
        assert main(["synth", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2

    def test_invalid_spec_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_items": 10, "n_topics": 99}))
        assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_deterministic_hashes(self, pipeline, tmp_path):
        _, spec_path, data, _, _ = pipeline
        again = tmp_path / "again"
        assert main(["synth", "--spec", str(spec_path), "--out", str(again)]) == 0
        for name in ("affiliations.tsv", "features_text.bin", "manifest.json"):
            assert sha(Path(data) / name) == sha(again / name)


class TestPretrainCommand:
    def test_checkpoint_header_matches_corpus(self, pipeline):
        _, _, data, cf_path, _ = pipeline
        from bundlecraft.cf_pretrain import load_cf

        catalog, _, graph = C.load_dir(data)
        emb = load_cf(cf_path)
        assert emb.item_table.shape[0] == catalog.n_items
        assert emb.user_table.shape[0] == catalog.n_users

    def test_zero_edge_corpus_warns_and_succeeds(self, tmp_path, capsys):
        spec = dict(SPEC, feedback_density=0.0, seed=3)
        spec_path = tmp_path / "s.json"
        spec_path.write_text(json.dumps(spec))
        data = tmp_path / "d"
        assert main(["synth", "--spec", str(spec_path), "--out", str(data)]) == 0
        out = tmp_path / "cf.ckpt"
        code = main(["pretrain", "--data", str(data), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "no interactions; embeddings untrained" in captured.err
        assert out.exists()

    def test_zero_lr_hash_stable(self, pipeline, tmp_path):
        _, _, data, _, _ = pipeline
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        args = ["pretrain", "--data", str(data), "--lr", "0", "--seed", "17"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert sha(a) == sha(b)


class TestTrainCommand:
    def test_zero_epochs_writes_initial_checkpoint(self, pipeline, tmp_path):
        _, _, data, cf, _ = pipeline
        out = tmp_path / "m.ckpt"
        args = ["train", "--data", str(data), "--cf", str(cf), "--out", str(out)]
        assert main(args + FAST_TRAIN + ["--set", "train.epochs=0"]) == 0
        assert out.exists()
        from bundlecraft.trainer import load_checkpoint

        _, epoch, _ = load_checkpoint(out)
        assert epoch == 0

    def test_ablation_flag_zeroes_log_column(self, pipeline, tmp_path):
        _, _, data, cf, _ = pipeline
        out = tmp_path / "m.ckpt"
        log = tmp_path / "m.log"
        args = ["train", "--data", str(data), "--cf", str(cf), "--out", str(out), "--log", str(log)]
        assert main(args + FAST_TRAIN + [
            "--set", "train.epochs=2", "--set", "ablation.use_item_cl=false",
        ]) == 0
        for line in log.read_text().strip().split("\n"):
            assert json.loads(line)["cl_item"] == 0.0

    def test_log_improves_over_first_epoch(self, pipeline):
        root, _, _, _, model = pipeline
        log = Path(str(model) + ".log.jsonl")
        entries = [json.loads(l) for l in log.read_text().strip().split("\n")]
        assert entries[-1]["val_ndcg20"] >= entries[0]["val_ndcg20"]

    def test_determinism_checkpoint_and_log(self, pipeline, tmp_path):
        _, _, data, cf, model = pipeline
        out2 = tmp_path / "m2.ckpt"
        log2 = tmp_path / "m2.log"
        args = ["train", "--data", str(data), "--cf", str(cf), "--out", str(out2), "--log", str(log2)]
        assert main(args + FAST_TRAIN) == 0
        assert sha(out2) == sha(model)
        ref = [
            {k: v for k, v in json.loads(l).items() if k != "seconds"}
            for l in Path(str(model) + ".log.jsonl").read_text().strip().split("\n")
        ]
        got = [
            {k: v for k, v in json.loads(l).items() if k != "seconds"}
            for l in log2.read_text().strip().split("\n")
        ]
        assert ref == got

    def test_divergence_exits_3(self, pipeline, tmp_path):
        _, _, data, cf, _ = pipeline
        out = tmp_path / "m.ckpt"
        args = ["train", "--data", str(data), "--cf", str(cf), "--out", str(out)]
        code = main(args + FAST_TRAIN + ["--set", "train.lr=1e12", "--set", "train.epochs=8"])
        assert code == 3


class TestEvalCommand:
    def test_standard_report(self, pipeline, tmp_path):
        _, _, data, _, model = pipeline
        out = tmp_path / "report.json"
        assert main(["eval", "--model", str(model), "--data", str(data), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["setting"] == "standard"
        assert report["k"] == 20
        assert 0 <= report["recall"] <= 1
        assert report["n_bundles"] == len(report["per_bundle"])

    def test_sparsify_rate_zero_matches_standard(self, pipeline, tmp_path):
        _, _, data, _, model = pipeline
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["eval", "--model", str(model), "--data", str(data), "--out", str(a)]) == 0
        assert main(["eval", "--model", str(model), "--data", str(data), "--out", str(b),
                     "--setting", "sparsify", "--rate", "0"]) == 0
        ra = json.loads(a.read_text())
        rb = json.loads(b.read_text())
        assert ra["recall"] == rb["recall"]
        assert ra["ndcg"] == rb["ndcg"]

    def test_warm_counts_on_cold_free_corpus(self, tmp_path):
        spec = dict(SPEC, cold_item_fraction=0.0, seed=23)
        spec_path = tmp_path / "s.json"
        spec_path.write_text(json.dumps(spec))
        data = tmp_path / "d"
        cf = tmp_path / "cf.ckpt"
        model = tmp_path / "m.ckpt"
        fast = [f if f != "17" else "23" for f in FAST_TRAIN]
        assert main(["synth", "--spec", str(spec_path), "--out", str(data)]) == 0
        assert main(["pretrain", "--data", str(data), "--out", str(cf)] + fast) == 0
        assert main(["train", "--data", str(data), "--cf", str(cf), "--out", str(model)] + fast) == 0
        a = tmp_path / "std.json"
        b = tmp_path / "warm.json"
        assert main(["eval", "--model", str(model), "--data", str(data), "--out", str(a)]) == 0
        assert main(["eval", "--model", str(model), "--data", str(data), "--out", str(b),
                     "--setting", "warm"]) == 0
        assert json.loads(a.read_text())["n_bundles"] == json.loads(b.read_text())["n_bundles"]

    def test_oracle_checkpoint_scores_one(self, tmp_path):
        # craft a corpus with one test bundle and a checkpoint whose id table
        # makes the completion perfect
        from bundlecraft.cf_pretrain import CfEmbeddings
        from bundlecraft.config import DEFAULTS, train_config
        from bundlecraft.trainer import Model, init_model, save_checkpoint
        import copy

        spec = dict(SPEC, seed=31)
        spec_path = tmp_path / "s.json"
        spec_path.write_text(json.dumps(spec))
        data = tmp_path / "d"
        assert main(["synth", "--spec", str(spec_path), "--out", str(data)]) == 0
        catalog, features, graph = C.load_dir(data)
        train_idx, _, test_idx = C.split_bundles(catalog, 31)

        cfgd = copy.deepcopy(DEFAULTS)
        cfgd["seed"] = 31
        cfgd["model"]["d"] = catalog.n_items
        cfgd["ablation"]["use_feedback"] = False
        cfgd["ablation"]["use_item_attention"] = False
        cfgd["ablation"]["use_bundle_attention"] = False
        tc = train_config(cfgd)
        cf = CfEmbeddings(
            user_table=np.zeros((0, 4), np.float32),
            item_table=np.zeros((catalog.n_items, 4), np.float32),
            k_layers=0,
        )
        model = init_model(catalog.n_items, features.dim, cf, tc, np.random.default_rng(0))
        model.item_params.w_c.value[:] = 0.0
        v = np.zeros((catalog.n_items, catalog.n_items), np.float32)
        for b in test_idx:
            for i in catalog.bundles[b]:
                for j in catalog.bundles[b]:
                    v[i, j] = 1.0
        np.copyto(model.item_params.v.value, v)
        ckpt = tmp_path / "oracle.ckpt"
        save_checkpoint(ckpt, model)
        out = tmp_path / "r.json"
        assert main(["eval", "--model", str(ckpt), "--data", str(data), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["recall"] == 1.0
        assert report["ndcg"] == 1.0


class TestCompleteCommand:
    def test_single_seed_runs(self, pipeline, capsys):
        _, _, data, _, model = pipeline
        catalog, _, _ = C.load_dir(data)
        token = catalog.item_tokens[0]
        assert main(["complete", "--model", str(model), "--data", str(data),
                     "--seeds", token, "--k", "5"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 5
        assert token not in [l.split("\t")[0] for l in lines]

    def test_unknown_token_exits_2(self, pipeline, capsys):
        _, _, data, _, model = pipeline
        code = main(["complete", "--model", str(model), "--data", str(data), "--seeds", "zzz"])
        assert code == 2
        assert "zzz" in capsys.readouterr().err

    def test_duplicate_seeds_warn_and_dedupe(self, pipeline, capsys):
        _, _, data, _, model = pipeline
        catalog, _, _ = C.load_dir(data)
        token = catalog.item_tokens[3]
        assert main(["complete", "--model", str(model), "--data", str(data),
                     "--seeds", f"{token},{token}", "--k", "3"]) == 0
        captured = capsys.readouterr()
        assert "duplicate" in captured.err


class TestMalformedCheckpoint:
    def complete(self, data, model_path, token):
        return main(["complete", "--model", str(model_path), "--data", str(data),
                     "--seeds", token, "--k", "3"])

    def test_truncated_checkpoint_exits_2(self, pipeline, tmp_path, capsys):
        _, _, data, _, model = pipeline
        blob = Path(model).read_bytes()
        (jlen,) = struct.unpack_from("<I", blob, 8)
        token = C.load_dir(data)[0].item_tokens[0]
        cut_path = tmp_path / "cut.ckpt"
        # every header field boundary, then a stride through the matrices
        lengths = sorted({0, 3, 4, 7, 8, 11, 12, 12 + jlen // 2, 12 + jlen - 1, 12 + jlen,
                          12 + jlen + 2, *range(12 + jlen + 5, len(blob), 37), len(blob) - 1})
        capsys.readouterr()
        for n in lengths:
            cut_path.write_bytes(blob[:n])
            assert self.complete(data, cut_path, token) == 2, n
            assert "Traceback" not in capsys.readouterr().err

    def test_truncated_cf_checkpoint_exits_2(self, pipeline, tmp_path, capsys):
        _, _, data, cf, _ = pipeline
        blob = Path(cf).read_bytes()
        cut_path = tmp_path / "cut.cf"
        out = tmp_path / "m.ckpt"
        capsys.readouterr()
        # every length through the 24-byte header, then a stride through the tables
        for n in [*range(25), *range(29, len(blob), 97), len(blob) - 1]:
            cut_path.write_bytes(blob[:n])
            code = main(["train", "--data", str(data), "--cf", str(cut_path), "--out", str(out)])
            assert code == 2, n
            assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def edited(self, model, tmp_path, edit):
        """A copy of the checkpoint whose JSON header went through ``edit``."""
        blob = Path(model).read_bytes()
        (jlen,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12 : 12 + jlen])
        edit(header)
        text = json.dumps(header, sort_keys=True).encode("utf-8")
        bad = tmp_path / "edited.ckpt"
        bad.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + jlen :])
        return bad

    def complete_subprocess(self, data, model_path):
        token = C.load_dir(data)[0].item_tokens[0]
        proc = cli_subprocess("complete", "--model", str(model_path), "--data", str(data),
                              "--seeds", token)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        return proc.stderr

    def test_header_without_matrices_exits_2(self, pipeline, tmp_path):
        _, _, data, _, model = pipeline
        bad = self.edited(model, tmp_path, lambda header: header.pop("matrices"))
        assert "matrices" in self.complete_subprocess(data, bad)

    @pytest.mark.parametrize("edit", [
        lambda header: header.update(matrices=5),
        lambda header: header["config"].update(l_layers=2),
        lambda header: header["config"].update(d=16),
        lambda header: header.update(cf_k_layers="x"),
    ], ids=["matrices_not_a_list", "layer_count", "width", "cf_k_layers"])
    def test_header_disagreeing_with_payload_exits_2(self, pipeline, tmp_path, edit):
        _, _, data, _, model = pipeline
        err = self.complete_subprocess(data, self.edited(model, tmp_path, edit))
        assert "config" in err


class TestExplainCommand:
    def test_emits_similarity_table(self, pipeline, capsys):
        _, _, data, _, model = pipeline
        catalog, _, _ = C.load_dir(data)
        assert main(["explain", "--model", str(model), "--data", str(data), "--bundle", "0"]) == 0
        table = json.loads(capsys.readouterr().out)
        n = len(catalog.bundles[0])
        assert len(table["features"]) == 3 * n
        assert len(table["items"]) == n
        for row in table["features"] + table["items"]:
            assert -1.0 - 1e-6 <= row["cosine"] <= 1.0 + 1e-6

    def test_bundle_token_accepted(self, pipeline, capsys):
        _, _, data, _, model = pipeline
        catalog, _, _ = C.load_dir(data)
        token = catalog.bundle_tokens[1]
        assert main(["explain", "--model", str(model), "--data", str(data), "--bundle", token]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["bundle_token"] == token

    def test_unknown_bundle_exits_2(self, pipeline):
        _, _, data, _, model = pipeline
        assert main(["explain", "--model", str(model), "--data", str(data), "--bundle", "zzz"]) == 2


class TestEvalRepeats:
    def test_repeats_accumulate_records(self, pipeline, tmp_path):
        _, _, data, _, model = pipeline
        one = tmp_path / "one.json"
        two = tmp_path / "two.json"
        base = ["eval", "--model", str(model), "--data", str(data)]
        assert main(base + ["--out", str(one)]) == 0
        assert main(base + ["--out", str(two), "--eval-repeats", "2"]) == 0
        r1 = json.loads(one.read_text())
        r2 = json.loads(two.read_text())
        assert r2["n_bundles"] == 2 * r1["n_bundles"]

    def test_threads_match_single(self, pipeline, tmp_path):
        _, _, data, _, model = pipeline
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        base = ["eval", "--model", str(model), "--data", str(data)]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b), "--threads", "3"]) == 0
        assert json.loads(a.read_text()) == json.loads(b.read_text())


@pytest.mark.slow
def test_complete_dominated_by_seed_topic(tmp_path, capsys):
    """Seeds spanning one planted topic pull same-topic completions."""
    spec = dict(
        n_items=300, n_users=100, n_bundles=60, n_topics=4, feature_dim=24,
        bundle_size_min=4, bundle_size_max=7, feedback_density=0.05,
        cold_item_fraction=0.05, seed=13,
    )
    knobs = [
        "--set", "model.d=16", "--set", "train.epochs=50", "--set", "train.batch_size=32",
        "--set", "train.lr=0.01", "--set", "cf.d=16", "--set", "cf.epochs=8",
        "--seed", "13",
    ]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    data = tmp_path / "data"
    cf = tmp_path / "cf.ckpt"
    model = tmp_path / "model.ckpt"
    assert main(["synth", "--spec", str(spec_path), "--out", str(data)]) == 0
    assert main(["pretrain", "--data", str(data), "--out", str(cf)] + knobs) == 0
    assert main(["train", "--data", str(data), "--cf", str(cf), "--out", str(model)] + knobs) == 0
    capsys.readouterr()

    manifest = json.loads((data / "manifest.json").read_text())
    topic_of = manifest["topic_of_item"]
    catalog, _, _ = C.load_dir(data)
    train_idx = manifest["simulated_split"]["train"]
    fractions = []
    for b in train_idx[:10]:
        members = sorted(catalog.bundles[b])
        topics = [topic_of[i] for i in members]
        majority = max(set(topics), key=topics.count)
        seeds = ",".join(catalog.item_tokens[i] for i in members)
        assert main(["complete", "--model", str(model), "--data", str(data),
                     "--seeds", seeds, "--k", "20"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        got = [catalog.item_index[line.split("\t")[0]] for line in out]
        fractions.append(sum(1 for i in got if topic_of[i] == majority) / len(got))
    assert sum(fractions) / len(fractions) > 0.7


def test_console_script_subprocess(pipeline, tmp_path):
    _, spec_path, _, _, _ = pipeline
    out = tmp_path / "sub"
    proc = cli_subprocess("synth", "--spec", str(spec_path), "--out", str(out))
    assert proc.returncode == 0
    assert (out / "manifest.json").exists()


def test_usage_error_exits_2():
    assert main(["eval", "--badflag"]) == 2


def test_logging_follows_stderr_swap(monkeypatch):
    """A record logged after main() returns goes to the sys.stderr of that
    moment, not to the one main() saw."""
    first = io.StringIO()
    monkeypatch.setattr(sys, "stderr", first)
    assert main(["eval", "--badflag"]) == 2
    first.close()
    second = io.StringIO()
    monkeypatch.setattr(sys, "stderr", second)
    logging.getLogger("bundlecraft.corpus").warning("after the swap")
    assert second.getvalue() == "after the swap\n"
