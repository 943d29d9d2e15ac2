import hashlib
import io
import json
import logging
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bundlecraft
from bundlecraft import corpus as C
from bundlecraft.cli import _load_model_context, main
from bundlecraft.errors import NonFiniteError
from bundlecraft.evaluation import make_scorer, rank_candidates
from bundlecraft.trainer import load_checkpoint, save_checkpoint
from test_corpus import MALFORMED, load_oracle, outcome, write_edited

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


def clhe_records(blob):
    """Byte span of each ``CLHE`` payload record, name length to last float, by name."""
    (jlen,) = struct.unpack_from("<I", blob, 8)
    spans, start = {}, 12 + jlen
    while start < len(blob):
        (nlen,) = struct.unpack_from("<I", blob, start)
        rows, cols = struct.unpack_from("<II", blob, start + 4 + nlen)
        end = start + 12 + nlen + 4 * rows * cols
        spans[blob[start + 4 : start + 4 + nlen].decode("utf-8")] = (start, end)
        start = end
    return spans


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

    @pytest.mark.parametrize("key, value", [
        (None, []), ("n_items", "x"), ("n_items", 200.5), ("seed", -1), ("feature_dim", -1),
        ("feature_dim", True), ("feature_dim", 0), ("feature_noise", float("nan")),
        ("feature_noise", float("inf")), ("popularity_skew", float("nan")),
        ("popularity_skew", float("inf")), ("popularity_skew", 1000.0),
        ("popularity_skew", "a"), ("popularity_skew", -0.5),
    ])
    def test_malformed_spec_exits_2_writing_nothing(self, tmp_path, key, value):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(value if key is None else {**SPEC, key: value}))
        out = tmp_path / "o"
        proc = cli_subprocess("synth", "--spec", str(spec_path), "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"error: {spec_path}: " in proc.stderr
        assert key is None or key in proc.stderr
        assert not out.exists()

    def test_spec_not_utf8_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"seed": "\xff"}')
        assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert f"error: {bad}: invalid JSON" in capsys.readouterr().err

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
        args = ["pretrain", "--data", str(data), "--set", "cf.lr=0", "--seed", "17"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert sha(a) == sha(b)

    @pytest.mark.parametrize("setting", [
        "cf.k_layers=-1", "cf.d=0", "cf.epochs=-1", "cf.neg_samples=-1", "cf.lr=-0.1",
        "cf.lr=NaN", "cf.reg=Infinity", "cf.reg=-1e-4",
    ])
    def test_bad_cf_settings_exit_2(self, pipeline, tmp_path, setting):
        _, _, data, _, _ = pipeline
        out = tmp_path / "cf.ckpt"
        proc = cli_subprocess("pretrain", "--data", str(data), "--out", str(out), "--set", setting)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert setting.split("=")[0] in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--k", "--epochs", "--lr"])
    def test_cf_shortcut_flags_are_usage_errors(self, pipeline, tmp_path, flag):
        """``--set cf.k_layers=``, ``cf.epochs=`` and ``cf.lr=`` set these."""
        _, _, data, _, _ = pipeline
        out = tmp_path / "cf.ckpt"
        proc = cli_subprocess("pretrain", "--data", str(data), "--out", str(out), flag, "2")
        assert proc.returncode == 2 and proc.stdout == "", proc.stderr
        assert f"unrecognized arguments: {flag} 2" in proc.stderr
        assert not out.exists()

    def test_diverged_pretrain_exits_3(self, pipeline, tmp_path, capsys):
        _, _, data, _, _ = pipeline
        out = tmp_path / "cf.ckpt"
        code = main(["pretrain", "--data", str(data), "--out", str(out), "--set", "cf.lr=1e300",
                     "--set", "cf.d=8", "--set", "cf.epochs=3"])
        err = capsys.readouterr().err
        assert code == 3
        assert "diverged" in err and "Traceback" not in err
        assert not out.exists()

    def test_logs_one_line_per_epoch(self, pipeline, tmp_path, capsys):
        _, _, data, _, _ = pipeline
        capsys.readouterr()
        args = ["pretrain", "--data", str(data), "--out", str(tmp_path / "cf.ckpt")]
        assert main(args + FAST_TRAIN) == 0
        lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("cf epoch")]
        assert [l.split(":")[0] for l in lines] == [f"cf epoch {e}/4" for e in range(1, 5)]
        assert all("negatives redrawn" in l and l.endswith(" 0 give-ups") for l in lines)


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
            "--set", "train.epochs=2", "--set", "train.alpha1=0",
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

    @pytest.mark.parametrize("setting", ["model.d=true", "train.epochs=true", "train.lr=false"])
    def test_boolean_for_number_exits_2(self, pipeline, tmp_path, setting):
        _, _, data, cf, _ = pipeline
        out = tmp_path / "m.ckpt"
        proc = cli_subprocess("train", "--data", str(data), "--cf", str(cf), "--out", str(out),
                              "--set", setting)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert setting.split("=")[0] in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("setting", [
        "train.batch_size=0", "train.batch_size=-1", "model.d=0", "model.slot_fill=foo",
        "augment.negatives=batch", "model.l_layers=-1", "train.epochs=-1", "train.lr=-1",
        "augment.dropout_ratio=1.5", "augment.dropout_ratio=-0.5", "augment.noise_weight=-1",
        "eval.k=5", "train.patience=-3",
    ])
    def test_out_of_range_setting_exits_2(self, pipeline, tmp_path, setting):
        _, _, data, cf, _ = pipeline
        out = tmp_path / "m.ckpt"
        proc = cli_subprocess("train", "--data", str(data), "--cf", str(cf), "--out", str(out),
                              "--set", setting)
        assert proc.returncode == 2 and proc.stdout == "", proc.stderr
        assert "Traceback" not in proc.stderr
        assert sum(line.startswith("error:") for line in proc.stderr.splitlines()) == 1
        assert setting.split("=")[0].split(".")[-1] in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "pretrain"])
    def test_negative_seed_exits_2(self, pipeline, tmp_path, command):
        _, _, data, cf, _ = pipeline
        out = tmp_path / "out.ckpt"
        extra = ["--cf", str(cf)] if command == "train" else []
        proc = cli_subprocess(command, "--data", str(data), "--out", str(out), *extra,
                              "--seed", "-5")
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "seed" in proc.stderr
        assert not out.exists()

    def test_divergence_exits_3(self, pipeline, tmp_path):
        _, _, data, cf, _ = pipeline
        out = tmp_path / "m.ckpt"
        args = ["train", "--data", str(data), "--cf", str(cf), "--out", str(out)]
        proc = cli_subprocess(*args, *FAST_TRAIN, "--set", "train.lr=1e12", "--set", "train.epochs=8")
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert "numerical failure: non-finite loss at epoch" in proc.stderr


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

    def test_logs_timings_and_prints_only_the_ranking(self, pipeline, capsys):
        _, _, data, _, model = pipeline
        catalog, _, _ = C.load_dir(data)
        seeds = sorted(catalog.bundles[0])[:2]
        tokens = ",".join(catalog.item_tokens[i] for i in seeds)
        capsys.readouterr()
        assert main(["complete", "--model", str(model), "--data", str(data),
                     "--seeds", tokens, "--k", "7"]) == 0
        captured = capsys.readouterr()
        lines = [l for l in captured.err.splitlines() if l.startswith("complete: ")]
        assert len(lines) == 1, captured.err
        assert re.fullmatch(r"complete: load \d+\.\d{3} s, scorer set-up \d+\.\d{3} s, score and "
                            rf"rank \d+\.\d{{3}} ms \(2 seeds, {catalog.n_items} items, k=7, "
                            r"product whole\)", lines[0]), lines[0]
        assert (f"scorer set-up: {catalog.n_items} items, d=8, score product whole "
                f"(N={catalog.n_items} is not a multiple of 16)") in captured.err.splitlines()

        _, _, _, trained, _, _, inputs = _load_model_context(str(model), str(data))
        scores = make_scorer(trained, inputs)(seeds)
        expected = "".join(f"{catalog.item_tokens[i]}\t{scores[i]:.6f}\n"
                           for i in rank_candidates(scores, set(seeds), 7))
        assert captured.out == expected

    @pytest.mark.parametrize("buffered", [True, False], ids=["at-exit-flush", "mid-output"])
    def test_closed_stdout_exits_0_without_an_error(self, pipeline, buffered):
        """The reader of stdout is gone before ``complete`` writes: the ranking
        fails on its first line (unbuffered) or at the final flush, and the
        command still exits 0 with its logs and no error line."""
        _, _, data, _, model = pipeline
        token = C.load_dir(data)[0].item_tokens[0]
        src = str(Path(bundlecraft.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            src, os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "bundlecraft.cli", "complete", "--model", str(model),
                 "--data", str(data), "--seeds", token, "--k", "100"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 0, proc.stderr
        assert "error:" not in proc.stderr and "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr and "Broken pipe" not in proc.stderr
        assert "complete: load " in proc.stderr

    def test_overflowing_set_attention_exits_3(self, pipeline, tmp_path):
        """Large finite weights overflow the bundle-level attention logits of
        a seed set (M = Wk Wq^T = 1e38 I, item rows about 100x longer): the
        scorer raises, and complete and explain exit 3 with no traceback."""
        _, _, data, _, model_path = pipeline
        model, epoch, metrics = load_checkpoint(str(model_path))
        assert model.bundle_params.layers
        model.item_params.v.value *= 100.0
        for w_k, w_q in model.bundle_params.layers:
            w_k.value[...] = 1e19 * np.eye(*w_k.value.shape)
            w_q.value[...] = 1e19 * np.eye(*w_q.value.shape)
        bad = tmp_path / "overflow.ckpt"
        save_checkpoint(str(bad), model, epoch=epoch, metrics=metrics)
        catalog, _, _ = C.load_dir(data)
        seeds = sorted(catalog.bundles[0])[:3]

        _, _, _, loaded, _, _, inputs = _load_model_context(str(bad), str(data))
        scorer = make_scorer(loaded, inputs)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError, match="set attention produced a non-finite value"):
            scorer(seeds)

        proc = cli_subprocess("complete", "--model", str(bad), "--data", str(data),
                              "--seeds", ",".join(catalog.item_tokens[i] for i in seeds))
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert "numerical failure: set attention produced a non-finite value" in proc.stderr
        assert proc.stdout == ""

        proc = cli_subprocess("explain", "--model", str(bad), "--data", str(data), "--bundle", "0")
        assert proc.returncode == 3 and proc.stdout == "", proc.stderr
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert proc.stderr.splitlines().count(
            "numerical failure: set attention produced a non-finite value") == 1

    @pytest.mark.parametrize("which", ["--model", "--data"])
    def test_overlong_path_exits_2(self, pipeline, tmp_path, which):
        """An OS error on an input path (here ENAMETOOLONG) is an input error."""
        _, _, data, _, model = pipeline
        paths = {"--model": str(model), "--data": str(data), which: str(tmp_path / ("x" * 300))}
        catalog, _, _ = C.load_dir(data)
        proc = cli_subprocess("complete", *(a for kv in paths.items() for a in kv),
                              "--seeds", catalog.item_tokens[0])
        assert proc.returncode == 2 and proc.stdout == "", proc.stderr
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "File name too long" in errors[0], proc.stderr


class TestDamagedBinaryFile:
    """Truncated, overwritten and over-long ``BFV1``, ``CFE1`` and ``CLHE`` files
    through the CLI: every run exits 0, 2 or 3 without a traceback, and a short
    or over-long file or a NaN or inf in a used row exits 2 naming the file."""

    def target(self, fmt, pipeline, tmp_path):
        """The file to damage, its intact bytes, a CLI run that reads it, the
        length of its fixed header, more cut points, the offset of a float the
        run uses and of one it ignores (or None)."""
        _, _, data, cf, model = pipeline
        token = C.load_dir(data)[0].item_tokens[0]

        def complete(data_dir, model_path):
            return main(["complete", "--model", str(model_path), "--data", str(data_dir),
                         "--seeds", token, "--k", "3"])

        if fmt == "BFV1":
            copy = tmp_path / "data"
            shutil.copytree(data, copy)
            path = copy / "features_text.bin"
            blob = path.read_bytes()
            rows, dim = struct.unpack_from("<II", blob, 4)
            floats = 12 + (rows + 7) // 8
            present = np.unpackbits(np.frombuffer(blob[12:floats], dtype=np.uint8), count=rows,
                                    bitorder="little").astype(bool)
            absent = np.flatnonzero(~present)
            ignored = floats + 4 * dim * int(absent[0]) if absent.size else None
            used = floats + 4 * dim * int(np.flatnonzero(present)[0])
            return path, blob, lambda: complete(copy, model), 12, [floats], used, ignored
        if fmt == "CFE1":
            path = tmp_path / "cf.ckpt"
            blob = Path(cf).read_bytes()
            _, m, _, d, _ = struct.unpack_from("<IIIII", blob, 4)
            out = tmp_path / "m.ckpt"
            run = lambda: main(["train", "--data", str(data), "--cf", str(path), "--out", str(out),
                                "--set", "train.epochs=0"])
            return path, blob, run, 24, [24 + 4 * m * d], 24 + 4 * m * d, None
        path = tmp_path / "model.ckpt"
        blob = Path(model).read_bytes()
        (jlen,) = struct.unpack_from("<I", blob, 8)
        records = clhe_records(blob)
        v_start = records["V"][0]
        cuts = [12 + jlen // 2, 12 + jlen - 1, 12 + jlen, 12 + jlen + 2, v_start + 5, v_start + 13]
        return path, blob, lambda: complete(data, path), 12, cuts, v_start + 13, None

    @pytest.mark.parametrize("fmt", ["BFV1", "CFE1", "CLHE"])
    def test_exits_0_2_or_3_without_traceback(self, pipeline, tmp_path, capsys, fmt):
        path, blob, run, header, cuts, used, ignored = self.target(fmt, pipeline, tmp_path)
        capsys.readouterr()

        def outcome(damaged):
            path.write_bytes(bytes(damaged))
            code = run()
            err = capsys.readouterr().err
            assert "Traceback" not in err
            return code, err

        # every header field boundary, then a stride through the payload
        for n in sorted({*range(header + 1), *cuts, *range(header, len(blob), 37),
                         len(blob) - 1}):
            code, err = outcome(blob[:n])
            assert code == 2 and str(path) in err, (n, err)
        code, err = outcome(blob + bytes(7))
        assert code == 2 and "trailing" in err, err
        assert not (tmp_path / "m.ckpt").exists()  # the model a CFE1 run would write

        rng = np.random.default_rng(14)
        payload = rng.choice(np.arange(header, len(blob)), size=48, replace=False)
        for offset in [*range(header), *sorted(payload.tolist())]:
            for byte in (0x00, 0xFF, 0x7F, 0x80):
                damaged = bytearray(blob)
                damaged[offset] = byte
                code, err = outcome(damaged)
                assert code in (0, 2, 3), (offset, byte, err)

        for value in (np.nan, np.inf, -np.inf):
            damaged = bytearray(blob)
            struct.pack_into("<f", damaged, used, value)
            code, err = outcome(damaged)
            assert code == 2 and f"error: {path}" in err and "non-finite" in err, (value, err)
        if ignored is not None:
            damaged = bytearray(blob)
            struct.pack_into("<f", damaged, ignored, np.nan)
            assert outcome(damaged)[0] == 0


class TestMalformedCheckpoint:
    def complete(self, data, model_path, token):
        return main(["complete", "--model", str(model_path), "--data", str(data),
                     "--seeds", token, "--k", "3"])

    @pytest.mark.parametrize("change", ["zero_width", "user_count"])
    def test_degenerate_cf_checkpoint_exits_2(self, pipeline, tmp_path, change):
        _, _, data, cf, _ = pipeline
        blob = Path(cf).read_bytes()
        version, m, n, d, k = struct.unpack_from("<IIIII", blob, 4)
        if change == "zero_width":
            bad_blob = blob[:4] + struct.pack("<IIIII", version, m, n, 0, k)
        else:
            # one more user row than the corpus has users
            users_end = 24 + m * d * 4
            bad_blob = (blob[:4] + struct.pack("<IIIII", version, m + 1, n, d, k)
                        + blob[24:users_end] + bytes(4 * d) + blob[users_end:])
        bad = tmp_path / "bad.cf"
        bad.write_bytes(bad_blob)
        out = tmp_path / "m.ckpt"
        proc = cli_subprocess("train", "--data", str(data), "--cf", str(bad), "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert ("d=0" if change == "zero_width" else "users") in proc.stderr
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
        assert proc.returncode == 2 and proc.stdout == "", proc.stderr
        assert "Traceback" not in proc.stderr
        assert sum(line.startswith("error:") for line in proc.stderr.splitlines()) == 1
        return proc.stderr

    @pytest.mark.parametrize("cut", ["header", "payload"])
    def test_truncated_checkpoint_exits_2_with_one_error_line(self, pipeline, tmp_path, cut):
        _, _, data, _, model = pipeline
        blob = Path(model).read_bytes()
        (jlen,) = struct.unpack_from("<I", blob, 8)
        bad = tmp_path / "truncated.ckpt"
        bad.write_bytes(blob[: 12 + jlen // 2 if cut == "header" else len(blob) // 2])
        token = C.load_dir(data)[0].item_tokens[0]
        proc = cli_subprocess("complete", "--model", str(bad), "--data", str(data),
                              "--seeds", token)
        assert proc.returncode == 2 and proc.stdout == "", proc.stderr
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith(f"error: {bad}: "), proc.stderr

    def test_header_without_matrices_exits_2(self, pipeline, tmp_path):
        _, _, data, _, model = pipeline
        bad = self.edited(model, tmp_path, lambda header: header.pop("matrices"))
        assert "matrices" in self.complete_subprocess(data, bad)

    @pytest.mark.parametrize("edit", [
        lambda header: header.update(matrices=5),
        lambda header: header["config"].update(l_layers=2),
        lambda header: header["config"].update(d=16),
        lambda header: header.update(cf_k_layers="x"),
        lambda header: header.update(cf_k_layers=2.5),
        lambda header: header.update(cf_k_layers=True),
        lambda header: header.update(cf_k_layers="3"),
        lambda header: header.update(cf_k_layers=-4),
    ], ids=["matrices_not_a_list", "layer_count", "width", "cf_k_layers", "cf_k_layers_float",
            "cf_k_layers_bool", "cf_k_layers_string", "cf_k_layers_negative"])
    def test_header_disagreeing_with_payload_exits_2(self, pipeline, tmp_path, edit):
        _, _, data, _, model = pipeline
        err = self.complete_subprocess(data, self.edited(model, tmp_path, edit))
        assert "config" in err

    @pytest.mark.parametrize("edit", [
        lambda blob, rec: blob + blob[slice(*rec["V"])],
        lambda blob, rec: blob[: rec["V"][1]] + blob[slice(*rec["V"])] + blob[rec["V"][1] :],
        lambda blob, rec: (blob[: rec["item_0_WK"][0]] + blob[slice(*rec["item_0_WQ"])]
                           + blob[slice(*rec["item_0_WK"])] + blob[rec["item_0_WQ"][1] :]),
        lambda blob, rec: blob[: rec["cf_item_table"][0]],
    ], ids=["V_again_at_end", "V_twice", "swapped_layer", "last_missing"])
    def test_payload_disagreeing_with_manifest_exits_2(self, pipeline, tmp_path, capsys, edit):
        _, _, data, _, model = pipeline
        blob = Path(model).read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(edit(blob, clhe_records(blob)))
        capsys.readouterr()
        assert self.complete(data, bad, C.load_dir(data)[0].item_tokens[0]) == 2
        assert f"error: {bad}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["complete", "eval", "explain"])
    def test_feature_width_disagreeing_with_checkpoint_exits_2(self, pipeline, tmp_path, capsys,
                                                                command):
        _, _, data, _, model = pipeline
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        for name in ("features_text.bin", "features_media.bin"):
            features, present = C.read_features(copy / name)
            C.write_features(copy / name, features[:, :4], present)
        extra = {"complete": ["--seeds", C.load_dir(data)[0].item_tokens[0]],
                 "eval": ["--out", str(tmp_path / "report.json")], "explain": ["--bundle", "0"]}
        capsys.readouterr()
        assert main([command, "--model", str(model), "--data", str(copy), *extra[command]]) == 2
        err = capsys.readouterr().err
        assert "takes 12-wide content features (W_c), corpus features are 4 wide" in err


    @pytest.mark.parametrize("edit", [
        lambda header: header["config"].update(batch_size=0),
        lambda header: header["config"].update(d=0),
        lambda header: header["config"].update(slot_fill="foo"),
        lambda header: header["config"].update(lr=-1.0),
        lambda header: header["config"]["augment"].update(dropout_ratio=1.5),
        lambda header: header["config"].update(eval_seed_ratio=1.0),
        lambda header: header["config"].update(seed=-5),
        lambda header: header["config"].update(seed=1.5),
        lambda header: header["config"].update(seed="x"),
        lambda header: header["config"]["ablation"].update(use_feedback=1),
        lambda header: header["config"]["augment"].update(tau=True),
        lambda header: header["config"].update(epochs=2.5),
    ], ids=["batch_size", "d", "slot_fill", "lr", "dropout_ratio", "eval_seed_ratio",
            "seed_negative", "seed_float", "seed_string", "use_feedback_int", "tau_bool",
            "epochs_float"])
    def test_header_config_out_of_range_exits_2(self, pipeline, tmp_path, edit):
        _, _, data, _, model = pipeline
        err = self.complete_subprocess(data, self.edited(model, tmp_path, edit))
        assert "config" in err

    @pytest.mark.parametrize("edit, key", [
        (lambda header: header["config"].update(nosuch=1), "unknown key 'nosuch'"),
        (lambda header: header["config"]["augment"].update(nosuch=1),
         "unknown key 'augment.nosuch'"),
        (lambda header: header["config"].update(ablation="all"), "'ablation' must be"),
        # every checkpoint written before the slot-fill and negative-pool knobs
        # were deleted echoes them with these values
        (lambda header: header["config"].update(slot_fill="projected"),
         "unknown key 'slot_fill'"),
        (lambda header: header["config"]["augment"].update(negatives="batch"),
         "unknown key 'augment.negatives'"),
        # and so do those written before the contrastive on/off flags were
        # deleted (train.alpha1=0 and train.alpha2=0 switch the terms off)
        (lambda header: header["config"]["ablation"].update(use_item_cl=True),
         "unknown key 'ablation.use_item_cl'"),
    ], ids=["config", "augment", "ablation", "slot_fill", "negatives", "use_item_cl"])
    def test_header_config_unknown_field_exits_2(self, pipeline, tmp_path, edit, key):
        _, _, data, _, model = pipeline
        err = self.complete_subprocess(data, self.edited(model, tmp_path, edit))
        assert f"bad config or cf_k_layers in header: {key}" in err
        assert "ConfigError(" not in err


class TestMalformedCorpus:
    """Every corpus the loader rejects exits 2 with the loader's message, never a traceback."""

    @pytest.mark.parametrize("command", ["pretrain", "complete"])
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_exits_2_with_path_and_line(self, pipeline, tmp_path, name, command):
        _, _, _, _, model = pipeline
        data = write_edited(tmp_path / "data", MALFORMED[name])
        _, message = outcome(load_oracle, data)
        if command == "pretrain":
            args = ["pretrain", "--data", str(data), "--out", str(tmp_path / "cf.ckpt")]
        else:
            args = ["complete", "--model", str(model), "--data", str(data), "--seeds", "apple"]
        proc = cli_subprocess(*args)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"error: {message}\n" in proc.stderr
        assert message.startswith(str(data))

    def test_invalid_utf8_exits_2(self, pipeline, tmp_path):
        _, _, data, _, _ = pipeline
        copy = tmp_path / "data"
        copy.mkdir()
        for p in Path(data).iterdir():
            (copy / p.name).write_bytes(p.read_bytes())
        edges = copy / "interactions.tsv"
        n_lines = edges.read_bytes().count(b"\n")
        token = C.load_dir(data)[0].item_tokens[1]
        with open(edges, "ab") as fh:
            fh.write(b"u\xff\t" + token.encode("utf-8") + b"\n")
        out = tmp_path / "cf.ckpt"
        proc = cli_subprocess("pretrain", "--data", str(copy), "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"error: {edges}:{n_lines + 1}: not valid UTF-8" in proc.stderr
        assert not out.exists()


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

    @pytest.mark.parametrize("repeats", ["0", "-3"])
    def test_repeats_below_one_exit_2(self, pipeline, tmp_path, repeats):
        _, _, data, _, model = pipeline
        out = tmp_path / "r.json"
        proc = cli_subprocess("eval", "--model", str(model), "--data", str(data), "--out", str(out),
                              "--eval-repeats", repeats)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "--eval-repeats" in proc.stderr
        assert not out.exists()

    def test_threads_option_removed(self, pipeline, tmp_path):
        _, _, data, _, model = pipeline
        out = tmp_path / "t.json"
        args = ["eval", "--model", str(model), "--data", str(data), "--out", str(out)]
        assert main(args + ["--threads", "2"]) == 2
        assert not out.exists()


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
