import json
import os
import re
import subprocess
import sys
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path

import pytest

import bundlecraft
from bundlecraft.config import (
    DEFAULTS,
    AblationFlags,
    TrainConfig,
    apply_set,
    config_from_dict,
    load_config,
    train_config,
)
from bundlecraft.contrastive import AugmentationConfig
from bundlecraft.errors import ConfigError, IntegrityError


def test_defaults_load_without_file():
    cfg = load_config(None, [])
    assert cfg == DEFAULTS


def test_file_merge(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"seed": 9, "train": {"lr": 0.5}}))
    cfg = load_config(p, [])
    assert cfg["seed"] == 9
    assert cfg["train"]["lr"] == 0.5
    assert cfg["train"]["batch_size"] == DEFAULTS["train"]["batch_size"]


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"trian": {"lr": 0.5}}))
    with pytest.raises(ConfigError, match="trian"):
        load_config(p, [])
    p.write_text(json.dumps({"train": {"lrr": 0.5}}))
    with pytest.raises(ConfigError, match="train.lrr"):
        load_config(p, [])
    with pytest.raises(ConfigError, match="model.slot_fill"):
        load_config(None, ["model.slot_fill=foo"])
    # contrastive learning is off at train.alpha1=0 and train.alpha2=0
    for flag in ("use_item_cl", "use_bundle_cl"):
        with pytest.raises(ConfigError, match=f"unknown key 'ablation.{flag}'"):
            load_config(None, [f"ablation.{flag}=false"])


def test_file_not_an_object_or_not_utf8_rejected(tmp_path):
    p = tmp_path / "c.json"
    for blob in (b"[]", b'{"seed": "\xff"}'):
        p.write_bytes(blob)
        with pytest.raises(ConfigError, match=re.escape(str(p))):
            load_config(p, [])


def test_set_overrides():
    cfg = load_config(None, ["train.lr=0.002", "ablation.use_feedback=false", "augment.item_mode=FN"])
    assert cfg["train"]["lr"] == 0.002
    assert cfg["ablation"]["use_feedback"] is False
    assert cfg["augment"]["item_mode"] == "FN"


def test_set_type_checks():
    with pytest.raises(ConfigError):
        apply_set(DEFAULTS, "train.lr=fast")
    with pytest.raises(ConfigError):
        apply_set(DEFAULTS, "ablation.use_feedback=1")
    with pytest.raises(ConfigError):
        apply_set(DEFAULTS, "nosuch.key=1")
    with pytest.raises(ConfigError):
        apply_set(DEFAULTS, "train.lr")


def test_train_config_materializes():
    cfg = load_config(None, ["model.d=16", "train.alpha1=0.25", "seed=3"])
    tc = train_config(cfg)
    assert tc.d == 16
    assert tc.alpha1 == 0.25
    assert tc.seed == 3
    assert tc.augment.item_mode == DEFAULTS["augment"]["item_mode"]


def test_negative_weights_rejected():
    cfg = load_config(None, ["train.beta=-0.1"])
    with pytest.raises(ConfigError):
        train_config(cfg)


def test_booleans_rejected_for_numbers():
    for assignment in ("model.d=true", "train.epochs=true", "seed=false", "train.lr=true"):
        with pytest.raises(ConfigError, match=assignment.split("=")[0]):
            load_config(None, [assignment])
    with pytest.raises(ConfigError):
        apply_set(DEFAULTS, "ablation.use_feedback=0.0")


OUT_OF_RANGE = [
    "train.batch_size=0", "train.batch_size=-1", "model.d=0", "model.l_layers=-1",
    "model.z_layers=-1", "train.epochs=-1", "train.lr=-1", "train.lr=NaN",
    "train.lr=Infinity", "train.alpha1=NaN", "augment.dropout_ratio=1.5",
    "augment.dropout_ratio=-0.5", "augment.noise_weight=-1", "augment.tau=Infinity",
    "train.patience=-3", "data.train_seed_ratio=0", "data.train_seed_ratio=1",
    "data.eval_seed_ratio=0", "data.eval_seed_ratio=1.5", "model.slot_fill=foo",
]


@pytest.mark.parametrize("assignment", OUT_OF_RANGE)
def test_out_of_range_values_rejected(assignment):
    # A deleted key such as model.slot_fill is rejected by load_config itself.
    with pytest.raises((ConfigError, IntegrityError), match=assignment.split("=")[0].split(".")[1]):
        train_config(load_config(None, [assignment]))


@pytest.mark.parametrize("assignment", [
    "train.lr=0", "train.epochs=0", "model.l_layers=0", "model.z_layers=0", "train.batch_size=1",
    "augment.dropout_ratio=0", "augment.dropout_ratio=1", "augment.noise_weight=0",
    "train.patience=0", "seed=0",
])
def test_range_boundaries_accepted(assignment):
    train_config(load_config(None, [assignment]))


def test_no_eval_section():
    assert "eval" not in DEFAULTS
    with pytest.raises(ConfigError, match="eval"):
        load_config(None, ["eval.k=5"])


def test_negative_seed_rejected(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        load_config(None, ["seed=-5"])
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"seed": -1}))
    with pytest.raises(ConfigError, match="seed"):
        load_config(p, [])


def test_typed_configs_take_every_field_from_the_run_document():
    for cls in (TrainConfig, AugmentationConfig, AblationFlags):
        for f in fields(cls):
            assert f.default is MISSING and f.default_factory is MISSING, (cls.__name__, f.name)
    tc = train_config(DEFAULTS)
    assert tc.alpha1 == DEFAULTS["train"]["alpha1"]
    assert tc.augment.tau == DEFAULTS["augment"]["tau"]
    assert tc.augment.dropout_ratio == DEFAULTS["augment"]["dropout_ratio"]


def test_train_config_rejects_negative_seed():
    with pytest.raises(ConfigError, match="seed"):
        replace(train_config(DEFAULTS), seed=-1)


@pytest.mark.parametrize("sets", [
    [],
    ["model.d=32", "train.epochs=60", "train.batch_size=64", "train.lr=0.01", "seed=0"],
    ["precision=f64"],
    [f"ablation.{name}=false" for name in DEFAULTS["ablation"]],
], ids=["defaults", "readme_quick_start", "f64", "ablations_off"])
def test_config_echo_round_trips(sets):
    tc = train_config(load_config(None, sets))
    assert config_from_dict(json.loads(json.dumps(asdict(tc)))) == tc


PACKAGE = Path(bundlecraft.__file__).resolve().parent


@pytest.mark.parametrize("name", sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"))
def test_module_imports_first_in_a_fresh_interpreter(name):
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    probe = f"import sys, bundlecraft.{name}; print(sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    if name == "config":
        assert "'bundlecraft.trainer'" not in proc.stdout
