import json

import pytest

from bundlecraft.config import DEFAULTS, apply_set, load_config, train_config
from bundlecraft.errors import ConfigError


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


def test_set_overrides():
    cfg = load_config(None, ["train.lr=0.002", "ablation.use_item_cl=false", "augment.item_mode=FN"])
    assert cfg["train"]["lr"] == 0.002
    assert cfg["ablation"]["use_item_cl"] is False
    assert cfg["augment"]["item_mode"] == "FN"


def test_set_type_checks():
    with pytest.raises(ConfigError):
        apply_set(DEFAULTS, "train.lr=fast")
    with pytest.raises(ConfigError):
        apply_set(DEFAULTS, "ablation.use_item_cl=1")
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
        apply_set(DEFAULTS, "ablation.use_item_cl=0.0")
