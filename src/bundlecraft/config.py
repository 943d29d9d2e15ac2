"""Run configuration: one JSON document, every key overridable from the CLI.

Unknown keys are rejected (no silent typos); the effective config is echoed
into every output artifact. ``--set a.b=value`` overrides use dotted paths;
values are parsed as JSON literals with a bare-string fallback.
"""

import copy
import json

from .contrastive import AugmentationConfig
from .errors import ConfigError
from .trainer import AblationFlags, TrainConfig

DEFAULTS = {
    "seed": 0,
    "precision": "f32",
    "data": {
        "train_seed_ratio": 0.5,
        "eval_seed_ratio": 0.5,
    },
    "model": {
        "d": 64,
        "l_layers": 1,
        "z_layers": 1,
        "slot_fill": "projected",
    },
    "cf": {
        "d": 64,
        "k_layers": 2,
        "epochs": 20,
        "lr": 0.05,
        "neg_samples": 1,
        "reg": 1e-4,
    },
    "train": {
        "lr": 1e-3,
        "batch_size": 2048,
        "epochs": 100,
        "alpha1": 0.05,
        "alpha2": 0.05,
        "beta": 1e-5,
        "patience": 10,
    },
    "augment": {
        "item_mode": "MD",
        "bundle_mode": "ID",
        "dropout_ratio": 0.5,
        "noise_weight": 0.05,
        "tau": 5.0,
        "negatives": "batch",
    },
    "ablation": {
        "use_feedback": True,
        "use_item_attention": True,
        "use_bundle_attention": True,
        "use_item_cl": True,
        "use_bundle_cl": True,
    },
}


def _merge(base, override, path=""):
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where!r} must be a section, got {type(value).__name__}")
            out[key] = _merge(base[key], value, where)
        else:
            expected = type(base[key])
            if (expected is bool) != isinstance(value, bool):
                raise ConfigError(
                    f"{where!r} must be {expected.__name__}, got {type(value).__name__}")
            if expected is float and isinstance(value, int):
                value = float(value)
            if not isinstance(value, expected):
                raise ConfigError(
                    f"{where!r} must be {expected.__name__}, got {type(value).__name__}"
                )
            out[key] = value
    return out


def parse_set_value(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_set(config, assignment):
    """Apply one ``dotted.path=value`` override in place of a copy."""
    if "=" not in assignment:
        raise ConfigError(f"--set needs key=value, got {assignment!r}")
    dotted, _, raw = assignment.partition("=")
    keys = dotted.strip().split(".")
    override = parse_set_value(raw.strip())
    for key in reversed(keys):
        override = {key: override}
    return _merge(config, override)


def load_config(path=None, sets=()):
    """Defaults, then the JSON file, then each ``--set`` in order."""
    config = copy.deepcopy(DEFAULTS)
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        config = _merge(config, data)
    for assignment in sets:
        config = apply_set(config, assignment)
    if config["seed"] < 0:
        raise ConfigError(f"'seed' must be a nonnegative integer, got {config['seed']}")
    return config


def train_config(config):
    """Materialize the trainer's typed config from the run document."""
    return TrainConfig(
        d=config["model"]["d"],
        l_layers=config["model"]["l_layers"],
        z_layers=config["model"]["z_layers"],
        lr=config["train"]["lr"],
        batch_size=config["train"]["batch_size"],
        epochs=config["train"]["epochs"],
        alpha1=config["train"]["alpha1"],
        alpha2=config["train"]["alpha2"],
        beta=config["train"]["beta"],
        train_seed_ratio=config["data"]["train_seed_ratio"],
        eval_seed_ratio=config["data"]["eval_seed_ratio"],
        slot_fill=config["model"]["slot_fill"],
        precision=config["precision"],
        patience=config["train"]["patience"],
        seed=config["seed"],
        augment=AugmentationConfig(**config["augment"]),
        ablation=AblationFlags(**config["ablation"]),
    )
