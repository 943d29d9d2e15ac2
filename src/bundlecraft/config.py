"""Run configuration: one JSON document, every key overridable from the CLI.

:func:`_merge` checks every JSON settings document against its defaults: this
one with its ``--set a.b=value`` overrides (JSON literals, bare strings as a
fallback), a checkpoint's config echo and the synth spec. Unknown keys, values
of another type than the default's (an int passes for a float, a bool never
for a number) and sections that are not objects are rejected; ranges are the
typed configs' rules. The effective config is echoed into every artifact.
"""

import copy
import json
from dataclasses import asdict, dataclass

import numpy as np

from .contrastive import AugmentationConfig
from .errors import ConfigError
from .numerics import DTYPES


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
    },
    "ablation": {
        "use_feedback": True,
        "use_item_attention": True,
        "use_bundle_attention": True,
    },
}


def _merge(base, override, path=""):
    if not isinstance(override, dict):
        what = repr(path) if path else "the document"
        raise ConfigError(f"{what} must be a JSON object, got {type(override).__name__}")
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown key {where!r}")
        if isinstance(base[key], dict):
            out[key] = _merge(base[key], value, where)
        else:
            expected = type(base[key])
            if expected is float and type(value) is int:
                value = float(value)
            if type(value) is not expected:
                raise ConfigError(
                    f"{where!r} must be {expected.__name__}, got {type(value).__name__}")
            out[key] = value
    return out


def apply_set(config, assignment):
    """Apply one ``dotted.path=value`` override in place of a copy."""
    if "=" not in assignment:
        raise ConfigError(f"--set needs key=value, got {assignment!r}")
    dotted, _, raw = assignment.partition("=")
    keys = dotted.strip().split(".")
    try:
        override = json.loads(raw.strip())
    except json.JSONDecodeError:
        override = raw.strip()
    for key in reversed(keys):
        override = {key: override}
    return _merge(config, override)


def load_config(path=None, sets=()):
    """Defaults, then the JSON file, then each ``--set`` in order."""
    config = copy.deepcopy(DEFAULTS)
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:
                config = _merge(config, json.load(fh))
            except ValueError as exc:  # bad JSON or bad UTF-8
                raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
            except ConfigError as exc:
                raise ConfigError(f"{path}: {exc}") from exc
    for assignment in sets:
        config = apply_set(config, assignment)
    check_seed(config["seed"])
    return config


def check_seed(seed):
    """The run seed rule, shared by every command that takes a seed."""
    if seed < 0:
        raise ConfigError(f"'seed' must be a nonnegative integer, got {seed}")


@dataclass(frozen=True)
class AblationFlags:
    use_feedback: bool
    use_item_attention: bool
    use_bundle_attention: bool


@dataclass(frozen=True)
class TrainConfig:
    d: int
    l_layers: int
    z_layers: int
    lr: float
    batch_size: int
    epochs: int
    alpha1: float
    alpha2: float
    beta: float
    train_seed_ratio: float
    eval_seed_ratio: float
    precision: str
    patience: int
    seed: int
    augment: AugmentationConfig
    ablation: AblationFlags

    def __post_init__(self):
        # a zero lr is allowed: a zero-rate fit keeps the initial parameters
        for name in ("lr", "alpha1", "alpha2", "beta"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and nonnegative, got {getattr(self, name)}")
        if self.precision not in DTYPES:
            raise ConfigError(f"precision must be one of {sorted(DTYPES)}")
        for name in ("d", "batch_size"):
            if not getattr(self, name) >= 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("l_layers", "z_layers", "epochs", "patience"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("train_seed_ratio", "eval_seed_ratio"):
            if not 0 < getattr(self, name) < 1:
                raise ConfigError(f"{name} must lie in (0, 1), got {getattr(self, name)}")
        check_seed(self.seed)


def train_config(config):
    """Materialize the trainer's typed config from the run document."""
    return _typed({**config["data"], **config["model"], **config["train"],
                   "precision": config["precision"], "seed": config["seed"],
                   "augment": config["augment"], "ablation": config["ablation"]})


def config_from_dict(echo):
    """Rebuild a :class:`TrainConfig` from a checkpoint header's config echo
    under ``--set``'s rules; fields it leaves out take :data:`DEFAULTS`."""
    return _typed(_merge(asdict(train_config(DEFAULTS)), echo))


def _typed(flat):
    return TrainConfig(**{**flat, "augment": AugmentationConfig(**flat["augment"]),
                          "ablation": AblationFlags(**flat["ablation"])})
