"""The benchmark's tracer rebinds package names by attribute; every name it
wraps must exist in the package and come back unchanged afterwards."""

import importlib.util
import sys
from pathlib import Path

import bundlecraft
import bundlecraft.cli  # noqa: F401  (binds names the tracer rebinds too)
from bundlecraft import kernels, trainer

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """Every module-level name of the loaded package modules, and Adam's methods."""
    out = {("Adam", key): value for key, value in vars(trainer.Adam).items()}
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.startswith("bundlecraft"):
            out.update({(mod_name, key): value for key, value in vars(mod).items()})
    return out


def test_tracer_installs_and_restores_every_binding():
    spans = load_spans()
    before = bindings()
    tracer = spans.Tracer()
    try:
        spans.install_all(tracer, bundlecraft)
        rebound = {key for key, value in bindings().items() if value is not before.get(key)}
    finally:
        tracer.uninstall()
    for kname in ("bpr_epoch", "propagate_step", *spans.SOFTMAX_KERNELS):
        assert ("bundlecraft.kernels", kname) in rebound
    assert ("Adam", "step") in rebound
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    assert kernels.ACTIVE == "numpy"
