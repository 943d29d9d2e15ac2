"""The benchmark's tracer rebinds package names by attribute; every name it
wraps must exist in the package and come back unchanged afterwards, and the
package must reach its kernels through those names."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

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


def test_traced_total_loss_records_the_fused_ops_kernels(tmp_path):
    """The encoder nodes and the log-softmax nodes call the softmax kernels
    through the ``kernels`` module, so a traced loss and backward record their
    spans. With the contrastive terms off the NLL is the only log-softmax; with
    both on, each InfoNCE term adds one, and the augmented views are encoded
    again."""
    from bundlecraft import corpus, numerics
    from bundlecraft.cf_pretrain import pretrain
    from bundlecraft.config import load_config, train_config
    from bundlecraft.item_encoder import build_item_inputs
    from bundlecraft.synth import SynthSpec, generate

    generate(SynthSpec(n_items=40, n_users=12, n_bundles=10, n_topics=2, feature_dim=6,
                       bundle_size_min=3, bundle_size_max=5, seed=3), tmp_path)
    catalog, features, graph = corpus.load_dir(tmp_path)
    rng = np.random.default_rng(3)
    cf = pretrain(graph, d=4, k_layers=1, epochs=1, lr=0.05, neg_samples=1, rng=rng)
    bundles = range(catalog.n_bundles)
    inputs = build_item_inputs(catalog, features, cf, graph, corpus.warm_items(catalog, bundles))
    views = [corpus.sample_partial(catalog.bundles[b], 0.5, rng, bundle_index=b) for b in bundles]

    for cl_on in (False, True):
        alphas = [] if cl_on else ["train.alpha1=0", "train.alpha2=0"]
        config = train_config(load_config(None, ["model.d=8", *alphas]))
        assert (config.alpha1 > 0 and config.alpha2 > 0) == cl_on
        assert config.augment.item_mode != "NA"
        model = trainer.init_model(catalog.n_items, features.dim, cf, config, rng)
        spans = load_spans()
        tracer = spans.Tracer()
        try:
            spans.install_all(tracer, bundlecraft)
            loss, _ = trainer.total_loss(views, model, inputs, rng)
            numerics.backward(loss)
        finally:
            tracer.uninstall()
        calls = {}
        for name, *_ in tracer.spans:
            calls[name] = calls.get(name, 0) + 1
        attention_layers = (config.l_layers + config.z_layers) * (2 if cl_on else 1)
        log_softmaxes = 3 if cl_on else 1
        assert calls["kernels.softmax_rows"] == attention_layers
        assert calls["kernels.softmax_rows_grad"] == attention_layers
        assert calls["kernels.log_softmax_rows"] == log_softmaxes
        assert calls["kernels.log_softmax_rows_grad"] == log_softmaxes
