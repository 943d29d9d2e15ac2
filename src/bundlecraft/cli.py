"""Command-line pipeline: synth, pretrain, train, eval, complete, explain.

Exit codes are a stable scripting contract: 0 success, 2 usage or input
error, 3 numerical failure. Logs go to stderr; data goes to files or
stdout. Every subcommand is deterministic given identical inputs and seed.
"""

import argparse
import json
import logging
import sys

import numpy as np

from . import config as config_mod
from . import corpus as corpus_mod
from . import synth as synth_mod
from .cf_pretrain import load_cf, pretrain, save_cf
from .errors import (
    BundlecraftError,
    ConfigError,
    CorpusFormatError,
    DivergenceError,
    InsufficientDataError,
    IntegrityError,
    NonFiniteError,
    SynthSpecError,
)
from .evaluation import evaluate, explain, make_scorer
from .trainer import fit, load_checkpoint, save_checkpoint

log = logging.getLogger("bundlecraft")

# named child streams of the run seed; fit() consumes 0..2
STREAM_INIT, STREAM_TRAIN, STREAM_VAL, STREAM_EVAL = range(4)

_INPUT_ERRORS = (
    ConfigError,
    CorpusFormatError,
    IntegrityError,
    InsufficientDataError,
    SynthSpecError,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
)


def eval_rng(seed):
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[STREAM_EVAL])


def _add_config_args(p):
    p.add_argument("--config", help="JSON run config (defaults apply when omitted)")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted-path config override, repeatable",
    )
    p.add_argument("--seed", type=int, help="shortcut for --set seed=N")


def _resolved_config(args):
    sets = list(args.set)
    if getattr(args, "seed", None) is not None:
        sets.append(f"seed={args.seed}")
    return config_mod.load_config(args.config, sets)


def build_parser():
    parser = argparse.ArgumentParser(prog="bundlecraft", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted synthetic corpus")
    p.add_argument("--spec", required=True, help="JSON SynthSpec document")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pretrain", help="pretrain CF embeddings on the interaction graph")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, help="propagation layers")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    _add_config_args(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="train the bundle completion model")
    p.add_argument("--data", required=True)
    p.add_argument("--cf", required=True, help="CF checkpoint from pretrain")
    p.add_argument("--out", required=True, help="model checkpoint path")
    p.add_argument("--log", help="JSON-lines training log (default: <out>.log.jsonl)")
    _add_config_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test bundles")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--setting", choices=["standard", "warm", "sparsify", "noisify"], default="standard")
    p.add_argument("--rate", type=float, default=0.0, help="corruption rate for sparsify/noisify")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--eval-repeats", type=int, default=1, dest="repeats")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--k", type=int, default=20)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("complete", help="rank completion candidates for seed items")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--seeds", required=True, help="comma-separated item tokens")
    p.add_argument("--k", type=int, default=20)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("explain", help="similarity table for one bundle")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--bundle", required=True, help="bundle token or index")
    p.set_defaults(func=cmd_explain)

    return parser


def cmd_synth(args):
    with open(args.spec, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SynthSpecError(f"{args.spec}: invalid JSON: {exc}") from exc
    spec = synth_mod.spec_from_dict(data)
    manifest = synth_mod.generate(spec, args.out)
    log.info(
        "synth corpus written to %s: #U=%d #I=%d #B=%d #B-I=%d #U-I=%d oracle_recall@20=%.3f",
        args.out,
        manifest["counts"]["users"],
        manifest["counts"]["items"],
        manifest["counts"]["bundles"],
        manifest["counts"]["bundle_items"],
        manifest["counts"]["interactions"],
        manifest["oracle_recall_at_20"],
    )
    return 0


def cmd_pretrain(args):
    config = _resolved_config(args)
    for flag, key in (("k", "k_layers"), ("epochs", "epochs"), ("lr", "lr")):
        value = getattr(args, flag)
        if value is not None:
            config = config_mod.apply_set(config, f"cf.{key}={value}")
    _, _, graph = corpus_mod.load_dir(args.data)
    rng = np.random.default_rng(config["seed"])
    emb = pretrain(
        graph,
        d=config["cf"]["d"],
        k_layers=config["cf"]["k_layers"],
        epochs=config["cf"]["epochs"],
        lr=config["cf"]["lr"],
        neg_samples=config["cf"]["neg_samples"],
        rng=rng,
        reg=config["cf"]["reg"],
    )
    save_cf(args.out, emb)
    log.info("cf checkpoint written to %s (M=%d N=%d d=%d K=%d)",
             args.out, emb.user_table.shape[0], emb.item_table.shape[0], emb.d, emb.k_layers)
    return 0


def cmd_train(args):
    config = _resolved_config(args)
    tc = config_mod.train_config(config)
    catalog, features, graph = corpus_mod.load_dir(args.data)
    cf = load_cf(args.cf)
    if cf.item_table.shape[0] != catalog.n_items:
        raise IntegrityError(
            f"cf checkpoint has {cf.item_table.shape[0]} items, corpus has {catalog.n_items}"
        )
    log_path = args.log or args.out + ".log.jsonl"
    result = fit(catalog, features, graph, cf, tc, log_path=log_path)
    save_checkpoint(args.out, result.model, epoch=result.best_epoch, metrics=result.best_metrics)
    log.info("model checkpoint written to %s (best epoch %d, %s)",
             args.out, result.best_epoch, result.best_metrics)
    return 0


def _load_model_context(model_path, data_dir):
    catalog, features, graph = corpus_mod.load_dir(data_dir)
    model, epoch, metrics = load_checkpoint(model_path)
    if model.cf.item_table.shape[0] != catalog.n_items:
        raise IntegrityError(
            f"checkpoint has {model.cf.item_table.shape[0]} items, corpus has {catalog.n_items}"
        )
    split = corpus_mod.split_bundles(catalog, model.config.seed)
    warm = corpus_mod.warm_items(catalog, split[0])
    from .item_encoder import build_item_inputs
    from .numerics import DTYPES

    inputs = build_item_inputs(
        catalog, features, model.cf, graph, warm, DTYPES[model.config.precision]
    )
    return catalog, features, graph, model, split, warm, inputs


def cmd_eval(args):
    catalog, _, _, model, split, warm, inputs = _load_model_context(args.model, args.data)
    _, _, test_idx = split
    rng = eval_rng(model.config.seed)
    scorer = make_scorer(model, inputs)

    all_records = []
    sums = {"recall": 0.0, "ndcg": 0.0}
    n_reports = 0
    tag = None
    for _ in range(max(1, args.repeats)):
        views = [
            corpus_mod.sample_partial(
                catalog.bundles[b], model.config.eval_seed_ratio, rng, bundle_index=b
            )
            for b in test_idx
        ]
        report = evaluate(
            scorer,
            views,
            k=args.k,
            setting=args.setting,
            rate=args.rate,
            rng=rng,
            n_items=catalog.n_items,
            warm=warm,
            threads=args.threads,
        )
        tag = report.setting
        if report.empty:
            continue
        all_records.extend(report.per_bundle)
        sums["recall"] += report.recall
        sums["ndcg"] += report.ndcg
        n_reports += 1

    all_records.sort(key=lambda r: r["bundle"])
    payload = {
        "setting": tag,
        "k": args.k,
        "recall": sums["recall"] / n_reports if n_reports else None,
        "ndcg": sums["ndcg"] / n_reports if n_reports else None,
        "n_bundles": len(all_records),
        "per_bundle": all_records,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("report written to %s (recall=%s ndcg=%s over %d bundles)",
             args.out, payload["recall"], payload["ndcg"], payload["n_bundles"])
    return 0


def cmd_complete(args):
    catalog, _, _, model, _, _, inputs = _load_model_context(args.model, args.data)
    tokens = [t for t in (s.strip() for s in args.seeds.split(",")) if t]
    if not tokens:
        raise IntegrityError("no seed tokens given")
    seen = []
    for t in tokens:
        if t not in catalog.item_index:
            raise IntegrityError(f"unknown item token {t!r}")
        if t in seen:
            log.warning("duplicate seed token %r ignored", t)
        else:
            seen.append(t)
    seed_idx = [catalog.item_index[t] for t in seen]
    scorer = make_scorer(model, inputs)
    scores = scorer(sorted(seed_idx))
    from .evaluation import rank_candidates

    ranked = rank_candidates(scores, set(seed_idx), args.k)
    for i in ranked:
        print(f"{catalog.item_tokens[i]}\t{scores[i]:.6f}")
    return 0


def cmd_explain(args):
    catalog, _, _, model, _, _, inputs = _load_model_context(args.model, args.data)
    token = args.bundle
    if token in catalog.bundle_tokens:
        b = catalog.bundle_tokens.index(token)
    else:
        try:
            b = int(token)
        except ValueError as exc:
            raise IntegrityError(f"unknown bundle {token!r}") from exc
        if not 0 <= b < catalog.n_bundles:
            raise IntegrityError(f"bundle index {b} out of range")
    table = explain(model, inputs, catalog.bundles[b], bundle_index=b)
    table["bundle_token"] = catalog.bundle_tokens[b]
    print(json.dumps(table, indent=2, sort_keys=True))
    return 0


class _StderrHandler(logging.StreamHandler):
    """Writes each record to the ``sys.stderr`` of the moment it is emitted,
    so a caller that swaps or closes ``sys.stderr`` after :func:`main`
    returns does not leave the root logger writing to a stale stream."""

    def __init__(self):
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def main(argv=None):
    logging.basicConfig(handlers=[_StderrHandler()], level=logging.INFO, format="%(message)s",
                        force=True)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, NonFiniteError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except BundlecraftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
