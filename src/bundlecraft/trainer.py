"""End-to-end training: scoring, losses, Adam updates, checkpointing.

The per-bundle loss is the negative log-likelihood of the missing items
under a softmax over the entire catalog, averaged over the batch, plus the
two contrastive terms and L2 over the trainable parameters:

    total = mean_b nll_b + alpha1 * cl_item + alpha2 * cl_bundle + beta * ||params||^2

The full scoring table of item representations is recomputed every batch
so gradients stay exact; it is one graph node that runs in cache-sized
tiles (see :mod:`item_encoder`). The scores are one node, ``e_b @ T^T``
with no transposed copy, the NLL one node that sums only the targets'
log-probabilities, and the L2 penalty one node, so a batch's graph has a
few dozen nodes. The augmented item view is encoded only on the rows the
item-level InfoNCE reads, the batch's seed and target items. One epoch is
one pass over the training bundles with freshly sampled seed/target splits.
Validation NDCG@20 drives early stopping and best-checkpoint retention.
The training log gets one JSON line per epoch; its ``seconds`` object
splits the epoch's wall time into forward (``loss``), ``backward``,
``adam`` and ``validate``.

Checkpoint format: magic ``CLHE``, u32 LE version, u32 LE length-prefixed
UTF-8 JSON header (config echo, epoch, metric snapshot, matrix manifest),
then each matrix as u32 name length, name bytes, u32 rows, u32 cols,
float32 LE data. The frozen CF item table rides along as a non-trainable
matrix so inference needs no separate CF checkpoint. The manifest is
:func:`matrix_names` plus ``cf_item_table``; the payload holds those
matrices in manifest order and nothing more. A NaN or inf is a format
error (exit 2). :func:`config.config_from_dict` reads the config echo back
under the rules a ``--set`` override meets.
"""

import json
import logging
import struct
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import numerics as nm
from .binio import Reader
from .bundle_encoder import BundleEncoderParams, encode_sets, init_bundle_params
from .cf_pretrain import CfEmbeddings
from .config import TrainConfig, config_from_dict
from .contrastive import augment_bundle, augment_inputs, info_nce
from .corpus import sample_partial, split_bundles, warm_items
from .errors import (
    ConfigError,
    CorpusFormatError,
    DivergenceError,
    IntegrityError,
    NonFiniteError,
    ShapeError,
)
from .evaluation import evaluate, make_set_scorer
from .item_encoder import ItemEncoderParams, build_item_inputs, encode_item_table, init_item_params

log = logging.getLogger(__name__)

CKPT_MAGIC = b"CLHE"
CKPT_VERSION = 1


def matrix_names(config):
    """Names of the trainable matrices, in the order :meth:`Model.named_trainables`
    yields them and a checkpoint stores them."""
    names = ["W_c", "W_p", "V"]
    names += [f"item_{l}_{w}" for l in range(config.l_layers) for w in ("WK", "WQ")]
    names += [f"bundle_{z}_{w}" for z in range(config.z_layers) for w in ("WK", "WQ")]
    return names


@dataclass
class Model:
    item_params: ItemEncoderParams
    bundle_params: BundleEncoderParams
    cf: CfEmbeddings
    config: TrainConfig

    def named_trainables(self):
        nodes = [self.item_params.w_c, self.item_params.w_p, self.item_params.v]
        nodes += [w for pair in (*self.item_params.layers, *self.bundle_params.layers) for w in pair]
        return list(zip(matrix_names(self.config), nodes, strict=True))

    def trainables(self):
        return [node for _, node in self.named_trainables()]

    def snapshot(self):
        return {name: node.value.copy() for name, node in self.named_trainables()}

    def restore(self, snap):
        for name, node in self.named_trainables():
            np.copyto(node.value, snap[name])


def init_model(n_items, feat_dim, cf, config, rng):
    dtype = nm.DTYPES[config.precision]
    item_params = init_item_params(
        n_items, feat_dim, cf.item_table.shape[1], config.d, config.l_layers, rng, dtype
    )
    bundle_params = init_bundle_params(config.d, config.z_layers, rng, dtype)
    return Model(item_params=item_params, bundle_params=bundle_params, cf=cf, config=config)


# ---------------------------------------------------------------------------
# loss pieces
# ---------------------------------------------------------------------------

def nll_loss(scores, target_sets):
    """Mean over the B rows of a B x N score matrix of (1/N) times the sum of
    -log softmax(row) over that row's targets."""
    b, n = scores.shape
    if len(target_sets) != b:
        raise ShapeError(f"nll_loss: {len(target_sets)} target sets for {b} score rows")
    rows, cols = [], []
    for r, targets in enumerate(target_sets):
        idx = sorted(targets)
        if not idx:
            raise IntegrityError("nll_loss: empty target set")
        if idx[0] < 0 or idx[-1] >= n:
            raise IntegrityError("nll_loss: target outside the catalog")
        rows += [r] * len(idx)
        cols += idx
    return nm.log_softmax_pick(scores, rows, cols, -1.0 / (b * n))


def total_loss(views, model, inputs, rng):
    """Total objective on a batch of partial views.

    Returns ``(loss_node, parts)`` where ``parts`` carries the unweighted
    nll / cl_item / cl_bundle / l2 values for logging. Ablation flags swap
    attention stacks for plain means; a zero ``alpha1`` or ``alpha2`` skips
    its contrastive term, random draws included, and logs it as 0.
    """
    if not views:
        raise IntegrityError("total_loss: empty batch")
    cfg = model.config
    ab = cfg.ablation
    dtype = nm.DTYPES[cfg.precision]

    f_table = encode_item_table(
        inputs, model.item_params, ab.use_feedback, ab.use_item_attention, dtype
    )

    def encode(vs):
        return encode_sets(f_table, [v.seeds for v in vs], model.bundle_params,
                           ab.use_bundle_attention)

    e_batch = encode(views)
    loss = nll_loss(nm.matmul_nt(e_batch, f_table), [v.targets for v in views])
    parts = {"nll": loss.item(), "cl_item": 0.0, "cl_bundle": 0.0, "l2": 0.0}

    if cfg.alpha1 > 0:
        # drawn for the whole catalog, so the rng stream does not hang on the batch
        aug_inputs = augment_inputs(inputs, cfg.augment.item_mode, cfg.augment, rng)
        anchor_idx = sorted(set().union(*(v.seeds | v.targets for v in views)))
        anchors = nm.take_rows(f_table, anchor_idx)
        if cfg.augment.item_mode == "NA":
            positives = anchors
        else:
            positives = encode_item_table(
                aug_inputs.take(anchor_idx), model.item_params, ab.use_feedback,
                ab.use_item_attention, dtype,
            )
        cl_item = info_nce(anchors, positives, cfg.augment.tau)
        parts["cl_item"] = cl_item.item()
        loss = nm.add(loss, nm.smul(cl_item, cfg.alpha1))

    if cfg.alpha2 > 0:
        aug_views = [
            augment_bundle(v, cfg.augment.bundle_mode, cfg.augment, rng, inputs.n_items)
            for v in views
        ]
        cl_bundle = info_nce(e_batch, encode(aug_views), cfg.augment.tau)
        parts["cl_bundle"] = cl_bundle.item()
        loss = nm.add(loss, nm.smul(cl_bundle, cfg.alpha2))

    if cfg.beta > 0:
        l2 = nm.sum_squares(model.trainables())
        parts["l2"] = l2.item()
        loss = nm.add(loss, nm.smul(l2, cfg.beta))

    return loss, parts


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Adam, updating the parameters in place.

    Each parameter has one scratch buffer, and its adjoint is consumed as a
    second one, so a step allocates nothing; the in-place ufuncs run the
    textbook update's operations in its order, with its bits.
    """

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]
        self.scratch = [np.empty_like(p.value) for p in self.params]

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, m, v, s in zip(self.params, self.m, self.v, self.scratch):
            g = p.adjoint
            if g is None:
                continue
            # m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g g
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=s)
            m += s
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=s)
            s *= g
            v += s
            # p -= lr (m / b1t) / (sqrt(v / b2t) + eps), with g as the second buffer
            np.divide(v, b2t, out=s)
            np.sqrt(s, out=s)
            s += self.eps
            np.divide(m, b1t, out=g)
            g /= s
            g *= self.lr
            p.value -= g
        nm.zero_adjoints(self.params)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    model: Model
    best_epoch: int
    best_metrics: dict
    history: list
    split: tuple  # (train, val, test) bundle index lists


def _validate(model, inputs, val_views, k=20):
    """Recall@k and NDCG@k over the validation views; zeros without views."""
    report = evaluate(make_set_scorer(model, inputs), val_views, k)
    if report.empty:
        return 0.0, 0.0
    return report.recall, report.ndcg


def fit(catalog, features, graph, cf, config, log_path=None):
    """Train a model and keep the best-validation checkpoint.

    Everything random flows from ``config.seed`` through named child
    streams, so identical inputs and seed give identical loss curves,
    checkpoints and logs (wall-clock fields aside).
    """
    train_idx, val_idx, test_idx = split_bundles(catalog, config.seed)
    warm = warm_items(catalog, train_idx)
    dtype = nm.DTYPES[config.precision]
    inputs = build_item_inputs(catalog, features, cf, graph, warm, dtype)

    seeds = np.random.SeedSequence(config.seed).spawn(3)
    rng_init = np.random.default_rng(seeds[0])
    rng_train = np.random.default_rng(seeds[1])
    rng_val = np.random.default_rng(seeds[2])

    model = init_model(catalog.n_items, features.dim, cf, config, rng_init)
    opt = Adam(model.trainables(), config.lr)

    val_views = [
        sample_partial(catalog.bundles[b], config.eval_seed_ratio, rng_val, bundle_index=b)
        for b in val_idx
    ]

    best = {"epoch": 0, "metrics": {}, "state": model.snapshot()}
    history = []
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        since_best = 0
        for epoch in range(1, config.epochs + 1):
            t0 = time.perf_counter()
            epoch_views = [
                sample_partial(catalog.bundles[b], config.train_seed_ratio, rng_train, bundle_index=b)
                for b in train_idx
            ]
            order = rng_train.permutation(len(epoch_views))
            sums = {"train_loss": 0.0, "nll": 0.0, "cl_item": 0.0, "cl_bundle": 0.0, "l2": 0.0}
            phases = dict.fromkeys(("loss", "backward", "adam", "validate"), 0.0)
            n_batches = 0
            for start in range(0, len(order), config.batch_size):
                batch = [epoch_views[i] for i in order[start : start + config.batch_size]]
                t1 = time.perf_counter()
                try:
                    loss, parts = total_loss(batch, model, inputs, rng_train)
                except NonFiniteError as exc:
                    raise DivergenceError(f"non-finite loss at epoch {epoch}: {exc}") from exc
                value = loss.item()
                if not np.isfinite(value):
                    raise DivergenceError(f"non-finite loss at epoch {epoch}")
                t2 = time.perf_counter()
                nm.backward(loss)
                t3 = time.perf_counter()
                opt.step()
                t4 = time.perf_counter()
                phases["loss"] += t2 - t1
                phases["backward"] += t3 - t2
                phases["adam"] += t4 - t3
                sums["train_loss"] += value
                for key in ("nll", "cl_item", "cl_bundle", "l2"):
                    sums[key] += parts[key]
                n_batches += 1

            t1 = time.perf_counter()
            val_recall, val_ndcg = _validate(model, inputs, val_views)
            phases["validate"] = time.perf_counter() - t1
            entry = {
                "epoch": epoch,
                "train_loss": sums["train_loss"] / n_batches,
                "nll": sums["nll"] / n_batches,
                "cl_item": sums["cl_item"] / n_batches,
                "cl_bundle": sums["cl_bundle"] / n_batches,
                "l2": sums["l2"] / n_batches,
                "val_recall20": val_recall,
                "val_ndcg20": val_ndcg,
                "seconds": {"total": time.perf_counter() - t0, **phases},
            }
            history.append(entry)
            if log_fh:
                log_fh.write(json.dumps(entry) + "\n")
                log_fh.flush()
            log.info(
                "epoch %d loss=%.5f nll=%.5f val_ndcg20=%.4f (%.2fs)",
                epoch, entry["train_loss"], entry["nll"], val_ndcg, entry["seconds"]["total"],
            )

            if not best["metrics"] or val_ndcg > best["metrics"]["val_ndcg20"]:
                best = {
                    "epoch": epoch,
                    "metrics": {"val_recall20": val_recall, "val_ndcg20": val_ndcg},
                    "state": model.snapshot(),
                }
                since_best = 0
            else:
                since_best += 1
                if since_best >= config.patience:
                    log.info("early stop at epoch %d (best %d)", epoch, best["epoch"])
                    break
    finally:
        if log_fh:
            log_fh.close()

    model.restore(best["state"])
    return TrainResult(
        model=model,
        best_epoch=best["epoch"],
        best_metrics=best["metrics"],
        history=history,
        split=(train_idx, val_idx, test_idx),
    )


# ---------------------------------------------------------------------------
# checkpoint io
# ---------------------------------------------------------------------------

def save_checkpoint(path, model, epoch=0, metrics=None):
    named = model.named_trainables()
    matrices = [(name, node.value) for name, node in named]
    matrices.append(("cf_item_table", model.cf.item_table))
    header = {
        "config": asdict(model.config),
        "epoch": epoch,
        "metrics": metrics or {},
        "matrices": [name for name, _ in matrices],
        "cf_k_layers": model.cf.k_layers,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", CKPT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name, value in matrices:
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<II", value.shape[0], value.shape[1]))
            fh.write(np.ascontiguousarray(value, dtype="<f4").tobytes())


def load_checkpoint(path):
    """Rebuild a :class:`Model` (and its metadata) from a checkpoint file.

    A short or over-long file, an unreadable header or one missing a key,
    a config echo that breaks the run config's rules, a manifest, payload
    order or shape other than that config implies, and a non-finite value
    all raise :class:`CorpusFormatError`.
    """
    reader = Reader(path, CKPT_MAGIC)
    (version,) = reader.u32(1)
    if version != CKPT_VERSION:
        raise CorpusFormatError(f"{path}: unsupported version {version}")
    (jlen,) = reader.u32(1)
    try:
        header = json.loads(reader.take(jlen))
    except ValueError as exc:
        raise CorpusFormatError(f"{path}: header is not UTF-8 JSON: {exc}") from exc
    missing = [key for key in ("config", "epoch", "metrics", "matrices")
               if not isinstance(header, dict) or key not in header]
    if missing:
        raise CorpusFormatError(f"{path}: header lacks {', '.join(missing)}")
    try:
        config = config_from_dict(header["config"])
        cf_k_layers = header.get("cf_k_layers", 0)
        if type(cf_k_layers) is not int or cf_k_layers < 0:
            raise ConfigError(f"'cf_k_layers' must be an integer >= 0, got {cf_k_layers!r}")
    except (ConfigError, IntegrityError) as exc:
        raise CorpusFormatError(f"{path}: bad config or cf_k_layers in header: {exc}") from exc
    names = matrix_names(config) + ["cf_item_table"]
    if header["matrices"] != names:
        raise CorpusFormatError(
            f"{path}: matrix manifest {header['matrices']!r} does not match the config's {names}")

    arrays = []
    for name in names:
        (nlen,) = reader.u32(1)
        found = reader.take(nlen)
        if found != name.encode("utf-8"):
            raise CorpusFormatError(f"{path}: payload has matrix {found[:64]!r} where the "
                                    f"manifest puts {name!r}")
        rows, cols = reader.u32(2)
        arrays.append(reader.f32(rows, cols, name))
    reader.end()

    n_items, cf_dim = arrays[-1].shape
    d = config.d
    shapes = [(arrays[0].shape[0], d), (cf_dim, d), (n_items, d)] + [(d, d)] * (len(names) - 4)
    for name, arr, shape in zip(names, arrays, shapes):
        if arr.shape != shape:
            raise CorpusFormatError(f"{path}: {name} is {arr.shape}, the config implies {shape}")

    w_c, w_p, v, *layers = [nm.parameter(arr, nm.DTYPES[config.precision]) for arr in arrays[:-1]]
    pairs = list(zip(layers[::2], layers[1::2]))
    item_params = ItemEncoderParams(w_c=w_c, w_p=w_p, v=v, layers=pairs[: config.l_layers])
    bundle_params = BundleEncoderParams(layers=pairs[config.l_layers :])
    cf = CfEmbeddings(np.zeros((0, cf_dim), dtype=np.float32), arrays[-1], cf_k_layers)
    return Model(item_params, bundle_params, cf, config), header["epoch"], header["metrics"]
