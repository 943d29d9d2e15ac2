"""End-to-end training: scoring, losses, Adam updates, checkpointing.

The per-bundle loss is the negative log-likelihood of the missing items
under a softmax over the entire catalog, averaged over the batch, plus the
two contrastive terms and L2 over the trainable parameters:

    total = mean_b nll_b + alpha1 * cl_item + alpha2 * cl_bundle + beta * ||params||^2

Item representations for the full scoring table are recomputed every batch
so gradients stay exact. One epoch is one pass over the training bundles
with freshly sampled seed/target splits. Validation NDCG@20 drives early
stopping and best-checkpoint retention.

Checkpoint format: magic ``CLHE``, u32 LE version, u32 LE length-prefixed
UTF-8 JSON header (config echo, epoch, metric snapshot, matrix manifest),
then each matrix as u32 name length, name bytes, u32 rows, u32 cols,
float32 LE data. The frozen CF item table rides along as a non-trainable
matrix so inference needs no separate CF checkpoint.
"""

import json
import logging
import struct
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import numerics as nm
from .bundle_encoder import BundleEncoderParams, encode_bundle, init_bundle_params
from .cf_pretrain import CfEmbeddings
from .contrastive import AugmentationConfig, augment_bundle, augment_inputs, info_nce
from .corpus import sample_partial, split_bundles, warm_items
from .errors import (
    ConfigError,
    CorpusFormatError,
    DivergenceError,
    IntegrityError,
    NonFiniteError,
    ShapeError,
)
from .evaluation import ndcg_at_k, rank_candidates, recall_at_k
from .item_encoder import (
    ItemEncoderParams,
    build_item_inputs,
    encode_item_table,
    init_item_params,
)

log = logging.getLogger(__name__)

CKPT_MAGIC = b"CLHE"
CKPT_VERSION = 1


@dataclass(frozen=True)
class AblationFlags:
    use_feedback: bool = True
    use_item_attention: bool = True
    use_bundle_attention: bool = True
    use_item_cl: bool = True
    use_bundle_cl: bool = True


@dataclass(frozen=True)
class TrainConfig:
    d: int = 64
    l_layers: int = 1
    z_layers: int = 1
    lr: float = 1e-3
    batch_size: int = 2048
    epochs: int = 100
    alpha1: float = 0.5
    alpha2: float = 0.5
    beta: float = 1e-5
    train_seed_ratio: float = 0.5
    eval_seed_ratio: float = 0.5
    slot_fill: str = "projected"
    precision: str = "f32"
    patience: int = 10
    seed: int = 0
    augment: AugmentationConfig = field(default_factory=AugmentationConfig)
    ablation: AblationFlags = field(default_factory=AblationFlags)

    def __post_init__(self):
        if self.alpha1 < 0 or self.alpha2 < 0 or self.beta < 0:
            raise ConfigError("loss weights must be nonnegative")
        if self.precision not in nm.DTYPES:
            raise ConfigError(f"precision must be one of {sorted(nm.DTYPES)}")


@dataclass
class Model:
    item_params: ItemEncoderParams
    bundle_params: BundleEncoderParams
    cf: CfEmbeddings
    config: TrainConfig

    def named_trainables(self):
        out = [
            ("W_c", self.item_params.w_c),
            ("W_p", self.item_params.w_p),
            ("V", self.item_params.v),
        ]
        for l, (wk, wq) in enumerate(self.item_params.layers):
            out.append((f"item_{l}_WK", wk))
            out.append((f"item_{l}_WQ", wq))
        for z, (wk, wq) in enumerate(self.bundle_params.layers):
            out.append((f"bundle_{z}_WK", wk))
            out.append((f"bundle_{z}_WQ", wq))
        return out

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

def score(e_b, item_table):
    """Inner-product scores of every item against a bundle vector."""
    return nm.matmul(e_b, nm.transpose(item_table))


def nll_loss(scores, targets):
    """(1/N) sum over targets of -log softmax(scores); ``scores`` is 1 x N."""
    if not targets:
        raise IntegrityError("nll_loss: empty target set")
    n = scores.shape[1]
    if any(t < 0 or t >= n for t in targets):
        raise IntegrityError("nll_loss: target outside the catalog")
    mask = np.zeros((1, n), dtype=scores.dtype)
    mask[0, sorted(targets)] = 1.0
    picked = nm.mul(nm.log_softmax_rows(scores), nm.constant(mask, scores.dtype))
    return nm.smul(nm.sum_all(picked), -1.0 / n)


def _batch_nll(scores, target_sets):
    """Mean of per-bundle nll over a B x N score matrix."""
    b, n = scores.shape
    mask = np.zeros((b, n), dtype=scores.dtype)
    for r, targets in enumerate(target_sets):
        mask[r, sorted(targets)] = 1.0
    picked = nm.mul(nm.log_softmax_rows(scores), nm.constant(mask, scores.dtype))
    return nm.smul(nm.sum_all(picked), -1.0 / (b * n))


def _encode_views(views, f_table, bundle_params, use_attention):
    rows = []
    for view in views:
        idx = sorted(view.seeds)
        rows.append(encode_bundle(nm.take_rows(f_table, idx), bundle_params, use_attention))
    return nm.vconcat(rows)


def total_loss(views, model, inputs, rng, all_views=None):
    """Total objective on a batch of partial views.

    Returns ``(loss_node, parts)`` where ``parts`` carries the unweighted
    nll / cl_item / cl_bundle / l2 values for logging. Ablation flags swap
    attention stacks for plain means and zero out contrastive terms.
    """
    if not views:
        raise IntegrityError("total_loss: empty batch")
    cfg = model.config
    ab = cfg.ablation
    dtype = nm.DTYPES[cfg.precision]

    f_table = encode_item_table(
        inputs, model.item_params, cfg.slot_fill, ab.use_feedback, ab.use_item_attention, dtype
    )
    e_batch = _encode_views(views, f_table, model.bundle_params, ab.use_bundle_attention)
    scores = score(e_batch, f_table)
    loss = _batch_nll(scores, [v.targets for v in views])
    parts = {"nll": loss.item(), "cl_item": 0.0, "cl_bundle": 0.0, "l2": 0.0}

    if ab.use_item_cl and cfg.alpha1 > 0:
        aug_inputs = augment_inputs(inputs, cfg.augment.item_mode, cfg.augment, rng)
        if cfg.augment.item_mode == "NA":
            f_aug = f_table
        else:
            f_aug = encode_item_table(
                aug_inputs, model.item_params, cfg.slot_fill, ab.use_feedback,
                ab.use_item_attention, dtype,
            )
        if cfg.augment.negatives == "full":
            anchor_idx = list(range(inputs.n_items))
        else:
            pool = set()
            for v in views:
                pool |= v.seeds | v.targets
            anchor_idx = sorted(pool)
        cl_item = info_nce(
            nm.take_rows(f_table, anchor_idx), nm.take_rows(f_aug, anchor_idx), cfg.augment.tau
        )
        parts["cl_item"] = cl_item.item()
        loss = nm.add(loss, nm.smul(cl_item, cfg.alpha1))

    if ab.use_bundle_cl and cfg.alpha2 > 0:
        pool_views = list(all_views) if (cfg.augment.negatives == "full" and all_views) else views
        e_pool = (
            e_batch
            if pool_views is views
            else _encode_views(pool_views, f_table, model.bundle_params, ab.use_bundle_attention)
        )
        aug_views = [
            augment_bundle(v, cfg.augment.bundle_mode, cfg.augment, rng, inputs.n_items)
            for v in pool_views
        ]
        e_aug = _encode_views(aug_views, f_table, model.bundle_params, ab.use_bundle_attention)
        cl_bundle = info_nce(e_pool, e_aug, cfg.augment.tau)
        parts["cl_bundle"] = cl_bundle.item()
        loss = nm.add(loss, nm.smul(cl_bundle, cfg.alpha2))

    if cfg.beta > 0:
        l2 = None
        for p in model.trainables():
            term = nm.sum_all(nm.mul(p, p))
            l2 = term if l2 is None else nm.add(l2, term)
        parts["l2"] = l2.item()
        loss = nm.add(loss, nm.smul(l2, cfg.beta))

    return loss, parts


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class Adam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.adjoint
            if g is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / b1t) / (np.sqrt(v / b2t) + self.eps)
            p.value -= self.lr * update
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
    from .evaluation import make_scorer

    scorer = make_scorer(model, inputs)
    recalls, ndcgs = [], []
    for view in val_views:
        scores = scorer(sorted(view.seeds))
        ranked = rank_candidates(scores, view.seeds, k)
        recalls.append(recall_at_k(ranked, view.targets, k))
        ndcgs.append(ndcg_at_k(ranked, view.targets, k))
    if not recalls:
        return 0.0, 0.0
    return float(np.mean(recalls)), float(np.mean(ndcgs))


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
            n_batches = 0
            for start in range(0, len(order), config.batch_size):
                batch = [epoch_views[i] for i in order[start : start + config.batch_size]]
                try:
                    loss, parts = total_loss(batch, model, inputs, rng_train, all_views=epoch_views)
                except NonFiniteError as exc:
                    raise DivergenceError(f"non-finite loss at epoch {epoch}: {exc}") from exc
                value = loss.item()
                if not np.isfinite(value):
                    raise DivergenceError(f"non-finite loss at epoch {epoch}")
                nm.backward(loss)
                opt.step()
                sums["train_loss"] += value
                for key in ("nll", "cl_item", "cl_bundle", "l2"):
                    sums[key] += parts[key]
                n_batches += 1

            val_recall, val_ndcg = _validate(model, inputs, val_views)
            entry = {
                "epoch": epoch,
                "train_loss": sums["train_loss"] / n_batches,
                "nll": sums["nll"] / n_batches,
                "cl_item": sums["cl_item"] / n_batches,
                "cl_bundle": sums["cl_bundle"] / n_batches,
                "l2": sums["l2"] / n_batches,
                "val_recall20": val_recall,
                "val_ndcg20": val_ndcg,
                "seconds": time.perf_counter() - t0,
            }
            history.append(entry)
            if log_fh:
                log_fh.write(json.dumps(entry) + "\n")
                log_fh.flush()
            log.info(
                "epoch %d loss=%.5f nll=%.5f val_ndcg20=%.4f (%.2fs)",
                epoch, entry["train_loss"], entry["nll"], val_ndcg, entry["seconds"],
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

def config_to_dict(config):
    return asdict(config)


def config_from_dict(data):
    data = dict(data)
    aug = AugmentationConfig(**data.pop("augment"))
    ab = AblationFlags(**data.pop("ablation"))
    return TrainConfig(augment=aug, ablation=ab, **data)


def save_checkpoint(path, model, epoch=0, metrics=None):
    named = model.named_trainables()
    matrices = [(name, node.value) for name, node in named]
    matrices.append(("cf_item_table", model.cf.item_table))
    header = {
        "config": config_to_dict(model.config),
        "epoch": epoch,
        "metrics": metrics or {},
        "matrices": [name for name, _ in matrices],
        "frozen": ["cf_item_table"],
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


def _check_manifest(path, config, manifest, arrays):
    """Check that the manifest and the payload hold exactly the matrices the
    config implies, each of the shape the config implies."""
    dims = (config.d, config.l_layers, config.z_layers)
    if not all(type(v) is int and v >= low for v, low in zip(dims, (1, 0, 0))):
        raise CorpusFormatError(
            f"{path}: config d, l_layers, z_layers must be integers >= 1, 0, 0, got {dims}")
    layers = [f"item_{l}_{w}" for l in range(config.l_layers) for w in ("WK", "WQ")]
    layers += [f"bundle_{z}_{w}" for z in range(config.z_layers) for w in ("WK", "WQ")]
    expected = ["W_c", "W_p", "V", *layers, "cf_item_table"]
    if manifest != expected:
        raise CorpusFormatError(
            f"{path}: matrix manifest {manifest!r} does not match the config's {expected}")
    if set(arrays) != set(expected):
        raise CorpusFormatError(f"{path}: matrix manifest does not match payload")
    d = config.d
    n_items, cf_dim = arrays["cf_item_table"].shape
    shapes = {"W_c": (arrays["W_c"].shape[0], d), "W_p": (cf_dim, d), "V": (n_items, d)}
    shapes.update({name: (d, d) for name in layers})
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise CorpusFormatError(
                f"{path}: {name} is {arrays[name].shape}, the config implies {shape}")


def load_checkpoint(path):
    """Rebuild a :class:`Model` (and its metadata) from a checkpoint file.

    A truncated file, an unreadable header or one missing a key, and a
    manifest or payload that does not match the matrices and shapes the
    header's config implies all raise :class:`CorpusFormatError`.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CKPT_MAGIC:
        raise CorpusFormatError(f"{path}: bad magic {blob[:4]!r}")

    def need(offset, size):
        if offset + size > len(blob):
            raise CorpusFormatError(
                f"{path}: truncated, {size} bytes needed at offset {offset} of {len(blob)}")

    def unpack(fmt, offset):
        need(offset, struct.calcsize(fmt))
        return struct.unpack_from(fmt, blob, offset)

    (version,) = unpack("<I", 4)
    if version != CKPT_VERSION:
        raise CorpusFormatError(f"{path}: unsupported version {version}")
    (jlen,) = unpack("<I", 8)
    need(12, jlen)
    try:
        header = json.loads(blob[12 : 12 + jlen])
    except ValueError as exc:
        raise CorpusFormatError(f"{path}: header is not UTF-8 JSON: {exc}") from exc
    missing = [key for key in ("config", "epoch", "metrics", "matrices")
               if not isinstance(header, dict) or key not in header]
    if missing:
        raise CorpusFormatError(f"{path}: header lacks {', '.join(missing)}")
    offset = 12 + jlen
    arrays = {}
    while offset < len(blob):
        (nlen,) = unpack("<I", offset)
        offset += 4
        need(offset, nlen)
        # a damaged name fails the manifest check below
        name = blob[offset : offset + nlen].decode("utf-8", errors="replace")
        offset += nlen
        rows, cols = unpack("<II", offset)
        offset += 8
        count = rows * cols
        need(offset, count * 4)
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset).reshape(rows, cols)
        arrays[name] = arr.copy()
        offset += count * 4
    try:
        config = config_from_dict(header["config"])
        cf_k_layers = int(header.get("cf_k_layers", 0))
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusFormatError(f"{path}: bad config or cf_k_layers in header: {exc!r}") from exc
    _check_manifest(path, config, header["matrices"], arrays)
    dtype = nm.DTYPES[config.precision]
    item_params = ItemEncoderParams(
        w_c=nm.parameter(arrays["W_c"], dtype),
        w_p=nm.parameter(arrays["W_p"], dtype),
        v=nm.parameter(arrays["V"], dtype),
        layers=[
            (
                nm.parameter(arrays[f"item_{l}_WK"], dtype),
                nm.parameter(arrays[f"item_{l}_WQ"], dtype),
            )
            for l in range(config.l_layers)
        ],
    )
    bundle_params = BundleEncoderParams(
        layers=[
            (
                nm.parameter(arrays[f"bundle_{z}_WK"], dtype),
                nm.parameter(arrays[f"bundle_{z}_WQ"], dtype),
            )
            for z in range(config.z_layers)
        ]
    )
    cf = CfEmbeddings(
        user_table=np.zeros((0, arrays["cf_item_table"].shape[1]), dtype=np.float32),
        item_table=arrays["cf_item_table"],
        k_layers=cf_k_layers,
    )
    model = Model(item_params=item_params, bundle_params=bundle_params, cf=cf, config=config)
    return model, header["epoch"], header["metrics"]
