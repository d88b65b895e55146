"""Mini-batch training loop: batching, SGD-momentum/Adam, unit-sphere
projection of centroids after every step, and validation EER tracking.

The loss kinds are the rows of ``OBJECTIVES`` (multi_centroid,
single_centroid, wce, wce_quality). A row gives the arm's centroid count
(or no bank), whether it has a binary head, whether its loss reads the
quality levels, and its loss; ``train`` reads the row and has no per-arm
branch.

``TrainConfig`` and its sections check every value when they are built:
known names for the loss, optimizer, activation and centroid init; JSON
integers for batch_size, epochs, seed and the encoder widths, with epochs
at most MAX_EPOCHS, each width at most MAX_WIDTH and the weights of the
encoder's layers past the first at most MAX_WEIGHTS; finite numbers in
range for the optimizer settings, fractions, noise scale and class weights;
and that orthogonal centroids fit in the embedding. A bad value is a
``ConfigError`` (CLI exit 2) before any data is read. ``check_data`` then
bounds the first layer's weights by the same MAX_WEIGHTS, once the data's
width is known.

Everything is driven by one seeded generator in a fixed call order, so a
config plus seed pins the produced checkpoint byte for byte.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import asdict, astuple, dataclass, field, fields
from itertools import accumulate
from typing import Callable, NamedTuple, Optional

import numpy as np

from .data import (BONAFIDE, Dataset, QualityPolicy, balance_augmentation,
                   require_quality)
from .errors import (ConfigError, DivergenceDetected, ScoreOutOfRange,
                     ZeroNorm, echo, from_dict, is_int, is_real, require)
from .losses import (
    Batch,
    LossHyper,
    LossOutput,
    combined_loss,
    oc_softmax_loss,
    wce_loss,
    wce_quality_loss,
)
from .model import (
    ACTIVATIONS,
    CENTROID_INITS,
    Checkpoint,
    init_centroids,
    init_encoder,
    init_head,
)
from .numerics import make_rng
from .scoring import MAX_HEAD_SCORE, compute_eer, embed, score_matrix


class Objective(NamedTuple):
    """One training arm. ``bank_size(policy)`` is its centroid count (None:
    no bank); ``needs_quality`` says whether its loss reads the quality
    level of every bona fide sample; ``loss(batch, bank, head, config)``
    returns the LossOutput."""

    bank_size: Optional[Callable[[QualityPolicy], int]]
    has_head: bool
    needs_quality: bool
    loss: Callable[..., LossOutput]


# The losses are looked up by their module-level names at call time, so a
# wrapper installed on those names (a tracer, a test) sees every call.
OBJECTIVES = {
    "multi_centroid": Objective(
        lambda policy: policy.num_levels, False, True,
        lambda batch, bank, head, c: combined_loss(batch, bank, c.hyper)),
    "single_centroid": Objective(
        lambda policy: 1, False, False,
        lambda batch, bank, head, c: oc_softmax_loss(batch, bank, c.hyper)),
    "wce": Objective(
        None, True, False,
        lambda batch, bank, head, c: wce_loss(batch, head, c.class_weights)),
    "wce_quality": Objective(
        lambda policy: policy.num_levels, True, True,
        lambda batch, bank, head, c: wce_quality_loss(
            batch, bank, head, c.hyper, c.class_weights)),
}
LOSS_KINDS = tuple(OBJECTIVES)
OPTIMIZER_KINDS = ("adam", "sgd-momentum")
DIVERGENCE_LIMIT = 1e6


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"  # adam | sgd-momentum
    lr: float = 1e-3
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8
    momentum: float = 0.9

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ConfigError(f"unknown optimizer {echo(self.kind)}")
        require(is_real(self.lr) and self.lr > 0,
                "optimizer.lr", self.lr, "a number > 0")
        b = self.betas
        require(isinstance(b, (list, tuple)) and len(b) == 2
                and all(is_real(x) and 0 <= x < 1 for x in b),
                "optimizer.betas", b, "two numbers in [0, 1)")
        object.__setattr__(self, "betas", tuple(b))
        require(is_real(self.eps) and self.eps > 0,
                "optimizer.eps", self.eps, "a number > 0")
        require(is_real(self.momentum) and 0 <= self.momentum < 1,
                "optimizer.momentum", self.momentum, "a number in [0, 1)")


# the most epochs, the widest encoder layer and the most weights a config
# may ask for: more is a run that does not end, or weights too large to hold.
# MAX_WEIGHTS bounds the first layer and, together, the layers past it.
MAX_EPOCHS = 10_000
MAX_WIDTH = 4096
MAX_WEIGHTS = MAX_WIDTH ** 2


@dataclass(frozen=True)
class EncoderConfig:
    hidden: tuple = (32, 32)
    embed_dim: int = 16
    activation: str = "relu"

    def __post_init__(self):
        h = self.hidden
        require(isinstance(h, (list, tuple))
                and all(is_int(x) and 1 <= x <= MAX_WIDTH for x in h),
                "encoder.hidden", h, f"a list of integers in [1, {MAX_WIDTH}]")
        object.__setattr__(self, "hidden", tuple(h))
        require(is_int(self.embed_dim) and 2 <= self.embed_dim <= MAX_WIDTH,
                "encoder.embed_dim", self.embed_dim,
                f"an integer in [2, {MAX_WIDTH}]")
        widths = (*self.hidden, self.embed_dim)
        weights = sum(map(operator.mul, widths, widths[1:]))
        require(weights <= MAX_WEIGHTS, "encoder: the weights past the first "
                "layer", weights, f"at most {MAX_WEIGHTS}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {echo(self.activation)}")


@dataclass(frozen=True)
class TrainConfig:
    loss: str = "multi_centroid"
    hyper: LossHyper = field(default_factory=LossHyper)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    policy: QualityPolicy = field(default_factory=QualityPolicy)
    batch_size: int = 32
    epochs: int = 50
    seed: int = 0
    augment_fraction: float = 0.4
    noise_scale: float = 0.3
    val_fraction: float = 0.2
    centroid_init: str = "orthogonal"
    class_weights: tuple = (1.0, 1.0)

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ConfigError(f"unknown loss {echo(self.loss)}")
        for name in ("batch_size", "epochs", "seed"):
            value = getattr(self, name)
            require(is_int(value), name, value, "an integer")
        require(self.seed >= 0, "seed", self.seed, ">= 0")
        if self.centroid_init not in CENTROID_INITS:
            raise ConfigError(f"unknown centroid_init {echo(self.centroid_init)}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        require(self.epochs <= MAX_EPOCHS, "epochs", self.epochs,
                f"at most {MAX_EPOCHS}")
        require(is_real(self.val_fraction) and 0 <= self.val_fraction < 1,
                "val_fraction", self.val_fraction, "a number in [0, 1)")
        require(is_real(self.augment_fraction)
                and 0 <= self.augment_fraction <= 1,
                "augment_fraction", self.augment_fraction, "a number in [0, 1]")
        require(is_real(self.noise_scale) and self.noise_scale >= 0,
                "noise_scale", self.noise_scale, "a number >= 0")
        w = self.class_weights
        require(isinstance(w, (list, tuple)) and len(w) == 2
                and all(is_real(x) and x > 0 for x in w),
                "class_weights", w, "two numbers > 0")
        object.__setattr__(self, "class_weights", tuple(w))
        bank_size = OBJECTIVES[self.loss].bank_size
        if bank_size is not None and self.centroid_init == "orthogonal":
            q, d = bank_size(self.policy), self.encoder.embed_dim
            if q > d:
                raise ConfigError(f"orthogonal centroid_init needs at most "
                                  f"encoder.embed_dim ({d}) centroids, got {q}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """Inverse of to_dict; errors name `config` or `config.<section>`."""
        return from_dict(cls, d, "config")


def benchmark_train_config(seed: int, lam: float = 0.1,
                           loss: str = "multi_centroid") -> TrainConfig:
    """Training setup paired with data.benchmark_spec: 50 epochs of Adam at
    lr 0.01 on the desk-scale synthetic benchmark."""
    return TrainConfig(
        loss=loss,
        seed=seed,
        epochs=50,
        hyper=LossHyper(lam=lam),
        optimizer=OptimizerConfig(lr=0.01),
    )


def make_batches(n, batch_size, rng):
    """Row indices of one epoch: a seeded shuffle of range(n) (one
    ``rng.permutation(n)`` call), cut into contiguous chunks; the last
    partial chunk stays."""
    order = rng.permutation(n)
    return [order[k:k + batch_size] for k in range(0, n, batch_size)]


class _Optimizer:
    """SGD-momentum or Adam over every parameter at once.

    The optimizer copies the parameters into one flat buffer it owns;
    ``params`` are views of that buffer, one per given array and shaped
    like it, and the model trains through them. Beside it lies a flat
    gradient buffer ``grad`` with views ``grads`` in the same order, which
    the trainer fills before each ``step()``. The moments are flat buffers
    too. A step runs each update op once over the flat arrays, in the same
    floating-point order as a per-array update, so the result is bitwise
    the same; it overwrites ``grad`` with the update and ends in one
    subtraction from the parameter buffer.
    """

    def __init__(self, params, config: OptimizerConfig):
        self.config = config
        self.flat = np.concatenate(params, axis=None)
        self.grad = np.empty_like(self.flat)
        ends = list(accumulate(p.size for p in params))
        spans = list(zip(params, [0] + ends[:-1], ends))
        self.params = [self.flat[i:j].reshape(p.shape) for p, i, j in spans]
        self.grads = [self.grad[i:j].reshape(p.shape) for p, i, j in spans]
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.t = 0

    def step(self):
        c = self.config
        self.t += 1
        # g, the gradient buffer, ends up holding the update; a is this
        # step's own scratch, not kept between steps so that peak memory
        # stays low
        g = self.grad
        if c.kind == "sgd-momentum":
            self.m *= c.momentum
            self.m += g
            np.multiply(c.lr, self.m, out=g)
        else:
            b1, b2 = c.betas
            a = np.multiply(1 - b1, g)
            self.m *= b1
            self.m += a
            np.multiply(1 - b2, g, out=a)
            a *= g
            self.v *= b2
            self.v += a
            np.divide(self.m, 1 - b1 ** self.t, out=g)
            g *= c.lr
            np.divide(self.v, 1 - b2 ** self.t, out=a)
            np.sqrt(a, out=a)
            a += c.eps
            g /= a
        self.flat -= g


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    loss_one_class: float
    loss_quality: float
    val_eer_ensemble: Optional[float]
    val_eer_max: Optional[float]
    val_eer_head: Optional[float]
    centroid_cosine: Optional[float]


@dataclass
class TrainReport:
    config: dict
    epochs: list = field(default_factory=list)  # EpochMetrics
    final_checkpoint: Optional[str] = None

    def to_dict(self):
        return asdict(self)

    def write_csv(self, path):
        """One row per epoch; csv writes None as an empty cell and a float
        as its repr."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow([f.name for f in fields(EpochMetrics)])
            w.writerows(astuple(e) for e in self.epochs)


def _val_eers(encoder, bank, head, val: Dataset, bona):
    """Validation EERs (ensemble, max, head; None where the arm has no bank
    or head) of the rows `val`, embedded in blocks of BLOCK_ROWS rows. `bona`
    is their bona fide mask, or None when they cannot give an EER (no rows,
    or only one class); then no forward runs."""
    if bona is None:
        return None, None, None
    emb = embed(val, encoder)
    out = []
    for strat, needed in (("ensemble", bank), ("max", bank), ("head", head)):
        if needed is None:
            out.append(None)
            continue
        sc = score_matrix(emb, strat, bank, head)
        out.append(compute_eer(sc[bona], sc[~bona])[0])
    return tuple(out)


def check_data(records: Dataset, config: TrainConfig):
    """ConfigError when the encoder's first layer, from the records' width
    to the first configured width, has more than MAX_WEIGHTS weights; then
    MissingQuality naming the first bona fide record without a quality
    level, when the configured loss reads quality levels. Checked on the
    whole set, so the answer does not depend on the seeded split."""
    dim = records.X.shape[1]
    first = (*config.encoder.hidden, config.encoder.embed_dim)[0]
    require(dim * first <= MAX_WEIGHTS, f"the first encoder layer's weights "
            f"({dim} features times {first})", dim * first,
            f"at most {MAX_WEIGHTS}")
    if OBJECTIVES[config.loss].needs_quality:
        require_quality(records, records.y == BONAFIDE,
                        f"{config.loss} loss needs mos on bona fide records")


# numpy's overflow and invalid-value warnings are off: a value that leaves
# the float range ends as a non-finite loss, norm or centroid, which the
# checks below report as a divergence in one line
@np.errstate(over="ignore", invalid="ignore")
def train(records: Dataset, config: TrainConfig):
    """Run the configured arm end to end. Returns (report, checkpoint).

    A split that leaves no record to train on is a ConfigError, raised
    before any training. A zero or non-finite vector from the encoder or a
    collapsed centroid, and a loss out of bounds, raise DivergenceDetected
    naming the epoch and the batch (both counted from 1), or the epoch when
    the validation pass meets it; so does a head score that scoring
    refuses, which only the validation pass computes, and a final head
    whose weight norm plus |bias| is over MAX_HEAD_SCORE, which could give
    one on other rows. Past its copies of the records, memory is bounded by
    the batch and BLOCK_ROWS: each step gathers and frees its own rows,
    activations and loss output; validation embeds in blocks."""
    n_val = int(round(config.val_fraction * len(records)))
    if n_val == len(records):
        raise ConfigError(f"no training records: {n_val} of {n_val} go to "
                          f"validation (val_fraction {config.val_fraction})")
    check_data(records, config)
    rng = make_rng(config.seed)

    # split, then augment the training part only
    perm = rng.permutation(len(records))
    val = records.take(perm[:n_val])
    tr = balance_augmentation(records.take(perm[n_val:]),
                              config.augment_fraction, config.noise_scale, rng)

    encoder = init_encoder(
        records.X.shape[1], config.encoder.hidden, config.encoder.embed_dim, rng,
        config.encoder.activation,
    )
    objective = OBJECTIVES[config.loss]
    bank = None
    if objective.bank_size is not None:
        bank = init_centroids(objective.bank_size(config.policy),
                              config.encoder.embed_dim, config.centroid_init, rng)
    head = init_head(config.encoder.embed_dim, rng) if objective.has_head else None

    # the one parameter order: the optimizer's buffers follow it (the float
    # head bias enters as a 0-d array): encoder pairs, then the parameters
    # of the bank and the head, whose gradients the loss output names
    slots = [(layer, name) for layer in encoder.layers
             for name in ("weight", "bias")]
    loss_grad_names = []
    if bank is not None:
        slots.append((bank, "weights"))
        loss_grad_names.append("grad_centroids")
    if head is not None:
        slots += [(head, "weight"), (head, "bias")]
        loss_grad_names += ["grad_head_weight", "grad_head_bias"]
    opt = _Optimizer([np.asarray(getattr(owner, name), dtype=np.float64)
                      for owner, name in slots], config.optimizer)
    # from here on the model trains through the optimizer's views
    for (owner, name), view in zip(slots, opt.params):
        setattr(owner, name, view)
    # backward writes the encoder's gradients straight into their views
    n_enc = 2 * len(encoder.layers)
    encoder_grads = list(zip(opt.grads[0:n_enc:2], opt.grads[1:n_enc:2]))

    # the validation set is fixed, so whether it can give an EER is too
    val_bona = val.y == BONAFIDE
    if not 0 < np.count_nonzero(val_bona) < len(val):
        val_bona = None
    # each step copies the loss's bank and head gradients into these views
    loss_grads = list(zip(opt.grads[n_enc:], loss_grad_names))

    report = TrainReport(config=config.to_dict())
    for epoch in range(1, config.epochs + 1):
        total, total_oc, total_ql = 0.0, 0.0, 0.0
        batches = make_batches(len(tr), config.batch_size, rng)
        for b, idx in enumerate(batches, start=1):
            nb = len(idx)
            try:
                # gathered by its own indices: a step copies its rows only
                emb, cache = encoder.forward(tr.X[idx])
                batch = Batch(embeddings=emb, labels=tr.y[idx],
                              quality=tr.quality[idx])

                out = objective.loss(batch, bank, head, config)
                if not math.isfinite(out.value) or abs(out.value) > DIVERGENCE_LIMIT:
                    raise DivergenceDetected(
                        f"epoch {epoch}, batch {b}: loss {out.value!r} "
                        f"out of bounds")
                encoder.backward(cache, out.grad_embeddings, encoder_grads)
                for view, name in loss_grads:
                    view[...] = getattr(out, name)
                opt.step()
                if bank is not None:
                    bank.renormalize()
            except ZeroNorm as exc:
                raise DivergenceDetected(f"epoch {epoch}, batch {b}: {exc}") from exc

            total += out.value * nb
            total_oc += out.diagnostics["one_class"] * nb
            total_ql += out.diagnostics.get("quality", 0.0) * nb
            del emb, cache, batch, out  # freed before the next forward

        try:
            eer_ens, eer_max, eer_head = _val_eers(encoder, bank, head, val,
                                                   val_bona)
        except (ZeroNorm, ScoreOutOfRange) as exc:
            raise DivergenceDetected(f"epoch {epoch}, validation: {exc}") from exc
        cosines = bank.pairwise_cosines() if bank is not None else np.array([])
        report.epochs.append(EpochMetrics(
            epoch=epoch,
            train_loss=total / len(tr),
            loss_one_class=total_oc / len(tr),
            loss_quality=total_ql / len(tr),
            val_eer_ensemble=eer_ens,
            val_eer_max=eer_max,
            val_eer_head=eer_head,
            # np.mean's bits, without its wrapper
            centroid_cosine=(float(np.add.reduce(cosines) / cosines.size)
                             if cosines.size else None),
        ))

    if head is not None:
        # a unit embedding scores within ||w|| + |b| of zero; the validation
        # pass bounds only the scores of its rows, or none without them
        bound = float(np.linalg.norm(head.weight)) + abs(float(head.bias))
        if not bound <= MAX_HEAD_SCORE:
            raise DivergenceDetected(
                f"epoch {config.epochs}: binary head weight norm plus |bias| "
                f"{bound!r} is over {MAX_HEAD_SCORE!r}, so its scores could "
                f"leave [-{MAX_HEAD_SCORE!r}, {MAX_HEAD_SCORE!r}]")

    ckpt = Checkpoint(
        encoder=encoder,
        bank=bank,
        head=head,
        policy=config.policy,
        hyper=config.hyper,
        metadata={
            "seed": config.seed,
            "epochs": config.epochs,
            "loss": config.loss,
            "final_train_loss": report.epochs[-1].train_loss,
        },
    )
    return report, ckpt
