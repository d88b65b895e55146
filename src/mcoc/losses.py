"""Training objectives with values and analytic gradients.

Conventions shared by every loss here:
  * embeddings arrive already unit-normalized; gradients are taken against
    them as given, the encoder applies its normalization Jacobian
  * every centroid loss reads one similarity matrix S = E @ W.T and checks
    the quality levels once per call; its margin term gives a value and
    dL/dS, its quality term a value and dL/dS on the bona fide rows, and
    one helper (_chain) maps dL/dS to the gradients of E and W
  * labels: 0 = bonafide, 1 = spoof; quality = -1 marks "absent"
  * on exact similarity ties the lowest-index centroid wins, and the
    subgradient goes to that same centroid
  * diagnostics hold the detection term (margin loss or WCE) under
    "one_class" and the quality term, where there is one, under "quality"
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from .data import QUALITY_ABSENT
from .errors import ConfigError, DimMismatch, MissingQuality, is_real, require
from .numerics import as_rows, logsumexp_softmax_rows, softplus_sigmoid

if TYPE_CHECKING:  # model imports LossHyper from here
    from .model import BinaryHead, CentroidBank


@dataclass(frozen=True)
class LossHyper:
    """Scales and margins for the one-class and quality objectives."""

    alpha: float = 20.0  # one-class scale
    m0: float = 0.9  # bona fide margin
    m1: float = 0.2  # spoof margin
    s: float = 20.0  # quality-loss scale
    m: float = 0.4  # quality-loss additive margin
    lam: float = 0.1  # weight of the quality term in the combined objective

    def __post_init__(self):
        for name, value in asdict(self).items():
            require(is_real(value), f"hyper.{name}", value, "a number")
        if self.alpha <= 0 or self.s <= 0:
            raise ConfigError("hyper: scales must be positive")
        if not (-1.0 <= self.m1 < self.m0 <= 1.0):
            raise ConfigError("hyper: margins must satisfy -1 <= m1 < m0 <= 1")
        if self.m < 0 or self.lam < 0:
            raise ConfigError("hyper: m and lam must be >= 0")


@dataclass
class Batch:
    """Mini-batch of unit embeddings with labels and per-sample quality."""

    embeddings: np.ndarray  # (N, D), unit rows
    labels: np.ndarray  # (N,) in {0, 1}
    quality: np.ndarray  # (N,), level index or QUALITY_ABSENT

    def __post_init__(self):
        self.embeddings = as_rows(self.embeddings)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.quality = np.asarray(self.quality, dtype=np.int64)
        n = self.embeddings.shape[0]
        if self.labels.shape != (n,) or self.quality.shape != (n,):
            raise DimMismatch("labels/quality length does not match embeddings")

    @property
    def size(self):
        return self.embeddings.shape[0]


@dataclass
class LossOutput:
    value: float
    grad_embeddings: np.ndarray
    grad_centroids: Optional[np.ndarray] = None
    grad_head_weight: Optional[np.ndarray] = None
    grad_head_bias: Optional[float] = None
    diagnostics: dict = field(default_factory=dict)


def _levels(batch: Batch, bank: CentroidBank):
    """(bona, q): the bona fide row mask and the quality level of each bona
    fide row, once every such level is known to have a centroid in the bank
    (MissingQuality otherwise). One range check passes a good batch, an
    all-spoof one among them; only a batch that fails it is searched for
    the reason, an absent level before one outside the bank."""
    bona = batch.labels == 0
    q = batch.quality[bona]
    if q.size and (np.minimum.reduce(q) < 0
                   or np.maximum.reduce(q) >= bank.num_centroids):
        if (q == QUALITY_ABSENT).any():
            raise MissingQuality("bona fide sample without a quality level")
        raise MissingQuality("quality level outside the centroid bank")
    return bona, q


def _cells(cols, width):
    """Flat index of (i, cols[i]) for every row i of a C-ordered array
    `width` columns wide: what take and put read and write, where a pair of
    index arrays costs more."""
    flat = np.arange(0, cols.size * width, width)
    flat += cols
    return flat


def _margin_term(S, bona, q, hyper: LossHyper):
    """(value, dL/dS) of the softplus margin loss, averaged over the rows.
    A bona fide row is measured against the centroid of its level q, a spoof
    row against its most similar centroid."""
    n = S.shape[0]
    idx = S.argmax(axis=1)
    idx[bona] = q
    cells = _cells(idx, S.shape[1])
    margins = np.where(bona, hyper.m0, hyper.m1)
    # dz/ds, -alpha * (-1)^y: z = (s - margin) * slope is, bit for bit,
    # alpha * (margin - s) * (-1)^y, as negating a difference or a factor
    # is exact
    slope = np.where(bona, -hyper.alpha, hyper.alpha)
    z = S.take(cells)
    z -= margins
    z *= slope
    loss, sig = softplus_sigmoid(z)
    # dL_i/dS[i, idx_i] = sigma(z_i) * slope_i, averaged over N
    sig *= slope
    sig /= n
    dS = np.zeros(S.shape)
    dS.put(cells, sig)
    return float(np.add.reduce(loss) / n), dS


def _quality_term(S, bona, q, hyper: LossHyper):
    """(value, dL/dS[bona]) of the additive-margin softmax over quality
    levels on the bona fide rows, normalized by their count (0 and an empty
    gradient without any). The gradient is a new array, the caller's to
    scale in place."""
    B = max(q.size, 1)
    Z = S[bona]
    cells = _cells(q, Z.shape[1])
    target = Z.take(cells)
    target -= hyper.m
    target *= hyper.s
    Z *= hyper.s
    Z.put(cells, target)
    lse, G = logsumexp_softmax_rows(Z)
    lse -= target
    value = float(np.add.reduce(lse) / B)
    G *= hyper.s
    G.put(cells, G.take(cells) - hyper.s)
    G /= B
    return value, G


def _chain(value, dS, batch: Batch, bank: CentroidBank,
           diagnostics) -> LossOutput:
    """The loss output for dL/dS, S = E @ W.T: the one place where a
    gradient reaches the embeddings E and the centroids W."""
    return LossOutput(value, dS @ bank.weights, dS.T @ batch.embeddings,
                      diagnostics=diagnostics)


def margin_one_class_loss(batch: Batch, bank: CentroidBank,
                          hyper: LossHyper) -> LossOutput:
    """Softplus margin loss over the similarity distance, averaged over the
    batch. Bona fide samples are pushed above m0 against their own-quality
    centroid; spoof samples are pushed below m1 against their best centroid."""
    S = bank.similarities(batch.embeddings)
    value, dS = _margin_term(S, *_levels(batch, bank), hyper)
    return _chain(value, dS, batch, bank, {"one_class": value})


def oc_softmax_loss(batch: Batch, bank: CentroidBank,
                    hyper: LossHyper) -> LossOutput:
    """Single-centroid baseline: the margin loss with every sample routed to
    the one centroid; quality levels are ignored."""
    if bank.num_centroids != 1:
        raise ValueError("oc_softmax_loss requires a single-centroid bank")
    S = bank.similarities(batch.embeddings)
    value, dS = _margin_term(S, batch.labels == 0, 0, hyper)
    return _chain(value, dS, batch, bank, {"one_class": value})


def quality_loss(batch: Batch, bank: CentroidBank,
                 hyper: LossHyper) -> LossOutput:
    """Additive-margin softmax over quality levels, bona fide samples only,
    normalized by the bona fide count. The margin applies to the target
    logit; non-target logits are plain scaled similarities."""
    S = bank.similarities(batch.embeddings)
    bona, q = _levels(batch, bank)
    value, G = _quality_term(S, bona, q, hyper)
    dS = np.zeros(S.shape)  # zero on the spoof rows
    dS[bona] = G
    return _chain(value, dS, batch, bank, {"quality": value})


def combined_loss(batch: Batch, bank: CentroidBank,
                  hyper: LossHyper) -> LossOutput:
    """One-class term plus lam * quality term. The quality gradient G has
    only the bona fide rows, so lam * G is added into those rows of the
    margin gradient: the values of the whole-matrix sum dS_oc + lam * dS_ql,
    whose spoof rows add zeros. At lam == 0 the quality term is reported in
    diagnostics but contributes nothing: lam * G is zeros."""
    S = bank.similarities(batch.embeddings)
    bona, q = _levels(batch, bank)
    oc, dS = _margin_term(S, bona, q, hyper)
    ql, G = _quality_term(S, bona, q, hyper)
    G *= hyper.lam
    dS[bona] += G
    return _chain(oc + hyper.lam * ql, dS, batch, bank,
                  {"one_class": oc, "quality": ql})


def wce_loss(batch: Batch, head: BinaryHead,
             class_weights=(1.0, 1.0)) -> LossOutput:
    """Weighted sigmoid cross-entropy on the head logit (spoof = positive
    class). Mean of per-sample weighted losses over the batch."""
    n = batch.size
    logits = head.logits(batch.embeddings)
    y = batch.labels  # int 0/1: exact in float64 arithmetic
    w = np.where(y == 1, class_weights[1], class_weights[0])
    per, dlogit = softplus_sigmoid(logits, y)
    per *= w
    value = float(np.add.reduce(per) / n)
    # w * (sigmoid - y) / n, computed in place
    dlogit -= y
    dlogit *= w
    dlogit /= n
    return LossOutput(
        value=value,
        grad_embeddings=np.multiply.outer(dlogit, head.weight),
        grad_head_weight=batch.embeddings.T @ dlogit,
        grad_head_bias=float(np.add.reduce(dlogit)),
        diagnostics={"one_class": value},
    )


def wce_quality_loss(batch: Batch, bank: CentroidBank, head: BinaryHead,
                     hyper: LossHyper, class_weights=(1.0, 1.0)) -> LossOutput:
    """WCE on the head plus lam * the quality term on the centroid bank, in
    the same operation order as combined_loss. The bank gets only the
    quality gradient and the head only the WCE one."""
    ce = wce_loss(batch, head, class_weights)
    ql = quality_loss(batch, bank, hyper)
    # ce + lam * ql, written over the quality gradients, which are this
    # call's own
    grad_embeddings = ql.grad_embeddings
    grad_embeddings *= hyper.lam
    grad_embeddings += ce.grad_embeddings
    ql.grad_centroids *= hyper.lam
    return LossOutput(
        value=ce.value + hyper.lam * ql.value,
        grad_embeddings=grad_embeddings,
        grad_centroids=ql.grad_centroids,
        grad_head_weight=ce.grad_head_weight,
        grad_head_bias=ce.grad_head_bias,
        diagnostics={"one_class": ce.value, "quality": ql.value},
    )
