"""Training objectives with values and analytic gradients.

Conventions shared by every loss here:
  * embeddings arrive already unit-normalized; gradients are taken against
    them as given, the encoder applies its normalization Jacobian
  * every centroid loss reads one similarity matrix S = E @ W.T per call;
    its margin and quality terms each give a value and dL/dS, and one
    helper (_chain) maps dL/dS to the gradients of E and W
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


def _levels(batch: Batch, bank: CentroidBank) -> np.ndarray:
    """Every row's quality level, once each bona fide row is known to have
    one with a centroid in the bank (MissingQuality otherwise)."""
    q = batch.quality[batch.labels == 0]
    if (q == QUALITY_ABSENT).any():
        raise MissingQuality("bona fide sample without a quality level")
    if (q >= bank.num_centroids).any() or (q < 0).any():
        raise MissingQuality("quality level outside the centroid bank")
    return batch.quality


def _margin_term(S, labels, levels, hyper: LossHyper):
    """(value, dL/dS) of the softplus margin loss, averaged over the rows.
    A bona fide row is measured against the centroid of its level, a spoof
    row against its most similar centroid."""
    spoof = labels == 1
    rows = np.arange(S.shape[0])
    idx = np.where(spoof, np.argmax(S, axis=1), levels)
    margins = np.where(spoof, hyper.m1, hyper.m0)
    sign = np.where(spoof, -1.0, 1.0)  # (-1)^y
    z = hyper.alpha * (margins - S[rows, idx]) * sign
    loss, sig = softplus_sigmoid(z)
    dS = np.zeros_like(S)
    # dL_i/dS[i, idx_i] = sigma(z_i) * (-alpha * sign_i), averaged over N
    dS[rows, idx] = sig * (-hyper.alpha * sign) / S.shape[0]
    return float(np.add.reduce(loss) / S.shape[0]), dS


def _quality_term(S, labels, levels, hyper: LossHyper):
    """(value, dL/dS) of the additive-margin softmax over quality levels on
    the bona fide rows, normalized by their count (0 and 0 without any)."""
    bona = labels == 0
    q = levels[bona]
    B = max(q.size, 1)
    rows = np.arange(q.size)
    U = S[bona]
    Z = hyper.s * U
    Z[rows, q] = hyper.s * (U[rows, q] - hyper.m)
    lse, P = logsumexp_softmax_rows(Z)
    value = float(np.add.reduce(lse - Z[rows, q]) / B)
    G = hyper.s * P
    G[rows, q] -= hyper.s
    dS = np.zeros_like(S)
    dS[bona] = G / B
    return value, dS


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
    value, dS = _margin_term(S, batch.labels, _levels(batch, bank), hyper)
    return _chain(value, dS, batch, bank, {"one_class": value})


def oc_softmax_loss(batch: Batch, bank: CentroidBank,
                    hyper: LossHyper) -> LossOutput:
    """Single-centroid baseline: the margin loss with every sample routed to
    the one centroid; quality levels are ignored."""
    if bank.num_centroids != 1:
        raise ValueError("oc_softmax_loss requires a single-centroid bank")
    S = bank.similarities(batch.embeddings)
    value, dS = _margin_term(S, batch.labels, np.zeros_like(batch.labels), hyper)
    return _chain(value, dS, batch, bank, {"one_class": value})


def quality_loss(batch: Batch, bank: CentroidBank,
                 hyper: LossHyper) -> LossOutput:
    """Additive-margin softmax over quality levels, bona fide samples only,
    normalized by the bona fide count. The margin applies to the target
    logit; non-target logits are plain scaled similarities."""
    S = bank.similarities(batch.embeddings)
    value, dS = _quality_term(S, batch.labels, _levels(batch, bank), hyper)
    return _chain(value, dS, batch, bank, {"quality": value})


def combined_loss(batch: Batch, bank: CentroidBank,
                  hyper: LossHyper) -> LossOutput:
    """One-class term plus lam * quality term. At lam == 0 the quality term
    is reported in diagnostics but contributes nothing, bitwise: 0.0 * dS
    adds zeros to the margin gradient."""
    S = bank.similarities(batch.embeddings)
    levels = _levels(batch, bank)
    oc, dS_oc = _margin_term(S, batch.labels, levels, hyper)
    ql, dS_ql = _quality_term(S, batch.labels, levels, hyper)
    return _chain(oc + hyper.lam * ql, dS_oc + hyper.lam * dS_ql, batch, bank,
                  {"one_class": oc, "quality": ql})


def wce_loss(batch: Batch, head: BinaryHead,
             class_weights=(1.0, 1.0)) -> LossOutput:
    """Weighted sigmoid cross-entropy on the head logit (spoof = positive
    class). Mean of per-sample weighted losses over the batch."""
    logits = head.logits(batch.embeddings)
    y = batch.labels  # int 0/1: exact in float64 arithmetic
    w = np.where(y == 1, class_weights[1], class_weights[0])
    per, sig = softplus_sigmoid(logits, y)
    value = float(np.add.reduce(w * per) / batch.size)
    dlogit = w * (sig - y) / batch.size
    grad_emb = dlogit[:, None] * head.weight[None, :]
    return LossOutput(
        value=value,
        grad_embeddings=grad_emb,
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
    return LossOutput(
        value=ce.value + hyper.lam * ql.value,
        grad_embeddings=ce.grad_embeddings + hyper.lam * ql.grad_embeddings,
        grad_centroids=hyper.lam * ql.grad_centroids,
        grad_head_weight=ce.grad_head_weight,
        grad_head_bias=ce.grad_head_bias,
        diagnostics={"one_class": ce.value, "quality": ql.value},
    )
