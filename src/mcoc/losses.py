"""Training objectives with values and analytic gradients.

Conventions shared by every loss here:
  * embeddings arrive already unit-normalized; gradients are taken against
    the raw dot products, the encoder applies its normalization Jacobian
  * labels: 0 = bonafide, 1 = spoof; quality = -1 marks "absent"
  * on exact similarity ties the lowest-index centroid wins, and the
    subgradient goes to that same centroid
  * diagnostics hold the detection term (margin loss or WCE) under
    "one_class" and the quality term, where there is one, under "quality"
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import QUALITY_ABSENT
from .errors import ConfigError, DimMismatch, MissingQuality, is_real, require
from .model import BinaryHead, CentroidBank
from .numerics import logsumexp_rows, sigmoid, softmax_rows, softplus


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
        for name, value in self.to_dict().items():
            require(is_real(value), f"hyper.{name}", value, "a number")
        if self.alpha <= 0 or self.s <= 0:
            raise ConfigError("hyper: scales must be positive")
        if not (-1.0 <= self.m1 < self.m0 <= 1.0):
            raise ConfigError("hyper: margins must satisfy -1 <= m1 < m0 <= 1")
        if self.m < 0 or self.lam < 0:
            raise ConfigError("hyper: m and lam must be >= 0")

    def to_dict(self):
        return {
            "alpha": self.alpha, "m0": self.m0, "m1": self.m1,
            "s": self.s, "m": self.m, "lam": self.lam,
        }


@dataclass
class Batch:
    """Mini-batch of unit embeddings with labels and per-sample quality."""

    embeddings: np.ndarray  # (N, D), unit rows
    labels: np.ndarray  # (N,) in {0, 1}
    quality: np.ndarray  # (N,), level index or QUALITY_ABSENT

    def __post_init__(self):
        self.embeddings = np.atleast_2d(np.asarray(self.embeddings, dtype=np.float64))
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


def _select(batch: Batch, bank: CentroidBank):
    sims = bank.similarities(batch.embeddings)  # (N, Q)
    spoof = batch.labels == 1
    idx = np.empty(batch.size, dtype=np.int64)
    if np.any(spoof):
        idx[spoof] = np.argmax(sims[spoof], axis=1)
    bona = ~spoof
    if np.any(bona):
        q = batch.quality[bona]
        if np.any(q == QUALITY_ABSENT):
            raise MissingQuality("bona fide sample without a quality level")
        if np.any(q >= bank.num_centroids) or np.any(q < 0):
            raise MissingQuality("quality level outside the centroid bank")
        idx[bona] = q
    d = sims[np.arange(batch.size), idx]
    return d, idx


def margin_one_class_loss(batch: Batch, bank: CentroidBank,
                          hyper: LossHyper) -> LossOutput:
    """Softplus margin loss over the similarity distance, averaged over the
    batch. Bona fide samples are pushed above m0 against their own-quality
    centroid; spoof samples are pushed below m1 against their best centroid."""
    d, idx = _select(batch, bank)
    spoof = batch.labels == 1
    margins = np.where(spoof, hyper.m1, hyper.m0)
    sign = np.where(spoof, -1.0, 1.0)  # (-1)^y
    z = hyper.alpha * (margins - d) * sign
    value = float(np.mean(softplus(z)))
    # dL_i/dd = sigma(z_i) * (-alpha * sign_i), averaged over N
    dd = sigmoid(z) * (-hyper.alpha * sign) / batch.size
    grad_emb = dd[:, None] * bank.weights[idx]
    grad_cent = np.zeros_like(bank.weights)
    np.add.at(grad_cent, idx, dd[:, None] * batch.embeddings)
    return LossOutput(
        value=value,
        grad_embeddings=grad_emb,
        grad_centroids=grad_cent,
        diagnostics={"one_class": value},
    )


def oc_softmax_loss(batch: Batch, bank: CentroidBank,
                    hyper: LossHyper) -> LossOutput:
    """Single-centroid baseline: the margin loss with every sample routed to
    the one centroid; quality levels are ignored."""
    if bank.num_centroids != 1:
        raise ValueError("oc_softmax_loss requires a single-centroid bank")
    routed = Batch(
        embeddings=batch.embeddings,
        labels=batch.labels,
        quality=np.zeros(batch.size, dtype=np.int64),
    )
    return margin_one_class_loss(routed, bank, hyper)


def quality_loss(batch: Batch, bank: CentroidBank,
                 hyper: LossHyper) -> LossOutput:
    """Additive-margin softmax over quality levels, bona fide samples only,
    normalized by the bona fide count. The margin applies to the target
    logit; non-target logits are plain scaled similarities."""
    bona = batch.labels == 0
    B = int(np.sum(bona))
    if B == 0:
        return LossOutput(
            value=0.0,
            grad_embeddings=np.zeros_like(batch.embeddings),
            grad_centroids=np.zeros_like(bank.weights),
            diagnostics={"quality": 0.0},
        )
    q = batch.quality[bona]
    if np.any(q == QUALITY_ABSENT):
        raise MissingQuality("bona fide sample without a quality level")
    E = batch.embeddings[bona]
    U = E @ bank.weights.T  # (B, Q)
    Z = hyper.s * U
    rows = np.arange(B)
    Z[rows, q] = hyper.s * (U[rows, q] - hyper.m)
    value = float(np.mean(logsumexp_rows(Z) - Z[rows, q]))
    P = softmax_rows(Z)
    G = hyper.s * P
    G[rows, q] -= hyper.s
    G /= B  # dL/dU
    grad_emb = np.zeros_like(batch.embeddings)
    grad_emb[bona] = G @ bank.weights
    return LossOutput(
        value=value,
        grad_embeddings=grad_emb,
        grad_centroids=G.T @ E,
        diagnostics={"quality": value},
    )


def combined_loss(batch: Batch, bank: CentroidBank,
                  hyper: LossHyper) -> LossOutput:
    """One-class term plus lam * quality term. At lam == 0 the quality term
    is reported in diagnostics but contributes nothing, bitwise."""
    oc = margin_one_class_loss(batch, bank, hyper)
    ql = quality_loss(batch, bank, hyper)
    if hyper.lam == 0.0:
        oc.diagnostics = {"one_class": oc.value, "quality": ql.value}
        return oc
    return LossOutput(
        value=oc.value + hyper.lam * ql.value,
        grad_embeddings=oc.grad_embeddings + hyper.lam * ql.grad_embeddings,
        grad_centroids=oc.grad_centroids + hyper.lam * ql.grad_centroids,
        diagnostics={"one_class": oc.value, "quality": ql.value},
    )


def wce_loss(batch: Batch, head: BinaryHead,
             class_weights=(1.0, 1.0)) -> LossOutput:
    """Weighted sigmoid cross-entropy on the head logit (spoof = positive
    class). Mean of per-sample weighted losses over the batch."""
    logits = head.logits(batch.embeddings)
    y = batch.labels.astype(np.float64)
    w = np.where(batch.labels == 1, class_weights[1], class_weights[0])
    # stable BCE-with-logits: max(l,0) - l*y + log1p(e^{-|l|})
    per = np.maximum(logits, 0.0) - logits * y + np.log1p(np.exp(-np.abs(logits)))
    value = float(np.mean(w * per))
    dlogit = w * (sigmoid(logits) - y) / batch.size
    grad_emb = dlogit[:, None] * head.weight[None, :]
    return LossOutput(
        value=value,
        grad_embeddings=grad_emb,
        grad_head_weight=batch.embeddings.T @ dlogit,
        grad_head_bias=float(np.sum(dlogit)),
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
