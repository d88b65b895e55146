"""Test-only loss references: the centroid terms, their composition and the
WCE losses as mcoc.losses wrote them before they shared one label pass and
wrote the quality gradient into the margin gradient. Every loss there must
give the same value (==) and the same gradients (np.array_equal) as its
reference here, and raise the same error with the same message."""

import numpy as np

from mcoc.data import QUALITY_ABSENT
from mcoc.errors import MissingQuality
from mcoc.losses import LossOutput
from mcoc.numerics import softplus_sigmoid


def ref_levels(batch, bank):
    q = batch.quality[batch.labels == 0]
    if (q == QUALITY_ABSENT).any():
        raise MissingQuality("bona fide sample without a quality level")
    if (q >= bank.num_centroids).any() or (q < 0).any():
        raise MissingQuality("quality level outside the centroid bank")
    return batch.quality


def ref_margin_term(S, labels, levels, hyper):
    spoof = labels == 1
    rows = np.arange(S.shape[0])
    idx = np.where(spoof, np.argmax(S, axis=1), levels)
    margins = np.where(spoof, hyper.m1, hyper.m0)
    sign = np.where(spoof, -1.0, 1.0)  # (-1)^y
    z = hyper.alpha * (margins - S[rows, idx]) * sign
    loss, sig = softplus_sigmoid(z)
    dS = np.zeros_like(S)
    dS[rows, idx] = sig * (-hyper.alpha * sign) / S.shape[0]
    return float(np.add.reduce(loss) / S.shape[0]), dS


def ref_quality_term(S, labels, levels, hyper):
    bona = labels == 0
    q = levels[bona]
    B = max(q.size, 1)
    rows = np.arange(q.size)
    U = S[bona]
    Z = hyper.s * U
    Z[rows, q] = hyper.s * (U[rows, q] - hyper.m)
    m = np.max(Z, axis=1, keepdims=True)
    e = np.exp(Z - m)
    total = np.add.reduce(e, axis=1, keepdims=True)
    lse = (m + np.log(total))[:, 0]
    P = e / total
    value = float(np.add.reduce(lse - Z[rows, q]) / B)
    G = hyper.s * P
    G[rows, q] -= hyper.s
    dS = np.zeros_like(S)
    dS[bona] = G / B
    return value, dS


def _chain(value, dS, batch, bank, diagnostics):
    return LossOutput(value, dS @ bank.weights, dS.T @ batch.embeddings,
                      diagnostics=diagnostics)


def ref_margin_one_class_loss(batch, bank, hyper):
    S = bank.similarities(batch.embeddings)
    value, dS = ref_margin_term(S, batch.labels, ref_levels(batch, bank), hyper)
    return _chain(value, dS, batch, bank, {"one_class": value})


def ref_oc_softmax_loss(batch, bank, hyper):
    S = bank.similarities(batch.embeddings)
    value, dS = ref_margin_term(S, batch.labels, np.zeros_like(batch.labels),
                                hyper)
    return _chain(value, dS, batch, bank, {"one_class": value})


def ref_quality_loss(batch, bank, hyper):
    S = bank.similarities(batch.embeddings)
    value, dS = ref_quality_term(S, batch.labels, ref_levels(batch, bank),
                                 hyper)
    return _chain(value, dS, batch, bank, {"quality": value})


def ref_combined_loss(batch, bank, hyper):
    S = bank.similarities(batch.embeddings)
    levels = ref_levels(batch, bank)
    oc, dS_oc = ref_margin_term(S, batch.labels, levels, hyper)
    ql, dS_ql = ref_quality_term(S, batch.labels, levels, hyper)
    return _chain(oc + hyper.lam * ql, dS_oc + hyper.lam * dS_ql, batch, bank,
                  {"one_class": oc, "quality": ql})


def ref_wce_loss(batch, head, class_weights=(1.0, 1.0)):
    logits = head.logits(batch.embeddings)
    y = batch.labels
    w = np.where(y == 1, class_weights[1], class_weights[0])
    per, sig = softplus_sigmoid(logits, y)
    value = float(np.add.reduce(w * per) / batch.size)
    dlogit = w * (sig - y) / batch.size
    return LossOutput(
        value=value,
        grad_embeddings=dlogit[:, None] * head.weight[None, :],
        grad_head_weight=batch.embeddings.T @ dlogit,
        grad_head_bias=float(np.add.reduce(dlogit)),
        diagnostics={"one_class": value},
    )


def ref_wce_quality_loss(batch, bank, head, hyper, class_weights=(1.0, 1.0)):
    ce = ref_wce_loss(batch, head, class_weights)
    ql = ref_quality_loss(batch, bank, hyper)
    return LossOutput(
        value=ce.value + hyper.lam * ql.value,
        grad_embeddings=ce.grad_embeddings + hyper.lam * ql.grad_embeddings,
        grad_centroids=hyper.lam * ql.grad_centroids,
        grad_head_weight=ce.grad_head_weight,
        grad_head_bias=ce.grad_head_bias,
        diagnostics={"one_class": ce.value, "quality": ql.value},
    )
