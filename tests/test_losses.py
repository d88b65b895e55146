import math

import numpy as np
import pytest

from mcoc.errors import DimMismatch, MissingQuality
from mcoc.losses import (
    Batch,
    LossHyper,
    LossOutput,
    QUALITY_ABSENT,
    _levels,
    combined_loss,
    margin_one_class_loss,
    oc_softmax_loss,
    quality_loss,
    wce_loss,
    wce_quality_loss,
)
from mcoc.model import BinaryHead, CentroidBank, init_centroids
from mcoc.numerics import make_rng

import loss_reference as prev
from numeric_reference import (
    finite_diff_grad,
    logsumexp_rows,
    sigmoid,
    softmax_rows,
    softplus,
)

HYPER = LossHyper()


# ---- independent scalar oracles: direct transcription, no shared code ----

def one_class_sample_oracle(emb, label, quality, W, hyper):
    sims = [sum(w[k] * emb[k] for k in range(len(emb))) for w in W]
    d = sims[quality] if label == 0 else max(sims)
    margin = hyper.m1 if label == 1 else hyper.m0
    sign = -1.0 if label == 1 else 1.0
    return math.log(1.0 + math.exp(hyper.alpha * (margin - d) * sign))


def quality_sample_oracle(emb, quality, W, hyper):
    sims = [sum(w[k] * emb[k] for k in range(len(emb))) for w in W]
    num = math.exp(hyper.s * (sims[quality] - hyper.m))
    den = num + sum(math.exp(hyper.s * sims[j])
                    for j in range(len(W)) if j != quality)
    return -math.log(num / den)


def random_batch(rng, n, q_levels, dim, all_spoof=False):
    emb = rng.normal(size=(n, dim))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    labels = np.ones(n, dtype=np.int64) if all_spoof \
        else rng.integers(0, 2, size=n)
    qual = np.where(labels == 0, rng.integers(0, q_levels, size=n),
                    QUALITY_ABSENT)
    bank = init_centroids(q_levels, dim, "random-unit", rng)
    return Batch(emb, labels, qual), bank


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a),
                                       np.linalg.norm(b), 1e-8)


# ---- similarity distance ----

def similarity_distance(embedding, label, quality, bank: CentroidBank):
    """Per-sample distance oracle: own-quality similarity for bona fide, max
    over centroids for spoof. Returns (distance, centroid_index)."""
    sims = bank.similarities(np.asarray(embedding, dtype=np.float64))[0]
    if label == 0:
        if quality is None or quality == QUALITY_ABSENT:
            raise MissingQuality("bona fide sample without a quality level")
        return float(sims[quality]), int(quality)
    idx = int(np.argmax(sims))  # argmax takes the first max, our tie-break
    return float(sims[idx]), idx


def test_similarity_distance_spoof_max():
    bank = CentroidBank(np.array([[1.0, 0.0], [0.0, 1.0]]))
    emb = np.array([0.3, 0.7]) / np.hypot(0.3, 0.7)
    d, idx = similarity_distance(emb, 1, None, bank)
    assert idx == 1 and d == pytest.approx(emb[1])


def test_similarity_distance_bonafide_uses_own():
    bank = CentroidBank(np.array([[1.0, 0.0], [0.0, 1.0]]))
    emb = np.array([0.3, 0.7]) / np.hypot(0.3, 0.7)
    d, idx = similarity_distance(emb, 0, 0, bank)
    assert idx == 0 and d == pytest.approx(emb[0])


def test_similarity_distance_tie_breaks_low():
    bank = CentroidBank(np.array([[1.0, 0.0], [1.0, 0.0]]))
    _, idx = similarity_distance(np.array([1.0, 0.0]), 1, None, bank)
    assert idx == 0


def test_similarity_distance_missing_quality():
    bank = CentroidBank(np.eye(2))
    with pytest.raises(MissingQuality):
        similarity_distance(np.array([1.0, 0.0]), 0, None, bank)


# ---- one-class margin loss ----

def test_margin_boundary_is_ln2_bonafide():
    # pick an embedding whose similarity to centroid 0 is exactly m0
    bank = CentroidBank(np.array([[1.0, 0.0]]))
    emb = np.array([[0.9, math.sqrt(1 - 0.81)]])
    b = Batch(emb, np.array([0]), np.array([0]))
    out = margin_one_class_loss(b, bank, HYPER)
    assert out.value == pytest.approx(math.log(2), abs=1e-12)


def test_margin_boundary_is_ln2_spoof():
    bank = CentroidBank(np.array([[1.0, 0.0]]))
    emb = np.array([[0.2, math.sqrt(1 - 0.04)]])
    b = Batch(emb, np.array([1]), np.array([QUALITY_ABSENT]))
    out = margin_one_class_loss(b, bank, HYPER)
    assert out.value == pytest.approx(math.log(2), abs=1e-12)


def test_margin_loss_value_and_slope_at_d1():
    bank = CentroidBank(np.array([[1.0, 0.0]]))
    b = Batch(np.array([[1.0, 0.0]]), np.array([0]), np.array([0]))
    out = margin_one_class_loss(b, bank, HYPER)
    assert out.value == pytest.approx(math.log(1 + math.exp(-2)), abs=1e-12)
    # d(value)/dd = -alpha*sigmoid(-2); embedding gradient along the centroid
    slope = out.grad_embeddings[0] @ bank.weights[0]
    assert slope == pytest.approx(-20.0 / (1 + math.exp(2)), rel=1e-12)


def test_margin_loss_monotone_in_distance():
    hyper = HYPER
    bank = CentroidBank(np.array([[1.0, 0.0]]))
    for label, sign in ((0, -1.0), (1, 1.0)):
        for d in (-0.5, 0.0, 0.4, 0.9):
            emb = np.array([[d, math.sqrt(1 - d * d)]])
            q = np.array([0 if label == 0 else QUALITY_ABSENT])
            out = margin_one_class_loss(Batch(emb, np.array([label]), q),
                                        bank, hyper)
            slope = out.grad_embeddings[0] @ bank.weights[0]
            assert np.sign(slope) == sign


def test_margin_loss_matches_sample_oracle():
    rng = make_rng(42)
    for _ in range(300):
        q_levels = int(rng.integers(1, 5))
        dim = int(rng.choice([4, 16]))
        batch, bank = random_batch(rng, 1, q_levels, dim)
        out = margin_one_class_loss(batch, bank, HYPER)
        expected = one_class_sample_oracle(
            batch.embeddings[0], int(batch.labels[0]),
            int(batch.quality[0]) if batch.labels[0] == 0 else None,
            bank.weights, HYPER,
        )
        assert abs(out.value - expected) < 1e-10


def test_margin_loss_batch_is_mean_of_samples():
    rng = make_rng(7)
    batch, bank = random_batch(rng, 12, 3, 8)
    out = margin_one_class_loss(batch, bank, HYPER)
    per = [
        one_class_sample_oracle(
            batch.embeddings[i], int(batch.labels[i]),
            int(batch.quality[i]) if batch.labels[i] == 0 else None,
            bank.weights, HYPER)
        for i in range(batch.size)
    ]
    assert out.value == pytest.approx(np.mean(per), abs=1e-12)


def test_margin_loss_permutation_invariant():
    rng = make_rng(8)
    batch, bank = random_batch(rng, 10, 2, 6)
    perm = rng.permutation(10)
    shuffled = Batch(batch.embeddings[perm], batch.labels[perm],
                     batch.quality[perm])
    a = margin_one_class_loss(batch, bank, HYPER).value
    b = margin_one_class_loss(shuffled, bank, HYPER).value
    assert a == pytest.approx(b, abs=1e-14)


# ---- quality loss ----

def test_quality_loss_all_spoof_is_zero():
    rng = make_rng(3)
    batch, bank = random_batch(rng, 5, 2, 4, all_spoof=True)
    out = quality_loss(batch, bank, HYPER)
    assert out.value == 0.0
    assert np.all(out.grad_embeddings == 0) and np.all(out.grad_centroids == 0)


def test_quality_loss_separated_logits_near_zero():
    # target similarity 1, competitor -1: exponent gap s(1-m) - s(-1) = 32
    bank = CentroidBank(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    b = Batch(np.array([[1.0, 0.0]]), np.array([0]), np.array([0]))
    out = quality_loss(b, bank, HYPER)
    assert out.value == pytest.approx(math.log(1 + math.exp(-32)), abs=1e-15)
    assert out.value < 1e-13


def test_quality_loss_equal_logits_margin_decides():
    # both similarities equal: value reduces to softplus(s*m) = log(1+e^8)
    bank = CentroidBank(np.array([[1.0, 0.0], [1.0, 0.0]]))
    b = Batch(np.array([[0.5, math.sqrt(0.75)]]), np.array([0]), np.array([0]))
    out = quality_loss(b, bank, HYPER)
    assert out.value == pytest.approx(math.log(1 + math.exp(8.0)), abs=1e-12)


def test_quality_loss_matches_sample_oracle():
    rng = make_rng(43)
    for _ in range(300):
        q_levels = int(rng.integers(2, 5))
        dim = int(rng.choice([4, 16]))
        emb = rng.normal(size=(1, dim))
        emb /= np.linalg.norm(emb)
        q = int(rng.integers(0, q_levels))
        bank = init_centroids(q_levels, dim, "random-unit", rng)
        b = Batch(emb, np.array([0]), np.array([q]))
        out = quality_loss(b, bank, HYPER)
        assert abs(out.value - quality_sample_oracle(emb[0], q, bank.weights,
                                                     HYPER)) < 1e-10


def test_quality_loss_normalizes_by_bonafide_count():
    rng = make_rng(9)
    batch, bank = random_batch(rng, 10, 2, 6)
    bona = batch.labels == 0
    out = quality_loss(batch, bank, HYPER)
    per = [quality_sample_oracle(batch.embeddings[i], int(batch.quality[i]),
                                 bank.weights, HYPER)
           for i in range(10) if bona[i]]
    assert out.value == pytest.approx(np.mean(per), abs=1e-12)


def test_quality_loss_spoof_rows_get_no_gradient():
    rng = make_rng(10)
    batch, bank = random_batch(rng, 8, 2, 5)
    out = quality_loss(batch, bank, HYPER)
    assert np.all(out.grad_embeddings[batch.labels == 1] == 0)


def test_quality_loss_bonafide_permutation_invariant():
    rng = make_rng(11)
    batch, bank = random_batch(rng, 10, 2, 5)
    perm = rng.permutation(10)
    shuffled = Batch(batch.embeddings[perm], batch.labels[perm],
                     batch.quality[perm])
    assert quality_loss(batch, bank, HYPER).value == pytest.approx(
        quality_loss(shuffled, bank, HYPER).value, abs=1e-14)


# ---- combined ----

def test_combined_lambda_zero_equals_one_class_bitwise():
    rng = make_rng(12)
    batch, bank = random_batch(rng, 8, 2, 6)
    hyper = LossHyper(lam=0.0)
    a = combined_loss(batch, bank, hyper)
    b = margin_one_class_loss(batch, bank, hyper)
    assert a.value == b.value
    assert np.array_equal(a.grad_embeddings, b.grad_embeddings)
    assert np.array_equal(a.grad_centroids, b.grad_centroids)
    assert "quality" in a.diagnostics


def test_combined_weighting_arithmetic():
    rng = make_rng(13)
    batch, bank = random_batch(rng, 8, 2, 6)
    out = combined_loss(batch, bank, HYPER)
    oc = margin_one_class_loss(batch, bank, HYPER).value
    ql = quality_loss(batch, bank, HYPER).value
    assert out.value == pytest.approx(oc + 0.1 * ql, abs=1e-14)
    assert out.diagnostics == {"one_class": oc, "quality": ql}


# ---- single-centroid baseline ----

def test_oc_softmax_equals_margin_loss_with_one_centroid():
    rng = make_rng(14)
    batch, bank = random_batch(rng, 8, 1, 6)
    routed = Batch(batch.embeddings, batch.labels,
                   np.zeros(batch.size, dtype=np.int64))
    a = oc_softmax_loss(batch, bank, HYPER)
    b = margin_one_class_loss(routed, bank, HYPER)
    assert a.value == b.value
    assert np.array_equal(a.grad_embeddings, b.grad_embeddings)


def test_oc_softmax_rejects_multi_bank():
    rng = make_rng(15)
    batch, bank = random_batch(rng, 4, 2, 6)
    with pytest.raises(ValueError):
        oc_softmax_loss(batch, bank, HYPER)


# ---- weighted cross-entropy ----

def test_wce_zero_logit_is_ln2():
    head = BinaryHead(weight=np.zeros(3), bias=0.0)
    for label in (0, 1):
        b = Batch(np.array([[1.0, 0, 0]]), np.array([label]),
                  np.array([QUALITY_ABSENT]))
        assert wce_loss(b, head).value == pytest.approx(math.log(2), abs=1e-15)


def test_wce_confident_correct_goes_to_zero():
    head = BinaryHead(weight=np.array([50.0, 0.0]), bias=0.0)
    emb = np.array([[-1.0, 0.0], [1.0, 0.0]])  # bona gets logit -50, spoof +50
    b = Batch(emb, np.array([0, 1]), np.array([QUALITY_ABSENT, QUALITY_ABSENT]))
    assert wce_loss(b, head).value < 1e-20


def test_wce_gradients_match_finite_differences():
    rng = make_rng(16)
    batch, _ = random_batch(rng, 6, 2, 5)
    head = BinaryHead(weight=rng.normal(size=5), bias=0.2)
    out = wce_loss(batch, head, (1.0, 2.0))
    gw = finite_diff_grad(
        lambda w: wce_loss(batch, BinaryHead(w, head.bias), (1.0, 2.0)).value,
        head.weight)
    ge = finite_diff_grad(
        lambda E: wce_loss(Batch(E, batch.labels, batch.quality), head,
                           (1.0, 2.0)).value,
        batch.embeddings)
    assert rel_err(out.grad_head_weight, gw) < 1e-4
    assert rel_err(out.grad_embeddings, ge) < 1e-4


# ---- wce plus the quality term ----

@pytest.mark.parametrize("lam", [0.1, 0.0])
def test_wce_quality_equals_inline_composition_bitwise(lam):
    # the composition the training loop used to spell out by hand
    rng = make_rng(19)
    batch, bank = random_batch(rng, 9, 2, 6)
    assert 0 < np.sum(batch.labels) < batch.size
    head = BinaryHead(weight=rng.normal(size=6), bias=-0.3)
    hyper = LossHyper(lam=lam)
    out = wce_quality_loss(batch, bank, head, hyper, (1.0, 2.0))
    ce = wce_loss(batch, head, (1.0, 2.0))
    ql = quality_loss(batch, bank, hyper)
    assert out.value == ce.value + lam * ql.value
    assert np.array_equal(out.grad_embeddings,
                          ce.grad_embeddings + lam * ql.grad_embeddings)
    assert np.array_equal(out.grad_centroids, lam * ql.grad_centroids)
    assert np.array_equal(out.grad_head_weight, ce.grad_head_weight)
    assert out.grad_head_bias == ce.grad_head_bias
    assert out.diagnostics == {"one_class": ce.value, "quality": ql.value}


# ---- gradient spot checks (the full 100-config sweep lives in acceptance) ----

@pytest.mark.parametrize("fn", [margin_one_class_loss, quality_loss,
                                combined_loss])
def test_loss_gradients_match_finite_differences(fn):
    rng = make_rng(17)
    for _ in range(5):
        batch, bank = random_batch(rng, int(rng.integers(2, 10)), 2, 6)
        out = fn(batch, bank, HYPER)
        ge = finite_diff_grad(
            lambda E: fn(Batch(E, batch.labels, batch.quality), bank,
                         HYPER).value,
            batch.embeddings)
        gc = finite_diff_grad(
            lambda W: fn(batch, CentroidBank(W), HYPER).value, bank.weights)
        assert rel_err(out.grad_embeddings, ge) < 1e-4
        assert rel_err(out.grad_centroids, gc) < 1e-4


def test_missing_quality_raises():
    rng = make_rng(18)
    batch, bank = random_batch(rng, 4, 2, 5)
    bad = Batch(batch.embeddings, np.zeros(4, dtype=np.int64),
                np.full(4, QUALITY_ABSENT))
    with pytest.raises(MissingQuality):
        margin_one_class_loss(bad, bank, HYPER)


# ---- reference: each centroid term with its own similarities and its own
# scatter of the gradient into E and W. The library sums dL/dS over the
# terms before one chain rule: the same math with other rounding, which
# test_centroid_losses_match_reference bounds. ----

def _ref_select(batch, bank):
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


def ref_margin_one_class_loss(batch, bank, hyper):
    d, idx = _ref_select(batch, bank)
    spoof = batch.labels == 1
    margins = np.where(spoof, hyper.m1, hyper.m0)
    sign = np.where(spoof, -1.0, 1.0)
    z = hyper.alpha * (margins - d) * sign
    value = float(np.mean(softplus(z)))
    dd = sigmoid(z) * (-hyper.alpha * sign) / batch.size
    grad_cent = np.zeros_like(bank.weights)
    np.add.at(grad_cent, idx, dd[:, None] * batch.embeddings)
    return LossOutput(value=value, grad_embeddings=dd[:, None] * bank.weights[idx],
                      grad_centroids=grad_cent, diagnostics={"one_class": value})


def ref_oc_softmax_loss(batch, bank, hyper):
    routed = Batch(batch.embeddings, batch.labels,
                   np.zeros(batch.size, dtype=np.int64))
    return ref_margin_one_class_loss(routed, bank, hyper)


def ref_quality_loss(batch, bank, hyper):
    bona = batch.labels == 0
    B = int(np.sum(bona))
    if B == 0:
        return LossOutput(value=0.0, grad_embeddings=np.zeros_like(batch.embeddings),
                          grad_centroids=np.zeros_like(bank.weights),
                          diagnostics={"quality": 0.0})
    q = batch.quality[bona]
    if np.any(q == QUALITY_ABSENT):
        raise MissingQuality("bona fide sample without a quality level")
    E = batch.embeddings[bona]
    U = E @ bank.weights.T
    Z = hyper.s * U
    rows = np.arange(B)
    Z[rows, q] = hyper.s * (U[rows, q] - hyper.m)
    value = float(np.mean(logsumexp_rows(Z) - Z[rows, q]))
    G = hyper.s * softmax_rows(Z)
    G[rows, q] -= hyper.s
    G /= B
    grad_emb = np.zeros_like(batch.embeddings)
    grad_emb[bona] = G @ bank.weights
    return LossOutput(value=value, grad_embeddings=grad_emb,
                      grad_centroids=G.T @ E, diagnostics={"quality": value})


def ref_combined_loss(batch, bank, hyper):
    oc = ref_margin_one_class_loss(batch, bank, hyper)
    ql = ref_quality_loss(batch, bank, hyper)
    if hyper.lam == 0.0:
        oc.diagnostics = {"one_class": oc.value, "quality": ql.value}
        return oc
    return LossOutput(
        value=oc.value + hyper.lam * ql.value,
        grad_embeddings=oc.grad_embeddings + hyper.lam * ql.grad_embeddings,
        grad_centroids=oc.grad_centroids + hyper.lam * ql.grad_centroids,
        diagnostics={"one_class": oc.value, "quality": ql.value},
    )


def test_centroid_losses_match_reference():
    rng = make_rng(20)
    ties = 0
    for trial in range(1200):
        n = int(rng.integers(1, 33))
        q_levels = int(rng.choice([1, 2, 4]))
        dim = int(rng.choice([4, 16]))
        hyper = LossHyper(lam=float(rng.choice([0.0, 0.1, 1.0])))
        emb = rng.normal(size=(n, dim))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        kind = ("mixed", "all_spoof", "all_bonafide", "ties")[trial % 4]
        labels = rng.integers(0, 2, size=n)
        if kind in ("all_spoof", "all_bonafide"):
            labels[:] = kind == "all_spoof"
        qual = np.where(labels == 0, rng.integers(0, q_levels, size=n),
                        QUALITY_ABSENT)
        W = init_centroids(q_levels, dim, "random-unit", rng).weights
        if kind == "ties":  # pairs of equal centroids: the lower index wins
            W = W[np.arange(q_levels) // 2 * 2]
            sims = emb @ W.T
            ties += int(np.sum(sims[:, 1:] == sims[:, :1])) if q_levels > 1 else 0
        batch, bank = Batch(emb, labels, qual), CentroidBank(W)
        pairs = [(margin_one_class_loss, ref_margin_one_class_loss, bank),
                 (quality_loss, ref_quality_loss, bank),
                 (combined_loss, ref_combined_loss, bank),
                 (oc_softmax_loss, ref_oc_softmax_loss, CentroidBank(W[:1]))]
        for fn, ref, b in pairs:
            got, want = fn(batch, b, hyper), ref(batch, b, hyper)
            where = (fn.__name__, trial, kind)
            assert abs(got.value - want.value) <= 1e-12, where
            assert got.diagnostics == pytest.approx(want.diagnostics, abs=1e-12)
            for name in ("grad_embeddings", "grad_centroids"):
                diff = getattr(got, name) - getattr(want, name)
                assert np.max(np.abs(diff)) <= 1e-12, (where, name)
    assert ties > 0


# ---- the previous composition (tests/loss_reference.py): same bits ----

@pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("q_levels", [1, 2, 4])
@pytest.mark.parametrize("kind", ["mixed", "all_spoof", "all_bonafide",
                                  "one_row", "ties"])
def test_losses_match_previous_composition_bitwise(kind, q_levels, lam):
    # every loss against the code it replaced: == on the value and the
    # diagnostics, np.array_equal on each gradient; the wide scales push
    # sigmoids and softmaxes to 0 and 1
    rng = make_rng(21 + 7 * q_levels + int(10 * lam))
    ties = 0
    for trial in range(20):
        hyper = (LossHyper(lam=lam) if trial % 2 else
                 LossHyper(alpha=400.0, s=400.0, lam=lam))
        n = 1 if kind == "one_row" else int(rng.integers(2, 33))
        dim = int(rng.choice([4, 16]))
        emb = rng.normal(size=(n, dim))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        labels = rng.integers(0, 2, size=n)
        if kind in ("all_spoof", "all_bonafide"):
            labels[:] = kind == "all_spoof"
        qual = np.where(labels == 0, rng.integers(0, q_levels, size=n),
                        QUALITY_ABSENT)
        W = init_centroids(q_levels, dim, "random-unit", rng).weights
        if kind == "ties":  # pairs of equal centroids: the lower index wins
            W = W[np.arange(q_levels) // 2 * 2]
            sims = emb @ W.T
            ties += int(np.sum(sims[:, 1:] == sims[:, :1]))
        batch, bank = Batch(emb, labels, qual), CentroidBank(W)
        head = BinaryHead(weight=rng.normal(size=dim) * 30.0,
                          bias=float(rng.normal()))
        weights = (1.0, 1.0) if trial % 3 else (0.7, 2.5)
        pairs = [
            (margin_one_class_loss(batch, bank, hyper),
             prev.ref_margin_one_class_loss(batch, bank, hyper)),
            (quality_loss(batch, bank, hyper),
             prev.ref_quality_loss(batch, bank, hyper)),
            (combined_loss(batch, bank, hyper),
             prev.ref_combined_loss(batch, bank, hyper)),
            (oc_softmax_loss(batch, CentroidBank(W[:1]), hyper),
             prev.ref_oc_softmax_loss(batch, CentroidBank(W[:1]), hyper)),
            (wce_loss(batch, head, weights),
             prev.ref_wce_loss(batch, head, weights)),
            (wce_quality_loss(batch, bank, head, hyper, weights),
             prev.ref_wce_quality_loss(batch, bank, head, hyper, weights)),
        ]
        for k, (got, want) in enumerate(pairs):
            where = (kind, trial, k)
            assert got.value == want.value, where
            assert got.diagnostics == want.diagnostics, where
            for name in ("grad_embeddings", "grad_centroids",
                         "grad_head_weight"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a is None) == (b is None), (where, name)
                assert a is None or np.array_equal(a, b), (where, name)
            assert got.grad_head_bias == want.grad_head_bias, where
    assert kind != "ties" or q_levels == 1 or ties > 0


@pytest.mark.parametrize("fn", [margin_one_class_loss, quality_loss,
                                combined_loss])
@pytest.mark.parametrize("quality, message", [
    # an absent level and one outside the bank: the absent one is named
    ([QUALITY_ABSENT, 2, 0, 1], "bona fide sample without a quality level"),
    ([2, QUALITY_ABSENT, 0, 1], "bona fide sample without a quality level"),
    ([0, 1, 2, 1], "quality level outside the centroid bank"),
    ([0, -2, 1, 1], "quality level outside the centroid bank"),
])
def test_level_check_names_the_first_reason(fn, quality, message):
    rng = make_rng(22)
    batch, bank = random_batch(rng, 4, 2, 5)
    bad = Batch(batch.embeddings, np.zeros(4, dtype=np.int64),
                np.array(quality))
    for loss in (fn, getattr(prev, f"ref_{fn.__name__}")):
        with pytest.raises(MissingQuality) as info:
            loss(bad, bank, HYPER)
        assert str(info.value) == message


def test_all_spoof_batch_passes_the_level_check():
    # no bona fide row: no level to check, and no minimum of an empty array
    rng = make_rng(23)
    batch, bank = random_batch(rng, 5, 2, 4, all_spoof=True)
    bona, q = _levels(batch, bank)
    assert not bona.any() and q.size == 0
    assert combined_loss(batch, bank, HYPER).diagnostics["quality"] == 0.0


def test_batch_labels_must_match_the_rows():
    with pytest.raises(DimMismatch):
        Batch(embeddings=np.eye(3), labels=[0, 1], quality=[0, 1, 0])
