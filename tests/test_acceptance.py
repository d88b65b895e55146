"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavy fixtures
(benchmark training over 5 seeds, both quality-loss weights) are shared
across criteria.
"""

import math
import time

import numpy as np
import pytest

from mcoc.data import (
    QualityPolicy,
    benchmark_spec,
    generate_synthetic,
    quality_label,
)
from mcoc.losses import (
    Batch,
    LossHyper,
    QUALITY_ABSENT,
    combined_loss,
    margin_one_class_loss,
    oc_softmax_loss,
    quality_loss,
    wce_loss,
    wce_quality_loss,
)
from mcoc.model import BinaryHead, CentroidBank, init_centroids, init_encoder
from mcoc.numerics import make_rng
from mcoc.scoring import compute_eer, score_dataset
from mcoc.training import benchmark_train_config, train

from numeric_reference import finite_diff_grad
from test_losses import one_class_sample_oracle, quality_sample_oracle
from test_scoring import eer_oracle

SEEDS = (1, 2, 3, 4, 5)
HYPER = LossHyper()


def ok(name):
    print(f"PASS {name}")


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def benchmark_runs():
    """Train the multi-centroid arm on the fixed benchmark for every seed,
    at quality weight 0.1 and 0. Returns
    {(seed, lam): (report, ckpt, test_records, seconds)}."""
    runs = {}
    for seed in SEEDS:
        train_recs = generate_synthetic(benchmark_spec(seed, train=True))
        test_recs = generate_synthetic(benchmark_spec(seed, train=False))
        for lam in (0.1, 0.0):
            cfg = benchmark_train_config(seed, lam=lam)
            t0 = time.perf_counter()
            report, ckpt = train(train_recs, cfg)
            dt = time.perf_counter() - t0
            runs[(seed, lam)] = (report, ckpt, test_recs, dt)
    return runs


def random_batch(rng, n, q_levels, dim):
    emb = rng.normal(size=(n, dim))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    labels = rng.integers(0, 2, size=n)
    qual = np.where(labels == 0, rng.integers(0, q_levels, size=n),
                    QUALITY_ABSENT)
    bank = init_centroids(q_levels, dim, "random-unit", rng)
    return Batch(emb, labels, qual), bank


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a),
                                       np.linalg.norm(b), 1e-6)


# ------------------------------------------------- criterion: gradient suite

def test_gradient_suite_100_configs_each():
    """Analytic vs central finite-difference gradients, rel err < 1e-4,
    >= 100 seeded configs per family, total under 60 s."""
    t0 = time.perf_counter()
    rng = make_rng(2024)

    def config(q_choices):
        n = int(rng.integers(1, 17))
        q = int(rng.choice(q_choices))
        d = int(rng.choice([4, 16]))
        return random_batch(rng, n, q, d)

    def check(out, fd_emb, fd_cent=None, extra=()):
        assert rel_err(out.grad_embeddings, fd_emb) < 1e-4
        if fd_cent is not None:
            assert rel_err(out.grad_centroids, fd_cent) < 1e-4
        for got, want in extra:
            assert rel_err(np.atleast_1d(got), np.atleast_1d(want)) < 1e-4

    for _ in range(100):
        batch, bank = config([1, 2, 4])
        for fn in (margin_one_class_loss, quality_loss, combined_loss):
            out = fn(batch, bank, HYPER)
            fe = finite_diff_grad(
                lambda E: fn(Batch(E, batch.labels, batch.quality), bank,
                             HYPER).value, batch.embeddings)
            fc = finite_diff_grad(
                lambda W: fn(batch, CentroidBank(W), HYPER).value,
                bank.weights)
            check(out, fe, fc)

    for _ in range(100):
        batch, bank = config([1])
        out = oc_softmax_loss(batch, bank, HYPER)
        fe = finite_diff_grad(
            lambda E: oc_softmax_loss(Batch(E, batch.labels, batch.quality),
                                      bank, HYPER).value, batch.embeddings)
        fc = finite_diff_grad(
            lambda W: oc_softmax_loss(batch, CentroidBank(W), HYPER).value,
            bank.weights)
        check(out, fe, fc)

    for _ in range(100):
        batch, _ = config([2])
        d = batch.embeddings.shape[1]
        head = BinaryHead(weight=rng.normal(size=d), bias=float(rng.normal()))
        weights = (1.0, float(rng.uniform(0.5, 3.0)))
        out = wce_loss(batch, head, weights)
        fe = finite_diff_grad(
            lambda E: wce_loss(Batch(E, batch.labels, batch.quality), head,
                               weights).value, batch.embeddings)
        fw = finite_diff_grad(
            lambda w: wce_loss(batch, BinaryHead(w, head.bias),
                               weights).value, head.weight)
        fb = finite_diff_grad(
            lambda b: wce_loss(batch, BinaryHead(head.weight, float(b[0])),
                               weights).value, np.array([head.bias]))
        check(out, fe, extra=[(out.grad_head_weight, fw),
                              (np.array([out.grad_head_bias]), fb)])

    for _ in range(100):
        batch, bank = config([1, 2, 4])
        d = batch.embeddings.shape[1]
        head = BinaryHead(weight=rng.normal(size=d), bias=float(rng.normal()))
        weights = (1.0, float(rng.uniform(0.5, 3.0)))

        def f(E=batch.embeddings, W=bank.weights, w=head.weight, b=head.bias):
            return wce_quality_loss(Batch(E, batch.labels, batch.quality),
                                    CentroidBank(W), BinaryHead(w, float(b)),
                                    HYPER, weights).value

        out = wce_quality_loss(batch, bank, head, HYPER, weights)
        fe = finite_diff_grad(lambda E: f(E=E), batch.embeddings)
        fc = finite_diff_grad(lambda W: f(W=W), bank.weights)
        fw = finite_diff_grad(lambda w: f(w=w), head.weight)
        fb = finite_diff_grad(lambda b: f(b=b[0]), np.array([head.bias]))
        check(out, fe, fc, extra=[(out.grad_head_weight, fw),
                                  (np.array([out.grad_head_bias]), fb)])

    for _ in range(100):
        din = int(rng.integers(2, 7))
        dout = int(rng.integers(2, 7))
        enc = init_encoder(din, (int(rng.integers(3, 9)),), dout, rng,
                           activation="tanh")
        X = rng.normal(size=(int(rng.integers(1, 5)), din))
        C = rng.normal(size=(X.shape[0], dout))
        _, cache = enc.forward(X)
        param_grads, _ = enc.backward(cache, C)
        for li, (gw, gb) in enumerate(param_grads):
            layer = enc.layers[li]

            def f(W, layer=layer):
                saved = layer.weight
                layer.weight = W
                emb, _ = enc.forward(X)
                layer.weight = saved
                return float(np.sum(C * emb))

            assert rel_err(gw, finite_diff_grad(f, layer.weight)) < 1e-4

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    ok(f"gradient suite: 7 families x 100 configs, rel err < 1e-4 "
       f"({elapsed:.1f}s)")


# -------------------------------------------- criterion: loss oracle match

def test_loss_oracle_equivalence_1000_samples():
    """Batched losses match a direct per-sample transcription to 1e-10."""
    rng = make_rng(77)
    for _ in range(1000):
        q_levels = int(rng.integers(1, 5))
        dim = int(rng.choice([4, 16]))
        batch, bank = random_batch(rng, 1, q_levels, dim)
        got = margin_one_class_loss(batch, bank, HYPER).value
        want = one_class_sample_oracle(
            batch.embeddings[0], int(batch.labels[0]),
            int(batch.quality[0]) if batch.labels[0] == 0 else None,
            bank.weights, HYPER)
        assert abs(got - want) < 1e-10
        if q_levels >= 2 and batch.labels[0] == 0:
            got_q = quality_loss(batch, bank, HYPER).value
            want_q = quality_sample_oracle(batch.embeddings[0],
                                           int(batch.quality[0]),
                                           bank.weights, HYPER)
            assert abs(got_q - want_q) < 1e-10
    ok("loss oracle equivalence: 1000 random single samples, abs < 1e-10")


# ------------------------------------------- criterion: margin boundary ln2

def test_margin_boundary_ln2_any_alpha():
    for alpha in (1.0, 20.0, 100.0):
        hyper = LossHyper(alpha=alpha)
        bank = CentroidBank(np.array([[1.0, 0.0]]))
        for label, margin in ((0, hyper.m0), (1, hyper.m1)):
            emb = np.array([[margin, math.sqrt(1 - margin * margin)]])
            q = np.array([0 if label == 0 else QUALITY_ABSENT])
            out = margin_one_class_loss(Batch(emb, np.array([label]), q),
                                        bank, hyper)
            assert abs(out.value - math.log(2)) < 1e-12
    ok("margin boundary: loss(d = m_y) = ln 2 to 1e-12, alpha in {1,20,100}")


# --------------------------------------------------- criterion: EER oracle

def test_eer_oracle_1000_instances():
    rng = make_rng(555)
    for _ in range(1000):
        nb = int(rng.integers(1, 51))
        ns = int(rng.integers(1, 51))
        bona = rng.normal(0.4, 0.5, size=nb)
        spoof = rng.normal(-0.1, 0.5, size=ns)
        if rng.random() < 0.3:
            bona, spoof = np.round(bona, 1), np.round(spoof, 1)
        eer, _ = compute_eer(bona, spoof)
        want, _ = eer_oracle(list(bona), list(spoof))
        assert abs(eer - want) < 1e-9
    assert compute_eer([0.9, 0.8], [0.1, 0.2])[0] == 0.0
    assert compute_eer([0.1, 0.2], [0.9, 0.8])[0] == 1.0
    ok("EER oracle: 1000 random instances within 1e-9; 0 and 1 exact")


# ----------------------------------------- criterion: synthetic end-to-end

def test_synthetic_end_to_end(benchmark_runs):
    for seed in SEEDS:
        report, ckpt, test_recs, dt = benchmark_runs[(seed, 0.1)]
        assert dt < 60.0, f"seed {seed}: training took {dt:.1f}s"
        assert len(report.epochs) <= 50
        sr = score_dataset(test_recs, ckpt.encoder, ckpt.bank, "ensemble")
        assert sr.eer <= 0.02, f"seed {seed}: ensemble EER {sr.eer}"
    ok("synthetic end-to-end: test EER <= 2% (ensemble), <= 50 epochs, "
       "< 60 s, seeds 1-5")


# --------------------------------------------- criterion: centroid collapse

def test_collapse_property(benchmark_runs):
    for seed in SEEDS:
        cos_with = benchmark_runs[(seed, 0.1)][0].epochs[-1].centroid_cosine
        cos_without = benchmark_runs[(seed, 0.0)][0].epochs[-1].centroid_cosine
        assert cos_with < cos_without, f"seed {seed}"
        assert cos_without > 0.9, \
            f"seed {seed}: no collapse without quality loss ({cos_without})"
    ok("collapse: lam=0 ends with inter-centroid cosine > 0.9, "
       "lam=0.1 strictly lower, all 5 seeds")


# ----------------------------------------- criterion: ensemble vs max score

def test_ensemble_vs_max(benchmark_runs):
    eers_ens, eers_max = [], []
    for seed in SEEDS:
        _, ckpt, test_recs, _ = benchmark_runs[(seed, 0.1)]
        ens = score_dataset(test_recs, ckpt.encoder, ckpt.bank, "ensemble")
        mx = score_dataset(test_recs, ckpt.encoder, ckpt.bank, "max")
        eers_ens.append(ens.eer)
        eers_max.append(mx.eer)
        # pointwise mean <= max for every utterance
        assert all(e <= m + 1e-15 for e, m in zip(ens.scores, mx.scores))
    assert np.mean(eers_ens) <= np.mean(eers_max) + 1e-15
    ok(f"ensemble vs max: mean EER {np.mean(eers_ens):.4f} <= "
       f"{np.mean(eers_max):.4f}; ensemble <= max pointwise for all scores")


# -------------------------------------------------- criterion: determinism

def test_cli_determinism(tmp_path):
    import json

    from mcoc.cli import main
    from mcoc.training import EncoderConfig, OptimizerConfig, TrainConfig

    spec = benchmark_spec(1)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    cfg = TrainConfig(epochs=5, seed=3, optimizer=OptimizerConfig(lr=0.01),
                      encoder=EncoderConfig(hidden=(16,), embed_dim=8))
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))

    for tag in ("a", "b"):
        assert main(["gen", "--spec", str(spec_path),
                     "--out", str(tmp_path / f"d{tag}")]) == 0
        assert main(["train", "--config", str(cfg_path),
                     "--data", str(tmp_path / f"d{tag}" / "data.jsonl"),
                     "--out", str(tmp_path / f"t{tag}")]) == 0
        assert main(["score",
                     "--checkpoint", str(tmp_path / f"t{tag}" / "checkpoint.json"),
                     "--data", str(tmp_path / f"d{tag}" / "data.jsonl"),
                     "--out", str(tmp_path / f"s{tag}")]) == 0
    for rel in (("da", "db", "data.jsonl"), ("ta", "tb", "checkpoint.json"),
                ("sa", "sb", "scores.csv")):
        a = (tmp_path / rel[0] / rel[2]).read_bytes()
        b = (tmp_path / rel[1] / rel[2]).read_bytes()
        assert a == b, f"{rel[2]} differs between identical runs"
    ok("determinism: identical CLI runs give byte-identical dataset, "
       "checkpoint, and score CSV")


# ------------------------------------- criterion: quality labeling conforms

def test_quality_labeling_conformance():
    policy = QualityPolicy()
    assert quality_label(2.5, policy) == 1  # boundary goes to the high level
    grid = np.linspace(1.0, 5.0, 1000)
    levels = [quality_label(m, policy) for m in grid]
    assert all(a <= b for a, b in zip(levels, levels[1:]))
    assert levels[0] == 0 and levels[-1] == 1
    ok("quality labeling: boundary mos=2.5 -> level 1; monotone on a "
       "1000-point grid")
