import csv
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mcoc.data import (
    BONAFIDE,
    QUALITY_ABSENT,
    SPOOF,
    QualityPolicy,
    benchmark_spec,
    generate_synthetic,
    make_dataset,
    quality_label,
)
from mcoc.errors import (ConfigError, EmptyClass, MissingQuality,
                         ScoreOutOfRange)
from mcoc.model import (BinaryHead, CentroidBank, init_centroids, init_encoder,
                        init_head)
from mcoc.numerics import make_rng
from mcoc.scoring import (
    BLOCK_ROWS,
    MAX_HEAD_SCORE,
    NO_LABEL,
    STRATEGIES,
    build_report,
    compute_eer,
    default_strategy,
    embed,
    export_distributions,
    export_embeddings,
    head_score,
    read_scores_csv,
    score,
    score_dataset,
    score_matrix,
    write_scores_csv,
)

from numeric_reference import ref_compute_eer

BANK = CentroidBank(np.array([[1.0, 0.0], [0.0, 1.0]]))


def embedding_with_sims(s0, s1):
    # 2-D embedding whose similarities to BANK rows are exactly (s0, s1)
    return np.array([s0, s1])


def test_score_max():
    assert score(embedding_with_sims(0.8, 0.6), BANK, "max") == 0.8


def test_score_ensemble():
    assert score(embedding_with_sims(0.8, 0.6), BANK, "ensemble") == \
        pytest.approx(0.7)


def test_score_labeled():
    assert score(embedding_with_sims(0.8, 0.6), BANK, "labeled", quality=1) == 0.6


def test_score_labeled_needs_quality():
    with pytest.raises(MissingQuality):
        score(embedding_with_sims(0.8, 0.6), BANK, "labeled")


@given(st.lists(st.floats(-1, 1), min_size=2, max_size=6))
def test_ensemble_never_exceeds_max(sims):
    bank = CentroidBank(np.eye(len(sims)))
    emb = np.array(sims)
    e = score(emb, bank, "ensemble")
    m = score(emb, bank, "max")
    assert e <= m + 1e-15
    if len(set(sims)) == 1:
        assert e == pytest.approx(m)


# ---- EER ----

def eer_oracle(bona, spoof):
    """Brute force: FAR/FRR at every midpoint, crossing by interpolation."""
    uniq = sorted(set(bona) | set(spoof))
    thr = [uniq[0] - 1.0]
    thr += [(a + b) / 2.0 for a, b in zip(uniq, uniq[1:])]
    thr += [uniq[-1] + 1.0]
    pts = []
    for t in thr:
        far = sum(s >= t for s in spoof) / len(spoof)
        frr = sum(b < t for b in bona) / len(bona)
        pts.append((far, frr, t))
    for k, (far, frr, t) in enumerate(pts):
        if far <= frr:
            if far == frr:
                return far, t
            f1, r1, t1 = pts[k - 1]
            d1, d2 = f1 - r1, far - frr
            w = d1 / (d1 - d2)
            return f1 + w * (far - f1), t1 + w * (t - t1)
    raise AssertionError("no crossing")


def test_eer_perfect_separation():
    assert compute_eer([0.9, 0.8], [0.1, 0.2]) == (0.0, 0.5)


def test_eer_inverted_polarity():
    eer, _ = compute_eer([0.1, 0.2], [0.9, 0.8])
    assert eer == 1.0


def test_eer_one_third():
    eer, thr = compute_eer([0.9, 0.6, 0.4], [0.5, 0.3, 0.1])
    assert eer == pytest.approx(1 / 3, abs=1e-12)
    assert thr == pytest.approx(0.45, abs=1e-12)


def test_eer_empty_class():
    with pytest.raises(EmptyClass):
        compute_eer([], [0.5])


def test_eer_matches_oracle_randomized():
    rng = make_rng(100)
    for _ in range(300):
        nb = int(rng.integers(1, 50))
        ns = int(rng.integers(1, 50))
        bona = rng.normal(0.5, 0.4, size=nb)
        spoof = rng.normal(-0.2, 0.4, size=ns)
        if rng.random() < 0.3:  # inject ties
            bona = np.round(bona, 1)
            spoof = np.round(spoof, 1)
        eer, thr = compute_eer(bona, spoof)
        oe, ot = eer_oracle(list(bona), list(spoof))
        assert abs(eer - oe) < 1e-9
        assert abs(thr - ot) < 1e-9


FLOAT_MAX = np.finfo(np.float64).max


@pytest.mark.parametrize("bona, spoof, expected", [
    ([4e16], [4e16], (0.5, 4e16)),
    ([1.7e308, 1.5e308], [1.6e308, 1.65e308], (0.5, 1.625e308)),
    ([FLOAT_MAX], [FLOAT_MAX], (0.5, np.nextafter(FLOAT_MAX, 0))),
    ([-FLOAT_MAX], [FLOAT_MAX], (1.0, 0.0)),
    ([FLOAT_MAX], [-FLOAT_MAX], (0.0, 0.0)),
])
def test_eer_at_extreme_magnitudes(bona, spoof, expected):
    assert compute_eer(bona, spoof) == expected


finite_scores = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=1, max_size=6)


@given(finite_scores, finite_scores)
def test_eer_finite_for_any_finite_scores(bona, spoof):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning is a failure
        eer, threshold = compute_eer(bona, spoof)
    assert 0.0 <= eer <= 1.0 and np.isfinite(threshold)



wide_scores = st.lists(st.one_of(st.floats(allow_nan=False,
                                           allow_infinity=False),
                                 st.sampled_from([0.0, 0.5, -0.5, 1.0])),
                       min_size=1, max_size=8)


@given(wide_scores, wide_scores)
def test_eer_matches_previous_bits(bona, spoof):
    # the numpy-scalar code it replaced, at every magnitude, with ties
    assert compute_eer(bona, spoof) == ref_compute_eer(bona, spoof)


@pytest.mark.parametrize("bona, spoof", [
    ([-FLOAT_MAX], [-FLOAT_MAX]), ([FLOAT_MAX], [FLOAT_MAX]),
    ([-FLOAT_MAX, FLOAT_MAX], [0.0]), ([-1.7e308], [-1.6e308, 1e308]),
    ([1.7e308, 1.5e308], [1.6e308, 1.65e308]), ([2.0 ** 53], [2.0 ** 53 + 2]),
    ([-0.0], [0.0]), ([5e-324], [-5e-324, 0.0]),
    # t_j + t * (t_i - t_j) overflows, so the threshold is taken in halves
    ([-1e308], [-FLOAT_MAX, FLOAT_MAX]),
])
def test_eer_matches_previous_bits_at_the_extremes(bona, spoof):
    assert compute_eer(bona, spoof) == ref_compute_eer(bona, spoof)


def test_eer_matches_previous_bits_randomized():
    rng = make_rng(101)
    for _ in range(300):
        bona = rng.normal(0.5, 0.4, size=int(rng.integers(1, 130)))
        spoof = rng.normal(-0.2, 0.4, size=int(rng.integers(1, 130)))
        if rng.random() < 0.3:
            bona, spoof = np.round(bona, 1), np.round(spoof, 1)
        assert compute_eer(bona, spoof) == ref_compute_eer(bona, spoof)

unit_scores = st.lists(st.floats(-1, 1, allow_subnormal=False), min_size=1,
                       max_size=6)


@given(unit_scores, unit_scores, st.integers(0, 1023))
def test_eer_invariant_under_power_of_two_scaling(bona, spoof, k):
    # scaling by 2**k keeps the order of every score and midpoint, so the
    # EER must not move, also past 2**53 where a step of 1.0 is lost
    scaled = compute_eer(np.multiply(bona, 2.0 ** k), np.multiply(spoof, 2.0 ** k))
    assert scaled[0] == compute_eer(bona, spoof)[0]


@given(st.floats(min_value=0.1, max_value=10),
       st.floats(min_value=-5, max_value=5))
def test_eer_invariant_under_increasing_affine(scale, shift):
    bona = np.array([0.9, 0.55, 0.4, 0.35])
    spoof = np.array([0.5, 0.45, 0.3, 0.1])
    base, _ = compute_eer(bona, spoof)
    tr, _ = compute_eer(scale * bona + shift, scale * spoof + shift)
    assert tr == pytest.approx(base, abs=1e-9)


# ---- dataset scoring and exports ----

@pytest.fixture(scope="module")
def scored():
    records = generate_synthetic(benchmark_spec(1, train=False))
    encoder = init_encoder(8, (16,), 8, make_rng(0))
    bank = CentroidBank(np.eye(8)[:2])
    report = score_dataset(records, encoder, bank, "ensemble")
    return records, encoder, bank, report


def test_score_dataset_summary(scored):
    _, _, _, report = scored
    assert report.eer is not None and 0.0 <= report.eer <= 1.0
    assert set(report.class_stats) == {"bonafide", "spoof"}
    assert len(report.scores) == 200


def test_score_dataset_deterministic(scored):
    records, encoder, bank, report = scored
    again = score_dataset(records, encoder, bank, "ensemble")
    assert np.array_equal(again.scores, report.scores)
    assert again.eer == report.eer


def test_score_dataset_takes_head_by_keyword(scored):
    # a policy passed in the place the parameter had is refused, not read
    # as the head
    records, encoder, bank, _ = scored
    with pytest.raises(TypeError):
        score_dataset(records, encoder, bank, "ensemble", QualityPolicy())


def test_score_dataset_no_labels_no_eer(scored):
    records, encoder, bank, _ = scored
    bona_only = records.take(np.flatnonzero(records.y == 0))
    rep = score_dataset(bona_only, encoder, bank, "max")
    assert rep.eer is None and "spoof" not in rep.class_stats


def test_scores_csv_round_trip(tmp_path, scored):
    _, _, _, report = scored
    path = tmp_path / "scores.csv"
    write_scores_csv(report, path)
    ids, scores, labels = read_scores_csv(path)
    assert ids == report.ids
    assert scores.dtype == np.float64 and labels.dtype == np.int64
    assert np.array_equal(scores, report.scores)  # repr() round-trips float64
    assert np.array_equal(labels, report.labels)


def test_read_scores_csv_gives_arrays(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("id,score,label\na,0.5,bonafide\nb,-1.0,\nc,2.0,spoof\n")
    ids, scores, labels = read_scores_csv(path)
    assert ids == ["a", "b", "c"]
    assert scores.dtype == np.float64 and scores.tolist() == [0.5, -1.0, 2.0]
    assert labels.dtype == np.int64
    assert labels.tolist() == [BONAFIDE, NO_LABEL, SPOOF]
    path.write_text("id,score,label\n")
    _, scores, labels = read_scores_csv(path)
    assert (scores.dtype, scores.shape) == (np.float64, (0,))
    assert (labels.dtype, labels.shape) == (np.int64, (0,))


def test_histogram_counts_conserved(tmp_path, scored):
    _, _, _, report = scored
    path = tmp_path / "hist.csv"
    export_distributions(report, path, bins=17)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 17
    total = sum(int(r["bona_count"]) + int(r["spoof_count"]) for r in rows)
    assert total == len(report.scores)


def test_histogram_single_class(tmp_path, scored):
    records, encoder, bank, _ = scored
    bona_only = records.take(np.flatnonzero(records.y == 0))
    rep = score_dataset(bona_only, encoder, bank, "ensemble")
    path = tmp_path / "hist.csv"
    export_distributions(rep, path, bins=5)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert all(int(r["spoof_count"]) == 0 for r in rows)


def test_export_embeddings(tmp_path, scored):
    records, encoder, _, _ = scored
    path = tmp_path / "emb.csv"
    first = records.take(np.arange(10))
    export_embeddings(first, embed(first, encoder), path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    emb, _ = encoder.forward(first.X)
    got = [[float(r[f"e{k}"]) for k in range(encoder.embed_dim)] for r in rows]
    assert got == emb.tolist()
    assert [r["id"] for r in rows] == first.ids
    assert [r["label"] for r in rows] == ["bonafide"] * 10
    assert [r["quality"] for r in rows] == [str(q) for q in first.quality]


# ---- the CSV writers against the csv.writer code they replaced ----

def reference_scores_csv(report, path):
    """scores.csv as csv.writer writes it: the byte reference."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["id", "score", "label", "strategy"])
        for i, s, lab in zip(report.ids, report.scores, report.labels):
            name = "bonafide" if lab == BONAFIDE else "spoof"
            w.writerow([i, repr(float(s)), name, report.strategy])


def reference_embeddings_csv(records, E, path):
    """embeddings.csv as csv.writer writes it: the byte reference."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["id", "label", "quality"]
                   + [f"e{k}" for k in range(E.shape[1])])
        names = np.where(records.y == BONAFIDE, "bonafide", "spoof").tolist()
        for rid, name, q, emb in zip(records.ids, names,
                                     records.quality.tolist(), E):
            w.writerow([rid, name, "" if q == QUALITY_ABSENT else q]
                       + [repr(v) for v in emb.tolist()])


ODD_IDS = ["a,b", 'say "hi"', "two\nlines", "", "naïve ✓", '"', "plain"]


def odd_records(records, ids):
    """The first bona fide and spoof records of `records`, renamed `ids`."""
    bona = np.flatnonzero(records.y == 0)[:len(ids) // 2]
    spoof = np.flatnonzero(records.y == 1)[:len(ids) - bona.size]
    return dataclasses.replace(records.take(np.concatenate([bona, spoof])),
                               ids=list(ids))


def write_both(tmp_path, scored, ids):
    """[(new, reference) bytes of scores.csv, the same of embeddings.csv]
    for the records renamed `ids`."""
    records, encoder, bank, _ = scored
    odd = odd_records(records, ids)
    report = score_dataset(odd, encoder, bank, "ensemble")
    scores, ref_scores, emb, ref_emb = (
        tmp_path / name for name in ("scores.csv", "ref_scores.csv",
                                     "embeddings.csv", "ref_embeddings.csv"))
    write_scores_csv(report, scores)
    reference_scores_csv(report, ref_scores)
    export_embeddings(odd, embed(odd, encoder), emb)
    reference_embeddings_csv(odd, embed(odd, encoder), ref_emb)
    return [(scores.read_bytes(), ref_scores.read_bytes()),
            (emb.read_bytes(), ref_emb.read_bytes())]


def test_csv_writers_match_csv_writer_bytes(tmp_path, scored):
    for new, reference in write_both(tmp_path, scored, ODD_IDS):
        assert new == reference
    assert read_scores_csv(tmp_path / "scores.csv")[0] == ODD_IDS


def test_carriage_return_id_is_quoted(tmp_path, scored):
    # csv.writer with lineterminator "\n" leaves a \r unquoted, and a
    # reader then splits the record there; the one difference in bytes
    ids = ["a\rb", "x", "y", "z"]
    for new, reference in write_both(tmp_path, scored, ids):
        assert new == reference.replace(b"a\rb,", b'"a\rb",', 1)
    assert read_scores_csv(tmp_path / "scores.csv")[0] == ids
    with open(tmp_path / "embeddings.csv", encoding="utf-8", newline="") as fh:
        assert [r["id"] for r in csv.DictReader(fh)] == ids


# ---- the blocked array path against one-row references ----

WIDE_ROWS = 2 * BLOCK_ROWS + 3  # the last block is partial


@pytest.fixture(scope="module")
def wide():
    rng = make_rng(7)
    policy = QualityPolicy()
    X, y, mos = [], [], []
    for _ in range(WIDE_ROWS):
        X.append(rng.normal(size=12))
        y.append(int(rng.integers(0, 2)))
        mos.append(float(rng.uniform(1.0, 5.0)))
    records = make_dataset([f"r{i}" for i in range(WIDE_ROWS)], X, y, mos,
                           np.zeros(WIDE_ROWS, dtype=bool), policy)
    encoder = init_encoder(12, (256, 256), 16, rng)
    bank = init_centroids(2, 16, "orthogonal", rng)
    head = init_head(16, rng)
    return records, encoder, bank, head, policy


def one_row_reference(records, encoder, bank, head, policy, strategy):
    out = []
    for x, quality, mos in zip(records.X, records.quality, records.mos):
        e = encoder.forward(x[None, :])[0][0]
        if strategy == "head":
            out.append(-(e @ head.weight + head.bias))
            continue
        sims = bank.weights @ e
        if strategy == "labeled":
            q = quality if quality != QUALITY_ABSENT else quality_label(mos, policy)
            out.append(sims[q])
        else:
            out.append(sims.max() if strategy == "max" else sims.mean())
    return np.array(out)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_blocked_scores_match_one_row_reference(wide, strategy):
    records, encoder, bank, head, policy = wide
    report = score_dataset(records, encoder, bank, strategy, head=head)
    ref = one_row_reference(records, encoder, bank, head, policy, strategy)
    assert len(report.scores) == WIDE_ROWS
    assert np.max(np.abs(np.array(report.scores) - ref)) <= 1e-12


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_blocked_scores_repeat_bitwise(wide, strategy):
    records, encoder, bank, head, policy = wide
    a = score_dataset(records, encoder, bank, strategy, head=head)
    b = score_dataset(records, encoder, bank, strategy, head=head)
    assert a.scores.tobytes() == b.scores.tobytes() and a.eer == b.eer


def test_embed_matches_one_row_forward(wide):
    records, encoder, _, _, _ = wide
    E = embed(records, encoder)
    assert E.shape == (WIDE_ROWS, 16)
    ref = np.concatenate([encoder.forward(x[None, :])[0] for x in records.X])
    assert np.max(np.abs(E - ref)) <= 1e-12


def test_score_matrix_empty():
    E = np.zeros((0, 2))
    assert score_matrix(E, "max", BANK).shape == (0,)
    assert score_matrix(E, "labeled", BANK, quality=[]).shape == (0,)


def test_score_matrix_labeled_level_without_centroid():
    one = CentroidBank(np.array([[1.0, 0.0]]))
    with pytest.raises(ConfigError, match="quality level 1"):
        score_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]), "labeled", one,
                     quality=[0, 1])


def test_score_matrix_missing_bank_or_head():
    E = np.array([[1.0, 0.0]])
    with pytest.raises(ConfigError):
        score_matrix(E, "ensemble")
    with pytest.raises(ConfigError):
        score_matrix(E, "head", BANK)


def test_score_matrix_unknown_strategy_is_named():
    with pytest.raises(ValueError, match="unknown strategy 'median'"):
        score_matrix(np.array([[1.0, 0.0]]), "median", BANK)


def test_head_score_is_the_head_row_of_score_matrix():
    rng = make_rng(3)
    head = init_head(4, rng)
    e = rng.normal(size=4)
    e /= np.linalg.norm(e)
    assert head_score(e, head) == score_matrix(e[None], "head", head=head)[0]


@pytest.mark.parametrize("weight", [np.nextafter(MAX_HEAD_SCORE, np.inf),
                                    1e308, np.inf, np.nan])
def test_head_scores_beyond_the_bound_raise(weight):
    E = np.array([[1.0, 0.0], [0.0, 1.0]])
    at = BinaryHead(np.array([0.0, MAX_HEAD_SCORE]), 0.0)
    assert score_matrix(E, "head", head=at).tolist() == [0.0, -MAX_HEAD_SCORE]
    beyond = BinaryHead(np.array([0.0, weight]), 0.0)
    with pytest.raises(ScoreOutOfRange, match="binary head score"):
        score_matrix(E, "head", head=beyond)


def test_score_dataset_defaults_to_the_head_else_the_ensemble(wide):
    records, encoder, bank, head, _ = wide
    assert default_strategy(None) == "ensemble"
    assert default_strategy(head) == "head"
    for part, strategy in ((None, "ensemble"), (head, "head")):
        report = score_dataset(records, encoder, bank, head=part)
        given = score_dataset(records, encoder, bank, strategy, head=part)
        assert report.strategy == strategy
        assert report.scores.tobytes() == given.scores.tobytes()


def test_histogram_of_no_scores(tmp_path):
    empty = generate_synthetic(benchmark_spec(1)).take([])
    report = build_report(empty, np.zeros(0), "ensemble")
    path = tmp_path / "hist.csv"
    export_distributions(report, path, bins=4)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert sum(int(r["bona_count"]) + int(r["spoof_count"]) for r in rows) == 0
