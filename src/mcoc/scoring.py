"""Inference scoring, EER computation, and CSV exports.

Score polarity everywhere: higher score means more likely bona fide.
``score_matrix`` is the one scoring path: the score, export and ablate
commands and training's validation EER all score through it.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import parallel
from .data import (_LABEL_CODES, _LABEL_NAMES, BONAFIDE, QUALITY_ABSENT, SPOOF,
                   Dataset, require_quality, utf8_lines)
from .errors import (ConfigError, EmptyClass, MissingQuality, ParseError,
                     ScoreOutOfRange, echo)
from .model import BinaryHead, CentroidBank, Encoder

STRATEGIES = ("labeled", "max", "ensemble", "head")
# written into every score report, manifest and eval summary
POLARITY = "higher score = bona fide"
# Rows per encoder forward pass. The forward's activations are held for one
# block at a time, so scoring and validation memory is bounded by the block
# size rather than by the number of records.
BLOCK_ROWS = 256
# the label code read_scores_csv gives an empty label cell
NO_LABEL = -1
_SCORE_LABELS = {"": NO_LABEL, **_LABEL_CODES}
_FLOAT_MAX = np.finfo(np.float64).max
# The largest head score in size; the bank strategies give cosines. n
# scores of at most 1e100 sum to under 1e119 for any n below 2**63, and
# their squared deviations from the mean to under 1e221, so a report's mean
# and std stay finite, and so do export's histogram edges over a range of
# at most 2e100.
MAX_HEAD_SCORE = 1e100
# a score as repr writes one: sign, digits, fraction and exponent, ASCII only
_DECIMAL = re.compile(r"[+-]?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


def embed(records: Dataset, encoder: Encoder) -> np.ndarray:
    """Unit embeddings of the records, one row each, encoded in blocks of
    BLOCK_ROWS rows."""
    E = np.empty((len(records), encoder.embed_dim))
    for k in range(0, len(records), BLOCK_ROWS):
        E[k:k + BLOCK_ROWS], _ = encoder.forward(records.X[k:k + BLOCK_ROWS])
    return E


def score_matrix(E, strategy: str, bank: Optional[CentroidBank] = None,
                 head: Optional[BinaryHead] = None, quality=None) -> np.ndarray:
    """CM score of every row of E (unit embeddings, one per record).

    `labeled` reads the similarity to each row's own quality centroid, so it
    needs `quality` (one level per row); `max` and `ensemble` take the max
    or the mean over the centroids; `head` negates the binary head's spoof
    logit, and a head score beyond MAX_HEAD_SCORE in size (or NaN) raises
    ScoreOutOfRange.
    """
    if strategy == "head":
        if head is None:
            raise ConfigError("head strategy needs a binary head")
        with np.errstate(over="ignore", invalid="ignore"):
            scores = -head.logits(E)
        inside = np.abs(scores) <= MAX_HEAD_SCORE  # False for NaN
        if not inside.all():
            raise ScoreOutOfRange(
                f"binary head score {float(scores[~inside][0])!r} is not in "
                f"[-{MAX_HEAD_SCORE!r}, {MAX_HEAD_SCORE!r}]")
        return scores
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {echo(strategy)}")
    if bank is None:
        raise ConfigError(f"{strategy} strategy needs a centroid bank")
    sims = bank.similarities(E)
    # the bits of np.max and np.mean over axis 1, without their wrappers
    if strategy == "max":
        return np.maximum.reduce(sims, axis=1)
    if strategy == "ensemble":
        return np.add.reduce(sims, axis=1) / bank.num_centroids
    if quality is None:
        raise MissingQuality("labeled strategy needs a quality level")
    quality = np.asarray(quality, dtype=np.int64)
    outside = (quality < 0) | (quality >= bank.num_centroids)
    if np.any(outside):
        raise ConfigError(
            f"labeled strategy: quality level {int(quality[outside][0])} has "
            f"no centroid (the bank has {bank.num_centroids})")
    return sims[np.arange(sims.shape[0]), quality]


def score(embedding, bank: CentroidBank, strategy: str,
          quality: Optional[int] = None) -> float:
    """CM score of one unit embedding against the centroid bank."""
    return float(score_matrix(np.atleast_2d(embedding), strategy, bank,
                              quality=None if quality is None else [quality])[0])


def head_score(embedding, head: BinaryHead) -> float:
    """CM score from the binary head: negated spoof logit."""
    return float(score_matrix(np.atleast_2d(embedding), "head", head=head)[0])


def _rates_at(thresholds, bona_sorted, spoof_sorted):
    """FAR = fraction of spoof scores >= t, FRR = fraction of bona scores < t."""
    far = (spoof_sorted.size - spoof_sorted.searchsorted(thresholds)) \
        / spoof_sorted.size
    frr = bona_sorted.searchsorted(thresholds) / bona_sorted.size
    return far, frr


def compute_eer(bona_scores, spoof_scores):
    """EER and threshold at the FAR/FRR crossing.

    FAR and FRR are step functions of the threshold; they are evaluated at
    the midpoints between consecutive distinct scores (plus sentinels below
    and above the support) and the crossing is linearly interpolated between
    the two adjacent operating points.

    Both results are finite for any finite scores: a sentinel that a step of
    1.0 cannot move (past 2**53) is the next float, or the largest float with
    the rates past the support, and a sum that overflows is taken in halves.
    Below 2**52 none of this applies. The scalar steps run on Python floats,
    whose IEEE arithmetic gives numpy's bits and never warns.
    """
    bona = np.sort(np.asarray(bona_scores, dtype=np.float64))
    spoof = np.sort(np.asarray(spoof_scores, dtype=np.float64))
    if bona.size == 0 or spoof.size == 0:
        raise EmptyClass("EER needs scores from both classes")
    # the distinct scores, as np.unique finds them: one sort of the union,
    # then every value that differs from the one before it
    both = np.concatenate([bona, spoof])
    both.sort()
    distinct = np.empty(both.size, dtype=bool)
    distinct[0] = True
    np.not_equal(both[1:], both[:-1], out=distinct[1:])
    uniq = both[distinct]
    # thresholds: a sentinel below, the midpoints, a sentinel above; each
    # is within [-max, max] as it is made, so none needs clipping
    thr = np.empty(uniq.size + 1)
    mids = thr[1:-1]
    with np.errstate(over="ignore"):
        np.add(uniq[:-1], uniq[1:], out=mids)
    mids /= 2.0
    overflowed = ~np.isfinite(mids)
    if overflowed.any():
        mids[overflowed] = (uniq[:-1][overflowed] / 2.0
                            + uniq[1:][overflowed] / 2.0)
    first, last = float(uniq[0]), float(uniq[-1])
    thr[0] = max(min(first - 1.0, math.nextafter(first, -math.inf)),
                 -_FLOAT_MAX)
    thr[-1] = min(max(last + 1.0, math.nextafter(last, math.inf)), _FLOAT_MAX)
    far, frr = _rates_at(thr, bona, spoof)
    far[-1], frr[-1] = 0.0, 1.0
    diff = far - frr  # non-increasing in the threshold
    i = int((diff <= 0.0).argmax())  # first operating point at or past the crossing
    if diff[i] == 0.0:
        return float(far[i]), float(thr[i])
    j = i - 1  # diff[0] = 1 > 0, so j >= 0
    d_j, d_i = float(diff[j]), float(diff[i])
    t = d_j / (d_j - d_i)
    eer = float(far[j]) + t * (float(far[i]) - float(far[j]))
    t_j, t_i = float(thr[j]), float(thr[i])
    threshold = t_j + t * (t_i - t_j)
    if not math.isfinite(threshold):
        threshold = (1.0 - t) * t_j + t * t_i
    return eer, threshold


@dataclass
class ScoreReport:
    """Scores (float64) and labels (int64) of the records `ids`, as arrays."""

    strategy: str
    ids: list
    scores: np.ndarray
    labels: np.ndarray
    eer: Optional[float] = None
    threshold: Optional[float] = None
    class_stats: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "strategy": self.strategy,
            "eer": self.eer,
            "threshold": self.threshold,
            "class_stats": self.class_stats,
            "polarity": POLARITY,
            "num_scored": len(self.scores),
        }


def build_report(records: Dataset, scores: np.ndarray,
                 strategy: str) -> ScoreReport:
    """Score report of the records; EER is filled in when both classes are
    present, and class_stats for each class that is."""
    report = ScoreReport(strategy=strategy, ids=records.ids, scores=scores,
                         labels=records.y)
    bona_mask = records.y == BONAFIDE
    bona, spoof = scores[bona_mask], scores[~bona_mask]
    if bona.size and spoof.size:
        report.eer, report.threshold = compute_eer(bona, spoof)
    for name, part in ((_LABEL_NAMES[BONAFIDE], bona),
                       (_LABEL_NAMES[SPOOF], spoof)):
        if part.size:
            report.class_stats[name] = {
                "mean": float(np.mean(part)),
                "std": float(np.std(part)),
                "count": int(part.size),
            }
    return report


def default_strategy(head: Optional[BinaryHead]) -> str:
    """The strategy a checkpoint scores with when none is asked for: its
    binary head if it has one, else the ensemble of its bank. Only a WCE
    loss trains a head, and it teaches only the head to separate the
    classes (wce_quality's bank learns quality levels alone)."""
    return "ensemble" if head is None else "head"


def score_dataset(records: Dataset, encoder: Encoder,
                  bank: Optional[CentroidBank],
                  strategy: Optional[str] = None, *,
                  head: Optional[BinaryHead] = None,
                  embeddings: Optional[np.ndarray] = None) -> ScoreReport:
    """Encode and score every record (see score_matrix and build_report)
    with `strategy`, or default_strategy(head) when it is None; `labeled`
    reads each record's own quality level, which every record must have.
    `embeddings`, when given, are the rows of embed(records, encoder)."""
    strategy = strategy or default_strategy(head)
    E = embed(records, encoder) if embeddings is None else embeddings
    if strategy == "labeled":
        require_quality(records, True, "labeled strategy needs mos or quality")
    return build_report(records, score_matrix(E, strategy, bank, head,
                                              records.quality), strategy)


def _csv_field(text):
    r"""`text` as one CSV field: quoted, with `"` doubled, when it holds `,`,
    `"`, `\r` or `\n`, and as it is otherwise. This is csv.writer's
    minimal quoting with one difference: csv.writer with lineterminator
    "\n" leaves a `\r` unquoted, which csv.reader then reads as a line end."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_scores_csv(report: ScoreReport, path):
    """One line per record: id, score, label, strategy."""
    names = map(_LABEL_NAMES.__getitem__, report.labels.tolist())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("id,score,label,strategy\n")
        for i, s, name in zip(report.ids, report.scores.tolist(), names):
            fh.write(f"{_csv_field(i)},{s!r},{name},{report.strategy}\n")


def read_scores_csv(path):
    """Returns (ids, scores, labels): a list, a float64 array and an int64
    array, NO_LABEL where a label is absent. A missing id or score column, a
    score that is not a finite number written as a plain decimal literal
    (optional sign, digits, optional fraction and exponent, as repr writes
    it), a label other than "", bonafide or spoof, and bytes that are not
    UTF-8, are ParseErrors naming the line."""
    ids, scores, labels = [], [], []
    with open(path, "r", encoding="utf-8", errors="surrogateescape",
              newline="") as fh:
        rows = csv.DictReader(utf8_lines(fh))
        try:
            for col in ("id", "score"):
                if col not in (rows.fieldnames or ()):
                    raise ParseError(1, f"no {col!r} column")
            for row in rows:
                text = row["score"]  # None: the row is too short
                score = (float(text) if text and _DECIMAL.fullmatch(text)
                         else math.nan)
                if not math.isfinite(score):
                    raise ParseError(rows.line_num, f"score {echo(row['score'])} "
                                                    f"is not a finite number")
                label = row.get("label") or ""
                if label not in _SCORE_LABELS:
                    raise ParseError(rows.line_num, f"unknown label {echo(label)}")
                ids.append(row["id"])
                scores.append(score)
                labels.append(_SCORE_LABELS[label])
        except csv.Error as exc:  # a field over the size limit; line_num lags
            raise ParseError(rows.reader.line_num, str(exc)) from exc
    return ids, np.array(scores, np.float64), np.array(labels, np.int64)


def export_distributions(report: ScoreReport, path, bins: int = 30):
    """Histogram CSV over [min, max] of all scores ([0, 1] when there are
    none): bin_low, bin_high, bona_count, spoof_count. Counts sum to the
    number of scored records."""
    arr, bona = report.scores, report.labels == BONAFIDE
    lo, hi = (float(np.min(arr)), float(np.max(arr))) if arr.size else (0.0, 0.0)
    if lo == hi:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    bona_counts, _ = np.histogram(arr[bona], bins=edges)
    spoof_counts, _ = np.histogram(arr[~bona], bins=edges)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["bin_low", "bin_high", "bona_count", "spoof_count"])
        for k in range(bins):
            w.writerow([repr(float(edges[k])), repr(float(edges[k + 1])),
                        int(bona_counts[k]), int(spoof_counts[k])])


def export_embeddings(records: Dataset, E: np.ndarray, path):
    """Embedding CSV for external projection tools: id, label, quality (empty
    where absent), then one column per embedding dimension. `E` holds the
    rows of embed(records, encoder). Embeddings of parallel.SPLIT_VALUES
    values or more are written in ranges on every usable CPU
    (parallel.fork_write), with the same bytes."""

    def write(fh, start, end):
        names = map(_LABEL_NAMES.__getitem__, records.y[start:end].tolist())
        # converted row by row, so that the Python floats of only one row
        # exist at a time; a fork_write child streams its rows to a file too
        for rid, name, q, emb in zip(records.ids[start:end], names,
                                     records.quality[start:end].tolist(),
                                     E[start:end]):
            q = "" if q == QUALITY_ABSENT else q
            fh.write(f"{_csv_field(rid)},{name},{q},"
                     f"{','.join(map(repr, emb.tolist()))}\n")

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["id", "label", "quality"]
                          + [f"e{k}" for k in range(E.shape[1])]) + "\n")
        parallel.fork_write(fh, write, len(records), E.size)
