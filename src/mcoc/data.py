"""Columnar datasets, JSONL I/O, MOS thresholding, synthetic data, augmentation.

Detection labels: 0 = bonafide, 1 = spoof. ``make_dataset`` alone decides
each record's quality level: 0 for an augmented bona fide record, the level
of its MOS for any other record that has one, whatever its class, and
``QUALITY_ABSENT`` for the rest. Every given MOS is checked there, once.

The gen spec, its clusters and its quality policy are built from JSON by
``errors.from_dict`` and check their own values. A cluster's ``label`` is
its JSON name, "bonafide" or "spoof"; ``generate_synthetic`` maps it to 0/1.
"""

from __future__ import annotations

import io
import json
import math
import operator
import os
import stat
from array import array
from dataclasses import asdict, dataclass, field, replace
from itertools import chain, islice
from typing import Optional, Union

import numpy as np

from . import parallel
from .errors import (
    UNDECODABLE,
    ConfigError,
    McocError,
    MissingQuality,
    MosOutOfRange,
    ParseError,
    echo,
    from_dict,
    is_int,
    is_real,
    require,
)
from .numerics import make_rng

BONAFIDE = 0
SPOOF = 1
QUALITY_ABSENT = -1

_LABEL_NAMES = {BONAFIDE: "bonafide", SPOOF: "spoof"}
_LABEL_CODES = {v: k for k, v in _LABEL_NAMES.items()}

# lines that load_jsonl parses and checks at a time. A block's lines and
# parsed objects are held until its columns pass, and larger blocks load no
# faster: loading a 4,000-record 64-d file raised peak resident memory by
# 3.3 MiB with blocks of 64 lines and by 4.4 MiB with blocks of 256.
BLOCK_LINES = 64
# the smallest regular file that load_jsonl splits across the usable CPUs;
# a file is cut into at most one range per half of it, so each range holds
# about SPLIT_BYTES / 2 or more. A fork costs a few milliseconds, and the
# caller's writes after it take page faults. Timed as whole `score` and
# `export` calls in a 52 MB process on 2 CPUs (8 alternated rounds, each
# call's second run after a first), 8-d and 64-d files of 1.3-1.4 MB ran as
# fast split as whole (split faster in 3-4 of 8), files of 2.1 MB were split
# faster in 3-7 of 8, and files of 2.9-5.5 MB in 4-8 of 8 (score of 5.5 MB
# of 64-d records: 192 -> 144 ms). Only 2 ranges were timed; the 3 or more
# ranges of 1 MiB or more that larger files get on more CPUs are untimed.
SPLIT_BYTES = 2 << 20
_scan = json.JSONDecoder().scan_once  # (value, end) of the JSON at an index


@dataclass(frozen=True)
class QualityPolicy:
    """MOS bucketing by ascending cut points inside (1, 5): level = number
    of cut points <= mos (boundary goes up), so one level more than cuts."""

    thresholds: tuple = (2.5,)

    def __post_init__(self):
        t = self.thresholds
        require(isinstance(t, (list, tuple)) and all(map(is_real, t)),
                "policy.thresholds", t, "a list of numbers")
        cuts = tuple(float(x) for x in t)
        if any(not (1.0 < x < 5.0) for x in cuts):
            raise ConfigError("policy: thresholds must lie strictly inside (1, 5)")
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise ConfigError("policy: thresholds must be strictly ascending")
        object.__setattr__(self, "thresholds", cuts)

    @property
    def num_levels(self):
        return len(self.thresholds) + 1


def quality_label(mos, policy: QualityPolicy):
    """Bucket index of a MOS value (an int) or of each value of an array (an
    int64 array); a value exactly on a cut goes to the upper bucket."""
    m = np.asarray(mos, dtype=np.float64)
    outside = ~((m >= 1.0) & (m <= 5.0))  # NaN is outside too
    if np.any(outside):
        raise MosOutOfRange(f"mos={float(m[outside][0])!r} outside [1, 5]")
    levels = np.searchsorted(policy.thresholds, m, side="right")
    return levels.astype(np.int64) if m.ndim else int(levels)


@dataclass(frozen=True, eq=False)
class Dataset:
    """N utterances as columns, one row per record.

    ids: N strings; X: (N, d) float64 features; y: (N,) int64 labels;
    mos: (N,) float64, NaN where absent; quality: (N,) int64 level,
    QUALITY_ABSENT where absent; augmented: (N,) bool.
    """

    ids: list
    X: np.ndarray
    y: np.ndarray
    mos: np.ndarray
    quality: np.ndarray
    augmented: np.ndarray

    def __len__(self):
        return len(self.ids)

    def take(self, rows):
        """The records at the integer indices `rows`, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        return Dataset(
            ids=np.array(self.ids, dtype=object)[rows].tolist(),
            X=self.X[rows],
            y=self.y[rows],
            mos=self.mos[rows],
            quality=self.quality[rows],
            augmented=self.augmented[rows],
        )


def make_dataset(ids, X, y, mos, augmented, policy: QualityPolicy) -> Dataset:
    """Dataset of the given columns with quality derived from them: level 0
    for augmented bona fide records, the MOS level for every other record
    with a MOS (NaN is none), absent for the rest. A MOS outside [1, 5] is
    a MosOutOfRange naming the first such record, whatever its class."""
    ids = list(ids)
    y = np.asarray(y, dtype=np.int64)
    mos = np.asarray(mos, dtype=np.float64)
    augmented = np.asarray(augmented, dtype=bool)
    rated = ~np.isnan(mos)
    quality = np.full(y.shape, QUALITY_ABSENT, dtype=np.int64)
    try:
        quality[rated] = quality_label(mos[rated], policy)
    except MosOutOfRange as exc:
        row = np.argmax(rated & ~((mos >= 1.0) & (mos <= 5.0)))
        raise MosOutOfRange(f"record {echo(ids[row])}: {exc}") from None
    quality[(y == BONAFIDE) & augmented] = 0
    return Dataset(ids, np.asarray(X, dtype=np.float64), y, mos, quality,
                   augmented)


def require_quality(records: Dataset, rows, need: str):
    """MissingQuality `record ID: <need>` naming the first record of the
    bool mask `rows` (True: every record) that has no quality level."""
    unrated = rows & (records.quality == QUALITY_ABSENT)
    if np.any(unrated):
        raise MissingQuality(f"record {echo(records.ids[np.argmax(unrated)])}: "
                             f"{need}")


def load_jsonl(path, policy: QualityPolicy = QualityPolicy()) -> Dataset:
    """Parse one record per line. Quality is always recomputed, never read.

    Each line is a JSON object with a string `id` not seen before, a known
    `label`, `features` as a non-empty list of finite numbers as long as the
    first record's, and optionally `mos` (a number or null) and `augmented`
    (true or false). Anything else, bytes that are not UTF-8 or an id that
    does not encode as UTF-8 included, is a ParseError naming the line.

    Lines are read BLOCK_LINES at a time. A block is taken whole when every
    line parses cleanly and each column passes one test; any other block is
    read again line by line, which words every error and accepts the rare
    valid rows that the column tests leave out (integer features or mos, a
    non-ASCII id).

    A regular file of at least SPLIT_BYTES is cut into one range of whole
    lines per usable CPU, each read as above, the first here and each other
    in a forked child. Their columns are joined in file order. When any
    range fails, two disagree on the feature count or an id repeats across
    them, the whole file is read again here, which raises the error a read
    in one piece raises. load_jsonl_beside cuts the same ranges, but this
    process first loads a checkpoint, and its range is shorter by as many
    bytes as the checkpoint's file holds.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        columns = _read_split(fh.fileno()) or _read(fh)
    return columns.dataset(policy)


def load_jsonl_beside(path, load, other):
    """(x, load_jsonl(path, x.policy)) for x = load(other), with the outputs
    and errors of that serial order: an error of load(other) comes before
    any of the records'. score and export load their checkpoint this way.

    Where load_jsonl splits `path`, load(other) runs here while the forked
    children read their ranges, and then this process reads its own range,
    which is shorter by the size of the file `other`: a byte of checkpoint
    JSON parses about as fast as a byte of records. When the split read
    fails after load(other) returned, the whole file is read again here;
    when it fails before, load(other) and then load_jsonl run here.
    """
    loaded = []  # load(other), once it has returned
    columns = None
    # a path that is no regular file is not split, and opening a pipe
    # before load(other) could wait for its writer
    if os.path.isfile(path):
        try:
            with open(path, "r", encoding="utf-8",
                      errors="surrogateescape") as fh:
                columns = _read_split(
                    fh.fileno(), lambda: loaded.append(load(other)),
                    os.path.getsize(other) if os.path.isfile(other) else 0)
                if loaded and columns is None:
                    columns = _read(fh)
        except OSError:  # raised again below, after load(other)'s error
            pass
    x = loaded[0] if loaded else load(other)
    if columns is None:
        return x, load_jsonl(path, x.policy)
    return x, columns.dataset(x.policy)


def _read(fh):
    """The columns of the text file `fh`, read from where it stands."""
    columns = _Columns()
    line_no = 1
    while lines := list(islice(fh, BLOCK_LINES)):
        if not columns.add_block(lines, line_no):
            columns.add_lines(lines, line_no)
        line_no += len(lines)
    return columns


def _read_split(fd, side=lambda: None, weight=0):
    """The columns of the file open at `fd`, read in ranges on every usable
    CPU, or None where it is not split or a range fails. Where it is split,
    side() runs here after the children are forked and before this process
    reads its range, which is `weight` bytes shorter for it (_cuts); an
    exception of side() is a failed range."""
    cuts = _cuts(fd, weight)
    if cuts is None:
        return None
    ranges = [(fd, start, end) for start, end in zip(cuts, cuts[1:])]

    def read(k):
        if k == 0:
            side()
        return _read_range(ranges[k])

    try:
        parts = parallel.fork_map(read, range(len(ranges)))
    except (McocError, OSError):  # a bad range, or no fork: read it whole
        return None
    if None in parts or len({part.dim for part in parts if part.ids}) > 1:
        return None
    columns = parts[0]
    for part in parts[1:]:
        columns.dim = columns.dim or part.dim
        for name in ("ids", "labels", "augmented", "features", "mos"):
            getattr(columns, name).extend(getattr(part, name))
    if len(set(columns.ids)) < len(columns.ids):
        return None
    return columns


def _cuts(fd, weight=0):
    """Offsets [0, ..., size] that cut the file open at `fd` into up to one
    range per usable CPU and per half SPLIT_BYTES, each but the last
    ending just after a newline byte; None when fewer than two ranges come
    out (as when lines end in a bare carriage return, so that no newline
    byte follows a cut), or the file is not a regular file of at least
    SPLIT_BYTES.

    The ranges share size + `weight` bytes evenly, the first range's share
    holding the `weight` bytes of the task its reader runs first: that
    range is `weight` bytes shorter, or empty where `weight` fills its
    share. `weight` moves the cuts, not the number of ranges tried.
    """
    info = os.fstat(fd)
    size = info.st_size
    ranges = min(parallel.usable_cpus(), 2 * size // SPLIT_BYTES)
    if not stat.S_ISREG(info.st_mode) or ranges < 2:
        return None
    cuts = [0]
    for k in range(1, ranges):
        at = (size + weight) * k // ranges - weight
        cut = _line_end(fd, max(at, cuts[-1]), size) if at > 0 else 0
        if cut is None:
            break
        # [0, 0): the first range is empty
        if cuts[-1] < cut < size or cuts == [cut]:
            cuts.append(cut)
    return cuts + [size] if len(cuts) > 1 else None


def _line_end(fd, at, size):
    """The offset just after the first newline byte at or past `at`, or
    None."""
    while at < size:
        chunk = os.pread(fd, 1 << 16, at)
        if not chunk:
            return None
        if (i := chunk.find(b"\n")) >= 0:
            return at + i + 1
        at += len(chunk)
    return None


def _read_range(task):
    """The columns of the bytes [start, end) of the file open at `fd`,
    decoded as load_jsonl's open() decodes the whole file."""
    fd, start, end = task
    columns = _read(io.TextIOWrapper(
        io.BufferedReader(_ByteRange(fd, start, end)), encoding="utf-8",
        errors="surrogateescape"))
    # its line numbers count from the range's first line, and the joined
    # ids are checked whole; not worth sending back
    columns.first_seen.clear()
    return columns


class _ByteRange(io.RawIOBase):
    """The bytes [start, end) of the file open at `fd`, read with pread,
    which leaves the offset that the descriptor shares alone."""

    def __init__(self, fd, start, end):
        super().__init__()
        self.fd, self.at, self.end = fd, start, end

    def readable(self):
        return True

    def readinto(self, buf):
        data = os.pread(self.fd, min(len(buf), self.end - self.at), self.at)
        buf[:len(data)] = data
        self.at += len(data)
        return len(data)


class _Columns:
    """The columns of the records read so far."""

    def __init__(self):
        self.ids, self.labels, self.augmented = [], [], []
        # features go straight into one flat buffer of doubles: holding the
        # parsed lists of Python floats instead would take about four times
        # the memory of the final array
        self.features, self.mos, self.dim = array("d"), array("d"), 0
        self.first_seen = {}  # id -> line number

    def add_block(self, lines, start):
        """Append the records of `lines`, the first of which is line `start`,
        and return True if every line is ASCII, as save_jsonl writes it, and
        scans to one value ending at its newline (a blank line does not),
        and every column passes its test: ids unique ASCII strings, known
        labels, features floats of the first record's length, all finite,
        mos a finite float or null, augmented a bool. Otherwise change
        nothing and return False."""
        if not all(map(str.isascii, lines)):
            return False
        try:
            objs, ends = zip(*[_scan(line, 0) for line in lines])
        except (StopIteration, *UNDECODABLE):
            return False
        lengths = list(map(len, lines))
        lengths[-1] += not lines[-1].endswith("\n")  # a last line may have none
        if (set(map(operator.sub, lengths, ends)) != {1}
                or set(map(type, objs)) != {dict}):
            return False
        try:
            ids = [obj["id"] for obj in objs]
            feats = [obj["features"] for obj in objs]
            labels = [obj["label"] for obj in objs]
        except KeyError:
            return False
        mos = [obj.get("mos") for obj in objs]
        augmented = [obj.get("augmented", False) for obj in objs]
        if not (set(map(type, ids)) == {str} and all(map(str.isascii, ids))
                and set(map(type, labels)) == {str}
                and _LABEL_CODES.keys() >= set(labels)
                and set(map(type, feats)) == {list}
                and set(map(type, chain.from_iterable(feats))) == {float}
                and {float, type(None)} >= set(map(type, mos))
                and set(map(type, augmented)) == {bool}):
            return False
        dim = self.dim or len(feats[0])
        seen = dict(zip(ids, range(start, start + len(lines))))
        if not (set(map(len, feats)) == {dim} and len(seen) == len(ids)
                and self.first_seen.keys().isdisjoint(seen)):
            return False
        X = np.fromiter(chain.from_iterable(feats), np.float64)
        m = np.array(mos, dtype=np.float64)  # null reads as NaN
        if not (np.isfinite(X).all()
                and np.isfinite(m).sum() == len(mos) - mos.count(None)):
            return False
        self.dim = dim
        self.first_seen.update(seen)
        self.ids += ids
        self.features.frombytes(X.tobytes())
        self.labels += map(_LABEL_CODES.__getitem__, labels)
        self.mos.frombytes(m.tobytes())
        self.augmented += augmented
        return True

    def add_lines(self, lines, start):
        """Append the records of `lines`, the first of which is line `start`,
        one line at a time; the first bad line raises its error."""
        for line_no, line in enumerate(lines, start):
            _require_utf8(line, line_no)
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except UNDECODABLE as exc:
                raise ParseError(line_no, f"invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise ParseError(line_no, "expected a JSON object")
            for key in ("id", "features", "label"):
                if key not in obj:
                    raise ParseError(line_no, f"missing {key!r}")
            rid, feats, label = obj["id"], obj["features"], obj["label"]
            m, aug = obj.get("mos"), obj.get("augmented", False)
            if not isinstance(rid, str):
                raise ParseError(line_no, f"id must be a string, got {echo(rid)}")
            # a JSON escape can name a lone surrogate, which no UTF-8
            # output (scores.csv, embeddings.csv) can hold
            if not rid.isascii() and _not_utf8(rid) is not None:
                raise ParseError(line_no, f"id {echo(rid)} holds a lone "
                                          f"surrogate, which is not UTF-8")
            if rid in self.first_seen:
                raise ParseError(line_no, f"duplicate id {echo(rid)} (first on "
                                          f"line {self.first_seen[rid]})")
            if not (isinstance(label, str) and label in _LABEL_CODES):
                raise ParseError(line_no, f"unknown label {echo(label)}")
            # a row of floats with a finite sum is all finite; any other
            # row, one whose sum overflows included, is checked value by value
            if not (isinstance(feats, list) and feats
                    and (set(map(type, feats)) <= {float}
                         and math.isfinite(sum(feats))
                         or all(map(is_real, feats)))):
                raise ParseError(line_no, "features must be a non-empty list "
                                          "of finite numbers")
            if not self.ids:
                self.dim = len(feats)
            elif len(feats) != self.dim:
                raise ParseError(line_no, f"{len(feats)} features, the first "
                                          f"record has {self.dim}")
            if m is not None and not is_real(m):
                raise ParseError(line_no, f"mos must be a number or null, got {echo(m)}")
            if not isinstance(aug, bool):
                raise ParseError(line_no, f"augmented must be true or false, "
                                          f"got {echo(aug)}")
            self.first_seen[rid] = line_no
            self.ids.append(rid)
            self.features.extend(feats)
            self.labels.append(_LABEL_CODES[label])
            self.mos.append(np.nan if m is None else m)
            self.augmented.append(aug)

    def dataset(self, policy):
        X = np.frombuffer(self.features).reshape(len(self.ids), self.dim)
        return make_dataset(self.ids, X, self.labels, self.mos, self.augmented,
                            policy)


def utf8_lines(fh):
    """The lines of `fh`, a text file opened with errors="surrogateescape",
    under which a byte that is not UTF-8 reads as a lone surrogate that
    cannot be encoded again; a line holding one is a ParseError naming it."""
    for line_no, line in enumerate(fh, start=1):
        _require_utf8(line, line_no)
        yield line


def _require_utf8(line, line_no):
    """Raise a ParseError naming `line_no` if `line` holds a byte that is
    not UTF-8, read as a lone surrogate under errors="surrogateescape"."""
    if not line.isascii() and (i := _not_utf8(line)) is not None:
        raise ParseError(line_no, f"byte 0x{ord(line[i]) - 0xDC00:02x} is not "
                                  f"UTF-8")


def _not_utf8(text):
    """The index of the first character of `text` that UTF-8 cannot encode
    (a lone surrogate), or None. Its callers test isascii() first, so an
    ASCII line or id pays no call."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        return exc.start
    return None


def save_jsonl(records: Dataset, path):
    """Inverse of load_jsonl. Quality is derived state and is not serialized.

    Writes the bytes of one `json.dumps` per record, key order and separators
    included, for finite values; json.dumps escapes every non-ASCII character
    of an id, so the file is ASCII, as load_jsonl's block path takes it. A
    feature or present MOS that is not finite, and an id that is not UTF-8
    text (it holds a lone surrogate), are each a ValueError naming the first
    such record, before the file is opened. No command reaches either: gen
    checks that its features are finite and names its records in ASCII, and
    make_dataset range-checks every MOS.

    A file of parallel.SPLIT_VALUES feature values or more is written in
    ranges on every usable CPU (parallel.fork_write), with the same bytes.
    """
    if not "".join(records.ids).isascii():
        for rid in records.ids:
            if not rid.isascii() and _not_utf8(rid) is not None:
                raise ValueError(f"record {echo(rid)}: the id holds a lone "
                                 f"surrogate, which is not UTF-8")
    mos = records.mos
    bad = ~np.isfinite(records.X).all(axis=1) | np.isinf(mos)
    if np.any(bad):
        raise ValueError(f"record {echo(records.ids[np.argmax(bad)])}: a "
                         f"feature or MOS is not finite")

    def write(fh, start, end):
        # json.dumps writes a finite float as its repr. Features are
        # converted row by row, so that the Python floats of only one row
        # exist at a time; a fork_write child streams its rows to a file too
        columns = zip(map(json.dumps, records.ids[start:end]),
                      records.X[start:end],
                      map(_LABEL_NAMES.__getitem__,
                          records.y[start:end].tolist()),
                      mos[start:end].tolist(),
                      records.augmented[start:end].tolist())
        for rid, x, label, m, aug in columns:
            tail = "" if math.isnan(m) else f', "mos": {m!r}'
            if aug:
                tail += ', "augmented": true'
            fh.write(f'{{"id": {rid}, "features": '
                     f'[{", ".join(map(repr, x.tolist()))}], '
                     f'"label": "{label}"{tail}}}\n')

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        parallel.fork_write(fh, write, len(records), records.X.size)


# the most feature values a gen spec may draw (total count times dim): more
# is an array too large to hold
MAX_VALUES = 10**8


@dataclass(frozen=True)
class ClusterSpec:
    """One Gaussian blob. quality_band: 'low' | 'high' | a level index for
    bona fide (SyntheticSpec checks the index against its policy), None for
    spoof."""

    count: int
    mean: tuple
    spread: float
    label: str = "bonafide"
    quality_band: Optional[Union[str, int]] = None

    def __post_init__(self):
        require(is_int(self.count) and self.count >= 1,
                "count", self.count, "an integer >= 1")
        require(isinstance(self.mean, (list, tuple))
                and all(map(is_real, self.mean)),
                "mean", self.mean, "a list of numbers")
        object.__setattr__(self, "mean", tuple(self.mean))
        require(is_real(self.spread) and self.spread > 0,
                "spread", self.spread, "a number > 0")
        require(isinstance(self.label, str) and self.label in _LABEL_CODES,
                "label", self.label, "'bonafide' or 'spoof'")
        if self.label == "bonafide":
            require(self.quality_band in ("low", "high")
                    or is_int(self.quality_band) and self.quality_band >= 0,
                    "quality_band", self.quality_band,
                    "'low', 'high' or a level index >= 0 for a bonafide "
                    "cluster")
        else:
            require(self.quality_band is None, "quality_band",
                    self.quality_band, "null for a spoof cluster")


@dataclass(frozen=True)
class SyntheticSpec:
    """The clusters to sample; `policy` places each bona fide MOS band and
    levels the records, as the training config's policy levels its data."""

    dim: int
    clusters: tuple = field(metadata={"many": ClusterSpec})
    seed: int = 0
    policy: QualityPolicy = field(default_factory=QualityPolicy)

    def __post_init__(self):
        object.__setattr__(self, "clusters", tuple(self.clusters))
        require(is_int(self.dim) and self.dim >= 1,
                "dim", self.dim, "an integer >= 1")
        require(is_int(self.seed) and self.seed >= 0,
                "seed", self.seed, "an integer >= 0")
        require(len(self.clusters) >= 1, "clusters", self.clusters,
                "a non-empty list")
        levels = self.policy.num_levels
        for i, c in enumerate(self.clusters):
            if len(c.mean) != self.dim:
                raise ConfigError(f"spec.clusters[{i}]: mean has "
                                  f"{len(c.mean)} values, dim is {self.dim}")
            require(not (is_int(c.quality_band) and c.quality_band >= levels),
                    f"spec.clusters[{i}]: quality_band", c.quality_band,
                    f"'low', 'high' or a level index below {levels}")
        values = sum(c.count for c in self.clusters) * self.dim
        require(values <= MAX_VALUES, "spec: total count times dim", values,
                f"at most {MAX_VALUES}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """Inverse of to_dict; errors name `spec`, `spec.policy` or
        `spec.clusters[i]`."""
        return from_dict(cls, d, "spec")


def _mos_band(band, policy: QualityPolicy):
    """(lo, hi) of a bona fide cluster's MOS: level `band`'s cuts, 1 and 5
    at the ends; "low" below the first cut and "high" above it, a cut of
    2.5 where the policy has none."""
    if is_int(band):
        edges = (1.0, *policy.thresholds, 5.0)
        return edges[band], edges[band + 1]
    cut = policy.thresholds[0] if policy.thresholds else 2.5
    return (1.0, cut) if band == "low" else (cut, 5.0)


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Sample the configured Gaussian clusters with a seeded generator.

    Bona fide records get a synthetic MOS drawn uniformly inside their
    cluster's quality band, so only the bucket is meaningful. A cluster
    that draws a feature beyond the float range is a ConfigError.
    """
    rng = make_rng(spec.seed)
    ids, X, y, mos = [], [], [], []
    for ci, c in enumerate(spec.clusters):
        with np.errstate(over="ignore"):  # an overflow is checked below
            X.append(rng.normal(0.0, c.spread, size=(c.count, spec.dim))
                     + np.asarray(c.mean, dtype=np.float64))
        if not np.all(np.isfinite(X[-1])):
            raise ConfigError(f"spec.clusters[{ci}]: mean and spread draw a "
                              f"feature beyond the float range")
        if c.label == "bonafide":
            lo, hi = _mos_band(c.quality_band, spec.policy)
            # keep a margin off the cut so the band assignment is unambiguous
            width = hi - lo
            mos.append(rng.uniform(lo + 0.02 * width, hi - 0.02 * width,
                                   size=c.count))
        else:
            mos.append(np.full(c.count, np.nan))
        y.append(np.full(c.count, _LABEL_CODES[c.label]))
        ids += [f"{c.label}{ci}_{i:04d}" for i in range(c.count)]
    return make_dataset(ids, np.concatenate(X), np.concatenate(y),
                        np.concatenate(mos), np.zeros(len(ids), dtype=bool),
                        spec.policy)


def balance_augmentation(records: Dataset, fraction: float, noise_scale: float,
                         rng: np.random.Generator) -> Dataset:
    """Augment a seeded random subset of exactly round(fraction * N) records:
    additive Gaussian feature noise, drawn in one call for the chosen rows
    in row order, and bona fide quality dropped to level 0 unconditionally,
    even at noise_scale=0, as make_dataset levels an augmented bona fide
    record.

    Meant for training splits only; never call this on validation data.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    n = len(records)
    rows = np.sort(rng.permutation(n)[:int(round(fraction * n))])
    X = records.X.copy()
    noise = rng.normal(0.0, 1.0, size=(len(rows), X.shape[1]))
    X[rows] += noise * float(noise_scale)
    quality = records.quality.copy()
    quality[rows[records.y[rows] == BONAFIDE]] = 0
    augmented = records.augmented.copy()
    augmented[rows] = True
    return replace(records, X=X, quality=quality, augmented=augmented)


def benchmark_spec(seed: int, train: bool = True) -> SyntheticSpec:
    """Fixed desk-scale benchmark: two overlapping bona fide quality clusters
    plus two well-separated spoof clusters in 8 dimensions.

    The low/high bona fide clusters deliberately overlap in feature space;
    quality is mostly carried by MOS, mirroring the regime where multiple
    centroids can drift together without quality supervision.
    """
    d = 8
    base = np.zeros(d)
    base[0] = 1.0
    delta = np.zeros(d)
    delta[1] = 0.2
    spoof1 = np.zeros(d)
    spoof1[0] = -2.0
    spoof2 = np.zeros(d)
    spoof2[0] = 1.0
    spoof2[2] = 2.5
    n = 150 if train else 50
    clusters = (
        ClusterSpec(n, tuple(base - delta), 0.35, "bonafide", "low"),
        ClusterSpec(n, tuple(base + delta), 0.35, "bonafide", "high"),
        ClusterSpec(n, tuple(spoof1), 0.35, "spoof"),
        ClusterSpec(n, tuple(spoof2), 0.35, "spoof"),
    )
    return SyntheticSpec(dim=d, clusters=clusters, seed=seed if train else seed + 1000)
