import dataclasses
import json
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mcoc.data
from mcoc.data import (
    BLOCK_LINES,
    BONAFIDE,
    QUALITY_ABSENT,
    SPOOF,
    QualityPolicy,
    balance_augmentation,
    benchmark_spec,
    generate_synthetic,
    load_jsonl,
    make_dataset,
    quality_label,
    save_jsonl,
)
from mcoc.errors import ConfigError, MosOutOfRange, ParseError
from mcoc.numerics import make_rng

import jsonl_reference

POLICY = QualityPolicy()
COLUMNS = ("X", "y", "mos", "quality", "augmented")


def assert_same(a, b):
    assert a.ids == b.ids
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y, equal_nan=name == "mos"), name


def one_record(label, mos=None):
    return make_dataset(["u"], [[1.0, 2.0]], [label],
                        [np.nan if mos is None else mos], [False], POLICY)


def random_dataset(n, dim, seed=0):
    rng = make_rng(seed)
    y = rng.integers(0, 2, size=n)
    mos = np.where(y == BONAFIDE, rng.uniform(1.0, 5.0, size=n), np.nan)
    return make_dataset([f"r{i}" for i in range(n)], rng.normal(size=(n, dim)),
                        y, mos, np.zeros(n, dtype=bool), POLICY)


def reference_augmentation(data, fraction, noise_scale, rng):
    """The per-record augmentation loop that balance_augmentation replaced:
    one rng.normal call per chosen record, in record order. Returns the
    X, quality and augmented columns."""
    n = len(data)
    k = int(round(fraction * n))
    chosen = set(rng.permutation(n)[:k].tolist())
    X = data.X.copy()
    quality = data.quality.copy()
    augmented = data.augmented.copy()
    for i in range(n):
        if i in chosen:
            noise = rng.normal(0.0, 1.0, size=data.X[i].shape) * float(noise_scale)
            X[i] = data.X[i] + noise
            if data.y[i] == BONAFIDE:
                quality[i] = 0
            augmented[i] = True
    return X, quality, augmented


def test_quality_label_boundary_goes_up():
    assert quality_label(2.5, POLICY) == 1


def test_quality_label_low_and_high():
    assert quality_label(1.0, POLICY) == 0
    assert quality_label(4.2, POLICY) == 1


def test_quality_label_out_of_range():
    with pytest.raises(MosOutOfRange):
        quality_label(0.5, POLICY)
    with pytest.raises(MosOutOfRange):
        quality_label(5.1, POLICY)
    with pytest.raises(MosOutOfRange, match="mos=nan"):
        quality_label([3.0, np.nan], POLICY)


@given(st.floats(min_value=1.0, max_value=5.0),
       st.floats(min_value=1.0, max_value=5.0))
def test_quality_label_monotone(a, b):
    lo, hi = sorted([a, b])
    assert quality_label(lo, POLICY) <= quality_label(hi, POLICY)
    # an array is bucketed value by value
    levels = quality_label(np.array([lo, hi]), POLICY)
    assert levels.dtype == np.int64
    assert levels.tolist() == [quality_label(lo, POLICY),
                               quality_label(hi, POLICY)]


def test_policy_multilevel():
    p = QualityPolicy(thresholds=(2.0, 3.5))
    assert quality_label(1.5, p) == 0
    assert quality_label(2.0, p) == 1
    assert quality_label(3.5, p) == 2


def test_policy_rejects_bad_thresholds():
    with pytest.raises(ConfigError):
        QualityPolicy(thresholds=(3.5, 2.0))
    with pytest.raises(ConfigError):
        QualityPolicy(thresholds=(0.5,))


def test_load_jsonl_fills_quality(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text(
        '{"id":"u1","features":[0.1,0.2],"label":"bonafide","mos":3.0}\n'
        '{"id":"u2","features":[0.3,0.4],"label":"spoof"}\n'
        '{"id":"u3","features":[0.5,0.6],"label":"bonafide","mos":4.0,'
        '"augmented":true}\n'
    )
    recs = load_jsonl(p, POLICY)
    assert recs.quality.tolist() == [1, QUALITY_ABSENT, 0]
    assert np.isnan(recs.mos[1])
    assert recs.augmented.tolist() == [False, False, True]


@pytest.mark.parametrize("label, augmented", [
    pytest.param(SPOOF, False, id="spoof"),
    pytest.param(SPOOF, True, id="augmented-spoof"),
    pytest.param(BONAFIDE, True, id="augmented-bonafide"),
])
def test_every_mos_is_range_checked(label, augmented):
    with pytest.raises(MosOutOfRange,
                       match=r"^record 'u': mos=9\.0 outside \[1, 5\]$"):
        make_dataset(["u"], [[1.0, 2.0]], [label], [9.0], [augmented], POLICY)


def test_load_jsonl_errors(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id":"u1","features":[0.1],"label":"bonafide"}\n{oops\n')
    with pytest.raises(ParseError) as exc:
        load_jsonl(p)
    assert exc.value.line_no == 2

    p.write_text('{"id":"u1","label":"bonafide"}\n')
    with pytest.raises(ParseError, match="^line 1: missing 'features'$"):
        load_jsonl(p)

    p.write_text('{"id":"u1","features":[null],"label":"spoof"}\n')
    with pytest.raises(ParseError):
        load_jsonl(p)


GOOD_LINE = '{"id":"a","features":[0.1,0.2],"label":"spoof"}'
BAD_LINES = [
    '{"id":"b","features":[0.1],"label":"spoof"}',  # shorter than line 1
    '{"id":"b","features":[0.1,0.2,0.3],"label":"spoof"}',
    '{"id":"b","features":[],"label":"spoof"}',
    '{"id":"b","features":0.1,"label":"spoof"}',
    '{"id":"b","features":[true,0.2],"label":"spoof"}',
    '{"id":"b","features":["1",0.2],"label":"spoof"}',
    '{"id":"b","features":[null,0.2],"label":"spoof"}',
    '{"id":"b","features":[NaN,0.2],"label":"spoof"}',
    '{"id":"b","features":[1e999,0.2],"label":"spoof"}',
    '{"id":"b","features":[0.1,-Infinity],"label":"spoof"}',
    '{"id":"b","features":[Infinity,-Infinity],"label":"spoof"}',
    '{"id":"b","features":[1' + "0" * 400 + ',0.2],"label":"spoof"}',
    '{"id":"b","features":[0.1,0.2],"label":"bonafide","mos":"x"}',
    '{"id":"b","features":[0.1,0.2],"label":"bonafide","mos":true}',
    '{"id":"b","features":[0.1,0.2],"label":"bonafide","mos":NaN}',
    '{"id":"b","features":[0.1,0.2],"label":"spoof","augmented":1}',
    '{"id":"b","features":[0.1,0.2],"label":["spoof"]}',
    '{"id":5,"features":[0.1,0.2],"label":"spoof"}',
    '{"id":"a","features":[0.1,0.2],"label":"spoof"}',  # duplicate id
    '[1, 2]',
]


@pytest.mark.parametrize("line", BAD_LINES)
def test_load_jsonl_rejects_bad_line(tmp_path, line):
    p = tmp_path / "bad.jsonl"
    p.write_text(GOOD_LINE + "\n" + line + "\n")
    with pytest.raises(ParseError) as exc:
        load_jsonl(p)
    assert exc.value.line_no == 2


@pytest.mark.parametrize("feats", [[1.7e308, 1.7e308], [-1.7e308, -1.7e308],
                                   [1.7e308, 2, 1.7e308], [3, 4]])
def test_load_jsonl_accepts_finite_features_whose_sum_overflows(tmp_path,
                                                                feats):
    p = tmp_path / "d.jsonl"
    p.write_text(f'{{"id":"a","features":{feats},"label":"spoof"}}\n')
    assert load_jsonl(p).X.tolist() == [feats]


def _record(rid, feats=(0.1, 0.2), label="spoof", **extra):
    return json.dumps({"id": rid, "features": list(feats), "label": label,
                       **extra}).encode()


# bad, blank and unusual lines, each case the list of byte strings (without
# line ends) it spans; the block reader sends most of them down its
# per-line path
ODD_LINES = {
    **{f"bad{i}": [line.encode()] for i, line in enumerate(BAD_LINES)},
    "blank": [b""],
    "blank-spaces": [b" \t "],
    "blank-nbsp": ["\u00a0".encode()],
    "crlf": [_record("c1") + b"\r"],
    "lone-cr": [_record("c2") + b"\r" + _record("c3")],
    "leading-space": [b" " + _record("w1")],
    "trailing-space": [_record("w2") + b"  "],
    "bom": [b"\xef\xbb\xbf" + _record("w3")],
    "utf8-then-json": [b'{"id":"x\xff","features":[0.1,0.2],"label":"spoof"}',
                       b"{oops"],
    "json-then-utf8": [b"{oops", b"\xff"],
    "utf8-in-other-key": [_record("u1")[:-1] + b',"note":"\xff"}'],
    "utf8-ok-in-other-key": [_record("u2")[:-1] + ',"note":"é"}'.encode()],
    "surrogate-id": [b'{"id":"\\ud800","features":[0.1,0.2],"label":"spoof"}'],
    "non-ascii-id": [_record("été").replace(b"\\u00e9", "é".encode())],
    "escaped-id": [_record("é2")],
    "int-features": [_record("i1", (1, 2))],
    "mixed-features": [_record("i2", (1, 0.5))],
    "int-mos": [_record("i3", label="bonafide", mos=3)],
    "null-mos": [_record("n1", label="bonafide", mos=None)],
    "augmented": [_record("g1", label="bonafide", mos=1.5, augmented=True)],
    "duplicate-across": [_record("d1"), _record("d2"), _record("d3"),
                         _record("d1")],
    "two-values": [_record("t1") + b"," + _record("t2")],
    "two-values-space": [_record("t3") + b" " + _record("t4")],
    "split-value": [b'{"id":"s1","features":[0.1,', b'0.2],"label":"spoof"}'],
    "deep": [b"[" * 100_000],
    "huge-int-id": [b'{"id":1' + b"0" * 5000
                    + b',"features":[0.1,0.2],"label":"spoof"}'],
}
ODD_AT = (BLOCK_LINES - 1, BLOCK_LINES, BLOCK_LINES + 1)


def _odd_file(path, cases, seed=0, crlf=False, final_newline=True):
    """A file of good records with the lines of each (name, line number)
    case inserted so that it starts at that line, in turn."""
    rng = make_rng(seed)
    lines = [GOOD_LINE.encode()]
    for i in range(1, BLOCK_LINES + 8):
        label = ("bonafide", "spoof")[rng.integers(2)]
        extra = ({"mos": float(rng.uniform(1.0, 5.0))} if label == "bonafide"
                 else {"mos": None} if rng.random() < 0.2 else {})
        if rng.random() < 0.1:
            extra["augmented"] = bool(rng.integers(2))
        lines.append(_record(f"r{i}", rng.normal(size=2).tolist(), label,
                             **extra))
    for name, line_no in cases:
        lines[line_no - 1:line_no - 1] = ODD_LINES[name]
    end = b"\r\n" if crlf else b"\n"
    path.write_bytes(end.join(lines) + (end if final_newline else b""))
    return path


def _outcome(load, path):
    """The columns `load` reads from `path`, as bytes, or the type and
    message of what it raises."""
    try:
        d = load(path, POLICY)
    except Exception as exc:  # both readers must fail alike, whatever they raise
        return type(exc), str(exc)
    return d.ids, [(x.dtype, x.shape, x.tobytes()) for x in
                   (d.X, d.y, d.mos, d.quality, d.augmented)]


@pytest.mark.parametrize("line_no", ODD_AT)
def test_block_reader_matches_line_reader_on_each_case(tmp_path, line_no):
    for name in ODD_LINES:
        path = _odd_file(tmp_path / f"{name}.jsonl", [(name, line_no)])
        assert (_outcome(load_jsonl, path)
                == _outcome(jsonl_reference.load_jsonl, path)), name


@settings(max_examples=40, deadline=None)
@given(cases=st.lists(st.tuples(st.sampled_from(sorted(ODD_LINES)),
                                st.sampled_from(ODD_AT)), max_size=3),
       seed=st.integers(0, 2**16), crlf=st.booleans(),
       final_newline=st.booleans())
def test_block_reader_matches_line_reader(tmp_path_factory, cases, seed, crlf,
                                          final_newline):
    path = _odd_file(tmp_path_factory.mktemp("odd") / "d.jsonl", cases, seed,
                     crlf, final_newline)
    assert (_outcome(load_jsonl, path)
            == _outcome(jsonl_reference.load_jsonl, path))


@pytest.mark.parametrize("name", ["deep", "huge-int-id"])
@pytest.mark.parametrize("load", [load_jsonl, jsonl_reference.load_jsonl],
                         ids=["block", "reference"])
def test_undecodable_line_is_a_parse_error(tmp_path, name, load):
    # nesting too deep for the decoder, an integer over the digit limit
    path = _odd_file(tmp_path / "d.jsonl", [(name, BLOCK_LINES)])
    with pytest.raises(ParseError, match=f"^line {BLOCK_LINES}: invalid JSON: "):
        load(path, POLICY)


def test_clean_file_takes_the_block_path(tmp_path, monkeypatch):
    recs = random_dataset(3 * BLOCK_LINES + 5, 4)
    path = tmp_path / "d.jsonl"
    save_jsonl(recs, path)

    def no_line_path(*args):
        raise AssertionError("a clean block was read line by line")

    monkeypatch.setattr("mcoc.data._Columns.add_lines", no_line_path)
    assert_same(load_jsonl(path, POLICY), recs)
    path.write_bytes(path.read_bytes()[:-1])  # no newline after the last line
    assert_same(load_jsonl(path, POLICY), recs)


def _force_split(monkeypatch, ranges):
    """Make load_jsonl cut every file into up to `ranges` ranges."""
    monkeypatch.setattr("mcoc.data.SPLIT_BYTES", 1)
    monkeypatch.setattr("mcoc.parallel.usable_cpus", lambda: ranges)


def _split_outcome(path):
    """_outcome of load_jsonl, which must leave no child process behind."""
    outcome = _outcome(load_jsonl, path)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return outcome


def _reference_outcome(path):
    return _outcome(jsonl_reference.load_jsonl, path)


def _range_starts(path):
    """The line numbers, counted by newline bytes, on which the second and
    later ranges of a split read of `path` start."""
    with open(path, "rb") as fh:
        cuts = mcoc.data._cuts(fh.fileno()) or [0, 0]
        raw = fh.read()
    return [raw[:cut].count(b"\n") + 1 for cut in cuts[1:-1]]


def _count_reads(monkeypatch):
    """A list that grows by one with each read, by this process, of a whole
    file or range."""
    reads, read = [], mcoc.data._read

    def counted(fh):
        reads.append(1)
        return read(fh)

    monkeypatch.setattr("mcoc.data._read", counted)
    return reads


def test_split_matches_line_reader_at_the_cut(tmp_path, monkeypatch):
    # each case just after or just before the cut (both, where the case
    # lands there), and inside the later range; the hypothesis test below
    # cuts into up to 4 ranges
    _force_split(monkeypatch, 2)
    start, = _range_starts(_odd_file(tmp_path / "plain.jsonl", []))
    for name, case in ODD_LINES.items():
        # the case moves the cut a little: find where it lands next to it
        sides = set()
        for line_no in range(start - len(case) - 3, start + 4):
            path = _odd_file(tmp_path / f"{name}.jsonl", [(name, line_no)])
            cut_at = _range_starts(path)
            side = (line_no in cut_at) - (line_no + len(case) in cut_at)
            if side and side not in sides:
                sides.add(side)
                assert (_split_outcome(path)
                        == _reference_outcome(path)), (name, line_no)
        assert sides, f"{name} never lands next to the cut"
        path = _odd_file(tmp_path / f"{name}.jsonl", [(name, BLOCK_LINES + 1)])
        # the 100 kB line draws every cut to its end
        assert name == "deep" or _range_starts(path)[0] <= BLOCK_LINES + 1
        assert _split_outcome(path) == _reference_outcome(path), name


@settings(max_examples=40, deadline=None)
@given(cases=st.lists(st.tuples(st.sampled_from(sorted(ODD_LINES)),
                                st.integers(1, BLOCK_LINES + 8)), max_size=3),
       seed=st.integers(0, 2**16), crlf=st.booleans(),
       final_newline=st.booleans(), ranges=st.integers(2, 4))
def test_split_reader_matches_line_reader(tmp_path_factory, cases, seed, crlf,
                                          final_newline, ranges):
    path = _odd_file(tmp_path_factory.mktemp("odd") / "d.jsonl", cases, seed,
                     crlf, final_newline)
    with pytest.MonkeyPatch.context() as mp:
        _force_split(mp, ranges)
        assert _split_outcome(path) == _reference_outcome(path)


@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
@pytest.mark.parametrize("final_newline", [True, False],
                         ids=["final-newline", "no-final-newline"])
def test_split_joins_the_ranges_of_a_clean_file(tmp_path, monkeypatch, crlf,
                                                final_newline):
    _force_split(monkeypatch, 3)
    path = _odd_file(tmp_path / "d.jsonl", [], crlf=crlf,
                     final_newline=final_newline)
    assert len(_range_starts(path)) == 2
    reads = _count_reads(monkeypatch)
    assert _split_outcome(path) == _reference_outcome(path)
    assert len(reads) == 1  # the first range only: nothing was read again


@pytest.mark.parametrize("cpus, split_bytes, ranges",
                         [(3, 1, 3), (8, 1, 8), (8, "size", 2),
                          (8, "half", 4), (1, 1, 1)])
def test_one_range_per_usable_cpu_and_per_half_the_threshold(
        tmp_path, monkeypatch, cpus, split_bytes, ranges):
    path = _odd_file(tmp_path / "d.jsonl", [])
    size = path.stat().st_size
    split_bytes = {"size": size, "half": size // 2}.get(split_bytes,
                                                        split_bytes)
    monkeypatch.setattr("mcoc.data.SPLIT_BYTES", split_bytes)
    monkeypatch.setattr("mcoc.parallel.usable_cpus", lambda: cpus)
    with open(path, "rb") as fh:
        cuts = mcoc.data._cuts(fh.fileno())
    assert (len(cuts) - 1 if cuts else 1) == ranges  # None: read whole


def test_a_bad_first_range_with_large_later_ranges(tmp_path, monkeypatch,
                                                  hang_guard):
    # the first range raises here while the children still write columns
    # that overfill their pipes
    _force_split(monkeypatch, 3)
    lines = [b"{oops"] + [_record(f"r{i}", (0.25,) * 8)
                          for i in range(9_000)]
    path = tmp_path / "d.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with open(path, "rb") as fh:
        cuts = mcoc.data._cuts(fh.fileno())
        assert len(cuts) == 4
        for start, end in zip(cuts[1:-1], cuts[2:]):  # a pipe holds 64 KiB
            columns = mcoc.data._read_range((fh.fileno(), start, end))
            assert len(pickle.dumps(columns)) > 1 << 16
    reads = _count_reads(monkeypatch)
    assert _split_outcome(path) == _reference_outcome(path)
    assert _reference_outcome(path)[0] is ParseError
    assert len(reads) == 2  # the first range, then the whole file


# a last line that only the joined columns show to be bad
LAST_LINES = {
    "duplicate-id": _record("r3"),  # r3 is on line 4 of every _odd_file
    "feature-count": _record("z1", (0.1, 0.2, 0.3)),
    "mos-out-of-range": _record("z2", label="bonafide", mos=9.0),
}


@pytest.mark.parametrize("name", LAST_LINES)
def test_split_error_in_the_last_range_is_the_line_readers(tmp_path,
                                                           monkeypatch, name):
    _force_split(monkeypatch, 2)
    path = _odd_file(tmp_path / "d.jsonl", [])
    path.write_bytes(path.read_bytes() + LAST_LINES[name] + b"\n")
    outcome = _split_outcome(path)
    assert outcome == _reference_outcome(path)
    assert outcome[0] in (ParseError, MosOutOfRange)


def test_split_ranges_that_disagree_on_the_feature_count(tmp_path,
                                                        monkeypatch):
    # each range is whole in itself, so only the join sees the mismatch: a
    # long last line of 2 features draws the cut to its end
    _force_split(monkeypatch, 2)
    path = tmp_path / "d.jsonl"
    path.write_bytes(b"".join(_record(f"a{i}") + b"\n" for i in range(20))
                     + _record("a" * 5000) + b"\n"
                     + b"".join(_record(f"b{i}", (0.1, 0.2, 0.3)) + b"\n"
                                for i in range(40)))
    assert _range_starts(path) == [22]
    outcome = _split_outcome(path)
    assert outcome == _reference_outcome(path)
    assert outcome == (ParseError, "line 22: 3 features, the first record "
                                   "has 2")


def test_a_file_of_bare_cr_line_ends_is_read_whole(tmp_path, monkeypatch):
    _force_split(monkeypatch, 2)
    path = _odd_file(tmp_path / "d.jsonl", [])
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
    assert _range_starts(path) == []
    reads = _count_reads(monkeypatch)
    assert _split_outcome(path) == _reference_outcome(path)
    assert len(reads) == 1 and len(_reference_outcome(path)[0]) > BLOCK_LINES


def test_a_child_that_dies_gives_the_serial_result(tmp_path, monkeypatch):
    _force_split(monkeypatch, 2)
    path = _odd_file(tmp_path / "d.jsonl", [])
    parent, read_range = os.getpid(), mcoc.data._read_range

    def dies_in_the_child(task):
        if os.getpid() != parent:
            os._exit(0)
        return read_range(task)

    monkeypatch.setattr("mcoc.data._read_range", dies_in_the_child)
    reads = _count_reads(monkeypatch)
    assert _split_outcome(path) == _reference_outcome(path)
    assert len(reads) == 2  # the first range, then the whole file


@pytest.mark.parametrize("ranges, below", [(1, False), (4, True)],
                         ids=["one-cpu", "below-threshold"])
def test_no_fork_on_one_cpu_or_below_the_threshold(tmp_path, monkeypatch,
                                                   ranges, below):
    path = _odd_file(tmp_path / "d.jsonl", [])
    size = path.stat().st_size
    monkeypatch.setattr("mcoc.parallel.usable_cpus", lambda: ranges)
    monkeypatch.setattr("mcoc.data.SPLIT_BYTES", size + below)
    forks = []

    def no_fork():  # fails as a fork past the process limit does
        forks.append(1)
        raise BlockingIOError("fork")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _split_outcome(path) == _reference_outcome(path)
    assert forks == []
    # a file of exactly SPLIT_BYTES splits where more than one CPU is usable,
    # and is read whole when the fork fails
    monkeypatch.setattr("mcoc.data.SPLIT_BYTES", size)
    assert _split_outcome(path) == _reference_outcome(path)
    assert forks == [1] * (ranges > 1)


def test_jsonl_round_trip(tmp_path):
    recs = generate_synthetic(benchmark_spec(7))
    rng = make_rng(1)
    recs = balance_augmentation(recs, 0.25, 0.1, rng)
    path = tmp_path / "rt.jsonl"
    save_jsonl(recs, path)
    assert_same(load_jsonl(path, POLICY), recs)


ODD_IDS = ['say "hi"', "back\\slash", "ctl\x00\x01\x1f\t\n\r\x7f", "é中😀", ""]
ODD_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-07, 1e+16, 1.7976931348623157e+308,
              -1.7976931348623157e+308, 0.1, 2.5, 123456789.125]


def _same_bytes_as_reference(tmp_path, recs):
    path, ref = tmp_path / "d.jsonl", tmp_path / "ref.jsonl"
    save_jsonl(recs, path)
    jsonl_reference.save_jsonl(recs, ref)
    assert path.read_bytes() == ref.read_bytes()


def test_writer_matches_json_dumps_bytes(tmp_path):
    n = len(ODD_IDS)
    X = np.array([np.roll(ODD_FLOATS, i) for i in range(n)])
    y = ([BONAFIDE, SPOOF] * n)[:n]
    mos = [1.0, np.nan, 5.0, 2.5, 4.999999999999999]
    augmented = [False, True, True, False, True]
    _same_bytes_as_reference(tmp_path, make_dataset(ODD_IDS, X, y, mos,
                                                    augmented, POLICY))


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(
    st.text(), st.lists(st.floats(allow_nan=False, allow_infinity=False),
                        min_size=3, max_size=3),
    st.sampled_from([BONAFIDE, SPOOF]),
    st.one_of(st.just(np.nan), st.floats(1.0, 5.0)), st.booleans()),
    min_size=1, max_size=8, unique_by=lambda r: r[0]))
def test_writer_matches_json_dumps_bytes_on_any_finite_record(tmp_path_factory,
                                                              rows):
    ids, X, y, mos, augmented = zip(*rows)
    recs = make_dataset(ids, X, y, mos, augmented, POLICY)
    _same_bytes_as_reference(tmp_path_factory.mktemp("w"), recs)


@pytest.mark.parametrize("column,value", [("X", np.inf), ("X", -np.inf),
                                          ("X", np.nan), ("mos", np.inf),
                                          ("mos", -np.inf)])
def test_writer_rejects_a_non_finite_value_before_opening(tmp_path, column,
                                                          value):
    recs = random_dataset(5, 3)
    bad = getattr(recs, column).copy()  # mos is NaN, absent, on spoof rows
    bad[2, ...] = value
    path = tmp_path / "d.jsonl"
    path.write_bytes(b"kept\n")
    with pytest.raises(ValueError, match=r"^record 'r2': a feature or MOS is "
                                         r"not finite$"):
        save_jsonl(dataclasses.replace(recs, **{column: bad}), path)
    assert path.read_bytes() == b"kept\n"


def test_writer_rejects_an_id_that_is_not_utf8_before_opening(tmp_path):
    # load_jsonl refuses such an id, so no file that holds one is written
    recs = make_dataset(["é", "lone\ud800surrogate"], [[1.0], [2.0]],
                        [BONAFIDE, SPOOF], [np.nan, np.nan], [False, False],
                        POLICY)
    path = tmp_path / "d.jsonl"
    path.write_bytes(b"kept\n")
    with pytest.raises(ValueError, match=r"^record 'lone\\ud800surrogate': "
                                         r"the id holds a lone surrogate, "
                                         r"which is not UTF-8$"):
        save_jsonl(recs, path)
    assert path.read_bytes() == b"kept\n"


def test_generate_counts_and_quality():
    spec = benchmark_spec(3)
    recs = generate_synthetic(spec)
    assert len(recs) == 600
    bona = recs.quality[recs.y == BONAFIDE]
    assert np.sum(bona == 0) == 150
    assert np.sum(bona == 1) == 150
    assert np.sum(recs.quality == QUALITY_ABSENT) == 300


def test_generate_deterministic():
    a = generate_synthetic(benchmark_spec(5))
    b = generate_synthetic(benchmark_spec(5))
    assert_same(a, b)


def test_generate_tight_clusters_recoverable():
    # brute-force nearest-mean assignment recovers the generating cluster
    from mcoc.data import ClusterSpec, SyntheticSpec

    means = [(0.0, 0.0, 5.0), (5.0, 0.0, 0.0), (0.0, 5.0, 0.0)]
    spec = SyntheticSpec(
        dim=3,
        clusters=(
            ClusterSpec(10, means[0], 0.01, "bonafide", "low"),
            ClusterSpec(10, means[1], 0.01, "bonafide", "high"),
            ClusterSpec(10, means[2], 0.01, "spoof"),
        ),
        seed=0,
    )
    recs = generate_synthetic(spec)
    M = np.array(means)
    for i, x in enumerate(recs.X):
        nearest = int(np.argmin(np.linalg.norm(M - x, axis=1)))
        assert nearest == i // 10


def test_take_selects_rows_in_order():
    recs = generate_synthetic(benchmark_spec(2))
    rows = [450, 3, 3, 151]
    part = recs.take(rows)
    assert part.ids == ["spoof3_0000", "bonafide0_0003", "bonafide0_0003",
                        "bonafide1_0001"]
    for name in COLUMNS:
        assert np.array_equal(getattr(part, name), getattr(recs, name)[rows],
                              equal_nan=name == "mos")
    assert len(recs.take([])) == 0


def test_augment_relabels_bonafide():
    r = one_record(BONAFIDE, mos=4.0)
    assert r.quality.tolist() == [1]
    out = balance_augmentation(r, 1.0, 0.1, make_rng(0))
    assert out.quality.tolist() == [0] and out.augmented.tolist() == [True]
    assert not np.array_equal(out.X, r.X)


def test_augment_zero_noise_still_relabels():
    r = one_record(BONAFIDE, mos=4.0)
    out = balance_augmentation(r, 1.0, 0.0, make_rng(0))
    assert np.array_equal(out.X, r.X)
    assert out.quality.tolist() == [0]


def test_augment_spoof_keeps_no_quality():
    r = one_record(SPOOF)
    out = balance_augmentation(r, 1.0, 0.1, make_rng(0))
    assert out.quality.tolist() == [QUALITY_ABSENT]
    assert out.augmented.tolist() == [True]


def test_spoof_mos_gives_its_level_augmented_or_not():
    # the level make_dataset gives an augmented spoof record, so that a
    # saved and reloaded training split keeps it
    r = one_record(SPOOF, mos=4.0)
    out = balance_augmentation(r, 1.0, 0.1, make_rng(0))
    assert r.quality.tolist() == out.quality.tolist() == [1]
    assert out.augmented.tolist() == [True]


@pytest.mark.parametrize("dim", [8, 64])
@pytest.mark.parametrize("fraction", [0.0, 0.4, 1.0])
def test_balance_matches_per_record_reference(dim, fraction):
    # one noise draw for all chosen rows gives the same values and leaves
    # the generator where one draw per record left it
    data = random_dataset(50, dim)
    rng, ref_rng = make_rng(11), make_rng(11)
    out = balance_augmentation(data, fraction, 0.3, rng)
    X, quality, augmented = reference_augmentation(data, fraction, 0.3, ref_rng)
    assert np.array_equal(out.X, X)
    assert np.array_equal(out.quality, quality)
    assert np.array_equal(out.augmented, augmented)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_balance_fraction_exact():
    recs = generate_synthetic(benchmark_spec(2)).take(np.arange(100))
    out = balance_augmentation(recs, 0.4, 0.1, make_rng(0))
    assert np.sum(out.augmented) == 40


def test_balance_zero_is_identity():
    recs = generate_synthetic(benchmark_spec(2)).take(np.arange(50))
    assert_same(balance_augmentation(recs, 0.0, 0.1, make_rng(0)), recs)


def test_balance_full_forces_low_quality():
    recs = generate_synthetic(benchmark_spec(2)).take(np.arange(50))
    out = balance_augmentation(recs, 1.0, 0.1, make_rng(0))
    assert np.all(out.quality[out.y == BONAFIDE] == 0)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_balance_preserves_quality_invariant(fraction):
    recs = generate_synthetic(benchmark_spec(4)).take(np.arange(60))
    out = balance_augmentation(recs, fraction, 0.2, make_rng(9))
    bona = out.y == BONAFIDE
    assert np.all(out.quality[~bona] == QUALITY_ABSENT)
    assert np.all(out.quality[bona & out.augmented] == 0)
    rated = bona & ~out.augmented
    assert np.array_equal(out.quality[rated],
                          quality_label(out.mos[rated], POLICY))


def test_balance_fraction_above_one_is_rejected():
    recs = generate_synthetic(benchmark_spec(2)).take(np.arange(10))
    with pytest.raises(ValueError, match=r"fraction must be in \[0, 1\]"):
        balance_augmentation(recs, 1.5, 0.1, make_rng(0))
