import errno
import os
import signal
import tempfile
import time
import warnings

import numpy as np
import pytest

import mcoc.parallel
from mcoc.data import QualityPolicy, make_dataset, save_jsonl
from mcoc.parallel import fork_map, usable_cpus
from mcoc.scoring import export_embeddings


pytestmark = pytest.mark.usefixtures("no_child_left")


def test_results_come_back_in_task_order():
    out = fork_map(lambda task: (task, os.getpid()), ["a", "b", "c"])
    assert [task for task, _ in out] == ["a", "b", "c"]
    # the first task runs here, each other in a process of its own
    assert out[0][1] == os.getpid()
    assert len({pid for _, pid in out}) == 3


def test_a_child_that_fails_gives_none_and_prints_nothing(capfd):
    def task(n):
        if n == 1:
            raise ValueError("boom")
        if n == 2:
            os._exit(0)  # dies before its result is written
        if n == 3:
            return lambda: n  # which does not pickle
        return n

    # never a partial list: each caller then does its whole job serially
    for failing in [1, 2, 3]:
        assert fork_map(task, [0, failing, 4]) is None
    assert capfd.readouterr() == ("", "")


def test_a_result_file_or_fork_that_fails_gives_none(monkeypatch):
    made, TemporaryFile = [], tempfile.TemporaryFile

    def second_fails(*args, **kwargs):
        if made:
            raise OSError(errno.ENOSPC, "no space left")
        made.append(TemporaryFile(*args, **kwargs))
        return made[-1]

    with monkeypatch.context() as mp:
        mp.setattr(tempfile, "TemporaryFile", second_fails)
        assert fork_map(abs, [-1, -2, -3]) is None
    # the first child's file is closed, and the child reaped (no_child_left)
    assert len(made) == 1 and made[0].closed
    fork, forks = os.fork, []

    def second_fork_fails():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError("no more processes")
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    assert fork_map(abs, [-1, -2, -3]) is None
    assert len(forks) == 2


def _first_raises(error, result=lambda n: n):
    """A task that raises `error` for task 0 and gives result(n) for each
    other task n."""
    def task(n):
        if n == 0:
            raise error
        return result(n)

    return task


def test_the_first_task_raises_after_every_child_is_reaped():
    # an Exception gives None; any other BaseException propagates
    assert fork_map(_first_raises(KeyError(0)), [0, 1, 2]) is None
    with pytest.raises(KeyboardInterrupt):
        fork_map(_first_raises(KeyboardInterrupt()), [0, 1, 2])


def test_the_first_task_raises_while_its_siblings_write_large_results(
        hang_guard):
    # the children may still be writing their results when the first task
    # raises
    def large(n):
        return bytes([n]) * (4 << 20)

    assert fork_map(_first_raises(KeyError(0), large), [0, 1, 2, 3]) is None
    with pytest.raises(KeyboardInterrupt):
        fork_map(_first_raises(KeyboardInterrupt(), large), [0, 1, 2, 3])


def _stopped_in_time(task, sigchld):
    """Assert that fork_map(task, [0, 1, 2]) gives None in under 10 s with
    SIGCHLD at its default or ignored; with it ignored the kernel reaps
    each child itself, and none is signalled by a pid that may have been
    reaped."""
    old = signal.signal(signal.SIGCHLD, {"default": signal.SIG_DFL,
                                         "ignored": signal.SIG_IGN}[sigchld])
    start = time.monotonic()
    try:
        assert fork_map(task, [0, 1, 2]) is None
    finally:
        signal.signal(signal.SIGCHLD, old)
    assert time.monotonic() - start < 10


@pytest.mark.parametrize("sigchld", ["default", "ignored"])
def test_the_first_task_raising_stops_its_siblings(hang_guard, sigchld):
    # their results would be dropped, so fork_map does not wait for them
    def task(n):
        if n == 0:
            raise KeyError(n)
        time.sleep(60)
        return n

    _stopped_in_time(task, sigchld)


@pytest.mark.parametrize("sigchld", ["default", "ignored"])
def test_a_failing_child_stops_its_running_siblings(hang_guard, sigchld):
    # the child of task 1 exits at once, and that of task 2 would sleep 60 s
    parent = os.getpid()

    def task(n):
        if n == 1:
            os._exit(0)
        if os.getpid() != parent:
            time.sleep(60)
        return n

    _stopped_in_time(task, sigchld)


def test_without_pidfds_the_first_task_raises_after_its_siblings_end(
        monkeypatch, hang_guard):
    monkeypatch.delattr(os, "pidfd_open")

    def task(n):
        if n == 0:
            raise KeyError(n)
        time.sleep(0.5)
        return n

    start = time.monotonic()
    assert fork_map(task, [0, 1]) is None
    assert time.monotonic() - start >= 0.5


def test_a_large_result_comes_back_through_its_temp_file():
    out = fork_map(lambda n: bytes([n]) * (4 << 20), [1, 2, 3])
    assert out == [bytes([n]) * (4 << 20) for n in [1, 2, 3]]


def test_the_fork_warning_about_threads_is_kept_quiet(monkeypatch):
    # Python 3.12+ gives this warning in the parent when the process has
    # other threads; pytest turns any warning that escapes into an error
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn(f"This process (pid={os.getpid()}) is "
                          f"multi-threaded, use of fork() may lead to "
                          f"deadlocks in the child.", DeprecationWarning)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    assert fork_map(abs, [-1, -2, -3]) == [1, 2, 3]


def test_usable_cpus_reads_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5},
                        raising=False)
    assert usable_cpus() == 2
    # without fork or an affinity mask, callers keep their serial path
    monkeypatch.delattr(os, "sched_getaffinity")
    assert usable_cpus() == 1


# fork_write: save_jsonl and export_embeddings split across forked children

def _force_split(monkeypatch, cpus):
    """Make fork_write cut every file into up to `cpus` ranges."""
    monkeypatch.setattr("mcoc.parallel.SPLIT_VALUES", 1)
    monkeypatch.setattr("mcoc.parallel.usable_cpus", lambda: cpus)


def _serial_bytes(write, path):
    """The bytes write(path) gives with the serial loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("mcoc.parallel.usable_cpus", lambda: 1)
        write(path)
    return path.read_bytes()


def _records(n=7):
    """Records with a MOS present and absent, augmented rows of both
    classes, an id that is not ASCII and one that CSV must quote."""
    ids = [f"r{i}" for i in range(n)]
    ids[1] = "café 漢"
    ids[2] = 'a,"b"\r\nc'
    mos = np.where(np.arange(n) % 3 == 1, np.nan, 1.0 + np.arange(n) % 4)
    return make_dataset(ids, np.random.default_rng(0).normal(size=(n, 3)),
                        np.arange(n) % 2, mos, np.arange(n) % 3 == 2,
                        QualityPolicy())


def _save_jsonl(path, records=None):
    save_jsonl(_records() if records is None else records, path)


def _export(path, records=None):
    records = _records() if records is None else records
    E = np.random.default_rng(1).normal(size=(len(records), 4))
    export_embeddings(records, E / np.linalg.norm(E, axis=1, keepdims=True),
                      path)


WRITERS = [pytest.param(_save_jsonl, id="save_jsonl"),
           pytest.param(_export, id="export_embeddings")]


def _rows(fh, start, end):
    """The writer of a file whose row i is `row i`."""
    for i in range(start, end):
        fh.write(f"row {i}\n")


def _logged(writers):
    """_rows, which also appends (start, end) to `writers` in the process
    that writes the range."""
    def rows(fh, start, end):
        writers.append((start, end))
        _rows(fh, start, end)

    return rows


def _rows_file(path, rows, write=_rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("header\n")
        mcoc.parallel.fork_write(fh, write, rows, rows)
        fh.write("tail\n")  # fh writes on at the file's end
    return path.read_text()


def _rows_text(rows):
    return "header\n" + "".join(f"row {i}\n" for i in range(rows)) + "tail\n"


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("write", WRITERS)
def test_a_split_write_gives_the_serial_bytes(tmp_path, monkeypatch, write,
                                              cpus):
    serial = _serial_bytes(write, tmp_path / "serial")
    # the odd ids are in the file, as each writer writes them
    assert (b'"caf\\u00e9 \\u6f22"' in serial if write is _save_jsonl
            else '\ncafé 漢,'.encode() in serial
            and b'\n"a,""b""\r\nc",' in serial)
    _force_split(monkeypatch, cpus)
    # each child's range is encoded in its own process
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    write(tmp_path / "split")
    assert len(pids) == cpus - 1
    assert (tmp_path / "split").read_bytes() == serial


@pytest.mark.parametrize("rows", [0, 1, 2])
@pytest.mark.parametrize("write", WRITERS)
def test_more_ranges_than_rows(tmp_path, monkeypatch, write, rows):
    records = _records().take(range(rows))
    serial = _serial_bytes(lambda p: write(p, records), tmp_path / "serial")
    _force_split(monkeypatch, 3)
    write(tmp_path / "split", records)
    assert (tmp_path / "split").read_bytes() == serial


def _failing_children(monkeypatch, tmp_path, fail, last_only=False):
    """Make every fork_write child, or only the one of the last range, run
    fail(write, out, start, end) in place of its write(out, start, end),
    after it leaves the mark tmp_path / f"failed-{start}"; the caller keeps
    the write it was given."""
    parent, fork_write = os.getpid(), mcoc.parallel.fork_write

    def injecting(fh, write, rows, values):
        def failing(out, start, end):
            if os.getpid() == parent or (last_only and end < rows):
                return write(out, start, end)
            (tmp_path / f"failed-{start}").touch()
            return fail(write, out, start, end)

        return fork_write(fh, failing, rows, values)

    monkeypatch.setattr("mcoc.parallel.fork_write", injecting)


def _marks(tmp_path):
    """The first rows of the ranges whose child failed, by their marks."""
    return sorted(int(mark.name.split("-")[1])
                  for mark in tmp_path.glob("failed-*"))


def _die(write, out, start, end):
    os.kill(os.getpid(), signal.SIGKILL)


def _exit_before_writing(write, out, start, end):
    os._exit(3)


def _exit_after_half(write, out, start, end):
    # the first half of its rows reaches its temp file
    write(out, start, (start + end) // 2)
    out.flush()
    os._exit(1)


FAILURES = [pytest.param(_die, id="killed-before-writing"),
            pytest.param(_exit_before_writing, id="exits-before-writing"),
            pytest.param(_exit_after_half, id="exits-after-half")]


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("fail", FAILURES)
@pytest.mark.parametrize("write", WRITERS)
def test_a_failed_child_leaves_its_rows_to_the_caller(
        tmp_path, monkeypatch, hang_guard, write, fail, cpus):
    serial = _serial_bytes(write, tmp_path / "serial")
    _force_split(monkeypatch, cpus)
    _failing_children(monkeypatch, tmp_path, fail)
    write(tmp_path / "split")
    assert (tmp_path / "split").read_bytes() == serial
    # each child's range fails: 7 records in `cpus` ranges. The first
    # child to fail stops the later ones, which may not have left a mark
    marks = _marks(tmp_path)
    assert marks[:1] == [7 // cpus]
    assert set(marks) <= {7 * k // cpus for k in range(1, cpus)}


def test_a_failed_last_child_keeps_the_bytes_of_the_one_before(
        tmp_path, monkeypatch, hang_guard):
    # 9 rows in 3 ranges: the caller writes rows 0-2, a child rows 3-5, and
    # the child of rows 6-8 exits after half of its rows
    _force_split(monkeypatch, 3)
    _failing_children(monkeypatch, tmp_path, _exit_after_half,
                      last_only=True)
    writers = []  # the ranges written here
    text = _rows_file(tmp_path / "rows.txt", 9, _logged(writers))
    assert text == _rows_text(9)
    assert _marks(tmp_path) == [6]
    # the caller wrote its own range, then the whole file again
    assert writers == [(0, 3), (0, 9)]


def test_a_temp_file_that_cannot_be_opened_gives_the_serial_bytes(
        tmp_path, monkeypatch):
    _force_split(monkeypatch, 3)
    opened, TemporaryFile = [], tempfile.TemporaryFile

    def second_fails(*args, **kwargs):
        if opened:
            raise OSError(errno.ENOSPC, "no space left")
        opened.append(TemporaryFile(*args, **kwargs))
        return opened[-1]

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(tempfile, "TemporaryFile", second_fails)
    monkeypatch.setattr(os, "fork", no_fork)
    assert _rows_file(tmp_path / "rows.txt", 9) == _rows_text(9)
    assert len(opened) == 1 and opened[0].closed


def test_the_fallback_cuts_the_callers_rows_back_out(tmp_path, monkeypatch,
                                                     hang_guard):
    # the caller's range is written, a child fails, and the serial write
    # raises before its first row: the file holds what that write left
    _force_split(monkeypatch, 2)
    _failing_children(monkeypatch, tmp_path, _exit_before_writing)
    calls = []

    def second_call_fails(fh, start, end):
        calls.append(start)
        if len(calls) == 2:
            raise KeyError("again")
        _rows(fh, start, end)

    path = tmp_path / "rows.txt"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("header\n")
        with pytest.raises(KeyError):
            mcoc.parallel.fork_write(fh, second_call_fails, 9, 9)
    assert calls == [0, 0]
    assert path.read_text() == "header\n"


def test_a_child_error_is_raised_by_the_caller_with_the_serial_bytes(
        tmp_path, monkeypatch):
    def fails_at_row_5(fh, start, end):
        for i in range(start, end):
            if i == 5:
                raise ValueError("row 5")
            fh.write(f"row {i}\n")

    def write(path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            with pytest.raises(ValueError, match="row 5"):
                mcoc.parallel.fork_write(fh, fails_at_row_5, 9, 9)

    serial = _serial_bytes(write, tmp_path / "serial")
    _force_split(monkeypatch, 3)
    write(tmp_path / "split")
    assert (tmp_path / "split").read_bytes() == serial == (
        "".join(f"row {i}\n" for i in range(5)).encode())


def test_an_error_in_the_callers_range_propagates_after_the_children(
        tmp_path, monkeypatch, hang_guard):
    parent = os.getpid()

    def caller_fails(fh, start, end):
        _rows(fh, start, end)
        if os.getpid() == parent:
            raise KeyError("caller")

    def write(path):
        with pytest.raises(KeyError):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                mcoc.parallel.fork_write(fh, caller_fails, 9, 9)

    serial = _serial_bytes(write, tmp_path / "serial")
    _force_split(monkeypatch, 3)
    write(tmp_path / "split")
    # the serial write's 9 rows before its error, none of a child's range
    assert (tmp_path / "split").read_bytes() == serial == (
        "".join(f"row {i}\n" for i in range(9)).encode())


def test_an_error_in_the_callers_range_stops_the_children(tmp_path,
                                                         monkeypatch,
                                                         hang_guard):
    # their rows would be dropped, so fork_write does not wait for them
    _force_split(monkeypatch, 2)
    parent = os.getpid()

    def caller_fails(fh, start, end):
        if os.getpid() != parent:
            time.sleep(3)
        _rows(fh, start, end)
        if os.getpid() == parent:
            raise KeyError("caller")

    path = tmp_path / "rows.txt"
    start = time.monotonic()
    with pytest.raises(KeyError):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            mcoc.parallel.fork_write(fh, caller_fails, 9, 9)
    assert time.monotonic() - start < 1.5
    # the serial write's rows before its error
    assert path.read_text() == "".join(f"row {i}\n" for i in range(9))


def test_a_fork_that_fails_leaves_the_rest_to_the_caller(tmp_path,
                                                         monkeypatch):
    _force_split(monkeypatch, 3)
    fork, forks = os.fork, []

    def second_fork_fails():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError("no more processes")
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    writers = []  # the ranges written here
    text = _rows_file(tmp_path / "rows.txt", 9, _logged(writers))
    assert text == _rows_text(9)
    assert len(forks) == 2
    # the first child is stopped, and the whole file written here
    assert writers == [(0, 9)]


def test_nothing_forks_on_one_cpu_below_the_threshold_or_to_a_pipe(
        tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr("mcoc.parallel.usable_cpus", lambda: 1)
    monkeypatch.setattr("mcoc.parallel.SPLIT_VALUES", 1)
    assert _rows_file(tmp_path / "one_cpu.txt", 9) == _rows_text(9)
    monkeypatch.setattr("mcoc.parallel.usable_cpus", lambda: 3)
    monkeypatch.setattr("mcoc.parallel.SPLIT_VALUES", 10)
    assert _rows_file(tmp_path / "below.txt", 9) == _rows_text(9)
    # a pipe cannot be cut back, so it is written serially
    monkeypatch.setattr("mcoc.parallel.SPLIT_VALUES", 1)
    r, w = os.pipe()
    with open(r, "rb") as reader:
        with open(w, "w", encoding="utf-8", newline="") as fh:
            mcoc.parallel.fork_write(fh, _rows, 9, 9)
        assert reader.read().decode() == "".join(f"row {i}\n"
                                                 for i in range(9))


def test_with_sigchld_ignored_the_children_still_write_their_rows(
        tmp_path, monkeypatch):
    # the kernel reaps each child itself, so its status is unknown; its
    # result comes back through its temp file all the same
    writers = []  # the ranges written here
    _force_split(monkeypatch, 3)
    old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        text = _rows_file(tmp_path / "rows.txt", 9, _logged(writers))
    finally:
        signal.signal(signal.SIGCHLD, old)
    assert text == _rows_text(9)
    assert writers == [(0, 3)]
