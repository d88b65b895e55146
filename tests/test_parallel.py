import os
import signal
import warnings

import numpy as np
import pytest

from mcoc.data import QualityPolicy, make_dataset, save_jsonl
from mcoc.parallel import fork_map, fork_write, usable_cpus
from mcoc.scoring import export_embeddings


@pytest.fixture(autouse=True)
def no_child_left():
    """No child may outlive a test."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
            os._exit(0)  # dies before its result is sent
        return n

    assert fork_map(task, [0, 1, 2]) == [0, None, None]
    assert capfd.readouterr() == ("", "")


def test_the_first_task_raises_after_every_child_is_reaped():
    def task(n):
        if n == 0:
            raise KeyError(n)
        return n

    with pytest.raises(KeyError):
        fork_map(task, [0, 1, 2])


def test_the_first_task_raises_while_its_siblings_write_large_results(
        hang_guard):
    # each child's result overfills its pipe, so the children are still
    # writing when the first task raises; each later child was forked while
    # the pipes of the earlier ones were open here
    def task(n):
        if n == 0:
            raise KeyError(n)
        return bytes([n]) * (1 << 20)

    with pytest.raises(KeyError):
        fork_map(task, [0, 1, 2, 3])


def test_a_large_result_crosses_the_pipe():
    # far more than a pipe holds, read while the child still writes
    out = fork_map(lambda n: bytes([n]) * (1 << 20), [1, 2])
    assert out == [b"\x01" * (1 << 20), b"\x02" * (1 << 20)]


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


def _rows_file(path, rows, write=_rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("header\n")
        fork_write(fh, write, rows, rows)
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


def _in_children(monkeypatch, name, act):
    """Patch os.<name> so that in a forked child act(original, *args) runs
    in its place; the caller keeps the original."""
    parent, original = os.getpid(), getattr(os, name)

    def patched(*args):
        if os.getpid() == parent:
            return original(*args)
        return act(original, *args)

    monkeypatch.setattr(os, name, patched)


def _die(original, fd, n):
    os.kill(os.getpid(), signal.SIGKILL)


def _exit_before_writing(original, fd, n):
    os._exit(3)


def _exit_after_half(original, fd, data):
    original(fd, data[:len(data) // 2])
    os._exit(1)


FAILURES = [pytest.param("read", _die, id="killed-before-writing"),
            pytest.param("read", _exit_before_writing,
                         id="exits-before-writing"),
            pytest.param("write", _exit_after_half, id="exits-after-half")]


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("name, act", FAILURES)
@pytest.mark.parametrize("write", WRITERS)
def test_a_failed_child_leaves_its_rows_to_the_caller(
        tmp_path, monkeypatch, hang_guard, write, name, act, cpus):
    serial = _serial_bytes(write, tmp_path / "serial")
    _force_split(monkeypatch, cpus)
    _in_children(monkeypatch, name, act)
    write(tmp_path / "split")
    assert (tmp_path / "split").read_bytes() == serial


def test_a_failed_last_child_keeps_the_bytes_of_the_one_before(
        tmp_path, monkeypatch, hang_guard):
    # 9 rows in 3 ranges: the caller writes rows 0-2, a child rows 3-5, and
    # the child of rows 6-8 dies after half of its bytes
    _force_split(monkeypatch, 3)

    def last_fails(original, fd, data):
        if bytes(data).startswith(b"row 6"):
            _exit_after_half(original, fd, data)
        return original(fd, data)

    _in_children(monkeypatch, "write", last_fails)
    writers = []  # the ranges written here

    def rows_by(fh, start, end):
        writers.append((start, os.getpid()))
        _rows(fh, start, end)

    assert _rows_file(tmp_path / "rows.txt", 9, rows_by) == _rows_text(9)
    # the caller wrote its own range, then the failed child's again
    assert writers == [(0, os.getpid()), (6, os.getpid())]


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
                fork_write(fh, fails_at_row_5, 9, 9)

    serial = _serial_bytes(write, tmp_path / "serial")
    _force_split(monkeypatch, 3)
    write(tmp_path / "split")
    assert (tmp_path / "split").read_bytes() == serial == (
        "".join(f"row {i}\n" for i in range(5)).encode())


def test_an_error_in_the_callers_range_propagates_after_the_children(
        tmp_path, monkeypatch, hang_guard):
    _force_split(monkeypatch, 3)
    parent = os.getpid()

    def caller_fails(fh, start, end):
        _rows(fh, start, end)
        if os.getpid() == parent:
            raise KeyError("caller")

    path = tmp_path / "rows.txt"
    with pytest.raises(KeyError):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fork_write(fh, caller_fails, 9, 9)
    # the caller's rows, and none of the children's
    assert path.read_text() == "".join(f"row {i}\n" for i in range(3))


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
    assert _rows_file(tmp_path / "rows.txt", 9) == _rows_text(9)
    assert len(forks) == 2


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
            fork_write(fh, _rows, 9, 9)
        assert reader.read().decode() == "".join(f"row {i}\n"
                                                 for i in range(9))


def test_with_sigchld_ignored_the_caller_writes_the_childrens_rows(
        tmp_path, monkeypatch):
    # the kernel reaps each child itself, so its status is unknown and its
    # rows are cut back out and written here
    writers = []

    def rows_by(fh, start, end):
        writers.append(start)
        _rows(fh, start, end)

    _force_split(monkeypatch, 3)
    old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert _rows_file(tmp_path / "rows.txt", 9, rows_by) == _rows_text(9)
    finally:
        signal.signal(signal.SIGCHLD, old)
    assert writers == [0, 3]
