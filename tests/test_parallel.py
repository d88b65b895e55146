import os
import warnings

import pytest

from mcoc.parallel import fork_map, usable_cpus


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
