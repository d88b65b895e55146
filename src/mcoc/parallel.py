"""Run a few tasks at once on forked children, with no pool.

``fork_map(fn, tasks)`` computes ``fn(task)`` for each task: the first in
the calling process, each other in a child forked for it, which pickles
its result back through a pipe. ``load_jsonl`` reads the ranges of a large
file through it (``score`` and ``export`` load their checkpoint in the
caller's task), and ``ablate`` trains its distinct arm configs through it.
A child that raises or dies gives ``None``.

``fork_write(fh, write, rows, values)`` writes rows [0, rows) of a text
file in ranges through ``fork_map``: the caller streams the first range
through ``fh``, and the child of each later range streams it into an
unnamed temp file, which the caller then copies after its own range, in
file order, so it never holds a child's text. ``save_jsonl`` and
``export_embeddings`` write large files through it. When anything fails
(a temp file, a fork, a child, the caller's own range or a copy), the file
is cut back to where it stood and written here in one piece, which gives
the bytes or the error of one serial write.

When the first task raises (fork_write's own range included), the
children's work would be dropped, so each child is killed before it is
reaped, through a pidfd where the platform has them.

Every child leaves through ``os._exit``, so it runs no exit handler and
flushes no buffer of the parent's, and every child is reaped before either
function returns or raises, so no process outlives the call.

Only ``os``, ``pickle``, ``shutil``, ``stat``, ``tempfile`` and
``warnings`` are imported with the module (numpy imports ``shutil`` and
``tempfile`` already): ``multiprocessing`` would cost every ``import
mcoc.cli`` several milliseconds, and ``signal`` about one, so ``signal`` is
imported only to kill a child.
"""

from __future__ import annotations

import os
import pickle
import shutil
import stat
import tempfile
import warnings

# the fewest values (rows times columns) that fork_write splits across the
# usable CPUs; a file is cut into at most one range per half of it, so each
# range holds about SPLIT_VALUES / 2 or more. Timed as whole `gen` and
# `export` calls in a 75 MB process on 2 CPUs, in three spells of 6-10
# alternated rounds: files of 128k-256k values were split faster in every
# round of each spell (gen of 256k 64-d values: 372 -> 209 ms); files of
# 48k-96k in every round of one spell but in at most 2 of 10 of another, in
# which the host ran two processes little faster than one (gen of 48k 8-d
# values: 98 ms serial, 107 split); files of 8k-32k in at most 3 of 10.
# Only 2 ranges were timed.
SPLIT_VALUES = 100_000


def usable_cpus():
    """The CPUs this process may run on; 1 where fork or the affinity mask
    is missing, which keeps callers on their serial path."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def fork_map(fn, tasks):
    """[fn(task) for task in tasks], the first computed here and each other
    in a forked child; None for a child that fails. One process runs per
    task, so the caller keeps to usable_cpus() tasks; an exception of the
    first task propagates, after the children are killed and reaped. In a
    child, fn must take no lock another thread may hold."""
    tasks = list(tasks)
    children = []  # (pid, read end of its pipe, pidfd or None)
    try:
        for task in tasks[1:]:
            earlier = [pipe.fileno() for _, pipe, _ in children]
            pid, pipe = _fork_result(fn, task, earlier)
            children.append((pid, pipe, _pidfd(pid)))
        results = [fn(tasks[0])]
        for _, pipe, _ in children:
            try:
                results.append(pickle.load(pipe))
            except (EOFError, pickle.UnpicklingError):  # it died first
                results.append(None)
        return results
    except BaseException:
        # the children's results would be dropped: stop them, not wait
        for _, _, pidfd in children:
            _kill(pidfd)
        raise
    finally:
        # every pipe first: a child still writing gets EPIPE and leaves,
        # whatever order the children end in
        for _, pipe, _ in children:
            pipe.close()
        for pid, _, pidfd in children:
            _reap(pid)
            if pidfd is not None:
                os.close(pidfd)


def fork_write(fh, write, rows, values):
    """Write rows [0, rows) of a file of `values` values to the text file
    `fh`, open for writing with no newline translation. write(out, start,
    end) writes rows [start, end) to the text file `out`.

    On one usable CPU, below SPLIT_VALUES values or when `fh` is not a
    regular file, this is write(fh, 0, rows). Otherwise the rows are cut
    into up to one range per usable CPU: fork_map writes the first to `fh`
    here and each other to a temp file in a forked child, and the temp
    files are then copied to `fh` in file order. When a child fails or an
    Exception is raised here (by a temp file, a fork, the caller's range or
    a copy), `fh` is cut back to where it stood and write(fh, 0, rows) runs
    here, which gives the serial bytes or the serial error. In a child,
    write must take no lock another thread may hold.
    """
    ranges = min(usable_cpus(), rows, 2 * values // SPLIT_VALUES)
    if ranges < 2 or not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        write(fh, 0, rows)
        return
    cuts = [rows * k // ranges for k in range(ranges + 1)]
    at = fh.tell()  # flushes fh; a fallback cuts the file back to here
    temps = []  # ranges 1, 2, ...; unnamed, so none is left on disk

    def part(k):
        if k == 0:
            write(fh, 0, cuts[1])
        else:  # in a child, which leaves through os._exit and flushes nothing
            write(temps[k - 1], cuts[k], cuts[k + 1])
            temps[k - 1].flush()
        return True

    try:
        for _ in cuts[2:]:
            temps.append(tempfile.TemporaryFile(
                "w+", encoding=fh.encoding, errors=fh.errors, newline=""))
        if all(fork_map(part, range(ranges))):
            fh.flush()  # the caller's rows go before the children's
            for temp in temps:
                temp.seek(0)
                shutil.copyfileobj(temp.buffer, fh.buffer)
            return
    except Exception:  # a temp file, a fork, the caller's range or a copy
        pass
    finally:
        for temp in temps:
            temp.close()
    fh.seek(at)
    fh.truncate()
    write(fh, 0, rows)


def _pidfd(pid):
    """A pidfd of the child `pid`; None where pidfds are missing or the
    child was reaped already (SIGCHLD ignored), as its pid may then name
    another process. A pidfd names one process for good, so signals sent
    through it never reach another."""
    # signal.pidfd_send_signal came with os.pidfd_open
    if not (hasattr(os, "pidfd_open") and hasattr(os, "P_PIDFD")):
        return None
    try:
        fd = os.pidfd_open(pid)
    except OSError:  # reaped and gone, or no pidfds in this kernel
        return None
    try:
        # a pid reused since the child was reaped names no child of ours
        os.waitid(os.P_PIDFD, fd, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except OSError:
        os.close(fd)
        return None
    return fd


def _kill(pidfd):
    """SIGKILL the process of `pidfd`, if there is one and it has not
    ended."""
    if pidfd is not None:
        import signal

        try:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        except ProcessLookupError:  # it ended already
            pass


def _reap(pid):
    """Wait for the child `pid` to end, unless it was reaped already
    (SIGCHLD ignored)."""
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass


def _fork_result(fn, task, earlier):
    """(pid, pipe) of a forked child that closes the descriptors `earlier`
    of its elder siblings' pipes, so that each pipe's only reader is the
    caller, writes pickle(fn(task)) to the pipe and leaves through
    os._exit: status 0 if that returned, 1 if it raised."""
    r, w = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ warns that forking a process with other threads (an
        # OpenBLAS pool) may deadlock the child, if the child takes a lock
        # such a thread held. load_jsonl's range readers run the JSON
        # scanner, numpy element-wise calls and pickle, and the writers of
        # save_jsonl and export_embeddings run repr, json.dumps, tolist and
        # a text file's write: no BLAS routine. ablate's children train,
        # so they run BLAS. The scipy-openblas that numpy wheels bundle is
        # built on pthreads, not OpenMP, and registers a fork handler
        # (pthread_atfork(blas_thread_shutdown_)) that stops its thread pool
        # before every fork, so no pool thread holds a lock across the fork
        # and a child starts a pool of its own at its first threaded call.
        # An OpenBLAS built on libgomp has no such handler.
        warnings.filterwarnings("ignore", category=DeprecationWarning,
                                message=r".*use of fork\(\) may lead to "
                                        r"deadlocks in the child")
        try:
            pid = os.fork()
        except BaseException:
            os.close(r)
            os.close(w)
            raise
    if pid == 0:
        code = 1
        try:
            for fd in [r, *earlier]:
                os.close(fd)
            with open(w, "wb") as pipe:
                pickle.dump(fn(task), pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")
