"""Run a few tasks at once on forked children, with no pool.

``fork_map(fn, tasks)`` computes ``fn(task)`` for each task: the first in
the calling process, each other in a child forked for it, which pickles
its result back through a pipe. ``load_jsonl`` reads the ranges of a large
file through it (``score`` and ``export`` load their checkpoint in the
caller's task), and ``ablate`` trains its distinct arm configs through it.
A child that raises or dies gives ``None``.

``fork_write(fh, write, rows, values)`` writes rows [0, rows) of a text
file in ranges: the caller streams the first range through ``fh``, and a
child forked for each later range formats it into one text of its own and
appends its bytes to the shared descriptor when the caller releases it, in
file order. ``save_jsonl`` and ``export_embeddings`` write large files
through it. A child that fails is cut back out of the file and its rows
are written by the caller, so the file holds the bytes of one serial write.
Nothing is sent back, so the caller never holds a child's text.

When either function raises, the children's work would be dropped, so each
child is killed before it is reaped, through a pidfd where the platform has
them.

Every child leaves through ``os._exit``, so it runs no exit handler and
flushes no buffer of the parent's, and every child is reaped before either
function returns or raises, so no process outlives the call.

Only ``io``, ``os``, ``pickle``, ``stat`` and ``warnings`` are imported
with the module: ``multiprocessing`` would cost every ``import mcoc.cli``
several milliseconds, and ``signal`` about one, so ``signal`` is imported
only to kill a child.
"""

from __future__ import annotations

import io
import os
import pickle
import stat
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
    into up to one range per usable CPU: the caller writes the first to
    `fh` while a child forked for each other range formats it; the children
    then append their bytes in file order. A child that fails is cut back
    out of the file, and the caller writes its range and the rest. An
    exception of the caller's range propagates after the children are
    killed and reaped, with nothing of theirs written. In a child, write
    must take no lock another thread may hold.
    """
    ranges = min(usable_cpus(), rows, 2 * values // SPLIT_VALUES)
    if ranges < 2 or not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        write(fh, 0, rows)
        return
    cuts = [rows * k // ranges for k in range(ranges + 1)]
    fd = fh.fileno()
    # (pid, write end of its go pipe, pidfd or None), in file order
    children = []
    try:
        for start, end in zip(cuts[1:], cuts[2:]):
            try:
                pid, go = _fork_writer(fh, write, start, end,
                                       [go for _, go, _ in children])
            except OSError:  # no more processes: the caller writes the rest
                break
            children.append((pid, go, _pidfd(pid)))
        write(fh, 0, cuts[1])
        # what fh holds goes first; a child leaves its copy of it unwritten
        fh.flush()
        rest = cuts[len(children) + 1]  # the first row no child formats
        for start in cuts[1:len(children) + 1]:
            at = os.lseek(fd, 0, os.SEEK_CUR)  # where this child's rows start
            if _release(*children.pop(0)) != 0:  # None: it may have failed
                os.ftruncate(fd, at)
                rest = start
                break
        # the children moved the offset, which fh's buffer does not track,
        # and a failed one has been cut back out
        fh.seek(0, os.SEEK_END)
        if rest < rows:
            write(fh, rest, rows)
    except BaseException:
        # none of the children left has been released, so none has written:
        # stop them, not wait for their ranges
        for _, _, pidfd in children:
            _kill(pidfd)
        raise
    finally:
        # a child that reads no go byte writes nothing and leaves
        for _, go, _ in children:
            os.close(go)
        for pid, _, pidfd in children:
            _reap(pid)
            if pidfd is not None:
                os.close(pidfd)


def _release(pid, go, pidfd):
    """The wait status of the writer child `pid`, sent its go byte on the
    pipe `go`; `go` and the child's `pidfd` are closed."""
    try:
        os.write(go, b"\1")
    except BrokenPipeError:  # it died before the go
        pass
    finally:
        os.close(go)
        status = _reap(pid)
        if pidfd is not None:
            os.close(pidfd)
    return status


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
    """The wait status of the child `pid`, once it has ended; None where it
    was reaped already (SIGCHLD ignored), which leaves its status unknown."""
    try:
        return os.waitpid(pid, 0)[1]
    except ChildProcessError:
        return None


def _fork_result(fn, task, earlier):
    """(pid, pipe) of a child that writes pickle(fn(task)) to the pipe; the
    child closes the descriptors `earlier` of its elder siblings' pipes, so
    that each pipe's only reader is the caller."""
    r, w = os.pipe()

    def child():
        with open(w, "wb") as pipe:
            pickle.dump(fn(task), pipe, pickle.HIGHEST_PROTOCOL)

    try:
        pid = _fork(child, [r, *earlier])
    except BaseException:
        os.close(r)
        raise
    finally:
        os.close(w)
    return pid, open(r, "rb")


def _fork_writer(fh, write, start, end, earlier):
    """(pid, go) of a child that writes rows [start, end) to one text in its
    memory and encodes it as `fh` encodes, then waits for a byte on the pipe
    whose write end is `go` and writes the bytes at fh's descriptor; at the
    end of the pipe it writes nothing. The child closes the go descriptors
    `earlier` of its elder siblings, so that the caller's close of one ends
    that child's wait."""
    fd, encoding, errors = fh.fileno(), fh.encoding, fh.errors
    r, go = os.pipe()

    def child():
        text = io.StringIO()  # as fh, it translates no newline
        write(text, start, end)
        data = memoryview(text.getvalue().encode(encoding, errors))
        if os.read(r, 1):
            while data:
                data = data[os.write(fd, data):]

    try:
        pid = _fork(child, [go, *earlier])
    except BaseException:
        os.close(go)
        raise
    finally:
        os.close(r)
    return pid, go


def _fork(child, close):
    """The pid of a forked child that closes the descriptors `close`, runs
    child() and leaves through os._exit: status 0 if child() returned, 1 if
    it raised."""
    with warnings.catch_warnings():
        # Python 3.12+ warns that forking a process with other threads (an
        # OpenBLAS pool) may deadlock the child, if the child takes a lock
        # such a thread held. load_jsonl's range readers run the JSON
        # scanner, numpy element-wise calls and pickle, and the writers of
        # save_jsonl and export_embeddings run repr, json.dumps, tolist,
        # str.encode and os.write: no BLAS routine. ablate's children train,
        # so they run BLAS. The scipy-openblas that numpy wheels bundle is
        # built on pthreads, not OpenMP, and registers a fork handler
        # (pthread_atfork(blas_thread_shutdown_)) that stops its thread pool
        # before every fork, so no pool thread holds a lock across the fork
        # and a child starts a pool of its own at its first threaded call.
        # An OpenBLAS built on libgomp has no such handler.
        warnings.filterwarnings("ignore", category=DeprecationWarning,
                                message=r".*use of fork\(\) may lead to "
                                        r"deadlocks in the child")
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            for fd in close:
                os.close(fd)
            child()
            code = 0
        finally:
            os._exit(code)
    return pid
