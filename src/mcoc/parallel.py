"""Run a few tasks at once on forked children, with no pool.

``fork_map(fn, tasks)`` computes ``fn(task)`` for each task: the first in
the calling process, each other in a child forked for it, which pickles
its result back through a pipe and leaves through ``os._exit``, so it runs
no exit handler and flushes no buffer of the parent's. A child that raises
or dies gives ``None``. Every child is reaped before ``fork_map`` returns
or raises, so no process outlives the call.

Only ``os``, ``pickle`` and ``warnings`` are used: ``multiprocessing``
would cost every ``import mcoc.cli`` several milliseconds.
"""

from __future__ import annotations

import os
import pickle
import warnings


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
    first task propagates, after the children are reaped. In a child, fn
    must take no lock another thread may hold."""
    tasks = list(tasks)
    children = []  # (pid, read end of its pipe)
    try:
        for task in tasks[1:]:
            children.append(_fork(fn, task, [pipe for _, pipe in children]))
        results = [fn(tasks[0])]
        for _, pipe in children:
            try:
                results.append(pickle.load(pipe))
            except (EOFError, pickle.UnpicklingError):  # it died first
                results.append(None)
        return results
    finally:
        # every pipe first: a child still writing gets EPIPE and leaves,
        # whatever order the children end in
        for _, pipe in children:
            pipe.close()
        for pid, _ in children:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped already (SIGCHLD ignored)
                pass


def _fork(fn, task, earlier):
    """(pid, pipe) of a child that writes pickle(fn(task)) to the pipe; the
    child closes the pipes `earlier` of its elder siblings, so that each
    pipe's only reader is the caller."""
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns that forking a process with other threads
            # (an OpenBLAS pool) may deadlock the child, if the child takes
            # a lock such a thread held. load_jsonl's range reader, the
            # one task, runs only the JSON scanner, numpy element-wise
            # calls and pickle there, and no BLAS routine.
            warnings.filterwarnings("ignore", category=DeprecationWarning,
                                    message=r".*use of fork\(\) may lead to "
                                            r"deadlocks in the child")
            pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            for pipe in earlier:
                pipe.close()
            with open(w, "wb") as pipe:
                pickle.dump(fn(task), pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")
