"""Independent rows of work, split over forked worker processes.

:func:`map_rows` runs a function over shards of rows, one shard per CPU
in the process's affinity mask: this process runs the first shard and a
forked child each other one, at the same time.  The affinity mask is the
only setting; under ``taskset -c 0`` nothing is forked.
"""

from __future__ import annotations

import os
import pickle
import threading
from typing import Callable, Dict, Iterable


class WorkerError(RuntimeError):
    """A shard failed in its forked worker; the message holds the worker's
    traceback, or its exit status where it sent no result."""


def cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, or every CPU where
    the platform has no mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _worker(run: Callable, rows: slice, out: int, others: Iterable[int]):
    """Body of a forked child: send ``(True, run(rows))``, or ``(False,
    traceback)`` if it raises an exception, pickled to the pipe end
    ``out``, then exit without returning to the caller's stack.  An
    interrupt exits with status 1 and sends nothing."""
    status = 1
    try:
        for fd in others:
            os.close(fd)
        try:
            message = (True, run(rows))
        except Exception as exc:
            import traceback    # only here: the package's import does not load it
            message = (False, "".join(traceback.format_exception(exc)))
        with os.fdopen(out, "wb") as pipe:
            pickle.dump(message, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def map_rows(run: Callable[[slice], list], count: int) -> list:
    """The results of ``run`` over ``count`` rows, one per row, in row order.

    ``run`` takes a slice of the rows and returns a list with one result
    per row in it.  The rows are split into s shards, s = cpu_count() but
    at most ``count``: shard j takes rows j, j + s, j + 2s, ...  This
    process runs shard 0 and a forked child each other shard, at the same
    time.  Each child pickles its results to a pipe, which is read to its
    end before the child is reaped.  There is one shard, and no fork,
    where ``os.fork`` does not exist or while the process runs another
    Python thread, which a forked child would not have.

    A child's exception, or its exit without a result, raises
    :class:`WorkerError`.  Whatever happens, every child is killed and
    reaped before this returns or raises.
    """
    s = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        s = min(cpu_count(), count)
    shards = [slice(j, count, s) for j in range(s)]
    out: list = [None] * count
    children: Dict[int, int] = {}   # pid -> read end of its pipe, until reaped
    try:
        for rows in shards[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _worker(run, rows, w, [r, *children.values()])
            os.close(w)
            children[pid] = r
        out[shards[0]] = run(shards[0])
        for rows, pid in zip(shards[1:], list(children)):
            with open(children[pid], "rb", closefd=False) as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(pid))
            if code != 0:
                raise WorkerError(f"worker {pid} exited with status {code} and no result")
            ok, value = pickle.loads(data)
            if not ok:
                raise WorkerError(f"worker {pid} failed:\n{value}")
            out[rows] = value
        return out
    finally:
        if children:
            import signal       # only here: the package's import does not load it
            for pid, fd in children.items():
                os.close(fd)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
