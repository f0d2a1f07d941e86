"""One ordered map over forked children, shared by every step that runs on
the usable CPUs: the prediction reader's parts, the writer's pieces and the
chunk counts of ``evaluate``, ``sweep`` and ``tune``. ``offsets`` finds its
false alarms in one process, as its chunks cost less than a fork round.

A fork shares the already-loaded streams copy-on-write, so the tasks and the
function are never pickled; only each result is, once, down a pipe. A child
that fails costs time, not results: this process computes whatever a child
did not send, so every result and every error is that of one process.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where Python cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def fork_map(fn: Callable[[T], R], tasks: Iterable[T]) -> Iterator[R]:
    """``fn(task)`` for each of ``tasks``, in task order.

    With ``P = min(usable CPUs, tasks)``, this process computes the tasks
    ``i`` with ``i % P == 0`` as the iterator reaches them, and forked child
    ``c`` computes those with ``i % P == c`` and pickles each result down a
    pipe. A result is used only if it unpickles whole; the child's exit
    status is not read. Where a result is missing, as the fork, the pipe or
    the child failed, this process computes it and every later task of that
    child, so the results, and the first exception in task order, are those
    of one process.

    At the first ``next`` the tasks are listed and the children forked, so
    each child sees all its tasks. Every child is killed and reaped when the
    iterator ends, raises or is closed: callers close it themselves (``with
    contextlib.closing(fork_map(...))``), not by garbage collection.
    """
    tasks = list(tasks)
    workers = min(usable_cpus(), len(tasks))
    children: dict[int, tuple[int, BinaryIO]] = {}  # worker -> pid, pipe
    try:
        for c in range(1, workers):
            try:
                children[c] = _fork(fn, tasks[c::workers])
            except OSError:  # no process to spare: this one computes the rest
                break
        for i, task in enumerate(tasks):
            child = children.get(i % workers)
            if child:
                try:
                    result = pickle.load(child[1])
                except (EOFError, pickle.UnpicklingError):  # the child failed: its tasks are ours
                    _stop(*children.pop(i % workers))
                else:
                    yield result
                    continue
            yield fn(task)
    finally:
        for child in children.values():
            _stop(*child)


def _fork(fn: Callable[[T], R], tasks: Sequence[T]) -> tuple[int, BinaryIO]:
    """Fork a child that pickles ``fn(task)`` for each of ``tasks`` down a
    pipe, flushing each at once, so this process reads it while the child
    computes the next; returns the child's pid and the pipe's read end. The
    child leaves through ``os._exit``, never through the caller's code."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                for task in tasks:
                    pickle.dump(fn(task), pipe, protocol=pickle.HIGHEST_PROTOCOL)
                    pipe.flush()
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _stop(pid: int, pipe: BinaryIO) -> None:
    """Close ``pipe``, kill the child ``pid`` (it may have exited) and reap it."""
    pipe.close()
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
