"""Independent parts of one computation, run at once on a shared thread pool.

The calling thread runs the first part and a pool of ``workers() - 1``
threads the rest, so a call uses at most one thread per CPU the process
may run on. The pool is created on first use, never at import, and a
forked child drops its parent's and creates its own when it needs one.
A call with one part, or made from a pool thread, runs its parts inline:
nested calls neither deadlock nor oversubscribe. Parts call only private
helpers, so every public function of the package is entered on the
calling thread alone.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_thread = threading.local()


def workers() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_parts(n: int, quantum: int, part) -> None:
    """``part(a, b)`` over at most ``workers()`` near-equal ranges
    [a, b) that cover range(n), every inner bound a multiple of
    ``quantum``; the ranges run at once."""
    units = -(-n // quantum)
    count = max(1, min(workers(), units))
    bounds = [min(n, units * p // count * quantum) for p in range(count + 1)]
    ranges = list(zip(bounds, bounds[1:]))
    if len(ranges) < 2 or getattr(_thread, "in_pool", False):
        for a, b in ranges:
            part(a, b)
        return
    futures = [_executor().submit(part, a, b) for a, b in ranges[1:]]
    try:
        part(*ranges[0])
    finally:
        wait(futures)  # no part outlives the call, even when one raised
    for f in futures:
        f.result()


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, workers() - 1),
                                       initializer=_mark_pool_thread)
        return _pool


def _mark_pool_thread() -> None:
    _thread.in_pool = True


def _forget_pool() -> None:
    # the child has none of the parent's threads, and the lock may have
    # been held by one of them when the parent forked
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # no fork, and no hook, on Windows
    os.register_at_fork(after_in_child=_forget_pool)
