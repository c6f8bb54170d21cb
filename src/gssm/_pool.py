"""The process's worker threads, for work split into independent parts.

numpy's and scipy's array kernels release the interpreter lock, so threads
that each run one independent part -- a contiguous node range of a layer,
a group of a sparse product's diagonal blocks -- use every CPU the process
may run on (`os.sched_getaffinity(0)`).  `run` runs the first part on the
calling thread and the others on one module pool, created on first use
with one thread fewer than the CPUs; work in a single part never creates
it.  A forked child has none of its parent's pool threads, so it drops the
inherited pool and builds its own when it first needs one.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

_lock = threading.Lock()
_executor = None


def cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def ranges(n: int, parts: int, align: int = 1) -> list:
    """At most `parts` contiguous slices covering range(n) in order, each
    starting at a multiple of `align` and, unless it is range(n) itself,
    holding at least `align` items; their counts of whole `align`-item
    units differ by at most one, and the last also takes the n % align
    tail."""
    units = max(1, n // align)
    parts = min(parts, units)
    bounds = [align * (units * k // parts) for k in range(parts)] + [n]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def run(fn, parts) -> None:
    """fn(part) for every part, the first on the calling thread and the rest
    on the pool.  Returns once every call has finished; if any raised, the
    exception of the first such part (in the order given) is raised then."""
    if len(parts) == 1:
        fn(parts[0])
        return
    futures = [_pool().submit(fn, part) for part in parts[1:]]
    try:
        fn(parts[0])
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _pool() -> ThreadPoolExecutor:
    global _executor
    with _lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(max(1, cpus() - 1), thread_name_prefix="gssm")
        return _executor


def _forget_pool() -> None:
    """After a fork, in the child: the inherited pool's threads do not exist
    there, and its count of idle threads would let `submit` queue work that
    no thread ever runs."""
    global _executor, _lock
    _executor, _lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)
