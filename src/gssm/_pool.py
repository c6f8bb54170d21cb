"""The process's worker threads, for work split into independent parts.

numpy's and scipy's array kernels release the interpreter lock, so threads
that each run one independent part use every CPU the process may run on
(`os.sched_getaffinity(0)`, or `os.cpu_count()` where the platform has no
affinity call).  The only callers are `gssm.layers`, whose parts are
contiguous snapshot ranges of a layer's graph pass and contiguous node
ranges of its recurrence and block epilogue, and
`gssm.harness.gen_synthetic`, whose parts are contiguous node-pair ranges
of a snapshot's draws and then, one step a part, as many drawn snapshots'
CSR builds and checks as there are ranges.  The ranges are cut by
`ranges`.  `run` runs the first part on the calling thread and the others
on one module pool with one thread fewer than the CPUs.  The pool
is built when the module loads but starts no thread until its first task,
so work in a single part never starts one.  A forked child has none of its
parent's pool threads, so it builds a pool of its own (where the platform
has `os.register_at_fork`).
"""

import os
from concurrent.futures import ThreadPoolExecutor, wait


def cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    futures = [_executor.submit(fn, part) for part in parts[1:]]
    try:
        fn(parts[0])
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _new_pool() -> None:
    """Build the module pool; in a forked child, replace the inherited one,
    whose threads do not exist there and whose count of idle threads would
    let `submit` queue work that no thread ever runs."""
    global _executor
    _executor = ThreadPoolExecutor(max(1, cpus() - 1), thread_name_prefix="gssm")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)
