"""The process's worker threads, for work split into independent parts.

numpy's and scipy's array kernels release the interpreter lock, so threads
that each run one independent part use every CPU the process may run on
(`os.sched_getaffinity(0)`, or `os.cpu_count()` where the platform has no
affinity call).  `parts(work)` is the one split rule: work under
`_SPLIT_WORK` runs as one part, since starting and joining parts would cost
more than the other CPUs gain, and larger work as one part per CPU.
`gssm.layers` counts a layer's drive and readout products, L*V*D*N, and
cuts its graph pass into snapshot ranges and its recurrence into node
ranges; `gssm.harness.gen_synthetic` counts node pairs, cuts each step's
draws into pair ranges and then finishes as many snapshots at once as there
are ranges.  `ranges` cuts them.  `run` runs the first part on the calling
thread and the others on one module pool with one thread fewer than the
CPUs; the pool starts no thread until its first task, so one part never
starts one.  A forked child builds a pool of its own (where the platform
has `os.register_at_fork`), as it has none of its parent's threads.
"""

import os
from concurrent.futures import ThreadPoolExecutor, wait


def cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_SPLIT_WORK = 1 << 18


def parts(work: int) -> int:
    """How many parts to cut `work` into: 1 under `_SPLIT_WORK`, else `cpus()`."""
    return cpus() if work >= _SPLIT_WORK else 1


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
