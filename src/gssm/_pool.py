"""The process's worker threads, for work split into independent parts.

numpy's and scipy's array kernels release the interpreter lock, so threads
that each run one independent part use every CPU the process may run on
(`os.sched_getaffinity(0)`, or `os.cpu_count()` where the platform has no
affinity call).  `parts(work)` is the one split rule: work under
`_SPLIT_WORK` runs as one part, since starting and joining parts would cost
more than the other CPUs gain, and larger work as one part per CPU.
`gssm.layers` counts a layer's drive and readout products, L*V*D*N, and
cuts its recurrence into node ranges of equal count and its graph pass into
snapshot ranges of about equal weight, a snapshot weighing its stored
entries and rows; `gssm.harness.gen_synthetic` counts node pairs, cuts each
step's draws into pair ranges and then finishes as many snapshots at once
as there are ranges.  `ranges` is the one cut, by count or by weight.  `run`
runs the first part on the calling thread and the others on one module pool
with one thread fewer than the CPUs; the pool starts no thread until its
first task, so one part never starts one.  A forked child builds a pool of
its own (where the platform has `os.register_at_fork`), as it has none of
its parent's threads.
"""

import os
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor, wait
from itertools import accumulate


def cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_SPLIT_WORK = 1 << 18


def parts(work: int) -> int:
    """How many parts to cut `work` into: 1 under `_SPLIT_WORK`, else `cpus()`."""
    return cpus() if work >= _SPLIT_WORK else 1


def ranges(n: int, parts: int, align: int = 1, weights=None) -> list:
    """At most `parts` contiguous nonempty slices covering range(n) in order.

    Without `weights`, each starts at a multiple of `align` and, unless it
    is range(n) itself, holds at least `align` items; their counts of whole
    `align`-item units differ by at most one, and the last also takes the
    n % align tail.  With `weights`, n positive integers (align 1), each
    slice holds about an even share of their total, and outweighs it by
    less than its heaviest item.  Both are one cut, over units of weight
    one where no weights are given: slice k ends after the longest run of
    units weighing at most (k+1)/parts of the total, or one unit later if
    that lightens the heavier of it and the slice after it; a slice left
    empty is dropped.  Equal weights give the count cut."""
    if weights is None:
        units = max(1, n // align)
        prefix = range(units + 1)
    else:
        units = n
        prefix = list(accumulate(weights, initial=0))
    parts = min(parts, units)
    total = prefix[-1]
    # bounds[k]: units in the longest prefix weighing at most k/parts of the total
    bounds = [bisect_right(prefix, total * k, key=lambda w: w * parts) - 1
              for k in range(parts)] + [units]
    for k in range(1, parts):      # one unit later, where that lightens the heavier side
        a, b, c = bounds[k - 1:k + 2]
        if b < c and (max(prefix[b + 1] - prefix[a], prefix[c] - prefix[b + 1])
                      < max(prefix[b] - prefix[a], prefix[c] - prefix[b])):
            bounds[k] = b + 1
    bounds = [align * b for b in dict.fromkeys(bounds[:-1])] + [n]
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
