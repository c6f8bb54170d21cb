"""The process's worker threads and processes, for work split into
independent parts.

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
first task, so one part never starts one.

`forked` is the process side of `run`, for work that holds the interpreter
lock (`gssm.harness.run_experiment`'s readout fits, and `gssm verify`'s
suites in `gssm.cli.cmd_verify`): it runs the first part
in the calling process and the others on one module pool of worker
processes, one fewer than the CPUs.  The pool is forked once, on the first
call that cuts its work into more than one part, and kept until the
process exits, when it is shut down; `multiprocessing` is imported only
then.  A worker sees module state as of its fork, so a part takes
everything it reads through its arguments, and its function is a
module-level, picklable one.  Each part, in the calling process too, runs
with `cpus()` at its share, cpus() // parts, so the thread splits inside it
use the CPUs that no other part holds.  Where no worker can run the parts
-- one part, one CPU, no `fork` start method, or other live threads when
the pool would start (forking a threaded process is unsafe, and Python >=
3.12 warns of it) -- the function runs once over the whole range in the
calling process, the plain path.  A forked child (where the platform has
`os.register_at_fork`) builds a thread pool of its own, as it has none of
its parent's threads, and forks its own worker processes if it needs them.
"""

import atexit
import os
import threading
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial
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


def forked(fn, parts) -> list:
    """The lists fn(part) returns for contiguous slices `parts` (as `ranges`
    gives them), joined in order: the first part in the calling process and
    the rest on the worker processes, each part with `cpus()` at its share
    and `_SPLIT_WORK` as the caller has it.  Returns once every part has
    finished; if any raised, the exception of the first such part (in the
    order given) is raised then.  Where no worker can run (see the module
    docstring), returns fn over the whole range, run in the calling process
    at its own CPU count."""
    if len(parts) == 1 or _worker_pool() is None:
        return fn(slice(parts[0].start, parts[-1].stop))
    at_share = partial(_at_share, fn, max(1, cpus() // len(parts)), _SPLIT_WORK)
    futures = [_processes.submit(at_share, part) for part in parts[1:]]
    try:
        first = at_share(parts[0])
    finally:
        wait(futures)
    return first + [item for future in futures for item in future.result()]


def _at_share(fn, share, split_work, part):
    """fn(part), with this process's `cpus()` returning `share` and its
    `_SPLIT_WORK` at `split_work` until fn returns."""
    global cpus, _SPLIT_WORK
    with _share_lock:  # so that two threads' parts do not swap them under each other
        saved = cpus, _SPLIT_WORK
        cpus, _SPLIT_WORK = (lambda: share), split_work
        try:
            return fn(part)
        finally:
            cpus, _SPLIT_WORK = saved


def _worker_pool():
    """The module's worker processes, forked on the first call that can
    start them; None where they cannot start."""
    global _processes
    if _processes is None and cpus() > 1 and threading.active_count() == 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            _processes = ProcessPoolExecutor(
                cpus() - 1, mp_context=multiprocessing.get_context("fork"))
    return _processes


def _stop_workers() -> None:
    """Shut the worker processes down and wait for them, at exit, so that
    none outlives the process and the executor is not left to the
    interpreter's teardown."""
    if _processes is not None:
        _processes.shutdown()


def _new_pools() -> None:
    """Build the module thread pool and lock, and drop any worker processes'
    handle; in a forked child, this replaces the inherited pool, whose
    threads do not exist there and whose count of idle threads would let
    `submit` queue work that no thread ever runs, a lock that a parent's
    thread may have held at the fork, and the parent's workers, which are
    not the child's."""
    global _executor, _share_lock, _processes
    _executor = ThreadPoolExecutor(max(1, cpus() - 1), thread_name_prefix="gssm")
    _share_lock = threading.RLock()
    _processes = None


_new_pools()
atexit.register(_stop_workers)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pools)
