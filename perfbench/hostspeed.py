"""Host-speed probe: a fixed chunk of work timed between the benchmark's ops.

The benchmark runs on CPUs shared with other tenants.  There, slowdowns come
in bursts of milliseconds, and the share of time they take drifts over
minutes: the same op, on the same inputs, takes up to 1.6x longer in one
minute than in the next.  Interpreter-bound and small-array code suffer
alike; memory-bound dense-matrix code suffers less.  No statistic over a
run's op times removes that, because an op of a second or more always spans
many bursts.

So a run also times a fixed chunk of work like its own (`CHUNKS`; each
workload names one) on the same thread, before its first op and after
every op or set-up step, for a set share of the step's time.  The chunks
meet the bursts of their moment as the ops do: the median chunk time just
before and just after a step, over the chunk's time on a quiet host, says
how much slower than a quiet host the step ran (the median, so that a chunk
caught by a rare long stall does not count).  A step's time divided by that
factor reads as it would on a quiet host.  The raw timings and every chunk
time are kept in the run details.
"""

import statistics
import time

import numpy as np

SHARE = 0.1      # probe time as a share of the time it follows
MIN_CHUNKS = 2   # per probe, however short the op

_SMALL = np.random.default_rng(0).random((60, 60))
_GRAPH = {}  # made on first use, so that other workloads' memory is untouched


def interp_chunk() -> float:
    """Seconds for an interpreter loop and 100 small array ops."""
    t0 = time.perf_counter()
    s = 0
    for i in range(10000):
        s += i * i
    for _ in range(100):
        np.exp(_SMALL @ _SMALL * 1e-3).sum()
    return time.perf_counter() - t0


def stream_chunk() -> float:
    """Seconds for one pass of dense-graph work over 2000 nodes: a 32 MB
    matrix made from a boolean adjacency, its row sums and a product with
    8 columns -- memory-bound, where the host's bursts cost less."""
    if not _GRAPH:
        rng = np.random.default_rng(0)
        _GRAPH["adj"] = rng.integers(0, 100, size=(2000, 2000), dtype=np.uint8) == 0
        _GRAPH["x"] = rng.random((2000, 8))
    t0 = time.perf_counter()
    adj = _GRAPH["adj"].astype(float)
    adj.sum(axis=1)
    (adj @ _GRAPH["x"]).sum()
    return time.perf_counter() - t0


# Each chunk with its time on a quiet host: the fast state of the 2-vCPU Xeon
# VM the benchmark was defined on.  Constants, so they cancel when two
# versions of the program are compared on one host.
CHUNKS = {"interp": (interp_chunk, 2.5e-3), "stream": (stream_chunk, 12e-3)}


class Probe:
    """Chunk times, one group per probe, in the order the probes ran."""

    def __init__(self, kind: str):
        self.chunk, self.ref_s = CHUNKS[kind]
        self.groups = []

    def after(self, seconds: float) -> None:
        """Chunks worth at least SHARE x `seconds`, and at least MIN_CHUNKS."""
        group = []
        while len(group) < MIN_CHUNKS or sum(group) < SHARE * seconds:
            group.append(self.chunk())
        self.groups.append(group)

    def factor(self, first: int, count: int = 2) -> float:
        """Host slowdown from the median chunk of groups first..first+count-1:
        with the default, around the step between probes `first` and
        `first + 1`."""
        times = [t for g in self.groups[first:first + count] for t in g]
        return statistics.median(times) / self.ref_s
