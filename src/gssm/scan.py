"""Executors for the time-varying diagonal linear recurrence.

    u_l = a_l * u_{l-1} + b_l        (elementwise, l = 1..L)

`scan_sequential` is the bit-exact reference fold, and its in-place form
the backend the layers use by default.  `scan_parallel` computes the same
prefix states through the associative combine rule

    (a1, b1) o (a2, b2) = (a1*a2, a2*b1 + b2)

with a chunked two-pass layout (Martin & Cundy, arXiv 1709.04057) over
chunks of ceil(sqrt(L)) steps: a vectorized intra-chunk inclusive scan, a
short sequential carry across chunk boundaries, then a vectorized broadcast
of the carries back through each chunk.  Work is O(L) per lane (each element
is touched a constant number of times), so per-element time should stay flat
as L grows -- that is what the bench below measures.  At the layer shapes in
use it is no faster than the fold; it stays as the cross-check of the layers
and of criterion 5.

The layers call `run_scan` once per time tile of their snapshot sequence,
with the previous tile's last state as `u0` (both backends continue a
recurrence that way), and it writes the tile's states over its drive.
"""

import time
from dataclasses import dataclass

import numpy as np

from ._checks import integer


@dataclass(frozen=True)
class RecurrenceInputs:
    """Stacked decay/drive sequences [L x lanes...] plus the initial state.

    In the state-space use the decay entries are e^{delta*a} with a < 0 and
    delta >= 0, hence in (0, 1]; that range is not enforced here (the
    recurrence itself is well-defined for any real entries).  Nor is
    finiteness: a NaN or inf entry passes through to the states.  The layers
    check every input at their own boundary (`ssm_forward`), and a check here
    would be one more full pass over each time tile's decay and drive.
    """

    decay: np.ndarray
    drive: np.ndarray
    u0: np.ndarray

    def __post_init__(self):
        decay = np.asarray(self.decay, dtype=float)
        drive = np.asarray(self.drive, dtype=float)
        u0 = np.asarray(self.u0, dtype=float)
        if decay.ndim < 1 or decay.shape != drive.shape:
            raise ValueError("decay and drive must share shape [L x lanes...]")
        if u0.shape != decay.shape[1:]:
            raise ValueError(f"u0 must have the lane shape {decay.shape[1:]}")
        object.__setattr__(self, "decay", decay)
        object.__setattr__(self, "drive", drive)
        object.__setattr__(self, "u0", u0)

    @property
    def length(self):
        return self.decay.shape[0]


def combine(first, second):
    """Associative combine of two recurrence elements (a, b)."""
    a1, b1 = first
    a2, b2 = second
    return a1 * a2, a2 * b1 + b2


def _fold(decay: np.ndarray, states: np.ndarray, u0) -> np.ndarray:
    """The fold in place: `states` [L x lanes...] holds the drive on entry
    and the states, returned, on exit.  Each decay row takes its product
    with the previous state, so `decay` is overwritten."""
    # A 1-D array's rows would iterate as scalars: it gets a unit lane axis.
    rows = zip(decay, states) if states.ndim > 1 else zip(decay[:, None], states[:, None])
    prev = u0
    for a, s in rows:
        s += np.multiply(a, prev, out=a)
        prev = s
    return states


def scan_sequential(inp: RecurrenceInputs) -> np.ndarray:
    """Left-to-right fold over copies of the drive and decay; the reference semantics."""
    return _fold(inp.decay.copy(), inp.drive.copy(), inp.u0)


def scan_parallel(inp: RecurrenceInputs) -> np.ndarray:
    """Chunked two-pass scan; elementwise within 1e-10 of scan_sequential.
    A chunk holds ceil(sqrt(L)) steps, balancing the vectorized passes
    against the sequential carry."""
    length = inp.length
    if length == 0:
        return np.empty_like(inp.drive)
    chunk = int(np.ceil(np.sqrt(length)))
    lane_shape = inp.decay.shape[1:]
    num_chunks = -(-length // chunk)
    # The only copies of the inputs: padded [chunks x chunk x lanes] buffers
    # (identity elements a=1, b=0 in the tail) that pass 1 updates in place.
    prod = np.empty((num_chunks, chunk) + lane_shape)
    part = np.empty((num_chunks, chunk) + lane_shape)
    flat_prod = prod.reshape(num_chunks * chunk, *lane_shape)
    flat_part = part.reshape(num_chunks * chunk, *lane_shape)
    flat_prod[:length] = inp.decay
    flat_prod[length:] = 1.0
    flat_part[:length] = inp.drive
    flat_part[length:] = 0.0
    # Pass 1: inclusive scan inside every chunk at once.  After the loop,
    # (prod[k, j], part[k, j]) is the composition of elements k*chunk..k*chunk+j.
    # prod[:, j] still holds the raw decay when it scales part[:, j - 1].
    for j in range(1, chunk):
        part[:, j] += prod[:, j] * part[:, j - 1]
        prod[:, j] *= prod[:, j - 1]
    # Carry actual states across the chunk boundaries (short sequential pass).
    carries = np.empty((num_chunks,) + lane_shape)
    state = np.broadcast_to(inp.u0, lane_shape)
    for k in range(num_chunks):
        carries[k] = state
        state = prod[k, -1] * state + part[k, -1]
    # Pass 2: apply each chunk's incoming state everywhere inside the chunk.
    prod *= carries[:, None]
    prod += part
    return flat_prod[:length]


BACKENDS = ("sequential", "parallel")


def check_backend(backend) -> str:
    """backend, if it is one of `BACKENDS`; ValueError otherwise."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}, expected one of {', '.join(BACKENDS)}")
    return backend


def run_scan(decay: np.ndarray, drive: np.ndarray, u0, backend: str) -> None:
    """Write the recurrence's states over `drive` [L x lanes...] under the
    named backend.  The sequential fold also overwrites `decay`; the
    parallel scan, kept for the cross-check, computes its own array first."""
    if check_backend(backend) == "sequential":
        _fold(decay, drive, u0)
    else:
        drive[...] = scan_parallel(RecurrenceInputs(decay, drive, u0))


def bench_recurrence(l_values=(1024, 2048, 4096, 8192, 16384, 32768, 65536), lanes: int = 128,
                     backends=BACKENDS, repeats: int = 3, seed: int = 0):
    """Time the backends; one row dict per (L, backend).

    Returns rows with keys L, lanes, backend, ns_per_element (best of
    `repeats` runs, so transient noise doesn't inflate a row).  ValueError
    before any timing unless both lists are non-empty, every backend is
    one of `BACKENDS`, every L, lanes and repeats is an integer >= 1 and
    seed one >= 0.  The defaults are `gssm bench`'s.
    """
    l_values = [integer(length, "l_values: L", 1) for length in l_values]
    for name, values in (("l_values", l_values), ("backends", backends)):
        if not values:
            raise ValueError(f"{name} must hold at least one entry")
    for backend in backends:
        if backend not in BACKENDS:
            raise ValueError(f"backends: unknown backend {backend!r}")
    for name, value in (("lanes", lanes), ("repeats", repeats)):
        integer(value, name, 1)
    seed = integer(seed, "seed", 0)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5CA2]))
    rows = []
    for length in l_values:
        decay = rng.uniform(0.2, 1.0, size=(length, lanes))
        drive = rng.standard_normal((length, lanes))
        for backend in backends:
            best = np.inf
            for _ in range(repeats):
                inputs = decay.copy(), drive.copy(), np.zeros(lanes)  # run_scan writes over them
                start = time.perf_counter()
                run_scan(*inputs, backend)
                best = min(best, time.perf_counter() - start)
            rows.append({"L": int(length), "lanes": int(lanes), "backend": backend,
                         "ns_per_element": best / (length * lanes) * 1e9})
    return rows
