"""Temporal-graph data model.

An undirected simple graph that evolves by timestamped edge insertions and
deletions (:class:`EventStream`), observed as a :class:`SnapshotSequence` of
(adjacency, features, timestamp) triples.  One incremental replay
(`replay_edges`) derives the edge set in force at any nondecreasing sequence
of times; `edges_at`, `segments` (the constant-graph pieces of an interval)
and `materialize_snapshots` all read from it.  The module also owns the degree
normalization (`degree_scales`) of the graph Laplacians and of the layers'
diffusion, computes temporal-continuity metrics over a sequence, and
serializes sequences to a line-oriented text format.

All types are immutable after construction and every operation is a pure
function, so read-only instances can be shared freely.
A :class:`Snapshot` stores its adjacency as a CSR pattern (`indptr`,
`indices`), O(V + E) memory; the dense V x V matrix is derived on demand for
small-graph callers and never kept.  A snapshot caches nothing; a
:class:`SnapshotSequence` alone builds sparse operators, and caches those of
one cut of its snapshots into contiguous ranges (`csr_blocks`): the CSR
diagonal blocks of its adjacencies over the stacked [L*V] node axis.  So
graph diffusion over a sequence, of one snapshot or many, is a few sparse
products.  The cache is not a dataclass field, so equality ignores it.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._checks import finite, integer, integers, numbers, read_records, square


class Action(Enum):
    INSERT = "insert"
    DELETE = "delete"


class LaplacianKind(Enum):
    SYMMETRIC = "symmetric"
    RANDOM_WALK = "random_walk"


@dataclass(frozen=True)
class EventStream:
    """Edge-mutation process on a fixed node set over the horizon [0, T].

    Parameters
    ----------
    num_nodes : int
        Number of nodes; ids are 0..num_nodes-1.
    horizon : float
        End of the time axis T; every event time lies in [0, T].
    initial_edges : iterable of (u, v)
        Undirected edge set at time 0 (before any event).
    events : iterable of (u, v, t, Action)
        Mutations with strictly increasing times.  An INSERT requires the
        edge to be absent at that instant, a DELETE requires it present;
        construction replays the whole stream to enforce this.
    """

    num_nodes: int
    horizon: float
    initial_edges: frozenset
    events: tuple

    def __post_init__(self):
        object.__setattr__(self, "num_nodes", integer(self.num_nodes, "num_nodes", 1))
        if not np.isfinite(self.horizon) or self.horizon <= 0:
            raise ValueError("horizon must be a positive finite time")
        edges = frozenset(self._edge(u, v, "edge") for u, v in self.initial_edges)
        events, present, prev_t = [], set(edges), -np.inf
        for u, v, t, action in self.events:
            edge, t, action = self._edge(u, v, "event"), float(t), Action(action)
            if not (0.0 <= t <= self.horizon):
                raise ValueError(f"event time {t} outside horizon [0, {self.horizon}]")
            if t <= prev_t:
                raise ValueError("event times must be strictly increasing")
            prev_t = t
            insert = action is Action.INSERT
            if (edge in present) == insert:
                raise ValueError(f"{action.value} of edge {edge} at t={t}: "
                                 + ("already present" if insert else "not present"))
            (present.add if insert else present.discard)(edge)
            events.append((*edge, t, action))
        object.__setattr__(self, "initial_edges", edges)
        object.__setattr__(self, "events", tuple(events))

    def _edge(self, u, v, what):
        """Canonical (min, max) form of an undirected edge on known nodes."""
        u, v = sorted(integers((u, v), f"{what} ({u}, {v}) node ids").tolist())
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) not allowed")
        if not (0 <= u and v < self.num_nodes):
            raise ValueError(f"{what} ({u}, {v}) references an unknown node id")
        return u, v

    @property
    def mutation_times(self):
        return tuple(t for _, _, t, _ in self.events)


def replay_edges(stream: EventStream, times):
    """Yield the edge set in force (every event with time <= t applied to the
    initial edges) at each t of a nondecreasing sequence, in one pass over
    the events: O(M + K) set updates for K times instead of O(M * K).
    """
    present, idx, prev = set(stream.initial_edges), 0, -np.inf
    for t in times:
        if not float(t) >= prev:
            raise ValueError(f"replay times must be nondecreasing and not NaN, got {t}")
        prev = float(t)
        while idx < len(stream.events) and stream.events[idx][2] <= prev:
            u, v, _, action = stream.events[idx]
            (present.add if action is Action.INSERT else present.discard)((u, v))
            idx += 1
        yield frozenset(present)


def edges_at(stream: EventStream, t: float) -> frozenset:
    """Edge set after replaying every event with time <= t."""
    return next(replay_edges(stream, (t,)))


def segments(stream: EventStream, t_lo: float, t_hi: float):
    """Pieces (lo, hi, edges) of [t_lo, t_hi] on which the graph is constant.

    The interval is cut at every mutation time strictly inside it; `edges` is
    the edge set in force on [lo, hi), i.e. ``edges_at(stream, lo)``.  The
    interval must be finite, of positive length and inside [0, horizon].
    """
    t_lo, t_hi = float(t_lo), float(t_hi)
    if not (0.0 <= t_lo < t_hi <= stream.horizon):
        raise ValueError(f"segment interval [{t_lo}, {t_hi}] must have positive "
                         f"length inside [0, {stream.horizon}]")
    cuts = [t_lo, *(t for t in stream.mutation_times if t_lo < t < t_hi), t_hi]
    return zip(cuts, cuts[1:], replay_edges(stream, cuts[:-1]))


def adjacency_from_edges(edges, num_nodes: int) -> np.ndarray:
    """Dense symmetric boolean adjacency of an edge set; ValueError for an
    edge with a node id outside [0, num_nodes)."""
    adj = np.zeros((num_nodes, num_nodes), dtype=bool)
    for u, v in edges:
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ValueError(f"edge ({u}, {v}) references a node outside [0, {num_nodes})")
        adj[u, v] = adj[v, u] = True
    return adj


def _index_dtype(largest: int):
    """The index type of every CSR here: int32 when `largest` fits it."""
    return np.int32 if largest <= np.iinfo(np.int32).max else np.int64


def _csr_from_pairs(u, w, num_nodes: int):
    """(indptr, indices) of the symmetric pattern holding (u, w) and (w, u)
    for each pair of node ids in [0, num_nodes), rows in order; the one
    pair-to-CSR builder.  It sorts the keys row*V + column of all entries,
    int32 while V*V fits it (V <= 46 340) and int64 past that; a row starts
    at its first key.  A self-loop or a repeated pair is left in, for the
    `Snapshot` check to reject."""
    kind = _index_dtype(num_nodes * num_nodes)
    u, w = np.asarray(u, dtype=kind), np.asarray(w, dtype=kind)
    keys = np.empty(2 * u.size, dtype=kind)
    for out, a, b in ((keys[:u.size], u, w), (keys[u.size:], w, u)):
        np.multiply(a, num_nodes, out=out)
        out += b
    keys.sort()
    starts = np.arange(0, (num_nodes + 1) * num_nodes, num_nodes, dtype=kind)
    return np.searchsorted(keys, starts), keys % num_nodes


def _csr_rows(indptr: np.ndarray, dtype=None) -> np.ndarray:
    """Row id of each stored entry of a CSR pattern, of `dtype` (by default
    indptr's)."""
    return np.arange(indptr.size - 1, dtype=dtype or indptr.dtype).repeat(indptr[1:] - indptr[:-1])


@dataclass(frozen=True, init=False, eq=False)
class Snapshot:
    """One observation of the evolving graph: adjacency + node features.

    The adjacency is stored as its CSR pattern: `indptr` (V+1 row starts)
    and `indices` (each row's neighbors, sorted and listed once), read-only
    int32 arrays (int64 past int32's range).  `Snapshot(adjacency, features,
    timestamp)` takes a dense square matrix and `Snapshot.from_csr` takes
    the pattern; both go through one check that the graph is symmetric with
    no self-loops.  `adjacency` rebuilds the dense read-only boolean matrix
    on each access, so it is for small graphs.  The timestamp must be
    finite.  Snapshots compare by value.
    """

    indptr: np.ndarray
    indices: np.ndarray
    features: np.ndarray
    timestamp: float

    def __init__(self, adjacency, features, timestamp):
        adj = square(adjacency, "adjacency").astype(bool, copy=False)
        indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(adj, axis=1))])
        self._store(indptr, np.nonzero(adj)[1], features, timestamp)

    @classmethod
    def from_csr(cls, indptr, indices, features, timestamp) -> "Snapshot":
        """The snapshot whose adjacency has the CSR pattern (indptr, indices)."""
        snap = cls.__new__(cls)
        snap._store(indptr, indices, features, timestamp)
        return snap

    def _store(self, indptr, indices, features, timestamp):
        """Check and set the fields, in O(E log E): the CSR pattern must be
        well-formed, in range, sorted and unique within each row, free of
        diagonal entries and symmetric (its transposed keys indices*V + row,
        sorted, equal its keys row*V + indices).  The keys are int32 while
        V*V fits it (V <= 46 340) and int64 past that; `indptr` and the range
        of `indices` are checked on the values given, before any cast."""
        indptr, indices = np.asarray(indptr), np.asarray(indices)
        if indices.size == 0:
            indices = indices.astype(np.int64)
        if (indptr.ndim != 1 or indptr.size == 0 or indices.ndim != 1
                or indptr.dtype.kind not in "iu" or indices.dtype.kind not in "iu"):
            raise ValueError("CSR indptr and indices must be 1-D integer arrays")
        v = indptr.size - 1
        if indptr[0] != 0 or indptr[-1] != indices.size or (indptr[1:] < indptr[:-1]).any():
            raise ValueError("CSR indptr must rise from 0 to the number of indices")
        if indices.size and (indices.min() < 0 or indices.max() >= v):
            raise ValueError(f"CSR indices must lie in [0, {v})")
        kind = _index_dtype(v * v)
        indptr = indptr.astype(np.int64, copy=False)
        indices = indices.astype(kind, copy=False)
        rows = _csr_rows(indptr, kind)
        if (rows == indices).any():
            raise ValueError("adjacency diagonal must be zero (no self-loops)")
        transposed = indices * v
        transposed += rows
        keys = rows  # in place: the rows are not read again
        keys *= v
        keys += indices
        if (keys[1:] <= keys[:-1]).any():
            raise ValueError("CSR indices must be strictly increasing within each row "
                             "(no duplicate edges)")
        transposed.sort()
        if not (transposed == keys).all():
            raise ValueError("adjacency must be symmetric")
        feats = np.array(features, dtype=float)
        if feats.ndim != 2 or feats.shape[0] != v:
            raise ValueError("features must be [num_nodes x d]")
        finite(feats, "features")
        finite(timestamp, "timestamp")
        idx = _index_dtype(max(v, indices.size))
        indptr, indices = indptr.astype(idx), indices.astype(idx)
        for arr in (indptr, indices, feats):
            arr.flags.writeable = False
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "timestamp", float(timestamp))

    def __eq__(self, other):
        if not isinstance(other, Snapshot):
            return NotImplemented
        return (self.timestamp == other.timestamp
                and all(np.array_equal(a, b) for a, b in
                        zip((self.indptr, self.indices, self.features),
                            (other.indptr, other.indices, other.features))))

    @property
    def num_nodes(self) -> int:
        return self.indptr.size - 1

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def adjacency(self) -> np.ndarray:
        """Dense read-only boolean [V x V] adjacency, rebuilt on each access."""
        adj = np.zeros((self.num_nodes, self.num_nodes), dtype=bool)
        adj[_csr_rows(self.indptr), self.indices] = True
        adj.flags.writeable = False
        return adj

    def _upper(self):
        """(rows, cols) of the stored entries above the diagonal: each edge
        once as u < v, in sorted order."""
        rows = _csr_rows(self.indptr)
        upper = self.indices > rows
        return rows[upper], self.indices[upper]


@dataclass(frozen=True)
class SnapshotSequence:
    """L snapshots with strictly increasing timestamps and shared (V, d)."""

    snapshots: tuple

    def __post_init__(self):
        snaps = tuple(self.snapshots)
        if not snaps:
            raise ValueError("sequence must contain at least one snapshot")
        v, d = snaps[0].num_nodes, snaps[0].num_features
        for s in snaps:
            if s.num_nodes != v or s.num_features != d:
                raise ValueError("all snapshots must share node count and feature width")
        ts = [s.timestamp for s in snaps]
        if any(not b > a for a, b in zip(ts, ts[1:])):
            raise ValueError("snapshot timestamps must be strictly increasing")
        object.__setattr__(self, "snapshots", snaps)

    def __len__(self):
        return len(self.snapshots)

    def __getitem__(self, i):
        return self.snapshots[i]

    def __iter__(self):
        return iter(self.snapshots)

    @property
    def num_nodes(self):
        return self.snapshots[0].num_nodes

    @property
    def num_features(self):
        return self.snapshots[0].num_features

    @property
    def timestamps(self):
        return np.array([s.timestamp for s in self.snapshots])

    def csr_blocks(self, ranges) -> tuple:
        """CSR diagonal blocks of the stacked [L*V] adjacency (snapshot l owns
        rows l*V .. (l+1)*V - 1), one tuple per range of `ranges`: contiguous
        slices of the snapshots covering them in order.  Within a range,
        consecutive snapshots share a block until the next would take it past
        `_RUN_ENTRIES` stored entries; a lone snapshot's block shares that
        snapshot's `indptr` and `indices`.  Each block is built as soon as it closes.
        The blocks of the last cut asked for are kept, and a new cut drops
        them before it builds its own.
        """
        cut = tuple((r.start, r.stop) for r in ranges)
        stops = [0] + [b for _, b in cut]
        if [a for a, _ in cut] != stops[:-1] or stops[-1] != len(self) or any(
                b <= a for a, b in cut):
            raise ValueError(f"ranges must cut range({len(self)}) into contiguous "
                             f"nonempty slices in order, got {cut}")
        held, blocks = self.__dict__.pop("_csr_blocks", (None, None))
        if held != cut:
            blocks = []
            for a, b in cut:
                own, run, entries = [], [], 0
                for snap in self.snapshots[a:b]:
                    if run and entries + snap.indices.size > _RUN_ENTRIES:
                        own.append(_block_csr(run))
                        run, entries = [], 0
                    run.append(snap)
                    entries += snap.indices.size
                blocks.append((*own, _block_csr(run)))
            blocks = tuple(blocks)
        self.__dict__["_csr_blocks"] = cut, blocks
        return blocks


# Stored entries at which a sequence's CSR blocks close.  A product with a
# boolean CSR first copies its entries to float64 (8 bytes each), so the cap
# bounds that per-product temporary at 1 MB on large graphs, while a
# sequence of small graphs still diffuses in one product.
_RUN_ENTRIES = 1 << 17


def _csr(indptr, indices):
    """Read-only boolean CSR array of a square pattern; every CSR here is
    built by it."""
    from scipy.sparse import csr_array
    n = indptr.size - 1
    csr = csr_array((np.ones(indices.size, dtype=bool), indices, indptr), shape=(n, n))
    for arr in (csr.data, csr.indices, csr.indptr):
        arr.flags.writeable = False
    return csr


def _block_csr(snaps):
    """The CSR block of consecutive snapshots: a lone snapshot's adjacency
    over its own `indptr` and `indices`, or their adjacencies joined along
    the diagonal, each snapshot's indices offset by its first row."""
    if len(snaps) == 1:
        return _csr(snaps[0].indptr, snaps[0].indices)
    v, sizes = snaps[0].num_nodes, [s.indices.size for s in snaps]
    idx = _index_dtype(max(len(snaps) * v, sum(sizes)))
    starts = np.cumsum([0] + sizes[:-1]).tolist()
    indptr = np.concatenate([np.zeros(1, dtype=idx)]
                            + [s.indptr[1:].astype(idx) + start for s, start in zip(snaps, starts)])
    indices = np.concatenate([s.indices.astype(idx) + k * v for k, s in enumerate(snaps)])
    return _csr(indptr, indices)


def materialize_snapshots(stream: EventStream, observe_times, feature_fn) -> SnapshotSequence:
    """Observe `stream` at the given times.

    Snapshot l holds the edge set obtained by replaying every event with
    t <= observe_times[l] onto the initial edges, plus feature_fn(t) as the
    node-feature matrix.  The feature function must return a [V x d] array;
    the library never interpolates features between observations.
    """
    times = [float(t) for t in observe_times]
    if (not all(0.0 <= t <= stream.horizon for t in times)
            or any(not b > a for a, b in zip(times, times[1:]))):
        raise ValueError("observe_times must be strictly increasing within [0, horizon]")
    snaps = []
    for t, edges in zip(times, replay_edges(stream, times)):
        feats = np.asarray(feature_fn(t), dtype=float)
        if feats.ndim != 2 or feats.shape[0] != stream.num_nodes:
            raise ValueError(f"feature_fn({t}) returned shape {feats.shape}, "
                             f"expected [{stream.num_nodes} x d]")
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        snaps.append(Snapshot.from_csr(*_csr_from_pairs(pairs[:, 0], pairs[:, 1], stream.num_nodes),
                                       feats, t))
    return SnapshotSequence(tuple(snaps))


def degree_scales(deg: np.ndarray, kind: LaplacianKind):
    """Row and column scales (r, c) of the normalized adjacency r A c: D^{-1/2}
    on both sides for Symmetric, D^{-1} on the rows (unit columns) for
    RandomWalk, and a zero row scale for isolated nodes."""
    nz = deg > 0
    rows = np.zeros_like(deg)
    if LaplacianKind(kind) is LaplacianKind.SYMMETRIC:
        rows[nz] = 1.0 / np.sqrt(deg[nz])
        return rows, rows
    rows[nz] = 1.0 / deg[nz]
    return rows, np.ones_like(deg)


def laplacian(snap, kind: LaplacianKind) -> np.ndarray:
    """Normalized graph Laplacian of a snapshot (or a raw adjacency matrix).

    Symmetric:   I - D^{-1/2} A D^{-1/2}
    RandomWalk:  I - D^{-1} A

    Rows and columns of isolated nodes are identically zero, so (I + a*L)
    acts as the identity on them -- no neighbors means no smoothing.
    """
    adj = snap.adjacency if isinstance(snap, Snapshot) else square(snap, "adjacency")
    adj = adj.astype(float)
    deg = adj.sum(axis=1)
    rows, cols = degree_scales(deg, kind)
    return np.diag((deg > 0).astype(float)) - rows[:, None] * adj * cols


def temporal_continuity(seq: SnapshotSequence):
    """(tc_structure, tc_feature) averaged over consecutive snapshot pairs.

    tc_structure: mean Jaccard similarity of consecutive edge sets; a pair of
    empty edge sets counts as 1 (identical emptiness).
    tc_feature: mean over pairs of the mean-over-nodes cosine similarity of
    feature rows; rows with zero norm contribute 0 to the node mean.
    """
    if len(seq) < 2:
        raise ValueError("temporal continuity needs at least two snapshots")
    v = seq.num_nodes
    keys = [rows.astype(np.int64) * v + cols for rows, cols in (s._upper() for s in seq)]
    jac = []
    cos = []
    for k_prev, k_cur, prev, cur in zip(keys, keys[1:], seq.snapshots, seq.snapshots[1:]):
        common = np.intersect1d(k_prev, k_cur, assume_unique=True).size
        union = k_prev.size + k_cur.size - common
        jac.append(1.0 if union == 0 else common / union)
        dots = np.sum(prev.features * cur.features, axis=1)
        norms = np.linalg.norm(prev.features, axis=1) * np.linalg.norm(cur.features, axis=1)
        sims = np.where(norms > 0, dots / np.where(norms > 0, norms, 1.0), 0.0)
        cos.append(sims.mean())
    return float(np.mean(jac)), float(np.mean(cos))


# ---------------------------------------------------------------------------
# Serialization: line-oriented ASCII format.
#
#   GSSM v1 <N_V> <d> <L>
#   then, per snapshot:
#     T <timestamp>
#     E <num_edges>
#     <u> <v>          (num_edges lines, canonical u < v, sorted)
#     X
#     <d decimals>     (N_V lines)
# ---------------------------------------------------------------------------

_MAGIC = "GSSM v1"


def save_sequence(seq: SnapshotSequence, path) -> None:
    lines = [f"{_MAGIC} {seq.num_nodes} {seq.num_features} {len(seq)}"]
    for snap in seq:
        lines.append(f"T {snap.timestamp!r}")
        rows, cols = snap._upper()
        lines.append(f"E {rows.size}")
        lines.extend(f"{u} {v}" for u, v in zip(rows.tolist(), cols.tolist()))
        lines.append("X")
        lines.extend(" ".join(repr(x) for x in row) for row in snap.features.tolist())
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_sequence(path) -> SnapshotSequence:
    """Read a file written by `save_sequence`.  Every malformed record
    raises ValueError naming the path, and the snapshot for one inside a
    snapshot."""
    return read_records(path, _parse_sequence)


def _parse_sequence(rd) -> SnapshotSequence:
    num_nodes, d, length = rd.header(_MAGIC, "<V> <d> <L>")
    if num_nodes < 1 or d < 0 or length < 1:
        raise ValueError("nonsensical sizes in header")
    snaps = []
    for snap_idx in range(length):
        try:
            snaps.append(_read_snapshot(rd, num_nodes, d))
        except ValueError as exc:
            raise ValueError(f"snapshot {snap_idx}: {exc}") from None
    return SnapshotSequence(tuple(snaps))


def _read_snapshot(rd, num_nodes: int, d: int) -> Snapshot:
    """One snapshot's records: 'T', 'E' and its edge lines, 'X' and V rows."""
    t_line = rd.next("timestamp").split()
    if len(t_line) != 2 or t_line[0] != "T":
        raise ValueError("expected 'T <timestamp>'")
    (timestamp,) = numbers(t_line[1:], float, "timestamp")
    e_line = rd.next("edge count").split()
    if len(e_line) != 2 or e_line[0] != "E":
        raise ValueError("expected 'E <num_edges>'")
    (num_edges,) = numbers(e_line[1:], int, "edge count")
    if num_edges < 0:
        raise ValueError(f"negative edge count {num_edges}")
    pairs = []
    for _ in range(num_edges):
        parts = rd.next("edge").split()
        if len(parts) != 2:
            raise ValueError("malformed edge line")
        u, w = numbers(parts, int, "edge")
        if not (0 <= u < num_nodes and 0 <= w < num_nodes):
            raise ValueError(f"edge ({u}, {w}) references a node outside [0, {num_nodes})")
        pairs.append((u, w))
    if rd.next("feature marker") != "X":
        raise ValueError("expected 'X' marker")
    rows = []
    for _ in range(num_nodes):
        row = rd.next("feature row").split()
        if len(row) != d:
            raise ValueError(f"feature row has {len(row)} values, expected {d}")
        rows.append(numbers(row, float, "feature row"))
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return Snapshot.from_csr(*_csr_from_pairs(pairs[:, 0], pairs[:, 1], num_nodes),
                             np.array(rows, dtype=float).reshape(num_nodes, d), timestamp)
