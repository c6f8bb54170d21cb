from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gssm import (
    Action,
    EventStream,
    LaplacianKind,
    Snapshot,
    SnapshotSequence,
    adjacency_from_edges,
    edges_at,
    laplacian,
    load_sequence,
    materialize_snapshots,
    save_sequence,
    segments,
    temporal_continuity,
)
from gssm.tgraph import _csr_from_pairs, replay_edges


def _snap(adj, feats, t=0.0):
    return Snapshot(adjacency=np.asarray(adj, dtype=bool), features=np.asarray(feats, dtype=float), timestamp=t)


def _edge_set(snap):
    """The snapshot's edges, each once as (u, v) with u < v."""
    return frozenset(zip(*(a.tolist() for a in snap._upper())))


def _path_graph(n):
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = True
    return adj


def _random_stream(rng, num_nodes=6, num_events=20, horizon=10.0):
    pairs = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]
    initial = frozenset(p for p in pairs if rng.random() < 0.4)
    times = np.sort(rng.uniform(0.1, horizon - 0.1, size=num_events))
    present = set(initial)
    events = []
    for t in times:
        pair = pairs[rng.integers(len(pairs))]
        if pair in present:
            present.discard(pair)
            events.append((*pair, float(t), Action.DELETE))
        else:
            present.add(pair)
            events.append((*pair, float(t), Action.INSERT))
    return EventStream(num_nodes=num_nodes, horizon=horizon, initial_edges=initial, events=tuple(events))


# ---------------------------------------------------------------------------
# EventStream construction and replay


def test_event_stream_rejects_double_insert():
    with pytest.raises(ValueError):
        EventStream(
            num_nodes=2,
            horizon=1.0,
            initial_edges=frozenset({(0, 1)}),
            events=((0, 1, 0.5, Action.INSERT),),
        )


def test_event_stream_rejects_delete_of_absent_edge():
    with pytest.raises(ValueError):
        EventStream(num_nodes=3, horizon=1.0, initial_edges=frozenset(), events=((0, 2, 0.5, Action.DELETE),))


def test_event_stream_rejects_nonincreasing_times():
    with pytest.raises(ValueError):
        EventStream(
            num_nodes=3,
            horizon=1.0,
            initial_edges=frozenset(),
            events=((0, 1, 0.5, Action.INSERT), (1, 2, 0.5, Action.INSERT)),
        )


def test_event_stream_rejects_time_outside_horizon():
    with pytest.raises(ValueError):
        EventStream(num_nodes=2, horizon=1.0, initial_edges=frozenset(), events=((0, 1, 1.5, Action.INSERT),))


@pytest.mark.parametrize("num_nodes", [2.5, True, 0, -1, float("nan"), "3"])
def test_event_stream_rejects_a_num_nodes_that_is_not_a_positive_integer(num_nodes):
    with pytest.raises(ValueError, match="^num_nodes must be an integer of at least 1"):
        EventStream(num_nodes=num_nodes, horizon=1.0, initial_edges=frozenset(), events=())
    assert EventStream(np.int64(3), 1.0, frozenset(), ()).num_nodes == 3


def test_event_stream_rejects_self_loop():
    with pytest.raises(ValueError):
        EventStream(num_nodes=2, horizon=1.0, initial_edges=frozenset({(1, 1)}), events=())


@pytest.mark.parametrize("initial, events, what", [
    ({(0.5, 1)}, (), r"edge \(0.5, 1\)"),
    (set(), ((1.2, 2, 0.5, Action.INSERT),), r"event \(1.2, 2\)"),
], ids=["edge", "event"])
def test_event_stream_rejects_non_integer_node_ids(initial, events, what):
    # int() used to truncate them: (0.5, 1.7) became the edge (0, 1)
    with pytest.raises(ValueError, match=rf"{what} node ids must be integers"):
        EventStream(num_nodes=3, horizon=1.0, initial_edges=frozenset(initial), events=events)
    same = EventStream(num_nodes=3, horizon=1.0, initial_edges=frozenset({(1.0, 0.0)}), events=())
    assert same.initial_edges == frozenset({(0, 1)})


def test_edges_at_replays_inserts_and_deletes():
    stream = EventStream(
        num_nodes=3,
        horizon=2.0,
        initial_edges=frozenset({(0, 1)}),
        events=((1, 2, 0.5, Action.INSERT), (0, 1, 1.0, Action.DELETE)),
    )
    assert edges_at(stream, 0.0) == frozenset({(0, 1)})
    assert edges_at(stream, 0.7) == frozenset({(0, 1), (1, 2)})
    assert edges_at(stream, 1.5) == frozenset({(1, 2)})


def test_edges_at_rejects_a_nan_time():
    stream = EventStream(num_nodes=2, horizon=1.0, initial_edges=frozenset(),
                         events=((0, 1, 0.5, Action.INSERT),))
    with pytest.raises(ValueError):
        edges_at(stream, np.nan)


def test_replay_rejects_decreasing_times():
    stream = EventStream(num_nodes=2, horizon=1.0, initial_edges=frozenset(), events=())
    with pytest.raises(ValueError):
        list(replay_edges(stream, [0.6, 0.4]))


@pytest.mark.parametrize("t_lo, t_hi", [(-0.1, 0.5), (0.0, 1.5), (0.5, 0.5), (0.6, 0.4),
                                        (np.nan, 0.5), (0.0, np.inf), (-np.inf, 0.5)])
def test_segments_reject_intervals_outside_the_horizon(t_lo, t_hi):
    stream = EventStream(num_nodes=2, horizon=1.0, initial_edges=frozenset(), events=())
    with pytest.raises(ValueError):
        segments(stream, t_lo, t_hi)


def _naive_edges(stream, t):
    """Apply every event with time <= t, scanning the whole stream."""
    present = set(stream.initial_edges)
    for u, v, et, action in stream.events:
        if et <= t:
            (present.add if action is Action.INSERT else present.discard)((u, v))
    return frozenset(present)


@st.composite
def _streams_with_grids(draw):
    """A valid random stream plus a sorted time grid holding every event time,
    a time just before the first event, 0, the horizon and random times."""
    num_nodes = draw(st.integers(2, 5))
    horizon = draw(st.floats(0.5, 20.0))
    pairs = [(i, j) for i in range(num_nodes) for j in range(i + 1, num_nodes)]
    on = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    initial = frozenset(p for p, keep in zip(pairs, on) if keep)
    times = sorted(set(draw(st.lists(st.floats(0.0, horizon), max_size=12))))
    present, events = set(initial), []
    for t in times:
        pair = pairs[draw(st.integers(0, len(pairs) - 1))]
        action = Action.DELETE if pair in present else Action.INSERT
        (present.discard if pair in present else present.add)(pair)
        events.append((*pair, t, action))
    stream = EventStream(num_nodes, horizon, initial, tuple(events))
    before_first = np.nextafter(times[0], -np.inf) if times else 0.5 * horizon
    extra = draw(st.lists(st.floats(0.0, horizon), max_size=8))
    return stream, sorted([*times, *extra, before_first, 0.0, horizon])


@settings(max_examples=150, deadline=None)
@given(case=_streams_with_grids())
@example(case=(EventStream(3, 2.0, frozenset({(0, 1)}),
                           ((0, 1, 0.0, Action.DELETE), (1, 2, 1.0, Action.INSERT),
                            (0, 2, 2.0, Action.INSERT))),
               [-1.0, 0.0, 0.0, 0.5, 1.0, 1.0, 2.0]))
def test_replay_and_segments_match_a_naive_replay(case):
    stream, grid = case
    assert list(replay_edges(stream, grid)) == [_naive_edges(stream, t) for t in grid]

    bounds = sorted({t for t in grid if 0.0 <= t <= stream.horizon})
    for i, lo in enumerate(bounds):
        for hi in bounds[i + 1:]:
            pieces = list(segments(stream, lo, hi))
            assert pieces[0][0] == lo and pieces[-1][1] == hi
            assert all(a[1] == b[0] for a, b in zip(pieces, pieces[1:]))
            assert [p[0] for p in pieces[1:]] == [t for t in stream.mutation_times if lo < t < hi]
            for p_lo, p_hi, edges in pieces:
                assert p_lo < p_hi
                assert edges == edges_at(stream, p_lo)


# ---------------------------------------------------------------------------
# materialize_snapshots


def test_materialize_no_events_gives_initial_graph_everywhere():
    stream = EventStream(num_nodes=3, horizon=2.0, initial_edges=frozenset({(0, 2)}), events=())
    seq = materialize_snapshots(stream, [0.5, 1.5], lambda t: np.full((3, 2), t))
    assert len(seq) == 2
    for snap in seq:
        assert _edge_set(snap) == frozenset({(0, 2)})
    assert seq[0].features == pytest.approx(np.full((3, 2), 0.5))
    assert seq[1].timestamp == 1.5


def test_materialize_single_insert_straddles_observation_times():
    stream = EventStream(num_nodes=2, horizon=1.0, initial_edges=frozenset(), events=((0, 1, 0.5, Action.INSERT),))
    seq = materialize_snapshots(stream, [0.4, 0.6], lambda t: np.zeros((2, 1)))
    assert _edge_set(seq[0]) == frozenset()
    assert _edge_set(seq[1]) == frozenset({(0, 1)})


def test_materialize_matches_independent_replay_on_random_stream():
    rng = np.random.default_rng(7)
    stream = _random_stream(rng)
    times = [1.0, 3.0, 5.0, 7.0, 9.0]
    seq = materialize_snapshots(stream, times, lambda t: np.ones((stream.num_nodes, 2)) * t)
    for tau, snap in zip(times, seq):
        assert _edge_set(snap) == edges_at(stream, tau)
        assert snap.timestamp == tau


def test_materialize_rejects_unordered_observe_times():
    stream = EventStream(num_nodes=2, horizon=1.0, initial_edges=frozenset(), events=())
    with pytest.raises(ValueError):
        materialize_snapshots(stream, [0.6, 0.4], lambda t: np.zeros((2, 1)))


@pytest.mark.parametrize("bad, message", [
    (1j, r"feature_fn\(0\.5\) must hold real numbers, not complex numbers"),
    (np.nan, r"feature_fn\(0\.5\) must be finite"),
    (np.inf, r"feature_fn\(0\.5\) must be finite"),
])
def test_materialize_rejects_non_real_features_naming_the_call(bad, message):
    stream = EventStream(num_nodes=2, horizon=1.0, initial_edges=frozenset(), events=())
    with pytest.raises(ValueError, match=f"^{message}"):
        materialize_snapshots(stream, [0.5], lambda t: np.full((2, 1), bad))


def test_snapshot_rejects_complex_features():
    with pytest.raises(ValueError, match="^features must hold real numbers, not complex"):
        Snapshot(adjacency=np.zeros((2, 2), dtype=bool), features=np.ones((2, 1)) * 1j,
                 timestamp=0.0)


@pytest.mark.parametrize("bad, message", [
    (np.nan, "^adjacency must be finite"), (np.inf, "^adjacency must be finite"),
    (-np.inf, "^adjacency must be finite"),
    (1j, "^adjacency must hold real numbers, not complex numbers"),
])
def test_snapshot_rejects_a_dense_adjacency_entry_that_is_not_a_finite_real(bad, message):
    """Cast to bool, each of these would be an edge."""
    with pytest.raises(ValueError, match=message):
        Snapshot([[0, bad], [bad, 0]], np.zeros((2, 1)), 0.0)


@pytest.mark.parametrize("dtype", [bool, np.int8, np.uint16, np.int64, np.float32, float])
def test_a_dense_adjacency_of_any_real_type_gives_the_boolean_pattern(dtype):
    adj = np.array([[0, 1, 0], [1, 0, 2], [0, 2, 0]]) != 0
    weighted = np.array([[0, 1, 0], [1, 0, 2], [0, 2, 0]]).astype(dtype)
    want = Snapshot(adj, np.zeros((3, 1)), 0.0)
    got = Snapshot(weighted, np.zeros((3, 1)), 0.0)
    assert got.indptr.tobytes() == want.indptr.tobytes()
    assert got.indices.tobytes() == want.indices.tobytes()
    assert got.indices.dtype == want.indices.dtype


def test_materialize_rejects_bad_feature_shape():
    stream = EventStream(num_nodes=3, horizon=1.0, initial_edges=frozenset(), events=())
    with pytest.raises(ValueError):
        materialize_snapshots(stream, [0.5], lambda t: np.zeros((2, 1)))


# ---------------------------------------------------------------------------
# laplacian


def test_laplacian_single_edge_symmetric():
    snap = _snap([[False, True], [True, False]], np.zeros((2, 1)))
    lap = laplacian(snap, LaplacianKind.SYMMETRIC)
    assert lap == pytest.approx(np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_laplacian_edgeless_graph_is_zero_for_both_kinds():
    snap = _snap(np.zeros((3, 3), dtype=bool), np.zeros((3, 1)))
    for kind in LaplacianKind:
        assert laplacian(snap, kind) == pytest.approx(np.zeros((3, 3)))


def test_laplacian_path_random_walk_rows():
    snap = _snap(_path_graph(4), np.zeros((4, 1)))
    lap = laplacian(snap, LaplacianKind.RANDOM_WALK)
    assert lap.sum(axis=1) == pytest.approx(np.zeros(4), abs=1e-12)
    assert np.diagonal(lap) == pytest.approx(np.ones(4))


def test_laplacian_isolated_node_row_is_zero():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    snap = _snap(adj, np.zeros((3, 1)))
    for kind in LaplacianKind:
        lap = laplacian(snap, kind)
        assert lap[2] == pytest.approx(np.zeros(3))
        assert lap[:, 2] == pytest.approx(np.zeros(3))


def test_laplacian_symmetric_is_psd_on_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 17))
        adj = rng.random((n, n)) < 0.3
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        snap = _snap(adj, np.zeros((n, 1)))
        lap = laplacian(snap, LaplacianKind.SYMMETRIC)
        eigs = np.linalg.eigvalsh(lap)
        assert eigs.min() > -1e-10


def test_laplacian_symmetric_quadratic_form_matches_edge_penalty():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 17))
        adj = rng.random((n, n)) < 0.4
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        snap = _snap(adj, np.zeros((n, 1)))
        lap = laplacian(snap, LaplacianKind.SYMMETRIC)
        deg = adj.sum(axis=1).astype(float)
        x = rng.normal(size=n)
        quad = x @ lap @ x
        penalty = 0.0
        for u in range(n):
            for v in range(u + 1, n):
                if adj[u, v]:
                    penalty += (x[u] / np.sqrt(deg[u]) - x[v] / np.sqrt(deg[v])) ** 2
        assert quad == pytest.approx(penalty, abs=1e-10)


# ---------------------------------------------------------------------------
# temporal_continuity


def test_temporal_continuity_identical_snapshots():
    adj = _path_graph(3)
    feats = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    seq = SnapshotSequence(snapshots=(_snap(adj, feats, 0.0), _snap(adj, feats, 1.0), _snap(adj, feats, 2.0)))
    tc_s, tc_f = temporal_continuity(seq)
    assert tc_s == pytest.approx(1.0)
    assert tc_f == pytest.approx(1.0)


def test_temporal_continuity_disjoint_edge_sets():
    a = np.zeros((4, 4), dtype=bool)
    a[0, 1] = a[1, 0] = True
    b = np.zeros((4, 4), dtype=bool)
    b[2, 3] = b[3, 2] = True
    feats = np.ones((4, 2))
    seq = SnapshotSequence(snapshots=(_snap(a, feats, 0.0), _snap(b, feats, 1.0)))
    tc_s, _ = temporal_continuity(seq)
    assert tc_s == 0.0


def test_temporal_continuity_constant_features_give_exactly_one():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(5, 3))
    snaps = []
    for l in range(4):
        adj = rng.random((5, 5)) < 0.4
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        snaps.append(_snap(adj, feats, float(l)))
    _, tc_f = temporal_continuity(SnapshotSequence(snapshots=tuple(snaps)))
    assert tc_f == pytest.approx(1.0, abs=1e-12)


def test_temporal_continuity_both_empty_edge_sets_count_as_one():
    feats = np.ones((3, 1))
    empty = np.zeros((3, 3), dtype=bool)
    seq = SnapshotSequence(snapshots=(_snap(empty, feats, 0.0), _snap(empty, feats, 1.0)))
    tc_s, _ = temporal_continuity(seq)
    assert tc_s == pytest.approx(1.0)


def test_temporal_continuity_zero_norm_rows_contribute_zero():
    adj = np.zeros((2, 2), dtype=bool)
    f0 = np.array([[0.0, 0.0], [1.0, 0.0]])
    f1 = np.array([[0.0, 0.0], [2.0, 0.0]])
    seq = SnapshotSequence(snapshots=(_snap(adj, f0, 0.0), _snap(adj, f1, 1.0)))
    _, tc_f = temporal_continuity(seq)
    # one zero-norm row contributing 0, one aligned row contributing 1
    assert tc_f == pytest.approx(0.5)


def test_temporal_continuity_requires_two_snapshots():
    seq_one = SnapshotSequence(snapshots=(_snap(np.zeros((2, 2), dtype=bool), np.ones((2, 1)), 0.0),))
    with pytest.raises(ValueError):
        temporal_continuity(seq_one)


def test_temporal_continuity_structure_stays_in_unit_interval():
    rng = np.random.default_rng(19)
    for trial in range(10):
        snaps = []
        feats = rng.normal(size=(6, 2))
        for l in range(5):
            adj = rng.random((6, 6)) < 0.3
            adj = np.triu(adj, 1)
            adj = adj | adj.T
            snaps.append(_snap(adj, feats + rng.normal(size=(6, 2)), float(l)))
        tc_s, tc_f = temporal_continuity(SnapshotSequence(snapshots=tuple(snaps)))
        assert 0.0 <= tc_s <= 1.0
        assert -1.0 <= tc_f <= 1.0 + 1e-12


def test_temporal_continuity_invariant_to_shared_column_permutation():
    rng = np.random.default_rng(23)
    snaps = []
    for l in range(4):
        adj = rng.random((5, 5)) < 0.4
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        snaps.append(_snap(adj, rng.normal(size=(5, 3)), float(l)))
    seq = SnapshotSequence(snapshots=tuple(snaps))
    perm = np.array([2, 0, 1])
    permuted = SnapshotSequence(
        snapshots=tuple(_snap(s.adjacency, s.features[:, perm], s.timestamp) for s in seq)
    )
    assert temporal_continuity(permuted)[1] == pytest.approx(temporal_continuity(seq)[1], abs=1e-12)


# ---------------------------------------------------------------------------
# serialization


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    stream = _random_stream(rng)
    seq = materialize_snapshots(
        stream, [2.0, 4.0, 6.0], lambda t: rng.normal(size=(stream.num_nodes, 3))
    )
    path = tmp_path / "seq.gssm"
    save_sequence(seq, path)
    loaded = load_sequence(path)
    assert len(loaded) == len(seq)
    for orig, back in zip(seq, loaded):
        assert back.timestamp == orig.timestamp
        assert np.array_equal(back.adjacency, orig.adjacency)
        assert np.array_equal(back.features, orig.features)
    assert loaded == seq


def test_load_rejects_decreasing_timestamps(tmp_path):
    adj = np.zeros((2, 2), dtype=bool)
    feats = np.zeros((2, 1))
    seq = SnapshotSequence(snapshots=(_snap(adj, feats, 0.0), _snap(adj, feats, 1.0)))
    path = tmp_path / "seq.gssm"
    save_sequence(seq, path)
    text = path.read_text().replace("T 1.0", "T -1.0")
    path.write_text(text)
    with pytest.raises(ValueError):
        load_sequence(path)


def test_load_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.gssm"
    path.write_text("BOGUS v9 2 1 1\n")
    with pytest.raises(ValueError):
        load_sequence(path)


def test_load_rejects_a_negative_edge_count(tmp_path):
    # Used to load as an edgeless snapshot.
    path = tmp_path / "neg.gssm"
    path.write_text("GSSM v1 2 1 2\nT 0.0\nE 0\nX\n1.0\n2.0\n"
                    "T 1.0\nE -1\nX\n1.0\n2.0\n")
    with pytest.raises(ValueError, match=r"neg\.gssm: snapshot 1: negative edge count -1"):
        load_sequence(path)


def _two_snapshot_text(t="1.0", e="1", edges=("0 1",), row="2.0"):
    """A V=3, d=1 file whose second snapshot carries the given records."""
    return ("GSSM v1 3 1 2\nT 0.0\nE 1\n1 2\nX\n1.0\n2.0\n3.0\n"
            + f"T {t}\nE {e}\n" + "".join(f"{x}\n" for x in edges)
            + f"X\n1.0\n{row}\n3.0\n")


@pytest.mark.parametrize("records, match", [
    (dict(e="x", edges=()), "malformed edge count 'x'"),
    (dict(t="abc"), "malformed timestamp 'abc'"),
    (dict(edges=("0 q",)), "malformed edge '0 q'"),
    (dict(edges=("0 5",)), r"edge \(0, 5\) references a node outside \[0, 3\)"),
    (dict(edges=("0 -1",)), r"edge \(0, -1\) references a node outside \[0, 3\)"),
    (dict(e="2", edges=("0 1", "1 0")), "no duplicate edges"),
    (dict(edges=("0 0",)), "no self-loops"),
    (dict(row="abc"), "malformed feature row 'abc'"),
    (dict(t="nan"), "timestamp must be finite"),
])
def test_load_rejects_a_bad_record_naming_the_path_and_snapshot(tmp_path, records, match):
    path = tmp_path / "bad.gssm"
    path.write_text(_two_snapshot_text(**records))
    with pytest.raises(ValueError, match=rf"bad\.gssm: snapshot 1: .*{match}"):
        load_sequence(path)


def test_load_reads_an_edge_in_either_order_and_rejects_a_truncated_file(tmp_path):
    path = tmp_path / "seq.gssm"
    path.write_text(_two_snapshot_text(edges=("2 0",)))
    seq = load_sequence(path)
    assert _edge_set(seq[1]) == frozenset({(0, 2)})
    path.write_text(_two_snapshot_text()[:-4])
    with pytest.raises(ValueError, match=r"seq\.gssm: snapshot 1: unexpected end of file"):
        load_sequence(path)
    path.write_text("GSSM v1 3 x 1\n")
    with pytest.raises(ValueError, match=r"seq\.gssm: malformed header sizes"):
        load_sequence(path)


_ONE_SNAPSHOT = "GSSM v1 3 1 1\nT 0.0\nE 0\nX\n"


@pytest.mark.parametrize("text, message", [
    ("GSSM v1 0 1 1\n", "nonsensical sizes in header"),
    ("GSSM v1 3 -1 1\n", "nonsensical sizes in header"),
    ("GSSM v1 3 1 0\n", "nonsensical sizes in header"),
    ("GSSM v1 3 1.5 1\n", "malformed header sizes '3 1.5 1'"),
    ("GSSM v1 3 1\n", "malformed header (expected 'GSSM v1 <V> <d> <L>')"),
    ("GSSM v1 3 1 1 1\n", "malformed header (expected 'GSSM v1 <V> <d> <L>')"),
    ("GSSM v2 3 1 1\n", "malformed header (expected 'GSSM v1 <V> <d> <L>')"),
    ("", "malformed header (expected 'GSSM v1 <V> <d> <L>')"),
    ("GSSM v1 3 1 1\n", "snapshot 0: unexpected end of file while reading timestamp"),
    ("GSSM v1 3 1 1\nS 0.0\n", "snapshot 0: expected 'T <timestamp>'"),
    ("GSSM v1 3 1 1\nT\n", "snapshot 0: expected 'T <timestamp>'"),
    ("GSSM v1 3 1 1\nT inf\nE 0\nX\n1\n2\n3\n", "snapshot 0: timestamp must be finite"),
    ("GSSM v1 3 1 1\nT -inf\nE 0\nX\n1\n2\n3\n", "snapshot 0: timestamp must be finite"),
    ("GSSM v1 3 1 1\nT 0.0\nE\n", "snapshot 0: expected 'E <num_edges>'"),
    ("GSSM v1 3 1 1\nT 0.0\nE 1.5\n", "snapshot 0: malformed edge count '1.5'"),
    ("GSSM v1 3 1 1\nT 0.0\nE 1\n0\n", "snapshot 0: malformed edge line"),
    ("GSSM v1 3 1 1\nT 0.0\nE 1\n0 1 2\n", "snapshot 0: malformed edge line"),
    ("GSSM v1 3 1 1\nT 0.0\nE 0\nY\n", "snapshot 0: expected 'X' marker"),
    (_ONE_SNAPSHOT + "1\nnan\n3\n", "snapshot 0: features must be finite"),
    (_ONE_SNAPSHOT + "1\ninf\n3\n", "snapshot 0: features must be finite"),
    (_ONE_SNAPSHOT + "1\n-inf\n3\n", "snapshot 0: features must be finite"),
    (_ONE_SNAPSHOT + "1\n1 2\n3\n", "snapshot 0: feature row has 2 values, expected 1"),
    (_ONE_SNAPSHOT + "1\n\n3\n", "snapshot 0: feature row has 0 values, expected 1"),
    (_ONE_SNAPSHOT + "1\n2\n", "snapshot 0: unexpected end of file while reading feature row"),
    ("GSSM v1 1 10 1\nT 0.0\nE 0\nX\n0 0 0 0 0 0 0 0 0 abc\n",
     "snapshot 0: malformed feature row '0 0 0 0 0 0 0 0 ...'"),
], ids=["zero_nodes", "negative_width", "zero_length", "float_size", "short_header",
        "long_header", "wrong_version", "empty", "header_only", "wrong_record_tag", "bare_t",
        "inf_timestamp", "minus_inf_timestamp", "bare_e", "float_edge_count", "one_token_edge",
        "three_token_edge", "missing_x_marker", "nan_feature", "inf_feature",
        "minus_inf_feature", "wide_row", "blank_row", "missing_rows", "long_bad_row"])
def test_sequence_parse_errors_name_the_path(tmp_path, text, message):
    path = tmp_path / "bad.gssm"
    path.write_text(text)
    with pytest.raises(ValueError) as excinfo:
        load_sequence(path)
    assert str(excinfo.value).startswith(f"{path}: {message}")


def test_sequence_round_trip_keeps_extreme_values_bit_exact(tmp_path):
    feats = np.array([[5e-324, -0.0], [1e300, -1e-300], [0.1, 2.0 / 3.0]])
    seq = SnapshotSequence((_snap(_path_graph(3), feats, 5e-324),
                            _snap(np.zeros((3, 3)), -feats[::-1], 1e300)))
    path = tmp_path / "seq.gssm"
    save_sequence(seq, path)
    loaded = load_sequence(path)
    for orig, back in zip(seq, loaded):
        assert back.timestamp == orig.timestamp
        assert back.features.tobytes() == orig.features.tobytes()
        assert _edge_set(back) == _edge_set(orig)


def test_sequence_without_features_round_trips_its_blank_last_rows(tmp_path):
    seq = SnapshotSequence((_snap(_path_graph(3), np.zeros((3, 0)), 0.0),
                            _snap(np.zeros((3, 3)), np.zeros((3, 0)), 1.0)))
    path = tmp_path / "seq.gssm"
    save_sequence(seq, path)
    assert path.read_text().endswith("X\n\n\n\n")
    loaded = load_sequence(path)
    assert loaded == seq
    assert loaded.num_features == 0 and loaded[1].features.shape == (3, 0)


@pytest.mark.parametrize("edge", [(0, -1), (3, 1), (-3, 0)])
def test_adjacency_from_edges_rejects_node_ids_outside_the_graph(edge):
    with pytest.raises(ValueError, match=r"references a node outside \[0, 3\)"):
        adjacency_from_edges([edge], 3)


def test_load_hand_written_single_snapshot_fixture(tmp_path):
    path = tmp_path / "fixture.gssm"
    path.write_text(
        "GSSM v1 3 2 1\n"
        "T 0.5\n"
        "E 2\n"
        "0 1\n"
        "1 2\n"
        "X\n"
        "1.0 2.0\n"
        "3.0 4.0\n"
        "5.0 6.0\n"
    )
    seq = load_sequence(path)
    assert len(seq) == 1
    snap = seq[0]
    assert snap.timestamp == 0.5
    assert _edge_set(snap) == frozenset({(0, 1), (1, 2)})
    assert snap.features == pytest.approx(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))


def test_snapshot_rejects_asymmetric_adjacency():
    adj = np.zeros((2, 2), dtype=bool)
    adj[0, 1] = True
    with pytest.raises(ValueError):
        Snapshot(adjacency=adj, features=np.zeros((2, 1)), timestamp=0.0)


def test_sequence_rejects_nonincreasing_timestamps():
    adj = np.zeros((2, 2), dtype=bool)
    feats = np.zeros((2, 1))
    with pytest.raises(ValueError):
        SnapshotSequence(snapshots=(_snap(adj, feats, 1.0), _snap(adj, feats, 1.0)))


def test_snapshot_rejects_non_finite_timestamps():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            _snap(np.zeros((2, 2)), np.zeros((2, 1)), bad)


def test_sequence_with_a_nan_timestamp_is_rejected():
    adj = np.zeros((2, 2), dtype=bool)
    feats = np.zeros((2, 1))
    with pytest.raises(ValueError):
        SnapshotSequence(snapshots=tuple(_snap(adj, feats, t) for t in (1.0, np.nan, 3.0)))


def test_materialize_rejects_nan_observe_times():
    stream = EventStream(num_nodes=3, horizon=5.0, initial_edges=frozenset({(0, 1)}), events=())
    with pytest.raises(ValueError):
        materialize_snapshots(stream, [1.0, np.nan, 3.0], lambda t: np.zeros((3, 1)))


# ---------------------------------------------------------------------------
# CSR storage


@st.composite
def _symmetric_adjacencies(draw):
    """Random symmetric boolean adjacency without self-loops, V in 1..9."""
    v = draw(st.integers(1, 9))
    pairs = [(u, w) for u in range(v) for w in range(u + 1, v)]
    on = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    adj = np.zeros((v, v), dtype=bool)
    for (u, w), keep in zip(pairs, on):
        adj[u, w] = adj[w, u] = keep
    return adj


@settings(max_examples=150, deadline=None)
@given(adj=_symmetric_adjacencies())
@example(adj=np.zeros((1, 1), dtype=bool))
@example(adj=np.zeros((4, 4), dtype=bool))
@example(adj=np.pad(_path_graph(4), ((0, 1), (0, 1))))  # node 4 is isolated
def test_both_constructors_store_the_scipy_csr_pattern(adj):
    import scipy.sparse
    v = adj.shape[0]
    feats = np.arange(2.0 * v).reshape(v, 2)
    ref = scipy.sparse.csr_array(adj)
    dense = Snapshot(adj, feats, 1.0)
    sparse = Snapshot.from_csr(ref.indptr, ref.indices, feats, 1.0)
    assert dense == sparse
    for snap in (dense, sparse):
        assert np.array_equal(snap.indptr, ref.indptr) and np.array_equal(snap.indices, ref.indices)
        assert snap.indptr.dtype == snap.indices.dtype == np.int32
        assert not (snap.indptr.flags.writeable or snap.indices.flags.writeable)
        assert np.array_equal(snap.adjacency, adj) and not snap.adjacency.flags.writeable
        ((block,),) = SnapshotSequence((snap,)).csr_blocks([slice(0, 1)])
        assert np.array_equal(block.toarray(), adj)
        iu, iv = np.nonzero(np.triu(adj, 1))
        assert _edge_set(snap) == frozenset(zip(iu.tolist(), iv.tolist()))


def test_from_csr_copies_its_inputs():
    indptr, indices = np.array([0, 1, 2]), np.array([1, 0])
    snap = Snapshot.from_csr(indptr, indices, np.zeros((2, 1)), 0.0)
    indices[:] = 0
    assert _edge_set(snap) == frozenset({(0, 1)})


# The path 0-1-2 is indptr [0, 1, 3, 4], indices [1, 0, 2, 1].
@pytest.mark.parametrize("indptr, indices, match", [
    ([0, 1, 1, 1], [1], "symmetric"),
    ([0, 1, 3, 4], [1, 0, 2, 0], "symmetric"),
    ([0, 1, 1, 1], [0], "no self-loops"),
    ([0, 1, 3, 4], [1, 2, 0, 1], "strictly increasing"),
    ([0, 2, 4, 4], [1, 1, 0, 0], "no duplicate edges"),
    ([0, 1, 3, 4], [1, 0, 3, 1], r"lie in \[0, 3\)"),
    ([0, 1, 3, 4], [1, -1, 2, 1], r"lie in \[0, 3\)"),
    ([1, 1, 3, 4], [1, 0, 2, 1], "indptr must rise"),
    ([0, 3, 1, 4], [1, 0, 2, 1], "indptr must rise"),
    ([0, 1, 3, 5], [1, 0, 2, 1], "indptr must rise"),
    ([[0, 1, 3, 4]], [1, 0, 2, 1], "1-D integer"),
    ([0, 1, 3, 4], [1.0, 0.0, 2.0, 1.0], "1-D integer"),
])
def test_from_csr_rejects_a_malformed_pattern(indptr, indices, match):
    with pytest.raises(ValueError, match=match):
        Snapshot.from_csr(np.array(indptr), np.array(indices), np.zeros((3, 1)), 0.0)


@pytest.mark.parametrize("first", [1 + 2**32, -2**32 + 1])
def test_from_csr_checks_the_index_range_before_it_narrows_the_keys(first):
    """Cast to int32 first, either index would read as node 1 and pass as
    the edge 0-1."""
    with pytest.raises(ValueError, match=r"lie in \[0, 2\)"):
        Snapshot.from_csr(np.array([0, 1, 2]), np.array([first, 0], dtype=np.int64),
                          np.zeros((2, 1)), 0.0)


@pytest.mark.parametrize("v", [46_340, 46_341])  # the last int32-key size, the first int64 one
def test_csr_from_pairs_keys_the_largest_node_ids_without_overflow(v):
    pairs = [(v - 1, v - 2), (0, v - 1), (1, 5), (v - 2, 0), (5, v - 1)]
    u, w = np.array(pairs).T
    indptr, indices = _csr_from_pairs(u, w, v)
    want = {}
    for a, b in pairs:
        want.setdefault(a, []).append(b)
        want.setdefault(b, []).append(a)
    assert indptr.size == v + 1 and indptr[-1] == indices.size == 2 * len(pairs)
    for row in range(v):
        got = indices[indptr[row]:indptr[row + 1]].tolist()
        assert got == sorted(set(want.get(row, [])))
    snap = Snapshot.from_csr(indptr, indices, np.zeros((v, 1)), 0.0)
    assert _edge_set(snap) == frozenset((min(p), max(p)) for p in pairs)
    # Row v - 1 lists node 0, but row 0 does not list v - 1.
    bad = np.zeros(v + 1, dtype=np.int64)
    bad[v] = 1
    with pytest.raises(ValueError, match="must be symmetric"):
        Snapshot.from_csr(bad, np.array([0]), np.zeros((v, 1)), 0.0)


def test_snapshots_compare_by_value_at_any_size():
    adj = _path_graph(5)
    feats = np.arange(10.0).reshape(5, 2)
    assert _snap(adj, feats) == _snap(adj.copy(), feats.copy())
    assert _snap(adj, feats) != _snap(np.zeros((5, 5)), feats)
    assert _snap(adj, feats) != _snap(adj, feats + 1.0)
    assert _snap(adj, feats) != _snap(adj, feats, 1.0)
    assert _snap(adj, feats) != "not a snapshot"


def test_temporal_continuity_structure_equals_the_edge_set_jaccard():
    rng = np.random.default_rng(29)
    snaps = []
    for l in range(6):
        adj = np.triu(rng.random((7, 7)) < 0.3, 1)
        snaps.append(_snap(adj | adj.T, rng.normal(size=(7, 2)), float(l)))
    jac = []
    for prev, cur in zip(snaps, snaps[1:]):
        a, b = _edge_set(prev), _edge_set(cur)
        jac.append(1.0 if not a | b else len(a & b) / len(a | b))
    assert temporal_continuity(SnapshotSequence(tuple(snaps)))[0] == float(np.mean(jac))
