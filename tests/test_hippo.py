from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg import expm

from gssm import (
    TIME_ORIGIN,
    Action,
    EventStream,
    HippoConfig,
    LaplacianKind,
    Snapshot,
    adjacency_from_edges,
    consensus_profile,
    edges_at,
    hippo_legs_matrices,
    integrate_hippo,
    laplacian,
    projection_oracle,
    smoothing_matrix,
)


def _quiet_stream(num_nodes, horizon=4.0):
    return EventStream(num_nodes=num_nodes, horizon=horizon, initial_edges=frozenset(), events=())


def _stream_with_mutations(num_nodes=4, horizon=2.0):
    return EventStream(
        num_nodes=num_nodes,
        horizon=horizon,
        initial_edges=frozenset({(0, 1)}),
        events=((1, 2, 0.6, Action.INSERT), (0, 1, 1.3, Action.DELETE)),
    )


def _segment_features(rng, stream, t_end):
    """Piecewise-constant per-node features keyed by the mutation segments."""
    times = np.asarray([t for t in stream.mutation_times if t < t_end])
    values = rng.uniform(-1.0, 1.0, size=(times.size + 1, stream.num_nodes))

    def path(t):
        return values[int(np.searchsorted(times, t, side="right"))]

    return path, times, values


def _exact_piecewise_state(stream, cfg, t_end, seg_values):
    """Closed-form flow for constant-per-segment drives, chained with expm.

    On each segment the flow is linear with a constant drive, so the state
    moves toward the fixed point u_p = -outer(y, A^{-1} B) along exp(dt*A)."""
    _, a, b = hippo_legs_matrices(cfg.order)
    ainv_b = np.linalg.solve(a, b)
    cuts = [TIME_ORIGIN]
    cuts += [t for t in stream.mutation_times if TIME_ORIGIN < t < t_end]
    cuts.append(t_end)
    u = np.zeros((stream.num_nodes, cfg.order))
    for i, (seg_a, seg_b) in enumerate(zip(cuts, cuts[1:])):
        adj = adjacency_from_edges(edges_at(stream, seg_a), stream.num_nodes)
        smoother = np.eye(stream.num_nodes) + cfg.alpha * laplacian(adj, cfg.laplacian)
        y = np.linalg.solve(smoother, seg_values[i])
        u_p = -np.outer(y, ainv_b)
        u = (u - u_p) @ expm((seg_b - seg_a) * a).T + u_p
    return u


# ---------------------------------------------------------------------------
# transition matrices


def test_matrices_order_two_closed_form():
    _, a, b = hippo_legs_matrices(2)
    root3 = math.sqrt(3.0)
    assert a == pytest.approx(np.array([[-1.0, 0.0], [-root3, -2.0]]), abs=0.0)
    assert b == pytest.approx(np.array([1.0, root3]), abs=0.0)


def test_matrices_order_one():
    _, a, b = hippo_legs_matrices(1)
    assert a == pytest.approx(np.array([[-1.0]]))
    assert b == pytest.approx(np.array([1.0]))


def test_matrices_match_entrywise_reconstruction():
    order = 5
    _, a, b = hippo_legs_matrices(order)
    for n in range(order):
        assert abs(b[n] - math.sqrt(2 * n + 1)) <= 1e-14
        for k in range(order):
            if n > k:
                expected = -math.sqrt((2 * n + 1) * (2 * k + 1))
            elif n == k:
                expected = -(n + 1.0)
            else:
                expected = 0.0
            assert abs(a[n, k] - expected) <= 1e-14


def test_matrices_reject_zero_order():
    with pytest.raises(ValueError):
        hippo_legs_matrices(0)


# ---------------------------------------------------------------------------
# brute-force projection


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, 0.0, 5.0])
def test_oracle_rejects_non_finite_or_out_of_horizon_times(t):
    stream = _stream_with_mutations(horizon=2.0)
    cfg = HippoConfig(order=2, alpha=0.5, quadrature_points=11)
    with pytest.raises(ValueError):
        projection_oracle(stream, lambda s: np.ones(4), cfg, t)


def test_oracle_constant_input_concentrates_on_degree_zero():
    stream = _quiet_stream(3)
    # trapezoid error is O(h^2); 40001 nodes push the degree>=2 residue under 1e-8
    cfg = HippoConfig(order=4, alpha=0.0, quadrature_points=40001)
    state = projection_oracle(stream, lambda t: np.array([2.5, -1.0, 0.5]), cfg, t=3.0)
    assert state.u[:, 0] == pytest.approx(np.array([2.5, -1.0, 0.5]), abs=1e-10)
    assert np.abs(state.u[:, 1:]).max() <= 1e-8
    assert state.time == 3.0


def test_oracle_zero_input_gives_zero_coefficients():
    stream = _quiet_stream(2)
    cfg = HippoConfig(order=3, alpha=1.0)
    state = projection_oracle(stream, lambda t: np.zeros(2), cfg, t=2.0)
    assert state.u == pytest.approx(np.zeros((2, 3)), abs=0.0)


def test_oracle_linear_input_supported_on_first_two_degrees():
    # x(s) = s against the normalized basis on [0, t]: the degree-0 weight is
    # the mean t/2 and the degree-1 weight is sqrt(3)*t/6; higher degrees die.
    stream = _quiet_stream(1)
    cfg = HippoConfig(order=3, alpha=0.0, quadrature_points=40001)
    t = 3.0
    state = projection_oracle(stream, lambda s: np.array([s]), cfg, t=t)
    assert state.u[0, 0] == pytest.approx(t / 2.0, abs=1e-8)
    assert state.u[0, 1] == pytest.approx(math.sqrt(3.0) * t / 6.0, abs=1e-8)
    assert abs(state.u[0, 2]) <= 1e-8


def test_oracle_rejects_nonpositive_time():
    stream = _quiet_stream(2)
    cfg = HippoConfig(order=2, alpha=0.0)
    with pytest.raises(ValueError):
        projection_oracle(stream, lambda t: np.zeros(2), cfg, t=0.0)


# ---------------------------------------------------------------------------
# ODE integration


def test_integrator_matches_oracle_on_random_instances():
    rng = np.random.default_rng(31)
    for alpha in (0.0, 0.5, 2.0):
        num_nodes = int(rng.integers(3, 7))
        horizon = 16.0
        mut_times = np.sort(rng.uniform(0.25, 6.0, size=3))
        pairs = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]
        present: set = set()
        events = []
        for t in mut_times:
            pair = pairs[rng.integers(len(pairs))]
            action = Action.DELETE if pair in present else Action.INSERT
            (present.discard if action is Action.DELETE else present.add)(pair)
            events.append((*pair, float(t), action))
        stream = EventStream(
            num_nodes=num_nodes, horizon=horizon, initial_edges=frozenset(), events=tuple(events)
        )
        feats = rng.uniform(-1.0, 1.0, size=num_nodes)
        cfg = HippoConfig(order=4, alpha=alpha)
        ode = integrate_hippo(stream, lambda t: feats, cfg, t_end=horizon)
        ref = projection_oracle(stream, lambda t: feats, cfg, t=horizon)
        rel = np.linalg.norm(ode.u - ref.u) / np.linalg.norm(ref.u)
        assert rel <= 1e-3


def test_integrator_alpha_zero_equals_independent_single_node_runs():
    stream = _stream_with_mutations()
    cfg = HippoConfig(order=3, alpha=0.0)
    t_end = 2.0
    rng = np.random.default_rng(5)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=stream.num_nodes)
    path = lambda t: np.sin(t + phases)
    joint = integrate_hippo(stream, path, cfg, t_end=t_end)

    cuts = [TIME_ORIGIN, *stream.mutation_times, t_end]
    for v in range(stream.num_nodes):
        solo_stream = _quiet_stream(1, horizon=stream.horizon)
        solo_path = lambda t: np.array([np.sin(t + phases[v])])
        u = np.zeros((1, cfg.order))
        for seg_a, seg_b in zip(cuts, cuts[1:]):
            u = integrate_hippo(
                solo_stream, solo_path, cfg, t_end=seg_b, u_start=u, t_start=seg_a
            ).u
        assert np.abs(joint.u[v] - u[0]).max() <= 1e-10


def test_integrator_edgeless_graph_ignores_alpha():
    stream = _quiet_stream(3, horizon=3.0)
    rng = np.random.default_rng(17)
    scales = rng.uniform(0.5, 2.0, size=3)
    path = lambda t: scales * np.cos(t)
    smoothed = integrate_hippo(stream, path, HippoConfig(order=4, alpha=2.0), t_end=3.0)
    plain = integrate_hippo(stream, path, HippoConfig(order=4, alpha=0.0), t_end=3.0)
    assert np.abs(smoothed.u - plain.u).max() <= 1e-10
    for v in range(3):
        solo = integrate_hippo(
            _quiet_stream(1, horizon=3.0),
            lambda t: np.array([scales[v] * np.cos(t)]),
            HippoConfig(order=4, alpha=2.0),
            t_end=3.0,
        )
        assert np.abs(smoothed.u[v] - solo.u[0]).max() <= 1e-10


def test_integrator_is_linear_in_the_feature_path():
    stream = _stream_with_mutations()
    cfg = HippoConfig(order=3, alpha=1.0)
    rng = np.random.default_rng(11)
    base_path, _, _ = _segment_features(rng, stream, 2.0)
    one = integrate_hippo(stream, base_path, cfg, t_end=2.0)
    three = integrate_hippo(stream, lambda t: 3.0 * base_path(t), cfg, t_end=2.0)
    assert np.abs(three.u - 3.0 * one.u).max() <= 1e-10


def test_integrator_fourth_order_convergence_against_closed_form():
    stream = _stream_with_mutations()
    rng = np.random.default_rng(23)
    path, _, values = _segment_features(rng, stream, 2.0)
    errors = []
    for steps in (25, 50, 100):
        cfg = HippoConfig(order=3, alpha=1.0, ode_steps_per_unit=steps)
        exact = _exact_piecewise_state(stream, cfg, 2.0, values)
        got = integrate_hippo(stream, path, cfg, t_end=2.0)
        errors.append(np.abs(got.u - exact).max())
    assert 10.0 <= errors[0] / errors[1] <= 24.0
    assert 10.0 <= errors[1] / errors[2] <= 24.0


def test_integrator_rejects_bad_time_window():
    stream = _quiet_stream(2, horizon=1.0)
    cfg = HippoConfig(order=2, alpha=0.0)
    with pytest.raises(ValueError):
        integrate_hippo(stream, lambda t: np.zeros(2), cfg, t_end=2.0)
    with pytest.raises(ValueError):
        integrate_hippo(stream, lambda t: np.zeros(2), cfg, t_end=0.5, t_start=0.5)


def test_integrator_rejects_nonfinite_features():
    stream = _quiet_stream(2, horizon=1.0)
    cfg = HippoConfig(order=2, alpha=0.0)
    with pytest.raises(ValueError):
        integrate_hippo(stream, lambda t: np.array([np.nan, 0.0]), cfg, t_end=1.0)


def test_integrator_rejects_wrong_state_shape():
    stream = _quiet_stream(2, horizon=1.0)
    cfg = HippoConfig(order=2, alpha=0.0)
    with pytest.raises(ValueError):
        integrate_hippo(
            stream, lambda t: np.zeros(2), cfg, t_end=1.0, u_start=np.zeros((3, 2)), t_start=0.1
        )


def test_config_validation():
    with pytest.raises(ValueError):
        HippoConfig(order=0, alpha=0.0)
    with pytest.raises(ValueError):
        HippoConfig(order=2, alpha=-1.0)
    with pytest.raises(ValueError):
        HippoConfig(order=2, alpha=0.0, ode_steps_per_unit=0)


# ---------------------------------------------------------------------------
# infinite-smoothing consensus profiles


def test_consensus_triangle_random_walk_is_all_ones():
    adj = np.ones((3, 3), dtype=bool)
    np.fill_diagonal(adj, False)
    snap = Snapshot(adjacency=adj, features=np.zeros((3, 1)), timestamp=0.0)
    profiles = consensus_profile(snap, LaplacianKind.RANDOM_WALK)
    assert len(profiles) == 1
    assert profiles[0] == pytest.approx(np.full(3, 1.0 / math.sqrt(3.0)))


def test_consensus_star_symmetric_follows_sqrt_degree():
    adj = np.zeros((4, 4), dtype=bool)
    for leaf in (1, 2, 3):
        adj[0, leaf] = adj[leaf, 0] = True
    snap = Snapshot(adjacency=adj, features=np.zeros((4, 1)), timestamp=0.0)
    profiles = consensus_profile(snap, LaplacianKind.SYMMETRIC)
    assert len(profiles) == 1
    expected = np.array([math.sqrt(3.0), 1.0, 1.0, 1.0])
    assert profiles[0] == pytest.approx(expected / np.linalg.norm(expected))


def test_consensus_two_disjoint_edges_has_two_profiles():
    adj = np.zeros((4, 4), dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    adj[2, 3] = adj[3, 2] = True
    snap = Snapshot(adjacency=adj, features=np.zeros((4, 1)), timestamp=0.0)
    profiles = consensus_profile(snap, LaplacianKind.RANDOM_WALK)
    assert len(profiles) == 2
    lap = laplacian(snap, LaplacianKind.RANDOM_WALK)
    for z in profiles:
        assert np.linalg.norm(z) == pytest.approx(1.0)
        assert lap @ z == pytest.approx(np.zeros(4), abs=1e-12)


def test_consensus_isolated_node_is_its_own_component():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    snap = Snapshot(adjacency=adj, features=np.zeros((3, 1)), timestamp=0.0)
    for kind in LaplacianKind:
        profiles = consensus_profile(snap, kind)
        assert len(profiles) == 2
        lonely = [z for z in profiles if z[2] != 0.0]
        assert len(lonely) == 1
        assert lonely[0] == pytest.approx(np.array([0.0, 0.0, 1.0]))


# ---------------------------------------------------------------------------
# smoother solve


@pytest.mark.parametrize("kind", list(LaplacianKind))
def test_smoother_solve_has_tiny_residual_for_both_laplacians(kind):
    # Path graph: unequal degrees make I + alpha*L_rw non-symmetric.
    stream = EventStream(num_nodes=4, horizon=2.0,
                         initial_edges=frozenset({(0, 1), (1, 2), (2, 3)}), events=())
    x = np.array([1.0, -2.0, 0.5, 3.0])
    cfg = HippoConfig(order=3, alpha=2.0, laplacian=kind, quadrature_points=11)
    # Constant features project onto degree 0 only, so column 0 is M^{-1} x.
    y = projection_oracle(stream, lambda t: x, cfg, 1.0).u[:, 0]
    smoother = np.eye(4) + 2.0 * laplacian(adjacency_from_edges(stream.initial_edges, 4), kind)
    assert np.linalg.norm(smoother @ y - x) <= 1e-12


@pytest.mark.parametrize("kind", list(LaplacianKind))
def test_smoothing_matrix_inverts_the_smoother_for_both_laplacians(kind):
    # Path graph plus an isolated node: unequal degrees, and a row with no smoothing.
    adj = adjacency_from_edges({(0, 1), (1, 2), (2, 3)}, 5)
    smoother = np.eye(5) + 2.0 * laplacian(adj, kind)
    inv = smoothing_matrix(adj, 2.0, kind)
    assert np.abs(inv @ smoother - np.eye(5)).max() <= 1e-14
    assert np.array_equal(inv[4], np.eye(5)[4])
    assert np.array_equal(smoothing_matrix(adj, 0.0, kind), np.eye(5))
