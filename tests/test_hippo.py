from __future__ import annotations

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg.lapack
from scipy.linalg import expm, lu_factor, lu_solve

from gssm import hippo, verify
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
    segments,
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
        return values[np.searchsorted(times, t, side="right")]

    return path, times, values


def _constant_path(x):
    """Feature path holding the [V] features x at every time."""
    x = np.asarray(x, dtype=float)
    return lambda t: np.broadcast_to(x, (t.size, x.size))


def _exact_piecewise_state(stream, cfg, t_end, seg_values):
    """Closed-form flow for constant-per-segment drives, chained with expm.

    On each segment the flow is linear with a constant drive, so the state
    moves toward the fixed point u_p = -outer(y, A^{-1} B) along exp(dt*A)."""
    a, b = hippo_legs_matrices(cfg.order)
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


def _stagewise_rk4(stream, feature_path, cfg, t_end, u_start=None, t_start=None, system=None):
    """Reference: classical RK4 taken stage by stage, one feature call per
    stage, each on a one-time grid."""
    if t_start is None:
        t_start = TIME_ORIGIN
    n = cfg.order
    a_mat, b_vec = hippo_legs_matrices(n) if system is None else system
    a_t = np.asarray(a_mat, dtype=float).T
    b_vec = np.asarray(b_vec, dtype=float).reshape(-1)
    u = np.zeros((stream.num_nodes, n)) if u_start is None else np.array(u_start, dtype=float)

    for seg_a, seg_b, edges in segments(stream, t_start, t_end):
        smooth = smoothing_matrix(adjacency_from_edges(edges, stream.num_nodes),
                                  cfg.alpha, cfg.laplacian)
        right_lim = np.nextafter(seg_b, seg_a)

        def rhs(t, state):
            x = hippo._feature_grid(feature_path, np.array([min(t, right_lim)]),
                                    stream.num_nodes)[0]
            return state @ a_t + np.outer(smooth @ x, b_vec)

        nst = max(1, math.ceil((seg_b - seg_a) * cfg.ode_steps_per_unit))
        h = (seg_b - seg_a) / nst
        t = seg_a
        for _ in range(nst):
            k1 = rhs(t, u)
            k2 = rhs(t + 0.5 * h, u + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, u + 0.5 * h * k2)
            k4 = rhs(t + h, u + h * k3)
            u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
    return u


def _random_mutating_stream(rng, num_nodes, horizon, count):
    pairs = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]
    present = {pairs[0]}
    events = []
    for t in np.sort(rng.uniform(0.05 * horizon, 0.95 * horizon, size=count)):
        pair = pairs[rng.integers(len(pairs))]
        action = Action.DELETE if pair in present else Action.INSERT
        (present.discard if action is Action.DELETE else present.add)(pair)
        events.append((*pair, float(t), action))
    return EventStream(num_nodes=num_nodes, horizon=horizon,
                       initial_edges=frozenset({pairs[0]}), events=tuple(events))


class _RecordingPath:
    """Feature path that logs the time grid of every call."""

    def __init__(self, path):
        self.path = path
        self.calls = []

    def __call__(self, t):
        self.calls.append(t.tolist())
        return self.path(t)


# ---------------------------------------------------------------------------
# transition matrices


def test_matrices_order_two_closed_form():
    a, b = hippo_legs_matrices(2)
    root3 = math.sqrt(3.0)
    assert a == pytest.approx(np.array([[-1.0, 0.0], [-root3, -2.0]]), abs=0.0)
    assert b == pytest.approx(np.array([1.0, root3]), abs=0.0)


def test_matrices_order_one():
    a, b = hippo_legs_matrices(1)
    assert a == pytest.approx(np.array([[-1.0]]))
    assert b == pytest.approx(np.array([1.0]))


def test_matrices_match_entrywise_reconstruction():
    order = 5
    a, b = hippo_legs_matrices(order)
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


def test_memoized_operators_reject_writes():
    for x in hippo._legs_operators(3, 0.01, 5):
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 1.0


# ---------------------------------------------------------------------------
# brute-force projection


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, 0.0, 5.0])
def test_oracle_rejects_non_finite_or_out_of_horizon_times(t):
    stream = _stream_with_mutations(horizon=2.0)
    cfg = HippoConfig(order=2, alpha=0.5, quadrature_points=11)
    with pytest.raises(ValueError):
        projection_oracle(stream, _constant_path(np.ones(4)), cfg, t)


def test_oracle_constant_input_concentrates_on_degree_zero():
    stream = _quiet_stream(3)
    # trapezoid error is O(h^2); 40001 nodes push the degree>=2 residue under 1e-8
    cfg = HippoConfig(order=4, alpha=0.0, quadrature_points=40001)
    state = projection_oracle(stream, _constant_path([2.5, -1.0, 0.5]), cfg, t=3.0)
    assert state[:, 0] == pytest.approx(np.array([2.5, -1.0, 0.5]), abs=1e-10)
    assert np.abs(state[:, 1:]).max() <= 1e-8


def test_oracle_zero_input_gives_zero_coefficients():
    stream = _quiet_stream(2)
    cfg = HippoConfig(order=3, alpha=1.0)
    state = projection_oracle(stream, _constant_path(np.zeros(2)), cfg, t=2.0)
    assert state == pytest.approx(np.zeros((2, 3)), abs=0.0)


def test_oracle_linear_input_supported_on_first_two_degrees():
    # x(s) = s against the normalized basis on [0, t]: the degree-0 weight is
    # the mean t/2 and the degree-1 weight is sqrt(3)*t/6; higher degrees die.
    stream = _quiet_stream(1)
    cfg = HippoConfig(order=3, alpha=0.0, quadrature_points=40001)
    t = 3.0
    state = projection_oracle(stream, lambda s: s[:, None], cfg, t=t)
    assert state[0, 0] == pytest.approx(t / 2.0, abs=1e-8)
    assert state[0, 1] == pytest.approx(math.sqrt(3.0) * t / 6.0, abs=1e-8)
    assert abs(state[0, 2]) <= 1e-8


def test_oracle_rejects_nonpositive_time():
    stream = _quiet_stream(2)
    cfg = HippoConfig(order=2, alpha=0.0)
    with pytest.raises(ValueError):
        projection_oracle(stream, _constant_path(np.zeros(2)), cfg, t=0.0)


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
        ode = integrate_hippo(stream, _constant_path(feats), cfg, t_end=horizon)
        ref = projection_oracle(stream, _constant_path(feats), cfg, t=horizon)
        rel = np.linalg.norm(ode - ref) / np.linalg.norm(ref)
        assert rel <= 1e-3


def test_integrator_alpha_zero_equals_independent_single_node_runs():
    stream = _stream_with_mutations()
    cfg = HippoConfig(order=3, alpha=0.0)
    t_end = 2.0
    rng = np.random.default_rng(5)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=stream.num_nodes)
    path = lambda t: np.sin(t[:, None] + phases)
    joint = integrate_hippo(stream, path, cfg, t_end=t_end)

    cuts = [TIME_ORIGIN, *stream.mutation_times, t_end]
    for v in range(stream.num_nodes):
        solo_stream = _quiet_stream(1, horizon=stream.horizon)
        solo_path = lambda t: np.sin(t[:, None] + phases[v])
        u = np.zeros((1, cfg.order))
        for seg_a, seg_b in zip(cuts, cuts[1:]):
            u = integrate_hippo(
                solo_stream, solo_path, cfg, t_end=seg_b, u_start=u, t_start=seg_a
            )
        assert np.abs(joint[v] - u[0]).max() <= 1e-10


def test_integrator_edgeless_graph_ignores_alpha():
    stream = _quiet_stream(3, horizon=3.0)
    rng = np.random.default_rng(17)
    scales = rng.uniform(0.5, 2.0, size=3)
    path = lambda t: scales * np.cos(t[:, None])
    smoothed = integrate_hippo(stream, path, HippoConfig(order=4, alpha=2.0), t_end=3.0)
    plain = integrate_hippo(stream, path, HippoConfig(order=4, alpha=0.0), t_end=3.0)
    assert np.abs(smoothed - plain).max() <= 1e-10
    for v in range(3):
        solo = integrate_hippo(
            _quiet_stream(1, horizon=3.0),
            lambda t: scales[v] * np.cos(t[:, None]),
            HippoConfig(order=4, alpha=2.0),
            t_end=3.0,
        )
        assert np.abs(smoothed[v] - solo[0]).max() <= 1e-10


def test_integrator_builds_no_smoother_where_it_is_the_identity(monkeypatch):
    """One `smoothing_matrix` per segment, none at alpha = 0 or on an edgeless
    stream; there U keeps the bits of the stage features' product with I."""
    built = []

    def counting(adj, alpha, kind):
        built.append(alpha)
        return smoothing_matrix(adj, alpha, kind)

    monkeypatch.setattr(hippo, "smoothing_matrix", counting)
    phases = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, size=4)

    def path(t):
        x = np.sin(3.0 * t[:, None] + phases)
        x[x < -0.5] = -0.0            # the product with I gives 0.0; U must not show it
        return x

    mutating = _stream_with_mutations()            # 3 segments, each with an edge
    for stream, alpha, calls in ((mutating, 0.0, 0), (_quiet_stream(4, 2.0), 2.0, 0),
                                 (mutating, 0.5, 3)):
        built.clear()
        # Over 256 steps a segment: each takes two blocks.
        cfg = HippoConfig(order=3, alpha=alpha, ode_steps_per_unit=500)
        u = integrate_hippo(stream, path, cfg, t_end=2.0)
        assert len(built) == calls
        if not calls:
            with monkeypatch.context() as m:
                m.setattr(hippo, "_smoother_t", lambda edges, n, cfg: np.eye(n))
                assert integrate_hippo(stream, path, cfg, t_end=2.0).tobytes() == u.tobytes()


def test_integrator_is_linear_in_the_feature_path():
    stream = _stream_with_mutations()
    cfg = HippoConfig(order=3, alpha=1.0)
    rng = np.random.default_rng(11)
    base_path, _, _ = _segment_features(rng, stream, 2.0)
    one = integrate_hippo(stream, base_path, cfg, t_end=2.0)
    three = integrate_hippo(stream, lambda t: 3.0 * base_path(t), cfg, t_end=2.0)
    assert np.abs(three - 3.0 * one).max() <= 1e-10


def test_integrator_fourth_order_convergence_against_closed_form():
    stream = _stream_with_mutations()
    rng = np.random.default_rng(23)
    path, _, values = _segment_features(rng, stream, 2.0)
    errors = []
    for steps in (25, 50, 100):
        cfg = HippoConfig(order=3, alpha=1.0, ode_steps_per_unit=steps)
        exact = _exact_piecewise_state(stream, cfg, 2.0, values)
        got = integrate_hippo(stream, path, cfg, t_end=2.0)
        errors.append(np.abs(got - exact).max())
    assert 10.0 <= errors[0] / errors[1] <= 24.0
    assert 10.0 <= errors[1] / errors[2] <= 24.0


def test_integrator_rejects_bad_time_window():
    stream = _quiet_stream(2, horizon=1.0)
    cfg = HippoConfig(order=2, alpha=0.0)
    with pytest.raises(ValueError):
        integrate_hippo(stream, _constant_path(np.zeros(2)), cfg, t_end=2.0)
    with pytest.raises(ValueError):
        integrate_hippo(stream, _constant_path(np.zeros(2)), cfg, t_end=0.5, t_start=0.5)


def test_integrator_rejects_nonfinite_features():
    stream = _quiet_stream(2, horizon=1.0)
    cfg = HippoConfig(order=2, alpha=0.0)
    with pytest.raises(ValueError):
        integrate_hippo(stream, _constant_path([np.nan, 0.0]), cfg, t_end=1.0)


def test_integrator_rejects_wrong_state_shape():
    stream = _quiet_stream(2, horizon=1.0)
    cfg = HippoConfig(order=2, alpha=0.0)
    with pytest.raises(ValueError):
        integrate_hippo(
            stream, _constant_path(np.zeros(2)), cfg, t_end=1.0, u_start=np.zeros((3, 2)),
            t_start=0.1
        )


# The reference cases cover every way a caller reaches the segment loop:
# sinusoidal and segment-keyed step paths, both Laplacians, three alphas,
# a system override and a resumed start.  Block size 7 puts block boundaries
# mid-segment on every segment longer than 7 steps.
_REFERENCE_CASES = [
    pytest.param(seed, kind, alpha, path_kind, id=f"{seed}-{kind.value}-{alpha}-{path_kind}")
    for seed, (kind, alpha, path_kind) in enumerate(itertools.product(
        LaplacianKind, (0.0, 0.5, 2.0), ("sine", "step", "system", "resumed")))
]


@pytest.mark.parametrize("block", [None, 1, 7])
@pytest.mark.parametrize("seed,kind,alpha,path_kind", _REFERENCE_CASES)
def test_integrator_matches_stagewise_rk4(monkeypatch, block, seed, kind, alpha, path_kind):
    if block is not None:
        monkeypatch.setattr(hippo, "_BLOCK_STEPS", block)
    rng = np.random.default_rng(100 + seed)
    num_nodes = int(rng.integers(2, 7))
    order = int(rng.integers(1, 7))
    horizon = float(rng.uniform(1.5, 3.0))
    stream = _random_mutating_stream(rng, num_nodes, horizon, int(rng.integers(1, 5)))
    cfg = HippoConfig(order=order, alpha=alpha, laplacian=kind,
                      ode_steps_per_unit=int(rng.integers(20, 120)))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=num_nodes)
    freqs = rng.uniform(0.5, 3.0, size=num_nodes)
    path = lambda t: np.cos(freqs * t[:, None] + phases)
    kwargs = {}
    if path_kind == "step":
        path, _, _ = _segment_features(rng, stream, horizon)
    elif path_kind == "system":
        kwargs["system"] = (rng.normal(size=(order, order)) - 2.0 * np.eye(order),
                            rng.normal(size=order))
    elif path_kind == "resumed":
        kwargs["u_start"] = rng.normal(size=(num_nodes, order))
        kwargs["t_start"] = float(rng.uniform(0.1, 0.5))
    got = integrate_hippo(stream, path, cfg, horizon, **kwargs)
    ref = _stagewise_rk4(stream, path, cfg, horizon, **kwargs)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


# One run per way a block composition can go wrong: a 6200-step segment (24
# full blocks of 256 and a partial one of 56), and order 8 at one step per
# unit, where h*(-8) lies outside RK4's stability region so the powers of
# the step matrix grow by about 1e2 per step.
@pytest.mark.parametrize("block,order,steps_per_unit", [
    (None, 4, 2000), (None, 8, 1), (2, 8, 1)], ids=["long", "unstable", "unstable-block2"])
def test_integrator_matches_stagewise_rk4_on_long_and_unstable_segments(
        monkeypatch, block, order, steps_per_unit):
    if block is not None:
        monkeypatch.setattr(hippo, "_BLOCK_STEPS", block)
    horizon = 3.3 if steps_per_unit > 1 else 12.0
    stream = EventStream(num_nodes=3, horizon=horizon, initial_edges=frozenset({(0, 1)}),
                         events=((1, 2, 0.2, Action.INSERT), (0, 2, 0.55 * horizon, Action.INSERT)))
    cfg = HippoConfig(order=order, alpha=0.5, ode_steps_per_unit=steps_per_unit)
    path = lambda t: np.cos(np.array([0.7, 1.3, 2.1]) * t[:, None] + np.arange(3))
    got = integrate_hippo(stream, path, cfg, horizon)
    ref = _stagewise_rk4(stream, path, cfg, horizon)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("steps", [4, 9, 40])
def test_integrator_calls_features_once_per_distinct_stage_time(monkeypatch, block, steps):
    if block is not None:
        monkeypatch.setattr(hippo, "_BLOCK_STEPS", block)
    rng = np.random.default_rng(200 + steps)
    num_nodes = 4
    # On [0.5, 1.0] at 4 steps per unit the accumulated step end lands exactly
    # on the mutation at 1.0, so only the clamp keeps it inside the segment.
    stream = EventStream(num_nodes=num_nodes, horizon=3.0, initial_edges=frozenset({(0, 1)}),
                         events=((1, 2, 1.0, Action.INSERT),
                                 *((*pair, float(t), Action.INSERT) for pair, t in
                                   zip([(2, 3), (0, 3)], np.sort(rng.uniform(1.2, 2.8, 2))))))
    cfg = HippoConfig(order=3, alpha=0.5, ode_steps_per_unit=steps)
    t_start = 0.5
    base = lambda t: np.sin(t[:, None] + np.arange(num_nodes))
    fast = _RecordingPath(base)
    integrate_hippo(stream, fast, cfg, 3.0, t_start=t_start)
    slow = _RecordingPath(base)
    _stagewise_rk4(stream, slow, cfg, 3.0, t_start=t_start)

    # Per segment: one call per block of steps, all its times inside [seg_a, seg_b).
    calls = iter(fast.calls)
    for seg_a, seg_b, _ in segments(stream, t_start, 3.0):
        nst = max(1, math.ceil((seg_b - seg_a) * cfg.ode_steps_per_unit))
        for _ in range(math.ceil(nst / hippo._BLOCK_STEPS)):
            assert all(seg_a <= t < seg_b for t in next(calls))
    assert next(calls, None) is None
    # ... and in order they are exactly the stage-by-stage reference's times,
    # repeats dropped.
    ref = [t for (t,) in slow.calls]
    distinct = [t for i, t in enumerate(ref) if i == 0 or t != ref[i - 1]]
    assert [t for times in fast.calls for t in times] == distinct


def test_oracle_calls_features_once_on_its_quadrature_nodes():
    stream = _stream_with_mutations()
    cfg = HippoConfig(order=3, alpha=0.5, quadrature_points=101)
    path = _RecordingPath(lambda t: np.cos(t[:, None] + np.arange(stream.num_nodes)))
    projection_oracle(stream, path, cfg, 1.7)
    assert path.calls == [np.linspace(0.0, 1.7, 101).tolist()]


_MISSHAPED = {"[K]": lambda x: x[:, 0], "[V]": lambda x: x[0],
              "[K x (V+1)]": lambda x: np.hstack([x, x[:, :1]])}


@pytest.mark.parametrize("caller", [integrate_hippo, projection_oracle])
@pytest.mark.parametrize("shape", list(_MISSHAPED))
def test_feature_grid_rejects_a_misshaped_path(caller, shape):
    stream = _stream_with_mutations()
    cfg = HippoConfig(order=3, alpha=0.5, ode_steps_per_unit=20, quadrature_points=51)
    path = _RecordingPath(lambda t: _MISSHAPED[shape](np.cos(t[:, None] + np.arange(4))))
    with pytest.raises(ValueError, match=r"returned shape .*, expected \(\d+, 4\)") as info:
        caller(stream, path, cfg, 2.0)
    (times,) = path.calls
    assert f"feature_path on {len(times)} times from {times[0]!r}" in str(info.value)


@pytest.mark.parametrize("caller", [integrate_hippo, projection_oracle])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_feature_grid_names_the_first_time_with_a_non_finite_row(monkeypatch, caller, bad):
    monkeypatch.setattr(hippo, "_BLOCK_STEPS", 7)
    stream = _stream_with_mutations()
    cfg = HippoConfig(order=3, alpha=0.5, ode_steps_per_unit=20, quadrature_points=51)

    def values(t):
        x = np.cos(t[:, None] + np.arange(4))
        x[t > 0.9, 2] = bad
        return x

    path = _RecordingPath(values)
    with pytest.raises(ValueError, match="non-finite") as info:
        caller(stream, path, cfg, 2.0)
    assert all(t <= 0.9 for times in path.calls[:-1] for t in times)
    first_bad = next(t for t in path.calls[-1] if t > 0.9)
    assert f"feature_path({first_bad!r})" in str(info.value)


def test_integrator_copies_each_feature_evaluation(monkeypatch):
    # A path may hand back the same buffer on every call, rewritten in place.
    monkeypatch.setattr(hippo, "_BLOCK_STEPS", 7)
    stream = _stream_with_mutations()
    cfg = HippoConfig(order=3, alpha=0.5, ode_steps_per_unit=30)
    buf = np.empty((2 * 7 + 1, stream.num_nodes))

    def path(t):
        out = buf[:t.size]
        out[:] = np.sin(t[:, None] + np.arange(stream.num_nodes))
        return out

    got = integrate_hippo(stream, path, cfg, 2.0)
    ref = _stagewise_rk4(stream, path, cfg, 2.0)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_integrator_gives_the_same_bytes_with_the_memo_cleared_and_warm():
    stream = _stream_with_mutations()
    cfg = HippoConfig(order=4, alpha=0.5, ode_steps_per_unit=60)
    path = lambda t: np.cos(t[:, None] + np.arange(stream.num_nodes))
    hippo._legs_operators.cache_clear()
    cold = integrate_hippo(stream, path, cfg, 2.0)
    assert hippo._legs_operators.cache_info().misses == 3  # one per segment
    warm = integrate_hippo(stream, path, cfg, 2.0)
    assert hippo._legs_operators.cache_info()[:2] == (3, 3)  # (hits, misses)
    assert warm.tobytes() == cold.tobytes()
    # The memo holds what the unmemoized build gives for the same pair.
    legs = integrate_hippo(stream, path, cfg, 2.0, system=hippo_legs_matrices(4))
    assert legs.tobytes() == cold.tobytes()


def test_a_system_override_builds_its_own_operators_for_a_memoized_step():
    stream = _quiet_stream(2, horizon=1.0)
    cfg = HippoConfig(order=3, alpha=0.0, ode_steps_per_unit=40)
    path = _constant_path([1.0, -2.0])
    legs = integrate_hippo(stream, path, cfg, 1.0)       # memoizes this (order, h, kmax)
    system = (-np.diag([1.0, 2.0, 3.0]), np.ones(3))
    got = integrate_hippo(stream, path, cfg, 1.0, system=system)
    ref = _stagewise_rk4(stream, path, cfg, 1.0, system=system)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(got - legs).max() > 0.1
    assert integrate_hippo(stream, path, cfg, 1.0).tobytes() == legs.tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_reduction_suite_reruns_each_node_alone_on_every_piece_from_the_memo(
        monkeypatch, seed):
    calls = []                                  # (stream, memo misses before, after)

    def counting(stream, *args, **kwargs):
        before = hippo._legs_operators.cache_info().misses
        out = integrate_hippo(stream, *args, **kwargs)
        calls.append((stream, before, hippo._legs_operators.cache_info().misses))
        return out
    monkeypatch.setattr(verify, "integrate_hippo", counting)
    verify.suite_reduction(seed, 6, 50)
    joint = [k for k, (stream, _, _) in enumerate(calls) if stream.num_nodes > 1]
    assert len(joint) == 6
    for start, stop in zip(joint, joint[1:] + [len(calls)]):
        stream = calls[start][0]
        pieces = len(list(segments(stream, TIME_ORIGIN, 4.0)))
        assert stop - start == 1 + stream.num_nodes * pieces
        for solo, before, after in calls[start + 1:stop]:
            assert solo.num_nodes == 1 and after == before


def test_integrator_memory_does_not_grow_with_step_count():
    stream = _quiet_stream(4, horizon=2.0)
    x = np.array([1.0, -0.5, 0.25, 2.0])
    peaks = []
    for steps in (500, 4_000):
        cfg = HippoConfig(order=4, alpha=0.5, ode_steps_per_unit=steps)
        tracemalloc.start()
        try:
            integrate_hippo(stream, _constant_path(x), cfg, 2.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # 8000 steps of [4 x 4] forcing alone would be 1 MB.
    assert peaks[1] <= 1.5 * peaks[0] + 65536


@pytest.mark.parametrize("bad", ["u_nan", "u_inf", "a_nan", "a_inf", "b_nan", "b_inf"])
def test_integrator_rejects_nonfinite_state_or_system(bad):
    stream = _quiet_stream(2, horizon=1.0)
    cfg = HippoConfig(order=2, alpha=0.0)
    u0 = np.zeros((2, 2))
    a, b = hippo_legs_matrices(2)
    a, b = a.copy(), b.copy()
    value = np.nan if bad.endswith("nan") else np.inf
    {"u": u0, "a": a, "b": b}[bad[0]].flat[1] = value
    with pytest.raises(ValueError, match="finite"):
        integrate_hippo(stream, _constant_path(np.zeros(2)), cfg, t_end=1.0,
                        u_start=u0, t_start=0.1, system=(a, b))


def test_config_validation():
    with pytest.raises(ValueError):
        HippoConfig(order=0, alpha=0.0)
    with pytest.raises(ValueError):
        HippoConfig(order=2, alpha=-1.0)
    with pytest.raises(ValueError):
        HippoConfig(order=2, alpha=0.0, ode_steps_per_unit=0)


@pytest.mark.parametrize("field,value", [
    ("order", 2.5),
    ("order", True),
    ("ode_steps_per_unit", 2.5),
    ("ode_steps_per_unit", True),
    ("ode_steps_per_unit", math.nan),
    ("quadrature_points", math.nan),
    ("quadrature_points", 11.0),
])
def test_config_rejects_non_integer_sizes(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        HippoConfig(**{"order": 2, "alpha": 0.0, field: value})


def test_config_accepts_numpy_integers():
    cfg = HippoConfig(order=np.int64(3), alpha=0.0, ode_steps_per_unit=np.int32(7))
    assert (cfg.order, cfg.ode_steps_per_unit) == (3, 7)


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
    y = projection_oracle(stream, _constant_path(x), cfg, 1.0)[:, 0]
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


@pytest.mark.parametrize("kind", list(LaplacianKind))
@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
def test_smoothing_matrix_equals_scipys_lu_solve_bit_for_bit(kind, alpha):
    rng = np.random.default_rng(23)
    for v in range(1, 41):
        adj = np.triu(rng.random((v, v)) < 0.3, 1)
        adj = adj | adj.T
        ref = lu_solve(lu_factor(np.eye(v) + alpha * laplacian(adj, kind)), np.eye(v))
        assert smoothing_matrix(adj, alpha, kind).tobytes() == ref.tobytes()


@pytest.mark.parametrize("alpha", [-1.0, -0.5, np.nan, np.inf, -np.inf])
def test_smoothing_matrix_rejects_an_alpha_that_is_not_finite_and_nonnegative(alpha):
    # A path graph: alpha = -1 or -0.5 makes I + alpha*L singular or nearly so.
    adj = adjacency_from_edges({(0, 1), (1, 2)}, 3)
    for kind in LaplacianKind:
        with pytest.raises(ValueError, match="^alpha must be finite and >= 0"):
            smoothing_matrix(adj, alpha, kind)


@pytest.mark.parametrize("shape", [(2, 3), (0, 3), (3,), (2, 2, 2)])
def test_laplacian_and_its_users_reject_an_adjacency_that_is_not_square(shape):
    adj = np.zeros(shape, dtype=bool)
    for kind in LaplacianKind:
        for call in (lambda: laplacian(adj, kind), lambda: smoothing_matrix(adj, 0.5, kind),
                     lambda: consensus_profile(adj, kind)):
            with pytest.raises(ValueError, match=re.escape(f"adjacency must be square, "
                                                           f"got shape {shape}")):
                call()


def test_smoothing_matrix_raises_on_a_non_finite_matrix_or_a_lapack_failure(monkeypatch):
    adj = adjacency_from_edges({(0, 1), (1, 2)}, 3).astype(float)
    adj[0, 1] = np.nan
    with pytest.raises(ValueError, match=r"^I \+ alpha\*L must be finite"):
        smoothing_matrix(adj, 0.5, LaplacianKind.SYMMETRIC)
    getrf = scipy.linalg.lapack.dgetrf
    monkeypatch.setattr(scipy.linalg.lapack, "dgetrf", lambda a, **kw: (*getrf(a, **kw)[:2], 2))
    with pytest.raises(ValueError, match="getrf/getrs info 2/0"):
        smoothing_matrix(np.zeros((2, 2), dtype=bool), 0.5, LaplacianKind.SYMMETRIC)
