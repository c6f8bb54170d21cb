from __future__ import annotations

import math

import numpy as np
import pytest

from gssm import (
    Action,
    EventStream,
    HippoConfig,
    LaplacianKind,
    MixMechanism,
    MutationSchedule,
    integrate_hippo,
    laplacian,
    mixed_estimate,
    segment_weights,
    zoh_oracle_step,
)
from gssm.discretize import _segment_weights_stack
from gssm.harness import named_rng
from gssm.verify import suite_weights


def _blank_schedule(t_start, t_end, mutation_times, num_nodes=2):
    count = len(mutation_times) + 1
    adj = np.zeros((num_nodes, num_nodes), dtype=bool)
    return MutationSchedule(
        t_start=t_start,
        t_end=t_end,
        mutation_times=tuple(mutation_times),
        adjacencies=(adj,) * count,
        features=(np.zeros(num_nodes),) * count,
    )


def _random_schedule(rng, num_nodes=6, num_mutations=3, t_start=0.3, t_end=3.3):
    pairs = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]
    initial = frozenset(p for p in pairs if rng.random() < 0.4)
    times = np.sort(rng.uniform(t_start + 0.05, t_end - 0.05, size=num_mutations))
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
    stream = EventStream(
        num_nodes=num_nodes, horizon=t_end + 1.0, initial_edges=initial, events=tuple(events)
    )
    values = rng.uniform(-1.0, 1.0, size=(num_mutations + 1, num_nodes))
    sched = MutationSchedule.from_stream(stream, t_start, t_end, tuple(values))
    return stream, sched, values


# ---------------------------------------------------------------------------
# segment weights


def test_weights_without_mutations_are_all_ones():
    w = segment_weights((0.0, 1.5), np.array([-1.0, -0.1, -40.0]))
    assert w.shape == (1, 3)
    assert np.all(w == 1.0)


def test_weights_midpoint_mutation_closed_form():
    # a = -1 on an interval of length 2 with one mutation at the midpoint:
    # last weight (e^{-1}-1)/(e^{-2}-1), first weight is its complement.
    w = segment_weights((0.0, 1.0, 2.0), np.array([-1.0]))
    assert w[1, 0] == pytest.approx(0.7310585786300049, abs=1e-15)
    assert w[0, 0] == pytest.approx(0.2689414213699951, abs=1e-15)


def _segment_weights_loop(bounds, a):
    """Reference: the closed form one segment at a time, then the residual fold."""
    bounds = np.asarray(bounds)
    den = np.expm1((bounds[-1] - bounds[0]) * a)
    weights = np.empty((bounds.size - 1, a.size))
    for i in range(bounds.size - 1):
        weights[i] = (np.exp((bounds[-1] - bounds[i + 1]) * a)
                      * np.expm1((bounds[i + 1] - bounds[i]) * a) / den)
    residual = 1.0 - weights.sum(axis=0)
    top = np.argmax(weights, axis=0)
    weights[top, np.arange(a.size)] += residual
    return weights


def test_weights_are_convex_on_random_schedules():
    rng = np.random.default_rng(41)
    for _ in range(300):
        length = float(np.exp(rng.uniform(np.log(1e-3), np.log(50.0))))
        t_start = rng.uniform(0.0, 2.0)
        cuts = np.sort(rng.uniform(0.01, 0.99, size=rng.integers(0, 5)))
        bounds = (t_start, *(t_start + float(f) * length for f in np.unique(cuts)),
                  t_start + length)
        a = -np.exp(rng.uniform(-7.0, 3.5, size=rng.integers(1, 7)))
        w = segment_weights(bounds, a)
        assert np.array_equal(w, _segment_weights_loop(bounds, a))
        assert w.min() >= 0.0
        assert w.max() <= 1.0
        assert np.abs(w.sum(axis=0) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("bounds", [
    (0.0, math.nan, 1.0), (0.0, math.inf), (-math.inf, 1.0), (0.0, 0.5, 0.5, 1.0),
    (0.0, 0.7, 0.3, 1.0), (1.0, 0.0), (0.0,), (), [[0.0, 1.0]],
], ids=["nan", "inf", "neg_inf", "repeated", "decreasing", "reversed", "one", "none",
        "two_dimensional"])
def test_weights_reject_bad_boundaries(bounds):
    with pytest.raises(ValueError, match="boundary times"):
        segment_weights(bounds, np.array([-1.0]))


@pytest.mark.parametrize("a", [[-1.0, 0.0], [-math.inf, -1.0], [math.nan, -1.0]],
                         ids=["zero", "neg_inf", "nan"])
def test_weights_reject_nonnegative_or_non_finite_diagonal(a):
    with pytest.raises(ValueError, match="diagonal"):
        segment_weights((0.0, 1.0), np.array(a))


def _random_stack(rng, count, segs, size):
    """`count` schedules of `segs` segments and `size` diagonal entries, with
    lengths from 1e-3 to 50 and rates from e^-7 to e^3.5."""
    t_start = rng.uniform(-5.0, 5.0, size=(count, 1))
    length = np.exp(rng.uniform(np.log(1e-3), np.log(50.0), size=(count, 1)))
    cuts = np.sort(rng.uniform(0.01, 0.99, size=(count, segs - 1)), axis=1)
    bounds = np.hstack([t_start, t_start + length * cuts, t_start + length])
    return bounds, -np.exp(rng.uniform(-7.0, 3.5, size=(count, size)))


@pytest.mark.parametrize("count,segs,size", [(1, 1, 1), (5, 1, 4), (40, 3, 1), (17, 7, 8),
                                             (9, 12, 3), (3, 30, 11)])
def test_weight_stack_equals_the_loop_row_by_row(count, segs, size):
    rng = np.random.default_rng(1000 * count + 10 * segs + size)
    bounds, a = _random_stack(rng, count, segs, size)
    w = _segment_weights_stack(bounds, a)
    assert w.shape == (count, segs, size)
    for row, (b, d) in enumerate(zip(bounds, a)):
        assert np.array_equal(w[row], _segment_weights_loop(b, d))
        assert np.array_equal(w[row], segment_weights(b, d))


# One bad entry: (array, column, new value given the row of that array).
_BAD_ROWS = {"nan": ("bounds", 2, lambda r: math.nan), "inf": ("bounds", 0, lambda r: math.inf),
             "repeated": ("bounds", 2, lambda r: r[1]), "decreasing": ("bounds", 3, lambda r: r[1]),
             "zero_rate": ("a", 1, lambda r: 0.0), "positive_rate": ("a", 0, lambda r: 0.5),
             "nan_rate": ("a", 2, lambda r: math.nan)}


@pytest.mark.parametrize("row", [0, 6, 11])
@pytest.mark.parametrize("bad", list(_BAD_ROWS))
def test_weight_stack_rejects_one_bad_row_like_the_single_schedule(bad, row):
    bounds, a = _random_stack(np.random.default_rng(7), 12, 4, 3)
    which, col, value = _BAD_ROWS[bad]
    target = a if which == "a" else bounds
    target[row, col] = value(target[row])
    with pytest.raises(ValueError) as single:
        segment_weights(bounds[row], a[row])
    with pytest.raises(ValueError) as stacked:
        _segment_weights_stack(bounds, a)
    assert str(stacked.value) == str(single.value)


def _suite_weights_loop(seed, schedules):
    """Reference: the weights suite one schedule at a time, as it was drawn."""
    rng = named_rng(seed, "verify-weights")
    worst_sum = 0.0
    worst_range = 0.0
    for _ in range(schedules):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(0, 7))
        t0 = float(rng.uniform(-5.0, 5.0))
        length = float(rng.uniform(1e-3, 50.0))
        fracs = np.sort(rng.uniform(0.02, 0.98, size=m))
        while len(set(fracs.tolist())) != m:
            fracs = np.sort(rng.uniform(0.02, 0.98, size=m))
        bounds = (t0, *(t0 + length * fracs), t0 + length)
        a = -np.exp(rng.uniform(-7.0, 3.5, size=n))
        w = segment_weights(bounds, a)
        worst_sum = max(worst_sum, float(np.abs(w.sum(axis=0) - 1.0).max()))
        worst_range = max(worst_range, float(max(-w.min(), w.max() - 1.0)))
    return max(worst_sum, worst_range)


@pytest.mark.parametrize("seed", range(5))
def test_weights_suite_equals_the_per_schedule_loop(seed):
    assert suite_weights(seed, 1000) == _suite_weights_loop(seed, 1000)


# ---------------------------------------------------------------------------
# schedule validation


def test_schedule_rejects_exterior_mutation_times():
    adj = np.zeros((2, 2), dtype=bool)
    with pytest.raises(ValueError):
        MutationSchedule(0.0, 1.0, (1.0,), (adj, adj), (np.zeros(2), np.zeros(2)))


def test_schedule_rejects_wrong_segment_count():
    adj = np.zeros((2, 2), dtype=bool)
    with pytest.raises(ValueError):
        MutationSchedule(0.0, 1.0, (0.5,), (adj,), (np.zeros(2),))


def test_schedule_rejects_empty_interval():
    adj = np.zeros((2, 2), dtype=bool)
    with pytest.raises(ValueError):
        MutationSchedule(1.0, 1.0, (), (adj,), (np.zeros(2),))


# ---------------------------------------------------------------------------
# oracle step


def test_oracle_step_tiny_interval_is_identity():
    u_prev = np.array([[0.7, -0.2], [0.1, 0.4]])
    sched = _blank_schedule(1.0, 1.0 + 1e-9, ())
    u_next = zoh_oracle_step(
        u_prev, sched, np.array([-1.0, -2.0]), np.ones(2), 0.0, LaplacianKind.SYMMETRIC
    )
    assert np.abs(u_next - u_prev).max() <= 1e-6


def test_oracle_step_single_segment_matches_scalar_closed_form():
    rng = np.random.default_rng(3)
    a = np.array([-0.7, -1.9, -0.05])
    b = np.array([1.0, 0.5, 2.0])
    x = rng.normal(size=4)
    u_prev = rng.normal(size=(4, 3))
    length = 1.3
    adj = np.zeros((4, 4), dtype=bool)
    sched = MutationSchedule(0.2, 0.2 + length, (), (adj,), (x,))
    u_next = zoh_oracle_step(u_prev, sched, a, b, 0.0, LaplacianKind.SYMMETRIC)
    expected = u_prev * np.exp(length * a) + np.outer(x, b) * (np.expm1(length * a) / a)
    assert u_next == pytest.approx(expected, abs=1e-14)


def test_oracle_step_matches_ode_integration_with_mutations():
    rng = np.random.default_rng(59)
    order = 4
    for alpha in (0.0, 1.0):
        stream, sched, values = _random_schedule(rng)
        a = -np.exp(rng.uniform(-1.5, 1.0, size=order))
        b = rng.uniform(0.5, 1.5, size=order)
        u0 = rng.normal(size=(stream.num_nodes, order))
        stepped = zoh_oracle_step(u0, sched, a, b, alpha, LaplacianKind.SYMMETRIC)

        times = np.asarray(sched.mutation_times)

        def path(t):
            return values[np.searchsorted(times, t, side="right")]

        cfg = HippoConfig(order=order, alpha=alpha, ode_steps_per_unit=200)
        ode = integrate_hippo(
            stream,
            path,
            cfg,
            t_end=sched.t_end,
            u_start=u0,
            t_start=sched.t_start,
            system=(np.diag(a), b),
        )
        rel = np.linalg.norm(stepped - ode) / np.linalg.norm(ode)
        assert rel <= 1e-4


def test_oracle_step_semigroup_over_adjoining_intervals():
    rng = np.random.default_rng(61)
    stream, sched, values = _random_schedule(rng, num_mutations=4)
    a = -np.exp(rng.uniform(-1.0, 1.0, size=3))
    b = rng.uniform(0.5, 1.5, size=3)
    u0 = rng.normal(size=(stream.num_nodes, 3))
    alpha = 0.8

    whole = zoh_oracle_step(u0, sched, a, b, alpha, LaplacianKind.SYMMETRIC)

    times = np.asarray(sched.mutation_times)
    mid = 0.5 * (times[1] + times[2])  # interior split distinct from any mutation

    def seg_values(t):
        return values[int(np.searchsorted(times, t, side="right"))]

    first = MutationSchedule.from_stream(
        stream, sched.t_start, mid,
        tuple(seg_values(s) for s in (sched.t_start, *(t for t in times if t < mid))),
    )
    second = MutationSchedule.from_stream(
        stream, mid, sched.t_end,
        tuple(seg_values(s) for s in (mid, *(t for t in times if t > mid))),
    )
    half = zoh_oracle_step(u0, first, a, b, alpha, LaplacianKind.SYMMETRIC)
    split = zoh_oracle_step(half, second, a, b, alpha, LaplacianKind.SYMMETRIC)
    rel = np.linalg.norm(split - whole) / np.linalg.norm(whole)
    assert rel <= 1e-10


_ADJ = np.zeros((2, 2), dtype=bool)
_STREAM = EventStream(num_nodes=2, horizon=2.0, initial_edges=frozenset(),
                      events=((0, 1, 1.0, Action.INSERT),))


@pytest.mark.parametrize("build", [
    lambda: MutationSchedule(0.0, math.inf, (), (_ADJ,), (np.zeros(2),)),
    lambda: MutationSchedule(-math.inf, 1.0, (), (_ADJ,), (np.zeros(2),)),
    lambda: MutationSchedule(math.nan, 1.0, (), (_ADJ,), (np.zeros(2),)),
    lambda: MutationSchedule(0.0, 1.0, (), (_ADJ,), (np.array([0.0, math.nan]),)),
    lambda: MutationSchedule(0.0, 1.0, (0.5,), (_ADJ, _ADJ),
                             (np.zeros(2), np.array([math.inf, 0.0]))),
    lambda: MutationSchedule.from_stream(_STREAM, 0.2, math.inf, (np.zeros(2),) * 2),
    lambda: MutationSchedule.from_stream(_STREAM, 0.2, 2.5, (np.zeros(2),) * 2),
    lambda: MutationSchedule.from_stream(_STREAM, -0.5, 0.5, (np.zeros(2),)),
], ids=["t_end_inf", "t_start_neg_inf", "t_start_nan", "nan_feature", "inf_feature",
        "from_stream_t_end_inf", "from_stream_past_horizon", "from_stream_before_zero"])
def test_schedule_rejects_non_finite_or_out_of_range_input(build):
    with pytest.raises(ValueError):
        build()


def test_oracle_step_rejects_wrong_state_shape():
    sched = _blank_schedule(0.0, 1.0, ())
    with pytest.raises(ValueError):
        zoh_oracle_step(np.zeros((3, 2)), sched, np.array([-1.0, -1.0]), np.ones(2), 0.0,
                        LaplacianKind.SYMMETRIC)


@pytest.mark.parametrize("alpha", [-0.5, np.nan, np.inf])
def test_oracle_step_rejects_negative_or_non_finite_alpha(alpha):
    sched = _blank_schedule(0.0, 1.0, ())
    with pytest.raises(ValueError):
        zoh_oracle_step(np.zeros((2, 1)), sched, np.array([-1.0]), np.ones(1), alpha,
                        LaplacianKind.SYMMETRIC)


@pytest.mark.parametrize("a", [[-math.inf, -1.0], [math.nan, -1.0], [-1.0, 0.0]],
                         ids=["neg_inf", "nan", "zero"])
def test_oracle_step_rejects_nonnegative_or_non_finite_diagonal(a):
    sched = _blank_schedule(0.0, 1.0, ())
    with pytest.raises(ValueError, match="diagonal"):
        zoh_oracle_step(np.zeros((2, 2)), sched, np.array(a), np.ones(2), 0.0,
                        LaplacianKind.SYMMETRIC)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["u_prev", "b"])
def test_oracle_step_rejects_non_finite_state_or_input_vector(where, bad):
    sched = _blank_schedule(0.0, 1.0, ())
    args = {"u_prev": np.zeros((2, 2)), "b": np.ones(2)}
    args[where].flat[1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        zoh_oracle_step(args["u_prev"], sched, np.array([-1.0, -2.0]), args["b"], 0.0,
                        LaplacianKind.SYMMETRIC)


# ---------------------------------------------------------------------------
# mixed drive estimates


def _double_gnn(x, snap):
    return 2.0 * x


def test_mixed_estimate_feature_mix_with_pass_through_mix_is_ordinary():
    rng = np.random.default_rng(19)
    x_prev, x_cur = rng.normal(size=(2, 5, 3))
    take_current = lambda z_prev, z_cur: z_cur
    mixed = mixed_estimate([x_prev, x_cur], ["g0", "g1"], MixMechanism.FEATURE_MIX,
                           _double_gnn, take_current)
    plain = mixed_estimate([x_prev, x_cur], ["g0", "g1"], MixMechanism.ORDINARY,
                           _double_gnn, take_current)
    assert np.array_equal(mixed[-1], plain[-1])


def test_mixed_estimate_symmetric_mix_on_equal_inputs_is_ordinary():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(4, 2))
    average = lambda z_prev, z_cur: 0.5 * (z_prev + z_cur)
    mixed = mixed_estimate([x, x], ["g", "g"], MixMechanism.REPR_MIX, _double_gnn, average)
    assert mixed[-1] == pytest.approx(_double_gnn(x, "g"))


def test_mixed_estimate_repr_mix_composes_gnn_then_mix():
    rng = np.random.default_rng(29)
    x_prev, x_cur = rng.normal(size=(2, 6, 4))
    gnn = lambda x, snap: x + (1.0 if snap == "cur" else -1.0)
    mix = lambda z_prev, z_cur: z_prev * z_cur
    got = mixed_estimate([x_prev, x_cur], ["prev", "cur"], MixMechanism.REPR_MIX, gnn, mix)
    assert np.array_equal(got[-1], (x_prev - 1.0) * (x_cur + 1.0))


def test_mixed_estimate_without_predecessor_degrades_to_ordinary():
    rng = np.random.default_rng(31)
    x_cur = rng.normal(size=(3, 2))
    boom = lambda z_prev, z_cur: 1 / 0
    for mechanism in MixMechanism:
        got = mixed_estimate([x_cur], ["g"], mechanism, _double_gnn, boom)
        assert np.array_equal(got[0], 2.0 * x_cur)


def test_mixed_estimate_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        mixed_estimate([np.zeros((2, 2)), np.zeros((3, 2))], ["g0", "g1"],
                       MixMechanism.FEATURE_MIX, _double_gnn, lambda a, b: b)


@pytest.mark.parametrize("xs, snaps", [([], []), ([np.zeros((2, 2))], ["g0", "g1"])])
def test_mixed_estimate_needs_one_observation_per_snapshot(xs, snaps):
    with pytest.raises(ValueError):
        mixed_estimate(xs, snaps, MixMechanism.ORDINARY, _double_gnn, lambda a, b: b)


@pytest.mark.parametrize("mechanism", list(MixMechanism))
def test_mixed_estimate_diffuses_each_snapshot_once(mechanism):
    rng = np.random.default_rng(37)
    xs = rng.normal(size=(6, 4, 2))
    snaps = [f"g{l}" for l in range(len(xs))]
    calls = []

    def counting_gnn(x, snap):
        calls.append(snap)
        return 2.0 * x

    average = lambda z_prev, z_cur: 0.5 * (z_prev + z_cur)
    got = mixed_estimate(xs, snaps, mechanism, counting_gnn, average)
    assert calls == snaps
    assert len(got) == len(xs) and np.array_equal(got[0], 2.0 * xs[0])
    # Doubling commutes exactly with averaging, so both mixes give x_{l-1} + x_l.
    want = 2.0 * xs[1:] if mechanism is MixMechanism.ORDINARY else xs[:-1] + xs[1:]
    assert np.array_equal(np.stack(got[1:]), want)


@pytest.mark.parametrize("kind", list(LaplacianKind))
def test_oracle_step_smoother_solve_has_tiny_residual_for_both_laplacians(kind):
    # Path graph: unequal degrees make I + alpha*L_rw non-symmetric.
    adj = np.zeros((4, 4), dtype=bool)
    for i in range(3):
        adj[i, i + 1] = adj[i + 1, i] = True
    x = np.array([1.0, -2.0, 0.5, 3.0])
    sched = MutationSchedule(t_start=0.0, t_end=0.5, mutation_times=(),
                             adjacencies=(adj,), features=(x,))
    a = np.array([-1.0])
    # One segment, zero start: U = y * expm1(d*a)/a with y = (I + alpha*L)^{-1} x.
    u = zoh_oracle_step(np.zeros((4, 1)), sched, a, np.ones(1), 2.0, kind)
    y = u[:, 0] * a[0] / np.expm1(0.5 * a[0])
    smoother = np.eye(4) + 2.0 * laplacian(adj, kind)
    assert np.linalg.norm(smoother @ y - x) <= 1e-12
