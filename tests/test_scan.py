from __future__ import annotations

import numpy as np
import pytest

from gssm import RecurrenceInputs, bench_recurrence, combine, scan_parallel, scan_sequential
from gssm import scan


def _random_inputs(rng, length, lane_shape=()):
    decay = rng.uniform(0.2, 1.0, size=(length, *lane_shape))
    drive = rng.standard_normal((length, *lane_shape))
    u0 = rng.standard_normal(lane_shape)
    return RecurrenceInputs(decay=decay, drive=drive, u0=u0)


def test_identity_dynamics_keep_initial_state():
    u0 = np.array([1.5, -2.0])
    inp = RecurrenceInputs(decay=np.ones((5, 2)), drive=np.zeros((5, 2)), u0=u0)
    for states in (scan_sequential(inp), scan_parallel(inp)):
        assert np.array_equal(states, np.tile(u0, (5, 1)))


def test_non_finite_inputs_pass_through_to_the_states():
    # The scan does not check finiteness (the layers check their inputs): a NaN
    # decay or drive at step l reaches every later state, and nothing raises.
    decay = np.full((4, 2), 0.5)
    drive = np.ones((4, 2))
    decay[1, 0] = np.nan
    drive[2, 1] = np.inf
    inp = RecurrenceInputs(decay=decay, drive=drive, u0=np.zeros(2))
    for states in (scan_sequential(inp), scan_parallel(inp)):
        assert np.isfinite(states[0]).all()
        assert np.isnan(states[1:, 0]).all()
        assert np.isfinite(states[1, 1]) and np.isposinf(states[2:, 1]).all()


def test_memoryless_dynamics_echo_the_drive():
    rng = np.random.default_rng(2)
    drive = rng.standard_normal((6, 3))
    inp = RecurrenceInputs(decay=np.zeros((6, 3)), drive=drive, u0=np.zeros(3))
    assert np.array_equal(scan_sequential(inp), drive)
    assert scan_parallel(inp) == pytest.approx(drive, abs=1e-10)


def test_sequential_matches_closed_form_at_length_nine():
    rng = np.random.default_rng(9)
    inp = _random_inputs(rng, 9, (4,))
    states = scan_sequential(inp)
    for l in range(9):
        expected = np.prod(inp.decay[: l + 1], axis=0) * inp.u0
        for k in range(l + 1):
            expected = expected + np.prod(inp.decay[k + 1 : l + 1], axis=0) * inp.drive[k]
        assert states[l] == pytest.approx(expected, abs=1e-12)


def test_combine_rule_is_associative():
    rng = np.random.default_rng(12)
    for _ in range(50):
        x, y, z = (
            (rng.standard_normal(3), rng.standard_normal(3)) for _ in range(3)
        )
        left = combine(combine(x, y), z)
        right = combine(x, combine(y, z))
        assert left[0] == pytest.approx(right[0], abs=1e-12)
        assert left[1] == pytest.approx(right[1], abs=1e-12)


def test_parallel_single_step_equals_sequential():
    rng = np.random.default_rng(21)
    inp = _random_inputs(rng, 1, (3,))
    assert scan_parallel(inp) == pytest.approx(scan_sequential(inp), abs=0.0)


# Lengths whose ceil(sqrt(L))-step chunks end in a full chunk (1, 2) or a
# ragged one (the rest: e.g. L=128 is ten chunks of 12 and one of 8).
_LENGTHS = (1, 2, 3, 7, 10, 11, 50, 128, 129)


@pytest.mark.parametrize("length", _LENGTHS)
def test_parallel_matches_sequential_across_chunk_sizes(length):
    rng = np.random.default_rng(31 + length)
    inp = _random_inputs(rng, length, (5,))
    assert np.abs(scan_parallel(inp) - scan_sequential(inp)).max() <= 1e-10


def test_parallel_matches_sequential_on_stacked_lane_axes():
    rng = np.random.default_rng(37)
    inp = _random_inputs(rng, 40, (3, 2, 4))
    delta = np.abs(scan_parallel(inp) - scan_sequential(inp)).max()
    assert delta <= 1e-10


def test_parallel_default_chunk_is_deterministic():
    rng = np.random.default_rng(41)
    inp = _random_inputs(rng, 100, (6,))
    assert np.array_equal(scan_parallel(inp), scan_parallel(inp))
    assert np.array_equal(scan_sequential(inp), scan_sequential(inp))


def test_inputs_reject_shape_mismatches():
    with pytest.raises(ValueError):
        RecurrenceInputs(decay=np.ones((4, 2)), drive=np.ones((4, 3)), u0=np.zeros(2))
    with pytest.raises(ValueError):
        RecurrenceInputs(decay=np.ones((4, 2)), drive=np.ones((4, 2)), u0=np.zeros(3))


def test_bench_emits_one_row_per_length_and_backend():
    rows = bench_recurrence([16, 32], lanes=4, repeats=1)
    assert len(rows) == 4
    assert [r["L"] for r in rows] == [16, 16, 32, 32]
    for row in rows:
        assert set(row) == {"L", "lanes", "backend", "ns_per_element"}
        assert row["lanes"] == 4
        assert row["backend"] in ("sequential", "parallel")
        assert row["ns_per_element"] > 0.0


@pytest.mark.parametrize("length", [16.7, 16.0, np.nan, True, 0])
def test_bench_rejects_a_length_that_is_not_a_positive_integer(length):
    with pytest.raises(ValueError, match="L must be an integer of at least 1"):
        bench_recurrence([8, length], lanes=2, repeats=1)


@pytest.mark.parametrize("seed", [True, 1.5, -1, float("nan")])
def test_bench_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(ValueError, match="seed must be an integer of at least 0"):
        bench_recurrence([8], lanes=2, repeats=1, seed=seed)


@pytest.mark.parametrize("l_values, backends, name", [
    ([], ("sequential",), "l_values"), ([8], (), "backends"),
    ([8], ("fancy",), "backends"), ([8, 16], ("sequential", "fancy"), "backends")])
def test_bench_rejects_an_empty_list_or_an_unknown_backend_before_timing(
        monkeypatch, l_values, backends, name):
    monkeypatch.setattr(scan, "run_scan", lambda *args: pytest.fail("a backend was timed"))
    with pytest.raises(ValueError, match=f"^{name}"):
        bench_recurrence(l_values, lanes=2, backends=backends, repeats=1)


@pytest.mark.parametrize("lane_shape", [(4,), (2, 3)])
@pytest.mark.parametrize("length", _LENGTHS)
def test_parallel_leaves_inputs_untouched_and_matches_with_a_ragged_last_chunk(
        length, lane_shape):
    rng = np.random.default_rng(length)
    inp = _random_inputs(rng, length, lane_shape)
    decay, drive, u0 = inp.decay.copy(), inp.drive.copy(), inp.u0.copy()
    states = scan_parallel(inp)
    reference = scan_sequential(inp)
    assert np.array_equal(inp.decay, decay)
    assert np.array_equal(inp.drive, drive)
    assert np.array_equal(inp.u0, u0)
    assert states.shape == reference.shape == drive.shape
    assert np.max(np.abs(states - reference)) <= 1e-10


@pytest.mark.parametrize("lane_shape", [(), (4,), (2, 3)])
@pytest.mark.parametrize("backend", ["sequential", "parallel"])
def test_run_scan_writes_the_states_over_the_drive(backend, lane_shape):
    rng = np.random.default_rng(17)
    inp = _random_inputs(rng, 9, lane_shape)
    want = {"sequential": scan_sequential, "parallel": scan_parallel}[backend](inp)
    decay, drive = inp.decay.copy(), inp.drive.copy()
    scan.run_scan(decay, drive, inp.u0, backend)
    assert drive.tobytes() == want.tobytes()
