"""The input boundaries: the sequence file format, read and written by
`tgraph` alone, the label-range check every entry point shares, the check
of every setting that must be one real number (>= 0, in [0, 1] or finite)
and the rejection of bools where integers are due."""

from __future__ import annotations

import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gssm import (EventStream, GnnParams, HippoConfig, LaplacianKind, MutationSchedule,
                  Snapshot, SnapshotSequence, SyntheticTask, TaskConfig, f1_scores,
                  gen_synthetic, load_sequence, readout_loss, save_labels,
                  save_sequence, smoothing_matrix, train_readout, zoh_oracle_step)
from gssm.verify import suites


def _sequence():
    adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)
    return SnapshotSequence((
        Snapshot(adj, [[0.5, -1.25], [3.0, 4.0], [0.0, 2.5]], 0.5),
        Snapshot(np.zeros((3, 3), dtype=bool), [[1.0, 2.0], [-3.0, 0.25], [6.0, 7.0]], 1.5)))


# format -> (object, save(obj, path), load(path), equality, a trailing record)
_FORMATS = {
    "sequence": (_sequence(), save_sequence, load_sequence,
                 lambda a, b: a == b, "T 9.0\nE 0\ngarbage\n"),
}


def _saved(fmt, folder) -> pathlib.Path:
    obj, save, _, _, _ = _FORMATS[fmt]
    path = pathlib.Path(folder) / f"saved.{fmt}"
    save(obj, path)
    return path


@pytest.mark.parametrize("fmt", list(_FORMATS))
def test_save_load_save_is_byte_identical(tmp_path, fmt):
    obj, save, load, same, _ = _FORMATS[fmt]
    path = _saved(fmt, tmp_path)
    back = load(path)
    assert same(back, obj)
    again = tmp_path / "again"
    save(back, again)
    assert again.read_bytes() == path.read_bytes()


def _fault(data: bytes, fault: str, trailing: str) -> bytes:
    lines = data.decode("ascii").splitlines()
    if fault == "trailing_record":
        return data + trailing.encode("ascii")
    if fault == "non_ascii_byte":
        return data[:len(data) // 2] + b"\xff" + data[len(data) // 2:]
    if fault == "malformed_header":
        return b"GSSMX" + data[data.index(b" "):]
    if fault == "truncated":
        return "\n".join(lines[:len(lines) // 2]).encode("ascii") + b"\n"
    lines[-1] = " ".join(lines[-1].split()[:-1] + ["abc"])  # non_numeric_token
    return ("\n".join(lines) + "\n").encode("ascii")


@pytest.mark.parametrize("fault, message", [
    ("trailing_record", "records past the declared count"),
    ("non_ascii_byte", "non-ASCII byte 0xff at offset "),
    ("truncated", "unexpected end of file while reading "),
    ("non_numeric_token", "malformed "),
    ("malformed_header", "malformed header (expected '"),
])
@pytest.mark.parametrize("fmt", list(_FORMATS))
def test_a_faulty_file_raises_a_value_error_starting_with_its_path(tmp_path, fmt, fault,
                                                                   message):
    path = _saved(fmt, tmp_path)
    path.write_bytes(_fault(path.read_bytes(), fault, _FORMATS[fmt][4]))
    with pytest.raises(ValueError) as excinfo:
        _FORMATS[fmt][2](path)
    assert str(excinfo.value).startswith(f"{path}: ")
    assert message in str(excinfo.value)


def _mutate(data, text: str) -> str:
    """text truncated, with one token replaced by a non-number, nan or a
    negative, or with one line dropped or duplicated."""
    kind = data.draw(st.sampled_from(["truncate", "token", "drop", "duplicate"]))
    if kind == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    else:
        tokens = lines[i].split(" ")
        j = data.draw(st.integers(0, len(tokens) - 1))
        tokens[j] = data.draw(st.sampled_from(["abc", "nan", "-1", "-" + tokens[j]]))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", list(_FORMATS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_mutated_file_fails_naming_its_path_or_loads_to_a_fixed_point(fmt, data):
    _, save, load, same, _ = _FORMATS[fmt]
    with tempfile.TemporaryDirectory() as folder:
        path = _saved(fmt, folder)
        path.write_text(_mutate(data, path.read_text(encoding="ascii")), encoding="ascii")
        try:
            obj = load(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")
            return
        again = pathlib.Path(folder) / "again"
        save(obj, again)
        assert same(load(again), obj)


def _labelled():
    task = gen_synthetic(0, TaskConfig(num_nodes=12, seq_len=2, num_features=2,
                                       num_classes=3))
    labels = task.labels.copy()
    labels[5] = 7
    return task, labels


_LABEL_ENTRY_POINTS = {
    "task": lambda task, labels, path: SyntheticTask(task.sequence, labels, 3, task.split),
    "save_labels": lambda task, labels, path: save_labels(labels, 3, path),
    "readout_loss": lambda task, labels, path: readout_loss(
        np.zeros(3 * 3), np.ones((12, 2)), labels, 3),
    "train_readout": lambda task, labels, path: train_readout(
        np.ones((12, 2)), labels, task.split, epochs=1, num_classes=3),
}


@pytest.mark.parametrize("entry", list(_LABEL_ENTRY_POINTS))
def test_every_label_boundary_names_the_value_and_the_range(tmp_path, entry):
    task, labels = _labelled()
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\), got 7"):
        _LABEL_ENTRY_POINTS[entry](task, labels, tmp_path / "bad.labels")


@pytest.mark.parametrize("entry", [
    lambda empty: f1_scores(empty, empty),
    lambda empty: readout_loss(np.zeros(0), np.ones((0, 2)), empty, None),
], ids=["f1_scores", "readout_loss"])
def test_empty_labels_without_a_class_count_name_the_labels(entry):
    with pytest.raises(ValueError, match=r"^(preds|labels) are empty: the class count "
                                         r"cannot be inferred"):
        entry(np.array([], dtype=int))


_SCHEDULE = MutationSchedule(0.0, 1.0, (), (np.zeros((2, 2), dtype=bool),), (np.zeros(2),))

# boundary -> (call with the setting set to `bad`, the name its error starts with)
_NONNEGATIVE_SETTINGS = {
    "HippoConfig": (lambda bad: HippoConfig(order=2, alpha=bad), "alpha"),
    "TaskConfig.noise": (lambda bad: TaskConfig(noise=bad), "infeasible config: noise"),
    "TaskConfig.radius": (lambda bad: TaskConfig(radius=bad), "infeasible config: radius"),
    "smoothing_matrix": (lambda bad: smoothing_matrix(np.zeros((2, 2)), bad,
                                                      LaplacianKind.SYMMETRIC), "alpha"),
    "zoh_oracle_step": (lambda bad: zoh_oracle_step(np.zeros((2, 1)), _SCHEDULE, [-1.0],
                                                    [1.0], bad, LaplacianKind.SYMMETRIC),
                        "alpha"),
    "verify.suites": (lambda bad: suites(alpha=bad), "alpha"),
}


# Settings that must lie in [0, 1], in the same form.
_UNIT_INTERVAL_SETTINGS = {
    **{f"TaskConfig.{field}": (lambda bad, field=field: TaskConfig(**{field: bad}),
                               f"infeasible config: {field}")
       for field in ("p_in", "p_out", "p_decay", "drift_rate")},
    "GnnParams.self_mix": (lambda bad: GnnParams(np.eye(2), np.zeros(2), self_mix=bad),
                           "self_mix"),
}

# The same, with omega, which must be one finite real number.
_REAL_SETTINGS = {**_UNIT_INTERVAL_SETTINGS,
                  "TaskConfig.omega": (lambda bad: TaskConfig(omega=bad), "infeasible config: omega")}

_NOT_ONE_REAL_NUMBER = pytest.mark.parametrize(
    "bad", [True, False, np.bool_(True), "0.5", 0.5 + 0j, np.array([0.5, 1.0])],
    ids=["true", "false", "numpy_bool", "string", "complex", "array"])


@_NOT_ONE_REAL_NUMBER
@pytest.mark.parametrize("boundary", list(_NONNEGATIVE_SETTINGS))
def test_every_nonnegative_setting_rejects_a_value_that_is_not_one_real_number(boundary,
                                                                                bad):
    call, name = _NONNEGATIVE_SETTINGS[boundary]
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
        call(bad)


@_NOT_ONE_REAL_NUMBER
@pytest.mark.parametrize("boundary", list(_REAL_SETTINGS))
def test_every_unit_interval_setting_and_omega_reject_a_value_that_is_not_one_real_number(
        boundary, bad):
    call, name = _REAL_SETTINGS[boundary]
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
        call(bad)


@pytest.mark.parametrize("bad", [-0.25, 1.5, np.nan, np.inf])
@pytest.mark.parametrize("boundary", list(_UNIT_INTERVAL_SETTINGS))
def test_every_unit_interval_setting_rejects_a_number_outside_it(boundary, bad):
    call, name = _UNIT_INTERVAL_SETTINGS[boundary]
    with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 1\], got "):
        call(bad)


@pytest.mark.parametrize("call, name", [
    (lambda path: save_labels(np.array([True, False, True]), 2, path), "labels"),
    (lambda path: save_labels([0, True, 1], 2, path), "labels"),
    (lambda path: EventStream(3, 1.0, [(True, 2)], []), r"edge \(True, 2\) node ids"),
    (lambda path: EventStream(3, 1.0, [], [(0, np.bool_(True), 0.5, "insert")]),
     r"event \(0, True\) node ids"),
], ids=["bool-array", "bool-in-list", "bool-edge", "numpy-bool-event"])
def test_integer_values_reject_a_bool_by_name(tmp_path, call, name):
    with pytest.raises(ValueError, match=f"^{name} must be integers, got a bool"):
        call(tmp_path / "bad")


def test_integer_values_in_a_list_accept_integer_valued_floats(tmp_path):
    save_labels([0.0, 1.0, 1], 2, tmp_path / "floats.labels")
    assert (tmp_path / "floats.labels").read_text(encoding="ascii") == "GSSML v1 3 2\n0\n1\n1\n"
    assert EventStream(3, 1.0, [(0.0, 2)], []).initial_edges == {(0, 2)}
