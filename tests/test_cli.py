from __future__ import annotations

import argparse
import pathlib
import re

import numpy as np
import pytest

from gssm import (
    ModelConfig,
    Snapshot,
    SnapshotSequence,
    TaskConfig,
    gen_synthetic,
    load_labels,
    load_sequence,
    save_sequence,
)
from gssm import verify
from gssm.cli import _DEFAULTS, _build_parser, main, settings

_TINY_TASK = ["--v", "24", "--l", "4", "--d", "4", "--c", "3"]

_ACCEPTANCE_CFG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "acceptance.cfg"

_VERIFY_LINE = re.compile(r"^(PASS|FAIL) (\S+) max_err=\S+ tol=\S+ time=\S+s$")


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Parser-level behaviour
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("subcommand", ["gen", "verify", "metrics", "run", "bench"])
def test_help_exits_zero_and_documents_the_config_flag(capsys, subcommand):
    code, out, _ = _run(capsys, [subcommand, "--help"])
    assert code == 0
    assert "usage:" in out
    assert "--config" in out


def test_run_help_states_the_model_defaults(capsys):
    code, out, _ = _run(capsys, ["run", "--help"])
    assert code == 0
    text = " ".join(out.split())
    defaults = ModelConfig()
    assert f"state entries per channel (default {defaults.state_size})" in text
    assert f"number of blocks (default {defaults.num_blocks})" in text


@pytest.mark.parametrize("subcommand", ["gen", "verify", "run", "bench"])
def test_help_prints_the_defaults_the_settings_fall_back_to(capsys, monkeypatch, tmp_path,
                                                            subcommand):
    monkeypatch.setenv("COLUMNS", "200")
    code, out, _ = _run(capsys, [subcommand, "--help"])
    assert code == 0
    options = " ".join(out.split("options:", 1)[1].split())
    printed = {}
    for entry in re.split(r" (?=--[a-z][a-z0-9-]* )", options):
        match = re.search(r"\(default ([^)]*)\)", entry)
        key = entry.split()[0][2:].replace("-", "_")
        if match and key != "out":  # --out is flag-only: no setting, no config key
            printed[key] = match.group(1)
    defaults = settings(subcommand)
    # a flag without a single default value (a switch, or a set of alphas)
    # states no default
    assert printed.keys() == {key for key, value in defaults.items()
                              if value is not None and value is not False}
    # read back from a config file, each printed default is the setting's default
    cfg = tmp_path / "printed.cfg"
    cfg.write_text("".join(f"{key} = {text}\n" for key, text in printed.items()),
                   encoding="ascii")
    assert settings(subcommand, cfg) == defaults


def test_main_builds_its_parser_once_and_prints_the_help_of_a_fresh_one(capsys, monkeypatch):
    fresh = _build_parser.__wrapped__()
    subparsers = next(a.choices for a in fresh._actions if isinstance(a.choices, dict))
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    _build_parser.cache_clear()
    assert _run(capsys, ["--help"]) == (0, fresh.format_help(), "")
    once = len(built)
    assert once > 0
    for command, subparser in subparsers.items():
        assert _run(capsys, [command, "--help"]) == (0, subparser.format_help(), "")
    assert len(built) == once


# Arguments that are not settings: where output goes, and the file metrics reads.
_FLAG_ONLY = {"gen": {"--out"}, "verify": set(), "metrics": {"path"}, "run": {"--out"},
              "bench": {"--out"}}


def test_every_flag_of_a_subcommand_is_one_of_its_settings_or_flag_only():
    parser = _build_parser()
    subparsers = next(a.choices for a in parser._actions if isinstance(a.choices, dict))
    assert subparsers.keys() == _FLAG_ONLY.keys()
    for command, subparser in subparsers.items():
        names = {name for action in subparser._actions
                 for name in action.option_strings or [action.dest]}
        flags = {"--" + key.replace("_", "-") for key in _DEFAULTS.get(command, {})}
        assert names == {"-h", "--help", "--config"} | _FLAG_ONLY[command] | flags, command


@pytest.mark.parametrize("command", ["nope", "metrics"])
def test_settings_of_a_command_without_settings_name_the_commands_that_have_them(command):
    with pytest.raises(ValueError) as info:
        settings(command)
    message = str(info.value)
    assert repr(command) in message
    assert all(name in message for name in ("gen", "verify", "run", "bench"))


def test_task_defaults_build_the_default_task_config():
    short = {"v": "num_nodes", "l": "seq_len", "d": "num_features", "c": "num_classes"}
    task = {short.get(key, key): value for key, value in settings("gen").items()
            if key != "seed"}
    assert TaskConfig(**task) == TaskConfig()


def test_settings_take_a_flag_over_the_file_over_the_default(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("lanes = 4\nl_values = 16,32\nrepeats = 5\n", encoding="ascii")
    assert settings("bench", cfg, {"lanes": 2, "repeats": None}) == {
        "l_values": [16, 32], "lanes": 2, "repeats": 5,
        "backends": ["sequential", "parallel"], "seed": 0}


def test_top_level_help_lists_every_subcommand(capsys):
    code, out, _ = _run(capsys, ["--help"])
    assert code == 0
    for name in ("gen", "verify", "metrics", "run", "bench"):
        assert name in out


def test_no_subcommand_is_a_usage_error(capsys):
    code, out, err = _run(capsys, [])
    assert code == 2
    assert out == ""
    assert "usage:" in err


def test_unknown_subcommand_is_a_usage_error(capsys):
    code, _, err = _run(capsys, ["frobnicate"])
    assert code == 2
    assert err != ""


def test_gen_without_required_out_flag_is_a_usage_error(capsys):
    code, _, err = _run(capsys, ["gen", "--seed", "0"])
    assert code == 2
    assert "--out" in err


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_is_byte_identical_across_runs(capsys, tmp_path):
    first = tmp_path / "a.seq"
    second = tmp_path / "b.seq"
    for out in (first, second):
        code, stdout, _ = _run(capsys, ["gen", "--seed", "3", "--out", str(out)]
                               + _TINY_TASK)
        assert code == 0
        assert str(out) in stdout
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "a.seq.labels").read_bytes() == \
        (tmp_path / "b.seq.labels").read_bytes()


def test_gen_reads_its_seed_from_the_config_file_below_the_flag(capsys, tmp_path):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("seed = 3\n", encoding="ascii")

    def gen(name, *argv):
        out = tmp_path / name
        code, _, err = _run(capsys, ["gen", "--out", str(out), *argv] + _TINY_TASK)
        assert (code, err) == (0, "")
        return out.read_bytes(), (tmp_path / (name + ".labels")).read_bytes()

    from_file = gen("file.seq", "--config", str(cfg))
    assert from_file == gen("three.seq", "--seed", "3")
    # the flag beats the file
    four = gen("four.seq", "--seed", "4")
    assert four != from_file
    assert gen("both.seq", "--config", str(cfg), "--seed", "4") == four
    # without either, the seed is the settings' default of 0
    assert settings("gen")["seed"] == 0
    assert gen("none.seq") == gen("zero.seq", "--seed", "0")


def test_gen_output_reloads_and_matches_the_library_generator(capsys, tmp_path):
    out = tmp_path / "task.seq"
    code, _, _ = _run(capsys, ["gen", "--seed", "7", "--out", str(out)] + _TINY_TASK)
    assert code == 0

    task = gen_synthetic(7, TaskConfig(num_nodes=24, seq_len=4,
                                       num_features=4, num_classes=3))
    loaded = load_sequence(out)
    assert len(loaded) == len(task.sequence)
    for got, want in zip(loaded, task.sequence):
        assert got.timestamp == want.timestamp
        assert np.array_equal(got.adjacency, want.adjacency)
        assert np.array_equal(got.features, want.features)

    labels, num_classes = load_labels(str(out) + ".labels")
    assert num_classes == 3
    assert np.array_equal(labels, task.labels)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_metrics_on_identical_snapshots_reports_unit_continuity(capsys, tmp_path):
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = True
    feats = np.arange(1.0, 10.0).reshape(3, 3)
    seq = SnapshotSequence(snapshots=(Snapshot(adj, feats, 0.0),
                                      Snapshot(adj, feats.copy(), 1.0)))
    path = tmp_path / "steady.seq"
    save_sequence(seq, path)

    code, out, _ = _run(capsys, ["metrics", str(path)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("TC_structure=")
    assert lines[1].startswith("TC_feature=")
    assert float(lines[0].split("=", 1)[1]) == 1.0
    assert float(lines[1].split("=", 1)[1]) == pytest.approx(1.0, abs=1e-12)


def test_metrics_on_a_missing_file_is_an_input_error(capsys, tmp_path):
    code, out, err = _run(capsys, ["metrics", str(tmp_path / "absent.seq")])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes_at_reduced_sizes_and_lists_every_suite(capsys):
    code, out, _ = _run(capsys, ["verify", "--alpha", "0", "--instances", "2",
                                 "--schedules", "25", "--ode-steps", "60"])
    assert code == 0
    lines = out.splitlines()
    names = []
    for line in lines:
        match = _VERIFY_LINE.match(line)
        assert match is not None, line
        assert match.group(1) == "PASS"
        names.append(match.group(2))
    # alpha=0 is in play, so the independent-flows reduction check runs too
    assert names == ["projection-vs-ode", "zoh-vs-ode", "weights-convexity",
                     "hippo-reduction"]


def test_verify_prints_the_same_errors_to_every_digit(capsys):
    code, out, _ = _run(capsys, ["verify", "--config", str(_ACCEPTANCE_CFG), "--seed", "0",
                                 "--instances", "3", "--ode-steps", "50"])
    assert code == 0
    errors = [re.search(r"max_err=(\S+)", line).group(1) for line in out.splitlines()]
    assert errors == ["9.570e-06", "1.146e-08", "2.220e-16", "5.551e-17"]


def test_verify_without_a_zero_alpha_skips_the_reduction_suite(capsys):
    code, out, _ = _run(capsys, ["verify", "--alpha", "2", "--instances", "1",
                                 "--schedules", "5", "--ode-steps", "50"])
    assert code == 0
    names = [line.split()[1] for line in out.splitlines()]
    assert "hippo-reduction" not in names
    assert names == ["projection-vs-ode", "zoh-vs-ode", "weights-convexity"]


def test_verify_flags_a_deliberately_coarse_integrator(capsys):
    code, out, _ = _run(capsys, ["verify", "--alpha", "0.5", "--instances", "1",
                                 "--schedules", "1", "--ode-steps", "2"])
    assert code == 1
    lines = out.splitlines()
    assert any(line.startswith("FAIL ") for line in lines)
    # the report still covers every suite, with the measured error in each line
    assert all(_VERIFY_LINE.match(line) for line in lines)


@pytest.mark.parametrize("flag", ["--instances", "--schedules"])
def test_verify_with_fewer_than_one_instance_or_schedule_is_an_input_error(capsys, flag):
    code, out, err = _run(capsys, ["verify", "--alpha", "2", "--instances", "1",
                                   "--schedules", "1", "--ode-steps", "50", flag, "0"])
    assert code == 2
    assert out == ""  # no suite reports PASS after checking nothing
    assert err.startswith("error: ") and "at least 1" in err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key, value", [
    ("seed", "-1"), ("instances", "0"), ("schedules", "0"), ("alpha", "nan"),
    ("alpha", "-1"), ("ode_steps", "0"), ("quad_points", "1"),
], ids=["seed", "instances", "schedules", "alpha_nan", "alpha_negative", "ode_steps",
        "quad_points"])
def test_verify_rejects_a_bad_setting_by_its_key_before_any_suite_runs(
        capsys, monkeypatch, tmp_path, source, key, value):
    ran = []
    for suite in ("suite_projection", "suite_zoh", "suite_weights", "suite_reduction"):
        monkeypatch.setattr(verify, suite, lambda *args, suite=suite: ran.append(suite) or 0.0)
    if source == "flag":
        argv = ["verify", "--" + key.replace("_", "-"), value]
    else:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="ascii")
        argv = ["verify", "--config", str(cfg)]
    code, out, err = _run(capsys, argv)
    assert (code, out, ran) == (2, "", [])
    assert err.startswith(f"error: {key} must be ") and len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_with_a_fixed_seed_writes_the_same_csv_twice(capsys, tmp_path):
    out = tmp_path / "results.csv"
    argv = ["run", "--out", str(out), "--seeds", "0,1", "--init", "s4d_real",
            "--blocks", "1", "--state-size", "2", "--epochs", "40"] + _TINY_TASK
    code, stdout, _ = _run(capsys, argv)
    assert code == 0
    first = out.read_text(encoding="ascii")

    code, _, _ = _run(capsys, argv)
    assert code == 0
    assert out.read_text(encoding="ascii") == first

    lines = first.splitlines()
    assert lines[0] == "seed,variant,init,micro_f1,macro_f1"
    assert len(lines) == 1 + 4  # 2 seeds x (one init + static baseline)
    for line in lines[1:]:
        micro, macro = (float(x) for x in line.split(",")[3:])
        assert 0.0 <= micro <= 1.0
        assert 0.0 <= macro <= 1.0
    # stdout carries a per-(variant, init) summary table plus the file note
    assert "mean_micro" in stdout
    assert f"wrote {out} (4 rows)" in stdout


def test_run_reads_booleans_and_ignores_unknown_keys_in_config_files(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# trimmed-down smoke config\n"
                   "skip_static = yes\n"
                   "epochs = 5\n"
                   "future-knob = ignored\n", encoding="ascii")
    out = tmp_path / "results.csv"
    code, _, _ = _run(capsys, ["run", "--config", str(cfg), "--out", str(out),
                               "--seeds", "0", "--init", "random",
                               "--blocks", "1", "--state-size", "2"] + _TINY_TASK)
    assert code == 0
    lines = out.read_text(encoding="ascii").splitlines()
    assert len(lines) == 2  # skip_static=yes drops the baseline row
    assert lines[1].split(",")[1] == "s4"


def test_run_with_an_empty_seed_list_is_an_input_error(capsys, tmp_path):
    code, _, err = _run(capsys, ["run", "--out", str(tmp_path / "x.csv"),
                                 "--seeds", ","])
    assert code == 2
    assert err.startswith("error: ")


def test_config_file_with_a_malformed_line_is_an_input_error(capsys, tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("this line has no equals sign\n", encoding="ascii")
    code, _, err = _run(capsys, ["gen", "--config", str(cfg), "--seed", "0",
                                 "--out", str(tmp_path / "o.seq")])
    assert code == 2
    assert err.startswith("error: ")
    assert "key=value" in err


@pytest.mark.parametrize("line, argv, message", [
    ("ode_steps = 1.5", ["verify"], "ode_steps: expected an integer, got '1.5'"),
    ("noise = abc", ["run", "--seeds", "0"], "noise: expected a number, got 'abc'"),
    ("skip_static = maybe", ["run", "--seeds", "0"],
     "skip_static: expected a boolean, got 'maybe'"),
    ("alpha = abc", ["verify"], "alpha: expected a number, got 'abc'"),
    ("seeds = 0-x", ["run"], "seeds: expected integers or ranges a-b, got '0-x'"),
    ("variant = S4", ["run"], "variant: expected one of s4, s5, s6, got 'S4'"),
    ("init = zero", ["run"], "init: expected one of s4d_real, s4d_const, random, all, got 'zero'"),
    ("mechanism = mix", ["run"],
     "mechanism: expected one of ordinary, feature_mix, repr_mix, got 'mix'"),
], ids=["int", "float", "bool", "alpha", "seeds", "variant", "init", "mechanism"])
def test_config_value_of_the_wrong_type_names_the_file_and_key(capsys, tmp_path,
                                                                line, argv, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"seed = 0\n{line}\n", encoding="ascii")
    out = tmp_path / "r.csv"
    if argv[0] == "run":
        argv = argv + ["--out", str(out)]
    code, stdout, err = _run(capsys, argv + ["--config", str(cfg)])
    assert code == 2
    assert stdout == ""
    assert err == f"error: {cfg}: {message}\n"
    assert not out.exists()


def test_a_value_outside_a_flags_choices_passed_to_settings_names_the_key():
    with pytest.raises(ValueError, match=r"^variant: expected one of s4, s5, s6, got 'S4'$"):
        settings("run", flags={"variant": "S4"})


def test_a_config_file_that_is_not_utf8_names_the_file_and_offset(capsys, tmp_path):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"seed = 0\n# caf\xe9\n")
    code, stdout, err = _run(capsys, ["verify", "--config", str(cfg)])
    assert (code, stdout) == (2, "")
    assert err == f"error: {cfg}: non-UTF-8 byte 0xe9 at offset 14\n"


@pytest.mark.parametrize("seeds, message", [
    ("0-x", "expected integers or ranges a-b, got '0-x'"),
    ("0,5-3", "range '5-3' runs backwards"),
], ids=["not_a_number", "backwards_range"])
def test_a_malformed_seeds_flag_names_the_key(capsys, tmp_path, seeds, message):
    out = tmp_path / "r.csv"
    code, stdout, err = _run(capsys, ["run", "--seeds", seeds, "--out", str(out)])
    assert code == 2
    assert stdout == ""
    assert err == f"error: seeds: {message}\n"
    assert not out.exists()


def test_alpha_from_a_config_file_restricts_the_suites(capsys, tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("alpha = 2\n", encoding="ascii")
    code, out, err = _run(capsys, ["verify", "--config", str(cfg), "--instances", "1",
                                   "--schedules", "1", "--ode-steps", "50"])
    assert (code, err) == (0, "")
    # without alpha = 0 in the set there is no reduction suite
    assert [line.split()[1] for line in out.splitlines()] == [
        "projection-vs-ode", "zoh-vs-ode", "weights-convexity"]


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_writes_the_documented_csv_schema_to_stdout(capsys):
    code, out, _ = _run(capsys, ["bench", "--l-values", "16,32", "--lanes", "4",
                                 "--repeats", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "L,lanes,backend,ns_per_element"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [16, 16, 32, 32]
    assert [r[2] for r in rows] == ["sequential", "parallel"] * 2
    assert all(r[1] == "4" for r in rows)
    assert all(float(r[3]) > 0.0 for r in rows)


def test_bench_flag_beats_config_file_which_beats_the_default(capsys, tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("lanes = 4\nl_values = 16,32\nrepeats = 1\n", encoding="ascii")
    out = tmp_path / "bench.csv"
    code, stdout, _ = _run(capsys, ["bench", "--config", str(cfg),
                                    "--lanes", "2", "--out", str(out)])
    assert code == 0
    assert f"wrote {out} (4 rows)" in stdout
    rows = [line.split(",") for line in
            out.read_text(encoding="ascii").splitlines()[1:]]
    assert [int(r[0]) for r in rows] == [16, 16, 32, 32]  # lengths from the file
    assert all(r[1] == "2" for r in rows)  # lanes from the flag


@pytest.mark.parametrize("flag, value", [("--l-values", "1.5"), ("--l-values", ","),
                                         ("--l-values", "16,x"), ("--backends", ","),
                                         ("--backends", "turbo"),
                                         ("--backends", "sequential,turbo")])
def test_bench_with_a_bad_or_empty_list_is_an_input_error_naming_it(capsys, tmp_path, flag,
                                                                     value):
    out = tmp_path / "bench.csv"
    code, stdout, err = _run(capsys, ["bench", "--l-values", "16", "--lanes", "2",
                                      "--repeats", "1", "--out", str(out), flag, value])
    assert code == 2
    assert stdout == "" and not out.exists()
    assert err.startswith(f"error: {flag[2:].replace('-', '_')}")


@pytest.mark.parametrize("argv", [["--lanes", "0"], ["--repeats", "0"],
                                  ["--l-values", "16,0"]])
def test_bench_with_a_size_below_one_is_an_input_error(capsys, argv):
    code, out, err = _run(capsys, ["bench", "--l-values", "16", "--lanes", "2",
                                   "--repeats", "1"] + argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "at least 1" in err


def test_bench_with_a_length_below_one_names_l_values(capsys):
    code, out, err = _run(capsys, ["bench", "--l-values", "16,0", "--lanes", "2",
                                   "--repeats", "1"])
    assert code == 2
    assert out == ""
    assert err == "error: l_values: L must be an integer of at least 1, got 0\n"


def test_run_with_a_non_finite_noise_is_an_input_error(capsys, tmp_path):
    code, _, err = _run(capsys, ["run", "--out", str(tmp_path / "r.csv"),
                                 "--seeds", "0", "--noise", "nan"] + _TINY_TASK)
    assert code == 2
    assert err.startswith("error: ") and "noise must be finite" in err


@pytest.mark.parametrize("flag, value", [("--epochs", "0"), ("--epochs", "-3"), ("--lr", "nan"),
                                         ("--l2", "-1"), ("--l2", "nan")])
def test_run_with_an_invalid_readout_setting_is_an_input_error(capsys, tmp_path, flag, value):
    out = tmp_path / "r.csv"
    code, _, err = _run(capsys, ["run", "--out", str(out), "--seeds", "0", "--init", "s4d_real",
                                 "--blocks", "1", "--state-size", "2", flag, value] + _TINY_TASK)
    assert code == 2
    assert err.startswith("error: ") and "readout needs epochs >= 1" in err
    assert not out.exists()
