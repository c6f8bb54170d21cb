"""Command-line entry point.

Subcommands: gen (write a synthetic task), verify (oracle-agreement suites),
metrics (temporal-continuity of a sequence file), run (frozen-backbone
experiment -> results CSV), bench (scan throughput -> CSV).

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
Failures print one `error: ...` line to stderr.

Every flag but the output path `--out` and metrics' `path` is one setting
of `_DEFAULTS`, and may also come from a flat key=value config file
(`--config`); an explicit flag always wins over the file, which wins over
built-in defaults.  Keys in the file use the flag name with underscores;
unknown keys are ignored so one file can serve several subcommands, and a
value outside a flag's choices is rejected by its key.  `settings` reads the
effective settings of any subcommand the same way.
"""

import argparse
import dataclasses
import inspect
import pathlib
import sys
import time

import numpy as np

from . import verify
from ._checks import parse_like, read_text
from .discretize import MixMechanism
from .harness import (ModelConfig, TaskConfig, gen_synthetic, results_to_csv,
                      run_experiment, save_labels)
from .layers import InitStrategy, SsmVariant
from .scan import BACKENDS, bench_recurrence
from .tgraph import load_sequence, save_sequence, temporal_continuity


# ---------------------------------------------------------------------------
# Settings: one table of defaults and parsers, one reader
# ---------------------------------------------------------------------------

def _load_config(path) -> dict:
    text = read_text(path, "UTF-8").replace("\r\n", "\n").replace("\r", "\n")
    out = {}
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _parse_seeds(text: str):
    """Seeds of a comma list of integers and inclusive ranges 'a-b'."""
    seeds = []
    for part in filter(None, (p.strip() for p in text.split(","))):
        cut = part.find("-", 1)  # inclusive range; a leading '-' is a sign
        try:
            lo, hi = (int(part[:cut]), int(part[cut + 1:])) if cut > 0 else (int(part),) * 2
        except ValueError:
            raise ValueError(f"expected integers or ranges a-b, got {part!r}") from None
        if hi < lo:
            raise ValueError(f"range {part!r} runs backwards")
        seeds.extend(range(lo, hi + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


# Task flag -> TaskConfig field; the four size fields have one-letter flags.
_SHORT = {"num_nodes": "v", "seq_len": "l", "num_features": "d", "num_classes": "c"}
_TASK_FLAGS = {_SHORT.get(f.name, f.name): f.name for f in dataclasses.fields(TaskConfig)}
_TASK = {flag: getattr(TaskConfig(), field) for flag, field in _TASK_FLAGS.items()}
_MODEL = ModelConfig()
_EXPERIMENT = inspect.signature(run_experiment).parameters

# The settings of each subcommand with their defaults, the parser of each
# setting whose value is a string to be parsed further, and the values a
# setting may take where they are few.
_DEFAULTS = {
    "gen": {"seed": 0, **_TASK},
    "verify": {k: p.default for k, p in inspect.signature(verify.suites).parameters.items()},
    "run": {"seeds": "0-9", "variant": _MODEL.variant.value, "init": "all",
            "blocks": _MODEL.num_blocks, "state_size": _MODEL.state_size,
            "mechanism": _MODEL.mix_mechanism.value, "skip_static": False,
            **{k: _EXPERIMENT[k].default for k in ("lr", "epochs", "l2")}, **_TASK},
    "bench": {k: ",".join(map(str, p.default)) if isinstance(p.default, tuple) else p.default
              for k, p in inspect.signature(bench_recurrence).parameters.items()},
}
_PARSERS = {"seeds": _parse_seeds,
            "l_values": lambda text: [parse_like(x, 0) for x in text.split(",") if x.strip()],
            "backends": lambda text: [x.strip() for x in text.split(",") if x.strip()]}
_CHOICES = {"variant": [v.value for v in SsmVariant],
            "init": [s.value for s in InitStrategy] + ["all"],
            "mechanism": [m.value for m in MixMechanism]}


def _like(default):
    """A value of the type a setting parses as: its default, a number where that is None."""
    return 0.0 if default is None else default


def settings(command: str, config=None, flags=None) -> dict:
    """Effective settings of a subcommand (gen, verify, run or bench), keyed
    by flag name with underscores: a value in `flags` other than None wins
    over the key=value file at path `config`, which wins over the default.
    A file value is parsed as its default's type (a number where that is
    None), and a string of seeds, l_values or backends by its parser; one
    that does not parse, or a variant, init or mechanism outside its
    choices, raises ValueError naming the key (and the file)."""
    if command not in _DEFAULTS:
        raise ValueError(f"{command!r} has no settings; the commands with settings are "
                         f"{', '.join(_DEFAULTS)}")
    file_cfg = _load_config(config) if config else {}
    flags = flags or {}
    out = {}
    for key, default in _DEFAULTS[command].items():
        flag = flags.get(key)
        from_file = flag is None and key in file_cfg
        value = file_cfg[key] if from_file else (default if flag is None else flag)
        try:
            if from_file:
                value = parse_like(value, _like(default))
            if key in _PARSERS and isinstance(value, str):
                value = _PARSERS[key](value)
            if key in _CHOICES and value not in _CHOICES[key]:
                raise ValueError(f"expected one of {', '.join(_CHOICES[key])}, got {value!r}")
        except ValueError as exc:
            raise ValueError(f"{config}: {key}: {exc}" if from_file else f"{key}: {exc}") from None
        out[key] = value
    return out


def _task_config(cfg: dict) -> TaskConfig:
    return TaskConfig(**{field: cfg[flag] for flag, field in _TASK_FLAGS.items()})


# ---------------------------------------------------------------------------
# Subcommands: each takes the parsed arguments and the effective settings
# ---------------------------------------------------------------------------

def cmd_verify(args, cfg) -> int:
    failed = False
    for name, tol, call in verify.suites(**cfg):
        t0 = time.perf_counter()
        err = call()
        took = time.perf_counter() - t0
        ok = err <= tol
        failed = failed or not ok
        print(f"{'PASS' if ok else 'FAIL'} {name} max_err={err:.3e} "
              f"tol={tol:.0e} time={took:.3f}s")
    return 1 if failed else 0


def cmd_gen(args, cfg) -> int:
    task = gen_synthetic(cfg["seed"], _task_config(cfg))
    save_sequence(task.sequence, args.out)
    save_labels(task.labels, task.num_classes, args.out + ".labels")
    print(f"wrote {args.out} ({task.num_nodes} nodes, {len(task.sequence)} snapshots) "
          f"and {args.out}.labels")
    return 0


def cmd_metrics(args, cfg) -> int:
    tc_structure, tc_feature = temporal_continuity(load_sequence(args.path))
    print(f"TC_structure={tc_structure!r}\nTC_feature={tc_feature!r}")
    return 0


def cmd_run(args, cfg) -> int:
    inits = _EXPERIMENT["inits"].default if cfg["init"] == "all" else [InitStrategy(cfg["init"])]
    model_cfg = ModelConfig(num_blocks=cfg["blocks"], state_size=cfg["state_size"],
                            variant=cfg["variant"], mix_mechanism=cfg["mechanism"])
    rows = run_experiment(cfg["seeds"], _task_config(cfg), model_cfg, inits=inits,
                          include_static=not cfg["skip_static"], lr=cfg["lr"],
                          epochs=cfg["epochs"], l2=cfg["l2"])
    pathlib.Path(args.out).write_text(results_to_csv(rows), encoding="ascii")

    groups = {}
    for row in rows:
        groups.setdefault((row["variant"], row["init"]), []).append(row)
    print(f"{'variant':10s} {'init':10s} {'mean_micro':>10s} {'mean_macro':>10s} {'n':>3s}")
    for (variant, init), grp in sorted(groups.items()):
        micro, macro = (np.mean([r[key] for r in grp]) for key in ("micro_f1", "macro_f1"))
        print(f"{variant:10s} {init:10s} {micro:10.4f} {macro:10.4f} {len(grp):3d}")
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def cmd_bench(args, cfg) -> int:
    rows = bench_recurrence(**cfg)
    text = "L,lanes,backend,ns_per_element\n" + "".join(
        f"{r['L']},{r['lanes']},{r['backend']},{r['ns_per_element']!r}\n" for r in rows)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        pathlib.Path(args.out).write_text(text, encoding="ascii")
        print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# Parser: one flag per setting, plus the flag-only --out and metrics' path
# ---------------------------------------------------------------------------

_COMMANDS = {"gen": (cmd_gen, "generate a synthetic task (sequence + labels sidecar)"),
             "verify": (cmd_verify, "run the oracle-agreement suites (exit 1 on breach)"),
             "metrics": (cmd_metrics, "print temporal-continuity metrics for a sequence file"),
             "run": (cmd_run, "frozen-backbone experiment; writes the results CSV"),
             "bench": (cmd_bench, "scan throughput benchmark; writes CSV")}

_TASK_HELP = {"v": "number of nodes", "l": "number of snapshots", "d": "feature dimensions",
              "c": "number of classes", "p_in": "initial intra-community edge probability",
              "p_out": "inter-community edge probability",
              "p_decay": "per-step decay of p_in toward p_out",
              "drift_rate": "per-step pair resample probability",
              "noise": "feature noise scale", "radius": "centroid circle radius",
              "omega": "centroid rotation per step (radians)"}

# The help of each setting, by subcommand; the parser appends its default.
_HELP = {"gen": dict(_TASK_HELP, seed="generator seed"),
         "verify": verify.HELP,
         "run": dict(_TASK_HELP, seeds="comma list and/or inclusive ranges",
                     variant="layer variant", init="state initialization, or all three",
                     blocks="number of blocks", state_size="state entries per channel",
                     mechanism="mixing mechanism of the first block",
                     skip_static="skip the static last-snapshot baseline",
                     lr="readout learning rate", epochs="readout epochs",
                     l2="readout weight penalty"),
         "bench": {"l_values": "comma list of sequence lengths", "lanes": "independent lanes",
                   "repeats": "best-of repeats",
                   "backends": f"comma list from {','.join(BACKENDS)}", "seed": "workload seed"}}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gssm",
        description="Temporal-graph state-space models: synthetic tasks, "
                    "oracle verification, metrics, experiments, benchmarks.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file; flags override it")
    sub = parser.add_subparsers(dest="command")
    for command, (func, about) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=about)
        p.set_defaults(func=func)
        for key, default in _DEFAULTS.get(command, {}).items():
            flag, text = "--" + key.replace("_", "-"), _HELP[command][key]
            if default is False:  # a switch; None until given, so the file can set it
                p.add_argument(flag, action="store_const", const=True, help=text)
            else:
                p.add_argument(flag, type=type(_like(default)), choices=_CHOICES.get(key),
                               help=text if default is None else f"{text} (default {default})")
    sub.choices["gen"].add_argument("--out", required=True, help="output sequence path "
                                                                 "(labels go to <out>.labels)")
    sub.choices["metrics"].add_argument("path", help="sequence file")
    sub.choices["run"].add_argument("--out", required=True, help="results CSV path")
    sub.choices["bench"].add_argument("--out", default="-",
                                      help="CSV path, - for stdout (default -)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = settings(args.command, args.config, vars(args)) if args.command in _DEFAULTS else {}
        return args.func(args, cfg)
    except Exception as exc:  # one-line machine-parsable failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
