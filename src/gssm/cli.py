"""Command-line entry point.

Subcommands: gen (write a synthetic task), verify (oracle-agreement suites),
metrics (temporal-continuity of a sequence file), run (frozen-backbone
experiment -> results CSV), bench (scan throughput -> CSV).

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
Failures print one `error: ...` line to stderr.

Flags may also come from a flat key=value config file (`--config`); an
explicit flag always wins over the file, which wins over built-in defaults.
Keys in the file use the flag name with underscores; unknown keys are
ignored so one file can serve several subcommands.
"""

import argparse
import dataclasses
import inspect
import sys
import time

import numpy as np

from ._checks import integer, parse_like, read_text
from .discretize import MixMechanism
from .harness import (ModelConfig, TaskConfig, gen_synthetic, results_to_csv,
                      run_experiment, save_labels)
from .hippo import HippoConfig
from .layers import InitStrategy, SsmVariant
from .scan import bench_recurrence
from .tgraph import load_sequence, save_sequence, temporal_continuity
from .verify import suite_projection, suite_reduction, suite_weights, suite_zoh


# ---------------------------------------------------------------------------
# Config-file handling
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


def _settings(args, defaults: dict, parsers=None) -> dict:
    """Effective settings: explicit flag > config file > default.  A file value
    is parsed as its default's type, then any string value of a key in
    `parsers` by that key's parser.  A value that does not parse raises
    ValueError naming the key, and the file when the value came from it."""
    path = getattr(args, "config", None)
    file_cfg = _load_config(path) if path else {}
    parsers = parsers or {}
    out = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        from_file = flag is None and key in file_cfg
        value = file_cfg[key] if from_file else (default if flag is None else flag)
        try:
            if from_file:
                value = parse_like(value, default)
            if key in parsers and isinstance(value, str):
                value = parsers[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}: {key}: {exc}" if from_file else f"{key}: {exc}") from None
        out[key] = value
    return out


def _parse_seeds(text: str):
    """Seeds of a comma list of integers and inclusive ranges 'a-b'."""
    seeds = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
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


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

_VERIFY_DEFAULTS = {"seed": 0, "instances": 20, "schedules": 1000, "alpha": None,
                    "ode_steps": HippoConfig.ode_steps_per_unit,
                    "quad_points": HippoConfig.quadrature_points}


def cmd_verify(args) -> int:
    cfg = _settings(args, _VERIFY_DEFAULTS, {"alpha": lambda text: parse_like(text, 0.0)})
    for key in ("instances", "schedules"):
        integer(cfg[key], key, 1)
    # alpha default None means the criterion set {0, 0.5, 2}
    alphas = (0.0, 0.5, 2.0) if cfg["alpha"] is None else (cfg["alpha"],)
    checks = [
        ("projection-vs-ode", 1e-3,
         lambda: suite_projection(cfg["seed"], cfg["instances"], alphas,
                                  cfg["ode_steps"], cfg["quad_points"])),
        ("zoh-vs-ode", 1e-4,
         lambda: suite_zoh(cfg["seed"], cfg["instances"], alphas,
                           cfg["ode_steps"])),
        ("weights-convexity", 1e-12,
         lambda: suite_weights(cfg["seed"], cfg["schedules"])),
    ]
    if 0.0 in alphas:
        checks.append(("hippo-reduction", 1e-10,
                       lambda: suite_reduction(cfg["seed"], 6, cfg["ode_steps"])))
    failed = False
    for name, tol, fn in checks:
        t0 = time.perf_counter()
        err = fn()
        took = time.perf_counter() - t0
        ok = err <= tol
        failed = failed or not ok
        print(f"{'PASS' if ok else 'FAIL'} {name} max_err={err:.3e} "
              f"tol={tol:.0e} time={took:.3f}s")
    return 1 if failed else 0


# Task flag -> TaskConfig field; the four size fields have one-letter flags.
_SHORT = {"num_nodes": "v", "seq_len": "l", "num_features": "d", "num_classes": "c"}
_TASK_FLAGS = {_SHORT.get(f.name, f.name): f.name for f in dataclasses.fields(TaskConfig)}
_TASK_DEFAULTS = {flag: getattr(TaskConfig(), field) for flag, field in _TASK_FLAGS.items()}


def _task_config(cfg: dict) -> TaskConfig:
    return TaskConfig(**{field: cfg[flag] for flag, field in _TASK_FLAGS.items()})


def cmd_gen(args) -> int:
    cfg = _settings(args, dict(_TASK_DEFAULTS, seed=0))
    task = gen_synthetic(cfg["seed"], _task_config(cfg))
    save_sequence(task.sequence, args.out)
    save_labels(task.labels, task.num_classes, args.out + ".labels")
    print(f"wrote {args.out} ({task.num_nodes} nodes, {len(task.sequence)} snapshots) "
          f"and {args.out}.labels")
    return 0


def cmd_metrics(args) -> int:
    seq = load_sequence(args.path)
    tc_structure, tc_feature = temporal_continuity(seq)
    print(f"TC_structure={tc_structure!r}")
    print(f"TC_feature={tc_feature!r}")
    return 0


_MODEL = ModelConfig()
_EXPERIMENT = {k: v.default for k, v in inspect.signature(run_experiment).parameters.items()}
_RUN_DEFAULTS = {"seeds": "0-9", "variant": _MODEL.variant.value, "init": "all",
                 "blocks": _MODEL.num_blocks, "state_size": _MODEL.state_size,
                 "mechanism": _MODEL.mix_mechanism.value, "skip_static": False,
                 **{k: _EXPERIMENT[k] for k in ("lr", "epochs", "l2")}}


def cmd_run(args) -> int:
    cfg = _settings(args, dict(_TASK_DEFAULTS, **_RUN_DEFAULTS), {"seeds": _parse_seeds})
    inits = ([InitStrategy(cfg["init"])] if cfg["init"] != "all"
             else [InitStrategy.S4D_REAL, InitStrategy.S4D_CONST, InitStrategy.RANDOM])
    model_cfg = ModelConfig(num_blocks=cfg["blocks"], state_size=cfg["state_size"],
                            variant=SsmVariant(cfg["variant"]),
                            mix_mechanism=MixMechanism(cfg["mechanism"]))
    rows = run_experiment(cfg["seeds"], _task_config(cfg), model_cfg, inits=inits,
                          include_static=not cfg["skip_static"], lr=cfg["lr"],
                          epochs=cfg["epochs"], l2=cfg["l2"])
    csv_text = results_to_csv(rows)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(csv_text)

    groups = {}
    for row in rows:
        groups.setdefault((row["variant"], row["init"]), []).append(row)
    print(f"{'variant':10s} {'init':10s} {'mean_micro':>10s} {'mean_macro':>10s} {'n':>3s}")
    for (variant, init), grp in sorted(groups.items()):
        micro = np.mean([r["micro_f1"] for r in grp])
        macro = np.mean([r["macro_f1"] for r in grp])
        print(f"{variant:10s} {init:10s} {micro:10.4f} {macro:10.4f} {len(grp):3d}")
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


_BENCH_DEFAULTS = {"l_values": "1024,2048,4096,8192,16384,32768,65536",
                   "lanes": 128, "repeats": 3, "backends": "sequential,parallel",
                   "seed": 0}


def cmd_bench(args) -> int:
    cfg = _settings(args, dict(_BENCH_DEFAULTS), {
        "l_values": lambda text: [parse_like(x, 0) for x in text.split(",") if x.strip()],
        "backends": lambda text: [x.strip() for x in text.split(",") if x.strip()]})
    rows = bench_recurrence(**cfg)
    lines = ["L,lanes,backend,ns_per_element"]
    lines += [f"{r['L']},{r['lanes']},{r['backend']},{r['ns_per_element']!r}"
              for r in rows]
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _option(sub, defaults: dict, key: str, text: str, **kwargs):
    """--<key>, typed like its default and with the default ending its help."""
    sub.add_argument("--" + key.replace("_", "-"), type=type(defaults[key]),
                     help=f"{text} (default {defaults[key]})", **kwargs)


_TASK_HELP = {"v": "number of nodes", "l": "number of snapshots",
              "d": "feature dimensions", "c": "number of classes",
              "p_in": "initial intra-community edge probability",
              "p_out": "inter-community edge probability",
              "p_decay": "per-step decay of p_in toward p_out",
              "drift_rate": "per-step pair resample probability",
              "noise": "feature noise scale", "radius": "centroid circle radius",
              "omega": "centroid rotation per step (radians)"}


def _add_task_flags(sub):
    for key, text in _TASK_HELP.items():
        _option(sub, _TASK_DEFAULTS, key, text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gssm",
        description="Temporal-graph state-space models: synthetic tasks, "
                    "oracle verification, metrics, experiments, benchmarks.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file; flags override it")
    sub = parser.add_subparsers(dest="command", metavar="{gen,verify,metrics,run,bench}")

    p = sub.add_parser("gen", parents=[common],
                       help="generate a synthetic task (sequence + labels sidecar)")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.add_argument("--out", required=True, help="output sequence path "
                                                "(labels go to <out>.labels)")
    _add_task_flags(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", parents=[common],
                       help="run the oracle-agreement suites (exit 1 on breach)")
    d = _VERIFY_DEFAULTS
    _option(p, d, "seed", "instance seed")
    _option(p, d, "instances", "instances per projection and zoh suite, at least 1; "
                               "hippo-reduction always runs 6")
    _option(p, d, "schedules", "schedules for the weight check, at least 1")
    p.add_argument("--alpha", type=float,
                   help="restrict smoothing strength to one value (unset: 0, 0.5 and 2)")
    _option(p, d, "ode_steps", "RK4 steps per time unit")
    _option(p, d, "quad_points", "quadrature nodes")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("metrics", parents=[common],
                       help="print temporal-continuity metrics for a sequence file")
    p.add_argument("path", help="sequence file")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("run", parents=[common],
                       help="frozen-backbone experiment; writes the results CSV")
    d = _RUN_DEFAULTS
    p.add_argument("--out", required=True, help="results CSV path")
    _option(p, d, "seeds", "comma list and/or inclusive ranges")
    _option(p, d, "variant", "layer variant", choices=[v.value for v in SsmVariant])
    _option(p, d, "init", "state initialization, or all three",
            choices=[s.value for s in InitStrategy] + ["all"])
    _option(p, d, "blocks", "number of blocks")
    _option(p, d, "state_size", "state entries per channel")
    _option(p, d, "mechanism", "mixing mechanism of the first block",
            choices=[m.value for m in MixMechanism])
    p.add_argument("--skip-static", action="store_const", const=True, default=None,
                   help="skip the static last-snapshot baseline")
    _option(p, d, "lr", "readout learning rate")
    _option(p, d, "epochs", "readout epochs")
    _option(p, d, "l2", "readout weight penalty")
    _add_task_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", parents=[common],
                       help="scan throughput benchmark; writes CSV")
    d = _BENCH_DEFAULTS
    p.add_argument("--out", default="-", help="CSV path, - for stdout (default -)")
    _option(p, d, "l_values", "comma list of sequence lengths")
    _option(p, d, "lanes", "independent lanes")
    _option(p, d, "repeats", "best-of repeats")
    _option(p, d, "backends", "comma list from sequential,parallel")
    _option(p, d, "seed", "workload seed")
    p.set_defaults(func=cmd_bench)
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
        return args.func(args)
    except Exception as exc:  # one-line machine-parsable failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
