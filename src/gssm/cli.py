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
from .discretize import (MixMechanism, MutationSchedule, _segment_weights_stack,
                         zoh_oracle_step)
from .harness import (ModelConfig, TaskConfig, gen_synthetic, named_rng,
                      results_to_csv, run_experiment, save_labels)
from .hippo import TIME_ORIGIN, HippoConfig, integrate_hippo, projection_oracle
from .layers import InitStrategy, SsmVariant
from .scan import bench_recurrence
from .tgraph import (Action, EventStream, LaplacianKind, load_sequence,
                     save_sequence, segments, temporal_continuity)

_KINDS = (LaplacianKind.SYMMETRIC, LaplacianKind.RANDOM_WALK)


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
# Verification suites (gen/verify share the random-instance builders)
# ---------------------------------------------------------------------------

def _random_stream(rng, num_nodes: int, horizon: float, num_events: int,
                   t_lo: float, t_hi: float) -> EventStream:
    pairs = [(i, j) for i in range(num_nodes) for j in range(i + 1, num_nodes)]
    initial = frozenset(p for p in pairs if rng.random() < 0.4)
    times = np.sort(rng.uniform(t_lo, t_hi, size=num_events))
    while len(set(times.tolist())) != num_events:
        times = np.sort(rng.uniform(t_lo, t_hi, size=num_events))
    current = set(initial)
    events = []
    for t in times:
        present = sorted(current)
        absent = sorted(set(pairs) - current)
        insert = not present or (absent and rng.random() < 0.5)
        pool = absent if insert else present
        u, v = pool[int(rng.integers(len(pool)))]
        events.append((u, v, float(t), Action.INSERT if insert else Action.DELETE))
        (current.add if insert else current.discard)((u, v))
    return EventStream(num_nodes, horizon, initial, tuple(events))


def suite_projection(seed: int, instances: int, alphas, ode_steps: int,
                     quad_points: int):
    """ODE integration vs the quadrature projection oracle at the horizon.

    Constant-in-time features over a horizon long enough for the start-up
    transient to decay; mutations confined to the first half.
    """
    rng = named_rng(seed, "verify-projection")
    worst = 0.0
    for i in range(instances):
        v = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        m = int(rng.integers(0, 6))
        stream = _random_stream(rng, v, 16.0, m, 0.25, 6.0)
        x = rng.normal(size=v)
        cfg = HippoConfig(order=n, alpha=float(alphas[i % len(alphas)]),
                          laplacian=_KINDS[i % 2], ode_steps_per_unit=ode_steps,
                          quadrature_points=quad_points)
        path = lambda t: np.broadcast_to(x, (t.size, v))
        u = integrate_hippo(stream, path, cfg, 16.0).u
        q = projection_oracle(stream, path, cfg, 16.0).u
        worst = max(worst, np.linalg.norm(u - q) / np.linalg.norm(q))
    return worst


def suite_zoh(seed: int, instances: int, alphas, ode_steps: int):
    """One-interval exact discretization vs RK4 on the same diagonal system
    with the same interior mutation schedule and piecewise-constant features."""
    rng = named_rng(seed, "verify-zoh")
    worst = 0.0
    for i in range(instances):
        v = int(rng.integers(2, 9))
        n = int(rng.integers(1, 9))
        m = int(rng.integers(0, 6))
        t_start = float(rng.uniform(0.2, 0.8))
        length = float(rng.uniform(1.0, 4.0))
        t_end = t_start + length
        stream = _random_stream(rng, v, t_end + 0.5, m,
                                t_start + 0.05 * length, t_end - 0.05 * length)
        feats = tuple(rng.normal(size=v) for _ in range(m + 1))
        sched = MutationSchedule.from_stream(stream, t_start, t_end, feats)
        a = -np.exp(rng.uniform(-1.5, 1.0, size=n))
        b = rng.normal(size=n)
        kind = _KINDS[i % 2]
        alpha = float(alphas[i % len(alphas)])
        u0 = rng.normal(size=(v, n))
        u_zoh = zoh_oracle_step(u0, sched, a, b, alpha, kind)

        bounds = np.asarray(sched.boundaries)

        def path(t, bounds=bounds, feats=np.stack(feats)):
            j = np.searchsorted(bounds, t, side="right") - 1
            return feats[np.clip(j, 0, len(feats) - 1)]

        cfg = HippoConfig(order=n, alpha=alpha, laplacian=kind,
                          ode_steps_per_unit=ode_steps)
        u_ode = integrate_hippo(stream, path, cfg, t_end, u_start=u0,
                                t_start=t_start, system=(np.diag(a), b)).u
        rel = np.linalg.norm(u_zoh - u_ode) / max(np.linalg.norm(u_ode), 1e-12)
        worst = max(worst, rel)
    return worst


def suite_weights(seed: int, schedules: int):
    """Convexity of the segment weights: entries in [0,1], columns sum to 1.

    The schedules are drawn one at a time, then weighed in one stack per
    (mutation count, diagonal size)."""
    rng = named_rng(seed, "verify-weights")
    stacks = {}
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
        stacks.setdefault((m, n), []).append((bounds, a))
    worst = 0.0
    for rows in stacks.values():
        bounds, a = zip(*rows)
        w = _segment_weights_stack(bounds, a)
        worst = max(worst, float(np.abs(w.sum(axis=1) - 1.0).max()),
                    float(-w.min()), float(w.max() - 1.0))
    return worst


def suite_reduction(seed: int, instances: int, ode_steps: int):
    """Graph smoothing off (alpha=0, or an edgeless graph) must reduce the
    joint integration to independent per-node memory flows.

    The per-node side is integrated piece by piece over the joint run's
    `segments` so both sides take identical RK4 steps.
    """
    rng = named_rng(seed, "verify-reduction")
    worst = 0.0
    for i in range(instances):
        v = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        edgeless = i % 2 == 1
        if edgeless:
            stream = EventStream(v, 4.0, frozenset(), ())
            alpha = 2.0
        else:
            stream = _random_stream(rng, v, 4.0, int(rng.integers(1, 4)), 0.25, 3.75)
            alpha = 0.0
        coef = rng.normal(size=v)
        freq = rng.uniform(0.5, 2.0, size=v)

        def path(t, coef=coef, freq=freq):
            return coef * np.sin(freq * t[:, None]) + 1.0

        cfg = HippoConfig(order=n, alpha=alpha, laplacian=_KINDS[i % 2],
                          ode_steps_per_unit=ode_steps)
        joint = integrate_hippo(stream, path, cfg, 4.0).u
        solo_stream = EventStream(1, 4.0, frozenset(), ())
        pieces = [(lo, hi) for lo, hi, _ in segments(stream, TIME_ORIGIN, 4.0)]
        for node in range(v):
            def solo_path(t, node=node, path=path):
                return path(t)[:, [node]]

            u = None
            for lo, hi in pieces:
                u = integrate_hippo(solo_stream, solo_path, cfg, hi,
                                    u_start=u, t_start=lo).u
            worst = max(worst, float(np.abs(joint[node] - u[0]).max()))
    return worst


_HIPPO = {f.name: f.default for f in dataclasses.fields(HippoConfig)}
_VERIFY_DEFAULTS = {"seed": 0, "instances": 20, "schedules": 1000, "alpha": None,
                    "ode_steps": _HIPPO["ode_steps_per_unit"],
                    "quad_points": _HIPPO["quadrature_points"]}


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


# ---------------------------------------------------------------------------
# gen / metrics / run / bench
# ---------------------------------------------------------------------------

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
                   "lanes": 128, "repeats": 3, "chunk": 0,
                   "backends": "sequential,parallel", "seed": 0}


def cmd_bench(args) -> int:
    cfg = _settings(args, dict(_BENCH_DEFAULTS))
    l_values = [int(x) for x in str(cfg["l_values"]).split(",") if x.strip()]
    backends = tuple(b.strip() for b in cfg["backends"].split(",") if b.strip())
    rows = bench_recurrence(l_values, lanes=cfg["lanes"], backends=backends,
                            repeats=cfg["repeats"], chunk=cfg["chunk"] or None,
                            seed=cfg["seed"])
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
    _option(p, d, "instances", "instances per agreement suite, at least 1")
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
    _option(p, d, "chunk", "parallel chunk length, 0 = ceil(sqrt(L))")
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
