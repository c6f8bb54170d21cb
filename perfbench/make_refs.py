"""Write the reference outputs in perfbench/refs/ from the current code.

    python3 perfbench/make_refs.py [experiment] [verify] [forward_wide] [forward_long]

References are the outputs of the code at the commit that defined the
benchmark; regenerate them only for a change that is meant to alter outputs,
and say so in CHANGES.md.  Verify seeds whose suites do not all pass are
left out of the pool and recorded, with the program's message, under
"left_out" in refs/verify.json.
"""

import json
import sys

import benchenv

benchenv.bootstrap()

import gates  # noqa: E402
import workloads  # noqa: E402

EXPERIMENT_SEEDS = range(64)
VERIFY_SEEDS = range(3)
TASK_SEEDS = range(8)
PROJECTION_SEED = 20240603
SHAPES = {"forward_wide": (2000, 32), "forward_long": (64, 1024)}


def experiment() -> dict:
    path = benchenv.OUT_DIR / "make-refs.csv"
    csv_texts = {}
    for s in EXPERIMENT_SEEDS:
        code, _, err = workloads.call_cli(["run", "--config", benchenv.CONFIG,
                                           "--seeds", s, "--out", path])
        if code != 0:
            raise SystemExit(f"gssm run --seeds {s} failed: {err}")
        csv_texts[str(s)] = path.read_text(encoding="ascii")
    return {"config": "configs/acceptance.cfg", "f1_atol": gates.F1_ATOL, "csv": csv_texts}


def verify() -> dict:
    seeds, max_err, left_out, suites = [], {}, {}, None
    for s in VERIFY_SEEDS:
        code, out, err = workloads.call_cli(["verify", "--config", benchenv.CONFIG,
                                             "--seed", s, *workloads.VERIFY_ARGS])
        status = gates.suite_status(out)
        suites = suites or (sorted(status) if code == 0 else None)
        if code == 0 and gates.verify_passed(code, out, suites):
            seeds.append(s)
            max_err[str(s)] = {ln.split()[1]: ln.split()[2] for ln in out.splitlines()
                               if ln.startswith("PASS")}
        else:
            left_out[str(s)] = f"exit {code}: {(out + err).strip()}"
            print(f"verify seed {s} left out: {left_out[str(s)]}", file=sys.stderr)
    return {"config": "configs/acceptance.cfg", "args": [str(a) for a in workloads.VERIFY_ARGS],
            "suites": suites, "seeds": seeds,
            "left_out": left_out, "max_err_for_information": max_err}


def forward(name: str) -> dict:
    nodes, length = SHAPES[name]
    projections = {}
    for s in TASK_SEEDS:
        seq, hidden, models = workloads.forward_inputs(s, nodes, length)
        matrix = gates.projection_matrix(PROJECTION_SEED, hidden.size)
        projections[str(s)] = {
            v: gates.project(workloads.layers.block_forward(hidden, seq, m), matrix).tolist()
            for v, m in zip(workloads.VARIANTS, models)}
        print(f"{name} task seed {s} done", file=sys.stderr)
    return {"nodes": nodes, "snapshots": length, "projection_seed": PROJECTION_SEED,
            "projection_rows": gates.PROJ_ROWS, "proj_rtol": gates.PROJ_RTOL,
            "projections": projections}


GENERATORS = {"experiment": experiment, "verify": verify,
            "forward_wide": lambda: forward("forward_wide"),
            "forward_long": lambda: forward("forward_long")}


def main(names) -> int:
    benchenv.REFS_DIR.mkdir(exist_ok=True)
    for name in names or GENERATORS:
        refs = GENERATORS[name]()
        with open(benchenv.REFS_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote refs/{name}.json", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
