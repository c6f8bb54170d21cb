"""Self-test of the correctness gates.

    python3 perfbench/selftest.py

Each gate must accept the program's own output and reject a deliberately
wrong one: a flipped F1 row, a forward output scaled by (1 + 1e-6) or with
one non-finite entry, a verify transcript with one suite turned to FAIL, and
a real `gssm verify` run that fails (RK4 with two steps per time unit).
Also checks that BENCHMARK.json names only metrics run.py can report.
Exits 0 when every case behaves, 1 otherwise.  Takes under a minute.
"""

import json
import sys

import benchenv

benchenv.bootstrap()

import numpy as np  # noqa: E402

import gates  # noqa: E402
import workloads  # noqa: E402

RESULTS = []


def expect(label: str, accepted: bool, want: bool):
    ok = accepted is want
    RESULTS.append(ok)
    verdict = "accepts" if accepted else "rejects"
    print(f"{'ok  ' if ok else 'FAIL'} gate {verdict} {label}")


def experiment_cases():
    wl = workloads.Experiment(seed=0)
    wl.prepare()
    s, code = wl.op(0)
    text = wl.csv_path.read_text(encoding="ascii")
    expect("experiment: program output", code == 0 and wl.check(0, (s, code)), True)
    lines = text.splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[3] = repr(float(cells[3]) + 0.025)  # micro F1 of the first row, one node off
    flipped = lines[0] + ",".join(cells) + "".join(lines[2:])
    expect("experiment: first row's micro F1 flipped",
           gates.experiment_rows_match(flipped, wl.rows[s]), False)
    swapped = lines[0] + lines[2] + lines[1] + "".join(lines[3:])
    expect("experiment: two rows swapped",
           gates.experiment_rows_match(swapped, wl.rows[s]), False)


def forward_cases():
    wl = workloads.WORKLOADS["forward_long"](0)
    wl.prepare()
    out = wl.op(0)
    expect("forward: program output", wl.check(0, out), True)
    ref = wl.refs[workloads.VARIANTS[0]]
    expect("forward: output scaled by 1 + 1e-6",
           gates.projection_matches(out * (1.0 + 1e-6), wl.matrix, ref), False)
    bad = out.copy()
    bad[0, 0, 0] = np.nan
    expect("forward: one NaN entry", gates.projection_matches(bad, wl.matrix, ref), False)
    expect("backends: default vs sequential", wl.final_check(), True)
    wl.kept = out * (1.0 + 1e-9)
    expect("backends: output scaled by 1 + 1e-9", wl.final_check(), False)


def verify_cases():
    wl = workloads.Verify(seed=0)
    wl.prepare()
    code, out, _ = wl.op(0)
    expect("verify: program output", wl.check(0, (code, out, "")), True)
    turned = out.replace("PASS", "FAIL", 1)
    expect("verify: one suite turned to FAIL",
           gates.verify_passed(0, turned, wl.suites), False)
    expect("verify: exit code 1", gates.verify_passed(1, out, wl.suites), False)
    dropped = "\n".join(ln for ln in out.splitlines() if "hippo-reduction" not in ln)
    expect("verify: a suite missing", gates.verify_passed(code, dropped, wl.suites), False)
    code, out, _ = workloads.call_cli(["verify", "--config", benchenv.CONFIG,
                                       "--seed", wl.order[0], "--instances", 2,
                                       "--ode-steps", 2])
    expect("verify: real failing run (2 RK4 steps per unit)",
           gates.verify_passed(code, out, wl.suites), False)


def spec_case():
    import run
    with open(benchenv.SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    from tracer import TRACED, Tracer
    tracer = Tracer()
    try:
        run.per_layer_metrics(spec, tracer, 1, 0.0)
        spans = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]}
        known = all(s in TRACED for s in spans - {"trace"})
    except (KeyError, ValueError):
        known = False
    expect("spec: every per-layer metric maps to a traced function", known, True)


def main() -> int:
    for case in (experiment_cases, forward_cases, verify_cases, spec_case):
        case()
    print(f"{sum(RESULTS)}/{len(RESULTS)} gate cases behave")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
