"""gssm benchmark: one workload, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload experiment --seed 1 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics with tracing off, each timing as
it would read on a quiet host (see hostspeed.py).  --trace 1 alternates
untraced and traced cycles over the same inputs, derives the per-layer
metrics from the traced spans, and writes the spans as JSON lines to
.bench_out/.  Either way every op is checked by the gates in gates.py.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (names and units from BENCHMARK.json); the
line before it records the environment and run details.
"""

import argparse
import time

_LAUNCHED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import benchenv  # noqa: E402

SETUP_REPEATS = 3
MIN_CYCLES = 3       # untraced cycles per run, even past --seconds
MIN_PAIRS = 1        # untraced + traced cycle pairs per traced run


def run_cycle(wl, first: int, tracer=None, probe=None):
    """One cycle of ops starting at op `first`; returns (op seconds, failures).
    With a probe, the host-speed probe runs after each op, untimed."""
    times, failed = [], 0
    if tracer is not None:
        tracer.install()
    try:
        for i in range(first, first + wl.cycle):
            if tracer is not None:
                tracer.op = i
            start = time.perf_counter()
            try:
                result = wl.op(i)
                took = time.perf_counter() - start
                ok = wl.check(i, result)
            except Exception:  # a crashing op is a failed op; keep measuring
                took = time.perf_counter() - start
                traceback.print_exc(file=sys.stderr)
                ok = False
            times.append(took)
            failed += not ok
            if probe is not None:
                probe.after(took)
    finally:
        if tracer is not None:
            tracer.remove()
    return times, failed


def measure(wl, seconds: float, probe, tracer=None):
    """Whole cycles until the next would end past `seconds` (at least the
    minimum), probing host speed before the first untraced op and after
    each.  With a tracer each unit is an untraced cycle followed by a traced
    cycle over the same ops.  Returns op times by kind and failures."""
    times = {"untraced": [], "traced": []}
    failed, units, longest, first = 0, 0, 0.0, 0
    minimum = MIN_CYCLES if tracer is None else MIN_PAIRS
    start = time.perf_counter()
    probe.after(0.0)
    while True:
        t0 = time.perf_counter()
        cycle_times, cycle_failed = run_cycle(wl, first, probe=probe)
        times["untraced"] += cycle_times
        failed += cycle_failed
        if tracer is not None:
            cycle_times, cycle_failed = run_cycle(wl, first, tracer)
            times["traced"] += cycle_times
            failed += cycle_failed
        first += wl.cycle
        units += 1
        longest = max(longest, time.perf_counter() - t0)
        if units >= minimum and time.perf_counter() - start + longest > seconds:
            return times, failed


def per_layer_metrics(spec, tracer, n_ops: int, overhead: float) -> dict:
    totals = tracer.totals()
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_frac":
            value = overhead
        else:
            span, field = name.rsplit(".", 1)
            calls, total, self_s, count = totals.get(span, (0, 0.0, 0.0, 0))
            per_op = {"calls": calls, "total_s": total, "self_s": self_s,
                      "elements": count, "events_replayed": count}
            if field == "ns_per_element":
                value = self_s / count * 1e9 if count else 0.0
            else:
                value = per_op[field] / n_ops
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    benchenv.bootstrap()
    with open(benchenv.SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    import workloads  # imports numpy, scipy and gssm: all counted in import_s
    from hostspeed import Probe
    from tracer import Tracer
    import_s = time.perf_counter() - _LAUNCHED

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    wl = workloads.WORKLOADS[args.workload](args.seed)

    # Set-up is imports and input generation, interpreter work for every
    # workload.  Probe group 0 follows the imports, group j set-up j.
    setup_probe = Probe("interp")
    setup_probe.after(import_s)
    prepare_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.prepare()
        prepare_s.append(time.perf_counter() - t0)
        setup_probe.after(prepare_s[-1])
    setup_s = import_s + statistics.median(prepare_s)
    # Timings as on a quiet host (see hostspeed.py); the raw ones go to details.
    quiet_setup_s = (import_s / setup_probe.factor(0, 1)
                     + statistics.median(t / setup_probe.factor(j)
                                         for j, t in enumerate(prepare_s)))

    tracer = Tracer() if args.trace else None
    probe = Probe(wl.probe)
    times, failed = measure(wl, args.seconds, probe, tracer)
    backend_ok = wl.final_check()
    if not backend_ok:
        failed += 1  # the op whose output the backend check compared
    untraced = times["untraced"]
    quiet = [t / probe.factor(i) for i, t in enumerate(untraced)]
    attempted = len(untraced) + len(times["traced"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    details = {"workload": args.workload, "seconds": args.seconds,
               "trace": args.trace, "environment": benchenv.environment(args.seed),
               "error_rate": failed / attempted, "op_samples": len(untraced),
               "op_p50_s": statistics.median(untraced), "op_times_s": untraced,
               "raw_ops_per_s": len(untraced) / sum(untraced), "raw_setup_s": setup_s,
               "quiet_op_times_s": quiet, "probe_s": probe.groups,
               "setup_probe_s": setup_probe.groups,
               "backends_agree": backend_ok, "setup_prepare_s": prepare_s,
               "import_s": import_s, **wl.info()}
    if tracer is None:
        values = {"setup_s": quiet_setup_s,
                  "ops_per_s": len(quiet) / sum(quiet),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    else:
        overhead = sum(times["traced"]) / sum(untraced) - 1.0
        metrics = per_layer_metrics(spec, tracer, len(times["traced"]), overhead)
        trace_path = benchenv.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        details["trace_file"] = str(trace_path.relative_to(benchenv.ROOT))
        details["spans"] = len(tracer.spans)

    print(json.dumps({"details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
