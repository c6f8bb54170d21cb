"""The benchmark's correctness gates pass their self-test against the package
in `src/`, so a change that breaks a call the benchmark makes fails here
before a benchmark run does.  The self-test writes only to `.bench_out/`."""
from __future__ import annotations

import pathlib
import re
import subprocess
import sys

_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_benchmark_gate_case_behaves():
    done = subprocess.run([sys.executable, str(_ROOT / "perfbench" / "selftest.py")],
                          cwd=_ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert not [ln for ln in lines if ln.startswith("FAIL")], done.stdout
    summary = re.fullmatch(r"(\d+)/(\d+) gate cases behave", lines[-1])
    assert summary and summary[1] == summary[2] and int(summary[2]) > 0, done.stdout
