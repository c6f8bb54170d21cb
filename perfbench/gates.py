"""Correctness gates applied to every benchmark op.

Each gate compares an op's output with references stored in `refs/`, at the
tolerances below.  Oracle errors and F1 values are gates, never metrics.

* experiment: the results CSV rows equal the stored rows for that seed --
  same (seed, variant, init) in the same order, F1 values within F1_ATOL.
  F1 on the 40-node test split moves in steps of about 1e-2, so any change
  of a prediction shows.  The CSV bytes are not compared: a byte digest is
  recorded for information only, because backends differ in the last bits.
* verify: exit code 0, a PASS line for every expected suite and no FAIL line
  (the CLI applies its own tolerances).
* forward: every output entry is finite and a seeded random projection of
  the output matches the stored one within PROJ_RTOL of its largest entry.
  Once per run the default backend must match backend="sequential" within
  BACKEND_RTOL of the sequential output's largest entry.
"""

import csv
import io

import numpy as np

F1_ATOL = 1e-12
PROJ_RTOL = 1e-9
BACKEND_RTOL = 1e-10
PROJ_ROWS = 4


def parse_rows(csv_text: str) -> list:
    """Results CSV rows as dicts with typed values (the stored reference form)."""
    return [{"seed": int(r["seed"]), "variant": r["variant"], "init": r["init"],
             "micro_f1": float(r["micro_f1"]), "macro_f1": float(r["macro_f1"])}
            for r in csv.DictReader(io.StringIO(csv_text))]


def experiment_rows_match(csv_text: str, ref_rows: list) -> bool:
    try:
        rows = parse_rows(csv_text)
    except (KeyError, TypeError, ValueError):
        return False
    if len(rows) != len(ref_rows):
        return False
    for got, want in zip(rows, ref_rows):
        if any(got[k] != want[k] for k in ("seed", "variant", "init")):
            return False
        if any(not abs(got[k] - want[k]) <= F1_ATOL for k in ("micro_f1", "macro_f1")):
            return False
    return True


def suite_status(stdout: str) -> dict:
    """Suite name -> "PASS"/"FAIL" from `gssm verify` output."""
    status = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0] in ("PASS", "FAIL"):
            status[parts[1]] = parts[0]
    return status


def verify_passed(returncode: int, stdout: str, suites) -> bool:
    status = suite_status(stdout)
    return (returncode == 0 and all(status.get(s) == "PASS" for s in suites)
            and "FAIL" not in status.values())


def projection_matrix(seed: int, size: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((PROJ_ROWS, size))


def project(out, matrix: np.ndarray) -> np.ndarray:
    return matrix @ np.asarray(out, dtype=float).ravel()


def projection_matches(out, matrix: np.ndarray, ref) -> bool:
    out = np.asarray(out, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if out.size != matrix.shape[1] or not np.all(np.isfinite(out)):
        return False
    return bool(np.max(np.abs(project(out, matrix) - ref)) <= PROJ_RTOL * np.max(np.abs(ref)))


def backends_agree(out, ref) -> bool:
    out = np.asarray(out, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if out.shape != ref.shape or not np.all(np.isfinite(out)):
        return False
    return bool(np.max(np.abs(out - ref)) <= BACKEND_RTOL * np.max(np.abs(ref)))
