"""Worker processes: `_pool.forked`, the `run_experiment` fits and the
`gssm verify` suites it runs.

A process forks its worker processes once and keeps them, and a worker sees
the modules as they were at its fork, so the cases that start workers run
in a fresh interpreter (as `tests/test_imports.py` does): there the workers
start where the case says, with no other thread alive and no test's patches
in their copy of the modules.  The fallbacks to the plain path run here.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import pytest

from gssm import ModelConfig, _pool, harness, run_experiment
from gssm.harness import results_to_csv
from test_harness import _tiny_task_cfg
from test_imports import _ACCEPTANCE_CFG, _ROOT
from test_layers import _split


def _python(script, *args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=f"{_ROOT / 'src'}{os.pathsep}{_ROOT / 'tests'}")
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120, cwd=_ROOT)
    assert done.returncode == 0, done.stderr
    return done


# Prints this process's id, the (pid, cpus(), start, stop) of each part of
# two calls, and the worker pids after each.
_WHERE = """
import json, os, sys
from gssm import _pool
_pool.cpus = lambda: int(sys.argv[1])

def where(part):
    return [[os.getpid(), _pool.cpus(), part.start, part.stop]]

calls = []
for _ in range(2):
    calls.append([_pool.forked(where, _pool.ranges(4, 2)), sorted(_pool._processes._processes)])
print(json.dumps([os.getpid(), calls]))
"""


@pytest.mark.parametrize("cpus", [2, 4])
def test_a_part_runs_in_a_kept_worker_at_its_share_of_the_cpus(cpus):
    """The first part runs here and the second on a worker; each reads
    cpus() // 2 from `_pool.cpus()`, and both calls use the same workers."""
    me, calls = json.loads(_python(_WHERE, cpus).stdout)
    (first, workers), (again, same_workers) = calls
    assert len(workers) == cpus - 1 and same_workers == workers
    for parts in (first, again):
        (here, share_here, *cut_here), (there, share_there, *cut_there) = parts
        assert here == me and there in workers
        assert share_here == share_there == cpus // 2
        assert (cut_here, cut_there) == ([0, 2], [2, 4])


# Prints run_experiment's CSV digest on a small task at 1, 2 and 3 CPUs with
# every call split, after the unsplit default; then whether workers started.
_EXPERIMENT = """
import hashlib
from gssm import ModelConfig, _pool, run_experiment
from gssm.harness import results_to_csv
from test_harness import _tiny_task_cfg

def digest():
    rows = run_experiment([0, 1], task_cfg=_tiny_task_cfg(num_nodes=48),
                          model_cfg=ModelConfig(num_blocks=1, state_size=2), epochs=30)
    return hashlib.sha256(results_to_csv(rows).encode()).hexdigest()

digests = [digest()]
assert _pool._processes is None
_pool._SPLIT_WORK = 0
for cpus in (1, 2, 3):
    _pool.cpus = lambda: cpus
    digests.append(digest())
print(*digests, _pool._processes is not None)
"""


def test_run_experiment_split_over_workers_gives_the_unsplit_bytes():
    """Two seeds of four fits, cut into one, two and three parts: a part
    may hold some of a seed's fits, trained as one batch in a worker."""
    *digests, started = _python(_EXPERIMENT).stdout.split()
    assert len(set(digests)) == 1 and len(digests) == 4
    assert started == "True"


# Runs three parts, each but the first raising after 0.2 s (the first too,
# given "first"); prints the error raised and the files the parts left.
_ERRORS = """
import os, sys, time
from gssm import _pool
_pool.cpus = lambda: 3
first, out = sys.argv[1] == "first", sys.argv[2]

def fail(part):
    if part.start == 0:
        if first:
            raise ValueError("part 0")
        return []
    time.sleep(0.2)
    open(os.path.join(out, f"done-{part.start}"), "w").close()
    raise ValueError(f"part {part.start}")

try:
    _pool.forked(fail, _pool.ranges(3, 3))
except ValueError as exc:
    print(exc, *sorted(os.listdir(out)), sep=",")
"""


@pytest.mark.parametrize("first", ["first", "second"])
def test_a_worker_error_is_raised_once_every_part_has_finished(tmp_path, first):
    """The first failed part's error, in order, is raised, and only once
    both workers' parts have finished."""
    done = _python(_ERRORS, first, tmp_path)
    assert done.stdout.strip() == f"part {0 if first == 'first' else 1},done-1,done-2"


# `gssm <argv>` on two CPUs; prints the worker pids.
_RUN = """
import sys
from gssm import _pool
from gssm.cli import main
_pool.cpus = lambda: 2
assert main(sys.argv[1:]) == 0
print(*_pool._processes._processes)
"""


def test_gssm_run_on_two_cpus_keeps_its_digest_and_leaves_no_worker(tmp_path):
    out = tmp_path / "results.csv"
    done = _python(_RUN, "run", "--config", _ACCEPTANCE_CFG, "--out", out)
    assert done.stderr == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "c55dfaf09be1c645f548a14d95acc30ab542a01c5877012df6d015be2fec1b19")
    pids = [int(pid) for pid in done.stdout.splitlines()[-1].split()]
    assert len(pids) == 1
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


# `gssm verify <argv>` for each argv given (as JSON), on one CPU (the plain
# path) and then on two; prints both stdouts with each time= value masked,
# then whether workers started.
_VERIFY_BYTES = """
import contextlib, io, json, re, sys
from gssm import _pool
from gssm.cli import main

def masked(argv, cpus):
    _pool.cpus = lambda: cpus
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", *argv]) == 0
    return re.sub(r"time=\\S+s", "time=s", out.getvalue())

runs = [[masked(argv, 1), masked(argv, 2)] for argv in json.loads(sys.argv[1])]
print(json.dumps([runs, _pool._processes is not None]))
"""

_BENCH_OP = ["--config", str(_ACCEPTANCE_CFG), "--instances", "3", "--ode-steps", "50"]


def test_gssm_verify_split_over_a_worker_prints_the_plain_bytes():
    """The benchmark op at seeds 0-2, the acceptance config, and the config
    at alpha 0.5 (three suites): split, each prints what the plain path
    prints, but for the suites' own times."""
    argvs = [[*_BENCH_OP, "--seed", str(seed)] for seed in range(3)]
    argvs += [["--config", str(_ACCEPTANCE_CFG)],
              ["--config", str(_ACCEPTANCE_CFG), "--alpha", "0.5"]]
    runs, started = json.loads(_python(_VERIFY_BYTES, json.dumps(argvs)).stdout)
    assert started
    for (plain, split), suites in zip(runs, [4, 4, 4, 4, 3]):
        assert split == plain
        assert len(plain.splitlines()) == suites
        assert all(line.startswith("PASS ") for line in plain.splitlines())


# `gssm verify <argv>` twice on two CPUs, each range appending (pid, start,
# stop) to the file sys.argv[1]; prints this process's id and the worker
# pids after each call.
_VERIFY_WHERE = """
import json, os, sys
from gssm import _pool, verify
from gssm.cli import main
_pool.cpus = lambda: 2
real = verify.verify

def where(settings, part):
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()} {part.start} {part.stop}\\n")
    return real(settings, part)

verify.verify = where
calls = []
for _ in range(2):
    assert main(["verify", *sys.argv[2:]]) == 0
    calls.append(sorted(_pool._processes._processes))
print(json.dumps([os.getpid(), calls]))
"""


def test_gssm_verify_runs_its_second_range_on_the_one_kept_worker(tmp_path):
    log = tmp_path / "ranges"
    me, calls = json.loads(_python(_VERIFY_WHERE, log, *_BENCH_OP).stdout.splitlines()[-1])
    assert len(calls[0]) == 1 and calls[1] == calls[0]
    worker = calls[0][0]
    ranges = sorted(tuple(map(int, line.split())) for line in log.read_text().splitlines())
    here, there = (me, 0, 2), (worker, 2, 4)
    assert ranges == sorted([here, there] * 2)


# ---------------------------------------------------------------------------
# the plain path, where no worker can start

def _experiment_csv():
    return results_to_csv(run_experiment([0, 1], task_cfg=_tiny_task_cfg(num_nodes=48),
                                         model_cfg=ModelConfig(num_blocks=1, state_size=2),
                                         epochs=30))


@pytest.mark.parametrize("fallback", ["one part", "no fork", "live thread"])
def test_the_plain_path_gives_the_same_bytes_in_every_fallback(monkeypatch, fallback):
    """Where no worker can start, every job runs here as one range."""
    unsplit = _experiment_csv()
    monkeypatch.setattr(_pool, "_processes", None)
    parts, real = [], harness._experiment_rows

    def rows(*args):
        parts.append(args[-1])
        return real(*args)
    monkeypatch.setattr(harness, "_experiment_rows", rows)
    _split(monkeypatch, 1 if fallback == "one part" else 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if fallback == "no fork":  # with no other thread alive
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(threading, "active_count", lambda: 1)
    elif fallback == "live thread":
        thread.start()
    try:
        assert _experiment_csv() == unsplit
    finally:
        stop.set()
        if thread.is_alive():
            thread.join()
    assert parts == [slice(0, 8)]
    assert _pool._processes is None


def _where(part):
    return [(os.getpid(), part)]


def test_one_cpu_runs_the_parts_here_as_one_range(monkeypatch):
    monkeypatch.setattr(_pool, "_processes", None)
    monkeypatch.setattr(_pool, "cpus", lambda: 1)
    assert _pool.forked(_where, [slice(0, 2), slice(2, 4)]) == [(os.getpid(), slice(0, 4))]
    assert _pool._processes is None


def test_parts_on_three_threads_each_read_their_own_share(monkeypatch):
    """A part's share is set for the process, so parts on two threads of
    one process take turns; each reads its own, and the CPU count is back
    once they return."""
    monkeypatch.setattr(_pool, "cpus", lambda: 8)
    seen = {}

    def read(part):
        for _ in range(20):
            seen.setdefault(part, set()).add(_pool.cpus())
            time.sleep(1e-4)
        return []
    threads = [threading.Thread(target=_pool._at_share, args=(read, share, 0, share))
               for share in (1, 2, 3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert seen == {1: {1}, 2: {2}, 3: {3}}
    assert _pool.cpus() == 8
