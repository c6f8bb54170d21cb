"""Each subcommand loads only the scipy subpackages it uses, and none but a
split `run` or `verify` loads multiprocessing.

`import gssm` loads no scipy: `tgraph` and `hippo` import scipy.sparse and
`layers` scipy.special inside the functions that call them, and `verify`,
whose linear algebra runs on numpy's LAPACK, loads none.
Each case runs in a fresh interpreter, so the modules it lists are the
ones its own command loaded.  `gssm.__all__` names the public API, so the
API cannot grow unnoticed, and it covers every name the demos and the
acceptance tests import from `gssm`.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys
import types

import pytest

import gssm
from gssm.cli import main

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_ACCEPTANCE_CFG = _ROOT / "configs" / "acceptance.cfg"
_TINY_TASK = ["--v", "24", "--l", "4", "--d", "4", "--c", "3"]

# Prints the public scipy subpackages loaded once the command has run.
_LIST_SCIPY = """
import sys
from gssm.cli import main
assert main(sys.argv[1:]) == 0
print(" ".join(sorted(name for name, mod in list(sys.modules.items())
                      if name.startswith("scipy.") and name.count(".") == 1
                      and not name.startswith("scipy._") and hasattr(mod, "__path__"))))
"""


def _python(script, *args):
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()


# Each subcommand's argv ({tmp}: a directory holding the tiny task tiny.seq).
_ARGV = {
    "gen": ["gen", *_TINY_TASK, "--out", "{tmp}/g.seq"],
    "metrics": ["metrics", "{tmp}/tiny.seq"],
    "bench": ["bench", "--l-values", "16", "--lanes", "2", "--repeats", "1",
              "--out", "{tmp}/b.csv"],
    "verify": ["verify", "--config", str(_ACCEPTANCE_CFG), "--instances", "3",
               "--schedules", "10", "--ode-steps", "50"],
    "run": ["run", *_TINY_TASK, "--seeds", "0", "--epochs", "2", "--out", "{tmp}/r.csv"],
}


def _argv(tmp_path, capsys, command) -> list:
    """`command`'s argv in `tmp_path`, with the tiny task written there."""
    assert main(["gen", *_TINY_TASK, "--out", str(tmp_path / "tiny.seq")]) == 0
    capsys.readouterr()
    return [a.format(tmp=tmp_path) for a in _ARGV[command]]


@pytest.mark.parametrize("command, loaded", [
    ("gen", []), ("metrics", []), ("bench", []), ("verify", []),
    ("run", ["scipy.sparse", "scipy.special"]),
], ids=list(_ARGV))
def test_each_subcommand_loads_only_the_scipy_it_uses(tmp_path, capsys, command, loaded):
    assert _python(_LIST_SCIPY, *_argv(tmp_path, capsys, command)) == loaded


# Prints whether multiprocessing is loaded once the command, if any, has run.
_HAS_MULTIPROCESSING = """
import sys
import gssm
from gssm.cli import main
assert not sys.argv[1:] or main(sys.argv[1:]) == 0
print("multiprocessing" in sys.modules)
"""


@pytest.mark.parametrize("command", ["import", "gen", "metrics", "bench"])
def test_only_a_split_experiment_loads_multiprocessing(tmp_path, capsys, command):
    """`gssm._pool` imports it when it first forks its worker processes."""
    argv = [] if command == "import" else _argv(tmp_path, capsys, command)
    assert _python(_HAS_MULTIPROCESSING, *argv) == ["False"]


@pytest.mark.parametrize("ode_steps, loaded", [("50", "True"), ("20", "False")],
                         ids=["split", "one part"])
def test_a_split_verify_loads_multiprocessing_and_a_one_part_verify_does_not(
        ode_steps, loaded):
    """On two CPUs, one instance per suite at 20 RK4 steps per unit is work
    `_pool.parts` leaves in one part, so no worker forks; 50 steps split."""
    argv = ["verify", "--config", str(_ACCEPTANCE_CFG), "--instances", "1",
            "--schedules", "10", "--ode-steps", ode_steps]
    script = "from gssm import _pool\n_pool.cpus = lambda: 2\n" + _HAS_MULTIPROCESSING
    assert _python(script, *argv) == [loaded]


def test_expit_imported_first_on_two_pool_threads_keeps_the_forward_digest():
    """The first `apply_mix` of a process runs in each node range at once:
    the task of `test_block_forward_output_keeps_its_digest` (V=64, L=128)
    is over `_pool._SPLIT_WORK`, so on two CPUs both ranges import expit
    together, and the S4 output keeps its digest."""
    script = """
import hashlib, sys
import numpy as np
from gssm import (ModelConfig, SsmVariant, TaskConfig, _pool, block_forward, gen_synthetic,
                  named_rng, sample_model)
_pool.cpus = lambda: 2
task = gen_synthetic(0, TaskConfig(num_nodes=64, seq_len=128))
seq = task.sequence
hidden = np.stack([s.features for s in seq], axis=1)
model = sample_model(named_rng(0, "model"), ModelConfig(variant=SsmVariant.S4),
                     seq.num_features, len(seq))
assert "scipy.special" not in sys.modules
out = block_forward(hidden, seq, model)
assert _pool._executor._threads
print(hashlib.sha256(out.tobytes()).hexdigest())
"""
    assert _python(script) == [
        "348a19dc674dd13930b1291a6f08c5203a4c9ca01c7b7ac18566a6f94de4ec52"]


def test_gssm_all_names_every_public_name():
    """Every public name of the package namespace, submodules aside, is in
    `gssm.__all__` once, and every entry resolves."""
    public = {name for name, value in vars(gssm).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(gssm.__all__) == sorted(public)


def test_star_import_of_gssm_runs_under_warnings_as_errors():
    script = """
import warnings
warnings.simplefilter("error")
from gssm import *
print(block_forward.__module__)
"""
    assert _python(script) == ["gssm.layers"]


@pytest.mark.parametrize("path", sorted(_ROOT.glob("demos/*.py")) + [
    _ROOT / "tests" / "test_acceptance.py"], ids=lambda path: path.name)
def test_every_name_a_caller_imports_from_gssm_is_declared(path):
    names = [alias.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom) and node.module == "gssm"
             for alias in node.names]
    assert names
    assert [name for name in names if name not in gssm.__all__] == []
