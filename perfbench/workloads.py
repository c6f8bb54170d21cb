"""The four benchmark workloads.

Every op goes through a public entry point of gssm: the `gssm` CLI called
in-process through `gssm.cli.main`, or `gssm.layers.block_forward`.  All
workloads are closed-loop with one client: an op starts when the previous
one ends.  The program runs at its defaults (scan backend "parallel", one
scan thread), so a change of default shows up.

A workload's inputs come from the workload seed: the seed picks the order in
which ops walk a fixed pool of program seeds whose reference outputs are
stored in `refs/` (written by `make_refs.py`).

Protocol: `prepare()` is the set-up (loading references, generating inputs,
sampling models, warm-up) and may run several times; `op(i)` is the timed
call; `check(i, result)` gates it; `final_check()` runs once per run.
Ops come in cycles of `cycle` ops, and a run measures whole cycles.
`probe` names the host-speed probe chunk like the workload's own work
(see `hostspeed.py`).
"""

import contextlib
import hashlib
import io
import json
import random

import numpy as np
from gssm import cli, harness, layers

import gates
from benchenv import CONFIG, OUT_DIR, REFS_DIR

VARIANTS = ("s4", "s5", "s6")
# A verify op is kept near one second, so that a run holds many of them:
# three instances per suite are the fewest that reach every alpha of the
# criterion set {0, 0.5, 2} and both Laplacians, and 50 RK4 steps per time
# unit (the config has 200) keep every suite within its tolerance with
# orders of magnitude to spare (see max_err in refs/verify.json).
VERIFY_ARGS = ("--instances", 3, "--ode-steps", 50)


def load_refs(name: str) -> dict:
    with open(REFS_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def call_cli(argv) -> tuple:
    """`gssm <argv>` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def seed_order(pool, seed: int) -> list:
    """The pool in an order fixed by the workload seed."""
    order = sorted(pool)
    random.Random(seed).shuffle(order)
    return order


class Experiment:
    """`gssm run --config configs/acceptance.cfg --seeds <s>`: one seed of the
    acceptance experiment (V=200, L=16, S4, REPR_MIX, three inits plus the
    static baseline, so four readout fits).  What users run."""

    name = "experiment"
    cycle = 1
    probe = "interp"

    def __init__(self, seed: int):
        self.seed = seed
        self.csv_path = OUT_DIR / f"experiment-seed{seed}.csv"
        self.digest = None

    def prepare(self):
        refs = load_refs(self.name)
        self.rows = {int(s): gates.parse_rows(text) for s, text in refs["csv"].items()}
        self.order = seed_order(self.rows, self.seed)
        self.op(0)

    def op(self, i):
        s = self.order[i % len(self.order)]
        code, _, _ = call_cli(["run", "--config", CONFIG, "--seeds", s,
                               "--out", self.csv_path])
        return s, code

    def check(self, i, result) -> bool:
        s, code = result
        if code != 0:
            return False
        text = self.csv_path.read_text(encoding="ascii")
        if self.digest is None:
            self.digest = {"experiment_seed": s,
                           "sha256": hashlib.sha256(text.encode("ascii")).hexdigest()}
        return gates.experiment_rows_match(text, self.rows[s])

    def final_check(self) -> bool:
        return True

    def info(self) -> dict:
        return {"results_csv_digest": self.digest}


class Verify:
    """`gssm verify --config configs/acceptance.cfg --seed <s> --instances 3
    --ode-steps 50`: the only path through hippo, discretize's exact ZOH
    update and tgraph's event replay.  Instance sizes are drawn from the
    program seed, so a cycle walks every stored program seed (in an order
    set by the workload seed) and every run does the same work."""

    name = "verify"
    probe = "interp"

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self):
        refs = load_refs(self.name)
        self.suites = refs["suites"]
        self.order = seed_order(refs["seeds"], self.seed)
        self.cycle = len(self.order)
        # Warm-up: one instance per suite at alpha=0.5 (no reduction suite).
        call_cli(["verify", "--config", CONFIG, "--seed", self.order[0],
                  "--instances", 1, "--schedules", 10, "--alpha", 0.5])

    def op(self, i):
        return call_cli(["verify", "--config", CONFIG,
                         "--seed", self.order[i % self.cycle], *VERIFY_ARGS])

    def check(self, i, result) -> bool:
        code, out, _ = result
        return gates.verify_passed(code, out, self.suites)

    def final_check(self) -> bool:
        return True

    def info(self) -> dict:
        return {"verify_seeds": self.order}


def forward_inputs(task_seed: int, num_nodes: int, seq_len: int):
    """Synthetic task (snapshot sequence, stacked features [V x L x D]) and
    one two-block model per variant (N=6, REPR_MIX in the first block)."""
    task = harness.gen_synthetic(task_seed, harness.TaskConfig(num_nodes=num_nodes,
                                                               seq_len=seq_len))
    seq = task.sequence
    hidden = np.stack([s.features for s in seq], axis=1)
    models = [harness.sample_model(harness.named_rng(task_seed, "model"),
                                   harness.ModelConfig(variant=v),
                                   seq.num_features, seq_len)
              for v in VARIANTS]
    return seq, hidden, models


class Forward:
    """One `block_forward` per op over a pre-generated task; ops cycle
    through the S4, S5 and S6 models."""

    cycle = len(VARIANTS)

    def __init__(self, name: str, seed: int, num_nodes: int, seq_len: int,
                 probe: str):
        self.name = name
        self.probe = probe
        self.seed = seed
        self.num_nodes = num_nodes
        self.seq_len = seq_len
        self.inputs = None
        self.kept = None
        # The default-vs-sequential backend check runs on this op's output.
        self.check_op = seed % self.cycle

    def prepare(self):
        refs = load_refs(self.name)
        pool = [int(s) for s in refs["projections"]]
        self.task_seed = pool[self.seed % len(pool)]
        self.refs = refs["projections"][str(self.task_seed)]
        self.inputs = None  # release the previous set-up's task first
        self.inputs = forward_inputs(self.task_seed, self.num_nodes, self.seq_len)
        seq, hidden, _ = self.inputs
        self.matrix = gates.projection_matrix(refs["projection_seed"],
                                              hidden.size)
        # Warm-up on a small task: every variant's code path, little time.
        w_seq, w_hidden, w_models = forward_inputs(self.task_seed, 32, 4)
        for model in w_models:
            layers.block_forward(w_hidden, w_seq, model)

    def op(self, i):
        seq, hidden, models = self.inputs
        return layers.block_forward(hidden, seq, models[i % self.cycle])

    def check(self, i, out) -> bool:
        if i == self.check_op:
            self.kept = out
        return gates.projection_matches(out, self.matrix,
                                        self.refs[VARIANTS[i % self.cycle]])

    def final_check(self) -> bool:
        seq, hidden, models = self.inputs
        ref = layers.block_forward(hidden, seq, models[self.check_op],
                                   backend="sequential")
        return self.kept is not None and gates.backends_agree(self.kept, ref)

    def info(self) -> dict:
        return {"task_seed": self.task_seed, "nodes": self.num_nodes,
                "snapshots": self.seq_len,
                "backend_check_variant": VARIANTS[self.check_op]}


WORKLOADS = {
    "experiment": Experiment,
    "verify": Verify,
    # The ROADMAP's large-graph forward; dense graph diffusion dominates.
    "forward_wide": lambda seed: Forward("forward_wide", seed, 2000, 32, "stream"),
    # Few long lanes: the scan and per-step work dominate instead.
    "forward_long": lambda seed: Forward("forward_long", seed, 64, 1024, "interp"),
}
