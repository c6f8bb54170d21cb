"""The split rule: `_pool.parts` alone decides how many parts a call is cut
into, and no cut changes a byte of what the call returns or writes.

Every public call that `_pool.parts` sizes is run at the default, then with
`_pool.cpus` at 1, 2 and 3 and every call split (`_split`), and must give
the same bytes; the private passes and the task generator's reference are
checked the same way below the table."""

from __future__ import annotations

import ast
import dataclasses
import os
import pathlib
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from gssm import (
    GnnFlavor,
    MixMechanism,
    ModelConfig,
    SsmVariant,
    TaskConfig,
    block_forward,
    gen_synthetic,
    named_rng,
    run_experiment,
    sample_model,
    ssm_forward,
)
from gssm import _pool, harness, layers, tgraph
from gssm.cli import main
from gssm.harness import results_to_csv
from test_harness import _dense_gen_synthetic, _task_bytes, _tiny_task_cfg
from test_layers import (
    _SMALL_CAP,
    _gnn,
    _random_adjacency,
    _s4_params,
    _s5_params,
    _s6_mixed_selective_params,
    _s6_params,
    _sparse_sequence,
    _split,
)

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gssm"


# ---------------------------------------------------------------------------
# one rule, in one module

def test_only_pool_reads_the_cpu_count_or_holds_a_split_threshold():
    found = []
    for path in sorted(_SRC.glob("*.py")):
        if path.name == "_pool.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "cpus":
                found.append(f"{path.name}:{node.lineno} reads cpus")
            elif isinstance(node, ast.ImportFrom) and any(a.name == "cpus" for a in node.names):
                found.append(f"{path.name}:{node.lineno} imports cpus")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [f"{path.name}:{node.lineno} defines {t.id}" for t in targets
                          if isinstance(t, ast.Name) and t.id.startswith("_SPLIT_")]
    assert found == []


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_parts_is_one_under_the_threshold_and_the_cpu_count_from_it(monkeypatch, cpus):
    monkeypatch.setattr(_pool, "cpus", lambda: cpus)
    assert _pool.parts(0) == _pool.parts(_pool._SPLIT_WORK - 1) == 1
    assert _pool.parts(_pool._SPLIT_WORK) == _pool.parts(1 << 30) == cpus


def test_s4_s5_and_s6_on_one_sequence_build_its_blocks_once(monkeypatch):
    """Every variant sizes its layer by L*V*D*N, so on two CPUs all three cut
    the V=64, L=128 sequence into the same snapshot ranges, and the blocks
    the first forward builds serve every later one."""
    monkeypatch.setattr(_pool, "cpus", lambda: 2)
    built, real = [], tgraph._block_csr

    def block_csr(snaps):
        built.append(len(snaps))
        return real(snaps)
    monkeypatch.setattr(tgraph, "_block_csr", block_csr)
    seq = gen_synthetic(0, TaskConfig(num_nodes=64, seq_len=128)).sequence
    hidden = np.stack([s.features for s in seq], axis=1)
    models = [sample_model(named_rng(0, "model"), ModelConfig(variant=variant),
                           seq.num_features, len(seq)) for variant in SsmVariant]
    block_forward(hidden, seq, models[0])
    first = len(built)
    assert first > 0
    for model in models[1:] + models:
        block_forward(hidden, seq, model)
    assert len(built) == first


# ---------------------------------------------------------------------------
# every public call, however it is cut

def _small_task(tmp_path):
    return _task_bytes(gen_synthetic(3, _tiny_task_cfg()))


def _large_task(tmp_path):
    """A task over the threshold: split into one range per CPU by default."""
    assert 800 * 799 // 2 >= _pool._SPLIT_WORK
    return _task_bytes(gen_synthetic(4, TaskConfig(num_nodes=800, seq_len=3)))


def _forward(variant, mechanism, tmp_path):
    rng = np.random.default_rng(131)
    v, l, d = 50, 7, 8
    seq = _sparse_sequence(rng, v, l, d)
    hidden = rng.normal(size=(v, l, d))
    model = sample_model(rng, ModelConfig(variant=variant, mix_mechanism=mechanism), d, l)
    return block_forward(hidden, seq, model).tobytes()


def _experiment(tmp_path):
    return results_to_csv(run_experiment([0], task_cfg=_tiny_task_cfg(num_nodes=48),
                                         model_cfg=ModelConfig(num_blocks=1, state_size=2),
                                         epochs=30))


def _gssm_gen(tmp_path):
    out = tmp_path / "task.seq"
    assert main(["gen", "--seed", "3", "--out", str(out), "--v", "800", "--l", "2",
                 "--d", "4", "--c", "3"]) == 0
    return out.read_bytes(), pathlib.Path(f"{out}.labels").read_bytes()


_CALLS = {
    "gen_synthetic": _small_task,
    "gen_synthetic-large": _large_task,
    **{f"block_forward-{variant.value}-{mechanism.value}": partial(_forward, variant, mechanism)
       for variant in SsmVariant for mechanism in MixMechanism},
    "run_experiment": _experiment,
    "gssm-gen": _gssm_gen,
}


@pytest.mark.parametrize("call", list(_CALLS.values()), ids=list(_CALLS))
def test_a_public_call_gives_the_same_bytes_however_it_is_cut(monkeypatch, tmp_path, call):
    default = call(tmp_path)
    for cpus in (1, 2, 3):
        with monkeypatch.context() as patch:
            _split(patch, cpus)
            assert call(tmp_path) == default


# ---------------------------------------------------------------------------
# task generation against its reference

@pytest.mark.parametrize("seed, overrides", [
    (0, {}), (3, dict(num_nodes=64, seq_len=3)), (8, dict(num_nodes=97, seq_len=2, p_in=0.6)),
    (5, dict(num_nodes=40, seq_len=3, p_in=0.0, p_out=0.0)),
])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_gen_csr_build_equals_the_dense_build(monkeypatch, seed, overrides, cpus):
    """On one to three CPUs, with every task split and each range drawn 7
    pairs at a time: ranges that do not divide the pairs, and chunk edges
    inside a range."""
    _split(monkeypatch, cpus)
    monkeypatch.setattr(harness, "_CHUNK_PAIRS", 7)
    cfg = _tiny_task_cfg(**overrides)
    task = gen_synthetic(seed, cfg)
    seq, labels, split = _dense_gen_synthetic(seed, cfg)
    assert task.sequence == seq
    for got, want in zip(task.sequence, seq):
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.features, want.features)
        assert got.timestamp == want.timestamp
    assert np.array_equal(task.labels, labels)
    for got, want in zip(task.split, split):
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# the layer's passes against the one-range pass

@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_sequence_blocks_do_not_depend_on_the_cpu_count(monkeypatch, cpus):
    monkeypatch.setattr(tgraph, "_RUN_ENTRIES", _SMALL_CAP)
    ranges = [slice(0, 4), slice(4, 7)]

    def blocks():
        seq = _sparse_sequence(np.random.default_rng(19), 6, 7, 2)
        return [(b.shape, b.indptr.tobytes(), b.indices.tobytes())
                for own in seq.csr_blocks(ranges) for b in own]
    one = blocks()
    monkeypatch.setattr(_pool, "cpus", lambda: cpus)
    assert blocks() == one


def _graph_cuts(monkeypatch) -> list:
    """The list each `SnapshotSequence.csr_blocks` call appends its ranges to."""
    cuts, real = [], tgraph.SnapshotSequence.csr_blocks

    def csr_blocks(self, ranges):
        cuts.append(list(ranges))
        return real(self, ranges)
    monkeypatch.setattr(tgraph.SnapshotSequence, "csr_blocks", csr_blocks)
    return cuts


def _denser_first_half(rng, v, l, d):
    """Snapshots whose first half holds about twice the edges of the second."""
    return tgraph.SnapshotSequence(tuple(
        tgraph.Snapshot(_random_adjacency(rng, v, p=0.5 if step < l // 2 else 0.25),
                        rng.normal(size=(v, d)), float(step)) for step in range(l)))


def test_graph_pass_cuts_the_snapshots_by_stored_entries_and_rows(monkeypatch):
    """Each snapshot weighs its stored entries plus `_ROW_PASSES` per node, so
    a sequence denser at the front is cut ahead of the count cut."""
    rng = np.random.default_rng(137)
    v, l, d, n = 30, 10, 3, 4
    seq = _denser_first_half(rng, v, l, d)
    weights = [snap.indices.size + layers._ROW_PASSES * v for snap in seq]
    assert _pool.ranges(l, 2, weights=weights) != _pool.ranges(l, 2)
    cuts = _graph_cuts(monkeypatch)
    layers._graph_pass(seq, rng.normal(size=(l, v, d)), _s6_params(rng, d, n),
                       MixMechanism.ORDINARY, 2)
    assert cuts == [_pool.ranges(l, 2, weights=weights)]


@pytest.mark.parametrize("parts", [2, 3])
def test_a_denser_first_half_is_cut_early_and_keeps_the_one_range_bytes(monkeypatch, parts):
    monkeypatch.setattr(tgraph, "_RUN_ENTRIES", 4 * _SMALL_CAP)
    rng = np.random.default_rng(139)
    v, l, d, n = 40, 12, 3, 4
    seq = _denser_first_half(rng, v, l, d)
    hidden = rng.normal(size=(v, l, d))
    p = _s6_mixed_selective_params(rng, d, n, MixMechanism.REPR_MIX)
    _split(monkeypatch, 1)
    one = ssm_forward(seq, hidden, p)
    _split(monkeypatch, parts)
    cuts = _graph_cuts(monkeypatch)
    assert ssm_forward(seq, hidden, p).tobytes() == one.tobytes()
    (cut,) = cuts
    assert len(cut) == parts
    assert cut[0].stop < _pool.ranges(l, parts)[0].stop <= l // 2   # the midpoint at two parts


@pytest.mark.parametrize("v, parts", [(1, 2), (37, 2), (50, 3)])
@pytest.mark.parametrize("mechanism", list(MixMechanism))
@pytest.mark.parametrize("build", [_s4_params, _s5_params, _s6_params,
                                   _s6_mixed_selective_params])
def test_partitioned_forward_equals_the_one_range_forward(monkeypatch, build, mechanism,
                                                          v, parts):
    """Node ranges that do not divide V (one range at V=1), each in ragged
    tiles of two snapshots over an operator of several blocks, give the
    one-range bytes.  S4's and S5's delta map gets unit weights and no bias,
    so that a last-bit change in its matrix-vector product is not rounded
    away by the bias: ranges cut at any row (not at multiples of
    `_ROW_ALIGN`) fail here."""
    monkeypatch.setattr(tgraph, "_RUN_ENTRIES", _SMALL_CAP)
    rng = np.random.default_rng(97)
    l, d, n = 7, 8, 4
    seq = _sparse_sequence(rng, v, l, d)
    hidden = rng.normal(size=(v, l, d))
    p = build(rng, d, n, mechanism=mechanism)
    if p.variant is not SsmVariant.S6:
        p = dataclasses.replace(p, delta_weight=rng.normal(size=d), delta_bias=0.0)
    monkeypatch.setattr(layers, "_TILE_ELEMENTS", 2 * v * p.a.size)
    _split(monkeypatch, 1)
    one = ssm_forward(seq, hidden, p)
    _split(monkeypatch, parts)
    assert ssm_forward(seq, hidden, p).tobytes() == one.tobytes()


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("mechanism", list(MixMechanism))
@pytest.mark.parametrize("flavor", list(GnnFlavor))
def test_partitioned_graph_pass_equals_the_one_range_pass(monkeypatch, flavor, mechanism, parts):
    """The graph pass run one snapshot range per part, each with its own
    blocks, gives the bytes of the one-range pass over one block, isolated
    nodes, an edgeless snapshot and S6's three selective keys (one shared
    with p.gnn) included."""
    v, l, d, n = 6, 11, 3, 4

    def graph_pass(cpus):
        _split(monkeypatch, cpus)
        rng = np.random.default_rng(113)
        seq = _sparse_sequence(rng, v, l, d)
        hidden = rng.normal(size=(v, l, d))
        p = dataclasses.replace(_s6_mixed_selective_params(rng, d, n, mechanism),
                                gnn=_gnn(rng, d, d, flavor=flavor, self_mix=0.3))
        return layers._graph_pass(seq, np.moveaxis(hidden, 1, 0), p, mechanism, cpus)
    one = graph_pass(1)
    split = graph_pass(parts)
    assert len(split) == len(one) == 4
    assert all(a.tobytes() == b.tobytes() for a, b in zip(split, one))


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("first_only", [True, False], ids=["first_block_mixing", "all_mixing"])
@pytest.mark.parametrize("residual", ["identity", "weight", "bias", "affine"])
@pytest.mark.parametrize("variant", list(SsmVariant))
def test_partitioned_block_forward_equals_the_one_range_forward(monkeypatch, variant, residual,
                                                                first_only, parts):
    """Each node range finishes its own rows of a block (ReLU, residual,
    S6's layer norm) and gives the one-range bytes, with the second block's
    mixing demoted (the default) or live."""
    v, l, d = 50, 7, 8

    def forward(cpus):
        _split(monkeypatch, cpus)
        rng = np.random.default_rng(127)
        seq = _sparse_sequence(rng, v, l, d)
        hidden = rng.normal(size=(v, l, d))
        cfg = ModelConfig(variant=variant, mix_mechanism=MixMechanism.REPR_MIX)
        blocks = [dataclasses.replace(
            blk, res_weight=blk.res_weight if residual in ("weight", "affine") else None,
            res_bias=rng.normal(size=d) if residual in ("bias", "affine") else None)
            for blk in sample_model(rng, cfg, d, l)]
        return block_forward(hidden, seq, blocks, first_block_mixing_only=first_only)
    one = forward(1)
    assert len(_pool.ranges(v, parts, layers._ROW_ALIGN)) == parts
    assert forward(parts).tobytes() == one.tobytes()


# Comparisons that hold bit for bit on any BLAS kernel: the split against
# one range, the readout against its plain loop, and the forward against its
# stepwise and per-snapshot references.
_ANY_KERNEL_CASES = (
    "test_split.py::test_partitioned_block_forward_equals_the_one_range_forward",
    "test_harness.py::test_readout_equals_the_plain_last_axis_loop",
    "test_layers.py::test_forward_equals_the_stepwise_reference",
    "test_layers.py::test_block_forward_equals_the_per_snapshot_blocks",
    "test_layers.py::test_tiled_forward_equals_the_stepwise_reference",
)


def test_partitioned_block_forward_equals_the_one_range_forward_on_a_second_blas_kernel():
    """The comparisons of `_ANY_KERNEL_CASES`, run again in a fresh process
    on OpenBLAS's Sandybridge kernel.  That kernel rounds some products
    unlike the default one on AVX-512 hosts, so the pinned digests hold on
    one kernel only, but a split must give the one-range bytes, and a fast
    path its reference's bytes, on any kernel."""
    tests = pathlib.Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_CORETYPE="Sandybridge")
    done = subprocess.run([sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
                           *(str(tests / case) for case in _ANY_KERNEL_CASES)],
                          cwd=_SRC.parent.parent, env=env, capture_output=True, text=True,
                          timeout=300)
    if "openblas core: Sandybridge" not in done.stdout:
        pytest.skip("numpy's OpenBLAS does not report running its Sandybridge kernel here")
    assert done.returncode == 0, done.stdout[-3000:]


def test_many_ranges_under_fast_thread_switching_equal_one_range(monkeypatch):
    """Five ranges, queued on a pool of fewer threads on hosts of up to five
    CPUs, with the interpreter switching threads every microsecond: every
    range still writes exactly its own rows."""
    monkeypatch.setattr(tgraph, "_RUN_ENTRIES", _SMALL_CAP)
    rng = np.random.default_rng(101)
    v, l, d, n = 83, 9, 8, 4
    seq = _sparse_sequence(rng, v, l, d)
    hidden = rng.normal(size=(v, l, d))
    p = _s6_mixed_selective_params(rng, d, n, MixMechanism.REPR_MIX)
    monkeypatch.setattr(layers, "_TILE_ELEMENTS", 2 * v * p.a.size)
    _split(monkeypatch, 1)
    one = ssm_forward(seq, hidden, p)
    _split(monkeypatch, 5)
    assert len(_pool.ranges(v, 5, layers._ROW_ALIGN)) == 5
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outs = [ssm_forward(seq, hidden, p) for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    assert all(out.tobytes() == one.tobytes() for out in outs)
