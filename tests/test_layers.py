from __future__ import annotations

import dataclasses
import math
import os
import sys
import threading
import time
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gssm import (
    BlockParams,
    GnnFlavor,
    GnnParams,
    InitStrategy,
    InterpMixParams,
    LaplacianKind,
    MixMechanism,
    ModelConfig,
    Snapshot,
    SnapshotSequence,
    SsmLayerParams,
    SsmVariant,
    StateInitRule,
    align_memory,
    apply_mix,
    block_forward,
    delta_bias_init,
    gnn_diffuse,
    glorot,
    init_a,
    laplacian,
    mixed_estimate,
    sample_model,
    softplus,
    ssm_forward,
)
from gssm import _pool, layers, tgraph
from gssm.layers import layer_norm
from gssm.scan import RecurrenceInputs, run_scan, scan_sequential


def _random_adjacency(rng, v, p=0.4):
    adj = rng.random((v, v)) < p
    adj = np.triu(adj, 1)
    return adj | adj.T


def _sequence(rng, v, l, d):
    snaps = []
    for step in range(l):
        snaps.append(
            Snapshot(
                adjacency=_random_adjacency(rng, v),
                features=rng.normal(size=(v, d)),
                timestamp=float(step + 1),
            )
        )
    return SnapshotSequence(snapshots=tuple(snaps))


def _sparse_sequence(rng, v, l, d):
    """Snapshots with isolated nodes; the second one has no edges at all."""
    snaps = []
    for step in range(l):
        adj = _random_adjacency(rng, v, p=0.3)
        lonely = rng.random(v) < 0.3
        adj[lonely] = False
        adj[:, lonely] = False
        if step == 1:
            adj[:] = False
        snaps.append(Snapshot(adjacency=adj, features=rng.normal(size=(v, d)),
                              timestamp=float(step + 1)))
    return SnapshotSequence(snapshots=tuple(snaps))


# A run cap that splits a `_sparse_sequence` of 6 nodes into blocks of one to
# a few snapshots.
_SMALL_CAP = 12


def _drive_estimates(seq, hidden_in, p, mechanism):
    """Mixed-and-diffused layer inputs H_l, stacked into [L x V x D]: the
    forward's drive with the whole sequence as one range and one tile."""
    mechanism = MixMechanism(mechanism)
    agg = layers._graph_pass(seq, np.moveaxis(hidden_in, 1, 0), p, mechanism, 1)[0]
    return layers._drive(agg, slice(0, len(seq)), slice(None), p, mechanism)


def _gnn(rng, d_in, d_out, flavor=GnnFlavor.GCN_LIKE, self_mix=0.5):
    return GnnParams(
        weight=glorot(rng, (d_in, d_out)),
        bias=0.1 * rng.normal(size=d_out),
        flavor=flavor,
        self_mix=self_mix,
    )


def _interp(rng, d):
    return InterpMixParams(
        w_scale=glorot(rng, (2 * d, d)),
        b_scale=np.zeros(d),
        w_blend=glorot(rng, (2 * d, d)),
        b_blend=np.zeros(d),
    )


def _s4_params(rng, d, n, mechanism=MixMechanism.ORDINARY, seq_len=8):
    return SsmLayerParams(
        variant=SsmVariant.S4,
        a=init_a(InitStrategy.S4D_REAL, (d, n)),
        gnn=_gnn(rng, d, d),
        b=np.ones((d, n)),
        c=glorot(rng, (d, n)),
        delta_weight=0.1 * rng.normal(size=d),
        delta_bias=delta_bias_init(seq_len),
        mix=_interp(rng, d),
        mix_mechanism=mechanism,
    )


def _s5_params(rng, d, n, mechanism=MixMechanism.ORDINARY, seq_len=8):
    return SsmLayerParams(
        variant=SsmVariant.S5,
        a=init_a(InitStrategy.S4D_REAL, (n,)),
        gnn=_gnn(rng, d, d),
        b=glorot(rng, (d, n)),
        c=glorot(rng, (n, d)),
        delta_weight=0.1 * rng.normal(size=d),
        delta_bias=delta_bias_init(seq_len),
        mix=_interp(rng, d),
        mix_mechanism=mechanism,
    )


def _s6_params(rng, d, n, mechanism=MixMechanism.ORDINARY):
    return SsmLayerParams(
        variant=SsmVariant.S6,
        a=init_a(InitStrategy.S4D_CONST, (d, n)),
        gnn=_gnn(rng, d, d),
        delta_bias=np.full(d, delta_bias_init(8)),
        mix=_interp(rng, d),
        mix_mechanism=mechanism,
        gnn_delta=_gnn(rng, d, d),
        gnn_b=_gnn(rng, d, n),
        gnn_c=_gnn(rng, d, n),
    )


_PARAMS = {SsmVariant.S4: _s4_params, SsmVariant.S5: _s5_params, SsmVariant.S6: _s6_params}


# ---------------------------------------------------------------------------
# diffusion


def test_diffuse_edgeless_identity_weights_pass_through():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 3))
    snap = Snapshot(adjacency=np.zeros((4, 4), dtype=bool), features=x, timestamp=0.0)
    p = GnnParams(weight=np.eye(3), bias=np.zeros(3), self_mix=0.9)
    assert np.array_equal(gnn_diffuse(x, snap, p), x)


def test_diffuse_star_mean_aggregation_at_full_mix():
    adj = np.zeros((4, 4), dtype=bool)
    for leaf in (1, 2, 3):
        adj[0, leaf] = adj[leaf, 0] = True
    x = np.array([[9.0, 9.0], [1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    snap = Snapshot(adjacency=adj, features=x, timestamp=0.0)
    p = GnnParams(weight=np.eye(2), bias=np.zeros(2), flavor=GnnFlavor.SAGE_MEAN_LIKE,
                  self_mix=1.0)
    out = gnn_diffuse(x, snap, p)
    assert out[0] == pytest.approx(np.array([3.0, 4.0]))  # mean of the leaves
    assert out[1] == pytest.approx(np.array([9.0, 9.0]))  # leaf sees only the center


def test_diffuse_zero_input_zero_bias_gives_zero():
    rng = np.random.default_rng(2)
    snap = Snapshot(adjacency=_random_adjacency(rng, 5), features=np.zeros((5, 2)),
                    timestamp=0.0)
    p = GnnParams(weight=rng.normal(size=(2, 3)), bias=np.zeros(3))
    assert np.array_equal(gnn_diffuse(np.zeros((5, 2)), snap, p), np.zeros((5, 3)))


def test_diffuse_single_edge_gcn_blends_neighbors():
    adj = np.array([[False, True], [True, False]])
    x = np.array([[2.0], [6.0]])
    snap = Snapshot(adjacency=adj, features=x, timestamp=0.0)
    p = GnnParams(weight=np.eye(1), bias=np.zeros(1), self_mix=0.5)
    # degree-1 nodes: aggregate is exactly the neighbor, so output = midpoint
    assert gnn_diffuse(x, snap, p) == pytest.approx(np.array([[4.0], [4.0]]))


def test_diffuse_rejects_wrong_input_width():
    snap = Snapshot(adjacency=np.zeros((2, 2), dtype=bool), features=np.zeros((2, 1)),
                    timestamp=0.0)
    p = GnnParams(weight=np.eye(3), bias=np.zeros(3))
    with pytest.raises(ValueError):
        gnn_diffuse(np.zeros((2, 2)), snap, p)


def _dense_gnn_diffuse(x, adjacency, p):
    """Reference diffusion over the dense adjacency (the pre-CSR implementation)."""
    adj = np.asarray(adjacency).astype(float)
    deg = adj.sum(axis=1)
    nz = deg > 0
    if p.flavor is GnnFlavor.GCN_LIKE:
        dis = np.zeros_like(deg)
        dis[nz] = 1.0 / np.sqrt(deg[nz])
        agg = dis[:, None] * (adj @ (dis[:, None] * x))
    else:
        agg = np.zeros_like(x)
        agg[nz] = (adj @ x)[nz] / deg[nz, None]
    h = np.where(nz[:, None], (1.0 - p.self_mix) * x + p.self_mix * agg, x)
    return h @ p.weight + p.bias


@st.composite
def _graphs(draw, max_nodes=12):
    """Random symmetric adjacencies; some edgeless, most with isolated nodes."""
    v = draw(st.integers(1, max_nodes))
    pairs = [(i, j) for i in range(v) for j in range(i + 1, v)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    adj = np.zeros((v, v), dtype=bool)
    for (i, j), on in zip(pairs, present):
        adj[i, j] = adj[j, i] = on
    for node in draw(st.lists(st.integers(0, v - 1), max_size=v)):
        adj[node, :] = adj[:, node] = False
    return adj


@settings(max_examples=200, deadline=None)
@given(adj=_graphs(), flavor=st.sampled_from(list(GnnFlavor)),
       self_mix=st.floats(0.0, 1.0), d_in=st.integers(1, 4), d_out=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
@example(adj=np.zeros((5, 5), dtype=bool), flavor=GnnFlavor.SAGE_MEAN_LIKE, self_mix=1.0,
         d_in=2, d_out=3, seed=0)
@example(adj=np.array([[0, 1, 1, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]], dtype=bool),
         flavor=GnnFlavor.GCN_LIKE, self_mix=0.7, d_in=3, d_out=2, seed=1)
def test_diffuse_matches_the_dense_reference(adj, flavor, self_mix, d_in, d_out, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(adj.shape[0], d_in))
    snap = Snapshot(adjacency=adj, features=x, timestamp=0.0)
    p = GnnParams(weight=rng.normal(size=(d_in, d_out)), bias=rng.normal(size=d_out),
                  flavor=flavor, self_mix=self_mix)
    ref = _dense_gnn_diffuse(x, adj, p)
    out = gnn_diffuse(x, snap, p)
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=150, deadline=None)
@given(adj=_graphs(), flavor=st.sampled_from(list(GnnFlavor)),
       self_mix=st.floats(0.0, 1.0), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_diffuse_is_the_first_order_laplacian_smoother(adj, flavor, self_mix, d, seed):
    """Identity weight, zero bias: gnn_diffuse(x) = x - self_mix * L x, with L
    the symmetric Laplacian for GcnLike and the random-walk one for SageMeanLike."""
    kind = {GnnFlavor.GCN_LIKE: LaplacianKind.SYMMETRIC,
            GnnFlavor.SAGE_MEAN_LIKE: LaplacianKind.RANDOM_WALK}[flavor]
    x = np.random.default_rng(seed).normal(size=(adj.shape[0], d))
    snap = Snapshot(adjacency=adj, features=x, timestamp=0.0)
    p = GnnParams(weight=np.eye(d), bias=np.zeros(d), flavor=flavor, self_mix=self_mix)
    smoothed = x - self_mix * (laplacian(adj, kind) @ x)
    assert np.max(np.abs(gnn_diffuse(x, snap, p) - smoothed)) <= 1e-12


@pytest.mark.parametrize("flavor", list(GnnFlavor))
def test_diffuse_equals_the_graph_pass_of_a_one_snapshot_sequence(flavor):
    rng = np.random.default_rng(11)
    d = 3
    p = dataclasses.replace(_s4_params(rng, d, 2), gnn=_gnn(rng, d, d, flavor=flavor))
    for snap in _sparse_sequence(rng, 6, 4, d):
        x = rng.normal(size=(6, d))
        one = SnapshotSequence((snap,))
        drive = _drive_estimates(one, x[:, None, :], p, MixMechanism.ORDINARY)
        assert gnn_diffuse(x, snap, p.gnn).tobytes() == drive[0].tobytes()


def test_a_snapshot_keeps_no_operator_and_compares_by_value():
    names = [f.name for f in dataclasses.fields(Snapshot)]
    assert names == ["indptr", "indices", "features", "timestamp"]
    # Single-node snapshots compare by value (size-1 arrays have a truth value).
    first = Snapshot(adjacency=np.zeros((1, 1), dtype=bool), features=[[2.0]], timestamp=1.0)
    second = Snapshot(adjacency=np.zeros((1, 1), dtype=bool), features=[[2.0]], timestamp=1.0)
    other = Snapshot(adjacency=np.zeros((1, 1), dtype=bool), features=[[3.0]], timestamp=1.0)
    assert first == second and first != other
    gnn_diffuse(first.features, first, GnnParams(weight=np.eye(1), bias=np.zeros(1)))
    assert sorted(vars(first)) == sorted(names)
    assert first == second and first != other


def _whole(seq):
    """The CSR blocks of a sequence cut as one range."""
    (blocks,) = seq.csr_blocks([slice(0, len(seq))])
    return blocks


@pytest.mark.parametrize("cap", [None, 0, _SMALL_CAP])
def test_sequence_builds_its_blocks_once_per_cut(monkeypatch, cap):
    if cap is not None:
        monkeypatch.setattr(tgraph, "_RUN_ENTRIES", cap)
    rng = np.random.default_rng(13)
    seq = _sparse_sequence(rng, 6, 7, 2)
    hidden = rng.normal(size=(6, 7, 2))
    blocks = _whole(seq)
    p = _s4_params(rng, 2, 3, mechanism=MixMechanism.REPR_MIX)
    for flavor in GnnFlavor:
        _drive_estimates(seq, hidden, dataclasses.replace(p, gnn=_gnn(rng, 2, 2, flavor=flavor)),
                         p.mix_mechanism)
    assert all(a is b for a, b in zip(_whole(seq), blocks, strict=True))
    assert np.array_equal(scipy.sparse.block_diag(blocks).toarray(),
                          scipy.linalg.block_diag(*(s.adjacency for s in seq)))
    for block in blocks:
        assert block.indices.dtype == np.int32 and block.indptr.dtype == np.int32
        assert not any(a.flags.writeable for a in (block.data, block.indices, block.indptr))


@pytest.mark.parametrize("cut", [[7], [3, 7], [1, 4, 7], [2, 3, 5, 7]])
@pytest.mark.parametrize("cap", [0, _SMALL_CAP, 30, tgraph._RUN_ENTRIES])
def test_sequence_blocks_cover_each_range_and_close_only_before_the_cap(monkeypatch, cap, cut):
    """Each range's blocks are exactly its snapshots' adjacencies along the
    diagonal; a block closes only where the next snapshot would take it past
    the cap, or at the end of its range; a lone snapshot's block shares that
    snapshot's indptr and indices, so a large graph's blocks hold no copy of
    its pattern."""
    monkeypatch.setattr(tgraph, "_RUN_ENTRIES", cap)
    seq = _sparse_sequence(np.random.default_rng(17), 6, 7, 2)
    counts = [np.count_nonzero(s.adjacency) for s in seq]
    ranges = [slice(a, b) for a, b in zip([0] + cut, cut)]
    per_range = seq.csr_blocks(ranges)
    assert len(per_range) == len(ranges)
    for t, blocks in zip(ranges, per_range):
        assert np.array_equal(scipy.sparse.block_diag(blocks).toarray(),
                              scipy.linalg.block_diag(*(s.adjacency for s in seq[t])))
        start = t.start
        for block in blocks:
            size = block.shape[0] // 6
            assert size >= 1 and block.shape[0] == 6 * size
            assert size == 1 or sum(counts[start:start + size]) <= cap
            if start + size < t.stop:  # closed early: the next snapshot would pass the cap
                assert sum(counts[start:start + size + 1]) > cap
            if size == 1:
                assert np.shares_memory(block.indptr, seq[start].indptr)
                assert (np.shares_memory(block.indices, seq[start].indices)
                        or not block.indices.size)  # an empty array shares no memory
            start += size
        assert start == t.stop


def test_a_new_cut_replaces_the_cached_blocks(monkeypatch):
    """The same cut returns the same blocks; another cut releases them, so
    a sequence holds one cut's blocks at a time."""
    monkeypatch.setattr(tgraph, "_RUN_ENTRIES", 30)
    seq = _sparse_sequence(np.random.default_rng(23), 6, 7, 2)
    halves = [slice(0, 3), slice(3, 7)]
    first, again = seq.csr_blocks(halves), seq.csr_blocks(halves)
    assert [list(map(id, own)) for own in again] == [list(map(id, own)) for own in first]
    joined = [weakref.ref(b) for own in first for b in own if b.shape[0] > 6]
    assert joined  # blocks of several snapshots, held by the sequence alone
    del first, again
    (whole,) = seq.csr_blocks([slice(0, 7)])
    assert all(ref() is None for ref in joined)
    assert np.array_equal(scipy.sparse.block_diag(whole).toarray(),
                          scipy.linalg.block_diag(*(s.adjacency for s in seq)))


@pytest.mark.parametrize("ranges", [[], [slice(0, 3)], [slice(0, 3), slice(4, 7)],
                                    [slice(0, 4), slice(3, 7)], [slice(0, 0), slice(0, 7)],
                                    [slice(None)], [slice(0, 8)]],
                         ids=["none", "short", "gap", "overlap", "empty", "open", "long"])
def test_sequence_blocks_reject_a_cut_that_is_not_a_partition(ranges):
    seq = _sparse_sequence(np.random.default_rng(29), 6, 7, 2)
    with pytest.raises(ValueError, match="ranges must cut range"):
        seq.csr_blocks(ranges)


def test_sequence_equality_ignores_the_cached_operator():
    assert [f.name for f in dataclasses.fields(SnapshotSequence)] == ["snapshots"]

    def single_node(value):
        return SnapshotSequence(tuple(
            Snapshot(adjacency=np.zeros((1, 1), dtype=bool), features=[[value]], timestamp=t)
            for t in (1.0, 2.0)))

    first, second, other = single_node(2.0), single_node(2.0), single_node(3.0)
    assert first == second and first != other
    first.csr_blocks([slice(0, 1), slice(1, 2)])
    assert first == second and first != other


def test_gnn_params_reject_out_of_range_self_mix():
    with pytest.raises(ValueError):
        GnnParams(weight=np.eye(2), bias=np.zeros(2), self_mix=1.5)


# ---------------------------------------------------------------------------
# mixing


def test_interp_mix_zero_parameters_scale_the_average_by_log_two():
    rng = np.random.default_rng(5)
    z1, z2 = rng.normal(size=(2, 6, 4))
    p = InterpMixParams(w_scale=np.zeros((8, 4)), b_scale=np.zeros(4),
                        w_blend=np.zeros((8, 4)), b_blend=np.zeros(4))
    assert apply_mix(z1, z2, p) == pytest.approx(math.log(2.0) * 0.5 * (z1 + z2))


def test_interp_mix_saturated_blend_selects_first_argument():
    rng = np.random.default_rng(7)
    z1, z2 = rng.normal(size=(2, 5, 3))
    p = InterpMixParams(w_scale=np.zeros((6, 3)), b_scale=np.zeros(3),
                        w_blend=np.zeros((6, 3)), b_blend=np.full(3, 50.0))
    assert apply_mix(z1, z2, p) == pytest.approx(math.log(2.0) * z1, abs=1e-12)


def test_interp_mix_equal_inputs_ignore_the_blend():
    rng = np.random.default_rng(9)
    z = rng.normal(size=(4, 3))
    shared = dict(w_scale=glorot(rng, (6, 3)), b_scale=rng.normal(size=3),
                  w_blend=glorot(rng, (6, 3)))
    lo = apply_mix(z, z, InterpMixParams(b_blend=np.full(3, -4.0), **shared))
    hi = apply_mix(z, z, InterpMixParams(b_blend=np.full(3, 4.0), **shared))
    assert lo == pytest.approx(hi, abs=1e-12)


def test_stacked_mixes_equal_their_per_snapshot_calls():
    rng = np.random.default_rng(13)
    z1, z2 = rng.normal(size=(2, 5, 4, 3))  # [L x V x D] each
    p = _interp(rng, 3)
    assert np.array_equal(apply_mix(z1, z2, p),
                          np.stack([apply_mix(a, b, p) for a, b in zip(z1, z2)]))
    for bad_z2 in (z2[1:], z2[:, :3]):
        with pytest.raises(ValueError):
            apply_mix(z1, bad_z2, p)
    with pytest.raises(ValueError):
        apply_mix(z1[..., :2], z2[..., :2], p)


@pytest.mark.parametrize("mechanism", [MixMechanism.REPR_MIX, "feature_mix"])
@pytest.mark.parametrize("build", list(_PARAMS.values()), ids=[v.value for v in _PARAMS])
def test_a_mixing_layer_without_mix_params_cannot_be_built(build, mechanism):
    p = dataclasses.replace(build(np.random.default_rng(17), 2, 2), mix=None)
    assert p.mix is None  # an ORDINARY layer does not read it
    with pytest.raises(ValueError, match=f"^mix is None, but a {MixMechanism(mechanism).value} "
                                         "layer needs it$"):
        dataclasses.replace(p, mix_mechanism=mechanism)


@pytest.mark.parametrize("mechanism, side, width, wrong", [
    (MixMechanism.FEATURE_MIX, "input", 3, 2), (MixMechanism.REPR_MIX, "output", 2, 3)])
def test_a_mix_of_the_wrong_width_cannot_be_built_and_the_error_names_both_widths(
        mechanism, side, width, wrong):
    rng = np.random.default_rng(19)
    p = dataclasses.replace(_s4_params(rng, 2, 2), gnn=_gnn(rng, 3, 2), mix=_interp(rng, wrong))
    message = (f"^mix has width {wrong}, but {mechanism.value} mixes the layer's "
               f"{side} width {width}$")
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(p, mix_mechanism=mechanism)
    fitted = dataclasses.replace(p, mix=_interp(rng, width), mix_mechanism=mechanism)
    assert fitted.mix.b_scale.size == width


# ---------------------------------------------------------------------------
# layer forwards


def test_s4_zero_parameters_zero_input_give_zero_output():
    rng = np.random.default_rng(13)
    v, l, d, n = 3, 4, 2, 3
    seq = _sequence(rng, v, l, d)
    p = SsmLayerParams(
        variant=SsmVariant.S4,
        a=np.full((d, n), -0.5),
        gnn=GnnParams(weight=np.zeros((d, d)), bias=np.zeros(d)),
        b=np.zeros((d, n)),
        c=np.zeros((d, n)),
        delta_weight=np.zeros(d),
        delta_bias=0.0,
    )
    out = ssm_forward(seq, np.zeros((v, l, d)), p)
    assert np.array_equal(out, np.zeros((v, l, d)))


def test_s4_single_snapshot_equals_one_per_channel_step():
    """Each snapshot of the forward is one step of the carried state,
    u <- u * e^{delta a_k} + delta * h_k b_k with one delta per node for
    every channel k: at L=1 with no predecessor, and over L=5 with REPR_MIX
    inputs."""
    rng = np.random.default_rng(17)
    v, d, n = 5, 3, 4
    for length in (1, 5):
        seq = _sequence(rng, v, length, d)
        p = _s4_params(rng, d, n, mechanism=MixMechanism.REPR_MIX, seq_len=length)
        hidden = rng.normal(size=(v, length, d))
        out = ssm_forward(seq, hidden, p)

        estimates = _drive_estimates(seq, hidden, p, p.mix_mechanism)
        if length == 1:  # no predecessor: mixing bypassed
            assert np.array_equal(estimates[0], gnn_diffuse(hidden[:, 0], seq[0], p.gnn))
        states = np.zeros((v, d, n))
        for l, h in enumerate(estimates):
            delta = softplus(h @ p.delta_weight + p.delta_bias)
            for k in range(d):
                states[:, k] = (states[:, k] * np.exp(np.outer(delta, p.a[k]))
                                + np.outer(delta * h[:, k], p.b[k]))
                assert out[:, l, k] == pytest.approx(states[:, k] @ p.c[k], abs=1e-12)


def _scalar_s4(a, b, c, delta_bias):
    """S4 on one channel and one state entry with an identity GNN and a
    constant step delta = softplus(delta_bias)."""
    return SsmLayerParams(
        variant=SsmVariant.S4, a=np.array([[a]]),
        gnn=GnnParams(weight=np.eye(1), bias=np.zeros(1), self_mix=0.0),
        b=np.array([[b]]), c=np.array([[c]]), delta_weight=np.zeros(1),
        delta_bias=delta_bias,
    )


def _one_node_sequence(length):
    return SnapshotSequence(tuple(
        Snapshot(adjacency=np.zeros((1, 1), dtype=bool), features=np.zeros((1, 1)),
                 timestamp=float(t + 1))
        for t in range(length)))


def test_s4_scalar_two_snapshot_evaluation():
    # delta = 1: u_1 = 0.5, then u_2 = 0.5 e^{-1} + 1 and y_2 = u_2.
    p = _scalar_s4(-1.0, 1.0, 1.0, math.log(math.expm1(1.0)))
    y = ssm_forward(_one_node_sequence(2), np.array([[[0.5], [1.0]]]), p)
    assert y[0, :, 0] == pytest.approx([0.5, 0.5 * math.exp(-1.0) + 1.0], abs=1e-15)
    assert y[0, 1, 0] == pytest.approx(1.1839397205857212, abs=1e-15)


def test_s4_zero_step_or_zero_drive_keeps_the_state_at_zero():
    """delta = softplus(-800) is exactly 0, so the state never leaves its zero
    start whatever the input; with a zero input there is no drive at all."""
    rng = np.random.default_rng(7)
    v, l, d, n = 3, 4, 2, 3
    seq = _sequence(rng, v, l, d)
    p = _s4_params(rng, d, n)
    stuck = dataclasses.replace(p, delta_weight=np.zeros(d), delta_bias=-800.0)
    assert softplus(-800.0) == 0.0
    assert np.array_equal(ssm_forward(seq, rng.normal(size=(v, l, d)), stuck),
                          np.zeros((v, l, d)))
    undriven = dataclasses.replace(p, gnn=dataclasses.replace(p.gnn, bias=np.zeros(d)))
    assert np.array_equal(ssm_forward(seq, np.zeros((v, l, d)), undriven),
                          np.zeros((v, l, d)))


def test_s4_drive_error_shrinks_quadratically():
    # One snapshot from a zero state: the layer's drive delta*b*h stands in
    # for the exact (e^{delta a} - 1)/a * b*h; halving delta cuts the gap ~4x.
    a = -1.3

    def gap(delta):
        p = _scalar_s4(a, 1.0, 1.0, math.log(math.expm1(delta)))
        step = float(softplus(p.delta_bias))
        y = ssm_forward(_one_node_sequence(1), np.ones((1, 1, 1)), p)[0, 0, 0]
        return abs(y - math.expm1(step * a) / a)

    ratio_one = gap(0.2) / gap(0.1)
    ratio_two = gap(0.1) / gap(0.05)
    assert 3.4 <= ratio_one <= 4.6
    assert 3.7 <= ratio_two <= 4.3


def test_s5_zero_parameters_zero_input_give_zero_output():
    rng = np.random.default_rng(19)
    v, l, d, n = 3, 4, 2, 3
    seq = _sequence(rng, v, l, d)
    p = SsmLayerParams(
        variant=SsmVariant.S5,
        a=np.full(n, -0.5),
        gnn=GnnParams(weight=np.zeros((d, d)), bias=np.zeros(d)),
        b=np.zeros((d, n)),
        c=np.zeros((n, d)),
        delta_weight=np.zeros(d),
        delta_bias=0.0,
    )
    out = ssm_forward(seq, np.zeros((v, l, d)), p)
    assert np.array_equal(out, np.zeros((v, l, d)))


def test_s5_collapses_to_s4_when_state_and_width_are_scalar():
    rng = np.random.default_rng(23)
    v, l = 4, 6
    seq = _sequence(rng, v, l, 1)
    hidden = rng.normal(size=(v, l, 1))
    gnn = _gnn(rng, 1, 1)
    shared = dict(delta_weight=rng.normal(size=1), delta_bias=delta_bias_init(l),
                  mix=_interp(rng, 1), mix_mechanism=MixMechanism.FEATURE_MIX)
    a_val, b_val, c_val = -0.8, 1.3, 0.7
    p4 = SsmLayerParams(variant=SsmVariant.S4, a=np.array([[a_val]]), gnn=gnn,
                        b=np.array([[b_val]]), c=np.array([[c_val]]), **shared)
    p5 = SsmLayerParams(variant=SsmVariant.S5, a=np.array([a_val]), gnn=gnn,
                        b=np.array([[b_val]]), c=np.array([[c_val]]), **shared)
    y4 = ssm_forward(seq, hidden, p4)
    y5 = ssm_forward(seq, hidden, p5)
    assert y4 == pytest.approx(y5, abs=1e-12)


def test_s6_zero_selective_weights_keep_states_at_zero():
    rng = np.random.default_rng(29)
    v, l, d, n = 4, 5, 2, 3
    seq = _sequence(rng, v, l, d)
    hidden = rng.normal(size=(v, l, d))
    p = _s6_params(rng, d, n)
    silent = dataclasses.replace(
        p,
        gnn_b=GnnParams(weight=np.zeros((d, n)), bias=np.zeros(n)),
    )
    out = ssm_forward(seq, hidden, silent)
    assert np.array_equal(out, np.zeros((v, l, d)))


def test_s6_larger_step_bias_strictly_raises_every_step_size():
    rng = np.random.default_rng(31)
    v, d = 5, 3
    seq = _sequence(rng, v, 1, d)
    p = _s6_params(rng, d, 2)
    x = rng.normal(size=(v, d))
    pre = gnn_diffuse(x, seq[0], p.gnn_delta)
    bias = np.abs(p.delta_bias) + 0.1
    assert np.all(softplus(pre + 2.0 * bias) > softplus(pre + bias))


def test_s6_state_shapes_are_per_channel():
    rng = np.random.default_rng(37)
    v, l, d, n = 3, 4, 2, 5
    seq = _sequence(rng, v, l, d)
    p = _s6_params(rng, d, n)
    assert p.state_size == n
    out = ssm_forward(seq, rng.normal(size=(v, l, d)), p)
    assert out.shape == (v, l, d)


def _stepwise_forward(seq, hidden, p, mechanism):
    """Reference layer: the per-snapshot composition of `gnn_diffuse` and
    `apply_mix`, with REPR_MIX diffusing each snapshot twice and every
    selective GNN diffusing the layer input on its own."""
    h = []
    for l, snap in enumerate(seq):
        x = hidden[:, l]
        if l == 0 or mechanism is MixMechanism.ORDINARY:
            h.append(gnn_diffuse(x, snap, p.gnn))
        elif mechanism is MixMechanism.FEATURE_MIX:
            h.append(gnn_diffuse(apply_mix(hidden[:, l - 1], x, p.mix), snap, p.gnn))
        else:
            h.append(apply_mix(gnn_diffuse(hidden[:, l - 1], seq[l - 1], p.gnn),
                               gnn_diffuse(x, snap, p.gnn), p.mix))
    h = np.stack(h)
    if p.variant is SsmVariant.S6:
        def selective(g):
            return np.stack([gnn_diffuse(hidden[:, l], snap, g) for l, snap in enumerate(seq)])

        delta = softplus(selective(p.gnn_delta) + p.delta_bias)[..., None]
        drives = (delta * selective(p.gnn_b)[:, :, None, :]) * h[..., None]
        readout, c = "lvdn,lvn->vld", selective(p.gnn_c)
    else:
        delta = softplus(h @ p.delta_weight + p.delta_bias)[:, :, None]
        if p.variant is SsmVariant.S5:
            drives = delta * (h @ p.b)
            readout, c = "lvn,nd->vld", p.c
        else:
            delta = delta[..., None]
            drives = (delta * p.b) * h[..., None]
            readout, c = "lvdn,dn->vld", p.c
    states = scan_sequential(RecurrenceInputs(np.exp(delta * p.a), drives,
                                              np.zeros(drives.shape[1:])))
    return np.einsum(readout, states, c)


def _s6_mixed_selective_params(rng, d, n, mechanism):
    """S6 whose selective GNNs have three (flavor, self_mix) keys, any two of
    them sharing either the flavor or self_mix; `_s6_params` shares one key."""
    p = _s6_params(rng, d, n, mechanism=mechanism)
    return dataclasses.replace(
        p, gnn_delta=_gnn(rng, d, d, self_mix=0.3), gnn_c=_gnn(rng, d, n, self_mix=0.8),
        gnn_b=_gnn(rng, d, n, flavor=GnnFlavor.SAGE_MEAN_LIKE, self_mix=0.3))


@pytest.mark.parametrize("mechanism", list(MixMechanism))
@pytest.mark.parametrize("build", [_s4_params, _s5_params, _s6_params,
                                   _s6_mixed_selective_params])
def test_forward_equals_the_stepwise_reference(build, mechanism):
    rng = np.random.default_rng(47)
    v, l, d, n = 6, 5, 3, 4
    seq = _sequence(rng, v, l, d)
    hidden = rng.normal(size=(v, l, d))
    p = build(rng, d, n, mechanism=mechanism)
    assert np.array_equal(ssm_forward(seq, hidden, p), _stepwise_forward(seq, hidden, p, mechanism))


@pytest.mark.parametrize("cap", [None, _SMALL_CAP])
@pytest.mark.parametrize("flavor", list(GnnFlavor))
@pytest.mark.parametrize("mechanism", list(MixMechanism))
def test_drive_estimates_equal_the_per_snapshot_reference(monkeypatch, mechanism, flavor, cap):
    """The whole-sequence drive is `mixed_estimate` over `gnn_diffuse` and
    `apply_mix` bit for bit, also when the operator splits into blocks."""
    if cap is not None:
        monkeypatch.setattr(tgraph, "_RUN_ENTRIES", cap)
    rng = np.random.default_rng(53)
    v, l, d = 6, 7, 3
    seq = _sparse_sequence(rng, v, l, d)
    if cap is not None:
        assert 1 < len(_whole(seq)) < l
    hidden = rng.normal(size=(v, l, d))
    p = dataclasses.replace(
        _s4_params(rng, d, 2, mechanism=mechanism),
        gnn=_gnn(rng, d, d, flavor=flavor, self_mix=0.7), mix=_interp(rng, d))
    ref = np.stack(mixed_estimate(np.moveaxis(hidden, 1, 0), seq, mechanism,
                                  partial(gnn_diffuse, p=p.gnn), partial(apply_mix, p=p.mix)))
    assert np.array_equal(_drive_estimates(seq, hidden, p, mechanism), ref)


@pytest.mark.parametrize("mechanism", list(MixMechanism))
@pytest.mark.parametrize("variant", list(SsmVariant))
def test_block_forward_equals_the_per_snapshot_blocks(monkeypatch, variant, mechanism):
    """Sampled models (S6's four GNNs share one flavor and self_mix) over a
    sequence whose operator splits into blocks, against `_stepwise_forward`
    with every block after the first demoted to ORDINARY."""
    monkeypatch.setattr(tgraph, "_RUN_ENTRIES", _SMALL_CAP)
    rng = np.random.default_rng(59)
    v, l, d = 6, 7, 3
    seq = _sparse_sequence(rng, v, l, d)
    hidden = rng.normal(size=(v, l, d))
    blocks = sample_model(rng, ModelConfig(variant=variant, mix_mechanism=mechanism), d, l)
    ref = hidden
    for k, blk in enumerate(blocks):
        y = _stepwise_forward(seq, ref, blk.layer, mechanism if k == 0 else MixMechanism.ORDINARY)
        ref = np.maximum(y, 0.0) + (ref @ blk.res_weight + blk.res_bias)
        if variant is SsmVariant.S6:
            ref = layer_norm(ref)
    assert np.array_equal(block_forward(hidden, seq, blocks), ref)


@pytest.mark.parametrize("mechanism", list(MixMechanism))
@pytest.mark.parametrize("variant", list(SsmVariant))
def test_a_sampled_model_mixes_in_every_block_without_the_first_block_rule(
        monkeypatch, variant, mechanism):
    """`sample_model` builds every block with the configured mechanism, so
    with `first_block_mixing_only=False` each block equals its per-snapshot
    forward at that mechanism: the first-block rule lives in `block_forward`."""
    monkeypatch.setattr(tgraph, "_RUN_ENTRIES", _SMALL_CAP)
    rng = np.random.default_rng(61)
    v, l, d = 6, 7, 3
    seq = _sparse_sequence(rng, v, l, d)
    hidden = rng.normal(size=(v, l, d))
    blocks = sample_model(rng, ModelConfig(variant=variant, mix_mechanism=mechanism), d, l)
    assert [blk.layer.mix_mechanism for blk in blocks] == [mechanism] * len(blocks)
    ref = hidden
    for blk in blocks:
        y = _stepwise_forward(seq, ref, blk.layer, mechanism)
        ref = np.maximum(y, 0.0) + (ref @ blk.res_weight + blk.res_bias)
        if variant is SsmVariant.S6:
            ref = layer_norm(ref)
    assert np.array_equal(block_forward(hidden, seq, blocks, first_block_mixing_only=False), ref)


def _split(monkeypatch, parts):
    """Cut every call that `_pool.parts` sizes into `parts` parts (as many as
    its ranges hold: a layer's node ranges are runs of `layers._ROW_ALIGN`
    nodes), whatever the host's CPU count and the call's size."""
    monkeypatch.setattr(_pool, "cpus", lambda: parts)
    monkeypatch.setattr(_pool, "_SPLIT_WORK", 0)


def _tiled(monkeypatch, tile, v, p):
    """Set the tile size to `tile` snapshots of p's per-node state on V nodes,
    in one node range; returns the list each `run_scan` call appends its
    tile length to."""
    _split(monkeypatch, 1)
    monkeypatch.setattr(layers, "_TILE_ELEMENTS", tile * v * p.a.size)
    lengths = []

    def spy(inp, backend, out=None):
        lengths.append(inp.length)
        return run_scan(inp, backend, out)
    monkeypatch.setattr(layers, "run_scan", spy)
    return lengths


@pytest.mark.parametrize("tile, lengths", [(1, [1] * 5), (2, [2, 2, 1]), (8, [5])],
                         ids=["one-snapshot", "ragged", "past-the-end"])
@pytest.mark.parametrize("mechanism", list(MixMechanism))
@pytest.mark.parametrize("variant", list(SsmVariant))
def test_tiled_forward_equals_the_stepwise_reference(monkeypatch, variant, mechanism,
                                                     tile, lengths):
    rng = np.random.default_rng(61)
    v, l, d, n = 6, 5, 3, 4
    seq = _sequence(rng, v, l, d)
    hidden = rng.normal(size=(v, l, d))
    p = _PARAMS[variant](rng, d, n, mechanism=mechanism)
    seen = _tiled(monkeypatch, tile, v, p)
    assert np.array_equal(ssm_forward(seq, hidden, p), _stepwise_forward(seq, hidden, p, mechanism))
    assert seen == lengths


@pytest.mark.parametrize("tile, lengths", [(3, [3, 3, 1]), (8, [7])],
                         ids=["ragged", "one-tile"])
@pytest.mark.parametrize("variant", list(SsmVariant))
def test_forward_backends_agree(monkeypatch, variant, tile, lengths):
    rng = np.random.default_rng(41)
    v, l, d, n = 5, 7, 3, 4
    seq = _sequence(rng, v, l, d)
    hidden = rng.normal(size=(v, l, d))
    p = _PARAMS[variant](rng, d, n)
    seen = _tiled(monkeypatch, tile, v, p)
    y_seq = ssm_forward(seq, hidden, p, backend="sequential")
    y_par = ssm_forward(seq, hidden, p, backend="parallel")
    assert seen == lengths * 2
    assert np.abs(y_seq - y_par).max() <= 1e-10


def _on_new_thread(fn):
    """fn() on a thread of its own, which starts with no kept tile buffers;
    returns its result or raises its exception."""
    result = {}

    def target():
        try:
            result["value"] = fn()
        except BaseException as exc:  # re-raised on the calling thread
            result["error"] = exc
    worker = threading.Thread(target=target)
    worker.start()
    worker.join(timeout=60.0)
    assert not worker.is_alive(), "the call did not finish within 60 s"
    if "error" in result:
        raise result["error"]
    return result["value"]


def _traced_peak(fn):
    """The traced peak, in bytes, of fn() under tracemalloc."""
    import tracemalloc
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_peak_memory_stays_below_a_quarter_of_one_state_array():
    """With N*D >> D a whole-sequence S4 state [L x V x D x N] would dwarf
    the [L x V x D] inputs; one layer's traced peak stays under a quarter of
    one such float64 array.  The traced call runs on a new thread, so the
    tile buffers that thread keeps are made, and counted, while tracing."""
    rng = np.random.default_rng(71)
    v, l, d, n = 16, 1024, 2, 64
    seq = _sequence(rng, v, l, d)
    hidden = rng.normal(size=(v, l, d))
    p = _s4_params(rng, d, n)
    ssm_forward(seq, hidden, p)  # builds the sequence's cached operator
    peak = _on_new_thread(lambda: _traced_peak(lambda: ssm_forward(seq, hidden, p)))
    assert peak < l * v * d * n * 8 / 4


def test_a_second_forward_on_one_thread_allocates_no_tile_buffer():
    """One tile of [L x V x D x N] states, 64 times the size of the layer's
    [L x V x D] arrays: the first call on a thread makes its kept decay,
    drive and state buffers, the second reuses them, so its traced peak
    stays under one tile's state array."""
    rng = np.random.default_rng(113)
    v, l, d, n = 16, 32, 2, 64
    seq = _sequence(rng, v, l, d)
    hidden = rng.normal(size=(v, l, d))
    p = _s4_params(rng, d, n)
    tile_bytes = l * v * d * n * 8
    assert l * v * p.a.size <= layers._TILE_ELEMENTS
    first, second = _on_new_thread(lambda: [_traced_peak(lambda: ssm_forward(seq, hidden, p))
                                            for _ in range(2)])
    assert first >= 3 * tile_bytes and second < tile_bytes


def test_successive_forwards_return_arrays_of_their_own():
    rng = np.random.default_rng(127)
    v, l, d, n = 6, 5, 3, 4
    seq = _sequence(rng, v, l, d)
    hidden = rng.normal(size=(v, l, d))
    blocks = [BlockParams(layer=_s6_params(rng, d, n)), BlockParams(layer=_s4_params(rng, d, n))]
    for call in (lambda: ssm_forward(seq, hidden, blocks[0].layer),
                 lambda: block_forward(hidden, seq, blocks)):
        first = call()
        kept = first.copy()
        second = call()
        assert not np.may_share_memory(first, second)
        assert not any(np.may_share_memory(y, buf) for y in (first, second)
                       for buf in layers._workspace.buffers)
        assert np.array_equal(first, kept) and np.array_equal(second, kept)


@pytest.mark.parametrize("over", [0, 1], ids=["at-the-bound", "over-the-bound"])
def test_a_thread_keeps_only_tile_buffers_up_to_the_bound(monkeypatch, over):
    """A one-snapshot tile of V*D*N entries: at `_TILE_ELEMENTS` its thread
    keeps the buffers it scans into, one over it the call scans every tile
    into one state buffer of its own and the thread keeps none."""
    rng = np.random.default_rng(131)
    v, l, d, n = 6, 4, 3, 4
    seq = _sequence(rng, v, l, d)
    hidden = rng.normal(size=(v, l, d))
    p = _s4_params(rng, d, n)
    _split(monkeypatch, 1)
    monkeypatch.setattr(layers, "_TILE_ELEMENTS", v * p.a.size - over)
    outs = []

    def spy(inp, backend, out=None):
        outs.append(out)
        return run_scan(inp, backend, out)
    monkeypatch.setattr(layers, "run_scan", spy)

    def forward():
        y = ssm_forward(seq, hidden, p)
        return y, getattr(layers._workspace, "buffers", None)
    y, kept = _on_new_thread(forward)
    assert np.array_equal(y, _stepwise_forward(seq, hidden, p, p.mix_mechanism))
    assert len(outs) == l
    assert all(out.base is outs[0].base for out in outs)
    if over:
        assert kept is None
    else:
        assert [buf.size for buf in kept] == [v * p.a.size] * 3 and outs[0].base is kept[2]


def test_concurrent_block_forwards_match_their_serial_runs(monkeypatch):
    """Three threads, more than the CPUs of a small host, run different
    shapes and variants at once, 20 rounds each, with a short switch
    interval; every call also cuts its node ranges onto the shared pool, and
    its tiles are eight snapshots long and large enough for numpy to release
    the interpreter lock, so a thread that wrote into another thread's tile
    buffers would change some round's bytes."""
    _split(monkeypatch, 2)
    rng = np.random.default_rng(137)
    cases = []
    for variant, v, l, d, n in ((SsmVariant.S4, 32, 64, 8, 32), (SsmVariant.S5, 32, 48, 8, 32),
                                (SsmVariant.S6, 32, 40, 8, 32)):
        seq = _sequence(rng, v, l, d)
        hidden = rng.normal(size=(v, l, d))
        blocks = sample_model(rng, ModelConfig(variant=variant, state_size=n), d, l)
        cases.append((hidden, seq, blocks, block_forward(hidden, seq, blocks).tobytes()))
    start = threading.Barrier(len(cases))
    done, mismatches = [], []

    def rounds(hidden, seq, blocks, want):
        start.wait()
        for k in range(20):
            if block_forward(hidden, seq, blocks).tobytes() != want:
                mismatches.append(k)
        done.append(True)
    workers = [threading.Thread(target=rounds, args=case) for case in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(done) == len(cases) and mismatches == []


@pytest.mark.parametrize("n, parts, align", [(1, 2, 16), (20, 2, 16), (37, 2, 16), (50, 3, 16),
                                             (2000, 2, 16), (83, 7, 16), (3, 5, 1), (5, 2, 1)])
def test_ranges_are_aligned_runs_that_cover_every_row(n, parts, align):
    got = _pool.ranges(n, parts, align)
    assert [r.start for r in got] == [0] + [r.stop for r in got[:-1]] and got[-1].stop == n
    assert len(got) == min(parts, max(1, n // align))
    assert all(r.start % align == 0 and (r.stop - r.start >= align or len(got) == 1) for r in got)
    sizes = [(r.stop - r.start) // align for r in got]
    assert max(sizes) - min(sizes) <= 1


@settings(max_examples=300, deadline=None)
@given(weights=st.lists(st.integers(1, 1000), min_size=1, max_size=40),
       parts=st.integers(1, 6), unit=st.integers(1, 1000))
def test_weighted_ranges_cover_every_item_and_share_the_weight(weights, parts, unit):
    """Nonempty runs in order, at most min(parts, n) of them, none heavier
    than an even share of the total by as much as its heaviest item; equal
    weights give the count cut."""
    n, total = len(weights), sum(weights)
    got = _pool.ranges(n, parts, weights=weights)
    assert [r.start for r in got] == [0] + [r.stop for r in got[:-1]] and got[-1].stop == n
    assert all(r.stop > r.start for r in got) and len(got) <= min(parts, n)
    share = min(parts, n)
    assert all((sum(weights[r]) - max(weights[r])) * share < total for r in got)
    assert _pool.ranges(n, parts, weights=[unit] * n) == _pool.ranges(n, parts)


@pytest.mark.parametrize("weights, parts, stops", [
    ([3, 3, 2, 2], 2, [2, 4]),          # not [1, 4]: one more item lightens the heavier side
    ([10, 1, 1, 1], 2, [1, 4]),         # an item heavier than the share runs alone
    ([1, 10, 1], 3, [1, 2, 3]),
    ([10, 1, 1], 3, [1, 3]),            # a range left empty is dropped
    ([4, 4, 1, 1, 1, 1], 3, [1, 2, 6]),
])
def test_weighted_ranges_end_where_the_heavier_side_is_lightest(weights, parts, stops):
    assert [r.stop for r in _pool.ranges(len(weights), parts, weights=weights)] == stops


def test_one_cpu_starts_no_pool_thread(monkeypatch):
    _split(monkeypatch, 1)
    pool = ThreadPoolExecutor(1)
    monkeypatch.setattr(_pool, "_executor", pool)
    monkeypatch.setattr(tgraph, "_RUN_ENTRIES", _SMALL_CAP)
    rng = np.random.default_rng(103)
    v, l, d, n = 40, 7, 3, 4
    seq = _sparse_sequence(rng, v, l, d)
    before = threading.enumerate()
    ssm_forward(seq, rng.normal(size=(v, l, d)), _s6_params(rng, d, n))
    assert len(_whole(seq)) > 1
    assert not pool._threads  # a pool starts a thread on its first task
    assert threading.enumerate() == before


def test_an_error_in_a_range_is_raised_once_every_range_has_finished(monkeypatch):
    """Both node ranges raise; the calling thread's range first, so the
    error raised is its own, and only after the other range has finished."""
    _split(monkeypatch, 2)
    rng = np.random.default_rng(107)
    v, l, d, n = 40, 5, 3, 4
    seq = _sequence(rng, v, l, d)
    caller, finished = threading.get_ident(), []

    def failing_scan(inp, backend, out=None):
        if threading.get_ident() != caller:
            time.sleep(0.2)  # the calling thread's range raises first
        finished.append(threading.get_ident())
        raise ValueError(f"scan failed on thread {threading.get_ident()}")
    monkeypatch.setattr(layers, "run_scan", failing_scan)
    with pytest.raises(ValueError, match=f"^scan failed on thread {caller}$"):
        ssm_forward(seq, rng.normal(size=(v, l, d)), _s4_params(rng, d, n))
    assert len(finished) == 2 and caller in finished


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_runs_a_threaded_forward(monkeypatch):
    """The child of a process whose pool has a thread builds a pool of its
    own: its two-range forward finishes, with the parent's bytes."""
    _split(monkeypatch, 2)
    rng = np.random.default_rng(109)
    v, l, d, n = 40, 5, 3, 4
    seq = _sequence(rng, v, l, d)
    hidden = rng.normal(size=(v, l, d))
    p = _s5_params(rng, d, n, mechanism=MixMechanism.REPR_MIX)
    parent = ssm_forward(seq, hidden, p).tobytes()
    assert _pool._executor._threads
    with warnings.catch_warnings():  # forking a process with threads is the point here
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child: exit status 0 only for a forward with the parent's bytes
        code = 1
        try:
            code = 0 if ssm_forward(seq, hidden, p).tobytes() == parent else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.02)
    if done[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's forward did not finish within 30 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


@pytest.mark.parametrize("variant", list(SsmVariant))
def test_forward_is_node_permutation_equivariant(variant):
    rng = np.random.default_rng(43)
    v, l, d, n = 6, 5, 3, 4
    seq = _sequence(rng, v, l, d)
    hidden = rng.normal(size=(v, l, d))
    p = _PARAMS[variant](rng, d, n, mechanism=MixMechanism.REPR_MIX)

    perm = rng.permutation(v)
    permuted_seq = SnapshotSequence(
        snapshots=tuple(
            Snapshot(
                adjacency=s.adjacency[np.ix_(perm, perm)],
                features=s.features[perm],
                timestamp=s.timestamp,
            )
            for s in seq
        )
    )
    base = ssm_forward(seq, hidden, p)
    moved = ssm_forward(permuted_seq, hidden[perm], p)
    assert np.abs(moved - base[perm]).max() <= 1e-12


@pytest.mark.parametrize("variant", list(SsmVariant))
def test_forward_is_causal(variant):
    rng = np.random.default_rng(47)
    v, l, d, n = 4, 6, 2, 3
    seq = _sequence(rng, v, l, d)
    hidden = rng.normal(size=(v, l, d))
    p = _PARAMS[variant](rng, d, n, mechanism=MixMechanism.REPR_MIX)
    base = ssm_forward(seq, hidden, p)

    bumped_hidden = hidden.copy()
    bumped_hidden[:, -1] += rng.normal(size=(v, d))
    bumped_seq = SnapshotSequence(
        snapshots=tuple(seq)[:-1]
        + (
            Snapshot(
                adjacency=_random_adjacency(rng, v),
                features=rng.normal(size=(v, d)),
                timestamp=seq[l - 1].timestamp,
            ),
        )
    )
    bumped = ssm_forward(bumped_seq, bumped_hidden, p)
    assert np.array_equal(bumped[:, : l - 1], base[:, : l - 1])
    assert np.abs(bumped[:, l - 1] - base[:, l - 1]).max() > 0.0


def test_forward_rejects_bad_backend_and_hidden_width(monkeypatch):
    monkeypatch.setattr(layers, "_graph_pass", lambda *args: pytest.fail("the graph pass ran"))
    rng = np.random.default_rng(53)
    seq = _sequence(rng, 3, 2, 2)
    p4 = _s4_params(rng, 2, 2)
    for backend in ("vectorized", None):
        with pytest.raises(ValueError, match=f"^unknown backend {backend!r}, expected one of "
                                             "sequential, parallel$"):
            ssm_forward(seq, np.zeros((3, 2, 2)), p4, backend=backend)
        with pytest.raises(ValueError, match=f"^unknown backend {backend!r}"):
            block_forward(np.zeros((3, 2, 2)), seq, [BlockParams(layer=p4)], backend=backend)
    with pytest.raises(ValueError, match="^hidden_in must be"):
        ssm_forward(seq, np.zeros((3, 2, 7)), p4)


def test_layer_params_validation():
    rng = np.random.default_rng(59)
    gnn = _gnn(rng, 2, 2)
    with pytest.raises(ValueError):
        SsmLayerParams(variant=SsmVariant.S4, a=np.array([[0.0, -1.0]]), gnn=gnn,
                       b=np.ones((1, 2)), c=np.ones((1, 2)), delta_weight=np.ones(1),
                       delta_bias=0.0)
    with pytest.raises(ValueError):
        SsmLayerParams(variant=SsmVariant.S5, a=np.full((2, 2), -1.0), gnn=gnn,
                       b=np.ones((2, 2)), c=np.ones((2, 2)), delta_weight=np.ones(2),
                       delta_bias=0.0)
    with pytest.raises(ValueError):
        SsmLayerParams(variant=SsmVariant.S4, a=np.full((2, 3), -1.0), gnn=gnn,
                       b=np.ones((2, 4)), c=np.ones((2, 3)), delta_weight=np.ones(2),
                       delta_bias=0.0)
    with pytest.raises(ValueError):
        SsmLayerParams(variant=SsmVariant.S6, a=np.full((2, 3), -1.0), gnn=gnn,
                       delta_bias=np.zeros(2))
    for bad in ("garbage", object(), np.ones((4, 2))):
        with pytest.raises(ValueError, match="^mix must be None or InterpMixParams"):
            SsmLayerParams(variant=SsmVariant.S4, a=np.full((2, 3), -1.0), gnn=gnn,
                           b=np.ones((2, 3)), c=np.ones((2, 3)), delta_weight=np.ones(2),
                           delta_bias=0.0, mix=bad)


def _with(obj, **changes):
    return lambda: dataclasses.replace(obj, **changes)


def _poisoned(arr, value):
    """A float copy of `arr` with its first entry set to `value`."""
    out = np.array(arr, dtype=float)
    out.flat[0] = value
    return out


def _non_finite_cases():
    rng = np.random.default_rng(67)
    d, n = 2, 3
    s4, s6 = _s4_params(rng, d, n), _s6_params(rng, d, n)
    block = BlockParams(layer=s4, res_weight=np.eye(d), res_bias=np.zeros(d))
    seq = _sequence(rng, 4, 3, d)
    hidden = rng.normal(size=(4, 3, d))
    hidden[1, 2, 0] = np.nan
    nan_at = lambda arr: _poisoned(arr, np.nan)
    inf_at = lambda arr: _poisoned(arr, -np.inf)
    return {
        "hidden_in": lambda: ssm_forward(seq, hidden, s4),
        "a": _with(s4, a=inf_at(s4.a)),
        "b": _with(s4, b=nan_at(s4.b)),
        "c": _with(s4, c=inf_at(s4.c)),
        "delta_weight": _with(s4, delta_weight=inf_at(s4.delta_weight)),
        "delta_bias": _with(s4, delta_bias=np.inf),
        "s6_delta_bias": _with(s6, delta_bias=nan_at(s6.delta_bias)),
        "gnn_weight": _with(s4.gnn, weight=nan_at(s4.gnn.weight)),
        "gnn_bias": _with(s4.gnn, bias=inf_at(s4.gnn.bias)),
        "w_scale": _with(s4.mix, w_scale=nan_at(s4.mix.w_scale)),
        "b_scale": _with(s4.mix, b_scale=inf_at(s4.mix.b_scale)),
        "w_blend": _with(s4.mix, w_blend=inf_at(s4.mix.w_blend)),
        "b_blend": _with(s4.mix, b_blend=nan_at(s4.mix.b_blend)),
        "res_weight": _with(block, res_weight=nan_at(block.res_weight)),
        "res_bias": _with(block, res_bias=inf_at(block.res_bias)),
        "gnn_diffuse_x": lambda: gnn_diffuse(nan_at(seq[0].features), seq[0], s4.gnn),
    }


@pytest.mark.parametrize("name", list(_non_finite_cases()))
def test_non_finite_layer_inputs_and_parameters_are_rejected(name):
    with pytest.raises(ValueError, match="must be finite"):
        _non_finite_cases()[name]()


def _not_real_cases():
    """(call, the name and kind it must report) per complex, bytes or string
    input: a float conversion would drop the imaginary part or parse the
    text."""
    rng = np.random.default_rng(71)
    d, n = 2, 3
    s4, s6 = _s4_params(rng, d, n), _s6_params(rng, d, n)
    seq = _sequence(rng, 4, 3, d)
    hidden = rng.normal(size=(4, 3, d))
    block = BlockParams(layer=s4)
    return {
        "hidden_in-complex": (lambda: ssm_forward(seq, hidden.astype(complex), s4),
                              "hidden_in", "complex numbers"),
        "hidden_in-str": (lambda: ssm_forward(seq, hidden.astype(str), s4),
                          "hidden_in", "strings"),
        "block-hidden_in-complex": (lambda: block_forward(hidden + 0j, seq, [block]),
                                    "hidden_in", "complex numbers"),
        "a-complex": (_with(s4, a=s4.a + 0j), "state matrix a", "complex numbers"),
        "a-str": (_with(s6, a=s6.a.astype(str)), "state matrix a", "strings"),
        "b-bytes": (_with(s4, b=s4.b.astype(bytes)), "b", "bytes"),
        "delta_bias-str": (_with(s4, delta_bias="0.5"), "delta_bias", "strings"),
        "gnn_weight-complex": (_with(s4.gnn, weight=s4.gnn.weight * 1j), "weight",
                               "complex numbers"),
        "res_weight-str": (_with(block, res_weight=np.eye(d).astype(str)), "res_weight",
                           "strings"),
        "gnn_diffuse-x-complex": (lambda: gnn_diffuse(seq[0].features + 0j, seq[0], s4.gnn),
                                  "x", "complex numbers"),
    }


@pytest.mark.parametrize("case", list(_not_real_cases()))
def test_complex_and_string_layer_inputs_and_parameters_are_rejected_by_name(case):
    call, name, kind = _not_real_cases()[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning before the check
        with pytest.raises(ValueError, match=f"^{name} must hold real numbers, not {kind}$"):
            call()


# ---------------------------------------------------------------------------
# blocks


def test_block_identity_residual_passes_input_through_zero_layer():
    rng = np.random.default_rng(61)
    v, l, d = 3, 4, 2
    seq = _sequence(rng, v, l, d)
    hidden = rng.normal(size=(v, l, d))
    zero_layer = SsmLayerParams(
        variant=SsmVariant.S4,
        a=np.full((d, 2), -1.0),
        gnn=GnnParams(weight=np.zeros((d, d)), bias=np.zeros(d)),
        b=np.zeros((d, 2)),
        c=np.zeros((d, 2)),
        delta_weight=np.zeros(d),
        delta_bias=0.0,
    )
    out = block_forward(hidden, seq, [BlockParams(layer=zero_layer)])
    assert np.array_equal(out, hidden)


def test_block_zero_everything_with_zero_residual_weight_is_zero():
    rng = np.random.default_rng(67)
    v, l, d = 3, 4, 2
    seq = _sequence(rng, v, l, d)
    zero_layer = SsmLayerParams(
        variant=SsmVariant.S4,
        a=np.full((d, 2), -1.0),
        gnn=GnnParams(weight=np.zeros((d, d)), bias=np.zeros(d)),
        b=np.zeros((d, 2)),
        c=np.zeros((d, 2)),
        delta_weight=np.zeros(d),
        delta_bias=0.0,
    )
    blk = BlockParams(layer=zero_layer, res_weight=np.zeros((d, d)))
    out = block_forward(np.zeros((v, l, d)), seq, [blk])
    assert np.array_equal(out, np.zeros((v, l, d)))


def test_two_blocks_equal_manual_composition_with_mixing_demoted():
    rng = np.random.default_rng(71)
    v, l, d, n = 4, 5, 3, 2
    seq = _sequence(rng, v, l, d)
    hidden = rng.normal(size=(v, l, d))
    first = BlockParams(layer=_s4_params(rng, d, n, mechanism=MixMechanism.REPR_MIX),
                        res_weight=glorot(rng, (d, d)), res_bias=rng.normal(size=d))
    second = BlockParams(layer=_s5_params(rng, d, n, mechanism=MixMechanism.REPR_MIX),
                         res_weight=glorot(rng, (d, d)))

    stacked = block_forward(hidden, seq, [first, second])

    h1 = block_forward(hidden, seq, [first])
    demoted = dataclasses.replace(
        second, layer=dataclasses.replace(second.layer, mix_mechanism=MixMechanism.ORDINARY)
    )
    manual = block_forward(h1, seq, [demoted])
    assert np.array_equal(stacked, manual)

    # opting out of the first-block rule keeps the second block's mixing live
    free = block_forward(hidden, seq, [first, second], first_block_mixing_only=False)
    manual_free = block_forward(h1, seq, [second])
    assert np.array_equal(free, manual_free)
    assert not np.array_equal(free, stacked)


def test_s6_block_output_rows_are_normalized():
    rng = np.random.default_rng(73)
    v, l, d, n = 4, 3, 5, 2
    seq = _sequence(rng, v, l, d)
    hidden = rng.normal(size=(v, l, d))
    blk = BlockParams(layer=_s6_params(rng, d, n))
    out = block_forward(hidden, seq, [blk])
    assert out.mean(axis=-1) == pytest.approx(np.zeros((v, l)), abs=1e-12)
    assert out.var(axis=-1) == pytest.approx(np.ones((v, l)), rel=1e-3)


@pytest.mark.parametrize("empty", [lambda: [], lambda: (), lambda: (b for b in [])],
                         ids=["list", "tuple", "generator"])
def test_block_forward_requires_at_least_one_block(empty):
    rng = np.random.default_rng(79)
    seq = _sequence(rng, 2, 2, 2)
    with pytest.raises(ValueError, match="^need at least one block$"):
        block_forward(np.zeros((2, 2, 2)), seq, empty())


@pytest.mark.parametrize("k", [0, 1])
def test_block_forward_names_an_entry_that_is_not_a_block(k):
    rng = np.random.default_rng(83)
    v, l, d = 3, 2, 2
    seq = _sequence(rng, v, l, d)
    blocks = [BlockParams(layer=_s4_params(rng, d, 2)) for _ in range(2)]
    blocks[k] = blocks[k].layer
    with pytest.raises(TypeError,
                       match=fr"^blocks\[{k}\] must be a BlockParams, got SsmLayerParams$"):
        block_forward(rng.normal(size=(v, l, d)), seq, iter(blocks))


@pytest.mark.parametrize("flag", ["no", 0, 1, None])
def test_block_forward_requires_first_block_mixing_only_to_be_a_bool(flag):
    rng = np.random.default_rng(89)
    seq = _sequence(rng, 2, 2, 2)
    blocks = [BlockParams(layer=_s4_params(rng, 2, 2))]
    with pytest.raises(ValueError, match=f"^first_block_mixing_only must be a bool, got {flag!r}$"):
        block_forward(np.zeros((2, 2, 2)), seq, blocks, first_block_mixing_only=flag)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
@pytest.mark.parametrize("shape", [(200, 16, 8), (7, 5, 3), (13, 1)])
def test_layer_norm_equals_the_two_pass_variance_form(shape, scale):
    x = scale * np.random.default_rng(131).normal(size=shape)
    mu = x.mean(axis=-1, keepdims=True)
    ref = (x - mu) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
    assert layer_norm(x).tobytes() == ref.tobytes()


def test_layer_norm_handles_constant_rows():
    x = np.full((2, 3), 5.0)
    out = layer_norm(x)
    assert np.all(np.isfinite(out))
    assert out == pytest.approx(np.zeros((2, 3)), abs=1e-6)


# ---------------------------------------------------------------------------
# initialization


def test_init_a_real_strategy_counts_down():
    assert np.array_equal(init_a(InitStrategy.S4D_REAL, (4,)),
                          np.array([-1.0, -2.0, -3.0, -4.0]))
    two_d = init_a(InitStrategy.S4D_REAL, (3, 4))
    assert two_d.shape == (3, 4)
    assert np.array_equal(two_d, np.tile(np.array([-1.0, -2.0, -3.0, -4.0]), (3, 1)))


def test_init_a_const_strategy_is_negative_half():
    assert np.all(init_a(InitStrategy.S4D_CONST, (2, 5)) == -0.5)


def test_init_a_random_strategy_is_strictly_negative_and_seeded():
    rng = np.random.default_rng(83)
    values = init_a(InitStrategy.RANDOM, (3, 4), rng=rng)
    assert np.all(values < 0.0)
    again = init_a(InitStrategy.RANDOM, (3, 4), rng=np.random.default_rng(83))
    assert np.array_equal(values, again)
    with pytest.raises(ValueError):
        init_a(InitStrategy.RANDOM, (3, 4))


@pytest.mark.parametrize("make", [partial(glorot, np.random.default_rng(0)),
                                  partial(init_a, InitStrategy.S4D_REAL)])
@pytest.mark.parametrize("shape", [(2.5, 3), (2.5,), 2.5, (3, 0), (-1,)])
def test_init_shapes_must_be_positive_integers(make, shape):
    with pytest.raises(ValueError, match="shape must be an integer"):
        make(shape)


@pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
def test_layer_norm_rejects_an_eps_that_is_not_positive_and_finite(eps):
    with pytest.raises(ValueError, match="eps must be finite and > 0"):
        layer_norm(np.ones((2, 3)), eps=eps)


def test_glorot_respects_fan_limits():
    rng = np.random.default_rng(89)
    w = glorot(rng, (20, 30))
    assert np.abs(w).max() <= math.sqrt(6.0 / 50.0)
    vec = glorot(rng, (40,))
    assert np.abs(vec).max() <= math.sqrt(6.0 / 41.0)


def test_delta_bias_init_calibrates_softplus_to_reciprocal_length():
    for length in (1, 4, 16, 100):
        assert softplus(np.array(delta_bias_init(length))) == pytest.approx(1.0 / length,
                                                                            abs=1e-12)
    with pytest.raises(ValueError):
        delta_bias_init(0)


def test_delta_bias_init_rejects_a_fractional_length():
    with pytest.raises(ValueError, match="length must be an integer"):
        delta_bias_init(2.5)


# ---------------------------------------------------------------------------
# memory alignment


def test_align_identity_node_set_is_bit_exact():
    rng = np.random.default_rng(97)
    u = rng.normal(size=(4, 3))
    out = align_memory(u, [3, 1, 7, 5], [5, 7, 1, 3])
    assert np.array_equal(out, u)


def test_align_new_isolated_node_starts_at_zero():
    rng = np.random.default_rng(101)
    u = rng.normal(size=(3, 2))
    out = align_memory(u, [0, 1, 2], [0, 1, 2, 9], rule=StateInitRule.ZERO)
    assert np.array_equal(out[:3], u)
    assert np.array_equal(out[3], np.zeros(2))


def test_align_drops_departed_rows():
    rng = np.random.default_rng(103)
    u = rng.normal(size=(4, 2))
    out = align_memory(u, [0, 1, 2, 3], [1, 3])
    assert np.array_equal(out, u[[1, 3]])


def test_align_neighbor_mean_averages_surviving_neighbors():
    rng = np.random.default_rng(107)
    u = rng.normal(size=(3, 4))  # rows for nodes 0, 1, 2
    v_new = [0, 1, 2, 5]
    adj = np.zeros((4, 4), dtype=bool)
    adj[3, 0] = adj[0, 3] = True  # new node 5 touches survivors 0 and 2
    adj[3, 2] = adj[2, 3] = True
    out = align_memory(u, [0, 1, 2], v_new, rule=StateInitRule.NEIGHBOR_MEAN, adjacency=adj)
    assert np.array_equal(out[:3], u)
    assert out[3] == pytest.approx(0.5 * (u[0] + u[2]))


def test_align_neighbor_mean_without_surviving_neighbors_falls_back_to_zero():
    u = np.ones((2, 3))
    # two new nodes joined at the hip, no surviving neighbors
    adj = np.zeros((4, 4), dtype=bool)
    adj[2, 3] = adj[3, 2] = True
    out = align_memory(u, [0, 1], [0, 1, 4, 5], rule=StateInitRule.NEIGHBOR_MEAN,
                       adjacency=adj)
    assert np.array_equal(out[2], np.zeros(3))
    assert np.array_equal(out[3], np.zeros(3))


def test_align_neighbor_mean_requires_adjacency():
    with pytest.raises(ValueError):
        align_memory(np.ones((1, 2)), [0], [0, 1], rule=StateInitRule.NEIGHBOR_MEAN)


@pytest.mark.parametrize("adjacency, message", [
    ([[0, np.nan], [np.nan, 0]], "adjacency must be finite"),
    ([[0, 1j], [1j, 0]], "adjacency must hold real numbers, not complex numbers"),
    ([[0, 1], [0, 0]], "adjacency must be symmetric"),
    ([[0, 1], [1, 1]], r"adjacency diagonal must be zero \(no self-loops\)"),
], ids=["nan", "complex", "asymmetric", "self_loop"])
def test_align_neighbor_mean_rejects_an_adjacency_no_snapshot_could_hold(adjacency, message):
    """Checked before the cast to bool, which would make NaN and 1j edges."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        align_memory(np.ones((1, 2)), [0], [0, 1], rule=StateInitRule.NEIGHBOR_MEAN,
                     adjacency=adjacency)


def test_align_rejects_a_non_finite_state_row():
    u = np.ones((2, 3))
    u[1, 2] = np.nan
    with pytest.raises(ValueError, match="u_prev must be finite"):
        align_memory(u, [0, 1], [0, 1])


@pytest.mark.parametrize("v_prev,v_new,name", [([0.5, 1.7], [0, 1], "v_prev"),
                                               ([0, 1], [0, 1.5], "v_new")])
def test_align_rejects_fractional_node_ids(v_prev, v_new, name):
    with pytest.raises(ValueError, match=f"{name} must be integers"):
        align_memory(np.ones((2, 3)), v_prev, v_new)
