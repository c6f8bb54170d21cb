"""Acceptance gate: one test per numbered criterion, in order.

Each test prints a single `PASS criterion N: ...` or `FAIL criterion N: ...`
line with the measured quantity, then asserts it, so

    pytest tests/test_acceptance.py -v -s

both reports and enforces every check.  Sizes and seeds that the checks
depend on are frozen in configs/acceptance.cfg and read through
`gssm.cli.settings`, so the slow ones can be reproduced from the command line
(`gssm verify --config configs/acceptance.cfg`, `gssm run --config
configs/acceptance.cfg --out ...`).  Tolerances are the gate's own; criteria
2-4 fail unless `gssm verify` holds its suites to the same ones.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import pathlib
import time

import numpy as np

from gssm import (
    BlockParams,
    MixMechanism,
    RecurrenceInputs,
    Snapshot,
    SnapshotSequence,
    SsmVariant,
    StateInitRule,
    align_memory,
    bench_recurrence,
    block_forward,
    gnn_diffuse,
    hippo_legs_matrices,
    named_rng,
    readout_loss,
    scan_parallel,
    scan_sequential,
    softplus,
    ssm_forward,
    temporal_continuity,
)
from gssm.cli import main, settings
from gssm.verify import ALPHAS, suite_reduction, suites

from test_harness import finite_diff_check
from test_layers import _drive_estimates, _s4_params, _s5_params, _s6_params, _sequence

_CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "acceptance.cfg"


def _verify_suites(tolerances: dict):
    """`gssm verify`'s settings from the acceptance config, and its suite
    calls by name.  Fails unless it cycles through the gate's alpha set and
    holds each suite named in `tolerances` to the gate's tolerance."""
    cfg = settings("verify", _CONFIG)
    table = {name: (tol, call) for name, tol, call in suites(**cfg)}
    assert cfg["alpha"] is None and ALPHAS == (0.0, 0.5, 2.0), \
        f"gssm verify cycles alpha through {ALPHAS} (config alpha {cfg['alpha']})"
    for name, tol in tolerances.items():
        assert table[name][0] == tol, f"gssm verify holds {name} to {table[name][0]}, not {tol}"
    return cfg, {name: call for name, (_, call) in table.items()}


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. continuous-time memory matrices, exact closed form
# ---------------------------------------------------------------------------

def test_criterion_01_memory_matrices_match_the_closed_form():
    order = 8
    expected_a = np.zeros((order, order))
    expected_b = np.zeros(order)
    for n in range(order):
        expected_b[n] = np.sqrt(2 * n + 1)
        for k in range(order):
            if n > k:
                expected_a[n, k] = -np.sqrt((2 * n + 1) * (2 * k + 1))
            elif n == k:
                expected_a[n, k] = -(n + 1)
    a, b = hippo_legs_matrices(order)
    err = max(float(np.abs(a - expected_a).max()), float(np.abs(b - expected_b).max()))
    _verdict(1, err <= 1e-14, f"order-8 matrices, elementwise err={err:.1e} (tol 1e-14)")


# ---------------------------------------------------------------------------
# 2. ODE integration vs the brute-force projection oracle
# ---------------------------------------------------------------------------

def test_criterion_02_integrator_agrees_with_projection_oracle():
    cfg, calls = _verify_suites({"projection-vs-ode": 1e-3})
    t0 = time.perf_counter()
    worst = calls["projection-vs-ode"]()
    took = time.perf_counter() - t0
    ok = worst <= 1e-3 and took < 60.0
    _verdict(2, ok, f"{cfg['instances']} instances, rel Frobenius err={worst:.2e} "
                    f"(tol 1e-3), time={took:.1f}s (budget 60s)")


# ---------------------------------------------------------------------------
# 3. exact one-interval discretization + convex segment weights
# ---------------------------------------------------------------------------

def test_criterion_03_zoh_agreement_and_weight_convexity():
    cfg, calls = _verify_suites({"zoh-vs-ode": 1e-4, "weights-convexity": 1e-12})
    t0 = time.perf_counter()
    worst_zoh = calls["zoh-vs-ode"]()
    worst_w = calls["weights-convexity"]()
    took = time.perf_counter() - t0
    ok = worst_zoh <= 1e-4 and worst_w <= 1e-12 and took < 30.0
    _verdict(3, ok, f"zoh rel err={worst_zoh:.2e} (tol 1e-4); weight sum/range "
                    f"dev={worst_w:.2e} (tol 1e-12) on {cfg['schedules']} "
                    f"schedules; time={took:.1f}s (budget 30s)")


# ---------------------------------------------------------------------------
# 4. smoothing off -> independent per-node memory flows
# ---------------------------------------------------------------------------

def test_criterion_04_graph_term_off_reduces_to_independent_flows():
    cfg, _ = _verify_suites({"hippo-reduction": 1e-10})
    worst = suite_reduction(cfg["seed"], 10, cfg["ode_steps"])
    _verdict(4, worst <= 1e-10,
             f"alpha=0 and edgeless instances, max abs dev={worst:.2e} (tol 1e-10)")


# ---------------------------------------------------------------------------
# 5. parallel scan == sequential scan; per-element time is flat in L
# ---------------------------------------------------------------------------

def test_criterion_05_scan_parity_and_linear_work():
    rng = named_rng(0, "acceptance-scan")
    worst = 0.0
    for i in range(100):
        length = 4096 if i < 4 else int(rng.integers(1, 4097))
        lane_shape = ((), (3,), (2, 2))[i % 3]
        inp = RecurrenceInputs(decay=rng.uniform(0.0, 1.0, size=(length, *lane_shape)),
                               drive=rng.standard_normal((length, *lane_shape)),
                               u0=rng.standard_normal(lane_shape))
        diff = np.abs(scan_parallel(inp) - scan_sequential(inp)).max()
        worst = max(worst, float(diff))

    rows = bench_recurrence(**settings("bench", _CONFIG))
    per_backend = {}
    for row in rows:
        per_backend.setdefault(row["backend"], []).append(row["ns_per_element"])
    spread = max(max(ns) / min(ns) for ns in per_backend.values())
    ok = worst <= 1e-10 and spread < 3.0
    _verdict(5, ok, f"100 instances up to L=4096, max abs diff={worst:.2e} "
                    f"(tol 1e-10); per-element time spread over "
                    f"L=1024..65536 is {spread:.2f}x (< 3x)")


# ---------------------------------------------------------------------------
# 6. layer properties across all three variants
# ---------------------------------------------------------------------------

def _forward_and_deltas(variant, seq, hidden, params):
    out = ssm_forward(seq, hidden, params)
    deltas = []
    estimates = _drive_estimates(seq, hidden, params, params.mix_mechanism)
    for l, h in enumerate(estimates):
        if variant is SsmVariant.S6:
            deltas.append(softplus(gnn_diffuse(hidden[:, l], seq[l], params.gnn_delta)
                                   + params.delta_bias))
        else:
            deltas.append(softplus(h @ params.delta_weight + params.delta_bias))
    return out, np.concatenate([d.ravel() for d in deltas])


def test_criterion_06_layer_properties_hold_for_every_variant():
    v, l, d, n = 5, 7, 3, 4
    t0 = time.perf_counter()
    rng = named_rng(0, "acceptance-layers")
    builders = {SsmVariant.S4: _s4_params, SsmVariant.S5: _s5_params,
                SsmVariant.S6: _s6_params}
    worst_perm = 0.0
    min_delta = np.inf
    causal = True
    mixing_gated = True
    for variant, build in builders.items():
        params = build(rng, d, n, mechanism=MixMechanism.REPR_MIX)
        seq = _sequence(rng, v, l, d)
        hidden = rng.normal(size=(v, l, d))
        out, deltas = _forward_and_deltas(variant, seq, hidden, params)
        min_delta = min(min_delta, float(deltas.min()))

        # node-permutation equivariance
        perm = rng.permutation(v)
        seq_p = SnapshotSequence(snapshots=tuple(
            Snapshot(s.adjacency[np.ix_(perm, perm)], s.features[perm], s.timestamp)
            for s in seq))
        out_p, _ = _forward_and_deltas(variant, seq_p, hidden[perm], params)
        worst_perm = max(worst_perm, float(np.abs(out_p - out[perm]).max()))

        # causality: editing the last step must not touch earlier outputs
        bumped_hidden = hidden.copy()
        bumped_hidden[:, -1] += rng.normal(size=(v, d))
        snaps = list(seq.snapshots)
        snaps[-1] = Snapshot(snaps[0].adjacency, rng.normal(size=(v, d)),
                             snaps[-1].timestamp)
        bumped, _ = _forward_and_deltas(variant, SnapshotSequence(snapshots=tuple(snaps)),
                                        bumped_hidden, params)
        causal = causal and np.array_equal(bumped[:, :l - 1], out[:, :l - 1])

        # mixing is honored in the first block only (the default)
        blocks = (BlockParams(layer=params),
                  BlockParams(layer=build(rng, d, n, mechanism=MixMechanism.REPR_MIX)))
        demoted = (blocks[0], BlockParams(layer=dataclasses.replace(
            blocks[1].layer, mix_mechanism=MixMechanism.ORDINARY)))
        gated = block_forward(hidden, seq, blocks)
        manual = block_forward(hidden, seq, demoted, first_block_mixing_only=False)
        mixing_gated = mixing_gated and np.array_equal(gated, manual)
    took = time.perf_counter() - t0
    ok = (worst_perm <= 1e-12 and causal and min_delta > 0.0 and mixing_gated
          and took < 30.0)
    _verdict(6, ok, f"S4/S5/S6 at V=5 L=7 D=3 N=4: permutation err="
                    f"{worst_perm:.1e} (tol 1e-12), causality "
                    f"{'exact' if causal else 'BROKEN'}, min step size="
                    f"{min_delta:.3f} (>0), first-block-only mixing "
                    f"{'holds' if mixing_gated else 'BROKEN'}; "
                    f"time={took:.1f}s (budget 30s)")


# ---------------------------------------------------------------------------
# 7. analytic readout gradient vs central finite differences
# ---------------------------------------------------------------------------

def test_criterion_07_readout_gradient_matches_finite_differences():
    rng = named_rng(0, "acceptance-gradient")
    features = rng.normal(size=(30, 5))
    labels = rng.integers(0, 3, size=30)
    params = 0.5 * rng.normal(size=5 * 3 + 3)
    err = finite_diff_check(
        lambda p: readout_loss(p, features, labels, 3, l2=1e-3), params)
    _verdict(7, err <= 1e-4, f"max rel gradient err={err:.2e} (tol 1e-4)")


# ---------------------------------------------------------------------------
# 8. end-to-end lift of the temporal model over the static baseline
# ---------------------------------------------------------------------------

def test_criterion_08_temporal_model_beats_static_baseline_by_5_points(tmp_path):
    out = tmp_path / "results.csv"
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--config", str(_CONFIG), "--init", "s4d_real", "--out", str(out)])
    took = time.perf_counter() - t0
    assert code == 0, "gssm run failed"
    rows = list(csv.DictReader(out.read_text(encoding="ascii").splitlines()))
    micro = {variant: np.mean([float(r["micro_f1"]) for r in rows if r["variant"] == variant])
             for variant in ("s4", "static")}
    lift = 100.0 * (micro["s4"] - micro["static"])
    ok = lift >= 5.0 and took < 600.0
    _verdict(8, ok, f"10 seeds: micro-F1 s4={100 * micro['s4']:.2f} vs "
                    f"static={100 * micro['static']:.2f}, lift={lift:.2f} points "
                    f"(need >= 5); time={took:.1f}s (budget 600s)")


# ---------------------------------------------------------------------------
# 9. continuity metrics on hand-built sequences
# ---------------------------------------------------------------------------

def test_criterion_09_continuity_metrics_reproduce_the_known_patterns():
    rng = named_rng(0, "acceptance-metrics")
    path = np.zeros((4, 4), dtype=bool)
    path[0, 1] = path[1, 0] = path[1, 2] = path[2, 1] = True
    ring = np.zeros((4, 4), dtype=bool)
    ring[2, 3] = ring[3, 2] = ring[0, 3] = ring[3, 0] = True
    feats = rng.normal(size=(4, 3))

    same = temporal_continuity(SnapshotSequence(snapshots=(
        Snapshot(path, feats, 0.0), Snapshot(path, feats.copy(), 1.0))))
    disjoint = temporal_continuity(SnapshotSequence(snapshots=(
        Snapshot(path, feats, 0.0),
        Snapshot(ring, rng.normal(size=(4, 3)), 1.0))))
    shared_feats = temporal_continuity(SnapshotSequence(snapshots=(
        Snapshot(path, feats, 0.0), Snapshot(ring, feats.copy(), 1.0))))

    ok = (same[0] == 1.0 and abs(same[1] - 1.0) <= 1e-9
          and disjoint[0] == 0.0
          and abs(shared_feats[1] - 1.0) <= 1e-9)
    _verdict(9, ok, f"identical -> ({same[0]:.3f}, {same[1]:.3f}); disjoint "
                    f"edges -> ({disjoint[0]:.3f}, .); shared features -> "
                    f"feature continuity {shared_feats[1]:.3f}")


# ---------------------------------------------------------------------------
# 10. state carry-over across node-set changes
# ---------------------------------------------------------------------------

def test_criterion_10_alignment_preserves_rows_and_applies_the_init_rule():
    rng = named_rng(0, "acceptance-align")
    persisted_exact = True
    new_rows_ok = True
    for rule in (StateInitRule.ZERO, StateInitRule.NEIGHBOR_MEAN):
        ids = sorted(int(x) for x in rng.choice(50, size=8, replace=False))
        u = rng.normal(size=(len(ids), 6))
        for _ in range(20):
            keep = [i for i in ids if rng.random() < 0.7] or ids[:1]
            fresh = [int(x) for x in rng.choice(200, size=rng.integers(1, 4),
                                                replace=False) + 50]
            new_ids = sorted(set(keep) | set(fresh))
            adj = rng.random((len(new_ids), len(new_ids))) < 0.4
            adj = np.triu(adj, 1)
            adj = adj | adj.T
            u_new = align_memory(u, ids, new_ids, rule, adjacency=adj)

            for row, node in enumerate(new_ids):
                if node in ids:
                    persisted_exact = persisted_exact and np.array_equal(
                        u_new[row], u[ids.index(node)])
                elif rule is StateInitRule.ZERO:
                    new_rows_ok = new_rows_ok and np.array_equal(
                        u_new[row], np.zeros(6))
                else:
                    survivors = [j for j in np.flatnonzero(adj[row])
                                 if new_ids[j] in ids]
                    want = (np.mean([u[ids.index(new_ids[j])] for j in survivors],
                                    axis=0) if survivors else np.zeros(6))
                    new_rows_ok = new_rows_ok and bool(
                        np.all(np.abs(u_new[row] - want) <= 1e-12))
            ids, u = new_ids, u_new
            # keep fresh randomness in the carried state for the next round
            u = u + rng.normal(size=u.shape)
    ok = persisted_exact and new_rows_ok
    _verdict(10, ok, f"40 randomized node-set changes x 2 init rules: "
                     f"persisting rows {'bit-exact' if persisted_exact else 'CHANGED'}, "
                     f"new rows {'per rule' if new_rows_ok else 'WRONG'}")
