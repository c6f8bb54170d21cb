"""From continuous flow to discrete update: how one snapshot interval with
interior graph mutations collapses into a single convex-weighted step."""

import numpy as np

from gssm import (Action, EventStream, GnnParams, HippoConfig, LaplacianKind,
                  MixMechanism, MutationSchedule, Snapshot, SnapshotSequence,
                  SsmLayerParams, SsmVariant, integrate_hippo, mixed_estimate,
                  segment_weights, ssm_forward, zoh_oracle_step)

# --- segment weights ----------------------------------------------------------
# One mutation at the midpoint of a length-2 interval, scalar state a=-1.
# The interval splits into two segments whose exact contributions are convex
# weights: they sit in [0,1] and sum to 1 per state entry.  The weights read
# only the boundary times (t_start, *mutation_times, t_end) and a.
bounds = (0.0, 1.0, 2.0)
w = segment_weights(bounds, np.array([-1.0]))
print("midpoint-mutation weights (a=-1, length 2):", w.ravel())
print("sum:", w.sum())

# A faster decay shifts mass onto the segment nearest the interval's end.
for a in (-0.1, -1.0, -4.0):
    print(f"a={a:5.1f} ->", segment_weights(bounds, np.array([a])).ravel().round(4))

# --- the exact one-interval update vs the ODE ---------------------------------
# Two nodes, an edge appearing mid-interval, piecewise-constant features.
stream = EventStream(2, 3.0, frozenset(), ((0, 1, 1.0, Action.INSERT),))
feats = (np.array([1.0, -1.0]), np.array([2.0, 0.5]))
sched = MutationSchedule.from_stream(stream, 0.5, 2.5, feats)

a = np.array([-0.7, -1.3, -2.1])
b = np.array([1.0, 0.5, -0.8])
u0 = np.zeros((2, 3))
u_exact = zoh_oracle_step(u0, sched, a, b, alpha=1.0,
                          kind=LaplacianKind.SYMMETRIC)

def path(t):
    return np.where(t[:, None] < 1.0, feats[0], feats[1])

cfg = HippoConfig(order=3, alpha=1.0, laplacian=LaplacianKind.SYMMETRIC)
u_ode = integrate_hippo(stream, path, cfg, 2.5, u_start=u0, t_start=0.5,
                        system=(np.diag(a), b))
print("\nexact one-interval update:")
print(u_exact.round(6))
print("max gap to the RK4 integration:", float(np.abs(u_exact - u_ode).max()))

# --- the practical per-step recurrence ----------------------------------------
# The layers scan u' = u * e^{delta a} + delta * x b^T over a whole sequence.
# One snapshot from a zero state through an S4 layer with an identity GNN
# takes one such step, with the first-order drive delta standing in for the
# exact (e^{delta a} - 1)/a above.
layer = SsmLayerParams(
    variant=SsmVariant.S4, a=a[None, :],
    gnn=GnnParams(weight=np.eye(1), bias=np.zeros(1), self_mix=0.0),
    b=b[None, :], c=np.ones((1, 3)), delta_weight=np.zeros(1),
    delta_bias=np.log(np.expm1(0.3)))  # delta = softplus(delta_bias) = 0.3
one = SnapshotSequence((Snapshot(np.zeros((2, 2), dtype=bool), np.zeros((2, 1)), 1.0),))
y1 = ssm_forward(one, feats[1].reshape(2, 1, 1), layer)[:, 0, 0]
exact = feats[1] * float(b @ (np.expm1(0.3 * a) / a))
print("\none practical step (delta=0.3), per-node readout:", y1.round(6))
print("exact zero-order hold over the same step:      ", exact.round(6))

# --- drive estimates between consecutive snapshots -----------------------------
# The step's input can look at the previous snapshot too.  ORDINARY ignores it,
# FEATURE_MIX blends before diffusion, REPR_MIX blends the diffused values --
# with a nonlinear "diffusion" the order of operations shows up in the numbers.
# mixed_estimate returns one estimate per snapshot and diffuses each snapshot
# once; the first snapshot has no predecessor and always takes ORDINARY.
x_prev, x_cur = np.array([[0.0], [4.0]]), np.array([[2.0], [2.0]])
g_prev = Snapshot(np.zeros((2, 2), dtype=bool), x_prev, 0.0)
g_cur = Snapshot(np.zeros((2, 2), dtype=bool), x_cur, 1.0)
gnn = lambda x, g: x ** 2
mix = lambda z1, z2: 0.5 * (z1 + z2)
for mech in MixMechanism:
    est = mixed_estimate([x_prev, x_cur], [g_prev, g_cur], mech, gnn, mix)[-1]
    print(f"{mech.value:12s} -> {est.ravel()}")
