"""One sequence through all three layer variants, then the residual block
stack and state carry-over across a node-set change.
"""

import numpy as np

from gssm import (BlockParams, GnnFlavor, GnnParams, InitStrategy,
                  InterpMixParams, MixMechanism, Snapshot, SnapshotSequence,
                  SsmLayerParams, SsmVariant, StateInitRule, align_memory,
                  block_forward, delta_bias_init, glorot, init_a, ssm_forward)

rng = np.random.default_rng(7)
v, l, d, n = 6, 5, 3, 4

# A random snapshot sequence: fresh graph + features at every step.
snaps = []
for step in range(l):
    adj = np.triu(rng.random((v, v)) < 0.4, 1)
    snaps.append(Snapshot(adj | adj.T, rng.normal(size=(v, d)), float(step + 1)))
seq = SnapshotSequence(snapshots=tuple(snaps))
hidden = rng.normal(size=(v, l, d))

def gnn(d_out):
    return GnnParams(weight=glorot(rng, (d, d_out)),
                     bias=0.1 * rng.normal(size=d_out),
                     flavor=GnnFlavor.GCN_LIKE, self_mix=0.5)

def interp():
    return InterpMixParams(w_scale=glorot(rng, (2 * d, d)), b_scale=np.zeros(d),
                           w_blend=glorot(rng, (2 * d, d)), b_blend=np.zeros(d))

# --- the three variants ---------------------------------------------------------
# One forward, u_l = e^{delta a} u_{l-1} + delta B h_l, for every variant.
# S4: one scalar state path per (node, channel); S5: one shared state per node;
# S6: step size / drive / readout all produced from the input by small GNNs.
s4 = SsmLayerParams(variant=SsmVariant.S4, a=init_a(InitStrategy.S4D_REAL, (d, n)),
                    gnn=gnn(d), b=np.ones((d, n)), c=glorot(rng, (d, n)),
                    delta_weight=0.1 * rng.normal(size=d), delta_bias=delta_bias_init(l),
                    mix=interp(), mix_mechanism=MixMechanism.REPR_MIX)
s5 = SsmLayerParams(variant=SsmVariant.S5, a=init_a(InitStrategy.S4D_REAL, (n,)),
                    gnn=gnn(d), b=glorot(rng, (d, n)), c=glorot(rng, (n, d)),
                    delta_weight=0.1 * rng.normal(size=d), delta_bias=delta_bias_init(l),
                    mix=interp(), mix_mechanism=MixMechanism.REPR_MIX)
s6 = SsmLayerParams(variant=SsmVariant.S6, a=init_a(InitStrategy.S4D_CONST, (d, n)),
                    gnn=gnn(d), delta_bias=np.full(d, delta_bias_init(l)),
                    mix=interp(), mix_mechanism=MixMechanism.REPR_MIX,
                    gnn_delta=gnn(d), gnn_b=gnn(n), gnn_c=gnn(n))

for name, params in (("S4", s4), ("S5", s5), ("S6", s6)):
    out = ssm_forward(seq, hidden, params)          # sequential scan
    gap = np.abs(ssm_forward(seq, hidden, params, backend="parallel") - out).max()
    print(f"{name}: output {out.shape}, |out| mean {np.abs(out).mean():.3f}, "
          f"sequential-vs-parallel gap {float(gap):.1e}")

# --- residual blocks -------------------------------------------------------------
# relu(layer(H)) + H per block; mixing runs in the first block only.
stack = (BlockParams(layer=s4), BlockParams(layer=s5))
out = block_forward(hidden, seq, stack)
print("\n2-block stack output:", out.shape)

# --- node set changes --------------------------------------------------------------
# Node 2 leaves, node 9 arrives.  Survivors keep their state rows bit-exactly;
# the newcomer starts at the mean of its surviving neighbours.
u = rng.normal(size=(v, n))
old_ids = [0, 1, 2, 3, 4, 5]
new_ids = [0, 1, 3, 4, 5, 9]
adj_new = np.zeros((6, 6), dtype=bool)
adj_new[5, 0] = adj_new[0, 5] = adj_new[5, 2] = adj_new[2, 5] = True  # 9 ~ {0, 3}
u_new = align_memory(u, old_ids, new_ids, StateInitRule.NEIGHBOR_MEAN,
                     adjacency=adj_new)
print("survivor rows preserved:",
      np.array_equal(u_new[:5], u[[0, 1, 3, 4, 5]]))
print("newcomer row == mean of rows 0 and 3:",
      np.allclose(u_new[5], 0.5 * (u[0] + u[3])))
