"""The continuous-time memory operator: every node compresses its (graph-
smoothed) feature history into Legendre coefficients, and the graph term pulls
neighbours' memories toward consensus.

Run time: a few seconds (the brute-force oracle does a lot of quadrature).
"""

import numpy as np

from gssm import (Action, EventStream, HippoConfig, LaplacianKind,
                  adjacency_from_edges, consensus_profile, edges_at,
                  hippo_legs_matrices, integrate_hippo, projection_oracle)

# --- the transition matrices themselves --------------------------------------
a, b = hippo_legs_matrices(4)
print("A (lower triangular):")
print(a)
print("B:", b)

# --- integrate a small mutating graph ----------------------------------------
# Triangle that loses an edge at t=4; constant node features, so once the
# start-up transient decays the memory settles on the smoothed features in
# the degree-0 coefficient (higher degrees go to ~0).
stream = EventStream(3, 16.0, frozenset({(0, 1), (1, 2), (0, 2)}),
                     ((0, 2, 4.0, Action.DELETE),))
x = np.array([1.0, -0.5, 2.0])
cfg = HippoConfig(order=4, alpha=0.8, laplacian=LaplacianKind.SYMMETRIC)

# A feature path maps an array of K times to the [K x nodes] features at them.
constant = lambda t: np.broadcast_to(x, (t.size, x.size))
u = integrate_hippo(stream, constant, cfg, 16.0)
print("\nmemory at t=16 (rows = nodes, cols = Legendre degrees):")
print(u.round(6))

# The oracle computes the same thing by brute-force projection (dense
# quadrature against the orthonormal Legendre basis on [0, t]).
oracle = projection_oracle(stream, constant, cfg, 16.0)
rel = np.linalg.norm(u - oracle) / np.linalg.norm(oracle)
print(f"relative gap to the projection oracle: {rel:.2e}")

# With alpha=0 the graph term vanishes: degree-0 memory == raw features.
plain = integrate_hippo(stream, constant, HippoConfig(order=4, alpha=0.0), 16.0)
print("alpha=0 degree-0 coefficients:", plain[:, 0].round(6), "(the raw x)")

# --- what the graph term preserves -------------------------------------------
# On each connected component the smoother has a null direction: a profile the
# graph pressure never touches.  For the symmetric Laplacian that's sqrt(d).
snap = adjacency_from_edges(edges_at(stream, 0.0), stream.num_nodes)
profiles = consensus_profile(snap, LaplacianKind.SYMMETRIC)
print("\nconsensus profiles at t=0 (columns, one per component):")
print(np.column_stack(profiles).round(6))
