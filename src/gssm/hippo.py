"""Graph-regularized HiPPO memory operator, continuous time.

The operator keeps, for every node, the coefficients of an online Legendre
expansion of that node's feature history, with neighboring nodes' histories
tied together by a graph-Laplacian smoothing term.  Concretely it integrates

    dU/dt = U A^T + (I + alpha * L(t))^{-1} X(t) B^T,        U(t0) = 0,

piecewise between edge mutations, where (A, B) are the HiPPO-LegS matrices.
`tgraph.segments` yields the pieces on which L(t) is constant, and
`smoothing_matrix` turns each piece's graph into the dense operator
(I + alpha * L)^{-1}.  On such a piece the flow is linear and time-invariant
in U, so `integrate_hippo` takes each classical RK4 step as one precomputed
affine map and smooths all of a block's stage features in one product.
`projection_oracle` provides the independent brute-force check: project each
node's history onto normalized Legendre polynomials by quadrature, then apply
the same smoothing operator at the evaluation time.  At alpha = 0 (or on an
edgeless graph) everything collapses to independent per-node HiPPO, which is
what several tests pin down.
"""

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigvalsh, lu_factor, lu_solve

from .tgraph import (EventStream, LaplacianKind, Snapshot, adjacency_from_edges, edges_at,
                     laplacian, segments)

# The unscaled flow is singular to start exactly at t=0 (the underlying
# measure normalizes by 1/t), so integration and the oracle both treat this
# as the earliest usable time origin.
TIME_ORIGIN = 1e-3

# RK4 steps whose stage features and forcing integrate_hippo holds at once.
_BLOCK_STEPS = 256


class HippoLegS(NamedTuple):
    order: int
    A: np.ndarray  # [N x N], lower triangular
    B: np.ndarray  # [N]


def hippo_legs_matrices(order: int) -> HippoLegS:
    """HiPPO-LegS transition matrices, 0-based indexing.

    A[n, k] = -sqrt((2n+1)(2k+1))  for n > k
              -(n+1)               for n == k
              0                    for n < k
    B[n]    = sqrt(2n+1)
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    n = np.arange(order)
    root = np.sqrt(2.0 * n + 1.0)
    a = -np.outer(root, root)
    a = np.tril(a, -1) + np.diag(-(n + 1.0))
    return HippoLegS(order, a, root.copy())


@dataclass(frozen=True)
class HippoConfig:
    """Approximation order, smoothing strength, and grid resolutions."""

    order: int
    alpha: float
    laplacian: LaplacianKind = LaplacianKind.SYMMETRIC
    ode_steps_per_unit: int = 200
    quadrature_points: int = 2001

    def __post_init__(self):
        for name in ("order", "ode_steps_per_unit", "quadrature_points"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if not np.isfinite(self.alpha) or self.alpha < 0:
            raise ValueError("alpha must be finite and >= 0")
        if self.ode_steps_per_unit < 1 or self.quadrature_points < 2:
            raise ValueError("grid resolutions too small")


@dataclass
class CoefficientState:
    """Per-node expansion coefficients U [V x N] at a point in time."""

    u: np.ndarray
    time: float


def smoothing_matrix(adj, alpha: float, kind: LaplacianKind) -> np.ndarray:
    """Dense (I + alpha*L)^{-1} for the graph with adjacency `adj`.

    One LU factorization solved against I (LU rather than Cholesky: the
    random-walk Laplacian is not symmetric).  The explicit inverse is safe:
    the eigenvalues of I + alpha*L lie in [1, 1 + 2*alpha] for both kinds, so
    the symmetric kind's condition number is at most 1 + 2*alpha; the
    random-walk matrix is similar to it through D^{1/2}, which adds at most
    a factor max(degree)/min(degree) over the non-isolated nodes.
    """
    eye = np.eye(np.shape(adj)[0])
    return lu_solve(lu_factor(eye + alpha * laplacian(adj, kind)), eye)


def _feature_vector(feature_path, t: float, num_nodes: int) -> np.ndarray:
    x = np.asarray(feature_path(t), dtype=float).reshape(-1)
    if x.size != num_nodes:
        raise ValueError(f"feature_path({t}) has size {x.size}, expected {num_nodes}")
    if not np.isfinite(x).all():
        raise ValueError(f"feature_path({t}) returned non-finite values")
    return x


def integrate_hippo(stream: EventStream, feature_path, cfg: HippoConfig, t_end: float,
                    u_start: np.ndarray | None = None,
                    t_start: float | None = None,
                    system=None) -> CoefficientState:
    """Integrate the smoothed-projection flow up to t_end with classical RK4.

    feature_path maps a time to the [V] vector of scalar node features
    (multi-channel callers loop over channels; the channels are independent).
    Integration is split exactly at every mutation time, so no RK4 step ever
    straddles a Laplacian discontinuity.  Within a segment the feature path
    is sampled with the right endpoint clamped just inside the segment, which
    keeps step-function feature paths (keyed by segment) from leaking their
    next value into the k4 stage.

    On a segment the flow is linear and time-invariant in U, so one RK4 step
    of size h is exactly the affine map

        U <- U P + (S x0) (x) bQ0 + (S x_mid) (x) bQmid + (S x1) (x) bQ1,

    with Z = h A^T, P = I + Z + Z^2/2 + Z^3/6 + Z^4/24 (RK4's stability
    polynomial), bQ0 = h b (I + Z + Z^2/2 + Z^3/4)/6, bQmid = h b (4I + 2Z +
    Z^2/2)/6, bQ1 = h b/6 and x0, x_mid, x1 the features at the step's start,
    midpoint and end.  P and the bQ rows are built once per segment, and the
    feature path is called once per distinct stage time: 2*nst + 1 times on a
    segment of nst steps, in increasing time order.  Steps are taken in
    blocks of a fixed size, so the extra memory does not grow with nst.

    u_start/t_start default to a zero state at TIME_ORIGIN; passing both lets
    discretization tests resume the flow mid-interval.  `system` optionally
    replaces the default memory pair (the HiPPO-LegS matrices of cfg.order)
    with any (state matrix [N x N], drive vector [N]) sharing the same flow
    shape -- e.g. the diagonal pair the discretization oracle updates.
    """
    if t_start is None:
        t_start = TIME_ORIGIN
    if not (0.0 < t_start < t_end <= stream.horizon):
        raise ValueError("need 0 < t_start < t_end <= horizon")
    n = cfg.order
    a_mat, b_vec = hippo_legs_matrices(n)[1:] if system is None else system
    a_t = np.asarray(a_mat, dtype=float).T
    b_vec = np.asarray(b_vec, dtype=float).reshape(-1)
    if a_t.shape != (n, n) or b_vec.size != n:
        raise ValueError("system override must match cfg.order")
    if not (np.isfinite(a_t).all() and np.isfinite(b_vec).all()):
        raise ValueError("system override must be finite")
    u = np.zeros((stream.num_nodes, n)) if u_start is None else np.array(u_start, dtype=float)
    if u.shape != (stream.num_nodes, n):
        raise ValueError(f"u_start must have shape ({stream.num_nodes}, {n})")
    if not np.isfinite(u).all():
        raise ValueError("u_start must be finite")

    eye = np.eye(n)
    for seg_a, seg_b, edges in segments(stream, t_start, t_end):
        smooth_t = smoothing_matrix(adjacency_from_edges(edges, stream.num_nodes),
                                    cfg.alpha, cfg.laplacian).T
        right_lim = np.nextafter(seg_b, seg_a)
        nst = max(1, math.ceil((seg_b - seg_a) * cfg.ode_steps_per_unit))
        h = (seg_b - seg_a) / nst
        z = h * a_t
        z2 = z @ z
        z3 = z2 @ z
        p = eye + z + z2 / 2.0 + z3 / 6.0 + (z3 @ z) / 24.0
        bq = (h / 6.0) * np.stack([b_vec @ (eye + z + z2 / 2.0 + z3 / 4.0),
                                   b_vec @ (4.0 * eye + 2.0 * z + z2 / 2.0),
                                   b_vec])

        t = seg_a
        carried = np.empty((0, stream.num_nodes))  # smoothed features at t, once known
        for first in range(0, nst, _BLOCK_STEPS):
            steps = min(_BLOCK_STEPS, nst - first)
            # Stage times t_k, t_k + h/2, ..., t_k + steps*h, with t_{k+1} = t_k + h
            # accumulated step by step as a scalar loop would.
            ends = np.cumsum(np.concatenate(([t], np.full(steps, h))))
            grid = np.empty(2 * steps + 1)
            grid[0::2] = ends
            grid[1::2] = ends[:-1] + 0.5 * h
            times = np.minimum(grid[len(carried):], right_lim)
            x = np.empty((times.size, stream.num_nodes))
            for i, ti in enumerate(times.tolist()):
                x[i] = _feature_vector(feature_path, ti, stream.num_nodes)
            s = np.concatenate((carried, x @ smooth_t))
            # Step k reads the smoothed features at stages 2k, 2k+1, 2k+2.
            stages = np.lib.stride_tricks.sliding_window_view(s, 3, axis=0)[::2]
            for drive in np.einsum("kvs,sn->kvn", stages, bq):
                u = u @ p + drive
            t, carried = ends[-1], s[-1:]
    return CoefficientState(u, t_end)


def _normalized_legendre(x: np.ndarray, order: int) -> np.ndarray:
    """Rows P~_0..P~_{order-1} evaluated at x in [-1, 1].

    Three-term recurrence (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}, then
    scaled by sqrt(2n+1) so the family is orthonormal under the uniform
    probability measure on the interval.
    """
    p = np.empty((order, x.size))
    p[0] = 1.0
    if order > 1:
        p[1] = x
    for k in range(1, order - 1):
        p[k + 1] = ((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1)
    return p * np.sqrt(2.0 * np.arange(order) + 1.0)[:, None]


def projection_oracle(stream: EventStream, feature_path, cfg: HippoConfig,
                      t: float) -> CoefficientState:
    """Brute-force reference for the projection coefficients at time t.

    Computes Q[v, n] = (1/t) * integral_0^t x_v(s) P~_n(2s/t - 1) ds by
    composite-trapezoid quadrature on cfg.quadrature_points nodes, then
    returns (I + alpha*L(t))^{-1} Q.  Deliberately shares no code with the
    RK4 integrator beyond the smoothing operator `smoothing_matrix`.  t must be
    finite and in (0, horizon].
    """
    if not 0 < t <= stream.horizon:
        raise ValueError(f"oracle evaluation time {t} must lie in (0, {stream.horizon}]")
    npts = cfg.quadrature_points
    s = np.linspace(0.0, t, npts)
    x = np.empty((npts, stream.num_nodes))
    for i, si in enumerate(s):
        x[i] = _feature_vector(feature_path, si, stream.num_nodes)
    basis = _normalized_legendre(2.0 * s / t - 1.0, cfg.order)
    w = np.full(npts, t / (npts - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    q = (x * w[:, None]).T @ basis.T / t
    adj = adjacency_from_edges(edges_at(stream, t), stream.num_nodes)
    return CoefficientState(smoothing_matrix(adj, cfg.alpha, cfg.laplacian) @ q, t)


def consensus_profile(snap, kind: LaplacianKind):
    """Null-space profiles of the Laplacian, one unit vector per component.

    In the infinite-smoothing limit the regularizer forces node values onto
    the Laplacian's null space: proportional to sqrt(degree) within each
    connected component for the Symmetric kind, constant within each
    component for RandomWalk.  (An isolated node is its own component and
    keeps its own value either way.)  The predicted profiles are verified
    against the matrix -- each must be annihilated by L, and the null-space
    dimension must equal the component count -- before being returned.
    """
    adj = snap.adjacency if isinstance(snap, Snapshot) else np.asarray(snap)
    adj = adj.astype(bool)
    num_nodes = adj.shape[0]
    deg = adj.sum(axis=1).astype(float)

    from scipy.sparse.csgraph import connected_components  # scipy.sparse loads on first use
    count, labels = connected_components(adj, directed=False)
    # Sorted node ids per component, components ordered by smallest node id.
    components = sorted((np.flatnonzero(labels == k) for k in range(count)),
                        key=lambda comp: comp[0])

    lap = laplacian(adj, kind)
    profiles = []
    for comp in components:
        z = np.zeros(num_nodes)
        if len(comp) == 1:
            z[comp[0]] = 1.0
        elif kind is LaplacianKind.SYMMETRIC:
            z[comp] = np.sqrt(deg[comp])
        else:
            z[comp] = 1.0
        z /= np.linalg.norm(z)
        if np.linalg.norm(lap @ z) > 1e-10 * max(1.0, np.linalg.norm(lap)):
            raise RuntimeError("predicted consensus profile is not in the null space")
        profiles.append(z)

    # Null dimension of the symmetric Laplacian equals the component count for
    # both kinds (the random-walk matrix is similar to the symmetric one on
    # the support of the degree vector).
    sym_eigs = eigvalsh(laplacian(adj, LaplacianKind.SYMMETRIC))
    if int(np.sum(np.abs(sym_eigs) < 1e-8)) != len(components):
        raise RuntimeError("null-space dimension does not match component count")
    return profiles
