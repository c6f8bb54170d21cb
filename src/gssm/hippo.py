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
affine map, smooths all of a block's stage features in one product, and
composes the block's steps in one product more: the step matrix's powers
(built by doubling) and the stage gains are built once per segment (for
the default HiPPO-LegS pair, once per order, step size and block length).
Where the smoother is exactly I (alpha = 0, or a piece with no edges) the
stage features are taken as they are.
`projection_oracle` provides the independent brute-force check: project each
node's history onto normalized Legendre polynomials by quadrature, then apply
the same smoothing operator at the evaluation time.  At alpha = 0 (or on an
edgeless graph) everything collapses to independent per-node HiPPO, which is
what several tests pin down.

Both return the coefficients U as a [V x N] array, and both read the node
features X(t) through a feature path on a time grid:
`feature_path(times)` takes a 1-D float array of K times and returns the
[K x V] features at those times, one row per time.  The integrator calls it
once per block of RK4 steps on the block's stage times, the oracle once on
its quadrature nodes; each result is checked once for shape and finiteness.

scipy.linalg is imported inside the functions that use it (LAPACK in
`smoothing_matrix`, `eigvalsh` in `consensus_profile`), so `import gssm`
does not load it: only a command that smooths a graph pays for it.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._checks import finite, integer, nonnegative, square
from .tgraph import (EventStream, LaplacianKind, Snapshot, adjacency_from_edges, edges_at,
                     laplacian, segments)

# The unscaled flow is singular to start exactly at t=0 (the underlying
# measure normalizes by 1/t), so integration and the oracle both treat this
# as the earliest usable time origin.
TIME_ORIGIN = 1e-3

# RK4 steps whose stage features, step-matrix powers and gains
# integrate_hippo holds at once.
_BLOCK_STEPS = 256


def hippo_legs_matrices(order: int) -> tuple[np.ndarray, np.ndarray]:
    """HiPPO-LegS transition matrices (A [N x N], B [N]), 0-based indexing.

    A[n, k] = -sqrt((2n+1)(2k+1))  for n > k
              -(n+1)               for n == k
              0                    for n < k
    B[n]    = sqrt(2n+1)
    """
    n = np.arange(integer(order, "order", 1))
    root = np.sqrt(2.0 * n + 1.0)
    a = -np.outer(root, root)
    a = np.tril(a, -1) + np.diag(-(n + 1.0))
    return a, root


@dataclass(frozen=True)
class HippoConfig:
    """Approximation order, smoothing strength, and grid resolutions."""

    order: int
    alpha: float
    laplacian: LaplacianKind = LaplacianKind.SYMMETRIC
    ode_steps_per_unit: int = 200
    quadrature_points: int = 2001

    def __post_init__(self):
        for name, least in (("order", 1), ("ode_steps_per_unit", 1), ("quadrature_points", 2)):
            integer(getattr(self, name), name, least)
        nonnegative(self.alpha, "alpha")


def smoothing_matrix(adj, alpha: float, kind: LaplacianKind) -> np.ndarray:
    """Dense (I + alpha*L)^{-1} for the graph with adjacency `adj`.

    One LU factorization solved against I (LU rather than Cholesky: the
    random-walk Laplacian is not symmetric).  The explicit inverse is safe:
    the eigenvalues of I + alpha*L lie in [1, 1 + 2*alpha] for both kinds, so
    the symmetric kind's condition number is at most 1 + 2*alpha; the
    random-walk matrix is similar to it through D^{1/2}, which adds at most
    a factor max(degree)/min(degree) over the non-isolated nodes.  alpha
    must be finite and >= 0: below 0 the matrix can be singular.
    """
    alpha = nonnegative(alpha, "alpha")
    lap = laplacian(adj, kind)
    eye = np.eye(lap.shape[0])
    if not eye.size:
        return eye
    from scipy.linalg.lapack import dgetrf, dgetrs  # scipy.linalg loads on first use
    lu, piv, info = dgetrf(finite(eye + alpha * lap, "I + alpha*L"), overwrite_a=True)
    inv, solved = dgetrs(lu, piv, eye, overwrite_b=True)
    if info or solved:
        raise ValueError(f"I + alpha*L: LAPACK getrf/getrs info {info}/{solved}")
    return inv


def _feature_grid(feature_path, times: np.ndarray, num_nodes: int) -> np.ndarray:
    """feature_path(times) copied into a C-contiguous [K x V] float64 array.

    The copy gives every caller the same memory layout whatever the path
    returns (a broadcast view, a reused buffer), so the products taken over it
    sum in the same order.  ValueError unless the shape is [K x V] and every
    value is finite; the message names the first time with a non-finite row.
    """
    x = np.array(feature_path(times), dtype=float, order="C")
    if x.shape != (times.size, num_nodes):
        raise ValueError(f"feature_path on {times.size} times from {float(times[0])!r} "
                         f"returned shape {x.shape}, expected ({times.size}, {num_nodes})")
    ok = np.isfinite(x).all(axis=1)
    if not ok.all():
        bad = float(times[np.argmin(ok)])
        raise ValueError(f"feature_path({bad!r}) returned non-finite values")
    return x


def _rk4_operators(a_t: np.ndarray, b_vec: np.ndarray, h: float, kmax: int):
    """(P^0..P^kmax [kmax+1 x N x N], gains G [kmax x 3 x N]) of the RK4 step
    of size h for dU/dt = U A^T + y b (see `integrate_hippo`), with
    G[k, s] = bQs P^(kmax - 1 - k); the powers are built by doubling."""
    eye = np.eye(b_vec.size)
    z = h * a_t
    z2 = z @ z
    z3 = z2 @ z
    p = eye + z + z2 / 2.0 + z3 / 6.0 + (z3 @ z) / 24.0
    bq = (h / 6.0) * np.stack([b_vec @ (eye + z + z2 / 2.0 + z3 / 4.0),
                               b_vec @ (4.0 * eye + 2.0 * z + z2 / 2.0),
                               b_vec])
    powers = np.stack([eye, p])
    while len(powers) <= kmax:
        powers = np.concatenate((powers, powers[1:kmax + 2 - len(powers)] @ powers[-1]))
    return powers, bq @ powers[kmax - 1::-1]


@functools.lru_cache(maxsize=4)
def _legs_operators(order: int, h: float, kmax: int):
    """`_rk4_operators` of the HiPPO-LegS pair, read-only.  4 entries: a verify
    reduction instance has at most 4 pieces, which its per-node reruns revisit
    in order.  An entry holds (kmax+1)*N^2 + 3*kmax*N doubles (N = order)."""
    a, b = hippo_legs_matrices(order)
    powers, gains = _rk4_operators(a.T, b, h, kmax)
    powers.flags.writeable = gains.flags.writeable = False
    return powers, gains


def _smoother_t(edges, num_nodes: int, cfg: HippoConfig):
    """`smoothing_matrix` of a segment's edge set, transposed, or None where it
    is exactly I: at alpha = 0, or with no edges (isolated rows of `laplacian`
    are zero)."""
    if cfg.alpha == 0 or not edges:
        return None
    return smoothing_matrix(adjacency_from_edges(edges, num_nodes), cfg.alpha, cfg.laplacian).T


def integrate_hippo(stream: EventStream, feature_path, cfg: HippoConfig, t_end: float,
                    u_start: np.ndarray | None = None,
                    t_start: float | None = None,
                    system=None) -> np.ndarray:
    """The per-node coefficients U [V x N] at t_end: the smoothed-projection
    flow integrated with classical RK4.

    feature_path maps a 1-D array of K times to the [K x V] scalar node
    features at those times (multi-channel callers loop over channels; the
    channels are independent).  Integration is split exactly at every
    mutation time, so no RK4 step ever straddles a Laplacian discontinuity.
    Within a segment the feature path is sampled with the right endpoint
    clamped just inside the segment, which keeps step-function feature paths
    (keyed by segment) from leaking their next value into the k4 stage.

    On a segment the flow is linear and time-invariant in U, so one RK4 step
    of size h is exactly the affine map

        U <- U P + (S x0) (x) bQ0 + (S x_mid) (x) bQmid + (S x1) (x) bQ1,

    with Z = h A^T, P = I + Z + Z^2/2 + Z^3/6 + Z^4/24 (RK4's stability
    polynomial), bQ0 = h b (I + Z + Z^2/2 + Z^3/4)/6, bQmid = h b (4I + 2Z +
    Z^2/2)/6, bQ1 = h b/6 and x0, x_mid, x1 the features at the step's start,
    midpoint and end.  Steps are taken in blocks of at most kmax =
    min(_BLOCK_STEPS, nst), and a block of j steps with smoothed stage
    features y_k,s (step k, stage s) needs only its end state:

        U <- U P^j + sum_k sum_s y_k,s (x) G[kmax - j + k, s],
        G[k, s] = bQs P^(kmax - 1 - k),

    one product and one einsum.  Once per segment P^0..P^kmax are built by
    doubling (log2 kmax stacked products) and the gains G from them, so the
    extra memory does not grow with nst; without `system` the last 4 builds
    stay memoized, up to 4*((kmax+1)*N^2 + 3*kmax*N) doubles (~138 MB at
    N = 128).  The feature path is called once per block on the block's stage
    times not yet evaluated: over a segment of nst steps the calls cover its
    2*nst + 1 distinct stage times once each, in increasing order.

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
    if system is not None:
        a_mat, b_vec = system
        a_t = finite(a_mat, "system override").T
        b_vec = finite(b_vec, "system override").reshape(-1)
        if a_t.shape != (n, n) or b_vec.size != n:
            raise ValueError("system override must match cfg.order")
    u = np.zeros((stream.num_nodes, n)) if u_start is None else np.array(u_start, dtype=float)
    if u.shape != (stream.num_nodes, n):
        raise ValueError(f"u_start must have shape ({stream.num_nodes}, {n})")
    finite(u, "u_start")

    for seg_a, seg_b, edges in segments(stream, t_start, t_end):
        smooth_t = _smoother_t(edges, stream.num_nodes, cfg)
        right_lim = np.nextafter(seg_b, seg_a)
        nst = max(1, math.ceil((seg_b - seg_a) * cfg.ode_steps_per_unit))
        h = (seg_b - seg_a) / nst
        kmax = min(_BLOCK_STEPS, nst)
        powers, gains = (_legs_operators(n, h, kmax) if system is None
                         else _rk4_operators(a_t, b_vec, h, kmax))
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
            x = _feature_grid(feature_path, times, stream.num_nodes)
            s = np.concatenate((carried, x if smooth_t is None else x @ smooth_t))
            # Step k reads the smoothed features at stages 2k, 2k+1, 2k+2: the
            # view sliding_window_view(s, 3, axis=0)[::2] builds, without its checks.
            row, col = s.strides
            stages = np.lib.stride_tricks.as_strided(
                s, (steps, s.shape[1], 3), (2 * row, col, row), writeable=False)
            u = u @ powers[steps] + np.einsum("kvs,ksn->vn", stages, gains[kmax - steps:])
            t, carried = ends[-1], s[-1:]
    return u


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
                      t: float) -> np.ndarray:
    """Brute-force reference for the projection coefficients U [V x N] at time t.

    Computes Q[v, n] = (1/t) * integral_0^t x_v(s) P~_n(2s/t - 1) ds by
    composite-trapezoid quadrature on cfg.quadrature_points nodes, then
    returns (I + alpha*L(t))^{-1} Q.  feature_path is called once, on the
    quadrature nodes, and must return their [K x V] features (see
    `integrate_hippo`).  Deliberately shares no code with the RK4 integrator
    beyond the feature-path check and the smoothing operator
    `smoothing_matrix`.  t must be finite and in (0, horizon].
    """
    if not 0 < t <= stream.horizon:
        raise ValueError(f"oracle evaluation time {t} must lie in (0, {stream.horizon}]")
    npts = cfg.quadrature_points
    s = np.linspace(0.0, t, npts)
    x = _feature_grid(feature_path, s, stream.num_nodes)
    basis = _normalized_legendre(2.0 * s / t - 1.0, cfg.order)
    w = np.full(npts, t / (npts - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    q = (x * w[:, None]).T @ basis.T / t
    adj = adjacency_from_edges(edges_at(stream, t), stream.num_nodes)
    return smoothing_matrix(adj, cfg.alpha, cfg.laplacian) @ q


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
    adj = snap.adjacency if isinstance(snap, Snapshot) else square(snap, "adjacency")
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
    from scipy.linalg import eigvalsh
    sym_eigs = eigvalsh(laplacian(adj, LaplacianKind.SYMMETRIC))
    if int(np.sum(np.abs(sym_eigs) < 1e-8)) != len(components):
        raise RuntimeError("null-space dimension does not match component count")
    return profiles
