"""The exact discretization of the memory flow over one observation interval,
and the definition of the layers' drive.

`zoh_oracle_step` is the exact zero-order-hold update for a diagonal state
matrix when the unobserved mutation times inside the interval are known.
Each inter-mutation segment (a piece of `tgraph.segments`, collected by
`MutationSchedule.from_stream`) contributes its features, smoothed by
`hippo.smoothing_matrix`, through a convex weight (`segment_weights`); the
weights depend only on the boundary times, so that is all they take.  The
practical first-order update lives in `layers.ssm_forward`.

`mixed_estimate` defines the three drive mechanisms over a snapshot
sequence (plain diffusion, mixing features before diffusion, or mixing
diffused representations), one snapshot at a time and diffusing each once.
The layers compute the same estimates over the whole sequence at once; their
tests hold them to this definition bit for bit.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._checks import finite, negative, nonnegative, real
from .hippo import smoothing_matrix
from .tgraph import EventStream, LaplacianKind, adjacency_from_edges, segments


@dataclass(frozen=True)
class MutationSchedule:
    """One observation interval (t_start, t_end] with known interior mutations.

    Segment i covers [s_i, s_{i+1}) where s_0 = t_start, s_{M+1} = t_end;
    `adjacencies[i]` and `features[i]` are the graph and the per-node scalar
    features in force on that segment (M+1 of each).  Each time must be one
    real number, not a bool, string or complex value, and is stored as a
    float; the boundaries must be finite and strictly increasing, and every
    feature value finite.
    """

    t_start: float
    t_end: float
    mutation_times: tuple
    adjacencies: tuple
    features: tuple

    def __post_init__(self):
        object.__setattr__(self, "t_start", real(self.t_start, "t_start"))
        object.__setattr__(self, "t_end", real(self.t_end, "t_end"))
        times = tuple(real(t, "mutation_times") for t in self.mutation_times)
        object.__setattr__(self, "mutation_times", times)
        _check_boundaries(self.boundaries)
        adjs = tuple(np.asarray(a, dtype=bool) for a in self.adjacencies)
        feats = tuple(finite(x, "segment features").reshape(-1) for x in self.features)
        if len(adjs) != len(times) + 1 or len(feats) != len(times) + 1:
            raise ValueError(f"{len(times)} mutations need {len(times) + 1} "
                             "segment graphs and feature vectors")
        v = adjs[0].shape[0]
        if any(a.shape != (v, v) for a in adjs) or any(x.size != v for x in feats):
            raise ValueError("segment graphs/features disagree on node count")
        object.__setattr__(self, "adjacencies", adjs)
        object.__setattr__(self, "features", feats)

    @property
    def num_nodes(self):
        return self.adjacencies[0].shape[0]

    @property
    def boundaries(self):
        return (self.t_start, *self.mutation_times, self.t_end)

    @classmethod
    def from_stream(cls, stream: EventStream, t_start: float, t_end: float, features):
        """Collect the interval's interior mutations and segment graphs from a
        stream; the interval must lie inside [0, stream.horizon]."""
        pieces = tuple(segments(stream, t_start, t_end))
        adjs = tuple(adjacency_from_edges(edges, stream.num_nodes) for _, _, edges in pieces)
        return cls(t_start, t_end, tuple(lo for lo, _, _ in pieces[1:]), adjs, tuple(features))


def _check_boundaries(boundaries, ndim=1) -> np.ndarray:
    """Boundary times as a float array of `ndim` dimensions whose rows along
    the last axis are each at least two finite, strictly increasing values."""
    s = finite(boundaries, "boundary times")
    if not (s.ndim == ndim and s.shape[-1] >= 2
            and (np.diff(s, axis=-1) > 0).all()):
        raise ValueError("boundary times must be at least two finite, strictly "
                         "increasing values")
    return s


def segment_weights(boundaries, a_diag) -> np.ndarray:
    """Convex weights [S x N] tying each of the S = len(boundaries) - 1
    segments' drive into the zero-order-hold update.

    Closed form per entry a < 0 of the 1-D diagonal, with s = boundaries =
    (t_start, *mutation_times, t_end) finite and strictly increasing:

        w_i = e^{(t_end - s_{i+1}) a} * (e^{(s_{i+1} - s_i) a} - 1) / (e^{(t_end - t_start) a} - 1)

    which telescopes to sum 1 over the segments.  Computed with expm1 for
    stability; the (tiny) float residual of the sum is folded into the
    largest weight so the convexity contract holds exactly.  This is the
    one-schedule case of `_segment_weights_stack`, which computes a stack of
    schedules with the same segment and diagonal counts in one pass.
    """
    if np.ndim(a_diag) != 1:
        raise ValueError(f"a_diag (diagonal state entries) must be 1-D, got shape "
                         f"{np.shape(a_diag)}")
    return _segment_weights_stack(np.asarray(boundaries)[None], np.asarray(a_diag)[None])[0]


def _segment_weights_stack(boundaries, a_diag) -> np.ndarray:
    """`segment_weights` of B schedules at once: boundaries [B x (S+1)] and
    diagonals [B x N] in, weights [B x S x N] out, row b bit-identical to
    segment_weights(boundaries[b], a_diag[b])."""
    a = negative(a_diag, "diagonal state entries")
    bounds = _check_boundaries(boundaries, ndim=2)
    den = np.expm1((bounds[:, -1] - bounds[:, 0])[:, None] * a)[:, None, :]
    a = a[:, None, :]
    weights = (np.exp((bounds[:, -1:] - bounds[:, 1:])[:, :, None] * a)
               * np.expm1(np.diff(bounds, axis=1)[:, :, None] * a) / den)
    residual = 1.0 - weights.sum(axis=1)
    top = np.argmax(weights, axis=1)
    rows, cols = np.indices(top.shape, sparse=True)
    weights[rows, top, cols] += residual
    return weights


def zoh_oracle_step(u_prev: np.ndarray, sched: MutationSchedule, a_diag, b,
                    alpha: float, kind: LaplacianKind) -> np.ndarray:
    """Exact one-interval update given the interior mutation schedule.

        U_next = U_prev * e^{d a}  +  X_tilde * (e^{d a} - 1) / a,
        X_tilde = sum_i (I + alpha*L_i)^{-1} x_i  (outer)  (w_i * B)

    everything elementwise over the diagonal entries `a_diag`; d is the
    interval length and w_i are `segment_weights`.  `alpha` must be finite
    and >= 0, as in `HippoConfig`; `a_diag` and `b` must be 1-D arrays of
    one length, and `u_prev` and `b` finite.
    """
    alpha = nonnegative(alpha, "alpha")
    a = negative(a_diag, "diagonal state entries")
    b = finite(b, "b")
    if a.ndim != 1 or b.shape != a.shape:
        raise ValueError("the diagonal a_diag and b must be 1-D and of equal length")
    u_prev = finite(u_prev, "u_prev")
    if u_prev.shape != (sched.num_nodes, a.size):
        raise ValueError(f"u_prev must have shape ({sched.num_nodes}, {a.size})")

    weights = segment_weights(sched.boundaries, a)
    drive = sum(np.outer(smoothing_matrix(adj, alpha, kind) @ x, w * b)
                for adj, x, w in zip(sched.adjacencies, sched.features, weights))
    length = sched.t_end - sched.t_start
    decay = np.exp(length * a)
    return u_prev * decay[None, :] + drive * (np.expm1(length * a) / a)[None, :]


class MixMechanism(Enum):
    ORDINARY = "ordinary"
    FEATURE_MIX = "feature_mix"
    REPR_MIX = "repr_mix"


def mixed_estimate(xs, snaps, mechanism: MixMechanism, gnn, mix) -> list:
    """Drive estimates for a snapshot sequence, one per snapshot.

    xs[l] holds the observations at snaps[l]; gnn(x, snapshot) diffuses
    features over a graph and runs exactly once per snapshot; mix(z_prev,
    z_cur) combines two same-shape arrays.  For l > 0:

        ORDINARY     gnn(x_l, g_l)
        FEATURE_MIX  gnn(mix(x_{l-1}, x_l), g_l)
        REPR_MIX     mix(gnn(x_{l-1}, g_{l-1}), gnn(x_l, g_l))

    The first snapshot has no predecessor and always takes ORDINARY.
    """
    mechanism = MixMechanism(mechanism)
    xs = [np.asarray(x, dtype=float) for x in xs]
    if not xs or len(xs) != len(snaps) or any(x.shape != xs[0].shape for x in xs):
        raise ValueError("need one same-shape observation per snapshot, at least one")
    if mechanism is MixMechanism.FEATURE_MIX:
        xs = xs[:1] + [mix(x_prev, x_cur) for x_prev, x_cur in zip(xs, xs[1:])]
    out = [gnn(x, g) for x, g in zip(xs, snaps)]
    if mechanism is MixMechanism.REPR_MIX:
        out = out[:1] + [mix(z_prev, z_cur) for z_prev, z_cur in zip(out, out[1:])]
    return out
