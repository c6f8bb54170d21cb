"""Oracle-agreement suites.  Each draws random instances from its own named
seed stream and returns the worst error it finds; `suites` is the one table
of their names, tolerances and calls.  The references are the quadrature
projection oracle (HiPPO, Gu et al., arXiv 2008.07669), the exact one-interval
ZOH step, the convexity of the segment weights, and independent per-node
flows when smoothing is off.
"""

import numpy as np

from ._checks import integer, nonnegative
from .discretize import MutationSchedule, _segment_weights_stack, zoh_oracle_step
from .harness import named_rng
from .hippo import TIME_ORIGIN, HippoConfig, integrate_hippo, projection_oracle
from .tgraph import Action, EventStream, LaplacianKind, segments

_KINDS = (LaplacianKind.SYMMETRIC, LaplacianKind.RANDOM_WALK)


def _sorted_distinct(rng, lo: float, hi: float, count: int) -> list:
    """`count` sorted uniform draws from [lo, hi), all distinct; a draw with
    a repeat is drawn again whole."""
    while True:
        draws = sorted(rng.uniform(lo, hi, size=count).tolist())
        if len(set(draws)) == count:
            return draws


def _random_stream(rng, num_nodes: int, horizon: float, num_events: int,
                   t_lo: float, t_hi: float) -> EventStream:
    pairs = [(i, j) for i in range(num_nodes) for j in range(i + 1, num_nodes)]
    initial = frozenset(p for p in pairs if rng.random() < 0.4)
    current = set(initial)
    events = []
    for t in _sorted_distinct(rng, t_lo, t_hi, num_events):
        present = sorted(current)
        absent = sorted(set(pairs) - current)
        insert = not present or (absent and rng.random() < 0.5)
        pool = absent if insert else present
        u, v = pool[int(rng.integers(len(pool)))]
        events.append((u, v, float(t), Action.INSERT if insert else Action.DELETE))
        (current.add if insert else current.discard)((u, v))
    return EventStream(num_nodes, horizon, initial, tuple(events))


def suite_projection(seed: int, instances: int, alphas, ode_steps: int,
                     quad_points: int):
    """ODE integration vs the quadrature projection oracle at the horizon.

    Constant-in-time features over a horizon long enough for the start-up
    transient to decay; mutations confined to the first half.
    """
    rng = named_rng(seed, "verify-projection")
    worst = 0.0
    for i in range(instances):
        v = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        m = int(rng.integers(0, 6))
        stream = _random_stream(rng, v, 16.0, m, 0.25, 6.0)
        x = rng.normal(size=v)
        cfg = HippoConfig(order=n, alpha=float(alphas[i % len(alphas)]),
                          laplacian=_KINDS[i % 2], ode_steps_per_unit=ode_steps,
                          quadrature_points=quad_points)
        path = lambda t: np.broadcast_to(x, (t.size, v))
        u = integrate_hippo(stream, path, cfg, 16.0)
        q = projection_oracle(stream, path, cfg, 16.0)
        worst = max(worst, np.linalg.norm(u - q) / np.linalg.norm(q))
    return worst


def suite_zoh(seed: int, instances: int, alphas, ode_steps: int):
    """One-interval exact discretization vs RK4 on the same diagonal system
    with the same interior mutation schedule and piecewise-constant features."""
    rng = named_rng(seed, "verify-zoh")
    worst = 0.0
    for i in range(instances):
        v = int(rng.integers(2, 9))
        n = int(rng.integers(1, 9))
        m = int(rng.integers(0, 6))
        t_start = float(rng.uniform(0.2, 0.8))
        length = float(rng.uniform(1.0, 4.0))
        t_end = t_start + length
        stream = _random_stream(rng, v, t_end + 0.5, m,
                                t_start + 0.05 * length, t_end - 0.05 * length)
        feats = tuple(rng.normal(size=v) for _ in range(m + 1))
        sched = MutationSchedule.from_stream(stream, t_start, t_end, feats)
        a = -np.exp(rng.uniform(-1.5, 1.0, size=n))
        b = rng.normal(size=n)
        kind = _KINDS[i % 2]
        alpha = float(alphas[i % len(alphas)])
        u0 = rng.normal(size=(v, n))
        u_zoh = zoh_oracle_step(u0, sched, a, b, alpha, kind)

        bounds = np.asarray(sched.boundaries)

        def path(t, bounds=bounds, feats=np.stack(feats)):
            j = np.searchsorted(bounds, t, side="right") - 1
            return feats[np.clip(j, 0, len(feats) - 1)]

        cfg = HippoConfig(order=n, alpha=alpha, laplacian=kind,
                          ode_steps_per_unit=ode_steps)
        u_ode = integrate_hippo(stream, path, cfg, t_end, u_start=u0,
                                t_start=t_start, system=(np.diag(a), b))
        rel = np.linalg.norm(u_zoh - u_ode) / max(np.linalg.norm(u_ode), 1e-12)
        worst = max(worst, rel)
    return worst


def suite_weights(seed: int, schedules: int):
    """Convexity of the segment weights: entries in [0,1], columns sum to 1.

    The schedules are drawn one at a time, then their bounds and diagonals
    built and weighed as one stack per (mutation count, diagonal size)."""
    rng = named_rng(seed, "verify-weights")
    stacks = {}
    for _ in range(schedules):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(0, 7))
        t0 = rng.uniform(-5.0, 5.0)
        length = rng.uniform(1e-3, 50.0)
        fracs = _sorted_distinct(rng, 0.02, 0.98, m)
        stacks.setdefault((m, n), []).append((t0, length, fracs, rng.uniform(-7.0, 3.5, size=n)))
    worst = 0.0
    for rows in stacks.values():
        t0, length, fracs, log_rate = map(np.array, zip(*rows))
        bounds = np.column_stack((t0, t0[:, None] + length[:, None] * fracs, t0 + length))
        w = _segment_weights_stack(bounds, -np.exp(log_rate))
        worst = max(worst, float(np.abs(w.sum(axis=1) - 1.0).max()),
                    float(-w.min()), float(w.max() - 1.0))
    return worst


def suite_reduction(seed: int, instances: int, ode_steps: int):
    """Graph smoothing off (alpha=0, or an edgeless graph) must reduce the
    joint integration to independent per-node memory flows.

    The per-node side is integrated piece by piece over the joint run's
    `segments`, each node as its own one-node stream, so both sides take
    identical RK4 steps (1 + v * pieces `integrate_hippo` calls an instance;
    the per-node calls reuse the joint run's memoized RK4 operators).
    """
    rng = named_rng(seed, "verify-reduction")
    worst = 0.0
    for i in range(instances):
        v = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        edgeless = i % 2 == 1
        if edgeless:
            stream = EventStream(v, 4.0, frozenset(), ())
            alpha = 2.0
        else:
            stream = _random_stream(rng, v, 4.0, int(rng.integers(1, 4)), 0.25, 3.75)
            alpha = 0.0
        coef = rng.normal(size=v)
        freq = rng.uniform(0.5, 2.0, size=v)

        def path(t, coef=coef, freq=freq):
            return coef * np.sin(freq * t[:, None]) + 1.0

        cfg = HippoConfig(order=n, alpha=alpha, laplacian=_KINDS[i % 2],
                          ode_steps_per_unit=ode_steps)
        joint = integrate_hippo(stream, path, cfg, 4.0)
        solo_stream = EventStream(1, 4.0, frozenset(), ())
        pieces = [(lo, hi) for lo, hi, _ in segments(stream, TIME_ORIGIN, 4.0)]
        for node in range(v):
            def solo_path(t, node=node, path=path):
                return path(t)[:, [node]]

            u = None
            for lo, hi in pieces:
                u = integrate_hippo(solo_stream, solo_path, cfg, hi,
                                    u_start=u, t_start=lo)
            worst = max(worst, float(np.abs(joint[node] - u[0]).max()))
    return worst


ALPHAS = (0.0, 0.5, 2.0)  # the smoothing strengths cycled through when no alpha is given

# `gssm verify --help` text of each setting of `suites`, in flag order.
HELP = {"seed": "instance seed",
        "instances": "instances per projection and zoh suite, at least 1; "
                     "hippo-reduction always runs 6",
        "schedules": "schedules for the weight check, at least 1",
        "alpha": "restrict smoothing strength to one value (unset: 0, 0.5 and 2)",
        "ode_steps": "RK4 steps per time unit", "quad_points": "quadrature nodes"}


def suites(seed: int = 0, instances: int = 20, schedules: int = 1000, alpha=None,
           ode_steps: int = HippoConfig.ode_steps_per_unit,
           quad_points: int = HippoConfig.quadrature_points) -> list:
    """(name, tolerance, call) of each suite in print order; call() returns its
    worst error.  The projection and zoh suites cycle through ALPHAS, or take
    `alpha` alone; the reduction suite (6 instances) runs when 0 is among them.
    Before any suite runs, ValueError naming a setting that is not an integer
    of its least value (seed 0, quad_points 2, the rest 1), or an alpha outside [0, inf)."""
    for value, key, least in ((seed, "seed", 0), (instances, "instances", 1),
                              (schedules, "schedules", 1), (ode_steps, "ode_steps", 1),
                              (quad_points, "quad_points", 2)):
        integer(value, key, least)
    alphas = ALPHAS if alpha is None else (nonnegative(alpha, "alpha"),)
    table = [("projection-vs-ode", 1e-3,
              lambda: suite_projection(seed, instances, alphas, ode_steps, quad_points)),
             ("zoh-vs-ode", 1e-4, lambda: suite_zoh(seed, instances, alphas, ode_steps)),
             ("weights-convexity", 1e-12, lambda: suite_weights(seed, schedules))]
    if 0.0 in alphas:
        table.append(("hippo-reduction", 1e-10, lambda: suite_reduction(seed, 6, ode_steps)))
    return table
