"""Graph state-space layers.

Building blocks, bottom up:

* `gnn_diffuse` -- one aggregate-then-combine round over a snapshot's
  cached sparse adjacency: the first-order approximation of the Laplacian
  smoother.
* `mix_conv1d` / `mix_interp` -- combine two consecutive representations
  (width-2 convolution, or a learned gated interpolation), elementwise over
  any leading axes.
* `ssm_forward` -- one layer over a snapshot sequence: the S4 (per-channel
  SISO states), S5 (one shared MIMO state per node) and S6 (input-selective
  step size, drive and readout) variants share one discretized update.  The
  drive is `discretize.mixed_estimate` with `gnn_diffuse` and `apply_mix`,
  computed over the whole sequence at once: the graph half runs as a few
  products with the sequence's block-diagonal adjacency
  (`SnapshotSequence.adjacency_csr`), once per layer input and distinct
  (flavor, self_mix), and each mix is one call on the shifted sequence.
  The per-state arrays (decay, drive, states) exist one time tile at a
  time: consecutive snapshots holding about `_TILE_ELEMENTS` state entries.
* `block_forward` -- residual block composition around a layer; the mixing
  mechanism is by default confined to the first block.
* `init_a`, `delta_bias_init`, `align_memory`, checkpoint save/load.

All recurrences run through the scan module, one `run_scan` call per time
tile with the previous tile's last state as its initial state: the
sequential fold by default, the chunked parallel scan on request.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import expit

from ._checks import finite, integer, integers, negative, numbers, read_records
from .discretize import MixMechanism
from .scan import RecurrenceInputs, run_scan
from .tgraph import LaplacianKind, Snapshot, SnapshotSequence, degree_scales


def softplus(x):
    return np.logaddexp(0.0, x)


def relu(x):
    return np.maximum(x, 0.0)


# ---------------------------------------------------------------------------
# GNN diffusion
# ---------------------------------------------------------------------------

class GnnFlavor(Enum):
    GCN_LIKE = "gcn_like"
    SAGE_MEAN_LIKE = "sage_mean_like"


# Each flavor aggregates with one normalized adjacency of `tgraph.laplacian`.
_FLAVOR_KIND = {GnnFlavor.GCN_LIKE: LaplacianKind.SYMMETRIC,
                GnnFlavor.SAGE_MEAN_LIKE: LaplacianKind.RANDOM_WALK}


@dataclass(frozen=True)
class GnnParams:
    """Aggregate-then-combine parameters.

    self_mix is the balancing weight between a node's own features (1-self_mix)
    and its neighborhood aggregate (self_mix); the smoothing strength constant
    is considered absorbed into `weight`.
    """

    weight: np.ndarray
    bias: np.ndarray
    flavor: GnnFlavor = GnnFlavor.GCN_LIKE
    self_mix: float = 0.5

    def __post_init__(self):
        w = finite(self.weight, "weight")
        b = finite(self.bias, "bias").reshape(-1)
        if w.ndim != 2 or b.size != w.shape[1]:
            raise ValueError("weight must be [D_in x D_out] with matching bias")
        if not (0.0 <= self.self_mix <= 1.0):
            raise ValueError("self_mix must lie in [0, 1]")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)
        object.__setattr__(self, "flavor", GnnFlavor(self.flavor))


def _aggregate(x: np.ndarray, graph: Snapshot | SnapshotSequence, p: GnnParams) -> np.ndarray:
    """Graph half of `gnn_diffuse`, read off p.flavor and p.self_mix only:
    (1 - self_mix) x + self_mix (r A c) x, isolated nodes keeping x.  x is
    [V x D] over a Snapshot or [L x V x D] over a SnapshotSequence, whose
    cached operator and degree cover the stacked node axis."""
    flat = x.reshape(-1, x.shape[-1])
    rows, cols = degree_scales(graph.degree, _FLAVOR_KIND[p.flavor])
    agg = rows[:, None] * (graph.adjacency_csr @ (cols[:, None] * flat))
    mixed = np.where(graph.degree[:, None] > 0, (1.0 - p.self_mix) * flat + p.self_mix * agg, flat)
    return mixed.reshape(x.shape)


def gnn_diffuse(x: np.ndarray, snap: Snapshot, p: GnnParams) -> np.ndarray:
    """One diffusion round followed by an affine transform.

    GcnLike aggregates neighbors with symmetric 1/sqrt(d_u d_v) weights,
    SageMeanLike with the plain neighborhood mean.  Nodes without neighbors
    skip aggregation entirely (pure self term).  With identity weight and
    zero bias this is x - self_mix L x, L the symmetric (GcnLike) or random
    walk (SageMeanLike) Laplacian: (I + self_mix L)^{-1} to first order.  The
    aggregation is a product with the snapshot's cached CSR adjacency.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (snap.num_nodes, p.weight.shape[0]):
        raise ValueError(f"x must be [{snap.num_nodes} x {p.weight.shape[0]}]")
    return _aggregate(x, snap, p) @ p.weight + p.bias


# ---------------------------------------------------------------------------
# Mixing of consecutive representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvMixParams:
    """Width-2 temporal convolution kernel [2 x D], shared across nodes."""

    kernel: np.ndarray

    def __post_init__(self):
        k = finite(self.kernel, "kernel")
        if k.ndim != 2 or k.shape[0] != 2:
            raise ValueError("kernel must be [2 x D]")
        object.__setattr__(self, "kernel", k)


@dataclass(frozen=True)
class InterpMixParams:
    """Gated interpolation: a blend gate picks between the two inputs and a
    nonnegative scale modulates the result; both are affine in [z1 || z2]."""

    w_scale: np.ndarray
    b_scale: np.ndarray
    w_blend: np.ndarray
    b_blend: np.ndarray

    def __post_init__(self):
        ws = finite(self.w_scale, "w_scale")
        wb = finite(self.w_blend, "w_blend")
        bs = finite(self.b_scale, "b_scale").reshape(-1)
        bb = finite(self.b_blend, "b_blend").reshape(-1)
        d = ws.shape[1] if ws.ndim == 2 else 0
        if ws.shape != (2 * d, d) or wb.shape != (2 * d, d) or bs.size != d or bb.size != d:
            raise ValueError("interp params must be W [2D x D] with bias [D]")
        object.__setattr__(self, "w_scale", ws)
        object.__setattr__(self, "b_scale", bs)
        object.__setattr__(self, "w_blend", wb)
        object.__setattr__(self, "b_blend", bb)


def mix_conv1d(z_prev: np.ndarray, z_cur: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Width-2 convolution over the last (feature) axis."""
    kernel = np.asarray(kernel, dtype=float)
    if z_prev.shape != z_cur.shape or kernel.shape != (2, z_prev.shape[-1]):
        raise ValueError("kernel/operand shape mismatch")
    return kernel[0] * z_prev + kernel[1] * z_cur


def mix_interp(z1: np.ndarray, z2: np.ndarray, p: InterpMixParams) -> np.ndarray:
    """Gated interpolation over the last (feature) axis."""
    if z1.shape != z2.shape or z1.shape[-1] != p.b_scale.size:
        raise ValueError("operand shape mismatch")
    cc = np.concatenate([z1, z2], axis=-1)
    scale = softplus(cc @ p.w_scale + p.b_scale)
    blend = expit(cc @ p.w_blend + p.b_blend)
    return scale * (blend * z1 + (1.0 - blend) * z2)


def apply_mix(z1: np.ndarray, z2: np.ndarray, p) -> np.ndarray:
    if isinstance(p, ConvMixParams):
        return mix_conv1d(z1, z2, p.kernel)
    if isinstance(p, InterpMixParams):
        return mix_interp(z1, z2, p)
    raise TypeError(f"unknown mix parameter type {type(p).__name__}")


# ---------------------------------------------------------------------------
# SSM layers
# ---------------------------------------------------------------------------

class SsmVariant(Enum):
    S4 = "s4"
    S5 = "s5"
    S6 = "s6"


@dataclass(frozen=True)
class SsmLayerParams:
    """Per-layer parameters; shapes depend on the variant.

    S4:  a [D x N], b [D x N], c [D x N]; per-node scalar step size from an
         affine map (delta_weight [D], scalar delta_bias).
    S5:  a [N], b [D x N], c [N x D]; step size as in S4; one shared state
         per node.
    S6:  a [D x N]; b, c and the [V x D] step size are produced per snapshot
         by the selective GNNs (gnn_b, gnn_c -> N outputs; gnn_delta -> D
         outputs plus delta_bias [D]).
    """

    variant: SsmVariant
    a: np.ndarray
    gnn: GnnParams
    b: np.ndarray = None
    c: np.ndarray = None
    delta_weight: np.ndarray = None
    delta_bias: object = None
    mix: object = None
    mix_mechanism: MixMechanism = MixMechanism.ORDINARY
    gnn_delta: GnnParams = None
    gnn_b: GnnParams = None
    gnn_c: GnnParams = None

    def __post_init__(self):
        object.__setattr__(self, "variant", SsmVariant(self.variant))
        object.__setattr__(self, "mix_mechanism", MixMechanism(self.mix_mechanism))
        a = negative(self.a, "state matrix a")
        object.__setattr__(self, "a", a)
        d = self.gnn.weight.shape[1]
        if self.variant is SsmVariant.S5:
            if a.ndim != 1:
                raise ValueError("S5 uses a shared diagonal state vector [N]")
            n = a.size
            shapes = {"b": (d, n), "c": (n, d)}
        else:
            if a.ndim != 2 or a.shape[0] != d:
                raise ValueError("S4/S6 use per-channel diagonals [D x N]")
            n = a.shape[1]
            shapes = {"b": (d, n), "c": (d, n)} if self.variant is SsmVariant.S4 else {}
        for name, want in shapes.items():
            got = finite(getattr(self, name), name)
            if got.shape != want:
                raise ValueError(f"{name} must have shape {want}, got {got.shape}")
            object.__setattr__(self, name, got)
        if self.variant is SsmVariant.S6:
            for name in ("gnn_delta", "gnn_b", "gnn_c"):
                if not isinstance(getattr(self, name), GnnParams):
                    raise ValueError(f"S6 requires {name}")
            if self.gnn_delta.weight.shape[1] != d:
                raise ValueError("gnn_delta must produce D outputs")
            if self.gnn_b.weight.shape[1] != n or self.gnn_c.weight.shape[1] != n:
                raise ValueError("gnn_b / gnn_c must produce N outputs")
            bias = finite(self.delta_bias, "delta_bias").reshape(-1)
            if bias.size != d:
                raise ValueError("S6 delta_bias must be [D]")
            object.__setattr__(self, "delta_bias", bias)
        else:
            w = finite(self.delta_weight, "delta_weight").reshape(-1)
            if w.size != d:
                raise ValueError("delta_weight must be [D]")
            object.__setattr__(self, "delta_weight", w)
            object.__setattr__(self, "delta_bias", float(finite(self.delta_bias, "delta_bias")))

    @property
    def state_size(self):
        return self.a.shape[-1]


def _check_hidden(seq: SnapshotSequence, hidden_in: np.ndarray, p: SsmLayerParams):
    hidden_in = finite(hidden_in, "hidden_in")
    want = (seq.num_nodes, len(seq), p.gnn.weight.shape[0])
    if hidden_in.shape != want:
        raise ValueError(f"hidden_in must be [V x L x D] = {want}, got {hidden_in.shape}")
    return hidden_in


def _aggregations(seq, x):
    """`_aggregate(x, seq, g)` of one [L x V x D] layer input, computed once
    per distinct (g.flavor, g.self_mix) -- the only parameters it reads."""
    done = {}

    def aggregate(g):
        if (g.flavor, g.self_mix) not in done:
            done[g.flavor, g.self_mix] = _aggregate(x, seq, g)
        return done[g.flavor, g.self_mix]
    return aggregate


def _drive(seq, x, p, mechanism, aggregate):
    """`mixed_estimate(x, seq, mechanism, gnn_diffuse, apply_mix)` over the
    whole sequence, stacked into [L x V x D]; `aggregate` diffuses the
    unmixed layer input x."""
    mechanism = MixMechanism(mechanism)
    if mechanism is MixMechanism.FEATURE_MIX:
        agg = _aggregate(np.concatenate([x[:1], apply_mix(x[:-1], x[1:], p.mix)]), seq, p.gnn)
    else:
        agg = aggregate(p.gnn)
    h = agg @ p.gnn.weight + p.gnn.bias
    if mechanism is MixMechanism.REPR_MIX:
        h = np.concatenate([h[:1], apply_mix(h[:-1], h[1:], p.mix)])
    return h


def _drive_estimates(seq, hidden_in, p, mechanism):
    """Mixed-and-diffused layer inputs H_l, stacked into [L x V x D]."""
    x = np.moveaxis(hidden_in, 1, 0)
    return _drive(seq, x, p, mechanism, _aggregations(seq, x))


# Element count of one time tile's decay, drive and states each: the layer
# builds and scans the per-state arrays a tile of snapshots at a time, so no
# [L x V x D x N] array exists and a tile stays in cache through its scan.
_TILE_ELEMENTS = 1 << 16


def ssm_forward(seq: SnapshotSequence, hidden_in: np.ndarray, p: SsmLayerParams,
                mechanism: MixMechanism | None = None,
                backend: str = "sequential") -> np.ndarray:
    """One layer over the sequence: per snapshot l and node,

        u_l = e^{delta_l a} * u_{l-1} + delta_l * B h_l,    y_l = C u_l,

    with h_l the mixed-and-diffused input.  The variant only decides where
    delta, B and C come from.  S4 (SISO): one length-N state per (node,
    channel), delta an affine map of h_l.  S5 (MIMO): one state per node
    shared across channels, delta as in S4.  S6 (selective SISO): delta, B
    and C produced from the layer input by the three selective GNNs.

    delta, B, C and h are built for the whole sequence; the decay, drive
    and states are built, scanned and read out one tile of consecutive
    snapshots at a time, each tile starting from the last state of the one
    before, so no [L x V x D x N] array is ever held.  The tiles change no
    bit of the output.
    """
    x = np.moveaxis(_check_hidden(seq, hidden_in, p), 1, 0)                   # [L,V,D]
    aggregate = _aggregations(seq, x)
    h = _drive(seq, x, p, p.mix_mechanism if mechanism is None else mechanism, aggregate)
    if p.variant is SsmVariant.S6:
        pre_delta, b_sel, c_sel = (aggregate(g) @ g.weight + g.bias
                                   for g in (p.gnn_delta, p.gnn_b, p.gnn_c))
        delta = softplus(pre_delta + p.delta_bias)[..., None]                 # [L,V,D,1]
        readout = "lvdn,lvn->vld"

        def tile(t):                                                           # [T,V,D,N]
            return (delta[t] * b_sel[t, :, None, :]) * h[t, ..., None], c_sel[t]
    else:
        delta = softplus(h @ p.delta_weight + p.delta_bias)[:, :, None]        # [L,V,1]
        if p.variant is SsmVariant.S5:
            readout = "lvn,nd->vld"

            def tile(t):                                                       # [T,V,N]
                return delta[t] * (h[t] @ p.b), p.c
        else:
            delta = delta[..., None]                                           # [L,V,1,1]
            readout = "lvdn,dn->vld"

            def tile(t):                                                       # [T,V,D,N]
                return (delta[t] * p.b) * h[t, ..., None], p.c
    lanes = (seq.num_nodes,) + p.a.shape
    step = max(1, _TILE_ELEMENTS // math.prod(lanes))
    out = np.empty((seq.num_nodes, len(seq), p.gnn.weight.shape[1]))
    carry = np.zeros(lanes)
    for start in range(0, len(seq), step):
        t = slice(start, start + step)
        drives, c = tile(t)
        states = run_scan(RecurrenceInputs(np.exp(delta[t] * p.a), drives, carry), backend)
        np.einsum(readout, states, c, out=out[:, t])
        carry = states[-1]
    return out


def layer_norm(x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Non-learnable normalization over the last axis."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


@dataclass(frozen=True)
class BlockParams:
    """One residual block: activation(layer(H)) + residual(H).

    res_weight=None means an identity residual; otherwise an affine map.
    """

    layer: SsmLayerParams
    res_weight: np.ndarray = None
    res_bias: np.ndarray = None

    def __post_init__(self):
        if self.res_weight is not None:
            w = finite(self.res_weight, "res_weight")
            d = self.layer.gnn.weight.shape[1]
            if w.shape != (d, d):
                raise ValueError(f"res_weight must be [{d} x {d}]")
            object.__setattr__(self, "res_weight", w)
        if self.res_bias is not None:
            object.__setattr__(self, "res_bias", finite(self.res_bias, "res_bias").reshape(-1))


def block_forward(hidden_in: np.ndarray, seq: SnapshotSequence, blocks,
                  activation=relu, backend: str = "sequential",
                  first_block_mixing_only: bool = True) -> np.ndarray:
    """Residual composition of K blocks over the sequence.

    By default any FeatureMix/ReprMix mechanism is honored only in the first
    block; later blocks run the plain estimate.  The selective variant's
    block appends a layer normalization as its final operation.
    """
    if not blocks:
        raise ValueError("need at least one block")
    hidden = np.asarray(hidden_in, dtype=float)
    for k, blk in enumerate(blocks):
        p = blk.layer
        mech = p.mix_mechanism
        if first_block_mixing_only and k > 0:
            mech = MixMechanism.ORDINARY
        y = ssm_forward(seq, hidden, p, mechanism=mech, backend=backend)
        res = hidden if blk.res_weight is None else hidden @ blk.res_weight
        if blk.res_bias is not None:
            res = res + blk.res_bias
        hidden = (y if activation is None else activation(y)) + res
        if p.variant is SsmVariant.S6:
            hidden = layer_norm(hidden)
    return hidden


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

class InitStrategy(Enum):
    S4D_REAL = "s4d_real"
    S4D_CONST = "s4d_const"
    RANDOM = "random"


def glorot(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform Glorot sample; vectors are treated as a single fan-in row."""
    shape = tuple(int(s) for s in np.atleast_1d(shape))
    fan_in = shape[0] if len(shape) > 1 else 1
    fan_out = shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_a(strategy: InitStrategy, shape, rng: np.random.Generator | None = None) -> np.ndarray:
    """Diagonal state initialization; last axis indexes the N state entries.

    S4D_REAL: -(n+1) for n = 0..N-1 (the real parts of the diagonal part of
    the HiPPO transition); S4D_CONST: all -1/2; RANDOM: -e^chi with chi drawn
    Glorot-uniform from `rng`.
    """
    strategy = InitStrategy(strategy)
    shape = tuple(int(s) for s in np.atleast_1d(shape))
    if strategy is InitStrategy.S4D_REAL:
        return np.broadcast_to(-(np.arange(shape[-1]) + 1.0), shape).copy()
    if strategy is InitStrategy.S4D_CONST:
        return np.full(shape, -0.5)
    if rng is None:
        raise ValueError("RANDOM initialization needs an rng")
    return -np.exp(glorot(rng, shape))


def delta_bias_init(length: int) -> float:
    """Bias making the zero-weight step size softplus(bias) equal 1/length."""
    return float(np.log(np.expm1(1.0 / integer(length, "length", 1))))


# ---------------------------------------------------------------------------
# Varying node sets
# ---------------------------------------------------------------------------

class StateInitRule(Enum):
    ZERO = "zero"
    NEIGHBOR_MEAN = "neighbor_mean"


def align_memory(u_prev: np.ndarray, v_prev, v_new, rule: StateInitRule = StateInitRule.ZERO,
                 adjacency: np.ndarray | None = None) -> np.ndarray:
    """Carry per-node state across a node-set change.

    Rows of u_prev follow sorted(v_prev); the result's rows follow
    sorted(v_new).  Nodes present in both keep their state rows unchanged
    (bit-exact); departed rows are dropped; new nodes start at zero or, with
    NEIGHBOR_MEAN, at the mean state of their surviving neighbors in the new
    graph (`adjacency`, indexed like sorted(v_new)) -- isolated or
    all-new-neighbor nodes fall back to zero.
    """
    rule = StateInitRule(rule)
    prev_ids = sorted(set(integers(list(v_prev), "v_prev").tolist()))
    new_ids = sorted(set(integers(list(v_new), "v_new").tolist()))
    u_prev = finite(u_prev, "u_prev")
    if u_prev.shape[0] != len(prev_ids):
        raise ValueError("u_prev must have one row per previous node")
    if rule is StateInitRule.NEIGHBOR_MEAN:
        if adjacency is None:
            raise ValueError("NEIGHBOR_MEAN needs the new snapshot's adjacency")
        adjacency = np.asarray(adjacency, dtype=bool)
        if adjacency.shape != (len(new_ids), len(new_ids)):
            raise ValueError("adjacency must be indexed like sorted(v_new)")

    prev_row = {v: i for i, v in enumerate(prev_ids)}
    surviving = np.array([v in prev_row for v in new_ids], dtype=bool)
    out = np.zeros((len(new_ids),) + u_prev.shape[1:], dtype=u_prev.dtype)
    out[surviving] = u_prev[[prev_row[v] for v in new_ids if v in prev_row]]
    if rule is StateInitRule.NEIGHBOR_MEAN:
        for i in np.flatnonzero(~surviving):
            nbrs = np.flatnonzero(adjacency[i] & surviving)
            if nbrs.size:
                out[i] = np.mean(out[nbrs], axis=0)
    return out


# ---------------------------------------------------------------------------
# Checkpoints: named tensors in a line-oriented text format.
#
#   GSSMP v1 <count>
#   then, per tensor:
#     <name> <ndim> <dim...>
#     <row-major values on one line>
# ---------------------------------------------------------------------------

_CKPT_MAGIC = "GSSMP v1"


def save_checkpoint(named: dict, path) -> None:
    lines = [f"{_CKPT_MAGIC} {len(named)}"]
    for name, tensor in named.items():
        if not name or not name.isascii() or any(ch.isspace() for ch in name):
            raise ValueError(f"tensor name {name!r} must be non-empty ASCII without whitespace")
        arr = finite(tensor, f"tensor {name!r}")
        lines.append(" ".join([name, str(arr.ndim)] + [str(s) for s in arr.shape]))
        lines.append(" ".join(repr(x) for x in arr.reshape(-1).tolist()))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> dict:
    """Read a file written by `save_checkpoint`.  Every malformed record
    raises ValueError naming the path."""
    return read_records(path, _parse_checkpoint)


def _parse_checkpoint(rd) -> dict:
    (count,) = rd.header(_CKPT_MAGIC, "<count>", "tensor count")
    if count < 0:
        raise ValueError(f"negative tensor count {count}")
    named = {}
    for _ in range(count):
        meta = rd.next("tensor record").split()
        if len(meta) < 2:
            raise ValueError(f"malformed tensor record at line {rd.pos}")
        name, (ndim,) = meta[0], numbers(meta[1:2], int, "tensor rank")
        if name in named:
            raise ValueError(f"duplicate tensor {name!r}")
        if len(meta) != 2 + ndim:
            raise ValueError(f"tensor {name!r} declares {ndim} dims, lists {len(meta) - 2}")
        shape = tuple(numbers(meta[2:], int, f"tensor {name!r} shape"))
        if any(s < 0 for s in shape):
            raise ValueError(f"tensor {name!r} has a negative dimension")
        tokens = rd.next(f"tensor {name!r} values").split()
        values = finite(numbers(tokens, float, f"tensor {name!r} values"), f"tensor {name!r}")
        if values.size != math.prod(shape):
            raise ValueError(f"tensor {name!r} has {values.size} values, "
                             f"expected {math.prod(shape)}")
        named[name] = values.reshape(shape)
    return named
