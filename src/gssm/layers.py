"""Graph state-space layers.

Building blocks, bottom up:

* `gnn_diffuse` -- one aggregate-then-combine round over a snapshot's
  sparse adjacency, built by the one-snapshot sequence: the first-order
  approximation of the Laplacian smoother.
* `apply_mix` -- combine two consecutive representations by a learned gated
  interpolation, elementwise over any leading axes.  It imports
  scipy.special's `expit` on its first call, so `import gssm` does not load
  scipy.special.
* `ssm_forward` -- one layer over a snapshot sequence: the S4 (per-channel
  SISO states), S5 (one shared MIMO state per node) and S6 (input-selective
  step size, drive and readout) variants share one discretized update.  The
  drive is `discretize.mixed_estimate` with `gnn_diffuse` and `apply_mix`,
  under the layer's own `mix_mechanism`, which `SsmLayerParams` checks
  against its `mix` when the layer is built.
  Its graph half runs once over the whole sequence, once per layer input
  and distinct (flavor, self_mix).  A layer joins its threads at two points
  only.  The graph pass cuts the snapshots into contiguous ranges, one per
  CPU the process may use, of about equal work: a snapshot weighs its
  stored entries plus `_ROW_PASSES` per node, so a denser snapshot counts
  for more.  Each range runs its own rows through the whole pass, one
  product per CSR block the sequence builds for that range
  (`SnapshotSequence.csr_blocks`).  After it, every node's recurrence is
  independent: the nodes are cut into contiguous ranges, one per CPU, and
  each range builds its drive, delta, B, C, decay and states one time tile
  at a time (consecutive snapshots holding about `_TILE_ELEMENTS` state
  entries over all ranges), then, inside `block_forward`, finishes its rows
  of the block.  A range writes a tile's decay and drive, then states, into
  its thread's kept buffers (`_tile_buffers`): each thread keeps one set of
  three, `_TILE_ELEMENTS` floats each (1.5 MB), from call to call, so
  repeated calls do not fault fresh pages in; a larger tile gets a set for
  its call only.  No array a call returns shares memory with them.
  The first range of each pass runs on the calling thread, the others on
  `_pool`'s threads; `_pool.parts` of the layer's L*V*D*N drive and
  readout products sets the range count, so with one CPU, or a small
  layer, each pass is one range and no thread starts.
* `block_forward` -- residual block composition around a layer: each node
  range applies ReLU, the residual and S6's layer normalization to its own
  rows in place.  It alone owns the rule that confines the mixing
  mechanism to the first block (on by default).
* `init_a`, `delta_bias_init`, `align_memory`.

All recurrences run through the scan module, one `run_scan` call per time
tile and node range, with the previous tile's last state as its initial
state, writing the states over the tile's drive: the sequential fold by
default, the chunked parallel scan on request.
"""

import math
import threading
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from . import _pool
from ._checks import finite, integer, integers, negative, symmetric, unit_interval
from .discretize import MixMechanism
from .scan import check_backend, run_scan
from .tgraph import LaplacianKind, Snapshot, SnapshotSequence, degree_scales


def softplus(x):
    return np.logaddexp(0.0, x)


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
        unit_interval(self.self_mix, "self_mix")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)
        object.__setattr__(self, "flavor", GnnFlavor(self.flavor))


def _aggregate(flat: np.ndarray, blocks, p: GnnParams, out: np.ndarray,
               scratch: np.ndarray | None = None) -> np.ndarray:
    """Graph half of `gnn_diffuse`, read off p.flavor and p.self_mix only,
    written into out [R x D] and returned: (1 - self_mix) x + self_mix (r A c) x
    for x = flat [R x D], isolated nodes keeping x.  The rows are stacked
    nodes; `blocks` are the CSR diagonal blocks of A that cover them, in
    order, and give their neighbor counts.  scratch, if given, is an [R x D]
    array it may overwrite."""
    degree = np.concatenate([np.diff(block.indptr) for block in blocks]).astype(float)
    rows, cols = degree_scales(degree, _FLAVOR_KIND[p.flavor])
    scaled = np.multiply(cols[:, None], flat, out=scratch)
    start = 0
    for block in blocks:
        stop = start + block.shape[0]
        np.multiply(rows[start:stop, None], block @ scaled[start:stop], out=out[start:stop])
        start = stop
    out *= p.self_mix
    out += np.multiply(flat, 1.0 - p.self_mix, out=scaled)
    np.copyto(out, flat, where=(degree == 0)[:, None])
    return out


def gnn_diffuse(x: np.ndarray, snap: Snapshot, p: GnnParams) -> np.ndarray:
    """One diffusion round followed by an affine transform.

    GcnLike aggregates neighbors with symmetric 1/sqrt(d_u d_v) weights,
    SageMeanLike with the plain neighborhood mean.  Nodes without neighbors
    skip aggregation entirely (pure self term).  With identity weight and
    zero bias this is x - self_mix L x, L the symmetric (GcnLike) or random
    walk (SageMeanLike) Laplacian: (I + self_mix L)^{-1} to first order.  The
    aggregation is a product with the CSR block of the sequence (snap,).
    """
    x = finite(x, "x")
    if x.shape != (snap.num_nodes, p.weight.shape[0]):
        raise ValueError(f"x must be [{snap.num_nodes} x {p.weight.shape[0]}]")
    (blocks,) = SnapshotSequence((snap,)).csr_blocks([slice(0, 1)])
    agg = _aggregate(x, blocks, p, np.empty(x.shape))
    return agg @ p.weight + p.bias


# ---------------------------------------------------------------------------
# Mixing of consecutive representations
# ---------------------------------------------------------------------------

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


def apply_mix(z1: np.ndarray, z2: np.ndarray, p: InterpMixParams) -> np.ndarray:
    """Gated interpolation over the last (feature) axis."""
    if z1.shape != z2.shape or z1.shape[-1] != p.b_scale.size:
        raise ValueError("operand shape mismatch")
    from scipy.special import expit  # scipy.special loads on first use
    cc = np.concatenate([z1, z2], axis=-1)
    scale = softplus(cc @ p.w_scale + p.b_scale)
    blend = expit(cc @ p.w_blend + p.b_blend)
    return scale * (blend * z1 + (1.0 - blend) * z2)


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
    FEATURE_MIX needs `mix` as wide as gnn's input, REPR_MIX as its output.
    """

    variant: SsmVariant
    a: np.ndarray
    gnn: GnnParams
    b: np.ndarray = None
    c: np.ndarray = None
    delta_weight: np.ndarray = None
    delta_bias: object = None
    mix: InterpMixParams = None
    mix_mechanism: MixMechanism = MixMechanism.ORDINARY
    gnn_delta: GnnParams = None
    gnn_b: GnnParams = None
    gnn_c: GnnParams = None

    def __post_init__(self):
        object.__setattr__(self, "variant", SsmVariant(self.variant))
        object.__setattr__(self, "mix_mechanism", MixMechanism(self.mix_mechanism))
        if self.mix is not None and not isinstance(self.mix, InterpMixParams):
            raise ValueError(f"mix must be None or InterpMixParams, got {type(self.mix).__name__}")
        mechanism = self.mix_mechanism
        if mechanism is not MixMechanism.ORDINARY:
            if self.mix is None:
                raise ValueError(f"mix is None, but a {mechanism.value} layer needs it")
            side = "output" if mechanism is MixMechanism.REPR_MIX else "input"
            width = self.gnn.weight.shape[side == "output"]
            if self.mix.b_scale.size != width:
                raise ValueError(f"mix has width {self.mix.b_scale.size}, but {mechanism.value} "
                                 f"mixes the layer's {side} width {width}")
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


def _mixed(window, t, mix):
    """Snapshots t, each mixed with the one before, from window(w), the
    snapshots of slice w; the first snapshot of the sequence keeps its own."""
    z = window(slice(max(t.start - 1, 0), t.stop))
    mixed = apply_mix(z[:-1], z[1:], mix)
    return mixed if t.start > 0 else np.concatenate([z[:1], mixed])


# A snapshot's weight in the cut of the graph pass is counted in D-wide row
# operations: one multiply-add per stored entry in its CSR product, and per
# row about eight passes besides (the copy into `flat`, then in `_aggregate`
# `scaled`, the product's zeroed result, the row scale, `*= self_mix`,
# `(1 - self_mix) flat`, `+=` and the isolated-node `copyto`).  On V=2000,
# L=32 tasks any value from 4 to 26 gives the same two ranges, which take
# about equal time.
_ROW_PASSES = 8


def _graph_pass(seq, x, p, mechanism, parts):
    """The layer's one whole-sequence graph pass: `_aggregate` over the
    [L x V x D] layer input x for p.gnn, then for S6's gnn_delta, gnn_b and
    gnn_c, computed once per distinct (flavor, self_mix) -- the only
    parameters it reads.  Under FEATURE_MIX p.gnn diffuses the mix of
    consecutive inputs instead.  The snapshots are cut into at most `parts`
    contiguous ranges of about equal work, each snapshot weighing its stored
    entries plus `_ROW_PASSES` per node, and each range runs its own rows,
    with its own CSR blocks of the sequence (`SnapshotSequence.csr_blocks`),
    through the whole pass on `_pool`."""
    length, v, d = x.shape
    feature_mix = mechanism is MixMechanism.FEATURE_MIX
    selective = (p.gnn_delta, p.gnn_b, p.gnn_c) if p.variant is SsmVariant.S6 else ()
    plain = {}                                     # (flavor, self_mix) -> GnnParams
    for g in ((() if feature_mix else (p.gnn,)) + selective):
        plain.setdefault((g.flavor, g.self_mix), g)
    # Every [L*V x D] array is made here, on the calling thread; a range
    # writes its own rows of each.
    out = {key: np.empty((length * v, d)) for key in plain}
    if feature_mix:
        out["mix"] = np.empty((length * v, d))
    flat = np.empty((length * v, d)) if plain else None
    scratch = np.empty((length * v, d))
    ranges = _pool.ranges(length, parts,
                          weights=[snap.indices.size + _ROW_PASSES * v for snap in seq])

    def run(t, own):                               # snapshots t, their blocks own
        rows = slice(t.start * v, t.stop * v)
        if plain:
            flat[rows].reshape(-1, v, d)[...] = x[t]
            for key, g in plain.items():
                _aggregate(flat[rows], own, g, out[key][rows], scratch[rows])
        if feature_mix:
            mixed = _mixed(lambda w: x[w], t, p.mix)
            _aggregate(mixed.reshape(-1, d), own, p.gnn, out["mix"][rows], scratch[rows])
    _pool.run(lambda part: run(*part), list(zip(ranges, seq.csr_blocks(ranges))))
    main = out["mix"] if feature_mix else out[p.gnn.flavor, p.gnn.self_mix]
    return tuple(a.reshape(length, v, d) for a in
                 [main] + [out[g.flavor, g.self_mix] for g in selective])


def _drive(agg, t, rows, p, mechanism):
    """`mixed_estimate(x, seq, mechanism, gnn_diffuse, apply_mix)` for the
    snapshots of slice t and the nodes of slice rows, [T x R x D], from
    p.gnn's graph pass `agg`.  REPR_MIX mixes each snapshot's estimate with
    the one before, so a tile past the first also maps that snapshot."""
    def estimate(w):
        return agg[w, rows] @ p.gnn.weight + p.gnn.bias
    return estimate(t) if mechanism is not MixMechanism.REPR_MIX else _mixed(estimate, t, p.mix)


# Element count of one time tile's decay and drive (then states) each, summed
# over the node ranges: a layer builds and scans the per-state arrays a tile
# of snapshots at a time, so no [L x V x D x N] array exists and a tile stays
# in cache through its scan.  It also bounds what a thread keeps between
# calls (`_tile_buffers`): three buffers of at most this many floats, 1.5 MB.
_TILE_ELEMENTS = 1 << 16

# The calling thread's kept tile buffers (`_tile_buffers`).
_workspace = threading.local()


def _tile_buffers(size: int) -> tuple:
    """Three flat float64 buffers of at least `size` entries, for one node
    range's decay and, in turn, its tiles' drives, which their states
    overwrite: a tile leaves the last tile's states alone.  Up to
    `_TILE_ELEMENTS` entries they are the calling thread's kept set, made on
    its first such call; a larger tile gets a set of its own, released with
    its call.  A range views each buffer in its tile's shape and reuses it
    for every tile of its call, so no tile or call faults fresh pages in."""
    if size > _TILE_ELEMENTS:
        return tuple(np.empty(size) for _ in range(3))
    kept = getattr(_workspace, "buffers", None)
    if kept is None or kept[0].size < size:
        kept = _workspace.buffers = tuple(np.empty(_TILE_ELEMENTS) for _ in range(3))
    return kept


# Node ranges start at multiples of this many rows and hold at least as many.
# A BLAS matrix-vector kernel may sum a row's products in an order set by the
# row's place in its block of rows, and numpy hands a one-row matrix product
# to it as well, so a range cut at any row can move a last bit.  That aligned
# ranges give the whole-V bits is what the tests hold, not a property of one
# kernel: tests/test_split.py compares each variant's split forward with its
# one-range forward, on weights where a cut at any row fails, and the digest
# tests pin the forward's bits on one to three CPUs.
_ROW_ALIGN = 16


def ssm_forward(seq: SnapshotSequence, hidden_in: np.ndarray, p: SsmLayerParams,
                backend: str = "sequential") -> np.ndarray:
    """One layer over the sequence: per snapshot l and node,

        u_l = e^{delta_l a} * u_{l-1} + delta_l * B h_l,    y_l = C u_l,

    with h_l the mixed-and-diffused input.  The variant only decides where
    delta, B and C come from.  S4 (SISO): one length-N state per (node,
    channel), delta an affine map of h_l.  S5 (MIMO): one state per node
    shared across channels, delta as in S4.  S6 (selective SISO): delta, B
    and C produced from the layer input by the three selective GNNs.

    After the graph pass over the whole sequence, every node's recurrence is
    independent of the others'.  The nodes are cut into contiguous ranges,
    one per CPU (see `_pool`), each running its own rows through h, delta,
    B, C, the decay, drive, scan and readout, one tile of consecutive
    snapshots at a time, each tile starting from the last state of the one
    before; no [L x V x D] drive or [L x V x D x N] state is ever held.  The
    graph pass itself is cut into contiguous snapshot ranges of about equal
    work, by the snapshots' stored entries and rows, each with its own CSR
    blocks of the sequence's adjacency.  The range count is
    `_pool.parts(L*V*D*N)`, the products of the drive and readout for every
    variant, and the snapshot cut depends on the sequence and that count
    alone, so S4, S5 and S6 layers of one width and state size cut a
    sequence alike; a small layer runs both passes as one range on the
    calling thread.  Neither ranges nor tiles change a bit of the output.
    The drive mixes under p.mix_mechanism.
    """
    return _layer(seq, hidden_in, p, backend)


def _layer(seq, hidden_in, p, backend="sequential", finish=None, mixing=True):
    """`ssm_forward`, with two hooks: finish(y, h), if given, runs in each
    node range once its rows y [R x L x D] of the output are written, with
    the same rows h of the checked layer input, and may rewrite y in place;
    mixing=False runs the layer ORDINARY.  The layer joins its threads twice:
    after the graph pass and after the node ranges with their `finish`."""
    check_backend(backend)
    hidden_in = finite(hidden_in, "hidden_in")
    want = (seq.num_nodes, len(seq), p.gnn.weight.shape[0])
    if hidden_in.shape != want:
        raise ValueError(f"hidden_in must be [V x L x D] = {want}, got {hidden_in.shape}")
    x = np.moveaxis(hidden_in, 1, 0)                                          # [L,V,D]
    mechanism = p.mix_mechanism if mixing else MixMechanism.ORDINARY
    v, length, d = seq.num_nodes, len(seq), p.gnn.weight.shape[1]
    parts = _pool.parts(length * v * d * p.state_size)
    agg, *selective = _graph_pass(seq, x, p, mechanism, parts)
    # tile(t, rows, h, drive) writes the tile's drive in place and returns
    # its step size delta and readout C.
    if p.variant is SsmVariant.S6:
        readout = "lvdn,lvn->vld"

        def tile(t, rows, h, drive):                                           # [T,R,D,N]
            pre_delta, b_sel, c_sel = (s[t, rows] @ g.weight + g.bias for s, g in
                                       zip(selective, (p.gnn_delta, p.gnn_b, p.gnn_c)))
            delta = softplus(pre_delta + p.delta_bias)[..., None]             # [T,R,D,1]
            np.multiply(delta, b_sel[:, :, None, :], out=drive)
            np.multiply(drive, h[..., None], out=drive)
            return delta, c_sel
    elif p.variant is SsmVariant.S5:
        readout = "lvn,nd->vld"

        def tile(t, rows, h, drive):                                           # [T,R,N]
            delta = softplus(h @ p.delta_weight + p.delta_bias)[:, :, None]    # [T,R,1]
            np.multiply(delta, h @ p.b, out=drive)
            return delta, p.c
    else:
        readout = "lvdn,dn->vld"

        def tile(t, rows, h, drive):                                           # [T,R,D,N]
            delta = softplus(h @ p.delta_weight + p.delta_bias)[:, :, None, None]  # [T,R,1,1]
            np.multiply(delta, p.b, out=drive)
            np.multiply(drive, h[..., None], out=drive)
            return delta, p.c
    step = max(1, _TILE_ELEMENTS // (v * p.a.size))
    out = np.empty((v, length, d))

    def run(rows):
        lanes = (rows.stop - rows.start,) + p.a.shape
        decay_buffer, *state_buffers = _tile_buffers(min(step, length) * math.prod(lanes))
        prev = np.broadcast_to(0.0, lanes)
        for k, start in enumerate(range(0, length, step)):
            t = slice(start, min(start + step, length))
            shape = (t.stop - t.start,) + lanes
            decay, states = (b[:math.prod(shape)].reshape(shape)
                             for b in (decay_buffer, state_buffers[k % 2]))
            delta, c = tile(t, rows, _drive(agg, t, rows, p, mechanism), states)
            np.exp(np.multiply(delta, p.a, out=decay), out=decay)
            run_scan(decay, states, prev, backend)
            np.einsum(readout, states, c, out=out[rows, t])
            prev = states[-1]
        if finish is not None:
            finish(out[rows], hidden_in[rows])
    _pool.run(run, _pool.ranges(v, parts, _ROW_ALIGN))
    return out


def layer_norm(x: np.ndarray) -> np.ndarray:
    """Non-learnable normalization over the last axis, on a copy of x."""
    return _normalize(x - x.mean(axis=-1, keepdims=True))


def _normalize(xc: np.ndarray) -> np.ndarray:
    """Divide the rows of xc, already centered over the last axis, by
    sqrt(variance + 1e-5) in place, and return xc."""
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / xc.shape[-1]
    xc /= np.sqrt(var + 1e-5)
    return xc


@dataclass(frozen=True)
class BlockParams:
    """One residual block: relu(layer(H)) + residual(H).

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
                  backend: str = "sequential",
                  first_block_mixing_only: bool = True) -> np.ndarray:
    """Residual composition of K blocks over the sequence.

    By default any FeatureMix/ReprMix mechanism is honored only in the first
    block; later blocks run the plain estimate, whatever their own.  The
    selective variant's block appends a layer normalization as its final
    operation.  `blocks` is any iterable of at least one BlockParams;
    ValueError for none or a first_block_mixing_only that is not a bool,
    TypeError naming blocks[k] for an entry of another type.
    """
    if not isinstance(first_block_mixing_only, (bool, np.bool_)):
        raise ValueError("first_block_mixing_only must be a bool, "
                         f"got {first_block_mixing_only!r}")
    blocks = list(blocks)
    if not blocks:
        raise ValueError("need at least one block")
    for k, blk in enumerate(blocks):
        if not isinstance(blk, BlockParams):
            raise TypeError(f"blocks[{k}] must be a BlockParams, got {type(blk).__name__}")
    hidden = hidden_in
    for k, blk in enumerate(blocks):
        hidden = _layer(seq, hidden, blk.layer, backend, partial(_epilogue, blk),
                        mixing=k == 0 or not first_block_mixing_only)
    return hidden


def _epilogue(blk, y, h):
    """The rest of block `blk` on one node range, in place: y, the layer's
    output rows, becomes relu(y) + residual(h), h being the same rows of the
    block input, then S6's layer normalization."""
    res = h if blk.res_weight is None else h @ blk.res_weight
    if blk.res_bias is not None:
        res = np.add(res, blk.res_bias, out=None if blk.res_weight is None else res)
    np.add(np.maximum(y, 0.0, out=y), res, out=y)
    if blk.layer.variant is SsmVariant.S6:
        y -= y.mean(axis=-1, keepdims=True)
        _normalize(y)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

class InitStrategy(Enum):
    S4D_REAL = "s4d_real"
    S4D_CONST = "s4d_const"
    RANDOM = "random"


def _shape(shape) -> tuple:
    """An int or a sequence of ints as a shape tuple; ValueError for a size
    that is not a positive integer."""
    return tuple(integer(s, "shape", 1) for s in np.atleast_1d(shape).tolist())


def glorot(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform Glorot sample; vectors are treated as a single fan-in row."""
    shape = _shape(shape)
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
    shape = _shape(shape)
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
    graph (`adjacency`, indexed like sorted(v_new), checked as a snapshot's
    is: finite, real, symmetric, no self-loops) -- isolated or
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
        adjacency = symmetric(adjacency, "adjacency").astype(bool)
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
