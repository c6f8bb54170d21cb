"""Synthetic temporal-graph node classification harness.

A planted-partition graph whose communities decay and rewire over time,
with node features drawn around slowly rotating class centroids: neither a
single snapshot's structure nor its features are enough to recover the
labels reliably, but integrating both over the sequence is.

The model backbone (layers module blocks) stays frozen at random parameters;
only a linear readout is trained, by full-batch gradient descent with
analytic gradients.  Micro/Macro-F1 on a stratified test split is the
reported metric.  `run_experiment` runs the readout fits of a large
experiment on worker processes, one contiguous range of its jobs per CPU
(see `gssm._pool.forked`).
"""

import csv
import hashlib
import io
from dataclasses import dataclass, replace
from functools import partial
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import _pool
from ._checks import class_ids, finite, integer, integers, nonnegative
from .discretize import MixMechanism
from .layers import (BlockParams, GnnFlavor, GnnParams, InitStrategy,
                     InterpMixParams, SsmLayerParams, SsmVariant,
                     block_forward, delta_bias_init, glorot, gnn_diffuse,
                     init_a)
from .tgraph import Snapshot, SnapshotSequence, _csr_from_pairs


def named_rng(seed: int, name: str) -> np.random.Generator:
    """Independent, reproducible stream for (seed, name).

    All harness randomness flows through this so that e.g. the model sampler
    and the split sampler can't perturb each other when one changes.
    ValueError unless seed is an integer of at least 0.
    """
    tag = int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([integer(seed, "seed", 0), tag]))


# ---------------------------------------------------------------------------
# Task generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaskConfig:
    num_nodes: int = 200
    seq_len: int = 16
    num_features: int = 8
    num_classes: int = 4
    p_in: float = 0.22          # initial intra-community edge probability
    p_out: float = 0.02         # inter-community edge probability
    p_decay: float = 0.10       # per-step decay of (p_in - p_out)
    drift_rate: float = 0.15    # per-step probability that a pair is resampled
    noise: float = 1.0          # feature noise scale
    radius: float = 1.0         # centroid circle radius
    omega: float = np.pi / 16   # centroid rotation per step (radians)

    def __post_init__(self):
        for name, least in (("num_nodes", 1), ("seq_len", 1), ("num_features", 2),
                            ("num_classes", 2)):
            integer(getattr(self, name), f"infeasible config: {name}", least)
        if self.num_nodes < 4 * self.num_classes:
            raise ValueError("infeasible config: need num_nodes >= 4 * num_classes")
        for name in ("p_in", "p_out", "p_decay", "drift_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"infeasible config: {name} must lie in [0, 1]")
        finite(self.omega, "infeasible config: omega")
        for name in ("noise", "radius"):
            nonnegative(getattr(self, name), f"infeasible config: {name}")


class Split(NamedTuple):
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


@dataclass(frozen=True)
class SyntheticTask:
    sequence: SnapshotSequence
    labels: np.ndarray
    num_classes: int
    split: Split

    def __post_init__(self):
        v = self.sequence.num_nodes
        labels, _ = class_ids(self.labels, self.num_classes, rows=v)
        object.__setattr__(self, "labels", labels)
        parts = [integers(s, f"split.{name}") for name, s in zip(Split._fields, self.split)]
        object.__setattr__(self, "split", Split(*parts))
        joined = np.concatenate(parts)
        if len(set(joined.tolist())) != joined.size or joined.size != v:
            raise ValueError("splits must be disjoint and cover all nodes")
        if set(labels[parts[0]].tolist()) != set(range(self.num_classes)):
            raise ValueError("every class must appear in the train split")

    @property
    def num_nodes(self):
        return self.sequence.num_nodes


_TRAIN_SHARE, _VAL_SHARE = 0.6, 0.2  # of each class; the test split takes the rest


def split_nodes(labels: np.ndarray, rng: np.random.Generator) -> Split:
    """Stratified 60/20/20 train/val/test split: per-class proportions within
    one node of exact stratification."""
    labels = integers(labels, "labels")
    train, val, test = [], [], []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        n = idx.size
        a = int(round(_TRAIN_SHARE * n))
        b = int(round((_TRAIN_SHARE + _VAL_SHARE) * n))
        train.extend(idx[:a].tolist())
        val.extend(idx[a:b].tolist())
        test.extend(idx[b:].tolist())
    return Split(np.sort(train), np.sort(val), np.sort(test))


def _upper_pairs(v: int):
    """The two node ids of every pair i < j, listed row-major as by
    `np.triu_indices(v, 1)`, built as int32 without an int64 intermediate."""
    ids = np.arange(v, dtype=np.int32)
    return np.repeat(ids, ids[::-1]), np.concatenate([ids[i + 1:] for i in range(v)])


# Pairs a range draws at once, so that no worker thread allocates a large
# buffer (memory a worker frees stays in its malloc arena).
_CHUNK_PAIRS = 1 << 15


def _draw_pairs(state, same_u, rows, redraw_gen, pair_gen, rates, chunk):
    """One step's draws for the pairs `rows` (a slice), `chunk` pairs at a
    time.  Given a `redraw_gen`, a pair is redrawn where its uniform from it
    falls under the drift rate and keeps its state elsewhere; a drawn pair is
    present where its uniform from `pair_gen` falls under its rate (pin_l
    within a community, p_out across).  Updates `state[rows]` in place and
    returns the flat indices of its present pairs, one array a chunk."""
    drift, pin_l, p_out = rates
    found = []
    for a in range(rows.start, rows.stop, chunk):
        b = min(a + chunk, rows.stop)
        redraw = None if redraw_gen is None else redraw_gen.random(b - a) < drift
        # Each pair's draw at its rate (boolean algebra in place of np.where,
        # which is slower on boolean operands).
        u, same = pair_gen.random(b - a), same_u[a:b]
        drawn = (same & (u < pin_l)) | (~same & (u < p_out))
        rows_ab = state[a:b]
        if redraw is None:
            rows_ab[:] = drawn
        else:  # not np.copyto(..., where=redraw): its masked copy is slower
            rows_ab &= ~redraw
            rows_ab |= drawn & redraw
        idx = np.flatnonzero(rows_ab)
        idx += a
        found.append(idx)
    return found


def _step_pairs(rng, streams, state, same_u, parts, first, rates):
    """Flat indices of the pairs present after one step, drawn as the serial
    loop draws them from `rng`: the redraw uniforms of every pair (not at the
    first step), then the pair uniforms.  Part k draws on `_pool` from its
    two copies `streams[k]`, jumped ahead to its first pair's offset in each
    draw, and `rng` is then advanced past both draws."""
    n = state.size
    start, found = rng.bit_generator.state, [None] * len(parts)

    def draw(k):
        redraw_gen, pair_gen = streams[k]
        a = parts[k].start
        for gen, offset in ((redraw_gen, a), (pair_gen, a if first else n + a)):
            gen.bit_generator.state = start
            gen.bit_generator.advance(offset)
        found[k] = _draw_pairs(state, same_u, parts[k], None if first else redraw_gen,
                               pair_gen, rates, _CHUNK_PAIRS)
    _pool.run(draw, range(len(parts)))
    rng.bit_generator.advance(n if first else 2 * n)
    return np.concatenate([idx for part in found for idx in part])


def gen_synthetic(seed: int, cfg: TaskConfig = TaskConfig()) -> SyntheticTask:
    """Deterministic planted-partition temporal task.

    Communities: the intra-community edge probability starts at p_in and
    decays geometrically toward p_out; every step, each node pair is
    resampled with probability drift_rate at the current step's rate.
    Features: class centroids sit on a circle in the first two feature
    dimensions and rotate by omega per step; each node observes its centroid
    plus isotropic noise.  Snapshots are stamped 1..L.

    The node pairs are cut into as many contiguous ranges as
    `_pool.parts(pairs)` gives (one per CPU for a large task, else one), and
    each range draws its uniforms, `_CHUNK_PAIRS` at a time, from PCG64
    copies of the task generator jumped ahead to the range's offset (one
    double takes one output), so the task is the same bit for bit on any
    number of CPUs.  The snapshots are finished in groups of as many steps
    as ranges: each pending step's CSR build (`_csr_from_pairs`) and
    `Snapshot` check run as one part of a `_pool.run`, so at most one step
    per range is held at once.  One range draws and finishes every step on
    the calling thread.
    """
    v, length = cfg.num_nodes, cfg.seq_len
    c, d = cfg.num_classes, cfg.num_features
    rng = named_rng(seed, "task")

    labels = np.repeat(np.arange(c), v // c)
    labels = np.concatenate([labels, rng.integers(0, c, v - labels.size)])
    rng.shuffle(labels)

    same = labels[:, None] == labels[None, :]
    iu = _upper_pairs(v)
    same_u = same[iu]

    n = same_u.size
    parts = _pool.ranges(n, _pool.parts(n))
    streams = [(np.random.Generator(np.random.PCG64()), np.random.Generator(np.random.PCG64()))
               for _ in parts]
    state = np.empty(n, dtype=bool)
    snaps, pending = [None] * length, []

    def finish(step):
        l, idx, feats = step
        indptr, indices = _csr_from_pairs(iu[0][idx], iu[1][idx], v)
        snaps[l] = Snapshot.from_csr(indptr, indices, feats, float(l + 1))

    for l in range(length):
        pin_l = cfg.p_out + (cfg.p_in - cfg.p_out) * (1.0 - cfg.p_decay) ** l
        idx = _step_pairs(rng, streams, state, same_u, parts, l == 0,
                          (cfg.drift_rate, pin_l, cfg.p_out))

        ang = 2.0 * np.pi * labels / c + cfg.omega * l
        cent = np.zeros((v, d))
        cent[:, 0] = cfg.radius * np.cos(ang)
        cent[:, 1] = cfg.radius * np.sin(ang)
        feats = cent + cfg.noise * rng.normal(size=(v, d))
        pending.append((l, idx, feats))
        if len(pending) == len(parts) or l == length - 1:
            _pool.run(finish, pending)
            pending = []

    seq = SnapshotSequence(tuple(snaps))
    split = split_nodes(labels, named_rng(seed, "split"))
    return SyntheticTask(sequence=seq, labels=labels, num_classes=c, split=split)


# ---------------------------------------------------------------------------
# Model sampling and feature extraction
# ---------------------------------------------------------------------------

# Fixed scales of the sampled backbone: every GNN's self_mix, and the factors
# on the glorot draws of C, the residual weight and the step-size weight.
_SELF_MIX = 0.5
_C_SCALE = 2.0
_RES_SCALE = 0.05
_DELTA_SCALE = 0.1


@dataclass(frozen=True)
class ModelConfig:
    """Random frozen-backbone sampler settings."""

    num_blocks: int = 2
    state_size: int = 6
    variant: SsmVariant = SsmVariant.S4
    init: InitStrategy = InitStrategy.S4D_REAL
    mix_mechanism: MixMechanism = MixMechanism.REPR_MIX

    def __post_init__(self):
        object.__setattr__(self, "variant", SsmVariant(self.variant))
        object.__setattr__(self, "init", InitStrategy(self.init))
        object.__setattr__(self, "mix_mechanism", MixMechanism(self.mix_mechanism))
        integer(self.num_blocks, "num_blocks", 1)
        integer(self.state_size, "state_size", 1)


def sample_model(rng: np.random.Generator, cfg: ModelConfig,
                 num_features: int, seq_len: int) -> list:
    """Draw a random stack of blocks, each with the configured mixing
    mechanism; `block_forward` runs it in the first block only."""
    d, n = num_features, cfg.state_size
    blocks = []
    for _ in range(cfg.num_blocks):
        extra = {}
        if cfg.variant is SsmVariant.S5:
            a = init_a(cfg.init, (n,), rng)
            extra["b"] = np.ones((d, n))
            extra["c"] = glorot(rng, (n, d)) * _C_SCALE
        else:
            a = init_a(cfg.init, (d, n), rng)
            if cfg.variant is SsmVariant.S4:
                extra["b"] = np.ones((d, n))
                extra["c"] = glorot(rng, (d, n)) * _C_SCALE
            else:
                extra["gnn_delta"] = GnnParams(glorot(rng, (d, d)), np.zeros(d),
                                               self_mix=_SELF_MIX)
                extra["gnn_b"] = GnnParams(glorot(rng, (d, n)), np.zeros(n),
                                           self_mix=_SELF_MIX)
                extra["gnn_c"] = GnnParams(glorot(rng, (d, n)), np.zeros(n),
                                           self_mix=_SELF_MIX)
        gnn = GnnParams(glorot(rng, (d, d)), np.zeros(d),
                        flavor=GnnFlavor.GCN_LIKE, self_mix=_SELF_MIX)
        mix = InterpMixParams(glorot(rng, (2 * d, d)), np.zeros(d),
                              glorot(rng, (2 * d, d)), np.zeros(d))
        if cfg.variant is SsmVariant.S6:
            delta = {"delta_bias": np.full(d, delta_bias_init(seq_len))}
        else:
            delta = {"delta_weight": glorot(rng, (d,)) * _DELTA_SCALE,
                     "delta_bias": delta_bias_init(seq_len)}
        layer = SsmLayerParams(
            variant=cfg.variant, a=a, gnn=gnn, mix=mix,
            mix_mechanism=cfg.mix_mechanism,
            **extra, **delta)
        blocks.append(BlockParams(layer=layer,
                                  res_weight=glorot(rng, (d, d)) * _RES_SCALE,
                                  res_bias=np.zeros(d)))
    return blocks


def extract_features(task: SyntheticTask, blocks) -> np.ndarray:
    """Last-step representations of the frozen block stack, [V x D]."""
    seq = task.sequence
    hidden = np.stack([s.features for s in seq], axis=1)
    out = block_forward(hidden, seq, blocks)
    return out[:, -1, :]


def static_features(task: SyntheticTask, p: GnnParams) -> np.ndarray:
    """Baseline: the same GNN applied to the last snapshot only."""
    last = task.sequence[-1]
    return gnn_diffuse(last.features, last, p)


# ---------------------------------------------------------------------------
# Readout training and metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReadoutParams:
    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = finite(self.weight, "readout weight")
        b = finite(self.bias, "readout bias").reshape(-1)
        if w.ndim != 2 or b.size != w.shape[1]:
            raise ValueError("weight must be [D x C] with matching bias")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(features @ self.weight + self.bias, axis=1)


def standardize(features: np.ndarray, train_idx: np.ndarray):
    """Shift/scale all rows by the train split's statistics."""
    mu = features[train_idx].mean(axis=0)
    sd = features[train_idx].std(axis=0) + 1e-8
    return (features - mu) / sd


def _readout_grad(x, xt, onehot, w, b, l2):
    """Softmax-readout gradient for K fits at once: features x [K x n x D]
    and their transposes xt [K x D x n], one-hot labels [n x C], weights
    w [K x D x C] and biases b [K x C].  Returns the class probabilities and
    the gradients, with respect to w and b, of the mean cross-entropy plus
    0.5 * l2 * |w|^2."""
    logits = x @ w + b[:, None, :]
    # The max over the short class axis is faster over a class-major copy.
    logits -= np.ascontiguousarray(logits.transpose(2, 0, 1)).max(axis=0)[..., None]
    expl = np.exp(logits)
    prob = expl / expl.sum(axis=2, keepdims=True)
    g = (prob - onehot) / x.shape[1]
    return prob, xt @ g + l2 * w, g.sum(axis=1)


def readout_loss(params_flat: np.ndarray, features: np.ndarray,
                 labels: np.ndarray, num_classes: int, l2: float = 0.0):
    """Mean cross-entropy of the softmax readout plus an l2 penalty on the
    weights, with its analytic gradient.  params_flat stacks W row-major
    followed by the bias.  Raises ValueError for labels that are not one per
    feature row, are not integers or lie outside [0, num_classes)."""
    labels, _ = class_ids(labels, num_classes, rows=features.shape[0])
    d = features.shape[1]
    w = params_flat[: d * num_classes].reshape(d, num_classes)
    b = params_flat[d * num_classes:]
    onehot = np.eye(num_classes)[labels]
    prob, grad_w, grad_b = _readout_grad(features[None], features.T[None], onehot,
                                         w[None], b[None], l2)
    loss = -np.mean(np.sum(onehot * np.log(prob[0] + 1e-300), axis=1))
    loss += 0.5 * l2 * np.sum(w * w)
    return loss, np.concatenate([grad_w[0].reshape(-1), grad_b[0]])


def _check_readout(lr, epochs, l2) -> None:
    if not (epochs >= 1 and np.isfinite(lr) and lr > 0 and np.isfinite(l2) and l2 >= 0):
        raise ValueError("readout needs epochs >= 1, a finite lr > 0 and a finite l2 >= 0")
    integer(epochs, "epochs", 1)


def train_readout(features: np.ndarray, labels: np.ndarray, split: Split,
                  lr: float = 0.5, epochs: int = 400, l2: float = 1e-3,
                  num_classes: int | None = None):
    """Full-batch gradient descent on the softmax readout; keeps the
    parameters with the best validation Micro-F1 (checked every 10 epochs
    and after the last).

    features is [V x D] for one fit, which returns one ReadoutParams, or
    [K x V x D] for K fits that share the labels and split, which returns a
    tuple of K.  The K fits train in one loop of batched products; each
    keeps its own best, and fit k equals the [V x D] fit on features[k].

    Raises ValueError on entry for epochs that is not an integer of at
    least 1, an lr that is not finite and positive, an l2 that is not finite
    and >= 0, features that are not 2-D or 3-D or not finite, labels that
    are not one per node, are not integers or lie outside [0, num_classes),
    split indices outside [0, V), and an empty train or validation split;
    and, at a validation check, for parameters that training drove to
    non-finite values.
    """
    _check_readout(lr, epochs, l2)
    features = np.asarray(features, dtype=float)
    if features.ndim not in (2, 3):
        raise ValueError("features must be [V x D] or [K x V x D]")
    finite(features, "features")
    x = features if features.ndim == 3 else features[None]
    v = x.shape[1]
    labels, c = class_ids(labels, num_classes, rows=v)
    tr, va = integers(split.train, "split.train"), integers(split.val, "split.val")
    if tr.size == 0:
        raise ValueError("empty train split")
    if va.size == 0:
        raise ValueError("empty validation split")
    if min(tr.min(), va.min()) < 0 or max(tr.max(), va.max()) >= v:
        raise ValueError(f"split indices must lie in [0, {v})")

    x_tr, x_va = x[:, tr], x[:, va]
    xt_tr = x_tr.transpose(0, 2, 1)
    onehot = np.eye(c)[labels[tr]]
    y_va = labels[va]
    w, b = np.zeros((x.shape[0], x.shape[2], c)), np.zeros((x.shape[0], c))
    best_w, best_b = w.copy(), b.copy()
    # Micro-F1 over one label per node is the share of correct predictions,
    # so on a fixed validation split the counts rank the checks alike.
    best_hits = np.full(x.shape[0], -1)
    for epoch in range(epochs):
        _, grad_w, grad_b = _readout_grad(x_tr, xt_tr, onehot, w, b, l2)
        w = w - lr * grad_w
        b = b - lr * grad_b
        if epoch % 10 == 0 or epoch == epochs - 1:
            finite(w, "readout parameters")
            finite(b, "readout parameters")
            hits = np.sum(np.argmax(x_va @ w + b[:, None, :], axis=2) == y_va, axis=1)
            better = hits > best_hits
            best_hits[better] = hits[better]
            best_w[better], best_b[better] = w[better], b[better]
    fits = tuple(ReadoutParams(bw, bb) for bw, bb in zip(best_w, best_b))
    return fits if features.ndim == 3 else fits[0]


def f1_scores(preds, labels, num_classes: int | None = None):
    """Multi-class (micro, macro) F1.  Classes absent from both predictions
    and labels contribute 0 to the macro average.  Predictions and labels
    must lie in [0, num_classes) (num_classes defaults to the largest
    value seen plus one), and be integers."""
    preds, c_pred = class_ids(preds, num_classes, name="preds")
    labels, c_true = class_ids(labels, num_classes)
    if preds.shape != labels.shape:
        raise ValueError("preds and labels must have the same length")
    c = max(c_pred, c_true)
    hit = preds == labels
    tp = np.bincount(labels[hit], minlength=c)
    fp = np.bincount(preds[~hit], minlength=c)
    fn = np.bincount(labels[~hit], minlength=c)
    micro_den = 2 * tp.sum() + fp.sum() + fn.sum()
    micro = 2 * tp.sum() / micro_den if micro_den else 0.0
    prec = np.divide(tp, tp + fp, out=np.zeros(c), where=(tp + fp) > 0)
    rec = np.divide(tp, tp + fn, out=np.zeros(c), where=(tp + fn) > 0)
    f1 = np.divide(2 * prec * rec, prec + rec, out=np.zeros(c), where=(prec + rec) > 0)
    return float(micro), float(f1.mean())


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------

def run_experiment(seeds, task_cfg: TaskConfig = TaskConfig(),
                   model_cfg: ModelConfig = ModelConfig(),
                   inits=(InitStrategy.S4D_REAL, InitStrategy.S4D_CONST,
                          InitStrategy.RANDOM),
                   include_static: bool = True, lr: float = 0.5,
                   epochs: int = 400, l2: float = 1e-3) -> list:
    """Per (seed, init) and optional static-baseline test-split scores.

    Rows are dicts with keys seed, variant, init, micro_f1, macro_f1 --
    the results CSV schema -- in the order of the jobs: for each seed, each
    init and then the static baseline.  Every argument is checked before
    any task is built: seeds[k] must be an integer of at least 0 (not a
    bool), inits[k] an `InitStrategy` or its value, include_static a bool,
    and lr, epochs and l2 are checked as `train_readout` checks them.

    The jobs are cut by `_pool.parts` of their readout products, seeds x
    fits x epochs x V x D, into contiguous ranges, and `_pool.forked` runs
    the first range in this process and each other on a worker process,
    each at its share of the CPUs (one each on two CPUs).  A range builds
    the tasks of its seeds again and trains each seed's fits in it as one
    readout batch, which gives every fit's bits as its one-fit call does,
    so the rows are the same however the jobs are cut.  Small work, one
    CPU, or a process that cannot fork its workers runs every job here, as
    one range.
    """
    _check_readout(lr, epochs, l2)
    seeds = [integer(seed, f"seeds[{k}]", 0) for k, seed in enumerate(seeds)]
    fits = [_init_strategy(init, f"inits[{k}]") for k, init in enumerate(inits)]
    if not isinstance(include_static, (bool, np.bool_)):
        raise ValueError(f"include_static must be a bool, got {include_static!r}")
    if include_static:
        fits.append(None)
    jobs = [(seed, fit) for seed in seeds for fit in fits]
    work = len(jobs) * epochs * task_cfg.num_nodes * task_cfg.num_features
    job_rows = partial(_experiment_rows, jobs, task_cfg, model_cfg, lr, epochs, l2)
    return _pool.forked(job_rows, _pool.ranges(len(jobs), _pool.parts(work)))


def _init_strategy(init, name: str) -> InitStrategy:
    try:
        return InitStrategy(init)
    except ValueError:
        raise ValueError(f"{name} must be an InitStrategy, got {init!r}") from None


def _experiment_rows(jobs, task_cfg, model_cfg, lr, epochs, l2, part) -> list:
    """The rows of jobs[part], (seed, init) pairs with None for the static
    baseline: each run of one seed's jobs builds its task once and trains
    their readouts as one batch.  Every part of `run_experiment`, and its
    plain path, runs this."""
    rows = []
    for seed, run in groupby(jobs[part], key=itemgetter(0)):
        task = gen_synthetic(seed, task_cfg)
        names, feats = [], []
        for _, init in run:
            cfg = model_cfg if init is None else replace(model_cfg, init=init)
            blocks = sample_model(named_rng(seed, "model"), cfg,
                                  task_cfg.num_features, task_cfg.seq_len)
            if init is None:
                names.append(("static", "none"))
                feats.append(static_features(task, blocks[0].layer.gnn))
            else:
                names.append((cfg.variant.value, init.value))
                feats.append(extract_features(task, blocks))
        z = np.stack([standardize(f, task.split.train) for f in feats])
        readouts = train_readout(z, task.labels, task.split, lr=lr, epochs=epochs,
                                 l2=l2, num_classes=task.num_classes)
        te = task.split.test
        for (variant, init), z_k, readout in zip(names, z, readouts):
            micro, macro = f1_scores(readout.predict(z_k[te]), task.labels[te],
                                     task.num_classes)
            rows.append({"seed": seed, "variant": variant, "init": init,
                         "micro_f1": micro, "macro_f1": macro})
    return rows


_RESULT_FIELDS = ["seed", "variant", "init", "micro_f1", "macro_f1"]


def results_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_RESULT_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        out = dict(row)
        out["micro_f1"] = repr(float(row["micro_f1"]))
        out["macro_f1"] = repr(float(row["macro_f1"]))
        writer.writerow(out)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Labels sidecar format:
#   GSSML v1 <V> <C>
#   then V lines of integer class ids, one per node in id order.
# ---------------------------------------------------------------------------

def save_labels(labels: np.ndarray, num_classes: int, path) -> None:
    labels, c = class_ids(labels, num_classes)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"GSSML v1 {labels.size} {c}\n")
        for x in labels.tolist():
            fh.write(f"{x}\n")

