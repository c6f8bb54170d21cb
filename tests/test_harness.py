from __future__ import annotations

import hashlib
import os
import pathlib
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gssm import (
    BlockParams,
    GnnParams,
    InitStrategy,
    ModelConfig,
    Snapshot,
    SnapshotSequence,
    Split,
    SsmLayerParams,
    SsmVariant,
    SyntheticTask,
    TaskConfig,
    block_forward,
    extract_features,
    f1_scores,
    gen_synthetic,
    named_rng,
    run_experiment,
    sample_model,
    save_labels,
    static_features,
    train_readout,
)
from gssm import _pool, harness
from gssm._checks import finite
from gssm.cli import main
from gssm.harness import _upper_pairs, readout_loss, results_to_csv, split_nodes, standardize
from test_layers import _split

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_ACCEPTANCE_CFG = _ROOT / "configs" / "acceptance.cfg"


def _zero_block(d, n=2):
    layer = SsmLayerParams(
        variant=SsmVariant.S4,
        a=np.full((d, n), -1.0),
        gnn=GnnParams(weight=np.zeros((d, d)), bias=np.zeros(d)),
        b=np.zeros((d, n)),
        c=np.zeros((d, n)),
        delta_weight=np.zeros(d),
        delta_bias=0.0,
    )
    return layer


def _tiny_task_cfg(**overrides):
    base = dict(num_nodes=24, seq_len=4, num_features=4, num_classes=3)
    base.update(overrides)
    return TaskConfig(**base)


# ---------------------------------------------------------------------------
# task generation


def test_gen_is_deterministic_in_the_seed():
    cfg = _tiny_task_cfg()
    one = gen_synthetic(11, cfg)
    two = gen_synthetic(11, cfg)
    assert np.array_equal(one.labels, two.labels)
    for a, b in zip(one.sequence, two.sequence):
        assert np.array_equal(a.adjacency, b.adjacency)
        assert np.array_equal(a.features, b.features)
    for part_a, part_b in zip(one.split, two.split):
        assert np.array_equal(part_a, part_b)
    other = gen_synthetic(12, cfg)
    assert not np.array_equal(one.sequence[0].features, other.sequence[0].features)


def _dense_gen_synthetic(seed, cfg):
    """The generator's loop as it was when each snapshot was built through a
    dense V x V adjacency (scatter, symmetrize, dense constructor): the
    reference `gen_synthetic`'s CSR-first build is pinned to."""
    v, length = cfg.num_nodes, cfg.seq_len
    c, d = cfg.num_classes, cfg.num_features
    rng = named_rng(seed, "task")
    labels = np.repeat(np.arange(c), v // c)
    labels = np.concatenate([labels, rng.integers(0, c, v - labels.size)])
    rng.shuffle(labels)
    same = labels[:, None] == labels[None, :]
    iu = np.triu_indices(v, 1)
    same_u = same[iu]
    snaps, state = [], None
    for l in range(length):
        pin_l = cfg.p_out + (cfg.p_in - cfg.p_out) * (1.0 - cfg.p_decay) ** l
        pair_p = np.where(same_u, pin_l, cfg.p_out)
        if state is None:
            state = rng.random(pair_p.size) < pair_p
        else:
            redraw = rng.random(pair_p.size) < cfg.drift_rate
            state = np.where(redraw, rng.random(pair_p.size) < pair_p, state)
        adj = np.zeros((v, v), dtype=bool)
        adj[iu] = state
        adj |= adj.T
        ang = 2.0 * np.pi * labels / c + cfg.omega * l
        cent = np.zeros((v, d))
        cent[:, 0] = cfg.radius * np.cos(ang)
        cent[:, 1] = cfg.radius * np.sin(ang)
        feats = cent + cfg.noise * rng.normal(size=(v, d))
        snaps.append(Snapshot(adjacency=adj, features=feats, timestamp=float(l + 1)))
    return SnapshotSequence(tuple(snaps)), labels, split_nodes(labels, named_rng(seed, "split"))


def _task_bytes(task):
    parts = [task.labels, *task.split]
    for snap in task.sequence:
        parts += [snap.indptr, snap.indices, snap.features, np.float64(snap.timestamp)]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in parts]


@pytest.mark.parametrize("variant", list(SsmVariant))
def test_block_forward_on_the_csr_built_task_equals_the_dense_built_one(variant):
    cfg = _tiny_task_cfg(num_nodes=48, seq_len=5)
    task = gen_synthetic(2, cfg)
    seq, _, _ = _dense_gen_synthetic(2, cfg)
    hidden = np.stack([s.features for s in seq], axis=1)
    model = sample_model(named_rng(2, "model"), ModelConfig(variant=variant),
                         cfg.num_features, cfg.seq_len)
    assert np.array_equal(block_forward(hidden, task.sequence, model),
                          block_forward(hidden, seq, model))


def test_gen_pair_indices_are_int32_and_list_the_upper_triangle():
    for v in (2, 5, 97):
        rows, cols = _upper_pairs(v)
        want = np.triu_indices(v, 1)
        assert rows.dtype == cols.dtype == np.int32
        assert np.array_equal(rows, want[0]) and np.array_equal(cols, want[1])


def _gen_peak_per_pair(v=600):
    """tracemalloc's peak over one generation at V=v, L=4, per node pair."""
    import tracemalloc
    gen_synthetic(1, _tiny_task_cfg())  # first-call allocations are not part of the build
    tracemalloc.start()
    try:
        gen_synthetic(1, _tiny_task_cfg(num_nodes=v))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (v * (v - 1) // 2)


def test_gen_peak_memory_per_node_pair_is_bounded():
    # About 19.4 bytes per pair with int32 pair indices; int64 ones (16 bytes
    # a pair on their own) put the peak at 27.4.
    assert _gen_peak_per_pair() < 38


def test_gen_split_peak_memory_per_node_pair_is_bounded(monkeypatch):
    """Split in two, each range draws its pairs in chunks into the one state
    array: the peak stays under the serial loop's bound."""
    _split(monkeypatch, 2)
    assert _gen_peak_per_pair() < 38


def test_gen_one_cpu_peak_memory_per_node_pair_is_bounded(monkeypatch):
    """On one CPU the one range also draws its pairs `_CHUNK_PAIRS` at a
    time: about 19.4 bytes a pair, against 28.4 when a step's uniforms and
    masks were drawn whole and 21.6 with two ranges."""
    monkeypatch.setattr(_pool, "cpus", lambda: 1)
    assert _gen_peak_per_pair() < 25


def _record_finishes(monkeypatch, log):
    """Have `Snapshot.from_csr` append (timestamp, thread) to `log`."""
    real = Snapshot.from_csr

    def from_csr(indptr, indices, features, timestamp):
        log.append((timestamp, threading.current_thread()))
        return real(indptr, indices, features, timestamp)
    monkeypatch.setattr(Snapshot, "from_csr", staticmethod(from_csr))


def test_gen_under_the_split_size_starts_no_pool_thread(monkeypatch):
    """Under the split size every snapshot is also finished on the calling
    thread; over it, steps are finished in pairs, the second on the pool,
    and a last step without a partner on the calling thread."""
    monkeypatch.setattr(_pool, "cpus", lambda: 2)
    pool = ThreadPoolExecutor(1)
    monkeypatch.setattr(_pool, "_executor", pool)
    finished = []
    _record_finishes(monkeypatch, finished)
    gen_synthetic(0, TaskConfig(num_nodes=720, seq_len=2))  # 258 840 pairs
    assert not pool._threads  # a pool starts a thread on its first task
    assert finished == [(1.0, threading.current_thread()), (2.0, threading.current_thread())]
    finished.clear()
    gen_synthetic(0, TaskConfig(num_nodes=725, seq_len=3))  # 262 450 pairs
    assert pool._threads
    by_step = dict(finished)
    assert len(finished) == len(by_step) == 3
    assert by_step[1.0] is by_step[3.0] is threading.current_thread()
    assert by_step[2.0] in pool._threads
    pool.shutdown()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_gen_holds_at_most_one_unfinished_step_per_range(monkeypatch, cpus):
    _split(monkeypatch, cpus)
    log = []
    real_step = harness._step_pairs

    def step_pairs(*args):
        log.append("drawn")
        return real_step(*args)
    monkeypatch.setattr(harness, "_step_pairs", step_pairs)
    _record_finishes(monkeypatch, log)
    gen_synthetic(2, _tiny_task_cfg(seq_len=7))
    held, most = 0, 0
    for event in log:
        held += 1 if event == "drawn" else -1
        most = max(most, held)
    assert log.count("drawn") == 7 and held == 0 and most == cpus


def test_gen_error_finishing_a_snapshot_on_the_pool_surfaces_unchanged(monkeypatch):
    _split(monkeypatch, 2)
    cfg = _tiny_task_cfg()
    want = _task_bytes(gen_synthetic(3, cfg))
    error, where = ValueError("snapshot 2 is malformed"), {}
    real = Snapshot.from_csr

    def from_csr(indptr, indices, features, timestamp):
        if timestamp == 2.0:
            where["thread"] = threading.current_thread()
            raise error
        return real(indptr, indices, features, timestamp)
    with monkeypatch.context() as patch:
        patch.setattr(Snapshot, "from_csr", staticmethod(from_csr))
        with pytest.raises(ValueError) as caught:
            gen_synthetic(3, cfg)
    assert caught.value is error
    assert where["thread"] is not threading.current_thread()
    assert _task_bytes(gen_synthetic(3, cfg)) == want
    ran = []
    _pool.run(lambda k: ran.append(threading.current_thread()), [0, 1])
    assert len(set(ran)) == 2


def test_pool_counts_the_cpus_where_the_platform_has_no_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _pool.cpus() == (os.cpu_count() or 1)


def test_gssm_imports_and_generates_without_affinity_or_fork_hooks(capsys, tmp_path):
    """Where `os.sched_getaffinity` and `os.register_at_fork` are missing (not
    Linux), `gssm` still imports, and `gssm gen` split in two writes the
    bytes of the serial loop."""
    task = ["--seed", "6", "--v", "40", "--l", "3", "--d", "4", "--c", "3"]
    script = """
import os, sys
for name in ("sched_getaffinity", "register_at_fork"):
    if hasattr(os, name):
        delattr(os, name)
os.cpu_count = lambda: 2
from gssm import _pool
from gssm.cli import main
assert _pool.cpus() == 2
_pool._SPLIT_WORK = 0
assert main(sys.argv[1:]) == 0
assert _pool._executor._threads
"""
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    split = tmp_path / "split.seq"
    done = subprocess.run([sys.executable, "-c", script, "gen", "--out", str(split), *task],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    serial = tmp_path / "serial.seq"
    assert main(["gen", "--out", str(serial), *task]) == 0
    capsys.readouterr()
    for suffix in ("", ".labels"):
        assert pathlib.Path(f"{split}{suffix}").read_bytes() == \
            pathlib.Path(f"{serial}{suffix}").read_bytes()


def test_gen_stores_no_dense_adjacency():
    import tracemalloc

    import scipy.sparse  # noqa: F401  (its import is not part of the build)
    v = 600
    # Sparse enough that one V x V boolean array outweighs the whole CSR build.
    task = gen_synthetic(1, _tiny_task_cfg(num_nodes=v, seq_len=4, p_in=0.02, p_out=0.002))
    seq = task.sequence
    tracemalloc.start()
    try:
        (blocks,) = seq.csr_blocks([slice(0, len(seq))])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < v * v
    entries = sum(s.indices.size for s in seq)
    assert sum(b.indices.size for b in blocks) == entries > 0
    assert all(a.size < v * v for b in blocks for a in (b.data, b.indices, b.indptr))
    for snap in seq:
        held = [a for a in vars(snap).values() if isinstance(a, np.ndarray)]
        assert held and all(a.size < v * v for a in held)
        assert snap.indptr.nbytes + snap.indices.nbytes == 4 * (v + 1 + snap.indices.size)


def test_gen_default_config_has_no_dominant_class():
    task = gen_synthetic(0)
    counts = np.bincount(task.labels, minlength=task.num_classes)
    assert counts.max() / task.labels.size <= 0.30


def test_gen_split_is_stratified_within_one_node():
    task = gen_synthetic(5)
    labels = task.labels
    for c in range(task.num_classes):
        n_c = np.sum(labels == c)
        for part, frac in zip(task.split, (0.6, 0.2, 0.2)):
            got = np.sum(labels[part] == c)
            assert abs(got - frac * n_c) <= 1.0


@pytest.mark.parametrize("size, counts", [
    (1, (1, 0, 0)), (2, (1, 1, 0)), (3, (2, 0, 1)), (4, (2, 1, 1)),
    (5, (3, 1, 1)), (7, (4, 2, 1)), (10, (6, 2, 2)), (12, (7, 3, 2)), (20, (12, 4, 4)),
])
def test_split_nodes_rounds_60_20_20_of_each_class(size, counts):
    """Class 0 of `size` nodes next to a class of ten: each class's train and
    train+val counts are 60% and 80% of it, rounded; test takes the rest."""
    labels = np.array([0] * size + [1] * 10)
    np.random.default_rng(size).shuffle(labels)
    split = split_nodes(labels, np.random.default_rng(3))
    assert tuple(int(np.sum(labels[part] == 0)) for part in split) == counts
    assert tuple(int(np.sum(labels[part] == 1)) for part in split) == (6, 2, 2)
    assert all(np.array_equal(part, np.sort(part)) for part in split)
    assert np.array_equal(np.sort(np.concatenate(split)), np.arange(labels.size))


def test_gen_splits_partition_all_nodes():
    task = gen_synthetic(7, _tiny_task_cfg())
    train, val, test = (set(part.tolist()) for part in task.split)
    assert not (train & val or train & test or val & test)
    assert train | val | test == set(range(task.sequence.num_nodes))
    assert set(task.labels[sorted(train)]) == set(range(task.num_classes))


def test_gen_rejects_infeasible_configs():
    with pytest.raises(ValueError):
        TaskConfig(num_nodes=7, num_classes=2)  # needs at least 4 per class
    with pytest.raises(ValueError):
        TaskConfig(num_nodes=24, num_classes=3, p_in=1.5)
    with pytest.raises(ValueError):
        TaskConfig(num_nodes=24, num_classes=3, noise=-1.0)


@pytest.mark.parametrize("make, field", [
    (lambda bad: TaskConfig(num_nodes=bad), "num_nodes"),
    (lambda bad: TaskConfig(seq_len=bad), "seq_len"),
    (lambda bad: TaskConfig(num_features=bad), "num_features"),
    (lambda bad: TaskConfig(num_nodes=24, num_classes=bad), "num_classes"),
    (lambda bad: ModelConfig(num_blocks=bad), "num_blocks"),
    (lambda bad: ModelConfig(state_size=bad), "state_size"),
])
@pytest.mark.parametrize("bad", [2.5, 200.5, np.nan, "3"])
def test_configs_reject_sizes_that_are_not_integers(make, field, bad):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        make(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["noise", "radius", "omega"])
def test_task_config_rejects_non_finite_scales(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        TaskConfig(num_nodes=24, num_classes=3, **{field: bad})


def test_gen_noise_free_static_task_is_linearly_separable():
    cfg = _tiny_task_cfg(num_nodes=40, num_classes=4, noise=0.0, drift_rate=0.0)
    task = gen_synthetic(3, cfg)
    feats = standardize(task.sequence[-1].features, task.split.train)
    readout = train_readout(feats, task.labels, task.split, lr=0.5, epochs=500)
    micro, _ = f1_scores(readout.predict(feats[task.split.train]),
                         task.labels[task.split.train], task.num_classes)
    assert micro >= 0.99


# ---------------------------------------------------------------------------
# readout training


def test_readout_on_zero_features_predicts_one_class_at_its_frequency():
    rng = np.random.default_rng(13)
    labels = np.array([0] * 10 + [1] * 6 + [2] * 4)
    split = split_nodes(labels, rng)
    feats = np.zeros((labels.size, 3))
    readout = train_readout(feats, labels, split, lr=0.5, epochs=100)
    preds = readout.predict(feats[split.test])
    assert np.unique(preds).size == 1
    winner = preds[0]
    freq = np.mean(labels[split.test] == winner)
    micro, _ = f1_scores(preds, labels[split.test], 3)
    assert micro == pytest.approx(freq)


@pytest.mark.parametrize("epochs", [1.5, 2.0, True, np.float64(3.0)])
def test_readout_rejects_epochs_that_are_not_an_integer(epochs):
    labels = np.array([0, 1, 0, 1])
    split = Split(np.array([0, 1]), np.array([2]), np.array([3]))
    with pytest.raises(ValueError, match="epochs must be an integer of at least 1"):
        train_readout(np.zeros((4, 2)), labels, split, epochs=epochs)


def test_readout_rejects_bad_learning_rate_and_empty_train():
    labels = np.array([0, 1, 0, 1])
    feats = np.zeros((4, 2))
    split = Split(np.array([0, 1]), np.array([2]), np.array([3]))
    with pytest.raises(ValueError):
        train_readout(feats, labels, split, lr=0.0)
    hollow = Split(np.array([], dtype=int), np.array([2]), np.array([3]))
    with pytest.raises(ValueError):
        train_readout(feats, labels, hollow)


def test_readout_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    feats = rng.normal(size=(30, 5))
    labels = rng.integers(0, 3, size=30)
    params = rng.normal(size=5 * 3 + 3)
    err = finite_diff_check(
        lambda p: readout_loss(p, feats, labels, 3, l2=1e-3), params
    )
    assert err <= 1e-4


@pytest.mark.parametrize("labels, match", [([0, 1, -1], r"labels must lie in \[0, 3\)"),
                                           ([0, 1, 3], r"labels must lie in \[0, 3\)"),
                                           ([0, 1], "one class per node"),
                                           ([[0], [1], [2]], "one class per node"),
                                           ([0, 1, 1.9], "labels must be integers"),
                                           ([0, 1, np.nan], "labels must be integers"),
                                           ([0, 1, np.inf], "labels must be integers")])
def test_readout_loss_rejects_labels_outside_the_classes_or_not_one_per_row(labels, match):
    # A -1 label used to index the one-hot as class C-1 and return the same
    # loss as labels [0, 1, 2]; a 1.9 label used to be truncated to class 1.
    with pytest.raises(ValueError, match=match):
        readout_loss(np.zeros(9), np.ones((3, 2)), labels, 3)
    assert readout_loss(np.zeros(9), np.ones((3, 2)), [0, 1, 2], 3)[0] == pytest.approx(np.log(3))


def test_readout_loss_accepts_integer_valued_float_labels():
    feats = np.arange(6.0).reshape(3, 2)
    params = np.linspace(-1.0, 1.0, 9)
    as_int = readout_loss(params, feats, np.array([0, 2, 1]), 3)
    as_float = readout_loss(params, feats, np.array([0.0, 2.0, 1.0]), 3)
    assert as_float[0] == as_int[0]
    assert np.array_equal(as_float[1], as_int[1])


def _readout_problem(seed, k=None, v=40, d=5, c=3):
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.arange(c), rng.integers(0, c, v - c)])
    rng.shuffle(labels)
    split = split_nodes(labels, rng)
    shape = (v, d) if k is None else (k, v, d)
    return rng.normal(size=shape), labels, split


@pytest.mark.parametrize("k", [1, 4])
def test_batched_readout_fits_equal_their_one_fit_calls(k):
    feats, labels, split = _readout_problem(41 + k, k=k)
    feats[-1] *= 3.0  # the fits peak at different checks
    fits = train_readout(feats, labels, split, lr=0.7, epochs=120, num_classes=3)
    assert isinstance(fits, tuple) and len(fits) == k
    for f_k, fit in zip(feats, fits):
        one = train_readout(f_k, labels, split, lr=0.7, epochs=120, num_classes=3)
        assert np.array_equal(fit.weight, one.weight)
        assert np.array_equal(fit.bias, one.bias)


def test_one_readout_step_is_minus_lr_times_the_loss_gradient():
    feats, labels, split = _readout_problem(43)
    lr, l2 = 0.3, 1e-2
    fit = train_readout(feats, labels, split, lr=lr, epochs=1, l2=l2, num_classes=3)
    params = np.zeros(5 * 3 + 3)
    _, grad = readout_loss(params, feats[split.train], labels[split.train], 3, l2)
    step = params - lr * grad
    assert np.array_equal(fit.weight, step[:15].reshape(5, 3))
    assert np.array_equal(fit.bias, step[15:])


@pytest.mark.parametrize("k", [None, 3])
def test_readout_rejects_divergence_at_a_validation_check(k):
    # Separable features: the first check already scores every validation
    # node, so only the finiteness check stops a silent return of that best.
    _, labels, split = _readout_problem(47)
    feats = 10.0 * np.eye(3)[labels] + np.random.default_rng(47).normal(size=(40, 3))
    if k is not None:
        feats = np.stack([feats] * k)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="readout parameters must be finite"):
        train_readout(feats, labels, split, lr=1e300, epochs=50)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("k", [None, 2])
def test_readout_rejects_non_finite_features(k, bad):
    feats, labels, split = _readout_problem(53, k=k)
    feats[..., 0, 1] = bad
    with pytest.raises(ValueError, match="features must be finite"):
        train_readout(feats, labels, split)


@pytest.mark.parametrize("shape", [(40,), (1, 2, 40, 5)])
def test_readout_rejects_features_that_are_not_2d_or_3d(shape):
    _, labels, split = _readout_problem(59)
    with pytest.raises(ValueError, match=r"\[V x D\] or \[K x V x D\]"):
        train_readout(np.zeros(shape), labels, split)


@pytest.mark.parametrize("bad, num_classes", [(-1, None), (-1, 3), (3, 3), (7, 3)])
def test_readout_rejects_labels_outside_the_classes(bad, num_classes):
    feats, labels, split = _readout_problem(61)
    labels[split.test[0]] = bad
    with pytest.raises(ValueError, match=r"labels must lie in \[0, "):
        train_readout(feats, labels, split, num_classes=num_classes)


def test_readout_rejects_labels_not_one_per_node():
    feats, labels, split = _readout_problem(67)
    with pytest.raises(ValueError, match="one class per node"):
        train_readout(feats, labels[:-1], split)
    with pytest.raises(ValueError, match="one class per node"):
        train_readout(feats[None], labels[:, None], split)


@pytest.mark.parametrize("part", ["train", "val"])
@pytest.mark.parametrize("bad", [-1, 40])
def test_readout_rejects_split_indices_outside_the_nodes(part, bad):
    feats, labels, split = _readout_problem(71)
    idx = getattr(split, part).copy()
    idx[0] = bad
    with pytest.raises(ValueError, match=r"split indices must lie in \[0, 40\)"):
        train_readout(feats, labels, split._replace(**{part: idx}))


def test_readout_rejects_an_empty_validation_split():
    feats, labels, split = _readout_problem(73)
    with pytest.raises(ValueError, match="empty validation split"):
        train_readout(feats, labels, split._replace(val=np.array([], dtype=int)))


# ---------------------------------------------------------------------------
# finite differences


def finite_diff_check(scalar_fn, params: np.ndarray, eps: float = 1e-5) -> float:
    """Max relative deviation between the analytic gradient returned by
    scalar_fn(params) -> (value, grad) and central finite differences."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    params = np.asarray(params, dtype=float)
    value, grad = scalar_fn(params)
    finite(value, "scalar_fn's value")
    finite(grad, "scalar_fn's gradient")
    numeric = np.empty_like(params)
    for i in range(params.size):
        bump = np.zeros_like(params)
        bump[i] = eps
        hi, _ = scalar_fn(params + bump)
        lo, _ = scalar_fn(params - bump)
        numeric[i] = (hi - lo) / (2.0 * eps)
    denom = np.maximum(np.abs(numeric), 1e-6)
    return float(np.max(np.abs(np.asarray(grad) - numeric) / denom))


def test_finite_diff_is_tight_on_a_quadratic():
    h = np.diag([2.0, 0.5, 1.5])

    def quad(p):
        return 0.5 * p @ h @ p, h @ p

    err = finite_diff_check(quad, np.array([0.3, -1.2, 0.7]))
    assert err <= 1e-8


def test_finite_diff_flags_a_doubled_gradient():
    h = np.diag([2.0, 0.5, 1.5])

    def wrong(p):
        return 0.5 * p @ h @ p, 2.0 * (h @ p)

    err = finite_diff_check(wrong, np.array([0.3, -1.2, 0.7]))
    assert err == pytest.approx(1.0, abs=1e-3)


def test_finite_diff_rejects_nonfinite_functions():
    with pytest.raises(ValueError):
        finite_diff_check(lambda p: (np.nan, np.zeros_like(p)), np.zeros(2))
    with pytest.raises(ValueError):
        finite_diff_check(lambda p: (0.0, np.zeros(2)), np.zeros(2), eps=0.0)


# ---------------------------------------------------------------------------
# F1


def test_f1_perfect_predictions():
    labels = np.array([0, 1, 2, 1, 0])
    assert f1_scores(labels, labels) == (1.0, 1.0)


def test_f1_constant_predictor_on_balanced_binary_labels():
    labels = np.array([0, 0, 1, 1])
    preds = np.zeros(4, dtype=int)
    micro, macro = f1_scores(preds, labels, 2)
    assert micro == pytest.approx(0.5)
    # class 0: precision 1/2, recall 1 -> 2/3; class 1 scores 0
    assert macro == pytest.approx(1.0 / 3.0)


def test_f1_hand_counted_three_class_fixture():
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2])
    preds = np.array([0, 0, 1, 2, 1, 1, 0, 1, 2, 2, 2, 1])
    micro, macro = f1_scores(preds, labels)
    # per-class F1 worked out by hand: 4/7, 2/3, 3/4
    assert micro == pytest.approx(2.0 / 3.0)
    assert macro == pytest.approx(167.0 / 252.0)


def test_f1_absent_class_contributes_zero_to_macro():
    labels = np.array([0, 1, 0, 1])
    preds = np.array([0, 1, 0, 1])
    _, macro = f1_scores(preds, labels, num_classes=3)
    assert macro == pytest.approx(2.0 / 3.0)


def test_f1_rejects_length_mismatch():
    with pytest.raises(ValueError):
        f1_scores(np.array([0, 1]), np.array([0, 1, 1]))


@pytest.mark.parametrize("preds, labels, name", [([0, 1, 1.5], [0, 1, 1], "preds"),
                                                 ([0, 1, 1], [0, 0.5, 1], "labels"),
                                                 ([0, 1, 1], [0, np.nan, 1], "labels")])
def test_f1_rejects_non_integer_values(preds, labels, name):
    with pytest.raises(ValueError, match=f"{name} must be integers"):
        f1_scores(np.array(preds), np.array(labels), 2)


def test_f1_accepts_integer_valued_floats():
    preds, labels = np.array([0, 1, 1, 2]), np.array([0, 1, 2, 2])
    assert f1_scores(preds.astype(float), labels.astype(float), 3) == f1_scores(preds, labels, 3)


def _f1_by_class_loop(preds, labels, c):
    tp, fp, fn = np.zeros(c), np.zeros(c), np.zeros(c)
    for k in range(c):
        tp[k] = np.sum((preds == k) & (labels == k))
        fp[k] = np.sum((preds == k) & (labels != k))
        fn[k] = np.sum((preds != k) & (labels == k))
    micro_den = 2 * tp.sum() + fp.sum() + fn.sum()
    micro = 2 * tp.sum() / micro_den if micro_den else 0.0
    prec = np.divide(tp, tp + fp, out=np.zeros(c), where=(tp + fp) > 0)
    rec = np.divide(tp, tp + fn, out=np.zeros(c), where=(tp + fn) > 0)
    f1 = np.divide(2 * prec * rec, prec + rec, out=np.zeros(c), where=(prec + rec) > 0)
    return float(micro), float(f1.mean())


@st.composite
def _predictions(draw):
    c = draw(st.integers(1, 6))
    n = draw(st.integers(0, 30))
    values = st.lists(st.integers(0, c - 1), min_size=n, max_size=n)
    return np.array(draw(values), dtype=int), np.array(draw(values), dtype=int), c


@settings(max_examples=200, deadline=None)
@given(_predictions())
@example((np.array([], dtype=int), np.array([], dtype=int), 3))
@example((np.array([0, 0, 1]), np.array([2, 2, 2]), 3))
def test_f1_equals_a_per_class_count(case):
    preds, labels, c = case
    assert f1_scores(preds, labels, c) == _f1_by_class_loop(preds, labels, c)
    if preds.size:
        assert f1_scores(preds, labels) == _f1_by_class_loop(
            preds, labels, int(max(preds.max(), labels.max())) + 1)


@pytest.mark.parametrize("preds, labels", [([0, 5], [0, 1]), ([0, -1], [0, 1]),
                                           ([0, 1], [2, 1]), ([0, 1], [-1, 1])])
def test_f1_rejects_values_outside_the_classes(preds, labels):
    with pytest.raises(ValueError, match=r"must lie in \[0, 2\)"):
        f1_scores(np.array(preds), np.array(labels), 2)


def test_f1_rejects_negative_values_without_a_class_count():
    with pytest.raises(ValueError, match="must lie in"):
        f1_scores(np.array([0, -1]), np.array([0, 1]))


# ---------------------------------------------------------------------------
# feature extraction


def test_extract_zero_model_gives_zero_features():
    task = gen_synthetic(19, _tiny_task_cfg())
    d = task.sequence.num_features
    blocks = [BlockParams(layer=_zero_block(d), res_weight=np.zeros((d, d)))]
    feats = extract_features(task, blocks)
    assert np.array_equal(feats, np.zeros((task.sequence.num_nodes, d)))


def test_extract_identity_residual_zero_ssm_returns_last_inputs():
    task = gen_synthetic(23, _tiny_task_cfg())
    d = task.sequence.num_features
    blocks = [BlockParams(layer=_zero_block(d))]
    feats = extract_features(task, blocks)
    assert np.array_equal(feats, task.sequence[-1].features)

    rng = np.random.default_rng(29)
    w = rng.normal(size=(d, d))
    b = rng.normal(size=d)
    affine = [BlockParams(layer=_zero_block(d), res_weight=w, res_bias=b)]
    assert extract_features(task, affine) == pytest.approx(
        task.sequence[-1].features @ w + b
    )


def test_extract_matches_manual_block_composition():
    from gssm import block_forward

    task = gen_synthetic(31, _tiny_task_cfg())
    cfg = ModelConfig(num_blocks=2, state_size=3)
    blocks = sample_model(named_rng(31, "model"), cfg, task.sequence.num_features,
                          len(task.sequence))
    feats = extract_features(task, blocks)
    hidden = np.stack([s.features for s in task.sequence], axis=1)
    manual = block_forward(hidden, task.sequence, blocks)[:, -1, :]
    assert np.array_equal(feats, manual)


def test_static_features_use_only_the_last_snapshot():
    task = gen_synthetic(37, _tiny_task_cfg())
    d = task.sequence.num_features
    p = GnnParams(weight=np.eye(d), bias=np.zeros(d), self_mix=0.0)
    assert np.array_equal(static_features(task, p), task.sequence[-1].features)


# ---------------------------------------------------------------------------
# experiment driver


def test_run_experiment_rows_schema_and_determinism():
    cfg = _tiny_task_cfg()
    model_cfg = ModelConfig(num_blocks=1, state_size=2)
    rows = run_experiment([0, 1], task_cfg=cfg, model_cfg=model_cfg,
                          inits=(InitStrategy.S4D_REAL,), epochs=30)
    assert len(rows) == 4  # (1 init + static) x 2 seeds
    for row in rows:
        assert list(row) == ["seed", "variant", "init", "micro_f1", "macro_f1"]
        assert 0.0 <= row["micro_f1"] <= 1.0
        assert 0.0 <= row["macro_f1"] <= 1.0
    assert {r["variant"] for r in rows} == {"s4", "static"}
    again = run_experiment([0, 1], task_cfg=cfg, model_cfg=model_cfg,
                           inits=(InitStrategy.S4D_REAL,), epochs=30)
    assert rows == again


def test_run_experiment_one_init_gives_its_rows_of_the_full_run():
    cfg = _tiny_task_cfg()
    model_cfg = ModelConfig(num_blocks=1, state_size=2)
    full = run_experiment([3, 4], task_cfg=cfg, model_cfg=model_cfg, epochs=60)
    assert len(full) == 8
    for init in (InitStrategy.S4D_REAL, InitStrategy.S4D_CONST, InitStrategy.RANDOM):
        alone = run_experiment([3, 4], task_cfg=cfg, model_cfg=model_cfg,
                               inits=(init,), include_static=False, epochs=60)
        assert alone == [r for r in full if r["init"] == init.value]
    static = run_experiment([3, 4], task_cfg=cfg, model_cfg=model_cfg, inits=(),
                            epochs=60)
    assert static == [r for r in full if r["variant"] == "static"]


_RUN_ERRORS = {"seeds": r"^seeds\[1\] must be an integer of at least 0",
               "inits": r"^inits\[1\] must be an InitStrategy, got 'bogus'",
               "include_static": r"^include_static must be a bool, got 'no'"}


@pytest.mark.parametrize("setting", [{"lr": np.nan}, {"lr": 0.0}, {"epochs": 0},
                                     {"epochs": 2.5}, {"l2": -1.0}, {"l2": np.inf},
                                     {"seeds": [0, -1]}, {"seeds": [0, True]},
                                     {"seeds": [0, 1.0]},
                                     {"inits": (InitStrategy.RANDOM, "bogus")},
                                     {"include_static": "no"}])
def test_run_experiment_checks_the_readout_settings_before_any_task_is_built(monkeypatch,
                                                                             setting):
    """Also the seeds, inits and include_static, each named; no task is
    built and no worker process started for any of them."""
    built = []
    monkeypatch.setattr(harness, "gen_synthetic", lambda *args: built.append(args))
    monkeypatch.setattr(_pool, "forked", lambda *args: built.append(args))
    (name,) = setting
    match = _RUN_ERRORS.get(name, "readout needs epochs >= 1|epochs must be an integer")
    with pytest.raises(ValueError, match=match):
        run_experiment(**{"seeds": [0, 1], **setting}, task_cfg=_tiny_task_cfg())
    assert built == []


def test_acceptance_results_csv_keeps_its_digest(capsys, tmp_path):
    out = tmp_path / "results.csv"
    assert main(["run", "--config", str(_ACCEPTANCE_CFG), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "c55dfaf09be1c645f548a14d95acc30ab542a01c5877012df6d015be2fec1b19")


def test_the_acceptance_experiment_starts_no_pool_thread(monkeypatch, capsys, tmp_path):
    """Its task and layers are all under `_pool._SPLIT_WORK`: on two CPUs,
    one seed's four fits are cut into two parts, for this process and a
    worker process (or run here as one, where no worker can start), and
    each process runs every pass of its task and layers on its calling
    thread and gives the thread pool no work."""
    monkeypatch.setattr(_pool, "cpus", lambda: 2)
    pool = ThreadPoolExecutor(1)
    monkeypatch.setattr(_pool, "_executor", pool)
    argv = ["run", "--config", str(_ACCEPTANCE_CFG), "--seeds", "0",
            "--out", str(tmp_path / "r.csv")]
    assert main(argv) == 0
    capsys.readouterr()
    assert not pool._threads  # a pool starts a thread on its first task


@pytest.mark.parametrize("variant, digest", [
    (SsmVariant.S4, "348a19dc674dd13930b1291a6f08c5203a4c9ca01c7b7ac18566a6f94de4ec52"),
    (SsmVariant.S5, "adf0646888670ec5fa90a5be6ecbb6b3265ec88132a23aa0f55f0b6786acf861"),
    (SsmVariant.S6, "507e511ed74d2e25ff8299d1ae2a895e2844176b6312fd2bc2cfe290025a1f5f"),
])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_block_forward_output_keeps_its_digest(monkeypatch, variant, digest, cpus):
    """The forward's bits on a generated task (V=64, L=128), as the
    whole-sequence layer produced them before it was run in time tiles, on
    hosts of one to three CPUs: every S4, S5 and S6 layer's L*V*D*N is over
    `_pool._SPLIT_WORK`, so each of its passes runs one range per CPU."""
    monkeypatch.setattr(_pool, "cpus", lambda: cpus)
    task = gen_synthetic(0, TaskConfig(num_nodes=64, seq_len=128))
    seq = task.sequence
    hidden = np.stack([s.features for s in seq], axis=1)
    model = sample_model(named_rng(0, "model"), ModelConfig(variant=variant),
                         seq.num_features, len(seq))
    out = block_forward(hidden, seq, model)
    assert hashlib.sha256(out.tobytes()).hexdigest() == digest


def test_verify_prints_the_pinned_oracle_errors(capsys):
    # The benchmark's verify op on seed 0; hippo-reduction is left out, its
    # error sits at the level of float rounding.
    argv = ["verify", "--config", str(_ACCEPTANCE_CFG), "--seed", "0",
            "--instances", "3", "--ode-steps", "50"]
    assert main(argv) == 0
    errors = dict(line.split()[1:3] for line in capsys.readouterr().out.splitlines())
    assert {name: errors[name] for name in
            ("projection-vs-ode", "zoh-vs-ode", "weights-convexity")} == {
        "projection-vs-ode": "max_err=9.570e-06", "zoh-vs-ode": "max_err=1.146e-08",
        "weights-convexity": "max_err=2.220e-16"}


def test_results_csv_round_trips_exact_floats():
    rows = [
        {"seed": 0, "variant": "s4", "init": "s4d_real",
         "micro_f1": 0.8125, "macro_f1": 1 / 3},
        {"seed": 1, "variant": "static", "init": "none",
         "micro_f1": 0.5, "macro_f1": 2 / 7},
    ]
    text = results_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "seed,variant,init,micro_f1,macro_f1"
    assert len(lines) == 3
    parsed = lines[2].split(",")
    assert float(parsed[3]) == 0.5
    assert float(parsed[4]) == 2 / 7


# ---------------------------------------------------------------------------
# named streams and label files


def test_named_rng_streams_are_independent_and_reproducible():
    a = named_rng(0, "task").random(4)
    b = named_rng(0, "task").random(4)
    c = named_rng(0, "split").random(4)
    d = named_rng(1, "task").random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert np.array_equal(named_rng(np.int64(1), "task").random(4), d)


@pytest.mark.parametrize("seed", [1.5, 1.0, True, -1, np.nan])
def test_named_rng_and_gen_reject_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(ValueError, match="seed must be an integer of at least 0"):
        named_rng(seed, "task")
    with pytest.raises(ValueError, match="seed must be an integer of at least 0"):
        gen_synthetic(seed, _tiny_task_cfg())


def test_save_labels_writes_the_header_then_one_class_id_a_line(tmp_path):
    path = tmp_path / "task.labels"
    save_labels(np.array([0, 2, 1, 1, 0]), 3, path)
    assert path.read_text() == "GSSML v1 5 3\n0\n2\n1\n1\n0\n"


def test_save_labels_of_no_nodes_writes_the_header_alone(tmp_path):
    path = tmp_path / "empty.labels"
    save_labels(np.array([], dtype=int), 3, path)
    assert path.read_text() == "GSSML v1 0 3\n"


@pytest.mark.parametrize("labels, num_classes, message", [
    ([0, 3, 1], 3, r"labels must lie in \[0, 3\), got 3"),
    ([0, -1, 1], 3, r"labels must lie in \[0, 3\), got -1"),
    ([0, 1], 0, "class count 0 is below 1"),
    ([0, 1], -2, "class count -2 is below 1"),
    ([0, np.nan], 3, "labels must be integers"),
    ([0, np.inf], 3, "labels must be integers"),
    ([[0, 1], [1, 0]], 3, "labels must assign one class per node"),
], ids=["past_classes", "negative", "zero_classes", "negative_classes", "nan", "inf",
        "two_dimensional"])
def test_save_labels_checks_its_input_before_creating_the_file(tmp_path, labels,
                                                               num_classes, message):
    path = tmp_path / "bad.labels"
    with pytest.raises(ValueError, match=message):
        save_labels(np.array(labels), num_classes, path)
    assert not path.exists()


def test_task_rejects_non_integer_labels_and_split_indices():
    task = gen_synthetic(4, _tiny_task_cfg())
    labels = task.labels.astype(float)
    labels[0] += 0.5
    with pytest.raises(ValueError, match="labels must be integers"):
        SyntheticTask(task.sequence, labels, task.num_classes, task.split)
    split = task.split._replace(test=task.split.test + 0.25)
    with pytest.raises(ValueError, match="split.test must be integers"):
        SyntheticTask(task.sequence, task.labels, task.num_classes, split)
    same = SyntheticTask(task.sequence, task.labels.astype(float), task.num_classes,
                         Split(*(p.astype(float) for p in task.split)))
    assert same.labels.dtype.kind == "i" and np.array_equal(same.labels, task.labels)


@pytest.mark.parametrize("part", ["train", "val"])
def test_readout_rejects_non_integer_split_indices(part):
    feats, labels, split = _readout_problem(79)
    with pytest.raises(ValueError, match=f"split.{part} must be integers"):
        train_readout(feats, labels, split._replace(**{part: getattr(split, part) + 0.4}))


def test_split_nodes_and_save_labels_reject_non_integer_labels(tmp_path):
    with pytest.raises(ValueError, match="labels must be integers"):
        split_nodes(np.array([0, 1, 1.5]), np.random.default_rng(0))
    with pytest.raises(ValueError, match="labels must be integers"):
        save_labels(np.array([0, 1, 2.5]), 3, tmp_path / "bad.labels")
