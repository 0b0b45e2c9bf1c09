import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from nld import (
    AffinityKernelSpec,
    DivergenceError,
    FeatureField,
    Hyper,
    NetworkConfig,
    SplitMix64,
    StageConfig,
    TrainingHistory,
    checkpoint_bytes,
    checkpoint_from_bytes,
    derive_seed,
    extract_stage_spectra,
    generate_task,
    init_params,
    param_names,
    train,
)
from nld import net
from nld.cli import _hyper_from, _net_config_from, _task_from, resolve_config
from nld.net import _block_bwd, _block_fwd, softmax_cross_entropy

from conftest import (
    agreement_count,
    flat_grads,
    label_from_field,
    net_forward,
    net_gradients,
    net_loss,
    normal,
    randint,
)


def small_config(stage=None, trunk_blocks=2, M=5, d=2, C=2, H=3):
    return NetworkConfig(M, d, C, trunk_blocks, H, stage=stage)


def proposed_stage(n=1, placement=1, kernel=None):
    return StageConfig(
        "proposed", n, kernel or AffinityKernelSpec("gaussian"), placement
    )


def original_stage(n=1, placement=1, kernel=None):
    return StageConfig(
        "original", n, kernel or AffinityKernelSpec("gaussian"), placement
    )


def random_field(seed, M, d):
    return FeatureField(SplitMix64(derive_seed(seed, "netfield", M, d)).normals((M, d)))


def logits_of(config, params, field):
    """The logits of one field, run as a batch of one."""
    logits, _ = net_forward(config, params, field.values[None])
    return logits[0]


# configuration and initialization


def test_config_rejects_bad_stages():
    with pytest.raises(ValueError):
        StageConfig("other", 1, AffinityKernelSpec("gaussian"), 0)
    with pytest.raises(ValueError):
        StageConfig("proposed", 0, AffinityKernelSpec("gaussian"), 0)
    with pytest.raises(ValueError):
        StageConfig("proposed", 1, AffinityKernelSpec("rbf"), 0)
    rbf = AffinityKernelSpec("rbf")
    with pytest.raises(ValueError):
        StageConfig("proposed", 1, AffinityKernelSpec("embedded", theta=np.eye(2), inner=rbf), 0)
    with pytest.raises(ValueError):
        small_config(proposed_stage(placement=7))
    with pytest.raises(ValueError):
        small_config((proposed_stage(),))
    gaussian = AffinityKernelSpec("gaussian")
    with pytest.raises(ValueError, match="theta maps 3 channels but the network has 2"):
        small_config(proposed_stage(kernel=AffinityKernelSpec("embedded", theta=np.eye(3), inner=gaussian)))
    # theta may change the width the affinity sees; it must read the network's.
    small_config(proposed_stage(kernel=AffinityKernelSpec("embedded", theta=np.ones((3, 2)), inner=gaussian)))


def test_param_names_order():
    config = small_config(proposed_stage(n=2))
    assert param_names(config) == [
        "block0.W1",
        "block0.W2",
        "block1.W1",
        "block1.W2",
        "stage0.W0",
        "stage0.W1",
        "head.A",
        "head.b",
    ]


def test_init_shapes_and_determinism():
    config = small_config(proposed_stage(n=2), M=6, d=3, C=4, H=5)
    params = init_params(config, 7)
    assert params["block0.W1"].shape == (5, 3)
    assert params["block0.W2"].shape == (3, 5)
    assert params["stage0.W0"].shape == (3, 3)
    assert params["head.A"].shape == (4, 3)
    assert np.array_equal(params["head.b"], np.zeros(4))
    again = init_params(config, 7)
    for name in params:
        assert np.array_equal(params[name], again[name])
    other = init_params(config, 8)
    assert not np.array_equal(params["block0.W1"], other["block0.W1"])


def test_init_stage_weights_by_formulation():
    prop = init_params(small_config(proposed_stage(), d=3, M=6), 0)
    assert np.array_equal(prop["stage0.W0"], 0.1 * np.eye(3))
    orig = init_params(small_config(original_stage(), d=3, M=6), 0)
    W = orig["stage0.W0"]
    assert W.shape == (3, 3) and np.max(np.abs(W)) <= 0.01
    assert np.max(np.abs(W)) > 0.0


# forward pass


def test_zero_params_give_uniform_logits():
    config = small_config(proposed_stage())
    params = {k: np.zeros_like(v) for k, v in init_params(config, 0).items()}
    assert np.array_equal(logits_of(config, params, random_field(1, 5, 2)), np.zeros(2))


def test_stage_with_zero_weight_matches_stageless_net():
    staged = small_config(proposed_stage())
    plain = small_config(None)
    params = init_params(staged, 3)
    params["stage0.W0"] = np.zeros((2, 2))
    trunk_only = {k: v for k, v in params.items() if not k.startswith("stage")}
    X = random_field(2, 5, 2)
    assert np.array_equal(logits_of(staged, params, X), logits_of(plain, trunk_only, X))


def test_dirac_proposed_stage_is_identity():
    staged = small_config(proposed_stage(kernel=AffinityKernelSpec("dirac_delta")))
    plain = small_config(None)
    params = init_params(staged, 4)
    params["stage0.W0"] = SplitMix64(99).normals((2, 2))
    trunk_only = {k: v for k, v in params.items() if not k.startswith("stage")}
    X = random_field(3, 5, 2)
    assert np.array_equal(logits_of(staged, params, X), logits_of(plain, trunk_only, X))


def test_forward_divergence_error():
    config = small_config(None)
    params = init_params(config, 0)
    params["block0.W1"] = np.full_like(params["block0.W1"], 1e200)
    params["block0.W2"] = np.full_like(params["block0.W2"], 1e200)
    with pytest.raises(DivergenceError):
        logits_of(config, params, random_field(5, 5, 2))


def test_forward_matches_manual_replication_proposed():
    # One trunk block, then a two-sub-step proposed stage: the replication
    # uses a single row-normalized kernel built from the stage input, so
    # agreement here pins the stage-input fixity of the kernel.
    config = NetworkConfig(
        4, 2, 2, 1, 3, stage=StageConfig("proposed", 2, AffinityKernelSpec("rbf", bandwidth=1.0), 0)
    )
    params = init_params(config, 11)
    params["stage0.W0"] = np.array([[0.2, -0.1], [0.05, 0.3]])
    params["stage0.W1"] = np.array([[-0.3, 0.2], [0.1, 0.0]])
    X = random_field(6, 4, 2)
    got = logits_of(config, params, X)

    Z = X.values
    A1 = np.maximum(Z, 0.0)
    P1 = A1 @ params["block0.W1"].T
    A2 = np.maximum(P1, 0.0)
    Z = Z + A2 @ params["block0.W2"].T
    d2 = np.sum((Z[:, None, :] - Z[None, :, :]) ** 2, axis=2)
    omega = np.exp(-d2 / 2.0)
    P = omega / omega.sum(axis=1, keepdims=True)
    cur = Z
    for name in ("stage0.W0", "stage0.W1"):
        cur = cur + (P @ cur - cur) @ params[name].T
    want = cur.mean(axis=0) @ params["head.A"].T + params["head.b"]
    assert np.max(np.abs(got - want)) <= 1e-12


def test_forward_matches_manual_replication_original():
    # Same layout, original formulation: the kernel must be rebuilt from
    # each sub-block's own input and the update adds the positive sum.
    config = NetworkConfig(
        4, 2, 2, 1, 3, stage=StageConfig("original", 2, AffinityKernelSpec("gaussian"), 0)
    )
    params = init_params(config, 12)
    params["stage0.W0"] = np.array([[0.05, -0.02], [0.01, 0.04]])
    params["stage0.W1"] = np.array([[-0.03, 0.02], [0.02, 0.01]])
    X = random_field(7, 4, 2)
    got = logits_of(config, params, X)

    Z = X.values
    A1 = np.maximum(Z, 0.0)
    P1 = A1 @ params["block0.W1"].T
    A2 = np.maximum(P1, 0.0)
    Z = Z + A2 @ params["block0.W2"].T
    cur = Z
    for name in ("stage0.W0", "stage0.W1"):
        omega = np.exp(cur @ cur.T)
        P = omega / omega.sum(axis=1, keepdims=True)
        cur = cur + (P @ cur) @ params[name].T
    want = cur.mean(axis=0) @ params["head.A"].T + params["head.b"]
    assert np.max(np.abs(got - want)) <= 1e-12


def test_proposed_stage_norm_stays_bounded_deep():
    # Sixteen stable positive sub-steps never grow the sup norm.
    config = NetworkConfig(
        6, 2, 2, 1, 3, stage=StageConfig("proposed", 16, AffinityKernelSpec("rbf", bandwidth=1.0), 0)
    )
    params = {k: np.zeros_like(v) for k, v in init_params(config, 0).items()}
    for n in range(16):
        params[f"stage0.W{n}"] = 0.9 * np.eye(2)
    X = random_field(8, 6, 2)
    _, cache = net_forward(config, params, X.values[None])
    stage_cache = next(sub for kind, _, sub in cache["trail"] if kind == "stage")
    Zs = stage_cache[4]
    z_in = float(np.max(np.abs(Zs[0])))
    z_out = float(np.max(np.abs(Zs[-1])))
    assert z_out <= z_in + 1e-8


# backward pass


def fd_gradient(config, params, X, labels, name, idx, eps=1e-5):
    """Central difference of the batch X's mean loss in one parameter element."""
    pert = {k: v.copy() for k, v in params.items()}
    pert[name][idx] += eps
    hi = net_loss(config, pert, X, labels)
    pert[name][idx] -= 2.0 * eps
    lo = net_loss(config, pert, X, labels)
    return (hi - lo) / (2.0 * eps)


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def test_head_bias_gradient_closed_form():
    config = small_config(proposed_stage())
    params = init_params(config, 5)
    logits, grads = net_gradients(config, params, np.zeros((1, 5, 2)), np.array([1]))
    e = np.exp(logits[0] - logits[0].max())
    p = e / e.sum()
    onehot = np.array([0.0, 1.0])
    assert np.max(np.abs(grads["head.b"] - (p - onehot))) <= 1e-12


def test_stage_gradient_zero_on_constant_field():
    config = small_config(proposed_stage(n=2))
    params = init_params(config, 6)
    _, grads = net_gradients(config, params, np.full((1, 5, 2), 0.75), np.array([0]))
    assert np.max(np.abs(grads["stage0.W0"])) <= 1e-12
    assert np.max(np.abs(grads["stage0.W1"])) <= 1e-12


def test_backward_rejects_stale_cache():
    config = small_config(None)
    params = init_params(config, 0)
    logits, cache = net_forward(config, params, random_field(9, 5, 2).values[None])
    other = init_params(config, 1)
    with pytest.raises(ValueError, match="stale cache"):
        net._backward_batch(config, other, cache, np.zeros_like(logits), flat_grads(other))


@pytest.mark.parametrize("stage_factory", [proposed_stage, original_stage])
def test_gradient_spot_check(stage_factory):
    config = small_config(stage_factory(n=2))
    params = init_params(config, 0)
    X = random_field(10, 5, 2).values[None]
    labels = np.array([1])
    _, grads = net_gradients(config, params, X, labels)
    for name in ("stage0.W0", "stage0.W1", "block0.W1", "head.A"):
        arr = grads[name]
        for flat in range(0, arr.size, max(1, arr.size // 3)):
            idx = np.unravel_index(flat, arr.shape)
            fd = fd_gradient(config, params, X, labels, name, idx)
            assert rel_err(float(arr[idx]), fd) <= 1e-5


@pytest.mark.parametrize(
    "kernel",
    [AffinityKernelSpec("gaussian"), AffinityKernelSpec("rbf", bandwidth=1.0)],
    ids=["gaussian", "rbf"],
)
@pytest.mark.parametrize("placement", [0, 1])
@pytest.mark.parametrize("formulation", ["proposed", "original"])
def test_gradient_check_on_a_batch_of_three(formulation, placement, kernel):
    """Every gradient element of a three-sample batch against central
    differences of its mean loss, with the battery's step and tolerance:
    this checks the 1/B mean, and that the backward pass keeps each
    sample's terms to that sample."""
    config = NetworkConfig(5, 2, 3, 2, 3, stage=StageConfig(formulation, 2, kernel, placement))
    params = init_params(config, 0)
    X = SplitMix64(derive_seed(0, "fdbatch")).normals((3, 5, 2))
    labels = np.array([0, 1, 2])
    _, grads = net_gradients(config, params, X, labels)
    worst = 0.0
    for name, grad in grads.items():
        for flat in range(grad.size):
            idx = np.unravel_index(flat, grad.shape)
            fd = fd_gradient(config, params, X, labels, name, idx)
            worst = max(worst, rel_err(float(grad[idx]), fd))
    assert worst <= 1e-5


# synthetic task


def test_task_determinism_and_balance():
    a = generate_task(6, 2, 2, 10, 42)
    b = generate_task(6, 2, 2, 10, 42)
    assert np.array_equal(a.values, b.values) and a.labels == b.labels
    counts = [a.labels.count(c) for c in (0, 1)]
    assert counts == [5, 5]
    c = generate_task(6, 2, 2, 10, 43)
    assert not np.array_equal(a.values, c.values)


def test_task_labels_match_oracle():
    task = generate_task(8, 2, 3, 64, 7)
    for s in range(task.num_samples):
        assert label_from_field(task.values[s], 2, 3) == task.labels[s]


def scalar_task(M, d, num_classes, num_samples, seed):
    """generate_task as one scalar draw at a time, sample by sample."""
    rng = SplitMix64(derive_seed(seed, "task"))
    labels = [s % num_classes for s in range(num_samples)]
    for i in range(num_samples - 1, 0, -1):
        j = randint(rng, i + 1)
        labels[i], labels[j] = labels[j], labels[i]
    levels = [int(round(y * d * d / (num_classes - 1))) for y in range(num_classes)]
    cells = [(i, c) for i in range(d) for c in range(d)]
    values = np.empty((num_samples, M, d))
    for s in range(num_samples):
        base = np.array([[normal(rng) for _ in range(d)] for _ in range(M)])
        order = list(cells)
        for i in range(len(order) - 1, 0, -1):
            j = randint(rng, i + 1)
            order[i], order[j] = order[j], order[i]
        agree = set(order[: levels[labels[s]]])
        for (i, c) in cells:
            sign_a = 1.0 if base[i, c] >= 0.0 else -1.0
            target = sign_a if (i, c) in agree else -sign_a
            mag = abs(base[M - d + i, c])
            if mag == 0.0:
                mag = 1.0
            base[M - d + i, c] = target * mag
        values[s] = base
    return values, tuple(labels)


@st.composite
def task_sizes(draw):
    d = draw(st.integers(1, 4))
    M = draw(st.integers(2 * d, 2 * d + 6))
    num_classes = draw(st.integers(2, d * d + 1))
    return M, d, num_classes, draw(st.integers(1, 40))


@given(
    sizes=task_sizes(),
    seed=st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1),
    block_draws=st.sampled_from([1, 50, 1 << 16]),
)
@example(sizes=(2, 1, 2, 1), seed=0, block_draws=1 << 16)
@example(sizes=(9, 4, 17, 33), seed=2**64 - 1, block_draws=50)
def test_task_equals_scalar_reference(sizes, seed, block_draws):
    with pytest.MonkeyPatch.context() as mp:
        # Small blocks make one task span several draw blocks.
        mp.setattr(net, "_TASK_BLOCK_DRAWS", block_draws)
        task = generate_task(*sizes, seed)
    values, labels = scalar_task(*sizes, seed)
    assert task.labels == labels
    assert task.values.tobytes() == values.tobytes()


def test_task_rejects_bad_sizes():
    with pytest.raises(ValueError):
        generate_task(3, 2, 2, 8, 0)
    with pytest.raises(ValueError):
        generate_task(8, 1, 3, 8, 0)
    with pytest.raises(ValueError):
        generate_task(8, 2, 1, 8, 0)


def test_agreement_count_hand_case():
    values = np.array([[1.0], [0.3], [-2.0], [4.0]])
    assert agreement_count(values, 1) == 1
    values[3, 0] = -4.0
    assert agreement_count(values, 1) == 0
    assert label_from_field(values, 1, 2) == 0


def test_pooled_linear_baseline_is_blind():
    task = generate_task(10, 5, 2, 1000, 123)
    feats = task.values.mean(axis=1)
    labels = np.array(task.labels)
    A = np.zeros((2, 5))
    b = np.zeros(2)
    acc = 0.0
    for _ in range(300):
        logits = feats @ A.T + b
        _, acc, dlogits = softmax_cross_entropy(logits, labels)
        A -= 2.0 * (dlogits.T @ feats)
        b -= 2.0 * dlogits.sum(axis=0)
    assert acc <= 0.60
    # whereas reading both end blocks resolves every label exactly
    hits = sum(
        label_from_field(task.values[s], 5, 2) == task.labels[s]
        for s in range(task.num_samples)
    )
    assert hits == task.num_samples


# training


def quick_task():
    return generate_task(5, 2, 2, 24, 9)


def test_train_zero_lr_is_flat():
    config = small_config(proposed_stage())
    hyper = Hyper(lr=0.0, epochs=4, batch_size=8)
    history = train(config, quick_task(), hyper, seed=0)
    assert not history.diverged and history.divergence is None
    losses = [s.train_loss for s in history.per_epoch]
    for loss in losses[1:]:
        assert loss == pytest.approx(losses[0], rel=1e-12)
    vals = [s.val_loss for s in history.per_epoch]
    assert all(v == vals[0] for v in vals)


def test_train_is_deterministic():
    config = small_config(proposed_stage(n=2))
    hyper = Hyper(epochs=5, batch_size=8)
    a = train(config, quick_task(), hyper, seed=3)
    b = train(config, quick_task(), hyper, seed=3)
    assert a.per_epoch == b.per_epoch
    for k in a.final_params:
        assert np.array_equal(a.final_params[k], b.final_params[k])


def test_train_divergence_sets_flag():
    config = small_config(original_stage(n=2))
    hyper = Hyper(lr=1e12, epochs=6, batch_size=8)
    history = train(config, quick_task(), hyper, seed=0)
    assert history.diverged
    assert history.divergence == "epoch 0, batch 1: stage affinity overflowed"
    assert len(history.per_epoch) <= 6
    assert math.isnan(history.per_epoch[-1].train_loss)


def test_train_validates_inputs():
    config = small_config(None)
    with pytest.raises(ValueError):
        train(config, generate_task(6, 2, 2, 8, 0), Hyper(epochs=1))
    with pytest.raises(ValueError):
        Hyper(epochs=0)
    with pytest.raises(ValueError):
        Hyper(val_fraction=1.0)


def test_history_csv_layout():
    config = small_config(None)
    history = train(config, quick_task(), Hyper(epochs=3, batch_size=8), seed=0)
    lines = history.to_csv().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
    assert len(lines) == 4
    assert lines[1].split(",")[0] == "0"
    for line in lines[1:]:
        for field in line.split(","):
            float(field)


def test_learning_moves_loss_down():
    config = small_config(proposed_stage())
    task = generate_task(5, 2, 2, 64, 5)
    history = train(config, task, Hyper(epochs=30, batch_size=16), seed=0)
    assert not history.diverged
    assert history.per_epoch[-1].train_loss < history.per_epoch[0].train_loss


@pytest.mark.parametrize("stage_factory", [proposed_stage, original_stage], ids=["proposed", "original"])
def test_train_records_an_overflowed_row_sum_as_a_divergence(stage_factory):
    # One trunk block of one hidden channel maps z > 0 to c z, so inputs
    # at sqrt(709) / c put the stage's gaussian affinities of positions
    # 0-2 at exp(709): finite, but each of those rows sums to inf.
    config = small_config(stage_factory(placement=0), trunk_blocks=1, M=4, d=1, H=1)
    seed = 3
    params = init_params(config, seed)
    c = 1.0 + params["block0.W2"][0, 0] * max(params["block0.W1"][0, 0], 0.0)
    field = np.array([[1.0], [1.0], [1.0], [0.0]]) * math.sqrt(709.0) / c
    values = np.stack([field, field])
    values.setflags(write=False)
    task = net.SyntheticTask(4, 1, 2, values, labels=(0, 1))
    hyper = Hyper(epochs=2, batch_size=2, val_fraction=0.0)
    history = train(config, task, hyper, seed=seed)
    assert history.divergence == "epoch 0, batch 0: row 0 has degenerate sum inf; cannot normalize"


def per_tensor_train(config, task, hyper, seed):
    """A reference trainer: the same SGD, updating one tensor at a time.

    Returns the final parameters and the history CSV.
    """
    params = init_params(config, seed)
    vel = {k: np.zeros_like(v) for k, v in params.items()}
    n_val = min(int(round(hyper.val_fraction * task.num_samples)), task.num_samples - 1)
    n_train = task.num_samples - n_val
    Xtr, ytr = task.values[:n_train], np.array(task.labels[:n_train])
    Xva, yva = task.values[n_train:], np.array(task.labels[n_train:])
    shuffler = SplitMix64(derive_seed(seed, "batches"))
    ws = net._Workspace(config, max(hyper.batch_size, n_val))
    grads = flat_grads(params)
    history = []
    divergence = None
    for epoch in range(hyper.epochs):
        lr = net._epoch_lr(hyper, epoch)
        order = list(range(n_train))
        shuffler.shuffle(order)
        seen, loss_sum, acc_sum = 0, 0.0, 0.0
        for start in range(0, n_train, hyper.batch_size):
            rows = order[start : start + hyper.batch_size]
            try:
                logits, cache = net._forward_batch(config, params, Xtr[rows], ws)
                loss, acc, dlogits = softmax_cross_entropy(logits, ytr[rows])
                if not np.isfinite(loss):
                    raise DivergenceError("non-finite loss")
                net._backward_batch(config, params, cache, dlogits, grads)
            except DivergenceError as err:
                divergence = str(err)
                break
            for k in params:
                g = grads[k] + hyper.weight_decay * params[k]
                vel[k] = hyper.momentum * vel[k] - lr * g
                params[k] = params[k] + vel[k]
            loss_sum += loss * len(rows)
            acc_sum += acc * len(rows)
            seen += len(rows)
        if divergence is not None:
            history.append(net.EpochStats(*[float("nan")] * 4))
            break
        try:
            vlogits, _ = net._forward_batch(config, params, Xva, ws)
            val_loss, val_acc, _ = softmax_cross_entropy(vlogits, yva)
        except DivergenceError as err:
            divergence = str(err)
            val_loss, val_acc = float("nan"), float("nan")
        history.append(net.EpochStats(loss_sum / seen, acc_sum / seen, val_loss, val_acc))
        if divergence is not None:
            break
    csv = TrainingHistory(tuple(history), divergence=divergence).to_csv()
    return params, csv


def cli_train_setup(raw):
    """(network config, task, hyper) as ``nld train`` resolves ``raw``."""
    config = resolve_config("train", raw)
    return (
        _net_config_from(config, config["net"]["stage"]),
        _task_from(config),
        _hyper_from(config["hyper"]),
    )


ORIGINAL_N4 = {"net": {"stage": {"formulation": "original", "sub_blocks": 4}}}
SLICED = {"seed": 7, "task": {"num_samples": 100}, "hyper": {"epochs": 4, "batch_size": 16}}


@pytest.mark.parametrize(
    "raw",
    [
        {"seed": 5, "task": {"num_samples": 64}, "hyper": {"epochs": 6}},
        {"seed": 11, "task": {"num_samples": 64}, "hyper": {"epochs": 6}, **ORIGINAL_N4},
        # The benchmark's tiny diverging op: the large step overflows the
        # original stage's affinity within two epochs.
        {"seed": 3, "task": {"num_samples": 48}, "hyper": {"epochs": 5, "lr": 2.0}, **ORIGINAL_N4},
        # 25 held-out samples against batches of 16, the last of them 11
        # rows: every batch reads a different prefix of the workspace.
        {**SLICED, "net": {"stage": {"formulation": "proposed", "sub_blocks": 2}}},
        {**SLICED, "net": {"stage": None}},
    ],
    ids=["proposed", "original", "original_diverges", "proposed_n2_sliced", "stageless_sliced"],
)
def test_train_equals_per_tensor_reference(raw):
    config, task, hyper = cli_train_setup(raw)
    history = train(config, task, hyper, seed=raw["seed"])
    params, csv = per_tensor_train(config, task, hyper, raw["seed"])
    assert history.to_csv() == csv
    assert list(history.final_params) == list(params)
    for name, value in params.items():
        assert np.array_equal(history.final_params[name], value), name
    assert history.diverged == (raw["hyper"].get("lr") == 2.0)


# spectra and checkpoints


def test_extract_stage_spectra_shapes():
    config = small_config(proposed_stage(n=2))
    history = train(config, quick_task(), Hyper(epochs=2, batch_size=8), seed=1)
    reports = extract_stage_spectra(history)
    assert len(reports) == 2
    for rep in reports:
        assert len(rep.eigenvalues) == 2


def test_extract_stage_spectra_zero_weights():
    params = {"block0.W1": np.ones((3, 3)), "stage0.W0": np.zeros((3, 3)), "head.b": np.ones(2)}
    history = TrainingHistory(per_epoch=(), final_params=params)
    (rep,) = extract_stage_spectra(history)
    assert rep.eigenvalues == (0.0, 0.0, 0.0)


def test_checkpoint_round_trip():
    config = small_config(proposed_stage(n=2), M=6, d=3, C=4, H=5)
    params = init_params(config, 13)
    blob, sidecar = checkpoint_bytes(params)
    assert sidecar["dtype"] == "float64" and sidecar["byte_order"] == "little"
    assert [t["name"] for t in sidecar["tensors"]] == list(params.keys())
    back = checkpoint_from_bytes(blob, sidecar)
    assert list(back.keys()) == list(params.keys())
    for k in params:
        assert np.array_equal(back[k], np.asarray(params[k]))


def test_checkpoint_rejects_corruption():
    params = init_params(small_config(None), 0)
    blob, sidecar = checkpoint_bytes(params)
    with pytest.raises(ValueError):
        checkpoint_from_bytes(blob[:-8], sidecar)
    with pytest.raises(ValueError):
        checkpoint_from_bytes(blob + b"\x00" * 8, sidecar)
    with pytest.raises(ValueError):
        checkpoint_from_bytes(blob, {"dtype": "float32", "byte_order": "little", "tensors": []})


drawn_params = st.dictionaries(
    st.text(min_size=1, max_size=6),
    arrays(
        np.float64,
        array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    ),
    max_size=4,
)


@given(params=drawn_params)
def test_checkpoint_round_trip_on_drawn_params(params):
    blob, sidecar = checkpoint_bytes(params)
    back = checkpoint_from_bytes(blob, sidecar)
    assert list(back) == list(params)
    for name, value in params.items():
        assert back[name].shape == value.shape
        assert back[name].tobytes() == value.tobytes()
    if blob:
        with pytest.raises(ValueError, match="shorter"):
            checkpoint_from_bytes(blob[:-1], sidecar)
    with pytest.raises(ValueError, match="longer"):
        checkpoint_from_bytes(blob + b"\x00", sidecar)


# Every contraction in the training path against its einsum definition.

UNIT_ROUNDOFF = 2.0**-53


def assert_matches_einsum(got, spec, A, B):
    """``got`` equals ``einsum(spec, A, B)`` within the dot-product error bound.

    A length-K dot product computed in any order is within gamma_K |a|^T |b|
    of the exact value, gamma_K = K u / (1 - K u), so two computations of it
    are within twice that of each other (Higham, "Accuracy and Stability of
    Numerical Algorithms", section 3.1).
    """
    want = np.einsum(spec, A, B)
    inputs, output = spec.split("->")
    sizes = dict(zip(inputs.replace(",", ""), A.shape + B.shape))
    K = math.prod(sizes[c] for c in set(sizes) - set(output))
    gamma = K * UNIT_ROUNDOFF / (1 - K * UNIT_ROUNDOFF)
    bound = 2 * gamma * np.einsum(spec, np.abs(A), np.abs(B))
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.all(np.abs(got - want) <= bound)


def stage_backward_with_row_gradient(stage, Ws, cache, G, ws):
    """``_stage_bwd``'s weight gradients, and the dP it hands to the row
    normalization's backward (one sub-block, so one dP)."""
    seen = []
    rownorm_bwd = net._rownorm_bwd

    def spy(dP, *rest):
        seen.append(dP.copy())
        return rownorm_bwd(dP, *rest)

    gWs = [np.empty_like(W) for W in Ws]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(net, "_rownorm_bwd", spy)
        net._stage_bwd(stage, Ws, cache, G, gWs, ws)
    (dP,) = seen
    return gWs, dP


@given(
    B=st.integers(1, 48),
    M=st.integers(1, 24),
    d=st.integers(1, 24),
    H=st.integers(1, 48),
    seed=st.integers(0, 2**32),
)
@example(B=32, M=10, d=5, H=32, seed=0)
@example(B=17, M=9, d=24, H=3, seed=1)
@example(B=1, M=7, d=4, H=6, seed=2)
@example(B=5, M=1, d=3, H=2, seed=3)
def test_contractions_match_their_einsum_definitions(B, M, d, H, seed):
    rng = SplitMix64(seed)
    # The incoming gradient G and every weight applied to it are small
    # integers, so the per-position products re-formed below (G @ W) are
    # exact: the operands checked are exactly those the code contracted.
    def ints(shape):
        return np.floor(rng.uniforms(shape, -4.0, 5.0))

    G = ints((B, M, d))
    Z = rng.normals((B, M, d))

    config = NetworkConfig(M, d, 3, 1, H)
    W1, W2 = rng.normals((H, d)), ints((d, H))
    _, cache = _block_fwd(W1, W2, 1.0, Z, net._Workspace(config, B).blocks[0])
    gW1, gW2 = np.empty((H, d)), np.empty((d, H))
    _block_bwd(W1, W2, 1.0, cache, G, gW1, gW2, True)
    # The cache holds (B*M, c) rows; the einsums read them as (B, M, c).
    A1, P1, A2 = (a.reshape(B, M, -1) for a in cache[1:4])
    assert_matches_einsum(gW2, "bmd,bmh->dh", G, A2)
    assert_matches_einsum(gW1, "bmh,bmd->hd", (G @ W2) * (P1 > 0), A1)
    assert gW1.shape == (H, d) and gW2.shape == (d, H)

    W = ints((d, d))
    for stage in (proposed_stage(placement=0), original_stage(placement=0)):
        ws = net._Workspace(NetworkConfig(M, d, 3, 1, H, stage=stage), B)
        _, scache = net._stage_fwd(stage, [W], Z, ws)
        (gW,), dP = stage_backward_with_row_gradient(stage, [W], scache, G, ws)
        # The proposed step adds D W^T with D = P Z - Z, the original one
        # Y W^T with Y = P Z; sub-block 0 writes either into its step buffer.
        step = ws.batch(B).steps[0][0]
        assert_matches_einsum(gW, "bmc,bme->ce", G, step)
        assert_matches_einsum(dP, "bie,bje->bij", G @ W, Z)

    params = init_params(config, seed)
    _, fcache = net_forward(config, params, Z)
    dlogits = rng.normals((B, 3))
    grads = net._backward_batch(config, params, fcache, dlogits, flat_grads(params))
    assert_matches_einsum(grads["head.A"], "bc,bd->cd", dlogits, fcache["pooled"])


@pytest.mark.parametrize("stage_factory", [proposed_stage, original_stage], ids=["proposed", "original"])
def test_first_block_skips_its_unread_input_gradient(monkeypatch, stage_factory):
    config = small_config(stage_factory(n=2, placement=0), trunk_blocks=3)
    params = init_params(config, 5)
    X = SplitMix64(6).normals((4, config.num_positions, config.num_channels))
    dlogits = SplitMix64(7).normals((4, config.num_classes))
    _, cache = net_forward(config, params, X)
    G = SplitMix64(8).normals(X.shape)
    W1, W2 = params["block0.W1"], params["block0.W2"]
    skip, full = (np.empty_like(W1), np.empty_like(W2)), (np.empty_like(W1), np.empty_like(W2))
    dZ = _block_bwd(W1, W2, config.block_gain, cache["trail"][0][2], G, *skip, False)
    full_dZ = _block_bwd(W1, W2, config.block_gain, cache["trail"][0][2], G, *full, True)
    assert dZ is None and full_dZ is not None
    assert np.array_equal(skip[0], full[0]) and np.array_equal(skip[1], full[1])

    grads = net._backward_batch(config, params, cache, dlogits, flat_grads(params))
    skipped = []

    def every_input_gradient(W1, W2, gain, sub, G, gW1, gW2, input_grad):
        skipped.append(not input_grad)
        return _block_bwd(W1, W2, gain, sub, G, gW1, gW2, True)

    monkeypatch.setattr(net, "_block_bwd", every_input_gradient)
    reference = net._backward_batch(config, params, cache, dlogits, flat_grads(params))
    assert skipped == [False, False, True]
    assert reference.keys() == grads.keys()
    assert all(np.array_equal(grads[k], reference[k]) for k in grads)


@pytest.mark.parametrize(
    "stage",
    [None, proposed_stage(n=3), original_stage(n=3), proposed_stage(n=2, placement=0)],
    ids=["stageless", "proposed", "original", "placement_0"],
)
def test_backward_writes_every_gradient_into_the_flat_buffer(stage):
    config = small_config(stage, trunk_blocks=3)
    theta, params = net._flat_params(init_params(config, 4))
    X = SplitMix64(12).normals((6, config.num_positions, config.num_channels))
    dlogits = SplitMix64(13).normals((6, config.num_classes))
    _, cache = net_forward(config, params, X)
    # One array per tensor, apart from any flat vector.
    separate = {name: np.empty_like(value) for name, value in params.items()}
    net._backward_batch(config, params, cache, dlogits, separate)

    gflat = np.full_like(theta, np.nan)
    views = net._flat_views(params, gflat)
    assert net._backward_batch(config, params, cache, dlogits, views) is views
    assert not np.isnan(gflat).any()
    assert list(separate) == list(params)
    assert gflat.tobytes() == np.concatenate([separate[k].ravel() for k in params]).tobytes()


@pytest.mark.parametrize("stage_factory", [proposed_stage, original_stage], ids=["proposed", "original"])
def test_a_later_forward_on_the_workspace_makes_a_cache_stale(stage_factory):
    # The stage's cache is made of workspace views as well as the trunk's.
    config = small_config(stage_factory(n=2), trunk_blocks=3)
    params = init_params(config, 4)
    ws = net._Workspace(config, 6)
    X = SplitMix64(12).normals((6, config.num_positions, config.num_channels))
    dlogits = SplitMix64(13).normals((6, config.num_classes))
    _, first = net._forward_batch(config, params, X, ws)
    want = net._backward_batch(config, params, first, dlogits, flat_grads(params))
    _, second = net._forward_batch(config, params, -X[:4], ws)
    with pytest.raises(ValueError, match="stale cache"):
        net._backward_batch(config, params, first, dlogits, flat_grads(params))
    net._backward_batch(config, params, second, dlogits[:4], flat_grads(params))

    _, again = net._forward_batch(config, params, X, ws)
    got = net._backward_batch(config, params, again, dlogits, flat_grads(params))
    assert all(np.array_equal(got[k], want[k]) for k in want)
    with pytest.raises(ValueError, match="batch of 7 samples does not fit a workspace for 6"):
        net._forward_batch(config, params, np.zeros((7,) + X.shape[1:]), ws)


@pytest.mark.parametrize(
    "stage",
    [
        None,
        proposed_stage(n=2),
        original_stage(n=3),
        original_stage(n=2, placement=2),
        proposed_stage(
            n=2,
            kernel=AffinityKernelSpec("embedded", theta=np.ones((3, 2)), inner=AffinityKernelSpec("gaussian")),
        ),
    ],
    ids=["stageless", "proposed", "original", "original_last", "proposed_embedded"],
)
def test_one_workspace_serves_every_batch_size(stage):
    # The workspace cuts its buffers once per batch size and reuses the
    # cut; each pass must still equal one on a fresh workspace, bitwise,
    # and read the tensors ``params`` holds at that moment.
    config = small_config(stage, trunk_blocks=3)
    params = init_params(config, 4)
    ws = net._Workspace(config, 64)
    rng = SplitMix64(21)
    rebound = "stage0.W0" if stage is not None else "block1.W1"
    for i, B in enumerate((32, 7, 64, 32)):
        X = 0.5 * rng.normals((B, config.num_positions, config.num_channels))
        dlogits = rng.normals((B, config.num_classes))
        if i == 3:
            before = dict(params)
            params[rebound] = 0.5 * params[rebound]
        logits, cache = net._forward_batch(config, params, X, ws)
        grads = net._backward_batch(config, params, cache, dlogits, flat_grads(params))
        want_logits, want_cache = net_forward(config, params, X)
        want = net._backward_batch(config, params, want_cache, dlogits, flat_grads(params))
        assert logits.tobytes() == want_logits.tobytes()
        assert all(grads[k].tobytes() == want[k].tobytes() for k in want)
    # The last pass read the rebound tensor, not the one it replaced.
    stale_logits, _ = net_forward(config, before, X)
    assert stale_logits.tobytes() != logits.tobytes()


def test_train_calls_each_traced_pass_once_per_batch(monkeypatch):
    # The benchmark's tracer times the network by wrapping these two
    # module globals, so train must reach every pass through them.
    forward, backward = net._forward_batch, net._backward_batch
    seen = {"forward": [], "backward": []}

    def counted_forward(config, params, X, ws):
        seen["forward"].append(len(X))
        return forward(config, params, X, ws)

    def counted_backward(config, params, cache, dlogits, grads):
        seen["backward"].append(len(dlogits))
        return backward(config, params, cache, dlogits, grads)

    monkeypatch.setattr(net, "_forward_batch", counted_forward)
    monkeypatch.setattr(net, "_backward_batch", counted_backward)
    config = small_config(original_stage(n=2), trunk_blocks=2)
    task = generate_task(5, 2, 2, 22, 3)
    hyper = Hyper(epochs=3, batch_size=4)
    history = train(config, task, hyper, seed=1)
    assert not history.diverged and len(history.per_epoch) == 3
    # 22 samples: 6 held out, 16 trained on in batches of 4.
    batches = [4, 4, 4, 4]
    assert seen["backward"] == batches * 3
    assert seen["forward"] == (batches + [6]) * 3


def warm_step_peak_bytes(raw, B=32):
    """Peak traced memory of one training step on a warm workspace: forward,
    loss and backward of a batch of B at the train config ``raw``."""
    config, _, _ = cli_train_setup(raw)
    theta, params = net._flat_params(init_params(config, 5))
    grads = net._flat_views(params, np.empty_like(theta))
    X = SplitMix64(1).normals((B, config.num_positions, config.num_channels))
    labels = np.arange(B) % config.num_classes
    ws = net._Workspace(config, B)

    def step():
        logits, cache = net._forward_batch(config, params, X, ws)
        _, _, dlogits = softmax_cross_entropy(logits, labels)
        net._backward_batch(config, params, cache, dlogits, grads)

    step()
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_warm_step_allocates_nothing_of_the_hidden_width():
    # Every (B*M, H) array of the trunk lives in the workspace, so widening
    # the hidden layer from 32 to 256 channels adds less to the step's
    # peak than one (B*M, 224) float64 array would.
    B = 32
    narrow = warm_step_peak_bytes({"net": {"hidden_channels": 32}}, B)
    wide = warm_step_peak_bytes({"net": {"hidden_channels": 256}}, B)
    M = cli_train_setup({})[0].num_positions
    assert wide - narrow < B * M * 224 * 8


@pytest.mark.parametrize("formulation", ["proposed", "original"])
def test_a_warm_step_allocates_nothing_of_the_position_count(formulation):
    # The stage's kernels, its sub-block outputs and its backward scratch
    # live in the workspace too, so growing the field from 10 to 40
    # positions adds less to an N=4 step's peak than one (B, 40, 40)
    # float64 array would.
    B = 32

    def peak(M):
        stage = {"formulation": formulation, "sub_blocks": 4}
        return warm_step_peak_bytes({"task": {"num_positions": M}, "net": {"stage": stage}}, B)

    assert peak(40) - peak(10) < B * 40 * 40 * 8


def one_hot_softmax_cross_entropy(logits, labels):
    """The definition: (p - onehot(labels)) / B, and the mean of the hits."""
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    denom = e.sum(axis=1, keepdims=True)
    p = e / denom
    B = logits.shape[0]
    idx = np.arange(B)
    losses = np.log(denom[:, 0]) + m[:, 0] - logits[idx, labels]
    onehot = np.zeros_like(p)
    onehot[idx, labels] = 1.0
    return float(losses.mean()), float(np.mean(np.argmax(logits, axis=1) == labels)), (p - onehot) / B


@given(
    B=st.integers(1, 40),
    C=st.integers(2, 6),
    scale=st.sampled_from([0.01, 1.0, 40.0]),
    ties=st.booleans(),
    seed=st.integers(0, 2**32),
)
@example(B=32, C=3, scale=1.0, ties=False, seed=0)
@example(B=5, C=2, scale=1.0, ties=True, seed=1)
def test_softmax_cross_entropy_equals_its_one_hot_definition(B, C, scale, ties, seed):
    rng = SplitMix64(seed)
    logits = scale * rng.normals((B, C))
    if ties:
        logits = np.floor(logits)
    labels = np.array([randint(rng, C) for _ in range(B)])
    loss, acc, dlogits = softmax_cross_entropy(logits, labels)
    want_loss, want_acc, want_dlogits = one_hot_softmax_cross_entropy(logits, labels)
    assert type(loss) is float and type(acc) is float
    assert (loss, acc) == (want_loss, want_acc)
    assert dlogits.tobytes() == want_dlogits.tobytes()

    stats = net.EpochStats(loss, acc, loss, acc)
    csv = TrainingHistory((stats,)).to_csv()
    fields = [float(field) for field in csv.splitlines()[1].split(",")]
    assert fields[1:] == [loss, acc, loss, acc]
