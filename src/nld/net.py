"""A small residual network with insertable nonlocal mixing stages.

Everything is plain numpy with hand-written gradients.  The trunk is a
stack of per-position residual MLP blocks (relu before each weight, a
fixed scalar gain standing in for normalization).  A nonlocal stage can
be inserted after any trunk block, in either formulation:

* proposed: the affinity kernel is computed once from the stage input
  and held fixed; sub-steps apply Z + W_n (P Z - Z).
* original: every sub-block recomputes the kernel from its own input and
  applies Z + W_n (P Z), the positive-sign normalized sum.

Gradients flow through everything, including the kernel construction in
both formulations; the test suite checks every parameter against central
finite differences.  The classifier is an affine map of the mean-pooled
features trained with softmax cross-entropy.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .dynamics import StageWeights
from .errors import DegenerateRowError, DivergenceError
from .fields import FeatureField
from .kernels import (
    EMBEDDED,
    RBF,
    AffinityKernelSpec,
    _kernel_bwd,
    _kernel_fwd,
    _rownorm_bwd,
    _rownorm_fwd,
)
from .rng import SplitMix64, derive_seed
from .spectrum import SpectrumReport, spectrum_report

PROPOSED = "proposed"
ORIGINAL = "original"

# Proposed-stage weights start at this fraction of the conservative
# critical weight (1.0, the bound when the kernel spectrum fills [-1, 1]),
# so an untrained stage can never be the source of a blow-up.
PROPOSED_INIT_SCALE = 0.1

ORIGINAL_INIT_RANGE = 0.01


@dataclass(frozen=True, eq=False)
class StageConfig:
    formulation: str
    sub_blocks: int
    kernel: AffinityKernelSpec
    placement: int

    def __post_init__(self):
        if self.formulation not in (PROPOSED, ORIGINAL):
            raise ValueError(f"unknown formulation {self.formulation!r}")
        if self.sub_blocks < 1:
            raise ValueError("a stage needs at least one sub-block")
        if self.placement < 0:
            raise ValueError("placement must be a valid trunk block index")
        if self.kernel.variant == RBF and self.kernel.bandwidth is None:
            raise ValueError("network stages need an explicit rbf bandwidth")
        if self.kernel.variant == EMBEDDED and self.kernel.inner.variant == RBF:
            if self.kernel.inner.bandwidth is None:
                raise ValueError("network stages need an explicit rbf bandwidth")


@dataclass(frozen=True, eq=False)
class NetworkConfig:
    num_positions: int
    num_channels: int
    num_classes: int
    trunk_blocks: int
    hidden_channels: int
    stages: tuple = ()
    block_gain: float = 1.0

    def __post_init__(self):
        if min(self.num_positions, self.num_channels, self.num_classes) < 1:
            raise ValueError("sizes must be positive")
        if self.trunk_blocks < 1 or self.hidden_channels < 1:
            raise ValueError("trunk needs at least one block and one hidden channel")
        stages = tuple(self.stages) if self.stages else ()
        for st in stages:
            if not isinstance(st, StageConfig):
                raise ValueError("stages must be StageConfig instances")
            if st.placement >= self.trunk_blocks:
                raise ValueError(
                    f"placement {st.placement} out of range for {self.trunk_blocks} blocks"
                )
        if len({st.placement for st in stages}) != len(stages):
            raise ValueError("stage placements must be distinct")
        object.__setattr__(self, "stages", stages)

    @classmethod
    def with_stage(cls, M, d, num_classes, trunk_blocks, hidden_channels,
                   stage: Optional[StageConfig] = None, block_gain: float = 1.0):
        stages = (stage,) if stage is not None else ()
        return cls(M, d, num_classes, trunk_blocks, hidden_channels, stages, block_gain)


def param_names(config: NetworkConfig) -> list:
    """Checkpoint order: trunk blocks, stages (by index), classifier head."""
    names = []
    for b in range(config.trunk_blocks):
        names.append(f"block{b}.W1")
        names.append(f"block{b}.W2")
    for s, st in enumerate(config.stages):
        for n in range(st.sub_blocks):
            names.append(f"stage{s}.W{n}")
    names.append("head.A")
    names.append("head.b")
    return names


def init_params(config: NetworkConfig, seed: int) -> dict:
    """Deterministic initialization, one derived stream per tensor.

    Trunk and head weights are uniform in +-sqrt(1/fan_in).  Proposed
    stage weights start as a small multiple of the identity inside the
    stable range; original stage weights start small and unstructured
    (there is no stability range to respect, which is the point).
    """
    d = config.num_channels
    H = config.hidden_channels
    C = config.num_classes
    params = {}
    for name in param_names(config):
        stream = SplitMix64(derive_seed(seed, "param", name))
        if name.startswith("stage"):
            s = int(name[5 : name.index(".")])
            if config.stages[s].formulation == PROPOSED:
                params[name] = PROPOSED_INIT_SCALE * np.eye(d)
            else:
                params[name] = stream.uniforms((d, d), -ORIGINAL_INIT_RANGE, ORIGINAL_INIT_RANGE)
        elif name.endswith(".W1"):
            a = np.sqrt(1.0 / d)
            params[name] = stream.uniforms((H, d), -a, a)
        elif name.endswith(".W2"):
            a = np.sqrt(1.0 / H)
            params[name] = stream.uniforms((d, H), -a, a)
        elif name == "head.A":
            a = np.sqrt(1.0 / d)
            params[name] = stream.uniforms((C, d), -a, a)
        elif name == "head.b":
            params[name] = np.zeros(C)
        else:
            raise ValueError(f"unknown parameter name {name!r}")
    return params


# ---------------------------------------------------------------------------
# Batched differentiable pieces.  Arrays are (B, M, *) throughout; the
# public forward/backward wrap a batch of one.  The affinity and its row
# normalization come from the batched core in ``kernels``.
# ---------------------------------------------------------------------------


def _block_fwd(W1, W2, gain, Z):
    A1 = np.maximum(gain * Z, 0.0)
    P1 = A1 @ W1.T
    A2 = np.maximum(gain * P1, 0.0)
    P2 = A2 @ W2.T
    return Z + P2, (Z, A1, P1, A2)


def _block_bwd(W1, W2, gain, cache, G):
    Z, A1, P1, A2 = cache
    gW2 = np.einsum("bmd,bmh->dh", G, A2)
    dA2 = G @ W2
    dP1 = dA2 * (P1 > 0) * gain
    gW1 = np.einsum("bmh,bmd->hd", dP1, A1)
    dA1 = dP1 @ W1
    dZ = G + dA1 * (Z > 0) * gain
    return dZ, gW1, gW2


def _stage_fwd(stage: StageConfig, Ws, Z):
    if stage.formulation == PROPOSED:
        omega, kaux = _kernel_fwd(stage.kernel, Z)
        if not np.all(np.isfinite(omega)):
            raise DivergenceError("stage affinity overflowed")
        P, C = _rownorm_fwd(omega)
        cur = Z
        Zs = [Z]
        Ds = []
        for W in Ws:
            D = P @ cur - cur
            cur = cur + D @ W.T
            Zs.append(cur)
            Ds.append(D)
        return cur, ("proposed", omega, kaux, P, C, Zs, Ds)
    subs = []
    cur = Z
    for W in Ws:
        omega, kaux = _kernel_fwd(stage.kernel, cur)
        if not np.all(np.isfinite(omega)):
            raise DivergenceError("stage affinity overflowed")
        P, C = _rownorm_fwd(omega)
        Y = P @ cur
        subs.append((cur, omega, kaux, P, C, Y))
        cur = cur + Y @ W.T
    return cur, ("original", subs)


def _stage_bwd(stage: StageConfig, Ws, cache, G):
    if cache[0] == "proposed":
        _, omega, kaux, P, C, Zs, Ds = cache
        X = Zs[0]
        dP_total = np.zeros_like(P)
        gWs = [None] * len(Ws)
        for n in range(len(Ws) - 1, -1, -1):
            gWs[n] = np.einsum("bmc,bme->ce", G, Ds[n])
            dD = G @ Ws[n]
            dP_total += np.einsum("bie,bje->bij", dD, Zs[n])
            G = G + np.transpose(P, (0, 2, 1)) @ dD - dD
        dOmega = _rownorm_bwd(dP_total, P, C)
        dX = G + _kernel_bwd(stage.kernel, X, omega, kaux, dOmega)
        return dX, gWs
    _, subs = cache
    gWs = [None] * len(Ws)
    for n in range(len(Ws) - 1, -1, -1):
        Zn, omega, kaux, P, C, Y = subs[n]
        gWs[n] = np.einsum("bmc,bme->ce", G, Y)
        dY = G @ Ws[n]
        dP = np.einsum("bie,bje->bij", dY, Zn)
        dOmega = _rownorm_bwd(dP, P, C)
        G = G + np.transpose(P, (0, 2, 1)) @ dY + _kernel_bwd(stage.kernel, Zn, omega, kaux, dOmega)
    return G, gWs


def _stage_param_names(config: NetworkConfig, s: int) -> list:
    return [f"stage{s}.W{n}" for n in range(config.stages[s].sub_blocks)]


def _forward_batch(config: NetworkConfig, params: dict, X: np.ndarray):
    """Batched forward pass; returns (logits, cache)."""
    by_placement = {st.placement: s for s, st in enumerate(config.stages)}
    Z = X
    trail = []
    # Overflow surfaces as the explicit divergence checks below, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for b in range(config.trunk_blocks):
            Z, bc = _block_fwd(params[f"block{b}.W1"], params[f"block{b}.W2"], config.block_gain, Z)
            trail.append(("block", b, bc))
            if not np.all(np.isfinite(Z)):
                raise DivergenceError(f"non-finite activations after block {b}")
            if b in by_placement:
                s = by_placement[b]
                Ws = [params[name] for name in _stage_param_names(config, s)]
                Z, sc = _stage_fwd(config.stages[s], Ws, Z)
                trail.append(("stage", s, sc))
                if not np.all(np.isfinite(Z)):
                    raise DivergenceError(f"non-finite activations after stage {s}")
        pooled = Z.mean(axis=1)
        logits = pooled @ params["head.A"].T + params["head.b"]
    if not np.all(np.isfinite(logits)):
        raise DivergenceError("non-finite logits")
    cache = {"trail": trail, "pooled": pooled, "logits": logits, "params": params, "batch": X}
    return logits, cache


def _backward_batch(config: NetworkConfig, params: dict, cache: dict, dlogits: np.ndarray) -> dict:
    if cache.get("params") is not params:
        raise ValueError("stale cache: it was produced by a different parameter set")
    pooled = cache["pooled"]
    M = config.num_positions
    grads = {}
    grads["head.A"] = np.einsum("bc,bd->cd", dlogits, pooled)
    grads["head.b"] = np.sum(dlogits, axis=0)
    dpooled = dlogits @ params["head.A"]
    B = pooled.shape[0]
    G = np.broadcast_to(dpooled[:, None, :] / M, (B, M, config.num_channels)).copy()
    for kind, idx, sub in reversed(cache["trail"]):
        if kind == "stage":
            names = _stage_param_names(config, idx)
            Ws = [params[name] for name in names]
            G, gWs = _stage_bwd(config.stages[idx], Ws, sub, G)
            for name, gW in zip(names, gWs):
                grads[name] = gW
        else:
            W1 = params[f"block{idx}.W1"]
            W2 = params[f"block{idx}.W2"]
            G, gW1, gW2 = _block_bwd(W1, W2, config.block_gain, sub, G)
            grads[f"block{idx}.W1"] = gW1
            grads[f"block{idx}.W2"] = gW2
    return grads


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean loss, accuracy, and d(loss)/d(logits) for integer labels."""
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    denom = e.sum(axis=1, keepdims=True)
    p = e / denom
    B = logits.shape[0]
    idx = np.arange(B)
    losses = np.log(denom[:, 0]) + m[:, 0] - logits[idx, labels]
    loss = float(losses.mean())
    onehot = np.zeros_like(p)
    onehot[idx, labels] = 1.0
    dlogits = (p - onehot) / B
    acc = float(np.mean(np.argmax(logits, axis=1) == labels))
    return loss, acc, dlogits


@dataclass(frozen=True, eq=False)
class ForwardResult:
    logits: np.ndarray
    cache: dict


def forward(config: NetworkConfig, params: dict, X: FeatureField) -> ForwardResult:
    """Single-sample forward pass."""
    if X.num_positions != config.num_positions or X.num_channels != config.num_channels:
        raise ValueError(
            f"field is {X.num_positions}x{X.num_channels}, config wants "
            f"{config.num_positions}x{config.num_channels}"
        )
    logits, cache = _forward_batch(config, params, X.values[None, :, :])
    return ForwardResult(logits=logits[0], cache=cache)


def backward(config: NetworkConfig, params: dict, cache: dict, label: int) -> dict:
    """Gradients of the softmax cross-entropy at ``label`` for one sample."""
    logits = cache["logits"]
    if not (0 <= label < config.num_classes):
        raise ValueError(f"label {label} out of range")
    _, _, dlogits = softmax_cross_entropy(logits, np.array([label]))
    return _backward_batch(config, params, cache, dlogits)


def loss_for_sample(config: NetworkConfig, params: dict, X: FeatureField, label: int) -> float:
    res = forward(config, params, X)
    loss, _, _ = softmax_cross_entropy(res.logits[None, :], np.array([label]))
    return loss


# ---------------------------------------------------------------------------
# Synthetic long-range task.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SyntheticTask:
    """Sign-agreement task binding the two ends of the position axis.

    The label is a function of how many of the d*d (row, channel) cells
    agree in sign between the first block of d positions and the last.
    No single position determines it, so per-position models are blind to
    it while any cross-position mixer can read it off exactly.
    """

    num_positions: int
    num_channels: int
    num_classes: int
    generator_seed: int
    values: np.ndarray = dc_field(repr=False)  # (num_samples, M, d)
    labels: tuple = ()

    @property
    def num_samples(self) -> int:
        return self.values.shape[0]

    @property
    def samples(self) -> list:
        return [
            (FeatureField(self.values[s]), int(self.labels[s]))
            for s in range(self.num_samples)
        ]


def _agreement_levels(num_classes: int, d: int) -> list:
    """Cell-agreement count planted for each class label."""
    top = d * d
    return [int(round(y * top / (num_classes - 1))) for y in range(num_classes)]


def generate_task(M: int, d: int, num_classes: int, num_samples: int, seed: int) -> SyntheticTask:
    if min(M, d, num_samples) < 1:
        raise ValueError("sizes must be positive")
    if num_classes < 2:
        raise ValueError("need at least two classes")
    if M < 2 * d:
        raise ValueError(f"M={M} cannot hold two disjoint blocks of {d} positions")
    if num_classes - 1 > d * d:
        raise ValueError(f"{num_classes} classes need at least {num_classes - 1} agreement cells")
    rng = SplitMix64(derive_seed(seed, "task"))
    labels = [s % num_classes for s in range(num_samples)]
    rng.shuffle(labels)
    levels = _agreement_levels(num_classes, d)
    cells = [(i, c) for i in range(d) for c in range(d)]
    values = np.empty((num_samples, M, d), dtype=np.float64)
    for s in range(num_samples):
        base = rng.normals((M, d))
        k = levels[labels[s]]
        order = list(cells)
        rng.shuffle(order)
        agree = set(order[:k])
        for (i, c) in cells:
            sign_a = 1.0 if base[i, c] >= 0.0 else -1.0
            target = sign_a if (i, c) in agree else -sign_a
            mag = abs(base[M - d + i, c])
            if mag == 0.0:
                mag = 1.0
            base[M - d + i, c] = target * mag
        values[s] = base
    values.setflags(write=False)
    return SyntheticTask(
        num_positions=M,
        num_channels=d,
        num_classes=num_classes,
        generator_seed=seed,
        values=values,
        labels=tuple(labels),
    )


def agreement_count(values: np.ndarray, d: int) -> int:
    """How many (row, channel) cells agree in sign across the two blocks."""
    M = values.shape[0]
    a = values[:d, :d] >= 0.0
    b = values[M - d :, :d] >= 0.0
    return int(np.sum(a == b))


def label_from_field(values: np.ndarray, d: int, num_classes: int) -> int:
    """Exact oracle: invert the planted agreement level."""
    k = agreement_count(values, d)
    levels = _agreement_levels(num_classes, d)
    diffs = [abs(k - lv) for lv in levels]
    return int(np.argmin(diffs))


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hyper:
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    epochs: int = 200
    lr_drop_fracs: tuple = (81.0 / 164.0, 122.0 / 164.0)
    lr_drop_factor: float = 0.1
    batch_size: int = 32
    val_fraction: float = 0.25

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not (0.0 <= self.val_fraction < 1.0):
            raise ValueError("val_fraction must lie in [0, 1)")


@dataclass(frozen=True)
class EpochStats:
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


@dataclass(frozen=True, eq=False)
class TrainingHistory:
    """Per-epoch metrics plus the trained stage weights for spectra."""

    per_epoch: tuple
    diverged: bool
    final_stage_weights: tuple  # one StageWeights per configured stage
    final_params: dict = dc_field(repr=False, default_factory=dict)

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,train_acc,val_loss,val_acc"]
        for e, s in enumerate(self.per_epoch):
            lines.append(
                f"{e},{s.train_loss!r},{s.train_acc!r},{s.val_loss!r},{s.val_acc!r}"
            )
        return "\n".join(lines) + "\n"


def _epoch_lr(hyper: Hyper, epoch: int) -> float:
    drops = sum(1 for f in hyper.lr_drop_fracs if epoch >= int(f * hyper.epochs))
    return hyper.lr * hyper.lr_drop_factor**drops


def train(config: NetworkConfig, task: SyntheticTask, hyper: Hyper, seed: int = 0) -> TrainingHistory:
    """SGD with momentum and weight decay; divergence sets a flag, never raises.

    The last ``val_fraction`` of the (already shuffled) task is held out;
    minibatch order reshuffles every epoch from a seed-derived stream, so
    the whole run is a pure function of (config, task, hyper, seed).
    """
    if task.num_samples < 2:
        raise ValueError("training needs at least two samples")
    if (task.num_positions, task.num_channels) != (config.num_positions, config.num_channels):
        raise ValueError("task and config disagree on field shape")
    params = init_params(config, seed)
    vel = {k: np.zeros_like(v) for k, v in params.items()}
    n_val = int(round(hyper.val_fraction * task.num_samples))
    n_val = min(n_val, task.num_samples - 1)
    n_train = task.num_samples - n_val
    Xtr = task.values[:n_train]
    ytr = np.array(task.labels[:n_train])
    Xva = task.values[n_train:]
    yva = np.array(task.labels[n_train:])
    shuffler = SplitMix64(derive_seed(seed, "batches"))

    history = []
    diverged = False
    for epoch in range(hyper.epochs):
        lr = _epoch_lr(hyper, epoch)
        order = list(range(n_train))
        shuffler.shuffle(order)
        seen = 0
        loss_sum = 0.0
        acc_sum = 0.0
        for start in range(0, n_train, hyper.batch_size):
            rows = order[start : start + hyper.batch_size]
            Xb = Xtr[rows]
            yb = ytr[rows]
            try:
                logits, cache = _forward_batch(config, params, Xb)
                loss, acc, dlogits = softmax_cross_entropy(logits, yb)
                if not np.isfinite(loss):
                    raise DivergenceError("non-finite loss")
                grads = _backward_batch(config, params, cache, dlogits)
            except (DivergenceError, DegenerateRowError):
                diverged = True
                break
            for k in params:
                g = grads[k] + hyper.weight_decay * params[k]
                vel[k] = hyper.momentum * vel[k] - lr * g
                params[k] = params[k] + vel[k]
            loss_sum += loss * len(rows)
            acc_sum += acc * len(rows)
            seen += len(rows)
        if diverged:
            history.append(EpochStats(float("nan"), float("nan"), float("nan"), float("nan")))
            break
        try:
            if n_val:
                vlogits, _ = _forward_batch(config, params, Xva)
                val_loss, val_acc, _ = softmax_cross_entropy(vlogits, yva)
            else:
                val_loss, val_acc = float("nan"), float("nan")
        except (DivergenceError, DegenerateRowError):
            diverged = True
            val_loss, val_acc = float("nan"), float("nan")
        history.append(EpochStats(loss_sum / seen, acc_sum / seen, val_loss, val_acc))
        if diverged:
            break

    stage_weights = tuple(
        StageWeights(tuple(params[name] for name in _stage_param_names(config, s)))
        for s in range(len(config.stages))
    )
    return TrainingHistory(
        per_epoch=tuple(history),
        diverged=diverged,
        final_stage_weights=stage_weights,
        final_params={k: v.copy() for k, v in params.items()},
    )


def extract_stage_spectra(history: TrainingHistory, top_k: int = 32) -> list:
    """One SpectrumReport per sub-block weight, in stage order."""
    reports = []
    for sw in history.final_stage_weights:
        for W in sw.per_step:
            if not isinstance(W, np.ndarray):
                raise ValueError("scalar stage weights have no spectrum to report")
            reports.append(spectrum_report(W, top_k=top_k))
    return reports


# ---------------------------------------------------------------------------
# Checkpoint serialization: flat little-endian float64 + JSON sidecar.
# ---------------------------------------------------------------------------


def checkpoint_bytes(params: dict):
    """Returns (blob, sidecar) for the parameter dict in its insertion order."""
    tensors = []
    chunks = []
    for name, value in params.items():
        arr = np.asarray(value, dtype=np.float64)
        tensors.append({"name": name, "shape": list(arr.shape)})
        chunks.append(arr.astype("<f8").tobytes())
    sidecar = {"dtype": "float64", "byte_order": "little", "tensors": tensors}
    return b"".join(chunks), sidecar


def checkpoint_from_bytes(blob: bytes, sidecar: dict) -> dict:
    if sidecar.get("dtype") != "float64" or sidecar.get("byte_order") != "little":
        raise ValueError("unsupported checkpoint encoding")
    params = {}
    offset = 0
    for entry in sidecar["tensors"]:
        shape = tuple(int(x) for x in entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(blob):
            raise ValueError("checkpoint blob shorter than its sidecar promises")
        flat = np.frombuffer(blob[offset : offset + nbytes], dtype="<f8")
        params[entry["name"]] = flat.reshape(shape).astype(np.float64)
        offset += nbytes
    if offset != len(blob):
        raise ValueError("checkpoint blob longer than its sidecar promises")
    return params
