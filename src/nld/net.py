"""A small residual network with one insertable nonlocal mixing stage.

Everything is plain numpy with hand-written gradients.  The trunk is a
stack of per-position residual MLP blocks (relu before each weight, a
fixed scalar gain standing in for normalization).  One optional nonlocal
stage of N sub-blocks can be inserted after any trunk block; a deeper
nonlocal structure is a larger N in that stage, not a second stage.  The
stage comes in either formulation:

* proposed: the affinity kernel is computed once from the stage input
  and held fixed; sub-steps apply Z + W_n (P Z - Z).
* original: every sub-block recomputes the kernel from its own input and
  applies Z + W_n (P Z), the positive-sign normalized sum.

Gradients flow through everything, including the kernel construction in
both formulations; the test suite checks every parameter against central
finite differences.  The classifier is an affine map of the mean-pooled
features trained with softmax cross-entropy.

Every contraction is one BLAS matmul: a per-position product runs on the
(B*M, c) rows of its batch, a weight gradient is the transposed product of
two such row matrices, and the kernel gradient is a batched matmul.  At
these small sizes OpenBLAS is faster on a contiguous operand than on a
transposed view, by more than a copy costs, so the forward pass copies
each weight's transpose once, and the stage's backward pass copies P^T once
and each Z_n^T once per sub-block.  The kernel Gram V V^T in ``kernels``
copies V^T too: on the transposed view numpy ran one ``dsyrk`` per
sample, which made omega exactly symmetric and cost twice the copy and
the GEMM together (see ``kernels._kernel_fwd``).

The trainer keeps all parameters in one flat float64 vector, and the
``params`` dict it passes around holds views into it.  The backward pass
writes every gradient in place into views of a second flat vector laid out
the same way, so the update is one vector expression.

The trainer also allocates one workspace per run (``_Workspace``) for its
largest batch: every trunk block's activations and output, the stage's
kernels (omega, P and the row sums) and sub-block outputs, and the
backward scratch of both.  Each batch writes into the first rows of it,
and the stage hands the kernel core in ``kernels`` these buffers to write
into.  Allocated afresh per batch, those (B*M, H) and (B, M, M) arrays
were freed at the top of the heap, glibc handed the pages back, and the
next batch faulted them in again: a default ``train`` op (256 samples,
seed 5) took about 39,600 minor page faults proposed and 45,200 original,
and takes about 540 and 620 with the workspace.  A forward pass
overwrites what the previous one left there, so the backward pass refuses
a cache that a later forward pass on its workspace outdated.

At B = 32 most of a step's numpy calls see a few thousand elements or
fewer, so what a call costs besides its arithmetic counts.  The views a
batch reads (the buffers cut to its size, their row and transposed forms)
are built once per batch size (``_Batch``), the parameter names once per
run, and reductions call their ufunc directly rather than through the
ndarray method's Python wrapper.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import DegenerateRowError, DivergenceError
from .kernels import (
    EMBEDDED,
    RBF,
    AffinityKernelSpec,
    _kernel_bwd,
    _kernel_fwd,
    _rownorm_bwd,
    _rownorm_fwd,
)
from .rng import SplitMix64, _box_muller, _fisher_yates, derive_seed
from .spectrum import spectrum_report

PROPOSED = "proposed"
ORIGINAL = "original"

# Proposed-stage weights start at this fraction of the conservative
# critical weight (1.0, the bound when the kernel spectrum fills [-1, 1]),
# so an untrained stage can never be the source of a blow-up.
PROPOSED_INIT_SCALE = 0.1

ORIGINAL_INIT_RANGE = 0.01

# generate_task draws its samples in blocks of about this many outputs, so
# its scratch memory stays small whatever the task size.
_TASK_BLOCK_DRAWS = 1 << 12


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
        affinity = self.kernel.inner if self.kernel.variant == EMBEDDED else self.kernel
        if affinity.variant == RBF and affinity.bandwidth is None:
            raise ValueError("network stages need an explicit rbf bandwidth")


@dataclass(frozen=True, eq=False)
class NetworkConfig:
    num_positions: int
    num_channels: int
    num_classes: int
    trunk_blocks: int
    hidden_channels: int
    stage: Optional[StageConfig] = None
    block_gain: float = 1.0

    def __post_init__(self):
        if min(self.num_positions, self.num_channels, self.num_classes) < 1:
            raise ValueError("sizes must be positive")
        if self.trunk_blocks < 1 or self.hidden_channels < 1:
            raise ValueError("trunk needs at least one block and one hidden channel")
        if self.stage is not None:
            if not isinstance(self.stage, StageConfig):
                raise ValueError("stage must be a StageConfig instance")
            if self.stage.placement >= self.trunk_blocks:
                raise ValueError(
                    f"placement {self.stage.placement} out of range for {self.trunk_blocks} blocks"
                )
            kernel = self.stage.kernel
            if kernel.variant == EMBEDDED and kernel.theta.shape[1] != self.num_channels:
                raise ValueError(
                    f"theta maps {kernel.theta.shape[1]} channels but the network has {self.num_channels}"
                )


def param_names(config: NetworkConfig) -> list:
    """Checkpoint order: trunk blocks, the stage's sub-blocks, classifier head."""
    names = []
    for b in range(config.trunk_blocks):
        names.append(f"block{b}.W1")
        names.append(f"block{b}.W2")
    names.extend(_stage_param_names(config))
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
        if is_stage_weight(name):
            if config.stage.formulation == PROPOSED:
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
# Batched differentiable pieces.  Arrays are (B, M, *) throughout, and
# ``_forward_batch`` then ``_backward_batch`` is the one way through the
# network: every buffer they write is the caller's.  The affinity and its
# row normalization come from the batched core in ``kernels``.
# ---------------------------------------------------------------------------


def _rows(X):
    """A (B, M, c) batch as its (B*M, c) rows: every position in one GEMM."""
    return X.reshape(-1, X.shape[-1])


def _transposed(A):
    """A with its last two axes swapped, as a C-contiguous copy: the layout
    OpenBLAS multiplies fastest at these sizes (see the module docstring)."""
    return A.swapaxes(-1, -2).copy()


def _block_fwd(W1, W2, gain, Z, buffers):
    """One residual block on the (B*M, d) rows of Z, written into
    ``buffers``: the block's activations, output and backward scratch, cut
    to exactly those rows (see ``_Batch``).  Returns the output rows and
    the backward cache, views into the buffers."""
    Z = _rows(Z)
    A1, P1, A2, out, scratch = buffers
    np.multiply(gain, Z, out=A1)
    np.maximum(A1, 0.0, out=A1)
    np.matmul(A1, _transposed(W1), out=P1)
    np.multiply(gain, P1, out=A2)
    np.maximum(A2, 0.0, out=A2)
    np.matmul(A2, _transposed(W2), out=out)
    np.add(Z, out, out=out)
    return out, (Z, A1, P1, A2, scratch)


def _block_bwd(W1, W2, gain, cache, G, gW1, gW2, input_grad):
    """Writes the weight gradients for the rows of G into ``gW1`` and
    ``gW2``, and returns dZ, written into the cache's scratch; dZ is None
    without ``input_grad``, as for the first block, whose input is the data.
    A weight gradient sums G[b, m]^T X[b, m] over every position: one GEMM
    of two row matrices."""
    Z, A1, P1, A2, (dP1, relu_h, dA1, relu_d, dZ) = cache
    G = _rows(G)
    np.matmul(G.T, A2, out=gW2)
    np.matmul(G, W2, out=dP1)
    np.greater(P1, 0, out=relu_h)
    np.multiply(dP1, relu_h, out=dP1)
    np.multiply(dP1, gain, out=dP1)
    np.matmul(dP1.T, A1, out=gW1)
    if not input_grad:
        return None
    np.matmul(dP1, W1, out=dA1)
    np.greater(Z, 0, out=relu_d)
    np.multiply(dA1, relu_d, out=dA1)
    np.multiply(dA1, gain, out=dA1)
    np.add(G, dA1, out=dZ)
    return dZ


def _stage_kernel(kernel: AffinityKernelSpec, Z, omega, P, C, gram):
    """The row-normalized kernel of the batch Z, written into omega, P and
    the row sums C; returns the kernel backward's aux.  A stage kernel's
    rows sum to at least 1, so the row normalization rejects, before it
    writes P, only a sum of inf or nan: a divergence, named as the stage's
    overflow when an affinity itself is not finite."""
    kaux = _kernel_fwd(kernel, Z, omega, gram)
    try:
        _rownorm_fwd(omega, P, C)
    except DegenerateRowError as err:
        overflowed = not np.isfinite(omega).all()
        raise DivergenceError("stage affinity overflowed" if overflowed else str(err)) from None
    return kaux


def _stage_fwd(stage: StageConfig, Ws, Z, ws):
    """The stage on the (B, M, d) batch Z, written into the workspace ``ws``;
    returns the output and the backward cache, views into ``ws``."""
    v = ws.batch(len(Z))
    cur = Z
    if stage.formulation == PROPOSED:
        omega, P, C = v.kernels[0]
        kaux = _stage_kernel(stage.kernel, Z, omega, P, C, v.gram)
        Zs = [Z]
        for W, (D, nxt), (D_rows, nxt_rows) in zip(Ws, v.steps, v.step_rows):
            np.matmul(P, cur, out=D)
            np.subtract(D, cur, out=D)
            np.matmul(D_rows, _transposed(W), out=nxt_rows)
            cur = np.add(cur, nxt, out=nxt)
            Zs.append(cur)
        return cur, (omega, kaux, P, C, Zs)
    subs = []
    for W, (omega, P, C), (Y, nxt), (Y_rows, nxt_rows) in zip(Ws, v.kernels, v.steps, v.step_rows):
        kaux = _stage_kernel(stage.kernel, cur, omega, P, C, v.gram)
        np.matmul(P, cur, out=Y)
        subs.append((cur, omega, kaux, P, C))
        np.matmul(Y_rows, _transposed(W), out=nxt_rows)
        cur = np.add(cur, nxt, out=nxt)
    return cur, subs


def _stage_bwd(stage: StageConfig, Ws, cache, G, gWs, ws):
    """Writes the n-th weight gradient into ``gWs[n]`` and returns dZ, written
    into the stage scratch of the workspace ``ws``.  The cache holds views
    of ``ws.batch(B)``, so the row and transposed forms of its sub-block
    updates and kernels are read from there."""
    v = ws.batch(len(G))
    dD, ZT, PT, dP, dOmega, q, A, dV, AtV = v.stage_scratch
    dD_rows = v.stage_scratch_rows
    Gs, Gs_rows = v.stage_grads, v.stage_grad_rows
    G_rows = _rows(G)
    if stage.formulation == PROPOSED:
        omega, kaux, P, C, Zs = cache
        X = Zs[0]
        # dP sums from zeros, so a -0.0 term comes out +0.0; dOmega holds
        # each term until the row normalization's backward overwrites it.
        dP.fill(0.0)
        np.copyto(PT, P.swapaxes(-1, -2))
        for n in range(len(Ws) - 1, -1, -1):
            np.matmul(G_rows.T, v.step_rows[n][0], out=gWs[n])
            np.matmul(G_rows, Ws[n], out=dD_rows)
            np.copyto(ZT, Zs[n].swapaxes(-1, -2))
            np.add(dP, np.matmul(dD, ZT, out=dOmega), out=dP)
            nxt = Gs[n % 2]
            np.add(G, np.matmul(PT, dD, out=nxt), out=nxt)
            G = np.subtract(nxt, dD, out=nxt)
            G_rows = Gs_rows[n % 2]
        _rownorm_bwd(dP, P, C, q, dOmega)
        # The last sub-block (n = 0) left G in Gs[0].
        return np.add(G, _kernel_bwd(stage.kernel, X, omega, kaux, dOmega, A, dV, AtV), out=Gs[1])
    for n in range(len(Ws) - 1, -1, -1):
        Zn, omega, kaux, P, C = cache[n]
        np.matmul(G_rows.T, v.step_rows[n][0], out=gWs[n])
        np.matmul(G_rows, Ws[n], out=dD_rows)
        np.copyto(ZT, Zn.swapaxes(-1, -2))
        np.matmul(dD, ZT, out=dP)
        _rownorm_bwd(dP, P, C, q, dOmega)
        nxt = Gs[n % 2]
        np.add(G, np.matmul(v.kernels_T[n], dD, out=nxt), out=nxt)
        G = np.add(nxt, _kernel_bwd(stage.kernel, Zn, omega, kaux, dOmega, A, dV, AtV), out=nxt)
        G_rows = Gs_rows[n % 2]
    return G


def _stage_param_names(config: NetworkConfig) -> list:
    """The stage's sub-block weights; the checkpoint names them ``stage0.W{n}``."""
    if config.stage is None:
        return []
    return [f"stage0.W{n}" for n in range(config.stage.sub_blocks)]


def is_stage_weight(name: str) -> bool:
    """Whether a parameter name is a stage sub-block weight, ``stage0.W{n}``."""
    return re.fullmatch(r"stage0\.W[0-9]+", name) is not None


def _cut(buffers, n):
    """The first n rows of every array in the nested tuples ``buffers``."""
    if isinstance(buffers, np.ndarray):
        return buffers[:n]
    return tuple(_cut(b, n) for b in buffers)


class _Workspace:
    """Trunk and stage buffers for batches of up to ``capacity`` samples.

    ``train`` allocates one per run, and every batch's forward and backward
    pass writes into it: the trunk's activations, the stage's kernels and
    sub-block outputs, and the scratch of both backward passes.  A pass
    reads them through ``batch(B)``, views cut to its B samples, built on
    the first batch of that size and reused.  A forward pass overwrites
    what the previous one left, so it moves ``generation`` on and the
    backward pass refuses a cache from an earlier generation.

    The parameter names a pass looks up are resolved here too, once per
    run; the tensors are not: ``params`` is read afresh on every pass.
    """

    def __init__(self, config: NetworkConfig, capacity: int):
        M = config.num_positions
        rows = capacity * M
        d, H = config.num_channels, config.hidden_channels
        # The backward scratch: dP1, the two relu masks, dA1, dZ.  The
        # blocks share it, because the backward pass runs them one at a time.
        scratch = (
            np.empty((rows, H)),
            np.empty((rows, H), dtype=bool),
            np.empty((rows, d)),
            np.empty((rows, d), dtype=bool),
            np.empty((rows, d)),
        )
        self.config = config
        self.capacity = capacity
        self.generation = 0
        self._batches = {}
        self.block_names = [(f"block{b}.W1", f"block{b}.W2") for b in range(config.trunk_blocks)]
        self.stage_names = _stage_param_names(config)
        # Each block's activations A1, P1, A2 and its output, then the scratch.
        self.blocks = [
            (np.empty((rows, d)), np.empty((rows, H)), np.empty((rows, H)), np.empty((rows, d)), scratch)
            for _ in range(config.trunk_blocks)
        ]
        stage = config.stage
        if stage is None:
            return

        def stack(*shape):
            return np.empty((capacity, *shape))

        # The stage's kernels (omega, P and the row sums C): one for the
        # proposed stage, one per sub-block for the original.  Sub-block n
        # writes its step (D_n or Y_n) and its output Z_{n+1} into steps[n].
        n_kernels = 1 if stage.formulation == PROPOSED else stage.sub_blocks
        self.kernels = [(stack(M, M), stack(M, M), stack(M)) for _ in range(n_kernels)]
        self.steps = [(stack(M, d), stack(M, d)) for _ in range(stage.sub_blocks)]
        # The Gram's V^T, at the width the affinity is evaluated at.
        kernel = stage.kernel
        self.gram = stack(kernel.theta.shape[0] if kernel.variant == EMBEDDED else d, M)
        # The backward scratch the sub-blocks share: dD (or dY), Z_n^T,
        # P^T, the dP accumulator, dOmega, q, and the kernel backward's A
        # and its two products; and two input gradients that alternate.
        self.stage_scratch = (
            stack(M, d), stack(d, M), stack(M, M), stack(M, M), stack(M, M), stack(M, 1),
            stack(M, M), stack(M, d), stack(M, d),
        )
        self.stage_grads = (stack(M, d), stack(M, d))

    def batch(self, B: int) -> "_Batch":
        """The views of a batch of B samples, built on the first call for B."""
        views = self._batches.get(B)
        if views is None:
            views = self._batches[B] = _Batch(self, B)
        return views


class _Batch:
    """A workspace's buffers cut to a batch of B samples, with the row,
    batch and transposed views a pass reads.  ``blocks``, ``kernels`` and
    ``steps`` keep the workspace's layout, the trunk's cut to B*M rows.
    Building them all takes about 37 us for a proposed N=4 stage and 50 us
    for an original one (B = 32, default net, 2-core Xeon), against a
    whole step of 0.5 to 0.9 ms; a pass would otherwise redo part of it."""

    def __init__(self, ws: _Workspace, B: int):
        config = ws.config
        M, d = config.num_positions, config.num_channels
        self.blocks = [_cut(block, B * M) for block in ws.blocks]
        # What the pooling reads, as (B, M, d): the last trunk block's
        # output, or the stage's when the stage comes last.
        output = self.blocks[-1][3]
        stage = config.stage
        if stage is not None:
            self.stage_input = self.blocks[stage.placement][3].reshape(B, M, d)
            self.kernels = [_cut(k, B) for k in ws.kernels]
            self.kernels_T = [P.swapaxes(-1, -2) for _, P, _ in self.kernels]
            self.steps = [_cut(step, B) for step in ws.steps]
            self.step_rows = [tuple(_rows(a) for a in step) for step in self.steps]
            # The trunk block after the stage reads the stage output as rows.
            self.stage_output_rows = self.step_rows[-1][1]
            self.gram = ws.gram[:B]
            self.stage_scratch = _cut(ws.stage_scratch, B)
            self.stage_scratch_rows = _rows(self.stage_scratch[0])
            self.stage_grads = _cut(ws.stage_grads, B)
            self.stage_grad_rows = tuple(_rows(g) for g in self.stage_grads)
            if stage.placement == config.trunk_blocks - 1:
                output = self.stage_output_rows
        self.output = output.reshape(B, M, d)


def _forward_batch(config: NetworkConfig, params: dict, X: np.ndarray, ws: _Workspace):
    """The forward pass of the (B, M, d) batch X into the workspace ``ws``;
    returns (logits, cache), the cache ``_backward_batch`` reads.  The trunk
    runs on the (B*M, d) rows of the batch; the stage and the pooling see
    (B, M, d) views of them."""
    B = len(X)
    if B > ws.capacity:
        raise ValueError(f"batch of {B} samples does not fit a workspace for {ws.capacity}")
    ws.generation += 1
    v = ws.batch(B)
    stage = config.stage
    placement = -1 if stage is None else stage.placement
    Z = X
    trail = []
    # Overflow surfaces as the explicit divergence checks below, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for b, ((w1, w2), buffers) in enumerate(zip(ws.block_names, v.blocks)):
            Z, bc = _block_fwd(params[w1], params[w2], config.block_gain, Z, buffers)
            trail.append(("block", b, bc))
            if not np.isfinite(Z).all():
                raise DivergenceError(f"non-finite activations after block {b}")
            if b == placement:
                Ws = [params[name] for name in ws.stage_names]
                Z, sc = _stage_fwd(stage, Ws, v.stage_input, ws)
                trail.append(("stage", b, sc))
                if not np.isfinite(Z).all():
                    raise DivergenceError("non-finite activations after stage 0")
                Z = v.stage_output_rows
        # The mean over positions, as ndarray.mean computes it.
        pooled = np.add.reduce(v.output, axis=1)
        np.true_divide(pooled, config.num_positions, out=pooled)
        logits = pooled @ params["head.A"].T + params["head.b"]
    if not np.isfinite(logits).all():
        raise DivergenceError("non-finite logits")
    cache = {
        "trail": trail,
        "pooled": pooled,
        "params": params,
        "workspace": ws,
        "generation": ws.generation,
    }
    return logits, cache


def _backward_batch(
    config: NetworkConfig, params: dict, cache: dict, dlogits: np.ndarray, grads: dict
) -> dict:
    """Every parameter's gradient, written into ``grads`` and returned.

    ``grads`` holds views into one flat vector laid out like ``params``
    (see ``_flat_views``), and every element of the vector is written.  The
    scratch comes from the cache's workspace.
    """
    if cache.get("params") is not params:
        raise ValueError("stale cache: it was produced by a different parameter set")
    ws = cache["workspace"]
    if cache["generation"] != ws.generation:
        raise ValueError("stale cache: a later forward pass on its workspace overwrote it")
    pooled = cache["pooled"]
    M = config.num_positions
    np.matmul(dlogits.T, pooled, out=grads["head.A"])
    np.add.reduce(dlogits, axis=0, out=grads["head.b"])
    dpooled = dlogits @ params["head.A"]
    G = np.repeat(dpooled[:, None, :] / M, M, axis=1)
    for kind, idx, sub in reversed(cache["trail"]):
        if kind == "stage":
            Ws = [params[name] for name in ws.stage_names]
            G = G.reshape(len(pooled), M, -1)
            G = _stage_bwd(config.stage, Ws, sub, G, [grads[name] for name in ws.stage_names], ws)
        else:
            w1, w2 = ws.block_names[idx]
            G = _block_bwd(params[w1], params[w2], config.block_gain, sub, G, grads[w1], grads[w2], idx > 0)
    return grads


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean loss, accuracy, and d(loss)/d(logits) for integer labels."""
    # The reductions are the ufuncs that ndarray.max and .sum call.
    m = np.maximum.reduce(logits, axis=1, keepdims=True)
    e = np.exp(logits - m)
    denom = np.add.reduce(e, axis=1, keepdims=True)
    B = logits.shape[0]
    idx = np.arange(B)
    losses = np.log(denom[:, 0]) + m[:, 0] - logits[idx, labels]
    loss = float(losses.mean())
    # The softmax probabilities minus the one-hot labels, over B.
    dlogits = e / denom
    dlogits[idx, labels] -= 1.0
    dlogits /= B
    acc = int(np.count_nonzero(logits.argmax(axis=1) == labels)) / B
    return loss, acc, dlogits


# ---------------------------------------------------------------------------
# Synthetic long-range task.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SyntheticTask:
    """Sign-agreement task binding the two ends of the position axis.

    The label is a function of how many of the d*d (row, channel) cells
    agree in sign between the first block of d positions and the last.
    Every row has the same marginal law in each class, so a per-position
    model cannot beat chance.  Reading it needs the rows together: a
    hand-written reader that compares the sign patterns of row pairs gets
    99.4% of 4096 samples right (seed 7), while the trained nets have
    reached 0.51-0.68 held-out accuracy.
    """

    num_positions: int
    num_channels: int
    num_classes: int
    values: np.ndarray = dc_field(repr=False)  # (num_samples, M, d)
    labels: tuple = ()

    @property
    def num_samples(self) -> int:
        return self.values.shape[0]


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
    # Sample s draws M*d normals (two outputs each), then shuffles its d*d
    # (row, channel) cells; the first k cells of that order agree in sign.
    # Samples are drawn in stream order, a chunk of them per block.
    cells = d * d
    normal_draws = 2 * M * d
    per_sample = normal_draws + cells - 1
    chunk = max(1, _TASK_BLOCK_DRAWS // per_sample)
    ranks = np.empty((num_samples, cells), dtype=np.int64)
    values = np.empty((num_samples, M, d), dtype=np.float64)
    for lo in range(0, num_samples, chunk):
        n = min(chunk, num_samples - lo)
        block = rng.u64s(n * per_sample).reshape(n, per_sample)
        values[lo : lo + n] = _box_muller(block[:, :normal_draws].ravel()).reshape(n, M, d)
        for s, draws in enumerate(block[:, normal_draws:].tolist(), start=lo):
            order = list(range(cells))
            _fisher_yates(order, draws)
            ranks[s, order] = np.arange(cells)
    k = np.array(_agreement_levels(num_classes, d))[np.array(labels, dtype=np.int64)]
    agree = (ranks < k[:, None]).reshape(num_samples, d, d)
    sign_a = np.where(values[:, :d, :] >= 0.0, 1.0, -1.0)
    mag = np.abs(values[:, M - d :, :])
    mag[mag == 0.0] = 1.0
    values[:, M - d :, :] = np.where(agree, sign_a, -sign_a) * mag
    values.setflags(write=False)
    return SyntheticTask(
        num_positions=M,
        num_channels=d,
        num_classes=num_classes,
        values=values,
        labels=tuple(labels),
    )


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
    """Per-epoch metrics plus the trained parameters, in checkpoint order.

    ``divergence`` says where and why a diverged run stopped, for example
    ``epoch 76, batch 3: non-finite activations after stage 0`` (epochs and
    batches counted from 0, as in the CSV); it is None for a finished run.
    """

    per_epoch: tuple
    final_params: dict = dc_field(repr=False, default_factory=dict)
    divergence: Optional[str] = None

    @property
    def diverged(self) -> bool:
        return self.divergence is not None

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


def _flat_views(params: dict, flat: np.ndarray) -> dict:
    """Views into ``flat`` with the names, shapes and order of ``params``."""
    views = {}
    offset = 0
    for name, value in params.items():
        size = np.size(value)
        views[name] = flat[offset : offset + size].reshape(np.shape(value))
        offset += size
    return views


def _flat_params(params: dict):
    """One float64 vector holding every tensor, and a dict of views into it.

    The views keep the dict's names, shapes and order, so the checkpoint
    layout is unchanged and an update of the vector moves every tensor.
    """
    theta = np.concatenate([np.ravel(v) for v in params.values()])
    return theta, _flat_views(params, theta)


def train(config: NetworkConfig, task: SyntheticTask, hyper: Hyper, seed: int = 0) -> TrainingHistory:
    """SGD with momentum and weight decay; divergence is recorded, never raised.

    The last ``val_fraction`` of the (already shuffled) task is held out;
    minibatch order reshuffles every epoch from a seed-derived stream, so
    the whole run is a pure function of (config, task, hyper, seed).
    """
    if task.num_samples < 2:
        raise ValueError("training needs at least two samples")
    if (task.num_positions, task.num_channels) != (config.num_positions, config.num_channels):
        raise ValueError("task and config disagree on field shape")
    theta, params = _flat_params(init_params(config, seed))
    gflat = np.empty_like(theta)
    grads = _flat_views(params, gflat)
    vel = np.zeros_like(theta)
    n_val = int(round(hyper.val_fraction * task.num_samples))
    n_val = min(n_val, task.num_samples - 1)
    n_train = task.num_samples - n_val
    Xtr = task.values[:n_train]
    ytr = np.array(task.labels[:n_train])
    Xva = task.values[n_train:]
    yva = np.array(task.labels[n_train:])
    shuffler = SplitMix64(derive_seed(seed, "batches"))
    ws = _Workspace(config, max(min(hyper.batch_size, n_train), n_val))

    history = []
    divergence = None
    for epoch in range(hyper.epochs):
        lr = _epoch_lr(hyper, epoch)
        order = list(range(n_train))
        shuffler.shuffle(order)
        order = np.array(order)
        seen = 0
        loss_sum = 0.0
        acc_sum = 0.0
        for batch, start in enumerate(range(0, n_train, hyper.batch_size)):
            rows = order[start : start + hyper.batch_size]
            Xb = Xtr[rows]
            yb = ytr[rows]
            try:
                logits, cache = _forward_batch(config, params, Xb, ws)
                loss, acc, dlogits = softmax_cross_entropy(logits, yb)
                if not np.isfinite(loss):
                    raise DivergenceError("non-finite loss")
                _backward_batch(config, params, cache, dlogits, grads)
            except DivergenceError as err:
                divergence = f"epoch {epoch}, batch {batch}: {err}"
                break
            g = gflat + hyper.weight_decay * theta
            vel = hyper.momentum * vel - lr * g
            theta += vel
            loss_sum += loss * len(rows)
            acc_sum += acc * len(rows)
            seen += len(rows)
        if divergence is not None:
            history.append(EpochStats(float("nan"), float("nan"), float("nan"), float("nan")))
            break
        try:
            if n_val:
                vlogits, _ = _forward_batch(config, params, Xva, ws)
                val_loss, val_acc, _ = softmax_cross_entropy(vlogits, yva)
            else:
                val_loss, val_acc = float("nan"), float("nan")
        except DivergenceError as err:
            divergence = f"epoch {epoch}, validation: {err}"
            val_loss, val_acc = float("nan"), float("nan")
        history.append(EpochStats(loss_sum / seen, acc_sum / seen, val_loss, val_acc))
        if divergence is not None:
            break

    return TrainingHistory(
        per_epoch=tuple(history),
        final_params={k: v.copy() for k, v in params.items()},
        divergence=divergence,
    )


def extract_stage_spectra(history: TrainingHistory) -> list:
    """One SpectrumReport per sub-block weight, in stage order."""
    return [
        spectrum_report(W) for name, W in history.final_params.items() if is_stage_weight(name)
    ]


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
    """Inverse of checkpoint_bytes; a malformed sidecar raises ValueError."""
    if not isinstance(sidecar, dict):
        raise ValueError("checkpoint sidecar is not a JSON object")
    if sidecar.get("dtype") != "float64" or sidecar.get("byte_order") != "little":
        raise ValueError("unsupported checkpoint encoding")
    if not isinstance(sidecar.get("tensors"), list):
        raise ValueError("checkpoint sidecar has no tensors list")
    params = {}
    offset = 0
    for entry in sidecar["tensors"]:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(isinstance(n, int) for n in entry["shape"])
        ):
            raise ValueError(f"checkpoint tensor entry needs a name and a shape list of integers: {entry!r}")
        shape = tuple(entry["shape"])
        if any(n < 0 for n in shape):
            raise ValueError(f"checkpoint tensor {entry['name']!r} has a negative dimension: {list(shape)}")
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
