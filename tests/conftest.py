import csv
import io
import math

import numpy as np
import pytest
from hypothesis import settings

import nld

# Property tests draw the same small set of examples on every run.
settings.register_profile("nld", derandomize=True, database=None, max_examples=25, deadline=None)
settings.load_profile("nld")


@pytest.fixture
def two_state_kernel():
    return nld.KernelMatrix.from_entries(np.array([[0.9, 0.1], [0.1, 0.9]]))


@pytest.fixture
def exchange_kernel():
    return nld.KernelMatrix.from_entries(np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.fixture
def two_state_field():
    return nld.FeatureField(np.array([[1.0], [-1.0]]))


# ---------------------------------------------------------------------------
# Test-only helpers: the scalar draws and affinity that ``nld``'s block
# draws and batched kernel core are held to, the damping classifier on a
# plain list, and a matrix-CSV writer for test inputs.
# ---------------------------------------------------------------------------


def uniform(rng):
    """The next uniform double in [0, 1) of ``rng``'s stream, 53 random bits."""
    return (rng.next_u64() >> 11) * 2.0**-53


def normal(rng):
    """The next standard normal of ``rng``'s stream (Box-Muller; consumes two outputs)."""
    u1 = uniform(rng)
    u2 = uniform(rng)
    # 1 - u1 lies in (0, 1], so the log never sees zero.
    r = math.sqrt(-2.0 * math.log(1.0 - u1))
    return r * math.cos(2.0 * math.pi * u2)


def randint(rng, n):
    """The next integer uniform on [0, n) of ``rng``'s stream, by 128-bit multiply-shift."""
    if n <= 0:
        raise ValueError("randint requires n >= 1")
    return (rng.next_u64() * n) >> 64


def eval_affinity(spec, i, j, field):
    """Affinity between positions i and j of ``field``, one pair at a time.

    The dirac_delta variant compares *indices*, not feature values, so it
    stays an identity even when two positions carry equal features.
    """
    M = field.num_positions
    if not (0 <= i < M and 0 <= j < M):
        raise IndexError(f"position index out of range: ({i}, {j}) for M={M}")
    if spec.variant == nld.DIRAC_DELTA:
        return 1.0 if i == j else 0.0
    if spec.variant == nld.EMBEDDED:
        return eval_affinity(spec.inner, i, j, nld.FeatureField(field.values @ spec.theta.T))
    xi = field.values[i]
    xj = field.values[j]
    with np.errstate(over="ignore"):
        if spec.variant == nld.GAUSSIAN:
            w = float(np.exp(np.dot(xi, xj)))
        elif spec.variant == nld.RBF:
            h = float(spec.bandwidth) if spec.bandwidth is not None else nld.median_bandwidth(field)
            diff = xi - xj
            w = float(np.exp(-np.dot(diff, diff) / (2.0 * h * h)))
        else:
            raise ValueError(f"unknown kernel variant {spec.variant!r}")
    if not np.isfinite(w):
        raise nld.NonFiniteError(f"affinity overflowed: {w!r}")
    return w


def classify_spectrum(eigenvalues):
    """The damping classification of a kept eigenvalue list."""
    return nld.spectrum._classify(np.asarray(eigenvalues, dtype=np.float64))[2]


def save_matrix_csv(A):
    """A 2-d array as plain CSV (no header), full float64 precision."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {A.shape}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in A:
        writer.writerow([repr(float(x)) for x in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Fields, kernels and steps.
# ---------------------------------------------------------------------------


def make_field(seed, M, d):
    rng = nld.SplitMix64(nld.derive_seed(seed, "field", M, d))
    return nld.FeatureField(rng.normals((M, d)))


def make_balanced_kernel(seed, M, d=3):
    """Symmetric doubly stochastic kernel on a random feature field."""
    return nld.symmetric_stochastic_kernel(make_field(seed, M, d))


def step_proposed(Z, K, w):
    """One proposed sub-step of the array Z under the fixed K."""
    return nld.ProposedStepper(K, w).step(Z, 0, 1, np.empty_like(Z))


def step_original(Z, spec, w):
    """One original block on the array Z, the kernel built on Z."""
    return nld.OriginalStepper(spec, w).step(Z, 0, 1, np.empty_like(Z))


def step_states(stepper, Z0, num_steps):
    """The bare arrays Z0, Z1, ..., Z_num_steps that ``stepper.step`` visits.

    These are the states ``evolve`` steps through, in the same calls, so
    they are bitwise the ones its statistics describe.
    """
    states = [Z0.values]
    for n in range(num_steps):
        states.append(stepper.step(states[-1], n, num_steps, np.empty_like(states[-1])))
    return states


def sup_norms(stepper, Z0, num_steps):
    """The largest entry magnitude of each state ``stepper.step`` visits."""
    return [float(np.max(np.abs(Z))) for Z in step_states(stepper, Z0, num_steps)]


def l2_ratios(traj):
    """Each step's l2 norm over the previous one's."""
    return (traj.l2_norm[1:] / traj.l2_norm[:-1]).tolist()


def net_forward(config, params, X):
    """``net._forward_batch`` of the (B, M, d) batch X on a workspace of its own."""
    return nld.net._forward_batch(config, params, X, nld.net._Workspace(config, len(X)))


def net_loss(config, params, X, labels):
    """The mean cross-entropy of the batch X at ``labels``."""
    logits, _ = net_forward(config, params, X)
    return nld.net.softmax_cross_entropy(logits, labels)[0]


def net_gradients(config, params, X, labels):
    """The logits of the batch X and the gradient of its mean cross-entropy
    at ``labels``, written into views of one flat vector as ``train`` does."""
    logits, cache = net_forward(config, params, X)
    _, _, dlogits = nld.net.softmax_cross_entropy(logits, labels)
    return logits, nld.net._backward_batch(config, params, cache, dlogits, flat_grads(params))


def flat_grads(params):
    """Gradient views into one fresh flat vector laid out like ``params``."""
    return nld.net._flat_views(params, np.empty(sum(np.size(v) for v in params.values())))


def agreement_count(values, d):
    """How many (row, channel) cells agree in sign across the two blocks of
    a ``generate_task`` field."""
    M = values.shape[0]
    a = values[:d, :d] >= 0.0
    b = values[M - d :, :d] >= 0.0
    return int(np.sum(a == b))


def label_from_field(values, d, num_classes):
    """Exact oracle for ``generate_task``: invert the planted agreement level."""
    k = agreement_count(values, d)
    levels = nld.net._agreement_levels(num_classes, d)
    diffs = [abs(k - lv) for lv in levels]
    return int(np.argmin(diffs))


def eig_symmetric_two_halves(A):
    """The round-robin Jacobi of ``nld.eig_symmetric`` on two column halves.

    Its working matrix is one (m, m + n) buffer [a | V^T]: the row update
    runs on its top and bottom halves, the column update on a's strided
    left and right halves, and two ``take`` calls permute the slots
    between rounds.  ``eig_symmetric`` stores the same matrix in
    contiguous quadrant blocks and must give bitwise the same eigenpairs.
    """
    from nld.spectrum import JACOBI_MAX_SWEEPS, JACOBI_TOL, _round_robin_shift

    A = np.asarray(A, dtype=np.float64)
    n = A.shape[0]
    sym = 0.5 * (A + A.T)
    fnorm = float(np.linalg.norm(sym))
    if n == 1 or fnorm == 0.0:
        vals = np.diag(sym).copy()
        order = np.argsort(-vals, kind="stable")
        return vals[order], np.eye(n)[:, order]
    thresh = JACOBI_TOL * fnorm

    m = n + n % 2
    h = m // 2
    buf = np.zeros((m, m + n))
    a = buf[:, :m]
    a[:n, :n] = sym
    buf[:n, m:] = np.eye(n)
    shift = _round_robin_shift(m)

    converged = False
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _sweep in range(JACOBI_MAX_SWEEPS):
            off = np.abs(a - np.diag(np.diag(a)))
            if float(off.max()) <= thresh:
                converged = True
                break
            for _round in range(m - 1):
                apq = np.diagonal(a[:h, h:])
                active = np.abs(apq) > thresh
                if active.any():
                    d = np.diagonal(a)
                    diff = d[h:] - d[:h]
                    tau = diff / (2.0 * apq)
                    t = np.where(tau != 0.0, np.sign(tau) / (np.abs(tau) + np.hypot(1.0, tau)), 1.0)
                    t = np.where(np.abs(apq) < 1e-300 * np.abs(diff), apq / diff, t)
                    t = np.where(active, t, 0.0)
                    c = 1.0 / np.hypot(1.0, t)
                    s = t * c

                    top, bottom = buf[:h], buf[h:]
                    cr, sr = c[:, None], s[:, None]
                    tmp = top * sr
                    top *= cr
                    top -= bottom * sr
                    bottom *= cr
                    bottom += tmp
                    left, right = a[:, :h], a[:, h:]
                    tmp = left * s
                    left *= c
                    left -= right * s
                    right *= c
                    right += tmp
                    k = np.flatnonzero(active)
                    a[k, k + h] = 0.0
                    a[k + h, k] = 0.0
                buf = buf.take(shift, axis=0)
                a = buf[:, :m]
                a[:] = a.take(shift, axis=1)
    assert converged
    vals = np.diag(a)[:n].copy()
    order = np.argsort(-vals, kind="stable")
    return vals[order], buf[:n, m:].T[:, order]
