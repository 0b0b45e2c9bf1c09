"""Affinity kernels and their normalizations.

A kernel spec describes how pairwise affinities omega(x_i, x_j) are
computed from a feature field.  Building a spec against a field gives a
dense M x M matrix wrapped in :class:`KernelMatrix`, which carries
*verified* structural flags (symmetry, nonnegativity, row / doubly
stochastic).  Downstream operators gate their preconditions on those
flags instead of re-checking matrices.

The affinity and row-normalization arithmetic lives in one batched core
(``_kernel_fwd`` / ``_kernel_bwd`` and ``_rownorm_fwd`` /
``_rownorm_bwd``) on stacks of (B, M, d) fields.  :func:`build_kernel_matrix`
and :func:`normalize_rows` run it on a batch of one; the network runs it
on minibatches and differentiates through it.  The tests hold the core
to a scalar, one-pair-at-a-time reference (``eval_affinity`` in
``tests/conftest.py``).

The core writes every result the size of a kernel or a field into buffers
its caller passes: the network passes views of its per-run workspace, so
a training step allocates nothing of that size, and the batch-of-one
callers pass fresh arrays.  The buffers are required arguments.
``_kernel_fwd`` returns what its backward needs; the others return the
buffers they wrote.  Only the rbf, embedded and dirac_delta variants
still allocate temporaries of their own.

The gaussian variant's Gram V V^T is a GEMM on a C-contiguous copy of
V^T, not a product with the transposed view, which numpy runs as one
OpenBLAS ``dsyrk`` (symmetric rank-k update) per sample: ``dsyrk`` made
the Gram exactly symmetric, but at these sizes it cost about twice the
copy and the GEMM together (figures in ``_kernel_fwd``).  The GEMM's Gram
is symmetric only to rounding; :func:`build_kernel_matrix` mirrors its
upper triangle, so a :class:`KernelMatrix` is still exactly symmetric.

No affinity is negative, and each diagonal entry is at least 1
(exp(|x_i|^2) for the gaussian, 1 for the others), so a built kernel's
rows sum to at least 1, inf or nan: only an overflow makes one degenerate.

Two normalization routes are provided:

* :func:`normalize_rows` divides each row by its sum.  This is what the
  network formulations use; the result is row stochastic but generally
  not symmetric.
* :func:`sinkhorn_normalize` symmetrically rescales D K D toward a doubly
  stochastic limit.  This is the route that keeps the matrix symmetric,
  which the stability and decay analysis relies on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import spectrum as _spectrum
from .errors import BandwidthError, ConvergenceError, DegenerateRowError, NonFiniteError, RowSumOverflowError
from .fields import FeatureField, _frozen_array

GAUSSIAN = "gaussian"
RBF = "rbf"
DIRAC_DELTA = "dirac_delta"
EMBEDDED = "embedded"

_VARIANTS = (GAUSSIAN, RBF, DIRAC_DELTA, EMBEDDED)

# A flag is only set when the property holds to this tolerance.
FLAG_TOL = 1e-12

# Row sums at or below this magnitude cannot be normalized against.
DEGENERATE_ROW_SUM = 1e-300

# Sinkhorn gives up after this many scaling iterations.
SINKHORN_MAX_ITERS = 10000

# Sinkhorn's default residual tolerance: tight enough that the stochastic
# flags of its result are verified rather than approximate.
SINKHORN_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class AffinityKernelSpec:
    """Declarative description of a pairwise affinity, nonnegative with a
    diagonal of at least 1 in every variant.

    variant      one of gaussian | rbf | dirac_delta | embedded
    bandwidth    rbf only; None means "use the median pairwise distance of
                 the field the kernel is built on"
    theta        embedded only; (d_out, d_in) projection applied to features
                 before evaluating the inner spec
    inner        embedded only; the spec evaluated on projected features
    """

    variant: str
    bandwidth: Optional[float] = None
    theta: Optional[np.ndarray] = dc_field(default=None, repr=False)
    inner: Optional["AffinityKernelSpec"] = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown kernel variant {self.variant!r}")
        if self.bandwidth is not None:
            if self.variant != RBF:
                raise ValueError("bandwidth only applies to the rbf variant")
            _check_bandwidth(self.bandwidth, "bandwidth")
        if self.variant == EMBEDDED:
            if self.theta is None or self.inner is None:
                raise ValueError("embedded kernels need both theta and an inner spec")
            if self.inner.variant == EMBEDDED:
                raise ValueError("embedded kernels do not nest")
            th = np.asarray(self.theta, dtype=np.float64)
            if th.ndim != 2 or th.shape[0] < 1:
                raise ValueError(f"theta must be 2-d with at least one row, got shape {th.shape}")
            if not np.all(np.isfinite(th)):
                raise NonFiniteError("theta must be finite")
            object.__setattr__(self, "theta", _frozen_array(th))
        elif self.theta is not None or self.inner is not None:
            raise ValueError("theta/inner only apply to the embedded variant")


def _check_bandwidth(h: float, what: str) -> None:
    """Raises :class:`BandwidthError` unless h > 0 and 2 h^2, the rbf divisor, is a normal float."""
    if not (h > 0 and np.finfo(np.float64).tiny <= 2.0 * h * h < np.inf):
        raise BandwidthError(
            f"{what} {h!r} is not a usable rbf bandwidth h: h > 0 and 2 h^2 = {2.0 * h * h!r} must be normal"
        )


def median_bandwidth(field: FeatureField) -> float:
    """Median pairwise Euclidean distance, the default rbf bandwidth.

    Errors when there is a single position, and with :class:`BandwidthError`
    when all points coincide or lie so close that 2 h^2 underflows.
    """
    M = field.num_positions
    if M < 2:
        raise ValueError("median bandwidth needs at least two positions")
    d2 = _squared_distances(field.values[None])[0]
    dists = np.sqrt(d2[np.triu_indices(M, k=1)])
    med = float(np.median(dists))
    _check_bandwidth(med, "median pairwise distance")
    return med


def embed_field(field: FeatureField, theta: np.ndarray) -> FeatureField:
    """Project every feature vector through theta: rows become theta @ x_i."""
    th = np.asarray(theta, dtype=np.float64)
    if th.ndim != 2:
        raise ValueError(f"theta must be 2-d, got shape {th.shape}")
    if th.shape[1] != field.num_channels:
        raise ValueError(
            f"theta maps {th.shape[1]} channels but the field has {field.num_channels}"
        )
    return FeatureField(field.values @ th.T)


# ---------------------------------------------------------------------------
# Batched core.  Fields are stacked as (B, M, d) arrays and affinities as
# (B, M, M); build_kernel_matrix and normalize_rows run a batch of one,
# the network runs minibatches and differentiates through the core.
# ---------------------------------------------------------------------------


def _squared_distances(V: np.ndarray) -> np.ndarray:
    """|V_i - V_j|^2 for every sample, summed channel by channel.

    Coordinate differences rather than the Gram identity |x|^2 + |y|^2 -
    2 x.y, whose cancellation leaves roundoff of either sign: here the
    diagonal is exactly 0, no entry is negative and (i, j) equals (j, i)
    bitwise.
    """
    # Channel 0 is squared in place: summing from zeros would only add
    # 0.0 to it, which changes no bit, and cost an array and a pass.
    diff = V[:, :, None, 0] - V[:, None, :, 0]
    d2 = np.multiply(diff, diff, out=diff)
    for c in range(1, V.shape[2]):
        diff = V[:, :, None, c] - V[:, None, :, c]
        d2 += diff * diff
    return d2


def _kernel_fwd(spec: AffinityKernelSpec, V: np.ndarray, omega: np.ndarray, VT: np.ndarray):
    """omega(V_i, V_j) for every sample, written into ``omega``; returns the
    aux the backward pass needs.

    ``VT`` is (B, e, M) scratch for the Gram V V^T, with e the width the
    affinity is evaluated at: V's own, or an embedded spec's theta rows.
    The Gram is a GEMM on a C-contiguous copy of V^T written there.  On the
    transposed view numpy calls one OpenBLAS ``dsyrk`` per sample, which
    has no small-matrix path: at (B, M, d) = (32, 10, 5), on a 2-core Xeon
    with two BLAS threads, that took 11.3 us against 1.6 us for the copy
    and 3.8 us for the GEMM (23.6 against 3.1 and 7.5 in a slower moment
    with one thread).  With numpy 2.4's OpenBLAS 0.3.31 the two agree
    bitwise for M <= 11 and for M a multiple of 8 (d from 1 to 8); for the
    other M from 12 to 69 they differ in the last bit for some d >= 2, and
    omega is then symmetric only to rounding.

    rbf specs must carry their bandwidth.  Overflow is left in the result
    as inf or nan; each caller checks and names it in its own terms, and
    runs the core under ``np.errstate(over="ignore")`` so it warns nothing.
    """
    if spec.variant == DIRAC_DELTA:
        np.copyto(omega, np.eye(V.shape[1]))
        return None
    if spec.variant == EMBEDDED:
        E = V @ spec.theta.T
        return E, _kernel_fwd(spec.inner, E, omega, VT)
    if spec.variant == RBF:
        h = float(spec.bandwidth)
        np.exp(-_squared_distances(V) / (2.0 * h * h), out=omega)
        return None
    # gaussian: exp(V V^T).
    np.copyto(VT, V.swapaxes(1, 2))
    np.matmul(V, VT, out=omega)
    np.exp(omega, out=omega)
    return None


def _kernel_bwd(spec: AffinityKernelSpec, V, omega, aux, dOmega, A, dV, AtV):
    """The gradient of the loss w.r.t. V given the gradient w.r.t. omega,
    written into ``dV`` and returned.  ``A`` (like omega) and ``AtV`` (like
    V) are scratch."""
    if spec.variant == DIRAC_DELTA:
        dV.fill(0.0)
        return dV
    if spec.variant == EMBEDDED:
        E, inner_aux = aux
        dE = _kernel_bwd(spec.inner, E, omega, inner_aux, dOmega, A, np.empty_like(E), np.empty_like(E))
        return np.matmul(dE, spec.theta, out=dV)
    if spec.variant == RBF:
        h = float(spec.bandwidth)
        # d(omega)/d(squared distance) brings a factor -1/(2h^2).
        np.multiply(dOmega, omega, out=A)
        np.multiply(A, -0.5 / (h * h), out=A)
        Bsym = A + A.swapaxes(1, 2)
        row = np.add.reduce(Bsym, axis=2)
        np.multiply(row[:, :, None], V, out=dV)
        np.subtract(dV, np.matmul(Bsym, V, out=AtV), out=dV)
        return np.multiply(2.0, dV, out=dV)
    # omega = exp(V V^T), so with A = dOmega * omega, dV = A V + A^T V.
    np.multiply(dOmega, omega, out=A)
    np.matmul(A, V, out=dV)
    np.matmul(A.swapaxes(1, 2), V, out=AtV)
    return np.add(dV, AtV, out=dV)


def _rownorm_fwd(omega: np.ndarray, P: np.ndarray, C: np.ndarray):
    """Row-normalize every sample into ``P``, which may be ``omega`` itself,
    and the row sums into ``C``; returns (P, C).

    The first degenerate row is reported with its sum: a sum not above
    DEGENERATE_ROW_SUM (nan included), or one that overflowed to inf
    (:class:`RowSumOverflowError`), which would turn the row into zeros.
    The caller runs this under ``np.errstate(over="ignore")`` if the
    overflow should not warn.
    """
    # np.add.reduce is np.sum without its Python wrapper, which adds about
    # a sixth to a row sum at a network's sizes.
    np.add.reduce(omega, axis=2, out=C)
    # A nan sum makes the minimum nan, so it fails the test too.
    if not (
        np.minimum.reduce(C, axis=None, initial=np.inf) > DEGENERATE_ROW_SUM
        and np.maximum.reduce(C, axis=None, initial=-np.inf) < np.inf
    ):
        b, i = np.argwhere(~((C > DEGENERATE_ROW_SUM) & (C < np.inf)))[0]
        raise _degenerate_row(int(i), float(C[b, i]))
    np.divide(omega, C[:, :, None], out=P)
    return P, C


def _degenerate_row(row: int, row_sum: float) -> DegenerateRowError:
    """The error for a row sum the normalizations cannot divide by."""
    if row_sum == np.inf:
        return RowSumOverflowError(row, row_sum)
    return DegenerateRowError(row, row_sum)


def _rownorm_bwd(dP, P, C, q, dOmega):
    """The gradient w.r.t. omega given dP, written into ``dOmega`` and
    returned; ``q`` is (B, M, 1) scratch."""
    # P = omega / C with C the row sum, so each row's gradient is the
    # centered dP row rescaled: (dP_ij - sum_l dP_il P_il) / C_i.
    np.add.reduce(np.multiply(dP, P, out=dOmega), axis=2, keepdims=True, out=q)
    np.subtract(dP, q, out=dOmega)
    return np.divide(dOmega, C[:, :, None], out=dOmega)


def _flags_from_entries(entries: np.ndarray) -> dict:
    sym = bool(np.max(np.abs(entries - entries.T)) <= FLAG_TOL) if entries.size else True
    nonneg = bool(np.min(entries) >= 0.0) if entries.size else True
    # Finite entries may still sum to inf; that row is then not stochastic.
    with np.errstate(over="ignore"):
        row_sums = entries.sum(axis=1)
        col_sums = entries.sum(axis=0)
    row_st = bool(np.max(np.abs(row_sums - 1.0)) <= FLAG_TOL)
    doubly = row_st and bool(np.max(np.abs(col_sums - 1.0)) <= FLAG_TOL)
    return {
        "symmetric": sym,
        "nonnegative": nonneg,
        "row_stochastic": row_st,
        "doubly_stochastic": doubly,
    }


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Dense affinity matrix with verified structural flags.

    The flags are measured from the entries at construction time (to
    FLAG_TOL), never asserted by callers, so a True flag is trustworthy.
    The entries are read-only, so the spectrum is computed at most once.
    """

    entries: np.ndarray = dc_field(repr=False)
    symmetric: bool
    nonnegative: bool
    row_stochastic: bool
    doubly_stochastic: bool

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_entries(cls, entries: np.ndarray) -> "KernelMatrix":
        A = np.asarray(entries, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"kernel entries must be square, got shape {A.shape}")
        if A.shape[0] < 1:
            raise ValueError("kernel must have at least one row")
        if not np.all(np.isfinite(A)):
            bad = np.argwhere(~np.isfinite(A))[0]
            raise NonFiniteError(f"non-finite kernel entry at ({bad[0]}, {bad[1]})")
        return cls(entries=_frozen_array(A), **_flags_from_entries(A))

    def spectrum(self):
        """(eigenvalues, eigenvectors) of the entries, as :func:`eig_symmetric`
        returns them; decomposed on the first call, read-only, then reused."""
        return self._decomposition

    @functools.cached_property
    def _decomposition(self):
        vals, vecs = _spectrum.eig_symmetric(self.entries)
        return _frozen_array(vals), _frozen_array(vecs)

    def flags(self) -> dict:
        return {
            "symmetric": self.symmetric,
            "nonnegative": self.nonnegative,
            "row_stochastic": self.row_stochastic,
            "doubly_stochastic": self.doubly_stochastic,
        }


def build_kernel_matrix(field: FeatureField, spec: AffinityKernelSpec) -> KernelMatrix:
    """Evaluate the affinity at every pair of positions (see :func:`_affinities`)."""
    return KernelMatrix.from_entries(_affinities(field.values, spec))


def _affinities(V: np.ndarray, spec: AffinityKernelSpec) -> np.ndarray:
    """The (M, M) affinity entries of one (M, d) field, without flags.

    The batched core runs on a batch of one; the upper triangle is then
    mirrored into the lower, so symmetric variants come out bitwise
    symmetric.  A non-finite affinity (for instance a gaussian overflow)
    is reported with its pair, the first in row-major order over the
    upper triangle.
    """
    if spec.variant == EMBEDDED:
        # Project here, not in the core: the median bandwidth below is
        # taken on the projected features.
        V = embed_field(FeatureField(V), spec.theta).values
        spec = spec.inner
    if spec.variant == RBF and spec.bandwidth is None:
        spec = AffinityKernelSpec(RBF, bandwidth=median_bandwidth(FeatureField(V)))
    M, d = V.shape
    omega = np.empty((1, M, M))
    with np.errstate(over="ignore"):
        _kernel_fwd(spec, V[None], omega, np.empty((1, d, M)))
    K = np.where(_upper_triangle(V.shape[0]), omega[0], omega[0].T)
    if not np.isfinite(K).all():
        # After the mirroring the first bad entry in row-major order lies
        # in the upper triangle: a lower one's mirror comes in an earlier row.
        i, j = np.argwhere(~np.isfinite(K))[0]
        raise NonFiniteError(f"affinity overflowed at pair ({i}, {j})")
    return K


@functools.lru_cache(maxsize=8)
def _upper_triangle(M: int) -> np.ndarray:
    """Read-only (M, M) mask of the upper triangle, diagonal included."""
    mask = np.triu(np.ones((M, M), dtype=bool))
    mask.setflags(write=False)
    return mask


def normalize_rows(K: KernelMatrix) -> KernelMatrix:
    """Divide each row by its sum.  Row stochastic out; symmetry not kept.

    Nonpositive sums are rejected too: flipping row signs is not a
    normalization.  So are sums of finite entries that overflow.
    """
    omega = K.entries[None]
    with np.errstate(over="ignore"):
        P, _ = _rownorm_fwd(omega, np.empty_like(omega), np.empty(omega.shape[:2]))
    return KernelMatrix.from_entries(P[0])


def sinkhorn_normalize(K: KernelMatrix, tol: float = SINKHORN_TOL) -> KernelMatrix:
    """Symmetric rescaling D K D toward the doubly stochastic limit.

    Requires a symmetric, entrywise nonnegative kernel with strictly
    positive row sums.  The same scaling vector is applied on both sides,
    so the output is symmetric by construction; it is re-symmetrized
    bitwise at the end to cancel roundoff drift.  After the residual
    reaches ``tol`` the iteration keeps polishing while it still improves,
    so the row sums usually land at machine precision rather than at tol.
    """
    if not K.symmetric:
        raise ValueError("sinkhorn normalization requires a symmetric kernel")
    if not K.nonnegative:
        raise ValueError("sinkhorn normalization requires nonnegative entries")
    A = K.entries
    M = K.size
    d = np.ones(M, dtype=np.float64)
    resid = np.inf
    reached_tol = False
    iterations = 0
    # A row sum of finite entries that overflows is reported as degenerate
    # below, not as a warning.
    with np.errstate(over="ignore"):
        for iterations in range(1, SINKHORN_MAX_ITERS + 1):
            r = A @ d
            bad = ~((r > DEGENERATE_ROW_SUM) & (r < np.inf))
            if bad.any():
                i = int(np.argmax(bad))
                raise _degenerate_row(i, float(d[i] * r[i]))
            new_resid = float(np.max(np.abs(d * r - 1.0)))
            if new_resid <= tol:
                reached_tol = True
                # Polish: keep going while the residual still shrinks.
                if new_resid <= 1e-15 or new_resid >= resid:
                    resid = min(resid, new_resid)
                    break
            resid = new_resid
            d = np.sqrt(d / r)
    if not reached_tol and resid > tol:
        raise ConvergenceError("sinkhorn normalization did not converge", resid, iterations)
    S = (d[:, None] * A) * d[None, :]
    S = 0.5 * (S + S.T)
    return KernelMatrix.from_entries(S)


def symmetric_stochastic_kernel(
    field: FeatureField,
    bandwidth: Optional[float] = None,
    tol: float = SINKHORN_TOL,
) -> KernelMatrix:
    """rbf kernel balanced to a symmetric doubly stochastic matrix.

    This is the standard construction the decay and stability checks run
    on: rbf guarantees positive entries, and Sinkhorn's tight default
    tolerance leaves the stochastic flags verified rather than approximate.
    """
    raw = build_kernel_matrix(field, AffinityKernelSpec(RBF, bandwidth=bandwidth))
    return sinkhorn_normalize(raw, tol=tol)
