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
on minibatches and differentiates through it.  :func:`eval_affinity` is
the scalar, one-pair-at-a-time reference the tests hold the core to.

Two normalization routes are provided:

* :func:`normalize_rows` divides each row by its sum.  This is what the
  network formulations use; the result is row stochastic but generally
  not symmetric.
* :func:`sinkhorn_normalize` symmetrically rescales D K D toward a doubly
  stochastic limit.  This is the route that keeps the matrix symmetric,
  which the stability and decay analysis relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import ConvergenceError, DegenerateRowError, NonFiniteError
from .fields import FeatureField, _frozen_array

GAUSSIAN = "gaussian"
DOT_PRODUCT = "dot_product"
RBF = "rbf"
DIRAC_DELTA = "dirac_delta"
EMBEDDED = "embedded"

_VARIANTS = (GAUSSIAN, DOT_PRODUCT, RBF, DIRAC_DELTA, EMBEDDED)

# A flag is only set when the property holds to this tolerance.
FLAG_TOL = 1e-12

# Row sums at or below this magnitude cannot be normalized against.
DEGENERATE_ROW_SUM = 1e-300


@dataclass(frozen=True, eq=False)
class AffinityKernelSpec:
    """Declarative description of a pairwise affinity.

    variant      one of gaussian | dot_product | rbf | dirac_delta | embedded
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
            if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
                raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth!r}")
        if self.variant == EMBEDDED:
            if self.theta is None or self.inner is None:
                raise ValueError("embedded kernels need both theta and an inner spec")
            if self.inner.variant == EMBEDDED:
                raise ValueError("embedded kernels do not nest")
            th = np.asarray(self.theta, dtype=np.float64)
            if th.ndim != 2:
                raise ValueError(f"theta must be 2-d, got shape {th.shape}")
            if not np.all(np.isfinite(th)):
                raise NonFiniteError("theta must be finite")
            object.__setattr__(self, "theta", _frozen_array(th))
        elif self.theta is not None or self.inner is not None:
            raise ValueError("theta/inner only apply to the embedded variant")

    @classmethod
    def gaussian(cls) -> "AffinityKernelSpec":
        return cls(GAUSSIAN)

    @classmethod
    def dot_product(cls) -> "AffinityKernelSpec":
        return cls(DOT_PRODUCT)

    @classmethod
    def rbf(cls, bandwidth: Optional[float] = None) -> "AffinityKernelSpec":
        return cls(RBF, bandwidth=bandwidth)

    @classmethod
    def dirac_delta(cls) -> "AffinityKernelSpec":
        return cls(DIRAC_DELTA)

    @classmethod
    def embedded(cls, theta: np.ndarray, inner: "AffinityKernelSpec") -> "AffinityKernelSpec":
        return cls(EMBEDDED, theta=theta, inner=inner)


def median_bandwidth(field: FeatureField) -> float:
    """Median pairwise Euclidean distance, the default rbf bandwidth.

    Errors when the median is not strictly positive (all points coincide,
    or there is a single position), since a zero bandwidth is meaningless.
    """
    M = field.num_positions
    if M < 2:
        raise ValueError("median bandwidth needs at least two positions")
    d2 = _squared_distances(field.values[None])[0]
    dists = np.sqrt(d2[np.triu_indices(M, k=1)])
    med = float(np.median(dists))
    if not (med > 0.0):
        raise ValueError("median pairwise distance is zero; bandwidth undefined")
    return med


def resolve_bandwidth(spec: AffinityKernelSpec, field: FeatureField) -> float:
    """The bandwidth an rbf spec will actually use against this field."""
    if spec.variant != RBF:
        raise ValueError("resolve_bandwidth only applies to rbf specs")
    if spec.bandwidth is not None:
        return float(spec.bandwidth)
    return median_bandwidth(field)


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


def eval_affinity(spec: AffinityKernelSpec, i: int, j: int, field: FeatureField) -> float:
    """Affinity between positions i and j.  Scalar reference semantics.

    The dirac_delta variant compares *indices*, not feature values, so it
    stays an identity even when two positions carry equal features.
    """
    M = field.num_positions
    if not (0 <= i < M and 0 <= j < M):
        raise IndexError(f"position index out of range: ({i}, {j}) for M={M}")
    if spec.variant == DIRAC_DELTA:
        return 1.0 if i == j else 0.0
    if spec.variant == EMBEDDED:
        return eval_affinity(spec.inner, i, j, embed_field(field, spec.theta))
    xi = field.values[i]
    xj = field.values[j]
    with np.errstate(over="ignore"):
        if spec.variant == GAUSSIAN:
            w = float(np.exp(np.dot(xi, xj)))
        elif spec.variant == DOT_PRODUCT:
            w = float(np.dot(xi, xj))
        elif spec.variant == RBF:
            h = resolve_bandwidth(spec, field)
            diff = xi - xj
            w = float(np.exp(-np.dot(diff, diff) / (2.0 * h * h)))
        else:
            raise ValueError(f"unknown kernel variant {spec.variant!r}")
    if not np.isfinite(w):
        raise NonFiniteError(f"affinity overflowed: {w!r}")
    return w


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
    B, M, d = V.shape
    d2 = np.zeros((B, M, M))
    for c in range(d):
        diff = V[:, :, None, c] - V[:, None, :, c]
        d2 += diff * diff
    return d2


def _kernel_fwd(spec: AffinityKernelSpec, V: np.ndarray):
    """omega(V_i, V_j) for every sample; returns (omega, aux-for-backward).

    rbf specs must carry their bandwidth.  Overflow is left in the result
    as inf or nan; each caller checks and names it in its own terms.
    """
    B, M, _ = V.shape
    if spec.variant == DIRAC_DELTA:
        return np.broadcast_to(np.eye(M), (B, M, M)).copy(), None
    if spec.variant == EMBEDDED:
        E = V @ spec.theta.T
        omega, inner_aux = _kernel_fwd(spec.inner, E)
        return omega, (E, inner_aux)
    with np.errstate(over="ignore"):
        if spec.variant == RBF:
            h = float(spec.bandwidth)
            return np.exp(-_squared_distances(V) / (2.0 * h * h)), None
        G = V @ np.transpose(V, (0, 2, 1))
        if spec.variant == DOT_PRODUCT:
            return G, None
        if spec.variant == GAUSSIAN:
            return np.exp(G), None
    raise ValueError(f"unknown kernel variant {spec.variant!r}")


def _kernel_bwd(spec: AffinityKernelSpec, V: np.ndarray, omega: np.ndarray, aux, dOmega: np.ndarray):
    """Gradient of the loss w.r.t. V given the gradient w.r.t. omega."""
    if spec.variant == DIRAC_DELTA:
        return np.zeros_like(V)
    if spec.variant == EMBEDDED:
        E, inner_aux = aux
        dE = _kernel_bwd(spec.inner, E, omega, inner_aux, dOmega)
        return dE @ spec.theta
    if spec.variant == DOT_PRODUCT:
        A = dOmega
    elif spec.variant == GAUSSIAN:
        A = dOmega * omega
    elif spec.variant == RBF:
        h = float(spec.bandwidth)
        # d(omega)/d(squared distance) brings a factor -1/(2h^2).
        T = dOmega * omega * (-0.5 / (h * h))
        Bsym = T + np.transpose(T, (0, 2, 1))
        row = np.sum(Bsym, axis=2)
        return 2.0 * (row[:, :, None] * V - Bsym @ V)
    else:
        raise ValueError(f"unknown kernel variant {spec.variant!r}")
    # Gram-based variants share one rule: dV = A V + A^T V.
    return A @ V + np.transpose(A, (0, 2, 1)) @ V


def _rownorm_fwd(omega: np.ndarray):
    """Row-normalize every sample; returns (P, row sums).

    The first degenerate row (sum not above DEGENERATE_ROW_SUM, nan
    included) is reported with its sum.
    """
    C = np.sum(omega, axis=2)
    bad = ~(C > DEGENERATE_ROW_SUM)
    if bad.any():
        b, i = np.argwhere(bad)[0]
        raise DegenerateRowError(int(i), float(C[b, i]))
    return omega / C[:, :, None], C


def _rownorm_bwd(dP: np.ndarray, P: np.ndarray, C: np.ndarray) -> np.ndarray:
    # P = omega / C with C the row sum, so each row's gradient is the
    # centered dP row rescaled: (dP_ij - sum_l dP_il P_il) / C_i.
    q = np.sum(dP * P, axis=2, keepdims=True)
    return (dP - q) / C[:, :, None]


def _flags_from_entries(entries: np.ndarray) -> dict:
    sym = bool(np.max(np.abs(entries - entries.T)) <= FLAG_TOL) if entries.size else True
    nonneg = bool(np.min(entries) >= 0.0) if entries.size else True
    row_sums = entries.sum(axis=1)
    col_sums = entries.sum(axis=0)
    row_st = bool(np.max(np.abs(row_sums - 1.0)) <= FLAG_TOL)
    doubly = row_st and bool(np.max(np.abs(col_sums - 1.0)) <= FLAG_TOL)
    return {
        "symmetric": sym,
        "nonnegative": nonneg,
        "row_stochastic": row_st,
        "doubly_stochastic": doubly,
        "row_sums": row_sums,
    }


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Dense affinity matrix with verified structural flags.

    The flags are measured from the entries at construction time (to
    FLAG_TOL), never asserted by callers, so a True flag is trustworthy.
    """

    entries: np.ndarray = dc_field(repr=False)
    row_sums: np.ndarray = dc_field(repr=False)
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
        flags = _flags_from_entries(A)
        return cls(
            entries=_frozen_array(A),
            row_sums=_frozen_array(flags["row_sums"]),
            symmetric=flags["symmetric"],
            nonnegative=flags["nonnegative"],
            row_stochastic=flags["row_stochastic"],
            doubly_stochastic=flags["doubly_stochastic"],
        )

    def flags(self) -> dict:
        return {
            "symmetric": self.symmetric,
            "nonnegative": self.nonnegative,
            "row_stochastic": self.row_stochastic,
            "doubly_stochastic": self.doubly_stochastic,
        }


def build_kernel_matrix(field: FeatureField, spec: AffinityKernelSpec) -> KernelMatrix:
    """Evaluate the affinity at every pair of positions.

    The batched core runs on a batch of one; the upper triangle is then
    mirrored into the lower, so symmetric variants come out bitwise
    symmetric.  A non-finite affinity (for instance a gaussian overflow)
    is reported with its pair, the first in row-major order over the
    upper triangle.
    """
    work_field = field
    work_spec = spec
    if spec.variant == EMBEDDED:
        # Project here, not in the core: the median bandwidth below is
        # taken on the projected features.
        work_field = embed_field(field, spec.theta)
        work_spec = spec.inner
    if work_spec.variant == RBF and work_spec.bandwidth is None:
        work_spec = AffinityKernelSpec.rbf(median_bandwidth(work_field))
    omega, _ = _kernel_fwd(work_spec, work_field.values[None])
    K = omega[0]
    lower = np.tril_indices(field.num_positions, k=-1)
    K[lower] = K.T[lower]
    bad = ~np.isfinite(K)
    if bad.any():
        # After the mirroring the first bad entry in row-major order lies
        # in the upper triangle: a lower one's mirror comes in an earlier row.
        i, j = np.argwhere(bad)[0]
        raise NonFiniteError(f"affinity overflowed at pair ({i}, {j})")
    return KernelMatrix.from_entries(K)


def normalize_rows(K: KernelMatrix) -> KernelMatrix:
    """Divide each row by its sum.  Row stochastic out; symmetry not kept.

    Nonpositive sums are rejected too: flipping row signs is not a
    normalization.
    """
    P, _ = _rownorm_fwd(K.entries[None])
    return KernelMatrix.from_entries(P[0])


def sinkhorn_normalize(
    K: KernelMatrix, max_iters: int = 10000, tol: float = 1e-10
) -> KernelMatrix:
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
    for iterations in range(1, max_iters + 1):
        r = A @ d
        bad = ~(r > DEGENERATE_ROW_SUM)
        if bad.any():
            i = int(np.argmax(bad))
            raise DegenerateRowError(i, float(d[i] * r[i]))
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


def frobenius_norm(K) -> float:
    """Frobenius norm of a KernelMatrix or a plain 2-d array."""
    entries = K.entries if isinstance(K, KernelMatrix) else np.asarray(K, dtype=np.float64)
    return float(np.linalg.norm(entries))


def symmetric_stochastic_kernel(
    field: FeatureField,
    bandwidth: Optional[float] = None,
    tol: float = 1e-13,
    max_iters: int = 10000,
) -> KernelMatrix:
    """rbf kernel balanced to a symmetric doubly stochastic matrix.

    This is the standard construction the decay and stability checks run
    on: rbf guarantees positive entries, and the tight default tolerance
    leaves the stochastic flags verified rather than approximate.
    """
    raw = build_kernel_matrix(field, AffinityKernelSpec.rbf(bandwidth))
    return sinkhorn_normalize(raw, max_iters=max_iters, tol=tol)
