"""Weight-spectrum analysis: symmetrization, eigensolver, classification.

The damping behavior of a block is read off the eigenvalues of the
symmetric part of its weight matrix: the quadratic form z.T W z only sees
(W + W.T)/2, so the symmetrized spectrum carries the decay/growth story.

The eigensolver is a self-contained Jacobi iteration in round-robin
order: each round rotates m/2 disjoint planes at once.  The working
matrix [a | V^T] is stored as contiguous quadrant blocks, so a round's
row and column updates are a few vectorized operations on whole h x h
blocks, and one gather moves the slots on to the next round.  A caller
that needs no eigenvectors asks for ``vectors=False``, and the working
array then holds only a's two column quarters: ``spectrum_report`` does
so, while ``KernelMatrix.spectrum`` keeps the vectors.  It is the
oracle every spectral claim in this package rests on, so it is written
from first principles and validated by reconstruction; the tests also
hold it to LAPACK, and bit for bit to the plain two-halves form of the
same iteration, on their side only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NonFiniteError

# Eigenvalues within this of zero count as zero in classification.
ZERO_TOL = 1e-12

# A positive eigenvalue above this counts as "large" for the unstable rule.
UNSTABLE_THRESHOLD = 1e-3

DEFAULT_TOP_K = 32

# Jacobi stops once no off-diagonal entry exceeds this times ||A||_F,
# and gives up after this many sweeps.
JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


def symmetrize(W: np.ndarray) -> np.ndarray:
    """(W + W.T)/2, the part of W the quadratic form actually sees.

    It is computed as W/2 + W.T/2, so finite entries near the largest
    float cannot overflow in the sum; halving is exact above the subnormal
    range, so elsewhere the bits are those of 0.5 * (W + W.T).
    """
    A = np.asarray(W, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"symmetrize needs a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise NonFiniteError("symmetrize needs finite entries")
    return 0.5 * A + 0.5 * A.T


def _round_robin_shift(m: int) -> np.ndarray:
    """Slot permutation that takes one round-robin round to the next.

    In a round, slot k is paired with slot k + m/2.  Slot 0 stays put and
    every other slot's index moves one step along the cycle
    1 -> 2 -> ... -> m/2 - 1 -> m - 1 -> m - 2 -> ... -> m/2 -> 1, so over
    m - 1 rounds every pair of indices meets exactly once and the layout
    comes back to where it started.
    """
    h = m // 2
    cycle = np.concatenate((np.arange(1, h), np.arange(m - 1, h - 1, -1)))
    sigma = np.arange(m)
    sigma[cycle] = np.roll(cycle, 1)
    return sigma


def _round_robin_gather(m: int, quarters: int) -> np.ndarray:
    """Flat gather index of one round's permutation on the quadrant layout.

    The working array of :func:`eig_symmetric` has shape (2, Q, h, h),
    h = m/2, Q = ``quarters``: entry [r, b, i, j] is row slot r*h + i and
    column slot b*h + j of [a | V^T] (Q = 4) or of a alone (Q = 2).
    ``flat.take(index)`` puts at row slot p the row at slot shift[p],
    shift = ``_round_robin_shift(m)``, and does the same to a's column
    slots; V^T's columns are eigenvector components and stay put.  The
    index is one broadcast sum of a (2, 1, h, 1) row term and a
    (1, Q, 1, h) column term, so no other m^2-sized array is built.
    """
    h = m // 2
    hh = h * h
    src_half, src_slot = np.divmod(_round_robin_shift(m), h)
    rows = src_half * (quarters * hh) + src_slot * h
    cols = np.arange(0, quarters * hh, hh)[:, None] + np.arange(h)
    cols[:2] = (src_half * hh + src_slot).reshape(2, h)
    return rows.reshape(2, 1, h, 1) + cols.reshape(1, quarters, 1, h)


def _scale_and_threshold(sym: np.ndarray) -> tuple:
    """(scale, JACOBI_TOL * ||sym||_F / 2**scale) for a nonzero matrix.

    The norm is taken on sym / 2**e, its largest entry scaled into
    [1/2, 1), so the sum of squares neither overflows nor underflows.
    Scaling by a power of two is exact: in the normal range this is
    bitwise JACOBI_TOL * np.linalg.norm(sym), which is sqrt(x.dot(x)).
    Within 2**+-900 no rotation overflows and the threshold is a normal
    number, so scale is 0 there; a matrix outside that range is rotated
    at 2**-e (scale = e) and its eigenvalues are scaled back.
    """
    e = math.frexp(float(np.max(np.abs(sym))))[1]
    x = np.ldexp(sym, -e).ravel()
    scale = e if abs(e) > 900 else 0
    return scale, math.ldexp(JACOBI_TOL * math.sqrt(x.dot(x)), e - scale)


def _quadrants(a: np.ndarray, m: int, quarters: int) -> np.ndarray:
    """[a | I] (quarters = 4) or a (quarters = 2), zero-padded to m rows
    and quarters * m/2 columns, as (2, quarters, m/2, m/2) quadrant
    blocks: [r, b, i, j] is row r*m/2 + i, column b*m/2 + j."""
    n = len(a)
    h = m // 2
    full = np.zeros((m, quarters * h))
    full[:n, :n] = a
    if quarters == 4:
        full[:n, m:m + n] = np.eye(n)
    return full.reshape(2, h, quarters, h).transpose(0, 2, 1, 3).copy()


def _pair_entries(B: np.ndarray) -> tuple:
    """Writable views of a[k, k], a[k, k+h], a[k+h, k] and a[k+h, k+h].

    They are the diagonals of the quadrant blocks B[0, 0], B[0, 1],
    B[1, 0] and B[1, 1], that is flat quadrants 0, 1, Q and Q + 1 for
    Q = B.shape[1] column quarters: strided slices of the flat buffer,
    which B (C-contiguous) shares.
    """
    quarters, h = B.shape[1], B.shape[-1]
    flat = B.reshape(-1)
    hh = h * h
    return tuple(flat[q * hh:(q + 1) * hh:h + 1] for q in (0, 1, quarters, quarters + 1))


def eig_symmetric(A: np.ndarray, *, vectors: bool = True):
    """Eigen-decomposition of a real symmetric matrix by round-robin Jacobi.

    Sweeps of plane rotations annihilate off-diagonal entries until the
    largest one falls below JACOBI_TOL * ||A||_F.  Each rotation in the (p, q)
    plane solves a 2x2 subproblem exactly; the accumulated rotations give
    orthonormal eigenvectors.  The norm is taken on A scaled by a power of
    two, so it neither overflows nor underflows at any finite scale, and a
    matrix with entries beyond 2**+-900 is rotated at such a scale too.  An
    eigenvalue beyond the float64 range raises NonFiniteError.

    A sweep visits every (p, q) pair once in m - 1 rounds of the
    round-robin tournament ordering (Brent & Luk 1985; Golub & Van Loan
    section 8.5), m being n rounded up to even.  The m/2 planes of a round
    are disjoint, so their rotations commute and a round is one vectorized
    2x2 solve followed by one row update and one column update.  The
    working matrix is kept permuted so that the pairs of a round sit at
    slots k and k + h, h = m/2.  An odd n gets one zero dummy slot; its row
    and column stay zero, so its pair always falls under the threshold and
    is never rotated.

    Layout: a and V^T (padded to m columns) are stored together as
    quadrant blocks B[r, b] of shape (h, h), for row half r and column
    quarter b (b = 0, 1 for a's halves, 2, 3 for V^T's).  The row update
    then runs on B[0] against B[1] and the column update on B[:, 0]
    against B[:, 1]: every operand is a contiguous h x h block, where
    a's strided column halves cost about twice as much per operation.
    The pair entries are block diagonals, viewed once per buffer, and the
    permutation between rounds is one gather (``_round_robin_gather``)
    into a second buffer.  Every elementwise operation has the operands
    of the plain two-halves update in the same order, so the layout moves
    no bit.  With ``vectors=False`` the array holds only a's quarters,
    shape (2, 2, h, h), so a round's row update and gather move half as
    much; every operation on a's entries is the same, so the eigenvalues
    are bitwise those computed with the vectors.  ``spectrum_report``
    takes this path; ``KernelMatrix.spectrum`` keeps the vectors.

    Returns (eigenvalues, eigenvectors): eigenvalues sorted descending
    (stable sort, so exact ties keep their input order), eigenvectors
    as columns matching that order, or None with ``vectors=False``.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"eig_symmetric needs a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise NonFiniteError("eig_symmetric needs finite entries")
    if A.size and np.max(np.abs(A - A.T)) > 1e-12:
        raise ValueError("matrix is not symmetric within 1e-12; symmetrize first")

    n = A.shape[0]
    sym = 0.5 * A + 0.5 * A.T  # exact symmetry so the update algebra is clean
    if n == 1 or not sym.any():
        vals = np.diag(sym).copy()
        order = np.argsort(-vals, kind="stable")
        return vals[order], np.eye(n)[:, order] if vectors else None
    # The helpers' temporaries are freed before the sweeps start.
    scale, thresh = _scale_and_threshold(sym)
    m = n + n % 2
    h = m // 2
    quarters = 4 if vectors else 2
    B = _quadrants(np.ldexp(sym, -scale), m, quarters)
    spare = np.empty_like(B)
    cur, nxt = (B, _pair_entries(B)), (spare, _pair_entries(spare))
    index = _round_robin_gather(m, quarters)
    # A round's c and s, down the rows (row update) and across the
    # columns (column update), so that no operand broadcasts.
    c_rows, s_rows, c_cols, s_cols = np.empty((4, h, h))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for sweep in range(JACOBI_MAX_SWEEPS + 1):
            # The largest off-diagonal |a| entry: a's diagonal is that of
            # the quadrants B[0, 0] and B[1, 1].
            off = np.abs(cur[0][:, :2])
            np.fill_diagonal(off[0, 0], 0.0)
            np.fill_diagonal(off[1, 1], 0.0)
            resid = float(off.max())
            if resid <= thresh:
                break
            if sweep == JACOBI_MAX_SWEEPS:
                raise ConvergenceError("jacobi sweeps exhausted", resid, JACOBI_MAX_SWEEPS)
            for _round in range(m - 1):
                B, (app, apq, aqp, aqq) = cur
                active = np.abs(apq) > thresh
                if active.any():
                    # Smaller-magnitude root of t^2 + 2*tau*t - 1 = 0 keeps
                    # the rotation angle <= pi/4, which is what makes
                    # Jacobi stable; tau = +-0 gives t = 1.  A pair under
                    # the threshold gets t = 0, i.e. c = 1, s = 0, and is
                    # left as it is.
                    diff = aqq - app
                    tau = diff / (2.0 * apq)
                    abs_tau = np.abs(tau)
                    t = np.copysign(1.0 / (abs_tau + np.hypot(1.0, tau)), tau + 0.0)
                    # |apq| < 1e-300 |diff| makes |tau| > 5e299, so below
                    # 1e299 (and not nan) the guard cannot fire.
                    if not abs_tau.max() < 1e299:
                        t = np.where(np.abs(apq) < 1e-300 * np.abs(diff), apq / diff, t)
                    t[~active] = 0.0
                    c = 1.0 / np.hypot(1.0, t)
                    s = t * c
                    c_rows[...] = c[:, None]
                    s_rows[...] = s[:, None]
                    c_cols[...] = c
                    s_cols[...] = s

                    # Two-sided rotation: rows (of a, and of V^T if kept)
                    # first, then the columns of a.
                    top, bottom = B[0], B[1]
                    tmp = top * s_rows
                    top *= c_rows
                    top -= bottom * s_rows
                    bottom *= c_rows
                    bottom += tmp
                    left, right = B[:, 0], B[:, 1]
                    tmp = left * s_cols
                    left *= c_cols
                    left -= right * s_cols
                    right *= c_cols
                    right += tmp
                    apq[active] = 0.0
                    aqp[active] = 0.0
                # Every index is in range; a mode other than "raise"
                # writes into out without buffering.
                np.take(B.reshape(-1), index, out=nxt[0], mode="wrap")
                cur, nxt = nxt, cur

    # A whole number of sweeps leaves every index in its own slot.
    B, (app, _, _, aqq) = cur
    with np.errstate(over="ignore"):
        vals = np.ldexp(np.concatenate((app, aqq))[:n], scale)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteError("an eigenvalue is beyond the float64 range")
    order = np.argsort(-vals, kind="stable")
    if not vectors:
        return vals[order], None
    vt = B[:, 2:].transpose(0, 2, 1, 3).reshape(m, m)
    return vals[order], vt[:n, :n].T[:, order]


@dataclass(frozen=True)
class SpectrumReport:
    """Top-k symmetrized eigenvalues with sign counts and a damping verdict.

    classification is one of:
      damping_dominant  largest-magnitude kept eigenvalue is negative and
                        negatives outnumber positives
      unstable          kept eigenvalues above the large-positive threshold
                        outnumber all negatives
      mixed             everything else
    """

    eigenvalues: tuple
    num_positive: int
    num_negative: int
    max_abs: float
    top_k: int
    classification: str

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": list(self.eigenvalues),
            "classification": self.classification,
            "counts": {
                "positive": self.num_positive,
                "negative": self.num_negative,
                "zero": len(self.eigenvalues) - self.num_positive - self.num_negative,
            },
            "max_abs": self.max_abs,
            "top_k": self.top_k,
        }

    def to_csv(self) -> str:
        lines = ["index,value"]
        for idx, v in enumerate(self.eigenvalues):
            lines.append(f"{idx},{v!r}")
        return "\n".join(lines) + "\n"


def _classify(vals: np.ndarray):
    """(number positive, number negative, classification) of kept eigenvalues."""
    num_pos = int(np.sum(vals > ZERO_TOL))
    num_neg = int(np.sum(vals < -ZERO_TOL))
    largest = vals[int(np.argmax(np.abs(vals)))] if vals.size else 0.0
    if largest < -ZERO_TOL and num_neg > num_pos:
        return num_pos, num_neg, "damping_dominant"
    if int(np.sum(vals > UNSTABLE_THRESHOLD)) > num_neg:
        return num_pos, num_neg, "unstable"
    return num_pos, num_neg, "mixed"


def spectrum_report(W: np.ndarray, top_k: int = DEFAULT_TOP_K) -> SpectrumReport:
    """Symmetrize, decompose, keep the top_k eigenvalues by value, classify."""
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    S = symmetrize(W)
    vals, _ = eig_symmetric(S, vectors=False)
    k = min(int(top_k), len(vals))
    kept = vals[:k]
    num_pos, num_neg, classification = _classify(kept)
    max_abs = float(np.max(np.abs(kept))) if kept.size else 0.0
    return SpectrumReport(
        eigenvalues=tuple(float(v) for v in kept),
        num_positive=num_pos,
        num_negative=num_neg,
        max_abs=max_abs,
        top_k=k,
        classification=classification,
    )
