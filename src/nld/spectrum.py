"""Weight-spectrum analysis: symmetrization, eigensolver, classification.

The damping behavior of a block is read off the eigenvalues of the
symmetric part of its weight matrix: the quadratic form z.T W z only sees
(W + W.T)/2, so the symmetrized spectrum carries the decay/growth story.

The eigensolver is a self-contained Jacobi iteration in round-robin
order: each round rotates m/2 disjoint planes at once, as a few
vectorized operations on two halves of the working matrix.  It is the
oracle every spectral claim in this package rests on, so it is written
from first principles and validated by reconstruction; the tests also
hold it to LAPACK, on their side only.
"""

from __future__ import annotations

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
    """(W + W.T)/2, the part of W the quadratic form actually sees."""
    A = np.asarray(W, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"symmetrize needs a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise NonFiniteError("symmetrize needs finite entries")
    return 0.5 * (A + A.T)


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


def eig_symmetric(A: np.ndarray):
    """Eigen-decomposition of a real symmetric matrix by round-robin Jacobi.

    Sweeps of plane rotations annihilate off-diagonal entries until the
    largest one falls below JACOBI_TOL * ||A||_F.  Each rotation in the (p, q)
    plane solves a 2x2 subproblem exactly; the accumulated rotations give
    orthonormal eigenvectors.

    A sweep visits every (p, q) pair once in m - 1 rounds of the
    round-robin tournament ordering (Brent & Luk 1985; Golub & Van Loan
    section 8.5), m being n rounded up to even.  The m/2 planes of a round
    are disjoint, so their rotations commute and a round is one vectorized
    2x2 solve followed by one row update and one column update.  The
    working matrix is kept permuted so that the pairs of a round sit at
    slots k and k + m/2: an update is then a few broadcast operations on
    two contiguous halves, and a permutation moves the indices on to the
    next round.  An odd n gets one zero dummy slot; its row and column
    stay zero, so its pair always falls under the threshold and is never
    rotated.

    Returns (eigenvalues, eigenvectors): eigenvalues sorted descending
    (stable sort, so exact ties keep their input order), eigenvectors
    as columns matching that order.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"eig_symmetric needs a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise NonFiniteError("eig_symmetric needs finite entries")
    if A.size and np.max(np.abs(A - A.T)) > 1e-12:
        raise ValueError("matrix is not symmetric within 1e-12; symmetrize first")

    n = A.shape[0]
    sym = 0.5 * (A + A.T)  # exact symmetry so the update algebra is clean
    fnorm = float(np.linalg.norm(sym))
    if n == 1 or fnorm == 0.0:
        vals = np.diag(sym).copy()
        order = np.argsort(-vals, kind="stable")
        return vals[order], np.eye(n)[:, order]
    thresh = JACOBI_TOL * fnorm

    m = n + n % 2
    h = m // 2
    # One buffer [a | V^T]: a row update rotates a and V together; the
    # column update touches a alone.  Rows and a's columns are slots.
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
                    # Smaller-magnitude root of t^2 + 2*tau*t - 1 = 0 keeps
                    # the rotation angle <= pi/4, which is what makes
                    # Jacobi stable.  A pair under the threshold gets t = 0,
                    # i.e. c = 1, s = 0, and is left as it is.
                    tau = diff / (2.0 * apq)
                    t = np.where(tau != 0.0, np.sign(tau) / (np.abs(tau) + np.hypot(1.0, tau)), 1.0)
                    t = np.where(np.abs(apq) < 1e-300 * np.abs(diff), apq / diff, t)
                    t = np.where(active, t, 0.0)
                    c = 1.0 / np.hypot(1.0, t)
                    s = t * c

                    # Two-sided rotation: rows (of a and V^T) first, then
                    # the columns of a.
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
    if not converged:
        off = np.abs(a - np.diag(np.diag(a)))
        resid = float(off.max())
        if resid > thresh:
            raise ConvergenceError("jacobi sweeps exhausted", resid, JACOBI_MAX_SWEEPS)

    # A whole number of sweeps leaves every index in its own slot.
    vals = np.diag(a)[:n].copy()
    order = np.argsort(-vals, kind="stable")
    return vals[order], buf[:n, m:].T[:, order]


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


def classify_spectrum(eigenvalues) -> str:
    """Apply the damping classification rule to a kept eigenvalue list."""
    return _classify(np.asarray(eigenvalues, dtype=np.float64))[2]


def spectrum_report(W: np.ndarray, top_k: int = DEFAULT_TOP_K) -> SpectrumReport:
    """Symmetrize, decompose, keep the top_k eigenvalues by value, classify."""
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    S = symmetrize(W)
    vals, _vecs = eig_symmetric(S)
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
