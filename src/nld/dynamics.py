"""The nonlocal operators, their time evolution and the decay theory checks.

Three operators act on a feature field Z:

* the linear diffusion operator, (L Z)_i = sum_j K_ij (Z_j - Z_i), with K
  a fixed stochastic kernel.  Rows of K sum to 1, so this is K Z - Z.
* the original block's nonlinear operator, rownorm(omega(Z)) Z: the
  kernel re-evaluated on Z itself, row-normalized and applied to Z.  Its
  dependence on Z is what makes it nonlinear.
* the Markov operator Z -> K Z for nonnegative row-stochastic K.

Application is matrix-free O(M^2 d).  Three steppers share one evolve
loop, one operator each.  Each stepper's ``step`` is the one
implementation of its update: it reads the bare (M, d) state array and
writes the next one in place into a caller-owned array.  The weights w
are scalars, one per step or one for all:

* proposed: Z <- Z + w (K Z - Z) with the kernel K fixed for the whole
  run (it was computed from the stage input once); the explicit Euler step
  of dZ/dt = (K - I) Z.
* original: Z <- Z + w rownorm(omega(Z)) Z, kernel rebuilt on the
  current state every step, from the same affinity entries
  ``build_kernel_matrix`` wraps but without its structural flags.
  Nonlinear, and the source of the instability this package exists to
  demonstrate.
* markov:   Z <- K Z, the plain jump-process evolution.

``evolve`` checks a fixed kernel against the field once per run.  It
steps the states straight into the rows of a block of up to
STATS_BLOCK_BYTES and MAX_BLOCK_STATES of states (at least two), and once
per block checks each state's largest magnitude against BLOWUP_LIMIT and
computes the block's statistics, bitwise as state by state.  It keeps
them, not the states, in the read-only columns of a
:class:`TrajectoryRecord`, one row per state: ``mean`` (steps + 1, d) and
``variance``, ``l2_norm`` and ``dist_to_mean``.

A stable fixed-kernel run contracts to its mean and, in float64, reaches
a state that repeats bit for bit, often within a few hundred steps.
Every stepper declares whether its step depends on n; one that does not
(markov, and proposed or original with one weight for all steps) is
``autonomous``: its next state is a function of the bits of the current
one.  For such a stepper, once a full block's last state equals, bit for
bit, an earlier state of the block, ``evolve`` stops stepping and repeats
the statistics of the cycle to the end.  Each statistic is a bitwise function of its own state,
so the record is the one full stepping would give.

On top of the trajectories sit the verification routines: mean
preservation, variance decay (with the one-step energy identity), the
exponential decay-rate fit against the spectral gap and the discrete
Poincare constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import BandwidthError, BlowUpError, InsufficientDataError, NonFiniteError
from .fields import FeatureField
from .kernels import AffinityKernelSpec, KernelMatrix, _affinities, _rownorm_fwd, _squared_distances

# Evolution aborts once any entry magnitude passes this.
BLOWUP_LIMIT = 1e12

# Distances below this are floating-point noise; the decay fit skips them.
FIT_FLOOR = 1e-12

# The largest drift of a channel mean that still counts as preserved.
MEAN_TOL = 1e-10

# The largest one-step variance increase that still counts as decay.
VARIANCE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class StageWeights:
    """Per-sub-step scalar weights.

    A single entry broadcasts to any number of steps; otherwise the list
    must cover every step taken.
    """

    per_step: tuple

    def __post_init__(self):
        if len(self.per_step) < 1:
            raise ValueError("weights need at least one entry")
        norm = []
        for w in self.per_step:
            if not isinstance(w, (int, float)):
                raise ValueError(f"a weight must be a number, got {type(w).__name__}")
            w = float(w)
            if not np.isfinite(w):
                raise ValueError("scalar weight must be finite")
            norm.append(w)
        object.__setattr__(self, "per_step", tuple(norm))

    @classmethod
    def coerce(cls, weights) -> "StageWeights":
        if isinstance(weights, StageWeights):
            return weights
        if isinstance(weights, (list, tuple)):
            return cls(tuple(weights))
        return cls((weights,))

    def at(self, n: int, total: int):
        if len(self.per_step) == 1:
            return self.per_step[0]
        if len(self.per_step) < total:
            raise ValueError(f"{len(self.per_step)} weights cannot cover {total} steps")
        return self.per_step[n]


def _check_diffusion(K: KernelMatrix, num_positions: int) -> None:
    if K.size != num_positions:
        raise ValueError(
            f"kernel is {K.size}x{K.size} but the field has {num_positions} positions"
        )
    if not K.row_stochastic:
        raise ValueError("diffusion needs a row- or doubly-stochastic kernel (normalize first)")


def apply_diffusion(K: KernelMatrix, Z: FeatureField) -> FeatureField:
    """(L Z)_i = sum_j K_ij (Z_j - Z_i), channel-wise.

    The stochastic precondition means sum_j K_ij = 1, so the result is
    computed as K Z - Z; that makes the Markov / stage equivalence an
    identity rather than an approximation.
    """
    _check_diffusion(K, Z.num_positions)
    return FeatureField(K.entries @ Z.values - Z.values)


def _block_stats(S: np.ndarray, work: Optional[np.ndarray] = None):
    """The (mean, variance, l2_norm, dist_to_mean) columns of a (k, M, d) stack.

    Every entry is bitwise what the state alone would give.  The mean is
    numpy's axis-0 mean of each (M, d) state: for d > 1 numpy sums that
    axis row after row, which ``np.add.reduce`` does over a positions-major
    (M, k d) copy of the stack without the length-d inner loop of
    ``S.mean(axis=1)``; for d = 1 numpy sums pairwise, and
    ``S.mean(axis=1)`` is kept.  Each norm is one ddot per state
    (``np.vecdot``, numpy 2.0 on, as ``np.linalg.norm`` computes it).
    ``work`` is scratch of at least ``S.size`` floats, allocated when not
    given.
    """
    k, M, d = S.shape
    if work is None:
        work = np.empty(S.size)
    # Viewed as one void item per position, a copy moves d floats at a time.
    item = np.dtype((np.void, S.itemsize * d))
    scratch = work[: S.size]
    if d == 1:
        means = S.mean(axis=1)
    else:
        T = scratch.reshape(M, k * d)
        np.copyto(T.view(item), S.view(item).reshape(k, M).T)
        means = (np.add.reduce(T, axis=0) / M).reshape(k, d)
    # The centered states: the means tiled state-major, subtracted in place.
    flat = S.reshape(k, -1)
    centered = scratch.reshape(k, -1)
    np.copyto(centered.view(item), means.view(item))
    np.subtract(flat, centered, out=centered)
    dist = np.sqrt(np.vecdot(centered, centered))
    l2 = np.sqrt(np.vecdot(flat, flat))
    return means, dist * dist / M, l2, dist


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Stats of an evolution in read-only columns, the initial state first."""

    mean: np.ndarray = dc_field(repr=False)
    variance: np.ndarray = dc_field(repr=False)
    l2_norm: np.ndarray = dc_field(repr=False)
    dist_to_mean: np.ndarray = dc_field(repr=False)
    stepper: str
    kernel_flags: Optional[dict] = dc_field(default=None)

    def __post_init__(self):
        for column in (self.mean, self.variance, self.l2_norm, self.dist_to_mean):
            column.setflags(write=False)

    @property
    def steps(self) -> int:
        return len(self.variance) - 1

    def to_csv(self) -> str:
        d = self.mean.shape[1]
        header = ["step"] + [f"mean_{c}" for c in range(d)] + ["variance", "l2", "dist_to_mean"]
        lines = [",".join(header)]
        table = np.column_stack((self.mean, self.variance, self.l2_norm, self.dist_to_mean))
        # Each distinct row is formatted once.  Sorted by their bits, equal
        # rows sit side by side; -0.0 and 0.0 differ.
        bits = table.view(np.uint64)
        order = np.lexsort(bits.T)
        new = np.ones(len(order), dtype=bool)
        new[1:] = np.any(bits[order[1:]] != bits[order[:-1]], axis=1)
        which = np.empty_like(order)
        which[order] = np.cumsum(new) - 1
        tails = [",".join([repr(x) for x in row]) for row in table[order[new]].tolist()]
        lines += [f"{n},{tails[k]}" for n, k in enumerate(which.tolist())]
        return "\n".join(lines) + "\n"


# A stepper has a ``name``, a ``kernel``, an ``autonomous`` flag and
# ``step(Z, n, total, out)``, which writes the state after step n of
# ``total`` into the caller-owned (M, d) array ``out`` and returns it.
# ``out`` never aliases the state array ``Z``.  A ``kernel`` that is not
# None is checked against the field once per run.  ``autonomous`` is true
# when the step reads only the bits of ``Z``, not n or total, so evolve may
# stop at a repeated state.


class ProposedStepper:
    """Fixed-kernel linear stage; weights may vary per sub-step."""

    name = "proposed"

    def __init__(self, kernel: KernelMatrix, weights):
        self.kernel = kernel
        self.weights = StageWeights.coerce(weights)
        self.autonomous = len(self.weights.per_step) == 1

    def step(self, Z: np.ndarray, n: int, total: int, out: np.ndarray) -> np.ndarray:
        # Z + w (K Z - Z), bitwise.
        np.matmul(self.kernel.entries, Z, out=out)
        out -= Z
        out *= self.weights.at(n, total)
        out += Z
        return out


class OriginalStepper:
    """Kernel re-evaluated on the current state every step."""

    name = "original"
    kernel = None

    def __init__(self, spec: AffinityKernelSpec, weights):
        self.spec = spec
        self.weights = StageWeights.coerce(weights)
        self.autonomous = len(self.weights.per_step) == 1

    def step(self, Z: np.ndarray, n: int, total: int, out: np.ndarray) -> np.ndarray:
        # The affinities are this step's own, so P overwrites them.
        omega = _affinities(Z, self.spec)[None]
        P, _ = _rownorm_fwd(omega, omega, np.empty(omega.shape[:2]))
        # Z + w (P Z), bitwise.
        np.matmul(P[0], Z, out=out)
        out *= self.weights.at(n, total)
        out += Z
        return out


class MarkovStepper:
    """Plain jump-process evolution Z <- K Z."""

    name = "markov"
    autonomous = True

    def __init__(self, kernel: KernelMatrix):
        if not kernel.nonnegative:
            raise ValueError("a Markov matrix must be entrywise nonnegative")
        if not kernel.row_stochastic:
            raise ValueError("a Markov matrix must be row stochastic")
        self.kernel = kernel

    def step(self, Z: np.ndarray, n: int, total: int, out: np.ndarray) -> np.ndarray:
        return np.matmul(self.kernel.entries, Z, out=out)


# evolve steps the states into a block of as many as fit in this many
# bytes (64 states at M = 256, d = 4), and of at least two, so that a step
# never writes the state it reads.  One more block-sized array is the
# scratch of the block's check and statistics, reused for every block.
STATS_BLOCK_BYTES = 1 << 19

# A block holds no more states than this, so that small states are checked
# for a blow-up, and for a repeat, at least this often.
MAX_BLOCK_STATES = 1024


def _repeat_period(states: np.ndarray) -> int:
    """The smallest p with ``states[-1]`` bit for bit ``states[-1 - p]``, or 0.

    The states are compared as uint64, so -0.0 and 0.0 differ.  One entry
    in which the last two states differ rules out most states; only the
    states that match the last one there are compared whole.
    """
    bits = states.reshape(len(states), -1).view(np.uint64)
    last = bits[-1]
    differs = np.flatnonzero(bits[-2] != last)
    if not differs.size:
        return 1
    k = differs[0]
    for i in np.flatnonzero(bits[:-2, k] == last[k])[::-1]:
        if np.array_equal(bits[i], last):
            return len(states) - 1 - int(i)
    return 0


def evolve(Z0: FeatureField, stepper, num_steps: int) -> TrajectoryRecord:
    """Run ``num_steps`` of the stepper, recording stats at every state.

    A non-finite entry or one beyond BLOWUP_LIMIT aborts with
    :class:`BlowUpError` (a NaN is reported as max abs inf); so does a
    step that raises :class:`NonFiniteError` (a
    :class:`RowSumOverflowError` included) or :class:`BandwidthError`,
    which becomes the error's ``cause``.  The partial record (up to the
    last healthy state) rides along on the exception.
    Each step writes its state in place into the next row of a block of
    states.  Once per block, every state in it after the initial one is
    checked, then the block's stats are computed.  The states of a block
    are checked before a step's error is reported, so the first state past
    the limit is reported as it would be if each state were checked as soon
    as it was made.
    For an autonomous stepper, a full block whose last state q equals
    its state q - p bit for bit ends the stepping: the state after q would
    be the one after q - p, so the stats of states q - p + 1 .. q are
    repeated in order up to ``num_steps``.  Every state that was computed
    was checked; the repeated ones are copies of checked ones.
    """
    if num_steps < 0:
        raise ValueError("num_steps must be nonnegative")
    flags = None
    if stepper.kernel is not None:
        _check_diffusion(stepper.kernel, Z0.num_positions)
        flags = stepper.kernel.flags()
    Z = Z0.values
    # mean, variance, l2_norm and dist_to_mean, one row per state.
    columns = (np.empty((num_steps + 1, Z.shape[1])), *np.empty((3, num_steps + 1)))
    rows = max(2, min(num_steps + 1, STATS_BLOCK_BYTES // Z.nbytes, MAX_BLOCK_STATES))
    block = np.empty((rows,) + Z.shape)
    work = np.empty(block.size)
    block[0] = Z
    # The block holds states start .. start + filled - 1.
    start, filled = 0, 1

    def flush() -> None:
        """Check the block's states, then write their stats.

        The first state past BLOWUP_LIMIT raises :class:`BlowUpError`, with
        the stats written up to the state before it.
        """
        count, worst = filled, None
        lo = 0 if start else 1  # the initial state is not checked
        if count > lo:
            states = block[lo:count].reshape(count - lo, -1)
            absolute = np.abs(states, out=work[: states.size].reshape(states.shape))
            max_abs = np.maximum.reduce(absolute, axis=1)
            bad = np.flatnonzero(~(max_abs <= BLOWUP_LIMIT))
            if bad.size:
                count, worst = lo + int(bad[0]), float(max_abs[bad[0]])
        if count:
            for column, stat in zip(columns, _block_stats(block[:count], work)):
                column[start : start + count] = stat
        if worst is not None:
            raise BlowUpError(start + count, float("inf") if math.isnan(worst) else worst, record(count))

    def record(count: int) -> TrajectoryRecord:
        return TrajectoryRecord(*(c[: start + count] for c in columns), stepper.name, flags)

    # Overflow surfaces as the blow-up check, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(num_steps):
            if filled == rows:
                flush()
                period = stepper.autonomous and _repeat_period(block)
                if period:
                    # States n + 1 .. num_steps repeat states n - period + 1 .. n.
                    source = n + 1 - period + np.arange(num_steps - n) % period
                    for column in columns:
                        column[n + 1 :] = column[source]
                    return record(num_steps + 1 - start)
                start, filled = start + rows, 0
            out = block[filled]
            try:
                stepper.step(Z, n, num_steps, out)
            except (BandwidthError, NonFiniteError) as err:
                # This step's affinities or a row sum overflowed, or its
                # median bandwidth is unusable: no next state exists.
                # An earlier state of the block may have blown up first.
                flush()
                raise BlowUpError(n + 1, float("inf"), record(filled), err) from err
            Z = out
            filled += 1
        flush()
    return record(filled)


@dataclass(frozen=True)
class StabilityVerdict:
    spectral_radius: float
    stable: bool
    critical_weight: float


def mode_amplification(vals: np.ndarray, w: float) -> np.ndarray:
    """1 + w (mu - 1) for each kernel eigenvalue mu: the factor by which
    Z <- Z + w (K Z - Z) multiplies the eigenmode at mu.

    It equals 1 - w (1 - mu) bitwise, since fl(mu - 1) = -fl(1 - mu).
    """
    return 1.0 + float(w) * (vals - 1.0)


def cfl_verdict(K: KernelMatrix, w: float) -> StabilityVerdict:
    """Spectral stability of Z <- Z + w (K Z - Z).

    The scheme is stable exactly when the largest magnitude of a
    :func:`mode_amplification` stays at or below 1.  critical_weight is
    the largest nonnegative scalar weight for which that holds.
    """
    if not K.symmetric:
        raise ValueError("the spectral stability criterion needs a symmetric kernel")
    if not K.doubly_stochastic:
        raise ValueError("the spectral stability criterion needs a doubly stochastic kernel")
    vals, _ = K.spectrum()
    amps = np.abs(mode_amplification(vals, w))
    radius = float(np.max(amps))
    mu_min = float(np.min(vals))
    critical = float("inf") if mu_min >= 1.0 else 2.0 / (1.0 - mu_min)
    return StabilityVerdict(
        spectral_radius=radius,
        stable=bool(radius <= 1.0 + 1e-12),
        critical_weight=critical,
    )


def _assumes_symmetric_doubly(traj: TrajectoryRecord) -> bool:
    if traj.stepper not in ("proposed", "markov"):
        return False
    f = traj.kernel_flags
    return bool(f and f.get("symmetric") and f.get("doubly_stochastic"))


@dataclass(frozen=True)
class MeanPreservationReport:
    max_deviation: float
    passed: Optional[bool]
    assumption_violated: bool
    tolerance: float = MEAN_TOL


def verify_mean_preservation(traj: TrajectoryRecord) -> MeanPreservationReport:
    """Max per-channel drift of the mean from its initial value.

    Only meaningful under a symmetric doubly stochastic kernel; with the
    assumption unmet the report says so and takes no pass/fail stance.
    """
    dev = float(np.max(np.abs(traj.mean - traj.mean[0])))
    if not _assumes_symmetric_doubly(traj):
        return MeanPreservationReport(dev, None, True)
    return MeanPreservationReport(dev, dev <= MEAN_TOL, False)


@dataclass(frozen=True)
class VarianceDecayReport:
    max_increase: float
    passed: Optional[bool]
    assumption_violated: bool
    first_violation_step: Optional[int]
    tolerance: float = VARIANCE_TOL


def verify_variance_decay(traj: TrajectoryRecord) -> VarianceDecayReport:
    """Checks var(Z^{n+1}) <= var(Z^n) + VARIANCE_TOL at every step."""
    inc = np.diff(traj.variance)
    max_inc = float(np.max(inc, initial=0.0))
    above = np.flatnonzero(inc > VARIANCE_TOL)
    first = int(above[0]) if above.size else None
    if not _assumes_symmetric_doubly(traj):
        return VarianceDecayReport(max_inc, None, True, first)
    return VarianceDecayReport(max_inc, first is None, False, first)


def variance_dissipation(K: KernelMatrix, Z: FeatureField) -> float:
    """One-step variance drop of the Markov map, from the energy identity.

    For symmetric doubly stochastic K, with v the centered field:
    var(K Z) - var(Z) = -(1/2M) sum_ij (K^2)_ij ||v_i - v_j||^2.
    This returns the right-hand side's magnitude (the predicted drop); it
    is the discrete mechanism behind monotone variance decay.
    """
    if not (K.symmetric and K.doubly_stochastic):
        raise ValueError("the energy identity needs a symmetric doubly stochastic kernel")
    v = Z.values - Z.values.mean(axis=0)
    K2 = K.entries @ K.entries
    return float(np.sum(K2 * _squared_distances(v[None])[0]) / (2.0 * Z.num_positions))


@dataclass(frozen=True)
class DecayRateFit:
    lambda_hat: float
    r_squared: float
    num_points: int


def estimate_decay_rate(traj: TrajectoryRecord) -> DecayRateFit:
    """Least-squares slope of log dist_to_mean vs step.

    Points at or below FIT_FLOOR are floating-point noise and are
    excluded; fewer than 3 usable points cannot support a line fit.
    """
    dists = traj.dist_to_mean
    mask = dists > FIT_FLOOR
    if int(mask.sum()) < 3:
        raise InsufficientDataError(
            f"decay fit needs at least 3 points above {FIT_FLOOR}, found {int(mask.sum())}"
        )
    x = np.arange(len(dists), dtype=np.float64)[mask]
    y = np.log(dists[mask])
    xm = x.mean()
    ym = y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    resid = y - (ym + slope * (x - xm))
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
    return DecayRateFit(lambda_hat=-slope, r_squared=r2, num_points=int(mask.sum()))


def poincare_constant(K: KernelMatrix) -> float:
    """m = 1 - lambda_2(K): the decay floor on mean-zero fields.

    For any mean-zero Z, sum_ij K_ij (Z_j - Z_i)^2 >= 2 m ||Z||^2.  A
    return of exactly 0.0 flags a degenerate (disconnected or frozen)
    chain with no spectral gap.
    """
    if not (K.symmetric and K.doubly_stochastic):
        raise ValueError("the Poincare constant needs a symmetric doubly stochastic kernel")
    if K.size < 2:
        return 0.0
    vals, _ = K.spectrum()
    m = 1.0 - float(vals[1])
    if m <= 1e-10:
        return 0.0
    return m
