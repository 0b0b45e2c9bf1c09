"""Exception types shared across the package.

Anything that indicates bad numerics (overflow, NaN, degenerate
normalization) gets its own class so callers can distinguish "your input
was malformed" from "the computation left its domain of validity".
"""


class NldError(Exception):
    """Base class for package-specific failures."""


class NonFiniteError(NldError):
    """A value that must be finite is NaN or infinite."""


class DegenerateRowError(NldError):
    """A kernel row sum cannot be normalized against: it is too close to
    zero, negative or nan, or it overflowed to inf (``RowSumOverflowError``).
    A built kernel's rows sum to at least 1, inf or nan; only arbitrary
    entries (``KernelMatrix.from_entries``) sum too close to zero or below."""

    def __init__(self, row: int, row_sum: float):
        self.row = row
        self.row_sum = row_sum
        super().__init__(f"row {row} has degenerate sum {row_sum!r}; cannot normalize")


class RowSumOverflowError(DegenerateRowError, NonFiniteError):
    """A row of finite kernel entries sums to inf.

    It is the degenerate row a built kernel can have: a network stage
    records it as a divergence, and, as a non-finite value, it blows up
    an evolving state that produces it.
    """


class BandwidthError(NldError, ValueError):
    """An rbf bandwidth h that is not positive or whose 2 h^2 is not a normal float."""


class ConvergenceError(NldError):
    """An iterative routine ran out of iterations before meeting its tolerance."""

    def __init__(self, message: str, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} iterations)")


class BlowUpError(NldError):
    """An evolving state exceeded the blow-up guard or went non-finite, or
    could not be stepped.

    ``step`` is the index of the first offending state (state 0 is the
    initial condition).  ``record`` holds the trajectory up to the last
    healthy state so callers can inspect how the run failed.  ``cause`` is
    the :class:`NonFiniteError` (a :class:`RowSumOverflowError` included)
    or :class:`BandwidthError` of a step whose kernel could not be built or
    normalized (max_abs is then inf: no state), else None.
    """

    def __init__(self, step: int, max_abs: float, record=None, cause=None):
        self.step = step
        self.max_abs = max_abs
        self.record = record
        self.cause = cause
        message = f"state blew up at step {step} (max abs {max_abs:.3e})"
        super().__init__(message if cause is None else f"{message}: {cause}")


class DivergenceError(NldError):
    """A network pass left the finite numbers: non-finite activations or
    logits, a stage affinity that overflowed, or a non-finite loss."""


class InsufficientDataError(NldError):
    """Too few usable points for a fit."""
