"""Host-speed calibration for timings taken on a shared machine.

On a shared host the CPU speed a process gets swings between states up to
1.8x apart, for seconds to minutes at a time.  The benchmark times a fixed
loop of small-array numpy work before and after every timed op, and
reports op times in reference seconds: seconds measured x REFERENCE_S /
mean seconds the loop took around the op.  That keeps a run that caught
the host in its slow state comparable with one that did not.  Of the
loops tried, this one slowed down most nearly in proportion with the ops
of both the evolve and the train workload.
"""

from __future__ import annotations

import time

import numpy as np

# The loop's time on an uncontended core of the machine the baseline ran on.
REFERENCE_S = 0.04


def calibration_s(repeats: int = 300) -> float:
    """Seconds this process takes for the fixed calibration loop.

    The loop runs the batched small-array numpy ops the package's hot
    paths are made of (einsum, exp, reductions) on a (32, 10, 5) batch.
    """
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((32, 10, 5))
    W = 0.3 * rng.standard_normal((5, 5))
    start = time.perf_counter()
    for _ in range(repeats):
        S = np.einsum("bmc,bnc->bmn", Z, Z)
        S = np.exp(S - S.max(axis=2, keepdims=True))
        P = S / S.sum(axis=2, keepdims=True)
        Y = np.einsum("bmn,bnc->bmc", P, Z)
        Z = np.tanh(Z + np.einsum("bmc,dc->bmd", Y - Z, W))
    return time.perf_counter() - start


def to_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two calibrations, in reference seconds."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
