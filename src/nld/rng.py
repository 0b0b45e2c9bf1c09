"""Portable seeded random numbers via splitmix64.

Every experiment in this package that involves randomness draws from this
generator rather than from numpy's.  splitmix64 is a tiny counter-based
mixer whose output depends only on the 64-bit seed, so identical seeds
reproduce identical streams on any platform and any numpy version.  That
is what makes repeated runs byte-identical.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *parts: int | str) -> int:
    """Fold labels into a master seed to get an independent sub-stream seed.

    Parts may be ints or short strings (hashed byte by byte).  The same
    (master, parts) always gives the same result, so two runs that build
    the same logical sub-stream agree even if they interleave differently.
    """
    s = _mix((master & _MASK64) ^ _GAMMA)
    for part in parts:
        if isinstance(part, str):
            h = 0
            for b in part.encode("utf-8"):
                h = _mix((h + _GAMMA + b) & _MASK64)
            part = h
        s = _mix(((s + _GAMMA) & _MASK64) ^ _mix(part & _MASK64))
    return s


class SplitMix64:
    """splitmix64 stream with uniform / normal / integer helpers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def uniform(self) -> float:
        """Uniform double in [0, 1), 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        """Single standard normal draw (Box-Muller; consumes two outputs)."""
        u1 = self.uniform()
        u2 = self.uniform()
        # 1 - u1 lies in (0, 1], so the log never sees zero.
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        return r * math.cos(2.0 * math.pi * u2)

    def randint(self, n: int) -> int:
        """Integer uniform on [0, n) via 128-bit multiply-shift."""
        if n <= 0:
            raise ValueError("randint requires n >= 1")
        return (self.next_u64() * n) >> 64

    def shuffle(self, seq) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randint(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def normals(self, shape) -> np.ndarray:
        out = np.empty(int(np.prod(shape)), dtype=np.float64)
        for k in range(out.size):
            out[k] = self.normal()
        return out.reshape(shape)

    def uniforms(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        out = np.empty(int(np.prod(shape)), dtype=np.float64)
        for k in range(out.size):
            out[k] = low + (high - low) * self.uniform()
        return out.reshape(shape)
