"""Portable seeded random numbers via splitmix64.

Every experiment in this package that involves randomness draws from this
generator rather than from numpy's.  splitmix64 is a tiny counter-based
mixer whose output depends only on the 64-bit seed, so identical seeds
reproduce identical streams on any platform and any numpy version.  That
is what makes repeated runs byte-identical.

Because draw k of a stream is ``_mix(state + k * GAMMA mod 2**64)``, a
block of n draws is one numpy ``uint64`` expression (numpy's ``uint64``
multiply wraps mod 2**64).  ``u64s``, ``uniforms``, ``normals`` and
``shuffle`` draw that way and leave the state where n ``next_u64`` calls
would, so they equal the scalar stream bit for bit, however block and
scalar draws interleave.  The Box-Muller tail stays on ``math.log`` and
``math.cos``: numpy's SIMD versions can differ from them by an ulp.  The
tests hold the block draws to scalar ``uniform``, ``normal`` and
``randint`` draws built on ``next_u64``, which live in ``tests/conftest.py``.
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


def _mix_block(z: np.ndarray) -> np.ndarray:
    """``_mix`` on a uint64 array; the products wrap mod 2**64 as masked."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _unit(u: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of each output."""
    return (u >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _box_muller(u: np.ndarray) -> np.ndarray:
    """One normal per consecutive (u1, u2) pair of a flat uint64 block."""
    v = _unit(u)
    u1, u2 = v[0::2], v[1::2]
    # 1 - u1 lies in (0, 1], so the log never sees zero.
    logs = np.array(list(map(math.log, (1.0 - u1).tolist())), dtype=np.float64)
    coss = np.array(list(map(math.cos, (2.0 * math.pi * u2).tolist())), dtype=np.float64)
    return np.sqrt(-2.0 * logs) * coss


def _fisher_yates(seq, draws) -> None:
    """In-place Fisher-Yates; swap i maps the next of ``draws`` onto [0, i]
    by 128-bit multiply-shift."""
    for i, u in zip(range(len(seq) - 1, 0, -1), draws):
        j = (u * (i + 1)) >> 64
        seq[i], seq[j] = seq[j], seq[i]


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
    """splitmix64 stream with block uniform / normal / shuffle draws."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def u64s(self, n: int) -> np.ndarray:
        """The next ``n`` outputs as a uint64 array: ``n`` ``next_u64`` calls."""
        counters = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        block = _mix_block(np.uint64(self._state) + counters)
        self._state = (self._state + n * _GAMMA) & _MASK64
        return block

    def shuffle(self, seq) -> None:
        """In-place Fisher-Yates shuffle."""
        _fisher_yates(seq, self.u64s(max(len(seq) - 1, 0)).tolist())

    def normals(self, shape) -> np.ndarray:
        return _box_muller(self.u64s(2 * int(np.prod(shape)))).reshape(shape)

    def uniforms(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return (low + (high - low) * _unit(self.u64s(int(np.prod(shape))))).reshape(shape)
