"""Feature fields: the state a nonlocal block acts on.

A field is an (M, d) array of float64: M positions, each carrying a
d-channel feature vector.  Fields are immutable; every operator returns a
new one.  Matrices are read from plain CSV (:func:`load_matrix_csv`).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError


def _frozen_array(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class FeatureField:
    """Immutable (num_positions, num_channels) float64 array."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"field values must be 2-d (positions, channels), got shape {v.shape}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"field needs at least one position and one channel, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise NonFiniteError("field values must be finite")
        object.__setattr__(self, "values", _frozen_array(v))

    @property
    def num_positions(self) -> int:
        return self.values.shape[0]

    @property
    def num_channels(self) -> int:
        return self.values.shape[1]


def load_matrix_csv(text: str) -> np.ndarray:
    """Parse a plain CSV of floats; accepts an optional x0,x1,... header."""
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows:
        raise ValueError("empty matrix CSV")
    if rows[0] and rows[0][0].strip().startswith("x"):
        rows = rows[1:]
        if not rows:
            raise ValueError("matrix CSV has a header but no data")
    data = [[float(x) for x in row] for row in rows]
    widths = {len(row) for row in data}
    if len(widths) != 1:
        raise ValueError("ragged matrix CSV rows")
    return np.array(data, dtype=np.float64)
