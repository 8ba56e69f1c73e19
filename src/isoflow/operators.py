"""Symmetric tridiagonal operators on a finite index window, and the bands
of their commutator with a skew-tridiagonal operator.

Tridiagonal operators are stored as two arrays (diagonal, off-diagonal) plus
the index of the first basis vector of the window.  Truncations of operators
living on l2(N) or l2(Z) mark the clipped edge rows as inexact; identity
checks are restricted to interior rows where the stored matrix agrees with
the full operator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_float_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite entries")
    return arr


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal operator on the window base_index..base_index+n-1.

    ``off[i]`` couples rows ``i`` and ``i+1`` (window-relative indices).
    ``lo_exact`` / ``hi_exact`` are False when the corresponding edge row of
    the window was produced by truncating an infinite operator and is
    therefore missing its outer coupling.
    """

    base_index: int
    diag: np.ndarray
    off: np.ndarray
    lo_exact: bool = True
    hi_exact: bool = True

    def __post_init__(self):
        object.__setattr__(self, "diag", _as_float_array(self.diag))
        object.__setattr__(self, "off", _as_float_array(self.off))
        if len(self.off) != max(len(self.diag) - 1, 0):
            raise ValueError("off-diagonal length must be len(diag) - 1")
        self.diag.setflags(write=False)
        self.off.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.diag)

    def inf_norm(self) -> float:
        """Maximum absolute row sum |off[i-1]| + |diag[i]| + |off[i]| over
        the stored window."""
        if not self.size:
            return 0.0
        rows = np.abs(self.diag)
        off = np.abs(self.off)
        rows[1:] += off
        rows[:-1] += off
        return float(rows.max())

    def interior_rows(self) -> range:
        """Window-relative rows unaffected by a clipped edge.

        Two rows are trimmed at each inexact edge: the product of two
        tridiagonal operators reaches two rows past the edge, so rows of a
        commutator within that distance involve out-of-window data.
        """
        lo = 0 if self.lo_exact else 2
        hi = self.size - (0 if self.hi_exact else 2)
        return range(lo, max(lo, hi))


def skew_commutator(m: np.ndarray, diag: np.ndarray, off: np.ndarray):
    """The diagonal, first and second off-diagonal of the symmetric
    pentadiagonal [M, L] = ML - LM, where M is skew-tridiagonal oriented like
    the raising direction (M[n+1, n] = m[n] = -M[n, n+1]) and L is the
    symmetric tridiagonal (diag, off):

        [M, L][n, n]     = 2(m[n-1] off[n-1] - m[n] off[n])
        [M, L][n, n+1]   = m[n] (diag[n] - diag[n+1])
        [M, L][n, n+2]   = off[n] m[n+1] - m[n] off[n+1]

    where the products m off past either end of the window are 0."""
    mo = m * off
    return (2.0 * (np.concatenate(([0.0], mo)) - np.concatenate((mo, [0.0]))),
            m * (diag[:-1] - diag[1:]),
            off[:-1] * m[1:] - m[:-1] * off[1:])
