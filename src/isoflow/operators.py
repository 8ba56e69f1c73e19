"""Banded symmetric/skew-symmetric operators on a finite index window.

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

    def to_dense(self) -> np.ndarray:
        n = self.size
        a = np.zeros((n, n))
        a[np.arange(n), np.arange(n)] = self.diag
        if n > 1:
            a[np.arange(n - 1), np.arange(1, n)] = self.off
            a[np.arange(1, n), np.arange(n - 1)] = self.off
        return a

    def inf_norm(self) -> float:
        """Maximum absolute row sum over the stored window."""
        return float(np.abs(self.to_dense()).sum(axis=1).max()) if self.size else 0.0

    def interior_rows(self, margin: int = 2) -> range:
        """Window-relative rows unaffected by a clipped edge.

        ``margin`` rows are trimmed at each inexact edge: products of two
        tridiagonal operators reach two rows past the edge, so commutator
        rows within that distance involve out-of-window data.
        """
        lo = 0 if self.lo_exact else margin
        hi = self.size - (0 if self.hi_exact else margin)
        return range(lo, max(lo, hi))


@dataclass(frozen=True)
class SkewTridiagonalOperator:
    """Skew-symmetric operator oriented like the raising direction: row
    n+1 couples to n with +off[n] (below the diagonal), and row n couples
    to n+1 with -off[n]."""

    base_index: int
    off: np.ndarray
    lo_exact: bool = True
    hi_exact: bool = True

    def __post_init__(self):
        object.__setattr__(self, "off", _as_float_array(self.off))
        self.off.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.off) + 1

    def to_dense(self) -> np.ndarray:
        n = self.size
        a = np.zeros((n, n))
        if n > 1:
            a[np.arange(1, n), np.arange(n - 1)] = self.off
            a[np.arange(n - 1), np.arange(1, n)] = -self.off
        return a
