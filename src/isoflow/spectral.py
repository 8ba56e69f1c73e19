"""Spectral checks for the rank-1 operators: symmetric tridiagonal
eigensolves, row-identity residuals of the closed-form eigenfunctions, drift
of the spectrum along a flow, and the flat-case Fourier identity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec
from .families import (FamilyTag, SpectralMap, eval_rec, meixner_function,
                       parameter_map)
from .flows import Trajectory
from .operators import TridiagonalOperator
from .report import spectrum_drift
from .representations import (ConfigurationError, RepresentationSpec, build_L,
                              lax_entries)
from .specfun import bessel_j, eigh_tridiagonal


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues, orthonormal eigenvector columns, and the
    squared first components (the discrete spectral weights)."""
    eigenvalues: np.ndarray
    vectors: np.ndarray
    weights: np.ndarray


def eigs_sym_tridiag(op: TridiagonalOperator) -> SpectralDecomposition:
    lam, vec = eigh_tridiagonal(op.diag, op.off)
    return SpectralDecomposition(lam, vec, vec[0, :] ** 2)


def eigenvalues(op: TridiagonalOperator) -> np.ndarray:
    """Ascending eigenvalues of ``op`` from the eigenvalue-only solve, the
    root-free QL/QR of LAPACK's ``sterf``: no eigenvectors are formed.  They
    agree with ``eigs_sym_tridiag(op).eigenvalues`` to rounding."""
    return eigh_tridiagonal(op.diag, op.off, eigvals_only=True)


def path_eigenvalues(rep: RepresentationSpec, alg: AlgebraSpec, r,
                     s) -> list[np.ndarray]:
    """The ``eigenvalues`` of L at every sample (r[i], s[i]) of a path, each
    bitwise those of ``build_L(rep, alg, r[i], s[i])``.  The generators are
    built once and the entries of all samples in one pass; each sample is
    then one eigenvalue-only solve of its row.  Raises ValueError, as
    ``build_L`` does, when a sample or an entry is not finite."""
    _, diag, off = lax_entries(rep, alg, np.asarray(r, dtype=float)[:, None],
                               np.asarray(s, dtype=float)[:, None])
    # the entries were checked finite as a whole, so the rows are not again
    return [eigh_tridiagonal(d, e, eigvals_only=True, check_finite=False)
            for d, e in zip(diag, off)]


# --------------------------------------------------------------------------
# closed-form eigenfunctions per family


def rep_labels(rep: RepresentationSpec) -> dict:
    """The labels of ``rep`` that ``parameter_map`` takes (j, k, h, rho, eps)."""
    out = {}
    for name in ("j", "k", "h", "rho"):
        if hasattr(rep, name):
            out[name] = getattr(rep, name)
    if hasattr(rep, "eps_rep"):
        out["eps"] = rep.eps_rep
    return out


def eigenfunction(family: FamilyTag, params, smap: SpectralMap,
                  alg: AlgebraSpec, r: float, n_label: int, lam):
    """Component psi_n of the closed-form eigenvector of the operator at
    eigenvalue ``lam``, in the operator's orthonormal basis.  ``lam`` may be
    an ndarray of eigenvalues; the components are then evaluated at each."""
    fam = FamilyTag(family)
    x = smap.to_family_variable(lam)
    if fam is FamilyTag.BESSEL:
        return _each(lambda xi: bessel_j(int(round(xi)) - n_label, params.z), x)
    if fam is FamilyTag.MEIXNER_FUNCTION:
        return _each(lambda xi: meixner_function(n_label, xi, params), x)
    sign = 1.0
    if fam is FamilyTag.CHARLIER:
        sign = -math.copysign(1.0, r / alg.c_param)
    return sign ** n_label * eval_rec(fam, params, n_label, x)


def _each(f, x):
    """``f`` at a scalar ``x``, or at every element of an ndarray ``x``."""
    return f(x) if np.ndim(x) == 0 else np.array([f(xi) for xi in x.tolist()])


def residual_grid(rows, points) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` and ``points`` as the integer and float arrays
    ``recurrence_residual`` evaluates over.  Raises ConfigurationError
    unless there is at least one of each."""
    rows, points = np.asarray(rows, dtype=int), np.asarray(points, dtype=float)
    if rows.size == 0 or points.size == 0:
        raise ConfigurationError("residual needs at least one row and one point")
    return rows, points


def recurrence_residual(family: FamilyTag, rep: RepresentationSpec,
                        alg: AlgebraSpec, r: float, s: float, rows,
                        points, *, L: TridiagonalOperator | None = None) -> float:
    """Worst absolute residual of L psi = Lambda psi over the ``rows``
    (0-based within the realized window) and the spectral ``points`` (in the
    family's own variable x, Lambda = smap.eigenvalue(x)), with the family's
    closed-form eigenfunction.  NaN when any row evaluates to NaN.

    Each row is the plain |row sum|, analytically zero.  Note that the
    closed-form eigenfunctions are not unit vectors: their components grow
    like the inverse square root of the spectral weight near lattice tails,
    so on wide windows with a strongly tilted weight (e.g. a large
    finite-lattice window far from the symmetric point) the attainable
    floor is rounding noise *times that component size*.  Callers probing
    such regimes should budget tolerance accordingly or pick a state whose
    weight is balanced over the window.

    Rows touching an inexact (truncated) edge are rejected because the row
    identity genuinely fails there.  ``L`` is ``build_L(rep, alg, r, s)``
    when the caller has built it.
    """
    fam = FamilyTag(family)
    if L is None:
        L = build_L(rep, alg, r, s)
    size = L.size
    rows, points = residual_grid(rows, points)
    bad = rows[(rows < 0) | (rows >= size)]
    if bad.size:
        raise ConfigurationError(f"row {bad[0]} outside window of size {size}")
    params, smap = parameter_map(fam, alg, r, s, **rep_labels(rep))
    if not L.lo_exact and (rows == 0).any():
        raise ConfigurationError("row touches the truncated lower edge")
    if not L.hi_exact and (rows == size - 1).any():
        raise ConfigurationError("row touches the truncated upper edge")

    # one row of psi per component the rows reach, psi_m at row at[m + 1];
    # past an exact edge at[] points to the last row, which stays zero
    lam = smap.eigenvalue(points)
    comps = np.unique(np.clip(np.concatenate([rows - 1, rows, rows + 1]), 0, size - 1))
    psi = np.zeros((len(comps) + 1, len(points)))
    at = np.full(size + 2, len(comps))
    off = np.concatenate(([0.0], L.off, [0.0]))  # off[n] couples rows n - 1 and n
    # components that overflow make the residual non-finite, which the
    # caller reports; numpy's warnings would only repeat that on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        for i, m in enumerate(comps.tolist()):
            psi[i] = eigenfunction(fam, params, smap, alg, r, L.base_index + m, lam)
            at[m + 1] = i
        acc = (L.diag[rows][:, None] - lam) * psi[at[rows + 1]]
        acc += off[rows][:, None] * psi[at[rows]]
        acc += off[rows + 1][:, None] * psi[at[rows + 2]]
    return float(np.abs(acc).max())


def scaled_tolerance(tol: float, op: TridiagonalOperator) -> float:
    """tol (1 + |L|_inf): the tolerance of ``recurrence_residual`` on the
    operator ``op``, whose rows scale with its entries."""
    return tol * (1.0 + op.inf_norm())


# --------------------------------------------------------------------------
# drift along a flow


def compared_eigenvalues(rep: RepresentationSpec, mode: str,
                         count: int | None) -> slice:
    """The eigenvalues, in ascending order, that ``isospectrality_drift``
    compares on the window of ``rep``.  Raises ConfigurationError for an
    unknown mode or a count outside the window."""
    lo, hi = rep.window
    size = hi - lo + 1
    if mode == "all":
        return slice(None)
    if mode not in ("lowest", "central"):
        raise ConfigurationError(f"unknown isospectrality mode {mode!r}")
    if count is None or not 1 <= count <= size:
        raise ConfigurationError(
            f"isospectrality mode {mode!r} needs 1 <= count <= {size} (the "
            f"window size), got count={count!r}")
    start = 0 if mode == "lowest" else size // 2 - count // 2
    return slice(start, start + count)


def isospectrality_drift(traj: Trajectory, rep: RepresentationSpec,
                         alg: AlgebraSpec, mode: str = "all",
                         count: int | None = None) -> float:
    """Max absolute eigenvalue drift along the trajectory, from the
    ``path_eigenvalues`` of L at its samples.

    mode = "all" compares the full spectrum of the realized window,
    "lowest" only the ``count`` smallest eigenvalues (use for windows whose
    upper edge is truncated), "central" the ``count`` eigenvalues closest to
    the spectral center (use for doubly truncated windows).  Both need
    ``1 <= count <= window size``; the mode and count are checked before
    any eigensolve and raise ConfigurationError otherwise.
    """
    keep = compared_eigenvalues(rep, mode, count)
    return spectrum_drift([lam[keep] for lam in path_eigenvalues(rep, alg, traj.r, traj.s)])


# --------------------------------------------------------------------------
# flat case


def degenerate_e2_check(k: float, r: float, n_orders: int = 5,
                        grid: int = 64) -> float:
    """The flat operator with zero diagonal acts on Fourier modes e^{inx} by
    k r (e^{i(n+1)x} + e^{i(n-1)x}) = 2 k r cos(x) e^{inx}; returns the max
    residual of that identity over a uniform grid and a band of orders."""
    xs = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    worst = 0.0
    for n in range(-n_orders, n_orders + 1):
        lhs = k * r * (np.exp(1j * (n + 1) * xs) + np.exp(1j * (n - 1) * xs))
        rhs = 2.0 * k * r * np.cos(xs) * np.exp(1j * n * xs)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst
