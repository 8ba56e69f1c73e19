"""Spectral checks for the rank-1 operators: symmetric tridiagonal
eigensolves, row-identity residuals of the closed-form eigenfunctions, drift
of the spectrum along a flow, and the flat-case Fourier identity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .algebra import AlgebraSpec
from .families import (FamilyTag, SpectralMap, eval_rec, meixner_function,
                       parameter_map)
from .flows import Trajectory
from .operators import TridiagonalOperator
from .representations import ConfigurationError, RepresentationSpec, build_L
from .specfun import bessel_j


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues, orthonormal eigenvector columns, and the
    squared first components (the discrete spectral weights)."""
    eigenvalues: np.ndarray
    vectors: np.ndarray
    weights: np.ndarray


def eigs_sym_tridiag(op: TridiagonalOperator) -> SpectralDecomposition:
    lam, vec = eigh_tridiagonal(np.asarray(op.diag), np.asarray(op.off))
    return SpectralDecomposition(lam, vec, vec[0, :] ** 2)


# --------------------------------------------------------------------------
# closed-form eigenfunctions per family


def _rep_labels(rep: RepresentationSpec) -> dict:
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


def recurrence_residual(family: FamilyTag, rep: RepresentationSpec,
                        alg: AlgebraSpec, r: float, s: float, rows,
                        points) -> float:
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
    identity genuinely fails there.
    """
    fam = FamilyTag(family)
    L = build_L(rep, alg, r, s)
    size = L.size
    rows, points = np.asarray(rows, dtype=int), np.asarray(points, dtype=float)
    if rows.size == 0 or points.size == 0:
        raise ConfigurationError("residual needs at least one row and one point")
    bad = rows[(rows < 0) | (rows >= size)]
    if bad.size:
        raise ConfigurationError(f"row {bad[0]} outside window of size {size}")
    params, smap = parameter_map(fam, alg, r, s, **_rep_labels(rep))
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
    for i, m in enumerate(comps.tolist()):
        psi[i] = eigenfunction(fam, params, smap, alg, r, L.base_index + m, lam)
        at[m + 1] = i
    off = np.concatenate(([0.0], L.off, [0.0]))  # off[n] couples rows n - 1 and n
    acc = (L.diag[rows][:, None] - lam) * psi[at[rows + 1]]
    acc += off[rows][:, None] * psi[at[rows]]
    acc += off[rows + 1][:, None] * psi[at[rows + 2]]
    return float(np.abs(acc).max())


# --------------------------------------------------------------------------
# drift along a flow


def isospectrality_drift(traj: Trajectory, rep: RepresentationSpec,
                         alg: AlgebraSpec, mode: str = "all",
                         count: int | None = None) -> float:
    """Max absolute eigenvalue drift along the trajectory.

    mode = "all" compares the full spectrum of the realized window,
    "lowest" only the ``count`` smallest eigenvalues (use for windows whose
    upper edge is truncated), "central" the ``count`` eigenvalues closest to
    the spectral center (use for doubly truncated windows).
    """
    ref = None
    worst = 0.0
    for i in range(len(traj)):
        L = build_L(rep, alg, float(traj.r[i]), float(traj.s[i]))
        lam = eigh_tridiagonal(np.asarray(L.diag), np.asarray(L.off),
                               eigvals_only=True)
        lam = np.sort(lam)
        if mode == "lowest":
            lam = lam[:count]
        elif mode == "central":
            mid = len(lam) // 2
            half = count // 2
            lam = lam[mid - half:mid - half + count]
        elif mode != "all":
            raise ValueError(f"unknown mode {mode!r}")
        if ref is None:
            ref = lam
        else:
            worst = max(worst, float(np.abs(lam - ref).max()))
    return worst


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
