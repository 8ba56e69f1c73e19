"""Spectral checks: symmetric tridiagonal eigensolves, the spectra of a
path of either flow (``path_eigenvalues``), row-identity residuals of the
rank-1 closed-form eigenfunctions, drift of the spectrum along a flow, and
the flat-case Fourier identity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, e2
from .families import FAMILIES, FamilyTag, SpectralMap, parameter_map
from .operators import TridiagonalOperator
from .report import spectrum_drift
from .representations import (E2, ConfigurationError, RepresentationSpec,
                              build_L, lax_rows)
from .specfun import eigh_tridiagonal, eigvals_rows


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues, orthonormal eigenvector columns, and the
    squared first components (the discrete spectral weights)."""
    eigenvalues: np.ndarray
    vectors: np.ndarray
    weights: np.ndarray

    def orthogonality(self) -> tuple[float, float]:
        """(primal, dual) Gram residuals of the vectors V: max |V^T V - 1|
        and max |V V^T - 1|, zero for an orthogonal matrix."""
        V, eye = self.vectors, np.eye(len(self.vectors))
        return float(np.abs(V.T @ V - eye).max()), float(np.abs(V @ V.T - eye).max())


def eigs_sym_tridiag(op: TridiagonalOperator) -> SpectralDecomposition:
    lam, vec = eigh_tridiagonal(op.diag, op.off)
    return SpectralDecomposition(lam, vec, vec[0, :] ** 2)


def path_eigenvalues(diag: np.ndarray, off: np.ndarray) -> list[np.ndarray]:
    """The ascending eigenvalues of every row of a path's bands ``diag``
    (k, n) and ``off`` (k, n - 1), one sample per row: the ``lax_entries``
    of a rank-1 flow's samples (r and s as columns) or the ``build_chain_L``
    of a chain trajectory.  Each row is one eigenvalue-only solve (LAPACK's
    root-free ``sterf``) through this module's ``eigh_tridiagonal``, looked
    up at the call, so each spectrum is bitwise that of its sample's own
    bands; the rows are shared between the CPUs as ``specfun.eigvals_rows``
    shares them.  ``isoflow run`` and ``isoflow chain`` call it once per
    path (``checks``' cached ``spectra``), for ``spectrum.csv`` and the
    drift alike.  Raises ValueError when an entry is not finite."""
    # checked finite as a whole, so the rows are not again
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError("array must not contain infs or NaNs")
    return eigvals_rows(eigh_tridiagonal, diag, off)


# --------------------------------------------------------------------------
# closed-form eigenfunctions


def eigenfunction(family: FamilyTag, params, smap: SpectralMap,
                  alg: AlgebraSpec, r: float, n_label, lam):
    """Components psi_n of the closed-form eigenvector of the operator at
    eigenvalue ``lam``, in the operator's orthonormal basis.  ``n_label``
    may be an array of labels and ``lam`` an array of eigenvalues; the
    result then has shape ``n_label.shape + lam.shape``, from one call of
    the family's evaluator (its record's ``eigenvector``)."""
    fam = FamilyTag(family)
    return FAMILIES[fam].eigenvector(fam, params, alg, r, np.asarray(n_label),
                                     smap.to_family_variable(lam))


def recurrence_residual(family: FamilyTag, rep: RepresentationSpec,
                        alg: AlgebraSpec, r: float, s: float, points, *,
                        L: TridiagonalOperator | None = None) -> float:
    """Worst absolute residual of L psi = Lambda psi over every interior row
    of the window (``lax_rows``, the rows of ``lax_residual``) and the
    spectral ``points`` (in the family's own variable x,
    Lambda = smap.eigenvalue(x)), with the family's closed-form
    eigenfunction.  NaN when any row evaluates to NaN.

    Each row is the plain |row sum|, analytically zero.  Note that the
    closed-form eigenfunctions are not unit vectors: their components grow
    like the inverse square root of the spectral weight near lattice tails,
    so on wide windows with a strongly tilted weight (e.g. a large
    finite-lattice window far from the symmetric point) the attainable
    floor is rounding noise *times that component size*.  Callers probing
    such regimes should budget tolerance accordingly or pick a state whose
    weight is balanced over the window.

    Raises ConfigurationError when the window has no interior row or there
    is no point.  ``L`` is ``build_L(rep, alg, r, s)`` when the caller has
    built it.
    """
    fam = FamilyTag(family)
    if L is None:
        L = build_L(rep, alg, r, s)
    rows = np.asarray(lax_rows(L))
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        raise ConfigurationError("residual needs at least one point")
    params, smap = parameter_map(fam, rep, alg, r, s)

    # psi[k, i] is psi_{rows[i] + k - 1}, from one evaluation of the
    # contiguous components the rows reach; past an exact edge the padded
    # off is zero and multiplies the row's own component (clipped), so a
    # non-finite one keeps the row so
    lam = smap.eigenvalue(points)
    near = np.clip(rows + np.arange(-1, 2)[:, None], 0, L.size - 1)
    first = near[0, 0]
    off = np.concatenate(([0.0], L.off, [0.0]))  # off[n] couples rows n - 1 and n
    comps = L.base_index + np.arange(first, near[-1, -1] + 1)
    psi = eigenfunction(fam, params, smap, alg, r, comps, lam)[near - first]
    acc = (L.diag[rows][:, None] - lam) * psi[1]
    acc += off[rows][:, None] * psi[0]
    acc += off[rows + 1][:, None] * psi[2]
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
    unknown mode or a count outside the window.  On an e2 window the
    "central" eigenvalues are the ladder 2 c m for every r and s, so they
    do not move with the flow."""
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


def isospectrality_drift(spectra: list[np.ndarray], rep: RepresentationSpec,
                         mode: str = "all", count: int | None = None) -> float:
    """Max absolute eigenvalue drift along a path from ``spectra``, the
    ``path_eigenvalues`` of L on ``rep`` at its samples (one per sample, as
    ``spectrum.csv`` holds them); it solves nothing itself.

    mode = "all" compares the full spectrum of the realized window,
    "lowest" only the ``count`` smallest eigenvalues (use for windows whose
    upper edge is truncated), "central" the ``count`` eigenvalues closest to
    the spectral center (use for doubly truncated windows).  Both need
    ``1 <= count <= window size``; the mode and count are checked before
    any spectrum is read and raise ConfigurationError otherwise.  On an e2
    window the central eigenvalues of L = c H + r (E + E*) form the
    Wannier-Stark ladder 2 c m for every r and s, so "central" reads
    rounding noise there whatever the flow does.
    """
    keep = compared_eigenvalues(rep, mode, count)
    return spectrum_drift([lam[keep] for lam in spectra])


# --------------------------------------------------------------------------
# flat case


def degenerate_e2_check(k: float, r: float) -> float:
    """The flat operator L = r(E + E*) of ``E2(k, -7, 7)`` under e(2) at
    c = s = 0 has a zero diagonal, so its rows act on the Fourier modes
    psi_n = e^{inx} by k r (e^{i(n+1)x} + e^{i(n-1)x}) = 2 k r cos(x) e^{inx};
    returns the max residual of that identity over its interior rows
    (orders -5..5) and a uniform grid of 64 points x."""
    L = build_L(E2(k, -7, 7), e2(0.0), r, 0.0)
    rows = np.array(L.interior_rows())
    xs = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    psi = np.exp(1j * np.outer(L.base_index + np.arange(L.size), xs))
    L_psi = (L.off[rows - 1, None] * psi[rows - 1] + L.diag[rows, None] * psi[rows]
             + L.off[rows, None] * psi[rows + 1])
    return float(np.abs(L_psi - 2.0 * k * r * np.cos(xs) * psi[rows]).max())
