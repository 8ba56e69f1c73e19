"""Irreducible *-representations of g(a,b) as banded operators.

Each representation acts on an orthonormal basis e_n of a finite window.
``H`` and ``N`` act diagonally, ``E`` raises (e_n -> E_coeff(n) e_{n+1}) and
``F`` lowers.  The involution E* = epsilon*F makes L = c H + s(aH+bN) +
r(E+E*) symmetric tridiagonal and M = u(E-E*) skew-tridiagonal, so the Lax
equation dL/dt = [M, L] is an identity between five bands.

Displayed actions realized here:

    su(2), dim 2j+1:       H e_n = 2(n-j) e_n,   E e_n = sqrt((n+1)(2j-n)) e_{n+1}
    discrete series (k>0): H e_n = 2(k+n) e_n,   E e_n = sqrt((n+1)(2k+n)) e_{n+1},
                           F e_n = -sqrt(n(2k+n-1)) e_{n-1}
    principal series:      H e_n = 2(eps+n) e_n,
                           E e_n = sqrt((n+eps+1/2)^2 + rho^2) e_{n+1},
                           F e_n = -sqrt((n+eps-1/2)^2 + rho^2) e_{n-1}
    oscillator (k>=0,h>0): H e_n = 2(k+n) e_n,   E e_n = sqrt(h(n+1)) e_{n+1},
                           F e_n = sqrt(h n) e_{n-1},   N = -h
    e(2) (k>0):            H e_n = 2n e_n,       E e_n = k e_{n+1},  F e_n = k e_{n-1}
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec
from .operators import TridiagonalOperator, skew_commutator


class ParameterError(ValueError):
    """Invalid representation parameters."""


class ConfigurationError(ValueError):
    """Incompatible (representation, algebra) pairing."""


# --------------------------------------------------------------------------
# representation specs


@dataclass(frozen=True)
class SU2:
    """Finite representation of dimension 2j+1; j a nonnegative half-integer."""

    j: float

    def __post_init__(self):
        if self.j < 0 or round(2 * self.j) != 2 * self.j:
            raise ParameterError(f"j must be a nonnegative half-integer, got {self.j}")

    @property
    def window(self) -> tuple[int, int]:
        return 0, int(round(2 * self.j))


@dataclass(frozen=True)
class DiscreteSeriesPlus:
    """Positive discrete series on l2(N), truncated at n_max (inclusive)."""

    k: float
    n_max: int

    def __post_init__(self):
        if self.k <= 0:
            raise ParameterError(f"k must be positive, got {self.k}")
        if self.n_max < 0:
            raise ParameterError("window is empty")

    @property
    def window(self) -> tuple[int, int]:
        return 0, self.n_max


@dataclass(frozen=True)
class PrincipalSeries:
    """Principal unitary series on l2(Z) with spectral parameter
    lambda = -1/2 + i*rho, truncated to [n_min, n_max]."""

    rho: float
    eps: float
    n_min: int
    n_max: int

    def __post_init__(self):
        if self.rho <= 0:
            raise ParameterError(f"rho must be positive, got {self.rho}")
        if not 0.0 <= self.eps < 1.0:
            raise ParameterError(f"eps must lie in [0,1), got {self.eps}")
        if self.n_max < self.n_min:
            raise ParameterError("window is empty")

    @property
    def window(self) -> tuple[int, int]:
        return self.n_min, self.n_max


@dataclass(frozen=True)
class Oscillator:
    """Lowest-weight oscillator-algebra representation on l2(N); N acts by -h."""

    k: float
    h: float
    n_max: int

    def __post_init__(self):
        if self.k < 0:
            raise ParameterError(f"k must be nonnegative, got {self.k}")
        if self.h <= 0:
            raise ParameterError(f"h must be positive, got {self.h}")
        if self.n_max < 0:
            raise ParameterError("window is empty")

    @property
    def window(self) -> tuple[int, int]:
        return 0, self.n_max


@dataclass(frozen=True)
class E2:
    """e(2) representation on l2(Z) with shift weight k, truncated to [n_min, n_max]."""

    k: float
    n_min: int
    n_max: int

    def __post_init__(self):
        if self.k <= 0:
            raise ParameterError(f"k must be positive, got {self.k}")
        if self.n_max < self.n_min:
            raise ParameterError("window is empty")

    @property
    def window(self) -> tuple[int, int]:
        return self.n_min, self.n_max


RepresentationSpec = SU2 | DiscreteSeriesPlus | PrincipalSeries | Oscillator | E2

_COMPAT = {
    SU2: (1.0, 0.0, +1),
    DiscreteSeriesPlus: (1.0, 0.0, -1),
    PrincipalSeries: (1.0, 0.0, -1),
    Oscillator: (0.0, 1.0, +1),
    E2: (0.0, 0.0, +1),
}


def check_compatible(rep: RepresentationSpec, alg: AlgebraSpec) -> None:
    a, b, eps = _COMPAT[type(rep)]
    if (alg.a, alg.b, alg.epsilon) != (a, b, eps):
        raise ConfigurationError(
            f"{type(rep).__name__} requires (a, b, epsilon) = {(a, b, eps)}, "
            f"got ({alg.a}, {alg.b}, {alg.epsilon})"
        )


# --------------------------------------------------------------------------
# generator matrix elements


@dataclass(frozen=True)
class Generators:
    """Matrix elements of (H, E, F, N) on the window.

    ``h_diag[i]`` is the H eigenvalue at basis index base_index+i,
    ``e_coeff[i]`` the coefficient of E: e_n -> e_coeff * e_{n+1} at
    n = base_index+i, and ``n_scalar`` the scalar by which the central
    element acts.  F enters L and M only through E* = epsilon*F, whose
    coefficients are those of E transposed, so it is not stored.
    """

    base_index: int
    h_diag: np.ndarray
    e_coeff: np.ndarray
    n_scalar: float
    lo_exact: bool
    hi_exact: bool


def build_generators(rep: RepresentationSpec) -> Generators:
    lo, hi = rep.window
    n = np.arange(lo, hi + 1, dtype=float)
    up = n[:-1]  # indices carrying the E coefficient to the next basis vector
    if isinstance(rep, SU2):
        e = np.sqrt((up + 1) * (2.0 * rep.j - up))
        return Generators(lo, 2.0 * (n - rep.j), e, 0.0, True, True)
    if isinstance(rep, DiscreteSeriesPlus):
        e = np.sqrt((up + 1) * (2 * rep.k + up))
        return Generators(lo, 2.0 * (rep.k + n), e, 0.0, True, False)
    if isinstance(rep, PrincipalSeries):
        e = np.sqrt((up + rep.eps + 0.5) ** 2 + rep.rho ** 2)
        return Generators(lo, 2.0 * (rep.eps + n), e, 0.0, False, False)
    if isinstance(rep, Oscillator):
        e = np.sqrt(rep.h * (up + 1))
        return Generators(lo, 2.0 * (rep.k + n), e, -rep.h, True, False)
    if isinstance(rep, E2):
        e = np.full(len(up), rep.k)
        return Generators(lo, 2.0 * n, e, 0.0, False, False)
    raise ParameterError(f"unknown representation spec {rep!r}")


# --------------------------------------------------------------------------
# Lax operators


def lax_entries(rep: RepresentationSpec, alg: AlgebraSpec, r, s):
    """The generators of ``rep`` and the diagonal and off-diagonal of
    L = cH + s(aH + bN) + r(E + E*) at a scalar (r, s), or at a column of
    samples (shape (k, 1) each), which gives (k, n) and (k, n - 1) arrays
    with one sample per row.  Raises ValueError when a sample or an entry
    is not finite."""
    check_compatible(rep, alg)
    if not (np.isfinite(r).all() and np.isfinite(s).all()):
        raise ValueError("r and s must be finite")
    g = build_generators(rep)
    diag = (alg.c_param + s * alg.a) * g.h_diag + s * alg.b * g.n_scalar
    off = r * g.e_coeff  # E* = epsilon*F contributes the same coefficient, symmetrically
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError("non-finite entries")
    return g, diag, off


def build_L(rep: RepresentationSpec, alg: AlgebraSpec, r: float, s: float) -> TridiagonalOperator:
    """Symmetric tridiagonal matrix of L = cH + s(aH + bN) + r(E + E*)."""
    g, diag, off = lax_entries(rep, alg, r, s)
    return TridiagonalOperator(g.base_index, diag, off, g.lo_exact, g.hi_exact)


def lax_rows(op: TridiagonalOperator) -> range:
    """The interior rows of ``op``, over which ``lax_residual`` is taken.
    Raises ConfigurationError when none survive truncation."""
    rows = op.interior_rows()
    if len(rows) == 0:
        raise ConfigurationError("window too small: no interior rows survive truncation")
    return rows


def lax_residual(rep: RepresentationSpec, alg: AlgebraSpec, r: float, s: float, u: float,
                 *, L: TridiagonalOperator | None = None) -> float:
    """Interior-row max-norm of dL/dt - [M, L] with the flow substituted.

    dL/dt is assembled from the coupled system sdot = 2 epsilon r u,
    rdot = -2(a s + c) u via dL/ds = aH + bN and dL/dr = E + E*; the
    commutator with M = u(E - E*) is formed from the bands
    (``skew_commutator``), and every entry of the interior rows is read from
    the diagonal and the first two off-diagonals of the difference.
    Analytically zero on every interior row.  ``L`` is
    ``build_L(rep, alg, r, s)`` when the caller has built it.
    """
    if L is None:
        L = build_L(rep, alg, r, s)
    else:
        check_compatible(rep, alg)
    rows = lax_rows(L)
    if not np.isfinite(u):
        raise ValueError("u must be finite")
    g = build_generators(rep)
    s_dot = 2.0 * alg.epsilon * r * u
    r_dot = -2.0 * (alg.a * s + alg.c_param) * u
    comm_diag, comm_off, comm_sec = skew_commutator(u * g.e_coeff, L.diag, L.off)
    res_diag = s_dot * (alg.a * g.h_diag + alg.b * g.n_scalar) - comm_diag
    res_off = r_dot * g.e_coeff - comm_off
    # the entry coupling rows k and k + j lies in an interior row
    # lo <= row < hi when lo - j <= k < hi
    lo, hi = rows.start, rows.stop
    return float(np.abs(np.concatenate((res_diag[lo:hi], res_off[max(lo - 1, 0):hi],
                                        comm_sec[max(lo - 2, 0):hi]))).max())
