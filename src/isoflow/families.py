"""Catalog of orthonormal eigenfamilies for the rank-1 tridiagonal operators.

Six polynomial families (binomial, negative-binomial, gamma, hyperbolic,
Poisson and Gaussian lattices), a bilateral non-polynomial family built on
the regularized Gauss series, and an integer-order Bessel family for the
degenerate flat case.  Every polynomial family is available through two
independent routes — a three-term recurrence (``eval_rec``: one pass of
``specfun.three_term`` over an array of degrees and points) and a
terminating hypergeometric sum (``eval_hyper``: one degree at one point,
exact-rational where real) — which the test-suite cross-checks.
``meixner_function`` also takes arrays of orders and points.

Normalization is fixed so that each family solves the row identity

    off(n-1) psi(n-1) + diag(n) psi(n) + off(n) psi(n+1) = Lambda psi(n)

of the corresponding operator with *positive* off-diagonal, which for the
negative-binomial and gamma families introduces a (-1)^n relative to the
classical normalization.  The Poisson-lattice (Charlier) family does not:
the operator's eigenvector is its polynomials times (-sgn(r/c))^n, c the
oscillator algebra's constant, a factor ``spectral.eigenfunction`` applies.
``parameter_map`` returns the affine spectral map Lambda = slope * x +
intercept together with the family parameters.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .algebra import AlgebraSpec
from .representations import (_COMPAT, E2, SU2, DiscreteSeriesPlus, Oscillator,
                              ParameterError, PrincipalSeries, RepresentationSpec)
from .specfun import PrecisionError, loggamma, regularized_2f1, three_term


class FamilyTag(str, Enum):
    KRAWTCHOUK = "krawtchouk"
    MEIXNER = "meixner"
    LAGUERRE = "laguerre"
    MEIXNER_POLLACZEK = "meixner_pollaczek"
    CHARLIER = "charlier"
    HERMITE = "hermite"
    MEIXNER_FUNCTION = "meixner_function"
    BESSEL = "bessel"


class FamilyEntry(NamedTuple):
    """A family's representation class and its ``isoflow run`` sample points."""
    representation: type
    points: Callable[[int], np.ndarray]


_lattice = functools.partial(np.arange, dtype=float)
_axis = functools.partial(np.linspace, -4.0, 4.0)

# the classification: the family that diagonalizes L on each representation
# (on the discrete series, the one of the state's regime)
FAMILIES: dict[FamilyTag, FamilyEntry] = {
    FamilyTag.KRAWTCHOUK: FamilyEntry(SU2, _lattice),
    FamilyTag.MEIXNER: FamilyEntry(DiscreteSeriesPlus, _lattice),
    FamilyTag.LAGUERRE: FamilyEntry(DiscreteSeriesPlus, functools.partial(np.linspace, 0.3, 9.0)),
    FamilyTag.MEIXNER_POLLACZEK: FamilyEntry(DiscreteSeriesPlus, _axis),
    FamilyTag.CHARLIER: FamilyEntry(Oscillator, _lattice),
    FamilyTag.HERMITE: FamilyEntry(Oscillator, _axis),
    FamilyTag.MEIXNER_FUNCTION: FamilyEntry(PrincipalSeries, _axis),
    FamilyTag.BESSEL: FamilyEntry(E2, lambda count: _lattice(count) - count // 2),
}


# --------------------------------------------------------------------------
# parameter records


@dataclass(frozen=True)
class KrawtchoukParams:
    p: float
    N: int

    def __post_init__(self):
        if not (0.0 < self.p < 1.0):
            raise ParameterError(f"p must lie in (0, 1), got {self.p}")
        if self.N < 1 or self.N != int(self.N):
            raise ParameterError(f"N must be a positive integer, got {self.N}")


@dataclass(frozen=True)
class MeixnerParams:
    beta: float
    c: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ParameterError(f"beta must be positive, got {self.beta}")
        if not (0.0 < self.c < 1.0):
            raise ParameterError(f"c must lie in (0, 1), got {self.c}")


@dataclass(frozen=True)
class LaguerreParams:
    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if self.alpha <= -1:
            raise ParameterError(f"alpha must exceed -1, got {self.alpha}")
        if self.scale <= 0:
            raise ParameterError(f"scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class MeixnerPollaczekParams:
    lam: float
    phi: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ParameterError(f"lam must be positive, got {self.lam}")
        if not (0.0 < self.phi < math.pi):
            raise ParameterError(f"phi must lie in (0, pi), got {self.phi}")


@dataclass(frozen=True)
class CharlierParams:
    a: float

    def __post_init__(self):
        if self.a <= 0:
            raise ParameterError(f"a must be positive, got {self.a}")


@dataclass(frozen=True)
class HermiteParams:
    shift: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.scale <= 0:
            raise ParameterError(f"scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class MeixnerFunctionParams:
    rho: float
    eps: float
    c: float

    def __post_init__(self):
        if self.rho <= 0:
            raise ParameterError(f"rho must be positive, got {self.rho}")
        if not (0.0 <= self.eps < 1.0):
            raise ParameterError(f"eps must lie in [0, 1), got {self.eps}")
        if not (0.0 < self.c < 1.0):
            raise ParameterError(f"c must lie in (0, 1), got {self.c}")


@dataclass(frozen=True)
class BesselParams:
    z: float

    def __post_init__(self):
        if abs(self.z) > 50.0:
            raise ParameterError(f"|z| <= 50 required, got {self.z}")


# --------------------------------------------------------------------------
# small numeric helpers


def _poch(a: float, n: int) -> float:
    out = 1.0
    for i in range(n):
        out *= a + i
    return out


def _check_degree(n) -> np.ndarray:
    """``n`` (an int or an array) as ints, unless an entry is not a degree."""
    deg = np.asarray(n)
    if not (np.isfinite(deg) & (deg == np.round(deg)) & (deg >= 0)).all():
        raise ParameterError(f"degree must be a non-negative integer, got {n}")
    return deg.astype(int)


# --------------------------------------------------------------------------
# recurrence route


def eval_rec(family: FamilyTag, params, n, x):
    """Evaluate the orthonormal family members of degree ``n`` at ``x`` by
    one pass of the three-term recurrence (``specfun.three_term``) from
    degree zero up to the largest degree asked for.

    ``n`` is an int or an array of ints and ``x`` a number or an array; the
    result has shape ``n.shape + x.shape`` (a float for an int ``n`` at a
    number ``x``)."""
    deg = _check_degree(n)
    top = int(deg.max(initial=0))
    fam = FamilyTag(family)
    x = np.asarray(x, dtype=float)
    # the recurrence coefficients of degrees m = 0..top-1, as columns over x
    m = np.arange(top).reshape((top,) + (1,) * x.ndim)
    if fam is FamilyTag.KRAWTCHOUK:
        p, N = params.p, params.N
        if top > N:
            raise ParameterError(f"degree {top} exceeds lattice size {N}")
        a = np.sqrt(p * (1 - p) * (m + 1) * (N - m))
        mid = p * N + m * (1 - 2 * p) - x
    elif fam is FamilyTag.MEIXNER:
        beta, c = params.beta, params.c
        a = np.sqrt(c * (m + 1) * (m + beta)) / (1 - c)
        mid = x - (m + (m + beta) * c) / (1 - c)
    elif fam is FamilyTag.LAGUERRE:
        alpha = params.alpha
        a = np.sqrt((m + 1) * (m + alpha + 1))
        mid = x / params.scale - (2 * m + alpha + 1)
    elif fam is FamilyTag.MEIXNER_POLLACZEK:
        lam, phi = params.lam, params.phi
        a = np.sqrt((m + 1) * (m + 2 * lam))
        mid = 2 * x * math.sin(phi) + 2 * (m + lam) * math.cos(phi)
    elif fam is FamilyTag.CHARLIER:
        av = params.a
        a = np.sqrt(av * (m + 1))
        mid = m + av - x
    elif fam is FamilyTag.HERMITE:
        a = np.sqrt(m + 1.0)
        mid = np.broadcast_to(math.sqrt(2.0) * ((x - params.shift) / params.scale),
                              (top,) + x.shape)
    else:
        raise ParameterError(f"no polynomial recurrence for family {fam.value!r}")
    vals = three_term(mid, a.ravel())[deg]
    return float(vals) if vals.ndim == 0 else vals


# --------------------------------------------------------------------------
# hypergeometric route


def eval_hyper(family: FamilyTag, params, n: int, x: float) -> float:
    """Evaluate the same orthonormal family member through its terminating
    hypergeometric sum — an independent route used to cross-check
    ``eval_rec``."""
    n = int(_check_degree(n))
    fam = FamilyTag(family)
    if fam is FamilyTag.KRAWTCHOUK:
        p, N = params.p, params.N
        if n > N:
            raise ParameterError(f"degree {n} exceeds lattice size {N}")
        pref = (p / (1 - p)) ** (n / 2.0) * math.sqrt(math.comb(N, n))
        return pref * _hyp_terminating(n, [-float(x)], [-float(N)], 1.0 / p)
    if fam is FamilyTag.MEIXNER:
        beta, c = params.beta, params.c
        pref = (-1.0) ** n * math.sqrt(_poch(beta, n) * c ** n / math.factorial(n))
        return pref * _hyp_terminating(n, [-float(x)], [beta], 1.0 - 1.0 / c)
    if fam is FamilyTag.LAGUERRE:
        alpha = params.alpha
        xt = x / params.scale
        pref = (-1.0) ** n * math.sqrt(_poch(alpha + 1, n) / math.factorial(n))
        return pref * _hyp_terminating(n, [], [alpha + 1], xt)
    if fam is FamilyTag.MEIXNER_POLLACZEK:
        lam, phi = params.lam, params.phi
        pref = cmath.exp(1j * n * phi) * math.sqrt(_poch(2 * lam, n) / math.factorial(n))
        z = 1.0 - cmath.exp(-2j * phi)
        series, scale = _hyp_terminating_complex(n, [complex(lam, x)], [2 * lam], z)
        val = pref * series
        if abs(val.imag) > 1e-12 * max(1.0, abs(pref) * scale):
            raise PrecisionError(f"non-real value {val} in a real family")
        return val.real
    if fam is FamilyTag.CHARLIER:
        av = params.a
        pref = math.sqrt(av ** n / math.factorial(n))
        return pref * _hyp_terminating(n, [-float(x)], [], -1.0 / av)
    if fam is FamilyTag.HERMITE:
        xt = (x - params.shift) / params.scale
        total = 0.0
        for m in range(n // 2 + 1):
            total += ((-1.0) ** m * 2.0 ** (n / 2.0 - 2 * m) * xt ** (n - 2 * m)
                      / (math.factorial(m) * math.factorial(n - 2 * m)))
        return math.sqrt(math.factorial(n)) * total
    raise ParameterError(f"no hypergeometric sum for family {fam.value!r}")


def _hyp_terminating(n, upper_extra, lower, z):
    """sum_{k=0}^{n} (-n)_k prod (u)_k z^k / (prod (l)_k k!), summed by term
    ratios.  Valid for any z because the sum is finite.

    The sum is taken in exact rational arithmetic (floats are rationals,
    and the sum terminates), because these alternating sums can cancel
    catastrophically and this is the oracle route: a single rounding at the
    end is the whole error.
    """
    zf = Fraction(z)
    uppers = [Fraction(u) for u in upper_extra]
    lowers = [Fraction(low) for low in lower]
    total = term = Fraction(1)
    for k in range(n):
        ratio = Fraction(-n + k) * zf / (k + 1)
        for u in uppers:
            ratio *= u + k
        for low in lowers:
            ratio /= low + k
        term = term * ratio
        total = total + term
    return float(total)


def _hyp_terminating_complex(n, upper_extra, lower, z):
    """Complex terminating sum; also returns the largest partial-sum
    magnitude, which bounds the rounding noise the cancellation can leave
    behind (callers checking that an analytically-real result has
    negligible imaginary part must measure "negligible" against it)."""
    total = term = complex(1.0)
    scale = 1.0
    for k in range(n):
        ratio = (-n + k) * z / (k + 1)
        for u in upper_extra:
            ratio *= u + k
        for low in lower:
            ratio /= low + k
        term = term * ratio
        total = total + term
        scale = max(scale, abs(total), abs(term))
    return total, scale


# --------------------------------------------------------------------------
# weights


def weight(family: FamilyTag, params, x) -> float:
    """Orthogonality weight (probability mass or density) at ``x``."""
    fam = FamilyTag(family)
    if fam is FamilyTag.KRAWTCHOUK:
        p, N = params.p, params.N
        xi = int(round(x))
        return math.comb(N, xi) * p ** xi * (1 - p) ** (N - xi)
    if fam is FamilyTag.MEIXNER:
        beta, c = params.beta, params.c
        return math.exp(math.lgamma(beta + x) - math.lgamma(beta)
                        - math.lgamma(x + 1) + x * math.log(c)
                        + beta * math.log(1 - c))
    if fam is FamilyTag.LAGUERRE:
        alpha, scale = params.alpha, params.scale
        xt = x / scale
        if xt <= 0:
            return 0.0
        return math.exp(alpha * math.log(xt) - xt - math.lgamma(alpha + 1)) / scale
    if fam is FamilyTag.MEIXNER_POLLACZEK:
        lam, phi = params.lam, params.phi
        lg = complex(loggamma(complex(lam, x)))
        return ((2 * math.sin(phi)) ** (2 * lam)
                / (2 * math.pi * math.gamma(2 * lam))
                * math.exp((2 * phi - math.pi) * x + 2 * lg.real))
    if fam is FamilyTag.CHARLIER:
        av = params.a
        return math.exp(-av + x * math.log(av) - math.lgamma(x + 1))
    if fam is FamilyTag.HERMITE:
        xt = (x - params.shift) / params.scale
        return math.exp(-xt * xt) / (math.sqrt(math.pi) * params.scale)
    if fam is FamilyTag.MEIXNER_FUNCTION:
        rho, eps, c = params.rho, params.eps, params.c
        lg = complex(loggamma(complex(x + eps + 0.5, rho)))
        return math.exp(-x * math.log(c) - 2.0 * lg.real)
    return 1.0  # Bessel


# --------------------------------------------------------------------------
# bilateral family on the regularized Gauss series


def meixner_function(n, x, params: MeixnerFunctionParams):
    """Bilateral lattice family m_n(x), n in Z, built on the regularized
    Gauss series so integer lattice points x >= n + 1 need no special casing.

    Solves the row identity of the unbounded-below tridiagonal operator with
    off(n) = sqrt((n + eps + 1/2)^2 + rho^2) and is orthogonal on x in Z for
    the weight ``weight(FamilyTag.MEIXNER_FUNCTION, ...)``.

    ``n`` is an int or an array of ints and ``x`` a number or an array; the
    result has shape ``n.shape + x.shape`` (a float for a number at a
    number), one series per entry.
    """
    n, x = np.asarray(n), np.asarray(x, dtype=float)
    vals = np.array([[_meixner_value(ni, xi, params) for xi in x.ravel().tolist()]
                     for ni in n.ravel().tolist()]).reshape(n.shape + x.shape)
    return float(vals) if vals.ndim == 0 else vals


def _meixner_value(n: int, x: float, params: MeixnerFunctionParams) -> float:
    rho, eps, c = params.rho, params.eps, params.c
    a = complex(n + eps + 0.5, rho)
    b = complex(n + eps + 0.5, -rho)
    cpar = float(n + 1 - x)
    if cpar == round(cpar):
        cpar = int(round(cpar))
    z = c / (c - 1.0)
    f_val = regularized_2f1(a, b, cpar, z)
    pref = (math.sqrt(c) / (c - 1.0)) ** n
    gam = math.exp(complex(loggamma(a)).real)  # |Gamma(a)| = sqrt(Gamma(a) Gamma(conj a))
    val = pref * gam * (1.0 - c) ** (-eps) * f_val
    val = complex(val)
    if abs(val.imag) > 1e-8 * (1.0 + abs(val.real)):
        raise PrecisionError(f"non-real bilateral value {val}")
    return val.real


def meixner_function_recurrence_residual(n: int, x: float,
                                         params: MeixnerFunctionParams) -> float:
    """Residual of the three-term identity linking m_{n-1}, m_n, m_{n+1};
    zero in exact arithmetic for every n in Z and real x."""
    rho, eps, c = params.rho, params.eps, params.c

    def off(m: int) -> float:
        return math.sqrt((m + eps + 0.5) ** 2 + rho ** 2)

    m_lo, m_md, m_hi = meixner_function([n - 1, n, n + 1], x, params).tolist()
    lhs = (1.0 - c) * (x + eps) / math.sqrt(c) * m_md
    rhs = off(n) * m_hi + (c + 1.0) * (n + eps) / math.sqrt(c) * m_md \
        + off(n - 1) * m_lo
    return abs(lhs - rhs)


# --------------------------------------------------------------------------
# flow-state -> family parameters


@dataclass(frozen=True)
class SpectralMap:
    """Affine change of variable Lambda = slope * x + intercept between the
    operator spectrum and the family's own lattice/axis."""
    slope: float
    intercept: float

    def to_family_variable(self, lam: float) -> float:
        return (lam - self.intercept) / self.slope

    def eigenvalue(self, x: float) -> float:
        return self.slope * x + self.intercept


def check_regime(fam: FamilyTag, alg: AlgebraSpec, r: float, s: float) -> None:
    """Raise ParameterError unless ``alg`` is the algebra of the family's
    representation (``FAMILIES``) and (r, s) lies in its sign regime (e.g. a
    negative-binomial lattice needs r > 0 and s + c > r, the hyperbolic axis
    |s + c| < r)."""
    kind = FAMILIES[fam].representation
    _need((alg.a, alg.b, alg.epsilon) == _COMPAT[kind],
          f"family {fam.value} diagonalizes L on {kind.__name__}, which requires "
          f"(a, b, epsilon) = {_COMPAT[kind]}, got ({alg.a}, {alg.b}, {alg.epsilon})")
    se = alg.a * s + alg.c_param  # coefficient multiplying the grading element

    if fam is FamilyTag.KRAWTCHOUK:
        _need(math.hypot(se, r) > 0, "zero operator has no spectral map")
    elif fam in (FamilyTag.MEIXNER, FamilyTag.MEIXNER_FUNCTION):
        _need(r > 0 and se > r, f"family {fam.value} needs s + c > r > 0")
    elif fam is FamilyTag.LAGUERRE:
        _need(r > 0 and math.isclose(se, r, rel_tol=1e-12),
              "gamma case needs s + c = r > 0")
    elif fam is FamilyTag.MEIXNER_POLLACZEK:
        _need(r > 0 and abs(se) < r, "hyperbolic case needs |s + c| < r")
    elif fam is FamilyTag.CHARLIER:
        _need(alg.c_param != 0.0, "Poisson case needs c != 0")
        _need(r != 0.0, "Poisson case needs r != 0")
    elif fam is FamilyTag.HERMITE:
        _need(alg.c_param == 0.0, "Gaussian case needs c = 0")
        _need(r > 0, "Gaussian case needs r > 0")
    else:
        _need(alg.c_param != 0.0, "flat spectral map needs c != 0")


def parameter_map(family: FamilyTag, rep: RepresentationSpec, alg: AlgebraSpec,
                  r: float, s: float):
    """Map a flow state (r, s) on the representation ``rep`` to the family
    parameters and the spectral change of variable; the family reads its
    labels (``rep.j``, ``rep.k``, ``rep.h``, ``rep.rho``, ``rep.eps``) from
    ``rep``.

    Raises ParameterError when the requested family does not match the
    algebra or the sign regime of (r, s) (``check_regime``), or ``rep`` is
    not of the family's representation class (``FAMILIES``).
    """
    fam = FamilyTag(family)
    check_regime(fam, alg, r, s)
    kind = FAMILIES[fam].representation
    _need(type(rep) is kind,
          f"family {fam.value} diagonalizes L on {kind.__name__}, got {type(rep).__name__}")
    se = alg.a * s + alg.c_param  # coefficient multiplying the grading element

    if fam is FamilyTag.KRAWTCHOUK:
        C = math.hypot(se, r)
        p = 0.5 + se / (2.0 * C)
        return (KrawtchoukParams(p, int(round(2 * rep.j))),
                SpectralMap(-2.0 * C, 2.0 * C * rep.j))

    if fam is FamilyTag.MEIXNER:
        C = math.sqrt(se * se - r * r)
        c = math.exp(-2.0 * math.acosh(se / r))
        return MeixnerParams(2.0 * rep.k, c), SpectralMap(2.0 * C, 2.0 * C * rep.k)

    if fam is FamilyTag.LAGUERRE:
        return LaguerreParams(2.0 * rep.k - 1.0, r), SpectralMap(1.0, 0.0)

    if fam is FamilyTag.MEIXNER_POLLACZEK:
        C = math.sqrt(r * r - se * se)
        phi = math.acos(-se / r)
        return MeixnerPollaczekParams(rep.k, phi), SpectralMap(2.0 * C, 0.0)

    if fam is FamilyTag.MEIXNER_FUNCTION:
        C = math.sqrt(se * se - r * r)
        c = math.exp(-2.0 * math.acosh(se / r))
        return (MeixnerFunctionParams(rep.rho, rep.eps, c),
                SpectralMap(2.0 * C, 2.0 * C * rep.eps))

    if fam is FamilyTag.CHARLIER:
        cpar = alg.c_param
        a = rep.h * r * r / (4.0 * cpar * cpar)
        big = r * r / (2.0 * cpar) + s
        return CharlierParams(a), SpectralMap(2.0 * cpar, 2.0 * cpar * rep.k - big * rep.h)

    if fam is FamilyTag.HERMITE:
        return HermiteParams(-rep.h * s, r * math.sqrt(2.0 * rep.h)), SpectralMap(1.0, 0.0)

    return BesselParams(rep.k * r / alg.c_param), SpectralMap(2.0 * alg.c_param, 0.0)  # Bessel


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterError(msg)
