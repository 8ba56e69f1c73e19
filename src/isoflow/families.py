"""Catalog of orthonormal eigenfamilies for the rank-1 tridiagonal operators.

Six polynomial families (binomial, negative-binomial, gamma, hyperbolic,
Poisson and Gaussian lattices), a bilateral non-polynomial family built on
the regularized Gauss series, and an integer-order Bessel family for the
degenerate flat case.  Each family is one record (``FamilyEntry``) in
``FAMILIES``: its representation, ``isoflow run`` points, regime,
parameter map, recurrence, sum, weight, eigenvector and weight
modification.  Every polynomial family is available through two independent
routes — a three-term recurrence (``eval_rec``: one pass of
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
oscillator algebra's constant, a factor its record's eigenvector applies.
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
from .specfun import PrecisionError, abs_gamma, bessel_j, log_abs_gamma, regularized_2f1, three_term


class FamilyTag(str, Enum):
    KRAWTCHOUK = "krawtchouk"
    MEIXNER = "meixner"
    LAGUERRE = "laguerre"
    MEIXNER_POLLACZEK = "meixner_pollaczek"
    CHARLIER = "charlier"
    HERMITE = "hermite"
    MEIXNER_FUNCTION = "meixner_function"
    BESSEL = "bessel"


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
    vals = np.array([_meixner_values(ni, x.ravel().tolist(), params)
                     for ni in n.ravel().tolist()]).reshape(n.shape + x.shape)
    return float(vals) if vals.ndim == 0 else vals


def _meixner_values(n: int, xs: list[float], params: MeixnerFunctionParams) -> list[float]:
    """m_n at each point of ``xs``, with the order's prefactor computed once."""
    rho, eps, c = params.rho, params.eps, params.c
    a, z = complex(n + eps + 0.5, rho), c / (c - 1.0)
    # |Gamma(a)| = sqrt(Gamma(a) Gamma(conj a))
    norm = (math.sqrt(c) / (c - 1.0)) ** n * abs_gamma(a.real, rho) * (1.0 - c) ** (-eps)
    out = []
    for x in xs:
        val = complex(norm * regularized_2f1(a, a.conjugate(), n + 1 - x, z))
        if abs(val.imag) > 1e-8 * (1.0 + abs(val.real)):
            raise PrecisionError(f"non-real bilateral value {val}")
        out.append(val.real)
    return out


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


# --------------------------------------------------------------------------
# the records, and their fields that are not one expression


def _krawtchouk_map(rep, alg, r, s, se):
    C = math.hypot(se, r)
    p = 0.5 + se / (2.0 * C)
    return KrawtchoukParams(p, int(round(2 * rep.j))), SpectralMap(-2.0 * C, 2.0 * C * rep.j)


def _krawtchouk_rec(par, m, x):
    p, N = par.p, par.N
    _need(len(m) <= N, f"degree {len(m)} exceeds lattice size {N}")
    return np.sqrt(p * (1 - p) * (m + 1) * (N - m)), p * N + m * (1 - 2 * p) - x


def _krawtchouk_sum(par, n, x):
    p, N = par.p, par.N
    _need(n <= N, f"degree {n} exceeds lattice size {N}")
    pref = (p / (1 - p)) ** (n / 2.0) * math.sqrt(math.comb(N, n))
    return pref * _hyp_terminating(n, [-float(x)], [-float(N)], 1.0 / p)


def _krawtchouk_weight(par, x):
    p, N, xi = par.p, par.N, int(round(x))
    return math.comb(N, xi) * p ** xi * (1 - p) ** (N - xi)


def _su11_map(r, se, make, shift):
    """(make(c), SpectralMap(2C, 2C shift)), C^2 = se^2 - r^2, c = e^(-2 acosh(se/r))."""
    C = math.sqrt(se * se - r * r)
    return make(math.exp(-2.0 * math.acosh(se / r))), SpectralMap(2.0 * C, 2.0 * C * shift)


def _laguerre_weight(par, x):
    xt = x / par.scale
    if xt <= 0:
        return 0.0
    return math.exp(par.alpha * math.log(xt) - xt - math.lgamma(par.alpha + 1)) / par.scale


def _meixner_pollaczek_sum(par, n, x):
    lam, phi = par.lam, par.phi
    pref = cmath.exp(1j * n * phi) * math.sqrt(_poch(2 * lam, n) / math.factorial(n))
    z = 1.0 - cmath.exp(-2j * phi)
    series, scale = _hyp_terminating_complex(n, [complex(lam, x)], [2 * lam], z)
    val = pref * series
    if abs(val.imag) > 1e-12 * max(1.0, abs(pref) * scale):
        raise PrecisionError(f"non-real value {val} in a real family")
    return val.real


def _charlier_map(rep, alg, r, s, se):
    c = alg.c_param
    return (CharlierParams(rep.h * r * r / (4.0 * c * c)),
            SpectralMap(2.0 * c, 2.0 * c * rep.k - (r * r / (2.0 * c) + s) * rep.h))


def _hermite_sum(par, n, x):
    xt = (x - par.shift) / par.scale
    total = 0.0
    for m in range(n // 2 + 1):
        total += ((-1.0) ** m * 2.0 ** (n / 2.0 - 2 * m) * xt ** (n - 2 * m)
                  / (math.factorial(m) * math.factorial(n - 2 * m)))
    return math.sqrt(math.factorial(n)) * total


def _hermite_weight(par, x):
    xt = (x - par.shift) / par.scale
    return math.exp(-xt * xt) / (math.sqrt(math.pi) * par.scale)


def _polynomial(fam, par, alg, r, n, x, sign=1.0):
    """sign^n p_n(x) (``eval_rec``): the eigenvector of a polynomial family."""
    return (sign ** n).reshape(n.shape + (1,) * np.ndim(x)) * eval_rec(fam, par, n, x)


class FamilyEntry(NamedTuple):
    """One family's record, each field read by one function, with ``par``
    the family's parameter record and se = a s + c the coefficient of the
    grading element.  A field calls the module's functions by their names
    when it runs.  ``regime`` holds (test(r, se, c), message) pairs
    (``check_regime``); ``parameters(rep, alg, r, s, se)`` gives (par,
    SpectralMap) (``parameter_map``); ``recurrence(par, m, x)`` the
    coefficients (a_m, mid_m) over an array of degrees m (``eval_rec``);
    ``hyper(par, n, x)`` the terminating sum (``eval_hyper``);
    ``eigenvector(fam, par, alg, r, n, x)`` the components psi_n of L's
    eigenvector (``spectral.eigenfunction``); ``modification`` the weight
    factor F(r, s, se, C) along a flow and its rate K(alg, r0, C)
    (``flows.modification_report``).  None where the family has none."""
    representation: type
    points: Callable[[int], np.ndarray]
    regime: tuple[tuple[Callable[..., bool], str], ...]
    parameters: Callable[..., tuple]
    weight: Callable[..., float]
    recurrence: Callable[..., tuple] | None = None
    hyper: Callable[..., float] | None = None
    eigenvector: Callable[..., np.ndarray] = _polynomial
    modification: tuple[Callable[..., float], Callable[..., float]] | None = None


_lattice = functools.partial(np.arange, dtype=float)
_axis = functools.partial(np.linspace, -4.0, 4.0)

# the classification: the family that diagonalizes L on each representation
# (on the discrete series, the one of the state's regime)
FAMILIES: dict[FamilyTag, FamilyEntry] = {
    FamilyTag.KRAWTCHOUK: FamilyEntry(
        SU2, _lattice,
        regime=((lambda r, se, c: math.hypot(se, r) > 0, "zero operator has no spectral map"),),
        parameters=_krawtchouk_map, weight=_krawtchouk_weight,
        recurrence=_krawtchouk_rec, hyper=_krawtchouk_sum,
        modification=(lambda r, s, se, C: (C + se) / (C - se), lambda alg, r0, C: 4.0 * C)),
    FamilyTag.MEIXNER: FamilyEntry(
        DiscreteSeriesPlus, _lattice,
        regime=((lambda r, se, c: r > 0 and se > r, "family meixner needs s + c > r > 0"),),
        parameters=lambda rep, alg, r, s, se: _su11_map(
            r, se, lambda c: MeixnerParams(2.0 * rep.k, c), rep.k),
        weight=lambda par, x: math.exp(
            math.lgamma(par.beta + x) - math.lgamma(par.beta) - math.lgamma(x + 1)
            + x * math.log(par.c) + par.beta * math.log(1 - par.c)),
        recurrence=lambda par, m, x: (
            np.sqrt(par.c * (m + 1) * (m + par.beta)) / (1 - par.c),
            x - (m + (m + par.beta) * par.c) / (1 - par.c)),
        hyper=lambda par, n, x: (
            (-1.0) ** n * math.sqrt(_poch(par.beta, n) * par.c ** n / math.factorial(n))
            * _hyp_terminating(n, [-float(x)], [par.beta], 1.0 - 1.0 / par.c)),
        modification=(lambda r, s, se, C: math.exp(-2.0 * math.acosh(se / r)),
                      lambda alg, r0, C: -4.0 * C)),
    FamilyTag.LAGUERRE: FamilyEntry(
        DiscreteSeriesPlus, functools.partial(np.linspace, 0.3, 9.0),
        regime=((lambda r, se, c: r > 0 and math.isclose(se, r, rel_tol=1e-12),
                 "gamma case needs s + c = r > 0"),),
        parameters=lambda rep, alg, r, s, se: (LaguerreParams(2.0 * rep.k - 1.0, r),
                                               SpectralMap(1.0, 0.0)),
        weight=_laguerre_weight,
        recurrence=lambda par, m, x: (np.sqrt((m + 1) * (m + par.alpha + 1)),
                                      x / par.scale - (2 * m + par.alpha + 1)),
        hyper=lambda par, n, x: (
            (-1.0) ** n * math.sqrt(_poch(par.alpha + 1, n) / math.factorial(n))
            * _hyp_terminating(n, [], [par.alpha + 1], x / par.scale)),
        # the weight x^alpha e^(-x/r) gives ln m = -1/r; with rdot = -2 se u,
        # K = r (ln m)' / u = -2 se / r = -2 on the regime se = r
        modification=(lambda r, s, se, C: math.exp(-1.0 / r), lambda alg, r0, C: -2.0)),
    FamilyTag.MEIXNER_POLLACZEK: FamilyEntry(
        DiscreteSeriesPlus, _axis,
        regime=((lambda r, se, c: r > 0 and abs(se) < r, "hyperbolic case needs |s + c| < r"),),
        parameters=lambda rep, alg, r, s, se: (
            MeixnerPollaczekParams(rep.k, math.acos(-se / r)),
            SpectralMap(2.0 * math.sqrt(r * r - se * se), 0.0)),
        weight=lambda par, x: ((2 * math.sin(par.phi)) ** (2 * par.lam)
                               / (2 * math.pi * math.gamma(2 * par.lam))
                               * math.exp((2 * par.phi - math.pi) * x
                                          + 2 * log_abs_gamma(par.lam, x))),
        recurrence=lambda par, m, x: (
            np.sqrt((m + 1) * (m + 2 * par.lam)),
            2 * x * math.sin(par.phi) + 2 * (m + par.lam) * math.cos(par.phi)),
        hyper=_meixner_pollaczek_sum,
        modification=(lambda r, s, se, C: math.exp(2.0 * math.acos(se / r)),
                      lambda alg, r0, C: 4.0 * C)),
    FamilyTag.CHARLIER: FamilyEntry(
        Oscillator, _lattice,
        regime=((lambda r, se, c: c != 0.0, "Poisson case needs c != 0"),
                (lambda r, se, c: r != 0.0, "Poisson case needs r != 0")),
        parameters=_charlier_map,
        weight=lambda par, x: math.exp(-par.a + x * math.log(par.a) - math.lgamma(x + 1)),
        recurrence=lambda par, m, x: (np.sqrt(par.a * (m + 1)), m + par.a - x),
        hyper=lambda par, n, x: (math.sqrt(par.a ** n / math.factorial(n))
                                 * _hyp_terminating(n, [-float(x)], [], -1.0 / par.a)),
        eigenvector=lambda fam, par, alg, r, n, x: _polynomial(
            fam, par, alg, r, n, x, -math.copysign(1.0, r / alg.c_param)),
        modification=(lambda r, s, se, C: r * r, lambda alg, r0, C: -4.0 * alg.c_param)),
    FamilyTag.HERMITE: FamilyEntry(
        Oscillator, _axis,
        regime=((lambda r, se, c: c == 0.0, "Gaussian case needs c = 0"),
                (lambda r, se, c: r > 0, "Gaussian case needs r > 0")),
        parameters=lambda rep, alg, r, s, se: (
            HermiteParams(-rep.h * s, r * math.sqrt(2.0 * rep.h)), SpectralMap(1.0, 0.0)),
        weight=_hermite_weight,
        recurrence=lambda par, m, x: (
            np.sqrt(m + 1.0),
            np.broadcast_to(math.sqrt(2.0) * ((x - par.shift) / par.scale),
                            m.shape[:1] + x.shape)),
        hyper=_hermite_sum,
        modification=(lambda r, s, se, C: math.exp(s / r), lambda alg, r0, C: 2.0 * r0)),
    FamilyTag.MEIXNER_FUNCTION: FamilyEntry(
        PrincipalSeries, _axis,
        regime=((lambda r, se, c: r > 0 and se > r,
                 "family meixner_function needs s + c > r > 0"),),
        parameters=lambda rep, alg, r, s, se: _su11_map(
            r, se, lambda c: MeixnerFunctionParams(rep.rho, rep.eps, c), rep.eps),
        weight=lambda par, x: math.exp(-x * math.log(par.c)
                                       - 2.0 * log_abs_gamma(x + par.eps + 0.5, par.rho)),
        eigenvector=lambda fam, par, alg, r, n, x: meixner_function(n, x, par)),
    FamilyTag.BESSEL: FamilyEntry(
        E2, lambda count: _lattice(count) - count // 2,
        regime=((lambda r, se, c: c != 0.0, "flat spectral map needs c != 0"),),
        parameters=lambda rep, alg, r, s, se: (BesselParams(rep.k * r / alg.c_param),
                                               SpectralMap(2.0 * alg.c_param, 0.0)),
        weight=lambda par, x: 1.0,
        eigenvector=lambda fam, par, alg, r, n, x: bessel_j(
            -np.subtract.outer(n, np.rint(x)).astype(int), par.z)),
}


# --------------------------------------------------------------------------
# the routes, one field each


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
    recurrence = FAMILIES[fam].recurrence
    _need(recurrence is not None, f"no polynomial recurrence for family {fam.value!r}")
    x = np.asarray(x, dtype=float)
    # the recurrence coefficients of degrees m = 0..top-1, as columns over x
    a, mid = recurrence(params, np.arange(top).reshape((top,) + (1,) * x.ndim), x)
    vals = three_term(mid, a.ravel())[deg]
    return float(vals) if vals.ndim == 0 else vals


def eval_hyper(family: FamilyTag, params, n: int, x: float) -> float:
    """Evaluate the same orthonormal family member through its terminating
    hypergeometric sum — an independent route used to cross-check
    ``eval_rec``."""
    n = int(_check_degree(n))
    fam = FamilyTag(family)
    hyper = FAMILIES[fam].hyper
    _need(hyper is not None, f"no hypergeometric sum for family {fam.value!r}")
    return hyper(params, n, x)


def weight(family: FamilyTag, params, x) -> float:
    """Orthogonality weight (probability mass or density) at ``x``."""
    return FAMILIES[FamilyTag(family)].weight(params, x)


def check_regime(fam: FamilyTag, alg: AlgebraSpec, r: float, s: float) -> None:
    """Raise ParameterError unless ``alg`` is the algebra of the family's
    representation (``FAMILIES``) and (r, s) lies in its sign regime (e.g. a
    negative-binomial lattice needs r > 0 and s + c > r, the hyperbolic axis
    |s + c| < r)."""
    entry = FAMILIES[fam]
    kind = entry.representation
    _need((alg.a, alg.b, alg.epsilon) == _COMPAT[kind],
          f"family {fam.value} diagonalizes L on {kind.__name__}, which requires "
          f"(a, b, epsilon) = {_COMPAT[kind]}, got ({alg.a}, {alg.b}, {alg.epsilon})")
    se = alg.a * s + alg.c_param  # coefficient multiplying the grading element
    for test, message in entry.regime:
        _need(test(r, se, alg.c_param), message)


def check_modification(family: str, alg: AlgebraSpec, r: float, s: float):
    """The family's modification (F, K).  Raise ParameterError for a family
    without a closed-form one, or when the initial state (r, s) lies outside
    the family's regime (``check_regime``)."""
    fam = FamilyTag(family)
    modification = FAMILIES[fam].modification
    _need(modification is not None, f"no closed-form modification for family {fam.value!r}")
    check_regime(fam, alg, r, s)
    return modification


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
    entry = FAMILIES[fam]
    kind = entry.representation
    _need(type(rep) is kind,
          f"family {fam.value} diagonalizes L on {kind.__name__}, got {type(rep).__name__}")
    return entry.parameters(rep, alg, r, s, alg.a * s + alg.c_param)


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterError(msg)
