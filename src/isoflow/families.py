"""Catalog of orthonormal eigenfamilies for the rank-1 tridiagonal operators.

Six polynomial families (binomial, negative-binomial, gamma, hyperbolic,
Poisson and Gaussian lattices), a bilateral non-polynomial family built on
the regularized Gauss series, and an integer-order Bessel family for the
degenerate flat case.  Every family is available through two independent
routes — a three-term recurrence (``eval_rec``) and a terminating
hypergeometric sum (``eval_hyper``) — which the test-suite cross-checks.

Normalization is fixed so that each family solves the row identity

    off(n-1) psi(n-1) + diag(n) psi(n) + off(n) psi(n+1) = Lambda psi(n)

of the corresponding operator with *positive* off-diagonal, which for the
negative-binomial and gamma families introduces a (-1)^n relative to the
classical normalization; ``parameter_map`` returns the affine spectral map
Lambda = slope * x + intercept together with the family parameters.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from scipy import special as sp

from .algebra import AlgebraSpec
from .representations import ParameterError
from .specfun import PrecisionError, regularized_2f1


class FamilyTag(str, Enum):
    KRAWTCHOUK = "krawtchouk"
    MEIXNER = "meixner"
    LAGUERRE = "laguerre"
    MEIXNER_POLLACZEK = "meixner_pollaczek"
    CHARLIER = "charlier"
    HERMITE = "hermite"
    MEIXNER_FUNCTION = "meixner_function"
    BESSEL = "bessel"


POLYNOMIAL_FAMILIES = (
    FamilyTag.KRAWTCHOUK, FamilyTag.MEIXNER, FamilyTag.LAGUERRE,
    FamilyTag.MEIXNER_POLLACZEK, FamilyTag.CHARLIER, FamilyTag.HERMITE,
)


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


def _check_degree(n: int) -> int:
    if n < 0 or n != int(n):
        raise ParameterError(f"degree must be a non-negative integer, got {n}")
    return int(n)


# --------------------------------------------------------------------------
# recurrence route


def eval_rec(family: FamilyTag, params, n: int, x: float) -> float:
    """Evaluate the orthonormal family member of degree ``n`` at ``x`` by
    running its three-term recurrence forward from degree zero."""
    n = _check_degree(n)
    fam = FamilyTag(family)
    if fam is FamilyTag.KRAWTCHOUK:
        p, N = params.p, params.N
        if n > N:
            raise ParameterError(f"degree {n} exceeds lattice size {N}")
        a = lambda m: math.sqrt(p * (1 - p) * (m + 1) * (N - m))
        b = lambda m: p * N + m * (1 - 2 * p)
        return _forward(n, x, a, b, flip=False)
    if fam is FamilyTag.MEIXNER:
        beta, c = params.beta, params.c
        a = lambda m: math.sqrt(c * (m + 1) * (m + beta)) / (1 - c)
        b = lambda m: (m + (m + beta) * c) / (1 - c)
        return _forward(n, x, a, b, flip=True)
    if fam is FamilyTag.LAGUERRE:
        alpha = params.alpha
        xt = x / params.scale
        a = lambda m: math.sqrt((m + 1) * (m + alpha + 1))
        b = lambda m: 2 * m + alpha + 1
        return _forward(n, xt, a, b, flip=True)
    if fam is FamilyTag.MEIXNER_POLLACZEK:
        lam, phi = params.lam, params.phi
        prev, cur = 0.0, 1.0
        for m in range(n):
            nxt = ((2 * x * math.sin(phi) + 2 * (m + lam) * math.cos(phi)) * cur
                   - math.sqrt(m * (m + 2 * lam - 1)) * prev) \
                / math.sqrt((m + 1) * (m + 2 * lam))
            prev, cur = cur, nxt
        return cur
    if fam is FamilyTag.CHARLIER:
        av = params.a
        a = lambda m: math.sqrt(av * (m + 1))
        b = lambda m: m + av
        return _forward(n, x, a, b, flip=False)
    if fam is FamilyTag.HERMITE:
        xt = (x - params.shift) / params.scale
        prev, cur = 0.0, 1.0
        for m in range(n):
            nxt = (math.sqrt(2.0) * xt * cur - math.sqrt(m) * prev) / math.sqrt(m + 1)
            prev, cur = cur, nxt
        return cur
    raise ParameterError(f"no polynomial recurrence for family {fam.value!r}")


def _forward(n, x, a, b, flip):
    # (b(m) - x) psi_m = a(m) psi_{m+1} + a(m-1) psi_{m-1}; flip swaps b - x
    # for x - b (families whose operator-adapted normalization is (-1)^n
    # relative to the classical one).
    prev, cur = 0.0, 1.0
    for m in range(n):
        mid = (x - b(m)) if flip else (b(m) - x)
        nxt = (mid * cur - (a(m - 1) if m else 0.0) * prev) / a(m)
        prev, cur = cur, nxt
    return cur


# --------------------------------------------------------------------------
# hypergeometric route


def eval_hyper(family: FamilyTag, params, n: int, x: float) -> float:
    """Evaluate the same orthonormal family member through its terminating
    hypergeometric sum — an independent route used to cross-check
    ``eval_rec``."""
    n = _check_degree(n)
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

    Real inputs are summed in exact rational arithmetic (floats are
    rationals, and the sum terminates), because these alternating sums can
    cancel catastrophically and this is the oracle route: a single rounding
    at the end is the whole error.  The complex case (Meixner-Pollaczek)
    has a transcendental argument and stays in floating point.
    """
    if any(isinstance(u, complex) for u in upper_extra) or isinstance(z, complex):
        return _hyp_terminating_complex(n, upper_extra, lower, z)[0]
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
        lg = complex(sp.loggamma(complex(lam, x)))
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
        lg = complex(sp.loggamma(complex(x + eps + 0.5, rho)))
        return math.exp(-x * math.log(c) - 2.0 * lg.real)
    if fam is FamilyTag.BESSEL:
        return 1.0
    raise ParameterError(f"unknown family {family!r}")


# --------------------------------------------------------------------------
# bilateral family on the regularized Gauss series


def meixner_function(n: int, x: float, params: MeixnerFunctionParams) -> float:
    """Bilateral lattice family m_n(x), n in Z, built on the regularized
    Gauss series so integer lattice points x >= n + 1 need no special casing.

    Solves the row identity of the unbounded-below tridiagonal operator with
    off(n) = sqrt((n + eps + 1/2)^2 + rho^2) and is orthogonal on x in Z for
    the weight ``weight(FamilyTag.MEIXNER_FUNCTION, ...)``.
    """
    rho, eps, c = params.rho, params.eps, params.c
    a = complex(n + eps + 0.5, rho)
    b = complex(n + eps + 0.5, -rho)
    cpar = float(n + 1 - x)
    if cpar == round(cpar):
        cpar = int(round(cpar))
    z = c / (c - 1.0)
    f_val = regularized_2f1(a, b, cpar, z)
    pref = (math.sqrt(c) / (c - 1.0)) ** n
    gam = math.exp(complex(sp.loggamma(a)).real)  # |Gamma(a)| = sqrt(Gamma(a) Gamma(conj a))
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

    m_lo = meixner_function(n - 1, x, params)
    m_md = meixner_function(n, x, params)
    m_hi = meixner_function(n + 1, x, params)
    lhs = (1.0 - c) * (x + eps) / math.sqrt(c) * m_md
    rhs = off(n) * m_hi + (c + 1.0) * (n + eps) / math.sqrt(c) * m_md \
        + off(n - 1) * m_lo
    return abs(lhs - rhs)


# --------------------------------------------------------------------------
# flow-state -> family parameters


@dataclass(frozen=True)
class SpectralMap:
    """Affine change of variable Lambda = slope * x + intercept between the
    operator spectrum and the family's own lattice/axis; C is the
    half-bandwidth constant of the map (0 when the map is the identity)."""
    slope: float
    intercept: float
    C: float

    def to_family_variable(self, lam: float) -> float:
        return (lam - self.intercept) / self.slope

    def eigenvalue(self, x: float) -> float:
        return self.slope * x + self.intercept


def check_regime(fam: FamilyTag, alg: AlgebraSpec, r: float, s: float) -> None:
    """Raise ParameterError unless the family matches the algebra class and
    the sign regime of (r, s) (e.g. a negative-binomial lattice needs
    s + c > |r| while the hyperbolic axis needs |s + c| < r)."""
    se = alg.a * s + alg.c_param  # coefficient multiplying the grading element

    if fam is FamilyTag.KRAWTCHOUK:
        _need(alg.clas == "su2", f"family {fam.value} needs the compact class")
        _need(math.hypot(se, r) > 0, "zero operator has no spectral map")
    elif fam in (FamilyTag.MEIXNER, FamilyTag.LAGUERRE, FamilyTag.MEIXNER_POLLACZEK,
                 FamilyTag.MEIXNER_FUNCTION):
        _need(alg.clas == "su11", f"family {fam.value} needs the non-compact class")
        if fam is FamilyTag.MEIXNER:
            _need(r > 0 and se > r, "negative-binomial case needs s + c > r > 0")
        elif fam is FamilyTag.LAGUERRE:
            _need(r > 0 and math.isclose(se, r, rel_tol=1e-12),
                  "gamma case needs s + c = r > 0")
        elif fam is FamilyTag.MEIXNER_POLLACZEK:
            _need(r > 0 and abs(se) < r, "hyperbolic case needs |s + c| < r")
        else:
            _need(r > 0 and se > r, "bilateral case needs s + c > r > 0")
    elif fam is FamilyTag.CHARLIER:
        _need(alg.clas == "oscillator", f"family {fam.value} needs the oscillator class")
        _need(alg.c_param != 0.0, "Poisson case needs c != 0")
        _need(r != 0.0, "Poisson case needs r != 0")
    elif fam is FamilyTag.HERMITE:
        _need(alg.clas == "oscillator", f"family {fam.value} needs the oscillator class")
        _need(alg.c_param == 0.0, "Gaussian case needs c = 0")
        _need(r > 0, "Gaussian case needs r > 0")
    else:
        _need(alg.clas == "e2", f"family {fam.value} needs the flat class")
        _need(alg.c_param != 0.0, "flat spectral map needs c != 0")


def parameter_map(family: FamilyTag, alg: AlgebraSpec, r: float, s: float, *,
                  j: float | None = None, k: float | None = None,
                  h: float | None = None, rho: float | None = None,
                  eps: float | None = None):
    """Map a flow state (r, s) plus representation labels to the family
    parameters and the spectral change of variable.

    Raises ParameterError when the requested family does not match the
    algebra class or the sign regime of (r, s) (``check_regime``), or a
    representation label it needs is missing.
    """
    fam = FamilyTag(family)
    check_regime(fam, alg, r, s)
    se = alg.a * s + alg.c_param  # coefficient multiplying the grading element

    if fam is FamilyTag.KRAWTCHOUK:
        _need(j is not None, "label j required")
        C = math.hypot(se, r)
        p = 0.5 + se / (2.0 * C)
        return KrawtchoukParams(p, int(round(2 * j))), SpectralMap(-2.0 * C, 2.0 * C * j, C)

    if fam is FamilyTag.MEIXNER:
        _need(k is not None, "label k required")
        C = math.sqrt(se * se - r * r)
        c = math.exp(-2.0 * math.acosh(se / r))
        return MeixnerParams(2.0 * k, c), SpectralMap(2.0 * C, 2.0 * C * k, C)

    if fam is FamilyTag.LAGUERRE:
        _need(k is not None, "label k required")
        return LaguerreParams(2.0 * k - 1.0, r), SpectralMap(1.0, 0.0, 0.0)

    if fam is FamilyTag.MEIXNER_POLLACZEK:
        _need(k is not None, "label k required")
        C = math.sqrt(r * r - se * se)
        phi = math.acos(-se / r)
        return MeixnerPollaczekParams(k, phi), SpectralMap(2.0 * C, 0.0, C)

    if fam is FamilyTag.MEIXNER_FUNCTION:
        _need(rho is not None and eps is not None, "labels rho, eps required")
        C = math.sqrt(se * se - r * r)
        c = math.exp(-2.0 * math.acosh(se / r))
        return MeixnerFunctionParams(rho, eps, c), SpectralMap(2.0 * C, 2.0 * C * eps, C)

    if fam is FamilyTag.CHARLIER:
        _need(k is not None and h is not None, "labels k, h required")
        cpar = alg.c_param
        a = h * r * r / (4.0 * cpar * cpar)
        big = r * r / (2.0 * cpar) + s
        return CharlierParams(a), SpectralMap(2.0 * cpar, 2.0 * cpar * k - big * h, big)

    if fam is FamilyTag.HERMITE:
        _need(k is not None and h is not None, "labels k, h required")
        return HermiteParams(-h * s, r * math.sqrt(2.0 * h)), SpectralMap(1.0, 0.0, 0.0)

    _need(k is not None, "label k required")  # Bessel
    return BesselParams(k * r / alg.c_param), SpectralMap(2.0 * alg.c_param, 0.0, 0.0)


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterError(msg)
