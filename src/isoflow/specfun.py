"""Special-function kernels: the forward three-term recurrence behind every
orthonormal polynomial of the package, the regularized Gauss series, Bessel
J at an array of orders by one backward recurrence, and the package's two
entry points into scipy.

The regularized series 2F1(a,b;c;z)/Gamma(c) stays finite when c is a
non-positive integer (the leading terms are annihilated by 1/Gamma), which is
exactly the case needed to evaluate bilateral families on an integer lattice.
"""
from __future__ import annotations

import math
import warnings

import numpy as np


# Importing scipy takes longer than importing numpy and the rest of the
# package together, so it is left to the first call that needs it: every use
# of scipy in the package goes through eigh_tridiagonal and loggamma.


_dstevd = None  # scipy.linalg.lapack.dstevd, bound on the first solve


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray, eigvals_only: bool = False,
                     check_finite: bool = True):
    """Ascending eigenvalues, and unless ``eigvals_only`` the orthonormal
    eigenvector columns, of the symmetric tridiagonal matrix with diagonal
    ``d`` and off-diagonal ``e``, two 1-D float64 arrays.

    One call of LAPACK ``dstevd``, the routine ``scipy.linalg.eigh_tridiagonal``
    runs under its ``auto`` driver: the results are scipy's bitwise, and the
    errors are raised where scipy's wrapper raises them, without the cost of
    that wrapper.  scipy.linalg is imported on the first solve."""
    global _dstevd
    if check_finite and not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("array must not contain infs or NaNs")
    if d.size != e.size + 1:
        raise ValueError(f"d ({d.size}) must have one more element than e ({e.size})")
    if d.size == 1:
        w = d.copy()
        return w if eigvals_only else (w, np.ones((1, 1)))
    if _dstevd is None:
        from scipy.linalg.lapack import dstevd
        _dstevd = dstevd
    w, v, info = _dstevd(d, e, compute_v=not eigvals_only)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal "
                         "stevd (eigh_tridiagonal)")
    if info > 0:
        raise np.linalg.LinAlgError(
            f"stevd (eigh_tridiagonal) did not converge (LAPACK info={info})")
    return w if eigvals_only else (w, v)


def loggamma(z):
    """``scipy.special.loggamma``, with scipy.special imported on first
    use."""
    from scipy.special import loggamma
    return loggamma(z)


class PrecisionError(ArithmeticError):
    """A series failed to converge to working precision."""


def _is_nonpositive_int(x) -> bool:
    if isinstance(x, complex):
        if x.imag != 0.0:
            return False
        x = x.real
    return x <= 0 and float(x) == round(float(x))


def regularized_2f1(a, b, c, z):
    """2F1(a, b; c; z) / Gamma(c), by direct summation of the regularized
    series sum_k (a)_k (b)_k z^k / (k! Gamma(c+k)).

    Terminating cases (a or b a non-positive integer) are summed as finite
    polynomials for any z.  Otherwise a Pfaff transform
    (1-z)^(-a) * 2F1reg(a, c-b; c; z/(z-1)) is applied once when it shrinks
    |z|, and non-convergence within 10,000 terms raises PrecisionError.
    When c = -m is a non-positive integer the first 1 + m terms vanish
    identically and summation starts at k0 = 1 - c.
    """
    complex_out = any(isinstance(v, complex) for v in (a, b, c, z))
    terminating = _is_nonpositive_int(a) or _is_nonpositive_int(b)

    if not terminating and abs(z) >= 0.75:
        zp = z / (z - 1.0)
        if abs(zp) < abs(z):
            pref = complex(1.0 - z) ** (-a)
            if not complex_out:
                pref = pref.real
            val = pref * regularized_2f1(a, c - b, c, zp)
            return val if complex_out else _drop_tiny_imag(val)
        if abs(z) >= 1.0:
            raise PrecisionError(f"series argument |z| = {abs(z):.3g} >= 1")

    if _is_nonpositive_int(c):
        k0 = int(round(1 - (c.real if isinstance(c, complex) else c)))
        term = (z ** k0) / math.factorial(k0)
        for i in range(k0):
            term = term * (a + i) * (b + i)
    else:
        k0 = 0
        term = complex(np.exp(-loggamma(complex(c))))
        if not complex_out:
            term = term.real

    total = term
    quiet = 0
    k = k0
    while True:
        if terminating and _is_nonpositive_int(a) and k >= -round(complex(a).real):
            break
        if terminating and _is_nonpositive_int(b) and k >= -round(complex(b).real):
            break
        if k - k0 >= 10_000:
            raise PrecisionError("regularized 2F1 did not converge")
        term = term * (a + k) * (b + k) * z / ((k + 1) * (c + k))
        total = total + term
        k += 1
        if not terminating:
            if abs(term) <= 1e-17 * (1.0 + abs(total)):
                quiet += 1
                if quiet >= 3:
                    break
            else:
                quiet = 0
    return total if complex_out else _drop_tiny_imag(total)


def _drop_tiny_imag(v):
    if isinstance(v, complex):
        return v.real
    return v


def three_term(mid: np.ndarray, a) -> np.ndarray:
    """Rows p_0..p_n of p_{m+1} = (mid[m] p_m - a[m-1] p_{m-1}) / a[m] from
    p_0 = 1 (no p_{-1} term), for ``mid`` of shape ``(n,) + points`` and
    ``a`` of length n: every orthonormal polynomial of the package."""
    p = np.empty((len(a) + 1,) + np.shape(mid)[1:])
    p[0] = 1.0
    if len(a):
        p[1] = mid[0] / a[0]
    for m in range(1, len(a)):
        p[m + 1] = (mid[m] * p[m] - a[m - 1] * p[m - 1]) / a[m]
    return p


_BESSEL_Z_MAX = 50.0


def bessel_j(n, z: float):
    """J_n(z) at an integer order ``n`` or an integer array of them (the
    result then has its shape), by Miller's backward recurrence with the
    even-order sum normalization: one pass from above the largest |n| keeps
    every order it passes (Gautschi, SIAM Rev. 9, 1967).  Restricted to
    |z| <= 50 where the fixed start offset keeps full accuracy."""
    if abs(z) > _BESSEL_Z_MAX:
        raise ValueError(f"|z| <= {_BESSEL_Z_MAX:g} required, got {z}")
    orders = np.asarray(n, dtype=int)
    top = int(np.abs(orders).max(initial=0))
    if z == 0.0:
        vals = (orders == 0).astype(float)
        return float(vals) if vals.ndim == 0 else vals
    # J_{-n}(z) = J_n(-z) = (-1)^n J_n(z)
    odd = orders % 2 == 1
    sign = np.where(odd & ((orders < 0) != (z < 0.0)), -1.0, 1.0)
    z = abs(z)

    n_start = max(top + 20, int(math.ceil(1.3 * z)) + 20)
    j = np.zeros(n_start + 1)  # j[k]: the unnormalized value of order k
    j_hi = 0.0
    j_k = j[n_start] = 1e-30
    even_sum = j_k if (n_start % 2 == 0) else 0.0
    for k in range(n_start, 0, -1):
        j_lo = (2.0 * k / z) * j_k - j_hi
        j_hi, j_k = j_k, j_lo
        j[k - 1] = j_k
        if k > 1 and k % 2 == 1:
            even_sum += j_k
        if abs(j_k) > 1e250:
            j_k *= 1e-250
            j_hi *= 1e-250
            j[k - 1:] *= 1e-250
            even_sum *= 1e-250
    norm = j_k + 2.0 * even_sum  # j_k is now the order-0 value
    vals = sign * j[np.abs(orders)] / norm
    if (vals == 0.0).any():
        warnings.warn(f"bessel_j({n}, {z:g}) underflowed to zero", RuntimeWarning)
    return float(vals) if vals.ndim == 0 else vals
