"""Special-function kernels: the forward three-term recurrence behind every
orthonormal polynomial of the package, the regularized Gauss series, Bessel
J at an array of orders by one backward recurrence, the tridiagonal
eigensolve (LAPACK ``dstevd``) and |Gamma(x + iy)|.

The eigensolve calls the ``dstevd`` of the OpenBLAS that numpy bundles and
has already loaded, else numpy's own LAPACK (``dsyevd``) on the dense matrix.
numpy is the package's one dependency (|Gamma| comes from the ``math``
module; scipy is only the tests' oracle).  The bundled routine is called
through ctypes, which releases the GIL, so ``eigvals_rows`` splits the rows
of a large enough path between two CPUs there.

The regularized series 2F1(a,b;c;z)/Gamma(c) stays finite when c is a
non-positive integer (the leading terms are annihilated by 1/Gamma), which is
exactly the case needed to evaluate bilateral families on an integer lattice.
"""
from __future__ import annotations

import contextvars
import ctypes
import math
import os
import threading
from ctypes import byref, c_char, c_int64
from pathlib import Path

import numpy as np


_dstevd = None  # (d, e, compute_v) -> (w, z, info), bound on the first solve


def _bundled_dstevd():
    """The ILP64 ``dstevd`` of the OpenBLAS in numpy's own wheel (its
    ``numpy.libs`` or ``.dylibs`` directory) as a ctypes function, or None
    where numpy ships no such library (Accelerate, a distribution's or
    conda's numpy)."""
    root = Path(np.__file__).resolve().parent
    for lib in sorted([*root.parent.glob("numpy.libs/*openblas*"),
                       *root.glob(".dylibs/*openblas*")]):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        # the names in numpy 2 and in numpy 1 wheels
        for symbol in ("scipy_dstevd_64_", "dstevd_64_"):
            try:
                routine = dll[symbol]
            except AttributeError:
                continue
            # no argtypes: _ilp64_dstevd passes only pointers and ctypes
            # values, which ctypes hands over without a per-call conversion
            routine.argtypes, routine.restype = None, None
            return routine
    return None


_N, _V = ctypes.c_char_p(b"N"), ctypes.c_char_p(b"V")
_JOBZ_LEN = ctypes.c_size_t(1)  # gfortran's hidden length of the jobz string
_ONE = byref(c_int64(1))  # read only: LAPACK writes none of n, ldz, lwork, liwork
_INTS = c_int64 * 3  # n, info, iwork(1) of an eigenvalue-only solve


def _ilp64_dstevd(routine):
    """``dstevd(d, e, compute_v) -> (w, z, info)`` over a ctypes ``routine``,
    in fresh storage for every call (ctypes releases the GIL, so no buffer
    is shared between threads)."""
    def dstevd(d, e, compute_v):
        n = d.size
        if not compute_v:  # lwork = liwork = ldz = 1
            buf = np.empty(2 * n)  # d, e, work(1)
            buf[:n] = d
            buf[n:-1] = e
            ints = _INTS()
            ints[0] = n
            base = c_char.from_buffer(buf)
            work = byref(base, 8 * (2 * n - 1))
            routine(_N, ints, byref(base), byref(base, 8 * n), work, _ONE, work,
                    _ONE, byref(ints, 16), _ONE, byref(ints, 8), _JOBZ_LEN)
            return buf[:n], None, ints[1]
        lwork, liwork = 1 + 4 * n + n * n, 3 + 5 * n
        buf = np.empty(2 * n - 1 + lwork)  # d, e, work
        buf[:n] = d
        buf[n:2 * n - 1] = e
        ints = (c_int64 * (4 + liwork))()  # n, lwork, liwork, info, iwork
        ints[:3] = n, lwork, liwork
        zt = np.empty((n, n))  # LAPACK fills it column by column: z is its transpose
        base = c_char.from_buffer(buf)
        routine(_V, ints, byref(base), byref(base, 8 * n), byref(c_char.from_buffer(zt)),
                ints, byref(base, 8 * (2 * n - 1)), byref(ints, 8), byref(ints, 32),
                byref(ints, 16), byref(ints, 24), _JOBZ_LEN)
        return buf[:n].copy(), zt.T, ints[3]
    dstevd.releases_gil = True  # a ctypes call: eigvals_rows may run it on threads
    return dstevd


def _numpy_dstevd(d, e, compute_v):
    """``(w, z, 0)`` from numpy's ``dsyevd`` on the dense matrix, which it
    reduces with trivial reflectors to the bands ``dstevd`` solves (bitwise
    the same results on OpenBLAS), ``z`` in Fortran order; raises LinAlgError."""
    a = np.diag(d)  # the bands by index: adding np.diag(e, 1) turns -0.0 into 0.0
    a.flat[1::d.size + 1] = a.flat[d.size::d.size + 1] = e
    if not compute_v:
        return np.linalg.eigvalsh(a), None, 0
    w, z = np.linalg.eigh(a)
    return w, np.asfortranarray(z), 0


def _bind():
    """Bind ``_dstevd`` now (the bundled routine, else numpy's) and return it."""
    global _dstevd
    routine = _bundled_dstevd()
    _dstevd = _numpy_dstevd if routine is None else _ilp64_dstevd(routine)
    return _dstevd


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray, eigvals_only: bool = False,
                     check_finite: bool = True):
    """Ascending eigenvalues, and unless ``eigvals_only`` the orthonormal
    eigenvector columns, of the symmetric tridiagonal matrix with diagonal
    ``d`` and off-diagonal ``e``, two 1-D float64 arrays.

    One call of LAPACK ``dstevd``, the routine ``scipy.linalg.eigh_tridiagonal``
    runs under its ``auto`` driver (the tests hold the results bitwise, and
    the input errors, to scipy's), bound on the first solve: the ILP64
    ``dstevd`` of the OpenBLAS bundled with numpy, called through ctypes, or
    ``numpy.linalg``'s dense solve (``_numpy_dstevd``) where numpy bundles none."""
    if check_finite and not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("array must not contain infs or NaNs")
    if d.size != e.size + 1:
        raise ValueError(f"d ({d.size}) must have one more element than e ({e.size})")
    if d.size == 1:
        w = d.copy()
        return w if eigvals_only else (w, np.ones((1, 1)))
    w, v, info = (_dstevd or _bind())(d, e, compute_v=not eigvals_only)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal "
                         "stevd (eigh_tridiagonal)")
    if info > 0:
        raise np.linalg.LinAlgError(
            f"stevd (eigh_tridiagonal) did not converge (LAPACK info={info})")
    return w if eigvals_only else (w, v)


# The least row size whose rows are split between threads.  The time of two
# threads over the serial loop's (2 vCPUs, median of 41 alternating runs):
# on 101 rows x2.03 at n = 13, x0.90 at 21, x0.66 at 33, x0.68 at 41; on 11
# rows x1.13 at 27, x0.95 at 33, x0.86 at 41.
SPLIT_MIN_N = 40
# The least work, rows x n^2, of a share: a thread's start and join must be
# paid for.  Two threads over the serial loop (2 vCPUs, median of 21
# alternating runs): at n = 40, x1.73 on 2 rows, x1.12 on 5, x0.93 on 11; at
# n = 60, x1.23 on 3, x0.92 on 5; at n = 121, x0.74 on 2.
SHARE_MIN_WORK = 8000
# The most shares of a path: only two threads were measured against the
# serial loop, so a host with more CPUs still uses two.
MAX_SHARES = 2


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask, or the machine's
    CPU count where the platform cannot say (macOS, Windows)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def eigvals_rows(solve, diag: np.ndarray, off: np.ndarray) -> list[np.ndarray]:
    """``solve(diag[i], off[i], eigvals_only=True, check_finite=False)`` for
    every row i of ``diag`` and ``off`` (entries the caller has checked
    finite), in row order: the spectra of a path, ``solve`` being the
    caller's binding of ``eigh_tridiagonal``.

    On the bundled ``dstevd`` (ctypes releases the GIL during the call; no
    crossover is measured for numpy's fallback), rows of at least
    ``SPLIT_MIN_N`` entries are split into contiguous shares: at most
    ``MAX_SHARES``, no more than the CPUs in the process's affinity mask,
    and each of at least ``SHARE_MIN_WORK`` (rows x n^2).  The caller solves
    the first share, and one thread that this call starts and joins solves
    each other share, in a copy of the caller's context (numpy's
    ``errstate`` is a context variable); a share whose thread cannot be
    started is solved by the caller.  The results are the serial loop's
    bitwise, and the first failing row raises, once every thread has ended,
    as in that loop."""
    rows, n = diag.shape
    shares = 1
    if n >= SPLIT_MIN_N and getattr(_dstevd or _bind(), "releases_gil", False):
        shares = max(1, min(rows, _cpus(), MAX_SHARES, rows * n * n // SHARE_MIN_WORK))
    out = [None] * rows
    errors = [None] * shares
    bounds = [rows * k // shares for k in range(shares + 1)]

    def run(k):
        try:
            for i in range(bounds[k], bounds[k + 1]):
                out[i] = solve(diag[i], off[i], eigvals_only=True, check_finite=False)
        except BaseException as exc:  # raised by the caller, in row order
            errors[k] = exc

    started = []
    try:
        for k in range(1, shares):
            t = threading.Thread(target=contextvars.copy_context().run, args=(run, k))
            t.start()
            started.append(t)
    except RuntimeError:  # no thread to be had (a process limit): the caller goes on
        pass
    for k in (0, *range(len(started) + 1, shares)):
        run(k)
    for t in started:
        t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return out


# B_2k / (2k (2k - 1)), k = 1..7: the Stirling series of log Gamma (DLMF 5.11.1)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _gamma_split(x: float, y: float) -> tuple[float, float]:
    """(x0, e) with |Gamma(x + iy)| = |Gamma(x0)| exp(e): x0 = x, or 1 where
    x is a pole of the real Gamma (then y != 0).  Gamma(z) = Gamma(z + n) /
    (z (z + 1) ... (z + n - 1)) moves the real part to w = x0 + n >= 10,
    where the Stirling series gives log|Gamma(w + iy)| - log Gamma(w)."""
    e = 0.0
    if x <= 0 and x == int(x):
        e = -0.5 * math.fsum(math.log((x + k) ** 2 + y * y) for k in range(1 - int(x)))
        x = 1.0
    n = max(0, math.ceil(10.0 - x))
    w, z = x + n, complex(x + n, y)
    e -= 0.5 * sum(math.log1p((y / (x + k)) ** 2) for k in range(n))
    e += sum(b * ((z ** (1 - 2 * k)).real - w ** (1 - 2 * k)) for k, b in enumerate(_STIRLING, 1))
    return x, e + (w - 0.5) * 0.5 * math.log1p((y / w) ** 2) - y * math.atan2(y, w)


def abs_gamma(x: float, y: float) -> float:
    """|Gamma(x + iy)| from ``math.gamma``: exp(log_abs_gamma) would carry the log's rounding."""
    x0, e = _gamma_split(x, y)
    return abs(math.gamma(x0)) * math.exp(e)


def log_abs_gamma(x: float, y: float) -> float:
    """log|Gamma(x + iy)| from ``math.lgamma``: finite where |Gamma| over- or underflows."""
    x0, e = _gamma_split(x, y)
    return math.lgamma(x0) + e


class PrecisionError(ArithmeticError):
    """A series failed to converge to working precision."""


def _is_nonpositive_int(x) -> bool:
    if isinstance(x, complex):
        if x.imag != 0.0:
            return False
        x = x.real
    return x <= 0 and float(x) == round(float(x))


def regularized_2f1(a, b, c: float, z):
    """2F1(a, b; c; z) / Gamma(c) for a real c (a complex c raises TypeError),
    by direct summation of the series sum_k (a)_k (b)_k z^k / (k! Gamma(c+k)).

    Terminating cases (a or b a non-positive integer) are summed as finite
    polynomials for any z.  Otherwise a Pfaff transform
    (1-z)^(-a) * 2F1reg(a, c-b; c; z/(z-1)) is applied once when it shrinks
    |z|, and non-convergence within 10,000 terms raises PrecisionError.
    When c = -m is a non-positive integer the first 1 + m terms vanish
    identically and summation starts at k0 = 1 - c.
    """
    if isinstance(c, complex):
        raise TypeError(f"regularized_2f1 takes a real c, got {c!r}")
    complex_out = any(isinstance(v, complex) for v in (a, b, z))
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
        # the start term (a)_k0 (b)_k0 z^k0 / k0! as a running product: past
        # k0 = 170, k0! alone overflows a float where the term need not
        k0 = int(round(1 - c))
        term = 1.0
        for i in range(k0):
            term = term * (a + i) * (b + i) * z / (i + 1)
    else:
        k0 = 0
        # 1/Gamma(c); past c = 171.6 Gamma overflows and its reciprocal underflows
        term = 1.0 / math.gamma(c) if c < 171.0 else math.exp(-math.lgamma(c))

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
    return float(vals) if vals.ndim == 0 else vals
