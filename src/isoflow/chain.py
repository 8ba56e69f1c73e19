"""Coupled chain flow in rank d and its tridiagonal (d+1)-point operator.

State: s_1..s_d, r_1..r_d with the convention s_0 = s_{d+1} = 0.  The flow

    sdot_i = 2 r_i u_i,     rdot_i = u_i (s_{i-1} - 2 s_i + s_{i+1}),

with u_i = g(t) r_i, is isospectral for the symmetric tridiagonal operator

    diag = (s_1, s_2 - s_1, ..., s_d - s_{d-1}, -s_d),   off = (r_1, ..., r_d),

whose eigenvalues sum to zero.  The module also carries the closed-form
trace identities (including a deliberately kept variant of the quadratic one
that lacks the factor 2 on the off-diagonal sum, for discrepancy detection),
Christoffel weights and their orthogonality, and the corrected
time-derivative law for the eigenvector polynomials.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .flows import RHS, IntegrationBlowupError, rk4_path, rk4_step


class DegenerateSpectrumWarning(RuntimeWarning):
    pass


@dataclass(frozen=True)
class ChainState:
    t: float
    s: tuple[float, ...]
    r: tuple[float, ...]

    def __post_init__(self):
        s = tuple(float(v) for v in self.s)
        r = tuple(float(v) for v in self.r)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "r", r)
        if len(s) != len(r) or not s:
            raise ValueError("s and r must be non-empty and of equal length")
        if any(ri <= 0 for ri in r):
            raise ValueError("all r_i must be positive")

    @property
    def d(self) -> int:
        return len(self.s)


GFun = float | Callable[[float], float]


def _g_at(g: GFun, t: float) -> float:
    return g(t) if callable(g) else float(g)


def _chain_eqs(gv: float, s, r) -> list[float]:
    """(sdot_1..sdot_d, rdot_1..rdot_d) as one list, for the coupling value gv."""
    u = [gv * ri for ri in r]
    sp = [0.0, *s, 0.0]
    return ([2.0 * ri * ui for ri, ui in zip(r, u)]
            + [ui * (a - 2.0 * b + c) for ui, a, b, c in zip(u, sp, sp[1:], sp[2:])])


def chain_rhs(state: ChainState, g: GFun) -> tuple[np.ndarray, np.ndarray]:
    """(sdot, rdot) with u_i = g(t) r_i and s_0 = s_{d+1} = 0."""
    y = _chain_eqs(_g_at(g, state.t), state.s, state.r)
    return np.array(y[:state.d]), np.array(y[state.d:])


def _packed_rhs(g: GFun) -> RHS:
    """The flow as f(t, y) on y = (s, r); NaN once some r_i <= 0, which the
    RK4 kernel's non-finite check reports as a blow-up."""
    def f(t: float, y: list[float]) -> list[float]:
        d = len(y) // 2
        r = y[d:]
        if min(r) <= 0:
            return [math.nan] * len(y)
        return _chain_eqs(_g_at(g, t), y[:d], r)
    return f


def _advance(state: ChainState, g: GFun, h: float) -> ChainState:
    """The state one RK4 step of signed size h away (centred differences)."""
    y = rk4_step(_packed_rhs(g), state.t, [*state.s, *state.r], h)
    return ChainState(state.t + h, tuple(y[:state.d]), tuple(y[state.d:]))


@dataclass(frozen=True)
class ChainTrajectory:
    t: np.ndarray
    s: np.ndarray  # (n_samples, d)
    r: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def state(self, i: int) -> ChainState:
        return ChainState(float(self.t[i]), tuple(self.s[i]), tuple(self.r[i]))


def integrate_chain(state0: ChainState, g: GFun, dt: float, t_end: float,
                    record_every: int = 1) -> ChainTrajectory:
    """Fixed-step RK4 (``rk4_path``) for the chain flow.  A step that
    overflows or leaves some r_i <= 0, at a stage or at its end, raises
    IntegrationBlowupError carrying the last recorded good ChainState."""
    d = state0.d
    try:
        t, y = rk4_path(_packed_rhs(g), state0.t, [*state0.s, *state0.r],
                        dt, t_end, record_every)
        if (y[-1, d:] <= 0).any():  # the last step never reaches the rhs check
            raise IntegrationBlowupError(f"chain left r_i > 0 at t = {t[-1]:.6g}", (t, y))
    except IntegrationBlowupError as exc:
        t, y = exc.last_state
        i = np.flatnonzero((y[:, d:] > 0).all(axis=1))[-1]
        exc.last_state = ChainState(float(t[i]), tuple(y[i, :d]), tuple(y[i, d:]))
        raise
    return ChainTrajectory(t, y[:, :d], y[:, d:])


# --------------------------------------------------------------------------
# operator, spectrum, weights


def build_chain_L(state: ChainState) -> tuple[np.ndarray, np.ndarray]:
    """(diag, off) of the traceless symmetric tridiagonal operator."""
    s = np.asarray(state.s)
    diag = np.concatenate(([s[0]], np.diff(s), [-s[-1]])) if state.d > 1 \
        else np.array([s[0], -s[0]])
    off = np.asarray(state.r)
    return diag, off


def chain_dense_L(state: ChainState) -> np.ndarray:
    diag, off = build_chain_L(state)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def eigen_polys(state: ChainState, lam: float) -> tuple[np.ndarray, float]:
    """Eigenvector polynomials p_0..p_d at spectral value ``lam`` and the
    closure residual of the final operator row (zero iff lam is an
    eigenvalue)."""
    s = state.s
    r = state.r
    d = state.d
    p = np.empty(d + 1)
    p[0] = 1.0
    p[1] = (lam - s[0]) / r[0]
    for n in range(1, d):
        p[n + 1] = ((lam - (s[n] - s[n - 1])) * p[n] - r[n - 1] * p[n - 1]) / r[n]
    closure = r[d - 1] * p[d - 1] - s[d - 1] * p[d] - lam * p[d]
    return p, abs(closure)


def chain_spectrum(state: ChainState) -> np.ndarray:
    """Ascending eigenvalues; warns when two are numerically degenerate."""
    diag, off = build_chain_L(state)
    lam = eigh_tridiagonal(diag, off, eigvals_only=True)
    lam = np.sort(lam)
    gaps = np.diff(lam)
    scale = 1.0 + float(np.abs(lam).max())
    if len(gaps) and gaps.min() < 1e-10 * scale:
        warnings.warn("nearly degenerate eigenvalues; weights ill-conditioned",
                      DegenerateSpectrumWarning)
    return lam


@dataclass(frozen=True)
class ChainWeights:
    eigenvalues: np.ndarray
    weights: np.ndarray
    Q: np.ndarray  # Q[n, r] = p_n(lam_r) sqrt(w_r), orthogonal


def christoffel_weights(state: ChainState) -> ChainWeights:
    """Discrete weights w_r = 1 / sum_n p_n(lam_r)^2 and the orthogonal
    matrix they induce."""
    lam = chain_spectrum(state)
    d = state.d
    P = np.empty((d + 1, d + 1))
    for idx, lv in enumerate(lam):
        P[:, idx], _ = eigen_polys(state, float(lv))
    w = 1.0 / np.sum(P * P, axis=0)
    Q = P * np.sqrt(w)[None, :]
    return ChainWeights(lam, w, Q)


# --------------------------------------------------------------------------
# trace identities


@dataclass(frozen=True)
class TraceInvariants:
    tr2: float
    tr3: float
    tr4: float
    tr2_dense: float
    tr3_dense: float
    tr4_dense: float
    tr2_unit_variant: float  # closed form lacking the factor 2 on sum r_i^2


def trace_invariants(state: ChainState) -> TraceInvariants:
    """Closed-form traces of L^2, L^3, L^4 against dense matrix powers.

    ``tr2_unit_variant`` keeps the variant of the quadratic form with a unit
    coefficient on the off-diagonal sum; it differs from the true trace by
    sum r_i^2 and exists so callers can *detect* that discrepancy.
    """
    ds, r = build_chain_L(state)
    # ds[i] is the diagonal at row i; r[i-1] couples rows i-1 and i
    lo = ds[:-1]   # ds_{i-1} aligned with r_i
    hi = ds[1:]    # ds_i aligned with r_i
    tr2 = float(np.sum(ds ** 2) + 2.0 * np.sum(r ** 2))
    tr2_unit = float(np.sum(ds ** 2) + np.sum(r ** 2))
    tr3 = float(np.sum(ds ** 3) + 3.0 * np.sum(hi * r ** 2) + 3.0 * np.sum(lo * r ** 2))
    tr4 = float(np.sum(ds ** 4) + 2.0 * np.sum(r ** 4)
                + 4.0 * np.sum((hi ** 2 + lo * hi + lo ** 2) * r ** 2)
                + 4.0 * np.sum(r[:-1] ** 2 * r[1:] ** 2))
    L = chain_dense_L(state)
    L2 = L @ L
    tr2_d = float(np.trace(L2))
    tr3_d = float(np.trace(L2 @ L))
    tr4_d = float(np.trace(L2 @ L2))
    return TraceInvariants(tr2, tr3, tr4, tr2_d, tr3_d, tr4_d, tr2_unit)


def chain_isospectrality_drift(traj: ChainTrajectory) -> float:
    ref = None
    worst = 0.0
    for i in range(len(traj)):
        diag, off = build_chain_L(traj.state(i))
        lam = np.sort(eigh_tridiagonal(diag, off, eigvals_only=True))
        if ref is None:
            ref = lam
        else:
            worst = max(worst, float(np.abs(lam - ref).max()))
    return worst


# --------------------------------------------------------------------------
# time derivative of the eigenvector polynomials


@dataclass(frozen=True)
class PnDerivativeReport:
    max_residual: float
    order_estimate: float
    sign_flipped_residual: float


def pn_time_derivative_check(state: ChainState, g: GFun,
                             lam: float | None = None,
                             h: float = 1e-4) -> PnDerivativeReport:
    """Centered-difference check of

        pdot_n = u_{n+1} p_{n+1} - u_n p_{n-1} - u_1 p_1 p_n   (1 <= n < d)
        pdot_d = -u_d p_{d-1} - u_1 p_1 p_d

    along the flow.  With ``lam`` an eigenvalue all rows are checked; with an
    arbitrary ``lam`` the last row is skipped (there the law needs the
    spectral condition).  ``sign_flipped_residual`` reports the same data
    against the variant with every right-hand sign negated, which fails by
    O(1); it is kept as a diagnostic.
    """
    eig_mode = lam is None
    lam_v = float(chain_spectrum(state)[state.d // 2] if eig_mode else lam)

    def residuals(step: float) -> tuple[float, float]:
        p_plus, _ = eigen_polys(_advance(state, g, step), lam_v)
        p_minus, _ = eigen_polys(_advance(state, g, -step), lam_v)
        pdot = (p_plus - p_minus) / (2.0 * step)
        p, _ = eigen_polys(state, lam_v)
        u = _g_at(g, state.t) * np.asarray(state.r)
        d = state.d
        worst = worst_flip = 0.0
        rows = range(1, d + 1) if eig_mode else range(1, d)
        for n in rows:
            drag = u[0] * p[1] * p[n]
            if n < d:
                rhs = u[n] * p[n + 1] - u[n - 1] * p[n - 1] - drag
            else:
                rhs = -u[d - 1] * p[d - 1] - drag
            worst = max(worst, abs(pdot[n] - rhs))
            worst_flip = max(worst_flip, abs(pdot[n] + rhs))
        return worst, worst_flip

    res_h, flip_h = residuals(h)
    res_h2, _ = residuals(h / 2.0)
    order = float(np.log2(res_h / res_h2)) if res_h2 > 0 else float("inf")
    return PnDerivativeReport(res_h, order, flip_h)
