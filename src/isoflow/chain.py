"""Coupled chain flow in rank d and its tridiagonal (d+1)-point operator.

State: s_1..s_d, r_1..r_d with the convention s_0 = s_{d+1} = 0.  The flow

    sdot_i = 2 r_i u_i,     rdot_i = u_i (s_{i-1} - 2 s_i + s_{i+1}),

with u_i = g(t) r_i, is isospectral for the symmetric tridiagonal operator

    diag = (s_1, s_2 - s_1, ..., s_d - s_{d-1}, -s_d),   off = (r_1, ..., r_d),

whose eigenvalues sum to zero.  The flow is integrated by the RK4 path that
``flows._rk4_source`` generates from the chain's right-hand side
(``_path_source``), compiled once per d; ``_advance`` runs it for one step.
The module also carries the closed-form trace identities (including a
deliberately kept variant of the quadratic one that lacks the factor 2 on
the off-diagonal sum, for discrepancy detection), Christoffel weights and
their orthogonality, and the corrected time-derivative law for the
eigenvector polynomials.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .flows import (GFun, IntegrationBlowupError, RK4Path, _compile_make, _rk4_source,
                    g_at, rk4_path)
from .report import relative_error, spectrum_drift
from .specfun import eigh_tridiagonal, eigvals_rows, three_term
from .spectral import SpectralDecomposition


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
        if not all(map(math.isfinite, s + r)):
            raise ValueError("all s_i and r_i must be finite")
        if any(ri <= 0 for ri in r):
            raise ValueError("all r_i must be positive")

    @property
    def d(self) -> int:
        return len(self.s)


def chain_rhs(state: ChainState, g: GFun) -> tuple[np.ndarray, np.ndarray]:
    """(sdot, rdot) with u_i = g(t) r_i and s_0 = s_{d+1} = 0."""
    r = np.array(state.r)
    u = g_at(g, state.t) * r
    sp = np.array([0.0, *state.s, 0.0])
    return 2.0 * r * u, u * (sp[:-2] - 2.0 * sp[1:-1] + sp[2:])


def _path_source(d: int) -> str:
    """Source of ``make(g)``, which returns the rank-d chain flow's RK4 path
    ``path(t0, y0, dt, n_steps, record_every)`` on y = (s, r) for
    ``rk4_path``: ``_rk4_source`` with ``chain_rhs`` written out component
    by component.  A stage whose input has some r_i <= 0 fails the step.
    The source depends on d alone."""
    idx = range(1, d + 1)

    def rhs(k: int, x: str) -> list[str]:
        s = ["0.0", *(f"{x}s{i}" for i in idx), "0.0"]
        return ([f"u{i} = gv * {x}r{i}" for i in idx]
                + [f"k{k}s{i} = 2.0 * {x}r{i} * u{i}" for i in idx]
                + [f"k{k}r{i} = u{i} * ({s[i - 1]} - 2.0 * {s[i]} + {s[i + 1]})"
                   for i in idx])

    def guard(x: str) -> str:
        r = ", ".join(f"{x}r{i}" for i in idx)
        return f"{f'min({r})' if d > 1 else r} <= 0"

    return _rk4_source([f"s{i}" for i in idx] + [f"r{i}" for i in idx], rhs, guard)


@functools.cache
def _chain_path(d: int) -> Callable[[GFun], RK4Path]:
    """``make`` of ``_path_source(d)``, compiled once per d: ``make(g)`` is
    the RK4 path of the rank-d chain flow under g."""
    return _compile_make(_path_source(d), f"<chain RK4 path, d={d}>")


def _advance(state: ChainState, g: GFun, h: float) -> ChainState:
    """The state one RK4 step of signed size h away (centred differences).
    Raises ValueError as ChainState does when the step leaves the states:
    ends non-finite, at some r_i <= 0, or fails its stage guard."""
    d = state.d
    ts, ys, t_fail = _chain_path(d)(g)(state.t, [*state.s, *state.r], h, 1, 1)
    if t_fail is not None:
        raise ValueError("all s_i and r_i must be finite")
    return ChainState(ts[1], tuple(ys[2 * d:3 * d]), tuple(ys[3 * d:]))


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
        t, y = rk4_path(_chain_path(d)(g), state0.t, [*state0.s, *state0.r],
                        dt, t_end, record_every)
        if (y[-1, d:] <= 0).any():  # a step's guard sees its stages, not its result
            raise IntegrationBlowupError(f"chain left r_i > 0 at t = {t[-1]:.6g}", (t, y))
    except IntegrationBlowupError as exc:
        t, y = exc.last_state
        i = np.flatnonzero((y[:, d:] > 0).all(axis=1))[-1]
        exc.last_state = ChainState(float(t[i]), tuple(y[i, :d]), tuple(y[i, d:]))
        raise
    return ChainTrajectory(t, y[:, :d], y[:, d:])


# --------------------------------------------------------------------------
# operator, spectrum, weights


def build_chain_L(x: ChainState | ChainTrajectory) -> tuple[np.ndarray, np.ndarray]:
    """(diag, off) of the traceless symmetric tridiagonal operator: of one
    state, or of every sample of a trajectory as (k, d+1) and (k, d) arrays,
    one sample per row."""
    s = np.asarray(x.s)
    return np.concatenate((s[..., :1], np.diff(s), -s[..., -1:]), axis=-1), np.asarray(x.r)


def chain_dense_L(x: ChainState | ChainTrajectory) -> np.ndarray:
    """The operator as a dense (n, n) matrix, or (k, n, n) for a trajectory."""
    diag, off = build_chain_L(x)
    i = np.arange(diag.shape[-1])
    L = np.zeros(diag.shape + i.shape)
    L[..., i, i] = diag
    L[..., i[:-1], i[1:]] = L[..., i[1:], i[:-1]] = off
    return L


def eigen_polys(state: ChainState, lam) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvector polynomials p_0..p_d at spectral value ``lam`` and the
    closure residual of the final operator row (zero iff lam is an
    eigenvalue).  For an array ``lam``, p has shape (d+1,) + lam.shape and
    the closure lam's shape."""
    lam = np.asarray(lam, dtype=float)
    diag, off = build_chain_L(state)
    # the recurrence reads rows 0..d-1; the last row closes it
    p = three_term(lam - diag[:-1].reshape((state.d,) + (1,) * lam.ndim), off)
    closure = off[-1] * p[-2] + diag[-1] * p[-1] - lam * p[-1]
    return p, np.abs(closure)


def chain_spectrum(state: ChainState) -> np.ndarray:
    """Ascending eigenvalues of L."""
    return eigh_tridiagonal(*build_chain_L(state), eigvals_only=True)


def chain_path_eigenvalues(traj: ChainTrajectory) -> list[np.ndarray]:
    """The ascending eigenvalues of L at every sample of ``traj``, each
    bitwise ``chain_spectrum`` of that sample: the entries of all samples
    are built in one pass, then each sample is one eigenvalue-only solve of
    its row (``specfun.eigvals_rows``, serial below its row size of 40, so
    for every chain up to d = 38).  Raises ValueError, as that solve does,
    when an entry is not finite."""
    diag, off = build_chain_L(traj)
    # checked finite as a whole, so the rows are not again
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError("array must not contain infs or NaNs")
    return eigvals_rows(eigh_tridiagonal, diag, off)


def spectrum_sum(state: ChainState) -> float:
    """|sum of the eigenvalues|, zero for the traceless operator."""
    return abs(float(np.sum(chain_spectrum(state))))


def christoffel_weights(state: ChainState) -> SpectralDecomposition:
    """The decomposition of L from its eigenvector polynomials: the
    discrete weights w_r = 1 / sum_n p_n(lam_r)^2 and the orthogonal matrix
    they induce, vectors[n, r] = p_n(lam_r) sqrt(w_r)."""
    return _christoffel(state)[0]


def _christoffel(state: ChainState) -> tuple[SpectralDecomposition, np.ndarray]:
    """``christoffel_weights`` and the polynomials P[n, r] = p_n(lam_r) it
    is built from."""
    lam = chain_spectrum(state)
    P, _ = eigen_polys(state, lam)
    w = 1.0 / np.sum(P * P, axis=0)
    return SpectralDecomposition(lam, P * np.sqrt(w)[None, :], w), P


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

    @property
    def dense(self) -> np.ndarray:
        return np.array([self.tr2_dense, self.tr3_dense, self.tr4_dense])

    @property
    def closed_vs_dense(self) -> np.ndarray:
        """``relative_error`` of the closed-form traces of L^2, L^3, L^4
        against the dense ones."""
        return relative_error(np.array([self.tr2, self.tr3, self.tr4]), self.dense)

    @property
    def variant_gap(self) -> float:
        """|tr2_unit_variant - tr L^2|, which must stay visibly nonzero."""
        return abs(self.tr2_unit_variant - self.tr2_dense)


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
    tr2_d, tr3_d, tr4_d = _dense_traces(chain_dense_L(state)).tolist()
    return TraceInvariants(tr2, tr3, tr4, tr2_d, tr3_d, tr4_d, tr2_unit)


def _dense_traces(L: np.ndarray) -> np.ndarray:
    """tr L^2, tr L^3, tr L^4 of the dense matrices over the last two axes
    of ``L``, stacked on a new last axis."""
    L2 = L @ L
    return np.stack([np.trace(M, axis1=-2, axis2=-1) for M in (L2, L2 @ L, L2 @ L2)],
                    axis=-1)


def trace_flow_drift(traj: ChainTrajectory) -> np.ndarray:
    """Worst ``relative_error`` of the dense traces of L^2, L^3, L^4 along
    the trajectory against its first sample, one value per power."""
    dense = _dense_traces(chain_dense_L(traj))
    return relative_error(dense, dense[0]).max(axis=0)


def chain_isospectrality_drift(traj: ChainTrajectory) -> float:
    """``spectrum_drift`` of the ``chain_path_eigenvalues`` of ``traj``."""
    return spectrum_drift(chain_path_eigenvalues(traj))


# --------------------------------------------------------------------------
# time derivative of the eigenvector polynomials


# the step h of the centred differences of the time-derivative checks
DERIVATIVE_STEP = 1e-4


@dataclass(frozen=True)
class DerivativeReport:
    """A time-derivative law's worst residual at the step h, the order log2
    of its ratio to the one at h / 2, and the residual at h of a wrong
    variant of the law, which fails by O(1) and is kept as a diagnostic."""
    max_residual: float
    order_estimate: float
    variant_residual: float


def derivative_report(state: ChainState, g: GFun, evaluate: Callable,
                      law: Callable) -> DerivativeReport:
    """A time-derivative law along the chain flow under g: ``law(dot)`` is
    the arrays of the (law, variant) residuals at ``dot``, the centred
    difference of ``evaluate(state)`` over RK4 steps of signed size +-h."""
    def residuals(h: float) -> list[float]:
        dot = (evaluate(_advance(state, g, h)) - evaluate(_advance(state, g, -h))) / (2.0 * h)
        return [float(np.max(res)) for res in law(dot)]

    res_h, variant_h = residuals(DERIVATIVE_STEP)
    res_h2, _ = residuals(DERIVATIVE_STEP / 2.0)
    order = float(np.log2(res_h / res_h2)) if res_h2 > 0 else float("inf")
    return DerivativeReport(res_h, order, variant_h)


def pn_time_derivative_check(state: ChainState, g: GFun,
                             lam: float | None = None) -> DerivativeReport:
    """Centered-difference check of

        pdot_n = u_{n+1} p_{n+1} - u_n p_{n-1} - u_1 p_1 p_n   (1 <= n < d)
        pdot_d = -u_d p_{d-1} - u_1 p_1 p_d

    along the flow.  With ``lam`` an eigenvalue all rows are checked; with an
    arbitrary ``lam`` the last row is skipped (there the law needs the
    spectral condition), so at d = 1, where no row is left, it raises
    ValueError.  The variant is the law with every right-hand sign negated.
    """
    eig_mode = lam is None
    if not eig_mode and state.d == 1:
        raise ValueError("an arbitrary lam leaves no row to check at d = 1")
    lam_v = float(chain_spectrum(state)[state.d // 2] if eig_mode else lam)
    p, _ = eigen_polys(state, lam_v)
    u = g_at(g, state.t) * np.asarray(state.r)
    rows = slice(None) if eig_mode else slice(-1)
    # rows n = 1..d; the row n = d has no u_{n+1} p_{n+1} term
    rhs = (np.append(u[1:] * p[2:], 0.0) - u * p[:-1] - u[0] * p[1] * p[1:])[rows]
    return derivative_report(state, g, lambda st: eigen_polys(st, lam_v)[0][1:][rows],
                             lambda pdot: (np.abs(pdot - rhs), np.abs(pdot + rhs)))
