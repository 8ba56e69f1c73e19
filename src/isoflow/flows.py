"""Coupled flow for the rank-1 Lax pair and the weight-modification law.

The system is

    sdot = 2 epsilon r u,        rdot = -2 (a s + c) u,

with u(t) supplied by a policy (Toda: u = r; or u = sigma * gamma(t) * r).
The function I(r,s) = epsilon r^2 + (a s + 2c) s is conserved.  Along a flow
the orthogonality weight of the diagonalizing family picks up a factor
m(t)^x with m(t) = exp(K * int_0^t u/r); per family m(t) also has a closed
form A0 * F(r(t), s(t)), which ``modification_report`` checks by measuring
g(t) = r (ln m)' / u and its constancy.  ``rk4_step``/``rk4_path`` are the
one RK4 kernel, shared with the chain flow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import AlgebraSpec
from .families import FamilyTag, check_regime


class IntegrationBlowupError(RuntimeError):
    """Non-finite state encountered; carries the last good sample (rk4_path:
    the (t, y) samples recorded so far)."""

    def __init__(self, message: str, last_state):
        super().__init__(message)
        self.last_state = last_state


class DegenerateRatioError(ZeroDivisionError):
    """r or u vanished on the grid where a ratio was required."""


@dataclass(frozen=True)
class FlowState:
    t: float
    r: float
    s: float


# --------------------------------------------------------------------------
# u-policies


@dataclass(frozen=True)
class Toda:
    """u = r."""

    def __call__(self, t: float, r: float) -> float:
        return r


@dataclass(frozen=True)
class SignedScaled:
    """u = sigma * gamma(t) * r with gamma > 0 constant or a sampled table
    (linear interpolation between samples)."""

    sigma: int
    gamma: float | tuple[tuple[float, ...], tuple[float, ...]] = 1.0

    def __post_init__(self):
        if self.sigma not in (+1, -1):
            raise ValueError(f"sigma must be +1 or -1, got {self.sigma}")
        if isinstance(self.gamma, (int, float)):
            if self.gamma <= 0:
                raise ValueError("gamma must be positive")
        else:
            ts, vals = self.gamma
            if len(ts) != len(vals) or len(ts) < 2:
                raise ValueError("gamma table needs matching t/value samples")
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise ValueError("gamma table t samples must be strictly increasing")
            if any(v <= 0 for v in vals):
                raise ValueError("gamma must be positive")

    def gamma_at(self, t: float) -> float:
        if isinstance(self.gamma, (int, float)):
            return float(self.gamma)
        ts, vals = self.gamma
        return float(np.interp(t, ts, vals))

    def __call__(self, t: float, r: float) -> float:
        return self.sigma * self.gamma_at(t) * r


UPolicy = Toda | SignedScaled


def policy_sigma(policy: UPolicy) -> int:
    return +1 if isinstance(policy, Toda) else policy.sigma


# --------------------------------------------------------------------------
# the flow


def _flow_eqs(alg: AlgebraSpec, r: float, s: float, u: float) -> tuple[float, float]:
    return 2.0 * alg.epsilon * r * u, -2.0 * (alg.a * s + alg.c_param) * u


def flow_rhs(alg: AlgebraSpec, state: FlowState, u: float) -> tuple[float, float]:
    """(sdot, rdot) = (2 epsilon r u, -2 (a s + c) u)."""
    return _flow_eqs(alg, state.r, state.s, u)


def invariant(alg: AlgebraSpec, state: FlowState) -> float:
    """I = epsilon r^2 + (a s + 2c) s, conserved along the flow."""
    return alg.epsilon * state.r ** 2 + (alg.a * state.s + 2.0 * alg.c_param) * state.s


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid samples of the flow: (t_i, r_i, s_i, u_i, I_i)."""

    t: np.ndarray
    r: np.ndarray
    s: np.ndarray
    u: np.ndarray
    invariant: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def state(self, i: int) -> FlowState:
        return FlowState(float(self.t[i]), float(self.r[i]), float(self.s[i]))

    def every(self, k: int) -> "Trajectory":
        """Rows 0, k, 2k, ... and the last: from a run recorded at every
        step, the samples ``integrate(..., record_every=k)`` records."""
        if k < 1:
            raise ValueError("record_every must be >= 1")
        n = len(self) - 1
        rows = list(range(0, n + 1, k)) + ([n] if n % k else [])
        return Trajectory(self.t[rows], self.r[rows], self.s[rows],
                          self.u[rows], self.invariant[rows])


RHS = Callable[[float, list[float]], list[float]]


def rk4_step(f: RHS, t: float, y: list[float], dt: float) -> list[float]:
    """One classical RK4 step of y' = f(t, y) over a list of floats.

    Component by component the arithmetic is that of the vector expressions
    ``y + dt/2*k``, ``y + dt*k3`` and ``y + dt/6*(k1 + 2*k2 + 2*k3 + k4)``,
    so the result is bit-identical to them.
    """
    h = dt / 2
    k1 = f(t, y)
    k2 = f(t + h, [a + h * b for a, b in zip(y, k1)])
    k3 = f(t + h, [a + h * b for a, b in zip(y, k2)])
    k4 = f(t + dt, [a + dt * b for a, b in zip(y, k3)])
    w = dt / 6
    return [a + w * (b1 + 2 * b2 + 2 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def rk4_path(f: RHS, t0: float, y0: list[float], dt: float, t_end: float,
             record_every: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 of y' = f(t, y) on the grid t0 + (i+1) dt up to t_end.

    Returns (t, y) arrays with one row of y per sample: t0, every
    ``record_every``-th step and the last step.  ``dt`` must divide
    ``t_end - t0`` (relative tolerance 1e-9).  Raises IntegrationBlowupError
    on a non-finite state; its ``last_state`` holds the (t, y) samples
    recorded before the failing step.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < t0:
        raise ValueError("t_end must not precede the initial time")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    n_steps = int(round((t_end - t0) / dt))
    if not math.isclose(n_steps * dt, t_end - t0, rel_tol=1e-9):
        raise ValueError(f"dt = {dt!r} does not divide t_end - t0 = "
                         f"{t_end - t0!r} into whole steps")

    ts, ys = [t0], [y0]
    t, y = t0, y0
    isfinite = math.isfinite
    for i in range(n_steps):
        y = rk4_step(f, t, y, dt)
        t = t0 + (i + 1) * dt
        if not all(map(isfinite, y)):
            raise IntegrationBlowupError(f"flow blew up near t = {t:.6g}",
                                         (np.array(ts), np.array(ys)))
        if (i + 1) % record_every == 0 or i == n_steps - 1:
            ts.append(t)
            ys.append(y)
    return np.array(ts), np.array(ys)


def integrate(alg: AlgebraSpec, state0: FlowState, policy: UPolicy,
              dt: float, t_end: float, record_every: int = 1) -> Trajectory:
    """Classical fixed-step RK4 (``rk4_path``) for (r, s); u is re-sampled
    at every stage.  Raises IntegrationBlowupError, carrying the last
    recorded FlowState, on non-finite state."""

    def rhs(t: float, y: list[float]) -> list[float]:
        r, s = y
        sd, rd = _flow_eqs(alg, r, s, policy(t, r))
        return [rd, sd]

    try:
        t_arr, y = rk4_path(rhs, state0.t, [float(state0.r), float(state0.s)],
                            dt, t_end, record_every)
    except IntegrationBlowupError as exc:
        t, y = exc.last_state
        exc.last_state = FlowState(float(t[-1]), float(y[-1, 0]), float(y[-1, 1]))
        raise
    r_arr, s_arr = y[:, 0], y[:, 1]
    u_arr = np.array([policy(ti, ri) for ti, ri in zip(t_arr, r_arr)])
    i_arr = np.array([invariant(alg, FlowState(ti, ri, si))
                      for ti, ri, si in zip(t_arr, r_arr, s_arr)])
    return Trajectory(t_arr, r_arr, s_arr, u_arr, i_arr)


# --------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class SignConditionReport:
    passed: bool
    sigma_required: int
    sigma_given: int
    initial_ok: bool
    min_r: float
    min_s: float


def check_sign_conditions(alg: AlgebraSpec, state0: FlowState, policy: UPolicy,
                          dt: float = 1e-3, t_end: float = 1.0,
                          traj: Trajectory | None = None) -> SignConditionReport:
    """Positivity diagnostic: requires r(0) > 0, s(0) > 0 and the policy sign
    sgn(u) = epsilon * sgn(r); then reports min r, min s over the flow
    integrated at every step to t_end (at least one step).  ``traj``, when
    it holds that flow already, is read instead of integrating again."""
    sigma_req = alg.required_sign()
    sigma_given = policy_sigma(policy)
    initial_ok = state0.r > 0 and state0.s > 0
    hypotheses = initial_ok and sigma_given == sigma_req
    try:
        if traj is None or len(traj) < 2:
            traj = integrate(alg, state0, policy, dt,
                             state0.t + max(t_end - state0.t, dt))
        min_r = float(traj.r.min())
        min_s = float(traj.s.min())
    except IntegrationBlowupError:
        min_r = min_s = float("-inf")
    passed = hypotheses and min_r > 0 and min_s > 0
    return SignConditionReport(passed, sigma_req, sigma_given, initial_ok, min_r, min_s)


_CLOSED_FORMS: dict[str, Callable[[float, float, float, float], float]] = {
    # family -> F(r, s, se, C) with m(t) = A0 * F, se = a s + c the
    # coefficient of the grading element (the regimes of check_regime)
    "krawtchouk": lambda r, s, se, C: (C + se) / (C - se),
    "meixner": lambda r, s, se, C: math.exp(-2.0 * math.acosh(se / r)),
    "laguerre": lambda r, s, se, C: math.exp(-1.0 / r),
    "meixner_pollaczek": lambda r, s, se, C: math.exp(2.0 * math.acos(se / r)),
    "charlier": lambda r, s, se, C: r * r,
    "hermite": lambda r, s, se, C: math.exp(s / r),
}

# K = g(t) predicted from the flow equations; None where the derivation in
# circulation carries a sign inconsistency and only constancy is asserted.
_K_EXPECTED: dict[str, Callable[[AlgebraSpec, Trajectory, float], float | None]] = {
    "krawtchouk": lambda alg, tr, C: 4.0 * C,
    "meixner": lambda alg, tr, C: -4.0 * C,
    "laguerre": lambda alg, tr, C: None,
    "meixner_pollaczek": lambda alg, tr, C: 4.0 * C,
    "charlier": lambda alg, tr, C: -4.0 * alg.c_param,
    "hermite": lambda alg, tr, C: 2.0 * float(tr.r[0]),
}


@dataclass(frozen=True)
class ModificationReport:
    family: str
    K_empirical: float
    max_constancy_deviation: float
    closed_form_max_error: float
    K_expected: float | None


def modification_report(alg: AlgebraSpec, traj: Trajectory, family: str) -> ModificationReport:
    """Check the closed-form weight-modification factor along a trajectory.

    Computes m_i = F(r_i, s_i) from the family's closed form, then
    g_i = r_i * (ln m)'_i / u_i by centered differences, the empirical
    constant K = mean(g), the worst deviation of g from K, and the worst
    relative error of m(t)/m(0) against exp(K * int_0^t u/r d tau)
    (trapezoid quadrature on the same grid).  Raises ParameterError when the
    initial state lies outside the family's regime (``check_regime``).
    """
    if family not in _CLOSED_FORMS:
        raise KeyError(f"no closed-form modification for family {family!r}")
    check_regime(FamilyTag(family), alg, float(traj.r[0]), float(traj.s[0]))
    if len(traj) < 3:
        raise ValueError("trajectory too short for centered differences")
    if np.any(np.abs(traj.r) < 1e-300) or np.any(np.abs(traj.u) < 1e-300):
        raise DegenerateRatioError("r or u vanishes on the grid")

    # C^2 = |I + a c^2|: r^2 + se^2 on su(2), |se^2 - r^2| on su(1,1)
    i0 = invariant(alg, traj.state(0)) + alg.a * alg.c_param ** 2
    C = math.sqrt(abs(i0)) if abs(i0) > 0 else 0.0
    f = _CLOSED_FORMS[family]
    ln_m = np.array([math.log(f(r, s, alg.a * s + alg.c_param, C))
                     for r, s in zip(traj.r, traj.s)])
    dt = np.diff(traj.t)
    if not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
        raise ValueError("modification check needs a uniform grid")
    h = float(dt[0])

    dln = (ln_m[2:] - ln_m[:-2]) / (2.0 * h)
    g = traj.r[1:-1] * dln / traj.u[1:-1]
    k_emp = float(g.mean())
    max_dev = float(np.abs(g - k_emp).max())

    # trapezoid primitive of u/r, then compare normalized closed form
    ratio = traj.u / traj.r
    primitive = np.concatenate(([0.0], np.cumsum((ratio[1:] + ratio[:-1]) / 2.0 * np.diff(traj.t))))
    m_cf = np.exp(ln_m - ln_m[0])
    m_int = np.exp(k_emp * primitive)
    cf_err = float(np.abs(m_cf / m_int - 1.0).max())

    k_exp = _K_EXPECTED[family](alg, traj, C)
    return ModificationReport(family, k_emp, max_dev, cf_err, k_exp)


def write_trajectory_csv(path, traj: Trajectory) -> None:
    """CSV with header t,r,s,u,I at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write("t,r,s,u,I\n")
        for i in range(len(traj)):
            fh.write(",".join("%.17g" % v for v in
                              (traj.t[i], traj.r[i], traj.s[i], traj.u[i], traj.invariant[i])))
            fh.write("\n")
