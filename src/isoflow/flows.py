"""Coupled flow for the rank-1 Lax pair and the weight-modification law.

The system is

    sdot = 2 epsilon r u,        rdot = -2 (a s + c) u,

with u(t) supplied by a policy (Toda: u = r; or u = sigma * gamma(t) * r).
The function I(r,s) = epsilon r^2 + (a s + 2c) s is conserved.  Along a flow
the orthogonality weight of the diagonalizing family picks up a factor
m(t)^x with m(t) = exp(K * int_0^t u/r); per family m(t) also has a closed
form A0 * F(r(t), s(t)), which ``modification_report`` checks by measuring
g(t) = r (ln m)' / u and its constancy.

``rk4_path`` is the one fixed-step RK4 loop of both flows; it advances a
state with a step function.  The rank-1 flow's step is fused on the two floats (r, s),
built once per path with the u-policy resolved; the chain flow binds the
list kernel ``rk4_step`` to its right-hand side.  Both give the results of
the vector RK4 expressions bit for bit.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import AlgebraSpec
from .families import FamilyTag, check_regime
from .report import relative_error


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
    (linear interpolation between samples, held at the end values)."""

    sigma: int
    gamma: float | tuple[tuple[float, ...], tuple[float, ...]] = 1.0
    # (ts, values, slopes) as floats for a table, None for a constant
    _table: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sigma not in (+1, -1):
            raise ValueError(f"sigma must be +1 or -1, got {self.sigma}")
        if isinstance(self.gamma, (int, float)):
            if not 0 < self.gamma < math.inf:
                raise ValueError("gamma must be positive and finite")
            return
        ts, vals = self.gamma
        if len(ts) != len(vals) or len(ts) < 2:
            raise ValueError("gamma table needs matching t/value samples")
        ts, vals = tuple(map(float, ts)), tuple(map(float, vals))
        if not all(map(math.isfinite, ts)):
            raise ValueError("gamma table t samples must be finite")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("gamma table t samples must be strictly increasing")
        if not all(0 < v < math.inf for v in vals):
            raise ValueError("gamma must be positive and finite")
        slopes = tuple((v1 - v0) / (t1 - t0)
                       for t0, t1, v0, v1 in zip(ts, ts[1:], vals, vals[1:]))
        object.__setattr__(self, "_table", (ts, vals, slopes))

    def gamma_at(self, t: float) -> float:
        """gamma(t); for a table bitwise ``np.interp(t, ts, values)``, whose
        scalar rule this is: the end values outside the samples, a sample's
        own value at its t, else slope * (t - t_j) + value_j."""
        if self._table is None:
            return float(self.gamma)
        ts, vals, slopes = self._table
        if t < ts[0]:
            return vals[0]
        if t >= ts[-1]:
            return vals[-1]
        j = bisect_right(ts, t, 1, len(ts) - 1) - 1
        if ts[j] == t:
            return vals[j]
        return slopes[j] * (t - ts[j]) + vals[j]

    def __call__(self, t: float, r: float) -> float:
        return self.sigma * self.gamma_at(t) * r


UPolicy = Toda | SignedScaled


def policy_sigma(policy: UPolicy) -> int:
    return +1 if isinstance(policy, Toda) else policy.sigma


# --------------------------------------------------------------------------
# the flow


def flow_rhs(alg: AlgebraSpec, state: FlowState, u: float) -> tuple[float, float]:
    """(sdot, rdot) = (2 epsilon r u, -2 (a s + c) u)."""
    return 2.0 * alg.epsilon * state.r * u, -2.0 * (alg.a * state.s + alg.c_param) * u


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

    def invariant_drift(self) -> float:
        """Worst ``relative_error`` of I along the samples against I_0."""
        return float(relative_error(self.invariant, self.invariant[0]).max())


RHS = Callable[[float, list[float]], list[float]]
Step = Callable[[float, list[float], float], list[float]]


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


def rk4_path(step: Step, t0: float, y0: list[float], dt: float, t_end: float,
             record_every: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 on the grid t0 + (i+1) dt up to t_end: ``step(t, y,
    dt)`` advances y by one step from t (``rk4_step`` bound to a right-hand
    side, or a fused step that computes the same).

    Returns (t, y) arrays with one row of y per sample: t0, every
    ``record_every``-th step and the last step.  ``dt`` must divide
    ``t_end - t0`` (relative tolerance 1e-9).  Raises IntegrationBlowupError
    on a non-finite state; its ``last_state`` holds the (t, y) samples
    recorded before the failing step.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not (math.isfinite(t0) and math.isfinite(t_end)):
        raise ValueError(f"t0 = {t0!r} and t_end = {t_end!r} must be finite")
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
        y = step(t, y, dt)
        t = t0 + (i + 1) * dt
        if not all(map(isfinite, y)):
            raise IntegrationBlowupError(f"flow blew up near t = {t:.6g}",
                                         (np.array(ts), np.array(ys)))
        if (i + 1) % record_every == 0 or i == n_steps - 1:
            ts.append(t)
            ys.append(y)
    return np.array(ts), np.array(ys)


def _gain(policy: UPolicy) -> float | Callable[[float], float]:
    """u / r under ``policy``, resolved once per path: a float for Toda and
    a constant gamma, else a function of t.  ``gain * r`` is bitwise the
    policy's u (1.0 * r is r)."""
    if isinstance(policy, Toda):
        return 1.0
    if policy._table is None:
        return policy.sigma * float(policy.gamma)
    sigma, gamma_at = policy.sigma, policy.gamma_at
    return lambda t: sigma * gamma_at(t)


def _rank1_step(alg: AlgebraSpec, gain: float | Callable[[float], float]) -> Step:
    """The RK4 step of y = [r, s] under u = gain * r for ``rk4_path``:
    ``rk4_step`` of (rdot, sdot) = ``flow_rhs`` written out on two floats,
    with the same expression tree, so bit-identical to it."""
    e2, a, c = 2.0 * alg.epsilon, alg.a, alg.c_param

    def fused(r, s, dt, g0, gh, g1):
        h = dt / 2
        u = g0 * r
        k1r, k1s = -2.0 * (a * s + c) * u, e2 * r * u
        r2, s2 = r + h * k1r, s + h * k1s
        u = gh * r2
        k2r, k2s = -2.0 * (a * s2 + c) * u, e2 * r2 * u
        r3, s3 = r + h * k2r, s + h * k2s
        u = gh * r3
        k3r, k3s = -2.0 * (a * s3 + c) * u, e2 * r3 * u
        r4, s4 = r + dt * k3r, s + dt * k3s
        u = g1 * r4
        k4r, k4s = -2.0 * (a * s4 + c) * u, e2 * r4 * u
        w = dt / 6
        return [r + w * (k1r + 2 * k2r + 2 * k3r + k4r),
                s + w * (k1s + 2 * k2s + 2 * k3s + k4s)]

    if callable(gain):
        def step(t, y, dt):
            gh = gain(t + dt / 2)
            return fused(y[0], y[1], dt, gain(t), gh, gain(t + dt))
    else:
        def step(t, y, dt):
            return fused(y[0], y[1], dt, gain, gain, gain)
    return step


def integrate(alg: AlgebraSpec, state0: FlowState, policy: UPolicy,
              dt: float, t_end: float, record_every: int = 1) -> Trajectory:
    """Classical fixed-step RK4 (``rk4_path``) for (r, s); u is re-sampled
    at every stage.  Raises IntegrationBlowupError, carrying the last
    recorded FlowState, on non-finite state."""
    gain = _gain(policy)
    try:
        t_arr, y = rk4_path(_rank1_step(alg, gain), state0.t,
                            [float(state0.r), float(state0.s)], dt, t_end,
                            record_every)
    except IntegrationBlowupError as exc:
        t, y = exc.last_state
        exc.last_state = FlowState(float(t[-1]), float(y[-1, 0]), float(y[-1, 1]))
        raise
    r_arr, s_arr = y[:, 0], y[:, 1]
    # u and I over Python floats, with the arithmetic of the policy and of
    # ``invariant``: r ** 2 is libm's pow, which can differ from r * r in
    # the last bit
    t_l, r_l, s_l = t_arr.tolist(), r_arr.tolist(), s_arr.tolist()
    eps, a, c2 = alg.epsilon, alg.a, 2.0 * alg.c_param
    if callable(gain):
        u_arr = np.array([gain(t) * r for t, r in zip(t_l, r_l)])
    else:
        u_arr = np.array([gain * r for r in r_l])
    i_arr = np.array([eps * r ** 2 + (a * s + c2) * s for r, s in zip(r_l, s_l)])
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


def check_modification(family: str, alg: AlgebraSpec, r: float, s: float) -> None:
    """Raise KeyError for a family without a closed-form modification
    factor, and ParameterError when the initial state (r, s) lies outside
    the family's regime (``check_regime``)."""
    if family not in _CLOSED_FORMS:
        raise KeyError(f"no closed-form modification for family {family!r}")
    check_regime(FamilyTag(family), alg, r, s)


def modification_report(alg: AlgebraSpec, traj: Trajectory, family: str) -> ModificationReport:
    """Check the closed-form weight-modification factor along a trajectory.

    Computes m_i = F(r_i, s_i) from the family's closed form, then
    g_i = r_i * (ln m)'_i / u_i by centered differences, the empirical
    constant K = mean(g), the worst deviation of g from K, and the worst
    relative error of m(t)/m(0) against exp(K * int_0^t u/r d tau)
    (trapezoid quadrature on the same grid).  Raises as
    ``check_modification`` on the initial state.
    """
    check_modification(family, alg, float(traj.r[0]), float(traj.s[0]))
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
    cols = (traj.t, traj.r, traj.s, traj.u, traj.invariant)
    with open(path, "w", newline="") as fh:
        fh.write("t,r,s,u,I\n")
        fh.write("".join(["%.17g,%.17g,%.17g,%.17g,%.17g\n" % row
                          for row in zip(*(c.tolist() for c in cols))]))
