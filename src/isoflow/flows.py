"""Coupled flow for the rank-1 Lax pair and the weight-modification law.

The system is

    sdot = 2 epsilon r u,        rdot = -2 (a s + c) u,

with u = g(t) r for a coupling g: a number or a function of t (Toda: g = 1;
a constant sigma * gamma; or a ``GammaTable``), read by ``g_at``.  The chain
flow (``chain.integrate_chain``) takes the same coupling.  The function
I(r,s) = epsilon r^2 + (a s + 2c) s is conserved.  Along a flow the
orthogonality weight of the diagonalizing family picks up a factor
m(t)^x with m(t) = exp(K * int_0^t u/r); per family m(t) also has a closed
form A0 * F(r(t), s(t)), which ``modification_report`` checks by measuring
the rate r (ln m)' / u and its constancy.

``integrate`` returns a ``Trajectory``, the record of one flow: its
algebra, its coupling and the samples (t, r, s), from which u and I are read
when first used.  The checks of a path read it: ``check_sign_conditions``
and ``modification_report`` the flow, ``spectral.isospectrality_drift``
the spectra of its samples, solved once per path.

``rk4_path`` is the one fixed-step RK4 driver of both flows: it checks the
grid, runs a generated path once and raises on a blow-up.  Both flows have
u = g(t) r, and ``_rk4_source`` is the one place the RK4 stages are
written: from a flow's right-hand side it generates the whole fixed-step
loop, which keeps the state in local floats from the first step to the
last, writes each step out as straight-line code and records samples into
flat lists of floats.  A flow states each derivative as sigma p, a signed
power of two sigma times the rest p (here sigma = -2 for r and e2 =
2 epsilon for s); the path forms p alone and folds sigma, and RK4's
doubled k2 and k3, into step multipliers it computes once.  Scaling by a
power of two is exact, so each product rounds the same real number as the
vector RK4 expressions and the path is bit for bit a numpy RK4, with two
exceptions.  An intermediate within a factor of 4 of the largest float, in
the subnormal range, or a dt < 2**-1020 can round differently: near
overflow the unscaled intermediates can stay finite one more step, so a
diverging flow may be reported a step later.  And a component with
sigma < 0 that is -0.0 at a step's start, where its increments sum to zero
exactly (r = -0.0, the rank-1 flow's fixed point), keeps -0.0 where numpy
gives +0.0.  The rank-1 path on (r, s) is compiled once per process, with
the algebra and the coupling bound per path; the chain path
(``chain._chain_path``) once per rank d.
"""
from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .algebra import AlgebraSpec
from .families import check_modification
from .report import relative_error, write_columns_csv


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
# the coupling g(t)


# a coupling g(t): a number, or a function of t
GFun = float | Callable[[float], float]


def g_at(g: GFun, t: float) -> float:
    """The coupling g at time t."""
    return g(t) if callable(g) else float(g)


@dataclass(frozen=True)
class GammaTable:
    """g(t) = sigma * gamma(t) with gamma > 0 sampled at ``ts``: linear
    interpolation between samples, held at the end values.  Hashable, and
    equal to a table with the same sigma and samples."""

    sigma: int
    ts: tuple[float, ...]
    values: tuple[float, ...]
    # (ts, sigma * values, sigma * slopes, index of the last sample)
    _table: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sigma not in (+1, -1):
            raise ValueError(f"sigma must be +1 or -1, got {self.sigma}")
        if len(self.ts) != len(self.values) or len(self.ts) < 2:
            raise ValueError("gamma table needs matching t/value samples")
        ts, vals = tuple(map(float, self.ts)), tuple(map(float, self.values))
        if not all(map(math.isfinite, ts)):
            raise ValueError("gamma table t samples must be finite")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("gamma table t samples must be strictly increasing")
        if not all(0 < v < math.inf for v in vals):
            raise ValueError("gamma must be positive and finite")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "values", vals)
        # sigma = +-1 only flips signs, so folding it in is exact
        sv = tuple(self.sigma * v for v in vals)
        slopes = tuple((v1 - v0) / (t1 - t0)
                       for t0, t1, v0, v1 in zip(ts, ts[1:], sv, sv[1:]))
        object.__setattr__(self, "_table", (ts, sv, slopes, len(ts) - 1))

    def __call__(self, t: float) -> float:
        """Bitwise ``sigma * np.interp(t, ts, values)``, whose scalar rule
        this is: the end values outside the samples, a sample's own value at
        its t, else slope * (t - t_j) + value_j."""
        ts, vals, slopes, last = self._table
        if t < ts[0]:
            return vals[0]
        if t >= ts[last]:
            return vals[last]
        j = bisect_right(ts, t, 1, last) - 1
        if ts[j] == t:
            return vals[j]
        # a sum that cancels is +0 whatever sigma is: give it sigma's sign
        return slopes[j] * (t - ts[j]) + vals[j] or self.sigma * 0.0


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
    """Uniform-grid samples (t_i, r_i, s_i) of the flow of ``alg`` under the
    coupling ``g``; u_i = g(t_i) r_i and I_i are read from them when first
    used."""

    alg: AlgebraSpec
    g: GFun
    t: np.ndarray
    r: np.ndarray
    s: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def state(self, i: int) -> FlowState:
        return FlowState(float(self.t[i]), float(self.r[i]), float(self.s[i]))

    @functools.cached_property
    def u(self) -> np.ndarray:
        """u_i = g(t_i) r_i, the product the RK4 step forms."""
        g = self.g
        return (np.array([g(t) for t in self.t.tolist()]) if callable(g)
                else float(g)) * self.r

    @functools.cached_property
    def invariant(self) -> np.ndarray:
        """I_i with the arithmetic of ``invariant`` over Python floats: r ** 2
        is libm's pow, which can differ from numpy's r * r in the last bit."""
        eps, a, c2 = self.alg.epsilon, self.alg.a, 2.0 * self.alg.c_param
        return np.array([eps * r ** 2 + (a * s + c2) * s
                         for r, s in zip(self.r.tolist(), self.s.tolist())])

    def every(self, k: int) -> "Trajectory":
        """Rows 0, k, 2k, ... and the last: from a run recorded at every
        step, the samples ``integrate(..., record_every=k)`` records."""
        k = _whole_record_every(k)
        n = len(self) - 1
        rows = list(range(0, n + 1, k)) + ([n] if n % k else [])
        return Trajectory(self.alg, self.g, self.t[rows], self.r[rows], self.s[rows])

    def invariant_drift(self) -> float:
        """Worst ``relative_error`` of I along the samples against I_0."""
        return float(relative_error(self.invariant, self.invariant[0]).max())


def _whole_record_every(k) -> int:
    """``record_every`` as an int; it must be a whole number >= 1 (an int,
    or a float such as 10.0), else ValueError: a fraction or NaN would
    never equal a step index."""
    if not (k >= 1 and float(k).is_integer()):
        raise ValueError(f"record_every must be a whole number >= 1, got {k!r}")
    return int(k)


# path(t0, y0, dt, n_steps, record_every) -> (ts, ys, t_fail), of ``_rk4_source``
RK4Path = Callable[[float, Sequence[float], float, int, int],
                   tuple[list[float], list[float], float | None]]


def rk4_path(path: RK4Path, t0: float, y0: Sequence[float], dt: float, t_end: float,
             record_every: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 on the grid t0 + i dt (i = 1, 2, ...) up to t_end, by
    one call of a generated ``path`` over the whole grid.

    Returns (t, y) arrays with one row of y per sample: t0, every
    ``record_every``-th step and the last step; ``record_every`` is a whole
    number >= 1 (``_whole_record_every``).  ``dt`` must divide
    ``t_end - t0`` (relative tolerance 1e-9) into a finite number of steps,
    at most 2**53, else ValueError: above 2**53 a step index i no longer
    converts to a float exactly, so t0 + i dt would repeat grid times.
    Raises IntegrationBlowupError at a step that ended non-finite or whose
    stage failed the flow's guard; its ``last_state`` holds the (t, y)
    samples recorded before that step.
    """
    if not dt > 0:  # NaN too
        raise ValueError(f"dt = {dt!r} must be positive")
    if not (math.isfinite(t0) and math.isfinite(t_end)):
        raise ValueError(f"t0 = {t0!r} and t_end = {t_end!r} must be finite")
    if t_end < t0:
        raise ValueError("t_end must not precede the initial time")
    record_every = _whole_record_every(record_every)
    steps = (t_end - t0) / dt
    if not math.isfinite(steps):
        raise ValueError(f"dt = {dt!r} gives no finite step count over t_end - t0 = "
                         f"{t_end - t0!r}")
    n_steps = int(round(steps))
    if n_steps > 2 ** 53:
        raise ValueError(f"dt = {dt!r} divides t_end - t0 = {t_end - t0!r} into "
                         f"{n_steps:.3g} steps, more than 2**53")
    if not math.isclose(n_steps * dt, t_end - t0, rel_tol=1e-9):
        raise ValueError(f"dt = {dt!r} does not divide t_end - t0 = "
                         f"{t_end - t0!r} into whole steps")
    ts, ys, t_fail = path(t0, y0, dt, n_steps, record_every)
    samples = np.array(ts), np.array(ys).reshape(len(ts), -1)
    if t_fail is not None:
        raise IntegrationBlowupError(f"flow blew up near t = {t_fail:.6g}", samples)
    return samples


def _rk4_source(names: Sequence[str], sigmas: Sequence[str],
                rhs: Callable[[int, str], list[str]],
                guard: Callable[[str], str] | None = None, params: str = "") -> str:
    """Source of ``make(g, <params>)``, which returns the classical RK4 path
    ``path(t0, y0, dt, n_steps, record_every)`` of a flow on y = ``names``
    for ``rk4_path``: n_steps steps to the times t0 + i dt on local floats.
    Inside the loop no function is called but ``isfinite``, a callable
    coupling ``g`` and ``ts.append`` (a list append, which the interpreter
    specializes).

    The path returns (ts, ys, t_fail): the samples as two flat lists of
    floats (a list kept per sample would be a container the cyclic garbage
    collector scans and promotes until the path is done), and None or the t
    of the step where it stopped, as the new state was non-finite or a
    stage input failed ``guard``.

    A flow states each component's derivative as k = sigma p, with sigma a
    signed power of two (``sigmas``, one expression per name: a float or a
    param) and p the rest: ``rhs(k, x)`` gives the lines that set
    ``p{k}<name>`` for every name at the stage input, whose components are
    named ``x + name`` (``x`` is "" at the first stage, where the input is
    y), from the coupling ``gv`` and the ``params``, and ``guard(x)`` a
    condition on the stage input.  ``make`` binds the params and g: a
    number as the constants ``gc`` and ``gc2 = 2 gc``, or a callable sampled
    at t, t + dt/2 (for stages 2 and 3) and t + dt.  Stages 2 and 3 read
    the doubled coupling 2 g(t + dt/2), so they form 2p where RK4 doubles
    k2 and k3, and the path computes the multipliers sigma dt/2,
    sigma dt/4 and sigma dt/6 once (dt/2 and dt/6 rounded as the vector
    expressions round them).  A step is then

        x = y + (sigma dt/2) p1,   x = y + (sigma dt/4) (2 p2),
        x = y + (sigma dt/2) (2 p3),
        y = y + (sigma dt/6) (p1 + 2 p2 + 2 p3 + p4).

    Each product rounds the same real number as the vector expressions
    ``y + dt/2*k``, ``y + dt*k3`` and ``y + dt/6*(k1 + 2*k2 + 2*k3 + k4)``
    do, so the path is bit-identical to them within the limits the module
    docstring states.  The -0.0 limit is the sum's: where sigma < 0 and the
    four p sum to zero exactly, sigma (p1 + ...) is -0.0 where k1 + ... is
    +0.0."""
    sig = list(dict.fromkeys(sigmas))
    m = {n: sig.index(sg) for n, sg in zip(names, sigmas)}
    step = []
    x = ""
    for k, coupling, mult in ((1, "gc if g is None else g(t)", "h"),
                              (2, "gc2 if g is None else 2.0 * g(t + h)", "q"),
                              (3, None, "h"), (4, "gc if g is None else g(t + dt)", None)):
        if guard is not None:
            step += [f"if {guard(x)}:", "    return ts, ys, t0 + i * dt"]
        if coupling is not None:
            step.append(f"gv = {coupling}")
        step += rhs(k, x)
        if mult is not None:
            step += [f"x{n} = {n} + {mult}{m[n]} * p{k}{n}" for n in names]
        x = "x"
    step += [f"{n} = {n} + w{m[n]} * (p1{n} + p2{n} + p3{n} + p4{n})" for n in names]
    step += ["t = t0 + i * dt",
             "if not (" + " and ".join(f"isfinite({n})" for n in names) + "):",
             "    return ts, ys, t",
             "if i == record_at:",
             "    ts.append(t)",
             f"    ys += {', '.join(names)}",
             "    record_at += record_every",
             "    if record_at > n_steps:",
             "        record_at = n_steps"]
    return "\n".join([f"def make(g{', ' + params if params else ''}):",
                      "    gc, gc2, g = ((None, None, g) if callable(g)",
                      "                  else (float(g), 2.0 * float(g), None))",
                      "    def path(t0, y0, dt, n_steps, record_every):",
                      f"        {', '.join(names)} = y0",
                      "        h = dt / 2",
                      "        q = h / 2",
                      "        w = dt / 6"]
                     + [f"        {v}{j} = {sg} * {v}" for j, sg in enumerate(sig)
                        for v in "hqw"]
                     + ["        ts, ys = [t0], list(y0)",
                        "        t = t0",
                        "        record_at = min(record_every, n_steps)",
                        "        for i in range(1, n_steps + 1):"]
                     + ["            " + line for line in step]
                     + ["        return ts, ys, None",
                        "    return path", ""])


def _compile_make(source: str, filename: str) -> Callable[..., RK4Path]:
    """The ``make`` that ``source`` (an ``_rk4_source``) defines."""
    namespace = {"isfinite": math.isfinite}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["make"]


def _rank1_source() -> str:
    """Source of ``make(g, a, c, e2)``, which returns the rank-1 flow's RK4
    path on y = [r, s]: (rdot, sdot) = ``flow_rhs`` under u = g r with a, c
    and e2 = 2 epsilon bound, stated as sigma p: rdot = -2 ((a s + c) u)
    and sdot = e2 (r u), the sigma e2 = +-2 bound with the algebra."""
    return _rk4_source(
        ("r", "s"), ("-2.0", "e2"),
        lambda k, x: [f"u = gv * {x}r",
                      f"p{k}r, p{k}s = (a * {x}s + c) * u, {x}r * u"],
        params="a, c, e2")


@functools.cache
def _rank1_make() -> Callable[..., RK4Path]:
    """``make`` of ``_rank1_source``, compiled once per process: one code
    object for every algebra and coupling."""
    return _compile_make(_rank1_source(), "<rank-1 RK4 path>")


def integrate(alg: AlgebraSpec, state0: FlowState, g: GFun,
              dt: float, t_end: float, record_every: int = 1) -> Trajectory:
    """Classical fixed-step RK4 (``rk4_path``) for (r, s) under u = g(t) r;
    u is re-sampled at every stage.  Raises IntegrationBlowupError, carrying
    the last recorded FlowState, on non-finite state."""
    try:
        path = _rank1_make()(g, alg.a, alg.c_param, 2.0 * alg.epsilon)
        t_arr, y = rk4_path(path, state0.t, [float(state0.r), float(state0.s)],
                            dt, t_end, record_every)
    except IntegrationBlowupError as exc:
        t, y = exc.last_state
        exc.last_state = FlowState(float(t[-1]), float(y[-1, 0]), float(y[-1, 1]))
        raise
    return Trajectory(alg, g, t_arr, y[:, 0], y[:, 1])


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


def check_sign_conditions(traj: Trajectory) -> SignConditionReport:
    """Positivity diagnostic of an integrated flow: it passes when r(t0) > 0,
    s(t0) > 0, the coupling has the sign sgn(u) = epsilon * sgn(r), i.e.
    sigma_given = sgn g(t0) equals ``alg.required_sign()`` (g(t0) = 0 gives
    sigma_given = 0, which fails), and min r, min s over the samples are
    positive.  Only the recorded samples are read: a flow recorded at every
    step is checked at every step."""
    st0 = traj.state(0)
    sigma_req = traj.alg.required_sign()
    g0 = g_at(traj.g, st0.t)
    sigma_given = (g0 > 0) - (g0 < 0)
    initial_ok = st0.r > 0 and st0.s > 0
    min_r, min_s = float(traj.r.min()), float(traj.s.min())
    passed = initial_ok and sigma_given == sigma_req and min_r > 0 and min_s > 0
    return SignConditionReport(passed, sigma_req, sigma_given, initial_ok, min_r, min_s)


@dataclass(frozen=True)
class ModificationReport:
    K_empirical: float
    max_constancy_deviation: float
    closed_form_max_error: float
    K_expected: float


def modification_report(traj: Trajectory, family: str) -> ModificationReport:
    """Check the closed-form weight-modification factor along a trajectory.

    Computes m_i = F(r_i, s_i) from the family's closed form, then
    g_i = r_i * (ln m)'_i / u_i by centered differences, the empirical
    constant K = mean(g), the worst deviation of g from K, and the worst
    relative error of m(t)/m(0) against exp(K * int_0^t u/r d tau)
    (trapezoid quadrature on the same grid), with F and the predicted K of
    the family's record.  Raises as ``families.check_modification`` on the
    initial state.
    """
    alg = traj.alg
    f, k_expected = check_modification(family, alg, float(traj.r[0]), float(traj.s[0]))
    if len(traj) < 3:
        raise ValueError("trajectory too short for centered differences")
    if np.any(np.abs(traj.r) < 1e-300) or np.any(np.abs(traj.u) < 1e-300):
        raise DegenerateRatioError("r or u vanishes on the grid")

    # C^2 = |I + a c^2|: r^2 + se^2 on su(2), |se^2 - r^2| on su(1,1)
    i0 = invariant(alg, traj.state(0)) + alg.a * alg.c_param ** 2
    C = math.sqrt(abs(i0)) if abs(i0) > 0 else 0.0
    # over Python floats, which give the IEEE results of numpy's scalars
    a, c = alg.a, alg.c_param
    ln_m = np.array([math.log(f(r, s, a * s + c, C))
                     for r, s in zip(traj.r.tolist(), traj.s.tolist())])
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

    return ModificationReport(k_emp, max_dev, cf_err, k_expected(alg, float(traj.r[0]), C))


def write_trajectory_csv(path, traj: Trajectory) -> None:
    """CSV with header t,r,s,u,I at 17 significant digits."""
    write_columns_csv(path, ("t", "r", "s", "u", "I"),
                      (traj.t, traj.r, traj.s, traj.u, traj.invariant))
