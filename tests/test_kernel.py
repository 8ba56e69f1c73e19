"""The shared RK4 kernel against two independent routes: numpy RK4 code
(the two separate loops the rank-1 and chain flows used before they shared
one kernel, that kernel as it stood on numpy vectors, and its per-step
driver, which the generated path replaced), bit-for-bit, and the exact QR
solution of the finite Toda lattice."""
import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import isoflow.chain
import isoflow.flows
from isoflow import (ChainState, FlowState, GammaTable, IntegrationBlowupError,
                     chain_dense_L, e2, g_at, integrate, integrate_chain, invariant,
                     oscillator, su2, su11)
from isoflow.chain import _advance, _chain_path, _path_source
from isoflow.flows import _rank1_make, _rank1_source, flow_rhs

SRC = Path(__file__).resolve().parents[1] / "src"


def np_chain_rhs(t, y, g):
    """The chain flow on a numpy vector y = (s, r)."""
    d = len(y) // 2
    s, r = y[:d], y[d:]
    u = (g(t) if callable(g) else float(g)) * r
    s_pad = np.concatenate(([0.0], s, [0.0]))
    ds = 2.0 * r * u
    dr = u * (s_pad[:-2] - 2.0 * s_pad[1:-1] + s_pad[2:])
    return np.concatenate([ds, dr])


def np_rk4_step(f, t, y, dt):
    k1 = f(t, y)
    k2 = f(t + dt / 2, y + dt / 2 * k1)
    k3 = f(t + dt / 2, y + dt / 2 * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def np_rk4_samples(f, t0, y0, dt, t_end, record_every):
    """The samples the numpy kernel recorded before its first non-finite
    step, or None when it reaches t_end."""
    ts, ys = [t0], [y0]
    t, y = t0, y0
    n_steps = int(round((t_end - t0) / dt))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            y = np_rk4_step(f, t, y, dt)
            t = t0 + (i + 1) * dt
            if not np.all(np.isfinite(y)):
                return np.array(ts), np.array(ys)
            if (i + 1) % record_every == 0 or i == n_steps - 1:
                ts.append(t)
                ys.append(y)
    return None


def np_u(g):
    """u = g(t) r as a function of (t, r), a gamma table interpolated by
    ``np.interp`` as the u-policies did before their own interpolation."""
    if isinstance(g, GammaTable):
        return lambda t, r: g.sigma * float(np.interp(t, g.ts, g.values)) * r
    return lambda t, r: float(g) * r


def rank1_np_rhs(alg, g):
    """The rank-1 flow on a numpy vector y = (r, s) under u = g(t) r."""
    def f(t, y):
        sd, rd = flow_rhs(alg, FlowState(t, y[0], y[1]), g_at(g, t) * y[0])
        return np.array([rd, sd])
    return f


def reference_integrate(alg, state0, g, dt, t_end, record_every):
    """The rank-1 RK4 loop as it stood before the shared kernel."""
    n_steps = int(round((t_end - state0.t) / dt))
    u_of = np_u(g)

    def rhs(t, y):
        r, s = y
        u = u_of(t, r)
        sd, rd = flow_rhs(alg, FlowState(t, r, s), u)
        return np.array([rd, sd])

    ts, rs, ss = [state0.t], [state0.r], [state0.s]
    y = np.array([state0.r, state0.s], dtype=float)
    t = state0.t
    for i in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + dt / 2, y + dt / 2 * k1)
        k3 = rhs(t + dt / 2, y + dt / 2 * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = state0.t + (i + 1) * dt
        if (i + 1) % record_every == 0 or i == n_steps - 1:
            ts.append(t)
            rs.append(float(y[0]))
            ss.append(float(y[1]))
    t_arr, r_arr, s_arr = np.array(ts), np.array(rs), np.array(ss)
    u_arr = np.array([u_of(ti, ri) for ti, ri in zip(t_arr, r_arr)])
    i_arr = np.array([invariant(alg, FlowState(ti, ri, si))
                      for ti, ri, si in zip(t_arr, r_arr, s_arr)])
    return t_arr, r_arr, s_arr, u_arr, i_arr


def reference_integrate_chain(state0, g, dt, t_end, record_every):
    """The chain RK4 loop (with its per-step state) as it stood before the
    shared kernel."""
    def f(t, y):
        return np_chain_rhs(t, y, g)

    def step(state, dt):
        y = np.concatenate([state.s, state.r])
        t = state.t
        k1 = f(t, y)
        k2 = f(t + dt / 2, y + dt / 2 * k1)
        k3 = f(t + dt / 2, y + dt / 2 * k2)
        k4 = f(t + dt, y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return ChainState(t + dt, tuple(y[:state.d]), tuple(y[state.d:]))

    n_steps = int(round((t_end - state0.t) / dt))
    ts, ss, rs = [state0.t], [state0.s], [state0.r]
    cur = state0
    for i in range(n_steps):
        cur = step(cur, dt)
        cur = ChainState(state0.t + (i + 1) * dt, cur.s, cur.r)
        if (i + 1) % record_every == 0 or i == n_steps - 1:
            ts.append(cur.t)
            ss.append(cur.s)
            rs.append(cur.r)
    return np.array(ts), np.array(ss), np.array(rs)


RANK1_CASES = {
    "toda": (su2(), FlowState(0.0, 1.0, 0.2), 1.0, 1e-3, 1.0),
    "scaled": (su11(), FlowState(0.0, 1.0, 1.25), -0.8, 1e-4, 0.2),
    "scaled_int": (su11(), FlowState(0.0, 1.0, 1.25), -2, 1e-4, 0.2),
    "tabulated": (oscillator(1.0), FlowState(0.1, 2.0, 3.0),
                  GammaTable(1, (0.0, 0.4, 0.8, 1.2), (0.7, 1.3, 0.9, 1.1)),
                  1e-3, 1.1),
    # knots on the step grid (multiples of dt = 2^-8, so steps land on them
    # exactly) and a last knot before t_end, past which gamma is held
    "tabulated_grid": (su2(0.3), FlowState(0.0, 0.9, 0.4),
                       GammaTable(1, (0.0, 0.25, 0.5, 0.75), (0.6, 1.4, 0.8, 1.2)),
                       2.0 ** -8, 1.0),
}


@pytest.mark.parametrize("record_every", [1, 7, 100])
@pytest.mark.parametrize("case", sorted(RANK1_CASES))
def test_integrate_matches_reference_loop_bitwise(case, record_every):
    alg, st0, g, dt, t_end = RANK1_CASES[case]
    traj = integrate(alg, st0, g, dt, t_end, record_every=record_every)
    ref = reference_integrate(alg, st0, g, dt, t_end, record_every)
    for got, want in zip((traj.t, traj.r, traj.s, traj.u, traj.invariant), ref):
        assert np.array_equal(got, want)


CHAIN_STATE = ChainState(0.0, (0.3, -0.2, 0.4, 0.1), (1.0, 0.8, 1.2, 0.9))
CHAIN_COUPLINGS = {
    "toda": 1.0,
    "scaled": 0.8,
    "tabulated": lambda t: float(np.interp(t, (0.0, 0.5, 1.0), (0.7, 1.3, 0.9))),
}


@pytest.mark.parametrize("record_every", [1, 7, 100])
@pytest.mark.parametrize("case", sorted(CHAIN_COUPLINGS))
def test_integrate_chain_matches_reference_loop_bitwise(case, record_every):
    g = CHAIN_COUPLINGS[case]
    traj = integrate_chain(CHAIN_STATE, g, 1e-3, 1.0, record_every=record_every)
    t, s, r = reference_integrate_chain(CHAIN_STATE, g, 1e-3, 1.0, record_every)
    assert np.array_equal(traj.t, t)
    assert np.array_equal(traj.s, s)
    assert np.array_equal(traj.r, r)


@pytest.mark.parametrize("h", [1e-4, -1e-4, 0.05, -0.05])
@pytest.mark.parametrize("case", sorted(CHAIN_COUPLINGS))
def test_advance_matches_numpy_step_bitwise(case, h):
    g = CHAIN_COUPLINGS[case]
    st = ChainState(0.3, CHAIN_STATE.s, CHAIN_STATE.r)
    got = _advance(st, g, h)
    want = np_rk4_step(lambda t, y: np_chain_rhs(t, y, g), st.t,
                       np.array([*st.s, *st.r]), h)
    assert got.t == st.t + h
    assert np.array_equal(np.array([*got.s, *got.r]), want)


def _random_chain(d):
    rng = np.random.default_rng(1000 + d)
    return ChainState(0.0, tuple(rng.uniform(-0.5, 0.5, d)), tuple(rng.uniform(0.5, 1.5, d)))


@pytest.mark.parametrize("case", sorted(CHAIN_COUPLINGS))
@pytest.mark.parametrize("d", [1, 2, 4, 16, 40])
def test_generated_chain_step_matches_reference_loop_bitwise(d, case):
    g = CHAIN_COUPLINGS[case]
    st = _random_chain(d)
    traj = integrate_chain(st, g, 1e-3, 0.2, record_every=7)
    t, s, r = reference_integrate_chain(st, g, 1e-3, 0.2, 7)
    assert np.array_equal(traj.t, t)
    assert np.array_equal(traj.s, s)
    assert np.array_equal(traj.r, r)


@pytest.mark.parametrize("h", [1e-4, -1e-4, 0.05, -0.05])
@pytest.mark.parametrize("case", sorted(CHAIN_COUPLINGS))
def test_advance_rank_one_matches_numpy_step_bitwise(case, h):
    g = CHAIN_COUPLINGS[case]
    st = ChainState(0.3, (0.4,), (0.7,))
    got = _advance(st, g, h)
    want = np_rk4_step(lambda t, y: np_chain_rhs(t, y, g), st.t, np.array([0.4, 0.7]), h)
    assert got.t == st.t + h
    assert np.array_equal(np.array([*got.s, *got.r]), want)


def test_generated_source_depends_on_d_alone():
    def coupling_probe(t):
        return 0.5 + t

    for d in (1, 3):
        src = _path_source(d)
        assert "0.123456789" not in src and "coupling_probe" not in src
        paths = [_chain_path(d)(g) for g in (0.123456789, 2.0, coupling_probe, 1)]
        assert len({path.__code__ for path in paths}) == 1
        code = paths[0].__code__
        assert 0.123456789 not in code.co_consts
        assert "coupling_probe" not in code.co_names + code.co_varnames
    hits = _chain_path.cache_info().hits
    _chain_path(3)(0.7)
    assert _chain_path.cache_info().hits == hits + 1
    assert _chain_path(3)(0.7).__code__ is not _chain_path(4)(0.7).__code__


def test_rank1_step_is_one_code_object_for_every_algebra_and_coupling():
    algebras = (su2(0.37), su11(0.61), oscillator(1.23), e2(0.89))
    couplings = (1.0, -0.77, GammaTable(1, (0.0, 0.4), (0.53, 1.31)))
    make = _rank1_make()
    paths = [make(g, alg.a, alg.c_param, 2.0 * alg.epsilon)
             for alg in algebras for g in couplings]
    assert len({path.__code__ for path in paths}) == 1
    assert _rank1_make() is make
    # by type and value: the loop's integer 1 is not the float a = 1.0
    consts = {(type(c), c) for c in paths[0].__code__.co_consts + make.__code__.co_consts}
    for alg in algebras:
        assert (float, alg.a) not in consts and (float, alg.c_param) not in consts
    for gamma in (0.77, -0.77, 0.53, 1.31):
        assert (float, gamma) not in consts
    # a baked-in algebra parameter would show
    baked = compile("def f(r):\n    return 1.0 * r", "<baked>", "exec").co_consts[0]
    assert (float, su2().a) in {(type(c), c) for c in baked.co_consts}


@pytest.mark.parametrize("source", [_rank1_source(), *map(_path_source, (1, 2, 16))],
                         ids=["rank1", "chain_d1", "chain_d2", "chain_d16"])
def test_step_loop_calls_no_builtin(source):
    """The only calls inside the generated step loop are the finite check,
    the coupling and the sample append (a list append, which the
    interpreter specializes): no min, no range, no len."""
    loops = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.For)]
    assert len(loops) == 1
    calls = {ast.unparse(node.func) for stmt in loops[0].body for node in ast.walk(stmt)
             if isinstance(node, ast.Call)}
    assert calls == {"isfinite", "g", "ts.append"}


@pytest.mark.parametrize("source", [_rank1_source(), *map(_path_source, (1, 2, 16))],
                         ids=["rank1", "chain_d1", "chain_d2", "chain_d16"])
def test_step_loop_numbers_are_floats(source):
    """Every number written inside the generated step loop is a float: an
    int literal that meets a float (a guard's ``r <= 0``) takes the
    interpreter's generic comparison or arithmetic, where two floats take
    its specialized one."""
    loops = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.For)]
    assert len(loops) == 1
    numbers = [node.value for stmt in loops[0].body for node in ast.walk(stmt)
               if isinstance(node, ast.Constant) and type(node.value) in (int, float)]
    assert numbers and all(type(v) is float for v in numbers), numbers


def test_import_compiles_no_step():
    code = ("import isoflow, isoflow.cli\n"
            "from isoflow.chain import _chain_path\n"
            "from isoflow.flows import _rank1_make\n"
            "assert _chain_path.cache_info().currsize == 0\n"
            "assert _rank1_make.cache_info().currsize == 0\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": str(SRC)})


@pytest.mark.parametrize("k", [1, 7, 300])
@pytest.mark.parametrize("case", sorted(RANK1_CASES))
def test_every_kth_row_of_full_run_is_the_recorded_run(case, k):
    alg, st0, g, dt, t_end = RANK1_CASES[case]
    full = integrate(alg, st0, g, dt, t_end).every(k)
    sparse = integrate(alg, st0, g, dt, t_end, record_every=k)
    for name in ("t", "r", "s", "u", "invariant"):
        assert np.array_equal(getattr(full, name), getattr(sparse, name)), name


@pytest.mark.parametrize("record_every", [1, 7])
def test_rank1_blowup_state_matches_numpy_kernel(record_every):
    alg, st0, g = su11(), FlowState(0.0, 1.0, 1.25), -1.0
    t, y = np_rk4_samples(rank1_np_rhs(alg, g), st0.t, np.array([st0.r, st0.s]), 1e-3, 5.0, record_every)
    with pytest.raises(IntegrationBlowupError) as info:
        integrate(alg, st0, g, 1e-3, 5.0, record_every=record_every)
    assert info.value.last_state == FlowState(t[-1], y[-1, 0], y[-1, 1])


@pytest.mark.parametrize("record_every", [1, 3])
def test_chain_blowup_state_matches_numpy_kernel(record_every):
    st0 = ChainState(0.0, (0.3, -0.2, 0.4), (1.0, 0.8, 1.2))

    def f(t, y):  # the kernel's guard: NaN once some r_i <= 0
        return np.full_like(y, np.nan) if y[3:].min() <= 0 else np_chain_rhs(t, y, 60.0)

    t, y = np_rk4_samples(f, st0.t, np.array([*st0.s, *st0.r]), 0.05, 2.0, record_every)
    with pytest.raises(IntegrationBlowupError) as info:
        integrate_chain(st0, 60.0, 0.05, 2.0, record_every=record_every)
    assert info.value.last_state == ChainState(t[-1], tuple(y[-1, :3]), tuple(y[-1, 3:]))


def _guarded_rhs(g):
    def f(t, y):  # the kernel's guard: NaN once some r_i <= 0
        d = len(y) // 2
        return np.full_like(y, np.nan) if y[d:].min() <= 0 else np_chain_rhs(t, y, g)
    return f


@pytest.mark.parametrize("record_every", [1, 3])
def test_chain_blowup_at_an_intermediate_stage_matches_numpy_kernel(record_every):
    st0, g, dt = ChainState(0.0, (-0.37, 0.32), (0.34, 0.9)), 17.2, 0.05
    # the first r_i <= 0 appears at the last stage's input y + dt k3 of the
    # fifth step, from a state whose r_i are all positive
    t, y = np_rk4_samples(_guarded_rhs(g), st0.t, np.array([*st0.s, *st0.r]), dt, 1.0, 1)
    assert len(t) == 5 and (y[:, 2:] > 0).all()
    k = [np_chain_rhs(t[-1], y[-1], g)]
    k.append(np_chain_rhs(t[-1] + dt / 2, y[-1] + dt / 2 * k[0], g))
    k.append(np_chain_rhs(t[-1] + dt / 2, y[-1] + dt / 2 * k[1], g))
    assert (y[-1] + dt / 2 * k[0])[2:].min() > 0 and (y[-1] + dt / 2 * k[1])[2:].min() > 0
    assert (y[-1] + dt * k[2])[2:].min() <= 0

    t, y = np_rk4_samples(_guarded_rhs(g), st0.t, np.array([*st0.s, *st0.r]), dt, 1.0,
                          record_every)
    with pytest.raises(IntegrationBlowupError) as info:
        integrate_chain(st0, g, dt, 1.0, record_every=record_every)
    assert info.value.last_state == ChainState(t[-1], tuple(y[-1, :2]), tuple(y[-1, 2:]))


def test_stage_guard_sees_a_nonpositive_r_after_a_nan():
    """At the first stage input r_1 is NaN (u_1 = inf, k1r1 = inf * 0) and
    r_2 < 0.  The guard's chain of comparisons stops the step there; a
    ``min(r_1, r_2) <= 0`` guard would not (the min is the NaN), but the NaN
    would end the step non-finite.  Either way the path stops the first
    step at t = dt with the initial state, as the numpy kernel does."""
    st0, g, dt = ChainState(0.0, (0.1, 0.2), (1e200, 0.5)), 1e200, 1e-3
    y0 = np.array([*st0.s, *st0.r])
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = np_chain_rhs(0.0, y0, g)
    x = y0 + dt / 2 * k1
    assert math.isinf(g * 1e200) and math.isnan(k1[2]) and math.isnan(x[2]) and x[3] < 0
    assert not min(x[2], x[3]) <= 0

    t, y = np_rk4_samples(_guarded_rhs(g), st0.t, y0, dt, 0.01, 1)
    assert t.tolist() == [0.0] and y.tolist() == [y0.tolist()]
    assert _chain_path(2)(g)(st0.t, y0.tolist(), dt, 10, 1) == ([0.0], y0.tolist(), dt)
    with pytest.raises(IntegrationBlowupError, match="near t = 0.001") as info:
        integrate_chain(st0, g, dt, 0.01)
    assert info.value.last_state == ChainState(t[-1], tuple(y[-1, :2]), tuple(y[-1, 2:]))
    assert info.value.last_state == st0


@pytest.mark.parametrize("record_every", [2.5, 0.5, math.nan, math.inf, -3])
def test_record_every_must_be_a_whole_number(record_every):
    with pytest.raises(ValueError, match="record_every must be a whole number >= 1"):
        integrate(su2(), FlowState(0.0, 1.0, 0.2), 1.0, 0.1, 1.0, record_every=record_every)
    with pytest.raises(ValueError, match="record_every must be a whole number >= 1"):
        integrate_chain(CHAIN3, 1.0, 0.1, 1.0, record_every=record_every)
    with pytest.raises(ValueError, match="record_every must be a whole number >= 1"):
        integrate(su2(), FlowState(0.0, 1.0, 0.2), 1.0, 0.1, 1.0).every(record_every)


def test_integral_float_record_every_is_its_integer():
    st0 = FlowState(0.0, 1.0, 0.2)
    got, want = (integrate(su2(), st0, 1.0, 0.01, 1.0, record_every=k) for k in (10.0, 10))
    assert len(got) == 11 and np.array_equal(got.t, want.t)
    assert np.array_equal(got.r, want.r) and np.array_equal(got.s, want.s)
    full = integrate(su2(), st0, 1.0, 0.01, 1.0)
    assert np.array_equal(full.every(10.0).r, want.r)
    got, want = (integrate_chain(CHAIN3, 1.0, 0.01, 0.5, record_every=k) for k in (10.0, 10))
    assert len(got) == 6 and np.array_equal(got.t, want.t)
    assert np.array_equal(got.s, want.s) and np.array_equal(got.r, want.r)


def reference_rk4_path(step, t0, y0, dt, t_end, record_every):
    """The RK4 driver as it stood with one call per step: ``step(t, y, dt)``
    returns the next state as a new list, whose finiteness the driver
    checks."""
    n_steps = int(round((t_end - t0) / dt))
    ts, ys = [t0], list(y0)
    t, y = t0, y0
    for i in range(n_steps):
        y = step(t, y, dt)
        t = t0 + (i + 1) * dt
        if not all(map(math.isfinite, y)):
            raise IntegrationBlowupError(f"flow blew up near t = {t:.6g}",
                                         (np.array(ts), np.array(ys).reshape(len(ts), -1)))
        if (i + 1) % record_every == 0 or i == n_steps - 1:
            ts.append(t)
            ys.extend(y)
    return np.array(ts), np.array(ys).reshape(len(ts), -1)


def np_step(f):
    """``step(t, y, dt)`` of the per-step driver: one numpy RK4 step of f."""
    def step(t, y, dt):
        with np.errstate(over="ignore", invalid="ignore"):
            return np_rk4_step(f, t, np.array(y), dt).tolist()
    return step


def nan_after(t_nan):
    return lambda t: 1.0 if t < t_nan else math.nan


CHAIN3 = ChainState(0.0, (0.3, -0.2, 0.4), (1.0, 0.8, 1.2))
GUARDED = ChainState(0.0, (-2.41,), (0.18,))
# flow, its arguments, and the per-step numpy RK4 of the same flow
BLOWUP_CASES = {
    "su11": (integrate, (su11(), FlowState(0.0, 1.0, 1.25), -1.0, 1e-3, 5.0),
             rank1_np_rhs(su11(), -1.0)),
    "rank1_nan_coupling": (integrate, (su2(), FlowState(0.0, 1.0, 0.2), nan_after(0.3),
                                       1e-2, 1.0),
                           rank1_np_rhs(su2(), nan_after(0.3))),
    "chain_overflow": (integrate_chain, (CHAIN3, 60.0, 0.05, 2.0), _guarded_rhs(60.0)),
    "chain_nan_coupling": (integrate_chain, (CHAIN3, nan_after(0.3), 1e-2, 1.0),
                           _guarded_rhs(nan_after(0.3))),
    **{f"chain_stage_guard_{n}": (integrate_chain, (GUARDED, 7.72, 0.2, 0.2 * n),
                                  _guarded_rhs(7.72))
       for n in (1, 2, 5)},
}


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("case", sorted(BLOWUP_CASES))
def test_blowup_matches_per_step_driver(case, record_every, monkeypatch):
    """The generated path stops where the per-step driver raised: the same
    message (its t) and the same last state, after the flow's own reading
    of the samples."""
    flow, args, f = BLOWUP_CASES[case]

    def blowup():
        with pytest.raises(IntegrationBlowupError) as info:
            flow(*args, record_every=record_every)
        return str(info.value), info.value.last_state

    got = blowup()
    for module in (isoflow.flows, isoflow.chain):
        monkeypatch.setattr(module, "rk4_path",
                            lambda path, *rest: reference_rk4_path(np_step(f), *rest))
    assert got == blowup()


def test_advance_refuses_to_leave_the_chain_states():
    # the step ends with r_1 <= 0, and overflows under g = 1e200
    with pytest.raises(ValueError, match="all r_i must be positive"):
        _advance(GUARDED, 7.72, 0.2)
    with pytest.raises(ValueError, match="all s_i and r_i must be finite"):
        _advance(GUARDED, 1e200, 0.5)
    # a stage guard stops the one-step path: it hands back the start state
    # with the failing t, and _advance raises rather than return it
    # (the state before the fifth step of the intermediate-stage blow-up)
    g, dt = 17.2, 0.05
    t, y = np_rk4_samples(_guarded_rhs(g), 0.0, np.array([-0.37, 0.32, 0.34, 0.9]), dt, 1.0, 1)
    st = ChainState(t[-1], tuple(y[-1, :2]), tuple(y[-1, 2:]))
    ts, ys, t_fail = _chain_path(2)(g)(st.t, [*st.s, *st.r], dt, 1, 1)
    assert (ts, ys, t_fail) == ([st.t], [*st.s, *st.r], st.t + dt)
    with pytest.raises(ValueError, match="all s_i and r_i must be finite"):
        _advance(st, g, dt)


def exact_toda_L(state0, g, t):
    """L(t) = Q^T L0 Q with exp(g t L0) = QR, R with a positive diagonal
    (the QR solution of the finite non-periodic Toda lattice)."""
    L0 = chain_dense_L(state0)
    Q, R = np.linalg.qr(expm(g * t * L0))
    Q = Q * np.sign(np.diag(R))
    return Q.T @ L0 @ Q


@pytest.mark.parametrize("g", [0.8, 1.2])
@pytest.mark.parametrize("d", [3, 4, 6])
def test_integrate_chain_matches_exact_toda_solution(d, g):
    rng = np.random.default_rng(100 + d)
    st = ChainState(0.0, tuple(rng.uniform(-0.5, 0.5, d)),
                    tuple(rng.uniform(0.5, 1.5, d)))
    traj = integrate_chain(st, g, 1e-3, 1.0, record_every=250)
    assert len(traj) == 5
    for i in range(len(traj)):
        exact = exact_toda_L(st, g, float(traj.t[i]))
        assert np.abs(chain_dense_L(traj.state(i)) - exact).max() <= 1e-10
