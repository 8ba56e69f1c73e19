"""The shared RK4 kernel against two independent routes: numpy RK4 code
(the two separate loops the rank-1 and chain flows used before they shared
one kernel, and that kernel as it stood on numpy vectors), bit-for-bit, and
the exact QR solution of the finite Toda lattice."""
import numpy as np
import pytest
from scipy.linalg import expm

from isoflow import (ChainState, FlowState, IntegrationBlowupError,
                     SignedScaled, Toda, chain_dense_L, integrate,
                     integrate_chain, invariant, oscillator, su2, su11)
from isoflow.chain import _advance
from isoflow.flows import flow_rhs


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


def np_policy(policy):
    """The u-policy as a function of (t, r), a gamma table interpolated by
    ``np.interp`` as the policies did before their own interpolation."""
    if isinstance(policy, SignedScaled) and isinstance(policy.gamma, tuple):
        ts, vals = policy.gamma
        return lambda t, r: policy.sigma * float(np.interp(t, ts, vals)) * r
    return policy


def reference_integrate(alg, state0, policy, dt, t_end, record_every):
    """The rank-1 RK4 loop as it stood before the shared kernel."""
    n_steps = int(round((t_end - state0.t) / dt))
    policy = np_policy(policy)

    def rhs(t, y):
        r, s = y
        u = policy(t, r)
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
    u_arr = np.array([policy(ti, ri) for ti, ri in zip(t_arr, r_arr)])
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
    "toda": (su2(), FlowState(0.0, 1.0, 0.2), Toda(), 1e-3, 1.0),
    "scaled": (su11(), FlowState(0.0, 1.0, 1.25), SignedScaled(-1, 0.8), 1e-4, 0.2),
    "scaled_int": (su11(), FlowState(0.0, 1.0, 1.25), SignedScaled(-1, 2), 1e-4, 0.2),
    "tabulated": (oscillator(1.0), FlowState(0.1, 2.0, 3.0),
                  SignedScaled(1, ((0.0, 0.4, 0.8, 1.2), (0.7, 1.3, 0.9, 1.1))),
                  1e-3, 1.1),
    # knots on the step grid (multiples of dt = 2^-8, so steps land on them
    # exactly) and a last knot before t_end, past which gamma is held
    "tabulated_grid": (su2(0.3), FlowState(0.0, 0.9, 0.4),
                       SignedScaled(1, ((0.0, 0.25, 0.5, 0.75), (0.6, 1.4, 0.8, 1.2))),
                       2.0 ** -8, 1.0),
}


@pytest.mark.parametrize("record_every", [1, 7, 100])
@pytest.mark.parametrize("case", sorted(RANK1_CASES))
def test_integrate_matches_reference_loop_bitwise(case, record_every):
    alg, st0, pol, dt, t_end = RANK1_CASES[case]
    traj = integrate(alg, st0, pol, dt, t_end, record_every=record_every)
    ref = reference_integrate(alg, st0, pol, dt, t_end, record_every)
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


@pytest.mark.parametrize("k", [1, 7, 300])
@pytest.mark.parametrize("case", sorted(RANK1_CASES))
def test_every_kth_row_of_full_run_is_the_recorded_run(case, k):
    alg, st0, pol, dt, t_end = RANK1_CASES[case]
    full = integrate(alg, st0, pol, dt, t_end).every(k)
    sparse = integrate(alg, st0, pol, dt, t_end, record_every=k)
    for name in ("t", "r", "s", "u", "invariant"):
        assert np.array_equal(getattr(full, name), getattr(sparse, name)), name


@pytest.mark.parametrize("record_every", [1, 7])
def test_rank1_blowup_state_matches_numpy_kernel(record_every):
    alg, st0, pol = su11(), FlowState(0.0, 1.0, 1.25), SignedScaled(-1, 1.0)

    def f(t, y):
        sd, rd = flow_rhs(alg, FlowState(t, y[0], y[1]), pol(t, y[0]))
        return np.array([rd, sd])

    t, y = np_rk4_samples(f, st0.t, np.array([st0.r, st0.s]), 1e-3, 5.0, record_every)
    with pytest.raises(IntegrationBlowupError) as info:
        integrate(alg, st0, pol, 1e-3, 5.0, record_every=record_every)
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
