"""The shared RK4 kernel against two independent routes: the two separate
RK4 loops the rank-1 and chain flows used before they shared one kernel
(bit-for-bit), and the exact QR solution of the finite Toda lattice."""
import numpy as np
import pytest
from scipy.linalg import expm

from isoflow import (ChainState, FlowState, SignedScaled, Toda, chain_dense_L,
                     integrate, integrate_chain, invariant, oscillator, su2,
                     su11)
from isoflow.chain import _rhs_raw
from isoflow.flows import flow_rhs


def reference_integrate(alg, state0, policy, dt, t_end, record_every):
    """The rank-1 RK4 loop as it stood before the shared kernel."""
    n_steps = int(round((t_end - state0.t) / dt))

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
        d = len(y) // 2
        ds, dr = _rhs_raw(t, y[:d], y[d:], g)
        return np.concatenate([ds, dr])

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
    "tabulated": (oscillator(1.0), FlowState(0.1, 2.0, 3.0),
                  SignedScaled(1, ((0.0, 0.4, 0.8, 1.2), (0.7, 1.3, 0.9, 1.1))),
                  1e-3, 1.1),
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
