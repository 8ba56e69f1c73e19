"""Coupled flow equations: conserved quantity, closed-form orbit, RK4 order,
sign diagnostics, and the weight-modification factor."""
import math

import numpy as np
import pytest

from isoflow import (DegenerateRatioError, FlowState, IntegrationBlowupError,
                     SignedScaled, Toda, Trajectory, check_sign_conditions,
                     flow_rhs, integrate, invariant, modification_report,
                     ParameterError, oscillator, policy_sigma, su2, su11,
                     write_trajectory_csv)


def test_flow_rhs_substitutions():
    # returns (sdot, rdot)
    assert flow_rhs(su11(), FlowState(0.0, 2.0, 3.0), -1.0) == (4.0, 6.0)
    assert flow_rhs(su2(), FlowState(0.0, 1.0, 0.0), 1.0) == (2.0, 0.0)


def test_invariant_values():
    assert invariant(su2(), FlowState(0.0, 3.0, 4.0)) == 25.0
    assert invariant(oscillator(1.0), FlowState(0.0, 2.0, 3.0)) == 10.0
    assert invariant(su11(), FlowState(0.0, 1.3, 1.3)) == 0.0


def test_policies():
    assert Toda()(0.0, 0.7) == 0.7
    assert SignedScaled(-1, 2.0)(0.0, 0.7) == -1.4
    tabulated = SignedScaled(1, ((0.0, 1.0), (1.0, 3.0)))
    assert tabulated(0.5, 1.0) == pytest.approx(2.0)
    assert policy_sigma(Toda()) == 1
    assert policy_sigma(SignedScaled(-1, 1.0)) == -1


def test_policy_validation():
    with pytest.raises(ValueError):
        SignedScaled(0, 1.0)
    with pytest.raises(ValueError):
        SignedScaled(1, -2.0)


def test_unsorted_gamma_table_rejected():
    # np.interp would silently return 3.0 at t = 0.75 (the sorted table gives 2.5)
    with pytest.raises(ValueError, match="increasing"):
        SignedScaled(1, ((0.0, 1.0, 0.5), (1.0, 2.0, 3.0)))
    with pytest.raises(ValueError, match="increasing"):
        SignedScaled(1, ((0.0, 0.5, 0.5), (1.0, 2.0, 3.0)))
    assert SignedScaled(1, ((0.0, 0.5, 1.0), (1.0, 3.0, 2.0))).gamma_at(0.75) == 2.5


def test_gamma_table_rejects_non_finite_samples():
    # NaN passes both the ordering and the positivity comparisons
    for table in (((0.0, math.nan, 1.0), (1.0, 2.0, 3.0)),
                  ((0.0, 0.5, math.inf), (1.0, 2.0, 3.0)),
                  ((0.0, 0.5, 1.0), (1.0, math.nan, 3.0)),
                  ((0.0, 0.5, 1.0), (1.0, math.inf, 3.0))):
        with pytest.raises(ValueError, match="finite"):
            SignedScaled(1, table)
    for gamma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            SignedScaled(1, gamma)


def _interp_points(ts, dt, rng):
    """Points to interpolate a table with samples ``ts`` at: random ones
    over and beyond the samples, the samples themselves and their
    neighbouring floats, and the RK4 stage times of a grid of step dt."""
    t0, t1 = ts[0], ts[-1]
    grid = t0 - 3 * dt + dt * np.arange(int((t1 - t0) / dt) + 7)
    return np.concatenate([
        rng.uniform(t0 - 1.0, t1 + 1.0, 400), ts,
        np.nextafter(ts, -np.inf), np.nextafter(ts, np.inf),
        grid, grid + dt / 2, [-np.inf, np.inf, -1e300, 1e300]])


def test_gamma_table_matches_np_interp_bitwise():
    rng = np.random.default_rng(5)
    tables = [((0.0, 0.5, 1.0), (1.0, 3.0, 2.0)),
              ((0.0, 0.25, 0.5, 0.75), (0.6, 1.4, 0.8, 1.2)),
              ((-1e-3, 2e-3), (5.0, 1e-300)), ((0, 1, 3), (2, 7, 1))]
    for n in (2, 3, 5, 17, 60):
        ts = np.cumsum(rng.uniform(1e-6, 1.0, n)) - rng.uniform(0.0, 2.0)
        tables.append((tuple(ts.tolist()), tuple(rng.uniform(1e-3, 1e3, n).tolist())))
    for ts, vals in tables:
        policy = SignedScaled(1, (ts, vals))
        for dt in (1e-3, 1e-4, 2.0 ** -8):
            points = _interp_points(np.array(ts, dtype=float), dt, rng).tolist()
            got = np.array([policy.gamma_at(t) for t in points])
            want = np.interp(points, ts, vals)
            assert got.tobytes() == want.tobytes()


def test_su2_closed_form_orbit():
    """From (r, s) = (1, 0) the Toda flow follows sech/tanh exactly."""
    traj = integrate(su2(), FlowState(0.0, 1.0, 0.0), Toda(), 1e-3, 2.0,
                     record_every=50)
    err_r = np.abs(traj.r - 1.0 / np.cosh(2.0 * traj.t)).max()
    err_s = np.abs(traj.s - np.tanh(2.0 * traj.t)).max()
    assert max(err_r, err_s) < 1e-9


def test_rk4_step_halving_is_fourth_order():
    def end_error(dt):
        traj = integrate(su2(), FlowState(0.0, 1.0, 0.0), Toda(), dt, 1.0,
                         record_every=10 ** 9)
        return abs(traj.s[-1] - math.tanh(2.0))

    ratio = end_error(2e-3) / end_error(1e-3)
    assert ratio > 12.0


def test_invariant_drift_all_classes():
    cases = [
        (su2(), FlowState(0.0, 1.0, 0.0), Toda()),
        (su11(), FlowState(0.0, 1.0, 1.25), SignedScaled(1, 1.0)),
        (oscillator(1.0), FlowState(0.0, 2.0, 3.0), Toda()),
    ]
    for alg, st, pol in cases:
        traj = integrate(alg, st, pol, 1e-3, 2.0, record_every=100)
        drift = np.abs(traj.invariant - traj.invariant[0]).max()
        assert drift <= 1e-10 * max(1.0, abs(traj.invariant[0])), alg.clas
        # the max taken before the division, as the checks computed it before
        # the shared relative rule
        assert traj.invariant_drift() == drift / max(1.0, abs(traj.invariant[0]))


def test_recording_grid():
    traj = integrate(su2(), FlowState(0.0, 1.0, 0.5), Toda(), 0.01, 0.1,
                     record_every=4)
    assert traj.t[0] == 0.0 and traj.t[-1] == pytest.approx(0.1)
    # steps 4, 8 recorded plus the forced final sample
    assert len(traj) == 4
    single = integrate(su2(), FlowState(0.0, 1.0, 0.5), Toda(), 0.01, 0.0)
    assert len(single) == 1


def test_dt_must_divide_horizon():
    with pytest.raises(ValueError, match="dt = 0.3 .*t_end - t0 = 1.0"):
        integrate(su2(), FlowState(0.0, 1.0, 0.5), Toda(), 0.3, 1.0)
    with pytest.raises(ValueError, match="t_end - t0"):
        integrate(su2(), FlowState(0.5, 1.0, 0.5), Toda(), 0.3, 0.7)
    # whole step counts within rounding are accepted
    assert len(integrate(su2(), FlowState(0.0, 1.0, 0.5), Toda(), 0.1, 0.3)) == 4
    assert len(integrate(su2(), FlowState(0.2, 1.0, 0.5), Toda(), 0.1, 0.2)) == 1


def test_blowup_carries_last_state():
    with pytest.raises(IntegrationBlowupError) as info:
        integrate(su11(), FlowState(0.0, 1.0, 1.25), SignedScaled(-1, 1.0),
                  1e-3, 5.0)
    last = info.value.last_state
    assert np.isfinite(last.r) and np.isfinite(last.s)
    assert 0.0 < last.t < 5.0


def test_sign_conditions():
    ok = check_sign_conditions(su2(), FlowState(0.0, 1.0, 0.5), Toda())
    assert ok.passed and ok.min_r > 0 and ok.min_s > 0

    wrong_sigma = check_sign_conditions(su11(), FlowState(0.0, 1.0, 1.25),
                                        SignedScaled(1, 1.0), t_end=0.2)
    assert not wrong_sigma.passed
    assert wrong_sigma.sigma_required == -1 and wrong_sigma.sigma_given == 1

    bad_start = check_sign_conditions(su2(), FlowState(0.0, -1.0, 0.5), Toda())
    assert not bad_start.passed and not bad_start.initial_ok

    zero_s = check_sign_conditions(su2(), FlowState(0.0, 1.0, 0.0), Toda())
    assert not zero_s.passed


def test_modification_su2():
    traj = integrate(su2(), FlowState(0.0, 1.0, 0.2), Toda(), 1e-3, 1.0)
    rep = modification_report(su2(), traj, "krawtchouk")
    c_val = math.sqrt(invariant(su2(), FlowState(0.0, 1.0, 0.2)))
    assert rep.max_constancy_deviation < 1e-6
    assert rep.closed_form_max_error < 1e-6
    assert rep.K_empirical == pytest.approx(4.0 * c_val, abs=1e-5)
    assert rep.K_expected == pytest.approx(4.0 * c_val)


@pytest.mark.parametrize("family, alg, state, policy, dt, t_end", [
    ("krawtchouk", su2(0.5), FlowState(0.0, 1.0, 0.0), Toda(), 1e-3, 1.0),
    ("meixner", su11(0.5), FlowState(0.0, 1.0, 0.8), SignedScaled(-1, 1.0), 1e-4, 0.2),
    ("meixner_pollaczek", su11(0.5), FlowState(0.0, 2.0, 1.0),
     SignedScaled(-1, 1.0), 1e-4, 0.2),
])
def test_modification_with_central_shift(family, alg, state, policy, dt, t_end):
    """With c != 0 the closed forms read se = s + c, the variable the
    family regimes use, and C^2 = |I + c^2|."""
    traj = integrate(alg, state, policy, dt, t_end)
    rep = modification_report(alg, traj, family)
    assert rep.max_constancy_deviation < 1e-9
    assert rep.closed_form_max_error < 1e-9
    assert rep.K_empirical == pytest.approx(rep.K_expected, abs=1e-9)


def test_modification_laguerre_slope_not_asserted():
    """The equal-parameter stratum is preserved; the measured slope runs
    against the circulated derivation, so it is reported, not gated."""
    traj = integrate(su11(), FlowState(0.0, 1.3, 1.3), SignedScaled(-1, 1.0),
                     1e-4, 0.2)
    rep = modification_report(su11(), traj, "laguerre")
    assert np.abs(traj.r - traj.s).max() < 1e-10
    assert rep.max_constancy_deviation < 1e-6
    assert rep.K_expected is None
    assert rep.K_empirical == pytest.approx(-2.0, abs=1e-3)


@pytest.mark.parametrize("family, state", [
    ("meixner", FlowState(0.0, 1.0, 1.0)),            # the Laguerre boundary
    ("meixner", FlowState(0.0, 2.0, 1.0)),            # the hyperbolic axis
    ("meixner_pollaczek", FlowState(0.0, 1.0, 1.25)),
    ("laguerre", FlowState(0.0, 1.0, 1.25)),
])
def test_modification_rejects_state_outside_family_regime(family, state):
    traj = integrate(su11(), state, SignedScaled(-1, 1.0), 1e-3, 0.1)
    with pytest.raises(ParameterError):
        modification_report(su11(), traj, family)


def test_modification_rejects_degenerate_ratio():
    t = np.linspace(0.0, 1.0, 11)
    flat = Trajectory(t, np.ones_like(t), np.ones_like(t) * 2.0,
                      np.zeros_like(t), np.ones_like(t))
    with pytest.raises(DegenerateRatioError):
        modification_report(su2(), flat, "krawtchouk")


def test_modification_needs_three_samples():
    t = np.array([0.0, 1.0])
    short = Trajectory(t, np.ones(2), np.ones(2) * 0.5, np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        modification_report(su2(), short, "krawtchouk")


def test_trajectory_csv_roundtrip(tmp_path):
    traj = integrate(su2(), FlowState(0.0, 1.0, 0.2), Toda(), 0.01, 0.05)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,r,s,u,I"
    assert len(lines) == len(traj) + 1
    back = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.allclose(back[:, 1], traj.r, rtol=0, atol=0)


def reference_trajectory_csv(path, traj):
    """``write_trajectory_csv`` as it wrote one row at a time."""
    with open(path, "w", newline="") as fh:
        fh.write("t,r,s,u,I\n")
        for i in range(len(traj)):
            fh.write(",".join("%.17g" % v for v in
                              (traj.t[i], traj.r[i], traj.s[i], traj.u[i], traj.invariant[i])))
            fh.write("\n")


def test_trajectory_csv_matches_row_writer(tmp_path):
    edge = np.array([-0.0, 0.0, 1e-300, -2.5e17, 1.0 / 3.0])
    for traj in (integrate(su2(), FlowState(0.0, 1.0, 0.2), Toda(), 1e-3, 1.0, 7),
                 integrate(oscillator(1.0), FlowState(0.0, 4.0, 0.5),
                           SignedScaled(1, ((0.0, 0.5, 1.0), (0.7, 1.2, 0.9))),
                           1e-3, 1.0, 1),
                 Trajectory(edge, edge[::-1], edge * 3, edge + 1, edge / 7),
                 Trajectory(*[np.zeros(0)] * 5)):
        write_trajectory_csv(tmp_path / "new.csv", traj)
        reference_trajectory_csv(tmp_path / "ref.csv", traj)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _reference_u_and_invariant(alg, policy, traj):
    """u and I as ``integrate`` built them row by row: a policy call and a
    FlowState per row, at the numpy floats of the path."""
    u = np.array([policy(ti, ri) for ti, ri in zip(traj.t, traj.r)])
    inv = np.array([invariant(alg, FlowState(ti, ri, si))
                    for ti, ri, si in zip(traj.t, traj.r, traj.s)])
    return u, inv


# 1.851225506797236 ** 2 (libm's pow) is one ulp above
# 1.851225506797236 * 1.851225506797236 with glibc, and numpy computes an
# array's r ** 2 as r * r; ``integrate`` keeps Python's r ** 2, the
# arithmetic of ``invariant``, so I stays bitwise the same at such samples
POW_NOT_SQUARE = 1.851225506797236


@pytest.mark.parametrize("alg,state,policy,dt,t_end,record_every", [
    (su2(), FlowState(0.0, 1.0, 0.2), Toda(), 1e-3, 1.0, 10),
    (su2(), FlowState(0.0, 0.9, 0.15), SignedScaled(1, 0.8), 1e-3, 1.0, 1),
    (oscillator(1.0), FlowState(0.0, 4.0, 0.5),
     SignedScaled(1, ((0.0, 0.33, 0.67, 1.0), (0.7, 1.2, 0.9, 1.1))), 1e-3, 1.0, 7),
    (su11(), FlowState(0.0, 0.55, 0.7), SignedScaled(-1, 1.1), 1e-4, 0.2, 1),
    (su11(), FlowState(0.0, 0.55, 0.7), Toda(), 1e-4, 0.2, 10),
    (su2(), FlowState(0.0, POW_NOT_SQUARE, 0.3), Toda(), 1e-3, 0.0, 1),
])
def test_u_and_invariant_match_row_loop(alg, state, policy, dt, t_end, record_every):
    traj = integrate(alg, state, policy, dt, t_end, record_every)
    u, inv = _reference_u_and_invariant(alg, policy, traj)
    assert traj.u.tobytes() == u.tobytes()
    assert traj.invariant.tobytes() == inv.tobytes()
