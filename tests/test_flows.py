"""Coupled flow equations: conserved quantity, closed-form orbit, RK4 order,
sign diagnostics, and the weight-modification factor."""
import dataclasses
import gc
import math

import numpy as np
import pytest

from isoflow import (FAMILIES, ChainState, DegenerateRatioError, FamilyTag, FlowState,
                     GammaTable, IntegrationBlowupError, Trajectory,
                     check_sign_conditions, flow_rhs, g_at, integrate, integrate_chain,
                     invariant, modification_report, ParameterError,
                     oscillator, run_verify, su2, su11, write_trajectory_csv)
from isoflow.families import check_modification
from isoflow.flows import ModificationReport, _rank1_make, rk4_path


def test_flow_rhs_substitutions():
    # returns (sdot, rdot)
    assert flow_rhs(su11(), FlowState(0.0, 2.0, 3.0), -1.0) == (4.0, 6.0)
    assert flow_rhs(su2(), FlowState(0.0, 1.0, 0.0), 1.0) == (2.0, 0.0)


def test_invariant_values():
    assert invariant(su2(), FlowState(0.0, 3.0, 4.0)) == 25.0
    assert invariant(oscillator(1.0), FlowState(0.0, 2.0, 3.0)) == 10.0
    assert invariant(su11(), FlowState(0.0, 1.3, 1.3)) == 0.0


def test_couplings():
    assert g_at(1.0, 0.3) * 0.7 == 0.7
    assert g_at(-2.0, 0.0) * 0.7 == -1.4
    assert g_at(lambda t: 3.0 * t, 0.5) == 1.5
    tabulated = GammaTable(1, (0.0, 1.0), (1.0, 3.0))
    assert g_at(tabulated, 0.5) == pytest.approx(2.0)
    assert GammaTable(-1, (0.0, 1.0), (1.0, 3.0))(0.5) == pytest.approx(-2.0)


def test_gamma_table_validation():
    for sigma in (0, 2, -2):
        with pytest.raises(ValueError, match="sigma must be"):
            GammaTable(sigma, (0.0, 1.0), (1.0, 2.0))
    for ts, vals in (((0.0,), (1.0,)), ((0.0, 1.0), (1.0, 2.0, 3.0))):
        with pytest.raises(ValueError, match="matching t/value samples"):
            GammaTable(1, ts, vals)
    for vals in ((1.0, -2.0), (0.0, 1.0)):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            GammaTable(1, (0.0, 1.0), vals)


def test_unsorted_gamma_table_rejected():
    # np.interp would silently return 3.0 at t = 0.75 (the sorted table gives 2.5)
    with pytest.raises(ValueError, match="increasing"):
        GammaTable(1, (0.0, 1.0, 0.5), (1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match="increasing"):
        GammaTable(1, (0.0, 0.5, 0.5), (1.0, 2.0, 3.0))
    assert GammaTable(1, (0.0, 0.5, 1.0), (1.0, 3.0, 2.0))(0.75) == 2.5


def test_gamma_table_rejects_non_finite_samples():
    # NaN passes both the ordering and the positivity comparisons
    for table in (((0.0, math.nan, 1.0), (1.0, 2.0, 3.0)),
                  ((0.0, 0.5, math.inf), (1.0, 2.0, 3.0)),
                  ((0.0, 0.5, 1.0), (1.0, math.nan, 3.0)),
                  ((0.0, 0.5, 1.0), (1.0, math.inf, 3.0))):
        with pytest.raises(ValueError, match="finite"):
            GammaTable(1, *table)


def test_equal_gamma_tables_hash_equal():
    a = GammaTable(1, (0.0, 0.5, 1.0), (1.0, 3.0, 2.0))
    b = GammaTable(1, [0, 0.5, 1], [1, 3, 2.0])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != GammaTable(-1, (0.0, 0.5, 1.0), (1.0, 3.0, 2.0))
    assert a != GammaTable(1, (0.0, 0.5, 1.0), (1.0, 3.0, 2.5))


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
        for sigma in (1, -1):
            g = GammaTable(sigma, ts, vals)
            for dt in (1e-3, 1e-4, 2.0 ** -8):
                points = _interp_points(np.array(ts, dtype=float), dt, rng).tolist()
                got = np.array([g(t) for t in points])
                want = sigma * np.interp(points, ts, vals)
                assert got.tobytes() == want.tobytes()


def test_su2_closed_form_orbit():
    """From (r, s) = (1, 0) the Toda flow follows sech/tanh exactly."""
    traj = integrate(su2(), FlowState(0.0, 1.0, 0.0), 1.0, 1e-3, 2.0,
                     record_every=50)
    err_r = np.abs(traj.r - 1.0 / np.cosh(2.0 * traj.t)).max()
    err_s = np.abs(traj.s - np.tanh(2.0 * traj.t)).max()
    assert max(err_r, err_s) < 1e-9


def test_rk4_step_halving_is_fourth_order():
    def end_error(dt):
        traj = integrate(su2(), FlowState(0.0, 1.0, 0.0), 1.0, dt, 1.0,
                         record_every=10 ** 9)
        return abs(traj.s[-1] - math.tanh(2.0))

    ratio = end_error(2e-3) / end_error(1e-3)
    assert ratio > 12.0


def test_invariant_drift_all_classes():
    cases = [
        (su2(), FlowState(0.0, 1.0, 0.0), 1.0),
        (su11(), FlowState(0.0, 1.0, 1.25), 1.0),
        (oscillator(1.0), FlowState(0.0, 2.0, 3.0), 1.0),
    ]
    for alg, st, g in cases:
        traj = integrate(alg, st, g, 1e-3, 2.0, record_every=100)
        drift = np.abs(traj.invariant - traj.invariant[0]).max()
        assert drift <= 1e-10 * max(1.0, abs(traj.invariant[0])), alg.clas
        # the max taken before the division, as the checks computed it before
        # the shared relative rule
        assert traj.invariant_drift() == drift / max(1.0, abs(traj.invariant[0]))


def test_recording_grid():
    traj = integrate(su2(), FlowState(0.0, 1.0, 0.5), 1.0, 0.01, 0.1,
                     record_every=4)
    assert traj.t[0] == 0.0 and traj.t[-1] == pytest.approx(0.1)
    # steps 4, 8 recorded plus the forced final sample
    assert len(traj) == 4
    single = integrate(su2(), FlowState(0.0, 1.0, 0.5), 1.0, 0.01, 0.0)
    assert len(single) == 1


def test_dt_must_divide_horizon():
    with pytest.raises(ValueError, match="dt = 0.3 .*t_end - t0 = 1.0"):
        integrate(su2(), FlowState(0.0, 1.0, 0.5), 1.0, 0.3, 1.0)
    with pytest.raises(ValueError, match="t_end - t0"):
        integrate(su2(), FlowState(0.5, 1.0, 0.5), 1.0, 0.3, 0.7)
    # whole step counts within rounding are accepted
    assert len(integrate(su2(), FlowState(0.0, 1.0, 0.5), 1.0, 0.1, 0.3)) == 4
    assert len(integrate(su2(), FlowState(0.2, 1.0, 0.5), 1.0, 0.1, 0.2)) == 1


@pytest.mark.parametrize("dt", [0.0, -0.1, math.nan])
def test_dt_must_be_positive_on_both_flows(dt):
    """A NaN step, which no ``dt <= 0`` test catches, is rejected by name
    as a step that is not positive, not by the step count it would give."""
    with pytest.raises(ValueError, match=r"dt = .* must be positive"):
        integrate(su2(), FlowState(0.0, 1.0, 0.5), 1.0, dt, 1.0)
    with pytest.raises(ValueError, match=r"dt = .* must be positive"):
        integrate_chain(ChainState(0.0, (0.3, -0.2), (1.0, 0.8)), 1.0, dt, 1.0)


@pytest.mark.parametrize("dt, t0, t_end", [(1e-320, 0.0, 1.0), (1e-300, -1e300, 1e300),
                                         (1.0, -1e308, 1e308)])
def test_step_count_must_be_finite_on_both_flows(dt, t0, t_end):
    """A step count (t_end - t0) / dt that overflows is rejected by name,
    not left to int() to raise OverflowError."""
    match = rf"dt = {dt!r} gives no finite step count over t_end - t0 = "
    with pytest.raises(ValueError, match=match):
        integrate(su2(), FlowState(t0, 1.0, 0.5), 1.0, dt, t_end)
    with pytest.raises(ValueError, match=match):
        integrate_chain(ChainState(t0, (0.3, -0.2), (1.0, 0.8)), 1.0, dt, t_end)


def test_step_count_is_at_most_two_to_the_53():
    """Up to 2**53 steps every index i is a float exactly; past it t0 + i dt
    would repeat grid times.  A stub path records the step count it is
    given, so no path runs that long.  2**53 + 1 is no float, so the least
    count past the bound that a quotient (t_end - t0) / dt gives is
    2**53 + 2."""
    calls = []

    def path(t0, y0, dt, n_steps, record_every):
        calls.append(n_steps)
        return [t0], list(y0), None

    rk4_path(path, 0.0, [1.0], 1.0, 2.0 ** 53, 1)
    assert calls == [2 ** 53]
    over = math.nextafter(2.0 ** 53, math.inf)
    assert over == 2 ** 53 + 2
    for dt, t_end in ((1.0, over), (1e-300, 1.0)):
        with pytest.raises(ValueError, match=rf"dt = {dt!r} divides t_end - t0 = "
                                             rf"{t_end!r} into .* more than 2\*\*53"):
            rk4_path(path, 0.0, [1.0], dt, t_end, 1)
    assert calls == [2 ** 53]


def test_blowup_carries_last_state():
    with pytest.raises(IntegrationBlowupError) as info:
        integrate(su11(), FlowState(0.0, 1.0, 1.25), -1.0,
                  1e-3, 5.0)
    last = info.value.last_state
    assert np.isfinite(last.r) and np.isfinite(last.s)
    assert 0.0 < last.t < 5.0


@pytest.mark.parametrize("record_every", [1, 20_000])
def test_rk4_path_keeps_no_container_per_sample(record_every):
    """The state stays in local floats and the recorded samples are kept as
    plain floats: the young generation of the cyclic garbage collector stays
    small along a long path, recorded at every step or only at its end,
    where a container made per step or kept per sample would add one
    tracked object per step."""
    peak = 0

    def probe(t):  # the coupling, sampled three times a step
        nonlocal peak
        peak = max(peak, gc.get_count()[0])
        return 1.0

    # a = c = 0, 2 epsilon = 1 and r = 1: rdot = 0 and sdot = 1, so each step
    # adds 1 to s
    path = _rank1_make()(probe, 0.0, 0.0, 1.0)
    gc.collect()
    gc.disable()
    try:
        t, y = rk4_path(path, 0.0, [1.0, 0.0], 1.0, 20_000.0, record_every)
    finally:
        gc.enable()
    assert y.shape == (20_000 // record_every + 1, 2)
    assert t[-1] == 20_000.0 and y[-1].tolist() == [1.0, 20_000.0]
    assert peak < 100


def _sign_conditions(alg, state, g, t_end=1.0):
    """``check_sign_conditions`` of the flow integrated at every step."""
    return check_sign_conditions(integrate(alg, state, g, 1e-3, t_end))


def test_sign_conditions():
    ok = _sign_conditions(su2(), FlowState(0.0, 1.0, 0.5), 1.0)
    assert ok.passed and ok.min_r > 0 and ok.min_s > 0
    assert ok.sigma_required == 1 and ok.sigma_given == 1

    wrong_sigma = _sign_conditions(su11(), FlowState(0.0, 1.0, 1.25), 1.0, t_end=0.2)
    assert not wrong_sigma.passed
    assert wrong_sigma.sigma_required == -1 and wrong_sigma.sigma_given == 1

    # sigma_given is the sign of g at the initial time
    for g in (-0.5, GammaTable(-1, (0.0, 1.0), (1.0, 2.0)), lambda t: t - 1.0):
        right = _sign_conditions(su11(), FlowState(0.0, 1.0, 1.25), g, t_end=0.2)
        assert right.passed and right.sigma_given == -1
    zero_g = _sign_conditions(su2(), FlowState(0.0, 1.0, 0.5), 0.0)
    assert not zero_g.passed and zero_g.sigma_given == 0

    bad_start = _sign_conditions(su2(), FlowState(0.0, -1.0, 0.5), 1.0)
    assert not bad_start.passed and not bad_start.initial_ok

    zero_s = _sign_conditions(su2(), FlowState(0.0, 1.0, 0.0), 1.0)
    assert not zero_s.passed


def test_sign_conditions_of_one_sample():
    """A flow integrated to t_end = t0 is its initial sample, and the check
    reads that sample: no step is taken past the horizon."""
    traj = integrate(su2(), FlowState(0.0, 1.0, 0.2), 1.0, 1e-3, 0.0)
    report = check_sign_conditions(traj)
    assert len(traj) == 1 and report.passed
    assert (report.min_r, report.min_s) == (1.0, 0.2)


def test_modification_su2():
    traj = integrate(su2(), FlowState(0.0, 1.0, 0.2), 1.0, 1e-3, 1.0)
    rep = modification_report(traj, "krawtchouk")
    c_val = math.sqrt(invariant(su2(), FlowState(0.0, 1.0, 0.2)))
    assert rep.max_constancy_deviation < 1e-6
    assert rep.closed_form_max_error < 1e-6
    assert rep.K_empirical == pytest.approx(4.0 * c_val, abs=1e-5)
    assert rep.K_expected == pytest.approx(4.0 * c_val)


@pytest.mark.parametrize("family, alg, state, g, dt, t_end", [
    ("krawtchouk", su2(0.5), FlowState(0.0, 1.0, 0.0), 1.0, 1e-3, 1.0),
    ("meixner", su11(0.5), FlowState(0.0, 1.0, 0.8), -1.0, 1e-4, 0.2),
    ("meixner_pollaczek", su11(0.5), FlowState(0.0, 2.0, 1.0),
     -1.0, 1e-4, 0.2),
])
def test_modification_with_central_shift(family, alg, state, g, dt, t_end):
    """With c != 0 the closed forms read se = s + c, the variable the
    family regimes use, and C^2 = |I + c^2|."""
    traj = integrate(alg, state, g, dt, t_end)
    rep = modification_report(traj, family)
    assert rep.max_constancy_deviation < 1e-9
    assert rep.closed_form_max_error < 1e-9
    assert rep.K_empirical == pytest.approx(rep.K_expected, abs=1e-9)


def test_modification_laguerre_slope_is_minus_two():
    """The equal-parameter stratum is preserved, and along it the weight
    x^alpha e^(-x/r) modifies at the predicted rate K = -2 se / r = -2."""
    traj = integrate(su11(), FlowState(0.0, 1.3, 1.3), -1.0,
                     1e-4, 0.2)
    rep = modification_report(traj, "laguerre")
    assert np.abs(traj.r - traj.s).max() < 1e-10
    assert rep.max_constancy_deviation < 1e-6
    assert rep.K_expected == -2
    assert rep.K_empirical == pytest.approx(-2.0, abs=1e-9)


@pytest.mark.parametrize("kappa", [2.0, 0.5])
@pytest.mark.parametrize("family", ["krawtchouk", "meixner", "laguerre",
                                    "meixner_pollaczek", "charlier", "hermite"])
def test_rate_row_fails_under_a_power_of_the_closed_form(monkeypatch, family, kappa):
    """Negative control of verify's rate rows: with F -> F^kappa the rate
    is kappa K, so modification_rate_<family> fails by at least 100x its
    gate.  The family's constancy and closed-form rows still pass (a power
    of the right F keeps a constant rate, and the closed form is compared
    at the measured rate), and so does every other row: the rate row is
    the one that sees this fault."""
    tag = FamilyTag(family)
    F, K = FAMILIES[tag].modification
    monkeypatch.setitem(FAMILIES, tag, FAMILIES[tag]._replace(
        modification=(lambda r, s, se, C: F(r, s, se, C) ** kappa, K)))
    rows = {row.name: row for row in run_verify(only="modification")}
    rate = rows.pop(f"modification_rate_{family}")
    assert not rate.passed and rate.value >= 100 * rate.tolerance, rate
    assert len(rows) == 17 and all(row.passed for row in rows.values())


@pytest.mark.parametrize("family, state", [
    ("meixner", FlowState(0.0, 1.0, 1.0)),            # the Laguerre boundary
    ("meixner", FlowState(0.0, 2.0, 1.0)),            # the hyperbolic axis
    ("meixner_pollaczek", FlowState(0.0, 1.0, 1.25)),
    ("laguerre", FlowState(0.0, 1.0, 1.25)),
])
def test_modification_rejects_state_outside_family_regime(family, state):
    traj = integrate(su11(), state, -1.0, 1e-3, 0.1)
    with pytest.raises(ParameterError):
        modification_report(traj, family)


def test_modification_rejects_degenerate_ratio():
    t = np.linspace(0.0, 1.0, 11)
    # g = 0: u = g r vanishes at every sample
    flat = Trajectory(su2(), 0.0, t, np.ones_like(t), np.ones_like(t) * 2.0)
    assert not flat.u.any()
    with pytest.raises(DegenerateRatioError):
        modification_report(flat, "krawtchouk")


def test_modification_needs_three_samples():
    t = np.array([0.0, 1.0])
    short = Trajectory(su2(), 1.0, t, np.ones(2), np.ones(2) * 0.5)
    with pytest.raises(ValueError):
        modification_report(short, "krawtchouk")


def reference_modification_report(traj, family):
    """``modification_report`` as it stood with F evaluated over the
    trajectory's numpy scalars, with alg.a and alg.c_param read per sample."""
    alg = traj.alg
    f, k_expected = check_modification(family, alg, float(traj.r[0]), float(traj.s[0]))
    i0 = invariant(alg, traj.state(0)) + alg.a * alg.c_param ** 2
    C = math.sqrt(abs(i0)) if abs(i0) > 0 else 0.0
    ln_m = np.array([math.log(f(r, s, alg.a * s + alg.c_param, C))
                     for r, s in zip(traj.r, traj.s)])
    h = float(np.diff(traj.t)[0])
    dln = (ln_m[2:] - ln_m[:-2]) / (2.0 * h)
    g = traj.r[1:-1] * dln / traj.u[1:-1]
    k_emp = float(g.mean())
    max_dev = float(np.abs(g - k_emp).max())
    ratio = traj.u / traj.r
    primitive = np.concatenate(([0.0], np.cumsum((ratio[1:] + ratio[:-1]) / 2.0 * np.diff(traj.t))))
    cf_err = float(np.abs(np.exp(ln_m - ln_m[0]) / np.exp(k_emp * primitive) - 1.0).max())
    return ModificationReport(k_emp, max_dev, cf_err, k_expected(alg, float(traj.r[0]), C))


# the (family, algebra, r, s, g, dt, t_end) of verify's modification group
VERIFY_MODIFICATION_RUNS = [
    ("krawtchouk", su2(), 1.0, 0.0, 1.0, 1e-3, 1.0),
    ("meixner", su11(), 1.0, 1.25, -1.0, 1e-4, 0.2),
    ("laguerre", su11(), 1.3, 1.3, -1.0, 1e-4, 0.2),
    ("meixner_pollaczek", su11(), 2.0, 1.0, -1.0, 1e-4, 0.2),
    ("charlier", oscillator(1.0), 2.0, 3.0, 1.0, 1e-3, 1.0),
    ("hermite", oscillator(0.0), 1.1, 0.7, 1.0, 1e-3, 1.0),
]


@pytest.mark.parametrize("family, alg, r, s, g, dt, t_end", VERIFY_MODIFICATION_RUNS,
                         ids=[run[0] for run in VERIFY_MODIFICATION_RUNS])
def test_modification_report_matches_numpy_scalar_loop_bitwise(family, alg, r, s, g, dt,
                                                               t_end):
    traj = integrate(alg, FlowState(0.0, r, s), g, dt, t_end)
    got = dataclasses.astuple(modification_report(traj, family))
    want = dataclasses.astuple(reference_modification_report(traj, family))
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_trajectory_csv_roundtrip(tmp_path):
    traj = integrate(su2(), FlowState(0.0, 1.0, 0.2), 1.0, 0.01, 0.05)
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
    for traj in (integrate(su2(), FlowState(0.0, 1.0, 0.2), 1.0, 1e-3, 1.0, 7),
                 integrate(oscillator(1.0), FlowState(0.0, 4.0, 0.5),
                           GammaTable(1, (0.0, 0.5, 1.0), (0.7, 1.2, 0.9)),
                           1e-3, 1.0, 1),
                 # g = -1 carries the signed zeros into u = -r
                 Trajectory(su2(), -1.0, edge, edge[::-1], edge * 3),
                 Trajectory(su2(), 1.0, *[np.zeros(0)] * 3)):
        write_trajectory_csv(tmp_path / "new.csv", traj)
        reference_trajectory_csv(tmp_path / "ref.csv", traj)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _reference_u_and_invariant(alg, g, traj):
    """u and I as ``integrate`` built them row by row: u = g(t) r with a
    table's g(t) as sigma * np.interp, and a FlowState per row, at the
    numpy floats of the path."""
    def g_ref(t):
        if isinstance(g, GammaTable):
            return g.sigma * float(np.interp(t, g.ts, g.values))
        return g
    u = np.array([g_ref(ti) * ri for ti, ri in zip(traj.t, traj.r)])
    inv = np.array([invariant(alg, FlowState(ti, ri, si))
                    for ti, ri, si in zip(traj.t, traj.r, traj.s)])
    return u, inv


# 1.851225506797236 ** 2 (libm's pow) is one ulp above
# 1.851225506797236 * 1.851225506797236 with glibc, and numpy computes an
# array's r ** 2 as r * r; ``integrate`` keeps Python's r ** 2, the
# arithmetic of ``invariant``, so I stays bitwise the same at such samples
POW_NOT_SQUARE = 1.851225506797236


@pytest.mark.parametrize("alg,state,g,dt,t_end,record_every", [
    (su2(), FlowState(0.0, 1.0, 0.2), 1.0, 1e-3, 1.0, 10),
    (su2(), FlowState(0.0, 0.9, 0.15), 0.8, 1e-3, 1.0, 1),
    (oscillator(1.0), FlowState(0.0, 4.0, 0.5),
     GammaTable(1, (0.0, 0.33, 0.67, 1.0), (0.7, 1.2, 0.9, 1.1)), 1e-3, 1.0, 7),
    (su11(), FlowState(0.0, 0.55, 0.7), -1.1, 1e-4, 0.2, 1),
    (su11(), FlowState(0.0, 0.55, 0.7), 1.0, 1e-4, 0.2, 10),
    (su2(), FlowState(0.0, POW_NOT_SQUARE, 0.3), 1.0, 1e-3, 0.0, 1),
])
def test_u_and_invariant_match_row_loop(alg, state, g, dt, t_end, record_every):
    traj = integrate(alg, state, g, dt, t_end, record_every)
    u, inv = _reference_u_and_invariant(alg, g, traj)
    assert traj.u.tobytes() == u.tobytes()
    assert traj.invariant.tobytes() == inv.tobytes()
