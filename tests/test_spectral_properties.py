"""Property tests of two ``isoflow run`` checks of the spectral layer.

``diagonalization``: the closed-form eigenvector solves every interior row
of L, at the 10 points of ``isoflow run``'s diagonalization check, within
the scaled tolerance 1e-11 (1 + |L|_inf), on the windows and initial states
that the benchmark's rank-1 sweep draws.  Tilted su2 windows with j >= 8
and wide Charlier windows are left out: there the closed-form components
are far from unit size and the absolute residual reaches rounding times that
size (the caveat of ``recurrence_residual``).

``isospectrality_drift``: along flows from random valid su2,
discrete-series, oscillator and e2 states, the drift of the compared
eigenvalues (mode ``all``, ``lowest`` or ``central``, as the benchmark asks
for each window) stays within its tolerance, and moving one sample off the
flow (r and s scaled by 1 + 1e-3) makes it fail by orders of magnitude.  On
e2 the central eigenvalues of L = c h + r (E + E*) are c times the integers
whatever r and s are, so there a moved sample cannot show and only the pass
is tested.
"""
import pytest

from isoflow import (FAMILIES, DiscreteSeriesPlus, E2, FamilyTag, FlowState,
                     Oscillator, SU2, Trajectory, build_L, e2, integrate,
                     isospectrality_drift, lax_entries, oscillator,
                     path_eigenvalues, recurrence_residual,
                     scaled_tolerance, su2, su11)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

F = FamilyTag


def _discrete_series(ratio):
    """The discrete-series window of k in [0.9, 1.1] with n_max 40, at
    r in [0.5, 0.6] and s = r * ratio."""
    def draw_case(draw):
        r = draw(st.floats(0.5, 0.6))
        return (DiscreteSeriesPlus(draw(st.floats(0.9, 1.1)), 40), su11(),
                r, r * draw(ratio))
    return draw_case


# family -> draw -> (representation, algebra, r, s)
CASES = {
    F.KRAWTCHOUK: lambda draw: (SU2(6.0), su2(), draw(st.floats(0.9, 1.1)),
                                draw(st.floats(0.1, 0.22))),
    F.MEIXNER: _discrete_series(st.floats(1.2, 1.3)),
    F.LAGUERRE: _discrete_series(st.just(1.0)),
    F.MEIXNER_POLLACZEK: _discrete_series(st.floats(0.4, 0.6)),
    F.CHARLIER: lambda draw: (Oscillator(0.5, 1.0, 40), oscillator(1.0),
                              draw(st.floats(3.8, 4.2)), draw(st.floats(0.4, 0.6))),
    F.HERMITE: lambda draw: (Oscillator(0.5, 2.0, 60), oscillator(0.0),
                             draw(st.floats(1.0, 1.2)), draw(st.floats(0.6, 0.8))),
    F.BESSEL: lambda draw: (E2(draw(st.floats(1.8, 2.2)), -40, 40), e2(1.0),
                            draw(st.floats(1.2, 1.4)), draw(st.floats(0.3, 0.5))),
}


@pytest.mark.parametrize("family", list(CASES), ids=lambda f: f.value)
@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(data=st.data())
def test_every_interior_row_holds_at_the_run_points(family, data):
    rep, alg, r, s = CASES[family](data.draw)
    L = build_L(rep, alg, r, s)
    worst = recurrence_residual(family, rep, alg, r, s, FAMILIES[family].points(10), L=L)
    assert worst <= scaled_tolerance(1e-11, L), (worst, scaled_tolerance(1e-11, L))


# window -> draw -> (representation, algebra, state, g, dt, t_end, mode, count,
# tolerance): the benchmark's windows, states and modes; su(1,1) heads for a
# blow-up under its sign, so it runs to t = 0.2 only
DRIFT_CASES = {
    "su2": lambda draw: (SU2(draw(st.sampled_from([2.5, 3.0, 6.0]))), su2(),
                         FlowState(0.0, draw(st.floats(0.5, 1.5)), draw(st.floats(0.05, 0.5))),
                         draw(st.floats(0.5, 1.5)), 1e-3, 1.0, "all", None, 1e-8),
    "discrete_series": lambda draw: (
        DiscreteSeriesPlus(draw(st.floats(0.9, 1.1)), 40), su11(),
        FlowState(0.0, r := draw(st.floats(0.5, 0.6)), r * draw(st.floats(1.2, 1.3))),
        -draw(st.floats(0.5, 1.5)), 1e-4, 0.2, "lowest", 3, 1e-6),
    "oscillator": lambda draw: (
        Oscillator(0.5, 1.0, 40), oscillator(1.0),
        FlowState(0.0, draw(st.floats(3.8, 4.2)), draw(st.floats(0.4, 0.6))),
        draw(st.floats(0.5, 1.5)), 1e-3, 1.0, "lowest", 5, 1e-6),
    "e2": lambda draw: (E2(draw(st.floats(1.8, 2.2)), -40, 40), e2(1.0),
                        FlowState(0.0, draw(st.floats(1.2, 1.4)), draw(st.floats(0.3, 0.5))),
                        draw(st.floats(0.5, 1.5)), 1e-3, 1.0, "central", 5, 1e-8),
}


@pytest.mark.parametrize("window", list(DRIFT_CASES))
@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(data=st.data())
def test_isospectrality_drift_holds_and_sees_a_moved_sample(window, data):
    rep, alg, state, g, dt, t_end, mode, count, tolerance = DRIFT_CASES[window](data.draw)
    traj = integrate(alg, state, g, dt, t_end, record_every=round(t_end / dt / 20))
    drift = isospectrality_drift(_spectra(traj, rep), rep, mode, count)
    assert drift <= tolerance, (drift, rep, state, g)
    if window == "e2":
        return
    k = data.draw(st.integers(1, len(traj) - 1))
    r, s = traj.r.copy(), traj.s.copy()
    r[k] *= 1.0 + 1e-3
    s[k] *= 1.0 + 1e-3
    moved = isospectrality_drift(
        _spectra(Trajectory(traj.alg, traj.g, traj.t, r, s), rep), rep, mode, count)
    assert moved >= 100.0 * tolerance, (moved, k, rep, state, g)


def _spectra(traj, rep):
    """The ``path_eigenvalues`` of L on ``rep`` at the samples of ``traj``."""
    return path_eigenvalues(*lax_entries(rep, traj.alg, traj.r[:, None], traj.s[:, None]))
