"""Property tests of the rank-1 flow checks.

The ``modification`` run check, max(constancy deviation, closed-form error,
|K_empirical - K_expected|) of ``modification_report``, stays within the
README's tolerance 1e-5 for every family with a closed-form weight
modification, on random states of its regime and random couplings; and every
other family asked for at such a state is rejected with ParameterError.

The ``sign_conditions`` and ``invariant_drift`` checks pass on random
positive states of every algebra class under the coupling sign it requires,
constant or tabulated; with the sign flipped, the sign check fails on it.

Each example integrates 200-2,000 RK4 steps, so the example count is
small."""
import numpy as np
import pytest

from isoflow import (FamilyTag, FlowState, GammaTable, ParameterError,
                     check_modification, check_sign_conditions, e2, integrate,
                     modification_report, oscillator, su2, su11)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

F = FamilyTag
TOLERANCE = 1e-5


def _su11(ratio):
    """su(1,1) at r in [0.3, 1], s = r * ratio, g in [-1.5, -0.5] (the
    coupling sign su(1,1) requires), dt 1e-4 to t = 0.2."""
    def draw_case(draw):
        r = draw(st.floats(0.3, 1.0))
        return su11(), r, r * draw(ratio), draw(st.floats(-1.5, -0.5)), 1e-4, 0.2
    return draw_case


# family -> draw -> (algebra, r, s, g, dt, t_end)
CASES = {
    F.KRAWTCHOUK: lambda draw: (su2(draw(st.sampled_from([0.0, 0.3]))),
                                draw(st.floats(0.5, 1.5)), draw(st.floats(0.05, 0.5)),
                                draw(st.floats(0.5, 1.5)), 1e-3, 1.0),
    F.MEIXNER: _su11(st.floats(1.05, 2.0)),
    F.LAGUERRE: _su11(st.just(1.0)),
    F.MEIXNER_POLLACZEK: _su11(st.floats(0.1, 0.9)),
    F.CHARLIER: lambda draw: (oscillator(1.0), draw(st.floats(1.0, 5.0)),
                              draw(st.floats(0.1, 1.0)), draw(st.floats(0.5, 1.5)),
                              1e-3, 1.0),
    F.HERMITE: lambda draw: (oscillator(0.0), draw(st.floats(0.5, 2.0)),
                             draw(st.floats(0.1, 1.0)), draw(st.floats(0.5, 1.5)),
                             1e-3, 1.0),
}


def test_cases_cover_every_closed_form():
    """The families without a closed form are rejected, not left out."""
    for family in set(F) - set(CASES):
        with pytest.raises(ParameterError, match=repr(family.value)):
            check_modification(family, su11(), 0.8, 1.2)


@pytest.mark.parametrize("family", list(CASES), ids=lambda f: f.value)
@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(data=st.data())
def test_modification_check_holds_in_the_regime(family, data):
    alg, r, s, g, dt, t_end = CASES[family](data.draw)
    traj = integrate(alg, FlowState(0.0, r, s), g, dt, t_end)
    report = modification_report(traj, family)
    value = max(report.max_constancy_deviation, report.closed_form_max_error,
                abs(report.K_empirical - report.K_expected))
    assert value <= TOLERANCE, (value, alg, r, s, g)
    for other in set(F) - {family}:
        with pytest.raises(ParameterError):
            check_modification(other, alg, r, s)


# name -> (algebra, largest r0, horizon): su(1,1) under its required sign runs towards
# a blow-up, so its states and horizon are those of the modification cases
SIGN_CASES = {"su2": (su2(), 1.5, 1.0), "su11": (su11(), 1.0, 0.2),
              "oscillator": (oscillator(1.0), 1.5, 1.0), "e2": (e2(1.0), 1.5, 1.0)}


def _coupling(draw, sigma, t_end):
    """sigma * gamma: a constant gamma in [0.5, 1.5], or a table of such
    values whose kinks lie on the step grid (a kink inside a step would cost
    RK4 its order there)."""
    if draw(st.booleans()):
        return sigma * draw(st.floats(0.5, 1.5))
    values = draw(st.lists(st.floats(0.5, 1.5), min_size=5, max_size=5))
    return GammaTable(sigma, tuple(np.linspace(0.0, t_end, 5)), tuple(values))


@pytest.mark.parametrize("name", list(SIGN_CASES))
@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(data=st.data())
def test_sign_and_invariant_checks_hold_under_the_required_sign(name, data):
    alg, r_max, t_end = SIGN_CASES[name]
    state = FlowState(0.0, data.draw(st.floats(0.3, r_max)), data.draw(st.floats(0.05, 1.0)))
    sigma = alg.required_sign()
    traj = integrate(alg, state, _coupling(data.draw, sigma, t_end), 1e-3, t_end)
    report = check_sign_conditions(traj)
    assert report.passed and report.sigma_given == sigma, report
    assert traj.invariant_drift() <= 1e-10

    flipped = check_sign_conditions(
        integrate(alg, state, _coupling(data.draw, -sigma, t_end), 1e-3, t_end))
    assert not flipped.passed
    assert flipped.sigma_given == -flipped.sigma_required
