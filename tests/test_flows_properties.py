"""Property test: the ``modification`` run check, max(constancy deviation,
closed-form error) of ``modification_report``, stays within the README's
tolerance 1e-5 for every family with a closed-form weight modification, on
random states of its regime and random couplings; and every other family
asked for at such a state is rejected with ParameterError.

Each example integrates 1,000-2,000 RK4 steps, so the example count is
small."""
import pytest

from isoflow import (FamilyTag, FlowState, ParameterError, check_modification,
                     integrate, modification_report, oscillator, su2, su11)

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
    report = modification_report(alg, traj, family)
    value = max(report.max_constancy_deviation, report.closed_form_max_error)
    assert value <= TOLERANCE, (value, alg, r, s, g)
    for other in set(F) - {family}:
        with pytest.raises(ParameterError):
            check_modification(other, alg, r, s)
