"""Property test: the closed-form eigenvector solves every interior row of L,
at the 10 points of ``isoflow run``'s diagonalization check, within the
scaled tolerance 1e-11 (1 + |L|_inf), on the windows and initial states
that the benchmark's rank-1 sweep draws.

Tilted su2 windows with j >= 8 and wide Charlier windows are left out: there
the closed-form components are far from unit size and the absolute residual
reaches rounding times that size (the caveat of ``recurrence_residual``)."""
import pytest

from isoflow import (FAMILIES, DiscreteSeriesPlus, E2, FamilyTag, Oscillator, SU2,
                     build_L, e2, oscillator, recurrence_residual,
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
