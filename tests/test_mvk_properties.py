"""Property test: every table check of ``isoflow mvk`` passes at verify's
tolerances on random chain states, and the time-derivative law's
wrong-variant diagnostic stays visible."""
import pytest

from isoflow import TABLE_CHECKS, ChainState, mvk_table, mvk_time_derivative_check
from isoflow.verify import _MVK_TOL

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def _chain_and_degree(draw):
    d = draw(st.integers(1, 4))
    s = draw(st.lists(st.floats(-0.5, 0.5), min_size=d, max_size=d))
    r = draw(st.lists(st.floats(0.5, 1.5), min_size=d, max_size=d))
    return ChainState(0.0, tuple(s), tuple(r)), draw(st.integers(1, 4))


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(_chain_and_degree())
def test_table_checks_hold_on_random_chains(case):
    state, N = case
    table = mvk_table(state, N)
    for name, check in TABLE_CHECKS.items():
        assert check(table, state) <= _MVK_TOL[name], name
    rep = mvk_time_derivative_check(state, 1.0, N)
    # the wrong-variant diagnostic stays visible
    assert rep.variant_residual > 1e-2
