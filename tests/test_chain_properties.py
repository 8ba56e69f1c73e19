"""Property test: every check of ``isoflow chain`` passes at the README's
tolerances on random chain flows, and the quadratic-trace variant stays
visibly wrong."""
import json
import re
from pathlib import Path

import pytest

from isoflow import ChainState, integrate_chain
from isoflow.cli import _CHAIN, CHAIN_CHECKS, _computes, _results

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _readme_chain_checks() -> list[dict]:
    """The checks of the README's ``isoflow chain`` config."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```json\n(.*?)```", text, re.S):
        cfg = json.loads(block)
        if "chain" in cfg and "degree" not in cfg:
            return cfg["checks"]
    raise AssertionError("README has no chain config")


CHECKS = _readme_chain_checks()


def test_readme_config_names_every_chain_check():
    assert sorted(c["name"] for c in CHECKS) == sorted(CHAIN_CHECKS)


@st.composite
def _chain_and_coupling(draw):
    d = draw(st.integers(1, 6))
    s = draw(st.lists(st.floats(-0.5, 0.5), min_size=d, max_size=d))
    r = draw(st.lists(st.floats(0.5, 1.5), min_size=d, max_size=d))
    return ChainState(0.0, tuple(s), tuple(r)), draw(st.floats(0.5, 1.5))


@hypothesis.settings(max_examples=50, deadline=None)
@hypothesis.given(_chain_and_coupling())
def test_chain_checks_hold_on_random_flows(case):
    state, g = case
    traj = integrate_chain(state, g, 1e-3, 0.2, record_every=20)
    rows = _results(CHECKS, _computes(CHECKS, _CHAIN), state0=state, traj=traj)
    assert [row.name for row in rows] == [c["name"] for c in CHECKS]
    for row in rows:
        # tr2_variant_detected passes when the variant's gap exceeds 0.1
        assert row.passed, (row.name, row.value, row.tolerance)
