"""The row builder and the guard shared by isoflow verify and the commands."""
import math

import pytest

from isoflow import ConfigurationError, check_result, guarded


@pytest.mark.parametrize("direction,value,passed", [
    ("<=", 1.0, True), ("<=", 1.5, False),
    (">=", 1.0, True), (">=", 0.5, False),
    (">", 1.0, False), (">", 1.5, True),
])
def test_check_result_directions(direction, value, passed):
    row = check_result("x", value, 1.0, direction)
    assert row.passed is passed
    assert ("pass iff" in row.note) == (direction != "<=")


def test_nan_never_passes():
    assert not any(check_result("x", math.nan, 1.0, d).passed for d in ("<=", ">=", ">"))


def test_guarded_rows():
    ok = [check_result("x", 0.0, 1.0)]
    assert guarded(lambda: ok, "x", 1.0) is ok

    def boom():
        raise ConfigurationError("bad window")
    (row,) = guarded(boom, "x", 1e-9)
    assert (row.name, row.tolerance, row.passed) == ("x", 1e-9, False)
    assert math.isnan(row.value) and row.note == "ConfigurationError: bad window"
    with pytest.raises(ConfigurationError):
        guarded(boom, "x", 1e-9, (ConfigurationError,))
