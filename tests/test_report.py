"""The row builder and the guard shared by isoflow verify and the commands,
and the spectrum writer."""
import math
import warnings

import numpy as np
import pytest

from isoflow import (GROUPS, SU2, ChainState, ConfigurationError, FlowState,
                     ParameterError, build_L, chain_spectrum, check_result,
                     guarded, integrate, run_verify, spectral, spectrum_drift, su2,
                     write_spectrum_csv)
from isoflow.config import ConfigError
from isoflow.report import fmt


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


@pytest.mark.parametrize("compute, event", [
    (lambda: np.float64(1e300) * 1e300, "overflow"),
    (lambda: np.sqrt(np.array([-1.0])), "invalid value"),
    (lambda: np.float64(1.0) / 0.0, "divide by zero"),
    (lambda: np.exp(np.array([1e3])), "overflow"),
])
def test_guarded_floating_point_events_fail(compute, event):
    # an event numpy would warn about is one failed row with its reason,
    # whether numpy's own setting is to warn, ignore or raise, and the
    # setting is left as it was
    with np.errstate(all="ignore"):
        (row,) = guarded(lambda: [check_result("y", float(compute()), 1.0)], "x", 1e-9)
        assert np.geterr()["over"] == "ignore"
    assert (row.name, row.tolerance, row.passed) == ("x", 1e-9, False)
    assert math.isnan(row.value)
    assert row.note.startswith(f"FloatingPointError: {event} encountered in ")


def test_guarded_underflow_returns_rows():
    def tiny():
        value = float((np.array([1e-300]) * 1e-300)[0] + np.exp(np.array([-1e3]))[0])
        return [check_result("x", value, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (row,) = guarded(tiny, "x", 1.0)
    assert (row.value, row.passed) == (0.0, True)


@pytest.mark.parametrize("error", [ConfigError, ParameterError, ConfigurationError])
def test_guarded_passes_input_errors_through(error):
    # every command's input errors are ValueErrors, which the guard would
    # otherwise turn into a row; one raised after numpy work still propagates
    def compute():
        np.exp(np.array([-1e3]))
        raise error("bad input")
    with pytest.raises(error, match="bad input"):
        guarded(compute, "x", 1e-9, (ConfigError, ParameterError, ConfigurationError))


@pytest.mark.parametrize("seed", [1 + k * (2 ** 31 // 20) for k in range(20)])
def test_verify_groups_raise_no_floating_point_event(seed):
    # the guard fails a whole verify group on any overflow, invalid or
    # divide: at each of 20 suite seeds every group must still give all its
    # rows (81 in all, none a group's failure row) and nothing may warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = run_verify(seed=seed)
    assert len(rows) == 81
    assert not [row for row in rows if row.name in GROUPS]


def test_spectrum_drift():
    assert spectrum_drift([np.array([-1.0, 2.0])]) == 0.0
    assert spectrum_drift([np.array([-1.0, 2.0]), np.array([-1.5, 2.0]),
                           np.array([-1.0, 2.25])]) == 0.5
    assert math.isnan(spectrum_drift([np.array([1.0, 2.0]), np.array([1.0, math.nan])]))


def reference_spectrum_csv(path, times, spectra):
    """``write_spectrum_csv`` as it wrote one row at a time."""
    with open(path, "w", newline="") as fh:
        fh.write("t,index,lambda\n")
        for t, lam in zip(times, spectra):
            for idx, lv in enumerate(np.asarray(lam)):
                fh.write("%s,%d,%s\n" % (fmt(t), idx, fmt(lv)))


def test_spectrum_csv_matches_row_writer(tmp_path):
    traj = integrate(su2(), FlowState(0.0, 1.0, 0.2), 1.0, 1e-3, 1.0, 100)
    rank1 = [spectral.eigh_tridiagonal(L.diag, L.off, eigvals_only=True)
             for L in (build_L(SU2(6.0), su2(), r, s)
                       for r, s in zip(traj.r.tolist(), traj.s.tolist()))]
    chain = [chain_spectrum(ChainState(0.0, (0.3, -0.2, 0.4), (1.0, 0.8, 1.2)))]
    one_row = [spectral.eigh_tridiagonal(L.diag, L.off, eigvals_only=True)
               for L in (build_L(SU2(0.0), su2(0.5), r, s)
                         for r, s in zip(traj.r.tolist(), traj.s.tolist()))]
    edge = [np.array([-0.0, 0.0, 1e-300, -2.5e17, 1.0 / 3.0]), [], (1, 2),
            np.array([7.0, 8.0])]
    for times, spectra in ((traj.t, rank1), ([0.5], chain), (traj.t, one_row),
                           ([2.0], rank1[-1:]),
                           (np.array([0.1, 1e-20, -3.0, 4.0]), edge)):
        write_spectrum_csv(tmp_path / "new.csv", times, spectra)
        reference_spectrum_csv(tmp_path / "ref.csv", times, spectra)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
