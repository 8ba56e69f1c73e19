"""Command-line entry points: config validation, report rows, CSV formats,
exit codes, and determinism of the verification suite."""
import dataclasses
import filecmp
import gc
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from isoflow import (E2, FAMILIES, SU2, ChainState, DiscreteSeriesPlus, FamilyTag,
                     GammaTable, Oscillator, PrincipalSeries, build_L, chain_spectrum,
                     check_result, compared_eigenvalues, config as cfgmod, eigs_sym_tridiag,
                     scaled_tolerance)
from isoflow.cli import _finish, main
from isoflow.verify import GROUPS, run_verify

SRC = Path(__file__).resolve().parents[1] / "src"

RUN_CFG = {
    "algebra": {"class": "su2"},
    "representation": {"type": "su2", "j": 6},
    "flow": {"r0": 1.0, "s0": 0.2, "dt": 0.001, "t_end": 1.0,
             "record_every": 100, "policy": {"type": "toda"}},
    "checks": [
        {"name": "lax_residual", "tolerance": 1e-12},
        {"name": "invariant_drift", "tolerance": 1e-10},
        {"name": "sign_conditions", "tolerance": 0.5},
        {"name": "isospectrality_drift", "tolerance": 1e-8},
        {"name": "modification", "tolerance": 1e-5, "family": "krawtchouk"},
        {"name": "diagonalization", "tolerance": 1e-11,
         "family": "krawtchouk", "points": 10},
    ],
}

CHAIN_CFG = {
    "chain": {"s": [0.3, -0.2, 0.4], "r": [1.0, 0.8, 1.2], "g": 1.0,
              "dt": 0.001, "t_end": 1.0, "record_every": 100},
    "checks": [
        {"name": "spectrum_sum", "tolerance": 1e-12},
        {"name": "orthogonality", "tolerance": 1e-12},
        {"name": "trace_closed_vs_dense", "tolerance": 1e-10},
        {"name": "trace_flow_drift", "tolerance": 1e-9},
        {"name": "tr2_variant_detected", "tolerance": 0.1},
        {"name": "isospectrality_drift", "tolerance": 1e-8},
    ],
}

MVK_CFG = {
    "chain": {"s": [0.3, -0.2], "r": [1.0, 0.8]},
    "degree": 2,
    "checks": [
        {"name": "base_entry", "tolerance": 1e-15},
        {"name": "orthogonality", "tolerance": 1e-9},
        {"name": "dual_orthogonality", "tolerance": 1e-9},
        {"name": "recurrence", "tolerance": 1e-9},
        {"name": "degree_one_match", "tolerance": 1e-12},
    ],
}


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _with_out(cfg, tmp_path, sub="out"):
    out = dict(cfg)
    out["output"] = {"dir": str(tmp_path / sub)}
    return out


def _csv_files(tmp_path, sub="out"):
    """The CSV files a command left in its output directory."""
    return sorted(path.name for path in (tmp_path / sub).glob("*.csv"))


def _report_rows(tmp_path, sub="out"):
    lines = (tmp_path / sub / "report.csv").read_text().strip().split("\n")
    assert lines[0] == "check,value,tolerance,pass"
    rows = {}
    for line in lines[1:]:
        name, value, tol, ok = line.split(",")
        rows[name] = (float(value), float(tol), ok)
    return rows


def test_run_demo(tmp_path, capsys):
    code = main(["run", _write(tmp_path, _with_out(RUN_CFG, tmp_path))])
    assert code == 0
    rows = _report_rows(tmp_path)
    assert set(rows) == {c["name"] for c in RUN_CFG["checks"]}
    assert all(ok == "true" for _, _, ok in rows.values())
    assert rows["lax_residual"][0] <= 1e-12

    out = capsys.readouterr().out
    assert out.count("PASS") == 6
    assert "FAIL" not in out

    traj = (tmp_path / "out" / "trajectory.csv").read_text().strip().split("\n")
    assert traj[0] == "t,r,s,u,I"
    assert len(traj) == 1 + 11  # 1000 steps recorded every 100, plus t=0
    spec = (tmp_path / "out" / "spectrum.csv").read_text().strip().split("\n")
    assert spec[0] == "t,index,lambda"
    assert len(spec) == 1 + 11 * 13  # 13 lattice points per sample


def test_run_failing_sign_policy(tmp_path, capsys):
    cfg = {
        "algebra": {"class": "su11"},
        "representation": {"type": "discrete_series", "k": 1.0, "n_max": 40},
        "flow": {"r0": 1.0, "s0": 1.25, "dt": 0.001, "t_end": 0.5,
                 "policy": {"type": "signed_scaled", "sigma": 1}},
        "checks": [{"name": "sign_conditions", "tolerance": 0.5}],
    }
    code = main(["run", _write(tmp_path, _with_out(cfg, tmp_path))])
    assert code == 1
    rows = _report_rows(tmp_path)
    assert rows["sign_conditions"][2] == "false"
    assert "FAIL" in capsys.readouterr().out


def test_chain_demo(tmp_path, capsys):
    code = main(["chain", _write(tmp_path, _with_out(CHAIN_CFG, tmp_path))])
    assert code == 0
    rows = _report_rows(tmp_path)
    assert set(rows) == {c["name"] for c in CHAIN_CFG["checks"]}
    assert all(ok == "true" for _, _, ok in rows.values())
    # the unit-coefficient quadratic variant must be *detected*, so its
    # reported value is the (large) discrepancy, not a small residual
    assert rows["tr2_variant_detected"][0] > 0.1

    lines = (tmp_path / "out" / "chain_trajectory.csv").read_text().strip().split("\n")
    assert lines[0] == "t,s_1,s_2,s_3,r_1,r_2,r_3"
    assert len(lines) == 1 + 11


def test_chain_blowup_is_a_failed_check(tmp_path, capsys):
    cfg = {"chain": {"s": [0.3, -0.2, 0.4], "r": [1.0, 0.8, 1.2], "g": 60.0,
                     "dt": 0.05, "t_end": 2.0, "record_every": 1},
           "checks": [{"name": "spectrum_sum", "tolerance": 1e-12}]}
    code = main(["chain", _write(tmp_path, _with_out(cfg, tmp_path))])
    assert code == 1
    assert _report_rows(tmp_path) == {"integration": (float("inf"), 0.0, "false")}
    assert not (tmp_path / "out" / "chain_trajectory.csv").exists()
    assert "FAIL  integration" in capsys.readouterr().out


@pytest.mark.parametrize("command, cfg, block", [("run", RUN_CFG, "flow"),
                                                 ("chain", CHAIN_CFG, "chain")])
def test_non_dividing_dt_exits_2(tmp_path, capsys, command, cfg, block):
    cfg = json.loads(json.dumps(_with_out(cfg, tmp_path)))
    cfg[block].update({"dt": 0.3, "t_end": 1.0})
    assert main([command, _write(tmp_path, cfg)]) == 2
    assert "does not divide" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, block", [("run", RUN_CFG, "flow"),
                                                 ("chain", CHAIN_CFG, "chain")])
def test_overflowing_step_count_exits_2(tmp_path, capsys, command, cfg, block):
    cfg = json.loads(json.dumps(_with_out(cfg, tmp_path)))
    cfg[block].update({"dt": 1e-320, "t_end": 1})
    assert main([command, _write(tmp_path, cfg)]) == 2
    assert "dt = 1e-320 gives no finite step count" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, cfg, block", [("run", RUN_CFG, "flow"),
                                                 ("chain", CHAIN_CFG, "chain")])
def test_step_count_past_two_to_the_53_exits_2(tmp_path, command, cfg, block):
    """1 / 1e-300 steps is a finite count that divides the horizon, but one
    no path would finish: the command exits 2 at once, in a process of its
    own under a timeout, and writes no CSV."""
    cfg = json.loads(json.dumps(_with_out(cfg, tmp_path)))
    cfg[block].update({"dt": 1e-300, "t_end": 1})
    proc = subprocess.run([sys.executable, "-m", "isoflow.cli", command, _write(tmp_path, cfg)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 2
    assert "dt = 1e-300 divides t_end - t0 = 1.0 into" in proc.stderr
    assert list(tmp_path.glob("out/**/*.csv")) == []


@pytest.mark.parametrize("command, cfg, block", [("run", RUN_CFG, "flow"),
                                                 ("chain", CHAIN_CFG, "chain")])
def test_infinite_t_end_exits_2(tmp_path, capsys, command, cfg, block):
    cfg = json.loads(json.dumps(_with_out(cfg, tmp_path)))
    cfg[block]["t_end"] = math.inf  # json writes Infinity, which json reads back
    assert main([command, _write(tmp_path, cfg)]) == 2
    assert "must be finite" in capsys.readouterr().err


SU11_DISCRETE = {"algebra": {"class": "su11"},
                 "representation": {"type": "discrete_series", "k": 1.0, "n_max": 20},
                 "flow": {"r0": 1.0, "s0": 1.25, "dt": 1e-3, "t_end": 0.1,
                          "policy": {"type": "toda"}},
                 "checks": [{"name": "isospectrality_drift", "tolerance": 1e-3,
                             "mode": "lowest", "count": 3}]}
SU11_PRINCIPAL = dict(SU11_DISCRETE, representation={
    "type": "principal_series", "rho": 0.7, "eps": 0.25, "n_min": -10, "n_max": 10},
    checks=[{"name": "isospectrality_drift", "tolerance": 1e-3,
             "mode": "central", "count": 3}])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10 ** 400],
                         ids=["nan", "inf", "-inf", "int_past_float_range"])
@pytest.mark.parametrize("command, cfg, block, key", [
    ("run", RUN_CFG, "flow", "r0"), ("run", RUN_CFG, "flow", "s0"),
    ("run", RUN_CFG, "flow", "dt"), ("run", RUN_CFG, "flow", "t_end"),
    ("run", RUN_CFG, "representation", "j"),
    ("run", SU11_DISCRETE, "representation", "k"),
    ("run", SU11_PRINCIPAL, "representation", "rho"),
    ("chain", CHAIN_CFG, "chain", "g"),
    ("chain", CHAIN_CFG, "chain", ("s", 1)), ("chain", CHAIN_CFG, "chain", ("r", 2)),
    ("mvk", MVK_CFG, "chain", ("r", 0)),
])
def test_non_finite_numbers_exit_2_before_writing(tmp_path, capsys, command, cfg,
                                                  block, key, bad):
    cfg = json.loads(json.dumps(_with_out(cfg, tmp_path)))
    if isinstance(key, tuple):
        cfg[block][key[0]][key[1]] = bad
        field = f"{block}.{key[0]}[{key[1]}]"
    else:
        cfg[block][key] = bad
        field = f"{block}.{key}"
    assert main([command, _write(tmp_path, cfg)]) == 2
    assert f"{field} must be finite" in capsys.readouterr().err
    assert list(tmp_path.glob("out/**/*")) == []  # nothing written


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("check, option", [(5, "points"), (3, "count")])
def test_non_finite_check_options_exit_2(tmp_path, capsys, check, option, bad):
    cfg = json.loads(json.dumps(_with_out(RUN_CFG, tmp_path)))
    cfg["checks"][check].update({option: bad, "mode": "lowest"})
    assert main(["run", _write(tmp_path, cfg)]) == 2
    assert f"{option} must be a positive integer" in capsys.readouterr().err
    assert list(tmp_path.glob("out/**/*")) == []


def test_unsorted_gamma_table_exits_2(tmp_path, capsys):
    cfg = json.loads(json.dumps(_with_out(RUN_CFG, tmp_path)))
    cfg["flow"]["policy"] = {"type": "signed_scaled", "sigma": 1,
                             "gamma": {"t": [0.0, 1.0, 0.5], "values": [1.0, 2.0, 3.0]}}
    assert main(["run", _write(tmp_path, cfg)]) == 2
    assert "strictly increasing" in capsys.readouterr().err


def test_run_integrates_once_with_sign_conditions(tmp_path, monkeypatch):
    import isoflow.checks as checks
    import isoflow.flows as flows
    calls, integrate = [], flows.integrate

    def counted(*args, **kwargs):
        calls.append(kwargs.get("record_every"))
        return integrate(*args, **kwargs)
    monkeypatch.setattr(checks, "integrate", counted)
    monkeypatch.setattr(flows, "integrate", counted)
    assert main(["run", _write(tmp_path, _with_out(RUN_CFG, tmp_path, "a"))]) == 0
    assert calls == [1]

    # the samples taken from the every-step run are the recorded run's
    no_sign = dict(RUN_CFG, checks=[c for c in RUN_CFG["checks"]
                                    if c["name"] != "sign_conditions"])
    assert main(["run", _write(tmp_path, _with_out(no_sign, tmp_path, "b"))]) == 0
    assert calls == [1, 100]
    for name in ("trajectory.csv", "spectrum.csv"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)
    rows_a, rows_b = _report_rows(tmp_path, "a"), _report_rows(tmp_path, "b")
    assert rows_a.pop("sign_conditions") == (0.0, 0.5, "true")
    assert rows_a == rows_b


def test_sign_conditions_of_a_zero_length_flow_read_its_one_sample(tmp_path, capsys,
                                                                   monkeypatch):
    import isoflow.checks as checks
    import isoflow.flows as flows
    calls, integrate = [], flows.integrate

    def counted(*args, **kwargs):
        calls.append(args[4])
        return integrate(*args, **kwargs)
    monkeypatch.setattr(checks, "integrate", counted)
    monkeypatch.setattr(flows, "integrate", counted)
    cfg = json.loads(json.dumps(_with_out(RUN_CFG, tmp_path)))
    cfg["flow"]["t_end"] = 0.0
    cfg["checks"] = [{"name": "sign_conditions", "tolerance": 0.5}]
    assert main(["run", _write(tmp_path, cfg)]) == 0
    # one integration to t_end = t0, and no step past it
    assert calls == [0.0]
    assert (tmp_path / "out" / "trajectory.csv").read_text().count("\n") == 2
    assert "min_r=1 min_s=0.2" in capsys.readouterr().out


@pytest.mark.parametrize("command, cfg, block, integrator", [
    ("run", RUN_CFG, "flow", "integrate"),
    ("chain", CHAIN_CFG, "chain", "integrate_chain"),
])
@pytest.mark.parametrize("record_every", [0, -3])
def test_non_positive_record_every_exits_2_before_integrating(
        tmp_path, capsys, monkeypatch, command, cfg, block, integrator, record_every):
    import isoflow.checks as checks
    calls = []
    monkeypatch.setattr(checks, integrator, lambda *a, **k: calls.append(a))
    cfg = json.loads(json.dumps(_with_out(cfg, tmp_path)))
    cfg[block]["record_every"] = record_every
    assert main([command, _write(tmp_path, cfg)]) == 2
    assert (f"{block}.record_every must be a positive integer, got {record_every}"
            in capsys.readouterr().err)
    assert calls == []
    assert list(tmp_path.glob("out/**/*")) == []


@pytest.mark.parametrize("kappa", [2.0, 0.5])
def test_modification_row_sees_the_rate(tmp_path, capsys, monkeypatch, kappa):
    """A wrong closed form F^kappa still has a constant rate and fits its own
    exponential, so only |K_empirical - K_expected| shows it: the command's
    row is the max of constancy, closed form and rate."""
    record = FAMILIES[FamilyTag.KRAWTCHOUK]
    f, k_expected = record.modification
    monkeypatch.setitem(FAMILIES, FamilyTag.KRAWTCHOUK, record._replace(
        modification=(lambda r, s, se, C: f(r, s, se, C) ** kappa, k_expected)))
    cfg = dict(RUN_CFG, representation={"type": "su2", "j": 3},
               checks=[{"name": "modification", "tolerance": 1e-5, "family": "krawtchouk"}])
    assert main(["run", _write(tmp_path, _with_out(cfg, tmp_path))]) == 1
    value, tol, ok = _report_rows(tmp_path)["modification"]
    assert ok == "false" and value >= 100 * tol
    assert "K_empirical=" in capsys.readouterr().out


def test_numerical_error_in_a_check_is_a_failed_row(tmp_path, capsys):
    # 1000 steps recorded every 300: the last sample is off the uniform grid
    cfg = json.loads(json.dumps(_with_out(RUN_CFG, tmp_path)))
    cfg["flow"]["record_every"] = 300
    assert main(["run", _write(tmp_path, cfg)]) == 1
    rows = _report_rows(tmp_path)
    value, tol, ok = rows.pop("modification")
    assert value != value and tol == 1e-5 and ok == "false"
    assert all(ok == "true" for _, _, ok in rows.values())
    out = capsys.readouterr().out
    assert "FAIL  modification  value=nan" in out
    assert "needs a uniform grid" in out


def test_family_outside_its_regime_exits_2(tmp_path, capsys):
    # r = s on su(1,1) is the Laguerre boundary, not the Meixner regime
    cfg = {"algebra": {"class": "su11"},
           "flow": {"r0": 1.0, "s0": 1.0, "dt": 1e-4, "t_end": 0.2,
                    "policy": {"type": "signed_scaled", "sigma": -1}},
           "checks": [{"name": "modification", "tolerance": 1e-6,
                       "family": "meixner"}]}
    assert main(["run", _write(tmp_path, _with_out(cfg, tmp_path))]) == 2
    assert "s + c > r > 0" in capsys.readouterr().err
    assert _csv_files(tmp_path) == []
    cfg["checks"][0]["family"] = "laguerre"
    assert main(["run", _write(tmp_path, _with_out(cfg, tmp_path))]) == 0


@pytest.mark.parametrize("family, rep, needed", [
    ("meixner", {"type": "principal_series", "rho": 0.7, "eps": 0.3,
                 "n_min": -25, "n_max": 25},
     "family meixner diagonalizes L on DiscreteSeriesPlus, got PrincipalSeries"),
    ("meixner_function", {"type": "discrete_series", "k": 1.0, "n_max": 40},
     "family meixner_function diagonalizes L on PrincipalSeries, got DiscreteSeriesPlus"),
])
def test_family_on_another_representation_names_its_own(tmp_path, capsys, family,
                                                         rep, needed):
    """Both windows are su(1,1) ones and the state lies in both families'
    regime: the error names the representation the family diagonalizes and
    the one it was given."""
    cfg = {"algebra": {"class": "su11"}, "representation": rep,
           "flow": {"r0": 0.8, "s0": 1.2, "dt": 1e-3, "t_end": 0.1,
                    "policy": {"type": "toda"}},
           "checks": [{"name": "diagonalization", "tolerance": 1e-11, "family": family}]}
    assert main(["run", _write(tmp_path, _with_out(cfg, tmp_path))]) == 2
    assert needed in capsys.readouterr().err
    assert list(tmp_path.glob("out/**/*")) == []  # nothing written


def test_family_without_a_closed_form_modification_exits_2(tmp_path, capsys):
    cfg = {"algebra": {"class": "e2", "c": 1},
           "representation": {"type": "e2", "k": 2, "n_min": -40, "n_max": 40},
           "flow": {"r0": 0.8, "s0": 0.6, "dt": 1e-3, "t_end": 0.1,
                    "policy": {"type": "toda"}},
           "checks": [{"name": "modification", "tolerance": 1e-5, "family": "bessel"}]}
    assert main(["run", _write(tmp_path, _with_out(cfg, tmp_path))]) == 2
    err = capsys.readouterr().err
    assert "no closed-form modification for family 'bessel'" in err
    assert "FamilyTag" not in err
    assert list(tmp_path.glob("out/**/*")) == []  # nothing written


def test_nan_diagonalization_rows_fail(tmp_path, capsys):
    # on the tilted j = 400 window the closed-form components overflow:
    # the check reports NaN against its configured tolerance and fails
    cfg = {"algebra": {"class": "su2"},
           "representation": {"type": "su2", "j": 400},
           "flow": {"r0": 1.0, "s0": 0.9, "dt": 1e-3, "t_end": 1e-3,
                    "policy": {"type": "toda"}},
           "checks": [{"name": "diagonalization", "tolerance": 1e-11,
                       "family": "krawtchouk", "points": 10}]}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", _write(tmp_path, _with_out(cfg, tmp_path))]) == 1
    value, tol, ok = _report_rows(tmp_path)["diagonalization"]
    assert value != value and tol == 1e-11 and ok == "false"
    # the reason is in the row's note, not in numpy warnings on stderr
    assert [str(w.message) for w in caught] == []
    out, err = capsys.readouterr()
    assert err == ""
    assert "FAIL  diagonalization  value=nan" in out
    assert "(FloatingPointError: overflow encountered in multiply)" in out


def test_wide_e2_diagonalization_passes_under_warnings_as_errors(tmp_path, capsys):
    # on -250..250 the Bessel components of the window's large orders
    # underflow to 0, their correctly rounded value: no warning, and the
    # row reads every interior row and passes
    cfg = {"algebra": {"class": "e2", "c": 1},
           "representation": {"type": "e2", "k": 2, "n_min": -250, "n_max": 250},
           "flow": {"r0": 0.8, "s0": 0.6, "dt": 1e-3, "t_end": 0.1,
                    "record_every": 10, "policy": {"type": "toda"}},
           "checks": [{"name": "diagonalization", "tolerance": 1e-11,
                       "family": "bessel"}]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", _write(tmp_path, _with_out(cfg, tmp_path))]) == 0
    value, _, ok = _report_rows(tmp_path)["diagonalization"]
    assert ok == "true" and value > 0.0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["chain", "mvk"])
def test_nearly_degenerate_chain_passes_under_warnings_as_errors(tmp_path, capsys, command):
    # r_i = 1e-12 puts the eigenvalues 1.4e-12 apart, yet the weights are
    # well conditioned: orthogonality passes and nothing warns
    cfg = {"chain": {"s": [0, 0], "r": [1e-12, 1e-12]}, "degree": 2,
           "checks": [{"name": "orthogonality", "tolerance": 1e-9}]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, _write(tmp_path, _with_out(cfg, tmp_path))]) == 0
    value, _, ok = _report_rows(tmp_path)["orthogonality"]
    assert ok == "true" and value < 1e-15
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["chain", "mvk"])
def test_overflowing_eigenvector_polynomials_fail_with_a_note(tmp_path, capsys, command):
    # with r_i = 1e-150 the polynomials overflow (p_3 ~ 1/r^3): the rows
    # built on them are NaN and fail with the overflow in their note, and
    # numpy stays quiet.  mvk builds its table on them, so its report is
    # one failed table row in place of the checks, and no mvk.csv
    cfg = {"chain": {"s": [0.3, -0.2, 0.4], "r": [1e-150, 1e-150, 1e-150]},
           "checks": [{"name": "orthogonality", "tolerance": 1e-9}]}
    expected, files = {"orthogonality": "1e-09"}, ["chain_trajectory.csv", "report.csv",
                                                   "spectrum.csv"]
    if command == "mvk":
        cfg["degree"] = 1
        cfg["checks"].append({"name": "recurrence", "tolerance": 1e-9})
        expected, files = {"table": "0"}, ["report.csv"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, _write(tmp_path, _with_out(cfg, tmp_path))]) == 1
    assert [str(w.message) for w in caught] == []
    out, err = capsys.readouterr()
    assert err == ""
    rows = _report_rows(tmp_path)
    assert list(rows) == list(expected)
    for name, (value, _, ok) in rows.items():
        assert value != value and ok == "false"
        assert f"FAIL  {name}  value=nan  tol={expected[name]}" in out
    assert out.count("(FloatingPointError: overflow encountered in ") == len(rows)
    assert _csv_files(tmp_path) == files


def test_run_builds_L_once(tmp_path, monkeypatch, capsys):
    import isoflow.checks as checks
    import isoflow.representations as representations
    import isoflow.spectral as spectral
    calls, build_L_ = [], representations.build_L

    def counted(*args, **kwargs):
        calls.append(args)
        return build_L_(*args, **kwargs)
    for module in (checks, representations, spectral):
        monkeypatch.setattr(module, "build_L", counted)
    assert main(["run", _write(tmp_path, _with_out(RUN_CFG, tmp_path))]) == 0
    assert len(calls) == 1
    rows = _report_rows(tmp_path)
    for name in ("lax_residual", "diagonalization"):
        assert rows[name][2] == "true"


def test_chain_computes_the_trace_invariants_once(tmp_path, monkeypatch):
    """trace_closed_vs_dense and tr2_variant_detected read one
    ``trace_invariants(state0)``, and their rows are its values."""
    import isoflow.checks as checks
    calls, trace_invariants_ = [], checks.trace_invariants

    def counted(state):
        calls.append(state)
        return trace_invariants_(state)
    monkeypatch.setattr(checks, "trace_invariants", counted)
    assert main(["chain", _write(tmp_path, _with_out(CHAIN_CFG, tmp_path))]) == 0
    assert len(calls) == 1
    tr = trace_invariants_(calls[0])
    rows = _report_rows(tmp_path)
    assert rows["trace_closed_vs_dense"][0] == max(tr.closed_vs_dense)
    assert rows["tr2_variant_detected"][0] == tr.variant_gap


def test_mvk_demo(tmp_path):
    code = main(["mvk", _write(tmp_path, _with_out(MVK_CFG, tmp_path))])
    assert code == 0
    rows = _report_rows(tmp_path)
    assert all(ok == "true" for _, _, ok in rows.values())
    lines = (tmp_path / "out" / "mvk.csv").read_text().strip().split("\n")
    assert lines[0] == "sigma,rho,P"
    assert len(lines) == 1 + 36  # six weight-2 indices on three letters


def test_empty_checks_pass(tmp_path):
    cfg = _with_out(dict(RUN_CFG), tmp_path)
    cfg["checks"] = []
    assert main(["run", _write(tmp_path, cfg)]) == 0


def test_isoflow_out_overrides(tmp_path, monkeypatch):
    monkeypatch.setenv("ISOFLOW_OUT", str(tmp_path / "env_out"))
    code = main(["run", _write(tmp_path, _with_out(RUN_CFG, tmp_path))])
    assert code == 0
    assert (tmp_path / "env_out" / "report.csv").exists()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mangle", [
    lambda c: c.pop("algebra"),
    lambda c: c["algebra"].update({"class": "su3"}),
    lambda c: c["checks"].append({"name": "bogus", "tolerance": 1e-6}),
    lambda c: c["checks"][0].update({"tolerance": -1.0}),
    lambda c: c["flow"].update({"dt": 0.0}),
    lambda c: c["flow"].update({"r0": "one"}),
    lambda c: c["flow"].update({"record_every": 0}),
    lambda c: c["checks"][3].update({"mode": "bogus"}),
    lambda c: c["checks"][5].update({"points": 0}),
    lambda c: c["checks"][4].update({"family": "bogus"}),
    lambda c: c["checks"][5].update({"family": "bogus"}),
    lambda c: c["checks"][4].update({"family": "bessel"}),  # no closed form
    lambda c: c["checks"][5].update({"family": "meixner"}),  # wrong class
    lambda c: c["representation"].update({"j": 0}),  # a Krawtchouk lattice of N = 0
    lambda c: c.pop("representation"),
])
def test_bad_run_configs_exit_2(tmp_path, capsys, mangle):
    cfg = json.loads(json.dumps(_with_out(RUN_CFG, tmp_path)))
    mangle(cfg)
    assert main(["run", _write(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err != ""
    # rejected before anything ran: no trajectory, spectrum or report
    assert _csv_files(tmp_path) == []


@pytest.mark.parametrize("check, err", [
    ({"name": "lax_residual", "tolerance": 1e-12}, "no interior rows"),
    ({"name": "diagonalization", "tolerance": 1e-11,
      "family": "meixner_pollaczek"}, "no interior rows"),
])
def test_window_without_interior_rows_exits_2_before_writing(tmp_path, capsys,
                                                             check, err):
    # the one-row window's upper edge is truncated: no row is interior
    cfg = {"algebra": {"class": "su11"},
           "representation": {"type": "discrete_series", "k": 1.0, "n_max": 0},
           "flow": {"r0": 1.0, "s0": 0.2, "dt": 1e-3, "t_end": 0.1,
                    "policy": {"type": "signed_scaled", "sigma": -1}},
           "checks": [check]}
    assert main(["run", _write(tmp_path, _with_out(cfg, tmp_path))]) == 2
    assert err in capsys.readouterr().err
    assert list(tmp_path.glob("out/**/*")) == []  # nothing written


def test_stdout_lines_carry_the_margin(tmp_path, capsys):
    rows = [check_result("plain", 2e-13, 1e-12),
            check_result("ratio", 3.0, 12.0, ">="),
            check_result("zero_tol", 0.0, 0.0),
            check_result("integration", math.inf, 0.0),
            check_result("negative", -1.0, 0.0),
            check_result("both_inf", math.inf, math.inf),
            check_result("nan", math.nan, 1e-9),
            check_result("inf_tol", 5.0, math.inf)]
    assert _finish(str(tmp_path), rows) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "PASS  plain  value=2e-13  tol=1e-12  margin=0.2"
    assert lines[1].startswith("FAIL  ratio  value=3  tol=12  margin=0.25  (")
    margins = [line.split("  ")[4] for line in lines]
    assert margins == ["margin=0.2", "margin=0.25", "margin=0", "margin=inf",
                       "margin=-inf", "margin=1", "margin=nan", "margin=0"]
    # report.csv keeps its four columns
    assert (tmp_path / "report.csv").read_text().splitlines()[:2] == [
        "check,value,tolerance,pass", "plain,2.0000000000000001e-13,9.9999999999999998e-13,true"]


@pytest.mark.parametrize("options,count", [
    ({"mode": "central"}, "None"),
    ({"mode": "lowest"}, "None"),
    ({"mode": "central", "count": 20}, "20"),
    ({"mode": "lowest", "count": 14}, "14"),
])
def test_drift_count_outside_window_exits_2(tmp_path, capsys, options, count):
    # the su2 j=6 window has 13 rows
    cfg = json.loads(json.dumps(_with_out(RUN_CFG, tmp_path)))
    cfg["checks"][3].update(options)
    assert main(["run", _write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "count <= 13 (the window size)" in err and f"count={count}" in err
    assert _csv_files(tmp_path) == []


@pytest.mark.parametrize("algebra,rep,r0,s0", [
    ({"class": "su2"}, {"type": "su2", "j": 6}, 1.0, 0.2),
    ({"class": "su2"}, {"type": "su2", "j": 30}, 1.0, 0.2),
    ({"class": "su11"}, {"type": "discrete_series", "k": 1.0, "n_max": 40}, 0.55, 0.7),
    ({"class": "oscillator", "c": 1.0},
     {"type": "oscillator", "k": 0.5, "h": 1.0, "n_max": 40}, 4.0, 0.5),
    ({"class": "e2", "c": 1.0}, {"type": "e2", "k": 2.0, "n_min": -40, "n_max": 40},
     1.3, 0.4),
])
def test_spectrum_csv_holds_the_compared_eigenvalues(tmp_path, capsys, algebra,
                                                     rep, r0, s0):
    cfg = _with_out({
        "algebra": algebra, "representation": rep,
        "flow": {"r0": r0, "s0": s0, "dt": 0.001, "t_end": 0.2,
                 "record_every": 20, "policy": {"type": "toda"}},
        "checks": [{"name": "isospectrality_drift", "tolerance": 1e-8}]}, tmp_path)
    assert main(["run", _write(tmp_path, cfg)]) in (0, 1)
    out = tmp_path / "out"
    traj = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    spec = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)
    lam = spec[:, 2].reshape(len(traj), -1)
    assert (spec[:, 0].reshape(lam.shape) == traj[:, :1]).all()
    # the drift from the written spectra is the report's, to the last bit
    drift = float(np.abs(lam - lam[0]).max())
    assert _report_rows(tmp_path)["isospectrality_drift"][0] == drift
    # and each spectrum is the vector solve's within 64 eps (1 + |L|_inf)
    alg = cfgmod.build_algebra(algebra)
    window = cfgmod.build_representation(rep)
    for (_, r, s, _, _), row in zip(traj, lam):
        L = build_L(window, alg, r, s)
        err = np.abs(row - eigs_sym_tridiag(L).eigenvalues).max()
        assert err <= scaled_tolerance(64 * np.finfo(float).eps, L)


@pytest.mark.parametrize("algebra,rep,r0,s0,mode,count", [
    ({"class": "su2"}, {"type": "su2", "j": 6}, 1.0, 0.2, "central", 5),
    ({"class": "su11"}, {"type": "discrete_series", "k": 1.0, "n_max": 40}, 0.55, 0.7,
     "lowest", 5),
    ({"class": "oscillator", "c": 1.0},
     {"type": "oscillator", "k": 0.5, "h": 1.0, "n_max": 40}, 4.0, 0.5, "lowest", 8),
])
def test_spectrum_csv_and_drift_read_the_recorded_samples(tmp_path, capsys, algebra, rep,
                                                          r0, s0, mode, count):
    """With sign_conditions configured the flow is integrated at every step
    and its recorded samples taken from those rows: spectrum.csv holds one
    block per recorded sample, and the drift recomputed from the file under
    the mode's slice is the report row's, to the last bit."""
    cfg = _with_out({
        "algebra": algebra, "representation": rep,
        "flow": {"r0": r0, "s0": s0, "dt": 0.001, "t_end": 0.2,
                 "record_every": 20, "policy": {"type": "toda"}},
        "checks": [{"name": "sign_conditions", "tolerance": 0.5},
                   {"name": "isospectrality_drift", "tolerance": 1e-8,
                    "mode": mode, "count": count}]}, tmp_path)
    assert main(["run", _write(tmp_path, cfg)]) in (0, 1)
    out = tmp_path / "out"
    t = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)[:, 0]
    spec = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)
    lam = spec[:, 2].reshape(len(t), -1)
    # 200 steps recorded every 20th: 11 samples, not the 201 integrated
    assert len(t) == 11 and (spec[:, 0].reshape(lam.shape) == t[:, None]).all()
    assert (spec[:, 1].reshape(lam.shape) == np.arange(lam.shape[1])).all()
    keep = compared_eigenvalues(cfgmod.build_representation(rep), mode, count)
    drift = float(np.abs(lam[:, keep] - lam[0, keep]).max())
    assert _report_rows(tmp_path)["isospectrality_drift"][0] == drift


@pytest.mark.parametrize("kind, rep", [
    ("su2", SU2(6.0)),
    ("discrete_series", DiscreteSeriesPlus(1.0, 40)),
    ("principal_series", PrincipalSeries(0.7, 0.3, -25, 25)),
    ("oscillator", Oscillator(0.5, 1.0, 40)),
    ("e2", E2(2.0, -40, 40)),
])
def test_representation_keys_are_the_dataclass_fields(kind, rep):
    block = {"type": kind, **{f.name: getattr(rep, f.name)
                              for f in dataclasses.fields(rep)}}
    built = cfgmod.build_representation(json.loads(json.dumps(block)))
    assert type(built) is type(rep) and built == rep


def test_principal_series_range_error_names_the_eps_key():
    with pytest.raises(cfgmod.ConfigError, match=r"eps must lie in \[0,1\), got 1.2"):
        cfgmod.build_representation({"type": "principal_series", "rho": 0.7,
                                     "eps": 1.2, "n_min": -5, "n_max": 5})


@pytest.mark.parametrize("s, r", [
    ([0.4], [0.9]),
    ([0.3, -0.2, 0.4], [1.0, 0.8, 1.2]),
    ([0.1 * (-1) ** i * i for i in range(16)], [0.5 + 0.05 * i for i in range(16)]),
])
def test_chain_spectrum_csv_holds_the_compared_eigenvalues(tmp_path, capsys, s, r):
    cfg = _with_out({
        "chain": {"s": s, "r": r, "g": 1.0, "dt": 0.001, "t_end": 0.5,
                  "record_every": 50},
        "checks": [{"name": "isospectrality_drift", "tolerance": 1e-8}]}, tmp_path)
    assert main(["chain", _write(tmp_path, cfg)]) == 0
    out = tmp_path / "out"
    traj = np.loadtxt(out / "chain_trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    spec = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)
    lam = spec[:, 2].reshape(len(traj), -1)
    assert (spec[:, 0].reshape(lam.shape) == traj[:, :1]).all()
    # each row is the spectrum of its recorded state, to the last bit
    d = len(s)
    for row, want in zip(traj, lam):
        state = ChainState(row[0], tuple(row[1:d + 1]), tuple(row[d + 1:]))
        assert chain_spectrum(state).tobytes() == want.tobytes()
    # and the drift from the written spectra is the report's
    drift = float(np.abs(lam - lam[0]).max())
    assert _report_rows(tmp_path)["isospectrality_drift"][0] == drift


def test_missing_and_malformed_files_exit_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2


def test_config_path_that_is_a_directory_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path)]) == 2
    assert f"cannot read config file {tmp_path}" in capsys.readouterr().err


@pytest.mark.parametrize("case, out", [("empty_dir", ""), ("dir_is_a_file", "taken"),
                                       ("env_is_a_file", "taken")])
def test_unusable_output_dir_exits_2_before_writing(tmp_path, monkeypatch, capsys,
                                                    case, out):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ISOFLOW_OUT", raising=False)
    (tmp_path / "taken").write_text("")
    cfg = dict(RUN_CFG)
    if case == "env_is_a_file":
        monkeypatch.setenv("ISOFLOW_OUT", out)
    else:
        cfg["output"] = {"dir": out}
    assert main(["run", _write(tmp_path, cfg)]) == 2
    assert f"cannot create output directory {out!r}" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json", "taken"]


def test_verify_with_unusable_output_dir_exits_2_before_running(tmp_path, monkeypatch,
                                                                capsys):
    (tmp_path / "taken").write_text("")
    monkeypatch.setenv("ISOFLOW_OUT", str(tmp_path / "taken"))
    assert main(["verify", "--only", "lax"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "cannot create output directory" in err


def test_bad_mvk_degree_exits_2(tmp_path):
    cfg = json.loads(json.dumps(_with_out(MVK_CFG, tmp_path)))
    cfg["degree"] = 0
    assert main(["mvk", _write(tmp_path, cfg)]) == 2
    cfg["degree"] = True
    assert main(["mvk", _write(tmp_path, cfg)]) == 2


def test_verify_only_group(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ISOFLOW_OUT", str(tmp_path / "v"))
    assert main(["verify", "--only", "lax"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    rows = _report_rows(tmp_path, "v")
    assert all(name.startswith("lax") for name in rows)


@pytest.mark.parametrize("command", ["run", "chain", "verify"])
def test_commands_leave_no_cyclic_garbage(tmp_path, monkeypatch, capsys, command):
    """A command frees what it built by reference counting alone, so calls
    repeated in one process give the cyclic collector nothing to find."""
    monkeypatch.setenv("ISOFLOW_OUT", str(tmp_path / "out"))
    cfg = {"run": RUN_CFG, "chain": CHAIN_CFG}.get(command)
    argv = [command, _write(tmp_path, cfg)] if cfg else [command, "--only", "lax"]
    assert main(argv) == 0  # first call: lazy imports and caches fill
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        garbage = sorted({type(o).__qualname__ for o in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == []


def test_verify_deterministic_report(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ISOFLOW_OUT", str(tmp_path / "a"))
    assert main(["verify", "--seed", "7"]) == 0
    monkeypatch.setenv("ISOFLOW_OUT", str(tmp_path / "b"))
    assert main(["verify", "--seed", "7"]) == 0
    capsys.readouterr()
    assert filecmp.cmp(tmp_path / "a" / "report.csv",
                       tmp_path / "b" / "report.csv", shallow=False)


@pytest.mark.parametrize("seed", ["-1", "-12345", "x", "1.5"])
def test_verify_rejects_a_bad_seed_in_the_parser(tmp_path, monkeypatch, capsys, seed):
    monkeypatch.setenv("ISOFLOW_OUT", str(tmp_path / "out"))
    with pytest.raises(SystemExit) as info:
        main(["verify", "--seed", seed])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: must be a non-negative integer" in err
    assert "invalid configuration" not in err
    assert not (tmp_path / "out").exists()


def test_verify_row_names_unique():
    names = [r.name for r in run_verify()]
    assert len(names) == 81
    assert len(set(names)) == len(names)
    assert len(run_verify(only="mvk")) == 15


@pytest.mark.parametrize("exc", [ValueError("bad table"), ZeroDivisionError("x / 0")])
def test_verify_group_error_is_a_failed_row(tmp_path, monkeypatch, capsys, exc):
    def boom(rng):
        raise exc
    monkeypatch.setitem(GROUPS, "chain", boom)
    rows = run_verify()
    names = [r.name for r in rows]
    assert len(rows) == 81 - 11 + 1 and names.count("chain") == 1
    failed = [r for r in rows if not r.passed]
    assert [r.name for r in failed] == ["chain"]
    assert failed[0].value != failed[0].value
    assert failed[0].note == f"{type(exc).__name__}: {exc}"
    # the groups after it still ran
    assert any(name.startswith("mvk_") for name in names[names.index("chain"):])
    monkeypatch.setenv("ISOFLOW_OUT", str(tmp_path / "v"))
    assert main(["verify"]) == 1
    assert _report_rows(tmp_path, "v")["chain"][2] == "false"
    assert "70/71 checks passed" in capsys.readouterr().out


def _verify_chain_state(rng, d):
    # the draws of verify's chain states
    return {"s": list(rng.uniform(-0.5, 0.5, d)), "r": list(rng.uniform(0.5, 1.5, d))}


def _verify_run(tmp_path, sub, algebra, rep, r0, s0, g, grid, check):
    """The one row of ``isoflow run`` on a verify state at t = 0: ``grid``
    is (dt, t_end, record_every), t_end = 0 where verify integrates
    nothing."""
    dt, t_end, every = grid
    sigma = 1 if g > 0 else -1
    cfg = {"algebra": algebra, "flow": {
        "r0": r0, "s0": s0, "dt": dt, "t_end": t_end, "record_every": every,
        "policy": {"type": "signed_scaled", "sigma": sigma, "gamma": sigma * g}},
        "checks": [check]}
    if rep is not None:
        cfg["representation"] = rep
    assert main(["run", _write(tmp_path, _with_out(cfg, tmp_path, sub))]) == 0
    (value, _, _), = _report_rows(tmp_path, sub).values()
    return value


# verify's rank-1 states as isoflow run blocks: lax (representation, algebra, s0 at
# r0 = 0.8, u = 0.3), invariant and modification (algebra, r0, s0, g, grid)
VERIFY_LAX = {
    "su2": ({"type": "su2", "j": 2.5}, {"class": "su2"}, 0.6),
    "discrete": ({"type": "discrete_series", "k": 1.0, "n_max": 40}, {"class": "su11"}, 1.2),
    "principal": ({"type": "principal_series", "rho": 0.7, "eps": 0.3, "n_min": -25,
                   "n_max": 25}, {"class": "su11"}, 1.2),
    "oscillator": ({"type": "oscillator", "k": 0.5, "h": 1.0, "n_max": 40},
                   {"class": "oscillator", "c": 1.0}, 0.6),
    "e2": ({"type": "e2", "k": 2.0, "n_min": -25, "n_max": 25}, {"class": "e2", "c": 1.0}, 0.6),
}
VERIFY_INVARIANT = {"su2": ({"class": "su2"}, 1.0, 0.0),
                    "su11": ({"class": "su11"}, 1.0, 1.25),
                    "oscillator": ({"class": "oscillator", "c": 1.0}, 2.0, 3.0),
                    "e2": ({"class": "e2", "c": 1.0}, 1.0, 0.5)}
VERIFY_MODIFICATION = {
    "krawtchouk": ({"class": "su2"}, 1.0, 0.0, 1.0, (1e-3, 1.0, 1)),
    "meixner": ({"class": "su11"}, 1.0, 1.25, -1.0, (1e-4, 0.2, 1)),
    "laguerre": ({"class": "su11"}, 1.3, 1.3, -1.0, (1e-4, 0.2, 1)),
    "meixner_pollaczek": ({"class": "su11"}, 2.0, 1.0, -1.0, (1e-4, 0.2, 1)),
    "charlier": ({"class": "oscillator", "c": 1.0}, 2.0, 3.0, 1.0, (1e-3, 1.0, 1)),
    "hermite": ({"class": "oscillator", "c": 0.0}, 1.1, 0.7, 1.0, (1e-3, 1.0, 1)),
}
# the diagonalization states whose verify points are the family's 20 points
VERIFY_DIAGONALIZATION = {
    "krawtchouk": ({"type": "su2", "j": 10}, {"class": "su2"}, 1.0, 0.0),
    "meixner": ({"type": "discrete_series", "k": 1.0, "n_max": 60}, {"class": "su11"},
                1.0, 1.025),
    "meixner_pollaczek": ({"type": "discrete_series", "k": 1.2, "n_max": 50},
                          {"class": "su11"}, 2.0, 1.0),
    "charlier": ({"type": "oscillator", "k": 0.5, "h": 1.0, "n_max": 60},
                 {"class": "oscillator", "c": 1.0}, 6.0, 0.5),
}
NO_FLOW = (1e-3, 0.0, 1)


@pytest.mark.parametrize("seed", [12345, 7])
def test_commands_report_the_max_of_verify_rows(tmp_path, seed):
    """isoflow run, chain and mvk on verify's group states give, row by row,
    exactly the max of verify's rows for the same quantity."""
    def group(name):
        return ({r.name: r.value for r in run_verify(only=name, seed=seed)},
                np.random.default_rng([seed, list(GROUPS).index(name)]))

    rows, _ = group("lax")
    for tag, (rep, algebra, s0) in VERIFY_LAX.items():
        assert _verify_run(tmp_path, f"l{tag}", algebra, rep, 0.8, s0, 0.3 / 0.8, NO_FLOW,
                           {"name": "lax_residual", "tolerance": 1e-12}) == rows[
            f"lax_residual_{tag}"], tag

    rows, _ = group("invariant")
    for tag, (algebra, r0, s0) in VERIFY_INVARIANT.items():
        assert _verify_run(tmp_path, f"i{tag}", algebra, None, r0, s0, 1.0, (1e-3, 2.0, 20),
                           {"name": "invariant_drift", "tolerance": 1e-10}) == rows[
            f"invariant_drift_{tag}"], tag

    rows, _ = group("modification")
    for fam, (algebra, r0, s0, g, grid) in VERIFY_MODIFICATION.items():
        got = _verify_run(tmp_path, f"m{fam}", algebra, None, r0, s0, g, grid,
                          {"name": "modification", "tolerance": 1e-5, "family": fam})
        assert got == max(rows[f"modification_{part}_{fam}"]
                          for part in ("constancy", "closed_form", "rate")), fam

    rows, _ = group("diagonalization")
    for fam, (rep, algebra, r0, s0) in VERIFY_DIAGONALIZATION.items():
        assert _verify_run(tmp_path, f"d{fam}", algebra, rep, r0, s0, 1.0, NO_FLOW,
                           {"name": "diagonalization", "tolerance": 1e-11, "family": fam,
                            "points": 20}) == rows[f"diag_residual_{fam}"], fam

    rows, rng = group("isospectrality")
    assert _verify_run(tmp_path, "isu2", {"class": "su2"}, {"type": "su2", "j": 2.5}, 1.0,
                       0.0, 1.0, (1e-3, 1.0, 50),
                       {"name": "isospectrality_drift", "tolerance": 1e-8}) == rows[
        "isospectral_drift_su2"]
    for d in (2, 3, 5):
        cfg = {"chain": {**_verify_chain_state(rng, d), "g": 1.0, "dt": 1e-3,
                         "t_end": 1.0, "record_every": 100},
               "checks": [{"name": "isospectrality_drift", "tolerance": 1e-8}]}
        assert main(["chain", _write(tmp_path, _with_out(cfg, tmp_path, f"c{d}"))]) == 0
        (value, _, _), = _report_rows(tmp_path, f"c{d}").values()
        assert value == rows[f"isospectral_drift_chain_d{d}"], d

    rows, rng = group("chain")
    cfg = {"chain": {**_verify_chain_state(rng, 4), "g": 1.0, "dt": 1e-3,
                     "t_end": 1.0, "record_every": 100},
           "checks": CHAIN_CFG["checks"]}
    assert main(["chain", _write(tmp_path, _with_out(cfg, tmp_path, "c"))]) == 0
    got = {name: value for name, (value, _, _) in _report_rows(tmp_path, "c").items()}

    def trace(kind):
        return max(rows[f"chain_trace{k}_{kind}"] for k in (2, 3, 4))
    assert got["spectrum_sum"] == rows["chain_trace_zero"]
    assert got["orthogonality"] == max(rows["chain_orthogonality"],
                                       rows["chain_dual_orthogonality"])
    assert got["trace_closed_vs_dense"] == trace("closed_vs_dense")
    assert got["trace_flow_drift"] == trace("flow_drift")
    assert got["tr2_variant_detected"] == rows["chain_trace2_unit_variant_detected"]

    rows, rng = group("mvk")
    for d, n in ((2, 2), (2, 3), (3, 2)):
        cfg = {"chain": _verify_chain_state(rng, d), "degree": n,
               "checks": MVK_CFG["checks"]}
        sub = f"m{d}{n}"
        assert main(["mvk", _write(tmp_path, _with_out(cfg, tmp_path, sub))]) == 0
        got = _report_rows(tmp_path, sub)
        assert len(got) == 5
        for name, (value, _, _) in got.items():
            assert value == rows[f"mvk_{name}_d{d}N{n}"], name


def test_krawtchouk_points_are_capped_at_the_lattice(tmp_path, capsys):
    """j = 4 has the 9 lattice points 0..8: the default 10 points are
    capped there, with the count in the note, and give the row of
    ``points: 9`` (the tenth point, x = 9, is off the spectrum)."""
    cfg = dict(RUN_CFG, representation={"type": "su2", "j": 4},
               checks=[{"name": "diagonalization", "tolerance": 1e-11,
                        "family": "krawtchouk"}])
    assert main(["run", _write(tmp_path, _with_out(cfg, tmp_path, "default"))]) == 0
    assert "points capped at the 9 lattice points" in capsys.readouterr().out
    cfg["checks"][0]["points"] = 9
    assert main(["run", _write(tmp_path, _with_out(cfg, tmp_path, "nine"))]) == 0
    assert "capped" not in capsys.readouterr().out
    assert _report_rows(tmp_path, "default") == _report_rows(tmp_path, "nine")


@pytest.mark.parametrize("bad", [2.5, 10.7, True, "3"],
                         ids=["fraction", "fraction_up", "boolean", "string"])
@pytest.mark.parametrize("command, cfg, where, key", [
    ("run", SU11_DISCRETE, "representation", "n_max"),
    ("run", SU11_PRINCIPAL, "representation", "n_min"),
    ("run", SU11_PRINCIPAL, "representation", "n_max"),
    ("run", RUN_CFG, "flow", "record_every"),
    ("chain", CHAIN_CFG, "chain", "record_every"),
    ("run", SU11_DISCRETE, 0, "count"),
    ("run", RUN_CFG, 5, "points"),
])
def test_non_integral_integer_fields_exit_2_before_writing(tmp_path, capsys, command,
                                                           cfg, where, key, bad):
    """Integer fields are not truncated: 2.5, 10.7, true or "3" is an
    error (exit 2, nothing written), not 2, 10, 1 or a type error."""
    cfg = json.loads(json.dumps(_with_out(cfg, tmp_path)))
    block = cfg["checks"][where] if isinstance(where, int) else cfg[where]
    block[key] = bad
    assert main([command, _write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{key} must be a" in err and f"integer, got {bad!r}" in err
    assert list(tmp_path.glob("out/**/*")) == []


def test_integral_floats_are_integers(tmp_path):
    cfg = json.loads(json.dumps(_with_out(RUN_CFG, tmp_path, "int")))
    assert main(["run", _write(tmp_path, cfg)]) == 0
    cfg = json.loads(json.dumps(_with_out(RUN_CFG, tmp_path, "float")))
    cfg["flow"]["record_every"] = 100.0
    cfg["checks"][5]["points"] = 10.0
    assert main(["run", _write(tmp_path, cfg)]) == 0
    for name in ("trajectory.csv", "spectrum.csv", "report.csv"):
        assert filecmp.cmp(tmp_path / "int" / name, tmp_path / "float" / name,
                           shallow=False)


def _scaled_policy(**fields):
    return {"type": "signed_scaled", "sigma": 1, **fields}


@pytest.mark.parametrize("policy", [
    _scaled_policy(sigma=True),
    _scaled_policy(sigma=1.5),
    _scaled_policy(sigma=2.0),
    _scaled_policy(sigma="1"),
    _scaled_policy(gamma=10 ** 400),
    _scaled_policy(gamma=True),
    _scaled_policy(gamma={"t": [0.0, "0.05"], "values": [1.0, 2.0]}),
    _scaled_policy(gamma={"t": [0.0, True], "values": [1.0, 2.0]}),
    _scaled_policy(gamma={"t": [0.0, 1.0], "values": [1.0, "0.05"]}),
    _scaled_policy(gamma={"t": [0.0, 1.0], "values": [True, 2.0]}),
    _scaled_policy(gamma={"t": [0.0, 1.0], "values": [1.0, 10 ** 400]}),
    _scaled_policy(gamma={"t": [0.0, 10 ** 400], "values": [1.0, 2.0]}),
    _scaled_policy(gamma={"t": [0.0, 1.0]}),
], ids=["sigma_boolean", "sigma_fraction", "sigma_two", "sigma_string",
        "gamma_overflow", "gamma_boolean", "t_string", "t_boolean",
        "values_string", "values_boolean", "values_overflow", "t_overflow",
        "values_missing"])
def test_bad_policy_fields_exit_2_before_writing(tmp_path, capsys, policy):
    """The policy's numbers go through the config's number helpers: a
    boolean, a string or a number past the float range is an error (exit
    2, nothing written), not +1, a parsed string or a traceback."""
    cfg = json.loads(json.dumps(_with_out(RUN_CFG, tmp_path)))
    cfg["flow"]["policy"] = policy
    assert main(["run", _write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "flow.policy" in err and "Traceback" not in err
    assert list(tmp_path.glob("out/**/*")) == []


def test_build_policy_returns_the_coupling():
    assert cfgmod.build_policy({"type": "toda"}) == 1.0
    for sigma in (1, -1):
        scaled = {"type": "signed_scaled", "sigma": sigma}
        assert cfgmod.build_policy(scaled) == sigma * 1.0
        assert cfgmod.build_policy({**scaled, "gamma": 0.8}) == sigma * 0.8
        table = cfgmod.build_policy({**scaled, "gamma": {"t": [0.0, 1, 2.5],
                                                         "values": [0.7, 1.2, 0.9]}})
        assert table == GammaTable(sigma, (0.0, 1.0, 2.5), (0.7, 1.2, 0.9))


@pytest.mark.parametrize("gamma, message", [
    (-2.0, "gamma must be positive and finite"),
    (0, "gamma must be positive and finite"),
    (math.nan, "flow.policy.gamma must be finite"),
    ({"t": [0.0, 1.0], "values": [1.0, -1.0]}, "gamma must be positive and finite"),
    ({"t": [0.0], "values": [1.0]}, "gamma table needs matching t/value samples"),
    ({"t": [0.0, 1.0], "values": [1.0]}, "gamma table needs matching t/value samples"),
])
def test_bad_gamma_exits_2_before_writing(tmp_path, capsys, gamma, message):
    cfg = json.loads(json.dumps(_with_out(RUN_CFG, tmp_path)))
    cfg["flow"]["policy"] = {"type": "signed_scaled", "sigma": -1, "gamma": gamma}
    assert main(["run", _write(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert list(tmp_path.glob("out/**/*")) == []


@pytest.mark.parametrize("sigma", [1, -1])
def test_integral_float_sigma_is_accepted(tmp_path, sigma):
    """sigma 1.0 and -1.0 are the integers 1 and -1: the run writes the
    same files (before, 1.0 failed the sign-conditions row with a format
    error)."""
    for sub, value in (("int", sigma), ("float", float(sigma))):
        cfg = json.loads(json.dumps(_with_out(RUN_CFG, tmp_path, sub)))
        cfg["flow"]["policy"] = {"type": "signed_scaled", "sigma": value,
                                 "gamma": {"t": [0.0, 2.0], "values": [1.0, 1.5]}}
        main(["run", _write(tmp_path, cfg)])
    for name in ("trajectory.csv", "spectrum.csv", "report.csv"):
        assert filecmp.cmp(tmp_path / "int" / name, tmp_path / "float" / name,
                           shallow=False)
    assert "sign_conditions" in _report_rows(tmp_path, "float")
