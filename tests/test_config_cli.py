"""Command-line entry points: config validation, report rows, CSV formats,
exit codes, and determinism of the verification suite."""
import filecmp
import json

import pytest

from isoflow.cli import main
from isoflow.verify import run_verify

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


def test_unsorted_gamma_table_exits_2(tmp_path, capsys):
    cfg = json.loads(json.dumps(_with_out(RUN_CFG, tmp_path)))
    cfg["flow"]["policy"] = {"type": "signed_scaled", "sigma": 1,
                             "gamma": {"t": [0.0, 1.0, 0.5], "values": [1.0, 2.0, 3.0]}}
    assert main(["run", _write(tmp_path, cfg)]) == 2
    assert "strictly increasing" in capsys.readouterr().err


def test_run_integrates_once_with_sign_conditions(tmp_path, monkeypatch):
    import isoflow.cli as cli
    import isoflow.flows as flows
    calls, integrate = [], flows.integrate

    def counted(*args, **kwargs):
        calls.append(kwargs.get("record_every"))
        return integrate(*args, **kwargs)
    monkeypatch.setattr(cli, "integrate", counted)
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
    cfg["checks"][0]["family"] = "laguerre"
    assert main(["run", _write(tmp_path, _with_out(cfg, tmp_path))]) == 0


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
])
def test_bad_run_configs_exit_2(tmp_path, capsys, mangle):
    cfg = json.loads(json.dumps(_with_out(RUN_CFG, tmp_path)))
    mangle(cfg)
    assert main(["run", _write(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err != ""


def test_missing_and_malformed_files_exit_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2


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


def test_verify_deterministic_report(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ISOFLOW_OUT", str(tmp_path / "a"))
    assert main(["verify", "--seed", "7"]) == 0
    monkeypatch.setenv("ISOFLOW_OUT", str(tmp_path / "b"))
    assert main(["verify", "--seed", "7"]) == 0
    capsys.readouterr()
    assert filecmp.cmp(tmp_path / "a" / "report.csv",
                       tmp_path / "b" / "report.csv", shallow=False)


def test_verify_row_names_unique():
    names = [r.name for r in run_verify()]
    assert len(names) == 81
    assert len(set(names)) == len(names)
    assert len(run_verify(only="mvk")) == 15
