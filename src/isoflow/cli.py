"""Command line entry points.

    isoflow run <config.json>     integrate a rank-1 flow, write trajectory /
                                  spectrum / report CSVs, exit 0 (all checks
                                  pass), 1 (a numerical check failed) or
                                  2 (malformed config)
    isoflow verify [--only G]     run the built-in verification suite
    isoflow chain <config.json>   integrate a chain flow and its checks
    isoflow mvk <config.json>     expand a multivariate table and its checks

Output locations come from the config's output.dir and are overridden by the
ISOFLOW_OUT environment variable.  All CSV writers format floats with 17
significant digits and iterate in fixed order, so identical configs (and
seeds) produce byte-identical files.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import config as cfgmod
from .chain import (chain_isospectrality_drift, chain_spectrum,
                    christoffel_weights, integrate_chain, trace_invariants)
from .config import ConfigError, load_config
from .families import FamilyTag
from .flows import (IntegrationBlowupError, check_sign_conditions, integrate,
                    modification_report, write_trajectory_csv)
from .mvk import (degree_one_residual, mvk_orthogonality_check,
                  mvk_recurrence_check, mvk_table, write_mvk_csv)
from .operators import TridiagonalOperator
from .report import (CheckResult, all_passed, write_report_csv,
                     write_spectrum_csv)
from .representations import (ConfigurationError, ParameterError, build_L,
                              check_compatible, lax_residual)
from .spectral import eigs_sym_tridiag, isospectrality_drift, recurrence_residual
from .verify import GROUPS, run_verify

RUN_CHECKS = (
    "lax_residual",
    "invariant_drift",
    "sign_conditions",
    "isospectrality_drift",
    "modification",
    "diagonalization",
)

CHAIN_CHECKS = (
    "spectrum_sum",
    "orthogonality",
    "trace_closed_vs_dense",
    "trace_flow_drift",
    "tr2_variant_detected",
    "isospectrality_drift",
)

MVK_CHECKS = (
    "base_entry",
    "orthogonality",
    "dual_orthogonality",
    "recurrence",
    "degree_one_match",
)

_FAMILY_NAMES = {tag.value: tag for tag in FamilyTag}


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _print_results(results) -> None:
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        line = f"{status}  {res.name}  value={res.value:.6g}  tol={res.tolerance:.6g}"
        if res.note:
            line += f"  ({res.note})"
        print(line)


def _report_blowup(outdir: str, exc: IntegrationBlowupError) -> int:
    """One failed ``integration`` row in place of the configured checks."""
    results = [CheckResult("integration", float("inf"), 0.0, False,
                           f"{exc}; last good sample at t={exc.last_state.t:.6g}")]
    write_report_csv(os.path.join(outdir, "report.csv"), results)
    _print_results(results)
    return 1


# ---------------------------------------------------------------------------
# isoflow run


def _spectral_points(family: FamilyTag, count: int) -> np.ndarray:
    """Family-appropriate spectral sample points (in the family variable)."""
    if family in (FamilyTag.KRAWTCHOUK, FamilyTag.MEIXNER, FamilyTag.CHARLIER):
        return np.arange(count, dtype=float)
    if family is FamilyTag.LAGUERRE:
        return np.linspace(0.3, 9.0, count)
    if family is FamilyTag.BESSEL:
        return np.arange(count, dtype=float) - count // 2
    return np.linspace(-4.0, 4.0, count)  # Meixner-Pollaczek, Hermite, Meixner functions


def _check_rows(op: TridiagonalOperator, limit: int = 24) -> list[int]:
    """The interior rows of the window, the first and last ``limit // 2``
    of them when there are more than ``limit``."""
    rows = list(op.interior_rows())
    if len(rows) > limit:
        rows = rows[: limit // 2] + rows[-limit // 2:]
    return rows


def _guarded(check, name, ccfg, **inputs) -> CheckResult:
    """``check(name, ccfg, **inputs)``; a numerical error raised while it
    computes is a failed row with value NaN and the reason in its note.
    Errors in the input (ConfigError, ParameterError, ConfigurationError)
    still propagate, to exit 2."""
    try:
        return check(name, ccfg, **inputs)
    except (ConfigError, ParameterError, ConfigurationError):
        raise
    except (ArithmeticError, ValueError) as exc:
        return CheckResult(name, float("nan"), float(ccfg["tolerance"]), False,
                           f"{type(exc).__name__}: {exc}")


def _int_option(ccfg, key, default):
    """A positive integer option of a check (``None`` stays ``None``)."""
    value = ccfg.get(key, default)
    if value is None:
        return None
    try:
        value = int(value)
    except (TypeError, ValueError):
        value = 0
    if value < 1:
        raise ConfigError(f"check '{ccfg['name']}': {key} must be a positive integer")
    return value


def _run_check(name, ccfg, *, alg, rep, state0, policy, traj, full, dt, t_end):
    tol = float(ccfg["tolerance"])
    if name == "lax_residual":
        if rep is None:
            raise ConfigError("check 'lax_residual' needs a representation block")
        u0 = policy(state0.t, state0.r)
        value = lax_residual(rep, alg, state0.r, state0.s, u0)
        return CheckResult(name, value, tol, value <= tol)
    if name == "invariant_drift":
        inv = np.asarray(traj.invariant)
        value = float(np.max(np.abs(inv - inv[0]))) / max(1.0, abs(inv[0]))
        return CheckResult(name, value, tol, value <= tol)
    if name == "sign_conditions":
        rep_report = check_sign_conditions(alg, state0, policy, dt=dt, t_end=t_end,
                                           traj=full)
        value = 0.0 if rep_report.passed else 1.0
        note = (f"sigma_required={rep_report.sigma_required:+d} "
                f"sigma_given={rep_report.sigma_given:+d} "
                f"min_r={rep_report.min_r:.3g} min_s={rep_report.min_s:.3g}")
        return CheckResult(name, value, tol, rep_report.passed, note)
    if name == "isospectrality_drift":
        if rep is None:
            raise ConfigError("check 'isospectrality_drift' needs a representation block")
        mode = ccfg.get("mode", "all")
        if mode not in ("all", "lowest", "central"):
            raise ConfigError(f"check '{name}': unknown mode {mode!r}")
        count = _int_option(ccfg, "count", None)
        value = isospectrality_drift(traj, rep, alg, mode=mode, count=count)
        return CheckResult(name, value, tol, value <= tol, f"mode={mode}")
    if name == "modification":
        fam_name = ccfg.get("family")
        if fam_name not in _FAMILY_NAMES:
            raise ConfigError("check 'modification' needs a known 'family' name")
        rep_report = modification_report(alg, traj, _FAMILY_NAMES[fam_name])
        value = max(rep_report.max_constancy_deviation,
                    rep_report.closed_form_max_error)
        note = f"K_empirical={rep_report.K_empirical:.9g}"
        if rep_report.K_expected is not None:
            note += f" K_expected={rep_report.K_expected:.9g}"
        return CheckResult(name, value, tol, value <= tol, note)
    if name == "diagonalization":
        if rep is None:
            raise ConfigError("check 'diagonalization' needs a representation block")
        fam_name = ccfg.get("family")
        if fam_name not in _FAMILY_NAMES:
            raise ConfigError("check 'diagonalization' needs a known 'family' name")
        family = _FAMILY_NAMES[fam_name]
        count = _int_option(ccfg, "points", 10)
        op = build_L(rep, alg, state0.r, state0.s)
        worst = recurrence_residual(family, rep, alg, state0.r, state0.s,
                                    _check_rows(op), _spectral_points(family, count))
        scaled = tol * (1.0 + op.inf_norm())
        return CheckResult(name, worst, scaled, worst <= scaled,
                           f"family={fam_name}; tolerance scaled by 1+|L|_inf")
    raise ConfigError(f"unknown check '{name}'")


def _cmd_run(path: str) -> int:
    cfg = load_config(path)
    alg = cfgmod.build_algebra(cfg.get("algebra"))
    rep = None
    if "representation" in cfg:
        rep = cfgmod.build_representation(cfg["representation"])
        check_compatible(rep, alg)
    state0, policy, dt, t_end, record_every = cfgmod.build_flow(cfg.get("flow"))
    checks = cfgmod.check_list(cfg, RUN_CHECKS)
    outdir = cfgmod.output_dir(cfg)

    # sign_conditions reads the flow at every step: integrate it once at
    # that resolution and take the recorded samples from its rows
    every_step = any(c["name"] == "sign_conditions" for c in checks)
    try:
        traj = integrate(alg, state0, policy, dt, t_end,
                         record_every=1 if every_step else record_every)
    except IntegrationBlowupError as exc:
        return _report_blowup(outdir, exc)
    full = None
    if every_step:
        full, traj = traj, traj.every(record_every)

    write_trajectory_csv(os.path.join(outdir, "trajectory.csv"), traj)
    if rep is not None:
        spectra = [eigs_sym_tridiag(build_L(rep, alg, st.r, st.s)).eigenvalues
                   for st in map(traj.state, range(len(traj)))]
        write_spectrum_csv(os.path.join(outdir, "spectrum.csv"), traj.t, spectra)

    results = [_guarded(_run_check, c["name"], c, alg=alg, rep=rep, state0=state0,
                        policy=policy, traj=traj, full=full, dt=dt, t_end=t_end)
               for c in checks]
    write_report_csv(os.path.join(outdir, "report.csv"), results)
    _print_results(results)
    return 0 if all_passed(results) else 1


# ---------------------------------------------------------------------------
# isoflow verify


def _cmd_verify(only, seed) -> int:
    t0 = time.perf_counter()
    results = run_verify(only=only, seed=seed)
    elapsed = time.perf_counter() - t0
    outdir = cfgmod.output_dir({})
    write_report_csv(os.path.join(outdir, "report.csv"), results)
    _print_results(results)
    n_fail = sum(1 for r in results if not r.passed)
    print(f"{len(results) - n_fail}/{len(results)} checks passed "
          f"in {elapsed:.2f}s")
    return 0 if n_fail == 0 else 1


# ---------------------------------------------------------------------------
# isoflow chain


def _write_chain_csv(path: str, traj) -> None:
    d = traj.s.shape[1]
    cols = ["t"] + [f"s_{i}" for i in range(1, d + 1)] + \
        [f"r_{i}" for i in range(1, d + 1)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(len(traj.t)):
            row = [traj.t[i], *traj.s[i], *traj.r[i]]
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def _chain_check(name, ccfg, *, state0, traj):
    tol = float(ccfg["tolerance"])
    if name == "spectrum_sum":
        value = abs(float(np.sum(chain_spectrum(state0))))
        return CheckResult(name, value, tol, value <= tol)
    if name == "orthogonality":
        cw = christoffel_weights(state0)
        q = cw.Q
        eye = np.eye(q.shape[0])
        value = max(float(np.max(np.abs(q.T @ q - eye))),
                    float(np.max(np.abs(q @ q.T - eye))))
        return CheckResult(name, value, tol, value <= tol)
    if name == "trace_closed_vs_dense":
        ti = trace_invariants(state0)
        value = max(
            abs(ti.tr2 - ti.tr2_dense) / max(1.0, abs(ti.tr2_dense)),
            abs(ti.tr3 - ti.tr3_dense) / max(1.0, abs(ti.tr3_dense)),
            abs(ti.tr4 - ti.tr4_dense) / max(1.0, abs(ti.tr4_dense)))
        return CheckResult(name, value, tol, value <= tol)
    if name == "trace_flow_drift":
        base = trace_invariants(state0)
        ref = (base.tr2_dense, base.tr3_dense, base.tr4_dense)
        value = 0.0
        for i in range(len(traj.t)):
            ti = trace_invariants(traj.state(i))
            now = (ti.tr2_dense, ti.tr3_dense, ti.tr4_dense)
            for a, b in zip(now, ref):
                value = max(value, abs(a - b) / max(1.0, abs(b)))
        return CheckResult(name, value, tol, value <= tol)
    if name == "tr2_variant_detected":
        ti = trace_invariants(state0)
        value = abs(ti.tr2_unit_variant - ti.tr2_dense)
        return CheckResult(
            name, value, tol, value > tol,
            "variant lacking the factor 2 on sum r_i^2; pass iff value > tolerance")
    if name == "isospectrality_drift":
        value = chain_isospectrality_drift(traj)
        return CheckResult(name, value, tol, value <= tol)
    raise ConfigError(f"unknown check '{name}'")


def _cmd_chain(path: str) -> int:
    cfg = load_config(path)
    state0, g, dt, t_end, record_every = cfgmod.build_chain_flow(cfg)
    checks = cfgmod.check_list(cfg, CHAIN_CHECKS)
    outdir = cfgmod.output_dir(cfg)

    try:
        traj = integrate_chain(state0, g, dt, t_end, record_every=record_every)
    except IntegrationBlowupError as exc:
        return _report_blowup(outdir, exc)
    _write_chain_csv(os.path.join(outdir, "chain_trajectory.csv"), traj)
    spectra = [chain_spectrum(traj.state(i)) for i in range(len(traj.t))]
    write_spectrum_csv(os.path.join(outdir, "spectrum.csv"), traj.t, spectra)

    results = [_guarded(_chain_check, c["name"], c, state0=state0, traj=traj)
               for c in checks]
    write_report_csv(os.path.join(outdir, "report.csv"), results)
    _print_results(results)
    return 0 if all_passed(results) else 1


# ---------------------------------------------------------------------------
# isoflow mvk


def _mvk_check(name, ccfg, *, table, state0):
    tol = float(ccfg["tolerance"])
    if name == "base_entry":
        base = tuple([table.N] + [0] * table.d)
        worst = max(abs(table.P(base, rho) - 1.0) for rho in table.indices)
        return CheckResult(name, worst, tol, worst <= tol,
                           "leading entry fixed to one")
    if name in ("orthogonality", "dual_orthogonality"):
        primal, dual = mvk_orthogonality_check(table)
        value = primal if name == "orthogonality" else dual
        return CheckResult(name, value, tol, value <= tol)
    if name == "recurrence":
        value = mvk_recurrence_check(table, state0)
        return CheckResult(name, value, tol, value <= tol)
    if name == "degree_one_match":
        t1 = mvk_table(state0, 1) if table.N != 1 else table
        value = degree_one_residual(t1, state0)
        return CheckResult(name, value, tol, value <= tol)
    raise ConfigError(f"unknown check '{name}'")


def _cmd_mvk(path: str) -> int:
    cfg = load_config(path)
    state0 = cfgmod.build_chain_state(cfg.get("chain"))
    degree = cfg.get("degree")
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise ConfigError("'degree' must be a positive integer")
    checks = cfgmod.check_list(cfg, MVK_CHECKS)
    outdir = cfgmod.output_dir(cfg)

    table = mvk_table(state0, degree)
    write_mvk_csv(os.path.join(outdir, "mvk.csv"), table)
    results = [_guarded(_mvk_check, c["name"], c, table=table, state0=state0)
               for c in checks]
    write_report_csv(os.path.join(outdir, "report.csv"), results)
    _print_results(results)
    return 0 if all_passed(results) else 1


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="isoflow",
        description="Isospectral tridiagonal flows and their orthogonal "
                    "eigenfunction checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a rank-1 flow from a JSON config")
    p_run.add_argument("config")

    p_verify = sub.add_parser("verify", help="run the built-in verification suite")
    p_verify.add_argument("--only", choices=sorted(GROUPS), default=None)
    p_verify.add_argument("--seed", type=int, default=cfgmod.DEFAULT_SEED)

    p_chain = sub.add_parser("chain", help="integrate a chain flow from a JSON config")
    p_chain.add_argument("config")

    p_mvk = sub.add_parser("mvk", help="expand a multivariate table from a JSON config")
    p_mvk.add_argument("config")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args.config)
        if args.command == "verify":
            return _cmd_verify(args.only, args.seed)
        if args.command == "chain":
            return _cmd_chain(args.config)
        return _cmd_mvk(args.config)
    except ConfigError as exc:
        return _fail(str(exc))
    except (ValueError, KeyError, TypeError) as exc:
        return _fail(f"invalid configuration: {exc}")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
