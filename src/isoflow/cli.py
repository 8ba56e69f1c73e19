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
import functools
import math
import os
import sys
import time

import numpy as np

from . import config as cfgmod
from .chain import (chain_isospectrality_drift, chain_path_eigenvalues,
                    christoffel_weights, integrate_chain, spectrum_sum,
                    trace_flow_drift, trace_invariants)
from .config import ConfigError, load_config
from .families import FAMILIES, FamilyTag, parameter_map
from .flows import (IntegrationBlowupError, check_modification,
                    check_sign_conditions, integrate, modification_report,
                    write_trajectory_csv)
from .mvk import TABLE_CHECKS, mvk_table, write_mvk_csv
from .report import (CheckResult, all_passed, check_result, guarded,
                     write_columns_csv, write_report_csv, write_spectrum_csv)
from .representations import (ConfigurationError, ParameterError, build_L,
                              check_compatible, lax_residual, lax_rows)
from .spectral import (compared_eigenvalues, isospectrality_drift,
                       path_eigenvalues, recurrence_residual, scaled_tolerance)
from .verify import GROUPS, run_verify

# errors in the input: they exit 2 instead of becoming failed rows
_INPUT_ERRORS = (ConfigError, ParameterError, ConfigurationError)


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _finish(outdir: str, results: list[CheckResult]) -> int:
    """Write report.csv, print one PASS/FAIL line per row with its margin
    (value / tolerance), return the exit code."""
    write_report_csv(os.path.join(outdir, "report.csv"), results)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        line = (f"{status}  {res.name}  value={res.value:.6g}  "
                f"tol={res.tolerance:.6g}  margin={res.margin:.6g}")
        if res.note:
            line += f"  ({res.note})"
        print(line)
    return 0 if all_passed(results) else 1


def _report_blowup(outdir: str, exc: IntegrationBlowupError) -> int:
    """One failed ``integration`` row in place of the configured checks."""
    return _finish(outdir, [check_result(
        "integration", math.inf, 0.0,
        note=f"{exc}; last good sample at t={exc.last_state.t:.6g}")])


def _row(ccfg, value, note="", direction="<=") -> CheckResult:
    """The row of the configured check ``ccfg``."""
    return check_result(ccfg["name"], value, float(ccfg["tolerance"]), direction, note)


def _results(checks, computes, **inputs) -> list[CheckResult]:
    """One row per configured check, ``compute(**inputs)`` of its entry in
    ``computes`` under ``guarded``: a numerical error is a failed row, an
    input error exits 2."""
    return [row for c, compute in zip(checks, computes)
            for row in guarded(lambda: [compute(**inputs)], c["name"],
                               float(c["tolerance"]), _INPUT_ERRORS)]


def _computes(checks, registry) -> list:
    """The row function of each check of a registry whose checks read no
    option but their tolerance."""
    return [functools.partial(registry[c["name"]], c) for c in checks]


def _int_option(ccfg, key, default):
    """A positive integer option of a check (``None`` stays ``None``)."""
    value = ccfg.get(key, default)
    if value is None:
        return None
    return cfgmod.integer(value, f"check '{ccfg['name']}': {key}", positive=True)


# ---------------------------------------------------------------------------
# isoflow run


def _need_rep(ccfg, rep) -> None:
    if rep is None:
        raise ConfigError(f"check '{ccfg['name']}' needs a representation block")


def _family(ccfg) -> FamilyTag:
    if ccfg.get("family") not in FAMILIES:
        raise ConfigError(f"check '{ccfg['name']}' needs a known 'family' name")
    return FamilyTag(ccfg["family"])


# Each entry of _RUN reads and validates its check's options from the inputs
# known before the flow is integrated, and returns the function that
# computes the row from the integrated flow; so a rejected option exits 2
# before anything runs or is written.


def _lax_residual(ccfg, *, rep, initial_L, **_):
    _need_rep(ccfg, rep)
    op = initial_L()
    lax_rows(op)

    def row(*, traj, **_):
        return _row(ccfg, lax_residual(rep, traj.alg, traj.r[0], traj.s[0],
                                       traj.u[0], L=op))
    return row


def _invariant_drift(ccfg, **_):
    return lambda *, traj, **_: _row(ccfg, traj.invariant_drift())


def _sign_conditions(ccfg, **_):
    def row(*, full, **_):
        report = check_sign_conditions(full)
        note = (f"sigma_required={report.sigma_required:+d} "
                f"sigma_given={report.sigma_given:+d} "
                f"min_r={report.min_r:.3g} min_s={report.min_s:.3g}")
        # the verdict is the sign report's; the value only records it
        return CheckResult(ccfg["name"], 0.0 if report.passed else 1.0,
                           float(ccfg["tolerance"]), report.passed, note)
    return row


def _isospectrality_drift(ccfg, *, rep, **_):
    _need_rep(ccfg, rep)
    mode = ccfg.get("mode", "all")
    count = _int_option(ccfg, "count", None)
    compared_eigenvalues(rep, mode, count)

    def row(*, traj, **_):
        value = isospectrality_drift(traj, rep, mode=mode, count=count)
        return _row(ccfg, value, f"mode={mode}")
    return row


def _modification(ccfg, *, alg, state0, **_):
    family = _family(ccfg)
    check_modification(family, alg, state0.r, state0.s)

    def row(*, traj, **_):
        report = modification_report(traj, family)
        note = f"K_empirical={report.K_empirical:.9g}"
        if report.K_expected is not None:
            note += f" K_expected={report.K_expected:.9g}"
        return _row(ccfg, max(report.max_constancy_deviation,
                              report.closed_form_max_error), note)
    return row


def _diagonalization(ccfg, *, alg, rep, state0, initial_L, **_):
    _need_rep(ccfg, rep)
    family = _family(ccfg)
    count = _int_option(ccfg, "points", 10)
    parameter_map(family, rep, alg, state0.r, state0.s)
    op = initial_L()
    lax_rows(op)
    capped = ""
    # a window exact at both edges is the whole finite lattice: points past
    # its size are off the spectrum and the residual there means nothing
    if op.lo_exact and op.hi_exact and count > op.size:
        count = op.size
        capped = f"; points capped at the {count} lattice points"
    points = FAMILIES[family].points(count)

    def row(**_):
        worst = recurrence_residual(family, rep, alg, state0.r, state0.s, points, L=op)
        note = f"family={family.value}; tolerance scaled by 1+|L|_inf{capped}"
        if not math.isfinite(worst):
            note += "; residual non-finite because the closed-form components overflowed"
        return check_result(ccfg["name"], worst,
                            scaled_tolerance(float(ccfg["tolerance"]), op), note=note)
    return row


_RUN = {
    "lax_residual": _lax_residual,
    "invariant_drift": _invariant_drift,
    "sign_conditions": _sign_conditions,
    "isospectrality_drift": _isospectrality_drift,
    "modification": _modification,
    "diagonalization": _diagonalization,
}
RUN_CHECKS = tuple(_RUN)


def _cmd_run(path: str) -> int:
    cfg = load_config(path)
    alg = cfgmod.build_algebra(cfg.get("algebra"))
    rep = None
    if "representation" in cfg:
        rep = cfgmod.build_representation(cfg["representation"])
        check_compatible(rep, alg)
    state0, g, dt, t_end, record_every = cfgmod.build_flow(cfg.get("flow"))
    checks = cfgmod.check_list(cfg, RUN_CHECKS)
    # L at the initial state, built once for the checks that read it
    initial_L = functools.cache(lambda: build_L(rep, alg, state0.r, state0.s))
    computes = [_RUN[c["name"]](c, alg=alg, rep=rep, state0=state0, initial_L=initial_L)
                for c in checks]
    outdir = cfgmod.output_dir(cfg)

    # sign_conditions reads the flow at every step: integrate it once at
    # that resolution and take the recorded samples from its rows
    every_step = any(c["name"] == "sign_conditions" for c in checks)
    try:
        traj = integrate(alg, state0, g, dt, t_end,
                         record_every=1 if every_step else record_every)
    except IntegrationBlowupError as exc:
        return _report_blowup(outdir, exc)
    full = None
    if every_step:
        full, traj = traj, traj.every(record_every)

    write_trajectory_csv(os.path.join(outdir, "trajectory.csv"), traj)
    if rep is not None:
        write_spectrum_csv(os.path.join(outdir, "spectrum.csv"), traj.t,
                           path_eigenvalues(rep, alg, traj.r, traj.s))

    return _finish(outdir, _results(checks, computes, traj=traj, full=full))


# ---------------------------------------------------------------------------
# isoflow verify


def _cmd_verify(only, seed) -> int:
    outdir = cfgmod.output_dir({})
    t0 = time.perf_counter()
    results = run_verify(only=only, seed=seed)
    elapsed = time.perf_counter() - t0
    code = _finish(outdir, results)
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed "
          f"in {elapsed:.2f}s")
    return code


# ---------------------------------------------------------------------------
# isoflow chain


def _write_chain_csv(path: str, traj) -> None:
    idx = range(1, traj.s.shape[1] + 1)
    write_columns_csv(path, ["t", *(f"s_{i}" for i in idx), *(f"r_{i}" for i in idx)],
                      [traj.t, *traj.s.T, *traj.r.T])


def _poly_row(ccfg, compute) -> CheckResult:
    """The row of a check computed from the eigenvector polynomials.  They
    carry 1 / (r_1 ... r_n), so a chain with tiny r_i overflows them, its
    weights and any table built on them: such a value fails with a note
    saying so, where numpy's warnings would only repeat it on stderr."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = compute()
    return _row(ccfg, value, "" if math.isfinite(value) else
                "non-finite because the eigenvector polynomials overflowed")


_CHAIN = {
    "spectrum_sum": lambda ccfg, *, state0, **_: _row(ccfg, spectrum_sum(state0)),
    "orthogonality": lambda ccfg, *, state0, **_: _poly_row(
        ccfg, lambda: max(christoffel_weights(state0).orthogonality())),
    "trace_closed_vs_dense": lambda ccfg, *, state0, **_: _row(
        ccfg, trace_invariants(state0).closed_vs_dense.max()),
    "trace_flow_drift": lambda ccfg, *, traj, **_: _row(ccfg, trace_flow_drift(traj).max()),
    "tr2_variant_detected": lambda ccfg, *, state0, **_: _row(
        ccfg, trace_invariants(state0).variant_gap,
        "variant lacking the factor 2 on sum r_i^2", ">"),
    "isospectrality_drift": lambda ccfg, *, traj, **_: _row(
        ccfg, chain_isospectrality_drift(traj)),
}
CHAIN_CHECKS = tuple(_CHAIN)


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
    write_spectrum_csv(os.path.join(outdir, "spectrum.csv"), traj.t,
                       chain_path_eigenvalues(traj))
    return _finish(outdir, _results(checks, _computes(checks, _CHAIN),
                                    state0=state0, traj=traj))


# ---------------------------------------------------------------------------
# isoflow mvk


def _mvk_row(ccfg, *, table, state0):
    return _poly_row(ccfg, lambda: TABLE_CHECKS[ccfg["name"]](table, state0))


_MVK = dict.fromkeys(TABLE_CHECKS, _mvk_row)
MVK_CHECKS = tuple(_MVK)


def _cmd_mvk(path: str) -> int:
    cfg = load_config(path)
    state0 = cfgmod.build_chain_state(cfg.get("chain"))
    degree = cfgmod.integer(cfg.get("degree"), "degree", positive=True)
    checks = cfgmod.check_list(cfg, MVK_CHECKS)
    outdir = cfgmod.output_dir(cfg)

    with np.errstate(over="ignore", invalid="ignore"):  # see _poly_row
        table = mvk_table(state0, degree)
    write_mvk_csv(os.path.join(outdir, "mvk.csv"), table)
    return _finish(outdir, _results(checks, _computes(checks, _MVK),
                                    table=table, state0=state0))


# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: a parser is a web
    of reference cycles, so one built per ``main`` call would be garbage
    only the cyclic collector frees."""
    parser = argparse.ArgumentParser(
        prog="isoflow",
        description="Isospectral tridiagonal flows and their orthogonal "
                    "eigenfunction checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a rank-1 flow from a JSON config")
    p_run.add_argument("config")

    p_verify = sub.add_parser("verify", help="run the built-in verification suite")
    p_verify.add_argument("--only", choices=sorted(GROUPS), default=None)
    p_verify.add_argument("--seed", type=_seed, default=cfgmod.DEFAULT_SEED)

    p_chain = sub.add_parser("chain", help="integrate a chain flow from a JSON config")
    p_chain.add_argument("config")

    p_mvk = sub.add_parser("mvk", help="expand a multivariate table from a JSON config")
    p_mvk.add_argument("config")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
