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

from . import config as cfgmod
from .checks import (CHAIN_CHECKS, MVK_CHECKS, RUN_CHECKS, chain_checks,
                     command_row, mvk_checks, run_checks)
from .config import ConfigError, load_config
# ``integrate`` runs in ``checks``; the name stays bound here because
# bench/selftest.py reads ``cli.integrate`` after tracing
from .flows import IntegrationBlowupError, integrate, write_trajectory_csv  # noqa: F401
from .mvk import write_mvk_csv
from .report import (CheckResult, all_passed, check_result, guarded,
                     write_columns_csv, write_report_csv, write_spectrum_csv)
from .representations import ConfigurationError, ParameterError, check_compatible
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


def _results(checks, rows) -> list[CheckResult]:
    """The ``command_row`` of each check under ``guarded``: a numerical error
    is a failed row, an input error exits 2."""
    return [result for c, row in zip(checks, rows)
            for result in guarded(lambda: [command_row(c["name"], row())], c["name"],
                                  float(c["tolerance"]), _INPUT_ERRORS)]


def _cmd_run(path: str) -> int:
    cfg = load_config(path)
    alg = cfgmod.build_algebra(cfg.get("algebra"))
    rep = None
    if "representation" in cfg:
        rep = cfgmod.build_representation(cfg["representation"])
        check_compatible(rep, alg)
    state0, g, *grid = cfgmod.build_flow(cfg.get("flow"))
    checks = cfgmod.check_list(cfg, RUN_CHECKS)
    try:
        traj, spectra, rows = run_checks(alg, rep, state0, g, grid, checks)
    except IntegrationBlowupError as exc:
        return _report_blowup(cfgmod.output_dir(cfg), exc)
    outdir = cfgmod.output_dir(cfg)
    write_trajectory_csv(os.path.join(outdir, "trajectory.csv"), traj)
    if rep is not None:
        write_spectrum_csv(os.path.join(outdir, "spectrum.csv"), traj.t, spectra())
    return _finish(outdir, _results(checks, rows))


def _cmd_verify(only, seed) -> int:
    outdir = cfgmod.output_dir({})
    t0 = time.perf_counter()
    results = run_verify(only=only, seed=seed)
    elapsed = time.perf_counter() - t0
    code = _finish(outdir, results)
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed "
          f"in {elapsed:.2f}s")
    return code


def _write_chain_csv(path: str, traj) -> None:
    idx = range(1, traj.s.shape[1] + 1)
    write_columns_csv(path, ["t", *(f"s_{i}" for i in idx), *(f"r_{i}" for i in idx)],
                      [traj.t, *traj.s.T, *traj.r.T])


def _cmd_chain(path: str) -> int:
    cfg = load_config(path)
    state0, g, *grid = cfgmod.build_chain_flow(cfg)
    checks = cfgmod.check_list(cfg, CHAIN_CHECKS)
    try:
        traj, spectra, rows = chain_checks(state0, g, grid, checks)
    except IntegrationBlowupError as exc:
        return _report_blowup(cfgmod.output_dir(cfg), exc)
    outdir = cfgmod.output_dir(cfg)
    _write_chain_csv(os.path.join(outdir, "chain_trajectory.csv"), traj)
    write_spectrum_csv(os.path.join(outdir, "spectrum.csv"), traj.t, spectra())
    return _finish(outdir, _results(checks, rows))


def _cmd_mvk(path: str) -> int:
    cfg = load_config(path)
    state0 = cfgmod.build_chain_state(cfg.get("chain"))
    degree = cfgmod.integer(cfg.get("degree"), "degree", positive=True)
    checks = cfgmod.check_list(cfg, MVK_CHECKS)
    outdir = cfgmod.output_dir(cfg)

    def table_rows():
        table, rows = mvk_checks(state0, degree, checks)
        write_mvk_csv(os.path.join(outdir, "mvk.csv"), table)
        return _results(checks, rows)

    # the table carries 1 / (r_1 ... r_n) from the eigenvector polynomials:
    # one that overflows is one failed row and no mvk.csv, as a flow that
    # blows up is one failed integration row and no trajectory
    return _finish(outdir, guarded(table_rows, "table", 0.0, _INPUT_ERRORS))


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
    sub.add_parser("run", help="integrate a rank-1 flow from a JSON config").add_argument("config")
    p_verify = sub.add_parser("verify", help="run the built-in verification suite")
    p_verify.add_argument("--only", choices=sorted(GROUPS), default=None)
    p_verify.add_argument("--seed", type=_seed, default=cfgmod.DEFAULT_SEED)
    sub.add_parser("chain", help="integrate a chain flow from a JSON config").add_argument("config")
    p_mvk = sub.add_parser("mvk", help="expand a multivariate table from a JSON config")
    p_mvk.add_argument("config")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args.only, args.seed)
        return {"run": _cmd_run, "chain": _cmd_chain, "mvk": _cmd_mvk}[args.command](args.config)
    except ConfigError as exc:
        return _fail(str(exc))
    except (ValueError, KeyError, TypeError) as exc:
        return _fail(f"invalid configuration: {exc}")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
