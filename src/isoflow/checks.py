"""The registries of ``isoflow run``, ``chain`` and ``mvk``: the only code
that computes a command's rows and the rows of ``isoflow verify`` that a
command also reports.  An entry ``entry(ccfg, **setup)`` validates the
options of the configured check ``ccfg`` before anything runs and returns
``row(**computed)``, the check's components as rows at its tolerance: a
command writes their ``command_row``, verify one row each under its names.
``run_checks``, ``chain_checks`` and ``mvk_checks`` return what they built
and one such function per check, which the caller computes under its guard.
``run_checks`` and ``chain_checks`` also return ``spectra``, the cached
solve of the flow's recorded samples: the drift row and the command's
``spectrum.csv`` both read it, so each recorded state is solved once.
"""
from __future__ import annotations

import functools
import math

from . import config as cfgmod
from .chain import (build_chain_L, chain_isospectrality_drift, christoffel_weights,
                    integrate_chain, spectrum_sum, trace_flow_drift,
                    trace_invariants)
from .config import ConfigError
from .families import FAMILIES, FamilyTag, check_modification, parameter_map
from .flows import check_sign_conditions, g_at, integrate, modification_report
from .mvk import TABLE_CHECKS, mvk_table
from .report import CheckResult, check_result
from .representations import build_L, lax_entries, lax_residual, lax_rows
from .spectral import (compared_eigenvalues, isospectrality_drift, path_eigenvalues,
                       recurrence_residual, scaled_tolerance)


def _parts(ccfg, note="", direction="<=", tolerance=None, **parts) -> list[CheckResult]:
    """The rows of the named components ``parts`` of the configured check
    ``ccfg``, at its tolerance unless ``tolerance`` is given."""
    tolerance = float(ccfg["tolerance"]) if tolerance is None else tolerance
    return [check_result(f"{ccfg['name']}_{key}", value, tolerance, direction, note)
            for key, value in parts.items()]


def command_row(name: str, parts: list[CheckResult]) -> CheckResult:
    """The row ``name`` of a command's check: the max of its components (NaN
    if one is), passing when they all pass."""
    values = [p.value for p in parts]
    value = math.nan if any(map(math.isnan, values)) else max(values)
    return CheckResult(name, value, parts[0].tolerance, all(p.passed for p in parts),
                       parts[0].note)


def _int_option(ccfg, key, default):
    """A positive integer option of a check (``None`` stays ``None``)."""
    value = ccfg.get(key, default)
    if value is None:
        return None
    return cfgmod.integer(value, f"check '{ccfg['name']}': {key}", positive=True)


def _need_rep(ccfg, rep) -> None:
    if rep is None:
        raise ConfigError(f"check '{ccfg['name']}' needs a representation block")


def _family(ccfg) -> FamilyTag:
    if ccfg.get("family") not in FAMILIES:
        raise ConfigError(f"check '{ccfg['name']}' needs a known 'family' name")
    return FamilyTag(ccfg["family"])


# isoflow run: setup (alg, rep, state0, g, initial_L), computed (traj, full, spectra)


def _lax_residual(ccfg, *, alg, rep, state0, g, initial_L, **_):
    _need_rep(ccfg, rep)
    op = initial_L()
    lax_rows(op)
    # u = g(t0) r0, the first sample's: the residual integrates nothing
    u0 = g_at(g, state0.t) * state0.r
    return lambda **_: _parts(ccfg, residual=lax_residual(
        rep, alg, state0.r, state0.s, u0, L=op))


def _invariant_drift(ccfg, **_):
    return lambda *, traj, **_: _parts(ccfg, drift=traj.invariant_drift())


def _sign_conditions(ccfg, **_):
    def row(*, full, **_):
        report = check_sign_conditions(full)
        note = (f"sigma_required={report.sigma_required:+d} "
                f"sigma_given={report.sigma_given:+d} "
                f"min_r={report.min_r:.3g} min_s={report.min_s:.3g}")
        # the verdict is the sign report's; the value only records it
        return [CheckResult(ccfg["name"], 0.0 if report.passed else 1.0,
                            float(ccfg["tolerance"]), report.passed, note)]
    return row


def _isospectrality_drift(ccfg, *, rep, **_):
    _need_rep(ccfg, rep)
    mode = ccfg.get("mode", "all")
    count = _int_option(ccfg, "count", None)
    compared_eigenvalues(rep, mode, count)
    return lambda *, spectra, **_: _parts(
        ccfg, f"mode={mode}", drift=isospectrality_drift(spectra(), rep, mode=mode, count=count))


def _modification(ccfg, *, alg, state0, **_):
    family = _family(ccfg)
    check_modification(family, alg, state0.r, state0.s)

    def row(*, traj, **_):
        report = modification_report(traj, family)
        note = f"K_empirical={report.K_empirical:.9g} K_expected={report.K_expected:.9g}"
        return _parts(ccfg, note, constancy=report.max_constancy_deviation,
                      closed_form=report.closed_form_max_error,
                      rate=abs(report.K_empirical - report.K_expected))
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

    # the row takes the points it is handed (verify's), by default the family's
    def row(*, points=FAMILIES[family].points(count), **_):
        worst = recurrence_residual(family, rep, alg, state0.r, state0.s, points, L=op)
        return _parts(ccfg, f"family={family.value}; tolerance scaled by 1+|L|_inf{capped}",
                      tolerance=scaled_tolerance(float(ccfg["tolerance"]), op), residual=worst)
    return row


RUN_CHECKS = {"lax_residual": _lax_residual, "invariant_drift": _invariant_drift,
              "sign_conditions": _sign_conditions, "isospectrality_drift": _isospectrality_drift,
              "modification": _modification, "diagonalization": _diagonalization}


def run_checks(alg, rep, state0, g, grid, checks, **computed):
    """The flow of ``alg`` from ``state0`` under the coupling ``g`` on the
    grid ``(dt, t_end, record_every)`` (None, and nothing integrated, with
    no grid), the cached spectra of L on ``rep`` at its recorded samples and
    the row function of each check, handed ``computed``."""
    # L at the initial state, built once for the checks that read it
    initial_L = functools.cache(lambda: build_L(rep, alg, state0.r, state0.s))
    rows = [RUN_CHECKS[c["name"]](c, alg=alg, rep=rep, state0=state0, g=g,
                                  initial_L=initial_L) for c in checks]
    traj = full = None
    if grid is not None:
        dt, t_end, record_every = grid
        # sign_conditions reads the flow at every step: integrate it once at
        # that resolution and take the recorded samples from its rows
        every_step = any(c["name"] == "sign_conditions" for c in checks)
        traj = integrate(alg, state0, g, dt, t_end,
                         record_every=1 if every_step else record_every)
        if every_step:
            full, traj = traj, traj.every(record_every)
    spectra = functools.cache(lambda: path_eigenvalues(
        *lax_entries(rep, alg, traj.r[:, None], traj.s[:, None])))
    return traj, spectra, [functools.partial(row, traj=traj, full=full, spectra=spectra,
                                             **computed) for row in rows]


# isoflow chain: setup (state0, invariants), computed (traj, spectra)
_TRACES = ("tr2", "tr3", "tr4")


def _spectrum_sum(ccfg, *, state0, **_):
    return lambda **_: _parts(ccfg, sum=spectrum_sum(state0))


def _orthogonality(ccfg, *, state0, **_):
    return lambda **_: _parts(ccfg, **dict(zip(
        ("primal", "dual"), christoffel_weights(state0).orthogonality())))


def _trace_closed_vs_dense(ccfg, *, invariants, **_):
    return lambda **_: _parts(ccfg, **dict(zip(_TRACES, invariants().closed_vs_dense)))


def _trace_flow_drift(ccfg, **_):
    return lambda *, traj, **_: _parts(ccfg, **dict(zip(_TRACES, trace_flow_drift(traj))))


def _tr2_variant_detected(ccfg, *, invariants, **_):
    return lambda **_: _parts(ccfg, "variant lacking the factor 2 on sum r_i^2", ">",
                              gap=invariants().variant_gap)


def _chain_isospectrality_drift(ccfg, **_):
    return lambda *, spectra, **_: _parts(ccfg, drift=chain_isospectrality_drift(spectra()))


CHAIN_CHECKS = {"spectrum_sum": _spectrum_sum, "orthogonality": _orthogonality,
                "trace_closed_vs_dense": _trace_closed_vs_dense,
                "trace_flow_drift": _trace_flow_drift,
                "tr2_variant_detected": _tr2_variant_detected,
                "isospectrality_drift": _chain_isospectrality_drift}


def chain_checks(state0, g, grid, checks):
    """The chain flow from ``state0`` under ``g`` on the grid ``(dt, t_end,
    record_every)``, the cached spectra of its samples and the row function
    of each check."""
    # the trace invariants of state0, computed once for the checks that read them
    invariants = functools.cache(lambda: trace_invariants(state0))
    rows = [CHAIN_CHECKS[c["name"]](c, state0=state0, invariants=invariants) for c in checks]
    dt, t_end, record_every = grid
    traj = integrate_chain(state0, g, dt, t_end, record_every=record_every)
    spectra = functools.cache(lambda: path_eigenvalues(*build_chain_L(traj)))
    return traj, spectra, [functools.partial(row, traj=traj, spectra=spectra) for row in rows]


# isoflow mvk: no setup, computed (table, state0)


def _table_check(ccfg, **_):
    return lambda *, table, state0: _parts(
        ccfg, residual=TABLE_CHECKS[ccfg["name"]](table, state0))


MVK_CHECKS = dict.fromkeys(TABLE_CHECKS, _table_check)


def mvk_checks(state0, degree, checks):
    """The degree-``degree`` table of ``state0`` and the row function of each
    check."""
    rows = [MVK_CHECKS[c["name"]](c) for c in checks]
    table = mvk_table(state0, degree)
    return table, [functools.partial(row, table=table, state0=state0) for row in rows]
