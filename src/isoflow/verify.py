"""Built-in verification suite: every structural identity the library
claims, exercised at fixed, well-conditioned states.

Groups (run individually with ``isoflow verify --only <group>``):

    lax             operator-level consistency of the pair in five windows
    invariant       conservation of I along integrated flows
    closed_form     the compact-class orbit (tanh, sech) and RK4 order
    diagonalization row residuals of all closed-form eigenfunctions
    isospectrality  spectrum drift along rank-1 and chain flows
    modification    constancy and slope of the weight-modification rate
    meixner_functions  bilateral recurrence and lattice orthogonality
    chain           spectrum/weights/trace identities of the chain operator
    mvk             multivariate table: orthogonality, recurrence, N = 1
    time_derivative eigenvector-polynomial and weighted-table evolution laws
    reduction       collapse of the symmetric chain to the binomial lattice

Informational rows (tolerance = inf) record quantities that are reported
but deliberately not gated, e.g. residuals of sign-negated variants that
are kept only so their failure stays visible.  A quantity that ``isoflow
run|chain|mvk`` also reports comes from the command's registry entry
(``checks``): verify writes one row per component, the command their max.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .algebra import e2, oscillator, su2, su11
from .chain import (ChainState, build_chain_L, christoffel_weights,
                    pn_time_derivative_check)
from .checks import chain_checks, mvk_checks, run_checks
from .config import DEFAULT_SEED
from .families import (FamilyTag, MeixnerFunctionParams, meixner_function,
                       meixner_function_recurrence_residual, parameter_map,
                       weight)
from .flows import FlowState, integrate
from .mvk import krawtchouk_reduction_check, mvk_time_derivative_check
from .operators import TridiagonalOperator
from .report import CheckResult, check_result, guarded
from .representations import (E2, DiscreteSeriesPlus, Oscillator,
                              PrincipalSeries, SU2, build_L)
from .spectral import degenerate_e2_check, eigs_sym_tridiag


def _random_chain(rng, d: int) -> ChainState:
    return ChainState(0.0, tuple(rng.uniform(-0.5, 0.5, d)),
                      tuple(rng.uniform(0.5, 1.5, d)))


def _check(name: str, tolerance: float, **options) -> dict:
    return {"name": name, "tolerance": tolerance, **options}


def _rows(built, names, tolerances=None) -> list[CheckResult]:
    """The component rows of a command's checks, ``built`` as
    ``checks.run_checks`` and its kin return it: the i-th is renamed
    ``names[i]``, and gated at ``tolerances[i]`` (``<=``) when given."""
    parts = [part for row in built[-1] for part in row()]
    if tolerances is None:
        return [replace(part, name=name) for name, part in zip(names, parts, strict=True)]
    return [check_result(name, part.value, tol, note=part.note)
            for name, part, tol in zip(names, parts, tolerances, strict=True)]


# --------------------------------------------------------------------------


def _grp_lax(rng) -> list[CheckResult]:
    cases = [
        ("su2", SU2(2.5), su2(), 0.6),
        ("discrete", DiscreteSeriesPlus(1.0, 40), su11(), 1.2),
        ("principal", PrincipalSeries(0.7, 0.3, -25, 25), su11(), 1.2),
        ("oscillator", Oscillator(0.5, 1.0, 40), oscillator(1.0), 0.6),
        ("e2", E2(2.0, -25, 25), e2(1.0), 0.6),
    ]
    # r = 0.8 under g = 0.3 / 0.8: u = g r = 0.3 exactly, and nothing is
    # integrated.  Wall time is not a row: reports are byte-reproducible
    return [row for tag, rep, alg, s in cases for row in _rows(run_checks(
        alg, rep, FlowState(0.0, 0.8, s), 0.3 / 0.8, None,
        [_check("lax_residual", 1e-12)]), [f"lax_residual_{tag}"])]


def _grp_invariant(rng) -> list[CheckResult]:
    cases = [("su2", su2(), 1.0, 0.0), ("su11", su11(), 1.0, 1.25),
             ("oscillator", oscillator(1.0), 2.0, 3.0), ("e2", e2(1.0), 1.0, 0.5)]
    return [row for tag, alg, r, s in cases for row in _rows(run_checks(
        alg, None, FlowState(0.0, r, s), 1.0, (1e-3, 2.0, 20),
        [_check("invariant_drift", 1e-10)]), [f"invariant_drift_{tag}"])]


def _grp_closed_form(rng) -> list[CheckResult]:
    alg = su2()
    st0 = FlowState(0.0, 1.0, 0.0)
    traj = integrate(alg, st0, 1.0, 1e-3, 1.0)
    err_s = np.abs(traj.s - np.tanh(2.0 * traj.t)).max()
    err_r = np.abs(traj.r - 1.0 / np.cosh(2.0 * traj.t)).max()
    out = [check_result("closed_form_orbit_error", max(err_s, err_r), 1e-9)]

    # step-halving contraction of the integrator at t = 1
    ys = [np.array([tr.r[-1], tr.s[-1]])
          for tr in (integrate(alg, st0, 1.0, dt, 1.0) for dt in (2e-3, 1e-3, 5e-4))]
    num = float(np.abs(ys[0] - ys[1]).max())
    den = float(np.abs(ys[1] - ys[2]).max())
    ratio = num / den if den > 0 else math.inf
    out.append(check_result("rk4_step_halving_ratio", ratio, 12.0, ">="))
    return out


def _grp_diagonalization(rng) -> list[CheckResult]:
    F = FamilyTag
    # (family, representation, algebra, r, s, points).  The compact class
    # first: finite lattice, exact spectrum; s = 0 keeps the lattice weight
    # balanced over the 21-point window (a tilted one inflates the tail of
    # the closed-form eigenvector and with it the absolute-residual floor)
    cases = [
        (F.KRAWTCHOUK, SU2(10.0), su2(), 1.0, 0.0, range(20)),
        (F.MEIXNER, DiscreteSeriesPlus(1.0, 60), su11(), 1.0, 1.025, range(20)),
        (F.LAGUERRE, DiscreteSeriesPlus(0.8, 50), su11(), 1.3, 1.3, np.linspace(0.3, 12.0, 20)),
        (F.MEIXNER_POLLACZEK, DiscreteSeriesPlus(1.2, 50), su11(), 2.0, 1.0,
         np.linspace(-4.0, 4.0, 20)),
        (F.CHARLIER, Oscillator(0.5, 1.0, 60), oscillator(1.0), 6.0, 0.5, range(20)),
        (F.HERMITE, Oscillator(0.5, 2.0, 60), oscillator(0.0), 1.1, 0.7,
         np.linspace(-5.0, 5.0, 20)),
        (F.BESSEL, E2(2.0, -40, 40), e2(1.0), 1.3, 0.4, range(-9, 11)),
    ]
    out = [row for fam, rep, alg, r, s, points in cases for row in _rows(run_checks(
        alg, rep, FlowState(0.0, r, s), 0.0, None,
        [_check("diagonalization", 1e-11, family=fam.value)], points=points),
        [f"diag_residual_{fam.value}"])]
    _, rep, alg, r, s, _ = cases[0]
    _, smap = parameter_map(F.KRAWTCHOUK, rep, alg, r, s)
    expected = np.sort(smap.eigenvalue(np.arange(21)))
    dec = eigs_sym_tridiag(build_L(rep, alg, r, s))
    out.insert(1, check_result("su2_spectrum_match",
                               float(np.abs(dec.eigenvalues - expected).max()), 1e-10))
    out.append(check_result("flat_fourier_identity", degenerate_e2_check(2.0, 1.3), 1e-13))
    return out


def _grp_isospectrality(rng) -> list[CheckResult]:
    iso = [_check("isospectrality_drift", 1e-8)]
    out = _rows(run_checks(su2(), SU2(2.5), FlowState(0.0, 1.0, 0.0), 1.0, (1e-3, 1.0, 50),
                           iso), ["isospectral_drift_su2"])
    for d in (2, 3, 5):
        out += _rows(chain_checks(_random_chain(rng, d), 1.0, (1e-3, 1.0, 100), iso),
                     [f"isospectral_drift_chain_d{d}"])
    return out


def _grp_modification(rng) -> list[CheckResult]:
    runs = [  # (family, algebra, r, s, g, dt, t_end)
        ("krawtchouk", su2(), 1.0, 0.0, 1.0, 1e-3, 1.0),
        ("meixner", su11(), 1.0, 1.25, -1.0, 1e-4, 0.2),
        ("laguerre", su11(), 1.3, 1.3, -1.0, 1e-4, 0.2),
        ("meixner_pollaczek", su11(), 2.0, 1.0, -1.0, 1e-4, 0.2),
        ("charlier", oscillator(1.0), 2.0, 3.0, 1.0, 1e-3, 1.0),
        ("hermite", oscillator(0.0), 1.1, 0.7, 1.0, 1e-3, 1.0),
    ]
    return [row for fam, alg, r, s, g, dt, t_end in runs for row in _rows(run_checks(
        alg, None, FlowState(0.0, r, s), g, (dt, t_end, 1),
        [_check("modification", 1e-6, family=fam)]),
        [f"modification_{part}_{fam}" for part in ("constancy", "closed_form", "rate")],
        [1e-6, 1e-6, 1e-5 if fam == "krawtchouk" else 1e-4])]


def _grp_meixner_functions(rng) -> list[CheckResult]:
    params = MeixnerFunctionParams(0.7, 0.3, 0.2)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(-8, 9))
        x = float(rng.integers(-8, 9) if trial % 2 == 0 else rng.uniform(-6.0, 6.0))
        worst = max(worst, meixner_function_recurrence_residual(n, x, params))
    out = [check_result("meixner_function_recurrence", worst, 1e-6)]

    xs = range(-40, 41)
    vals = meixner_function(np.arange(-2, 3), np.array(xs, dtype=float), params)
    w = np.array([weight(FamilyTag.MEIXNER_FUNCTION, params, float(x)) for x in xs])
    gram = [[float(np.sum(w * vn * vm)) for vm in vals] for vn in vals]
    worst = max([0.0] + [abs(gram[n][m]) / math.sqrt(gram[n][n] * gram[m][m])
                         for n in range(len(vals)) for m in range(len(vals)) if n != m])
    out.append(check_result("meixner_function_orthogonality", worst, 1e-12))
    return out


def _grp_chain(rng) -> list[CheckResult]:
    st = _random_chain(rng, 4)
    out = _rows(chain_checks(st, 1.0, (1e-3, 1.0, 100), [
        _check("spectrum_sum", 1e-12), _check("orthogonality", 1e-12),
        _check("trace_closed_vs_dense", 1e-10), _check("tr2_variant_detected", 0.1),
        _check("trace_flow_drift", 1e-9)]), [
        "chain_trace_zero", "chain_orthogonality", "chain_dual_orthogonality",
        *(f"chain_trace{k}_closed_vs_dense" for k in (2, 3, 4)),
        "chain_trace2_unit_variant_detected",
        *(f"chain_trace{k}_flow_drift" for k in (2, 3, 4))])
    dec = eigs_sym_tridiag(TridiagonalOperator(0, *build_chain_L(st)))
    out.insert(3, check_result("chain_weights_dual_route", float(np.abs(
        np.sort(christoffel_weights(st).weights) - np.sort(dec.weights)).max()), 1e-12))
    return out


# tolerance of each of the mvk table's checks
_MVK_TOL = {"base_entry": 1e-15, "orthogonality": 1e-9, "dual_orthogonality": 1e-9,
            "recurrence": 1e-9, "degree_one_match": 1e-12}


def _grp_mvk(rng) -> list[CheckResult]:
    checks = [_check(name, tol) for name, tol in _MVK_TOL.items()]
    return [row for d, N in ((2, 2), (2, 3), (3, 2))
            for row in _rows(mvk_checks(_random_chain(rng, d), N, checks),
                             [f"mvk_{name}_d{d}N{N}" for name in _MVK_TOL])]


def _grp_time_derivative(rng) -> list[CheckResult]:
    st = ChainState(0.0, (0.3, -0.2, 0.4), (1.0, 0.8, 1.2))
    rep_eig = pn_time_derivative_check(st, 1.0, lam=None)
    rep_any = pn_time_derivative_check(st, 1.0, lam=0.37)
    mrep = mvk_time_derivative_check(ChainState(0.0, (0.3, -0.2), (1.0, 0.8)), 1.0, 2)
    return [
        check_result("pn_derivative_eigenvalue", rep_eig.max_residual, 1e-6),
        check_result("pn_derivative_order", rep_eig.order_estimate, 1.9, ">="),
        check_result("pn_derivative_sign_flipped", rep_eig.variant_residual, math.inf,
                     note="variant with negated right-hand signs; fails by design"),
        check_result("pn_derivative_polynomial_identity", rep_any.max_residual, 1e-6),
        check_result("mvk_derivative_eigenvector", mrep.max_residual, 1e-6),
        check_result("mvk_derivative_order", mrep.order_estimate, 1.9, ">="),
        check_result("mvk_derivative_display_variant", mrep.variant_residual,
                     math.inf, note="variant with constant N u_1 lacking the "
                                    "table-entry prefactor; reported, not gated"),
    ]


def _grp_reduction(rng) -> list[CheckResult]:
    out = []
    for s, r, d, N in ((0.6, 0.8, 2, 2), (0.3, 1.1, 3, 2)):
        res_pn, res_sum = krawtchouk_reduction_check(s, r, d, N)
        out.append(check_result(f"reduction_pn_match_d{d}", res_pn, 1e-10))
        out.append(check_result(f"reduction_sum_identity_d{d}N{N}", res_sum, 1e-9))
    return out


GROUPS = {"lax": _grp_lax, "invariant": _grp_invariant, "closed_form": _grp_closed_form,
          "diagonalization": _grp_diagonalization, "isospectrality": _grp_isospectrality,
          "modification": _grp_modification, "meixner_functions": _grp_meixner_functions,
          "chain": _grp_chain, "mvk": _grp_mvk, "time_derivative": _grp_time_derivative,
          "reduction": _grp_reduction}


def run_verify(only: str | None = None, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run the suite (or a single named group) with per-group seeded
    randomness, so a group produces identical numbers alone or in the full
    run.  A group that raises a numerical error (see ``report.guarded``:
    floating-point overflow, invalid and divide included) is one failed row
    named after it; the other groups still run."""
    names = list(GROUPS)
    if only is not None and only not in GROUPS:
        raise KeyError(f"unknown group {only!r}; choose from {names}")
    results: list[CheckResult] = []
    for name in names if only is None else [only]:
        rng = np.random.default_rng([seed, names.index(name)])
        results += guarded(lambda: GROUPS[name](rng), name, math.nan)
    return results
