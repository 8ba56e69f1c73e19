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
are kept only so their failure stays visible.  Every row is built by
``report.check_result``; the quantities that ``isoflow run|chain|mvk``
also report come from the same library functions, one row per component
here where the command reports their max.
"""
from __future__ import annotations

import math

import numpy as np

from .algebra import e2, oscillator, su2, su11
from .chain import (ChainState, build_chain_L, chain_isospectrality_drift,
                    christoffel_weights, integrate_chain,
                    pn_time_derivative_check, spectrum_sum, trace_flow_drift,
                    trace_invariants)
from .operators import TridiagonalOperator
from .config import DEFAULT_SEED
from .families import (FamilyTag, MeixnerFunctionParams, meixner_function,
                       meixner_function_recurrence_residual, parameter_map,
                       weight)
from .flows import FlowState, integrate, modification_report
from .mvk import (TABLE_CHECKS, krawtchouk_reduction_check, mvk_table,
                  mvk_time_derivative_check)
from .report import CheckResult, check_result, guarded
from .representations import (E2, DiscreteSeriesPlus, Oscillator,
                              PrincipalSeries, SU2, build_L, lax_residual)
from .spectral import (degenerate_e2_check, eigs_sym_tridiag,
                       isospectrality_drift, recurrence_residual,
                       scaled_tolerance)


def _random_chain(rng, d: int) -> ChainState:
    return ChainState(0.0, tuple(rng.uniform(-0.5, 0.5, d)),
                      tuple(rng.uniform(0.5, 1.5, d)))


# --------------------------------------------------------------------------


def _grp_lax(rng) -> list[CheckResult]:
    cases = [
        ("su2", SU2(2.5), su2(), 0.8, 0.6, 0.3),
        ("discrete", DiscreteSeriesPlus(1.0, 40), su11(), 0.8, 1.2, 0.3),
        ("principal", PrincipalSeries(0.7, 0.3, -25, 25), su11(), 0.8, 1.2, 0.3),
        ("oscillator", Oscillator(0.5, 1.0, 40), oscillator(1.0), 0.8, 0.6, 0.3),
        ("e2", E2(2.0, -25, 25), e2(1.0), 0.8, 0.6, 0.3),
    ]
    # wall time is deliberately not a report row: reports must be
    # byte-reproducible under a fixed seed, and callers who care about the
    # time budget measure it around this call
    return [check_result(f"lax_residual_{tag}", lax_residual(rep, alg, r, s, u), 1e-12)
            for tag, rep, alg, r, s, u in cases]


def _grp_invariant(rng) -> list[CheckResult]:
    cases = [
        ("su2", su2(), FlowState(0.0, 1.0, 0.0), 1.0),
        ("su11", su11(), FlowState(0.0, 1.0, 1.25), 1.0),
        ("oscillator", oscillator(1.0), FlowState(0.0, 2.0, 3.0), 1.0),
        ("e2", e2(1.0), FlowState(0.0, 1.0, 0.5), 1.0),
    ]
    return [check_result(f"invariant_drift_{tag}", integrate(
                alg, st0, g, 1e-3, 2.0, record_every=20).invariant_drift(), 1e-10)
            for tag, alg, st0, g in cases]


def _grp_closed_form(rng) -> list[CheckResult]:
    alg = su2()
    st0 = FlowState(0.0, 1.0, 0.0)
    traj = integrate(alg, st0, 1.0, 1e-3, 1.0)
    err_s = np.abs(traj.s - np.tanh(2.0 * traj.t)).max()
    err_r = np.abs(traj.r - 1.0 / np.cosh(2.0 * traj.t)).max()
    out = [check_result("closed_form_orbit_error", max(err_s, err_r), 1e-9)]

    # step-halving contraction of the integrator at t = 1
    ys = []
    for dt in (2e-3, 1e-3, 5e-4):
        tr = integrate(alg, st0, 1.0, dt, 1.0)
        ys.append(np.array([tr.r[-1], tr.s[-1]]))
    num = float(np.abs(ys[0] - ys[1]).max())
    den = float(np.abs(ys[1] - ys[2]).max())
    ratio = num / den if den > 0 else math.inf
    out.append(check_result("rk4_step_halving_ratio", ratio, 12.0, ">="))
    return out


def _grp_diagonalization(rng) -> list[CheckResult]:
    out = []

    def run_family(fam, rep, alg, r, s, points):
        L = build_L(rep, alg, r, s)
        worst = recurrence_residual(fam, rep, alg, r, s, points, L=L)
        out.append(check_result(f"diag_residual_{fam.value}", worst,
                                scaled_tolerance(1e-11, L)))
        return L

    # compact class: finite lattice, exact spectrum.  s = 0 keeps the
    # lattice weight balanced over the 21-point window; a tilted weight
    # inflates the closed-form eigenvector's tail components and with them
    # the attainable absolute-residual floor.
    rep = SU2(10.0)
    alg = su2()
    r, s = 1.0, 0.0
    L = run_family(FamilyTag.KRAWTCHOUK, rep, alg, r, s, range(20))
    dec = eigs_sym_tridiag(L)
    _, smap = parameter_map(FamilyTag.KRAWTCHOUK, rep, alg, r, s)
    expected = np.sort(smap.eigenvalue(np.arange(21)))
    out.append(check_result("su2_spectrum_match",
                            float(np.abs(dec.eigenvalues - expected).max()), 1e-10))

    run_family(FamilyTag.MEIXNER, DiscreteSeriesPlus(1.0, 60), su11(), 1.0, 1.025, range(20))
    run_family(FamilyTag.LAGUERRE, DiscreteSeriesPlus(0.8, 50), su11(), 1.3, 1.3,
               np.linspace(0.3, 12.0, 20))
    run_family(FamilyTag.MEIXNER_POLLACZEK, DiscreteSeriesPlus(1.2, 50), su11(), 2.0, 1.0,
               np.linspace(-4.0, 4.0, 20))
    run_family(FamilyTag.CHARLIER, Oscillator(0.5, 1.0, 60), oscillator(1.0), 6.0, 0.5,
               range(20))
    run_family(FamilyTag.HERMITE, Oscillator(0.5, 2.0, 60), oscillator(0.0), 1.1, 0.7,
               np.linspace(-5.0, 5.0, 20))
    run_family(FamilyTag.BESSEL, E2(2.0, -40, 40), e2(1.0), 1.3, 0.4, range(-9, 11))

    out.append(check_result("flat_fourier_identity", degenerate_e2_check(2.0, 1.3), 1e-13))
    return out


def _grp_isospectrality(rng) -> list[CheckResult]:
    alg = su2()
    traj = integrate(alg, FlowState(0.0, 1.0, 0.0), 1.0, 1e-3, 1.0,
                     record_every=50)
    out = [check_result("isospectral_drift_su2",
                        isospectrality_drift(traj, SU2(2.5)), 1e-8)]
    for d in (2, 3, 5):
        ctraj = integrate_chain(_random_chain(rng, d), 1.0, 1e-3, 1.0, record_every=100)
        out.append(check_result(f"isospectral_drift_chain_d{d}",
                                chain_isospectrality_drift(ctraj), 1e-8))
    return out


def _grp_modification(rng) -> list[CheckResult]:
    out = []
    runs = [
        ("krawtchouk", su2(), FlowState(0.0, 1.0, 0.0), 1.0, 1e-3, 1.0),
        ("meixner", su11(), FlowState(0.0, 1.0, 1.25), -1.0, 1e-4, 0.2),
        ("laguerre", su11(), FlowState(0.0, 1.3, 1.3), -1.0, 1e-4, 0.2),
        ("meixner_pollaczek", su11(), FlowState(0.0, 2.0, 1.0), -1.0, 1e-4, 0.2),
        ("charlier", oscillator(1.0), FlowState(0.0, 2.0, 3.0), 1.0, 1e-3, 1.0),
        ("hermite", oscillator(0.0), FlowState(0.0, 1.1, 0.7), 1.0, 1e-3, 1.0),
    ]
    for fam, alg, st0, g, dt, t_end in runs:
        rep = modification_report(integrate(alg, st0, g, dt, t_end), fam)
        out.append(check_result(f"modification_constancy_{fam}",
                                rep.max_constancy_deviation, 1e-6))
        out.append(check_result(f"modification_closed_form_{fam}",
                                rep.closed_form_max_error, 1e-6))
        if fam == "krawtchouk":
            out.append(check_result("modification_rate_krawtchouk",
                                    abs(rep.K_empirical - rep.K_expected), 1e-5,
                                    note=f"rate {rep.K_empirical:.9g} vs 4C"))
        elif rep.K_expected is None:
            out.append(check_result(f"modification_rate_{fam}", rep.K_empirical, math.inf,
                                    note="empirical slope is twice the circulated "
                                         "derivation; constancy gated, slope flagged"))
        else:
            out.append(check_result(f"modification_rate_{fam}",
                                    abs(rep.K_empirical - rep.K_expected), 1e-4,
                                    note=f"rate {rep.K_empirical:.9g} vs "
                                         f"{rep.K_expected:.9g}"))
    return out


def _grp_meixner_functions(rng) -> list[CheckResult]:
    params = MeixnerFunctionParams(0.7, 0.3, 0.2)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(-8, 9))
        if trial % 2 == 0:
            x = float(rng.integers(-8, 9))
        else:
            x = float(rng.uniform(-6.0, 6.0))
        worst = max(worst, meixner_function_recurrence_residual(n, x, params))
    out = [check_result("meixner_function_recurrence", worst, 1e-6)]

    xs = range(-40, 41)
    vals = meixner_function(np.arange(-2, 3), np.array(xs, dtype=float), params)
    w = np.array([weight(FamilyTag.MEIXNER_FUNCTION, params, float(x)) for x in xs])
    gram = [[float(np.sum(w * vn * vm)) for vm in vals] for vn in vals]
    worst = max([0.0] + [abs(gram[n][m]) / math.sqrt(gram[n][n] * gram[m][m])
                         for n in range(len(vals)) for m in range(len(vals)) if n != m])
    out.append(check_result("meixner_function_orthogonality", worst, 1e-4))
    return out


def _grp_chain(rng) -> list[CheckResult]:
    st = _random_chain(rng, 4)
    cw = christoffel_weights(st)
    primal, dual = cw.orthogonality()
    dec = eigs_sym_tridiag(TridiagonalOperator(0, *build_chain_L(st)))
    tr = trace_invariants(st)
    out = [check_result("chain_trace_zero", spectrum_sum(st), 1e-12),
           check_result("chain_orthogonality", primal, 1e-12),
           check_result("chain_dual_orthogonality", dual, 1e-12),
           check_result("chain_weights_dual_route", float(np.abs(
               np.sort(cw.weights) - np.sort(dec.weights)).max()), 1e-12)]
    out += [check_result(f"chain_trace{k}_closed_vs_dense", err, 1e-10)
            for k, err in zip((2, 3, 4), tr.closed_vs_dense)]
    out.append(check_result("chain_trace2_unit_variant_detected", tr.variant_gap, 0.1, ">",
                            note="variant lacking the factor 2 on sum r_i^2 differs "
                                 "from the dense trace, as it must"))
    drift = trace_flow_drift(integrate_chain(st, 1.0, 1e-3, 1.0, record_every=100))
    out += [check_result(f"chain_trace{k}_flow_drift", err, 1e-9)
            for k, err in zip((2, 3, 4), drift)]
    return out


# tolerance of each of the mvk table's checks
_MVK_TOL = {"base_entry": 1e-15, "orthogonality": 1e-9, "dual_orthogonality": 1e-9,
            "recurrence": 1e-9, "degree_one_match": 1e-12}


def _grp_mvk(rng) -> list[CheckResult]:
    out = []
    for d, N in ((2, 2), (2, 3), (3, 2)):
        st = _random_chain(rng, d)
        table = mvk_table(st, N)
        out += [check_result(f"mvk_{name}_d{d}N{N}", check(table, st), _MVK_TOL[name])
                for name, check in TABLE_CHECKS.items()]
    return out


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


GROUPS = {
    "lax": _grp_lax,
    "invariant": _grp_invariant,
    "closed_form": _grp_closed_form,
    "diagonalization": _grp_diagonalization,
    "isospectrality": _grp_isospectrality,
    "modification": _grp_modification,
    "meixner_functions": _grp_meixner_functions,
    "chain": _grp_chain,
    "mvk": _grp_mvk,
    "time_derivative": _grp_time_derivative,
    "reduction": _grp_reduction,
}


def run_verify(only: str | None = None, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run the suite (or a single named group) with per-group seeded
    randomness, so a group produces identical numbers alone or in the full
    run.  A group that raises a numerical error (ArithmeticError or
    ValueError) is one failed row named after it; the other groups still
    run."""
    names = list(GROUPS)
    if only is not None:
        if only not in GROUPS:
            raise KeyError(f"unknown group {only!r}; choose from {names}")
        names = [only]
    order = list(GROUPS)
    results: list[CheckResult] = []
    for name in names:
        rng = np.random.default_rng([seed, order.index(name)])
        results += guarded(lambda: GROUPS[name](rng), name, math.nan)
    return results
