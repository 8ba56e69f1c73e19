"""End-to-end acceptance gate.

Each test covers one headline guarantee of the library at its shipped
tolerance and prints exactly one summary line; run ``pytest -s
tests/test_acceptance.py`` to see the full go/no-go list at once.  The
other test files probe the same machinery piecewise — this one states the
contract.
"""
import math
import time

import numpy as np

from isoflow import (ChainState, DiscreteSeriesPlus, E2, FamilyTag,
                     FlowState, MeixnerFunctionParams, Oscillator,
                     PrincipalSeries, SU2,
                     TridiagonalOperator, build_chain_L, build_L,
                     chain_isospectrality_drift, chain_spectrum,
                     christoffel_weights, e2, eigen_polys, eigs_sym_tridiag,
                     integrate, integrate_chain, isospectrality_drift,
                     krawtchouk_reduction_check, lax_residual,
                     meixner_function, meixner_function_recurrence_residual,
                     modification_report, mvk_orthogonality_check,
                     mvk_recurrence_check, mvk_table,
                     mvk_time_derivative_check, oscillator, parameter_map,
                     pn_time_derivative_check, recurrence_residual,
                     run_verify, su2, su11, trace_invariants, unit_index,
                     weight)


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"acceptance[{name}] {'PASS' if ok else 'FAIL'}  {detail}")


CHAIN_STATES = {
    2: ChainState(0.0, (0.3, -0.2), (1.0, 0.8)),
    3: ChainState(0.0, (0.3, -0.2, 0.4), (1.0, 0.8, 1.2)),
    4: ChainState(0.0, (0.3, -0.2, 0.4, -0.1), (1.0, 0.8, 1.2, 0.9)),
    5: ChainState(0.0, (0.5, -0.1, 0.3, -0.4, 0.2), (0.9, 1.1, 0.7, 1.3, 0.6)),
}


def test_lax_identity_every_window():
    cases = [
        (SU2(2.5), su2(), 0.8, 0.6, 0.3),
        (DiscreteSeriesPlus(1.0, 40), su11(), 0.8, 1.2, 0.3),
        (PrincipalSeries(0.7, 0.3, -25, 25), su11(), 0.8, 1.2, 0.3),
        (Oscillator(0.5, 1.0, 40), oscillator(1.0), 0.8, 0.6, 0.3),
        (E2(2.0, -25, 25), e2(1.0), 0.8, 0.6, 0.3),
    ]
    t0 = time.perf_counter()
    worst = max(lax_residual(rep, alg, r, s, u)
                for rep, alg, r, s, u in cases)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _line("lax_identity", ok,
          f"max interior-row residual {worst:.3e} (tol 1e-12) "
          f"across five windows in {elapsed:.3f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_invariant_conserved_in_each_class():
    cases = [
        ("compact", su2(), FlowState(0.0, 1.0, 0.0), 1.0),
        ("noncompact", su11(), FlowState(0.0, 1.0, 1.25), 1.0),
        ("oscillator", oscillator(1.0), FlowState(0.0, 2.0, 3.0), 1.0),
    ]
    worst = 0.0
    for _, alg, st0, g in cases:
        traj = integrate(alg, st0, g, 1e-3, 2.0, record_every=20)
        i0 = traj.invariant[0]
        drift = float(np.abs(traj.invariant - i0).max()) / max(1.0, abs(i0))
        worst = max(worst, drift)
    ok = worst <= 1e-10
    _line("invariant_conservation", ok,
          f"worst relative drift {worst:.3e} over t in [0, 2], "
          "dt = 1e-3, three algebra classes (tol 1e-10)")
    assert ok, worst


def test_compact_orbit_matches_closed_form():
    traj = integrate(su2(), FlowState(0.0, 1.0, 0.0), 1.0, 1e-3, 0.5)
    err = max(abs(traj.s[-1] - math.tanh(2.0 * traj.t[-1])),
              abs(traj.r[-1] - 1.0 / math.cosh(2.0 * traj.t[-1])))
    ok = err <= 1e-9
    _line("closed_form_orbit", ok,
          f"(tanh, sech) error {err:.3e} at t = 0.5 (tol 1e-9)")
    assert ok, err


def test_eigenfunction_rows_every_family():
    # Conditioned states: 20 spectral points per family over every interior
    # row, weight kept balanced where the family lives on a finite lattice
    # (a tilted weight inflates the closed-form eigenvector's tail
    # components and with them the absolute residual).
    cases = [
        ("krawtchouk", FamilyTag.KRAWTCHOUK, SU2(10.0), su2(), 1.0, 0.0,
         range(20)),
        ("meixner", FamilyTag.MEIXNER, DiscreteSeriesPlus(1.0, 60), su11(),
         1.0, 1.025, range(20)),
        ("laguerre", FamilyTag.LAGUERRE, DiscreteSeriesPlus(0.8, 50), su11(),
         1.3, 1.3, np.linspace(0.3, 12.0, 20)),
        ("meixner_pollaczek", FamilyTag.MEIXNER_POLLACZEK,
         DiscreteSeriesPlus(1.2, 50), su11(), 2.0, 1.0,
         np.linspace(-4.0, 4.0, 20)),
        ("charlier", FamilyTag.CHARLIER, Oscillator(0.5, 1.0, 60),
         oscillator(1.0), 6.0, 0.5, range(20)),
        ("hermite", FamilyTag.HERMITE, Oscillator(0.5, 2.0, 60),
         oscillator(0.0), 1.1, 0.7, np.linspace(-5.0, 5.0, 20)),
        ("bessel", FamilyTag.BESSEL, E2(2.0, -40, 40), e2(1.0), 1.3, 0.4,
         range(-9, 11)),
    ]
    worst_ratio, worst_tag = 0.0, ""
    for tag, fam, rep, alg, r, s, points in cases:
        L = build_L(rep, alg, r, s)
        tol = 1e-11 * (1.0 + L.inf_norm())
        worst = recurrence_residual(fam, rep, alg, r, s, points)
        if worst / tol > worst_ratio:
            worst_ratio, worst_tag = worst / tol, tag
        assert worst <= tol, (tag, worst, tol)

    # the compact window also has an exactly known finite spectrum
    params, smap = parameter_map(FamilyTag.KRAWTCHOUK, SU2(10.0), su2(), 1.0, 0.0)
    dec = eigs_sym_tridiag(build_L(SU2(10.0), su2(), 1.0, 0.0))
    expected = np.sort([smap.eigenvalue(x) for x in range(21)])
    spec_err = float(np.abs(dec.eigenvalues - expected).max())
    ok = worst_ratio <= 1.0 and spec_err <= 1e-10
    _line("eigenfunction_rows", ok,
          f"worst residual/tolerance {worst_ratio:.3f} ({worst_tag}) over "
          f"seven families; finite-spectrum error {spec_err:.3e} (tol 1e-10)")
    assert spec_err <= 1e-10


def test_spectrum_constant_along_flows():
    traj = integrate(su2(), FlowState(0.0, 1.0, 0.0), 1.0, 1e-3, 1.0,
                     record_every=50)
    drifts = {"rank1": isospectrality_drift(traj, SU2(2.5))}
    for d in (2, 3, 5):
        ctraj = integrate_chain(CHAIN_STATES[d], 1.0, 1e-3, 1.0,
                                record_every=100)
        drifts[f"chain_d{d}"] = chain_isospectrality_drift(ctraj)
    worst = max(drifts.values())
    ok = worst <= 1e-8
    _line("isospectrality", ok,
          f"worst spectral drift {worst:.3e} over t in [0, 1], "
          f"spin-5/2 window and chains d in (2, 3, 5) (tol 1e-8)")
    assert ok, drifts


def test_weight_modification_rate_is_constant():
    runs = [
        ("krawtchouk", su2(), FlowState(0.0, 1.0, 0.0), 1.0, 1e-3, 1.0),
        ("meixner", su11(), FlowState(0.0, 1.0, 1.25),
         -1.0, 1e-4, 0.2),
        ("laguerre", su11(), FlowState(0.0, 1.3, 1.3),
         -1.0, 1e-4, 0.2),
        ("meixner_pollaczek", su11(), FlowState(0.0, 2.0, 1.0),
         -1.0, 1e-4, 0.2),
        ("charlier", oscillator(1.0), FlowState(0.0, 2.0, 3.0), 1.0,
         1e-3, 1.0),
        ("hermite", oscillator(0.0), FlowState(0.0, 1.1, 0.7), 1.0,
         1e-3, 1.0),
    ]
    worst_const = 0.0
    rate_err = None
    flagged = ""
    for fam, alg, st0, g, dt, t_end in runs:
        traj = integrate(alg, st0, g, dt, t_end)
        rep = modification_report(traj, fam)
        worst_const = max(worst_const, rep.max_constancy_deviation)
        assert rep.max_constancy_deviation <= 1e-6, (fam, rep)
        if fam == "krawtchouk":
            rate_err = abs(rep.K_empirical - rep.K_expected)
            assert rate_err <= 1e-5, rep
        elif rep.K_expected is None:
            # constancy gated above; the slope disagrees with the
            # circulated derivation by a factor two, so it is flagged
            # rather than gated
            flagged = f"; {fam} slope {rep.K_empirical:.6g} flagged, not gated"
    ok = worst_const <= 1e-6 and rate_err is not None and rate_err <= 1e-5
    _line("weight_modification", ok,
          f"worst constancy deviation {worst_const:.3e} over six families "
          f"(tol 1e-6); compact rate error vs 4C {rate_err:.3e} "
          f"(tol 1e-5){flagged}")
    assert ok


def test_bilateral_functions_recur_and_orthogonal():
    params = MeixnerFunctionParams(0.7, 0.3, 0.2)
    rng = np.random.default_rng(20260816)
    worst_rec = 0.0
    for trial in range(50):
        n = int(rng.integers(-8, 9))
        if trial % 2 == 0:
            x = float(rng.integers(-8, 9))
        else:
            x = float(rng.uniform(-6.0, 6.0))
        worst_rec = max(worst_rec,
                        meixner_function_recurrence_residual(n, x, params))

    xs = np.arange(-40, 41)
    w = np.array([weight(FamilyTag.MEIXNER_FUNCTION, params, float(x))
                  for x in xs])
    orders = range(-2, 3)
    vals = {n: np.array([meixner_function(n, float(x), params) for x in xs])
            for n in orders}
    diag = {n: float(np.sum(w * vals[n] * vals[n])) for n in orders}
    worst_gram = max(abs(float(np.sum(w * vals[n] * vals[m])))
                     / math.sqrt(diag[n] * diag[m])
                     for n in orders for m in orders if n != m)
    ok = worst_rec <= 1e-6 and worst_gram <= 1e-4
    _line("bilateral_functions", ok,
          f"recurrence residual {worst_rec:.3e} at 50 random points "
          f"(tol 1e-6); normalized off-diagonal mass {worst_gram:.3e} "
          f"(tol 1e-4)")
    assert worst_rec <= 1e-6
    assert worst_gram <= 1e-4


def test_chain_operator_structure():
    st = CHAIN_STATES[4]
    d = st.d
    lam = chain_spectrum(st)
    trace_err = abs(float(lam.sum()))
    assert trace_err <= 1e-12

    cw = christoffel_weights(st)
    eye = np.eye(d + 1)
    orth = max(float(np.abs(cw.vectors.T @ cw.vectors - eye).max()),
               float(np.abs(cw.vectors @ cw.vectors.T - eye).max()))
    assert orth <= 1e-12

    tr = trace_invariants(st)
    tr3_err = abs(tr.tr3 - tr.tr3_dense) / (1.0 + abs(tr.tr3_dense))
    assert tr3_err <= 1e-10
    variant_gap = abs(tr.tr2_unit_variant - tr.tr2_dense)
    assert variant_gap > 0.1  # the factor-2 slip must stay visible

    ctraj = integrate_chain(st, 1.0, 1e-3, 1.0, record_every=100)
    ref = trace_invariants(ctraj.state(0))
    drift = 0.0
    for i in range(1, len(ctraj)):
        cur = trace_invariants(ctraj.state(i))
        for a, b in ((cur.tr2_dense, ref.tr2_dense),
                     (cur.tr3_dense, ref.tr3_dense),
                     (cur.tr4_dense, ref.tr4_dense)):
            drift = max(drift, abs(a - b) / (1.0 + abs(b)))
    ok = drift <= 1e-9
    _line("chain_structure", ok,
          f"trace zero {trace_err:.1e}, orthogonality {orth:.1e} "
          f"(tol 1e-12); power-trace drift {drift:.3e} (tol 1e-9); "
          f"closed cubic trace error {tr3_err:.1e} (tol 1e-10); "
          f"variant lacking the factor 2 off by {variant_gap:.3f}")
    assert ok, drift


def test_multivariate_table_identities():
    worst = {"orth": 0.0, "dual": 0.0, "rec": 0.0, "deg1": 0.0}
    for d, N in ((2, 2), (2, 3), (3, 2)):
        st = CHAIN_STATES[d]
        table = mvk_table(st, N)
        base_err = max(abs(table.P((N,) + (0,) * d, rho) - 1.0)
                       for rho in table.indices)
        assert base_err == 0.0, (d, N, base_err)
        primal, dual = mvk_orthogonality_check(table)
        worst["orth"] = max(worst["orth"], primal)
        worst["dual"] = max(worst["dual"], dual)
        worst["rec"] = max(worst["rec"],
                           mvk_recurrence_check(table, st))

        table1 = mvk_table(st, 1)
        lam = table1.eigenvalues
        for i in range(d + 1):
            p_i = [eigen_polys(st, float(lam[jj]))[0][i]
                   for jj in range(d + 1)]
            for jj in range(d + 1):
                worst["deg1"] = max(
                    worst["deg1"],
                    abs(table1.P(unit_index(d + 1, i),
                                 unit_index(d + 1, jj)) - p_i[jj]))
    ok = (worst["orth"] <= 1e-9 and worst["dual"] <= 1e-9
          and worst["rec"] <= 1e-9 and worst["deg1"] <= 1e-12)
    _line("multivariate_table", ok,
          "base entries exactly 1; orthogonality "
          f"{worst['orth']:.2e}/{worst['dual']:.2e} and recurrence "
          f"{worst['rec']:.2e} (tol 1e-9); degree-one match "
          f"{worst['deg1']:.2e} (tol 1e-12) over (d, N) in "
          "((2,2), (2,3), (3,2))")
    assert ok, worst


def test_time_derivative_identities_hold():
    st3 = CHAIN_STATES[3]
    st2 = CHAIN_STATES[2]
    checks = {
        "polynomial": pn_time_derivative_check(st3, 1.0, lam=0.37),
        "degree_one": mvk_time_derivative_check(st2, 1.0, 1),
        "eigenvector": pn_time_derivative_check(st3, 1.0, lam=None),
        "weighted_table": mvk_time_derivative_check(st2, 1.0, 2),
    }
    worst_res = max(r.max_residual for r in checks.values())
    worst_order = min(r.order_estimate for r in checks.values())
    variant = checks["weighted_table"].variant_residual
    ok = worst_res <= 1e-6 and worst_order >= 1.9 and variant > 1e-2
    _line("time_derivatives", ok,
          f"four identities: worst residual {worst_res:.3e} (tol 1e-6), "
          f"min convergence order {worst_order:.2f} (>= 1.9); as-printed "
          f"weighted-table variant off by {variant:.2f} — systematic, "
          "consistent with a dropped table-entry prefactor")
    assert worst_res <= 1e-6
    assert worst_order >= 1.9
    assert variant > 1e-2


def test_reduction_to_binomial_lattice():
    res_pn_worst = 0.0
    for s, r, d, N in ((0.6, 0.8, 2, 2), (0.3, 1.1, 3, 2)):
        res_pn, _ = krawtchouk_reduction_check(s, r, d, N)
        res_pn_worst = max(res_pn_worst, res_pn)
    _, res_sum = krawtchouk_reduction_check(0.6, 0.8, 2, 2)
    ok = res_pn_worst <= 1e-10 and res_sum <= 1e-9
    _line("binomial_reduction", ok,
          f"symmetric-chain polynomial match {res_pn_worst:.3e} "
          f"(tol 1e-10); sum identity at d=2, N=2 {res_sum:.3e} (tol 1e-9)")
    assert res_pn_worst <= 1e-10
    assert res_sum <= 1e-9


def test_verify_suite_fast_and_deterministic():
    t0 = time.perf_counter()
    first = run_verify()
    elapsed = time.perf_counter() - t0
    second = run_verify()
    key = lambda res: (res.name, res.value, res.tolerance, res.passed)
    identical = list(map(key, first)) == list(map(key, second))
    failed = [res.name for res in first if not res.passed]
    ok = elapsed < 60.0 and identical and not failed
    _line("verify_suite", ok,
          f"{len(first)} checks in {elapsed:.1f}s (< 60s); "
          f"repeat run identical: {identical}; failing: {failed or 'none'}")
    assert elapsed < 60.0
    assert identical
    assert not failed
