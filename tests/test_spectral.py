"""Spectral decomposition, closed-form eigenfunction row residuals, and
isospectrality along flows."""
import dataclasses

import numpy as np
import pytest

from isoflow import (FAMILIES, ConfigurationError, DiscreteSeriesPlus, E2, FamilyTag,
                     FlowState, Oscillator, ParameterError, PrincipalSeries,
                     SU2, TridiagonalOperator, build_L, compared_eigenvalues,
                     degenerate_e2_check, eigenfunction, eigs_sym_tridiag,
                     eval_rec, e2, integrate, isospectrality_drift,
                     oscillator, parameter_map, path_eigenvalues,
                     recurrence_residual, su2, su11)
from isoflow import spectral
from isoflow.specfun import bessel_j

F = FamilyTag


def reference_row_residual(family, params, smap, rep, alg, r, s, n, lam):
    """Row ``n`` of L psi = Lambda psi at one eigenvalue, as the residual
    was computed before it was batched: psi_{n-1}, psi_n, psi_{n+1} one
    scalar eigenfunction call each, summed in the order
    (diag[n] - Lambda) psi_n + off[n-1] psi_{n-1} + off[n] psi_{n+1}."""
    L = build_L(rep, alg, r, s)
    size = L.size
    if not (0 <= n < size):
        raise ConfigurationError(f"row {n} outside window of size {size}")

    def psi(row):
        return eigenfunction(family, params, smap, alg, r, L.base_index + row, lam)

    lam = float(lam)
    acc = (L.diag[n] - lam) * psi(n)
    if n >= 1:
        acc += L.off[n - 1] * psi(n - 1)
    elif not L.lo_exact:
        raise ConfigurationError("row touches the truncated lower edge")
    if n <= size - 2:
        acc += L.off[n] * psi(n + 1)
    elif not L.hi_exact:
        raise ConfigurationError("row touches the truncated upper edge")
    return abs(acc)


def reference_residuals(family, rep, alg, r, s, points):
    """Every interior row's residual at every point, from the scalar
    reference."""
    params, smap = parameter_map(family, rep, alg, r, s)
    return [reference_row_residual(family, params, smap, rep, alg, r, s, n,
                                   smap.eigenvalue(x))
            for x in points for n in build_L(rep, alg, r, s).interior_rows()]


def reference_worst(residuals):
    """The reference's worst row: Python's max, which skips a NaN that
    follows a number."""
    worst = 0.0
    for res in residuals:
        worst = max(worst, res)
    return worst


def assert_matches_reference(family, got, want):
    """The batched residual equals the scalar reference bitwise, except for
    Bessel: the batch takes every order from one backward recurrence,
    started above the largest order, and the reference each order from its
    own, so the components agree to rounding, not bitwise."""
    if family is F.BESSEL:
        assert got == pytest.approx(want, abs=1e-15)
    else:
        assert got == want


def test_two_by_two_decomposition():
    op = TridiagonalOperator(0, np.array([-4.0, 4.0]), np.array([3.0]))
    dec = eigs_sym_tridiag(op)
    assert dec.eigenvalues == pytest.approx([-5.0, 5.0], abs=1e-12)
    # orthonormal columns; spectral weights are the squared first components
    ident = dec.vectors.T @ dec.vectors
    assert np.abs(ident - np.eye(2)).max() <= 1e-14
    assert dec.weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert dec.weights == pytest.approx([0.9, 0.1], abs=1e-12)


def test_spin_one_spectrum_matches_map():
    rep, alg = SU2(1.0), su2()
    r, s = 3.0, 4.0
    L = build_L(rep, alg, r, s)
    dec = eigs_sym_tridiag(L)
    _, smap = parameter_map(F.KRAWTCHOUK, rep, alg, r, s)
    want = np.sort([smap.eigenvalue(x) for x in range(3)])
    assert np.abs(dec.eigenvalues - want).max() <= 1e-10
    assert dec.eigenvalues == pytest.approx([-10.0, 0.0, 10.0], abs=1e-10)


def test_spectral_map_roundtrip():
    _, smap = parameter_map(F.KRAWTCHOUK, SU2(2.0), su2(), 3.0, 4.0)
    for x in (0.0, 1.0, 3.5):
        assert smap.to_family_variable(smap.eigenvalue(x)) == \
            pytest.approx(x, abs=1e-12)


CASES = [
    # family, rep, alg, r, s, spectral lattice points
    (F.KRAWTCHOUK, SU2(6.0), su2(), 1.0, 0.2,
     [float(x) for x in range(10)]),
    (F.MEIXNER, DiscreteSeriesPlus(1.0, 60), su11(), 1.0, 1.025,
     [float(x) for x in range(12)]),
    (F.BESSEL, E2(2.0, -40, 40), e2(1.0), 1.3, 0.4,
     [float(x) for x in range(-6, 7)]),
]


@pytest.mark.parametrize("family,rep,alg,r,s,points", CASES)
def test_recurrence_residual_rows(family, rep, alg, r, s, points):
    L = build_L(rep, alg, r, s)
    tol = 1e-11 * (1.0 + L.inf_norm())
    worst = recurrence_residual(family, rep, alg, r, s, points)
    assert worst <= tol
    assert_matches_reference(family, worst,
                             reference_worst(reference_residuals(
                                 family, rep, alg, r, s, points)))


def _cli_su2(j, s=0.2):
    """The su2 window j at (r, s) = (1, s) with the points that
    ``isoflow run``'s diagonalization check picks (10 points)."""
    return (F.KRAWTCHOUK, SU2(j), su2(), 1.0, s,
            FAMILIES[F.KRAWTCHOUK].points(10))


BIT_CASES = {
    # the seven families of isoflow verify's diagonalization group
    "krawtchouk": (F.KRAWTCHOUK, SU2(10.0), su2(), 1.0, 0.0, range(20)),
    "meixner": (F.MEIXNER, DiscreteSeriesPlus(1.0, 60), su11(), 1.0, 1.025,
                range(20)),
    "laguerre": (F.LAGUERRE, DiscreteSeriesPlus(0.8, 50), su11(), 1.3, 1.3,
                 np.linspace(0.3, 12.0, 20)),
    "meixner_pollaczek": (F.MEIXNER_POLLACZEK, DiscreteSeriesPlus(1.2, 50),
                          su11(), 2.0, 1.0, np.linspace(-4.0, 4.0, 20)),
    "charlier": (F.CHARLIER, Oscillator(0.5, 1.0, 60), oscillator(1.0), 6.0,
                 0.5, range(20)),
    "hermite": (F.HERMITE, Oscillator(0.5, 2.0, 60), oscillator(0.0), 1.1, 0.7,
                np.linspace(-5.0, 5.0, 20)),
    "bessel": (F.BESSEL, E2(2.0, -40, 40), e2(1.0), 1.3, 0.4, range(-9, 11)),
    # a bilateral window: both edges truncated
    "meixner_function": (F.MEIXNER_FUNCTION, PrincipalSeries(0.7, 0.3, -25, 25),
                         su11(), 1.0, 1.2, np.linspace(-4.0, 4.0, 10)),
    # tilted su2 windows, where the absolute residual is large
    "su2_j10": _cli_su2(10.0),
    "su2_j30": _cli_su2(30.0),
    "su2_j60": _cli_su2(60.0),
}


@pytest.mark.parametrize("case", sorted(BIT_CASES))
def test_batched_residual_matches_scalar_reference(case):
    family, rep, alg, r, s, points = BIT_CASES[case]
    assert_matches_reference(family, recurrence_residual(family, rep, alg, r, s, points),
                             reference_worst(reference_residuals(
                                 family, rep, alg, r, s, points)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_residual_reports_nan_rows():
    # on the wide tilted su2 window the closed-form components overflow:
    # 884 of the 8,010 rows are inf - inf and others inf; the scalar loop's
    # max skipped the NaNs
    family, rep, alg, r, s, points = _cli_su2(400.0, 0.9)
    per_row = reference_residuals(family, rep, alg, r, s, points)
    assert np.isnan(per_row).sum() == 884
    assert np.isinf(reference_worst(per_row))
    assert np.isnan(recurrence_residual(family, rep, alg, r, s, points))


def test_residual_fails_on_a_perturbed_bessel_argument(monkeypatch):
    # a Bessel argument wrong by a relative 1e-6 shows where the eigenvectors
    # live, in the middle of the window, which every interior row reaches
    rep, alg, r, s = E2(2.0, -40, 40), e2(1.0), 1.3, 0.4
    L = build_L(rep, alg, r, s)
    honest = spectral.parameter_map

    def perturbed(*args, **kwargs):
        params, smap = honest(*args, **kwargs)
        return dataclasses.replace(params, z=params.z * (1.0 + 1e-6)), smap
    monkeypatch.setattr(spectral, "parameter_map", perturbed)
    worst = recurrence_residual(F.BESSEL, rep, alg, r, s,
                                FAMILIES[F.BESSEL].points(10), L=L)
    assert worst > 1e3 * spectral.scaled_tolerance(1e-11, L)


def test_truncated_window_lowest_eigenvalues():
    # the infinite operator's point spectrum survives truncation at the
    # bottom of the window: lowest eigenvalues match 2C(x+k), C=sqrt(s^2-r^2)
    rep, alg = DiscreteSeriesPlus(1.0, 60), su11()
    r, s = 1.0, 1.25
    dec = eigs_sym_tridiag(build_L(rep, alg, r, s))
    want = 1.5 * (np.arange(5) + 1.0)
    assert np.abs(dec.eigenvalues[:5] - want).max() <= 1e-6


def test_eigenfunction_routing():
    # Bessel: order m - n at argument k r / c
    alg = e2(1.0)
    params, smap = parameter_map(F.BESSEL, E2(2.0, -40, 40), alg, 1.3, 0.4)
    got = eigenfunction(F.BESSEL, params, smap, alg, 1.3, 3, smap.eigenvalue(5.0))
    assert got == pytest.approx(bessel_j(2, 2.0 * 1.3), rel=1e-12)
    # Charlier with r/c > 0 alternates sign against the bare polynomial
    alg = oscillator(1.0)
    params, smap = parameter_map(F.CHARLIER, Oscillator(0.5, 1.0, 40), alg, 6.0, 0.5)
    lam = smap.eigenvalue(4.0)
    x = smap.to_family_variable(lam)
    got = eigenfunction(F.CHARLIER, params, smap, alg, 6.0, 3, lam)
    assert got == pytest.approx(-eval_rec(F.CHARLIER, params, 3, x), rel=1e-12)


def test_residual_rejects_bad_rows():
    alg = su11()
    rep = DiscreteSeriesPlus(1.0, 40)
    points = [0.0, 3.0]
    # no interior row (the one-row window's upper edge is truncated) or no
    # point would be a vacuous pass
    with pytest.raises(ConfigurationError, match="no interior rows"):
        recurrence_residual(F.MEIXNER, DiscreteSeriesPlus(1.0, 0), alg, 1.0,
                            1.025, points)
    with pytest.raises(ConfigurationError, match="at least one point"):
        recurrence_residual(F.MEIXNER, rep, alg, 1.0, 1.025, [])
    # a state outside the family's regime
    with pytest.raises(ParameterError):
        recurrence_residual(F.MEIXNER, rep, alg, 1.0, 0.5, points)


EIGENFUNCTION_CASES = [
    (F.CHARLIER, Oscillator(0.5, 1.0, 40), oscillator(1.0), 6.0, 0.5, [0.0, 4.0, 9.0]),
    (F.KRAWTCHOUK, SU2(6.0), su2(), 1.0, 0.2, [0.0, 2.0, 7.0, 12.0]),
    (F.MEIXNER_POLLACZEK, DiscreteSeriesPlus(1.2, 40), su11(), 2.0, 1.0, [-4.0, 0.5, 3.0]),
    (F.BESSEL, E2(2.0, -40, 40), e2(1.0), 1.3, 0.4, [-3.0, 5.0]),
    (F.MEIXNER_FUNCTION, PrincipalSeries(0.7, 0.3, -25, 25), su11(), 1.0, 1.2, [-2.0, 1.5]),
]


def test_eigenfunction_on_an_array_of_eigenvalues():
    # each element equals the scalar call, except for Bessel, whose array
    # takes every order from one backward recurrence (equal to rounding)
    for family, rep, alg, r, s, xs in EIGENFUNCTION_CASES:
        params, smap = parameter_map(family, rep, alg, r, s)
        lam = smap.eigenvalue(np.array(xs))
        got = eigenfunction(family, params, smap, alg, r, 3, lam)
        want = [eigenfunction(family, params, smap, alg, r, 3, float(v)) for v in lam]
        assert got.shape == lam.shape
        if family is F.BESSEL:
            orders = np.rint(xs).astype(int) - 3
            assert got.tobytes() == bessel_j(orders, params.z).tobytes()
            assert got == pytest.approx(want, rel=1e-15)
        else:
            assert list(got) == want


def test_eigenfunction_on_labels_times_eigenvalues():
    # one call over an array of labels is the call per label, with the
    # labels' shape leading; Bessel takes all its orders from one pass
    for family, rep, alg, r, s, xs in EIGENFUNCTION_CASES:
        params, smap = parameter_map(family, rep, alg, r, s)
        lam = smap.eigenvalue(np.array(xs))
        n = np.array([[0, 4], [2, 3], [5, 1]])
        got = eigenfunction(family, params, smap, alg, r, n, lam)
        assert got.shape == n.shape + lam.shape
        if family is F.BESSEL:
            orders = np.rint(xs).astype(int) - n[..., None]
            assert got.tobytes() == bessel_j(orders, params.z).tobytes()
            continue
        for i, j in np.ndindex(n.shape):
            want = eigenfunction(family, params, smap, alg, r, int(n[i, j]), lam)
            assert got[i, j].tobytes() == want.tobytes(), (family, n[i, j])


def test_isospectrality_along_flow():
    alg = su2()
    traj = integrate(alg, FlowState(r=1.0, s=0.2, t=0.0), 1.0,
                     dt=1e-3, t_end=0.5, record_every=50)
    assert isospectrality_drift(traj, SU2(2.5)) <= 1e-9

    alg = su11()
    traj = integrate(alg, FlowState(r=1.0, s=1.25, t=0.0), 1.0,
                     dt=1e-3, t_end=0.5, record_every=50)
    rep = DiscreteSeriesPlus(1.0, 60)
    assert isospectrality_drift(traj, rep, mode="lowest", count=5) <= 1e-6
    with pytest.raises(ValueError):
        isospectrality_drift(traj, rep, mode="middle")


def test_isospectrality_mode_and_count_checked_before_solving(monkeypatch):
    alg = su2()
    traj = integrate(alg, FlowState(r=1.0, s=0.2, t=0.0), 1.0,
                     dt=1e-3, t_end=0.5, record_every=50)
    rep = SU2(6.0)  # 13 rows
    full = isospectrality_drift(traj, rep)
    # the whole window, counted from either end, is the full spectrum
    assert isospectrality_drift(traj, rep, mode="lowest", count=13) == full
    assert isospectrality_drift(traj, rep, mode="central", count=13) == full

    calls = []
    monkeypatch.setattr(spectral, "eigh_tridiagonal",
                        lambda *a, **k: calls.append(a))
    for mode, count in (("central", None), ("lowest", None), ("central", 20),
                        ("lowest", 14), ("lowest", 0), ("central", -1)):
        with pytest.raises(ConfigurationError,
                           match=rf"count <= 13 .*count={count}\b"):
            isospectrality_drift(traj, rep, mode=mode, count=count)
    with pytest.raises(ConfigurationError, match="unknown isospectrality mode"):
        isospectrality_drift(traj, rep, mode="middle", count=3)
    assert calls == []


@pytest.mark.parametrize("c", [1.0, 0.7])
@pytest.mark.parametrize("r, s", [(1.3, 0.4), (0.5, 2.0), (2.0, -1.0)])
def test_e2_central_eigenvalues_are_a_ladder(c, r, s):
    """On an e2 window the central eigenvalues of L = c H + r (E + E*) are
    the Wannier-Stark ladder 2 c m for every r and s, so the drift of mode
    "central" is blind to the flow there."""
    rep = E2(2.0, -40, 40)
    central = compared_eigenvalues(rep, "central", 5)
    L = build_L(rep, e2(c), r, s)
    lam = spectral.eigh_tridiagonal(L.diag, L.off, eigvals_only=True)[central]
    assert np.abs(lam / (2.0 * c) - np.arange(-2, 3)).max() <= 1e-12


# one case per representation type: the oscillator's central element acts
# by n_scalar = -h, the only case where s*b*n_scalar is not zero
PATH_CASES = {
    "su2": (SU2(6.0), su2(0.3)),
    "discrete_series": (DiscreteSeriesPlus(1.5, 40), su11(-0.4)),
    "principal_series": (PrincipalSeries(0.7, 0.25, -20, 20), su11(0.2)),
    "oscillator": (Oscillator(0.5, 1.3, 30), oscillator(0.8)),
    "e2": (E2(0.9, -15, 15), e2(1.1)),
    "one_row": (SU2(0.0), su2(0.5)),
}


@pytest.mark.parametrize("case", sorted(PATH_CASES))
def test_path_eigenvalues_match_build_L_bitwise(case):
    rep, alg = PATH_CASES[case]
    rng = np.random.default_rng(11)
    r, s = rng.uniform(0.2, 2.0, 23), rng.uniform(-1.5, 1.5, 23)
    r[0], s[0] = 1.0, 0.0
    got = path_eigenvalues(rep, alg, r, s)
    want = [spectral.eigh_tridiagonal(L.diag, L.off, eigvals_only=True)
            for L in (build_L(rep, alg, ri, si) for ri, si in zip(r.tolist(), s.tolist()))]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_path_eigenvalues_solve_each_row_through_the_module_binding(monkeypatch):
    rep, alg = PATH_CASES["oscillator"]
    r, s = np.array([1.0, 0.5, 0.25]), np.array([0.1, 0.2, 0.3])
    keys, solve = [], spectral.eigh_tridiagonal

    def counted(d, e, **kwargs):
        keys.append((d.tobytes(), e.tobytes()))
        return solve(d, e, **kwargs)
    monkeypatch.setattr(spectral, "eigh_tridiagonal", counted)
    path_eigenvalues(rep, alg, r, s)
    assert keys == [(L.diag.tobytes(), L.off.tobytes())
                    for L in (build_L(rep, alg, ri, si) for ri, si in zip(r, s))]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_path_eigenvalues_keep_build_L_errors():
    rep, alg = PATH_CASES["su2"]
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="r and s must be finite"):
            path_eigenvalues(rep, alg, [1.0, bad], [0.0, 0.0])
        with pytest.raises(ValueError, match="r and s must be finite"):
            path_eigenvalues(rep, alg, [1.0, 1.0], [bad, 0.0])
    with pytest.raises(ValueError, match="non-finite entries"):
        build_L(rep, alg, 1e308, 0.0)
    with pytest.raises(ValueError, match="non-finite entries"):
        path_eigenvalues(rep, alg, [1.0, 1e308], [0.0, 0.0])
    with pytest.raises(ConfigurationError):
        path_eigenvalues(rep, su11(), [1.0], [0.0])


def test_flat_operator_fourier_identity():
    assert degenerate_e2_check(2.0, 1.3) <= 1e-13


def test_flat_fourier_identity_fails_with_a_diagonal(monkeypatch):
    # with c = 1 the e(2) diagonal is 2n, so the rows n = -5..5 miss by |2n|
    monkeypatch.setattr(spectral, "e2", lambda c: e2(1.0))
    assert degenerate_e2_check(2.0, 1.3) == pytest.approx(10.0)
