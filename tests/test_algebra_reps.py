"""Structure constants, representation matrices, and the Lax identity."""
from unittest import mock

import numpy as np
import pytest

from isoflow import (ConfigurationError, DiscreteSeriesPlus, E2, Oscillator,
                     ParameterError, PrincipalSeries, SU2, TridiagonalOperator,
                     build_generators, build_L, check_compatible, e2,
                     lax_residual, oscillator, representations, su2, su11)

ALL_CASES = [
    (SU2(2.5), su2()),
    (DiscreteSeriesPlus(1.0, 40), su11()),
    (PrincipalSeries(0.7, 0.3, -25, 25), su11()),
    (Oscillator(0.5, 1.0, 40), oscillator(1.0)),
    (E2(2.0, -25, 25), e2(1.0)),
]


def _dense(op):
    return np.diag(op.diag) + np.diag(op.off, 1) + np.diag(op.off, -1)


def test_algebra_constants():
    assert (su2().a, su2().b, su2().epsilon) == (1.0, 0.0, 1)
    assert (su11().a, su11().b, su11().epsilon) == (1.0, 0.0, -1)
    assert (oscillator(1.0).a, oscillator(1.0).b, oscillator(1.0).epsilon) == (0.0, 1.0, 1)
    assert (e2(1.0).a, e2(1.0).b, e2(1.0).epsilon) == (0.0, 0.0, 1)
    assert su2().clas == "su2" and su11().clas == "su11"
    assert oscillator(2.0).clas == "oscillator" and e2(0.5).clas == "e2"
    assert su11().required_sign() == -1


def test_spin_half_operator():
    op = build_L(SU2(0.5), su2(), r=3.0, s=4.0)
    assert np.allclose(_dense(op), [[-4.0, 3.0], [3.0, 4.0]])
    assert np.allclose(np.linalg.eigvalsh(_dense(op)), [-5.0, 5.0])


def test_spin_one_spectrum():
    op = build_L(SU2(1.0), su2(), r=3.0, s=4.0)
    lam = np.linalg.eigvalsh(_dense(op))
    assert np.allclose(lam, [-10.0, 0.0, 10.0], atol=1e-12)


def test_lowest_weight_oscillator_operator():
    op = build_L(Oscillator(0.0, 1.0, 6), oscillator(1.0), r=2.0, s=3.0)
    n = np.arange(7)
    assert np.allclose(op.diag, 2.0 * n - 3.0)
    assert np.allclose(op.off, 2.0 * np.sqrt(n[:-1] + 1.0))
    assert op.lo_exact and not op.hi_exact


def test_raising_lowering_ladder_relation():
    # e(n-1)^2 - e(n)^2 must reproduce epsilon*(a*H + b*N) on exact rows
    for rep, alg in ALL_CASES:
        g = build_generators(rep)
        e_sq = g.e_coeff ** 2
        n_rows = len(g.h_diag)
        for row in range(1, n_rows - 1):
            got = e_sq[row - 1] - e_sq[row]
            want = alg.epsilon * (alg.a * g.h_diag[row] + alg.b * g.n_scalar)
            assert got == pytest.approx(want, abs=1e-10), (rep, row)


def test_h_ladder_spacing():
    for rep, _ in ALL_CASES:
        g = build_generators(rep)
        assert np.allclose(np.diff(g.h_diag), 2.0)


def test_lax_residual_vanishes_on_interior_rows():
    for rep, alg in ALL_CASES:
        res = lax_residual(rep, alg, r=0.8, s=0.6 if alg.clas != "su11" else 1.2, u=0.3)
        assert res < 1e-12, (rep, res)


def test_lax_residual_needs_interior_rows():
    with pytest.raises(ConfigurationError):
        lax_residual(E2(1.0, 0, 2), e2(1.0), r=1.0, s=0.5, u=0.2)


def test_flipped_m_fails_the_lax_residual_on_every_window(monkeypatch):
    """Negative control: with M -> -M the residual is 2|dL/dt|, far above
    rounding, on each of verify's five windows (the banded e2 residual is
    exactly 0, so a vacuous check would not show otherwise)."""
    commutator = representations.skew_commutator
    monkeypatch.setattr(representations, "skew_commutator",
                        lambda m, diag, off: commutator(-m, diag, off))
    for rep, alg in ALL_CASES:
        res = lax_residual(rep, alg, r=0.8, s=0.6 if alg.clas != "su11" else 1.2, u=0.3)
        assert res >= 1e-2, (rep, res)


def test_lax_residual_rejects_non_finite_u():
    with pytest.raises(ValueError, match="u must be finite"):
        lax_residual(SU2(2.5), su2(), r=0.8, s=0.6, u=float("nan"))


def test_incompatible_pairs_rejected():
    with pytest.raises(ConfigurationError):
        check_compatible(SU2(1.0), su11())
    with pytest.raises(ConfigurationError):
        check_compatible(DiscreteSeriesPlus(1.0, 10), su2())
    with pytest.raises(ConfigurationError):
        check_compatible(Oscillator(0.5, 1.0, 10), e2(1.0))
    with pytest.raises(ConfigurationError):
        build_L(E2(1.0, -5, 5), oscillator(1.0), 1.0, 0.0)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        SU2(0.3)            # 2j must be a nonnegative integer
    with pytest.raises(ParameterError):
        SU2(-1.0)
    with pytest.raises(ParameterError):
        DiscreteSeriesPlus(0.0, 10)
    with pytest.raises(ParameterError):
        PrincipalSeries(0.0, 0.5, -5, 5)   # excluded (rho, eps) pair
    with pytest.raises(ParameterError):
        PrincipalSeries(0.7, 1.2, -5, 5)   # eps outside [0, 1)
    with pytest.raises(ParameterError):
        Oscillator(0.5, 0.0, 10)
    with pytest.raises(ParameterError):
        E2(-2.0, -5, 5)
    with pytest.raises(ParameterError):
        E2(1.0, 5, -5)


def test_window_flags():
    g = build_generators(SU2(3.0))
    assert g.lo_exact and g.hi_exact
    g = build_generators(DiscreteSeriesPlus(1.0, 20))
    assert g.lo_exact and not g.hi_exact
    g = build_generators(PrincipalSeries(0.7, 0.0, -10, 10))
    assert not g.lo_exact and not g.hi_exact


hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _dense_lax_residual(rep, alg, r, s, u, m_sign=1.0, op=None) -> float:
    """dL/dt - [M, L] formed densely, with M = m_sign u (E - E*) and L the
    operator ``op`` (by default ``build_L``), its max over the interior
    rows."""
    g = build_generators(rep)
    op = build_L(rep, alg, r, s) if op is None else op
    s_dot = 2.0 * alg.epsilon * r * u
    r_dot = -2.0 * (alg.a * s + alg.c_param) * u
    ldot = (np.diag(s_dot * (alg.a * g.h_diag + alg.b * g.n_scalar))
            + r_dot * (np.diag(g.e_coeff, 1) + np.diag(g.e_coeff, -1)))
    md = m_sign * u * (np.diag(g.e_coeff, -1) - np.diag(g.e_coeff, 1))  # E raises
    ld = _dense(op)
    diff = ldot - (md @ ld - ld @ md)
    return float(np.abs(diff[list(op.interior_rows())]).max())


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.sampled_from(range(len(ALL_CASES))), st.floats(-2.0, 2.0),
                  st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_banded_lax_residual_matches_dense_reference(case, r, s, u):
    rep, alg = ALL_CASES[case]
    banded = lax_residual(rep, alg, r, s, u)
    dense = _dense_lax_residual(rep, alg, r, s, u)
    # both are rounding noise on products of |M| and |L| entries
    op = build_L(rep, alg, r, s)
    scale = 1.0 + np.abs(u * build_generators(rep).e_coeff).max() * op.inf_norm()
    assert banded <= 1e-14 * scale
    assert abs(banded - dense) <= 1e-14 * scale
    # with M flipped the residual is 2|dL/dt|, and the banded rows must
    # read the same entries as the dense ones
    commutator = representations.skew_commutator
    with mock.patch.object(representations, "skew_commutator",
                           lambda m, diag, off: commutator(-m, diag, off)):
        flipped = lax_residual(rep, alg, r, s, u)
    want = _dense_lax_residual(rep, alg, r, s, u, m_sign=-1.0)
    assert abs(flipped - want) <= 1e-14 * scale


@pytest.mark.parametrize("case", range(len(ALL_CASES)))
def test_banded_lax_residual_reads_the_dense_interior_rows(case):
    """One entry of L perturbed at a time, near either edge: the banded
    residual must see the perturbation exactly where the dense residual's
    interior rows do, and miss it where they miss it."""
    rep, alg = ALL_CASES[case]
    r, s, u = 0.8, 0.6 if alg.clas != "su11" else 1.2, 0.3
    op = build_L(rep, alg, r, s)
    n = op.size
    for band, i in [(b, i) for b in ("diag", "off") for i in (0, 1, 2, n - 4, n - 3, n - 2)]:
        diag, off = op.diag.copy(), op.off.copy()
        (diag if band == "diag" else off)[i] += 1.0
        moved = TridiagonalOperator(op.base_index, diag, off, op.lo_exact, op.hi_exact)
        banded = lax_residual(rep, alg, r, s, u, L=moved)
        dense = _dense_lax_residual(rep, alg, r, s, u, op=moved)
        assert banded == pytest.approx(dense, rel=1e-12, abs=1e-11), (band, i)
