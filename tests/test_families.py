"""Orthonormal family evaluation: recurrence vs. hypergeometric route,
weights, discrete and continuous orthogonality, and the operator parameter
map."""
import math

import numpy as np
import pytest

from isoflow import (CharlierParams, FamilyTag, HermiteParams,
                     KrawtchoukParams, LaguerreParams, MeixnerFunctionParams,
                     MeixnerParams, MeixnerPollaczekParams, ParameterError,
                     eval_hyper, eval_rec, parameter_map, su2, su11,
                     oscillator, e2, weight)

F = FamilyTag


def _panel_quadrature(f, a, b, n_panels, n_nodes):
    """Composite Gauss-Legendre quadrature of a scalar function over [a, b]."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    edges = np.linspace(a, b, n_panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        fx = np.array([f(xi) for xi in 0.5 * (lo + hi) + half * nodes])
        total += half * float(np.sum(weights * fx))
    return total


def _random_case(rng, family):
    # Degrees capped at 10 and parameters kept away from the extreme
    # corners: this is a cross-check of two exact evaluation routes, and
    # near-degenerate parameters (p -> 1, huge alternating-series
    # cancellation) cost both routes digits without testing anything new.
    n = int(rng.integers(0, 11))
    if family is F.KRAWTCHOUK:
        n_lattice = int(rng.integers(12, 21))
        params = KrawtchoukParams(float(rng.uniform(0.15, 0.85)), n_lattice)
        x = float(rng.uniform(-2.0, n_lattice + 2.0))
    elif family is F.MEIXNER:
        params = MeixnerParams(float(rng.uniform(0.2, 5.0)),
                               float(rng.uniform(0.05, 0.9)))
        x = float(rng.uniform(-1.0, 20.0))
    elif family is F.LAGUERRE:
        params = LaguerreParams(float(rng.uniform(-0.5, 4.0)),
                                float(rng.uniform(0.5, 2.0)))
        x = float(rng.uniform(0.01, 20.0))
    elif family is F.MEIXNER_POLLACZEK:
        params = MeixnerPollaczekParams(float(rng.uniform(0.2, 2.5)),
                                        float(rng.uniform(0.3, 2.8)))
        x = float(rng.uniform(-5.0, 5.0))
    elif family is F.CHARLIER:
        params = CharlierParams(float(rng.uniform(0.2, 8.0)))
        x = float(rng.uniform(-2.0, 15.0))
    else:
        params = HermiteParams(float(rng.uniform(-1.0, 1.0)),
                               float(rng.uniform(0.5, 2.0)))
        x = float(rng.uniform(-4.0, 4.0))
    return params, n, x


_CASE_SEEDS = {F.KRAWTCHOUK: 52801, F.MEIXNER: 52802, F.LAGUERRE: 52803,
               F.MEIXNER_POLLACZEK: 52804, F.CHARLIER: 52805,
               F.HERMITE: 52806}


@pytest.mark.parametrize("family", [F.KRAWTCHOUK, F.MEIXNER, F.LAGUERRE,
                                    F.MEIXNER_POLLACZEK, F.CHARLIER, F.HERMITE])
def test_recurrence_matches_hypergeometric(family):
    rng = np.random.default_rng(_CASE_SEEDS[family])
    for _ in range(200):
        params, n, x = _random_case(rng, family)
        a = eval_rec(family, params, n, x)
        b = eval_hyper(family, params, n, x)
        assert abs(a - b) <= 1e-10 * (1.0 + abs(b)), (params, n, x)


def test_frozen_values():
    assert eval_hyper(F.KRAWTCHOUK, KrawtchoukParams(0.6, 12), 3, 7.0) == \
        pytest.approx(-0.04587349021359818, rel=1e-12)
    assert eval_hyper(F.MEIXNER, MeixnerParams(2.0, 0.25), 2, 3.0) == \
        pytest.approx(0.4330127018922193, rel=1e-13)
    assert eval_hyper(F.LAGUERRE, LaguerreParams(0.6), 3, 2.5) == \
        pytest.approx(0.3532983479545, rel=1e-11)
    assert eval_hyper(F.MEIXNER_POLLACZEK, MeixnerPollaczekParams(1.2, 2.0), 2, 0.7) == \
        pytest.approx(-0.6319734142813636, rel=1e-12)
    assert eval_hyper(F.CHARLIER, CharlierParams(2.5), 3, 4.0) == \
        pytest.approx(0.684227057829977, rel=1e-12)
    assert eval_hyper(F.HERMITE, HermiteParams(), 4, 1.3) == \
        pytest.approx(-1.1952693448200982, rel=1e-12)


def test_degree_one_closed_forms():
    p, n_lattice = 0.37, 15
    for x in (0.0, 4.5, 11.0):
        want = math.sqrt(n_lattice * p / (1.0 - p)) * (1.0 - x / (p * n_lattice))
        got = eval_rec(F.KRAWTCHOUK, KrawtchoukParams(p, n_lattice), 1, x)
        assert got == pytest.approx(want, rel=1e-13)
    # (a - x)/sqrt(a) at a=4, x=2 equals 1
    assert eval_rec(F.CHARLIER, CharlierParams(4.0), 1, 2.0) == pytest.approx(1.0)
    assert eval_rec(F.HERMITE, HermiteParams(), 1, 1.1) == \
        pytest.approx(math.sqrt(2.0) * 1.1, rel=1e-14)


def test_weight_masses():
    kp = KrawtchoukParams(0.598, 20)
    assert sum(weight(F.KRAWTCHOUK, kp, float(x)) for x in range(21)) == \
        pytest.approx(1.0, abs=1e-14)
    cp = CharlierParams(2.0)
    assert sum(weight(F.CHARLIER, cp, float(x)) for x in range(61)) == \
        pytest.approx(1.0, abs=1e-14)
    assert weight(F.MEIXNER_POLLACZEK, MeixnerPollaczekParams(1.0, math.pi / 2), 0.0) \
        == pytest.approx(2.0 / math.pi, rel=1e-13)


def test_krawtchouk_discrete_orthogonality():
    params = KrawtchoukParams(0.34, 14)
    w = [weight(F.KRAWTCHOUK, params, float(x)) for x in range(15)]
    vals = [[eval_rec(F.KRAWTCHOUK, params, n, float(x)) for x in range(15)]
            for n in range(7)]
    for n in range(7):
        for m in range(7):
            acc = sum(w[x] * vals[n][x] * vals[m][x] for x in range(15))
            assert abs(acc - (1.0 if n == m else 0.0)) <= 1e-12


@pytest.mark.parametrize("family,params", [
    (F.MEIXNER, MeixnerParams(1.7, 0.35)),
    (F.CHARLIER, CharlierParams(3.0)),
])
def test_unbounded_lattice_orthogonality(family, params):
    # Truncate where the largest weighted summand w * P_n * P_m underflows
    # the working tolerance.  Cutting on the bare weight is not enough: the
    # polynomial factors grow roughly like 1/sqrt(w) along the tail, so the
    # discarded summands would still be ~sqrt(w) there and the truncation
    # error would plateau far above the orthogonality defect being measured.
    xs, w = [], []
    for x in range(1000):
        wx = weight(family, params, float(x))
        big = max(abs(eval_rec(family, params, n, float(x))) for n in range(6))
        if x > 5 and wx * big * big < 1e-18:
            break
        xs.append(float(x))
        w.append(wx)
    for n in range(6):
        for m in range(6):
            acc = sum(wi * eval_rec(family, params, n, xi) *
                      eval_rec(family, params, m, xi) for xi, wi in zip(xs, w))
            assert abs(acc - (1.0 if n == m else 0.0)) <= 1e-10


@pytest.mark.parametrize("family,params,lo,hi", [
    (F.LAGUERRE, LaguerreParams(1.5), 0.0, 90.0),
    (F.HERMITE, HermiteParams(), -12.0, 12.0),
    (F.MEIXNER_POLLACZEK, MeixnerPollaczekParams(1.2, 2.0), -40.0, 40.0),
])
def test_continuous_orthogonality(family, params, lo, hi):
    for n in range(0, 8, 2):
        for m in range(n, 9, 3):
            val = _panel_quadrature(
                lambda x: weight(family, params, x) *
                eval_rec(family, params, n, x) *
                eval_rec(family, params, m, x), lo, hi,
                n_panels=96, n_nodes=32)
            assert abs(val - (1.0 if n == m else 0.0)) <= 1e-6, (family, n, m)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        KrawtchoukParams(0.0, 10)
    with pytest.raises(ParameterError):
        KrawtchoukParams(1.0, 10)
    with pytest.raises(ParameterError):
        KrawtchoukParams(0.5, -1)
    with pytest.raises(ParameterError):
        MeixnerParams(0.0, 0.5)
    with pytest.raises(ParameterError):
        MeixnerParams(1.0, 1.5)
    with pytest.raises(ParameterError):
        LaguerreParams(-1.0)
    with pytest.raises(ParameterError):
        MeixnerPollaczekParams(0.0, 1.0)
    with pytest.raises(ParameterError):
        MeixnerPollaczekParams(1.0, 3.5)
    with pytest.raises(ParameterError):
        CharlierParams(0.0)
    with pytest.raises(ParameterError):
        HermiteParams(0.0, 0.0)
    with pytest.raises(ParameterError):
        MeixnerFunctionParams(0.7, 0.3, 1.2)


def test_degree_bounds():
    with pytest.raises(ParameterError):
        eval_rec(F.KRAWTCHOUK, KrawtchoukParams(0.5, 5), 6, 1.0)
    with pytest.raises(ParameterError):
        eval_rec(F.BESSEL, MeixnerFunctionParams(0.7, 0.3, 0.2), 1, 0.0)


def test_parameter_map_frozen_points():
    params, smap = parameter_map(F.MEIXNER, su11(), 3.0, 5.0, k=1.0)
    assert smap.C == pytest.approx(4.0)
    assert params.c == pytest.approx(1.0 / 9.0, rel=1e-13)
    assert params.beta == pytest.approx(2.0)

    params, smap = parameter_map(F.KRAWTCHOUK, su2(), 3.0, 4.0, j=2.0)
    assert smap.C == pytest.approx(5.0)
    assert params.p == pytest.approx(0.9)
    assert params.N == 4
    # Lambda(x) = 2 C (j - x)
    assert smap.eigenvalue(0.0) == pytest.approx(20.0)
    assert smap.eigenvalue(2.0) == pytest.approx(0.0)
    assert smap.to_family_variable(smap.eigenvalue(1.0)) == pytest.approx(1.0)

    params, _ = parameter_map(F.KRAWTCHOUK, su2(), 3.0, 0.0, j=2.0)
    assert params.p == pytest.approx(0.5)


def test_parameter_map_case_conditions():
    with pytest.raises(ParameterError):
        # Meixner needs s_e > r
        parameter_map(F.MEIXNER, su11(), 3.0, 2.0, k=1.0)
    with pytest.raises(ParameterError):
        # MP needs |s_e| < r
        parameter_map(F.MEIXNER_POLLACZEK, su11(), 1.0, 2.0, k=1.0)
    with pytest.raises(ParameterError):
        # equal-parameter case needs s = r exactly
        parameter_map(F.LAGUERRE, su11(), 1.0, 1.2, k=1.0)
    with pytest.raises(ParameterError):
        # zero constant term has no Charlier case
        parameter_map(F.CHARLIER, oscillator(0.0), 1.0, 0.5, k=0.5, h=1.0)
    with pytest.raises(ParameterError):
        # nonzero constant term has no Hermite case
        parameter_map(F.HERMITE, oscillator(1.0), 1.0, 0.5, k=0.5, h=1.0)
    with pytest.raises(ParameterError):
        # missing representation label
        parameter_map(F.KRAWTCHOUK, su2(), 1.0, 0.2)


def test_parameter_map_charlier_scaling():
    c, r, s, k, h = 1.0, 6.0, 0.5, 0.5, 1.0
    params, smap = parameter_map(F.CHARLIER, oscillator(c), r, s, k=k, h=h)
    assert params.a == pytest.approx(h * r * r / (4.0 * c * c))
    big = r * r / (2.0 * c) + s
    assert smap.eigenvalue(0.0) == pytest.approx(2.0 * c * k - big * h)


def test_parameter_map_bessel():
    params, smap = parameter_map(F.BESSEL, e2(1.0), 1.3, 0.0, k=2.0)
    assert params.z == pytest.approx(2.6)
    assert smap.eigenvalue(3.0) == pytest.approx(6.0)
