"""Orthonormal family evaluation: recurrence vs. hypergeometric route,
weights, discrete and continuous orthogonality, and the operator parameter
map."""
import math

import numpy as np
import pytest

from isoflow import (E2, FAMILIES, SU2, BesselParams, CharlierParams,
                     DiscreteSeriesPlus, FamilyTag, HermiteParams,
                     KrawtchoukParams, LaguerreParams, MeixnerFunctionParams,
                     MeixnerParams, MeixnerPollaczekParams, Oscillator,
                     ParameterError, PrincipalSeries, check_modification,
                     eval_hyper, eval_rec, parameter_map, su2, su11, oscillator,
                     e2, weight)
from isoflow.families import check_regime

F = FamilyTag


def _panel_rule(a, b, n_panels, n_nodes):
    """Nodes and weights of composite Gauss-Legendre quadrature over [a, b]."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    centers = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (centers + half * nodes).ravel(), (half * weights).ravel()


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
    xs, wq = _panel_rule(lo, hi, n_panels=96, n_nodes=32)
    w = wq * np.array([weight(family, params, x) for x in xs.tolist()])
    vals = eval_rec(family, params, np.arange(9), xs)
    for n in range(0, 8, 2):
        for m in range(n, 9, 3):
            val = float(np.sum(w * vals[n] * vals[m]))
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
    params, smap = parameter_map(F.MEIXNER, DiscreteSeriesPlus(1.0, 40), su11(), 3.0, 5.0)
    assert smap.slope == pytest.approx(8.0)  # 2 C with C = 4
    assert params.c == pytest.approx(1.0 / 9.0, rel=1e-13)
    assert params.beta == pytest.approx(2.0)

    params, smap = parameter_map(F.KRAWTCHOUK, SU2(2.0), su2(), 3.0, 4.0)
    assert smap.slope == pytest.approx(-10.0)  # -2 C with C = 5
    assert params.p == pytest.approx(0.9)
    assert params.N == 4
    # Lambda(x) = 2 C (j - x)
    assert smap.eigenvalue(0.0) == pytest.approx(20.0)
    assert smap.eigenvalue(2.0) == pytest.approx(0.0)
    assert smap.to_family_variable(smap.eigenvalue(1.0)) == pytest.approx(1.0)

    params, _ = parameter_map(F.KRAWTCHOUK, SU2(2.0), su2(), 3.0, 0.0)
    assert params.p == pytest.approx(0.5)


def test_parameter_map_case_conditions():
    with pytest.raises(ParameterError):
        # Meixner needs s_e > r
        parameter_map(F.MEIXNER, DiscreteSeriesPlus(1.0, 40), su11(), 3.0, 2.0)
    with pytest.raises(ParameterError):
        # MP needs |s_e| < r
        parameter_map(F.MEIXNER_POLLACZEK, DiscreteSeriesPlus(1.0, 40), su11(), 1.0, 2.0)
    with pytest.raises(ParameterError):
        # equal-parameter case needs s = r exactly
        parameter_map(F.LAGUERRE, DiscreteSeriesPlus(1.0, 40), su11(), 1.0, 1.2)
    with pytest.raises(ParameterError):
        # zero constant term has no Charlier case
        parameter_map(F.CHARLIER, Oscillator(0.5, 1.0, 40), oscillator(0.0), 1.0, 0.5)
    with pytest.raises(ParameterError):
        # nonzero constant term has no Hermite case
        parameter_map(F.HERMITE, Oscillator(0.5, 1.0, 40), oscillator(1.0), 1.0, 0.5)


# one spec of each representation type, with the algebra maker of its class
SPECS = {SU2: (SU2(3.0), su2), DiscreteSeriesPlus: (DiscreteSeriesPlus(1.0, 40), su11),
         PrincipalSeries: (PrincipalSeries(0.7, 0.3, -25, 25), su11),
         Oscillator: (Oscillator(0.5, 1.0, 40), oscillator), E2: (E2(2.0, -40, 40), e2)}

# family -> (c, r, s): a state in its regime
REGIME_STATES = {
    F.KRAWTCHOUK: (0.0, 1.0, 0.2), F.MEIXNER: (0.0, 0.8, 1.2),
    F.LAGUERRE: (0.0, 1.3, 1.3), F.MEIXNER_POLLACZEK: (0.0, 2.0, 1.0),
    F.CHARLIER: (1.0, 4.0, 0.5), F.HERMITE: (0.0, 1.1, 0.7),
    F.MEIXNER_FUNCTION: (0.0, 0.8, 1.2), F.BESSEL: (1.0, 1.3, 0.4),
}


def test_every_family_has_one_representation():
    assert set(FAMILIES) == set(F) == set(REGIME_STATES)
    assert {entry.representation for entry in FAMILIES.values()} == set(SPECS)
    assert {f: FAMILIES[f].representation for f in F} == {
        F.KRAWTCHOUK: SU2, F.MEIXNER: DiscreteSeriesPlus,
        F.LAGUERRE: DiscreteSeriesPlus, F.MEIXNER_POLLACZEK: DiscreteSeriesPlus,
        F.MEIXNER_FUNCTION: PrincipalSeries, F.CHARLIER: Oscillator,
        F.HERMITE: Oscillator, F.BESSEL: E2}


@pytest.mark.parametrize("kind", list(SPECS), ids=lambda k: k.__name__)
@pytest.mark.parametrize("family", list(F), ids=lambda f: f.value)
def test_parameter_map_accepts_only_the_family_representation(family, kind):
    """At a state of the family's regime, a representation and the algebra of
    its class map only for the family's own type; for each other type the
    error names the family's own."""
    c, r, s = REGIME_STATES[family]
    spec, algebra = SPECS[kind]
    own = FAMILIES[family].representation
    if kind is own:
        parameter_map(family, spec, algebra(c), r, s)
    else:
        with pytest.raises(ParameterError, match=own.__name__):
            parameter_map(family, spec, algebra(c), r, s)


def test_run_points_of_every_family():
    """The sample points of ``isoflow run``, bit for bit."""
    for count in (1, 7, 10):
        lattice = np.arange(count, dtype=float)
        axis = np.linspace(-4.0, 4.0, count)
        expected = {F.KRAWTCHOUK: lattice, F.MEIXNER: lattice, F.CHARLIER: lattice,
                    F.LAGUERRE: np.linspace(0.3, 9.0, count),
                    F.BESSEL: lattice - count // 2, F.MEIXNER_POLLACZEK: axis,
                    F.HERMITE: axis, F.MEIXNER_FUNCTION: axis}
        for family in F:
            got = FAMILIES[family].points(count)
            assert got.dtype == np.float64 and got.tobytes() == expected[family].tobytes()


def test_parameter_map_charlier_scaling():
    c, r, s, k, h = 1.0, 6.0, 0.5, 0.5, 1.0
    params, smap = parameter_map(F.CHARLIER, Oscillator(k, h, 40), oscillator(c), r, s)
    assert params.a == pytest.approx(h * r * r / (4.0 * c * c))
    big = r * r / (2.0 * c) + s
    assert smap.eigenvalue(0.0) == pytest.approx(2.0 * c * k - big * h)


def test_parameter_map_bessel():
    params, smap = parameter_map(F.BESSEL, E2(2.0, -40, 40), e2(1.0), 1.3, 0.0)
    assert params.z == pytest.approx(2.6)
    assert smap.eigenvalue(3.0) == pytest.approx(6.0)


def _loop_reference(family, params, n, x):
    """Degree ``n`` at a number ``x`` by the per-family scalar loops that
    ``eval_rec`` ran before it shared ``specfun.three_term``."""
    def forward(x, a, b, flip):
        prev, cur = 0.0, 1.0
        for m in range(n):
            mid = (x - b(m)) if flip else (b(m) - x)
            nxt = (mid * cur - (a(m - 1) if m else 0.0) * prev) / a(m)
            prev, cur = cur, nxt
        return cur

    if family is F.KRAWTCHOUK:
        p, N = params.p, params.N
        return forward(x, lambda m: math.sqrt(p * (1 - p) * (m + 1) * (N - m)),
                       lambda m: p * N + m * (1 - 2 * p), False)
    if family is F.MEIXNER:
        beta, c = params.beta, params.c
        return forward(x, lambda m: math.sqrt(c * (m + 1) * (m + beta)) / (1 - c),
                       lambda m: (m + (m + beta) * c) / (1 - c), True)
    if family is F.LAGUERRE:
        alpha = params.alpha
        return forward(x / params.scale, lambda m: math.sqrt((m + 1) * (m + alpha + 1)),
                       lambda m: 2 * m + alpha + 1, True)
    if family is F.CHARLIER:
        av = params.a
        return forward(x, lambda m: math.sqrt(av * (m + 1)), lambda m: m + av, False)
    prev, cur = 0.0, 1.0
    if family is F.HERMITE:
        xt = (x - params.shift) / params.scale
        for m in range(n):
            nxt = (math.sqrt(2.0) * xt * cur - math.sqrt(m) * prev) / math.sqrt(m + 1)
            prev, cur = cur, nxt
        return cur
    lam, phi = params.lam, params.phi  # Meixner-Pollaczek
    for m in range(n):
        nxt = ((2 * x * math.sin(phi) + 2 * (m + lam) * math.cos(phi)) * cur
               - math.sqrt(m * (m + 2 * lam - 1)) * prev) \
            / math.sqrt((m + 1) * (m + 2 * lam))
        prev, cur = cur, nxt
    return cur


@pytest.mark.parametrize("family", [F.KRAWTCHOUK, F.MEIXNER, F.LAGUERRE,
                                    F.CHARLIER, F.HERMITE])
def test_degrees_in_one_pass_are_the_old_loops_bitwise(family):
    rng = np.random.default_rng([_CASE_SEEDS[family], 1])
    for _ in range(20):
        params, _, _ = _random_case(rng, family)
        top = min(getattr(params, "N", 20), 20)
        degs = rng.permutation(top + 1)[:12]
        xs = rng.uniform(-2.0, 15.0, 7)
        got = eval_rec(family, params, degs, xs)
        want = [[_loop_reference(family, params, int(n), float(x)) for x in xs]
                for n in degs]
        assert got.shape == (12, 7)
        assert got.tobytes() == np.array(want).tobytes(), params


def test_meixner_pollaczek_in_one_pass_is_the_old_loop_to_rounding():
    # the old loop rounded a(m - 1) as m (m + 2 lam - 1), the shared kernel
    # as (m - 1 + 1) (m - 1 + 2 lam): measured 4.2e-15 of each degree's
    # largest value over these cases
    rng = np.random.default_rng([_CASE_SEEDS[F.MEIXNER_POLLACZEK], 1])
    for _ in range(50):
        params, _, _ = _random_case(rng, F.MEIXNER_POLLACZEK)
        xs = rng.uniform(-5.0, 5.0, 8)
        got = eval_rec(F.MEIXNER_POLLACZEK, params, np.arange(21), xs)
        want = np.array([[_loop_reference(F.MEIXNER_POLLACZEK, params, n, float(x))
                          for x in xs] for n in range(21)])
        scale = np.abs(want).max(axis=1, keepdims=True)
        assert (np.abs(got - want) <= 1e-14 * scale).all(), params


def test_eval_rec_shapes():
    params = CharlierParams(2.5)
    degs = np.array([[0, 3, 1], [5, 5, 2]])
    xs = np.linspace(0.0, 6.0, 4)
    got = eval_rec(F.CHARLIER, params, degs, xs)
    assert got.shape == (2, 3, 4)
    assert got[1, 0].tobytes() == eval_rec(F.CHARLIER, params, 5, xs).tobytes()
    assert eval_rec(F.CHARLIER, params, degs, 1.5).shape == (2, 3)
    one = eval_rec(F.CHARLIER, params, 3, 1.5)
    assert type(one) is float and one == eval_rec(F.CHARLIER, params, [3], [1.5])[0, 0]
    assert eval_rec(F.CHARLIER, params, np.array([], dtype=int), xs).shape == (0, 4)


def test_array_degree_bounds_name_the_degree():
    params = KrawtchoukParams(0.5, 5)
    assert eval_rec(F.KRAWTCHOUK, params, np.arange(6), 1.0).shape == (6,)
    with pytest.raises(ParameterError, match="degree 7 exceeds lattice size 5"):
        eval_rec(F.KRAWTCHOUK, params, [2, 7, 3], 1.0)
    for bad in ([1, -1], [1.5, 2], [np.nan]):
        with pytest.raises(ParameterError, match="non-negative integer"):
            eval_rec(F.CHARLIER, CharlierParams(1.0), bad, 0.5)


def _mp_terminating(mp, n, upper, lower, z):
    """sum_{k <= n} (-n)_k prod (upper)_k / (prod (lower)_k k!) z^k, term by
    term at the working precision."""
    total = term = mp.mpf(1)
    for k in range(n):
        term *= ((k - n) * mp.fprod(u + k for u in upper) * z
                 / ((k + 1) * mp.fprod(v + k for v in lower)))
        total += term
    return total


def _mp_family(mp, fam, P, n, x):
    """The orthonormal member n at x from its definition at the working
    precision: the terminating hypergeometric sum, and for Hermite the
    three-term recurrence of H_n."""
    M, x = mp.mpf, mp.mpf(x)
    if fam is F.KRAWTCHOUK:
        p = M(P.p)
        return ((p / (1 - p)) ** (M(n) / 2) * mp.sqrt(mp.binomial(P.N, n))
                * _mp_terminating(mp, n, [-x], [-P.N], 1 / p))
    if fam is F.MEIXNER:
        beta, c = M(P.beta), M(P.c)
        return ((-1) ** n * mp.sqrt(mp.rf(beta, n) * c ** n / mp.factorial(n))
                * _mp_terminating(mp, n, [-x], [beta], 1 - 1 / c))
    if fam is F.LAGUERRE:
        alpha = M(P.alpha)
        return ((-1) ** n * mp.sqrt(mp.rf(alpha + 1, n) / mp.factorial(n))
                * _mp_terminating(mp, n, [], [alpha + 1], x / M(P.scale)))
    if fam is F.MEIXNER_POLLACZEK:
        lam, phi = M(P.lam), M(P.phi)
        return (mp.expj(n * phi) * mp.sqrt(mp.rf(2 * lam, n) / mp.factorial(n))
                * _mp_terminating(mp, n, [mp.mpc(lam, x)], [2 * lam],
                                  1 - mp.expj(-2 * phi))).real
    if fam is F.CHARLIER:
        a = M(P.a)
        return mp.sqrt(a ** n / mp.factorial(n)) * _mp_terminating(mp, n, [-x], [], -1 / a)
    xt = (x - M(P.shift)) / M(P.scale)
    h0, h1 = M(1), 2 * xt
    for m in range(1, n):
        h0, h1 = h1, 2 * xt * h1 - 2 * m * h0
    return (h1 if n else h0) / mp.sqrt(2 ** n * mp.factorial(n))


# family -> (parameters, points, bound on the error relative to max(1, |value|))
HYPER_ORACLE_CASES = {
    F.KRAWTCHOUK: ([KrawtchoukParams(p, 10) for p in (0.3, 0.5, 0.8)],
                   np.arange(11.0), 9.6e-14),
    F.MEIXNER: ([MeixnerParams(b, c) for b in (0.7, 2.5) for c in (0.3, 0.8)],
                np.arange(16.0), 3.0e-15),
    F.LAGUERRE: ([LaguerreParams(a, s) for a in (-0.5, 0.0, 2.5) for s in (1.0, 2.0)],
                 np.linspace(0.0, 30.0, 31), 2.2e-16),
    F.MEIXNER_POLLACZEK: ([MeixnerPollaczekParams(lam, phi)
                           for lam in (0.5, 1.5) for phi in (0.7, 2.0)],
                          np.linspace(-5.0, 5.0, 21), 2.0e-11),
    F.CHARLIER: ([CharlierParams(a) for a in (0.5, 3.0)], np.arange(16.0), 4.6e-14),
    F.HERMITE: ([HermiteParams(0.3, 1.5), HermiteParams()], np.linspace(-6.0, 6.0, 25),
                3.3e-14),
}


@pytest.mark.parametrize("family", [f.value for f in HYPER_ORACLE_CASES])
def test_eval_hyper_against_mpmath(family):
    """Degrees 0..10 against 30-digit values, relative to max(1, |value|).
    Measured worst: Krawtchouk 9.53e-14 (p = 0.8, the alternating sum at
    z = 1.25), Meixner 2.92e-15, Laguerre 2.13e-16, Meixner-Pollaczek
    1.93e-11, Charlier 4.50e-14, Hermite 3.27e-14."""
    mp = pytest.importorskip("mpmath")
    family = F(family)
    params, xs, bound = HYPER_ORACLE_CASES[family]
    with mp.workdps(30):
        for P in params:
            for n in range(11):
                for x in xs:
                    want = _mp_family(mp, family, P, n, x)
                    err = abs(eval_hyper(family, P, n, float(x)) - want) / max(1, abs(want))
                    assert err <= bound, (P, n, x, float(err))


_BESSEL_P, _MF_P = BesselParams(1.0), MeixnerFunctionParams(0.7, 0.3, 0.2)

# (id, call, the exact ParameterError text)
ERROR_CASES = [
    ("algebra_mismatch", lambda: check_regime(F.KRAWTCHOUK, su11(), 1.0, 0.5),
     "family krawtchouk diagonalizes L on SU2, which requires (a, b, epsilon) = "
     "(1.0, 0.0, 1), got (1.0, 0.0, -1)"),
    ("class_mismatch",
     lambda: parameter_map(F.KRAWTCHOUK, E2(2.0, -5, 5), su2(), 1.0, 0.5),
     "family krawtchouk diagonalizes L on SU2, got E2"),
    ("krawtchouk_zero", lambda: check_regime(F.KRAWTCHOUK, su2(), 0.0, 0.0),
     "zero operator has no spectral map"),
    ("meixner", lambda: check_regime(F.MEIXNER, su11(), 1.0, 0.5),
     "family meixner needs s + c > r > 0"),
    ("meixner_function", lambda: check_regime(F.MEIXNER_FUNCTION, su11(), -1.0, 2.0),
     "family meixner_function needs s + c > r > 0"),
    ("laguerre", lambda: check_regime(F.LAGUERRE, su11(), 1.0, 1.2),
     "gamma case needs s + c = r > 0"),
    ("meixner_pollaczek", lambda: check_regime(F.MEIXNER_POLLACZEK, su11(), 1.0, 1.5),
     "hyperbolic case needs |s + c| < r"),
    ("charlier_c", lambda: check_regime(F.CHARLIER, oscillator(0.0), 1.0, 0.5),
     "Poisson case needs c != 0"),
    ("charlier_r", lambda: check_regime(F.CHARLIER, oscillator(1.0), 0.0, 0.5),
     "Poisson case needs r != 0"),
    ("hermite_c", lambda: check_regime(F.HERMITE, oscillator(1.0), 1.0, 0.5),
     "Gaussian case needs c = 0"),
    ("hermite_r", lambda: check_regime(F.HERMITE, oscillator(0.0), -1.0, 0.5),
     "Gaussian case needs r > 0"),
    ("bessel_flat", lambda: check_regime(F.BESSEL, e2(0.0), 1.0, 0.5),
     "flat spectral map needs c != 0"),
    ("rec_bessel", lambda: eval_rec(F.BESSEL, _BESSEL_P, 2, 0.5),
     "no polynomial recurrence for family 'bessel'"),
    ("rec_meixner_function", lambda: eval_rec(F.MEIXNER_FUNCTION, _MF_P, 2, 0.5),
     "no polynomial recurrence for family 'meixner_function'"),
    ("hyper_bessel", lambda: eval_hyper(F.BESSEL, _BESSEL_P, 2, 0.5),
     "no hypergeometric sum for family 'bessel'"),
    ("hyper_meixner_function", lambda: eval_hyper(F.MEIXNER_FUNCTION, _MF_P, 2, 0.5),
     "no hypergeometric sum for family 'meixner_function'"),
    ("modification_bessel", lambda: check_modification(F.BESSEL, e2(1.0), 1.3, 0.4),
     "no closed-form modification for family 'bessel'"),
    ("modification_meixner_function",
     lambda: check_modification(F.MEIXNER_FUNCTION, su11(), 0.8, 1.2),
     "no closed-form modification for family 'meixner_function'"),
    ("rec_degree", lambda: eval_rec(F.KRAWTCHOUK, KrawtchoukParams(0.5, 5), 7, 1.0),
     "degree 7 exceeds lattice size 5"),
    ("hyper_degree", lambda: eval_hyper(F.KRAWTCHOUK, KrawtchoukParams(0.5, 5), 7, 1.0),
     "degree 7 exceeds lattice size 5"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in ERROR_CASES],
                         ids=[case[0] for case in ERROR_CASES])
def test_family_error_messages(call, message):
    """Every family error, word for word."""
    with pytest.raises(ParameterError) as err:
        call()
    assert str(err.value) == message
