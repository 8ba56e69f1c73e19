import math

import numpy as np
import pytest
import scipy.special as sp

from isoflow import PrecisionError, bessel_j, regularized_2f1
from isoflow.specfun import three_term


def test_2f1_frozen_values():
    a, b = 0.8 + 0.7j, 0.8 - 0.7j
    got = regularized_2f1(a, b, -3.0, -0.25)
    assert got == pytest.approx(0.029787772435472783, abs=1e-14)
    got = regularized_2f1(a, b, 1.5, -0.25)
    assert got == pytest.approx(0.9489842590673516, abs=1e-14)


def test_2f1_at_origin_is_reciprocal_gamma():
    for c in (0.3, 1.0, 4.5):
        assert regularized_2f1(0.4, 0.9, c, 0.0) == pytest.approx(
            1.0 / math.gamma(c), rel=1e-14)


def test_2f1_reciprocal_gamma_underflows_past_the_largest_gamma():
    # Gamma(200.5) is past the largest double: 1/Gamma(c) reads 0, no OverflowError
    assert regularized_2f1(0.4, 0.9, 200.5, 0.3) == 0.0
    # between 171 and 171.6, where Gamma(c) is still finite, either route serves
    assert regularized_2f1(0.4, 0.9, 171.2, 0.0) == pytest.approx(
        1.0 / math.gamma(171.2), rel=1e-13)


def test_2f1_takes_a_real_c():
    with pytest.raises(TypeError, match="real c"):
        regularized_2f1(0.4, 0.9, complex(1.5, 0.2), 0.3)
    with pytest.raises(TypeError, match="real c"):
        regularized_2f1(0.4, 0.9, 1.5 + 0j, 0.3)


def test_2f1_terminating():
    # a = -1 truncates after two terms for any z
    got = regularized_2f1(-1.0, 2.0, 3.0, 0.7)
    want = (1.0 - 2.0 * 0.7 / 3.0) / math.gamma(3.0)
    assert got == pytest.approx(want, rel=1e-14)
    # terminating series are exact even far outside the unit disc
    got = regularized_2f1(-2.0, 1.5, 2.5, 40.0)
    want = (1.0 - 2.0 * 1.5 / 2.5 * 40.0
            + (2.0 * 1.0 / 2.0) * (1.5 * 2.5 / (2.5 * 3.5)) * 40.0 ** 2) / math.gamma(2.5)
    assert got == pytest.approx(want, rel=1e-12)


def test_2f1_matches_scipy_on_reals():
    rng = np.random.default_rng(42)
    for _ in range(60):
        a = rng.uniform(-2.0, 2.5)
        b = rng.uniform(0.1, 3.0)
        c = rng.uniform(0.3, 4.0)
        z = rng.uniform(-2.0, 0.9)
        got = regularized_2f1(a, b, c, z)
        want = sp.hyp2f1(a, b, c, z) / math.gamma(c)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-13), (a, b, c, z)


def test_2f1_nonterminating_outside_disc_raises():
    with pytest.raises(PrecisionError):
        regularized_2f1(0.5, 0.7, 1.9, 1.2)


def test_bessel_frozen_values():
    assert bessel_j(0, 1.0) == pytest.approx(0.7651976865579666, abs=1e-15)
    assert bessel_j(7, 3.5) == pytest.approx(0.006743000315638399, abs=1e-15)
    assert bessel_j(-3, 2.7) == pytest.approx(-0.2540452915872274, abs=1e-14)
    assert bessel_j(12, 0.5) == pytest.approx(1.2383825594799328e-16, rel=1e-12)


def test_bessel_at_zero_is_kronecker():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(3, 0.0) == 0.0
    assert bessel_j(-2, 0.0) == 0.0


def test_bessel_parity():
    for n in (0, 1, 4, -5):
        assert bessel_j(n, -2.7) == pytest.approx((-1.0) ** n * bessel_j(n, 2.7),
                                                  rel=1e-13)


def test_bessel_three_term_identity():
    z = 5.0
    for nu in range(-10, 11):
        lhs = z * (bessel_j(nu - 1, z) + bessel_j(nu + 1, z))
        rhs = 2.0 * nu * bessel_j(nu, z)
        assert abs(lhs - rhs) <= 1e-12


def test_bessel_square_sum_is_one():
    z = 5.0
    total = sum(bessel_j(m, z) ** 2 for m in range(-40, 41))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_bessel_matches_scipy():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(-15, 16))
        z = float(rng.uniform(-20.0, 20.0))
        assert bessel_j(n, z) == pytest.approx(float(sp.jv(n, z)),
                                               rel=1e-11, abs=1e-14), (n, z)


def test_bessel_argument_cap():
    with pytest.raises(ValueError):
        bessel_j(0, 51.0)



def _bessel_order_loop(n, z):
    """J_n(z) for one order by the scalar Miller loop ``bessel_j`` ran
    before it took an array of orders."""
    if z == 0.0:
        return 1.0 if n == 0 else 0.0
    sign = 1.0
    if z < 0.0:
        z = -z
        if n % 2:
            sign = -sign
    if n < 0:
        n = -n
        if n % 2:
            sign = -sign
    n_start = max(n + 20, int(math.ceil(1.3 * z)) + 20)
    j_hi, j_k, target = 0.0, 1e-30, 0.0
    even_sum = j_k if (n_start % 2 == 0) else 0.0
    for k in range(n_start, 0, -1):
        j_lo = (2.0 * k / z) * j_k - j_hi
        j_hi, j_k = j_k, j_lo
        kk = k - 1
        if kk == n:
            target = j_k
        if kk > 0 and kk % 2 == 0:
            even_sum += j_k
        if abs(j_k) > 1e250:
            j_k *= 1e-250
            j_hi *= 1e-250
            target *= 1e-250
            even_sum *= 1e-250
    return sign * target / (j_k + 2.0 * even_sum)


def test_bessel_single_order_is_the_scalar_loop_bitwise():
    # z = 0.01 with |n| = 61 rescales the recurrence once on the way down
    for z in (0.0, 0.01, 0.8, -2.6, 13.0, -45.0, 50.0):
        for n in (-61, -7, -1, 0, 1, 4, 33, 60):
            want = _bessel_order_loop(n, z)
            got = bessel_j(n, z)
            assert type(got) is float and got == want, (n, z)
            assert bessel_j(np.array([n]), z).tobytes() == np.array([want]).tobytes()


def test_bessel_array_of_orders():
    orders = np.array([[-3, 0], [7, 12]])
    got = bessel_j(orders, 2.7)
    assert got.shape == (2, 2)
    for n, v in zip(orders.ravel().tolist(), got.ravel().tolist()):
        assert v == pytest.approx(float(sp.jv(n, 2.7)), rel=1e-13, abs=1e-300)
    assert bessel_j(orders, 0.0).tolist() == [[0.0, 1.0], [0.0, 0.0]]
    with pytest.raises(ValueError):
        bessel_j(orders, -50.5)


def test_bessel_orders_in_one_pass_against_mpmath():
    """Every order -60..60 from one backward recurrence, against 40-digit
    values: within 2.6e-14 relative (2.54e-14 measured, at z = 45)."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    orders = np.arange(-60, 61)
    for z in (0.8, 2.6, 13.0, 45.0):
        got = bessel_j(orders, z)
        want = np.array([float(mp.besselj(int(n), z)) for n in orders])
        assert (np.abs(got - want) <= 2.6e-14 * np.abs(want)).all(), z


def _mp_regularized_2f1(mp, a, b, c, z):
    """2F1(a, b; c; z) / Gamma(c) by mpmath's hyp2f1 (analytic continuation
    past |z| = 1), at c = -m through the limit (a)_{m+1} (b)_{m+1} z^{m+1}
    2F1(a+m+1, b+m+1; m+2; z) / (m+1)! (DLMF 15.2.3_5)."""
    if c <= 0 and c == int(c):
        m = int(-c)
        return (mp.rf(a, m + 1) * mp.rf(b, m + 1) / mp.factorial(m + 1) * mp.mpf(z) ** (m + 1)
                * mp.hyp2f1(a + m + 1, b + m + 1, m + 2, z))
    return mp.hyp2f1(a, b, c, z) * mp.rgamma(c)


@pytest.mark.parametrize("zs, bound", [
    (np.linspace(-3.0, -0.75, 6), 2.0e-14),
    (np.linspace(-0.5, 0.5, 5), 2.4e-13),
], ids=["pfaff", "series"])
def test_2f1_conjugate_pair_against_mpmath(zs, bound):
    """b = conj(a), the Meixner functions' case, with |Re a| <= 2 and c at
    poles, half-integers and ordinary points, against 30-digit values
    relative to max(1, |value|): 1.97e-14 measured through the Pfaff
    transform (z in [-3, -0.75]) and 2.32e-13 by the direct series
    (|z| <= 0.5, at a = 2 + 2j, c = -4, z = -0.5)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for a in (complex(ar, ai) for ar in (-2.0, -0.75, 0.5, 2.0) for ai in (0.3, 2.0)):
            for c in (-4.0, -1.5, 0.0, 0.5, 2.3, 6.5):
                for z in zs.tolist():
                    want = _mp_regularized_2f1(mp, mp.mpc(a), mp.mpc(a.conjugate()), c, z)
                    err = abs(regularized_2f1(a, a.conjugate(), c, z) - want) / max(1, abs(want))
                    assert err <= bound, (a, c, z, float(err))


@pytest.mark.parametrize("m", [169, 170, 171, 200])
def test_2f1_at_a_far_nonpositive_integer_c_against_mpmath(m):
    """At c = -m the series starts at k0 = m + 1 with (a)_k0 (b)_k0 z^k0 / k0!,
    whose k0! alone overflows a float from k0 = 171 on: against 40-digit
    values, within 1e-13 relative (5.3e-14 measured), by the direct series
    (z = 0.3) and through the Pfaff transform (z = -0.75)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for a, b in ((0.8 + 0.7j, 0.8 - 0.7j), (-1.7 + 0.4j, -1.7 - 0.4j), (0.4, 0.9)):
            for z in (0.3, -0.75):
                want = _mp_regularized_2f1(mp, mp.mpc(a), mp.mpc(b), -m, z)
                err = abs(regularized_2f1(a, b, float(-m), z) - want) / abs(want)
                assert err <= 1e-13, (a, b, z, float(err))


def test_three_term_rows():
    # mid = 2x, a = 1: the Chebyshev polynomials of the second kind
    x = np.array([-0.9, 0.1, 0.5])
    p = three_term(np.broadcast_to(2.0 * x, (6, 3)), np.ones(6))
    theta = np.arccos(x)
    assert p.shape == (7, 3)
    for n in range(7):
        assert p[n] == pytest.approx(np.sin((n + 1) * theta) / np.sin(theta),
                                     rel=1e-13, abs=1e-14)
    assert three_term(np.empty((0, 3)), np.empty(0)).tolist() == [[1.0, 1.0, 1.0]]
