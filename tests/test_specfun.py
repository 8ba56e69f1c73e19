import math

import numpy as np
import pytest
import scipy.special as sp

from isoflow import PrecisionError, bessel_j, regularized_2f1


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

