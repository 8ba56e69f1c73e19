"""Bilateral second-kind family on the shifted integer lattice."""
import dataclasses

import numpy as np
import pytest

from isoflow import (FamilyTag, MeixnerFunctionParams, meixner_function,
                     meixner_function_recurrence_residual, run_verify, weight)
from isoflow import verify

PARAMS = MeixnerFunctionParams(0.7, 0.3, 0.2)


def test_frozen_values():
    assert meixner_function(0, 0.0, PARAMS) == \
        pytest.approx(0.6070060193613149, rel=1e-12)
    assert meixner_function(1, 2.0, PARAMS) == \
        pytest.approx(0.16836780728310685, rel=1e-12)
    assert meixner_function(-2, 3.0, PARAMS) == \
        pytest.approx(-0.00041454958783483897, rel=1e-10)
    assert meixner_function(3, -4.0, PARAMS) == \
        pytest.approx(-0.0001053788383262253, rel=1e-10)
    assert meixner_function(2, 2.0, PARAMS) == \
        pytest.approx(0.023962830452337394, rel=1e-12)


def test_recurrence_residual_random_points():
    rng = np.random.default_rng(20260816)
    for trial in range(50):
        n = int(rng.integers(-8, 9))
        if trial % 2 == 0:
            x = float(rng.integers(-8, 9))
        else:
            x = float(rng.uniform(-6.0, 6.0))
        res = meixner_function_recurrence_residual(n, x, PARAMS)
        assert res <= 1e-6, (n, x, res)


def test_bilateral_orthogonality():
    """Gram matrix over the integer lattice, normalized by the diagonal."""
    xs = np.arange(-40, 41)
    w = np.array([weight(FamilyTag.MEIXNER_FUNCTION, PARAMS, float(x)) for x in xs])
    orders = range(-2, 3)
    vals = dict(zip(orders, meixner_function(np.array(orders), xs, PARAMS)))
    diag = {n: float(np.sum(w * vals[n] * vals[n])) for n in orders}
    for n in orders:
        for m in orders:
            if n == m:
                continue
            gram = float(np.sum(w * vals[n] * vals[m]))
            norm = gram / np.sqrt(diag[n] * diag[m])
            assert abs(norm) <= 1e-4, (n, m, norm)


def test_arrays_of_orders_and_points_are_the_scalar_calls():
    n = np.array([[-3, 0], [2, 5]])
    xs = np.array([-4.0, 0.5, 3.0])
    got = meixner_function(n, xs, PARAMS)
    assert got.shape == (2, 2, 3)
    for (i, j, k), v in np.ndenumerate(got):
        assert v == meixner_function(int(n[i, j]), float(xs[k]), PARAMS)
    one = meixner_function(2, 2.0, PARAMS)
    assert type(one) is float
    assert meixner_function(n, 1.5, PARAMS).shape == (2, 2)
    assert meixner_function([], xs, PARAMS).shape == (0, 3)


def _mpmath_meixner_function(mp, n, x):
    """m_n(x) at 60 digits from its definition, summing the regularized
    series sum_k (a)_k (b)_k z^k / (k! Gamma(n + 1 - x + k)) term by term
    (1/Gamma vanishes at the poles)."""
    rho, eps, c = (mp.mpf(v) for v in (PARAMS.rho, PARAMS.eps, PARAMS.c))
    a = mp.mpc(n + eps + mp.mpf(1) / 2, rho)
    b = mp.conj(a)
    cpar, z = n + 1 - mp.mpf(x), c / (c - 1)
    total, poch, k = mp.mpf(0), mp.mpf(1), 0
    while True:
        term = poch * z ** k / mp.factorial(k) * mp.rgamma(cpar + k)
        total += term
        if term != 0 and abs(term) < mp.mpf(10) ** -70 * abs(total):
            break
        poch *= (a + k) * (b + k)
        k += 1
    return (mp.sqrt(c) / (c - 1)) ** n * abs(mp.gamma(a)) * (1 - c) ** (-eps) * total.real


def test_against_mpmath():
    """At verify's parameters, n in [-9, 2] and x in [-8, 8] on a half-integer
    grid: within 4.4e-13 relative (4.37e-13 measured).  Past n = 2 the float
    series loses digits fast (2.2e-12 at n = 3, 1.9e-4 at n = 9)."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    ns, xs = np.arange(-9, 3), np.linspace(-8.0, 8.0, 33)
    got = meixner_function(ns, xs, PARAMS)
    want = np.array([[float(_mpmath_meixner_function(mp, int(n), float(x))) for x in xs]
                     for n in ns])
    assert (np.abs(got - want) <= 4.4e-13 * np.abs(want)).all()


def _orthogonality_row():
    rows = {row.name: row for row in run_verify(only="meixner_functions")}
    return rows["meixner_function_orthogonality"]


def test_orthogonality_row_fails_when_rho_moves_in_the_functions_only(monkeypatch):
    """Negative control of verify's meixner_function_orthogonality: the row
    reads 2.0e-15 against 1e-12; with rho moved by a relative 1e-6 in the
    functions but not in the weight it reads about 6.0e-7."""
    assert _orthogonality_row().value < 1e-14

    def moved(n, x, params):
        return meixner_function(n, x, dataclasses.replace(params, rho=params.rho * (1 + 1e-6)))
    monkeypatch.setattr(verify, "meixner_function", moved)
    row = _orthogonality_row()
    assert not row.passed and row.value >= 100 * row.tolerance, row
    assert row.value == pytest.approx(6.0e-7, rel=0.05)
