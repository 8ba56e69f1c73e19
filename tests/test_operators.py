import numpy as np
import pytest

from isoflow import TridiagonalOperator
from isoflow.operators import skew_commutator


def _dense(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def test_off_length_validated():
    with pytest.raises(ValueError):
        TridiagonalOperator(0, [1.0, 2.0], [1.0, 2.0])


def test_non_finite_entries_rejected():
    with pytest.raises(ValueError):
        TridiagonalOperator(0, [1.0, np.nan], [1.0])
    with pytest.raises(ValueError):
        TridiagonalOperator(0, [1.0, 2.0], [np.inf])


def test_inf_norm_matches_dense_row_sums():
    rng = np.random.default_rng(7)
    op = TridiagonalOperator(0, rng.normal(size=6), rng.normal(size=5))
    expected = np.abs(_dense(op.diag, op.off)).sum(axis=1).max()
    assert op.inf_norm() == pytest.approx(expected, rel=1e-15)
    assert TridiagonalOperator(0, [-3.0], []).inf_norm() == 3.0
    assert TridiagonalOperator(0, [], []).inf_norm() == 0.0


def test_interior_rows_trim_inexact_edges():
    exact = TridiagonalOperator(0, np.ones(8), np.ones(7))
    assert list(exact.interior_rows()) == list(range(8))

    lo_cut = TridiagonalOperator(0, np.ones(8), np.ones(7), lo_exact=False)
    assert list(lo_cut.interior_rows()) == list(range(2, 8))

    both = TridiagonalOperator(-3, np.ones(8), np.ones(7),
                               lo_exact=False, hi_exact=False)
    assert list(both.interior_rows()) == list(range(2, 6))

    tiny = TridiagonalOperator(0, np.ones(3), np.ones(2),
                               lo_exact=False, hi_exact=False)
    assert len(tiny.interior_rows()) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9])
def test_skew_commutator_bands_match_dense(n):
    """The bands of [M, L] against the dense ML - LM, with M oriented like
    the raising direction: entry (k+1, k) is +m[k]."""
    rng = np.random.default_rng(n)
    diag, off, m = rng.normal(size=n), rng.normal(size=n - 1), rng.normal(size=n - 1)
    md = np.diag(m, -1) - np.diag(m, 1)
    ld = _dense(diag, off)
    comm = md @ ld - ld @ md
    bands = skew_commutator(m, diag, off)
    assert [len(b) for b in bands] == [n, max(n - 1, 0), max(n - 2, 0)]
    for j, band in enumerate(bands):
        assert np.allclose(band, np.diag(comm, j), rtol=0, atol=1e-14)
        assert np.allclose(band, np.diag(comm, -j), rtol=0, atol=1e-14)
    # nothing outside the five bands
    assert np.array_equal(np.triu(comm, 3), np.zeros((n, n)))


def test_stored_arrays_are_read_only():
    op = TridiagonalOperator(0, [1.0, 2.0], [0.5])
    with pytest.raises(ValueError):
        op.diag[0] = 9.0
