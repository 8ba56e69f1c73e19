"""scipy is imported on first use: ``import isoflow`` loads none of it, and
every use goes through the two functions in ``isoflow.specfun``.  The
tridiagonal solve, with or without eigenvectors, calls LAPACK's ``dstevd``
itself and must give scipy's results and raise scipy's errors."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from isoflow import (FlowState, SU2, Toda, build_L, eigenvalues, eigs_sym_tridiag,
                     integrate, isospectrality_drift, specfun, spectral, su2)

SRC = Path(__file__).resolve().parents[1] / "src"


def _scipy_modules_after(code: str) -> list[str]:
    """The scipy modules loaded once ``code`` has run in a fresh
    interpreter that imports isoflow from this checkout."""
    probe = code + ("\nimport json, sys\nprint(json.dumps(sorted("
                    "m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy():
    assert _scipy_modules_after("import isoflow, isoflow.cli") == []


def test_chain_and_mvk_never_load_scipy_special(tmp_path):
    chain = {"chain": {"s": [0.3, -0.2, 0.4], "r": [1.0, 0.8, 1.2], "g": 1.0,
                       "dt": 0.01, "t_end": 0.1},
             "checks": [{"name": "isospectrality_drift", "tolerance": 1e-8}],
             "output": {"dir": str(tmp_path / "chain")}}
    mvk = {"chain": {"s": [0.3, -0.2], "r": [1.0, 0.8]}, "degree": 2,
           "checks": [{"name": "orthogonality", "tolerance": 1e-9}],
           "output": {"dir": str(tmp_path / "mvk")}}
    paths = []
    for name, cfg in (("chain", chain), ("mvk", mvk)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        paths.append(str(path))
    loaded = _scipy_modules_after(
        "import isoflow.cli\n"
        f"assert isoflow.cli.main(['chain', {paths[0]!r}]) == 0\n"
        f"assert isoflow.cli.main(['mvk', {paths[1]!r}]) == 0")
    assert "scipy.linalg" in loaded  # the chain spectra are solved
    assert not [m for m in loaded if m.startswith("scipy.special")]


def test_every_spectral_solve_looks_up_the_module_binding(monkeypatch):
    calls = []

    def counted(d, e, **kwargs):
        calls.append(kwargs.get("eigvals_only", False))
        return specfun.eigh_tridiagonal(d, e, **kwargs)
    monkeypatch.setattr(spectral, "eigh_tridiagonal", counted)

    alg = su2()
    L = build_L(SU2(2.0), alg, 1.0, 0.2)
    eigs_sym_tridiag(L)
    eigenvalues(L)
    assert calls == [False, True]
    traj = integrate(alg, FlowState(r=1.0, s=0.2, t=0.0), Toda(),
                     dt=1e-3, t_end=0.01, record_every=5)
    isospectrality_drift(traj, SU2(2.0), alg)
    assert calls == [False, True] + [True] * len(traj)


def test_wrappers_return_scipy_results():
    rng = np.random.default_rng(3)
    d, e = rng.normal(size=9), rng.uniform(0.1, 1.0, size=8)
    assert np.array_equal(specfun.eigh_tridiagonal(d, e, eigvals_only=True),
                          scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True))
    for got, want in zip(specfun.eigh_tridiagonal(d, e),
                         scipy.linalg.eigh_tridiagonal(d, e)):
        assert np.array_equal(got, want)
    for z in (0.5 + 0.0j, 2.5 + 1.3j, -3.7 + 0.2j, 0.01 - 40.0j, 170.0 + 5.0j):
        got, want = complex(specfun.loggamma(z)), complex(scipy.special.loggamma(z))
        assert (got.real, got.imag) == (want.real, want.imag)


def _tridiagonal(rng, n):
    return rng.normal(size=n), rng.uniform(0.1, 1.0, size=n - 1)


def _same(got, want) -> bool:
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


@pytest.mark.parametrize("n", [1, 2, 7, 61, 121])
def test_eigenvalue_solve_is_scipys_bitwise(n):
    """Both solves, eigenvalues only and with eigenvectors."""
    rng = np.random.default_rng(n)
    for _ in range(5):
        d, e = _tridiagonal(rng, n)
        got = specfun.eigh_tridiagonal(d, e, eigvals_only=True)
        want = scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True)
        assert _same(got, want)
        assert not np.shares_memory(got, d)  # a fresh array, also for the 1x1 exit
        (lam, vec), (want_lam, want_vec) = (specfun.eigh_tridiagonal(d, e),
                                            scipy.linalg.eigh_tridiagonal(d, e))
        assert _same(lam, want_lam) and _same(vec, want_vec)
        assert not np.shares_memory(lam, d)


def test_eigenvalue_solve_of_rows_is_scipys_bitwise():
    rng = np.random.default_rng(5)
    d, e = rng.normal(size=(9, 13)), rng.uniform(0.1, 1.0, size=(9, 12))
    for dr, er in zip(d, e):
        got = specfun.eigh_tridiagonal(dr, er, eigvals_only=True, check_finite=False)
        want = scipy.linalg.eigh_tridiagonal(dr, er, eigvals_only=True)
        assert got.tobytes() == want.tobytes()
    # a column is a strided view
    got = specfun.eigh_tridiagonal(d[:, 0], e[:8, 0], eigvals_only=True)
    want = scipy.linalg.eigh_tridiagonal(d[:, 0], e[:8, 0], eigvals_only=True)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d, e, match", [
    ([1.0, np.nan, 2.0], [0.5, 0.5], "infs or NaNs"),
    ([1.0, 2.0, 3.0], [0.5, np.inf], "infs or NaNs"),
    ([np.nan], [], "infs or NaNs"),
    ([1.0, 2.0, 3.0], [0.5, 0.5, 0.5], "one more element"),
    ([1.0, 2.0], [], "one more element"),
])
def test_eigenvalue_solve_raises_like_scipy(d, e, match):
    d, e = np.array(d), np.array(e)
    for solve in (specfun.eigh_tridiagonal, scipy.linalg.eigh_tridiagonal):
        for eigvals_only in (True, False):
            with pytest.raises(ValueError, match=match):
                solve(d, e, eigvals_only=eigvals_only)


def test_eigenvalue_solve_maps_lapack_info(monkeypatch):
    d, e = np.array([1.0, 2.0]), np.array([0.5])
    specfun.eigh_tridiagonal(d, e, eigvals_only=True)  # binds dstevd
    for info, exc in ((3, np.linalg.LinAlgError), (-2, ValueError)):
        monkeypatch.setattr(specfun, "_dstevd",
                            lambda d, e, compute_v, info=info: (d, None, info))
        for eigvals_only in (True, False):
            with pytest.raises(exc, match="stevd"):
                specfun.eigh_tridiagonal(d, e, eigvals_only=eigvals_only)
