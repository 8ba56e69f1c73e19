"""numpy is the package's one runtime dependency, and scipy only the tests'
oracle: no module of the package imports scipy, and no command loads it.
The tridiagonal solve ``isoflow.specfun.eigh_tridiagonal``, with or without
eigenvectors, calls LAPACK's ``dstevd`` from the OpenBLAS bundled with numpy
or, where numpy bundles none, numpy's own ``dsyevd`` on the dense matrix; on
both paths it must give scipy's results bitwise and raise scipy's input
errors, and every command must write the same bytes.  The bundled call
releases the GIL, so the row solver of a path (``specfun.eigvals_rows``)
splits its rows between threads there, and only there, with the serial
loop's results and errors.  |Gamma| comes from the ``math`` module, checked
against mpmath."""
import ast
import ctypes
import json
import os
import re
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from isoflow import (DiscreteSeriesPlus, FlowState, SU2, build_L, eigs_sym_tridiag,
                     integrate, isospectrality_drift, specfun, spectral, su2, su11)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BUNDLED = specfun._bundled_dstevd() is not None


# blocks scipy: importing it or any of its modules raises ImportError
NO_SCIPY = "import sys\nsys.modules['scipy'] = None\n"
# forces numpy's dense solve: numpy's bundled library is not found
NO_BUNDLED_LIBRARY = "import isoflow.specfun\nisoflow.specfun._bundled_dstevd = lambda: None\n"


def _on_path(path: str, code: str, block_scipy: bool = False) -> str:
    """``code`` on the solve ``path`` ("bundled" or "numpy"), checking
    afterwards that the solves went through that path's binding; the numpy
    path and ``block_scipy`` block scipy first."""
    head = NO_SCIPY if block_scipy or path == "numpy" else ""
    head += NO_BUNDLED_LIBRARY if path == "numpy" else ""
    return head + code + (
        "\nfrom isoflow import specfun\nassert specfun._dstevd is not None\n"
        f"assert (specfun._dstevd is specfun._numpy_dstevd) == {path == 'numpy'}\n")


def _scipy_modules_after(code: str, cwd=None) -> list[str]:
    """The scipy modules loaded once ``code`` has run in a fresh
    interpreter that imports isoflow from this checkout (a blocked module,
    None in ``sys.modules``, is not loaded)."""
    probe = code + ("\nimport json, sys\nprint(json.dumps(sorted("
                    "m for m, mod in sys.modules.items() if mod is not None"
                    " and (m == 'scipy' or m.startswith('scipy.')))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120, check=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy():
    assert _scipy_modules_after("import isoflow, isoflow.cli") == []


def test_no_module_of_the_package_imports_scipy():
    """Every import statement of ``src/isoflow``, also on code paths that no
    test runs: none is of scipy (numpy's, which every module makes, is seen)."""
    imported = []
    for module in sorted((SRC / "isoflow").rglob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imported += [(name.split(".")[0], f"{module.name}:{node.lineno}") for name in names]
    assert "numpy" in {top for top, _ in imported}
    assert [where for top, where in imported if top == "scipy"] == []


def _readme_configs() -> dict[str, dict]:
    """The README's ``isoflow run``, ``chain`` and ``mvk`` configs."""
    configs = {}
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```json\n(.*?)```", text, re.S):
        cfg = json.loads(block)
        if "flow" in cfg:
            configs["run"] = cfg
        elif "chain" in cfg:
            configs["mvk" if "degree" in cfg else "chain"] = cfg
    return configs


# the numpy path keeps the test id "scipy" of the days when scipy's dstevd
# served a numpy without the bundled library, so the ids stay stable
@pytest.fixture(params=["bundled", pytest.param("numpy", id="scipy")])
def path(request, monkeypatch):
    """Solves through numpy's bundled ``dstevd`` or through numpy's dense
    ``dsyevd``: the binding is dropped, and for the numpy path the locator
    finds nothing."""
    if request.param == "bundled" and not BUNDLED:
        pytest.skip("numpy bundles no ILP64 OpenBLAS with dstevd here")
    monkeypatch.setattr(specfun, "_dstevd", None)
    if request.param == "numpy":
        monkeypatch.setattr(specfun, "_bundled_dstevd", lambda: None)
    return request.param


def test_run_chain_and_mvk_load_no_scipy(path, tmp_path):
    """``isoflow run`` (a Toda flow), ``chain`` and ``mvk`` on the README
    configs, in one fresh interpreter, solve their spectra without loading
    scipy on either path, and on the numpy path with scipy blocked."""
    configs = _readme_configs()
    assert configs["run"]["flow"]["policy"] == {"type": "toda"}
    code = "import isoflow.cli\n"
    for command in ("run", "chain", "mvk"):
        (tmp_path / f"{command}.json").write_text(json.dumps(configs[command]))
        code += f"assert isoflow.cli.main([{command!r}, '{command}.json']) == 0\n"
    assert _scipy_modules_after(_on_path(path, code), cwd=tmp_path) == []


# a Toda run whose diagonalization check evaluates the Meixner functions,
# |Gamma| and 1/Gamma included, on a principal-series window
MEIXNER_FUNCTION_RUN = {
    "algebra": {"class": "su11"},
    "representation": {"type": "principal_series", "rho": 0.7, "eps": 0.3,
                       "n_min": -10, "n_max": 10},
    "flow": {"r0": 0.8, "s0": 1.2, "dt": 1e-3, "t_end": 0.1, "policy": {"type": "toda"}},
    "checks": [{"name": "diagonalization", "tolerance": 1e-9, "family": "meixner_function"}],
}


@pytest.mark.parametrize("command", ["verify", "run"])
def test_verify_and_meixner_function_run_load_no_scipy(path, tmp_path, command):
    """The full ``isoflow verify`` and ``isoflow run`` with a
    ``meixner_function`` diagonalization, each in a fresh interpreter, load
    no scipy on either path, and on the numpy path with scipy blocked."""
    args = [command]
    if command == "run":
        (tmp_path / "run.json").write_text(json.dumps(MEIXNER_FUNCTION_RUN))
        args.append("run.json")
    code = f"import isoflow.cli\nassert isoflow.cli.main({args!r}) == 0\n"
    assert _scipy_modules_after(_on_path(path, code), cwd=tmp_path) == []


def test_numpy_path_writes_the_bundled_bytes(tmp_path):
    """With scipy blocked, ``isoflow verify`` at seeds 12345 and 7 and
    ``run``, ``chain`` and ``mvk`` on the README configs write the same
    bytes on numpy's dense solve as on the bundled ``dstevd``: every CSV of
    the one fresh interpreter per path."""
    if not BUNDLED:
        pytest.skip("numpy bundles no ILP64 OpenBLAS with dstevd here")
    configs = _readme_configs()
    jobs = {f"verify_{seed}": ["verify", "--seed", str(seed)] for seed in (12345, 7)}
    jobs.update({command: [command, f"{command}.json"] for command in ("run", "chain", "mvk")})
    code = "import os\nimport isoflow.cli\n"
    for name, args in jobs.items():
        code += (f"os.environ['ISOFLOW_OUT'] = os.path.join('out', {name!r})\n"
                 f"assert isoflow.cli.main({args!r}) == 0\n")
    written = {}
    for path in ("bundled", "numpy"):
        cwd = tmp_path / path
        cwd.mkdir()
        for command in ("run", "chain", "mvk"):
            (cwd / f"{command}.json").write_text(json.dumps(configs[command]))
        assert _scipy_modules_after(_on_path(path, code, block_scipy=True), cwd=cwd) == []
        written[path] = {f.relative_to(cwd / "out").as_posix(): f.read_bytes()
                         for f in (cwd / "out").rglob("*.csv")}
    assert {"verify_12345/report.csv", "verify_7/report.csv", "run/spectrum.csv",
            "chain/spectrum.csv", "mvk/mvk.csv"} <= set(written["bundled"])
    assert sorted(written["numpy"]) == sorted(written["bundled"])
    for name, data in written["bundled"].items():
        assert written["numpy"][name] == data, name


def test_every_spectral_solve_looks_up_the_module_binding(monkeypatch):
    calls = []

    def counted(d, e, **kwargs):
        calls.append(kwargs.get("eigvals_only", False))
        return specfun.eigh_tridiagonal(d, e, **kwargs)
    monkeypatch.setattr(spectral, "eigh_tridiagonal", counted)

    alg = su2()
    L = build_L(SU2(2.0), alg, 1.0, 0.2)
    eigs_sym_tridiag(L)
    assert calls == [False]
    traj = integrate(alg, FlowState(r=1.0, s=0.2, t=0.0), 1.0,
                     dt=1e-3, t_end=0.01, record_every=5)
    isospectrality_drift(traj, SU2(2.0))
    assert calls == [False] + [True] * len(traj)


def test_wrappers_return_scipy_results():
    rng = np.random.default_rng(3)
    d, e = rng.normal(size=9), rng.uniform(0.1, 1.0, size=8)
    assert np.array_equal(specfun.eigh_tridiagonal(d, e, eigvals_only=True),
                          scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True))
    for got, want in zip(specfun.eigh_tridiagonal(d, e),
                         scipy.linalg.eigh_tridiagonal(d, e)):
        assert np.array_equal(got, want)


def test_gamma_against_mpmath():
    """log|Gamma(x + iy)|, |Gamma(x + iy)| and 1/Gamma(c) against 40-digit
    values, within 4e-15 max(1, |log Gamma|) (7.9e-16 measured): x in
    [-50, 60], poles of the real Gamma included, at y = 0.2, 0.7 and in
    [0.05, 5]; the Meixner-Pollaczek weight's lam + ix; real c with
    negative non-integers."""
    mp = pytest.importorskip("mpmath")
    tol = 4e-15
    args = [(x, y) for x in np.linspace(-50.0, 60.0, 221).tolist()
            for y in [0.2, 0.7, *np.linspace(0.05, 5.0, 8).tolist()]]
    args += [(lam, x) for lam in (0.5, 1.0, 2.5) for x in np.linspace(-30.0, 30.0, 61).tolist()]
    with mp.workdps(40):
        for x, y in args:
            want = mp.log(abs(mp.gamma(mp.mpc(x, y))))
            bound = tol * max(1, abs(want))
            assert abs(specfun.log_abs_gamma(x, y) - want) <= bound, (x, y)
            assert abs(specfun.abs_gamma(x, y) / mp.exp(want) - 1) <= bound, (x, y)
        for c in np.arange(-50.25, 170.5, 0.5).tolist():
            want = mp.rgamma(c)
            bound = tol * max(1, abs(mp.log(abs(want))))
            assert abs(specfun.regularized_2f1(0.4, 0.9, c, 0.0) / want - 1) <= bound, c


def _tridiagonal(rng, n):
    return rng.normal(size=n), rng.uniform(0.1, 1.0, size=n - 1)


def _same(got, want) -> bool:
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def _cases(rng, n):
    """Random entries, the matrix split into blocks by zero off-diagonals,
    and both scaled near 1e-160 and 1e160, where ``dstevd`` scales the
    matrix before solving and back after."""
    d, e = _tridiagonal(rng, n)
    split = e.copy()
    split[rng.integers(0, n - 1, size=(n - 1 + 3) // 4)] = 0.0
    cases = [(d, e), (d, split)]
    for scale in (1e-160, 1e160):
        cases += [(d * scale, e * scale), (d * scale, split * scale)]
    return cases


def test_eigenvalue_solve_is_scipys_bitwise(path):
    """Both solves, eigenvalues only and with eigenvectors, at n = 1..129."""
    rng = np.random.default_rng(11)
    for n in range(1, 130):
        for d, e in _cases(rng, n):
            got = specfun.eigh_tridiagonal(d, e, eigvals_only=True)
            want = scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True)
            assert _same(got, want), n
            assert not np.shares_memory(got, d)  # a fresh array, also for the 1x1 exit
            (lam, vec), (want_lam, want_vec) = (specfun.eigh_tridiagonal(d, e),
                                                scipy.linalg.eigh_tridiagonal(d, e))
            assert _same(lam, want_lam) and _same(vec, want_vec), n
            assert vec.flags.f_contiguous == want_vec.flags.f_contiguous
            assert not np.shares_memory(lam, d)
    assert specfun._dstevd is not None  # the solves went through the binding


def test_eigenvalue_solve_of_rows_is_scipys_bitwise(path):
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


def test_solves_from_threads_match_serial(path):
    """ctypes releases the GIL during the LAPACK call: four threads (more
    than the cores of a small host) solving at once, with the interpreter
    switching threads as often as it can, must each get the serial results
    bitwise, so no call may share storage with another."""
    rng = np.random.default_rng(17)
    # many matrices of few sizes, so that solves of one size overlap
    jobs = [(*_tridiagonal(rng, n), only) for n in (6, 40, 90) for _ in range(8)
            for only in (True, False)]

    def solve(d, e, only):
        out = specfun.eigh_tridiagonal(d, e, eigvals_only=only)
        return out.tobytes() if only else out[0].tobytes() + out[1].tobytes()
    serial = [solve(*job) for job in jobs]

    start = threading.Barrier(4)
    results = {}

    def worker(k):  # each thread starts at another job
        start.wait(timeout=60)
        order = [(i + k * len(jobs) // 4) % len(jobs) for i in range(len(jobs))]
        results[k] = [(i, solve(*jobs[i])) for _ in range(5) for i in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for got in results.values():
        assert len(got) == 5 * len(jobs)
        assert all(out == serial[i] for i, out in got)


@pytest.fixture
def started(monkeypatch):
    """Whether ``_dstevd`` was bound, for each thread started from here on."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(specfun._dstevd is not None)
            super().start()
    monkeypatch.setattr(threading, "Thread", Recorded)
    return started


def _serial_rows(diag, off):
    return [specfun.eigh_tridiagonal(d, e, eigvals_only=True, check_finite=False)
            for d, e in zip(diag, off)]


@pytest.mark.parametrize("n", [21, 40, 121])
@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("rows", [1, 3, 10])
def test_row_solver_is_the_serial_loop(path, started, monkeypatch, n, cpus, rows):
    """``eigvals_rows`` gives the serial loop's results bitwise.  It starts
    one thread per share beyond the caller's where the rows are split: on
    the bundled routine, from n = SPLIT_MIN_N, into at most MAX_SHARES
    shares, no more than the CPUs or the rows, each of at least
    SHARE_MIN_WORK (rows x n^2).  No thread otherwise, and none before
    ``_dstevd`` is bound."""
    monkeypatch.setattr(specfun, "_cpus", lambda: cpus)
    rng = np.random.default_rng(n + rows)
    diag, off = rng.normal(size=(rows, n)), rng.uniform(0.1, 1.0, size=(rows, n - 1))
    got = specfun.eigvals_rows(specfun.eigh_tridiagonal, diag, off)
    assert [w.tobytes() for w in got] == [w.tobytes() for w in _serial_rows(diag, off)]
    shares = 1
    if path == "bundled" and n >= specfun.SPLIT_MIN_N:
        shares = max(1, min(rows, cpus, specfun.MAX_SHARES,
                            rows * n * n // specfun.SHARE_MIN_WORK))
    assert started == [True] * (shares - 1)


@pytest.mark.parametrize("failing", [1, 2])
def test_row_solver_solves_a_share_whose_thread_cannot_start(monkeypatch, capfd, failing):
    """A share whose thread fails to start (``RuntimeError: can't start new
    thread`` under a process limit), and every later one, is solved by the
    caller: the results are the serial loop's, the first failing row still
    raises in row order, and the threads that did start are joined."""
    monkeypatch.setattr(specfun, "_cpus", lambda: 4)
    monkeypatch.setattr(specfun, "MAX_SHARES", 4)
    calls = []

    class Refused(threading.Thread):
        def start(self):
            calls.append(self)
            if len(calls) >= failing:
                raise RuntimeError("can't start new thread")
            super().start()
    monkeypatch.setattr(threading, "Thread", Refused)
    rng = np.random.default_rng(31)
    diag, off = rng.normal(size=(8, 80)), rng.uniform(0.1, 1.0, size=(8, 79))
    threads = threading.active_count()
    got = specfun.eigvals_rows(specfun.eigh_tridiagonal, diag, off)
    assert [w.tobytes() for w in got] == [w.tobytes() for w in _serial_rows(diag, off)]
    assert len(calls) == (failing if BUNDLED else 0)  # none tried after a refused one
    assert threading.active_count() == threads
    index = {d.tobytes(): i for i, d in enumerate(diag)}

    def solve(d, e, **kwargs):  # rows 5 and 7 fail; the shares are 0-1, 2-3, 4-5, 6-7
        if index[d.tobytes()] in (5, 7):
            raise np.linalg.LinAlgError(f"row {index[d.tobytes()]} did not converge")
        return specfun.eigh_tridiagonal(d, e, **kwargs)
    calls.clear()
    with pytest.raises(np.linalg.LinAlgError, match="^row 5 "):
        specfun.eigvals_rows(solve, diag, off)
    assert threading.active_count() == threads
    assert capfd.readouterr().err == ""


def test_row_solver_raises_the_first_failing_row(path, monkeypatch, capfd):
    """A LinAlgError of a row in the second share surfaces as the serial loop
    raises it, the first failing row's, after every thread has ended, and
    nothing reaches stderr (``threading.excepthook`` writes there)."""
    rng = np.random.default_rng(23)
    diag, off = rng.normal(size=(10, 40)), rng.uniform(0.1, 1.0, size=(10, 39))
    index = {d.tobytes(): i for i, d in enumerate(diag)}

    def failing_at(bad):
        def solve(d, e, **kwargs):
            i = index[d.tobytes()]
            if i in bad:
                raise np.linalg.LinAlgError(f"row {i} did not converge")
            return specfun.eigh_tridiagonal(d, e, **kwargs)
        return solve
    threads = threading.active_count()
    # the shares of two CPUs are rows 0-4 and 5-9
    for bad, first in (({7, 9}, 7), ({3, 8}, 3), ({5}, 5)):
        for cpus in (1, 2):
            monkeypatch.setattr(specfun, "_cpus", lambda: cpus)
            with pytest.raises(np.linalg.LinAlgError, match=f"^row {first} "):
                specfun.eigvals_rows(failing_at(bad), diag, off)
            assert threading.active_count() == threads
    assert capfd.readouterr().err == ""


def test_row_solver_threads_run_under_the_callers_errstate(monkeypatch):
    """Each share runs in a copy of the caller's context, so numpy's errstate
    (a context variable) holds in the threads as in the caller."""
    monkeypatch.setattr(specfun, "_cpus", lambda: 4)
    monkeypatch.setattr(specfun, "MAX_SHARES", 4)
    seen = []

    def solve(d, e, **kwargs):
        seen.append((threading.current_thread(), np.geterr()))
        return specfun.eigh_tridiagonal(d, e, **kwargs)
    rng = np.random.default_rng(29)
    diag, off = rng.normal(size=(8, 80)), rng.uniform(0.1, 1.0, size=(8, 79))
    with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
        caller = np.geterr()
        specfun.eigvals_rows(solve, diag, off)
    assert caller != np.geterr()
    assert len(seen) == 8
    assert all(err == caller for _, err in seen)
    if BUNDLED:
        assert len({thread for thread, _ in seen}) == 4


def test_split_path_solves_every_row_through_the_module_binding(monkeypatch):
    """Above the cutoff, split between threads, ``path_eigenvalues`` still
    solves each sample's row once through ``spectral.eigh_tridiagonal``."""
    monkeypatch.setattr(specfun, "_cpus", lambda: 2)
    solved, lock = [], threading.Lock()

    def counted(d, e, **kwargs):
        with lock:
            solved.append((d.tobytes(), e.tobytes()))
        return specfun.eigh_tridiagonal(d, e, **kwargs)
    monkeypatch.setattr(spectral, "eigh_tridiagonal", counted)
    rep, alg = DiscreteSeriesPlus(1.0, 40), su11()
    traj = integrate(alg, FlowState(r=1.0, s=1.25, t=0.0), 1.0,
                     dt=1e-3, t_end=0.05, record_every=5)
    got = spectral.path_eigenvalues(rep, alg, traj.r, traj.s)
    rows = [build_L(rep, alg, r, s) for r, s in zip(traj.r, traj.s)]
    assert rows[0].size >= specfun.SPLIT_MIN_N
    assert Counter(solved) == Counter((L.diag.tobytes(), L.off.tobytes()) for L in rows)
    assert [w.tobytes() for w in got] == [
        spectral.eigh_tridiagonal(L.diag, L.off, eigvals_only=True).tobytes() for L in rows]


def test_cpus_is_the_affinity_mask(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert specfun._cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert specfun._cpus() == (os.cpu_count() or 1)


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


def _lapack_returning(info: int):
    """A stand-in for the bundled ctypes routine that only sets ``info``, its
    eleventh argument."""
    def routine(*args):
        ctypes.cast(args[10], ctypes.POINTER(ctypes.c_int64))[0] = info
    return routine


def test_eigenvalue_solve_maps_lapack_info(path, monkeypatch):
    """The bundled routine's ``info`` raises scipy's errors; on the numpy
    path numpy's own LinAlgError propagates as numpy raised it."""
    d, e = np.array([1.0, 2.0]), np.array([0.5])
    if path == "numpy":
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        monkeypatch.setattr(np.linalg, "eigh", failing)
        for eigvals_only in (True, False):
            with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
                specfun.eigh_tridiagonal(d, e, eigvals_only=eigvals_only)
        return
    for info, exc in ((3, np.linalg.LinAlgError), (-2, ValueError)):
        routine = _lapack_returning(info)
        monkeypatch.setattr(specfun, "_dstevd", None)
        monkeypatch.setattr(specfun, "_bundled_dstevd", lambda: routine)
        for eigvals_only in (True, False):
            with pytest.raises(exc, match="stevd"):
                specfun.eigh_tridiagonal(d, e, eigvals_only=eigvals_only)
