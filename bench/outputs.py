"""Correctness checks on what one ``isoflow`` job wrote.

``check_job`` compares the exit code with the parsed ``report.csv`` rows,
checks that every configured check appears in order, that each row's pass
flag agrees with its value and tolerance, and that every failing row is a
listed known failure.  With ``deep=True`` it also re-derives properties of
the CSV files from their contents: sample counts, the invariant column of
``trajectory.csv``, spectrum sizes and traces, and the MVK base entries.
"""
from __future__ import annotations

import csv
import hashlib
import math
import os

from workloads import INVERTED_CHECKS, KNOWN_FAILURES

REPORT_HEADER = ["check", "value", "tolerance", "pass"]

# (a, epsilon, default c) of each algebra class, as in isoflow.algebra
_ALGEBRA = {"su2": (1.0, 1, 0.0), "su11": (1.0, -1, 0.0),
            "oscillator": (0.0, 1, 1.0), "e2": (0.0, 1, 1.0)}


def read_csv(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_report(path: str) -> list[tuple[str, float, float, bool]]:
    rows = read_csv(path)
    if not rows or rows[0] != REPORT_HEADER:
        raise ValueError(f"bad report header {rows[:1]}")
    out = []
    for row in rows[1:]:
        name, value, tol, flag = row
        if flag not in ("true", "false"):
            raise ValueError(f"bad pass flag {flag!r}")
        out.append((name, float(value), float(tol), flag == "true"))
    return out


def file_hashes(job, outdir: str) -> dict[str, str]:
    out = {}
    for name in job.outputs:
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_job(job, code, outdir: str, deep: bool = False):
    """Return (report rows, list of problems) for one finished job."""
    if code not in (0, 1):
        return [], [f"{job.id}: exit code {code}"]
    problems = []
    missing = [n for n in job.outputs if not os.path.isfile(os.path.join(outdir, n))]
    if missing:
        return [], [f"{job.id}: missing outputs {missing}"]
    try:
        rows = read_report(os.path.join(outdir, "report.csv"))
    except (ValueError, OSError) as exc:
        return [], [f"{job.id}: unreadable report.csv: {exc}"]

    names = [r[0] for r in rows]
    if job.command == "verify":
        # verify rows are not all named uniquely (mvk_degree_one_match_d2
        # appears twice), so count them
        if len(rows) != job.expected_rows:
            problems.append(f"{job.id}: {len(rows)} report rows, "
                            f"expected {job.expected_rows}")
    elif tuple(names) != job.checks:
        problems.append(f"{job.id}: report rows {names} != configured {list(job.checks)}")
    else:
        for name, value, tol, passed in rows:
            expect = value > tol if name in INVERTED_CHECKS else value <= tol
            if passed != expect:
                problems.append(f"{job.id}: {name} pass={passed} but "
                                f"value={value!r} tolerance={tol!r}")
    if (code == 0) != all(r[3] for r in rows):
        problems.append(f"{job.id}: exit code {code} disagrees with report rows")
    for name, value, tol, passed in rows:
        if not passed and (job.id, name) not in KNOWN_FAILURES:
            problems.append(f"{job.id}: unexpected failure {name} "
                            f"value={value!r} tolerance={tol!r}")
    if deep and not problems:
        problems += _deep_checks(job, outdir)
    return rows, problems


# ---------------------------------------------------------------------------


def _samples(t0, dt, t_end, record_every) -> int:
    n = int(round((t_end - t0) / dt))
    return 1 + n // record_every + (1 if n % record_every else 0)


def _window_size(rep: dict) -> int:
    if rep["type"] == "su2":
        return int(round(2 * rep["j"])) + 1
    return rep["n_max"] - rep.get("n_min", 0) + 1


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _deep_checks(job, outdir: str) -> list[str]:
    cfg = job.config
    path = lambda name: os.path.join(outdir, name)  # noqa: E731
    problems = []
    if job.command == "run":
        flow = cfg["flow"]
        n = _samples(flow.get("t0", 0.0), flow["dt"], flow["t_end"], flow["record_every"])
        traj = read_csv(path("trajectory.csv"))
        if traj[0] != ["t", "r", "s", "u", "I"] or len(traj) != n + 1:
            problems.append(f"{job.id}: trajectory.csv has {len(traj) - 1} samples, expected {n}")
        a, eps, c = _ALGEBRA[cfg["algebra"]["class"]]
        c = cfg["algebra"].get("c", c)
        for row in traj[1:]:
            t, r, s, u, inv = map(float, row)
            if not _close(inv, eps * r * r + (a * s + 2 * c) * s, 1e-12):
                problems.append(f"{job.id}: invariant column disagrees at t={t}")
                break
        if "representation" in cfg:
            spec = read_csv(path("spectrum.csv"))
            size = _window_size(cfg["representation"])
            if spec[0] != ["t", "index", "lambda"] or len(spec) != n * size + 1:
                problems.append(f"{job.id}: spectrum.csv has {len(spec) - 1} rows, "
                                f"expected {n} x {size}")
    elif job.command == "chain":
        block = cfg["chain"]
        d = len(block["s"])
        n = _samples(block.get("t0", 0.0), block["dt"], block["t_end"], block["record_every"])
        traj = read_csv(path("chain_trajectory.csv"))
        if len(traj) != n + 1 or len(traj[0]) != 1 + 2 * d:
            problems.append(f"{job.id}: chain_trajectory.csv shape {len(traj) - 1}x{len(traj[0])}")
        spec = read_csv(path("spectrum.csv"))[1:]
        if len(spec) != n * (d + 1):
            problems.append(f"{job.id}: spectrum.csv has {len(spec)} rows, expected {n * (d + 1)}")
        for i in range(0, len(spec), d + 1):
            lam = [float(row[2]) for row in spec[i:i + d + 1]]
            # the chain operator is traceless
            if abs(math.fsum(lam)) > 1e-9 * (1.0 + max(map(abs, lam))):
                problems.append(f"{job.id}: spectrum at t={spec[i][0]} does not sum to zero")
                break
    elif job.command == "mvk":
        d, N = len(cfg["chain"]["s"]), cfg["degree"]
        m = math.comb(N + d, d)
        table = read_csv(path("mvk.csv"))
        if table[0] != ["sigma", "rho", "P"] or len(table) != m * m + 1:
            problems.append(f"{job.id}: mvk.csv has {len(table) - 1} rows, expected {m * m}")
        base = "-".join([str(N)] + ["0"] * d)
        bases = [float(p) for sigma, _, p in table[1:] if sigma == base]
        if len(bases) != m or any(abs(p - 1.0) > 1e-12 for p in bases):
            problems.append(f"{job.id}: mvk.csv base entries P({base}, rho) are not all 1")
    return problems
