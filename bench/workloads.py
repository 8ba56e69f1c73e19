"""Seeded job lists for the three benchmark workloads.

A job is one ``isoflow.cli.main`` call: a sub-command, an optional JSON
config, the check names the config asks for, and the CSV files the call
must write.  The seed perturbs the states, couplings and gamma profiles of
each job; the window sizes, step counts and table degrees stay fixed, so
every seed asks for the same amount of work.

This module uses only the standard library, so the set-up probe can time
``import isoflow`` on its own.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

WORKLOADS = ("verify", "rank1_sweep", "chain_mvk")

DEFAULT_SEED = 12345
HELD_OUT_SEEDS = (7, 2024, 31337)

# (job id, check name) pairs that fail at the seed commit.  They stay in the
# workload: each is counted as a failed check, and any other failing check
# makes the run incorrect.  The su2 rows fail on every seed; the verify row
# fails on about one suite seed in twenty-five.
KNOWN_FAILURES = {
    ("v07_meixner_functions", "meixner_function_recurrence"):
        "absolute residual 1.0e-6 to 5.9e-6 against the unscaled 1e-6 on about "
        "4% of suite seeds: when a drawn order n <= -6 meets an off-lattice x "
        "near 6, |m_n(x)| reaches 6e7, and the residual is 1e-14 relative",
    ("r04_su2_j10_toda", "diagonalization"):
        "absolute row residual 2.3e-9 against the scaled tolerance 2.2e-10 "
        "on the tilted j=10 window (s0=0.2)",
    ("r05_su2_j30_toda", "diagonalization"):
        "absolute row residual up to 1.5e4 on the tilted j=30 window: the "
        "closed-form eigenvector tails are not unit-normalised",
    ("r06_su2_j60_toda", "diagonalization"):
        "absolute row residual up to 1e23 on the tilted j=60 window, the "
        "absolute-residual floor described in spectral.recurrence_residual",
    ("r06_su2_j60_toda", "lax_residual"):
        "1.7e-12 against the unscaled tolerance 1e-12 on the 121-row window",
}

# checks whose report row passes when value > tolerance
INVERTED_CHECKS = {"tr2_variant_detected"}

OUTPUTS = {
    "run": ("trajectory.csv", "spectrum.csv", "report.csv"),
    "chain": ("chain_trajectory.csv", "spectrum.csv", "report.csv"),
    "mvk": ("mvk.csv", "report.csv"),
    "verify": ("report.csv",),
}

# report rows of each verify group, in the suite's order (81 in all)
VERIFY_GROUP_ROWS = {
    "lax": 5, "invariant": 4, "closed_form": 2, "diagonalization": 9,
    "isospectrality": 4, "modification": 18, "meixner_functions": 2,
    "chain": 11, "mvk": 15, "time_derivative": 7, "reduction": 4,
}

_TOL = {
    "lax_residual": 1e-12, "invariant_drift": 1e-10, "sign_conditions": 0.5,
    "isospectrality_drift": 1e-8, "modification": 1e-5,
    "diagonalization": 1e-11,
    "spectrum_sum": 1e-12, "orthogonality": 1e-12,
    "trace_closed_vs_dense": 1e-10, "trace_flow_drift": 1e-9,
    "tr2_variant_detected": 0.1,
    "base_entry": 1e-15, "dual_orthogonality": 1e-9, "recurrence": 1e-9,
    "degree_one_match": 1e-12,
}


@dataclass(frozen=True)
class Job:
    id: str
    command: str            # run | chain | mvk | verify
    config: dict | None     # None for verify
    checks: tuple[str, ...]  # expected report.csv rows, in order (run/chain/mvk)
    extra_args: tuple[str, ...] = ()
    group: str | None = None  # verify group

    @property
    def expected_rows(self) -> int:
        return VERIFY_GROUP_ROWS[self.group] if self.group else len(self.checks)

    def config_bytes(self) -> bytes:
        return (json.dumps(self.config, sort_keys=True) + "\n").encode()

    @property
    def outputs(self) -> tuple[str, ...]:
        return OUTPUTS[self.command]


def _r(x: float) -> float:
    """Round a drawn parameter so configs stay short and readable."""
    return round(x, 4)


def _check(name: str, **extra) -> dict:
    return {"name": name, "tolerance": extra.pop("tolerance", _TOL[name]), **extra}


# ---------------------------------------------------------------------------
# verify


def verify_jobs(seed: int) -> list[Job]:
    """The full 81-check suite of ``isoflow verify --seed S``, run as its 11
    groups (``--only G``).  A group gives the same rows alone as in the full
    run, so together they are the suite; short calls let every call be timed
    against the host's speed (speed.py) and give job_p90_ms enough samples."""
    rng = random.Random(f"verify:{seed}")
    suite_seed = str(rng.randrange(1, 2 ** 31))
    return [Job(f"v{i + 1:02d}_{g}", "verify", None, (),
                ("--only", g, "--seed", suite_seed), group=g)
            for i, g in enumerate(VERIFY_GROUP_ROWS)]


# ---------------------------------------------------------------------------
# rank1_sweep


def _flow(r0, s0, policy, dt, t_end, record_every):
    return {"r0": r0, "s0": s0, "dt": dt, "t_end": t_end,
            "record_every": record_every, "policy": policy}


def _toda():
    return {"type": "toda"}


def _scaled(sigma, gamma):
    return {"type": "signed_scaled", "sigma": sigma, "gamma": gamma}


def _gamma_table(rng, t_end):
    ts = [0.0, _r(t_end / 3), _r(2 * t_end / 3), t_end]
    return {"t": ts, "values": [_r(rng.uniform(0.6, 1.3)) for _ in ts]}


def _run_job(jid, algebra, rep, flow, checks):
    cfg = {"algebra": algebra, "representation": rep, "flow": flow,
           "checks": checks}
    return Job(jid, "run", cfg, tuple(c["name"] for c in checks))


def _su2_checks():
    return [_check("lax_residual"), _check("invariant_drift"),
            _check("sign_conditions"), _check("isospectrality_drift"),
            _check("modification", family="krawtchouk"),
            _check("diagonalization", family="krawtchouk", points=10)]


def rank1_jobs(seed: int) -> list[Job]:
    """Five windows, both policies, each with the families that match it.

    Window sizes, step counts and record intervals are fixed per job; the
    seed draws states, couplings and gamma profiles.  The su2 windows run
    from j=6 (the README config) to the tilted j=10/30/60 windows that fail
    at the seed commit (KNOWN_FAILURES).  The truncated windows keep the
    checks that hold on a truncation: isospectrality only for the lowest
    levels of a discrete spectrum, and no modification or diagonalization
    check where the CLI has no closed form to test on that window.
    """
    rng = random.Random(f"rank1_sweep:{seed}")
    U = lambda lo, hi: _r(rng.uniform(lo, hi))  # noqa: E731
    jobs = []
    su2a = {"class": "su2"}

    # -- su2 windows (compact class, Krawtchouk) --------------------------
    jobs.append(_run_job("r01_su2_j6_toda", su2a, {"type": "su2", "j": 6},
                         _flow(1.0, U(0.12, 0.22), _toda(), 1e-3, 1.0, 100),
                         _su2_checks()))
    jobs.append(_run_job("r02_su2_j6_scaled", su2a, {"type": "su2", "j": 6},
                         _flow(U(0.9, 1.1), U(0.1, 0.2),
                               _scaled(1, U(0.7, 1.2)), 1e-3, 1.0, 20),
                         _su2_checks()))
    jobs.append(_run_job("r03_su2_j8_scaled", su2a, {"type": "su2", "j": 8},
                         _flow(1.0, U(0.12, 0.22), _scaled(1, U(0.7, 1.2)),
                               1e-3, 1.0, 10),
                         _su2_checks()))
    # tilted windows of the sizes users run; state fixed so the failures
    # listed in KNOWN_FAILURES are the same for every seed
    for jid, j, rec in (("r04_su2_j10_toda", 10, 100), ("r05_su2_j30_toda", 30, 10),
                        ("r06_su2_j60_toda", 60, 10)):
        jobs.append(_run_job(jid, su2a, {"type": "su2", "j": j},
                             _flow(1.0, 0.2, _toda(), 1e-3, 1.0, rec),
                             _su2_checks()))

    # -- discrete series (non-compact class) ------------------------------
    su11a = {"class": "su11"}
    k = U(0.9, 1.1)
    ds = {"type": "discrete_series", "k": k, "n_max": 40}
    r0 = U(0.5, 0.6)
    states = {
        "meixner": (r0, _r(r0 * U(1.2, 1.3))),
        "laguerre": (r0, r0),
        "meixner_pollaczek": (r0, _r(r0 * U(0.4, 0.6))),
    }
    for fam, (r, s) in states.items():
        for pname in ("toda", "scaled"):
            # sign conditions need the policy sign sigma = -1 of this class
            if pname == "toda":
                pol, sign = _toda(), []
            else:
                pol, sign = _scaled(-1, U(0.7, 1.2)), [_check("sign_conditions")]
            checks = [_check("lax_residual"), _check("invariant_drift"), *sign]
            if fam == "meixner":  # discrete spectrum: the lowest levels hold
                checks.append(_check("isospectrality_drift", tolerance=1e-6,
                                     mode="lowest", count=3))
            checks += [_check("modification", family=fam),
                       _check("diagonalization", family=fam, points=10)]
            jobs.append(_run_job(f"r{len(jobs) + 1:02d}_discrete_{fam}_{pname}",
                                 su11a, ds, _flow(r, s, pol, 1e-4, 0.2, 10), checks))

    # -- principal series (bilateral window) ------------------------------
    ps = {"type": "principal_series", "rho": U(0.6, 0.8), "eps": U(0.2, 0.4),
          "n_min": -25, "n_max": 25}
    r = U(0.6, 0.7)
    s = _r(r * U(1.15, 1.25))
    for pname in ("toda", "scaled"):
        if pname == "toda":
            pol, sign = _toda(), []
        else:
            pol, sign = _scaled(-1, U(0.7, 1.2)), [_check("sign_conditions")]
        checks = [_check("lax_residual"), _check("invariant_drift"), *sign,
                  _check("modification", family="meixner")]
        jobs.append(_run_job(f"r{len(jobs) + 1:02d}_principal_{pname}", su11a, ps,
                             _flow(r, s, pol, 1e-4, 0.2, 10), checks))

    # -- oscillator (Charlier for c != 0, Hermite for c = 0) ---------------
    # the Charlier window stops at n_max=40: at 60 its closed-form rows hit
    # the absolute-residual floor for most drawn states
    for fam, c, h, n_max, r, s in (
            ("charlier", 1.0, 1.0, 40, U(3.8, 4.2), U(0.4, 0.6)),
            ("hermite", 0.0, 2.0, 60, U(1.0, 1.2), U(0.6, 0.8))):
        osc = {"type": "oscillator", "k": 0.5, "h": h, "n_max": n_max}
        for pname in ("toda", "scaled"):
            pol = _toda() if pname == "toda" else _scaled(1, U(0.5, 0.9))
            checks = [_check("lax_residual"), _check("invariant_drift"),
                      _check("sign_conditions")]
            if fam == "charlier":
                checks.append(_check("isospectrality_drift", tolerance=1e-6,
                                     mode="lowest", count=5))
            checks += [_check("modification", family=fam),
                       _check("diagonalization", family=fam, points=10)]
            jobs.append(_run_job(f"r{len(jobs) + 1:02d}_oscillator_{fam}_{pname}",
                                 {"class": "oscillator", "c": c}, osc,
                                 _flow(r, s, pol, 1e-3, 1.0, 20), checks))

    # -- e2 (flat class, Bessel coefficients) ------------------------------
    e2r = {"type": "e2", "k": U(1.8, 2.2), "n_min": -40, "n_max": 40}
    r, s = U(1.2, 1.4), U(0.3, 0.5)
    for pname in ("toda", "scaled"):
        pol = _toda() if pname == "toda" else _scaled(1, _gamma_table(rng, 1.0))
        checks = [_check("lax_residual"), _check("invariant_drift"),
                  _check("sign_conditions"),
                  _check("isospectrality_drift", mode="central", count=5),
                  _check("diagonalization", family="bessel", points=10)]
        jobs.append(_run_job(f"r{len(jobs) + 1:02d}_e2_{pname}",
                             {"class": "e2", "c": 1.0}, e2r,
                             _flow(r, s, pol, 1e-3, 1.0, 20), checks))
    return jobs


# ---------------------------------------------------------------------------
# chain_mvk

CHAIN_CHECKS = ("spectrum_sum", "orthogonality", "trace_closed_vs_dense",
                "trace_flow_drift", "tr2_variant_detected", "isospectrality_drift")
MVK_CHECKS = ("base_entry", "orthogonality", "dual_orthogonality", "recurrence",
              "degree_one_match")

# (d, record_every) of the chain jobs: 1000 RK4 steps each
CHAIN_SIZES = ((3, 100), (4, 10), (5, 50), (6, 20), (7, 100), (8, 10), (9, 50),
               (10, 20), (11, 100), (12, 10), (13, 50), (14, 20), (15, 100),
               (16, 10))
# (d, N) of the MVK jobs; M = C(N + d, d) indices, M**2 table entries
MVK_SIZES = ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 5),
             (3, 4), (4, 3), (2, 8), (3, 5))


def _chain_state(rng, d):
    return ([_r(rng.uniform(-0.5, 0.5)) for _ in range(d)],
            [_r(rng.uniform(0.5, 1.5)) for _ in range(d)])


def chain_mvk_jobs(seed: int) -> list[Job]:
    """Chain flows (d = 3..16, 1000 steps, recorded) interleaved with MVK
    tables from (2,2) up to M = 56 indices."""
    rng = random.Random(f"chain_mvk:{seed}")
    chain = []
    for d, rec in CHAIN_SIZES:
        s, r = _chain_state(rng, d)
        cfg = {"chain": {"s": s, "r": r, "g": _r(rng.uniform(0.8, 1.2)),
                         "dt": 1e-3, "t_end": 1.0, "record_every": rec},
               "checks": [_check(n) for n in CHAIN_CHECKS]}
        if d > 8:  # rounding in Q^T Q - I grows with the chain length
            cfg["checks"][1]["tolerance"] = 1e-10
        chain.append(Job(f"chain_d{d}", "chain", cfg, CHAIN_CHECKS))
    mvk = []
    for d, N in MVK_SIZES:
        s, r = _chain_state(rng, d)
        cfg = {"chain": {"s": s, "r": r}, "degree": N,
               "checks": [_check(n, tolerance=1e-9) if n == "orthogonality"
                          else _check(n) for n in MVK_CHECKS]}
        mvk.append(Job(f"mvk_d{d}_N{N}_M{math.comb(N + d, d)}", "mvk", cfg,
                       MVK_CHECKS))
    # interleave: spread the MVK jobs evenly between the chain jobs
    jobs = []
    step = len(chain) / len(mvk)
    for i, job in enumerate(mvk):
        lo, hi = round(i * step), round((i + 1) * step)
        jobs.extend(chain[lo:hi])
        jobs.append(job)
    jobs.extend(chain[round(len(mvk) * step):])
    return [Job(f"c{i + 1:02d}_{j.id}", j.command, j.config, j.checks)
            for i, j in enumerate(jobs)]


GENERATORS = {"verify": verify_jobs, "rank1_sweep": rank1_jobs,
              "chain_mvk": chain_mvk_jobs}


def make_jobs(workload: str, seed: int) -> list[Job]:
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return GENERATORS[workload](seed)
