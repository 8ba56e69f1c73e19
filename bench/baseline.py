#!/usr/bin/env python3
"""Measure the benchmark over several seeds and write ``bench/baseline.json``.

    python3 bench/baseline.py [--seeds 12345,1,2,...]

Run from the root of a source checkout.  For every workload it makes one
untraced run per seed and one traced run with the default seed, then
records for each end-to-end metric the ten values, their median and
quartiles, and the spread (q3 - q1) / median against the metric's bound
in BENCHMARK.json.  The file also records the machine, the known failures,
the per-layer numbers and tracing overhead of the traced run, the sha256 of
every output CSV for the default seed, and which end-to-end metric each
layer is predicted to move.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import DEFAULT_SEED, HELD_OUT_SEEDS, KNOWN_FAILURES, WORKLOADS  # noqa: E402

# layer metrics -> the end-to-end metrics they should move, and where no
# change is predicted
PREDICTIONS = [
    {"layers": ["flows.integrate.{calls,self_s,rk4_steps,repeat_ratio}",
                "flows.check_sign_conditions.total_s",
                "flows.modification_report.self_s"],
     "moves": ["verify.wall_s (about half)", "rank1_sweep.wall_s",
               "rank1_sweep.job_p50_ms"],
     "no_change": ["chain_mvk"]},
    {"layers": ["chain.integrate_chain.{calls,self_s,rk4_steps}",
                "chain.trace_invariants.self_s", "chain.chain_spectrum.self_s",
                "chain.christoffel_weights.self_s",
                "chain.chain_isospectrality_drift.{self_s,eigensolves}",
                "chain.pn_time_derivative_check.self_s"],
     "moves": ["chain_mvk.job_p50_ms", "verify.wall_s (about a tenth)"],
     "no_change": ["rank1_sweep"]},
    {"layers": ["spectral.recurrence_residual.{calls,self_s}",
                "families.eval_rec.{calls,self_s}", "families.parameter_map.calls",
                "families.meixner_function.self_s", "families.eval_hyper.self_s",
                "representations.build_L.{calls,self_s,repeat_ratio}",
                "representations.build_generators.calls"],
     "moves": ["verify.wall_s (diagonalization group, about a quarter)",
               "rank1_sweep.wall_s"],
     "no_change": ["chain_mvk"]},
    {"layers": ["spectral.eigs_sym_tridiag.{calls,self_s,rows}",
                "spectral.isospectrality_drift.{self_s,eigensolves}",
                "spectral.eigensolve.{calls,repeat_ratio}",
                "representations.lax_residual.self_s"],
     "moves": ["rank1_sweep.wall_s", "rank1_sweep.job_p90_ms"],
     "no_change": ["chain_mvk", "verify (within its bound)"]},
    {"layers": ["mvk.mvk_table.{calls,self_s,entries}",
                "mvk.mvk_orthogonality_check.self_s", "mvk.mvk_recurrence_check.self_s",
                "mvk.mvk_time_derivative_check.self_s",
                "mvk.krawtchouk_reduction_check.self_s"],
     "moves": ["chain_mvk.wall_s", "chain_mvk.job_p90_ms",
               "chain_mvk.peak_rss_mb (dense tables trade memory for time)"],
     "no_change": ["rank1_sweep", "verify (within its bound; mvk group ~15 ms)"]},
    {"layers": ["flows.write_trajectory_csv.{self_s,bytes}",
                "report.write_spectrum_csv.{self_s,bytes}",
                "report.write_report_csv.self_s", "mvk.write_mvk_csv.{self_s,bytes}",
                "config.load_config.self_s", "cli.main.self_s"],
     "moves": ["rank1_sweep.job_p50_ms"],
     "no_change": ["verify"]},
    {"layers": ["verify.<group>.total_s for each of the 11 groups"],
     "moves": ["verify.wall_s"], "no_change": ["rank1_sweep", "chain_mvk"]},
    {"layers": ["import.isoflow_s"],
     "moves": ["setup_s on every workload"], "no_change": ["wall_s"]},
]

# ROADMAP baseline (2 cores, Python 3.11.7, numpy 2.4.6, scipy 1.17.1)
ROADMAP = {"verify_in_process_s": 2.07, "import_s": 0.66,
           "verify_group_s": {"modification": 0.479, "diagonalization": 0.467,
                              "invariant": 0.370, "isospectrality": 0.336,
                              "closed_form": 0.229, "chain": 0.103},
           "readme_verify_s": "~1 s"}


# what building the workloads showed about the program, for later issues;
# each names how the workload steers around it
FINDINGS = [
    "isoflow verify writes the row name mvk_degree_one_match_d2 twice, for "
    "(d,N)=(2,2) and (2,3); the benchmark checks 81 rows, not 81 names.",
    "isoflow run does not cap diagonalization 'points' at the 2j+1 lattice "
    "points of an su2 window: j=4 with the default 10 points fails at 4.8e3. "
    "The su2 jobs use j >= 6.",
    "The unscaled 1e-12 lax_residual tolerance also fails on discrete-series "
    "windows with n_max=60 or r0 >= 1 (1.6e-12 to 7e-12), the defect class of "
    "the listed j=60 failure. The discrete-series jobs use n_max=40 and r0 in "
    "[0.5, 0.6].",
    "Charlier rows at n_max=60 hit the absolute-residual floor for off-grid "
    "states (1.5e-8 to 4.8e-7 against 1.8e-9), the defect class of the listed "
    "su2 failures. The Charlier jobs use n_max=40.",
    "The modification check fails next to the kinks of a piecewise-linear "
    "gamma table (0.009 to 0.023 against 1e-5 on su2 j=8, record_every=10): "
    "its centred differences straddle the kinks. Gamma tables are used only on "
    "the e2 jobs, which have no modification check.",
    "Chain orthogonality residuals grow with d, up to 2.7e-11 at d=16 with r "
    "in [0.5, 1.5]; the chain jobs with d > 8 use a 1e-10 tolerance.",
    "On principal-series windows the CLI samples meixner_function rows at "
    "non-lattice points (linspace(-4, 4)) and fails at 5.6e4; the "
    "principal-series jobs carry no diagonalization check.",
    "isoflow verify's meixner_function_recurrence row compares an absolute "
    "residual with 1e-6 and fails on about 4% of suite seeds (22 of 500 "
    "drawn from the benchmark's seeds): orders n <= -6 at off-lattice x near 6 "
    "give |m_n(x)| up to 6e7, so rounding alone leaves 1e-6 to 6e-6. The row "
    "is a listed known failure of the verify workload; on the default seed it "
    "passes.",
    "Truncated windows of continuous-spectrum families (Laguerre, "
    "Meixner-Pollaczek, Hermite) are not isospectral by construction; those "
    "jobs carry no isospectrality check.",
]


def _notes(verify_wall, verify_raw_wall, import_s, groups):
    notes = [f"isoflow verify (its 11 groups in one process): {verify_wall:.2f} s "
             f"median at the reference speed, {verify_raw_wall:.2f} s raw wall "
             f"clock; ROADMAP says {ROADMAP['verify_in_process_s']} s and README "
             f"says {ROADMAP['readme_verify_s']!r}. The README figure matches only "
             "an uncontended host and is stale against ROADMAP (for a docs PR).",
             f"import isoflow: {import_s:.2f} s median at the reference speed "
             f"against {ROADMAP['import_s']} s in ROADMAP; set-up here runs with "
             "warm file caches and no other process."]
    for g, roadmap_s in ROADMAP["verify_group_s"].items():
        notes.append(f"verify group {g}: {groups[g] * 1000:.0f} ms traced at the "
                     f"reference speed, {roadmap_s * 1000:.0f} ms in ROADMAP.")
    notes.append("Group times here come from the traced run, which adds its "
                 "overhead (trace_overhead_s of the verify workload).")
    notes.append("The machine is shared: a fixed pure-Python loop pinned to either "
                 "vCPU takes about 43 ms or about 66 ms, switching within seconds "
                 "and independently per vCPU, and the mix drifts over minutes. Raw "
                 "wall-clock run medians moved by up to 50% between runs of the same "
                 "code, so every reported time is scaled to the reference speed "
                 "(bench/speed.py); raw_wall_clock keeps the unscaled figures.")
    return notes


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail_path = ROOT / ".bench_work" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    detail = json.loads(detail_path.read_text())
    print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']} checks_failed="
          f"{detail['checks_failed']}/{detail['checks_attempted']}", flush=True)
    return result, detail


def _environment():
    import numpy
    import scipy
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": "pinned to 1 (OPENBLAS/OMP/MKL_NUM_THREADS=1)",
            "commit": commit}


def _stats(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    out = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
           "values": values}
    if bound is not None:
        out.update(bound=bound, within_bound=out["spread"] <= bound,
                   within_third_of_bound=out["spread"] <= bound / 3)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default=",".join(str(s) for s in (DEFAULT_SEED, *range(1, 10))))
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    env = _environment()

    workloads = {}
    for workload in WORKLOADS:
        runs = [_run(workload, seed, seconds, 0) for seed in seeds]
        traced, traced_detail = _run(workload, seeds[0], seconds, 1)
        e2e = {m["name"]: _stats([r["metrics"][m["name"]]["value"] for r, _ in runs],
                                 m["bound"]) for m in spec["end_to_end"]}
        raw = {name: _stats([d["raw_wall_clock_values"][name] for _, d in runs], None)
               for name in runs[0][1]["raw_wall_clock_values"]}
        default_detail = runs[0][1]
        workloads[workload] = {
            "correct": all(r["correct"] for r, _ in runs) and traced["correct"],
            "jobs_failed": sum(r["failed"] for r, _ in runs),
            "checks_failed_per_pass": default_detail["checks_failed"]
            / (len(default_detail["pass_wall_s"]) + 1),
            "checks_per_pass": default_detail["checks_attempted"]
            / (len(default_detail["pass_wall_s"]) + 1),
            "end_to_end": e2e,
            "raw_wall_clock": raw,
            "per_layer_traced_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "trace_overhead_s": traced["metrics"]["trace.overhead_s"]["value"],
            "traced_wall_s": statistics.median(traced_detail["traced_pass_wall_s"]),
            "untraced_wall_s_same_run": statistics.median(traced_detail["pass_wall_s"]),
            "output_sha256_default_seed": default_detail["output_sha256"],
        }

    verify = workloads["verify"]
    groups = {g: verify["per_layer"][f"verify.{g}.total_s"]
              for g in ROADMAP["verify_group_s"]}
    import_s = statistics.median(workloads[w]["per_layer"]["import.isoflow_s"]
                                 for w in WORKLOADS)
    verify_wall = verify["end_to_end"]["wall_s"]["median"]
    verify_raw_wall = verify["raw_wall_clock"]["wall_s"]["median"]
    out = {
        "about": "Seed-commit numbers of the isoflow benchmark, written by "
                 "bench/baseline.py.  BENCHMARK.json holds the contract; this "
                 "file holds what was measured.",
        "environment": env,
        "seeds": {"default": DEFAULT_SEED, "measured": seeds,
                  "held_out": list(HELD_OUT_SEEDS)},
        "run_seconds": seconds,
        "load": "closed loop, one caller: the next job starts when the previous "
                "one returns; single process, BLAS pinned to one thread",
        "known_failures": [{"job": j, "check": c, "reason": r}
                           for (j, c), r in KNOWN_FAILURES.items()],
        "workloads": workloads,
        "predictions": PREDICTIONS,
        "findings": FINDINGS,
        "roadmap_reconciliation": {
            "roadmap": ROADMAP,
            "measured": {"verify_wall_s": verify_wall,
                         "verify_raw_wall_s": verify_raw_wall, "import_s": import_s,
                         "verify_group_s_traced": groups},
            "notes": _notes(verify_wall, verify_raw_wall, import_s, groups),
        },
    }
    path = BENCH / "baseline.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    for w, data in workloads.items():
        for name, st in data["end_to_end"].items():
            print(f"{w:12s} {name:12s} median={st['median']:.5g} spread={st['spread']:.4f} "
                  f"bound={st['bound']} third_ok={st['within_third_of_bound']}")
        for name, st in data["raw_wall_clock"].items():
            print(f"{w:12s} raw {name:12s} median={st['median']:.5g} "
                  f"spread={st['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
