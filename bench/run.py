#!/usr/bin/env python3
"""isoflow benchmark.

    python3 bench/run.py --workload {verify,rank1_sweep,chain_mvk} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
``src/``.  The benchmark generates the workload's jobs from the seed
(``workloads.py``), writes their JSON configs, and drives
``isoflow.cli.main`` in this one process, one job after another (a closed
loop with one caller), with ``ISOFLOW_OUT`` pointing at a per-job directory
under ``.bench_work/``.  BLAS is pinned to one thread.

A run times ``import isoflow`` plus input generation in fresh interpreters,
makes one warm-up pass over the jobs, then repeats passes for ``--seconds``.
After every pass it checks each job's outputs (``outputs.py``) and that
every CSV is byte-identical to the warm-up pass.

Every reported time is in seconds at the reference host speed: each timed
call is bracketed by a fixed kernel and scaled by its reference time over
the kernel time around the call (``speed.py``), because the shared host's
speed swings by 1.5x within seconds and more over minutes.  The raw wall times are kept in
the run's detail file under ``.bench_work/results/``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from
untraced passes.  ``--trace 1`` alternates untraced and traced passes
(``tracing.py``) and reports the per-layer metrics; the spans of the traced
passes are written to ``.bench_work/results/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts the jobs run over all passes, warm-up included; ``failed`` counts
those that raised, exited 2, or whose outputs failed a check of
``outputs.py``.  Report rows that fail are counted per check in
``fail_ratio`` (traced run) and in the summary line; the rows that fail at
the seed commit are listed in ``workloads.KNOWN_FAILURES``, and any other
failing row makes the run incorrect.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

from outputs import check_job, file_hashes, read_csv  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402  (stdlib only)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def write_configs(jobs, directory: Path) -> dict[str, str]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for job in jobs:
        if job.config is not None:
            path = directory / f"{job.id}.json"
            path.write_bytes(job.config_bytes())
            paths[job.id] = str(path)
    return paths


def _probe_child(args) -> int:
    """Set-up as a user pays it: import the package, generate the inputs."""
    t0 = time.perf_counter()
    import isoflow  # noqa: F401
    import isoflow.cli  # noqa: F401
    t1 = time.perf_counter()
    write_configs(make_jobs(args.workload, args.seed), Path(args.probe_setup))
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "done": t2}))
    return 0


def measure_setup(workload: str, seed: int, work: Path):
    """Medians over fresh interpreters of (spawn -> inputs generated) and of
    the ``import isoflow`` time alone, scaled to the reference speed by
    kernels timed just before the spawn and just after the exit.
    perf_counter is CLOCK_MONOTONIC, so the child's reading is comparable
    with the parent's."""
    from speed import kernel_s, scale
    setups, imports, raw = [], [], []
    env = {**os.environ, **BLAS_ENV}
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--probe-setup", str(work / f"probe{i}")]
        before = kernel_s()
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=PROBE_TIMEOUT_S, check=True)
        factor = scale(before, kernel_s())
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(out["done"] - start)
        setups.append(raw[-1] * factor)
        imports.append(out["import_s"] * factor)
    return statistics.median(setups), statistics.median(imports), raw


class Runner:
    """Runs passes over one workload's jobs and checks what they wrote."""

    def __init__(self, cli, jobs, config_paths, work: Path):
        self.cli = cli
        self.jobs = jobs
        self.config_paths = config_paths
        self.outdirs = {job.id: str(work / "out" / job.id) for job in jobs}
        self.reference: dict[str, dict[str, str]] = {}
        self.problems: list[str] = []
        self.jobs_run = 0
        self.jobs_failed = 0
        self.checks_attempted = 0
        self.checks_failed = 0

    def _argv(self, job):
        argv = [job.command]
        if job.id in self.config_paths:
            argv.append(self.config_paths[job.id])
        return argv + list(job.extra_args)

    def run_pass(self, tracer=None, deep=False) -> list[tuple[float, float]]:
        """One pass over the jobs; returns each job's (raw wall seconds,
        factor to reference-speed seconds)."""
        from speed import kernel_s, scale
        timings, codes = [], []
        for job in self.jobs:
            os.environ["ISOFLOW_OUT"] = self.outdirs[job.id]
            argv = self._argv(job)
            if tracer is not None:
                tracer.begin_job(job.id)
            sink = io.StringIO()
            before = kernel_s()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = time.perf_counter()
                try:
                    code = self.cli.main(argv)
                except Exception as exc:  # a raising job is a failed job
                    code = f"raised {exc!r}"
                elapsed = time.perf_counter() - start
            timings.append((elapsed, scale(before, kernel_s())))
            codes.append(code)
        for job, code in zip(self.jobs, codes):
            rows, problems = check_job(job, code, self.outdirs[job.id], deep=deep)
            self.checks_attempted += job.expected_rows
            self.checks_failed += (sum(not r[3] for r in rows) if rows
                                   else job.expected_rows)
            if not problems:
                hashes = file_hashes(job, self.outdirs[job.id])
                ref = self.reference.setdefault(job.id, hashes)
                if hashes != ref:
                    problems.append(f"{job.id}: outputs differ from the first pass "
                                    f"({sorted(k for k in ref if ref[k] != hashes.get(k))})")
            self.jobs_run += 1
            self.jobs_failed += bool(problems)
            self.problems += problems
        return timings

    def check_verify_suite(self, work: Path) -> None:
        """The verify group jobs together must write exactly the report of
        one full ``isoflow verify --seed S`` call."""
        groups = [job for job in self.jobs if job.group]
        outdir = work / "out" / "full_suite"
        os.environ["ISOFLOW_OUT"] = str(outdir)
        with contextlib.redirect_stdout(io.StringIO()):
            self.cli.main(["verify", "--seed", groups[0].extra_args[-1]])
        full = read_csv(str(outdir / "report.csv"))
        parts = full[:1] + [row for job in groups
                            for row in read_csv(os.path.join(self.outdirs[job.id],
                                                             "report.csv"))[1:]]
        if parts != full:
            self.problems.append("verify: the group reports differ from the "
                                 "full suite's report.csv")


def _quantile(values, q: int) -> float:
    """q-th percentile (inclusive method) of at least one value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "isoflow" / "__init__.py").is_file():
        print(f"error: no isoflow sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        return _probe_child(args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import isoflow
    import isoflow.cli as cli
    if not Path(isoflow.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported isoflow from {isoflow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{run_id}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        jobs = make_jobs(args.workload, args.seed)
        setup_s, import_s, setup_samples = measure_setup(args.workload, args.seed, work)
        runner = Runner(cli, jobs, write_configs(jobs, work / "configs"), work)

        runner.run_pass(deep=True)  # warm-up: fills caches, keeps reference outputs
        if args.workload == "verify":
            runner.check_verify_suite(work)
        untraced, traced, timings, layer_passes, spans = [], [], [], [], []
        tracer = None
        if args.trace:
            from tracing import Tracer, install
            tracer = Tracer()
        deadline = time.perf_counter() + args.seconds
        while True:
            timing = runner.run_pass()
            untraced.append(sum(raw * f for raw, f in timing))
            timings.append(timing)
            if tracer is not None:
                tracer.reset()
                restore = install(tracer)
                try:
                    timing = runner.run_pass(tracer)
                finally:
                    restore()
                traced.append(sum(raw * f for raw, f in timing))
                layer_passes.append(tracer.summarize(
                    {job.id: f for job, (_, f) in zip(jobs, timing)}))
                spans.append(list(tracer.spans))
            if time.perf_counter() >= deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        samples = [raw * f for timing in timings for raw, f in timing]
        raw_samples = [raw for timing in timings for raw, _ in timing]
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(untraced),
            "job_p50_ms": 1000.0 * statistics.median(samples),
            "job_p90_ms": 1000.0 * _quantile(samples, 90),
            "peak_rss_mb": peak_rss_mb,
        }
        raw_values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(sum(raw for raw, _ in t) for t in timings),
            "job_p50_ms": 1000.0 * statistics.median(raw_samples),
            "job_p90_ms": 1000.0 * _quantile(raw_samples, 90),
        }
        if tracer is not None:
            values.update(_layer_values(spec, layer_passes, untraced, traced))
            values["import.isoflow_s"] = import_s
            values["fail_ratio"] = runner.checks_failed / runner.checks_attempted
            _write_spans(results / f"{args.workload}-seed{args.seed}-spans.jsonl", spans)

        kind = "per_layer" if args.trace else "end_to_end"
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                   for m in spec[kind]}
        detail = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "values": values, "raw_wall_clock_values": raw_values,
            "job_timings_raw_s_and_factor": {job.id: [t[i] for t in timings]
                                             for i, job in enumerate(jobs)},
            "pass_wall_s": untraced, "traced_pass_wall_s": traced,
            "setup_raw_samples_s": setup_samples, "import_isoflow_s": import_s,
            "jobs_run": runner.jobs_run, "jobs_failed": runner.jobs_failed,
            "checks_attempted": runner.checks_attempted,
            "checks_failed": runner.checks_failed,
            "problems": runner.problems, "output_sha256": runner.reference,
            "layers": (_median_layers(layer_passes) if layer_passes else {}),
        }
        (results / f"{run_id}.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, m in metrics.items():
        raw = f"  (raw wall clock {raw_values[name]:.6g})" if name in raw_values else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{raw}")
    print(f"passes={len(untraced)} traced_passes={len(traced)} job_samples={len(samples)} "
          f"jobs_run={runner.jobs_run} jobs_failed={runner.jobs_failed} "
          f"checks_attempted={runner.checks_attempted} "
          f"checks_failed={runner.checks_failed}")
    for problem in runner.problems[:20]:
        print(f"problem: {problem}")
    print(f"details: {results / (run_id + '.json')}")
    print(json.dumps({"correct": not runner.problems, "attempted": runner.jobs_run,
                      "failed": runner.jobs_failed, "metrics": metrics}))
    return 0


def _median_layers(layer_passes) -> dict[str, float]:
    keys = sorted(set().union(*layer_passes))
    return {k: statistics.median(p.get(k, 0.0) for p in layer_passes) for k in keys}


def _layer_values(spec, layer_passes, untraced, traced) -> dict[str, float]:
    """Per-layer medians over the traced passes, plus the accounting of the
    trace itself: overhead against the untraced passes of the same run, and
    the share of the traced wall time covered by layer self times."""
    layers = _median_layers(layer_passes)
    out = {m["name"]: layers.get(m["name"], 0.0) for m in spec["per_layer"]}
    self_sum = statistics.median(
        sum(v for k, v in p.items() if k.endswith(".self_s")) for p in layer_passes)
    # each traced pass runs right after an untraced one: median of the pairs
    out["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    out["trace.coverage"] = self_sum / statistics.median(traced)
    return out


def _write_spans(path: Path, passes) -> None:
    with open(path, "w") as fh:
        for i, spans in enumerate(passes):
            for name, start, end, parent, job in spans:
                fh.write(json.dumps([i, job, name, start, end, parent]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
