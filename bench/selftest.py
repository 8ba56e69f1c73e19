#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 bench/selftest.py

Run from the root of a source checkout.  They check that workload
generation is deterministic, that traced and untraced passes write
byte-identical outputs, that layer self times add up to the traced wall
time, that the output checks catch a corrupted report, and that the
benchmark refuses to run without the program's sources.  Scratch files go
under ``.bench_work/selftest``.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from outputs import check_job  # noqa: E402
from tracing import Tracer, install  # noqa: E402
from workloads import KNOWN_FAILURES, VERIFY_GROUP_ROWS, WORKLOADS, make_jobs  # noqa: E402

SCRATCH = bench.WORK / "selftest"
# traced self times must account for the traced wall time to within this share
COVERAGE_BOUND = 0.01


def _subset():
    """A few cheap jobs of every sub-command, plus the verify suite's groups."""
    rank1 = {j.id: j for j in make_jobs("rank1_sweep", 1)}
    chain = {j.id: j for j in make_jobs("chain_mvk", 1)}
    return ([rank1["r01_su2_j6_toda"], rank1["r19_e2_toda"],
             chain["c01_chain_d3"], chain["c02_mvk_d2_N2_M6"]]
            + make_jobs("verify", 1))


class Generation(unittest.TestCase):
    def test_same_seed_same_config_bytes(self):
        for workload in WORKLOADS:
            for seed in (0, 1, 12345):
                a = [(j.id, j.config_bytes() if j.config else j.extra_args)
                     for j in make_jobs(workload, seed)]
                b = [(j.id, j.config_bytes() if j.config else j.extra_args)
                     for j in make_jobs(workload, seed)]
                self.assertEqual(a, b, (workload, seed))

    def test_seed_changes_inputs_not_job_list(self):
        for workload in WORKLOADS:
            a, b = make_jobs(workload, 1), make_jobs(workload, 2)
            self.assertEqual([j.id for j in a], [j.id for j in b])
            self.assertNotEqual([j.config for j in a] + [j.extra_args for j in a],
                                [j.config for j in b] + [j.extra_args for j in b])

    def test_verify_groups_match_the_suite(self):
        from isoflow.verify import GROUPS
        self.assertEqual(list(VERIFY_GROUP_ROWS), list(GROUPS))
        self.assertEqual(sum(VERIFY_GROUP_ROWS.values()), 81)

    def test_known_failures_name_real_jobs(self):
        from isoflow.verify import run_verify
        ids = {j.id: j for w in WORKLOADS for j in make_jobs(w, 1)}
        for job_id, check in KNOWN_FAILURES:
            job = ids[job_id]
            if job.group:
                rows = run_verify(job.group, int(job.extra_args[-1]))
                self.assertIn(check, [r.name for r in rows])
            else:
                self.assertIn(check, job.checks)


class TracedRun(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        import isoflow.cli as cli
        shutil.rmtree(SCRATCH, ignore_errors=True)
        cls.jobs = _subset()
        cls.runner = bench.Runner(cli, cls.jobs,
                                  bench.write_configs(cls.jobs, SCRATCH / "configs"),
                                  SCRATCH)
        cls.runner.run_pass(deep=True)
        cls.runner.check_verify_suite(SCRATCH)
        cls.tracer = Tracer()
        restore = install(cls.tracer)
        try:
            cls.traced_timings = cls.runner.run_pass(cls.tracer)
        finally:
            restore()
        cls.layers = cls.tracer.summarize()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_traced_outputs_identical(self):
        # run_pass compares every CSV's sha256 with the untraced first pass;
        # check_verify_suite compares the group reports with the full suite's
        self.assertEqual(self.runner.problems, [])
        self.assertEqual(len(self.runner.reference), len(self.jobs))

    def test_self_times_sum_to_traced_wall(self):
        self_sum = sum(v for k, v in self.layers.items() if k.endswith(".self_s"))
        roots = sum(end - start for _, start, end, parent, _ in self.tracer.spans
                    if parent < 0)
        self.assertAlmostEqual(self_sum, roots, delta=1e-9 * len(self.tracer.spans))
        wall = sum(raw for raw, _ in self.traced_timings)
        self.assertLessEqual(abs(self_sum / wall - 1.0), COVERAGE_BOUND)

    def test_every_per_layer_metric_is_produced(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        run_level = {"import.isoflow_s", "fail_ratio", "trace.overhead_s",
                     "trace.coverage"}
        missing = [m["name"] for m in spec["per_layer"]
                   if m["name"] not in self.layers and m["name"] not in run_level]
        self.assertEqual(missing, [])

    def test_originals_restored(self):
        import isoflow.cli as cli
        import isoflow.flows as flows
        import isoflow.verify as verify
        self.assertFalse(hasattr(cli.main, "__wrapped__"))
        self.assertFalse(hasattr(cli.integrate, "__wrapped__"))
        self.assertIs(cli.integrate, flows.integrate)
        self.assertFalse(any(hasattr(f, "__wrapped__") for f in verify.GROUPS.values()))

    def test_repeat_counters(self):
        # the run path integrates its flow again inside check_sign_conditions,
        # and the verify suite re-integrates one closed-form flow
        self.assertGreater(self.layers["flows.integrate.repeat_ratio"], 0.0)
        # isoflow run solves every recorded state for spectrum.csv and again
        # for the drift check
        self.assertGreater(self.layers["spectral.eigensolve.repeat_ratio"], 0.0)


class OutputChecks(unittest.TestCase):
    def test_flipped_pass_flag_is_caught(self):
        import isoflow.cli as cli
        job = make_jobs("rank1_sweep", 1)[0]
        out = SCRATCH / "flip"
        shutil.rmtree(out, ignore_errors=True)
        runner = bench.Runner(cli, [job], bench.write_configs([job], out / "configs"), out)
        runner.run_pass(deep=True)
        report = Path(runner.outdirs[job.id]) / "report.csv"
        rows, problems = check_job(job, 0, str(report.parent), deep=True)
        self.assertEqual(problems, [])
        text = report.read_text().replace(",true\n", ",false\n", 1)
        report.write_text(text)
        _, problems = check_job(job, 0, str(report.parent))
        self.assertTrue(problems)
        shutil.rmtree(out, ignore_errors=True)


class BareDirectory(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = bench.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": ""})
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
