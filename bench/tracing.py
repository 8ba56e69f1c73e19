"""Outside-in tracing of isoflow's layer functions.

``install`` replaces each layer function named in ``LAYERS`` with a wrapper
at every name it is bound to in the loaded ``isoflow`` modules, including
the names that ``cli``, ``verify``, ``spectral``, ``chain`` and ``mvk``
re-bind with ``from ... import``, and wraps the verify groups in
``verify.GROUPS``.  A wrapper appends one span ``[name, start, end,
parent, job]`` to an in-memory list and updates work counters computed
from the call's arguments.  Nothing is written while the program runs.

Only the benchmark's traced run installs the wrappers; the end-to-end
metrics come from untraced runs of the same process image.
"""
from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# -- counters computed from call arguments ---------------------------------


def _integrate_before(tr, args, kwargs):
    alg, state0, policy = args[0], args[1], args[2]
    dt, t_end = _arg(args, kwargs, 3, "dt"), _arg(args, kwargs, 4, "t_end")
    tr.count("flows.integrate.rk4_steps", round((t_end - state0.t) / dt))
    tr.seen("flows.integrate", (alg, state0, policy, dt, t_end))


def _integrate_chain_before(tr, args, kwargs):
    state0 = args[0]
    dt, t_end = _arg(args, kwargs, 2, "dt"), _arg(args, kwargs, 3, "t_end")
    tr.count("chain.integrate_chain.rk4_steps", round((t_end - state0.t) / dt))


def _traj_solves(name):
    def before(tr, args, kwargs):
        tr.count(f"{name}.eigensolves", len(args[0]))
    return before


def _eigs_before(tr, args, kwargs):
    tr.count("spectral.eigs_sym_tridiag.rows", _arg(args, kwargs, 0, "op").size)


def _build_l_before(tr, args, kwargs):
    tr.seen("representations.build_L", tuple(args) + tuple(kwargs.values()))


def _mvk_table_before(tr, args, kwargs):
    d, n = args[0].d, _arg(args, kwargs, 1, "N")
    tr.count("mvk.mvk_table.entries", math.comb(n + d, d) ** 2)


def _bytes_after(name):
    def after(tr, args, kwargs):
        tr.count(f"{name}.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))
    return after


# (module, function, before-hook, after-hook)
LAYERS = (
    ("cli", "main", None, None),
    ("config", "load_config", None, None),
    ("flows", "integrate", _integrate_before, None),
    ("flows", "check_sign_conditions", None, None),
    ("flows", "modification_report", None, None),
    ("flows", "write_trajectory_csv", None, _bytes_after("flows.write_trajectory_csv")),
    ("chain", "integrate_chain", _integrate_chain_before, None),
    ("chain", "trace_invariants", None, None),
    ("chain", "chain_spectrum", None, None),
    ("chain", "christoffel_weights", None, None),
    ("chain", "chain_isospectrality_drift", _traj_solves("chain.chain_isospectrality_drift"), None),
    ("chain", "pn_time_derivative_check", None, None),
    ("spectral", "recurrence_residual", None, None),
    ("spectral", "eigs_sym_tridiag", _eigs_before, None),
    ("spectral", "isospectrality_drift", _traj_solves("spectral.isospectrality_drift"), None),
    ("families", "eval_rec", None, None),
    ("families", "parameter_map", None, None),
    ("families", "meixner_function", None, None),
    ("families", "eval_hyper", None, None),
    ("representations", "build_L", _build_l_before, None),
    ("representations", "build_generators", None, None),
    ("representations", "lax_residual", None, None),
    ("mvk", "mvk_table", _mvk_table_before, None),
    ("mvk", "mvk_orthogonality_check", None, None),
    ("mvk", "mvk_recurrence_check", None, None),
    ("mvk", "mvk_time_derivative_check", None, None),
    ("mvk", "krawtchouk_reduction_check", None, None),
    ("mvk", "write_mvk_csv", None, _bytes_after("mvk.write_mvk_csv")),
    ("report", "write_spectrum_csv", None, _bytes_after("report.write_spectrum_csv")),
    ("report", "write_report_csv", None, None),
)

# names whose repeated arguments within one job are counted
REPEATS = ("flows.integrate", "representations.build_L", "spectral.eigensolve")


class Tracer:
    """Spans and counters of the traced passes, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = ""
        self.counts: dict[str, float] = defaultdict(float)
        self._keys: dict[str, set] = defaultdict(set)

    def begin_job(self, job_id: str) -> None:
        self.job = job_id
        self._keys.clear()

    def reset(self) -> None:
        """Drop the spans and counters of the previous pass."""
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self._keys.clear()

    def count(self, name: str, n: float) -> None:
        self.counts[name] += n

    def seen(self, name: str, key) -> None:
        """Count a call and whether its key repeats an earlier one in the job."""
        keys = self._keys[name]
        self.counts[f"{name}.keyed_calls"] += 1
        if key in keys:
            self.counts[f"{name}.repeats"] += 1
        else:
            keys.add(key)

    def wrap(self, name: str, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if after is not None:
                    after(self, args, kwargs)
        return traced

    def summarize(self, factors=None) -> dict[str, float]:
        """Per-layer calls, total and self seconds of the spans collected
        since the last reset, plus the counters and repeat ratios.
        ``factors`` maps a job id to the factor that turns its wall seconds
        into reference-speed seconds (default 1)."""
        spans = self.spans
        factors = factors or {}
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, job) in enumerate(spans):
            f = factors.get(job, 1.0)
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += (end - start) * f
            out[f"{name}.self_s"] += (end - start - child[i]) * f
        out.update(self.counts)
        for name in REPEATS:
            calls = self.counts.get(f"{name}.keyed_calls", 0.0)
            repeats = self.counts.get(f"{name}.repeats", 0.0)
            out[f"{name}.repeat_ratio"] = repeats / calls if calls else 0.0
        out["spectral.eigensolve.calls"] = self.counts.get(
            "spectral.eigensolve.keyed_calls", 0.0)
        return dict(out)


def install(tracer: Tracer):
    """Wrap every layer function at each of its bindings; return a function
    that puts the originals back."""
    mods = [m for name, m in sorted(sys.modules.items())
            if name == "isoflow" or name.startswith("isoflow.")]
    undo = []

    def rebind(orig, wrapper):
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, orig))

    for modname, fname, before, after in LAYERS:
        orig = getattr(sys.modules[f"isoflow.{modname}"], fname)
        rebind(orig, tracer.wrap(f"{modname}.{fname}", orig, before, after))

    # every eigensolve of the rank-1 layer goes through spectral's binding of
    # scipy's eigh_tridiagonal; count it and its repeats without a span
    spectral = sys.modules["isoflow.spectral"]
    solve = spectral.eigh_tridiagonal

    @functools.wraps(solve)
    def counted_solve(d, e, *args, **kwargs):
        tracer.seen("spectral.eigensolve", (d.tobytes(), e.tobytes()))
        return solve(d, e, *args, **kwargs)
    spectral.eigh_tridiagonal = counted_solve
    undo.append((spectral, "eigh_tridiagonal", solve))

    groups = sys.modules["isoflow.verify"].GROUPS
    originals = dict(groups)
    for gname, fn in originals.items():
        groups[gname] = tracer.wrap(f"verify.{gname}", fn)

    def restore():
        for mod, attr, orig in reversed(undo):
            setattr(mod, attr, orig)
        groups.update(originals)
    return restore
