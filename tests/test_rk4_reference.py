"""The generated RK4 paths against the generator as it stood before each
flow stated its derivative as sigma p, a signed power of two times the
rest (``old_rk4_source``, kept here verbatim with the two flows' old
right-hand sides): the new paths must return the same (ts, ys, t_fail),
bit for bit, over seeded random flows of both kinds, and differ only where
the ``flows._rk4_source`` docstring says they may."""
import math
from typing import Callable, Sequence

import numpy as np
import pytest

from isoflow import (FlowState, GammaTable, IntegrationBlowupError, e2, integrate,
                     oscillator, su2, su11)
from isoflow.chain import _chain_path
from isoflow.flows import _compile_make, _rank1_make, rk4_path


def old_rk4_source(names: Sequence[str], rhs: Callable[[int, str], list[str]],
                   guard: Callable[[str], str] | None = None, params: str = "") -> str:
    """``flows._rk4_source`` with each stage's k formed in full: the loop
    writes out the vector expressions ``y + dt/2*k``, ``y + dt*k3`` and
    ``y + dt/6*(k1 + 2*k2 + 2*k3 + k4)``."""
    step = []
    x = ""
    for k, g_at, incr in ((1, "t", "h"), (2, "t + h", "h"), (3, None, "dt"),
                          (4, "t + dt", None)):
        if guard is not None:
            step += [f"if {guard(x)}:", "    return ts, ys, t0 + i * dt"]
        if g_at is not None:
            step.append(f"gv = gc if g is None else g({g_at})")
        step += rhs(k, x)
        if incr is not None:
            step += [f"x{n} = {n} + {incr} * k{k}{n}" for n in names]
        x = "x"
    step += [f"{n} = {n} + w * (k1{n} + 2.0 * k2{n} + 2.0 * k3{n} + k4{n})" for n in names]
    step += ["t = t0 + i * dt",
             "if not (" + " and ".join(f"isfinite({n})" for n in names) + "):",
             "    return ts, ys, t",
             "if i == record_at:",
             "    ts.append(t)",
             f"    ys += {', '.join(names)}",
             "    record_at += record_every",
             "    if record_at > n_steps:",
             "        record_at = n_steps"]
    return "\n".join([f"def make(g{', ' + params if params else ''}):",
                      "    gc, g = (None, g) if callable(g) else (float(g), None)",
                      "    def path(t0, y0, dt, n_steps, record_every):",
                      f"        {', '.join(names)} = y0",
                      "        h = dt / 2",
                      "        w = dt / 6",
                      "        ts, ys = [t0], list(y0)",
                      "        t = t0",
                      "        record_at = min(record_every, n_steps)",
                      "        for i in range(1, n_steps + 1):"]
                     + ["            " + line for line in step]
                     + ["        return ts, ys, None",
                        "    return path", ""])


OLD_RANK1 = _compile_make(old_rk4_source(
    ("r", "s"),
    lambda k, x: [f"u = gv * {x}r",
                  f"k{k}r, k{k}s = -2.0 * (a * {x}s + c) * u, e2 * {x}r * u"],
    params="a, c, e2"), "<old rank-1 RK4 path>")


def old_chain(d):
    idx = range(1, d + 1)

    def rhs(k, x):
        s = ["0.0", *(f"{x}s{i}" for i in idx), "0.0"]
        return ([f"u{i} = gv * {x}r{i}" for i in idx]
                + [f"k{k}s{i} = 2.0 * {x}r{i} * u{i}" for i in idx]
                + [f"k{k}r{i} = u{i} * ({s[i - 1]} - 2.0 * {s[i]} + {s[i + 1]})"
                   for i in idx])

    def guard(x):
        return " or ".join(f"{x}r{i} <= 0" for i in idx)

    return _compile_make(old_rk4_source([f"s{i}" for i in idx] + [f"r{i}" for i in idx],
                                        rhs, guard), f"<old chain RK4 path, d={d}>")


def rank1(make, alg):
    """g -> the rank-1 path of ``make`` on the algebra ``alg``."""
    return lambda g: make(g, alg.a, alg.c_param, 2.0 * alg.epsilon)


def bits(result):
    """(ts, ys, t_fail) with every float as its hex string: -0.0 is not 0.0."""
    ts, ys, t_fail = result
    return ([t.hex() for t in ts], [y.hex() for y in ys],
            None if t_fail is None else t_fail.hex())


def nan_after(t_nan):
    return lambda t: 1.0 if t < t_nan else math.nan


def random_coupling(rng, kind, t0):
    if kind == "number":
        return float(rng.choice([0.0, -1.0, 1.0])) * 10.0 ** rng.uniform(-2, 2)
    if kind == "gamma_table":
        ts = np.sort(rng.uniform(t0 - 1.0, t0 + 1.0, int(rng.integers(2, 6))))
        return GammaTable(int(rng.choice([1, -1])), tuple(ts.tolist()),
                          tuple((10.0 ** rng.uniform(-1, 1, len(ts))).tolist()))
    return nan_after(t0 + rng.uniform(0.0, 0.5))


def random_values(rng, n, positive=False):
    """n floats, half the draws of order 1e-3..10 and half up to 1e100."""
    top = 1.0 if rng.random() < 0.5 else 100.0
    signs = 1.0 if positive else rng.choice([1.0, -1.0], n)
    return (signs * 10.0 ** rng.uniform(-3, top, n)).tolist()


def random_grid(rng):
    """(t0, dt, n_steps, record_every): a positive dt, or a negative step
    as ``chain._advance`` takes one."""
    dt = float(rng.choice([1.0, -1.0])) * 10.0 ** rng.uniform(-4, -0.5)
    return (rng.uniform(-1, 1), dt, int(rng.integers(1, 41)), int(rng.integers(1, 8)))


KINDS = ("number", "gamma_table", "nan_after")
ALGEBRAS = {"su2": su2, "su11": su11, "oscillator": oscillator, "e2": e2}


def agreeing_paths(old, new, rng, n_cases, kind, y0_of):
    """Check ``n_cases`` random flows of the path makers ``old`` and ``new``
    (each maps g to a path) for bitwise agreement; the (stopped, finished)
    counts of the flows."""
    stopped = 0
    for _ in range(n_cases):
        t0, dt, n_steps, record_every = random_grid(rng)
        g, y0 = random_coupling(rng, kind, t0), y0_of()
        want = bits(old(g)(t0, y0, dt, n_steps, record_every))
        assert bits(new(g)(t0, y0, dt, n_steps, record_every)) == want, (g, y0, t0, dt)
        stopped += want[2] is not None
    return np.array([stopped, n_cases - stopped])


@pytest.mark.parametrize("kind", KINDS)
def test_rank1_path_matches_the_old_generator_bitwise(kind):
    rng = np.random.default_rng([34, KINDS.index(kind)])
    counts = 0
    for algebra in ALGEBRAS.values():
        alg = algebra(rng.uniform(-2, 2))
        counts = counts + agreeing_paths(rank1(OLD_RANK1, alg), rank1(_rank1_make(), alg),
                                         rng, 40, kind, lambda: random_values(rng, 2))
    # the cases reach both ends: flows that blow up and flows that do not
    assert counts.all()


@pytest.mark.parametrize("kind", KINDS)
def test_chain_path_matches_the_old_generator_bitwise(kind):
    rng = np.random.default_rng([34, 1, KINDS.index(kind)])
    counts = 0
    for d in range(1, 17):
        counts = counts + agreeing_paths(
            old_chain(d), _chain_path(d), rng, 12, kind,
            lambda: random_values(rng, d) + random_values(rng, d, positive=True))
    assert counts.all()


def test_near_overflow_the_new_path_may_stop_a_step_later():
    """The documented limit: -2 (a s + c) u overflows a step before
    (a s + c) u does, so the old path stops at t = 1.25 and the new one at
    t = 1.5, after one more finite sample."""
    alg, st0, g, dt = oscillator(1.0), FlowState(0.0, 5.2e152, -4.8e196), -1.0, 0.25
    args = (g, alg.a, alg.c_param, 2.0 * alg.epsilon)
    with pytest.raises(IntegrationBlowupError, match="near t = 1.25"):
        rk4_path(OLD_RANK1(*args), st0.t, [st0.r, st0.s], dt, 5.0, 1)
    with pytest.raises(IntegrationBlowupError, match="near t = 1.5") as info:
        integrate(alg, st0, g, dt, 5.0)
    last = info.value.last_state
    assert last.t == 1.25 and math.isfinite(last.r) and math.isfinite(last.s)
    ts, ys, _ = _rank1_make()(*args)(st0.t, [st0.r, st0.s], dt, 20, 1)
    assert ts == [0.0, 0.25, 0.5, 0.75, 1.0, 1.25] and all(map(math.isfinite, ys))


def test_negative_zero_under_a_negative_power_of_two():
    """The other documented limit: r = -0.0 (the fixed point r = 0) has the
    increments k = -2 p of zeros of either sign, which sum to +0.0; p1 + ...
    + p4 sums to +0.0 too, and -2 dt/6 times it is -0.0, so r keeps -0.0
    where the old path gave +0.0.  Every other bit agrees."""
    args = (1.0, su2().a, su2().c_param, 2.0)
    old = OLD_RANK1(*args)(0.0, [-0.0, 0.5], 0.1, 3, 1)
    new = _rank1_make()(*args)(0.0, [-0.0, 0.5], 0.1, 3, 1)
    assert [y.hex() for y in old[1][2::2]] == [(0.0).hex()] * 3
    assert [y.hex() for y in new[1][2::2]] == [(-0.0).hex()] * 3
    assert bits(old)[0] == bits(new)[0] and old[1][1::2] == new[1][1::2] == [0.5] * 4
