"""Check results, the one guard that turns a numerical error into a failed
row, and the CSV artifacts every entry point writes."""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tolerance: float
    passed: bool
    note: str = ""

    @property
    def margin(self) -> float:
        """value / tolerance: how far the row is from its bound, which sits
        at 1.  With a zero tolerance it is 0 for a zero value and an infinity
        of the value's sign otherwise; an infinite value over an infinite
        tolerance is +-1 by their signs; a NaN value or tolerance gives NaN."""
        value, tol = self.value, self.tolerance
        if math.isnan(value) or math.isnan(tol):
            return math.nan
        if tol == 0.0:
            return 0.0 if value == 0.0 else math.copysign(math.inf, value)
        if math.isinf(value) and math.isinf(tol):
            return math.copysign(1.0, value) * math.copysign(1.0, tol)
        return value / tol


_PASSES = {"<=": operator.le, ">=": operator.ge, ">": operator.gt}


def check_result(name: str, value: float, tolerance: float,
                 direction: str = "<=", note: str = "") -> CheckResult:
    """The row of a check that passes iff ``value <direction> tolerance``
    (``<=``, ``>=`` or ``>``; NaN never passes).  A direction other than
    ``<=`` is named in the note."""
    value, tolerance = float(value), float(tolerance)
    if direction != "<=":
        rule = f"pass iff value {direction} tolerance"
        note = f"{note}; {rule}" if note else rule
    return CheckResult(name, value, tolerance,
                       bool(_PASSES[direction](value, tolerance)), note)


def guarded(compute, name: str, tolerance: float,
            passthrough: tuple = ()) -> list[CheckResult]:
    """The rows ``compute()`` returns.  A numerical error (ArithmeticError
    or ValueError) raised while it runs is instead one failed row ``name``
    with value NaN and the exception in its note; the ``passthrough``
    exceptions (input errors) propagate."""
    try:
        return compute()
    except passthrough:
        raise
    except (ArithmeticError, ValueError) as exc:
        return [check_result(name, math.nan, tolerance,
                             note=f"{type(exc).__name__}: {exc}")]


def relative_error(value, ref):
    """|value - ref| / max(1, |ref|), elementwise: the relative rule of
    every drift and closed-vs-dense check."""
    return np.abs(np.subtract(value, ref)) / np.maximum(1.0, np.abs(ref))


def spectrum_drift(spectra) -> float:
    """max |lam_i - lam_0| over the equal-length spectra of a path against
    the first, 0 for a single sample; NaN if any entry is NaN."""
    lam = np.asarray(spectra)
    return float(np.abs(lam - lam[0]).max())


def fmt(v: float) -> str:
    return "%.17g" % float(v)


def write_report_csv(path, results: list[CheckResult]) -> None:
    """Header check,value,tolerance,pass; one row per check, input order."""
    with open(path, "w", newline="") as fh:
        fh.write("check,value,tolerance,pass\n")
        for res in results:
            fh.write("%s,%s,%s,%s\n" % (res.name, fmt(res.value),
                                        fmt(res.tolerance),
                                        "true" if res.passed else "false"))


def write_spectrum_csv(path, times, spectra) -> None:
    """Header t,index,lambda; spectra[i] is the ascending spectrum at
    times[i].  Each spectrum is one fill of the row template of its size,
    ``"%s0,%.17g\\n%s1,%.17g\\n..."`` with the time field in every ``%s``."""
    templates = {}
    with open(path, "w", newline="") as fh:
        fh.write("t,index,lambda\n")
        for t, lam in zip(times, spectra):
            values = np.asarray(lam).tolist()
            n = len(values)
            if n not in templates:
                templates[n] = "".join(["%%s%d,%%.17g\n" % idx for idx in range(n)])
            fields = [fmt(t) + ","] * (2 * n)
            fields[1::2] = values
            fh.write(templates[n] % tuple(fields))


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
