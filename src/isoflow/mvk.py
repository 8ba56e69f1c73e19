"""Multivariate orthogonal family attached to a chain state.

For a chain of rank d with simple spectrum lam_0 < ... < lam_d and
eigenvector polynomials p_j, the degree-N family P(sigma', rho') is defined
through the generating product

    prod_i (sum_j p_j(lam_i) z_j)^{rho_i}
        = sum_{|sigma| = N} multinom(N, sigma) P(sigma', rho') z^sigma,

with multi-indices sigma, rho of length d + 1 summing to N.  The table built
here is expanded exactly (sparse dict products of linear forms), and the
module carries the two discrete orthogonality relations, the spectral
three-term law, the time-derivative law along the chain flow, and the
collapse to the binomial-lattice family for the symmetric one-parameter
chain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .chain import (ChainState, GFun, _advance, _g_at, chain_spectrum,
                    christoffel_weights, eigen_polys)
from .families import FamilyTag, KrawtchoukParams, eval_hyper


def multi_indices(parts: int, total: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` non-negative integers summing to ``total``,
    in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in multi_indices(parts - 1, total - head):
            yield (head,) + rest


def multinom(N: int, sigma: tuple[int, ...]) -> int:
    if sum(sigma) != N:
        return 0
    out = math.factorial(N)
    for v in sigma:
        out //= math.factorial(v)
    return out


def unit_index(parts: int, i: int) -> tuple[int, ...]:
    out = [0] * parts
    out[i] = 1
    return tuple(out)


@dataclass(frozen=True)
class MVKTable:
    """Degree-N table: entries[(sigma, rho)] = P(sigma', rho'), ascending
    eigenvalue labeling, plus the weights the family is orthogonal for."""
    d: int
    N: int
    eigenvalues: np.ndarray
    weights: np.ndarray
    entries: dict

    def P(self, sigma: tuple[int, ...], rho: tuple[int, ...]) -> float:
        return self.entries[(tuple(sigma), tuple(rho))]

    def W(self, rho: tuple[int, ...]) -> float:
        out = 1.0
        for wi, ri in zip(self.weights, rho):
            out *= wi ** (ri / 2.0)
        return out

    def eigenvalue(self, rho: tuple[int, ...]) -> float:
        return float(np.dot(self.eigenvalues, rho))

    @property
    def indices(self) -> list[tuple[int, ...]]:
        return list(multi_indices(self.d + 1, self.N))

    @cached_property
    def orthogonality(self) -> tuple[float, float]:
        """``mvk_orthogonality_check`` of this table, computed once."""
        return mvk_orthogonality_check(self)


def _mul_linear(poly: dict, coeffs: np.ndarray) -> dict:
    out: dict = {}
    for expo, cv in poly.items():
        for j, c in enumerate(coeffs):
            if c == 0.0:
                continue
            key = expo[:j] + (expo[j] + 1,) + expo[j + 1:]
            out[key] = out.get(key, 0.0) + cv * c
    return out


def mvk_table(state: ChainState, N: int) -> MVKTable:
    """Expand the generating product exactly for every rho of weight N."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    d = state.d
    cw = christoffel_weights(state)
    lam = cw.eigenvalues
    u = np.empty((d + 1, d + 1))
    for i in range(d + 1):
        u[i], _ = eigen_polys(state, float(lam[i]))
    entries: dict = {}
    sigmas = list(multi_indices(d + 1, N))
    for rho in sigmas:
        poly = {(0,) * (d + 1): 1.0}
        for i, m in enumerate(rho):
            for _ in range(m):
                poly = _mul_linear(poly, u[i])
        for sigma in sigmas:
            entries[(sigma, rho)] = poly.get(sigma, 0.0) / multinom(N, sigma)
    return MVKTable(d, N, lam, cw.weights, entries)


# --------------------------------------------------------------------------
# structural checks


def mvk_orthogonality_check(table: MVKTable) -> tuple[float, float]:
    """(primal, dual) residuals of the two discrete orthogonality relations,
    both stated in orthonormalized form so a perfect table gives a Gram
    matrix equal to the identity."""
    idx = table.indices
    N = table.N
    binom = {sig: multinom(N, sig) for sig in idx}
    wprod = {sig: float(np.prod(np.asarray(table.weights) ** np.asarray(sig)))
             for sig in idx}

    primal = 0.0
    for rho in idx:
        for eta in idx:
            acc = sum(binom[sig] * table.P(sig, rho) * table.P(sig, eta)
                      for sig in idx)
            scale = math.sqrt(binom[rho] * wprod[rho] * binom[eta] * wprod[eta])
            primal = max(primal, abs(acc * scale - (1.0 if rho == eta else 0.0)))

    dual = 0.0
    for sig in idx:
        for tau in idx:
            acc = sum(binom[rho] * wprod[rho] * table.P(sig, rho) * table.P(tau, rho)
                      for rho in idx)
            scale = math.sqrt(binom[sig] * binom[tau])
            dual = max(dual, abs(acc * scale - (1.0 if sig == tau else 0.0)))
    return primal, dual


def mvk_recurrence_check(table: MVKTable, state: ChainState) -> float:
    """Relative residual of the spectral three-term law

        (sum_i lam_i rho_i) P(tau', rho')
          = sum_i s_i (tau_{i-1} - tau_i) P(tau', rho')
          + sum_i r_i (tau_{i-1} P((tau - f_{i-1} + f_i)', rho')
                       + tau_i P((tau + f_{i-1} - f_i)', rho'))

    over every (tau, rho); shifts that would leave the index set carry a
    zero factor and are skipped.
    """
    idx = table.indices
    s, r = state.s, state.r
    worst = 0.0
    for rho in idx:
        lam_rho = table.eigenvalue(rho)
        for tau in idx:
            lhs = lam_rho * table.P(tau, rho)
            rhs = sum(s[i - 1] * (tau[i - 1] - tau[i]) for i in range(1, state.d + 1)) \
                * table.P(tau, rho)
            for i in range(1, state.d + 1):
                if tau[i - 1] > 0:
                    shifted = list(tau)
                    shifted[i - 1] -= 1
                    shifted[i] += 1
                    rhs += r[i - 1] * tau[i - 1] * table.P(tuple(shifted), rho)
                if tau[i] > 0:
                    shifted = list(tau)
                    shifted[i - 1] += 1
                    shifted[i] -= 1
                    rhs += r[i - 1] * tau[i] * table.P(tuple(shifted), rho)
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return worst


def base_entry_error(table: MVKTable) -> float:
    """max |P((N, 0, ..., 0)', rho') - 1| over rho: the leading entry is one
    by construction."""
    base = (table.N,) + (0,) * table.d
    return max(abs(table.P(base, rho) - 1.0) for rho in table.indices)


def degree_one_residual(table1: MVKTable, state: ChainState) -> float:
    """max |P(e_j', e_i') - p_j(lam_i)| of a degree-one table against the
    eigenvector polynomials of ``state``."""
    parts = state.d + 1
    worst = 0.0
    for i, lam in enumerate(table1.eigenvalues):
        p, _ = eigen_polys(state, float(lam))
        for j in range(parts):
            lhs = table1.P(unit_index(parts, j), unit_index(parts, i))
            worst = max(worst, abs(lhs - p[j]))
    return worst


# name -> residual(table, state) of a degree-N table built from ``state``:
# the checks of ``isoflow mvk`` and of verify's mvk group
TABLE_CHECKS = {
    "base_entry": lambda table, state: base_entry_error(table),
    "orthogonality": lambda table, state: table.orthogonality[0],
    "dual_orthogonality": lambda table, state: table.orthogonality[1],
    "recurrence": lambda table, state: mvk_recurrence_check(table, state),
    "degree_one_match": lambda table, state: degree_one_residual(
        table if table.N == 1 else mvk_table(state, 1), state),
}


# --------------------------------------------------------------------------
# time derivative along the chain flow


@dataclass(frozen=True)
class MVKDerivativeReport:
    max_residual: float
    order_estimate: float
    display_variant_residual: float


def mvk_time_derivative_check(state: ChainState, g: GFun, N: int,
                              h: float = 1e-4) -> MVKDerivativeReport:
    """Centered-difference check of the weighted-eigenvector evolution

        d/dt (W_rho P) = W_rho S(tau, rho) - C W_rho P(tau', rho'),
        S = sum_r u_r (tau_{r-1} P((tau - f_{r-1} + f_r)', rho')
                       - tau_r P((tau + f_{r-1} - f_r)', rho')),
        C = N u_1 P((N-1, 1, 0, ...)', rho') - (dW_rho/dt) / W_rho.

    ``display_variant_residual`` evaluates the variant whose constant term is
    (dW/dt - N u_1) P — i.e. N u_1 enters without the P((N-1,1,0,...)')
    prefactor — which fails by O(1) and is kept for detection, not gated.
    """
    d = state.d
    table0 = mvk_table(state, N)
    idx = table0.indices
    u1 = _g_at(g, state.t) * state.r[0]
    u = _g_at(g, state.t) * np.asarray(state.r)
    sigma_star = (N - 1, 1) + (0,) * (d - 1)

    def sum_term(tau, rho) -> float:
        acc = 0.0
        for i in range(1, d + 1):
            if tau[i - 1] > 0:
                shifted = list(tau)
                shifted[i - 1] -= 1
                shifted[i] += 1
                acc += u[i - 1] * tau[i - 1] * table0.P(tuple(shifted), rho)
            if tau[i] > 0:
                shifted = list(tau)
                shifted[i - 1] += 1
                shifted[i] -= 1
                acc -= u[i - 1] * tau[i] * table0.P(tuple(shifted), rho)
        return acc

    def residuals(step: float) -> tuple[float, float]:
        tp = mvk_table(_advance(state, g, step), N)
        tm = mvk_table(_advance(state, g, -step), N)
        worst = worst_disp = 0.0
        for rho in idx:
            W0 = table0.W(rho)
            Wdot = (tp.W(rho) - tm.W(rho)) / (2.0 * step)
            c_const = N * u1 * table0.P(sigma_star, rho) - Wdot / W0
            for tau in idx:
                P0 = table0.P(tau, rho)
                Pdot = (tp.P(tau, rho) - tm.P(tau, rho)) / (2.0 * step)
                lhs = Wdot * P0 + W0 * Pdot
                S = sum_term(tau, rho)
                worst = max(worst, abs(lhs - (W0 * S - c_const * W0 * P0)))
                worst_disp = max(worst_disp,
                                 abs(lhs - ((Wdot - N * u1) * P0 + W0 * S)))
        return worst, worst_disp

    res_h, disp_h = residuals(h)
    res_h2, _ = residuals(h / 2.0)
    order = float(np.log2(res_h / res_h2)) if res_h2 > 0 else float("inf")
    return MVKDerivativeReport(res_h, order, disp_h)


# --------------------------------------------------------------------------
# collapse to the binomial lattice


def symmetric_chain_state(s: float, r: float, d: int) -> ChainState:
    """The one-parameter chain s_i = s i (i - 1 - d), r_i = r sqrt(i (d+1-i))
    whose operator is the rank-1 compact operator in disguise."""
    sv = tuple(s * i * (i - 1 - d) for i in range(1, d + 1))
    rv = tuple(r * math.sqrt(i * (d + 1 - i)) for i in range(1, d + 1))
    return ChainState(0.0, sv, rv)


def krawtchouk_reduction_check(s: float, r: float, d: int, N: int) -> tuple[float, float]:
    """(residual_pn, residual_sum) for the collapse of the chain family to
    the binomial-lattice family.

    residual_pn: max |p_n(lam_x) - K_n(x)| over the spectrum lam_x =
    C (d - 2x), with C = hypot(s, r) and success fraction p = 1/2 + s/(2C).
    residual_sum: max residual of the level-k collapse of the degree-N
    table onto the binomial-lattice family of lattice size d N, evaluated
    with m = sum_i (d - i) rho_i under ascending eigenvalue labeling.
    """
    state = symmetric_chain_state(s, r, d)
    C = math.hypot(s, r)
    p = 0.5 + s / (2.0 * C)
    params_small = KrawtchoukParams(p, d)
    lam = chain_spectrum(state)

    resid_pn = 0.0
    for i_asc in range(d + 1):
        x = d - i_asc
        pvec, _ = eigen_polys(state, float(lam[i_asc]))
        for n in range(d + 1):
            kn = eval_hyper(FamilyTag.KRAWTCHOUK, params_small, n, x)
            resid_pn = max(resid_pn, abs(pvec[n] - kn))
        resid_pn = max(resid_pn, abs(float(lam[i_asc]) - C * (d - 2 * x)))

    table = mvk_table(state, N)
    params_big = KrawtchoukParams(p, d * N)
    resid_sum = 0.0
    for rho in table.indices:
        m = sum((d - i) * rho[i] for i in range(d + 1))
        for k in range(d * N + 1):
            # the level-k collapse carries the large-lattice binomial weight
            lhs = math.sqrt(math.comb(d * N, k)) * \
                eval_hyper(FamilyTag.KRAWTCHOUK, params_big, k, m)
            rhs = 0.0
            for sigma in table.indices:
                if sum(j * sigma[j] for j in range(d + 1)) != k:
                    continue
                coeff = 1.0
                for jj in range(d + 1):
                    coeff *= math.comb(d, jj) ** (sigma[jj] / 2.0)
                rhs += coeff * multinom(N, sigma) * table.P(sigma, rho)
            resid_sum = max(resid_sum, abs(lhs - rhs))
    return resid_pn, resid_sum


def write_mvk_csv(path, table: MVKTable) -> None:
    """CSV with header sigma,rho,P; multi-indices dash-separated, rows in
    lexicographic (rho, sigma) order."""
    with open(path, "w", newline="") as fh:
        fh.write("sigma,rho,P\n")
        for rho in table.indices:
            for sigma in table.indices:
                fh.write("%s,%s,%s\n" % ("-".join(map(str, sigma)),
                                         "-".join(map(str, rho)),
                                         "%.17g" % table.P(sigma, rho)))
