"""Multivariate orthogonal family attached to a chain state.

For a chain of rank d with simple spectrum lam_0 < ... < lam_d and
eigenvector polynomials p_j, the degree-N family P(sigma', rho') is defined
through the generating product

    prod_i (sum_j p_j(lam_i) z_j)^{rho_i}
        = sum_{|sigma| = N} multinom(N, sigma) P(sigma', rho') z^sigma,

with multi-indices sigma, rho of length d + 1 summing to N.  The table built
here is expanded exactly, one degree at a time, into one M x M array
(M = C(N + d, d) multi-indices, rows sigma and columns rho in lexicographic
order), and the module carries the two discrete orthogonality relations
(two Gram products of that array), the spectral three-term law, the
time-derivative law along the chain flow, and the collapse to the
binomial-lattice family for the symmetric one-parameter chain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .chain import (ChainState, DerivativeReport, build_chain_L, chain_spectrum,
                    christoffel_weights, derivative_report, eigen_polys)
from .families import FamilyTag, KrawtchoukParams, eval_hyper
from .flows import GFun, g_at
from .operators import TridiagonalOperator
from .spectral import SpectralDecomposition, eigs_sym_tridiag


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


def _moved(t: tuple[int, ...], src: int, dst: int | None = None) -> tuple[int, ...]:
    """``t`` with one unit taken from part ``src`` and, unless ``dst`` is
    None, put on part ``dst``."""
    out = list(t)
    out[src] -= 1
    if dst is not None:
        out[dst] += 1
    return tuple(out)


@dataclass(frozen=True)
class MVKTable:
    """Degree-N table, ascending eigenvalue labeling, plus the weights the
    family is orthogonal for: values[row[sigma], row[rho]] = P(sigma', rho'),
    rows and columns both in the order of ``indices``."""
    d: int
    N: int
    eigenvalues: np.ndarray
    weights: np.ndarray
    values: np.ndarray

    @cached_property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        """The multi-indices of weight N in lexicographic order."""
        return tuple(multi_indices(self.d + 1, self.N))

    @cached_property
    def row(self) -> dict[tuple[int, ...], int]:
        """Position of each multi-index in ``indices``."""
        return {sigma: k for k, sigma in enumerate(self.indices)}

    def P(self, sigma: tuple[int, ...], rho: tuple[int, ...]) -> float:
        return float(self.values[self.row[tuple(sigma)], self.row[tuple(rho)]])

    def W(self, rho: tuple[int, ...]) -> float:
        out = 1.0
        for wi, ri in zip(self.weights, rho):
            out *= wi ** (ri / 2.0)
        return out

    def eigenvalue(self, rho: tuple[int, ...]) -> float:
        return float(np.dot(self.eigenvalues, rho))

    @cached_property
    def orthogonality(self) -> tuple[float, float]:
        """``mvk_orthogonality_check`` of this table, computed once."""
        return mvk_orthogonality_check(self)

    def decomposition(self) -> SpectralDecomposition:
        """The table in orthonormal form, the orthogonal M x M matrix
        V = sqrt(binom)[:, None] * P * sqrt(binom w^rho), with the eigenvalues
        lam . rho of its columns and the weights w^rho (its squared row
        (N, 0, ..., 0)).  At N = 1, V is the chain's ``christoffel_weights``
        vectors with the order of rows and of columns reversed."""
        binom = np.array([multinom(self.N, sig) for sig in self.indices], dtype=float)
        rho = np.array(self.indices)
        wprod = np.prod(np.asarray(self.weights) ** rho, axis=1)
        return SpectralDecomposition(rho @ self.eigenvalues, np.sqrt(binom)[:, None]
                                     * self.values * np.sqrt(binom * wprod), wprod)


def _weighted_table(table: MVKTable) -> np.ndarray:
    """The row of ``W(rho)`` for every rho, in the order of ``table.indices``,
    above the rows of ``table.values``."""
    return np.vstack(([table.W(rho) for rho in table.indices], table.values))


def mvk_table(state: ChainState, N: int) -> MVKTable:
    """Expand the generating product exactly for every rho of weight N.

    Column rho of the degree-n coefficients (rows z^K) is column rho - e_i
    of degree n - 1 times the linear form u_i, i the last nonzero part of
    rho; row K adds prev[K - e_j] u_i[j] for j from d down to 0, the order
    in which expanding the product factor by factor adds them.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    d = state.d
    cw = christoffel_weights(state)
    lam = cw.eigenvalues
    u = eigen_polys(state, lam)[0].T  # u[i, j] = p_j(lam_i)
    idx = [(0,) * (d + 1)]
    coef = np.ones((1, 1))
    for n in range(1, N + 1):
        row = {t: k for k, t in enumerate(idx)}
        idx = list(multi_indices(d + 1, n))
        last = [max(i for i, v in enumerate(rho) if v) for rho in idx]
        prev = coef[:, [row[_moved(rho, i)] for rho, i in zip(idx, last)]]
        factor = u[last]
        coef = np.zeros((len(idx), len(idx)))
        for j in range(d, -1, -1):
            rows = [k for k, K in enumerate(idx) if K[j]]
            coef[rows] += prev[[row[_moved(idx[k], j)] for k in rows]] * factor[:, j]
    binom = np.array([multinom(N, sigma) for sigma in idx], dtype=float)
    return MVKTable(d, N, lam, cw.weights, coef / binom[:, None])


# --------------------------------------------------------------------------
# structural checks


def mvk_orthogonality_check(table: MVKTable) -> tuple[float, float]:
    """(primal, dual) residuals of the two discrete orthogonality relations
    P^T diag(binom) P = diag(1 / (binom w^rho)) and
    P diag(binom w^rho) P^T = diag(1 / binom): the Gram residuals of the
    table's orthonormal form ``table.decomposition()``."""
    return table.decomposition().orthogonality()


def _add_moves(table: MVKTable, out: np.ndarray, coeffs, down_sign: float) -> np.ndarray:
    """Add to out[tau, rho], for i = 1..d in turn,

        coeffs[i-1] tau_{i-1} P((tau - f_{i-1} + f_i)', rho')
        + down_sign coeffs[i-1] tau_i P((tau + f_{i-1} - f_i)', rho'),

    one term at a time, up before down; a move that would leave the index
    set carries a zero factor and is skipped.  Returns ``out``."""
    idx, P = table.indices, table.values
    for i in range(1, table.d + 1):
        for a, b, sign in ((i - 1, i, 1.0), (i, i - 1, down_sign)):
            rows = [k for k, tau in enumerate(idx) if tau[a]]
            w = (sign * coeffs[i - 1]) * np.array([idx[k][a] for k in rows])
            out[rows] += w[:, None] * P[[table.row[_moved(idx[k], a, b)] for k in rows]]
    return out


def mvk_recurrence_check(table: MVKTable, state: ChainState) -> float:
    """Relative residual of the spectral three-term law

        (sum_i lam_i rho_i) P(tau', rho')
          = sum_i s_i (tau_{i-1} - tau_i) P(tau', rho')
          + sum_i r_i (tau_{i-1} P((tau - f_{i-1} + f_i)', rho')
                       + tau_i P((tau + f_{i-1} - f_i)', rho'))

    over every (tau, rho); shifts that would leave the index set carry a
    zero factor and are skipped.
    """
    s, P = state.s, table.values
    lam = np.array([table.eigenvalue(rho) for rho in table.indices])
    diag = np.array([sum(s[i - 1] * (tau[i - 1] - tau[i]) for i in range(1, state.d + 1))
                     for tau in table.indices])
    lhs = lam * P
    rhs = _add_moves(table, diag[:, None] * P, state.r, 1.0)
    return float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs))))


def base_entry_error(table: MVKTable) -> float:
    """max |P((N, 0, ..., 0)', rho') - 1| over rho: the leading entry is one
    by construction."""
    base = (table.N,) + (0,) * table.d
    return float(np.max(np.abs(table.values[table.row[base]] - 1.0)))


def degree_one_residual(table1: MVKTable, state: ChainState) -> float:
    """max |P(e_j', e_i') sqrt(w_i) - v_j(i)| of a degree-one table against
    the LAPACK eigenvectors v(i) of the operator of ``state``, independent of
    the table's polynomials, each column's sign fixed by its first component."""
    at = [table1.row[unit_index(state.d + 1, j)] for j in range(state.d + 1)]
    v = eigs_sym_tridiag(TridiagonalOperator(0, *build_chain_L(state))).vectors
    return float(np.max(np.abs(table1.decomposition().vectors[np.ix_(at, at)]
                               - v * np.sign(v[0]))))


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


def mvk_time_derivative_check(state: ChainState, g: GFun, N: int) -> DerivativeReport:
    """Centered-difference check of the weighted-eigenvector evolution

        d/dt (W_rho P) = W_rho S(tau, rho) - C W_rho P(tau', rho'),
        S = sum_r u_r (tau_{r-1} P((tau - f_{r-1} + f_r)', rho')
                       - tau_r P((tau + f_{r-1} - f_r)', rho')),
        C = N u_1 P((N-1, 1, 0, ...)', rho') - (dW_rho/dt) / W_rho.

    The variant has the constant term (dW/dt - N u_1) P, i.e. N u_1 enters
    without the P((N-1,1,0,...)') prefactor; it fails by O(1) and is kept
    for detection, not gated.
    """
    table0 = mvk_table(state, N)
    P0 = table0.values
    gt = g_at(g, state.t)
    u1 = gt * state.r[0]
    S = _add_moves(table0, np.zeros_like(P0), gt * np.asarray(state.r), -1.0)
    W0 = _weighted_table(table0)[0]
    c_star = N * u1 * P0[table0.row[(N - 1, 1) + (0,) * (state.d - 1)]]

    def law(dot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        Wdot, Pdot = dot[0], dot[1:]
        lhs = Wdot * P0 + W0 * Pdot
        return (np.abs(lhs - (W0 * S - (c_star - Wdot / W0) * W0 * P0)),
                np.abs(lhs - ((Wdot - N * u1) * P0 + W0 * S)))

    return derivative_report(state, g, lambda st: _weighted_table(mvk_table(st, N)), law)


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

    x = d - np.arange(d + 1)  # lam[i] sits at lattice point x = d - i
    K = np.array([[eval_hyper(FamilyTag.KRAWTCHOUK, params_small, n, xi) for xi in x.tolist()]
                  for n in range(d + 1)])
    P, _ = eigen_polys(state, lam)
    # one row of residuals per p_n, and a last one for the eigenvalues
    resid_pn = float(np.max(np.abs(np.vstack((P - K, lam - C * (d - 2 * x))))))

    table = mvk_table(state, N)
    params_big = KrawtchoukParams(p, d * N)
    levels = range(d * N + 1)
    # the level-k collapse carries the large-lattice binomial weight
    lhs = np.array([[math.sqrt(math.comb(d * N, k))
                     * eval_hyper(FamilyTag.KRAWTCHOUK, params_big, k, m) for m in levels]
                    for k in levels])
    rhs = np.zeros((len(levels), len(table.indices)))
    for sigma, row in zip(table.indices, table.values):
        coeff = math.prod(math.comb(d, j) ** (sigma[j] / 2.0) for j in range(d + 1))
        rhs[sum(j * sigma[j] for j in range(d + 1))] += coeff * multinom(N, sigma) * row
    m = [sum((d - i) * rho[i] for i in range(d + 1)) for rho in table.indices]
    return resid_pn, float(np.max(np.abs(lhs[:, m] - rhs)))


def write_mvk_csv(path, table: MVKTable) -> None:
    """CSV with header sigma,rho,P; multi-indices dash-separated, rows in
    lexicographic (rho, sigma) order."""
    labels = ["-".join(map(str, t)) for t in table.indices]
    with open(path, "w", newline="") as fh:
        fh.write("sigma,rho,P\n")
        for rho, column in zip(labels, table.values.T.tolist()):
            fh.writelines("%s,%s,%.17g\n" % (sigma, rho, v)
                          for sigma, v in zip(labels, column))
