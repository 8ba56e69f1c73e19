"""Multivariate degree-N tables on the chain spectrum: generating-product
expansion, dual orthogonality, spectral recurrence, time derivative, and the
collapse onto the binomial-lattice family."""
import math

import numpy as np
import pytest

from isoflow import (TABLE_CHECKS, ChainState, FamilyTag, KrawtchoukParams,
                     TridiagonalOperator, base_entry_error, build_chain_L,
                     chain_spectrum, christoffel_weights, eigs_sym_tridiag,
                     eigen_polys, eval_hyper, krawtchouk_reduction_check,
                     multi_indices, multinom, mvk_orthogonality_check,
                     mvk_recurrence_check, mvk_table, mvk_time_derivative_check,
                     symmetric_chain_state, unit_index, write_mvk_csv)
from isoflow.chain import _advance
from isoflow.flows import g_at
from isoflow.config import DEFAULT_SEED
from isoflow.mvk import degree_one_residual
from isoflow.verify import _MVK_TOL, GROUPS, _random_chain

STATE_D2 = ChainState(0.0, (0.3, -0.2), (1.0, 0.8))
STATE_D3 = ChainState(0.0, (0.3, -0.2, 0.4), (1.0, 0.8, 1.2))


def test_index_helpers():
    idx = list(multi_indices(3, 2))
    assert len(idx) == 6
    assert all(sum(t) == 2 and len(t) == 3 for t in idx)
    assert len(set(idx)) == 6
    assert multinom(2, (1, 1, 0)) == 2
    assert multinom(4, (2, 1, 1)) == 12
    assert unit_index(3, 1) == (0, 1, 0)


def test_mvk_table_evaluates_the_eigenvector_polynomials_once(monkeypatch):
    import isoflow.chain as chain
    import isoflow.mvk as mvk
    calls = []

    def counted(*args):
        calls.append(args)
        return eigen_polys(*args)
    for module in (chain, mvk):
        monkeypatch.setattr(module, "eigen_polys", counted)
    mvk_table(STATE_D2, 2)
    assert len(calls) == 1


def test_single_cell_degree_two_by_hand():
    # one cell, s=4, r=3: ascending spectrum (-5, 5), p_1(lam) = (lam-4)/3
    table = mvk_table(ChainState(0.0, (4.0,), (3.0,)), 2)
    lo, hi = -3.0, 1.0 / 3.0
    assert table.eigenvalues == pytest.approx([-5.0, 5.0], abs=1e-12)
    assert table.P((2, 0), (2, 0)) == pytest.approx(1.0, abs=1e-14)
    assert table.P((1, 1), (2, 0)) == pytest.approx(lo, rel=1e-13)
    assert table.P((0, 2), (2, 0)) == pytest.approx(lo * lo, rel=1e-13)
    assert table.P((1, 1), (1, 1)) == pytest.approx((lo + hi) / 2.0, rel=1e-13)
    assert table.P((0, 2), (1, 1)) == pytest.approx(lo * hi, rel=1e-13)
    assert table.P((0, 2), (0, 2)) == pytest.approx(hi * hi, rel=1e-13)


@pytest.mark.parametrize("state,N", [(STATE_D2, 2), (STATE_D2, 3),
                                     (STATE_D3, 2)])
def test_leading_entry_is_one(state, N):
    table = mvk_table(state, N)
    lead = (N,) + (0,) * state.d
    for rho in table.indices:
        assert table.P(lead, rho) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("state,N", [(STATE_D2, 2), (STATE_D2, 3),
                                     (STATE_D3, 2)])
def test_orthogonality(state, N):
    table = mvk_table(state, N)
    primal, dual = mvk_orthogonality_check(table)
    assert primal <= 1e-9
    assert dual <= 1e-9


@pytest.mark.parametrize("state,N", [(STATE_D2, 2), (STATE_D2, 3),
                                     (STATE_D3, 2)])
def test_recurrence(state, N):
    table = mvk_table(state, N)
    assert mvk_recurrence_check(table, state) <= 1e-9


def test_degree_one_matches_eigen_polys():
    for state in (STATE_D2, STATE_D3):
        table = mvk_table(state, 1)
        for i, lam in enumerate(table.eigenvalues):
            p, _ = eigen_polys(state, float(lam))
            for j in range(state.d + 1):
                assert table.P(unit_index(state.d + 1, j),
                               unit_index(state.d + 1, i)) == \
                    pytest.approx(p[j], abs=1e-12)


def test_degree_one_match_fails_on_a_perturbed_table():
    # a table built with r_1 (1 + 1e-6), checked against the unperturbed
    # operator: its LAPACK eigenvectors see the change
    r = (STATE_D3.r[0] * (1.0 + 1e-6),) + STATE_D3.r[1:]
    perturbed = mvk_table(ChainState(0.0, STATE_D3.s, r), 1)
    assert degree_one_residual(mvk_table(STATE_D3, 1), STATE_D3) <= 1e-12
    assert degree_one_residual(perturbed, STATE_D3) > 1e-7


def test_degree_one_match_fails_on_a_nan_table():
    # r_i this small overflows p_n and the weights, so the table is NaN
    state = ChainState(0.0, (0.3, -0.2, 0.4), (1e-150,) * 3)
    with np.errstate(all="ignore"):
        table = mvk_table(state, 1)
        values = {name: TABLE_CHECKS[name](table, state)
                  for name in ("orthogonality", "recurrence", "degree_one_match")}
    assert all(math.isnan(v) for v in values.values()), values


def test_table_validation_and_helpers():
    with pytest.raises(ValueError):
        mvk_table(STATE_D2, 0)
    table = mvk_table(STATE_D2, 2)
    rho = (1, 1, 0)
    assert table.eigenvalue(rho) == pytest.approx(
        float(table.eigenvalues[0] + table.eigenvalues[1]), abs=1e-13)
    assert table.W(rho) == pytest.approx(
        math.sqrt(float(table.weights[0] * table.weights[1])), rel=1e-13)


def test_time_derivative_law():
    rep = mvk_time_derivative_check(STATE_D2, 1.0, 2)
    assert rep.max_residual <= 1e-6
    assert rep.order_estimate >= 1.9
    assert rep.variant_residual > 1e-2


@pytest.mark.parametrize("s,r,d,N", [(0.6, 0.8, 2, 2), (0.3, 1.1, 3, 2)])
def test_binomial_lattice_reduction(s, r, d, N):
    resid_pn, resid_sum = krawtchouk_reduction_check(s, r, d, N)
    assert resid_pn <= 1e-10
    assert resid_sum <= 1e-9


def test_symmetric_state_shape():
    state = symmetric_chain_state(0.6, 0.8, 3)
    assert state.s == pytest.approx([0.6 * 1 * (-3), 0.6 * 2 * (-2),
                                     0.6 * 3 * (-1)])
    assert state.r == pytest.approx([0.8 * math.sqrt(3), 0.8 * 2.0,
                                     0.8 * math.sqrt(3)])


def test_csv_format(tmp_path):
    table = mvk_table(ChainState(0.0, (4.0,), (3.0,)), 2)
    path = tmp_path / "mvk.csv"
    write_mvk_csv(path, table)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "sigma,rho,P"
    assert len(lines) == 1 + 9
    row = {}
    for line in lines[1:]:
        sig, rho, val = line.split(",")
        row[(sig, rho)] = float(val)
    assert row[("2-0", "2-0")] == pytest.approx(1.0)
    assert row[("1-1", "2-0")] == pytest.approx(-3.0, rel=1e-13)


# --------------------------------------------------------------------------
# References: the dict-of-tuples expansion and the per-entry loops that the
# array table replaced, kept verbatim in their arithmetic so the array code
# can be compared with them bit for bit.


def _ref_mul_linear(poly, coeffs):
    out = {}
    for expo, cv in poly.items():
        for j, c in enumerate(coeffs):
            if c == 0.0:
                continue
            key = expo[:j] + (expo[j] + 1,) + expo[j + 1:]
            out[key] = out.get(key, 0.0) + cv * c
    return out


class _RefTable:
    """entries[(sigma, rho)] = P(sigma', rho'), built factor by factor."""

    def __init__(self, state, N):
        d = state.d
        cw = christoffel_weights(state)
        self.d, self.N = d, N
        self.eigenvalues, self.weights = cw.eigenvalues, cw.weights
        u = [eigen_polys(state, float(lam))[0] for lam in cw.eigenvalues]
        self.indices = list(multi_indices(d + 1, N))
        self.entries = {}
        for rho in self.indices:
            poly = {(0,) * (d + 1): 1.0}
            for i, m in enumerate(rho):
                for _ in range(m):
                    poly = _ref_mul_linear(poly, u[i])
            for sigma in self.indices:
                self.entries[(sigma, rho)] = poly.get(sigma, 0.0) / multinom(N, sigma)

    def P(self, sigma, rho):
        return self.entries[(tuple(sigma), tuple(rho))]

    def W(self, rho):
        out = 1.0
        for wi, ri in zip(self.weights, rho):
            out *= wi ** (ri / 2.0)
        return out

    def eigenvalue(self, rho):
        return float(np.dot(self.eigenvalues, rho))


def _ref_orthogonality(t):
    # the per-entry Gram sums, with each column read once from the dict
    idx = t.indices
    binom = [multinom(t.N, sig) for sig in idx]
    wprod = [float(np.prod(np.asarray(t.weights) ** np.asarray(sig))) for sig in idx]
    cols = [[t.P(sig, rho) for sig in idx] for rho in idx]
    rows = [[t.P(sig, rho) for rho in idx] for sig in idx]
    bw = [b * w for b, w in zip(binom, wprod)]
    primal = 0.0
    for a, ca in enumerate(cols):
        for b, cb in enumerate(cols):
            acc = sum(bs * x * y for bs, x, y in zip(binom, ca, cb))
            scale = math.sqrt(binom[a] * wprod[a] * binom[b] * wprod[b])
            primal = max(primal, abs(acc * scale - (1.0 if a == b else 0.0)))
    dual = 0.0
    for a, ra in enumerate(rows):
        for b, rb in enumerate(rows):
            acc = sum(c * x * y for c, x, y in zip(bw, ra, rb))
            scale = math.sqrt(binom[a] * binom[b])
            dual = max(dual, abs(acc * scale - (1.0 if a == b else 0.0)))
    return primal, dual


def _ref_recurrence(t, state):
    s, r = state.s, state.r
    worst = 0.0
    for rho in t.indices:
        lam_rho = t.eigenvalue(rho)
        for tau in t.indices:
            lhs = lam_rho * t.P(tau, rho)
            rhs = sum(s[i - 1] * (tau[i - 1] - tau[i]) for i in range(1, state.d + 1)) \
                * t.P(tau, rho)
            for i in range(1, state.d + 1):
                if tau[i - 1] > 0:
                    shifted = list(tau)
                    shifted[i - 1] -= 1
                    shifted[i] += 1
                    rhs += r[i - 1] * tau[i - 1] * t.P(tuple(shifted), rho)
                if tau[i] > 0:
                    shifted = list(tau)
                    shifted[i - 1] += 1
                    shifted[i] -= 1
                    rhs += r[i - 1] * tau[i] * t.P(tuple(shifted), rho)
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return worst


def _ref_base_entry(t):
    base = (t.N,) + (0,) * t.d
    return max(abs(t.P(base, rho) - 1.0) for rho in t.indices)


def _ref_degree_one(t1, state):
    # entry by entry against the same LAPACK eigenvectors, each column's
    # sign fixed by its first component
    parts = state.d + 1
    v = eigs_sym_tridiag(TridiagonalOperator(0, *build_chain_L(state))).vectors
    worst = 0.0
    for i in range(parts):
        sign = math.copysign(1.0, v[0, i])
        for j in range(parts):
            got = t1.P(unit_index(parts, j), unit_index(parts, i)) * math.sqrt(t1.weights[i])
            worst = max(worst, abs(got - sign * v[j, i]))
    return worst


def _ref_time_derivative(state, g, N, h=1e-4):
    d = state.d
    table0 = _RefTable(state, N)
    idx = table0.indices
    u1 = g_at(g, state.t) * state.r[0]
    u = g_at(g, state.t) * np.asarray(state.r)
    sigma_star = (N - 1, 1) + (0,) * (d - 1)

    def sum_term(tau, rho):
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

    def residuals(step):
        tp = _RefTable(_advance(state, g, step), N)
        tm = _RefTable(_advance(state, g, -step), N)
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
    return res_h, order, disp_h


def _ref_reduction(s, r, d, N):
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
    table = _RefTable(state, N)
    params_big = KrawtchoukParams(p, d * N)
    resid_sum = 0.0
    for rho in table.indices:
        m = sum((d - i) * rho[i] for i in range(d + 1))
        for k in range(d * N + 1):
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


def _ref_csv(path, t):
    with open(path, "w", newline="") as fh:
        fh.write("sigma,rho,P\n")
        for rho in t.indices:
            for sigma in t.indices:
                fh.write("%s,%s,%s\n" % ("-".join(map(str, sigma)),
                                         "-".join(map(str, rho)),
                                         "%.17g" % t.P(sigma, rho)))


def _verify_mvk_states():
    """The three (state, N) of verify's mvk group at the default seed."""
    rng = np.random.default_rng([DEFAULT_SEED, list(GROUPS).index("mvk")])
    return [(_random_chain(rng, d), N) for d, N in ((2, 2), (2, 3), (3, 2))]


# (d, N) of the benchmark's chain_mvk tables, then (5, 4) with M = 126
_SIZES = ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 5),
          (3, 4), (4, 3), (2, 8), (3, 5), (5, 4))
_RNG = np.random.default_rng(20131203)
_CASES = _verify_mvk_states() + [(_random_chain(_RNG, d), N) for d, N in _SIZES]
_CASE_IDS = ["verify_d2N2", "verify_d2N3", "verify_d3N2"] + [f"d{d}N{N}" for d, N in _SIZES]


@pytest.mark.parametrize("state,N", _CASES, ids=_CASE_IDS)
def test_array_table_matches_dict_expansion(state, N, tmp_path):
    table, ref = mvk_table(state, N), _RefTable(state, N)
    assert list(table.indices) == ref.indices
    for (sigma, rho), value in ref.entries.items():
        assert table.values[table.row[sigma], table.row[rho]] == value
    assert base_entry_error(table) == _ref_base_entry(ref)
    assert degree_one_residual(mvk_table(state, 1), state) == \
        _ref_degree_one(_RefTable(state, 1), state)
    assert mvk_recurrence_check(table, state) == _ref_recurrence(ref, state)
    write_mvk_csv(tmp_path / "new.csv", table)
    _ref_csv(tmp_path / "ref.csv", ref)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    # BLAS sums the Gram products in its own order
    for got, want in zip(mvk_orthogonality_check(table), _ref_orthogonality(ref)):
        assert abs(got - want) <= 1e-15


@pytest.mark.parametrize("state,N", _CASES, ids=_CASE_IDS)
def test_time_derivative_matches_per_entry_loop(state, N):
    rep = mvk_time_derivative_check(state, 1.0, N)
    assert (rep.max_residual, rep.order_estimate, rep.variant_residual) == \
        _ref_time_derivative(state, 1.0, N)


@pytest.mark.parametrize("s,r,d,N", [(0.6, 0.8, 2, 2), (0.3, 1.1, 3, 2)]
                         + [(0.45, 0.9, d, N) for d, N in _SIZES])
def test_reduction_matches_per_entry_loop(s, r, d, N):
    assert krawtchouk_reduction_check(s, r, d, N) == _ref_reduction(s, r, d, N)


def test_table_checks_at_d6_n6():
    state = _random_chain(np.random.default_rng(66), 6)
    table = mvk_table(state, 6)
    assert table.values.shape == (924, 924)
    for name, check in TABLE_CHECKS.items():
        assert check(table, state) <= _MVK_TOL[name], name

