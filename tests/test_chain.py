"""Traceless tridiagonal chain: operator assembly, spectrum, Christoffel
weights, trace identities, isospectral flow, and the eigenvector-polynomial
time-derivative law."""
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from isoflow import (ChainState, IntegrationBlowupError, build_chain_L,
                     chain_dense_L, chain_isospectrality_drift, chain_rhs,
                     chain_spectrum, christoffel_weights, eigen_polys,
                     integrate_chain, path_eigenvalues,
                     pn_time_derivative_check, trace_flow_drift,
                     trace_invariants)
from isoflow.chain import _advance
from isoflow.flows import g_at
from isoflow.cli import _write_chain_csv


def test_single_cell_worked_example():
    state = ChainState(0.0, (4.0,), (3.0,))
    diag, off = build_chain_L(state)
    assert diag == pytest.approx([4.0, -4.0])
    assert off == pytest.approx([3.0])

    lam = chain_spectrum(state)
    assert lam == pytest.approx([-5.0, 5.0], abs=1e-12)

    cw = christoffel_weights(state)
    assert cw.weights == pytest.approx([0.1, 0.9], abs=1e-12)
    assert cw.weights.sum() == pytest.approx(1.0, abs=1e-13)

    # last operator row closes exactly at an eigenvalue, not elsewhere
    _, closure = eigen_polys(state, 5.0)
    assert closure <= 1e-12
    _, closure = eigen_polys(state, 4.0)
    assert closure > 0.1

    tr = trace_invariants(state)
    assert tr.tr2 == pytest.approx(50.0, abs=1e-12)
    assert tr.tr3 == pytest.approx(0.0, abs=1e-12)
    assert tr.tr4 == pytest.approx(1250.0, abs=1e-10)
    assert tr.tr2_unit_variant == pytest.approx(41.0, abs=1e-12)


def test_rhs_values():
    state = ChainState(0.0, (1.0, 1.0), (1.0, 1.0))
    ds, dr = chain_rhs(state, 1.0)
    assert ds == pytest.approx([2.0, 2.0])
    assert dr == pytest.approx([-1.0, -1.0])
    # tabulated coupling scales u = g r uniformly
    ds2, dr2 = chain_rhs(state, lambda t: 0.5)
    assert ds2 == pytest.approx([1.0, 1.0])
    assert dr2 == pytest.approx([-0.5, -0.5])


STATES = {
    2: ChainState(0.0, (0.3, -0.2), (1.0, 0.8)),
    3: ChainState(0.0, (0.3, -0.2, 0.4), (1.0, 0.8, 1.2)),
    5: ChainState(0.0, (0.5, -0.1, 0.3, -0.4, 0.2),
                  (0.9, 1.1, 0.7, 1.3, 0.6)),
}


def _random_state(d, seed=3):
    rng = np.random.default_rng([seed, d])
    return ChainState(0.0, tuple(rng.uniform(-1.0, 1.0, d)),
                      tuple(rng.uniform(0.5, 1.5, d)))


@pytest.mark.parametrize("d", [1, 3, 16])
def test_path_operators_are_the_per_state_ones(d):
    traj = integrate_chain(_random_state(d), 1.0, 1e-3, 0.5, record_every=50)
    r_before = traj.r.copy()
    diag, off = build_chain_L(traj)
    dense = chain_dense_L(traj)
    spectra = path_eigenvalues(diag, off)
    assert diag.shape == (len(traj), d + 1) and off.shape == (len(traj), d)
    assert dense.shape == (len(traj), d + 1, d + 1)
    for i in range(len(traj)):
        state = traj.state(i)
        want_diag, want_off = build_chain_L(state)
        assert np.array_equal(diag[i], want_diag) and np.array_equal(off[i], want_off)
        assert np.array_equal(dense[i], chain_dense_L(state))
        assert spectra[i].tobytes() == chain_spectrum(state).tobytes()
    # the eigensolves leave the trajectory as it was
    assert np.array_equal(traj.r, r_before)
    assert chain_isospectrality_drift(spectra) == max(
        float(np.abs(lam - spectra[0]).max()) for lam in spectra)


@pytest.mark.parametrize("d", [1, 3, 16])
def test_eigen_polys_on_an_array_is_the_scalar_loop(d):
    state = _random_state(d)
    lam = np.append(chain_spectrum(state), [0.37, -2.0]).reshape(-1, 1)
    p, closure = eigen_polys(state, lam)
    assert p.shape == (d + 1,) + lam.shape and closure.shape == lam.shape
    for k, lv in enumerate(lam[:, 0].tolist()):
        want_p, want_closure = eigen_polys(state, lv)
        assert p[:, k, 0].tobytes() == want_p.tobytes()
        assert closure[k, 0] == want_closure


def _eigen_polys_loop(state, lam):
    """``eigen_polys`` as it was before it shared ``specfun.three_term``."""
    s, r, d = state.s, state.r, state.d
    lam = np.asarray(lam, dtype=float)
    p = np.empty((d + 1,) + lam.shape)
    p[0] = 1.0
    p[1] = (lam - s[0]) / r[0]
    for n in range(1, d):
        p[n + 1] = ((lam - (s[n] - s[n - 1])) * p[n] - r[n - 1] * p[n - 1]) / r[n]
    closure = r[d - 1] * p[d - 1] - s[d - 1] * p[d] - lam * p[d]
    return p, np.abs(closure)


@pytest.mark.parametrize("d", [1, 3, 16])
def test_eigen_polys_are_the_old_loop_bitwise(d):
    state = _random_state(d)
    lam = np.append(chain_spectrum(state), [0.37, -2.0, 1e3])
    for at in (lam, lam.reshape(-1, 1), 0.37):
        (p, closure), (want_p, want_closure) = (eigen_polys(state, at),
                                                _eigen_polys_loop(state, at))
        assert p.shape == want_p.shape and p.tobytes() == want_p.tobytes()
        assert closure.tobytes() == want_closure.tobytes()


@pytest.mark.parametrize("d", [2, 3, 5])
def test_spectrum_traceless(d):
    lam = chain_spectrum(STATES[d])
    assert abs(lam.sum()) <= 1e-12 * (1.0 + np.abs(lam).max())


@pytest.mark.parametrize("d", [2, 3, 5])
def test_orthogonality_both_ways(d):
    cw = christoffel_weights(STATES[d])
    n = d + 1
    assert np.abs(cw.vectors.T @ cw.vectors - np.eye(n)).max() <= 1e-12
    assert np.abs(cw.vectors @ cw.vectors.T - np.eye(n)).max() <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_weights_match_eigenvector_route(d):
    state = STATES[d]
    cw = christoffel_weights(state)
    diag, off = build_chain_L(state)
    lam, vec = eigh_tridiagonal(diag, off)
    order = np.argsort(lam)
    assert np.abs(cw.weights - vec[0, order] ** 2).max() <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_trace_identities(d):
    tr = trace_invariants(STATES[d])
    scale = 1.0 + abs(tr.tr4_dense)
    assert abs(tr.tr2 - tr.tr2_dense) <= 1e-12 * scale
    assert abs(tr.tr3 - tr.tr3_dense) <= 1e-12 * scale
    assert abs(tr.tr4 - tr.tr4_dense) <= 1e-12 * scale
    r = np.asarray(STATES[d].r)
    assert tr.tr2 - tr.tr2_unit_variant == pytest.approx(float(np.sum(r ** 2)),
                                                         rel=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_trace_errors_match_scalar_loops(d):
    # the relative rule |a - b| / max(1, |b|) written as scalar loops, the
    # way the chain command computed it before the shared functions
    def rel(a, b):
        return abs(a - b) / max(1.0, abs(b))

    tr = trace_invariants(STATES[d])
    assert list(tr.closed_vs_dense) == [rel(tr.tr2, tr.tr2_dense),
                                        rel(tr.tr3, tr.tr3_dense),
                                        rel(tr.tr4, tr.tr4_dense)]
    traj = integrate_chain(STATES[d], 1.0, 1e-3, 1.0, record_every=100)
    dense = [(t.tr2_dense, t.tr3_dense, t.tr4_dense)
             for t in map(trace_invariants, map(traj.state, range(len(traj))))]
    want = [max(rel(now[k], dense[0][k]) for now in dense) for k in range(3)]
    assert list(trace_flow_drift(traj)) == want
    assert 0.0 < max(want) <= 1e-9


@pytest.mark.parametrize("d", [1, 16])
def test_trace_flow_drift_is_the_per_state_traces(d):
    traj = integrate_chain(_random_state(d), 1.0, 1e-3, 0.5, record_every=50)
    dense = np.array([trace_invariants(traj.state(i)).dense for i in range(len(traj))])
    want = (np.abs(dense - dense[0]) / np.maximum(1.0, np.abs(dense[0]))).max(axis=0)
    assert trace_flow_drift(traj).tobytes() == want.tobytes()


def test_isospectral_flow():
    traj = integrate_chain(STATES[3], 1.0, 1e-3, 1.0, record_every=100)
    assert len(traj) == 11
    assert traj.t[-1] == pytest.approx(1.0)
    assert chain_isospectrality_drift(path_eigenvalues(*build_chain_L(traj))) <= 1e-8
    # trace invariants are conserved along the flow
    tr0 = trace_invariants(traj.state(0))
    trN = trace_invariants(traj.state(len(traj) - 1))
    assert abs(trN.tr2 - tr0.tr2) <= 1e-9 * (1.0 + abs(tr0.tr2))
    assert abs(trN.tr3 - tr0.tr3) <= 1e-9 * (1.0 + abs(tr0.tr3))


def reference_chain_csv(path, traj):
    """``_write_chain_csv`` as it formatted one numpy value at a time."""
    d = traj.s.shape[1]
    cols = ["t"] + [f"s_{i}" for i in range(1, d + 1)] + \
        [f"r_{i}" for i in range(1, d + 1)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(len(traj.t)):
            row = [traj.t[i], *traj.s[i], *traj.r[i]]
            fh.write(",".join("%.17g" % v for v in row) + "\n")


@pytest.mark.parametrize("d, t_end", [(2, 0.5), (3, 1.0), (5, 0.0)])
def test_chain_csv_matches_value_writer(tmp_path, d, t_end):
    traj = integrate_chain(STATES[d], 1.0, 1e-3, t_end, record_every=7)
    _write_chain_csv(tmp_path / "new.csv", traj)
    reference_chain_csv(tmp_path / "ref.csv", traj)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_chain_step_control_guards():
    with pytest.raises(ValueError, match="dt = 0.3 .*t_end - t0 = 1.0"):
        integrate_chain(STATES[3], 1.0, 0.3, 1.0)
    with pytest.raises(ValueError, match="precede"):
        integrate_chain(STATES[3], 1.0, 1e-3, -1.0)
    with pytest.raises(ValueError, match="record_every"):
        integrate_chain(STATES[3], 1.0, 1e-3, 1.0, record_every=0)
    assert len(integrate_chain(STATES[3], 1.0, 1e-3, 0.0)) == 1


def test_chain_blowup_carries_last_good_state():
    with pytest.raises(IntegrationBlowupError) as info:
        integrate_chain(STATES[3], 60.0, 0.05, 2.0)
    last = info.value.last_state
    assert isinstance(last, ChainState)
    assert 0.0 <= last.t < 2.0
    assert np.all(np.isfinite(last.s)) and min(last.r) > 0


@pytest.mark.parametrize("n_steps", [1, 2, 5])
def test_chain_refuses_step_leaving_positive_r(n_steps):
    # one RK4 step of this state ends with r_1 <= 0 (its stages stay positive)
    state = ChainState(0.0, (-2.41,), (0.18,))
    with pytest.raises(IntegrationBlowupError) as info:
        integrate_chain(state, 7.72, 0.2, 0.2 * n_steps)
    assert info.value.last_state == state


def test_pn_time_derivative_law():
    rep = pn_time_derivative_check(STATES[3], 1.0)
    assert rep.max_residual <= 1e-6
    assert rep.order_estimate >= 1.9
    assert rep.variant_residual > 1e-2

    # off-spectrum value: interior rows still satisfy the law
    rep = pn_time_derivative_check(STATES[3], 1.0, lam=0.37)
    assert rep.max_residual <= 1e-6


def test_pn_time_derivative_with_no_row_to_check_raises():
    """At d = 1 an off-spectrum lam leaves no row: the check raises instead
    of reporting max_residual 0 with order_estimate inf, a vacuous pass."""
    state = ChainState(0.0, (0.5,), (1.5,))
    with pytest.raises(ValueError, match="no row"):
        pn_time_derivative_check(state, 1.0, lam=0.3)
    rep = pn_time_derivative_check(state, 1.0)
    assert 0 < rep.max_residual <= 1e-6 and np.isfinite(rep.order_estimate)


def _ref_pn_residuals(state, g, lam, step, eig_mode):
    """The residuals of ``pn_time_derivative_check`` as the row loop wrote
    them."""
    p_plus, _ = eigen_polys(_advance(state, g, step), lam)
    p_minus, _ = eigen_polys(_advance(state, g, -step), lam)
    pdot = (p_plus - p_minus) / (2.0 * step)
    p, _ = eigen_polys(state, lam)
    u = g_at(g, state.t) * np.asarray(state.r)
    d = state.d
    worst = worst_flip = 0.0
    for n in range(1, d + 1) if eig_mode else range(1, d):
        drag = u[0] * p[1] * p[n]
        if n < d:
            rhs = u[n] * p[n + 1] - u[n - 1] * p[n - 1] - drag
        else:
            rhs = -u[d - 1] * p[d - 1] - drag
        worst = max(worst, abs(pdot[n] - rhs))
        worst_flip = max(worst_flip, abs(pdot[n] + rhs))
    return worst, worst_flip


@pytest.mark.parametrize("d", [1, 2, 3, 5, 16])
@pytest.mark.parametrize("lam", [None, 0.37])
def test_pn_time_derivative_rows_are_the_row_loop(d, lam):
    state = _random_state(d)
    if d == 1 and lam is not None:  # no row to check
        with pytest.raises(ValueError):
            pn_time_derivative_check(state, 1.3, lam=lam)
        return
    rep = pn_time_derivative_check(state, 1.3, lam=lam)
    lam_v = float(chain_spectrum(state)[d // 2]) if lam is None else lam
    res_h, flip_h = _ref_pn_residuals(state, 1.3, lam_v, 1e-4, lam is None)
    res_h2, _ = _ref_pn_residuals(state, 1.3, lam_v, 5e-5, lam is None)
    order = float(np.log2(res_h / res_h2)) if res_h2 > 0 else float("inf")
    assert (rep.max_residual, rep.order_estimate, rep.variant_residual) == \
        (res_h, order, flip_h)


def test_state_validation():
    with pytest.raises(ValueError):
        ChainState(0.0, (1.0, 2.0), (1.0,))
    with pytest.raises(ValueError):
        ChainState(0.0, (), ())
    with pytest.raises(ValueError):
        ChainState(0.0, (1.0,), (0.0,))
    with pytest.raises(ValueError):
        ChainState(0.0, (1.0,), (-1.0,))


@pytest.mark.parametrize("s, r", [
    ((float("nan"), 0.1), (1.0, 1.0)),
    ((0.1, 0.2), (1.0, float("inf"))),
    ((float("-inf"), 0.1), (1.0, 1.0)),
    ((0.1, 0.2), (float("nan"), 1.0)),
])
def test_state_rejects_non_finite_entries(s, r):
    with pytest.raises(ValueError, match="finite"):
        ChainState(0.0, s, r)


@pytest.mark.parametrize("r, conditioned", [((1e-12, 1e-12), True),
                                             ((1.0, 1e-11, 1.0), False)])
def test_degenerate_spectrum_is_quiet(r, conditioned):
    # nearly degenerate eigenvalues give no warning: how well the weights
    # are conditioned is what the orthogonality rows measure.  They read
    # 2.2e-16 on the first chain (gaps 1.4e-12) and 8.3e-8 on the second,
    # whose two pairs of eigenvalues are 1e-11 apart
    state = ChainState(0.0, (0.0,) * len(r), r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = chain_spectrum(state)
        primal, dual = christoffel_weights(state).orthogonality()
    assert np.diff(lam).min() < 1e-10 * (1.0 + np.abs(lam).max())
    assert (max(primal, dual) <= 1e-12) is conditioned
