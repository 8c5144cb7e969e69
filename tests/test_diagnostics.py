"""Measurement-layer checks: signal-to-noise and trace estimators, the
stability-bound factorization, trajectory minima, and phase segmentation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corlab import diagnostics as dg


# -- GSNR and covariance trace ------------------------------------------------

def test_gsnr_hand_oracle():
    # grads (1,0) and (3,0): mean (2,0), signal 4, per-sample var trace 1
    G = np.array([[1.0, 0.0], [3.0, 0.0]])
    assert dg.gsnr(G) == pytest.approx(4.0)
    assert dg.trace_cov(G) == pytest.approx(1.0)


def test_gsnr_zero_signal_and_zero_noise_edges():
    anti = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert dg.gsnr(anti) == 0.0
    constant = np.ones((3, 2))
    assert dg.gsnr(constant) == dg.GSNR_INF
    assert dg.gsnr(np.zeros((3, 2))) == 0.0
    with pytest.raises(ValueError):
        dg.gsnr(np.ones(4))
    with pytest.raises(ValueError):
        dg.gsnr(np.ones((1, 4)))
    # noise from a difference of moments can round below zero: no noise
    assert dg.signal_to_noise(2.0, -1e-17) == dg.GSNR_INF
    assert dg.signal_to_noise(0.0, -1e-17) == 0.0
    assert dg.signal_to_noise(2.0, 4.0) == 0.5


def test_spectral_estimate_derived_quantities():
    est = dg.SpectralEstimate(lambda_max=2.0, trace_h=6.0, trace_cov=4.0,
                              grad_norm_sq=9.0, step=7)
    assert est.kappa_s == pytest.approx(3.0)
    assert est.trace_xi == pytest.approx(7.0)
    assert est.gsnr == pytest.approx(2.25)
    assert est.cor_bound == pytest.approx(1.5)
    d = est.to_dict()
    assert d["step"] == 7 and d["kappa_s"] == pytest.approx(3.0)
    # a step with lambda_max <= 0 sets no stability limit
    for lam in (0.0, -1.0):
        flat = dg.SpectralEstimate(lambda_max=lam, trace_h=6.0, trace_cov=4.0,
                                   grad_norm_sq=9.0)
        assert flat.cor_bound == float("inf")
        assert '"cor_bound": Infinity' in json.dumps(flat.to_dict())


# -- top eigenvalue and trace ----------------------------------------------------

def test_lambda_max_matches_dense_eigensolve():
    rng = np.random.default_rng(0)
    for seed in range(5):
        # spectrum with a clear dominant gap so the iteration converges
        evals = np.concatenate([rng.uniform(0.1, 10.0, size=19), [25.0]])
        Q, _ = np.linalg.qr(rng.normal(size=(20, 20)))
        H = Q @ np.diag(evals) @ Q.T
        lam = dg.lambda_max(lambda v: H @ v, 20, seed=seed, shift=0.0)
        assert lam == pytest.approx(np.linalg.eigvalsh(H).max(), abs=1e-6)


def test_lambda_max_indefinite_spectrum_with_shift():
    rng = np.random.default_rng(42)
    evals = np.concatenate([rng.uniform(-10.0, 2.0, size=15), [5.0]])
    Q, _ = np.linalg.qr(rng.normal(size=(16, 16)))
    H = Q @ np.diag(evals) @ Q.T
    # shifting keeps the algebraically largest eigenvalue dominant
    lam = dg.lambda_max(lambda v: H @ v, 16, seed=1, shift=12.0)
    assert lam == pytest.approx(evals.max(), abs=1e-6)


def test_lambda_max_raises_on_non_convergence():
    H = np.eye(30)  # fully degenerate spectrum, no dominant direction gap
    with pytest.raises(RuntimeError):
        # isotropic plus a huge shift: the residual cannot reach the target
        dg.lambda_max(lambda v: H @ v + 1e6 * v, 30, iters=2, tol=1e-300)
    with pytest.raises(ValueError):
        dg.lambda_max(lambda v: v, 3, iters=0)


def test_hessian_trace_dense_mode_is_exact():
    rng = np.random.default_rng(1)
    H = rng.normal(size=(10, 10))
    H = H + H.T
    est, se = dg.hessian_trace(lambda v: H @ v, 10)
    assert est == pytest.approx(np.trace(H))
    assert se == 0.0


def test_hessian_trace_hutchinson_mode():
    rng = np.random.default_rng(2)
    B = rng.normal(size=(100, 100))
    H = B @ B.T
    est, se = dg.hessian_trace(lambda v: H @ v, 100, probes=500, seed=3)
    assert abs(est - np.trace(H)) < 5 * se + 0.02 * abs(np.trace(H))
    assert se > 0.0


# -- factorization -----------------------------------------------------------------

def test_statistical_term_limits_and_monotonicity():
    assert dg.statistical_term(0.0) == 0.0
    assert dg.statistical_term(float("inf")) == 1.0
    s = 1e-4
    assert dg.statistical_term(s) / np.sqrt(s) == pytest.approx(1.0, abs=1e-4)
    grid = [dg.statistical_term(x) for x in np.logspace(-4, 4, 30)]
    assert all(b > a for a, b in zip(grid, grid[1:]))
    with pytest.raises(ValueError):
        dg.statistical_term(-1e-3)


def test_verify_decomposition_wellposedness_boundary_and_guard():
    # the boundary case 1 + trace_xi/trace_h == 0 is still well posed
    rep = dg.verify_decomposition(dg.SpectralEstimate(1.0, 10.0, 0.0, 0.0))
    assert rep.misspecification == 0.0 and rep.rel_gap == 0.0
    # but inconsistent inputs that push the ratio below -tol must raise
    with pytest.raises(ValueError, match="well-posedness"):
        dg.verify_decomposition(dg.SpectralEstimate(1.0, 1.0, -3.0, 0.0))


def test_verify_decomposition_exact_when_residual_vanishes():
    # constructed so trace_cov + grad_norm_sq == trace_h (zero residual):
    # bound = ||g||/lam must equal (TrH/lam)/sqrt(TrH) * 1 * sqrt(g2/cov / (1+g2/cov))
    lam, trace_h, g2 = 2.0, 5.0, 3.0
    cov = trace_h - g2
    est = dg.SpectralEstimate(lam, trace_h, cov, g2)
    rep = dg.verify_decomposition(est)
    assert rep.rel_gap < 1e-12
    assert rep.lhs == pytest.approx(np.sqrt(g2) / lam)
    assert rep.misspecification == pytest.approx(1.0)


def test_verify_decomposition_holds_with_nonzero_residual():
    est = dg.SpectralEstimate(lambda_max=1.7, trace_h=4.0, trace_cov=2.5,
                              grad_norm_sq=6.0)
    rep = dg.verify_decomposition(est)
    assert rep.rel_gap < 1e-12
    assert rep.rhs == pytest.approx(rep.geometric * rep.misspecification
                                    * rep.statistical)


positive = st.floats(1e-6, 1e6)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(positive, positive, positive, positive)
def test_verify_decomposition_closes_to_rounding(lam, trace_h, trace_cov, g2):
    # 1 + TrXi/TrH cancels when TrH dwarfs trace_cov + |g|^2, so the gap
    # allowed grows with that ratio
    rep = dg.verify_decomposition(dg.SpectralEstimate(lam, trace_h, trace_cov, g2))
    assert rep.rel_gap <= 1e-14 * (1.0 + trace_h / (trace_cov + g2))


# -- trajectory minima ---------------------------------------------------------------

def bound_estimates(steps, grad_norms, lambda_maxes):
    return [dg.SpectralEstimate(lam, 1.0, 1.0, gn * gn, t)
            for t, gn, lam in zip(steps, grad_norms, lambda_maxes)]


def test_cor_trajectory_minimum_and_exclusions():
    rep = dg.cor_trajectory(bound_estimates([0, 10, 20, 30], [4.0, 1.0, 1.0, 8.0],
                                            [2.0, -1.0, 20.0, 2.0]))
    assert rep.rho_critical == pytest.approx(0.05)
    assert rep.argmin_step == 20   # the lambda_max < 0 step at 10 never wins
    assert not rep.collapsed_zone  # threshold is strict
    rep2 = dg.cor_trajectory(bound_estimates([0, 1], [0.4, 0.04], [2.0, 1.0]))
    assert rep2.collapsed_zone and rep2.argmin_step == 1
    for lam in (-1.0, 0.0):
        with pytest.raises(ValueError):
            dg.cor_trajectory(bound_estimates([0], [1.0], [lam]))


def test_cor_trajectory_tie_takes_first_occurrence():
    rep = dg.cor_trajectory(bound_estimates([3, 5, 9], [1.0, 1.0, 1.0],
                                            [4.0, 4.0, 2.0]))
    assert rep.argmin_step == 3


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.floats(0.0, 1e6),
                          st.one_of(st.just(0.0), st.floats(-1e3, 1e3))),
                min_size=1, max_size=12))
def test_cor_trajectory_is_first_minimum_of_finite_bounds(steps):
    ests = [dg.SpectralEstimate(lam, 1.0, 1.0, g2, t)
            for t, (g2, lam) in enumerate(steps)]
    finite = [(e.cor_bound, e.step) for e in ests if np.isfinite(e.cor_bound)]
    if not finite:
        with pytest.raises(ValueError):
            dg.cor_trajectory(ests)
        return
    rep = dg.cor_trajectory(ests)
    best = min(b for b, _ in finite)
    assert (rep.rho_critical, rep.argmin_step) == next(f for f in finite
                                                       if f[0] == best)


# -- phase segmentation ----------------------------------------------------------------

def three_phase_trace(plateau=30, rise=25, decay=30, lo=1e-3, hi=1.0, seed=0):
    rng = np.random.default_rng(seed)
    a = np.full(plateau, lo)
    b = np.exp(np.linspace(np.log(lo), np.log(hi), rise))
    c = np.exp(np.linspace(np.log(hi), np.log(hi / 30), decay))
    v = np.concatenate([a, b, c])
    return v * np.exp(rng.normal(scale=0.01, size=v.size))


def test_phase_detect_finds_known_change_points():
    plateau, rise = 30, 25
    trace = dg.phase_detect(three_phase_trace(plateau, rise))
    r, d = trace.phase_boundaries
    assert r is not None and abs(r - plateau) <= 3
    assert d is not None and abs(d - (plateau + rise)) <= 3
    assert trace.bottleneck_step < r


def test_phase_detect_flat_trace_is_all_pre_optimization():
    rng = np.random.default_rng(1)
    v = 1e-3 * np.exp(rng.normal(scale=0.01, size=60))
    trace = dg.phase_detect(v)
    assert trace.phase_boundaries == (None, None)
    assert 0 <= trace.bottleneck_step < 60


def test_phase_detect_does_not_depend_on_the_gsnr_scale():
    # a drifting trace near 10 has no sustained rise at any scale; padding
    # the log trace with zeros instead of its end values read a false rise
    # into its end once the trace was scaled below 1
    rng = np.random.default_rng(22)
    v = 10.0 * np.exp(np.cumsum(rng.normal(scale=0.05, size=15)))
    phases = [dg.phase_detect(scale * v).phase_boundaries for scale in (1e-3, 1.0, 1e3)]
    assert phases == [(None, None)] * 3
    # a three-phase trace keeps its boundaries at every scale
    v = three_phase_trace()
    phases = [dg.phase_detect(scale * v).phase_boundaries for scale in (1e-3, 1.0, 1e3)]
    assert phases[0] == phases[1] == phases[2] != (None, None)


def test_phase_detect_bottleneck_prefers_supplied_bounds():
    v = three_phase_trace()
    bounds = np.ones(v.size)
    bounds[7] = 0.01  # forced minimum inside the plateau
    trace = dg.phase_detect(v, cor_bounds=bounds)
    assert trace.bottleneck_step == 7
    assert trace.bottleneck_gsnr == pytest.approx(v[7])


def test_phase_detect_input_validation():
    # a trace too short to segment is all pre-optimization
    short = dg.phase_detect([3.0, 1.0, 2.0, 1.0, 5.0])
    assert short.phase_boundaries == (None, None)
    assert (short.bottleneck_step, short.bottleneck_gsnr) == (1, 1.0)
    short = dg.phase_detect(np.ones(5), cor_bounds=[3.0, 2.0, 0.5, 0.5, 1.0])
    assert short.bottleneck_step == 2
    with pytest.raises(ValueError):
        dg.phase_detect(np.ones(20), cor_bounds=np.ones(19))
