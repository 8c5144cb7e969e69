"""Optimizer checks: hand-computed steps, problem oracles, batch sampling,
failure marking, and the geometric stability probe."""

from dataclasses import astuple

import numpy as np
import pytest

from corlab import autodiff as ad
from corlab import diagnostics as dg
from corlab import optim as op


def small_quadratic_and_offsets(seed=0, n=12, dim=3):
    """A small quadratic problem and its (n, dim) offsets, which the problem
    does not keep."""
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(dim, dim))
    A = B @ B.T + np.eye(dim)
    offsets = rng.normal(size=(n, dim))
    return op.QuadraticProblem(A, offsets), offsets


def small_quadratic(seed=0, n=12, dim=3):
    return small_quadratic_and_offsets(seed, n, dim)[0]


def small_logistic(seed=0, n=16, dim=4):
    rng = np.random.default_rng(seed)
    F = rng.normal(size=(n, dim))
    y = rng.integers(0, 2, size=n).astype(np.float64)
    return op.LogisticProbeProblem(F, y)


# -- config validation ---------------------------------------------------------

def test_sam_config_rejects_bad_values():
    with pytest.raises(ValueError):
        op.SamConfig(rho=-0.1)
    with pytest.raises(ValueError):
        op.SamConfig(learning_rate=0.0)
    for bad in (dict(rho=np.inf), dict(rho=np.nan), dict(learning_rate=np.inf),
                dict(learning_rate=np.nan), dict(batch_size=0), dict(batch_size=-5),
                dict(steps=0), dict(steps=-3)):
        with pytest.raises(ValueError):
            op.SamConfig(**bad)
    for name in ("batch_size", "steps", "seed"):
        for bad in (2.5, 3.0, np.float64(4.0), True, "5", None):
            with pytest.raises(ValueError, match=name):
                op.SamConfig(**{name: bad})
    with pytest.raises(ValueError, match="seed"):
        op.SamConfig(seed=-1)
    # float fields take real numbers only: no bools, no strings
    for name in ("rho", "learning_rate"):
        for bad in (True, "0.1", None, 10**400):
            with pytest.raises(ValueError, match=name):
                op.SamConfig(**{name: bad})
    op.SamConfig(rho=0.0)  # zero radius is legal
    op.SamConfig(batch_size=np.int64(8), steps=np.int32(3), seed=np.uint64(7))  # numpy too
    op.SamConfig(rho=0, learning_rate=np.float32(0.5))


# -- quadratic problem oracle ---------------------------------------------------

def test_quadratic_loss_and_grad_match_direct_formula():
    prob, offsets = small_quadratic_and_offsets()
    rng = np.random.default_rng(1)
    w = rng.normal(size=prob.dim)
    for idx in (np.array([0, 3, 7]), None):     # None: the full batch
        loss, grad = prob.loss_and_grad(w, idx)
        diffs = w - offsets[slice(None) if idx is None else idx]
        direct_loss = 0.5 * np.mean(np.einsum("mi,ij,mj->m", diffs, prob.A, diffs))
        direct_grad = (prob.A @ diffs.T).T.mean(axis=0)
        assert np.isclose(loss, direct_loss)
        assert np.allclose(grad, direct_grad)


def test_quadratic_per_sample_grads_and_hessian():
    prob, offsets = small_quadratic_and_offsets()
    rng = np.random.default_rng(2)
    w = rng.normal(size=prob.dim)
    G = prob.per_sample_grads(w)
    direct = (prob.A @ (w - offsets).T).T
    assert np.allclose(G, direct)
    assert G.mean(axis=0) == pytest.approx(prob.loss_and_grad(w)[1])
    assert np.array_equal(prob.dense_hessian(w), prob.A)


def test_grad_moments_match_per_sample_grads():
    # the stacked contract: a (P, C) stack of weights gives (P, C) mean
    # gradients and (C,) covariance traces, each column that of its probe
    rng = np.random.default_rng(4)
    for prob in (small_quadratic(), small_logistic()):
        for C in (1, 5):
            W = rng.normal(size=(prob.dim, C))
            W[:, 0] = 0.0
            # the quadratic's closed form reads no logits
            logits = (op.probe_logits(W, prob.features)
                      if isinstance(prob, op.LogisticProbeProblem) else None)
            G, tr_cov = prob.grad_moments(W, logits)
            assert G.shape == (prob.dim, C) and tr_cov.shape == (C,)
            for j in range(C):
                Gj = prob.per_sample_grads(W[:, j])
                assert np.allclose(G[:, j], Gj.mean(axis=0), rtol=1e-12, atol=1e-15)
                assert np.allclose(G[:, j], prob.loss_and_grad(W[:, j])[1],
                                   rtol=1e-12, atol=1e-15)
                assert tr_cov[j] == pytest.approx(dg.trace_cov(Gj), rel=1e-12)


def test_grad_is_loss_and_grad_gradient_bit_for_bit():
    # the gradient-only pass the SAM ascent takes must be the very vector
    # the loss-and-gradient pass returns, full batch and mini-batch alike
    rng = np.random.default_rng(5)
    for prob in (small_quadratic(n=40, dim=6), small_logistic(n=40, dim=6)):
        for _ in range(3):
            w = rng.normal(size=prob.dim)
            for idx in (None, np.array([3, 0, 17, 39, 8]), np.array([12])):
                assert np.array_equal(prob.grad(w, idx), prob.loss_and_grad(w, idx)[1])


def bce_graph(views, data):
    F, y = data
    z = ad.add(ad.matmul(F, ad.reshape(views["w"], (F.shape[1], 1))), views["b"])
    return ad.bce_with_logits(z, y.reshape(-1, 1))


def test_logistic_closed_forms_match_engine():
    prob = small_logistic()
    rng = np.random.default_rng(3)
    w = rng.normal(size=prob.dim)
    pv = ad.ParamVector({"w": w[:-1], "b": np.asarray(w[-1])})
    for idx in (None, np.array([1, 4, 5, 9, 14])):
        rows = slice(None) if idx is None else idx
        data = (prob.features[rows], prob.labels[rows])
        loss, g = prob.loss_and_grad(w, idx)
        out, _ = ad.forward(bce_graph, pv, data)
        assert np.isclose(loss, float(out.data), rtol=1e-13)
        assert np.allclose(g, ad.gradient(bce_graph, pv, data), rtol=1e-12, atol=1e-15)
    data = (prob.features, prob.labels)
    H = prob.dense_hessian(w)
    for k, e in enumerate(np.eye(prob.dim)):
        assert np.allclose(ad.hvp(bce_graph, pv, data, e), H[:, k], rtol=1e-12, atol=1e-15)
    assert np.allclose(prob.loss_and_grad(w)[1], prob.per_sample_grads(w).mean(axis=0),
                       rtol=1e-12, atol=1e-15)


# -- hand-computed steps ----------------------------------------------------------

def test_sgd_step_by_hand():
    prob = small_quadratic()
    w = np.zeros(prob.dim)
    _, g = prob.loss_and_grad(w)
    w1, rec = op.sgd_step(prob, w, None, lr=0.1)
    assert np.array_equal(w1, w - 0.1 * g)
    assert rec.grad_norm == pytest.approx(np.linalg.norm(g))
    assert not rec.failed


def test_sam_step_by_hand():
    prob = small_quadratic()
    w = np.ones(prob.dim)
    rho, lr = 0.3, 0.05
    _, g = prob.loss_and_grad(w)
    eps = rho * g / np.linalg.norm(g)
    _, g_tilde = prob.loss_and_grad(w + eps)
    w1, rec = op.sam_step(prob, w, None, lr, rho)
    assert np.array_equal(w1, w - lr * g_tilde)
    assert rec.grad_norm == np.linalg.norm(g) and not rec.failed


def test_sam_step_zero_gradient_degenerates_to_sgd():
    # all offsets at the origin: the gradient at w = 0 is exactly zero,
    # so the normalized ascent must be skipped rather than divided by zero
    prob = op.QuadraticProblem(np.eye(3), np.zeros((5, 3)))
    w_star = np.zeros(3)
    w1, rec = op.sam_step(prob, w_star, None, 0.1, 0.5)
    assert np.array_equal(w1, w_star)
    assert rec.grad_norm == 0.0


def counted(prob):
    """`prob` with both gradient entry points, `loss_and_grad` and `grad`,
    wrapped to count passes."""
    calls = []

    def wrap(inner):
        def entry(w, indices=None):
            calls.append(w)
            return inner(w, indices)
        return entry

    prob.loss_and_grad, prob.grad = wrap(prob.loss_and_grad), wrap(prob.grad)
    return prob, calls


def test_sam_step_at_rho_zero_takes_one_pass():
    for prob, calls in (counted(small_quadratic()), counted(small_logistic())):
        w = np.random.default_rng(6).normal(size=prob.dim)
        batch = np.array([0, 2, 5])
        w1, rec = op.sam_step(prob, w, batch, 0.1, 0.0)
        assert len(calls) == 1      # counted through either entry point
        assert np.array_equal(w1, op.sgd_step(prob, w, batch, 0.1)[0])
        assert not rec.failed
        calls.clear()
        op.sam_step(prob, w, batch, 0.1, 0.2)
        assert len(calls) == 2
    # a non-finite first pass (the loss overflows) still fails the step
    # and keeps the weights
    prob, calls = counted(small_quadratic())
    w = np.full(prob.dim, 1e300)
    w1, rec = op.sam_step(prob, w, None, 0.1, 0.0)
    assert rec.failed and w1 is w and len(calls) == 1


def test_rho_zero_run_is_bit_identical_to_sgd():
    prob = small_logistic()
    cfg = op.SamConfig(rho=0.0, learning_rate=0.05, batch_size=4, steps=50, seed=5)
    w_sam, _ = op.run(prob, cfg)

    sampler = op.BatchSampler(prob.n_samples, 4, seed=5)
    w = prob.init_params()
    for _ in range(50):
        w, _ = op.sgd_step(prob, w, sampler.next_batch(), 0.05)
    assert np.array_equal(w_sam, w)


@np.errstate(over="ignore", invalid="ignore")
def reference_sgd_step(problem, w, batch_idx, lr):
    loss, g = problem.loss_and_grad(w, batch_idx)
    rec = op.StepRecord(step=-1, loss=loss, grad_norm=float(np.linalg.norm(g)))
    w_new = w - lr * g
    rec.failed = not (np.isfinite(loss) and np.all(np.isfinite(w_new)))
    return (w if rec.failed else w_new), rec


@np.errstate(over="ignore", invalid="ignore")
def reference_sam_step(problem, w, batch_idx, lr, rho):
    loss, g = problem.loss_and_grad(w, batch_idx)
    gn = float(np.linalg.norm(g))
    rec = op.StepRecord(step=-1, loss=loss, grad_norm=gn)
    if not (np.isfinite(loss) and np.all(np.isfinite(g))):
        rec.failed = True
        return w, rec
    if rho > 0:
        eps = (rho / gn) * g if gn > 0 else np.zeros_like(g)
        _, g = problem.loss_and_grad(w + eps, batch_idx)
    w_new = w - lr * g
    rec.failed = not np.all(np.isfinite(w_new))
    return (w if rec.failed else w_new), rec


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_step_functions_are_bit_identical_to_the_reference_steps(monkeypatch):
    # `run` looks `sam_step` up at call time, so each step function drives
    # the same loop; every weight and record field must match the reference
    # bit for bit (repr tells -0.0 from 0.0 and reads NaN equal to NaN)
    logistic = small_logistic(seed=4, n=200, dim=8)
    quadratic = small_quadratic(seed=4, n=50, dim=5)
    lam = np.linalg.eigvalsh(quadratic.A).max()
    cases = [(logistic, op.SamConfig(rho=0.0, learning_rate=0.5, batch_size=20,
                                     steps=300, seed=1)),
             (logistic, op.SamConfig(rho=0.05, learning_rate=0.5, batch_size=20,
                                     steps=300, seed=1)),
             (quadratic, op.SamConfig(rho=0.05, learning_rate=1.0 / lam,
                                      batch_size=50, steps=300)),
             (quadratic, op.SamConfig(rho=0.05, learning_rate=1e3 / lam,
                                      batch_size=50, steps=300))]
    sam, sgd = op.sam_step, op.sgd_step
    pairs = [(sam, reference_sam_step),
             (lambda p, w, b, lr, rho: sgd(p, w, b, lr),
              lambda p, w, b, lr, rho: reference_sgd_step(p, w, b, lr))]

    def trajectory(step, problem, cfg):
        monkeypatch.setattr(op, "sam_step", step)
        ws, recs = [], []
        w, failed_step = op.run(problem, cfg,
                                lambda t, w, rec: (ws.append(w), recs.append(rec)))
        return w, failed_step, ws, [repr(astuple(r)) for r in recs]

    failed = []
    for problem, cfg in cases:
        for step, reference in pairs:
            got, want = trajectory(step, problem, cfg), trajectory(reference, problem, cfg)
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]
            assert all(np.array_equal(a, b) for a, b in zip(got[2], want[2]))
            assert got[3] == want[3] and len(got[3]) == len(want[3])
            failed.append(got[1])
    # only the last problem diverges, with SAM and with SGD, mid-run
    assert failed[:6] == [None] * 6
    assert all(0 < t < 300 for t in failed[6:])


class FixedPasses:
    """A problem whose every gradient pass returns loss 0 and gradient `g`."""

    def __init__(self, g):
        self.g = np.asarray(g, dtype=np.float64)
        self.n_samples, self.dim = 1, self.g.size

    def loss_and_grad(self, w, indices=None):
        return 0.0, self.g.copy()

    def grad(self, w, indices=None):
        return self.g.copy()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_finiteness_shortcut_matches_the_elementwise_check():
    # the steps test finiteness through g @ g and w_new @ w_new and read the
    # entries only when a dot is not finite: a dot that overflows on finite
    # entries must not fail the step, and a NaN or inf entry must
    huge = [1e200, -3e200, 2e200]           # finite, but g @ g overflows
    with np.errstate(over="ignore"):        # the row norms of 1e200 features
        logistic = op.LogisticProbeProblem(np.array([[1e200, -2e200], [3e200, 1e200]]),
                                           np.array([0.0, 1.0]))
    zero = np.zeros(3)
    cases = [  # problem, weights, learning rate, whether the step fails
        (FixedPasses(huge), zero, 0.5, False),
        (logistic, zero, 0.5, False),
        (FixedPasses([0.5, -1.0, 2.0]), zero, 1e160, False),  # w_new @ w_new overflows
        (FixedPasses([0.5, np.nan, 2.0]), zero, 0.1, True),
        (FixedPasses([0.5, -np.inf, 2.0]), zero, 0.1, True),
        (FixedPasses(huge), zero, 1e200, True),                # w_new overflows to inf
        (FixedPasses([0.5, -1.0, 2.0]), np.array([0.0, np.nan, 1.0]), 0.1, True),
    ]
    for prob, w, lr, fails in cases:
        for rho in (0.0, 0.1):
            pairs = [(op.sam_step(prob, w, None, lr, rho),
                      reference_sam_step(prob, w, None, lr, rho))]
            if rho == 0.0:
                pairs.append((op.sgd_step(prob, w, None, lr),
                              reference_sgd_step(prob, w, None, lr)))
            for (w_got, rec_got), (w_want, rec_want) in pairs:
                assert rec_got.failed is fails
                assert np.array_equal(w_got, w_want, equal_nan=True)
                assert repr(astuple(rec_got)) == repr(astuple(rec_want))
                assert (w_got is w) is fails


# -- failure handling ---------------------------------------------------------------

def test_run_marks_failure_and_keeps_last_valid_weights():
    prob = small_quadratic()
    lam = np.linalg.eigvalsh(prob.A).max()
    cfg = op.SamConfig(rho=0.0, learning_rate=1e12 / lam, batch_size=100,
                       steps=200, seed=0)
    records = []
    w, failed_step = op.run(prob, cfg, lambda t, w, rec: records.append(rec))
    assert failed_step is not None
    assert records[-1].failed and records[-1].step == failed_step
    assert np.all(np.isfinite(w))
    assert len(records) < 200


def test_overflowing_update_fails_its_own_step():
    # finite gradients whose update overflows: the step that would write
    # inf fails and the run keeps the weights it started from
    prob = op.QuadraticProblem(np.eye(2), np.full((4, 2), 1e3))
    for rho in (0.0, 0.5):
        cfg = op.SamConfig(rho=rho, learning_rate=1e306, batch_size=4, steps=5)
        w, failed_step = op.run(prob, cfg)
        assert failed_step == 0
        assert np.array_equal(w, np.zeros(2))
    w = np.zeros(2)
    w1, rec = op.sgd_step(prob, w, None, 1e306)
    assert rec.failed and w1 is w


# -- batch sampler ---------------------------------------------------------------------

def test_batch_sampler_is_epoch_complete_and_seeded():
    s1 = op.BatchSampler(10, 3, seed=7)
    s2 = op.BatchSampler(10, 3, seed=7)
    seen = []
    for _ in range(3):
        b1 = s1.next_batch()
        assert np.array_equal(b1, s2.next_batch())
        seen.extend(b1.tolist())
    assert len(set(seen)) == len(seen)  # no repeats within an epoch
    assert op.BatchSampler(5, 100, seed=0).next_batch().size == 5


# -- population inner-product probe -----------------------------------------------------

def test_stability_probe_positive_below_the_stability_radius():
    prob = small_quadratic(seed=11)
    rng = np.random.default_rng(12)
    w = rng.normal(size=prob.dim)
    _, g = prob.loss_and_grad(w)
    lam = float(np.linalg.eigvalsh(prob.A).max())
    rho = 0.9 * np.linalg.norm(g) / lam
    mean, se = op.stability_probe(prob, w, rho, n_batches=64, batch_size=4)
    assert mean > 0.0
    assert se >= 0.0


def test_stability_probe_rejects_degenerate_inputs():
    prob = small_quadratic()
    with pytest.raises(ValueError, match="n_batches"):
        op.stability_probe(prob, np.zeros(prob.dim), 0.1, n_batches=1, batch_size=4)
    # an empty batch would give a NaN mean
    for bad in (0, -1, True, 4.0):
        with pytest.raises(ValueError, match="batch_size"):
            op.stability_probe(prob, np.zeros(prob.dim), 0.1, n_batches=4, batch_size=bad)
    single = op.LogisticProbeProblem(np.ones((4, 2)), np.ones(4))
    with pytest.raises(ValueError):
        op.stability_probe(single, np.zeros(3), 0.1, n_batches=4, batch_size=2)
