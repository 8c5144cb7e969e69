"""Optimizer checks: hand-computed steps, problem oracles, batch sampling,
failure marking, and the geometric stability probe."""

import numpy as np
import pytest

from corlab import autodiff as ad
from corlab import optim as op


def small_quadratic(seed=0, n=12, dim=3):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(dim, dim))
    A = B @ B.T + np.eye(dim)
    offsets = rng.normal(size=(n, dim))
    return op.QuadraticProblem(A, offsets)


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
    prob = small_quadratic()
    rng = np.random.default_rng(1)
    w = rng.normal(size=prob.dim)
    for idx in (np.array([0, 3, 7]), None):     # None: the full batch
        loss, grad = prob.loss_and_grad(w, idx)
        diffs = w - prob.offsets[slice(None) if idx is None else idx]
        direct_loss = 0.5 * np.mean(np.einsum("mi,ij,mj->m", diffs, prob.A, diffs))
        direct_grad = (prob.A @ diffs.T).T.mean(axis=0)
        assert np.isclose(loss, direct_loss)
        assert np.allclose(grad, direct_grad)


def test_quadratic_per_sample_grads_and_hessian():
    prob = small_quadratic()
    rng = np.random.default_rng(2)
    w = rng.normal(size=prob.dim)
    G = prob.per_sample_grads(w)
    direct = (prob.A @ (w - prob.offsets).T).T
    assert np.allclose(G, direct)
    assert G.mean(axis=0) == pytest.approx(prob.loss_and_grad(w)[1])
    assert np.array_equal(prob.dense_hessian(w), prob.A)


def test_grad_moments_match_per_sample_grads():
    rng = np.random.default_rng(4)
    for prob in (small_quadratic(), small_logistic()):
        for w in (np.zeros(prob.dim), rng.normal(size=prob.dim)):
            gbar, m = prob.grad_moments(w)
            G = prob.per_sample_grads(w)
            # the same mean gradient, bit for bit, as the full-batch step
            assert np.array_equal(gbar, prob.loss_and_grad(w)[1])
            assert np.allclose(gbar, G.mean(axis=0), rtol=1e-12, atol=1e-15)
            assert m == pytest.approx(float((G * G).sum(axis=1).mean()), rel=1e-12)


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


def test_rho_zero_run_is_bit_identical_to_sgd():
    prob = small_logistic()
    cfg = op.SamConfig(rho=0.0, learning_rate=0.05, batch_size=4, steps=50, seed=5)
    w_sam, _ = op.run(prob, cfg)

    sampler = op.BatchSampler(prob.n_samples, 4, seed=5)
    w = prob.init_params()
    for _ in range(50):
        w, _ = op.sgd_step(prob, w, sampler.next_batch(), 0.05)
    assert np.array_equal(w_sam, w)


# -- failure handling ---------------------------------------------------------------

@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
    with pytest.raises(ValueError):
        op.stability_probe(prob, np.zeros(prob.dim), 0.1, n_batches=1, batch_size=4)
    single = op.LogisticProbeProblem(np.ones((4, 2)), np.ones(4))
    with pytest.raises(ValueError):
        op.stability_probe(single, np.zeros(3), 0.1, n_batches=4, batch_size=2)
