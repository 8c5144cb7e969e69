"""Softmax-regression exactness: closed-form gradients and Hessians against
the autodiff engine, a per-sample kron reference and finite differences,
plus the residual-trace identity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corlab import autodiff as ad
from corlab import diagnostics as dg
from corlab import softmaxreg as sr
from hvp_reference import hvp


def instance(seed=0, **kw):
    return sr.SoftmaxRegression.random(np.random.default_rng(seed), **kw)


def nll_graph(views, data):
    """Mean NLL of softmax(X W^T) as an engine graph over the block W."""
    X, y = data
    Z = ad.matmul(X, ad.swapaxes(views["W"], 0, 1))
    shift = ad.val(Z).max(axis=-1, keepdims=True)   # numpy, a constant of the graph
    lse = ad.add(ad.log(ad.sum_(ad.exp(ad.sub(Z, shift)), axis=-1, keepdims=True)), shift)
    onehot = np.eye(views["W"].shape[0])[y]
    picked = ad.sum_(ad.mul(Z, onehot), axis=-1, keepdims=True)
    return ad.mean(ad.sub(lse, picked))


def engine_args(inst):
    return nll_graph, ad.ParamVector({"W": inst.W}), (inst.X, inst.y)


def kron_hessian(inst):
    """Per-sample sum of (diag p - p p^T) kron (x x^T), over M."""
    p = sr._softmax_rows(inst.X @ inst.W.T)
    H = np.zeros((inst.W.size, inst.W.size))
    for m in range(len(inst.X)):
        A = np.diag(p[m]) - np.outer(p[m], p[m])
        H += np.kron(A, np.outer(inst.X[m], inst.X[m]))
    return H / len(inst.X)


def test_mean_grad_matches_engine_and_finite_differences():
    inst = instance(2, n_samples=7, n_classes=3, n_features=4)
    engine = ad.gradient(*engine_args(inst))
    closed = inst.per_sample_grads().mean(axis=0)
    assert np.allclose(engine, closed, atol=1e-10)

    h = 1e-6
    numeric = np.zeros(inst.W.size)
    for i in range(inst.W.size):
        for sgn in (1.0, -1.0):
            W = inst.W.ravel().copy()
            W[i] += sgn * h
            out, _ = ad.forward(nll_graph, ad.ParamVector({"W": W.reshape(inst.W.shape)}),
                                (inst.X, inst.y))
            numeric[i] += sgn * float(out.data)
    numeric /= 2 * h
    assert np.allclose(closed, numeric, atol=1e-6)


def test_dense_hessian_matches_engine_hvp():
    inst = instance(3, n_samples=5, n_classes=3, n_features=3)
    H = inst.dense_hessian()
    assert np.allclose(H, H.T)
    for k in range(inst.W.size):
        e = np.zeros(inst.W.size)
        e[k] = 1.0
        assert np.allclose(hvp(*engine_args(inst), e), H[:, k], atol=1e-9)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=4), st.integers(2, 6),
       st.integers(1, 10), st.integers(0, 2 ** 32 - 1))
def test_dense_hessian_matches_kron_reference(Ms, C, F, seed):
    # each instance alone, and the same instances as one group with ragged
    # sample counts
    rng = np.random.default_rng(seed)
    insts = [sr.SoftmaxRegression.random(rng, n_samples=M, n_classes=C, n_features=F)
             for M in Ms]
    grouped = sr.SoftmaxGroup.stack([(i.X, i.y, i.W) for i in insts]).hessians()
    assert grouped.shape == (len(Ms), C * F, C * F)
    for inst, H in zip(insts, grouped):
        ref = kron_hessian(inst)
        for got in (inst.dense_hessian(), H):
            np.testing.assert_allclose(got, ref, rtol=0.0,
                                       atol=1e-14 * max(1.0, np.abs(ref).max()))


def test_per_sample_grads_average_to_mean_grad():
    inst = instance(4, n_samples=9)
    G = inst.per_sample_grads()
    assert G.shape == (9, inst.W.size)
    assert np.allclose(G.mean(axis=0), ad.gradient(*engine_args(inst)), atol=1e-12)


def test_residual_trace_identity():
    # Tr(Hessian) = Tr(grad covariance) + ||mean grad||^2 - Tr(residual),
    # where the residual trace comes from its independent closed form
    for seed in range(10):
        inst = instance(seed, n_samples=6, n_classes=4, n_features=3)
        G = inst.per_sample_grads()
        gbar = G.mean(axis=0)
        lhs = np.trace(inst.dense_hessian())
        rhs = dg.trace_cov(G) + float(gbar @ gbar) - inst.trace_xi_direct()
        assert np.isclose(lhs, rhs, rtol=1e-10)


def test_factorization_is_exact_on_instances():
    for seed in range(10):
        inst = instance(seed)
        H = inst.dense_hessian()
        G = inst.per_sample_grads()
        gbar = G.mean(axis=0)
        est = dg.SpectralEstimate(float(np.linalg.eigvalsh(H).max()),
                                  float(np.trace(H)), dg.trace_cov(G),
                                  float(gbar @ gbar))
        assert dg.verify_decomposition(est) < 1e-12


GOOD_X = np.arange(10.0).reshape(5, 2) / 10
GOOD_W = np.ones((3, 2))


@pytest.mark.parametrize("X, y, W, named", [
    (GOOD_X, [0, 1, -1, 2, 0], GOOD_W, "y"),            # would wrap to the last class
    (GOOD_X, [0, 1, 0.7, 2, 0], GOOD_W, "y"),           # would truncate to class 0
    (GOOD_X, [0, 1, 3, 2, 0], GOOD_W, "y"),
    (GOOD_X, [0, 1, 2, 0], GOOD_W, "y"),
    (GOOD_X, [0, 1, np.nan, 2, 0], GOOD_W, "y"),
    (GOOD_X, [[0, 1, 1, 2, 0]], GOOD_W, "y"),
    (np.where(GOOD_X > 0.5, np.nan, GOOD_X), [0, 1, 1, 2, 0], GOOD_W, "X"),
    (GOOD_X.ravel(), [0, 1, 1, 2, 0], GOOD_W, "X"),
    (GOOD_X[:0], [], GOOD_W, "X"),
    (GOOD_X, [0, 1, 1, 2, 0], np.full((3, 2), np.inf), "W"),
    (GOOD_X, [0, 1, 1, 2, 0], np.ones((3, 3)), "X .* W"),
])
def test_invalid_instances_are_refused_at_construction(X, y, W, named):
    with pytest.raises(ValueError, match=f"^{named}"):
        sr.SoftmaxRegression(X, y, W)
    with pytest.raises(ValueError, match=f"^{named}"):
        sr.SoftmaxGroup(X, y, np.asarray(W)[None], np.shape(X)[:1])


def test_shape_errors_name_the_array():
    with pytest.raises(ValueError, match="^W must be a 2-D"):
        sr.SoftmaxRegression(GOOD_X, [0, 1, 1, 2, 0], GOOD_W[None])
    with pytest.raises(ValueError, match="^W must be a 3-D"):
        sr.SoftmaxGroup(GOOD_X, [0, 1, 1, 2, 0], GOOD_W, [5])
    with pytest.raises(ValueError, match="^X must hold >= 1 sample"):
        sr.SoftmaxGroup(GOOD_X, [0, 1, 1, 2, 0], np.stack([GOOD_W] * 2), [5, 0])


def test_integer_valued_float_labels_are_class_labels():
    as_float = sr.SoftmaxRegression(GOOD_X, [0.0, 1.0, 1.0, 2.0, 0.0], GOOD_W)
    as_int = sr.SoftmaxRegression(GOOD_X, [0, 1, 1, 2, 0], GOOD_W)
    assert as_float.y.dtype == np.intp
    assert np.array_equal(as_float.per_sample_grads(), as_int.per_sample_grads())
    assert np.array_equal(as_float.dense_hessian(), as_int.dense_hessian())
