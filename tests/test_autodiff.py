"""Engine-level checks: primitive values, gradients against central
differences, exact Hessian-vector products, and failure semantics."""

import numpy as np
import pytest

from corlab import autodiff as ad


def central_diff(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        g.flat[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def grad_of(graph, w0, data=None):
    pv = ad.ParamVector({"w": np.asarray(w0, dtype=np.float64)})
    return ad.gradient(graph, pv, data)


# -- numpy-mode values ------------------------------------------------------

def test_primitives_match_numpy_out_of_graph():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    assert np.array_equal(ad.add(a, b), a + b)
    assert np.array_equal(ad.mul(a, b), a * b)
    assert np.array_equal(ad.sub(a, b), a - b)
    assert np.allclose(ad.div(a, np.abs(b) + 1), a / (np.abs(b) + 1))
    assert np.array_equal(ad.matmul(a, b.T), a @ b.T)
    assert np.array_equal(ad.sum_(a, axis=1), a.sum(axis=1))
    assert np.allclose(ad.mean(a, axis=0), a.mean(axis=0))
    assert np.array_equal(ad.reshape(a, (4, 3)), a.reshape(4, 3))
    assert np.array_equal(ad.swapaxes(a, 0, 1), a.T)
    assert np.allclose(ad.sigmoid(a), 1.0 / (1.0 + np.exp(-a)))
    assert np.allclose(ad.exp(a), np.exp(a))


def test_softplus_is_overflow_safe():
    z = np.array([1000.0, -1000.0, 0.0])
    sp = ad.softplus(z)
    assert np.isclose(sp[0], 1000.0)
    assert np.isclose(sp[1], 0.0, atol=1e-12)
    assert np.isclose(sp[2], np.log(2.0))


def test_bce_with_logits_matches_manual():
    rng = np.random.default_rng(2)
    z = rng.normal(size=8)
    y = rng.integers(0, 2, size=8).astype(np.float64)
    p = 1.0 / (1.0 + np.exp(-z))
    manual = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
    with ad.Tape():
        out = ad.bce_with_logits(ad.leaf(z), y)
    assert np.isclose(ad.val(out), manual)


# -- gradients vs central differences ---------------------------------------

def test_grad_check_on_composite_graph():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(6, 4))

    def graph(views, data):
        h = ad.sigmoid(ad.matmul(data, ad.reshape(views["w"], (4, 3))))
        return ad.mean(ad.mul(h, h))

    pv = ad.ParamVector({"w": rng.normal(size=12)})
    report = ad.grad_check(graph, pv, X)
    assert report["max_rel_error"] < 1e-6
    for step in (0.0, -1e-5, 0.1):
        with pytest.raises(ValueError, match="step must lie in"):
            ad.grad_check(graph, pv, X, step=step)


def test_gradient_of_layer_norm_gelu_chain():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5,))

    def graph(views, data):
        return ad.sum_(ad.gelu(ad.layer_norm(ad.add(views["w"], data))))

    w0 = rng.normal(size=5)
    analytic = grad_of(graph, w0, x)

    def f(w):
        pv = ad.ParamVector({"w": w})
        out, _ = ad.forward(graph, pv, x)
        return float(out.data)

    numeric = central_diff(f, w0)
    assert np.allclose(analytic, numeric, atol=1e-6)


def test_numpy_gelu_matches_tanh_closed_form():
    def closed(x):
        return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))

    # 1 + tanh(.) stays above 0.3 here, so the cube's rounding stays at 1e-16
    x = np.linspace(-1.0, 6.0, 20001)
    np.testing.assert_allclose(ad.gelu(x), closed(x), rtol=1e-15, atol=0.0)
    # below -1 that sum cancels and amplifies the cube's last bit, though
    # the absolute error stays at rounding level
    x = np.linspace(-6.0, -1.0, 20001)
    np.testing.assert_allclose(ad.gelu(x), closed(x), rtol=0.0, atol=1e-15)


def test_numpy_gelu_is_bit_identical_to_graph_mode_and_keeps_its_input():
    rng = np.random.default_rng(7)
    big = rng.normal(scale=3.0, size=(6, 9, 40))
    big[0, 0, :4] = (0.0, -0.0, 1e-300, -40.0)
    before = big.copy()
    with ad.Tape():
        graph = ad.val(ad.gelu(ad.leaf(big)))
    for sel in ((...,), (slice(1, None, 2), ..., slice(3, 31, 3))):
        out = ad.gelu(big[sel])                     # contiguous, then strided
        assert np.array_equal(out, graph[sel])
        assert not np.shares_memory(out, big)
        assert np.array_equal(big, before)
    assert np.array_equal(ad.gelu(0.5), ad.gelu(np.array([0.5]))[0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gelu_underflows_quietly_with_finite_gradients():
    # below x ~ -21 the exp inside GELU's sigmoid overflows; the value is
    # then the exact limit -0.0, with no warning, and the graph-mode
    # gradient stays finite (a plain quotient would give 0 * inf there)
    x = np.array([-40.0, -25.0, -21.0])
    out = ad.gelu(x)
    assert np.all(out <= 0.0) and np.all(np.abs(out) < 1e-290)
    assert np.signbit(out[:2]).all() and np.all(out[:2] == 0.0)
    with ad.Tape():
        assert np.array_equal(ad.val(ad.gelu(ad.leaf(x))), out)
    g = grad_of(lambda views, data: ad.sum_(ad.gelu(views["w"])), x)
    assert np.all(np.isfinite(g)) and np.all(np.abs(g) < 1e-290)


def test_gradient_through_slice_concat():
    rng = np.random.default_rng(5)

    def graph(views, data):
        w = views["w"]
        s = ad.slice_along(w, 0, 1, 3)
        cat = ad.concat([w, s], axis=0)   # rows 1-2 reach the loss twice
        return ad.sum_(ad.mul(cat, cat))

    w0 = rng.normal(size=(4, 2))
    pv = ad.ParamVector({"w": w0})
    analytic = ad.gradient(graph, pv, None)

    def f(wflat):
        out, _ = ad.forward(graph, ad.ParamVector({"w": wflat.reshape(4, 2)}), None)
        return float(out.data)

    numeric = central_diff(f, w0.ravel())
    assert np.allclose(analytic, numeric, atol=1e-6)


def test_broadcasting_gradients_unbroadcast_correctly():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(7, 3))

    def graph(views, data):
        # bias broadcast across rows, then a scalar reduction
        return ad.sum_(ad.power(ad.add(data, views["b"]), 2.0))

    b0 = rng.normal(size=3)
    pv = ad.ParamVector({"b": b0})
    analytic = ad.gradient(graph, pv, X)
    numeric = central_diff(
        lambda b: float(((X + b) ** 2).sum()), b0)
    assert np.allclose(analytic, numeric, atol=1e-6)


# -- second order ------------------------------------------------------------

def test_hvp_matches_dense_hessian_of_quartic():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(4, 4))
    A = A @ A.T + np.eye(4)

    def graph(views, data):
        w = ad.reshape(views["w"], (4, 1))
        quad = ad.sum_(ad.mul(w, ad.matmul(A, w)))
        return ad.add(quad, ad.sum_(ad.power(w, 4.0)))

    w0 = rng.normal(size=4)
    pv = ad.ParamVector({"w": w0})
    H = 2.0 * A + np.diag(12.0 * w0 ** 2)
    for k in range(4):
        e = np.zeros(4)
        e[k] = 1.0
        assert np.allclose(ad.hvp(graph, pv, None, e), H[:, k], atol=1e-8)


def test_hvp_via_finite_difference_of_gradients():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(10, 3))
    y = rng.integers(0, 2, size=(10, 1)).astype(np.float64)

    def graph(views, data):
        F, t = data
        z = ad.matmul(F, ad.reshape(views["w"], (3, 1)))
        return ad.bce_with_logits(z, t)

    w0 = rng.normal(size=3)
    v = rng.normal(size=3)
    pv = ad.ParamVector({"w": w0})
    hv = ad.hvp(graph, pv, (X, y), v)
    h = 1e-5
    gp = ad.gradient(graph, ad.ParamVector({"w": w0 + h * v}), (X, y))
    gm = ad.gradient(graph, ad.ParamVector({"w": w0 - h * v}), (X, y))
    assert np.allclose(hv, (gp - gm) / (2 * h), atol=1e-6)


def test_backward_builds_no_cotangent_for_a_constant_operand():
    # only w requires grad, and every other operand of add, mul and matmul
    # is a constant whose pullback never runs: the backward appends the
    # seed, the sum's pullback, and then only the nodes on the path to w
    rng = np.random.default_rng(10)
    X, Y = rng.normal(size=(6, 4)), rng.normal(size=(6, 2))
    b, c = rng.normal(size=1), rng.normal(size=1)
    w0 = rng.normal(size=4)
    tape = ad.Tape()
    with tape:
        w = ad.leaf(w0, requires_grad=True)
        out = ad.sum_(ad.matmul(ad.mul(ad.add(ad.matmul(X, w), b), c), Y))
    start = len(tape.nodes)
    (g,) = ad.grad_nodes(out, tape, [w])
    # a cotangent for b or c would add a sum each (they broadcast), and
    # one for the 1-D-by-2-D product's Y could not even swap its axes
    assert [n.op for n in tape.nodes[start:]] == [
        "input", "reshape", "broadcast_to",   # seed, then sum_
        "swapaxes", "matmul",                 # matmul(., Y)
        "mul",                                # mul(., c); add(., b) passes ct on
        "swapaxes", "matmul"]                 # matmul(X, .)
    assert np.allclose(g.data, X.T @ (c * Y.sum(axis=1)), rtol=1e-14, atol=0.0)

    # the cubic sum((X w)^3) has the closed-form Hessian 6 X^T diag(X w) X
    def graph(views, data):
        z = ad.matmul(data, views["w"])
        return ad.sum_(ad.mul(z, ad.mul(z, z)))

    pv = ad.ParamVector({"w": w0})
    H = 6.0 * X.T @ np.diag(X @ w0) @ X
    for k in range(4):
        v = np.zeros(4)
        v[k] = 1.0
        assert np.allclose(ad.hvp(graph, pv, X, v), H[:, k], rtol=1e-12, atol=1e-12)


def test_hvp_rejects_zero_probe():
    def graph(views, data):
        return ad.sum_(ad.mul(views["w"], views["w"]))

    pv = ad.ParamVector({"w": np.ones(3)})
    with pytest.raises(ValueError):
        ad.hvp(graph, pv, None, np.zeros(3))


# -- failure semantics --------------------------------------------------------

@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_output_raises_immediately():
    with ad.Tape():
        with pytest.raises(ad.NonFiniteError):
            ad.log(ad.leaf(np.array([0.0])))
        with pytest.raises(ad.NonFiniteError):
            ad.leaf(np.array([np.nan]))


def test_graph_outside_tape_raises():
    with pytest.raises(RuntimeError):
        ad.leaf(np.ones(2))


# -- ParamVector ---------------------------------------------------------------

def test_param_vector_round_trip_is_bit_exact():
    rng = np.random.default_rng(9)
    blocks = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=5),
              "c": np.asarray(rng.normal())}
    pv = ad.ParamVector(blocks)
    assert pv.dim == 12
    assert np.array_equal(pv.flat, np.concatenate([v.ravel() for v in blocks.values()]))
    with ad.Tape():
        out = pv.views(ad.leaf(pv.flat))
    for k, v in blocks.items():
        assert np.array_equal(out[k].data, v)
        assert out[k].shape == v.shape
