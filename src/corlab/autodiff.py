"""Reverse-mode automatic differentiation over dense float64 tensors.

The engine is tape-based: every primitive appends a node to the active
Tape, and each node's vector-Jacobian product is itself expressed with
engine primitives.  Backward passes therefore extend the same tape with
differentiable nodes, which is what makes exact Hessian-vector products
via double-backward possible.

All arithmetic is 64-bit.  Every primitive eagerly checks its output for
NaN/Inf and aborts with the offending node id; a non-finite value is an
error, never a silent state.
"""

from __future__ import annotations

import numpy as np


class NonFiniteError(ArithmeticError):
    """A primitive produced NaN or Inf."""


_TAPE_STACK: list["Tape"] = []


def _active_tape() -> "Tape":
    if not _TAPE_STACK:
        raise RuntimeError("no active Tape; wrap graph construction in `with Tape():`")
    return _TAPE_STACK[-1]


class Tape:
    """Ordered record of primitive nodes; creation order is topological."""

    def __init__(self):
        self.nodes: list[Tensor] = []
        self.root_param: Tensor | None = None
        self.output: Tensor | None = None

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        assert _TAPE_STACK.pop() is self

    def register(self, t: "Tensor") -> None:
        t.node_id = len(self.nodes)
        self.nodes.append(t)


class Tensor:
    """Dense float64 array node on a tape."""

    __slots__ = ("data", "requires_grad", "parents", "vjp", "op", "node_id")

    def __init__(self, data, requires_grad: bool = False, parents=(), vjp=None, op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.parents = tuple(parents)
        self.vjp = vjp
        self.op = op
        self.node_id = -1
        if not np.all(np.isfinite(self.data)):
            raise NonFiniteError(f"non-finite output of op '{op}'")
        _active_tape().register(self)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(op={self.op}, shape={self.data.shape}, node={self.node_id})"


def leaf(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad, op="input")


def val(x):
    """Raw ndarray view of a Tensor (or pass an ndarray through)."""
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _graph_mode(*args) -> bool:
    return any(isinstance(a, Tensor) for a in args)


def _node(data, parents, vjp, op) -> Tensor:
    """A node whose `vjp` holds one pullback per parent, cotangent in and the
    parent's out; `grad_nodes` runs none for a parent that needs no grad."""
    rg = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=rg, parents=parents, vjp=vjp if rg else None, op=op)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else leaf(x)


def _unbroadcast(ct: "Tensor", shape: tuple) -> "Tensor":
    """Sum a cotangent down to `shape` after numpy-style broadcasting."""
    while ct.ndim > len(shape):
        ct = sum_(ct, axis=0)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and ct.shape[i] != 1)
    if axes:
        ct = sum_(ct, axis=axes, keepdims=True)
    return ct


# ---------------------------------------------------------------------------
# primitives (generic: build graph nodes for Tensors, plain numpy otherwise;
# neg, broadcast_to and pad_slice are graph-only adjoints)
# ---------------------------------------------------------------------------

def add(a, b):
    if not _graph_mode(a, b):
        return np.add(val(a), val(b))
    a, b = _as_tensor(a), _as_tensor(b)
    return _node(
        a.data + b.data,
        (a, b),
        (lambda ct: _unbroadcast(ct, a.shape), lambda ct: _unbroadcast(ct, b.shape)),
        "add",
    )


def sub(a, b):
    if not _graph_mode(a, b):
        return np.subtract(val(a), val(b))
    return add(a, neg(_as_tensor(b)))


def neg(a):
    """Graph mode only: `sub`'s negated operand."""
    return _node(-a.data, (a,), (neg,), "neg")


def mul(a, b):
    if not _graph_mode(a, b):
        return np.multiply(val(a), val(b))
    a, b = _as_tensor(a), _as_tensor(b)
    return _node(
        a.data * b.data,
        (a, b),
        (lambda ct: _unbroadcast(mul(ct, b), a.shape),
         lambda ct: _unbroadcast(mul(ct, a), b.shape)),
        "mul",
    )


def power(a, p: float):
    """Elementwise a**p with constant exponent."""
    if not _graph_mode(a):
        return np.power(val(a), p)
    out = np.power(a.data, p)
    return _node(out, (a,), (lambda ct: mul(ct, mul(p, power(a, p - 1.0))),), f"power[{p}]")


def div(a, b):
    if not _graph_mode(a, b):
        return np.divide(val(a), val(b))
    return mul(a, power(_as_tensor(b), -1.0))


def exp(a):
    if not _graph_mode(a):
        return np.exp(val(a))
    out = _node(np.exp(a.data), (a,), (lambda ct: mul(ct, out),), "exp")
    return out


def log(a):
    if not _graph_mode(a):
        return np.log(val(a))
    return _node(np.log(a.data), (a,), (lambda ct: div(ct, a),), "log")


def sigmoid(a):
    """1 / (1 + exp(-a)); exp overflows to inf below a ~ -709, where the
    quotient is the exact limit 0 and the pullback ct s (1 - s) stays 0."""
    if not _graph_mode(a):
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-val(a)))
    out = _node(sigmoid(a.data), (a,), (lambda ct: mul(ct, mul(out, sub(1.0, out))),),
                "sigmoid")
    return out


def matmul(a, b):
    if not _graph_mode(a, b):
        return np.matmul(val(a), val(b))
    a, b = _as_tensor(a), _as_tensor(b)
    return _node(
        np.matmul(a.data, b.data),
        (a, b),
        (lambda ct: _unbroadcast(matmul(ct, swapaxes(b, -1, -2)), a.shape),
         lambda ct: _unbroadcast(matmul(swapaxes(a, -1, -2), ct), b.shape)),
        "matmul",
    )


def swapaxes(a, ax1: int, ax2: int):
    if not _graph_mode(a):
        return np.swapaxes(val(a), ax1, ax2)
    return _node(np.swapaxes(a.data, ax1, ax2), (a,), (lambda ct: swapaxes(ct, ax1, ax2),), "swapaxes")


def reshape(a, shape):
    if not _graph_mode(a):
        return np.reshape(val(a), shape)
    old = a.shape
    return _node(np.reshape(a.data, shape), (a,), (lambda ct: reshape(ct, old),), "reshape")


def sum_(a, axis=None, keepdims: bool = False):
    if not _graph_mode(a):
        return np.sum(val(a), axis=axis, keepdims=keepdims)
    in_shape = a.shape

    def vjp(ct):
        if axis is None:
            return broadcast_to(reshape(ct, (1,) * len(in_shape)), in_shape)
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(ax % len(in_shape) for ax in axes)
        if not keepdims:
            kept = tuple(1 if i in axes else n for i, n in enumerate(in_shape))
            ct = reshape(ct, kept)
        return broadcast_to(ct, in_shape)

    return _node(np.sum(a.data, axis=axis, keepdims=keepdims), (a,), (vjp,), "sum")


def broadcast_to(a, shape):
    """Graph mode only: the adjoint of `sum_`."""
    in_shape = a.shape
    return _node(
        np.ascontiguousarray(np.broadcast_to(a.data, shape)),
        (a,),
        (lambda ct: _unbroadcast(ct, in_shape),),
        "broadcast_to",
    )


def mean(a, axis=None, keepdims: bool = False):
    if not _graph_mode(a):
        return np.mean(val(a), axis=axis, keepdims=keepdims)
    n = val(a).size if axis is None else np.prod(
        [val(a).shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


def _index(ndim: int, axis: int, start: int, stop: int) -> tuple:
    """Index of the rows [start, stop) along `axis` of an ndim-D array."""
    sl = [slice(None)] * ndim
    sl[axis] = slice(start, stop)
    return tuple(sl)


def slice_along(a, axis: int, start: int, stop: int):
    """Contiguous slice along one axis."""
    idx = _index(val(a).ndim, axis, start, stop)
    if not _graph_mode(a):
        return val(a)[idx]
    in_shape = a.shape
    return _node(a.data[idx], (a,), (lambda ct: pad_slice(ct, axis, start, in_shape),), "slice")


def pad_slice(a, axis: int, start: int, shape):
    """Graph mode only, the adjoint of `slice_along`: embed into zeros of
    `shape` at offset."""
    stop = start + a.shape[axis]
    out = np.zeros(shape)
    out[_index(len(shape), axis, start, stop)] = a.data
    return _node(out, (a,), (lambda ct: slice_along(ct, axis, start, stop),), "pad_slice")


def concat(parts, axis: int = 0):
    parts = list(parts)
    if not _graph_mode(*parts):
        return np.concatenate([val(p) for p in parts], axis=axis)
    parts = [_as_tensor(p) for p in parts]
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts]).tolist()
    vjp = tuple(lambda ct, lo=lo, hi=hi: slice_along(ct, axis, lo, hi)
                for lo, hi in zip(offsets, offsets[1:]))
    return _node(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), vjp, "concat")


# ---------------------------------------------------------------------------
# compositions (shared by graph and numpy modes)
# ---------------------------------------------------------------------------

def softplus(x):
    shift = np.maximum(val(x), 0.0)  # detached; log(e^x+1) = c + log(e^(x-c)+e^(-c))
    return add(log(add(exp(sub(x, shift)), np.exp(-shift))), shift)


def gelu(x):
    # tanh approximation as x sigmoid(z), z = 2u = x (c1 + c2 x^2), where
    # 0.5 x (1 + tanh u) = x sigmoid(2u): exp costs far less than tanh, and
    # one multiply for the square far less than libm pow
    c1 = 2.0 * np.sqrt(2.0 / np.pi)
    c2 = c1 * 0.044715
    if not _graph_mode(x):
        # the graph's operations in its order, in place in one new array, in
        # 8 passes.  sigmoid's -z is formed from the negated constants, and
        # negation is exact; only commutative operands swap, so every bit
        # matches graph mode
        x = val(x)
        t = np.asarray(x * x)      # 0-d inputs give a scalar; keep an array
        t *= -c2
        t -= c1
        t *= x
        with np.errstate(over="ignore"):     # below x ~ -21: sigmoid 0
            np.exp(t, out=t)
        t += 1.0
        np.divide(1.0, t, out=t)
        t *= x
        return t
    return mul(x, sigmoid(mul(x, add(c1, mul(c2, mul(x, x))))))


def layer_norm(x, eps: float = 1e-5):
    # the mean and the population variance as products with a column of
    # 1/D: on encoder rows (D = 32) a BLAS product is two to three times as
    # fast as numpy's reduction over the short last axis
    dim = val(x).shape[-1]
    col = np.full((dim, 1), 1.0 / dim)
    if not _graph_mode(x):
        # the graph's operations in its order, normalising the one new
        # centred array in place.  `div` is a product with power(., -1) in
        # graph mode, so it is here too: every bit matches graph mode
        x = val(x)
        centered = x - x @ col
        scale = (centered * centered) @ col
        scale += eps
        np.power(scale, 0.5, out=scale)
        np.power(scale, -1.0, out=scale)
        centered *= scale
        return centered
    centered = sub(x, matmul(x, col))
    var = matmul(mul(centered, centered), col)
    return div(centered, power(add(var, eps), 0.5))


def attention(q, k, v, heads: int):
    """Multi-head softmax attention with no max shift: (..., rows, D) queries
    over (..., T, D) keys and values, each split into `heads` heads of
    D / heads channels, and the (..., rows, D) output with the heads merged
    back.  Each head's weights exp(q k^T) are divided by their row sums, a
    product with a ones column.  The caller keeps every score q k^T well
    inside exp's range (|s| < 709)."""
    shape = val(q).shape
    dh = shape[-1] // heads
    ones = np.ones((val(k).shape[-2], 1))

    def split(z):                          # (..., n, D) -> (..., h, n, dh)
        return swapaxes(reshape(z, val(z).shape[:-1] + (heads, dh)), -3, -2)

    if not _graph_mode(q, k, v):
        # the graph's operations in its order, exp and the normalisation in
        # place on the weights (`div` is a product with power(., -1) in graph
        # mode, so it is here too) and the value product written straight
        # into the merged layout: every bit matches graph mode
        e = np.matmul(split(q), np.swapaxes(split(k), -1, -2))
        np.exp(e, out=e)
        e *= np.power(e @ ones, -1.0)
        out = np.empty(shape[:-1] + (heads, dh))
        np.matmul(e, split(v), out=np.swapaxes(out, -3, -2))
        return out.reshape(shape)
    e = exp(matmul(split(q), swapaxes(split(k), -1, -2)))
    out = matmul(div(e, matmul(e, ones)), split(v))
    return reshape(swapaxes(out, -3, -2), shape)


def bce_with_logits(logits, targets):
    """Mean binary cross-entropy; `targets` in {0,1}, detached."""
    t = val(targets)
    return mean(sub(softplus(logits), mul(t, logits)))


# ---------------------------------------------------------------------------
# parameter vector
# ---------------------------------------------------------------------------

class ParamVector:
    """Named trainable blocks flattened to one float64 vector of dim P.

    Frozen parameters never enter a ParamVector.  `views` reads each block
    back out of a flat parameter Tensor bit-exactly.
    """

    def __init__(self, blocks: dict[str, np.ndarray]):
        self.names = list(blocks)
        self.shapes = {k: np.asarray(v, dtype=np.float64).shape for k, v in blocks.items()}
        self.flat = np.concatenate(
            [np.asarray(blocks[k], dtype=np.float64).ravel() for k in self.names]
        ) if self.names else np.zeros(0)

    @property
    def dim(self) -> int:
        return self.flat.size

    def views(self, w: Tensor) -> dict[str, Tensor]:
        """Graph views of a flat parameter Tensor, one per named block."""
        out, off = {}, 0
        for k in self.names:
            n = int(np.prod(self.shapes[k], dtype=np.intp))
            out[k] = reshape(slice_along(w, 0, off, off + n), self.shapes[k])
            off += n
        return out


# ---------------------------------------------------------------------------
# forward / backward / hvp / grad_check
# ---------------------------------------------------------------------------

def forward(graph, params: ParamVector, x):
    """Run `graph(views, x)` under a fresh tape.

    `graph` is a callable taking a dict of named parameter Tensors and an
    input array; it returns the output Tensor (usually a scalar loss).
    """
    tape = Tape()
    with tape:
        w = leaf(params.flat, requires_grad=True)
        out = graph(params.views(w), x)
    tape.root_param = w
    tape.output = out
    return out, tape


def grad_nodes(output: Tensor, tape: Tape, inputs: list[Tensor]) -> list[Tensor | None]:
    """Cotangents of `inputs` w.r.t. `output`, as live graph nodes."""
    with tape:
        cotangents: dict[int, Tensor] = {output.node_id: leaf(np.ones_like(output.data))}
        for node in reversed(tape.nodes[: output.node_id + 1]):
            ct = cotangents.get(node.node_id)
            if node.vjp is None or ct is None:
                continue
            for parent, pullback in zip(node.parents, node.vjp):
                if parent.requires_grad:
                    pct = pullback(ct)
                    acc = cotangents.get(parent.node_id)
                    cotangents[parent.node_id] = pct if acc is None else add(acc, pct)
        return [cotangents.get(t.node_id) for t in inputs]


def backward(tape: Tape) -> np.ndarray:
    """Gradient of the tape's output w.r.t. its flat parameter vector."""
    (g,) = grad_nodes(tape.output, tape, [tape.root_param])
    if g is None:
        return np.zeros_like(tape.root_param.data)
    return g.data.copy()


def hvp(graph, params: ParamVector, x, v: np.ndarray) -> np.ndarray:
    """Exact Hessian-vector product via double backward."""
    v = np.asarray(v, dtype=np.float64)
    if np.linalg.norm(v) == 0.0:
        raise ValueError("hvp requires a nonzero probe vector")
    out, tape = forward(graph, params, x)
    (g,) = grad_nodes(out, tape, [tape.root_param])
    if g is None:
        return np.zeros_like(v)
    with tape:
        s = sum_(mul(g, v))
    (hv,) = grad_nodes(s, tape, [tape.root_param])
    return np.zeros_like(v) if hv is None else hv.data.copy()


def gradient(graph, params: ParamVector, x) -> np.ndarray:
    out, tape = forward(graph, params, x)
    return backward(tape)


def loss_and_gradient(graph, params: ParamVector, x) -> tuple[float, np.ndarray]:
    out, tape = forward(graph, params, x)
    return float(out.data), backward(tape)


def grad_check(graph, params: ParamVector, x, step: float = 1e-5) -> dict:
    """Compare backward() against central finite differences, as
    `{"max_rel_error": ...}` over all coordinates.

    Relative error per coordinate, with an absolute-error fallback where
    the analytic gradient and the difference quotient are both tiny.
    """
    if not (0.0 < step <= 1e-2):
        raise ValueError("step must lie in (0, 1e-2]")
    analytic = gradient(graph, params, x)
    numeric = np.zeros_like(analytic)
    for i in range(params.dim):
        for sgn in (+1.0, -1.0):
            flat = params.flat.copy()
            flat[i] += sgn * step
            with Tape():
                numeric[i] += sgn * float(graph(params.views(leaf(flat)), x).data)
    numeric /= 2.0 * step
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    abs_err = np.abs(analytic - numeric)
    rel_err = np.where(scale > 1e-8, abs_err / np.maximum(scale, 1e-300), abs_err)
    return {"max_rel_error": float(rel_err.max(initial=0.0))}
