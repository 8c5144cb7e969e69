"""The exact Hessian-vector product of an engine graph, by double backward:
the reference that the HVP tests compare closed-form Hessians against."""

import numpy as np

from corlab import autodiff as ad


def hvp(graph, params: ad.ParamVector, x, v: np.ndarray) -> np.ndarray:
    """H v of `graph`'s output at `params`, for a nonzero probe `v`."""
    v = np.asarray(v, dtype=np.float64)
    if np.linalg.norm(v) == 0.0:
        raise ValueError("hvp requires a nonzero probe vector")
    out, tape = ad.forward(graph, params, x)
    (g,) = ad.grad_nodes(out, tape, [tape.root_param])
    if g is None:
        return np.zeros_like(v)
    with tape:
        s = ad.sum_(ad.mul(g, v))
    (hv,) = ad.grad_nodes(s, tape, [tape.root_param])
    return np.zeros_like(v) if hv is None else hv.data.copy()
