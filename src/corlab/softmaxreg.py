"""Softmax-regression instances with exact dense gradient/Hessian quantities.

These small problems are the exact test bed for the stability-bound
factorization: every quantity entering the identity (mean gradient,
per-sample gradient covariance, dense Hessian, and the misspecification
residual computed from its direct definition) is available in closed form,
so the factorization can be checked to floating-point accuracy.

Model: logits z = W x for x in R^F, W in R^{C x F}; NLL of the observed
label under softmax(z).  The data distribution is the empirical uniform
distribution over the M samples.

The closed forms are written once, over a `SoftmaxGroup`: instances of one
shape (C, F) with their samples stacked.  `SoftmaxRegression` is a group of
one.  Every quantity is computed row by row or over one instance's rows, so
an instance's numbers do not change by a bit with the group it is in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _softmax_rows(Z: np.ndarray) -> np.ndarray:
    E = np.exp(Z - Z.max(axis=1, keepdims=True))
    return E / E.sum(axis=1, keepdims=True)


def _finite(name: str, a, ndim: int, shape: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != ndim:
        raise ValueError(f"{name} must be a {shape} array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} holds a non-finite value")
    return a


def _labels(y, n_samples: int, n_classes: int) -> np.ndarray:
    y = np.asarray(y)
    if y.shape != (n_samples,):
        raise ValueError(f"y must hold one label per sample of X ({n_samples}), "
                         f"got shape {y.shape}")
    # NaN fails the comparison, so a non-finite float label is refused here
    if y.dtype.kind not in "iu" and not (y.dtype.kind == "f" and np.all(y == np.rint(y))):
        raise ValueError(f"y must hold integer class labels, got dtype {y.dtype}")
    if n_samples and (y.min() < 0 or y.max() >= n_classes):
        raise ValueError(f"y labels must lie in [0, {n_classes})")
    return y.astype(np.intp)


def draw_instance(rng: np.random.Generator, n_samples: int, n_features: int,
                  n_classes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X, y and W of a random instance, drawn from `rng` in that order."""
    return (rng.normal(size=(n_samples, n_features)),
            rng.integers(0, n_classes, size=n_samples),
            rng.normal(size=(n_classes, n_features)))


@dataclass
class SoftmaxGroup:
    """Instances of one shape (C, F) with their samples stacked: instance k
    owns `counts[k]` consecutive rows of X and y, from `starts[k]` on."""

    X: np.ndarray          # (N, F)
    y: np.ndarray          # (N,) int labels in [0, C)
    W: np.ndarray          # (n, C, F)
    counts: np.ndarray     # (n,) samples per instance, >= 1, summing to N

    def __post_init__(self):
        self.X = _finite("X", self.X, 2, "2-D (samples, features)")
        self.W = _finite("W", self.W, 3, "3-D (instances, classes, features)")
        n, self.C, self.F = self.W.shape
        if self.X.shape[1] != self.F:
            raise ValueError(f"X has {self.X.shape[1]} features but W has {self.F}")
        self.counts = np.asarray(self.counts, dtype=np.intp)
        if (self.counts.shape != (n,) or np.any(self.counts < 1)
                or self.counts.sum() != len(self.X)):
            raise ValueError(f"X must hold >= 1 sample for each of the {n} instances "
                             f"and no others, got {len(self.X)} for counts {self.counts}")
        self.y = _labels(self.y, len(self.X), self.C)
        self.starts = np.cumsum(self.counts) - self.counts

    @classmethod
    def stack(cls, instances) -> "SoftmaxGroup":
        """Group of (X, y, W) instances that share (C, F), in the given order."""
        Xs, ys, Ws = zip(*instances)
        return cls(np.concatenate(Xs), np.concatenate(ys), np.stack(Ws),
                   [len(X) for X in Xs])

    @cached_property
    def _p(self) -> np.ndarray:
        """(N, C) probabilities of every sample under its instance's W."""
        Wn = np.repeat(self.W, self.counts, axis=0)            # (N, C, F)
        return _softmax_rows(np.einsum("nf,ncf->nc", self.X, Wn))

    def _means(self, a: np.ndarray) -> np.ndarray:
        """Each instance's mean of the rows of `a` (N, ...)."""
        sums = np.add.reduceat(a, self.starts, axis=0)
        return sums / self.counts.reshape((-1,) + (1,) * (a.ndim - 1))

    # -- closed-form quantities -------------------------------------------

    def per_sample_grads(self) -> np.ndarray:
        """(N, P) gradients of each sample's NLL w.r.t. its instance's flattened W."""
        resid = self._p.copy()
        resid[np.arange(len(resid)), self.y] -= 1.0            # (N, C)
        return (resid[:, :, None] * self.X[:, None, :]).reshape(len(resid), -1)

    def grad_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Each instance's mean gradient (n, P) and trace of its per-sample
        gradient covariance (n,), both over the instance's own samples."""
        G = self.per_sample_grads()
        gbar = self._means(G)
        dev = G - np.repeat(gbar, self.counts, axis=0)
        return gbar, self._means((dev ** 2).sum(axis=1))

    def hessians(self) -> np.ndarray:
        """(n, P, P) exact Hessians of each instance's mean NLL.

        Per sample: (diag(p) - p p^T) kron (x x^T), averaged over the
        instance's samples.  With the (C, C) and (F, F) blocks flattened to
        rows of C^2 and F^2, the sum over an instance's M samples is one
        (C^2, M) x (M, F^2) product, whose (a, b, i, j) entry is
        H[(a, i), (b, j)].
        """
        p, X, C, F = self._p, self.X, self.C, self.F
        A = (p[:, :, None] * np.eye(C) - p[:, :, None] * p[:, None, :]).reshape(-1, C * C)
        B = (X[:, :, None] * X[:, None, :]).reshape(-1, F * F)
        K = np.empty((len(self.counts), C * C, F * F))
        for k, (s, m) in enumerate(zip(self.starts.tolist(), self.counts.tolist())):
            np.matmul(A[s:s + m].T, B[s:s + m], out=K[k])
        H = K.reshape(-1, C, C, F, F).transpose(0, 1, 3, 2, 4).reshape(-1, C * F, C * F)
        return H / self.counts[:, None, None]

    def trace_xi_direct(self) -> np.ndarray:
        """(n,) traces of the misspecification residual from its direct definition.

        The residual is the data-expectation of (second derivative of the
        label probability) / (label probability).  For z = W x the trace
        over the flattened W reduces to
        ||x||^2 * sum_c d^2 p_y / d z_c^2 / p_y,
        with d^2 p_y / d z_c^2 = p_y [ (delta_yc - p_c)^2 - p_c + p_c^2 ].
        """
        p = self._p
        onehot = np.zeros_like(p)
        onehot[np.arange(len(p)), self.y] = 1.0
        diag2 = (onehot - p) ** 2 - p + p ** 2           # (N, C), p_y cancels
        return self._means((self.X ** 2).sum(axis=1) * diag2.sum(axis=1))


@dataclass
class SoftmaxRegression:
    """A dataset plus weight matrix; parameters are the flattened W."""

    X: np.ndarray          # (M, F)
    y: np.ndarray          # (M,) int labels in [0, C)
    W: np.ndarray          # (C, F)

    def __post_init__(self):
        W = np.asarray(self.W, dtype=np.float64)
        if W.ndim != 2:
            raise ValueError(f"W must be a 2-D (classes, features) array, got shape {W.shape}")
        self._group = g = SoftmaxGroup(self.X, self.y, W[None], np.shape(self.X)[:1])
        self.X, self.y, self.W = g.X, g.y, g.W[0]

    @classmethod
    def random(cls, rng: np.random.Generator, n_samples: int = 4,
               n_features: int = 3, n_classes: int = 3) -> "SoftmaxRegression":
        return cls(*draw_instance(rng, n_samples, n_features, n_classes))

    # -- closed-form quantities, as a group of one ---------------------------

    def per_sample_grads(self) -> np.ndarray:
        """(M, P) gradients of per-sample NLL w.r.t. flattened W."""
        return self._group.per_sample_grads()

    def dense_hessian(self) -> np.ndarray:
        """Exact (P, P) Hessian of the mean NLL."""
        return self._group.hessians()[0]

    def trace_xi_direct(self) -> float:
        """Tr of the misspecification residual from its direct definition."""
        return float(self._group.trace_xi_direct()[0])
