"""Softmax-regression instances with exact dense gradient/Hessian quantities.

These small problems are the exact test bed for the stability-bound
factorization: every quantity entering the identity (mean gradient,
per-sample gradient covariance, dense Hessian, and the misspecification
residual computed from its direct definition) is available in closed form,
so the factorization can be checked to floating-point accuracy.

Model: logits z = W x for x in R^F, W in R^{C x F}; NLL of the observed
label under softmax(z).  The data distribution is the empirical uniform
distribution over the M samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _softmax_rows(Z: np.ndarray) -> np.ndarray:
    E = np.exp(Z - Z.max(axis=1, keepdims=True))
    return E / E.sum(axis=1, keepdims=True)


@dataclass
class SoftmaxRegression:
    """A dataset plus weight matrix; parameters are the flattened W."""

    X: np.ndarray          # (M, F)
    y: np.ndarray          # (M,) int labels in [0, C)
    W: np.ndarray          # (C, F)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.intp)
        self.W = np.asarray(self.W, dtype=np.float64)
        self.M, self.F = self.X.shape
        self.C = self.W.shape[0]

    @property
    def dim(self) -> int:
        return self.C * self.F

    @classmethod
    def random(cls, rng: np.random.Generator, n_samples: int = 4,
               n_features: int = 3, n_classes: int = 3) -> "SoftmaxRegression":
        X = rng.normal(size=(n_samples, n_features))
        y = rng.integers(0, n_classes, size=n_samples)
        W = rng.normal(size=(n_classes, n_features))
        return cls(X, y, W)

    # -- closed-form quantities -------------------------------------------

    def probs(self) -> np.ndarray:
        return _softmax_rows(self.X @ self.W.T)

    def loss(self) -> float:
        p = self.probs()
        return float(-np.mean(np.log(p[np.arange(self.M), self.y])))

    def per_sample_grads(self) -> np.ndarray:
        """(M, P) gradients of per-sample NLL w.r.t. flattened W."""
        p = self.probs()
        resid = p.copy()
        resid[np.arange(self.M), self.y] -= 1.0          # (M, C)
        return np.einsum("mc,mf->mcf", resid, self.X).reshape(self.M, self.dim)

    def dense_hessian(self) -> np.ndarray:
        """Exact (P, P) Hessian of the mean NLL.

        Per sample: (diag(p) - p p^T) kron (x x^T), averaged over samples;
        the sum over samples is one contraction of the (M, C, C) and
        (M, F, F) blocks.
        """
        p, X = self.probs(), self.X
        A = p[:, :, None] * np.eye(self.C) - p[:, :, None] * p[:, None, :]
        B = X[:, :, None] * X[:, None, :]
        H = np.einsum("mab,mij->aibj", A, B).reshape(self.dim, self.dim)
        return H / self.M

    def trace_xi_direct(self) -> float:
        """Tr of the misspecification residual from its direct definition.

        The residual is the data-expectation of (second derivative of the
        label probability) / (label probability).  For z = W x the trace
        over the flattened W reduces to
        ||x||^2 * sum_c d^2 p_y / d z_c^2 / p_y,
        with d^2 p_y / d z_c^2 = p_y [ (delta_yc - p_c)^2 - p_c + p_c^2 ].
        """
        p = self.probs()
        onehot = np.zeros_like(p)
        onehot[np.arange(self.M), self.y] = 1.0
        diag2 = (onehot - p) ** 2 - p + p ** 2           # (M, C), p_y cancels
        per_sample = (self.X ** 2).sum(axis=1) * diag2.sum(axis=1)
        return float(per_sample.mean())
