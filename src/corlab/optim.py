"""SGD and SAM over trainable probe parameters, the one SAM training loop
(`run`), plus the geometric stability probe for the expected inner product
between the population gradient and the perturbed mini-batch gradient."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fields


@dataclass(frozen=True)
class SamConfig:
    rho: float = 0.05
    learning_rate: float = 1e-3
    batch_size: int = 20
    steps: int = 400
    seed: int = 0

    def __post_init__(self):
        fields.real("rho", self.rho, 0, strict=False)
        fields.real("learning_rate", self.learning_rate, 0, strict=True)
        for name, lo in (("batch_size", 1), ("steps", 1), ("seed", 0)):
            fields.integer(name, getattr(self, name), lo)


@dataclass
class StepRecord:
    step: int
    loss: float
    grad_norm: float
    failed: bool = False


# ---------------------------------------------------------------------------
# problems
# ---------------------------------------------------------------------------

def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def probe_logits(w: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Linear-probe logits; the one owner of the [weights..., bias] layout.
    `w` is one (P,) probe or a (P, C) stack of them, whose (n, C) logits
    take one GEMM."""
    z = features @ w[:-1]
    z += w[-1]
    return z


class LogisticProbeProblem:
    """Binary cross-entropy of a linear head over fixed features.

    Loss, gradient, gradient moments, per-sample gradients and the dense
    Hessian are closed forms over the augmented features [F, 1]; tests
    check them against the autodiff engine.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray):
        self.features = np.asarray(features, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.float64)
        self.n_samples = self.features.shape[0]
        self.dim = self.features.shape[1] + 1  # weight + bias
        self._aug = np.concatenate([self.features, np.ones((self.n_samples, 1))], axis=1)
        self._row_sq = np.einsum("ij,ij->i", self._aug, self._aug)   # |aug_i|^2

    def init_params(self) -> np.ndarray:
        return np.zeros(self.dim)

    def _batch(self, w: np.ndarray, indices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A batch's augmented rows (all rows if `indices` is None), logits
        and labels; the rows are gathered once and the logits read their
        feature view."""
        idx = slice(None) if indices is None else np.asarray(indices)
        aug = self._aug[idx]
        return aug, probe_logits(w, aug[:, :-1]), self.labels[idx]

    def loss_and_grad(self, w: np.ndarray, indices=None) -> tuple[float, np.ndarray]:
        aug, z, y = self._batch(w, indices)
        loss = (np.logaddexp(0.0, z) - y * z).sum() / y.size
        return float(loss), aug.T @ (_sigmoid(z) - y) / y.size

    def grad(self, w: np.ndarray, indices=None) -> np.ndarray:
        """`loss_and_grad`'s gradient, bit for bit, without the loss."""
        aug, z, y = self._batch(w, indices)
        return aug.T @ (_sigmoid(z) - y) / y.size

    def grad_moments(self, W: np.ndarray, logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Full-sample mean gradients (P, C) and traces of the per-sample
        gradient covariance (C,) of a (P, C) stack of probes; per-sample
        gradient i of probe j is R_ij * aug_i with R = sigma(Z) - y, so the
        trace is the mean squared norm less the squared mean.  `logits` are
        the (n, C) full-sample Z of `W`, which the caller has already
        computed for the AUC."""
        R = _sigmoid(logits) - self.labels[:, None]
        G = self._aug.T @ R / self.n_samples
        return G, (R * R).T @ self._row_sq / self.n_samples - np.einsum("pc,pc->c", G, G)

    def per_sample_grads(self, w: np.ndarray) -> np.ndarray:
        return (_sigmoid(probe_logits(w, self.features)) - self.labels)[:, None] * self._aug

    def dense_hessian(self, w: np.ndarray) -> np.ndarray:
        p = _sigmoid(probe_logits(w, self.features))
        s = p * (1.0 - p)
        return (self._aug * s[:, None]).T @ self._aug / self.n_samples


class QuadraticProblem:
    """Per-sample losses 0.5 (w - a_i)^T A (w - a_i) with known spectrum.

    Mean loss and gradient over a batch reduce to the batch-mean offset and
    the per-sample quadratic forms a_i^T A a_i, both precomputed, so a step
    costs O(P^2) regardless of batch size.  Per-sample gradients differ
    from their mean by the fixed A (a_i - mean a), so their spread is one
    precomputed number.
    """

    def __init__(self, A: np.ndarray, offsets: np.ndarray):
        self.A = np.asarray(A, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.float64)       # (M, P), not kept
        self.n_samples, self.dim = offsets.shape
        self._Aa = offsets @ self.A.T                         # (M, P)
        self._quad = np.einsum("mi,mi->m", offsets, self._Aa)
        self._Aa_mean = self._Aa.mean(axis=0)
        self._quad_mean = self._quad.mean()
        self._spread = float(((self._Aa - self._Aa_mean) ** 2).sum(axis=1).mean())

    def init_params(self) -> np.ndarray:
        return np.zeros(self.dim)

    def loss_and_grad(self, w, indices=None):
        if indices is None:       # the full batch reads the means computed once
            Aa_mean, quad_mean = self._Aa_mean, self._quad_mean
        else:
            idx = np.asarray(indices)
            Aa_mean, quad_mean = self._Aa[idx].mean(axis=0), self._quad[idx].mean()
        Aw = self.A @ w
        loss = 0.5 * (w @ Aw - 2.0 * (w @ Aa_mean) + quad_mean)
        return float(loss), Aw - Aa_mean

    def grad(self, w, indices=None):
        """`loss_and_grad`'s gradient, bit for bit, without the loss."""
        Aa_mean = (self._Aa_mean if indices is None
                   else self._Aa[np.asarray(indices)].mean(axis=0))
        return self.A @ w - Aa_mean

    def grad_moments(self, W, logits):
        """Full-sample mean gradients (P, C) of a (P, C) stack of weights,
        and the trace of the per-sample gradient covariance, the precomputed
        spread, once per column.  The closed form needs only `W`; `logits` is
        the shared interface's argument and is not read."""
        return self.A @ W - self._Aa_mean[:, None], np.full(W.shape[1], self._spread)

    def per_sample_grads(self, w):
        return self.A @ w - self._Aa

    def dense_hessian(self, w):
        return self.A.copy()


# ---------------------------------------------------------------------------
# steps and runs
# ---------------------------------------------------------------------------

def _finite(x: np.ndarray, xx=None) -> bool:
    """Whether every entry of the vector `x` is finite.  A finite `x @ x`
    (`xx`, if the caller has it) proves that every entry is, so the entries
    are read only when the dot overflows or is NaN."""
    return math.isfinite(x @ x if xx is None else xx) or bool(np.isfinite(x).all())


# a step checks its loss and updated weights and fails on a non-finite
# one, so numpy's overflow and invalid warnings inside it are only noise.
# math.sqrt(g @ g) is the dot and square root np.linalg.norm takes on a
# vector, and `_finite` reads a vector's entries only when its dot is not
# finite; norm's wrapper and an elementwise test would each cost a
# full-batch quadratic step about as much as one of its gradient passes
@np.errstate(over="ignore", invalid="ignore")
def sgd_step(problem, w: np.ndarray, batch_idx, lr: float) -> tuple[np.ndarray, StepRecord]:
    """A non-finite loss or updated weight fails the step and keeps `w`."""
    loss, g = problem.loss_and_grad(w, batch_idx)
    rec = StepRecord(step=-1, loss=loss, grad_norm=math.sqrt(g @ g))
    w_new = w - lr * g
    rec.failed = not (math.isfinite(loss) and _finite(w_new))
    return (w if rec.failed else w_new), rec


@np.errstate(over="ignore", invalid="ignore")     # as in sgd_step
def sam_step(problem, w: np.ndarray, batch_idx, lr: float,
             rho: float) -> tuple[np.ndarray, StepRecord]:
    """Two-pass SAM: normalized ascent to w + eps, descent with the
    perturbed gradient of the same batch, which is all the second pass
    computes.  Zero batch gradient means zero perturbation, so the step
    degenerates to SGD.  At rho = 0 the ascent lands on w itself, so the
    first pass's gradient is the descent gradient and the step takes one
    pass.  A non-finite first pass or updated weight fails the step and
    keeps `w`."""
    loss, g = problem.loss_and_grad(w, batch_idx)
    gg = g @ g
    gn = math.sqrt(gg)
    rec = StepRecord(step=-1, loss=loss, grad_norm=gn)
    if not (math.isfinite(loss) and _finite(g, gg)):
        rec.failed = True
        return w, rec
    if rho > 0:                   # the descent gradient at the ascent point
        eps = (rho / gn) * g if gn > 0 else np.zeros_like(g)
        g = problem.grad(w + eps, batch_idx)
    w_new = w - lr * g
    rec.failed = not _finite(w_new)
    return (w if rec.failed else w_new), rec


class BatchSampler:
    """Seeded without-replacement sampling, re-permuted every epoch."""

    def __init__(self, n_samples: int, batch_size: int, seed: int):
        self.n = n_samples
        self.bs = min(batch_size, n_samples)
        self.rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
        self._perm = np.empty(0, dtype=np.intp)
        self._pos = 0

    def next_batch(self) -> np.ndarray:
        if self._pos + self.bs > self._perm.size:
            self._perm = self.rng.permutation(self.n)
            self._pos = 0
        out = self._perm[self._pos:self._pos + self.bs]
        self._pos += self.bs
        return out


def run(problem, config: SamConfig, observe=None) -> tuple[np.ndarray, int | None]:
    """Deterministic SAM training run from `problem.init_params()`; the
    only training loop.  rho = 0 reproduces SGD bit-exactly.

    Batches come from a seeded `BatchSampler` when `config.batch_size` is
    below the sample count, otherwise every step uses the full batch.
    `observe(t, w, rec)`, if given, sees each step's pre-step weights and
    record, the failing step included.  A non-finite step ends the run.
    Returns the last valid weights and the failed step (None on success).
    """
    n = problem.n_samples
    sampler = BatchSampler(n, config.batch_size, config.seed) if config.batch_size < n else None
    w = problem.init_params()
    for t in range(config.steps):
        batch = None if sampler is None else sampler.next_batch()
        # looked up at call time, so a wrapper set on this module sees every step
        w_new, rec = sam_step(problem, w, batch, config.learning_rate, config.rho)
        rec.step = t
        if observe is not None:
            observe(t, w, rec)
        if rec.failed:
            return w, t
        w = w_new
    return w, None


def stability_probe(problem, w: np.ndarray, rho: float, n_batches: int,
                    batch_size: int, seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo estimate of E[<population grad, perturbed batch grad>].

    The population gradient is computed once on the full dataset; batches
    are resampled uniformly with replacement across trials.  Returns the
    mean inner product and its standard error.
    """
    fields.integer("n_batches", n_batches, 2)
    fields.integer("batch_size", batch_size, 1)
    if hasattr(problem, "labels"):
        labels = np.asarray(problem.labels)
        if np.unique(labels).size < 2:
            raise ValueError("degenerate dataset: single class")
    pop_g = problem.grad(w)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(11,)))
    vals = np.empty(n_batches)
    for i in range(n_batches):
        idx = rng.choice(problem.n_samples, size=min(batch_size, problem.n_samples),
                         replace=False)
        g = problem.grad(w, idx)
        gn = np.linalg.norm(g)
        eps = (rho / gn) * g if gn > 0 else np.zeros_like(g)
        g_tilde = problem.grad(w + eps, idx)
        vals[i] = pop_g @ g_tilde
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_batches))
