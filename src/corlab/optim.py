"""SGD and SAM over trainable probe parameters, the one SAM training loop
(`run`), plus the geometric stability probe for the expected inner product
between the population gradient and the perturbed mini-batch gradient."""

from __future__ import annotations

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

    def _logits(self, w: np.ndarray, idx=slice(None)) -> np.ndarray:
        return self.features[idx] @ w[:-1] + w[-1]

    def loss_and_grad(self, w: np.ndarray, indices=None) -> tuple[float, np.ndarray]:
        idx = slice(None) if indices is None else np.asarray(indices)
        z, y = self._logits(w, idx), self.labels[idx]
        loss = np.mean(np.logaddexp(0.0, z) - y * z)
        return float(loss), self._aug[idx].T @ (_sigmoid(z) - y) / y.size

    def grad_moments(self, w: np.ndarray) -> tuple[np.ndarray, float]:
        """Full-sample mean gradient and mean squared per-sample gradient
        norm; per-sample gradient i is r_i * aug_i with r = sigma(z) - y."""
        r = _sigmoid(self._logits(w)) - self.labels
        return (self._aug.T @ r / self.n_samples,
                float((r * r) @ self._row_sq) / self.n_samples)

    def per_sample_grads(self, w: np.ndarray) -> np.ndarray:
        return (_sigmoid(self._logits(w)) - self.labels)[:, None] * self._aug

    def dense_hessian(self, w: np.ndarray) -> np.ndarray:
        p = _sigmoid(self._logits(w))
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
        self.offsets = np.asarray(offsets, dtype=np.float64)  # (M, P)
        self.n_samples, self.dim = self.offsets.shape
        self._Aa = self.offsets @ self.A.T                    # (M, P)
        self._quad = np.einsum("mi,mi->m", self.offsets, self._Aa)
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
        grad = Aw - Aa_mean
        return float(loss), grad

    def grad_moments(self, w):
        """Full-sample mean gradient and mean squared per-sample gradient norm."""
        g = self.A @ w - self._Aa_mean
        return g, float(g @ g) + self._spread

    def per_sample_grads(self, w):
        return self.A @ w - self._Aa

    def dense_hessian(self, w):
        return self.A.copy()


# ---------------------------------------------------------------------------
# steps and runs
# ---------------------------------------------------------------------------

def sgd_step(problem, w: np.ndarray, batch_idx, lr: float) -> tuple[np.ndarray, StepRecord]:
    loss, g = problem.loss_and_grad(w, batch_idx)
    rec = StepRecord(step=-1, loss=loss, grad_norm=float(np.linalg.norm(g)))
    if not (np.isfinite(loss) and np.all(np.isfinite(g))):
        rec.failed = True
        return w, rec
    return w - lr * g, rec


def sam_step(problem, w: np.ndarray, batch_idx, lr: float,
             rho: float) -> tuple[np.ndarray, StepRecord]:
    """Two-pass SAM: normalized ascent to w + eps, descent with the
    perturbed gradient of the same batch.  Zero batch gradient means zero
    perturbation, so the step degenerates to SGD."""
    loss, g = problem.loss_and_grad(w, batch_idx)
    gn = float(np.linalg.norm(g))
    rec = StepRecord(step=-1, loss=loss, grad_norm=gn)
    if not (np.isfinite(loss) and np.all(np.isfinite(g))):
        rec.failed = True
        return w, rec
    eps = (rho / gn) * g if gn > 0 else np.zeros_like(g)
    _, g_tilde = problem.loss_and_grad(w + eps, batch_idx)
    if not np.all(np.isfinite(g_tilde)):
        rec.failed = True
        return w, rec
    return w - lr * g_tilde, rec


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
    if n_batches < 2:
        raise ValueError("n_batches must be >= 2")
    if hasattr(problem, "labels"):
        labels = np.asarray(problem.labels)
        if np.unique(labels).size < 2:
            raise ValueError("degenerate dataset: single class")
    _, pop_g = problem.loss_and_grad(w)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(11,)))
    vals = np.empty(n_batches)
    for i in range(n_batches):
        idx = rng.choice(problem.n_samples, size=min(batch_size, problem.n_samples),
                         replace=False)
        _, g = problem.loss_and_grad(w, idx)
        gn = np.linalg.norm(g)
        eps = (rho / gn) * g if gn > 0 else np.zeros_like(g)
        _, g_tilde = problem.loss_and_grad(w + eps, idx)
        vals[i] = pop_g @ g_tilde
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_batches))
