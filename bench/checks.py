"""Correctness checks for the benchmark workloads.

Every reference value here is computed in numpy from the program's inputs
or outputs (features, returned weights, written reports), never taken from
a stored copy of an earlier run.  A failed check raises `CheckFailed`.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

COLLAPSE_AUC = 0.55           # window-AUC collapse threshold of the method


class CheckFailed(AssertionError):
    """A workload output disagrees with its independent reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def pairwise_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney count: the share of (positive, negative) pairs that the
    scores order correctly, ties counting one half.  Sorting the negatives
    turns the count for each positive into two binary searches."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[labels == 1]
    neg = np.sort(scores[labels == 0])
    below = np.searchsorted(neg, pos, side="left")
    upto = np.searchsorted(neg, pos, side="right")
    wins = 2 * int(below.sum()) + int((upto - below).sum())
    return wins / (2.0 * pos.size * neg.size)


def augment(features: np.ndarray) -> np.ndarray:
    return np.concatenate([features, np.ones((features.shape[0], 1))], axis=1)


def step0_bound(features: np.ndarray, labels: np.ndarray) -> float:
    """||mean((1/2 - y) [f, 1])|| / lambda_max(aug^T aug / (4 n)): the
    stability bound of the logistic probe at w = 0."""
    aug = augment(features)
    g = ((0.5 - labels)[:, None] * aug).mean(axis=0)
    lam = np.linalg.eigvalsh(0.25 * aug.T @ aug / labels.size).max()
    return float(np.linalg.norm(g) / lam)


# ---------------------------------------------------------------------------
# lift-bce
# ---------------------------------------------------------------------------

def check_train_result(result, feats, reports: dict[str, bytes], steps: int) -> None:
    """One head of lift-bce: AUCs, step-0 bound, COR and the written reports."""
    head = result.config.head
    require(not result.failed, f"{head}: run failed at step {result.failed_step}")
    w = result.weights
    for split, F, y, reported in (
            ("train", feats.train, feats.train_labels, result.train_auc),
            ("test", feats.test, feats.test_labels, result.test_auc)):
        auc = pairwise_auc(F @ w[:-1] + w[-1], y)
        require(abs(auc - reported) <= 1e-12,
                f"{head}: {split}_auc {reported!r} != pairwise count {auc!r}")

    summary = json.loads(reports["summary.json"])
    estimates = json.loads(reports["diagnostics.json"])["estimates"]
    require(estimates[0]["step"] == 0, f"{head}: first snapshot is not step 0")
    ref = step0_bound(feats.train, feats.train_labels)
    require(close(estimates[0]["cor_bound"], ref, 1e-9),
            f"{head}: step-0 bound {estimates[0]['cor_bound']!r} != {ref!r}")
    bounds = [e["cor_bound"] for e in estimates]
    require(summary["theoretical_cor"] == min(bounds),
            f"{head}: COR {summary['theoretical_cor']!r} != min bound {min(bounds)!r}")

    rows = list(csv.reader(io.StringIO(reports["steps.csv"].decode())))
    require(len(rows) == steps + 1, f"{head}: steps.csv has {len(rows) - 1} rows, "
                                    f"expected {steps}")
    require([int(r[0]) for r in rows[1:]] == list(range(steps)),
            f"{head}: steps.csv step column is not 0..{steps - 1}")
    for key, value in (("train_auc", result.train_auc),
                       ("test_auc", result.test_auc),
                       ("train_auc_window", result.train_auc_window),
                       ("theoretical_cor", result.cor_report.rho_critical),
                       ("collapsed", result.collapsed),
                       ("failed", result.failed)):
        require(summary[key] == value,
                f"{head}: summary.json {key}={summary[key]!r}, result has {value!r}")


def check_lift(plain_cor: float, corit_cor: float) -> None:
    require(corit_cor > plain_cor,
            f"no lift: CoRIT COR {corit_cor!r} <= plain COR {plain_cor!r}")


# ---------------------------------------------------------------------------
# sweep-quad
# ---------------------------------------------------------------------------

def check_sweep_flags(result) -> None:
    """Collapse flags rise once and stay up; the boundary lies strictly
    inside the bracketing pair of swept radii."""
    rhos = [e.rho for e in result.entries]
    flags = [e.collapsed for e in result.entries]
    require(any(flags) and not all(flags),
            f"degenerate sweep: flags {flags} over {rhos}")
    require(not result.all_collapsed and not result.none_collapsed,
            "sweep reports itself degenerate")
    first = flags.index(True)
    require(all(flags[first:]) and result.monotone,
            f"collapse flags are not monotone: {flags}")
    lo = 0.0 if first == 0 else rhos[first - 1]
    hi = rhos[first]
    require(lo < result.empirical_cor < hi,
            f"empirical COR {result.empirical_cor!r} outside ({lo}, {hi})")


def check_whitened(train: np.ndarray, tol: float = 1e-4) -> None:
    cov = np.cov(train, rowvar=False)
    gap = float(np.abs(cov - np.eye(cov.shape[0])).max())
    require(gap <= tol, f"whitened covariance is {gap:.3e} from I")


def sam_window_auc(features: np.ndarray, labels: np.ndarray, rho: float,
                   lr_relative: float, steps: int) -> float:
    """Full-batch SAM on the zero-probe quadratic expansion of the BCE loss,
    built here from the features: gradient A w + b with A = aug^T aug/(4n)
    and b = mean((1/2 - y) aug).  Returns the mean train AUC over the last
    tenth of the steps, each AUC taken before its step."""
    aug = augment(features)
    A = 0.25 * aug.T @ aug / labels.size
    b = ((0.5 - labels)[:, None] * aug).mean(axis=0)
    lr = lr_relative / np.linalg.eigvalsh(A).max()
    window = max(1, steps // 10)
    w = np.zeros(aug.shape[1])
    aucs = []
    for t in range(steps):
        if t >= steps - window:
            aucs.append(pairwise_auc(aug @ w, labels))
        g = A @ w + b
        gn = np.linalg.norm(g)
        eps = (rho / gn) * g if gn > 0 else 0.0 * g
        w = w - lr * (A @ (w + eps) + b)
        if not np.all(np.isfinite(w)):
            return 0.5
    return float(np.mean(aucs))


def check_boundary_rerun(feature_sets, empirical_cor: float, lr_relative: float,
                         steps: int) -> dict:
    """Majority of seeds trains at 0.8x the reported boundary and collapses
    at 1.2x it, under the benchmark's own SAM."""
    out = {}
    for factor, want_collapse in ((0.8, False), (1.2, True)):
        wins = [sam_window_auc(f.train, f.train_labels, factor * empirical_cor,
                               lr_relative, steps) for f in feature_sets]
        votes = sum((w < COLLAPSE_AUC) == want_collapse for w in wins)
        require(2 * votes > len(wins),
                f"at {factor} x COR the window AUCs {wins} disagree with "
                f"{'collapse' if want_collapse else 'training'}")
        out[factor] = wins
    return out


# ---------------------------------------------------------------------------
# verify-theorem
# ---------------------------------------------------------------------------

def check_campaign(report, n_instances: int) -> None:
    require(report.n_instances == n_instances,
            f"campaign ran {report.n_instances} of {n_instances} instances")
    require(report.passed, f"campaign passed {report.n_passed}/{report.n_instances}")
    require(report.max_rel_gap < 1e-6, f"max_rel_gap {report.max_rel_gap!r}")


def _softmax_grads(X, y, W):
    Z = X @ W.T
    P = np.exp(Z - Z.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)
    P[np.arange(y.size), y] -= 1.0
    return (P[:, :, None] * X[:, None, :]).reshape(y.size, -1)


def check_softmax_instance(inst, step: float = 1e-5) -> None:
    """dense_hessian against central differences of the mean gradient, and
    trace_xi_direct against trace_cov + |g|^2 - tr H, all from numpy."""
    X, y, W = inst.X, inst.y, inst.W
    P = W.size
    H_fd = np.empty((P, P))
    for i in range(P):
        e = np.zeros(P)
        e[i] = step
        gp = _softmax_grads(X, y, W + e.reshape(W.shape)).mean(axis=0)
        gm = _softmax_grads(X, y, W - e.reshape(W.shape)).mean(axis=0)
        H_fd[:, i] = (gp - gm) / (2 * step)
    H = inst.dense_hessian()
    gap = float(np.abs(H - H_fd).max())
    require(gap <= 1e-6 * max(1.0, float(np.abs(H_fd).max())),
            f"dense_hessian is {gap:.3e} from central differences")
    G = _softmax_grads(X, y, W)
    gbar = G.mean(axis=0)
    trace_cov = float(((G - gbar) ** 2).sum(axis=1).mean())
    ref = trace_cov + float(gbar @ gbar) - float(np.trace(H_fd))
    got = inst.trace_xi_direct()
    require(abs(got - ref) <= 1e-6 * max(1.0, abs(ref)),
            f"trace_xi_direct {got!r} != trace_cov + |g|^2 - tr H = {ref!r}")
