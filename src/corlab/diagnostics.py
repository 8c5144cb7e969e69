"""Measurement theory: GSNR, Hessian spectrum/trace, stability bounds,
the tripartite factorization of the critical radius, and GSNR phase
detection.  Pure computation: no file I/O."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import fields

GSNR_INF = float("inf")
COLLAPSE_ZONE_THRESHOLD = 0.05
WELLPOSED_TOL = 1e-9              # slack on 1 + TrXi/TrH >= 0
DECOMPOSITION_REL_FLOOR = 1e-12   # relative-gap denominator floor
# phase segmentation of a GSNR trace
PHASE_SMOOTH_WINDOW = 5           # moving-average width on log GSNR
PHASE_RISE_SLOPE = 0.05           # smoothed log-slope that counts as rising
PHASE_RISE_RUN = 3                # consecutive rising steps that start the rise
PHASE_DECAY_RUN = 5               # consecutive falling steps that start the decay
PHASE_LOG_FLOOR = 1e-12           # GSNR floor before the log
PHASE_MIN_STEPS = 10              # shorter traces are not segmented


# ---------------------------------------------------------------------------
# report types
# ---------------------------------------------------------------------------

@dataclass
class SpectralEstimate:
    """Spectral and statistical quantities at one optimization step."""

    lambda_max: float
    trace_h: float
    trace_cov: float
    grad_norm_sq: float
    step: int = 0

    @property
    def kappa_s(self) -> float:
        return self.trace_h / self.lambda_max if self.lambda_max > 0 else float("nan")

    @property
    def trace_xi(self) -> float:
        return self.trace_cov + self.grad_norm_sq - self.trace_h

    @property
    def gsnr(self) -> float:
        return signal_to_noise(self.grad_norm_sq, self.trace_cov)

    @property
    def cor_bound(self) -> float:
        """SAM stability bound ||grad|| / lambda_max.  A step with
        lambda_max <= 0 sets no stability limit, so its bound is inf."""
        if self.lambda_max <= 0:
            return float("inf")
        g2 = self.grad_norm_sq      # math.sqrt raises below 0; numpy's nan is kept
        return (math.sqrt(g2) if g2 >= 0 else math.nan) / self.lambda_max

    # cor_bound = geometric * misspecification * statistical; off its
    # domain a factor is nan
    @property
    def geometric(self) -> float:
        """kappa_s / sqrt(TrH), for lambda_max > 0 and TrH > 0."""
        return self.kappa_s / math.sqrt(self.trace_h) if self.trace_h > 0 else math.nan

    @property
    def misspecification(self) -> float:
        """sqrt(1 + TrXi/TrH), for TrH > 0; a radicand within `WELLPOSED_TOL`
        below 0 counts as 0."""
        radicand = 1.0 + self.trace_xi / self.trace_h if self.trace_h > 0 else float("nan")
        return math.sqrt(max(radicand, 0.0)) if radicand >= -WELLPOSED_TOL else math.nan

    @property
    def statistical(self) -> float:
        """f(GSNR) = sqrt(s / (1 + s)), strictly increasing, 1 at s = inf."""
        s = self.gsnr
        if s == GSNR_INF:
            return 1.0
        return math.sqrt(s / (1.0 + s)) if s >= 0 else math.nan

    def to_dict(self) -> dict:
        d = asdict(self)
        d.update(kappa_s=self.kappa_s, trace_xi=self.trace_xi,
                 gsnr=self.gsnr, cor_bound=self.cor_bound, geometric=self.geometric,
                 misspecification=self.misspecification, statistical=self.statistical)
        return d


@dataclass
class CorReport:
    """Trajectory minimum of the per-step stability bound."""

    rho_critical: float
    argmin_step: int
    collapsed_zone: bool


@dataclass
class GsnrTrace:
    phase_boundaries: tuple[int | None, int | None]
    bottleneck_step: int
    bottleneck_gsnr: float


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def signal_to_noise(signal: float, noise: float) -> float:
    """signal / noise with the GSNR edge cases: no signal over no noise is
    0, signal over no noise is GSNR_INF.  Noise <= 0, which a difference
    of gradient moments can reach by rounding, counts as no noise."""
    if noise <= 0.0:
        return 0.0 if signal == 0.0 else GSNR_INF
    return signal / noise


def gsnr(per_sample_grads: np.ndarray) -> float:
    """Global gradient signal-to-noise ratio from per-sample gradients.

    Signal is the squared norm of the mean gradient; noise is the trace of
    the per-sample population covariance.
    """
    G = np.asarray(per_sample_grads, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] < 2:
        raise ValueError("need an (M, P) matrix with M >= 2")
    gbar = G.mean(axis=0)
    return signal_to_noise(float(gbar @ gbar), trace_cov(G))


def trace_cov(per_sample_grads: np.ndarray) -> float:
    G = np.asarray(per_sample_grads, dtype=np.float64)
    gbar = G.mean(axis=0)
    return float(((G - gbar) ** 2).sum(axis=1).mean())


def spectral_estimates(mean_grads: np.ndarray, trace_covs, hessians: np.ndarray,
                       steps) -> list[SpectralEstimate]:
    """Exact estimate of each of n problems of one size P, from (n, P) mean
    gradients, n traces of the per-sample gradient covariance, (n, P, P)
    dense Hessians and n steps: one stacked full eigendecomposition, no
    sampling.  Each estimate is bit for bit the one its problem gets alone."""
    lam = np.linalg.eigvalsh(hessians).max(axis=-1).tolist()
    trace_h = np.trace(hessians, axis1=-2, axis2=-1).tolist()
    return [SpectralEstimate(lambda_max=l, trace_h=t, trace_cov=float(c),
                             grad_norm_sq=float(g @ g), step=s)
            for l, t, c, g, s in zip(lam, trace_h, trace_covs, mean_grads, steps)]


def lambda_max(hvp_oracle, dim: int, iters: int = 200, tol: float = 1e-8,
               seed: int = 0, shift: float | None = None) -> float:
    """Top eigenvalue of a symmetric operator via shifted power iteration.

    The iteration runs on H + shift*I.  With the default `shift=None` it
    first runs unshifted, which finds the eigenvalue of largest magnitude;
    if that is negative it is lambda_min, and a second run shifted by its
    magnitude, where every eigenvalue is >= 0, finds the algebraically
    largest one.  Extreme eigenvalues of equal magnitude and opposite
    signs leave the unshifted run without a dominant direction, so it
    does not converge; pass `shift` there.  Convergence is declared when
    the eigen-residual ||H v - lam v|| falls below tol * max(1, |lam|);
    for symmetric operators the eigenvalue error is bounded by that
    residual.  Raises with the last Rayleigh quotient and residual on
    non-convergence.
    """
    fields.integer("dim", dim, 1)
    fields.integer("iters", iters, 1)
    if shift is None:
        lam = lambda_max(hvp_oracle, dim, iters, tol, seed, shift=0.0)
        if lam >= 0:
            return lam
        shift = -lam
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim)
    v /= np.linalg.norm(v)
    lam_s = 0.0
    for _ in range(iters):
        hv = hvp_oracle(v)
        hv_s = hv + shift * v
        lam_s = float(v @ hv_s)
        resid = float(np.linalg.norm(hv_s - lam_s * v))
        if resid <= tol * max(1.0, abs(lam_s)):
            return lam_s - shift
        nrm = np.linalg.norm(hv_s)
        if nrm == 0.0:
            return -shift
        v = hv_s / nrm
    raise RuntimeError(
        f"power iteration did not converge in {iters} iters; "
        f"last Rayleigh quotient {lam_s - shift:.6e}, residual {resid:.3e}"
    )


def hessian_trace(hvp_oracle, dim: int, probes: int = 100, seed: int = 0,
                  dense_threshold: int = 64) -> tuple[float, float]:
    """Hutchinson trace estimate with +-1 probes; exact dense fallback.

    Returns (estimate, standard_error); standard error is 0 in dense mode.
    """
    fields.integer("dim", dim, 1)
    fields.integer("probes", probes, 1)
    if dim <= dense_threshold:
        tr = 0.0
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = 1.0
            tr += float(hvp_oracle(e)[i])
        return tr, 0.0
    rng = np.random.default_rng(seed)
    vals = np.empty(probes)
    for i in range(probes):
        z = rng.integers(0, 2, size=dim) * 2.0 - 1.0
        vals[i] = float(z @ hvp_oracle(z))
    se = float(vals.std(ddof=1) / np.sqrt(probes)) if probes > 1 else 0.0
    return float(vals.mean()), se


def verify_decomposition(spec: SpectralEstimate) -> float:
    """Relative gap between `cor_bound` and the product of its three factors,
    inf where the factorization is undefined (lambda_max <= 0 or TrH <= 0).
    Raises when TrH > 0 and 1 + TrXi/TrH < -`WELLPOSED_TOL`, which only
    inconsistent inputs reach."""
    radicand = 1.0 + spec.trace_xi / spec.trace_h if spec.trace_h > 0 else 0.0
    if radicand < -WELLPOSED_TOL:
        raise ValueError(f"well-posedness violated: 1 + TrXi/TrH = {radicand:.3e}")
    rhs = spec.geometric * spec.misspecification * spec.statistical
    lhs = spec.cor_bound
    return float("inf") if math.isnan(rhs) else abs(lhs - rhs) / max(lhs, DECOMPOSITION_REL_FLOOR)


def cor_trajectory(estimates) -> CorReport:
    """Trajectory minimum of the per-step `cor_bound`, first occurrence on
    ties.  A step with lambda_max <= 0 has an infinite bound and never wins;
    raises when no bound is finite."""
    bounds = [e.cor_bound for e in estimates]
    finite = [b for b in bounds if np.isfinite(b)]
    if not finite:
        raise ValueError("no step with a finite stability bound")
    i = bounds.index(min(finite))
    return CorReport(bounds[i], estimates[i].step, bounds[i] < COLLAPSE_ZONE_THRESHOLD)


# ---------------------------------------------------------------------------
# GSNR phase detection
# ---------------------------------------------------------------------------

def _first_run(flags, length: int, start: int = 0) -> int | None:
    """Step that starts the first run of `length` true slope flags from index
    `start` on (slope j is the change into step j + 1), or None."""
    run = 0
    for i in range(start, flags.size):
        run = run + 1 if flags[i] else 0
        if run >= length:
            return i - length + 2
    return None


def phase_detect(values, cor_bounds=None) -> GsnrTrace:
    """Segment a GSNR trajectory into plateau / rise / decay phases.

    The log-trace is smoothed with a moving average over edge-padded ends,
    so the phases do not depend on the GSNR's scale; the rise phase starts
    at the first step whose smoothed slope exceeds `PHASE_RISE_SLOPE` for
    `PHASE_RISE_RUN` consecutive steps, the decay phase at the first later
    step whose slope is negative for `PHASE_DECAY_RUN` consecutive steps.
    When no rise is detected, or the trace is shorter than
    `PHASE_MIN_STEPS` and so is not segmented, the whole run is the
    pre-optimization phase (the collapse case).

    Where it fires: a zero-init linear probe's train-set GSNR falls as the
    probe fits and holds when full-batch SAM collapses it, so on the 34
    zero-init full-batch and rho-0 runs checked (the lift fixture, the
    scaling family, the bifurcation runs), trained or collapsed, it returns
    (None, None).  A rise is found only where GSNR climbs: mini-batch SAM
    runs that carry the probe off the data, and a random-init two-layer
    tanh probe, which no module here trains.
    """
    v = np.asarray(values, dtype=np.float64)
    crit = v if cor_bounds is None else np.asarray(cor_bounds, dtype=np.float64)
    if crit.size != v.size:
        raise ValueError("cor_bounds must align with the GSNR trace")
    slope = np.zeros(0)
    if v.size >= PHASE_MIN_STEPS:
        logv = np.log(np.maximum(v, PHASE_LOG_FLOOR))
        pad = (PHASE_SMOOTH_WINDOW // 2, (PHASE_SMOOTH_WINDOW - 1) // 2)
        kernel = np.ones(PHASE_SMOOTH_WINDOW) / PHASE_SMOOTH_WINDOW
        slope = np.diff(np.convolve(np.pad(logv, pad, mode="edge"), kernel, mode="valid"))

    rise_start = _first_run(slope > PHASE_RISE_SLOPE, PHASE_RISE_RUN)
    decay_start = (None if rise_start is None
                   else _first_run(slope < 0, PHASE_DECAY_RUN, rise_start))

    # bottleneck: argmin of the stability bound (or of the GSNR itself when
    # no bounds are supplied), restricted to the pre-optimization phase
    end = v.size if rise_start is None else max(rise_start, 1)
    t_star = int(np.argmin(crit[:end]))
    return GsnrTrace((rise_start, decay_start), t_star, float(v[t_star]))
