"""Experiment orchestration: feature pipelines, training runs with
diagnostics, rho sweeps with collapse bisection, AUC metrics, verification
campaigns, and report emission."""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import diagnostics as dg
from . import fields
from . import model as md
from . import optim as op
from . import regions as rg
from . import tasks as tk

SCHEMA_VERSION = 1
COLLAPSE_AUC_THRESHOLD = 0.55
BISECTION_RESOLUTION = 1e-3     # rho width at which sweep bisection stops
FACTORIZATION_REL_TOL = 1e-6    # campaign pass threshold on both relative gaps
# campaign instances drawn and evaluated together.  It bounds what grouping
# adds to peak RSS: in a bare process a 2,000-instance campaign peaked at
# 38.2 MB with this chunk, 47.1 MB as one chunk, 36.9 MB one at a time.
CAMPAIGN_CHUNK = 128
WHITEN_RIDGE = 1e-6             # added to the feature covariance before whitening
HEAD_MODES = ("plain-probe", "corit")
LOSS_MODES = ("bce", "quadratic")
# Observed steps per evaluation block: one (n, P)·(P, 64) GEMM gives the
# block's full-train logits in place of 64 GEMVs.  On the 2,000-sample,
# 257-parameter CoRIT head the block holds 132 KB of weights and 1 MB for
# each (n, 64) array (logits, residuals), whatever the step budget.
_OBSERVE_STEPS = 64
# Rows per block of a whitening apply (a 512 KB temporary on the CoRIT head):
# a multiple of BLAS's row unrolling, so a row meets one product's kernel.
_WHITEN_ROWS = 256


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _aucs(Z, labels) -> list[float]:
    """Mann-Whitney AUC of each column of the (n, C) scores `Z`, a tie
    counting one half.  Scores may be infinite but not NaN; labels must be
    0 or 1.  One row-wise sort of label-tagged order keys serves every
    column that has no near tie."""
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(labels)
    if Z.ndim != 2 or y.shape != Z.shape[:1]:
        raise ValueError("scores and labels must be aligned 1-d arrays")
    is_pos, is_neg = y == 1, y == 0
    n1, n0 = int(np.count_nonzero(is_pos)), int(np.count_nonzero(is_neg))
    if n1 + n0 != y.size:
        raise ValueError("labels must be 0 or 1")
    if n1 == 0 or n0 == 0:
        raise ValueError("both classes must be present")
    if np.isnan(Z).any():
        raise ValueError("scores must not be NaN")
    # signed int64 keys in the scores' order (-0.0 made +0.0 first, so
    # equal scores have equal keys), the lowest bit replaced by the label.
    # In a row where no two keys share their upper 63 bits the sorted order
    # is the scores' exact order without ties, and the positive at sorted
    # position i beats the i - (positives before it) negatives below it
    k = np.add(Z.T, 0.0, order="C").view(np.int64)
    buf = k >> 63
    buf &= 0x7FFFFFFFFFFFFFFF
    k ^= buf
    k &= -2
    k |= is_pos
    k.sort(axis=1)
    np.right_shift(k, 1, out=buf)
    near = np.flatnonzero((buf[:, 1:] == buf[:, :-1]).any(axis=1))
    k &= 1
    twice = 2 * (k @ np.arange(y.size) - n1 * (n1 - 1) // 2)
    # a near tie is an exact tie or two adjacent floats: such a column is
    # counted on its own, a positive beating the negatives below it and
    # tying those equal to it.  Twice the count is an exact integer either way
    for j in near:
        neg, pos = np.sort(Z[is_neg, j]), Z[is_pos, j]
        twice[j] = (np.searchsorted(neg, pos, side="left").sum()
                    + np.searchsorted(neg, pos, side="right").sum())
    return (twice / 2.0 / (n1 * n0)).tolist()


def compute_auc(scores, labels) -> float:
    """Mann-Whitney AUC of one score vector, a tie counting one half:
    `_aucs` of a single column, with the same rules for scores and labels."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError("scores and labels must be aligned 1-d arrays")
    return _aucs(s[:, None], labels)[0]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Complete description of one training experiment.

    Features are whitened with a transform fitted on the train split only.
    `loss` selects the probe objective: plain binary cross-entropy, or its
    exact second-order expansion around the zero probe (same gradients and
    per-sample gradient statistics at initialization, curvature constant
    along the trajectory).  With the quadratic loss, `lr_relative` scales
    the learning rate by the inverse top curvature so step sizes are
    expressed in units of the stability limit.
    """

    task: tk.TaskSpec = field(default_factory=tk.TaskSpec)
    encoder: md.EncoderConfig = field(default_factory=md.EncoderConfig)
    head: str = "plain-probe"
    optimizer: op.SamConfig = field(default_factory=op.SamConfig)
    counterpart: tk.CounterpartOp = field(default_factory=tk.CounterpartOp)
    cadence: int = 40
    alpha: float = 0.75
    l_mid: int = 4
    loss: str = "bce"
    # whitening is the one feature transform.  The field stays for good,
    # accepting only it: the acceptance tests, the bench workloads and every
    # stored summary.json config pass it
    standardize: str = "whiten"
    lr_relative: float | None = None

    def __post_init__(self):
        fields.choice("head", self.head, HEAD_MODES)
        fields.choice("loss", self.loss, LOSS_MODES)
        fields.choice("standardize", self.standardize, ("whiten",))
        fields.integer("cadence", self.cadence, 1)
        fields.integer("l_mid", self.l_mid, None)
        fields.real("alpha", self.alpha, 0, strict=False)
        for task_field, enc_field in (("n_tokens", "visual_tokens"), ("dim", "dim")):
            got, want = getattr(self.task, task_field), getattr(self.encoder, enc_field)
            if got != want:
                raise ValueError(f"task.{task_field} ({got}) must equal "
                                 f"encoder.{enc_field} ({want})")
        fields.channels("counterpart.target_channels", self.counterpart.target_channels,
                        self.task.dim)
        if self.head == "corit":
            if not 1 <= self.l_mid < self.encoder.layers:
                raise ValueError(f"l_mid ({self.l_mid}) must be in "
                                 f"[1, {self.encoder.layers - 1}] for the corit head")
            if not self.counterpart.target_channels or self.counterpart.perturb_amp == 0:
                raise ValueError("counterpart perturbs nothing (empty target_channels "
                                 "or perturb_amp 0), so the corit head sees no "
                                 "discrepancy")
        if self.lr_relative is not None:
            if self.loss != "quadratic":
                raise ValueError("lr_relative requires the quadratic loss")
            fields.real("lr_relative", self.lr_relative, 0, strict=True)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = dict(d)
        return cls(task=tk.TaskSpec(**d.pop("task")),
                   encoder=md.EncoderConfig(**d.pop("encoder")),
                   optimizer=op.SamConfig(**d.pop("optimizer")),
                   counterpart=tk.CounterpartOp(**d.pop("counterpart")), **d)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# feature pipeline
# ---------------------------------------------------------------------------

@dataclass
class Standardizer:
    mean: np.ndarray
    transform: np.ndarray

    def apply(self, F: np.ndarray) -> np.ndarray:
        """(F - mean) @ transform, written into one output `_WHITEN_ROWS`
        rows at a time.  A one-row block would take BLAS's matrix-vector
        path, which rounds otherwise than the one product's rows, so a last
        row goes with the block before it."""
        out = np.empty(F.shape)
        edges = [*range(0, max(len(F) - 1, 1), _WHITEN_ROWS), len(F)]
        for a, b in zip(edges, edges[1:]):
            np.matmul(F[a:b] - self.mean, self.transform, out=out[a:b])
        return out


def fit_standardizer(F: np.ndarray) -> Standardizer:
    """Ridged whitening of the (n, width) features `F`, left unwritten, with
    `np.cov`'s covariance from one centred copy; refuses features that are
    rank-deficient, which n <= width always are."""
    mu = F.mean(axis=0)
    n, width = F.shape
    X = (F - mu).T
    X -= X.mean(axis=1)[:, None]
    C = np.dot(X, X.T)
    del X                       # before the eigendecomposition
    C *= 1 / (n - 1)
    C += WHITEN_RIDGE * np.eye(width)
    evals, evecs = np.linalg.eigh(C)
    # numpy's matrix_rank cutoff: the ridge would scale a null direction
    # by ~1/sqrt(WHITEN_RIDGE) instead of whitening it
    lam = evals - WHITEN_RIDGE
    if lam[0] <= width * np.finfo(np.float64).eps * lam[-1]:
        raise ValueError(f"standardize 'whiten' needs full-rank train features, but "
                         f"the {width} features of n_train {n} samples are rank-"
                         f"deficient; use n_train > {width}")
    return Standardizer(mu, (evecs * evals ** -0.5) @ evecs.T)


@dataclass
class FeatureSet:
    train: np.ndarray
    test: np.ndarray
    train_labels: np.ndarray
    test_labels: np.ndarray


def build_features(config: RunConfig) -> FeatureSet:
    """Encode both splits under the configured head and whiten them.

    Each split goes to the encoder as one `tasks.SplitView`, so each encoder
    block generates its own samples and no split's tokens exist at once.
    The standardizer is fitted on the train split, which is whitened and its
    raw features freed before the test split is generated, so a refused fit
    costs no test-split work."""
    enc = md.FrozenEncoder(config.encoder)

    def split_features(split: str) -> tuple[np.ndarray, np.ndarray]:
        view = tk.SplitView(config.task, split)
        if config.head == "plain-probe":
            F = enc.encode_plain(view)
        else:
            F = enc.encode_corit(view, config.counterpart.offset(*view.shape[1:]),
                                 rg.grid_partition(config.task.n_tokens), config.alpha,
                                 config.l_mid)[0]
        return F, view.labels.astype(np.float64)

    F_tr, y_tr = split_features("train")
    std = fit_standardizer(F_tr)
    F_tr = std.apply(F_tr)
    F_te, y_te = split_features("test")
    return FeatureSet(F_tr, std.apply(F_te), y_tr, y_te)


def quadratic_surrogate(features: np.ndarray, labels: np.ndarray) -> op.QuadraticProblem:
    """Second-order expansion of the cross-entropy probe at zero weights.

    The shared curvature is the probe's Hessian at zero weights and the
    per-sample offsets are chosen so that per-sample gradients agree
    exactly with the cross-entropy probe there.
    """
    probe = op.LogisticProbeProblem(features, labels)
    w0 = probe.init_params()
    A = probe.dense_hessian(w0)
    offsets = -np.linalg.solve(A, probe.per_sample_grads(w0).T).T
    return op.QuadraticProblem(A, offsets)


def _make_problem(config: RunConfig, feats: FeatureSet):
    if config.loss == "bce":
        return op.LogisticProbeProblem(feats.train, feats.train_labels)
    return quadratic_surrogate(feats.train, feats.train_labels)


def _effective_lr(config: RunConfig, problem) -> float:
    if config.lr_relative is None:
        return config.optimizer.learning_rate
    lam = problem.curvature(problem.init_params())[0]
    if not lam > 0:
        raise ValueError(f"top curvature {lam} is not positive; cannot scale step size")
    return config.lr_relative / lam


# ---------------------------------------------------------------------------
# training runs
# ---------------------------------------------------------------------------

@dataclass
class StepMetrics:
    step: int
    loss: float
    train_auc_window: float
    grad_norm: float
    gsnr: float


@dataclass
class TrainResult:
    config: RunConfig
    weights: np.ndarray
    steps: list[StepMetrics]
    estimates: list[dg.SpectralEstimate]
    cor_report: dg.CorReport
    gsnr_trace: dg.GsnrTrace
    train_auc: float
    test_auc: float
    train_auc_window: float
    failed: bool
    failed_step: int | None = None

    @property
    def collapsed(self) -> bool:
        return self.train_auc_window < COLLAPSE_AUC_THRESHOLD

    def summary(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "train_auc": self.train_auc,
            "test_auc": self.test_auc,
            "train_auc_window": self.train_auc_window,
            "collapsed": self.collapsed,
            "failed": self.failed,
            "failed_step": self.failed_step,
            "theoretical_cor": self.cor_report.rho_critical,
            "cor_argmin_step": self.cor_report.argmin_step,
            "collapse_zone": self.cor_report.collapsed_zone,
            "phase_boundaries": list(self.gsnr_trace.phase_boundaries),
            "bottleneck_step": self.gsnr_trace.bottleneck_step,
            "bottleneck_gsnr": self.gsnr_trace.bottleneck_gsnr,
        }


def _final_aucs(problem, feats: FeatureSet, w: np.ndarray) -> tuple[float, float]:
    return (compute_auc(problem.logits(w, feats.train), feats.train_labels),
            compute_auc(problem.logits(w, feats.test), feats.test_labels))


def _collapse_window(steps: int) -> int:
    """Steps in the collapse window: the trailing tenth of the budget."""
    return max(1, steps // 10)


def _run_observed(problem, ocfg: op.SamConfig, feats: FeatureSet, first: int,
                  evaluate) -> tuple[np.ndarray, int | None]:
    """`op.run` with its steps from `first` on evaluated a block at a time:
    every `_OBSERVE_STEPS` steps and after the run, `evaluate(recs, W, Z,
    aucs)` gets the block's step records, (P, C) pre-step weights, (n, C)
    full-train logits from one `problem.logits` and their AUCs from one
    `_aucs`."""
    recs, ws = [], []

    def flush():
        if recs:
            W = np.stack(ws, axis=1)
            Z = problem.logits(W, feats.train)
            evaluate(recs, W, Z, _aucs(Z, feats.train_labels))
            recs.clear()
            ws.clear()

    def observe(t, w, rec):
        if t >= first:
            recs.append(rec)
            ws.append(w)
            if len(recs) == _OBSERVE_STEPS:
                flush()

    # a failing step ends the run, so it is the last one observed; its
    # moments may overflow in whichever flush takes it, and the run reports it
    with np.errstate(over="ignore", invalid="ignore"):
        w, failed_step = op.run(problem, ocfg, observe)
        flush()
    return w, failed_step


def run_train(config: RunConfig, feats: FeatureSet | None = None,
              out_dir: str | None = None) -> TrainResult:
    """Deterministic training run with per-step metrics and periodic
    spectral diagnostics.

    The per-step AUC window is the running mean of the full-train-set AUC
    over the trailing tenth of the step budget; the final window value is
    the collapse statistic.  A block of observed steps shares one
    full-train `problem.logits` (`_run_observed`) for its AUCs and gradient
    moments; the snapshot every `cadence` steps reads the same moments, so
    its GSNR is its step's, and the step's `problem.curvature`.  A
    non-finite update marks the run failed and keeps the last valid weights.
    """
    feats = build_features(config) if feats is None else feats
    problem = _make_problem(config, feats)
    ocfg = replace(config.optimizer, learning_rate=_effective_lr(config, problem))
    window = _collapse_window(ocfg.steps)
    aucs = np.empty(ocfg.steps)
    steps_out: list[StepMetrics] = []
    estimates: list[dg.SpectralEstimate] = []

    def evaluate(recs, W, Z, block_aucs):
        G, tr_cov = problem.grad_moments(W, Z)
        for j, rec in enumerate(recs):
            t, gg, trc = rec.step, float(G[:, j] @ G[:, j]), float(tr_cov[j])
            aucs[t] = block_aucs[j]
            if t % config.cadence == 0:
                # a failing step's overflowed snapshot would poison the phases and minimum
                lam, tr_h = problem.curvature(W[:, j])
                if np.isfinite([gg, trc, lam]).all():
                    estimates.append(dg.SpectralEstimate(lam, tr_h, trc, gg, t))
            first = max(0, t + 1 - window)
            steps_out.append(StepMetrics(t, rec.loss,
                                         float(aucs[first:t + 1].sum() / (t + 1 - first)),
                                         rec.grad_norm, dg.signal_to_noise(gg, trc)))

    # step 0 is always observed, so `estimates` and `steps_out` are never empty
    w, failed_step = _run_observed(problem, ocfg, feats, 0, evaluate)
    cor_report = dg.cor_trajectory(estimates)
    trace = dg.phase_detect([e.gsnr for e in estimates],
                            [e.cor_bound for e in estimates])
    step = lambda i: None if i is None else estimates[i].step
    trace = replace(trace, phase_boundaries=tuple(map(step, trace.phase_boundaries)),
                    bottleneck_step=step(trace.bottleneck_step))

    result = TrainResult(config, w, steps_out, estimates, cor_report, trace,
                         *_final_aucs(problem, feats, w), steps_out[-1].train_auc_window,
                         failed_step is not None, failed_step)
    if out_dir is not None:
        emit_run(result, out_dir)
    return result


def write_report(out_dir: str, name: str, payload: dict) -> None:
    """Write `payload` as the JSON report `out_dir/name`, the one report
    format: `schema_version` added, keys sorted, indent 2, trailing newline."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(json.dumps({"schema_version": SCHEMA_VERSION, **payload},
                            indent=2, sort_keys=True) + "\n")


def emit_run(result: TrainResult, out_dir: str) -> None:
    write_report(out_dir, "diagnostics.json",
                 {"estimates": [e.to_dict() for e in result.estimates]})
    write_report(out_dir, "summary.json", result.summary())
    with open(os.path.join(out_dir, "steps.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        names = [f.name for f in dataclasses.fields(StepMetrics)]
        fh.write(",".join(names) + "\n")
        for m in result.steps:
            fh.write(",".join([repr(getattr(m, n)) for n in names]) + "\n")


# ---------------------------------------------------------------------------
# rho sweeps and collapse bisection
# ---------------------------------------------------------------------------

@dataclass
class SweepEntry:
    rho: float
    train_auc: float
    test_auc: float
    collapsed: bool


@dataclass
class SweepResult:
    """`theoretical_cor` is always None (JSON null): a sweep trains no
    zero-radius run, so it has no trajectory minimum to report."""

    entries: list[SweepEntry]
    empirical_cor: float
    theoretical_cor: float | None = None
    all_collapsed: bool = False
    none_collapsed: bool = False
    monotone: bool = True


def _collapse_stat(problem, feats: FeatureSet,
                   ocfg: op.SamConfig) -> tuple[float, float, float]:
    """Window AUC, final train AUC, final test AUC of one probe run; `ocfg`
    carries the probed rho and the effective learning rate.  The window's
    steps go through `_run_observed`, as `run_train`'s do."""
    vals = []
    w, failed_step = _run_observed(problem, ocfg, feats,
                                   ocfg.steps - _collapse_window(ocfg.steps),
                                   lambda recs, W, Z, aucs: vals.extend(aucs))
    # a failed run votes collapsed; its AUCs, like `run_train`'s, are those
    # of its last valid weights
    return (0.5 if failed_step is not None else float(np.mean(vals)),
            *_final_aucs(problem, feats, w))


def sweep_rho(config: RunConfig, rho_list, seeds=(0, 1, 2)) -> SweepResult:
    """Collapse sweep over ascending rho values with boundary bisection.

    Each rho is labeled collapsed by majority vote over per-seed runs
    (window AUC below the collapse threshold); the empirical critical
    radius is bisected between the boundary pair.  Degenerate sweeps
    (everything or nothing collapsed) report the range edge with a flag.
    """
    rhos = [float(r) for r in rho_list]
    for r in rhos:              # before any seed's features are built
        fields.real("rho", r, 0, strict=False)
    if len(rhos) < 3 or any(b <= a for a, b in zip(rhos, rhos[1:])):
        raise ValueError("need >= 3 strictly ascending rho values")
    seeds = fields.channels("seeds", seeds, None)   # a repeated seed would vote twice
    if not seeds:
        raise ValueError("need at least one seed")
    # TaskSpec refuses a negative seed here, before any features are built
    cfgs = [replace(config, task=replace(config.task, seed=config.task.seed + s))
            for s in seeds]

    runs = []
    for cfg_s in cfgs:
        feats = build_features(cfg_s)
        problem = _make_problem(cfg_s, feats)
        runs.append((feats, problem, replace(config.optimizer,
                                             learning_rate=_effective_lr(cfg_s, problem))))

    def probe(rho: float) -> SweepEntry:
        stats = np.array([_collapse_stat(problem, feats, replace(ocfg, rho=rho))
                          for feats, problem, ocfg in runs])   # (seeds, 3)
        votes = np.count_nonzero(stats[:, 0] < COLLAPSE_AUC_THRESHOLD)
        return SweepEntry(rho, float(np.mean(stats[:, 1])), float(np.mean(stats[:, 2])),
                          bool(2 * votes > len(runs)))

    entries = [probe(r) for r in rhos]

    flags = [e.collapsed for e in entries]
    monotone = flags == sorted(flags)     # no recovery above a collapsed rho

    if all(flags):
        return SweepResult(entries, rhos[0], all_collapsed=True, monotone=monotone)
    if not any(flags):
        return SweepResult(entries, rhos[-1], none_collapsed=True, monotone=monotone)
    hi_i = flags.index(True)
    lo = 0.0 if hi_i == 0 else rhos[hi_i - 1]
    hi = rhos[hi_i]
    while hi - lo > BISECTION_RESOLUTION:
        mid = 0.5 * (lo + hi)
        if probe(mid).collapsed:
            hi = mid
        else:
            lo = mid
    return SweepResult(entries, 0.5 * (lo + hi), monotone=monotone)


# ---------------------------------------------------------------------------
# verification campaigns
# ---------------------------------------------------------------------------

@dataclass
class CampaignReport:
    n_instances: int
    n_passed: int
    max_rel_gap: float
    min_wellposed: float
    failures: list[dict] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return self.n_passed == self.n_instances


def _campaign_estimates(n_instances: int, seed: int):
    """Each campaign instance's exact estimate (step = its index) and direct
    residual trace, in draw order.

    Instances are drawn as `SoftmaxRegression.random` draws them,
    `CAMPAIGN_CHUNK` at a time; each chunk is evaluated one (C, F) shape
    group at a time, which changes no instance's numbers.
    """
    from . import softmaxreg as sr

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    for start in range(0, n_instances, CAMPAIGN_CHUNK):
        stop = min(start + CAMPAIGN_CHUNK, n_instances)
        shapes: dict[tuple[int, int], list] = {}
        for i in range(start, stop):
            M, C, F = int(rng.integers(4, 40)), int(rng.integers(2, 6)), int(rng.integers(2, 11))
            shapes.setdefault((C, F), []).append((i, sr.draw_instance(rng, M, F, C)))
        rows = {}
        for members in shapes.values():
            steps, instances = zip(*members)
            group = sr.SoftmaxGroup.stack(instances)
            mean_grads, trace_covs = group.grad_moments()
            rows.update(zip(steps, zip(
                dg.spectral_estimates(mean_grads, trace_covs, group.hessians(), steps),
                group.trace_xi_direct().tolist())))
        yield from (rows[i] for i in range(start, stop))


def verify_theorem_campaign(n_instances: int = 100, seed: int = 0) -> CampaignReport:
    """Exact-mode factorization check on random softmax-regression instances.

    Every spectral quantity is computed densely (eigendecomposition, full
    per-sample gradients), so the identity must hold to numerical rounding.
    An instance passes when the factorization closes and the residual trace
    from its direct definition matches trace_cov + |g|^2 - tr H and is well
    posed (1 + TrXi/TrH >= 0); taken from that difference, both the
    factorization and the well-posedness ratio hold for any Hessian.
    """
    fields.integer("n_instances", n_instances, 1)
    t0 = time.perf_counter()
    passed = 0
    max_gap = 0.0
    min_wp = float("inf")
    failures = []
    for i, (est, xi_direct) in enumerate(_campaign_estimates(n_instances, seed)):
        wp = 1.0 + xi_direct / est.trace_h if est.trace_h > 0 else float("inf")
        min_wp = min(min_wp, wp)
        rel_gap = dg.verify_decomposition(est)
        max_gap = max(max_gap, rel_gap)
        xi_gap = abs(xi_direct - est.trace_xi) / max(abs(est.trace_xi), est.trace_h)
        if (rel_gap < FACTORIZATION_REL_TOL and xi_gap < FACTORIZATION_REL_TOL
                and wp >= -dg.WELLPOSED_TOL):
            passed += 1
        else:
            failures.append({"instance": i, "estimate": est.to_dict(), "rel_gap": rel_gap,
                             "trace_xi_direct": xi_direct, "xi_rel_gap": xi_gap})
    return CampaignReport(n_instances, passed, max_gap, min_wp, failures,
                          time.perf_counter() - t0)


def corit_vs_baseline(config: RunConfig) -> dict[str, TrainResult]:
    """Head comparison on one task: identical encoder and optimizer, only
    the head mode differs.  Returns the rho = 0 run of each head, keyed in
    `HEAD_MODES` order, and raises when either run fails; `sweep_rho` gives
    the empirical collapse boundary."""
    out = {}
    for head in HEAD_MODES:
        cfg = replace(config, head=head,
                      optimizer=replace(config.optimizer, rho=0.0))
        out[head] = res = run_train(cfg)
        if res.failed:
            raise FloatingPointError(f"{head} run failed at step {res.failed_step}")
    return out
