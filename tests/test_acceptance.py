"""End-to-end acceptance gate.

Each test here pins one of the headline guarantees of the package: the
exact factorization of the stability bound, the alignment guarantee below
the stability radius, optimizer degeneration, the high/low-signal
bifurcation, the square-root scaling of the collapse boundary with the
gradient signal-to-noise ratio, the stability lift from the region-token
head, estimator fidelity, pooled-mask variance suppression, and phase
segmentation.  Fixtures are frozen; the heavy ones are session scoped.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from corlab import autodiff as ad
from corlab import diagnostics as dg
from corlab import harness as hn
from corlab import model as md
from corlab import optim as op
from corlab import regions as rg
from corlab import tasks as tk

COLLAPSE_WINDOW = hn.COLLAPSE_AUC_THRESHOLD       # 0.55 window AUC
COLLAPSE_ZONE = dg.COLLAPSE_ZONE_THRESHOLD        # 0.05 stability bound


# ---------------------------------------------------------------------------
# 1 + 2: exact factorization and well-posedness on 100 instances
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def campaign():
    return hn.verify_theorem_campaign(100, seed=0)


def test_factorization_identity_exact_on_100_instances(campaign):
    assert campaign.n_instances == 100
    assert campaign.passed, campaign.failures[:3]
    assert campaign.max_rel_gap < 1e-6
    assert campaign.elapsed_s < 60.0


def test_wellposedness_of_residual_term(campaign):
    assert campaign.min_wellposed >= -1e-9


# ---------------------------------------------------------------------------
# 3: positive update alignment below the stability radius
# ---------------------------------------------------------------------------

def test_alignment_positive_below_stability_radius():
    positive = 0
    total = 0
    fractions = (0.1, 0.3, 0.5, 0.7, 0.9)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(8, 8))
        A = B @ B.T + 0.5 * np.eye(8)
        offsets = rng.normal(scale=2.0, size=(64, 8))
        prob = op.QuadraticProblem(A, offsets)
        w0 = prob.init_params()
        _, g0 = prob.loss_and_grad(w0)
        limit = 0.9 * np.linalg.norm(g0) / np.linalg.eigvalsh(A).max()
        for f in fractions:
            mean, _ = op.stability_probe(prob, w0, f * limit,
                                         n_batches=48, batch_size=8,
                                         seed=seed)
            total += 1
            positive += mean > 0.0
    assert total == 100
    assert positive >= 99


# ---------------------------------------------------------------------------
# 4: zero perturbation radius reproduces plain SGD bit for bit
# ---------------------------------------------------------------------------

def test_zero_radius_is_bit_identical_to_sgd():
    configs = [
        (op.SamConfig(rho=0.0, learning_rate=0.05, batch_size=4, steps=60, seed=s),
         "logistic" if s % 2 else "quadratic")
        for s in range(5)
    ]
    for cfg, kind in configs:
        rng = np.random.default_rng(cfg.seed + 100)
        if kind == "logistic":
            prob = op.LogisticProbeProblem(rng.normal(size=(24, 5)),
                                           rng.integers(0, 2, 24).astype(float))
        else:
            B = rng.normal(size=(5, 5))
            prob = op.QuadraticProblem(B @ B.T + np.eye(5),
                                       rng.normal(size=(24, 5)))
        w_sam, _ = op.run(prob, cfg)
        sampler = op.BatchSampler(prob.n_samples, cfg.batch_size, cfg.seed)
        w = prob.init_params()
        for _ in range(cfg.steps):
            w, _ = op.sgd_step(prob, w, sampler.next_batch(), cfg.learning_rate)
        assert np.array_equal(w_sam, w)


# ---------------------------------------------------------------------------
# 5: high/low signal bifurcation at a fixed perturbation radius
# ---------------------------------------------------------------------------

def _bifurcation_config(task, lr_relative, rho, seed):
    return hn.RunConfig(
        task=replace(task, seed=seed),
        loss="quadratic", standardize="whiten", lr_relative=lr_relative,
        optimizer=op.SamConfig(rho=rho, learning_rate=1.0, batch_size=500,
                               steps=400, seed=seed))


HIGH_SIGNAL_TASK = tk.TaskSpec(semantic_amp=8.0, n_train=400, n_test=200)
LOW_SIGNAL_TASK = tk.TaskSpec(artifact_amp=30.0, artifact_region="boundary",
                              n_train=400, n_test=200)


def test_bifurcation_high_signal_trains_low_signal_collapses():
    t0 = time.time()
    for seed in range(3):
        high = hn.run_train(_bifurcation_config(HIGH_SIGNAL_TASK, 1.0, 0.05, seed))
        assert not high.failed
        assert high.test_auc > 0.95

        low_cfg = _bifurcation_config(LOW_SIGNAL_TASK, 1.95, 0.05, seed)
        feats = hn.build_features(low_cfg)
        low_hi = hn.run_train(low_cfg, feats=feats)
        assert low_hi.train_auc_window < COLLAPSE_WINDOW

        low_lo = hn.run_train(
            replace(low_cfg, optimizer=replace(low_cfg.optimizer, rho=0.01)),
            feats=feats)
        assert low_lo.train_auc_window > 0.9
    assert time.time() - t0 < 300.0


# ---------------------------------------------------------------------------
# 6 + 7: scaling of the empirical collapse boundary across a task family
# ---------------------------------------------------------------------------

FAMILY_AMPS = (3.0, 6.0, 12.0, 24.0, 48.0, 96.0)


def _family_task(amp):
    return tk.TaskSpec(artifact_amp=amp, artifact_region="boundary",
                       n_train=4000, n_test=200, seed=0)


def _empirical_boundary(cfg):
    """Bisect the smallest radius whose deterministic run collapses."""
    feats = hn.build_features(cfg)
    problem = hn._make_problem(cfg, feats)
    ocfg = replace(cfg.optimizer, learning_rate=hn._effective_lr(cfg, problem))

    def collapses(rho):
        win, _, _ = hn._collapse_stat(problem, feats, replace(ocfg, rho=rho))
        return win < COLLAPSE_WINDOW

    lo, hi = 0.0, 1e-3
    for _ in range(40):
        if collapses(hi):
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise AssertionError("no collapse found below the search ceiling")
    while hi - lo > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        if collapses(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def scaling_family():
    rows = []
    for amp in FAMILY_AMPS:
        task = _family_task(amp)
        quad_cfg = hn.RunConfig(
            task=task, loss="quadratic", standardize="whiten",
            lr_relative=1.95,
            optimizer=op.SamConfig(rho=0.0, learning_rate=1.0,
                                   batch_size=4096, steps=400, seed=0))
        empirical = _empirical_boundary(quad_cfg)

        diag_cfg = hn.RunConfig(
            task=task, loss="bce", standardize="whiten",
            optimizer=op.SamConfig(rho=0.0, learning_rate=1e-3,
                                   batch_size=20, steps=400, seed=0))
        diag = hn.run_train(diag_cfg)
        assert not diag.failed
        rows.append({"amp": amp, "empirical": empirical,
                     "theoretical": diag.cor_report.rho_critical,
                     "gsnr_bottleneck": diag.gsnr_trace.bottleneck_gsnr})
    return rows


def test_collapse_boundary_scales_as_sqrt_of_gsnr(scaling_family):
    gsnr = np.array([r["gsnr_bottleneck"] for r in scaling_family])
    emp = np.array([r["empirical"] for r in scaling_family])
    assert np.all(gsnr >= 1e-4) and np.all(gsnr <= 1e-1)
    x = np.log(gsnr)
    y = np.log(emp)
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    r2 = 1.0 - ((y - fit) ** 2).sum() / ((y - y.mean()) ** 2).sum()
    assert 0.35 <= slope <= 0.65, slope
    assert r2 >= 0.8, r2


def test_theory_and_experiment_rank_tasks_identically(scaling_family):
    theo = np.array([r["theoretical"] for r in scaling_family])
    emp = np.array([r["empirical"] for r in scaling_family])

    def ranks(v):
        order = np.argsort(v)
        r = np.empty(v.size)
        r[order] = np.arange(v.size)
        return r

    rt, re = ranks(theo), ranks(emp)
    spearman = np.corrcoef(rt, re)[0, 1]
    assert spearman >= 0.8, spearman


# ---------------------------------------------------------------------------
# 8: the region-token head lifts the stability margin out of the
#    collapse zone on the suppressed-artifact task
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lifted_runs():
    rows = []
    for seed in range(5):
        base = hn.RunConfig(
            task=tk.TaskSpec(artifact_amp=8.0, artifact_region="foreground",
                             n_train=2000, n_test=200, seed=seed),
            encoder=md.EncoderConfig(semantic_bias=True,
                                     bias_channels=tuple(range(24, 32)),
                                     bias_attenuation=0.5),
            counterpart=tk.CounterpartOp(perturb_amp=2.0),
            alpha=0.75, l_mid=4,
            loss="bce", standardize="whiten", cadence=300,
            optimizer=op.SamConfig(rho=0.0, learning_rate=3e-3,
                                   batch_size=20, steps=6000, seed=seed))
        plain = hn.run_train(replace(base, head="plain-probe"))
        corit = hn.run_train(replace(base, head="corit"))
        assert not plain.failed and not corit.failed
        rows.append((plain.cor_report.rho_critical,
                     corit.cor_report.rho_critical))
    return rows


def test_region_head_raises_stability_margin_every_seed(lifted_runs):
    assert all(c > p for p, c in lifted_runs), lifted_runs


def test_region_head_exits_collapse_zone_plain_does_not(lifted_runs):
    plain_in_zone = sum(p < COLLAPSE_ZONE for p, _ in lifted_runs)
    corit_out = sum(c >= COLLAPSE_ZONE for _, c in lifted_runs)
    assert plain_in_zone == 5, lifted_runs
    assert corit_out >= 4, lifted_runs


# ---------------------------------------------------------------------------
# 9: estimator fidelity
# ---------------------------------------------------------------------------

def test_top_eigenvalue_matches_dense_eigensolve():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(50, 50))
        H = B @ B.T
        lam = dg.lambda_max(lambda v: H @ v, 50, iters=20000, tol=1e-10,
                            seed=seed, shift=0.0)
        dense = np.linalg.eigvalsh(H).max()
        assert abs(lam - dense) <= 1e-6 * max(1.0, abs(dense))


def test_stochastic_trace_within_two_percent_on_most_seeds():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        B = rng.normal(size=(50, 50))
        H = B @ B.T
        est, _ = dg.hessian_trace(lambda v: H @ v, 50, probes=1000,
                                  seed=seed, dense_threshold=0)
        hits += abs(est - np.trace(H)) <= 0.02 * abs(np.trace(H))
    assert hits >= 95, hits


def test_engine_gradients_match_central_differences_on_full_model():
    cfg = md.EncoderConfig(layers=2, dim=8, heads=2, visual_tokens=4)
    enc = md.FrozenEncoder(cfg)
    rng = np.random.default_rng(0)
    visuals0 = rng.normal(size=(cfg.visual_tokens, cfg.dim))
    w0 = rng.normal(size=cfg.dim)
    y = np.ones((1, 1))

    def graph(views, data):
        v = ad.reshape(views["visuals"], (cfg.visual_tokens, cfg.dim))
        x = ad.concat([ad.leaf(enc.params["cls"][None, :]), v], axis=0)
        for l in range(cfg.layers):
            x = enc.block(x, l)
        cls = ad.slice_along(x, 0, 0, 1)
        logit = ad.matmul(cls, ad.reshape(views["w"], (cfg.dim, 1)))
        return ad.bce_with_logits(logit, data)

    pv = ad.ParamVector({"visuals": visuals0, "w": w0})
    report = ad.grad_check(graph, pv, y, step=1e-5)
    assert report["max_rel_error"] < 1e-5, report


# ---------------------------------------------------------------------------
# 10: masked pooling suppresses variance proportionally to mask size
# ---------------------------------------------------------------------------

def test_pooled_variance_ratio_tracks_mask_size():
    n_tokens, dim, trials = 16, 4, 10_000
    rng = np.random.default_rng(7)
    for m in (2, 4, 8):
        mask = np.zeros(n_tokens)
        mask[rng.choice(n_tokens, size=m, replace=False)] = 1.0
        pooled = np.empty((trials, dim))
        for t in range(trials):
            pooled[t] = rg.pool(rng.normal(size=(n_tokens, dim)), mask)
        ratio = pooled.var(axis=0).mean()  # single-token variance is 1
        assert 0.5 / m <= ratio <= 2.0 / m, (m, ratio)


# ---------------------------------------------------------------------------
# 11: phase segmentation
# ---------------------------------------------------------------------------

def test_phase_boundaries_recovered_within_three_steps():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        plateau = int(rng.integers(20, 40))
        rise = int(rng.integers(15, 30))
        decay = int(rng.integers(20, 40))
        a = np.full(plateau, 1e-3)
        b = np.exp(np.linspace(np.log(1e-3), 0.0, rise))
        c = np.exp(np.linspace(0.0, np.log(1.0 / 40), decay))
        v = np.concatenate([a, b, c])
        v = v * np.exp(rng.normal(scale=0.02, size=v.size))
        trace = dg.phase_detect(v)
        r, d = trace.phase_boundaries
        assert r is not None and abs(r - plateau) <= 3, (seed, r, plateau)
        assert d is not None and abs(d - (plateau + rise)) <= 3, (seed, d)


def test_collapsed_run_never_leaves_the_first_phase():
    cfg = _bifurcation_config(LOW_SIGNAL_TASK, 1.95, 0.05, seed=0)
    res = hn.run_train(cfg)
    assert res.collapsed
    assert len(res.estimates) >= 10
    assert res.gsnr_trace.phase_boundaries == (None, None)
    assert res.gsnr_trace.bottleneck_step is not None
