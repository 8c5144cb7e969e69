"""Orchestration-layer checks: AUC metrics, config round trips, the feature
pipeline, the quadratic probe surrogate, the problem seam, training runs
with report emission, collapse sweeps, and the verification campaign."""

import ast
import json
import tracemalloc
import warnings
import weakref
from collections import Counter
from dataclasses import asdict, astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from corlab import diagnostics as dg
from corlab import harness as hn
from corlab import model as md
from corlab import optim as op
from corlab import softmaxreg as sr
from corlab import tasks as tk


def bifurcation_config(n_train=200, **kw):
    """Small whitened artifact task whose probe collapses near rho ~ 0.05.
    A corit head (256 features at l_mid 1) needs n_train > 256 to whiten."""
    defaults = dict(
        task=tk.TaskSpec(artifact_amp=30.0, artifact_region="boundary",
                         n_train=n_train, n_test=200, seed=0),
        encoder=md.EncoderConfig(layers=2),
        loss="quadratic", standardize="whiten", lr_relative=1.95,
        optimizer=op.SamConfig(rho=0.05, learning_rate=1.0, batch_size=500,
                               steps=150, seed=0))
    defaults.update(kw)
    return hn.RunConfig(**defaults)


# -- AUC ---------------------------------------------------------------------

def test_auc_hand_oracles():
    assert hn.compute_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert hn.compute_auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0
    assert hn.compute_auc([0.1, 0.7, 0.3, 0.9], [0, 0, 1, 1]) == 0.75
    # all scores tied: average ranks give exactly chance level
    assert hn.compute_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(2, 4000), st.sampled_from(["ties", "heavy", "near", "normal"]),
       st.integers(0, 2**32 - 1))
def test_auc_matches_pairwise_count_on_random_data(n, kind, seed):
    # both sides are exact in float64: half-integer rank sums and half-integer
    # win counts, divided once by the same pair count
    rng = np.random.default_rng(seed)
    if kind == "ties":
        scores = rng.integers(0, 6, size=n).astype(float)
    elif kind == "heavy":           # signed zeros, infinities and rounded draws
        heavy = rng.choice([-0.0, 0.0, 1.0, -2.5, np.inf, -np.inf], size=n)
        scores = np.where(rng.random(n) < 0.5, heavy, np.round(rng.normal(size=n), 1))
    elif kind == "near":
        # pairs of one negative and one positive, each moved up to two float
        # steps either way from a shared base: exact ties and adjacent floats
        # around the signed zeros, the smallest denormals and the infinities
        bases = [-0.0, 0.0, 5e-324, -5e-324, 1.0, -2.5, np.inf, -np.inf]
        scores = np.repeat(rng.choice(bases, size=(n + 1) // 2), 2)[:n]
        for _ in range(2):
            move = rng.integers(-1, 2, size=n)
            with np.errstate(over="ignore", under="ignore"):   # the largest float steps to inf
                scores = np.where(move == 0, scores,
                                  np.nextafter(scores, np.where(move > 0, np.inf, -np.inf)))
        labels = np.repeat(rng.integers(0, 2, size=(n + 1) // 2), 2)[:n]
        labels[1::2] ^= 1
    else:
        scores = rng.normal(size=n)
    if kind != "near":
        labels = rng.integers(0, 2, size=n)
    assume(labels.min() != labels.max())
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    assert hn.compute_auc(scores, labels) == wins / (pos.size * neg.size)


def test_auc_input_validation():
    with pytest.raises(ValueError):
        hn.compute_auc([0.1, 0.2], [1, 1])
    with pytest.raises(ValueError):
        hn.compute_auc([[0.1], [0.2]], [0, 1])
    # NaN scores and labels outside {0, 1} fail rather than read as a rank
    # or a negative; infinite scores are ordinary scores
    for scores, labels in (([np.nan, 0.1], [1, 0]), ([0.1, np.nan], [1, 0]),
                           ([0.3, 0.1, 0.2], [1, 0, 2]),
                           ([0.3, 0.1, 0.2], [1, 0, 0.5]),
                           ([0.3, 0.1, 0.2], [1, 0, -1])):
        with pytest.raises(ValueError):
            hn.compute_auc(scores, labels)
    assert hn.compute_auc([np.inf, -np.inf, 0.0], [1, 0, 1]) == 1.0


def pairwise_aucs(Z, labels):
    """Each column's share of (positive, negative) pairs in order, a tie
    counting one half, counted pair by pair."""
    pos, neg = Z[labels == 1][:, None, :], Z[labels == 0][None, :, :]
    wins = (pos > neg).sum(axis=(0, 1)) + 0.5 * (pos == neg).sum(axis=(0, 1))
    return list(wins / (pos.shape[0] * neg.shape[1]))


def test_block_aucs_match_compute_auc_and_the_pairwise_count():
    # the block sorts keys for all columns and counts a column with a near
    # tie (an exact tie or two adjacent floats) on its own, so the columns
    # cover both paths: no ties, many ties, one tie at either end of the
    # sorted negatives, all scores equal, infinite scores, adjacent floats
    # of opposite labels with no exact tie, and one tie of -0.0 with +0.0
    rng = np.random.default_rng(3)
    n = 301
    labels = rng.integers(0, 2, size=n)
    pos, neg = np.flatnonzero(labels == 1), np.flatnonzero(labels == 0)
    Z = rng.normal(size=(n, 8))
    Z[:, 1] = rng.integers(0, 4, size=n)
    Z[pos[7], 2] = Z[neg, 2].max()
    Z[pos[8], 3] = Z[neg, 3].min()
    Z[:, 4] = 0.7
    Z[rng.random(n) < 0.3, 5] = np.inf
    Z[rng.random(n) < 0.3, 5] = -np.inf
    # a float whose order key is even and the next float up share all but
    # the lowest bit of their keys; the positive is the lower one, then the
    # upper one
    for lo, hi, x in ((pos[3], neg[5], 1.5), (neg[6], pos[4], np.nextafter(-0.25, -1))):
        Z[lo, 6], Z[hi, 6] = x, np.nextafter(x, np.inf)
    assert len(np.unique(Z[:, 6])) == n
    Z[pos[9], 7], Z[neg[9], 7] = -0.0, 0.0
    got = hn._aucs(Z, labels)
    assert got == [hn.compute_auc(z, labels) for z in Z.T] == pairwise_aucs(Z, labels)
    assert got[4] == 0.5
    assert all(type(a) is float for a in got)
    assert hn._aucs(Z, labels.astype(np.float64)) == got


def test_block_aucs_input_validation():
    Z = np.array([[0.3, 0.1], [0.1, 0.2], [0.2, 0.4]])
    for labels in ([1, 0, 2], [1, 0, 0.5], [1, 1, 1], [0, 0, 0], [1, 0], [[1, 0, 1]]):
        with pytest.raises(ValueError):
            hn._aucs(Z, labels)
    for col in (0, 1):             # a NaN in any column fails the whole block
        bad = Z.copy()
        bad[1, col] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            hn._aucs(bad, [1, 0, 1])
    with pytest.raises(ValueError):
        hn._aucs(Z[:, 0], [1, 0, 1])


# -- config ----------------------------------------------------------------------

def test_run_config_json_round_trip_is_exact():
    cfg = bifurcation_config(cadence=17, alpha=0.6, l_mid=1,
                             head="corit",
                             counterpart=tk.CounterpartOp(perturb_amp=2.5,
                                                          target_channels=(1, 2)))
    back = hn.RunConfig.from_json(json.dumps(cfg.to_dict()))
    assert back == cfg
    assert isinstance(back.task.artifact_channels, tuple)
    assert isinstance(back.counterpart.target_channels, tuple)


def test_run_config_validation():
    with pytest.raises(ValueError):
        hn.RunConfig(head="mlp")
    with pytest.raises(ValueError):
        hn.RunConfig(loss="hinge")
    # whitening is the one transform; a config that names another is refused
    for bad in ("center", "zscore"):
        with pytest.raises(ValueError, match="standardize"):
            hn.RunConfig(standardize=bad)
    with pytest.raises(ValueError):
        hn.RunConfig(cadence=0)
    # integers must be integers (not bool), floats finite; the field is named
    for bad in (2.5, True, 3.0):
        with pytest.raises(ValueError, match="cadence"):
            hn.RunConfig(cadence=bad)
        with pytest.raises(ValueError, match="l_mid"):
            hn.RunConfig(head="corit", l_mid=bad)
        with pytest.raises(ValueError, match="layers"):
            md.EncoderConfig(layers=bad)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="layers"):
            md.EncoderConfig(layers=bad)
    for bad in (np.nan, np.inf, -0.5):
        with pytest.raises(ValueError, match="alpha"):
            hn.RunConfig(head="corit", alpha=bad)
    for name in ("noise_sigma", "semantic_amp", "artifact_amp"):
        with pytest.raises(ValueError, match=name):
            tk.TaskSpec(**{name: np.nan})
    for name in ("dim", "heads", "visual_tokens"):
        for bad in (0, -1, 2.5, True, 4.0):
            with pytest.raises(ValueError, match=name):
                md.EncoderConfig(**{name: bad})
    for bad in ("no", 1, None):
        with pytest.raises(ValueError, match="semantic_bias"):
            md.EncoderConfig(semantic_bias=bad)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="bias_attenuation"):
            md.EncoderConfig(bias_attenuation=bad)
    for name in ("n_train", "n_test"):
        for bad in (1, 0, 2.5, True, 200.0):
            with pytest.raises(ValueError, match=name):
                tk.TaskSpec(**{name: bad})
    tk.TaskSpec(n_train=2, n_test=2)
    # seeds are integers >= 0 and channel entries integers, with no bool or
    # string coerced; regions are grid labels on a square token grid
    for cls in (tk.TaskSpec, md.EncoderConfig, tk.CounterpartOp, op.SamConfig):
        for bad in (1.5, -1, "3", True):
            with pytest.raises(ValueError, match="seed"):
                cls(seed=bad)
    for bad in ((24.7,), ("25",), (True,), (24, np.float64(25.0)), (24, 24, 25)):
        with pytest.raises(ValueError, match="artifact_channels"):
            tk.TaskSpec(artifact_channels=bad)
        with pytest.raises(ValueError, match="target_channels"):
            tk.CounterpartOp(target_channels=bad)
        with pytest.raises(ValueError, match="bias_channels"):
            md.EncoderConfig(bias_channels=bad)
    assert tk.TaskSpec(artifact_channels=[np.int64(24)]).artifact_channels == (24,)
    with pytest.raises(ValueError, match="artifact_region"):
        tk.TaskSpec(artifact_region="foregrond")
    with pytest.raises(ValueError, match="target_region"):
        tk.CounterpartOp(target_region="foregrond")
    for bad in (15, 8, 16.0, 0):
        with pytest.raises(ValueError, match="n_tokens"):
            tk.TaskSpec(n_tokens=bad)
    # float fields take real numbers only
    for cls, name in ((tk.TaskSpec, "semantic_amp"), (tk.TaskSpec, "artifact_amp"),
                      (tk.TaskSpec, "noise_sigma"), (tk.CounterpartOp, "perturb_amp"),
                      (md.EncoderConfig, "bias_attenuation"), (hn.RunConfig, "alpha")):
        for bad in (True, "1", None):
            with pytest.raises(ValueError, match=name):
                cls(**{name: bad})
    for bad in (True, "1.95"):
        with pytest.raises(ValueError, match="lr_relative"):
            hn.RunConfig(loss="quadratic", lr_relative=bad)
    with pytest.raises(ValueError, match="perturb_amp"):
        tk.CounterpartOp(perturb_amp=np.nan)
    with pytest.raises(ValueError):
        hn.RunConfig(loss="bce", lr_relative=1.0)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            hn.RunConfig(loss="quadratic", lr_relative=bad)
    # task and encoder must agree on the token grid and width, and the corit
    # head needs a middle layer, all before any task is generated
    for head in hn.HEAD_MODES:
        with pytest.raises(ValueError, match="n_tokens"):
            hn.RunConfig(head=head, task=tk.TaskSpec(n_tokens=25))
        with pytest.raises(ValueError, match="task.dim"):
            hn.RunConfig(head=head, task=tk.TaskSpec(dim=16, artifact_channels=(15,)))
    enc = md.EncoderConfig(layers=3)
    for bad in (0, 3, 4, -1):
        with pytest.raises(ValueError, match="l_mid"):
            hn.RunConfig(head="corit", encoder=enc, l_mid=bad)
    for ok in (1, 2):
        hn.RunConfig(head="corit", encoder=enc, l_mid=ok)
    # a counterpart that perturbs nothing leaves the corit head nothing to
    # inject; the plain head never applies it
    for idle in (tk.CounterpartOp(target_channels=()), tk.CounterpartOp(perturb_amp=0.0)):
        with pytest.raises(ValueError, match="counterpart"):
            hn.RunConfig(head="corit", encoder=enc, l_mid=1, counterpart=idle)
        hn.RunConfig(head="plain-probe", counterpart=idle)
    # plain heads never read l_mid
    hn.RunConfig(head="plain-probe", encoder=md.EncoderConfig(layers=2), l_mid=4)
    narrow = dict(task=tk.TaskSpec(n_tokens=25, dim=16, artifact_channels=(8, 15)),
                  encoder=md.EncoderConfig(visual_tokens=25, dim=16))
    hn.RunConfig(**narrow, counterpart=tk.CounterpartOp(target_channels=(0, 15)))
    # channel indices must lie in [0, dim), checked before any task is
    # generated; the counterpart's against the task's width
    with pytest.raises(ValueError, match="counterpart.target_channels"):
        hn.RunConfig(**narrow)          # the default targets are 24-31
    with pytest.raises(ValueError, match="counterpart.target_channels"):
        hn.RunConfig(counterpart=tk.CounterpartOp(target_channels=(-1,)))
    with pytest.raises(ValueError, match="artifact_channels"):
        tk.TaskSpec(artifact_channels=(32,))
    for bad in ((40,), (-1,), (0, 32)):
        with pytest.raises(ValueError, match="bias_channels"):
            md.EncoderConfig(semantic_bias=True, bias_channels=bad)
    md.EncoderConfig(semantic_bias=True, bias_channels=(0, 31))


@pytest.mark.parametrize("module, owners", [
    # the engine is the array API of the encoder blocks; every other module
    # is closed-form numpy
    ("autodiff", {"model"}),
    # the integer and real field rules have one owner; every config calls it
    ("numbers", {"fields"}),
    # measurement code with no file I/O; harness runs it and writes its reports
    ("diagnostics", {"harness"}),
], ids=["autodiff", "numbers", "diagnostics"])
def test_only_owners_import(module, owners):
    # the package's __init__ re-exports every module and is left out
    importers = set()
    for path in Path(hn.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(n.split(".")[-1] == module for n in names):
                importers.add(path.stem)
    assert importers == owners


def test_only_optim_knows_the_probe_layout():
    # `op.probe_logits` owns the [weights..., bias] order; any other module
    # that slices it out would break on a probe with another layout.  The
    # harness reaches logits and curvature only through the problem, so it
    # names neither the probe's logits nor a dense eigensolver
    sources = {path.stem: path.read_text() for path in Path(hn.__file__).parent.glob("*.py")}
    assert {stem for stem, text in sources.items() if "w[:-1]" in text} == {"optim"}
    assert "probe_logits" not in sources["harness"] and "eigvalsh" not in sources["harness"]


def test_every_public_name_is_reached_outside_the_tests():
    """Every public top-level function and class of `src/corlab`, and every
    public method, is referenced from outside `tests/`: from `src` itself,
    from `bench/` or from `tests/test_acceptance.py`.  A reference is a name,
    an attribute, an imported name or a string constant (the bench's hooks
    name their targets as strings); references inside the definition itself,
    such as a recursive call, do not count.  Matching is by name, so a method
    shares its reach with every other method, function or attribute of the
    same name.  No public name is exempt: a reference that only the tests
    need, such as the engine's Hessian-vector product, lives under `tests/`."""
    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name.rsplit(".", 1)[-1]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield node.value

    src = sorted(Path(hn.__file__).parent.glob("*.py"))
    root = Path(hn.__file__).parents[2]
    refs = Counter()
    for path in [*src, *sorted((root / "bench").glob("*.py")),
                 root / "tests" / "test_acceptance.py"]:
        refs.update(names(ast.parse(path.read_text())))
    public, unreached = set(), set()
    for path in src:
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in (node, *members):
                if (isinstance(d, (ast.FunctionDef, ast.ClassDef))
                        and not d.name.startswith("_")):
                    name = ".".join([path.stem, node.name] + [d.name] * (d is not node))
                    public.add(name)
                    if refs[d.name] == Counter(names(d))[d.name]:
                        unreached.add(name)
    assert {"optim._Problem.curvature", "optim.probe_logits"} <= public and len(public) > 100
    assert unreached == set()


# -- feature pipeline ---------------------------------------------------------------

@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.integers(10, 50), st.floats(0.1, 100.0),
       st.floats(0.1, 100.0), st.integers(0, 2**32 - 1))
def test_whitening_produces_identity_covariance(d, per_dim, lo, hi, seed):
    # a full-rank input: at least 10 samples per feature, feature scales in
    # [0.1, 100] under a random rotation, plus a random offset
    rng = np.random.default_rng(seed)
    n = per_dim * d
    rot = np.linalg.qr(rng.normal(size=(d, d)))[0]
    scales = np.exp(rng.uniform(np.log(min(lo, hi)), np.log(max(lo, hi)), size=d))
    F = rng.normal(size=(n, d)) @ np.diag(scales) @ rot + rng.normal(scale=10.0, size=d)
    raw = F.copy()
    std = hn.fit_standardizer(F)
    W = std.apply(F)
    assert np.allclose(W.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(np.cov(W, rowvar=False), np.eye(d), atol=1e-3)
    # the fit's covariance is np.cov's, bit for bit; the apply goes a row
    # block at a time, bit for bit the one product, at n and at 2 blocks
    # plus one row; neither fit nor apply writes F
    evals, evecs = np.linalg.eigh(np.cov(F - F.mean(axis=0), rowvar=False)
                                  + hn.WHITEN_RIDGE * np.eye(d))
    assert std.transform.tobytes() == ((evecs * evals ** -0.5) @ evecs.T).tobytes()
    G = np.resize(F, (2 * hn._WHITEN_ROWS + 1, d))
    for X in (F, G):
        assert std.apply(X).tobytes() == ((X - std.mean) @ std.transform).tobytes()
    assert F.tobytes() == raw.tobytes()


@pytest.mark.parametrize("n, d", [(10, 10), (5, 12), (200, 256)])
def test_whitening_refuses_rank_deficient_features(n, d):
    # n samples span at most n - 1 centered directions, and a repeated
    # column leaves one direction empty at any n: the ridge would scale an
    # empty direction by ~1,000 instead of whitening it
    rng = np.random.default_rng(n + d)
    F = rng.normal(size=(n, d))
    G = rng.normal(size=(10 * d, d))
    G[:, -1] = G[:, 0]
    for deficient in (F, G):
        with pytest.raises(ValueError, match=f"standardize 'whiten'.* {d} features"):
            hn.fit_standardizer(deficient)
    hn.fit_standardizer(rng.normal(size=(d + 1, d)))


def test_build_features_standardizer_is_fit_on_train_only():
    cfg = bifurcation_config()
    feats = hn.build_features(cfg)
    assert np.allclose(feats.train.mean(axis=0), 0.0, atol=1e-10)
    # the test split goes through the train-fit transform, so its mean
    # is close to but not exactly zero
    assert not np.allclose(feats.test.mean(axis=0), 0.0, atol=1e-12)
    assert feats.train.shape[0] == 200
    assert set(np.unique(feats.train_labels)) == {0.0, 1.0}


def test_corit_head_features_have_fused_width():
    cfg = bifurcation_config(head="corit", l_mid=1, n_train=300)
    feats = hn.build_features(cfg)
    # [CLS + 3 region tokens] x dim x two layers
    assert feats.train.shape == (300, 2 * 4 * 32)


@pytest.mark.parametrize("head", hn.HEAD_MODES)
def test_standardizer_input_holds_no_memory_beyond_its_own(monkeypatch, head):
    # a view into the split's (L+1, S, 1+K, D) heads would keep them alive
    # through the test split's encoding and the standardizer fit; and the raw
    # train features are freed before the test split is generated
    roots, test_reads, fit, generate = [], [], hn.fit_standardizer, tk.generate

    def fit_spy(F):
        root = F
        while root.base is not None:
            root = root.base
        roots.append((root.nbytes == F.nbytes, weakref.ref(root)))
        return fit(F)

    def generate_spy(spec, split, *rng):
        if split == "test":
            test_reads.append(roots[0][1]() is None)
        return generate(spec, split, *rng)

    monkeypatch.setattr(hn, "fit_standardizer", fit_spy)
    monkeypatch.setattr(tk, "generate", generate_spy)
    hn.build_features(bifurcation_config(head=head, l_mid=1, n_train=300))
    assert [own for own, _ in roots] == [True]
    assert test_reads and all(test_reads)


@pytest.mark.parametrize("head", ["plain-probe", "corit"])
def test_build_features_are_exact_under_any_worker_count(monkeypatch, head):
    # the encoder's sample blocks run on as many workers as there are cores;
    # the feature arrays must not depend on how many that is
    cfg = bifurcation_config(head=head, l_mid=1, n_train=300)
    built = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(md, "_WORKERS", workers)
        built.append(hn.build_features(cfg))
    for feats in built[1:]:
        for got, want in zip(astuple(feats), astuple(built[0])):
            assert np.array_equal(got, want)


def test_build_features_peak_memory_does_not_grow_with_the_split(monkeypatch):
    # each encoder block generates its own samples, so on one worker a split
    # of eight blocks peaks above one of two blocks by its extra feature and
    # label bytes alone; a whole split's tokens would add 4 KiB a sample
    monkeypatch.setattr(md, "_WORKERS", 1)
    block = md._BLOCK_SAMPLES

    def peak(n_train: int) -> int:
        cfg = bifurcation_config(n_train=n_train)
        tracemalloc.start()
        try:
            hn.build_features(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2 * block)     # first calls in a process allocate once for good
    grown = peak(8 * block) - peak(2 * block)
    extra = (8 - 2) * block * (32 + 1) * 8     # (n, 32) features, (n,) labels
    assert grown <= extra + 16 * 1024, (grown, extra)


# -- quadratic surrogate --------------------------------------------------------------

def test_surrogate_matches_probe_gradients_at_init():
    rng = np.random.default_rng(2)
    F = rng.normal(size=(40, 5))
    y = rng.integers(0, 2, size=40).astype(np.float64)
    probe = op.LogisticProbeProblem(F, y)
    surro = hn.quadratic_surrogate(F, y)
    w0 = np.zeros(6)
    assert np.allclose(surro.per_sample_grads(w0),
                       probe.per_sample_grads(w0), atol=1e-9)
    _, g_probe = probe.loss_and_grad(w0)
    _, g_surro = surro.loss_and_grad(w0)
    assert np.allclose(g_probe, g_surro, atol=1e-9)
    # curvature is the probe Hessian at the zero probe (sigmoid slope 1/4)
    assert np.allclose(surro.A, probe.dense_hessian(w0), atol=1e-12)


def test_surrogate_on_whitened_features_is_nearly_isotropic():
    feats = hn.build_features(bifurcation_config())
    surro = hn.quadratic_surrogate(feats.train, feats.train_labels)
    evals = np.linalg.eigvalsh(surro.A)
    assert evals.max() / evals.min() < 1.5


@pytest.mark.parametrize("head, width", [("plain-probe", 33), ("corit", 257)])
def test_zero_init_curvature_on_whitened_features_is_a_ruler(monkeypatch, head, width):
    # at w = 0 the probe Hessian is aug^T aug / (4 n) with centered features,
    # so its top eigenvalue is the bias direction's 1/4, and its trace counts
    # the whitened covariance eigenvalues (n - 1)/n * lam / (lam + ridge) of
    # the raw features' eigenvalues lam, plus the bias
    raw = []
    fit = hn.fit_standardizer
    monkeypatch.setattr(hn, "fit_standardizer",
                        lambda F: raw.append(F) or fit(F))
    cfg = bifurcation_config(head=head, l_mid=1,
                             task=tk.TaskSpec(artifact_amp=30.0, artifact_region="boundary",
                                              n_train=600, n_test=20, seed=0))
    feats = hn.build_features(cfg)
    n = feats.train.shape[0]
    H = op.LogisticProbeProblem(feats.train, feats.train_labels).dense_hessian(np.zeros(width))
    assert H.shape == (width, width)
    assert abs(np.linalg.eigvalsh(H).max() - 0.25) <= 1e-12
    lam = np.linalg.eigvalsh(np.cov(raw[0], rowvar=False))
    ruler = ((n - 1) / n * np.sum(lam / (lam + hn.WHITEN_RIDGE)) + 1) / 4
    assert np.trace(H) == pytest.approx(ruler, rel=1e-10, abs=0)


def test_effective_lr_scales_by_top_curvature():
    cfg = bifurcation_config(lr_relative=1.0)
    feats = hn.build_features(cfg)
    problem = hn._make_problem(cfg, feats)
    lr = hn._effective_lr(cfg, problem)
    lam = np.linalg.eigvalsh(problem.A).max()
    assert lr * lam == pytest.approx(1.0)
    plain = bifurcation_config(lr_relative=None)
    assert hn._effective_lr(plain, problem) == plain.optimizer.learning_rate


# -- the problem seam: harness reaches the model only through the problem ------------

class NegatedLogits(op.LogisticProbeProblem):
    """The probe with its logits negated; it trains the probe's weights."""

    def logits(self, W, X):
        return -op.probe_logits(W, X)


class FixedCurvature(op.LogisticProbeProblem):
    def curvature(self, w):
        return 2.5, 7.0


class QuadraticDouble(op.QuadraticProblem):
    """An identity-curvature quadratic that reports the curvature it is given."""

    def __init__(self, fs, pair):
        super().__init__(np.eye(fs.train.shape[1] + 1),
                         np.c_[fs.train, 2.0 * fs.train_labels - 1.0])
        self.pair = pair

    def curvature(self, w):
        return self.pair


def small_bce_config(**kw):
    return bifurcation_config(loss="bce", lr_relative=None, **kw,
                              optimizer=op.SamConfig(rho=0.05, learning_rate=1e-2,
                                                     batch_size=20, steps=30))


def test_run_train_reads_logits_only_through_the_problem(monkeypatch):
    # every AUC of the run and of the sweep's collapse probe is the AUC of
    # the double's logits, not of the linear probe the double wraps
    cfg = small_bce_config()
    feats = hn.build_features(cfg)
    monkeypatch.setattr(hn, "_make_problem",
                        lambda config, fs: NegatedLogits(fs.train, fs.train_labels))
    res = hn.run_train(cfg, feats=feats)
    ws = []
    w, _ = op.run(op.LogisticProbeProblem(feats.train, feats.train_labels), cfg.optimizer,
                  lambda t, w, rec: ws.append(w))
    assert np.array_equal(res.weights, w)
    aucs = [hn.compute_auc(-op.probe_logits(w, feats.train), feats.train_labels)
            for w in ws]
    window = hn._collapse_window(cfg.optimizer.steps)
    assert [m.train_auc_window for m in res.steps] == [
        float(np.mean(aucs[max(0, t + 1 - window):t + 1])) for t in range(len(ws))]
    assert res.train_auc == hn.compute_auc(-op.probe_logits(res.weights, feats.train),
                                           feats.train_labels) < 0.5
    assert res.test_auc == hn.compute_auc(-op.probe_logits(res.weights, feats.test),
                                          feats.test_labels)
    assert hn._collapse_stat(hn._make_problem(cfg, feats), feats, cfg.optimizer) == (
        res.train_auc_window, res.train_auc, res.test_auc)


def test_snapshots_read_curvature_only_through_the_problem(monkeypatch):
    cfg = small_bce_config(cadence=7)
    monkeypatch.setattr(hn, "_make_problem",
                        lambda config, fs: FixedCurvature(fs.train, fs.train_labels))
    res = hn.run_train(cfg)
    assert [e.step for e in res.estimates] == [0, 7, 14, 21, 28]
    assert {(e.lambda_max, e.trace_h) for e in res.estimates} == {(2.5, 7.0)}


def test_effective_lr_reads_curvature_only_through_the_problem(monkeypatch):
    # the double's Hessian is the identity, so only its curvature can give 4
    cfg = bifurcation_config(lr_relative=1.5)
    monkeypatch.setattr(hn, "_make_problem", lambda config, fs: QuadraticDouble(fs, (4.0, 9.0)))
    lrs, run = [], op.run

    def spy(problem, ocfg, observe=None):
        lrs.append(ocfg.learning_rate)
        return run(problem, ocfg, observe)

    monkeypatch.setattr(op, "run", spy)
    feats = hn.build_features(cfg)
    problem = hn._make_problem(cfg, feats)
    assert hn._effective_lr(cfg, problem) == 1.5 / 4.0
    hn.run_train(cfg, feats=feats)
    assert lrs == [1.5 / 4.0]
    # a curvature that is NaN, as for a Hessian that is not finite, fails loudly
    for lam in (float("nan"), 0.0, -1.0):
        with pytest.raises(ValueError, match="not positive"):
            hn._effective_lr(cfg, QuadraticDouble(feats, (lam, 9.0)))


# -- training runs --------------------------------------------------------------------

def test_run_train_is_deterministic_and_emits_reports(tmp_path):
    cfg = bifurcation_config(optimizer=op.SamConfig(rho=0.01, learning_rate=1.0,
                                                    batch_size=500, steps=60,
                                                    seed=0))
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    r1 = hn.run_train(cfg, out_dir=str(out1))
    r2 = hn.run_train(cfg, out_dir=str(out2))
    assert np.array_equal(r1.weights, r2.weights)
    for name in ("steps.csv", "diagnostics.json", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    lines = (out1 / "steps.csv").read_text().splitlines()
    assert lines[0] == "step,loss,train_auc_window,grad_norm,gsnr"
    assert len(lines) == 61
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["train_auc"] == r1.train_auc
    assert not summary["failed"]
    diag = json.loads((out1 / "diagnostics.json").read_text())
    assert len(diag["estimates"]) == len(r1.estimates)


def test_run_train_bifurcation_collapse_and_recovery():
    cfg = bifurcation_config()
    feats = hn.build_features(cfg)
    hi = hn.run_train(cfg, feats=feats)
    lo = hn.run_train(replace(cfg, optimizer=replace(cfg.optimizer, rho=0.01)),
                      feats=feats)
    assert hi.collapsed and hi.train_auc_window < 0.55
    assert not lo.collapsed and lo.train_auc_window > 0.9
    assert lo.test_auc > 0.85

    # the sweep's collapse probe runs the same loop: on either side of the
    # boundary it reports exactly run_train's window, train and test AUC
    problem = hn._make_problem(cfg, feats)
    ocfg = replace(cfg.optimizer, learning_rate=hn._effective_lr(cfg, problem))
    for res in (hi, lo):
        rho = res.config.optimizer.rho
        assert hn._collapse_stat(problem, feats, replace(ocfg, rho=rho)) == (
            res.train_auc_window, res.train_auc, res.test_auc)


def test_run_train_gsnr_matches_per_sample_matrix():
    # the observer shares one logits pass between the AUC and the gradient
    # moments: along the same trajectory, the per-step GSNR equals the one
    # from the (M, P) per-sample gradient matrix, and the window AUC is the
    # trailing-window mean of the full-train AUC, exactly
    quad = bifurcation_config(optimizer=op.SamConfig(rho=0.05, learning_rate=1.0,
                                                     batch_size=500, steps=30))
    bce = bifurcation_config(loss="bce", lr_relative=None,
                             optimizer=op.SamConfig(rho=0.05, learning_rate=1e-2,
                                                    batch_size=20, steps=30))
    sgd = replace(bce, optimizer=replace(bce.optimizer, rho=0.0, steps=45))
    for cfg in (quad, bce, sgd):
        feats = hn.build_features(cfg)
        res = hn.run_train(cfg, feats=feats)
        problem = hn._make_problem(cfg, feats)
        ocfg = replace(cfg.optimizer, learning_rate=hn._effective_lr(cfg, problem))
        ws = []
        op.run(problem, ocfg, lambda t, w, rec: ws.append(w))
        ref = [dg.gsnr(problem.per_sample_grads(w)) for w in ws]
        assert np.allclose([m.gsnr for m in res.steps], ref, rtol=1e-12, atol=0.0)
        window = ocfg.steps // 10
        aucs = [hn.compute_auc(feats.train @ w[:-1] + w[-1], feats.train_labels)
                for w in ws]
        means = [float(np.mean(aucs[max(0, t + 1 - window):t + 1]))
                 for t in range(len(ws))]
        assert [m.train_auc_window for m in res.steps] == means
        assert res.train_auc_window == means[-1]


def test_bce_run_peak_memory_grows_less_than_one_feature_copy_with_width():
    # the probe reads its features in place: neither the run nor a curvature
    # snapshot holds an (n, P) array, so from 32 to 256 features a run's
    # peak grows by less than one (n, 256) float64 array
    cfg = small_bce_config(cadence=20)
    n = 2000
    rng = np.random.default_rng(0)

    def peak(width: int) -> int:
        feats = hn.FeatureSet(rng.normal(size=(n, width)), rng.normal(size=(50, width)),
                              np.arange(n) % 2.0, np.arange(50) % 2.0)
        tracemalloc.start()
        try:
            res = hn.run_train(cfg, feats=feats)
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [e.step for e in res.estimates] == [0, 20]      # two snapshots
        return top

    peak(32)            # first calls in a process allocate once for good
    grown = peak(256) - peak(32)
    assert grown < n * 256 * 8, grown


def test_snapshot_gsnr_equals_steps_csv_gsnr(tmp_path):
    # one source for each step's GSNR: the snapshot reads the observer's
    # gradient moments, so both reports hold the same float at every
    # snapshot step
    quad = bifurcation_config(cadence=7, optimizer=op.SamConfig(
        rho=0.05, learning_rate=1.0, batch_size=500, steps=30))
    bce = bifurcation_config(loss="bce", lr_relative=None, cadence=7,
                             optimizer=op.SamConfig(rho=0.05, learning_rate=1e-2,
                                                    batch_size=20, steps=30))
    for name, cfg in (("quad", quad), ("bce", bce)):
        out = tmp_path / name
        hn.run_train(cfg, out_dir=str(out))
        rows = (out / "steps.csv").read_text().splitlines()[1:]
        csv_gsnr = {int(r.split(",")[0]): float(r.split(",")[-1]) for r in rows}
        estimates = json.loads((out / "diagnostics.json").read_text())["estimates"]
        assert [e["step"] for e in estimates] == [0, 7, 14, 21, 28]
        assert [e["gsnr"] for e in estimates] == [csv_gsnr[e["step"]] for e in estimates]


def per_step_reference(cfg, feats):
    """The steps.csv columns of `cfg`'s run, step, loss, window AUC, gradient
    norm and GSNR, as lists, each step evaluated with its own GEMV; a
    failing step's moments may overflow."""
    problem = hn._make_problem(cfg, feats)
    ocfg = replace(cfg.optimizer, learning_rate=hn._effective_lr(cfg, problem))
    ws, recs = [], []
    op.run(problem, ocfg, lambda t, w, rec: (ws.append(w), recs.append(rec)))
    aucs, gsnrs = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for w in ws:
            z = op.probe_logits(w, feats.train)
            aucs.append(hn.compute_auc(z, feats.train_labels))
            g, tr_cov = problem.grad_moments(w[:, None], z[:, None])
            gsnrs.append(dg.signal_to_noise(float(g[:, 0] @ g[:, 0]), float(tr_cov[0])))
    window = max(1, ocfg.steps // 10)
    return ([r.step for r in recs], [r.loss for r in recs],
            [float(np.mean(aucs[max(0, t + 1 - window):t + 1])) for t in range(len(ws))],
            [r.grad_norm for r in recs], gsnrs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blocked_observer_matches_per_step_reference(tmp_path):
    # the observer evaluates a block of steps with one GEMM; a reference
    # that evaluates each step with its own GEMV reads the same window AUC
    # exactly and the same GSNR to rounding, over two full blocks and a
    # partial one
    steps = 2 * hn._OBSERVE_STEPS + 7
    quad = bifurcation_config(cadence=7, optimizer=op.SamConfig(
        rho=0.05, learning_rate=1.0, batch_size=500, steps=steps))
    bce = bifurcation_config(loss="bce", lr_relative=None, cadence=7,
                             optimizer=op.SamConfig(rho=0.05, learning_rate=1e-2,
                                                    batch_size=20, steps=steps))
    for name, cfg in (("quad", quad), ("bce", bce)):
        feats = hn.build_features(cfg)
        out = tmp_path / name
        res = hn.run_train(cfg, feats=feats, out_dir=str(out))
        _, _, windows, _, gsnrs = per_step_reference(cfg, feats)
        assert [m.train_auc_window for m in res.steps] == windows
        assert np.allclose([m.gsnr for m in res.steps], gsnrs, rtol=1e-12, atol=0.0)

        rows = (out / "steps.csv").read_text().splitlines()[1:]
        csv_gsnr = {int(r.split(",")[0]): float(r.split(",")[-1]) for r in rows}
        estimates = json.loads((out / "diagnostics.json").read_text())["estimates"]
        assert [e["step"] for e in estimates] == list(range(0, steps, 7))
        assert [e["gsnr"] for e in estimates] == [csv_gsnr[e["step"]] for e in estimates]

    # a run that fails inside its second block (at step 106, no snapshot
    # step) still writes the failing step's row, and its overflow stays out
    # of the warnings
    out = tmp_path / "failed"
    res = hn.run_train(replace(quad, lr_relative=30.0), out_dir=str(out))
    assert hn._OBSERVE_STEPS < res.failed_step < 2 * hn._OBSERVE_STEPS - 1
    rows = (out / "steps.csv").read_text().splitlines()[1:]
    assert len(rows) == res.failed_step + 1
    assert [int(r.split(",")[0]) for r in rows] == list(range(res.failed_step + 1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_failing_step_at_a_block_boundary_matches_per_step_reference(tmp_path):
    # this run fails at step 63, the last step of the first observed block,
    # so the block that holds its overflowing moments is flushed inside the
    # run rather than after it; no warning escapes, and every steps.csv row
    # matches a per-step reference, the failing step's inf row included
    cfg = bifurcation_config(cadence=7, lr_relative=300.0)
    feats = hn.build_features(cfg)
    res = hn.run_train(cfg, feats=feats, out_dir=str(tmp_path))
    assert res.failed_step == hn._OBSERVE_STEPS - 1
    ref = per_step_reference(cfg, feats)
    rows = (tmp_path / "steps.csv").read_text().splitlines()[1:]
    cols = [[float(c) for c in col] for col in zip(*(r.split(",") for r in rows))]
    assert ref[0] == list(range(hn._OBSERVE_STEPS))
    assert cols[:4] == [list(map(float, col)) for col in ref[:4]]
    assert np.allclose(cols[4], ref[4], rtol=1e-12, atol=0.0)
    assert np.isinf(cols[4][-1])


def test_run_train_failure_is_reported_not_raised():
    cfg = bifurcation_config(lr_relative=1e9)
    res = hn.run_train(cfg)
    assert res.failed
    assert res.failed_step is not None
    assert np.all(np.isfinite(res.weights))
    assert res.summary()["failed"] is True


def test_failed_step_leaves_no_snapshot_of_its_overflow():
    # this run diverges and fails at step 98 = 14 * 7, a snapshot step; the
    # overflowed moments of that step would read inf GSNR and COR, so no
    # snapshot is taken there and phase detection sees finite values only
    cfg = bifurcation_config(cadence=7, lr_relative=40.0)
    cfg = replace(cfg, optimizer=replace(cfg.optimizer, steps=135))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = hn.run_train(cfg)
    assert res.failed_step == 98
    assert [e.step for e in res.estimates] == list(range(0, 98, 7))
    for e in res.estimates:
        assert np.isfinite([e.grad_norm_sq, e.trace_cov, e.gsnr, e.cor_bound]).all()


def test_run_train_stochastic_mode_uses_batches():
    cfg = bifurcation_config(loss="bce", lr_relative=None,
                             optimizer=op.SamConfig(rho=0.0, learning_rate=1e-2,
                                                    batch_size=20, steps=40,
                                                    seed=0))
    res = hn.run_train(cfg)
    assert not res.failed
    assert len(res.steps) == 40
    assert res.steps[-1].loss < res.steps[0].loss


# -- sweeps ---------------------------------------------------------------------------

def test_sweep_rho_brackets_the_collapse_boundary():
    cfg = bifurcation_config()
    res = hn.sweep_rho(cfg, [0.005, 0.02, 0.08])
    assert [e.collapsed for e in res.entries] == [False, False, True]
    assert 0.02 < res.empirical_cor < 0.08
    assert res.monotone
    assert not res.all_collapsed and not res.none_collapsed

    # the bisected boundary separates collapse from recovery
    feats = hn.build_features(cfg)
    problem = hn._make_problem(cfg, feats)
    ocfg = replace(cfg.optimizer, learning_rate=hn._effective_lr(cfg, problem))
    below, _, _ = hn._collapse_stat(problem, feats,
                                    replace(ocfg, rho=0.8 * res.empirical_cor))
    above, _, _ = hn._collapse_stat(problem, feats,
                                    replace(ocfg, rho=1.2 * res.empirical_cor))
    assert below >= 0.55 and above < 0.55


def test_sweep_rho_degenerate_ranges_set_flags():
    cfg = bifurcation_config()
    res_all = hn.sweep_rho(cfg, [0.2, 0.3, 0.4])
    assert res_all.all_collapsed and res_all.empirical_cor == 0.2
    res_none = hn.sweep_rho(cfg, [0.001, 0.002, 0.003])
    assert res_none.none_collapsed and res_none.empirical_cor == 0.003
    # a probe run that diverges votes collapsed
    res_failed = hn.sweep_rho(bifurcation_config(lr_relative=300.0), [0.0, 0.01, 0.02],
                              seeds=(0,))
    assert res_failed.all_collapsed


def test_sweep_rho_failed_seeds_report_their_run_train_aucs():
    # every seed's run diverges at every rho; each entry's AUCs are the seed
    # mean of run_train's, from the last valid weights, not a made-up 0.5
    cfg = bifurcation_config(lr_relative=40.0)
    rhos = [0.0, 0.01, 0.02]
    res = hn.sweep_rho(cfg, rhos, seeds=(0, 1))
    assert res.all_collapsed
    for rho, entry in zip(rhos, res.entries):
        runs = [hn.run_train(replace(cfg, task=replace(cfg.task, seed=s),
                                     optimizer=replace(cfg.optimizer, rho=rho)))
                for s in (0, 1)]
        assert all(r.failed for r in runs)
        assert entry.train_auc == float(np.mean([r.train_auc for r in runs]))
        assert entry.test_auc == float(np.mean([r.test_auc for r in runs]))
        assert entry.train_auc != 0.5 and entry.test_auc != 0.5


def test_sweep_rho_rejects_bad_rho_lists():
    cfg = bifurcation_config()
    with pytest.raises(ValueError):
        hn.sweep_rho(cfg, [0.01, 0.02])
    with pytest.raises(ValueError):
        hn.sweep_rho(cfg, [0.02, 0.01, 0.03])


def test_sweep_rho_rejects_bad_rho_values_before_encoding(monkeypatch):
    # ascending lists of three whose values SamConfig rejects fail before
    # any seed's features are built
    def no_features(config):
        raise AssertionError("features built before the rhos were checked")

    monkeypatch.setattr(hn, "build_features", no_features)
    for rhos in ([0.01, float("nan"), 0.08], [0.0, 0.01, float("inf")], [-0.1, 0.0, 0.1]):
        with pytest.raises(ValueError, match="rho must be a finite number >= 0"):
            hn.sweep_rho(bifurcation_config(), rhos)
    # so does an empty seed list, which would vote on no runs at all, a
    # repeated seed, which would vote twice, and an offset that makes a task
    # seed negative
    for seeds, named in (((), "seed"), ((0, 0, 1), "seeds"), ((0, 1.0), "seeds"),
                         ((0, -1), "seed must be an integer >= 0")):
        with pytest.raises(ValueError, match=named):
            hn.sweep_rho(bifurcation_config(), [0.005, 0.02, 0.08], seeds=seeds)


def boundary_config(amp, n_train, loss, batch_size, learning_rate, steps, seed=0, **kw):
    """A whitened boundary-region artifact task at amplitude `amp`."""
    return hn.RunConfig(
        task=tk.TaskSpec(artifact_amp=amp, artifact_region="boundary", n_train=n_train,
                         n_test=200, seed=seed),
        loss=loss, standardize="whiten",
        optimizer=op.SamConfig(rho=0.0, learning_rate=learning_rate, batch_size=batch_size,
                               steps=steps, seed=seed), **kw)


@pytest.mark.parametrize("amp, n_train", [(3.0, 400), (24.0, 400), (24.0, 2000),
                                          (96.0, 2000), (2000.0, 400)])
def test_surrogate_boundary_is_the_step_zero_edge_of_stability(amp, n_train):
    # full-batch SAM on the quadratic surrogate maps the gradient along a
    # curvature lam to (1 - eta lam) g - eta rho lam^2 g / |g|, whose 2-cycle
    # flips the ranking once rho reaches |w*| (2 - eta lam) / (eta lam): the
    # SAM edge of stability at step 0.  Along the whitened features
    # lam_f = lam_max (n - 1) / n, as np.cov divides by n - 1, and
    # w* = dmu_w n / (n - 1).  Whitening bounds |dmu_w| by 2, so no task's
    # boundary reaches 2 n / (n - 1) (2 - eta lam_f) / (eta lam_f)
    cfg = boundary_config(amp, n_train, "quadratic", n_train, 1.0, 400, lr_relative=1.95)
    feats = hn.build_features(cfg)
    F, y = feats.train, feats.train_labels
    dmu = np.linalg.norm(F[y == 1].mean(axis=0) - F[y == 0].mean(axis=0))
    eta_lam = cfg.lr_relative * (n_train - 1) / n_train
    edge = n_train / (n_train - 1) * (2 - eta_lam) / eta_lam
    bisected = hn.sweep_rho(cfg, (0.005, 0.02, 0.08), seeds=(0,)).empirical_cor
    assert abs(bisected - dmu * edge) <= hn.BISECTION_RESOLUTION
    assert dmu < 2 and bisected < 2 * edge


@pytest.mark.parametrize("batch_size, learning_rate, steps", [(400, 7.8, 400), (20, 0.5, 2000)])
@pytest.mark.parametrize("seed", [0, 1])
def test_linear_bce_probe_does_not_collapse_at_any_radius(batch_size, learning_rate, steps,
                                                          seed):
    # a linear BCE probe's SAM step is a logistic step whose per-sample
    # weights |sigma - y| lie in (0, 1), whatever rho is.  Full batch at
    # eta lam_max = 1.95 and batch 20 at lr 0.5 keep their window AUC from
    # the rho-0 bound to 1e3; a full-batch run converges, so its trajectory
    # minimum is about 1e-16 and the radius is the step-0 bound |dmu_w|.
    # Over seeds 0-4 the window AUC fell at most 0.023 below rho = 0
    cfg = boundary_config(12.0, 400, "bce", batch_size, learning_rate, steps, seed)
    feats = hn.build_features(cfg)
    base = hn.run_train(cfg, feats=feats)
    full_batch = batch_size == cfg.task.n_train
    bound = base.estimates[0].cor_bound if full_batch else base.cor_report.rho_critical
    for rho in (bound, 100 * bound, 1e3):
        run = hn.run_train(replace(cfg, optimizer=replace(cfg.optimizer, rho=rho)), feats=feats)
        assert not run.failed and not run.collapsed
        assert run.train_auc_window >= base.train_auc_window - 0.03, rho


# -- campaigns --------------------------------------------------------------------------

def test_verify_theorem_campaign_small():
    report = hn.verify_theorem_campaign(10, seed=1)
    assert report.passed
    assert report.n_passed == 10
    assert report.max_rel_gap < 1e-6
    assert report.min_wellposed >= -1e-9
    assert report.failures == []
    # a count that is not an integer >= 1 is refused, a bool among them,
    # which would otherwise run one instance and report `n_instances: true`
    for bad in (0, -2, True, 2.0):
        with pytest.raises(ValueError, match="n_instances"):
            hn.verify_theorem_campaign(bad)


def test_verify_theorem_campaign_times_itself_with_a_monotonic_clock(monkeypatch):
    # a wall clock that steps back an hour between reads
    wall = iter(range(10 ** 9, 0, -3600))
    monkeypatch.setattr(hn.time, "time", lambda: float(next(wall)))
    assert 0.0 <= hn.verify_theorem_campaign(3, seed=0).elapsed_s < 60.0


@pytest.mark.parametrize("seed", [0, 1])
def test_verify_theorem_campaign_is_the_same_at_any_chunk_size(monkeypatch, seed):
    # at a cap of 300 each shape's instances form one group
    reports = []
    for cap in (1, 7, hn.CAMPAIGN_GROUP, 300):
        monkeypatch.setattr(hn, "CAMPAIGN_GROUP", cap)
        report = asdict(hn.verify_theorem_campaign(300, seed=seed))
        report.pop("elapsed_s")
        reports.append(report)
    assert all(report == reports[0] for report in reports[1:])


def test_campaign_instances_grouped_by_shape_equal_the_same_instances_alone(monkeypatch):
    # the campaign's draws, evaluated in (C, F) groups of up to the cap,
    # against each instance drawn by SoftmaxRegression.random and
    # evaluated alone.  Each group takes one `spectral_estimates` and then
    # one `trace_xi_direct`, so the two recorded sequences pair up, and the
    # estimates' steps key them by instance
    stack, spectral = sr.SoftmaxGroup.stack, dg.spectral_estimates
    xi = sr.SoftmaxGroup.trace_xi_direct
    groups, estimates, xis = [], [], []

    def recorded(instances):
        groups.append((len(instances), {W.shape for _, _, W in instances}))
        return stack(instances)

    def recorded_estimates(*args):
        estimates.extend(out := spectral(*args))
        return out

    def recorded_xi(self):
        xis.extend((out := xi(self)).tolist())
        return out

    monkeypatch.setattr(sr.SoftmaxGroup, "stack", staticmethod(recorded))
    monkeypatch.setattr(dg, "spectral_estimates", recorded_estimates)
    monkeypatch.setattr(sr.SoftmaxGroup, "trace_xi_direct", recorded_xi)
    hn.verify_theorem_campaign(200, 0)
    by_step = {est.step: (est, xi_direct) for est, xi_direct in zip(estimates, xis, strict=True)}
    assert sorted(by_step) == list(range(200))
    rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(3,)))
    shapes = []
    for i, (est, xi_direct) in sorted(by_step.items()):
        inst = sr.SoftmaxRegression.random(
            rng, n_samples=int(rng.integers(4, 40)), n_classes=int(rng.integers(2, 6)),
            n_features=int(rng.integers(2, 11)))
        shapes.append((len(inst.X),) + inst.W.shape)
        H = inst.dense_hessian()
        gbar, trace_cov = stack([(inst.X, inst.y, inst.W)]).grad_moments()
        assert est.step == i
        assert est.lambda_max == float(np.linalg.eigvalsh(H).max())
        assert est.trace_h == float(np.trace(H))
        assert est.trace_cov == float(trace_cov[0])
        assert est.grad_norm_sq == float(gbar[0] @ gbar[0])
        assert xi_direct == inst.trace_xi_direct()
    assert all(len(group_shapes) == 1 for _, group_shapes in groups)
    group_sizes = [n for n, _ in groups]
    assert sum(group_sizes) == 200 and max(group_sizes) <= hn.CAMPAIGN_GROUP
    assert min(group_sizes) == 1 and max(group_sizes) > 4
    assert any(M == 4 for M, _, _ in shapes)
    assert any(C * F == 50 for _, C, F in shapes)


@pytest.mark.parametrize("cap", [3, hn.CAMPAIGN_GROUP])
def test_campaign_reports_out_of_order_groups_in_draw_order(monkeypatch, cap):
    # a wrong Hessian planted in the (5, 10) groups only fails exactly those
    # instances, listed in draw order although a full group is evaluated
    # before earlier instances of other shapes.  Counted before each draw
    # and after each group, at most 36 (cap - 1) drawn instances wait
    monkeypatch.setattr(hn, "CAMPAIGN_GROUP", cap)
    draw, hessians = sr.draw_instance, sr.SoftmaxGroup.hessians
    drawn, waiting = [], []
    evaluated = 0

    def counted(rng, n_samples, n_features, n_classes):
        waiting.append(len(drawn) - evaluated)
        drawn.append((n_classes, n_features))
        return draw(rng, n_samples, n_features, n_classes)

    def planted(self):
        nonlocal evaluated
        evaluated += len(self.counts)
        waiting.append(len(drawn) - evaluated)
        H = hessians(self)
        return 3.0 * H + 0.1 * np.eye(H.shape[-1]) if (self.C, self.F) == (5, 10) else H

    monkeypatch.setattr(sr, "draw_instance", counted)
    monkeypatch.setattr(sr.SoftmaxGroup, "hessians", planted)
    report = hn.verify_theorem_campaign(2000, seed=0)
    planted_steps = [i for i, shape in enumerate(drawn) if shape == (5, 10)]
    assert [f["instance"] for f in report.failures] == planted_steps
    assert report.n_passed == 2000 - len(planted_steps) and len(planted_steps) > 2 * cap
    assert evaluated == len(drawn) == 2000
    assert cap - 1 < max(waiting) <= 36 * (cap - 1) and waiting[-1] == 0


def test_verify_theorem_campaign_fails_a_wrong_hessian(monkeypatch):
    # the factorization closes for any Hessian; only the direct residual
    # trace ties tr H to the model
    hessians = sr.SoftmaxGroup.hessians

    def planted(self):
        H = hessians(self)
        return 3.0 * H + 0.1 * np.eye(H.shape[-1])

    monkeypatch.setattr(sr.SoftmaxGroup, "hessians", planted)
    report = hn.verify_theorem_campaign(10, seed=1)
    assert not report.passed
    assert report.n_passed == 0
    assert all(f["xi_rel_gap"] > 1e-6 for f in report.failures)


def test_verify_theorem_campaign_wellposedness_reads_the_direct_residual(monkeypatch):
    # 1 + TrXi/TrH from the derived TrXi is (trace_cov + |g|^2) / tr H >= 0
    # for any Hessian; from the direct residual, a Hessian planted too small
    # makes it negative on the instances whose residual trace is negative
    hessians = sr.SoftmaxGroup.hessians
    monkeypatch.setattr(sr.SoftmaxGroup, "hessians", lambda self: 0.01 * hessians(self))
    report = hn.verify_theorem_campaign(100, seed=0)
    assert not report.passed
    assert report.min_wellposed < -1e-9


@pytest.mark.parametrize("scale", [-1.0, 0.0])
def test_verify_theorem_campaign_fails_an_undefined_factorization(monkeypatch, scale):
    # -H has tr H < 0 and 0 H has tr H = lambda_max = 0: the factorization
    # is undefined, so every instance fails with an infinite gap, which
    # neither drops out of the maximum nor raises
    hessians = sr.SoftmaxGroup.hessians
    monkeypatch.setattr(sr.SoftmaxGroup, "hessians", lambda self: scale * hessians(self))
    report = hn.verify_theorem_campaign(10, seed=1)
    assert report.n_passed == 0
    assert report.max_rel_gap == float("inf")
    assert [f["rel_gap"] for f in report.failures] == [float("inf")] * 10


@pytest.mark.parametrize("head", hn.HEAD_MODES)
def test_diagnostics_estimates_carry_factors_that_multiply_to_the_bound(tmp_path, head):
    opt = op.SamConfig(rho=0.0, learning_rate=1.0, batch_size=50, steps=30, seed=0)
    cfg = bifurcation_config(head=head, l_mid=1, n_train=300, loss="bce",
                             lr_relative=None, cadence=5, optimizer=opt)
    hn.run_train(cfg, out_dir=str(tmp_path))
    estimates = json.loads((tmp_path / "diagnostics.json").read_text())["estimates"]
    assert len(estimates) == 6
    for e in estimates:
        product = e["geometric"] * e["misspecification"] * e["statistical"]
        assert product == pytest.approx(e["cor_bound"], rel=1e-12, abs=0.0)


def test_corit_vs_baseline_report_structure():
    # the rho = 0 run of each head, in HEAD_MODES order
    cfg = bifurcation_config(
        n_train=300, l_mid=1,
        optimizer=op.SamConfig(rho=0.05, learning_rate=1.0, batch_size=500,
                               steps=40, seed=0))
    runs = hn.corit_vs_baseline(cfg)
    assert list(runs) == list(hn.HEAD_MODES)
    for head, res in runs.items():
        assert res.config == replace(cfg, head=head,
                                     optimizer=replace(cfg.optimizer, rho=0.0))
        assert not res.failed
        assert res.cor_report.rho_critical > 0.0
