"""The three benchmark workloads, driven through corlab's public calls.

Each workload has a set-up phase, a round that is repeated while the run
lasts, a byte report per round (rounds must agree byte for byte) and a
check of its outputs against references computed apart from the program.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

import numpy as np

from corlab import harness as hn
from corlab import model as md
from corlab import optim as op
from corlab import softmaxreg as sr
from corlab import tasks as tk

import checks

HEADS = ("plain-probe", "corit")
LIFT_STEPS = 301          # cadence + 1: snapshots at steps 0 and 300
SWEEP_RHOS = (0.005, 0.02, 0.08)
SWEEP_SEEDS = (0, 1, 2)
CAMPAIGN_INSTANCES = 2000
WARMUP_INSTANCES = 500
CHECKED_INSTANCES = 20


def lift_config(seed: int, head: str) -> hn.RunConfig:
    """One seed of the acceptance lift fixture, at the benchmark's budget."""
    return hn.RunConfig(
        task=tk.TaskSpec(artifact_amp=8.0, artifact_region="foreground",
                         n_train=2000, n_test=200, seed=seed),
        encoder=md.EncoderConfig(semantic_bias=True,
                                 bias_channels=tuple(range(24, 32)),
                                 bias_attenuation=0.5),
        counterpart=tk.CounterpartOp(perturb_amp=2.0),
        alpha=0.75, l_mid=4, head=head,
        loss="bce", standardize="whiten", cadence=300,
        optimizer=op.SamConfig(rho=0.0, learning_rate=3e-3, batch_size=20,
                               steps=LIFT_STEPS, seed=seed))


def sweep_config(seed: int) -> hn.RunConfig:
    """The scaling-family task at artifact_amp=24, full-batch quadratic."""
    return hn.RunConfig(
        task=tk.TaskSpec(artifact_amp=24.0, artifact_region="boundary",
                         n_train=4000, n_test=200, seed=seed),
        loss="quadratic", standardize="whiten", lr_relative=1.95,
        optimizer=op.SamConfig(rho=0.0, learning_rate=1.0, batch_size=4096,
                               steps=400, seed=seed))


def _read_dir(path: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


class LiftBce:
    """Plain probe vs CoRIT head: features once, then training rounds."""

    name = "lift-bce"
    min_rounds = 2
    setup_ops, round_ops = len(HEADS), len(HEADS)

    def __init__(self, seed: int, out_dir: str, meter):
        self.seed, self.out_dir, self.meter = seed, out_dir, meter
        self.configs = {h: lift_config(seed, h) for h in HEADS}

    def setup(self) -> None:
        self.feats = {h: hn.build_features(c) for h, c in self.configs.items()}

    def round(self, k: int) -> tuple[int, int]:
        steps = self.meter.sam_steps
        self.results = {h: hn.run_train(c, feats=self.feats[h],
                                        out_dir=self._dir(k, h))
                        for h, c in self.configs.items()}
        failed = sum(r.failed for r in self.results.values())
        return self.meter.sam_steps - steps, failed

    def _dir(self, k: int, head: str) -> str:
        return os.path.join(self.out_dir, f"round{k}", head)

    def report(self, k: int) -> bytes:
        return b"".join(name.encode() + body for h in HEADS
                        for name, body in _read_dir(self._dir(k, h)).items())

    def check(self) -> dict:
        for h in HEADS:
            checks.check_train_result(self.results[h], self.feats[h],
                                      _read_dir(self._dir(0, h)), LIFT_STEPS)
        cor = {h: self.results[h].cor_report.rho_critical for h in HEADS}
        checks.check_lift(cor["plain-probe"], cor["corit"])
        return {"cor": cor}


class SweepQuad:
    """Collapse sweep with bisection; one sweep, set-up included, is one
    round.  A sweep outlasts the run length, so a run has one round and no
    second report to compare byte for byte."""

    name = "sweep-quad"
    min_rounds = 1
    setup_ops, round_ops = 0, 1

    def __init__(self, seed: int, out_dir: str, meter):
        self.seed, self.out_dir, self.meter = seed, out_dir, meter
        self.config = sweep_config(seed)

    def setup(self) -> None:
        pass

    def round(self, k: int) -> tuple[int, int]:
        steps = self.meter.sam_steps
        self.first_built = len(self.meter.features)
        self.result = hn.sweep_rho(self.config, SWEEP_RHOS, seeds=SWEEP_SEEDS)
        return self.meter.sam_steps - steps, 0

    def report(self, k: int) -> bytes:
        return json.dumps(asdict(self.result), sort_keys=True).encode()

    def check(self) -> dict:
        checks.check_sweep_flags(self.result)
        built = self.meter.features[self.first_built:]
        for feats in built:
            checks.check_whitened(feats.train)
        wins = checks.check_boundary_rerun(
            built, self.result.empirical_cor,
            self.config.lr_relative, self.config.optimizer.steps)
        return {"empirical_cor": self.result.empirical_cor,
                "theoretical_cor": self.result.theoretical_cor,
                "flags": [e.collapsed for e in self.result.entries],
                "rerun_window_auc": {str(k): v for k, v in wins.items()}}


class VerifyTheorem:
    """Factorization campaign: a warm-up campaign, then full campaigns."""

    name = "verify-theorem"
    min_rounds = 2
    setup_ops, round_ops = 1, 1

    def __init__(self, seed: int, out_dir: str, meter):
        self.seed = seed

    def setup(self) -> None:
        hn.verify_theorem_campaign(WARMUP_INSTANCES, seed=self.seed)

    def round(self, k: int) -> tuple[int, int]:
        self.result = hn.verify_theorem_campaign(CAMPAIGN_INSTANCES, seed=self.seed)
        return self.result.n_instances, 0

    def report(self, k: int) -> bytes:
        d = asdict(self.result)
        d.pop("elapsed_s")
        return json.dumps(d, sort_keys=True).encode()

    def check(self) -> dict:
        checks.check_campaign(self.result, CAMPAIGN_INSTANCES)
        # the benchmark's own instances, drawn from a stream of its own
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(99,)))
        for _ in range(CHECKED_INSTANCES):
            checks.check_softmax_instance(sr.SoftmaxRegression.random(
                rng, n_samples=int(rng.integers(4, 40)),
                n_classes=int(rng.integers(2, 6)),
                n_features=int(rng.integers(2, 11))))
        return {"n_passed": self.result.n_passed,
                "max_rel_gap": self.result.max_rel_gap}


WORKLOADS = {w.name: w for w in (LiftBce, SweepQuad, VerifyTheorem)}
