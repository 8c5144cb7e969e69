"""Self-tests of the benchmark's checks: each planted fault must trip the
check meant to catch it, and the same check must pass without the fault.
Everything here runs on small inputs in a few seconds."""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from corlab import harness as hn  # noqa: E402
from corlab import model as md  # noqa: E402
from corlab import optim as op  # noqa: E402
from corlab import softmaxreg as sr  # noqa: E402
from corlab import tasks as tk  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import patched, per_layer_units  # noqa: E402


def test_pairwise_auc_hand_oracles():
    labels = np.array([0, 0, 1, 1])
    assert checks.pairwise_auc(np.array([0.1, 0.7, 0.3, 0.9]), labels) == 0.75
    assert checks.pairwise_auc(np.array([0.5, 0.5, 0.5, 0.5]), labels) == 0.5
    assert checks.pairwise_auc(np.array([0.9, 0.8, 0.2, 0.1]), labels) == 0.0


def test_scaled_hessian_fails_the_softmax_check():
    rng = np.random.default_rng(5)
    insts = [sr.SoftmaxRegression.random(rng, n_samples=12, n_classes=3,
                                         n_features=4) for _ in range(3)]
    for inst in insts:
        checks.check_softmax_instance(inst)
    dense_hessian = sr.SoftmaxRegression.dense_hessian

    def planted(self):
        H = dense_hessian(self)
        return 3.0 * H + 0.1 * np.eye(H.shape[0])

    with patched([(sr.SoftmaxRegression, "dense_hessian", planted)]):
        for inst in insts:
            with pytest.raises(checks.CheckFailed, match="central differences"):
                checks.check_softmax_instance(inst)


def _small_bce_run(out_dir):
    cfg = hn.RunConfig(
        task=tk.TaskSpec(artifact_amp=8.0, n_train=60, n_test=40, seed=0),
        encoder=md.EncoderConfig(layers=2), loss="bce", cadence=5,
        optimizer=op.SamConfig(rho=0.0, learning_rate=3e-3, batch_size=20,
                               steps=10, seed=0))
    feats = hn.build_features(cfg)
    result = hn.run_train(cfg, feats=feats, out_dir=str(out_dir))
    return result, feats, workloads._read_dir(str(out_dir))


def test_flipped_auc_fails_the_train_result_check(tmp_path):
    checks.check_train_result(*_small_bce_run(tmp_path / "ok"), steps=10)
    compute_auc = hn.compute_auc
    with patched([(hn, "compute_auc", lambda s, y: 1.0 - compute_auc(s, y))]):
        planted = _small_bce_run(tmp_path / "flipped")
    with pytest.raises(checks.CheckFailed, match="pairwise count"):
        checks.check_train_result(*planted, steps=10)


def _sweep(cor, flags=(False, False, True)):
    entries = [hn.SweepEntry(r, 0.9, 0.9, f)
               for r, f in zip(workloads.SWEEP_RHOS, flags)]
    return hn.SweepResult(entries, cor, 1e-8)


def test_boundary_outside_its_bracket_fails_the_sweep_check():
    checks.check_sweep_flags(_sweep(0.041))
    for cor in (0.09, 0.02, 0.004):
        with pytest.raises(checks.CheckFailed, match="outside"):
            checks.check_sweep_flags(_sweep(cor))
    with pytest.raises(checks.CheckFailed, match="not monotone"):
        checks.check_sweep_flags(_sweep(0.041, flags=(False, True, False)))
    with pytest.raises(checks.CheckFailed, match="degenerate"):
        checks.check_sweep_flags(_sweep(0.041, flags=(True, True, True)))


def test_benchmark_json_names_match_what_the_runner_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
