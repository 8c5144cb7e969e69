"""The benchmark's hooks must still find every package name they wrap.

`bench/tracing.py` replaces module attributes and class methods by name for
the length of a run.  Installing and removing each hook here makes a
renamed or deleted target fail the test suite, not only a traced run."""

import os
import sys
import threading

import numpy as np

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

from corlab import harness as hn  # noqa: E402
from corlab import model as md  # noqa: E402
from corlab import optim as op  # noqa: E402
from corlab import regions as rg  # noqa: E402
from corlab import tasks as tk  # noqa: E402

from tracing import SPAN_HOOKS, CalibratedClock, Meter, Tracer, patched  # noqa: E402


def test_meter_and_tracer_hooks_install_count_and_restore():
    clock = CalibratedClock()
    meter, tracer = Meter(clock), Tracer(clock)
    targets = [(o, a) for o, a, _ in SPAN_HOOKS] + [(op, "sam_step")]
    before = {(o, a): o.__dict__[a] for o, a in targets}
    prob = op.QuadraticProblem(np.eye(3), np.arange(12.0).reshape(4, 3))
    cfg = op.SamConfig(rho=0.1, learning_rate=0.1, batch_size=2, steps=5)
    with patched(meter.hooks()), patched(tracer.hooks()):
        assert all(o.__dict__[a] is not before[(o, a)] for o, a in targets)
        w, failed_step = op.run(prob, cfg)
    assert failed_step is None
    assert meter.sam_steps == cfg.steps
    assert tracer.calls[("setup", "optim.sam_step")] == cfg.steps
    assert all(o.__dict__[a] is before[(o, a)] for o, a in targets)


def test_probe_training_records_no_autodiff_tape():
    rng = np.random.default_rng(0)
    prob = op.LogisticProbeProblem(rng.normal(size=(16, 4)),
                                   rng.integers(0, 2, size=16).astype(np.float64))
    cfg = op.SamConfig(rho=0.1, learning_rate=0.1, batch_size=4, steps=5)
    tracer = Tracer(CalibratedClock())
    with patched(tracer.hooks()):
        _, failed_step = op.run(prob, cfg)
    assert failed_step is None
    assert tracer.calls[("setup", "optim.logistic_loss_and_grad")] == 2 * cfg.steps
    assert ("setup", "autodiff.loss_and_gradient") not in tracer.calls
    assert tracer.counts.get(("setup", "autodiff.tape_nodes"), 0) == 0


def test_each_encoder_call_is_one_span_over_its_samples():
    # the encoders share one forward but neither calls the other, so a
    # traced call is one span of its own name and counts its S samples once
    enc = md.FrozenEncoder(md.EncoderConfig(layers=2))
    x = np.random.default_rng(0).normal(size=(5, 16, 32))
    for name, run in (("model.encode_plain", lambda: enc.encode_plain(x)),
                      ("model.encode_corit",
                       lambda: enc.encode_corit(x, 1.0, rg.grid_partition(16), 0.5, 1))):
        tracer = Tracer(CalibratedClock())
        with patched(tracer.hooks()):
            run()
        assert {n for _, n in tracer.calls if n.startswith("model.encode_")} == {name}
        assert tracer.calls[("setup", name)] == 1
        assert tracer.counts[("setup", "model.encoded_samples")] == x.shape[0]


def small_config(**kw) -> hn.RunConfig:
    """A corit head reads 256 features at l_mid 2, so n_train is above 256
    for whitening."""
    defaults = dict(task=tk.TaskSpec(n_train=300, n_test=30, seed=0),
                    encoder=md.EncoderConfig(layers=3),
                    l_mid=2, loss="bce", cadence=3,
                    optimizer=op.SamConfig(rho=0.0, learning_rate=1e-2,
                                           batch_size=10, steps=7))
    defaults.update(kw)
    return hn.RunConfig(**defaults)


def test_corit_features_make_one_region_pass_per_layer_and_block(monkeypatch):
    # the encoder's helper threads call the region pass too, and the tracer
    # counts without a lock, so the passes are counted by hooks of this
    # test's own, installed over the tracer's; 160-sample blocks split the
    # train split in two
    monkeypatch.setattr(md, "_BLOCK_SAMPLES", 160)
    cfg = small_config(head="corit")
    lock, calls = threading.Lock(), {}

    def counted(name):
        fn = rg.__dict__[name]

        def wrapper(*args, **kwargs):
            with lock:
                calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return rg, name, wrapper

    names = ("compute_cgp", "layer_region_state")
    with patched(Tracer(CalibratedClock()).hooks()), patched(map(counted, names)):
        hn.build_features(cfg)
    # train and test splits, each one pass per layer and sample block
    blocks = sum(-(-n // md._BLOCK_SAMPLES) for n in (cfg.task.n_train, cfg.task.n_test))
    assert blocks == 3
    for name in names:
        assert calls[name] == cfg.encoder.layers * blocks


def test_run_train_snapshots_at_cadence_without_per_sample_grads():
    # snapshots read the observer's gradient moments, so no training run
    # builds the (M, P) per-sample gradient matrix
    cfg = small_config()
    feats = hn.build_features(cfg)
    tracer = Tracer(CalibratedClock())
    with patched(tracer.hooks()):
        res = hn.run_train(cfg, feats=feats)
    snapshots = [t for t in range(cfg.optimizer.steps) if t % cfg.cadence == 0]
    assert [e.step for e in res.estimates] == snapshots
    assert len(res.steps) == cfg.optimizer.steps
    assert tracer.calls[("setup", "optim.dense_hessian")] == len(snapshots)
    assert tracer.calls.get(("setup", "optim.per_sample_grads"), 0) == 0
