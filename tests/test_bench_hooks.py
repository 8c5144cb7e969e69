"""The benchmark's hooks must still find every package name they wrap.

`bench/tracing.py` replaces module attributes and class methods by name for
the length of a run.  Installing and removing each hook here makes a
renamed or deleted target fail the test suite, not only a traced run."""

import os
import sys

import numpy as np

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

from corlab import optim as op  # noqa: E402

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
