"""Instrumentation that the benchmark installs around public corlab calls.

Nothing here edits the package: every hook replaces a module attribute or a
class method for the duration of a run and restores the original on exit.
All durations are read from a `CalibratedClock`.  Two levels of hooks
exist.  `Meter` is always installed and only times
`harness.build_features` and counts `optim.sam_step` calls, which is all the
end-to-end metrics need.  `Tracer` adds one span per call at every layer
boundary listed in `SPAN_HOOKS`; per-layer metrics are self times (span
duration minus the time covered by its direct child spans) and call counts.
"""

from __future__ import annotations

import contextlib
import functools
import os
import signal
import time

import numpy as np

from corlab import autodiff as ad
from corlab import diagnostics as dg
from corlab import harness as hn
from corlab import model as md
from corlab import optim as op
from corlab import regions as rg
from corlab import softmaxreg as sr
from corlab import tasks as tk

# (owner, attribute, span name).  Methods shared by the two probe problems
# report under one optim name; loss_and_grad stays split by problem type.
SPAN_HOOKS = (
    (tk, "generate", "tasks.generate"),
    (md.FrozenEncoder, "encode_plain", "model.encode_plain"),
    (md.FrozenEncoder, "encode_corit", "model.encode_corit"),
    (md.FrozenEncoder, "block", "model.block"),
    (rg, "compute_cgp", "regions.compute_cgp"),
    (rg, "layer_region_state", "regions.layer_region_state"),
    (hn, "build_features", "harness.build_features"),
    (hn, "fit_standardizer", "harness.fit_standardizer"),
    (hn, "quadratic_surrogate", "harness.quadratic_surrogate"),
    (hn, "compute_auc", "harness.compute_auc"),
    (hn, "emit_run", "harness.emit_run"),
    (op, "sam_step", "optim.sam_step"),
    (op.LogisticProbeProblem, "loss_and_grad", "optim.logistic_loss_and_grad"),
    (op.QuadraticProblem, "loss_and_grad", "optim.quadratic_loss_and_grad"),
    (op.LogisticProbeProblem, "per_sample_grads", "optim.per_sample_grads"),
    (op.QuadraticProblem, "per_sample_grads", "optim.per_sample_grads"),
    (op.LogisticProbeProblem, "dense_hessian", "optim.dense_hessian"),
    (op.QuadraticProblem, "dense_hessian", "optim.dense_hessian"),
    (ad, "loss_and_gradient", "autodiff.loss_and_gradient"),
    (dg, "gsnr", "diagnostics.gsnr"),
    (dg, "cor_trajectory", "diagnostics.cor_trajectory"),
    (dg, "phase_detect", "diagnostics.phase_detect"),
    (dg, "trace_cov", "diagnostics.trace_cov"),
    (dg, "verify_decomposition", "diagnostics.verify_decomposition"),
    (sr.SoftmaxRegression, "dense_hessian", "softmaxreg.dense_hessian"),
    (sr.SoftmaxRegression, "per_sample_grads", "softmaxreg.per_sample_grads"),
)

ENCODER_LAYERS = md.EncoderConfig().layers
TIME_METRICS = (
    "tasks.generate", "model.encode_plain", "model.encode_corit",
    *(f"model.block_l{l}" for l in range(ENCODER_LAYERS)),
    "regions.compute_cgp", "regions.layer_region_state",
    "harness.build_features", "harness.fit_standardizer",
    "harness.quadratic_surrogate", "harness.compute_auc", "harness.emit_run",
    "optim.sam_step", "optim.logistic_loss_and_grad",
    "optim.quadratic_loss_and_grad", "optim.per_sample_grads",
    "optim.dense_hessian", "autodiff.loss_and_gradient", "diagnostics.gsnr",
    "diagnostics.cor_trajectory", "diagnostics.phase_detect",
    "diagnostics.trace_cov", "diagnostics.verify_decomposition",
    "softmaxreg.dense_hessian", "softmaxreg.per_sample_grads",
)
CALL_METRICS = (
    "regions.layer_region_state", "harness.compute_auc", "optim.sam_step",
    "optim.logistic_loss_and_grad", "optim.quadratic_loss_and_grad",
    "optim.per_sample_grads", "autodiff.loss_and_gradient", "diagnostics.gsnr",
)
COUNTERS = ("tasks.generated_samples", "model.encoded_samples",
            "harness.report_bytes", "autodiff.tape_nodes")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name the traced run prints, with its unit."""
    units = {f"{n}_s": "s" for n in TIME_METRICS}
    units["model.block_s"] = "s"
    units.update({f"{n}_calls": "count" for n in CALL_METRICS})
    units.update({n: "count" for n in COUNTERS})
    units["harness.report_bytes"] = "bytes"
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s",
                  "trace.spans": "count"})
    return units


REFERENCE_KERNEL_S = 2.0e-3   # reference_kernel() at the reference host speed
PROBE_INTERVAL_S = 0.1
_KERNEL_RNG = np.random.default_rng(0)
_KERNEL_MATRIX = _KERNEL_RNG.normal(size=(128, 128)) / 128
_KERNEL_PROBS = _KERNEL_RNG.random(4)
_KERNEL_ROW = _KERNEL_RNG.normal(size=6)


def reference_kernel() -> None:
    """Fixed mix of the three kinds of work corlab does: interpreter-bound
    Python, many numpy calls on tiny arrays, and BLAS on mid-size arrays.
    On this host the kinds slow down by different amounts under load, so
    the kernel times one of each.  It calls no corlab code, so no change
    to the package can move it."""
    acc = {}
    for i in range(2000):
        acc[i % 97] = acc.get(i % 97, 0.0) + i * 0.5
    p, x = _KERNEL_PROBS, _KERNEL_ROW
    for _ in range(20):
        np.kron(np.diag(p) - np.outer(p, p), np.outer(x, x))
    a = _KERNEL_MATRIX
    for _ in range(4):
        a = np.tanh(a @ a.T) + _KERNEL_MATRIX


class CalibratedClock:
    """Seconds at a fixed reference host speed.

    On a shared host the same code runs up to twice as slow for tens of
    seconds at a time, which no amount of repetition inside one run
    removes.  While the clock runs, SIGALRM fires every PROBE_INTERVAL_S
    and times `reference_kernel`; each stretch of raw time is scaled by
    REFERENCE_KERNEL_S over the kernel's time at its two ends, and the
    kernel's own time is left out.  `raw()` gives plain perf_counter time
    with the kernel's time removed.
    """

    def __init__(self):
        self._virtual = 0.0           # calibrated seconds at the last probe
        self._raw = 0.0               # raw seconds at the last probe
        reference_kernel()           # first call pays numpy's own warm-up
        self._at = time.perf_counter()
        self._speed = self._probe_speed()
        self.probes = 0
        self.speed_sum = 0.0

    @staticmethod
    def _probe_speed() -> float:
        t0 = time.perf_counter()
        reference_kernel()
        return REFERENCE_KERNEL_S / (time.perf_counter() - t0)

    def _on_alarm(self, signum, frame) -> None:
        t = time.perf_counter()
        speed = self._probe_speed()
        self._virtual += (t - self._at) * 0.5 * (self._speed + speed)
        self._raw += t - self._at
        self._speed = speed
        self.probes += 1
        self.speed_sum += speed
        self._at = time.perf_counter()

    def now(self) -> float:
        return self._virtual + (time.perf_counter() - self._at) * self._speed

    def raw(self) -> float:
        return self._raw + (time.perf_counter() - self._at)

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def patched(replacements):
    """Set each (owner, attribute, value) and restore the originals on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Meter:
    """Feature-building time and SAM step count, observed from outside."""

    def __init__(self, clock: CalibratedClock):
        self.clock = clock
        self.build_features_s = 0.0
        self.sam_steps = 0
        self.features = []            # FeatureSets in call order

    def hooks(self):
        build_features, sam_step = hn.build_features, op.sam_step

        @functools.wraps(build_features)
        def timed_build_features(config):
            t0 = self.clock.now()
            feats = build_features(config)
            self.build_features_s += self.clock.now() - t0
            self.features.append(feats)
            return feats

        @functools.wraps(sam_step)
        def counted_sam_step(*args, **kwargs):
            self.sam_steps += 1
            return sam_step(*args, **kwargs)

        return [(hn, "build_features", timed_build_features),
                (op, "sam_step", counted_sam_step)]


class Tracer:
    """In-memory spans with self-time and call aggregates per phase.

    A phase is "setup" or "round"; the runner switches it so that per-layer
    metrics can be reported per workload operation (one set-up plus one
    round) however many rounds a run completed.
    """

    def __init__(self, clock: CalibratedClock):
        self.clock = clock
        self.phase = "setup"
        self.spans = []               # (name, parent index, phase, start, end)
        self._stack = []              # [span index, time covered by children]
        self.self_s = {}              # (phase, name) -> seconds
        self.calls = {}               # (phase, name) -> count
        self.counts = {}              # (phase, counter) -> amount
        self._tapes = []              # tapes of the current loss_and_gradient

    def add(self, counter: str, amount: int) -> None:
        key = (self.phase, counter)
        self.counts[key] = self.counts.get(key, 0) + int(amount)

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [index, 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        start = self.clock.now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock.now()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.spans[index] = (name, parent, self.phase, start, end)
            key = (self.phase, name)
            self.self_s[key] = self.self_s.get(key, 0.0) + duration - frame[1]
            self.calls[key] = self.calls.get(key, 0) + 1

    def _wrap(self, owner, attr, name):
        fn = owner.__dict__[attr]
        if name == "model.block":
            @functools.wraps(fn)
            def wrapper(enc, x, l):
                return self.call(f"model.block_l{l}", fn, enc, x, l)
        elif name == "tasks.generate":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                ds = self.call(name, fn, *args, **kwargs)
                self.add("tasks.generated_samples", len(ds))
                return ds
        elif name.startswith("model.encode_"):
            @functools.wraps(fn)
            def wrapper(enc, visuals, *args, **kwargs):
                self.add("model.encoded_samples",
                         visuals.shape[0] if visuals.ndim == 3 else 1)
                return self.call(name, fn, enc, visuals, *args, **kwargs)
        elif name == "autodiff.loss_and_gradient":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self._tapes = []
                result = self.call(name, fn, *args, **kwargs)
                self.add("autodiff.tape_nodes",
                         sum(len(t.nodes) for t in self._tapes))
                return result
        elif name == "harness.emit_run":
            @functools.wraps(fn)
            def wrapper(result, out_dir):
                self.call(name, fn, result, out_dir)
                self.add("harness.report_bytes", sum(
                    e.stat().st_size for e in os.scandir(out_dir) if e.is_file()))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        return wrapper

    def hooks(self):
        forward = ad.forward

        @functools.wraps(forward)
        def recorded_forward(*args, **kwargs):
            out, tape = forward(*args, **kwargs)
            self._tapes.append(tape)
            return out, tape

        return [(o, a, self._wrap(o, a, n)) for o, a, n in SPAN_HOOKS] + \
            [(ad, "forward", recorded_forward)]

    def span_cost_s(self, calls: int = 20000) -> float:
        """Measured cost of one span around a no-op call, in seconds."""
        def noop():
            return None

        t0 = self.clock.now()
        for _ in range(calls):
            noop()
        bare = self.clock.now() - t0
        probe = Tracer(self.clock)
        t0 = self.clock.now()
        for _ in range(calls):
            probe.call("probe", noop)
        return max(0.0, (self.clock.now() - t0 - bare) / calls)

    def per_operation(self, rounds: int) -> dict[str, float]:
        """Aggregates for one operation: set-up totals plus the round
        totals divided by the number of rounds."""
        def total(table, name):
            return (table.get(("setup", name), 0)
                    + table.get(("round", name), 0) / rounds)

        out = {f"{n}_s": total(self.self_s, n) for n in TIME_METRICS}
        out["model.block_s"] = sum(out[f"model.block_l{l}_s"]
                                   for l in range(ENCODER_LAYERS))
        out.update({f"{n}_calls": total(self.calls, n) for n in CALL_METRICS})
        out.update({n: total(self.counts, n) for n in COUNTERS})
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("name,parent,phase,start_s,end_s\n")
            t0 = self.spans[0][3] if self.spans else 0.0
            for name, parent, phase, start, end in self.spans:
                fh.write(f"{name},{parent},{phase},{start - t0!r},{end - t0!r}\n")
