"""corlab benchmark runner.

    python3 bench/run.py --workload lift-bce --seed 0 --seconds 10 --trace 0

Runs one workload in this process against the package under `src/` of the
checkout that holds this file, checks its outputs, and prints one JSON
object as the last line of standard output:
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
self times and counts for one workload operation.  Reports, traces and a
provenance record go to `bench/out/<workload>-seed<n>-trace<t>/`.

Exit codes: 0 all checks passed, 1 a check failed, 2 the package or the
arguments are missing or invalid.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = 1          # pinned below nproc so runs do not fight for cores
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"wall_s": "s", "setup_s": "s", "work_per_s": "1/s",
              "peak_rss_mb": "MB"}


def import_package():
    """Pin BLAS threads, then import corlab from this checkout's src/ only."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isfile(os.path.join(SRC, "corlab", "__init__.py")):
        print(f"error: no corlab package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [SRC, HERE]
    import corlab
    if os.path.dirname(os.path.dirname(os.path.abspath(corlab.__file__))) != SRC:
        print(f"error: corlab imported from {corlab.__file__}", file=sys.stderr)
        raise SystemExit(2)


def provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count()}


def measure(workload, seconds: float, clock, meter, tracer):
    """Set-up phase, then whole rounds until `seconds` of rounds have run
    (at least `min_rounds`).  Only program calls are timed."""
    from tracing import patched

    rounds, reports = [], []
    with clock.running(), patched(meter.hooks()), \
            patched(tracer.hooks() if tracer else []):
        t0, r0 = clock.now(), clock.raw()
        workload.setup()
        setup_phase = {"seconds": clock.now() - t0, "raw_s": clock.raw() - r0}
        if tracer:
            tracer.phase = "round"
        while len(rounds) < workload.min_rounds or \
                sum(r["seconds"] for r in rounds) < seconds:
            built = meter.build_features_s
            t0, r0 = clock.now(), clock.raw()
            work, failed = workload.round(len(rounds))
            rounds.append({"seconds": clock.now() - t0, "raw_s": clock.raw() - r0,
                           "setup_s": meter.build_features_s - built,
                           "work": work, "failed": failed})
            reports.append(workload.report(len(rounds) - 1))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return setup_phase, rounds, reports, peak_rss_mb


def end_to_end(setup_phase: dict, rounds: list[dict], peak_rss_mb: float) -> dict:
    """One workload operation is the set-up phase plus one round; round
    figures are medians over the run's rounds."""
    med = lambda key: statistics.median(r[key] for r in rounds)
    return {"wall_s": setup_phase["seconds"] + med("seconds"),
            "setup_s": setup_phase["seconds"] + med("setup_s"),
            "work_per_s": statistics.median(
                r["work"] / (r["seconds"] - r["setup_s"]) for r in rounds),
            "peak_rss_mb": peak_rss_mb}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    import_package()
    import checks
    from tracing import CalibratedClock, Meter, Tracer, per_layer_units
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {sorted(WORKLOADS)}")
    out_dir = os.path.join(HERE, "out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    clock = CalibratedClock()
    meter = Meter(clock)
    tracer = Tracer(clock) if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, out_dir, meter)
    setup_phase, rounds, reports, peak_rss_mb = measure(
        workload, args.seconds, clock, meter, tracer)

    failures, findings = [], {}
    t0 = time.perf_counter()
    try:
        checks.require(all(r == reports[0] for r in reports),
                       "rounds of one run wrote different reports")
        findings = workload.check()
    except checks.CheckFailed as e:
        failures.append(str(e))
    check_s = time.perf_counter() - t0

    attempted = workload.setup_ops + workload.round_ops * len(rounds)
    failed = sum(r["failed"] for r in rounds)
    if tracer:
        units = per_layer_units()
        values = tracer.per_operation(len(rounds))
        spans_per_op = (sum(1 for s in tracer.spans if s[2] == "setup")
                        + sum(1 for s in tracer.spans if s[2] == "round") / len(rounds))
        values["trace.wall_s"] = end_to_end(setup_phase, rounds, peak_rss_mb)["wall_s"]
        values["trace.spans"] = spans_per_op
        values["trace.overhead_s"] = spans_per_op * tracer.span_cost_s()
        tracer.write(os.path.join(out_dir, "trace.csv"))
    else:
        units = END_TO_END
        values = end_to_end(setup_phase, rounds, peak_rss_mb)
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}

    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, rounds=rounds,
                  setup_phase=setup_phase, check_s=check_s, failures=failures,
                  mean_speed=clock.speed_sum / max(clock.probes, 1),
                  findings=findings, provenance=provenance())
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(rounds)} rounds, attempted {attempted}, failed {failed}")
    for k, m in metrics.items():
        print(f"  {k:40s} {m['value']:.6g} {m['unit']}")
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
