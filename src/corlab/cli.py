"""Command-line surface: train, sweep-rho, diagnose, verify-theorem,
compare."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace

import numpy as np

from . import harness as hn

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ASSERTION = 4


def _load_config(args) -> hn.RunConfig:
    if args.config is None:
        cfg = hn.RunConfig()
    else:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = hn.RunConfig.from_json(fh.read())
    if args.seed is not None:
        cfg = replace(cfg, task=replace(cfg.task, seed=args.seed),
                      optimizer=replace(cfg.optimizer, seed=args.seed))
    if getattr(args, "rho", None) is not None:
        cfg = replace(cfg, optimizer=replace(cfg.optimizer, rho=args.rho))
    return cfg


def _emit(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _report(args, name: str, payload: dict) -> None:
    """Write `payload` as report `name` under --out, if given, and echo it."""
    if args.out is not None:
        hn.write_report(args.out, name, payload)
    _emit(args, json.dumps(payload, sort_keys=True))


def cmd_train(args) -> int:
    """`train`, and `diagnose`: a train run whose rho default is 0 and whose
    summary also carries the spectral estimates."""
    cfg = _load_config(args)
    res = hn.run_train(cfg, out_dir=args.out)
    payload = res.summary()
    if args.command == "diagnose":
        payload["estimates"] = [e.to_dict() for e in res.estimates]
    _emit(args, json.dumps(payload, sort_keys=True))
    return EXIT_NUMERICAL if res.failed else EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    rhos = [float(r) for r in args.rhos.split(",")]
    _report(args, "sweep.json", asdict(hn.sweep_rho(cfg, rhos)))
    return EXIT_OK


def cmd_verify(args) -> int:
    report = hn.verify_theorem_campaign(args.instances, seed=args.seed or 0)
    payload = asdict(report)
    del payload["elapsed_s"]            # wall time: the report would differ run to run
    _report(args, "verify_theorem.json", payload)
    return EXIT_OK if report.passed else EXIT_ASSERTION


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    report = hn.corit_vs_baseline(cfg)
    _report(args, "compare.json", dict(asdict(report), lifted=report.lifted))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="corlab",
                                description="SAM collapse laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, fn, help, config=True):
        """A subcommand with only the shared flags it reads, spelled out in
        full (no prefix abbreviations), so any other flag exits 2."""
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        if config:
            sp.add_argument("--config", default=None, help="run config JSON path")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="seed override")
        sp.add_argument("--quiet", action="store_true")
        sp.set_defaults(fn=fn)
        return sp

    train = command("train", cmd_train, "single training run with metrics")
    train.add_argument("--rho", type=float, default=None, help="rho override")
    sweep = command("sweep-rho", cmd_sweep, "collapse sweep with bisection")
    sweep.add_argument("--rhos", default="0.005,0.02,0.08",
                       help="comma-separated ascending rho list")
    command("diagnose", cmd_train,
            "rho=0 run with spectral diagnostics").set_defaults(rho=0.0)
    verify = command("verify-theorem", cmd_verify, "factorization identity campaign",
                     config=False)
    verify.add_argument("--instances", type=int, default=100)
    command("compare", cmd_compare, "plain probe vs region-token head")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    # ArithmeticError covers FloatingPointError and the engine's NonFiniteError;
    # caught before ValueError, which LinAlgError subclasses
    except (ArithmeticError, np.linalg.LinAlgError, RuntimeError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
