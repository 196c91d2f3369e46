"""Command-line entry point.

Usage:
    w2s-lab <experiment> [--config FILE] [flag overrides]

Exit codes: 0 success, 1 configuration error, 2 verification failure,
3 numerical failure. Results go to --out (CSV, optional JSON mirror) or to
stdout when no path is given; status chatter goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from ..spectrum import NonConvergenceError
from .config import (
    EXPERIMENTS,
    ConfigError,
    _parse_float_list,
    _parse_int_list,
    _parse_kinds,
    build_config,
    parse_config_file,
)
from .experiments import (
    run_gain_profile,
    run_mask_count,
    run_risk_vs_n,
    run_two_stage_grid,
    scaling_slope_table,
)
from .output import render_csv, write_outputs
from .verify import run_verify


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="w2s-lab",
        description=(
            "Surrogate-to-target ridgeless regression laboratory: theory oracles, "
            "designed surrogates, and seeded Monte Carlo sweeps."
        ),
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="experiment to run")
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    parser.add_argument("--p", type=int, default=None, help="ambient dimension")
    parser.add_argument("--n", default=None, help="target sample count or comma list")
    parser.add_argument(
        "--m", default=None, help="surrogate-stage sample count or comma list"
    )
    parser.add_argument(
        "--alpha", default=None, help="spectrum decay exponent or comma list"
    )
    parser.add_argument(
        "--beta-exp", type=float, default=None, help="signal-energy decay exponent"
    )
    parser.add_argument(
        "--sigma-t", type=float, default=None, help="target-stage noise variance"
    )
    parser.add_argument(
        "--sigma-s", type=float, default=None, help="surrogate-stage noise variance"
    )
    parser.add_argument("--trials", type=int, default=None, help="Monte Carlo trials")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    parser.add_argument(
        "--kinds", default=None, help="comma list of surrogate kinds to run"
    )
    parser.add_argument("--workers", type=int, default=None, help="worker threads")
    parser.add_argument(
        "--json",
        dest="json_mirror",
        action="store_const",
        const=True,
        default=None,
        help="also write a .json mirror next to the CSV",
    )
    parser.add_argument(
        "--force",
        action="store_const",
        const=True,
        default=None,
        help="overwrite existing output files",
    )
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    overrides = {
        "p": args.p,
        "beta_exp": args.beta_exp,
        "sigma_t_sq": args.sigma_t,
        "sigma_s_sq": args.sigma_s,
        "trials": args.trials,
        "seed": args.seed,
        "out": args.out,
        "workers": args.workers,
        "json_mirror": args.json_mirror,
        "force": args.force,
    }
    if args.n is not None:
        overrides["n"] = _parse_int_list("n", args.n)
    if args.m is not None:
        overrides["m"] = _parse_int_list("m", args.m)
    if args.alpha is not None:
        overrides["alpha"] = _parse_float_list("alpha", args.alpha)
    if args.kinds is not None:
        overrides["kinds"] = _parse_kinds("kinds", args.kinds)
    return overrides


def _run_verify_command(cfg) -> int:
    report = run_verify(cfg)
    for prop in report["properties"]:
        status = "PASS" if prop["passed"] else "FAIL"
        print(
            f"{status} {prop['name']} (margin {prop['margin']:+.3e})", file=sys.stderr
        )
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    if cfg.out is not None:
        if os.path.exists(cfg.out) and not cfg.force:
            raise ConfigError(f"out: {cfg.out} exists; pass --force to overwrite")
        parent = os.path.dirname(cfg.out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {cfg.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    count = report["property_count"]
    passed = sum(1 for prop in report["properties"] if prop["passed"])
    print(f"{passed}/{count} properties passed", file=sys.stderr)
    return 0 if report["all_passed"] else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        file_values = parse_config_file(args.config) if args.config else {}
        cfg = build_config(args.experiment, file_values, **_overrides_from_args(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if cfg.experiment == "verify":
            return _run_verify_command(cfg)
        if cfg.experiment == "risk-vs-n":
            columns, rows = run_risk_vs_n(cfg)
        elif cfg.experiment == "two-stage-grid":
            columns, rows = run_two_stage_grid(cfg)
        elif cfg.experiment == "gain-profile":
            columns, rows = run_gain_profile(cfg)
        elif cfg.experiment == "mask-count":
            columns, rows = run_mask_count(cfg)
        else:  # scaling-slope; the experiment enum is validated by the config
            columns, rows, summary = scaling_slope_table(cfg)
            print(
                "slopes: target={slope_target} optimal={slope_optimal} "
                "predicted={predicted}".format(**summary),
                file=sys.stderr,
            )
        if cfg.out is not None:
            for path in write_outputs(cfg, columns, rows):
                print(f"wrote {path}", file=sys.stderr)
        else:
            sys.stdout.write(render_csv(cfg, columns, rows))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NonConvergenceError, np.linalg.LinAlgError, FloatingPointError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
