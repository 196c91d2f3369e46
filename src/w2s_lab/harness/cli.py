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
from .experiments import RUNNERS, SLOPE_COLUMNS
from .output import (
    output_paths,
    refuse_existing,
    render_csv,
    write_files,
    write_outputs,
)
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


def _emit(cfg, render, write) -> None:
    """Print render() to stdout, or call write() (which returns the paths) for --out."""
    if cfg.out is None:
        sys.stdout.write(render())
    else:
        for path in write():
            print(f"wrote {path}", file=sys.stderr)


def _run_verify_command(cfg) -> int:
    report = run_verify(cfg)
    for prop in report["properties"]:
        status = "PASS" if prop["passed"] else "FAIL"
        print(
            f"{status} {prop['name']} (margin {prop['margin']:+.3e})", file=sys.stderr
        )
    try:
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # a non-finite margin is a fault, not a bad config
        raise FloatingPointError(f"verify report: {exc}") from exc
    _emit(cfg, lambda: text, lambda: write_files({cfg.out: lambda: text}, cfg.force))
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
        refuse_existing(output_paths(cfg), cfg.force)  # before any work is spent
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if cfg.experiment == "verify":
            return _run_verify_command(cfg)
        columns, rows = RUNNERS[cfg.experiment](cfg)
        if columns == SLOPE_COLUMNS:
            first = dict(zip(columns, rows[0]))
            print(
                "slopes: target={slope_target} optimal={slope_optimal} "
                "predicted={predicted_slope}".format(**first),
                file=sys.stderr,
            )
        _emit(
            cfg,
            lambda: render_csv(cfg, columns, rows),
            lambda: write_outputs(cfg, columns, rows),
        )
        return 0
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NonConvergenceError, np.linalg.LinAlgError, FloatingPointError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
