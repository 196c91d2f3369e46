"""Command-line entry point.

Usage:
    w2s-lab <experiment> [--config FILE] [flag overrides]

Exit codes: 0 success, 1 configuration error, 2 verification failure,
3 numerical failure. Results go to --out (CSV, optional JSON mirror) or to
stdout when no path is given; status chatter goes to stderr. A NaN or infinity
in any output (a CSV cell, the mirror or the verify report) is a numerical
failure, and nothing is written.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from ..spectrum import NonConvergenceError
from .config import (
    EXPERIMENTS,
    SETTINGS,
    ConfigError,
    ExperimentConfig,
    build_config,
    parse_config_file,
)
from .experiments import RUNNERS, SLOPE_COLUMNS
from .output import output_paths, refuse_existing, render_csv, render_json, write_outputs
from .verify import run_verify


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """The command line: one flag per entry of SETTINGS, each kept as its text."""
    parser = _Parser(
        prog="w2s-lab",
        description=(
            "Surrogate-to-target ridgeless regression laboratory: theory oracles, "
            "designed surrogates, and seeded Monte Carlo sweeps."
        ),
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="experiment to run")
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    for name, setting in SETTINGS.items():
        switch = {} if setting.const is None else {"action": "store_const", "const": setting.const}
        parser.add_argument(setting.flag, dest=name, help=setting.help, **switch)
    parser.add_argument("--force", action="store_true", help="overwrite existing output files")
    return parser


def config_from_argv(argv) -> ExperimentConfig:
    """The validated config a command line asks for: its config file, then its flags.

    Flag texts go through the same parsers as file values, so a bad value
    raises the same ConfigError from either.
    """
    args = build_parser().parse_args(argv)
    file_values = parse_config_file(args.config) if args.config else {}
    flags = {
        name: setting.parse(name, getattr(args, name))
        for name, setting in SETTINGS.items()
        if getattr(args, name) is not None
    }
    return build_config(args.experiment, file_values, force=args.force, **flags)


def _verify_report(cfg):
    """Run the battery; return its rendered report and the exit code."""
    report = run_verify(cfg)
    for prop in report["properties"]:
        status = "PASS" if prop["passed"] else "FAIL"
        print(
            f"{status} {prop['name']} (margin {prop['margin']:+.3e})", file=sys.stderr
        )
    texts = [render_json(cfg, report)]  # now, so a non-finite margin writes no file
    count = report["property_count"]
    passed = sum(1 for prop in report["properties"] if prop["passed"])
    print(f"{passed}/{count} properties passed", file=sys.stderr)
    return texts, 0 if report["all_passed"] else 2


def _table(cfg):
    """Run a table experiment; return the CSV, its mirror if set, and exit code 0."""
    columns, rows = RUNNERS[cfg.experiment](cfg)
    if columns == SLOPE_COLUMNS:
        first = dict(zip(columns, rows[0]))
        print(
            "slopes: target={slope_target} optimal={slope_optimal} "
            "predicted={predicted_slope}".format(**first),
            file=sys.stderr,
        )
    texts = [render_csv(cfg, columns, rows)]
    if cfg.json_mirror:
        texts.append(render_json(cfg, {"columns": columns, "rows": rows}))
    return texts, 0


def main(argv=None) -> int:
    try:
        cfg = config_from_argv(argv)
        refuse_existing(output_paths(cfg), cfg.force)  # before any work is spent
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        texts, code = (_verify_report if cfg.experiment == "verify" else _table)(cfg)
        for path in write_outputs(cfg, texts):
            print(f"wrote {path}", file=sys.stderr)
        return code
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NonConvergenceError, np.linalg.LinAlgError, FloatingPointError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
