"""Experiment configuration: one field table, flat key=value files, flag overrides.

A config is a single flat text file of `key = value` lines (blank lines and
`#` comments ignored) plus CLI flag overrides; flags win. Each settable field
declares its parser, flag and help text once, on the ExperimentConfig field
itself; SETTINGS collects them, and the file reader and the command line both
parse through them, so a value reads the same from either. Constructing an
ExperimentConfig validates it, and errors always name the offending field so
sweep scripts fail loudly and precisely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as _field, fields
from typing import Callable, NamedTuple

EXPERIMENTS = (
    "gain-profile",
    "risk-vs-n",
    "two-stage-grid",
    "mask-count",
    "scaling-slope",
    "verify",
)
KINDS = ("ground-truth", "optimal", "masked")

# Defaults used where figure captions are silent; they are echoed into output
# metadata so no run depends on them implicitly.
DEFAULT_SIGMA_SQ = 0.05
DEFAULT_TRIALS = 200
DEFAULT_SEED = 20260822
# Trial workers are OS threads; more than this would only contend for the GIL.
MAX_WORKERS = 64


# The experiments that read each echoed field, where not all of them do. Any
# other experiment refuses a value that differs from the field's default, so
# an unread field never changes the echo or the build id of identical rows.
# seed is left out: it is echoed by every experiment and read by few.
READERS = {
    **dict.fromkeys(("p", "n", "alpha"), EXPERIMENTS[:-1]),  # all but verify
    "m": ("two-stage-grid",),
    "beta_exp": ("gain-profile", "risk-vs-n", "two-stage-grid", "scaling-slope"),
    "sigma_t_sq": ("risk-vs-n", "two-stage-grid", "scaling-slope"),
    "sigma_s_sq": ("two-stage-grid",),
    "trials": ("risk-vs-n", "two-stage-grid"),
    "kinds": ("risk-vs-n", "scaling-slope"),
}

# The grids an experiment takes exactly one value of.
ONE_VALUE = {"gain-profile": ("n", "alpha"), "risk-vs-n": ("alpha",), "scaling-slope": ("alpha",)}


# Where an experiment's own rules refuse a shared default, its entry here
# replaces it; file values and flags still win. A gain profile is taken at one
# n, and a scaling slope needs p >= 10*max(n) and a predicted exponent for
# every series it fits.
EXPERIMENT_DEFAULTS = {
    "gain-profile": {"n": (100,)},
    "scaling-slope": {"p": 3000, "kinds": ("ground-truth", "optimal")},
}


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or inconsistent."""


def _parse_int(field: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{field}: expected an integer, got {text!r}") from None


def _parse_float(field: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{field}: expected a number, got {text!r}") from None


def _parse_bool(field: str, text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{field}: expected a boolean, got {text!r}")


def _parse_text(field: str, text: str) -> str:
    return text  # verbatim: a path given as a flag keeps its spaces


def _list_of(parse):
    """A parser for a comma list of what `parse` reads; blank items are skipped."""
    return lambda field, text: tuple(
        parse(field, s.strip()) for s in text.split(",") if s.strip()
    )


class Setting(NamedTuple):
    """How a field is set from outside the program.

    parse(field name, text) returns the typed value or raises ConfigError
    naming the field. A flag with a const takes no value and stands for that
    text.
    """

    parse: Callable
    flag: str
    help: str
    const: str | None = None


def _setting(default, parse, flag, help, const=None):
    return _field(default=default, metadata={"setting": Setting(parse, flag, help, const)})


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated run: construction and dataclasses.replace both check every rule."""

    experiment: str
    p: int = _setting(500, _parse_int, "--p", "ambient dimension")
    n: tuple[int, ...] = _setting(
        (100, 200, 300), _list_of(_parse_int), "--n", "target sample count or comma list"
    )
    m: tuple[int, ...] = _setting(  # empty means m mirrors n (two-stage only)
        (), _list_of(_parse_int), "--m", "surrogate-stage sample count or comma list"
    )
    alpha: tuple[float, ...] = _setting(
        (2.0,), _list_of(_parse_float), "--alpha", "spectrum decay exponent or comma list"
    )
    beta_exp: float = _setting(1.5, _parse_float, "--beta-exp", "signal-energy decay exponent")
    sigma_t_sq: float = _setting(
        DEFAULT_SIGMA_SQ, _parse_float, "--sigma-t", "target-stage noise variance"
    )
    sigma_s_sq: float = _setting(
        DEFAULT_SIGMA_SQ, _parse_float, "--sigma-s", "surrogate-stage noise variance"
    )
    trials: int = _setting(DEFAULT_TRIALS, _parse_int, "--trials", "Monte Carlo trials")
    seed: int = _setting(DEFAULT_SEED, _parse_int, "--seed", "master seed")
    kinds: tuple[str, ...] = _setting(
        KINDS, _list_of(_parse_text), "--kinds", "comma list of surrogate kinds to run"
    )
    workers: int = _setting(1, _parse_int, "--workers", "worker threads")
    out: str | None = _setting(None, _parse_text, "--out", "output CSV path (default: stdout)")
    json_mirror: bool = _setting(
        False, _parse_bool, "--json", "also write a .json mirror next to the CSV", const="true"
    )
    force: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment: must be one of {', '.join(EXPERIMENTS)}, got {self.experiment!r}"
            )
        if self.p < 2:
            raise ConfigError(f"p: must be >= 2, got {self.p}")
        if self.trials < 1:
            raise ConfigError(f"trials: must be >= 1, got {self.trials}")
        if self.workers < 1:
            raise ConfigError(f"workers: must be >= 1, got {self.workers}")
        if self.workers > MAX_WORKERS:
            raise ConfigError(f"workers: must be <= {MAX_WORKERS}, got {self.workers}")
        if not 0 <= self.seed < 2**64:
            # derive_seed keeps 64 bits, so a larger seed would alias a smaller one
            raise ConfigError(f"seed: must be in [0, 2**64), got {self.seed}")
        for name in ("sigma_t_sq", "sigma_s_sq", "beta_exp"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name}: must be finite, got {getattr(self, name)}")
        if self.sigma_t_sq < 0.0:
            raise ConfigError(f"sigma_t_sq: must be >= 0, got {self.sigma_t_sq}")
        if self.sigma_s_sq < 0.0:
            raise ConfigError(f"sigma_s_sq: must be >= 0, got {self.sigma_s_sq}")
        if not self.beta_exp > 1.0:
            raise ConfigError(f"beta_exp: must be > 1, got {self.beta_exp}")
        if not self.alpha:
            raise ConfigError("alpha: grid must be non-empty")
        for a in self.alpha:
            if not (math.isfinite(a) and a > 1.0):
                raise ConfigError(f"alpha: every value must be finite and > 1, got {a}")
        if not self.n:
            raise ConfigError("n: grid must be non-empty")
        for name in ("n", "m"):
            for value in getattr(self, name):
                if value < 1:
                    raise ConfigError(f"{name}: every value must be >= 1, got {value}")
        if not self.kinds:
            raise ConfigError("kinds: must be non-empty")
        for kind in self.kinds:
            if kind not in KINDS:
                raise ConfigError(f"kinds: unknown kind {kind!r}, valid: {', '.join(KINDS)}")
        if len(set(self.kinds)) != len(self.kinds):
            raise ConfigError(f"kinds: duplicate entries in {self.kinds}")

        exp = self.experiment
        if exp == "verify" and self.json_mirror:
            raise ConfigError("json_mirror: verify's report is JSON and has no mirror")
        if self.json_mirror and self.out is None:
            raise ConfigError("json_mirror: the mirror is written next to out, and out is not set")
        for f in fields(self):
            readers = READERS.get(f.name, (exp,))
            value = getattr(self, f.name)
            if exp not in readers and value != f.default:
                verb = "reads" if len(readers) == 1 else "read"
                raise ConfigError(
                    f"{f.name}: only {', '.join(readers)} {verb} {f.name}, got {value} for {exp}"
                )
        for name in ONE_VALUE.get(exp, ()):
            value = getattr(self, name)
            if len(value) != 1:
                raise ConfigError(f"{name}: {exp} takes exactly one {name} value, got {value}")
        for name in ("n", "m"):  # the fixed point, and so every risk formula, needs n, m < p
            for value in getattr(self, name):
                if value >= self.p:
                    raise ConfigError(f"{name}: every value must be < p={self.p}, got {value}")
        if exp == "two-stage-grid":
            if self.m and len(self.m) != len(self.n):
                raise ConfigError(
                    f"m: grid must be empty (mirrors n) or match the n grid length, "
                    f"got {len(self.m)} values for {len(self.n)} n values"
                )
        if exp == "scaling-slope":
            if len(set(self.n)) < 3:  # a fit through repeated n is rank-deficient
                raise ConfigError(
                    f"n: scaling-slope needs >= 3 distinct grid points, got {len(set(self.n))}"
                )
            if self.p < 10 * max(self.n):
                raise ConfigError(
                    f"p: scaling-slope needs p >= 10*max(n) = {10 * max(self.n)}, got {self.p}"
                )
            for kind in self.kinds:
                if kind not in ("ground-truth", "optimal"):
                    raise ConfigError(
                        f"kinds: scaling-slope supports ground-truth and optimal, got {kind!r}"
                    )


# Every field a file key and a flag can set, in declaration order.
SETTINGS = {f.name: f.metadata["setting"] for f in fields(ExperimentConfig) if f.metadata}


def parse_config_file(path) -> dict:
    """Read a flat key=value config file into typed values.

    The keys are the fields of SETTINGS plus `experiment`, which build_config
    checks against the experiment being run. Unknown or duplicate keys are
    configuration errors.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config: line {lineno} is not key=value: {line!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        setting = SETTINGS.get(key)
        if setting is None and key != "experiment":
            raise ConfigError(f"config: unknown key {key!r} on line {lineno}")
        if key in values:
            raise ConfigError(f"config: duplicate key {key!r} on line {lineno}")
        values[key] = setting.parse(key, text.strip()) if setting else text.strip()
    return values


def build_config(experiment: str, file_values: dict | None = None, **overrides) -> ExperimentConfig:
    """Assemble a validated ExperimentConfig; explicit overrides beat file values.

    An `experiment` among the file values must name the experiment being run.
    """
    merged = dict(EXPERIMENT_DEFAULTS.get(experiment, {}))
    merged.update(file_values or {})
    named = merged.pop("experiment", experiment)
    if named != experiment:
        raise ConfigError(f"experiment: the config file names {named!r}, not {experiment!r}")
    merged.update((key, value) for key, value in overrides.items() if value is not None)
    unknown = set(merged) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return ExperimentConfig(experiment=experiment, **merged)
