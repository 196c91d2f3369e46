"""Experiment configuration: one field table, flat key=value files, flag overrides.

A config is a single flat text file of `key = value` lines (blank lines and
`#` comments ignored) plus CLI flag overrides; flags win. Each settable field
states everything the config knows about it once, in its `_setting(...)` on
the ExperimentConfig field; SETTINGS collects them, and the file reader and
the command line both parse through them, so a value reads the same from
either. Constructing an ExperimentConfig checks every setting in one loop,
then the cross-field rules; errors always name the offending field so sweep
scripts fail loudly and precisely.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field, fields
from types import MappingProxyType
from typing import Callable, NamedTuple

from ..design import scaling_exponent
from ..estimators import MAX_WORKERS, _as_seed, _as_workers
from ..spectrum import _as_count, _check_exponent, _check_noise, _check_power_law

EXPERIMENTS = (
    "gain-profile",
    "risk-vs-n",
    "two-stage-grid",
    "mask-count",
    "scaling-slope",
    "verify",
)
TABLES = EXPERIMENTS[:-1]  # every experiment that writes a table: all but verify
KINDS = ("ground-truth", "optimal", "masked")

# Defaults used where figure captions are silent; they are echoed into output
# metadata so no run depends on them implicitly.
DEFAULT_SIGMA_SQ = 0.05
DEFAULT_TRIALS = 200
DEFAULT_SEED = 20260822


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


def _check_kind(kind, name: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}, valid: {', '.join(KINDS)}")


def _check_path(path, name: str) -> None:
    if not (isinstance(path, str) and path):
        raise ValueError(f"must be a path, got {path!r}")


def _check_bool(value, name: str) -> None:
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")


class Setting(NamedTuple):
    """Everything the config knows about one field, declared once on the field.

    parse(field name, text) returns the typed value or raises ConfigError
    naming the field; a flag with a const takes no value and stands for that
    text. rule(value, field name) raises TypeError or ValueError for a bad
    value, or grid item (a grid's default is a tuple). Only the experiments in
    readers take a value but the default, so an unread setting never changes
    an echo; those in one_value take a one-item grid. defaults replaces the
    field's default per experiment. A plumbing setting never changes a row.
    """

    parse: Callable
    flag: str
    help: str
    rule: Callable
    const: str | None = None
    readers: tuple[str, ...] = EXPERIMENTS
    one_value: tuple[str, ...] = ()
    defaults: MappingProxyType = MappingProxyType({})
    plumbing: bool = False


def _setting(default, parse, flag, help, rule, defaults=(), **facts):
    setting = Setting(parse, flag, help, rule, defaults=MappingProxyType(dict(defaults)), **facts)
    return _field(default=default, metadata={"setting": setting})


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated run: construction and dataclasses.replace both check every rule."""

    experiment: str
    p: int = _setting(  # a scaling slope needs p >= 10*max(n)
        500, _parse_int, "--p", "ambient dimension", _as_count,
        readers=TABLES, defaults={"scaling-slope": 3000},
    )
    n: tuple[int, ...] = _setting(
        (100, 200, 300), _list_of(_parse_int), "--n", "target sample count or comma list",
        _as_count, readers=TABLES, one_value=("gain-profile",), defaults={"gain-profile": (100,)},
    )
    m: tuple[int, ...] = _setting(  # empty means m mirrors n (two-stage only)
        (), _list_of(_parse_int), "--m", "surrogate-stage sample count or comma list",
        _as_count, readers=("two-stage-grid",),
    )
    alpha: tuple[float, ...] = _setting(
        (2.0,), _list_of(_parse_float), "--alpha", "spectrum decay exponent or comma list",
        _check_exponent, readers=TABLES, one_value=("gain-profile", "risk-vs-n", "scaling-slope"),
    )
    beta_exp: float = _setting(
        1.5, _parse_float, "--beta-exp", "signal-energy decay exponent", _check_exponent,
        readers=("gain-profile", "risk-vs-n", "two-stage-grid", "scaling-slope"),
    )
    sigma_t_sq: float = _setting(
        DEFAULT_SIGMA_SQ, _parse_float, "--sigma-t", "target-stage noise variance", _check_noise,
        readers=("risk-vs-n", "two-stage-grid", "scaling-slope"),
    )
    sigma_s_sq: float = _setting(
        DEFAULT_SIGMA_SQ, _parse_float, "--sigma-s", "surrogate-stage noise variance",
        _check_noise, readers=("two-stage-grid",),
    )
    trials: int = _setting(
        DEFAULT_TRIALS, _parse_int, "--trials", "Monte Carlo trials", _as_count,
        readers=("risk-vs-n", "two-stage-grid"),
    )
    # echoed by every experiment, so left readable by all, though few read it
    seed: int = _setting(DEFAULT_SEED, _parse_int, "--seed", "master seed", _as_seed)
    kinds: tuple[str, ...] = _setting(  # scaling-slope predicts no masked exponent
        KINDS, _list_of(_parse_text), "--kinds", "comma list of surrogate kinds to run",
        _check_kind, readers=("risk-vs-n", "scaling-slope"),
        defaults={"scaling-slope": ("ground-truth", "optimal")},
    )
    workers: int = _setting(
        1, _parse_int, "--workers", "worker threads", _as_workers, plumbing=True
    )
    out: str | None = _setting(
        None, _parse_text, "--out", "output CSV path (default: stdout)", _check_path, plumbing=True
    )
    json_mirror: bool = _setting(
        False, _parse_bool, "--json", "also write a .json mirror next to the CSV", _check_bool,
        const="true", plumbing=True,
    )
    force: bool = False

    def __post_init__(self):
        exp = self.experiment
        if exp not in EXPERIMENTS:
            raise ConfigError(f"experiment: must be one of {', '.join(EXPERIMENTS)}, got {exp!r}")
        for f in fields(self):
            setting, value, name = f.metadata.get("setting"), getattr(self, f.name), f.name
            if setting is None or (value is None and f.default is None):
                continue  # not a setting, or a setting left unset
            grid = isinstance(f.default, tuple)
            if isinstance(value, tuple) != grid:
                shape = "a tuple" if grid else "a single value"
                raise ConfigError(f"{name}: must be {shape}, got {value!r}")
            for item in value if grid else (value,):
                try:
                    setting.rule(item, name)
                except (TypeError, ValueError) as exc:  # TypeError: None or not a number
                    raise ConfigError(f"{name}: {str(exc).removeprefix(name + ' ')}") from None
            if grid and f.default and not value:
                raise ConfigError(f"{name}: grid must be non-empty")
            readers = setting.readers
            if exp not in readers and value != f.default:
                verb = "reads" if len(readers) == 1 else "read"
                raise ConfigError(
                    f"{name}: only {', '.join(readers)} {verb} {name}, got {value} for {exp}"
                )
            if exp in setting.one_value and len(value) != 1:
                raise ConfigError(f"{name}: {exp} takes exactly one {name} value, got {value}")
        if len(set(self.kinds)) != len(self.kinds):
            raise ConfigError(f"kinds: duplicate entries in {self.kinds}")
        if exp == "verify" and self.json_mirror:
            raise ConfigError("json_mirror: verify's report is JSON and has no mirror")
        if self.json_mirror and self.out is None:
            raise ConfigError("json_mirror: the mirror is written next to out, and out is not set")
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
        # the runners' own refusals, raised here so that they cost no work
        try:
            for alpha in self.alpha:
                _check_power_law(self.p, alpha)
            if exp == "scaling-slope":
                scaling_exponent(self.alpha[0], self.beta_exp)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


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
    merged = {
        name: s.defaults[experiment] for name, s in SETTINGS.items() if experiment in s.defaults
    }
    merged.update(file_values or {})
    named = merged.pop("experiment", experiment)
    if named != experiment:
        raise ConfigError(f"experiment: the config file names {named!r}, not {experiment!r}")
    merged.update((key, value) for key, value in overrides.items() if value is not None)
    unknown = set(merged) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return ExperimentConfig(experiment=experiment, **merged)
