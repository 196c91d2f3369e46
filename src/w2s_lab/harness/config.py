"""Experiment configuration: flat key=value files, flag overrides, validation.

A config is a single flat text file of `key = value` lines (blank lines and
`#` comments ignored) plus CLI flag overrides; flags win. Validation errors
always name the offending field so sweep scripts fail loudly and precisely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

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


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    p: int = 500
    n: tuple[int, ...] = (100, 200, 300)
    m: tuple[int, ...] = ()  # empty means m mirrors n (two-stage only)
    alpha: tuple[float, ...] = (2.0,)
    beta_exp: float = 1.5
    sigma_t_sq: float = DEFAULT_SIGMA_SQ
    sigma_s_sq: float = DEFAULT_SIGMA_SQ
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    kinds: tuple[str, ...] = KINDS
    workers: int = 1
    out: str | None = None
    json_mirror: bool = False
    force: bool = False

    def alpha_scalar(self) -> float:
        if len(self.alpha) != 1:
            raise ConfigError(f"alpha: expected a single value, got {self.alpha}")
        return self.alpha[0]

    def n_scalar(self) -> int:
        if len(self.n) != 1:
            raise ConfigError(f"n: expected a single value, got {self.n}")
        return self.n[0]


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


def _parse_int_list(field: str, text: str) -> tuple[int, ...]:
    parts = [s.strip() for s in str(text).split(",") if s.strip()]
    return tuple(_parse_int(field, s) for s in parts)


def _parse_float_list(field: str, text: str) -> tuple[float, ...]:
    parts = [s.strip() for s in str(text).split(",") if s.strip()]
    return tuple(_parse_float(field, s) for s in parts)


def _parse_bool(field: str, text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{field}: expected a boolean, got {text!r}")


def _parse_kinds(field: str, text: str) -> tuple[str, ...]:
    parts = tuple(s.strip() for s in str(text).split(",") if s.strip())
    return parts


_FILE_PARSERS = {
    "experiment": lambda f, t: str(t).strip(),
    "p": _parse_int,
    "n": _parse_int_list,
    "m": _parse_int_list,
    "alpha": _parse_float_list,
    "beta_exp": _parse_float,
    "sigma_t_sq": _parse_float,
    "sigma_s_sq": _parse_float,
    "trials": _parse_int,
    "seed": _parse_int,
    "kinds": _parse_kinds,
    "workers": _parse_int,
    "out": lambda f, t: str(t).strip(),
    "json_mirror": _parse_bool,
}


def parse_config_file(path) -> dict:
    """Read a flat key=value config file into typed values.

    Unknown or duplicate keys are configuration errors.
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
        if key not in _FILE_PARSERS:
            raise ConfigError(f"config: unknown key {key!r} on line {lineno}")
        if key in values:
            raise ConfigError(f"config: duplicate key {key!r} on line {lineno}")
        values[key] = _FILE_PARSERS[key](key, text.strip())
    return values


def build_config(experiment: str, file_values: dict | None = None, **overrides) -> ExperimentConfig:
    """Assemble a validated ExperimentConfig; explicit overrides beat file values."""
    merged = dict(EXPERIMENT_DEFAULTS.get(experiment, {}))
    merged.update(file_values or {})
    merged.pop("experiment", None)  # the positional argument decides
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(merged) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    cfg = ExperimentConfig(experiment=experiment, **merged)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment: must be one of {', '.join(EXPERIMENTS)}, got {cfg.experiment!r}"
        )
    if cfg.p < 2:
        raise ConfigError(f"p: must be >= 2, got {cfg.p}")
    if cfg.trials < 1:
        raise ConfigError(f"trials: must be >= 1, got {cfg.trials}")
    if cfg.workers < 1:
        raise ConfigError(f"workers: must be >= 1, got {cfg.workers}")
    if not 0 <= cfg.seed < 2**64:
        # derive_seed keeps 64 bits, so a larger seed would alias a smaller one
        raise ConfigError(f"seed: must be in [0, 2**64), got {cfg.seed}")
    for name in ("sigma_t_sq", "sigma_s_sq", "beta_exp"):
        if not math.isfinite(getattr(cfg, name)):
            raise ConfigError(f"{name}: must be finite, got {getattr(cfg, name)}")
    if cfg.sigma_t_sq < 0.0:
        raise ConfigError(f"sigma_t_sq: must be >= 0, got {cfg.sigma_t_sq}")
    if cfg.sigma_s_sq < 0.0:
        raise ConfigError(f"sigma_s_sq: must be >= 0, got {cfg.sigma_s_sq}")
    if not cfg.beta_exp > 1.0:
        raise ConfigError(f"beta_exp: must be > 1, got {cfg.beta_exp}")
    if not cfg.alpha:
        raise ConfigError("alpha: grid must be non-empty")
    for a in cfg.alpha:
        if not (math.isfinite(a) and a > 1.0):
            raise ConfigError(f"alpha: every value must be finite and > 1, got {a}")
    if not cfg.n:
        raise ConfigError("n: grid must be non-empty")
    for value in cfg.n:
        if value < 1:
            raise ConfigError(f"n: every value must be >= 1, got {value}")
    for value in cfg.m:
        if value < 1:
            raise ConfigError(f"m: every value must be >= 1, got {value}")
    if not cfg.kinds:
        raise ConfigError("kinds: must be non-empty")
    for kind in cfg.kinds:
        if kind not in KINDS:
            raise ConfigError(f"kinds: unknown kind {kind!r}, valid: {', '.join(KINDS)}")
    if len(set(cfg.kinds)) != len(cfg.kinds):
        raise ConfigError(f"kinds: duplicate entries in {cfg.kinds}")

    exp = cfg.experiment
    if exp in ("gain-profile",):
        if len(cfg.n) != 1:
            raise ConfigError(f"n: {exp} takes exactly one n value, got {cfg.n}")
        if len(cfg.alpha) != 1:
            raise ConfigError(f"alpha: {exp} takes exactly one alpha value, got {cfg.alpha}")
    if exp in ("gain-profile", "risk-vs-n", "mask-count", "scaling-slope"):
        # theory precondition: fixed point needs n < p
        for value in cfg.n:
            if value >= cfg.p:
                raise ConfigError(f"n: every value must be < p={cfg.p}, got {value}")
    if exp == "risk-vs-n" and len(cfg.alpha) != 1:
        raise ConfigError(f"alpha: risk-vs-n takes exactly one alpha value, got {cfg.alpha}")
    if exp == "two-stage-grid":
        if cfg.m and len(cfg.m) != len(cfg.n):
            raise ConfigError(
                f"m: grid must be empty (mirrors n) or match the n grid length, "
                f"got {len(cfg.m)} values for {len(cfg.n)} n values"
            )
    if exp == "scaling-slope":
        if len(cfg.n) < 3:
            raise ConfigError(f"n: scaling-slope needs >= 3 grid points, got {len(cfg.n)}")
        if len(cfg.alpha) != 1:
            raise ConfigError(f"alpha: scaling-slope takes one alpha value, got {cfg.alpha}")
        if cfg.p < 10 * max(cfg.n):
            raise ConfigError(
                f"p: scaling-slope needs p >= 10*max(n) = {10 * max(cfg.n)}, got {cfg.p}"
            )
        for kind in cfg.kinds:
            if kind not in ("ground-truth", "optimal"):
                raise ConfigError(
                    f"kinds: scaling-slope supports ground-truth and optimal, got {kind!r}"
                )


def two_stage_m_grid(cfg: ExperimentConfig) -> tuple[int, ...]:
    """The effective m grid: explicit if given, else mirroring the n grid."""
    return cfg.m if cfg.m else cfg.n


def with_overrides(cfg: ExperimentConfig, **changes) -> ExperimentConfig:
    new_cfg = replace(cfg, **changes)
    validate_config(new_cfg)
    return new_cfg
