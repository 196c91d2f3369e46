"""Result persistence: CSV with metadata header lines, optional JSON mirror.

Every output starts with the same metadata: a schema tag, a build id (first 12
hex digits of the SHA-1 of the canonical metadata string), and the config echo,
as `#` lines in a CSV and as leading keys in render_json, the one JSON writer
(table mirror and verify report). Only content-determining fields are echoed
(experiment, p, grids, exponents, noise levels, trials, seed, kinds); execution
plumbing such as the output path, worker count, or overwrite flag is excluded
so that identical (config, seed) runs produce byte-identical files regardless
of how they were executed. No timestamps for the same reason.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import sys

from .config import ConfigError, ExperimentConfig

SCHEMA_VERSION = 1

_ECHO_FIELDS = (
    "experiment",
    "p",
    "n",
    "m",
    "alpha",
    "beta_exp",
    "sigma_t_sq",
    "sigma_s_sq",
    "trials",
    "seed",
    "kinds",
)


def format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(format_value(v) for v in value)
    return str(value)


def config_echo(cfg: ExperimentConfig) -> dict:
    return {name: format_value(getattr(cfg, name)) for name in _ECHO_FIELDS}


def schema_tag(experiment: str) -> str:
    return f"w2s-lab/{experiment}/v{SCHEMA_VERSION}"


def build_id(cfg: ExperimentConfig) -> str:
    echo = config_echo(cfg)
    canonical = schema_tag(cfg.experiment) + ";" + ";".join(
        f"{k}={echo[k]}" for k in _ECHO_FIELDS
    )
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:12]


def render_csv(cfg: ExperimentConfig, columns, rows) -> str:
    """The CSV table: metadata header lines, the column row, then one line per row.

    A NaN or infinite cell is a numerical fault and raises FloatingPointError.
    """
    buf = io.StringIO()
    buf.write(f"# schema={schema_tag(cfg.experiment)}\n")
    buf.write(f"# build_id={build_id(cfg)}\n")
    for key, value in config_echo(cfg).items():
        buf.write(f"# {key}={value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        if len(row) != len(columns):
            raise RuntimeError(
                f"internal inconsistency: row has {len(row)} fields, schema has {len(columns)}"
            )
        for name, value in zip(columns, row):
            if isinstance(value, float) and not math.isfinite(value):
                raise FloatingPointError(f"{cfg.experiment} report: {name} is {value!r}")
        writer.writerow([format_value(v) for v in row])
    return buf.getvalue()


def render_json(cfg: ExperimentConfig, body: dict) -> str:
    """The one JSON writer: the schema, build_id and config header, then body's keys.

    A value JSON has no form for is written as format_value writes it in a CSV;
    a NaN or infinity is a numerical fault and raises FloatingPointError.
    """
    doc = {
        "schema": schema_tag(cfg.experiment),
        "build_id": build_id(cfg),
        "config": config_echo(cfg),
        **body,
    }
    try:
        return json.dumps(doc, indent=2, allow_nan=False, default=format_value) + "\n"
    except ValueError as exc:
        raise FloatingPointError(f"{cfg.experiment} report: {exc}") from exc


def output_paths(cfg: ExperimentConfig) -> list:
    """Every path a run of cfg writes: --out, then the JSON mirror if configured."""
    if cfg.out is None:
        return []
    if not cfg.json_mirror:
        return [cfg.out]
    root, ext = os.path.splitext(cfg.out)
    return [cfg.out, root + ".json" if ext.lower() == ".csv" else cfg.out + ".json"]


def refuse_existing(paths, force: bool) -> None:
    """Raise ConfigError for the first path that is a directory, or exists without force."""
    for path in paths:
        if os.path.isdir(path):
            raise ConfigError(f"out: {path} is a directory")
        if not force and os.path.exists(path):
            raise ConfigError(f"out: {path} exists; pass --force to overwrite")


def write_outputs(cfg: ExperimentConfig, texts) -> list:
    """Write a run's rendered outputs: the first to stdout, or each to its output_paths(cfg).

    texts holds the main file's text first and, when cfg.json_mirror is set,
    the mirror's second. Callers render every text before calling, so a
    render that raises leaves no file and no stdout. Returns the paths
    written, empty for stdout.

    Every path is checked before any is written: a directory is refused, and
    an existing file unless cfg.force is set. Parent directories are created.
    A path that cannot be written is a ConfigError naming out.
    """
    if cfg.out is None:
        sys.stdout.write(texts[0])
        return []
    paths = output_paths(cfg)
    refuse_existing(paths, cfg.force)
    try:
        for path, text in zip(paths, texts):
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        raise ConfigError(f"out: {exc}") from None
    return paths
