"""Property-based fuzzing of the config parser and validator.

Any key=value file text, with or without typed overrides, and any command
line of `--flag=text` arguments, either builds a config whose numeric fields
are finite and inside their bounds, or raises ConfigError naming what is
wrong. Nothing else is allowed: no other exception, and no config carrying
inf, nan or an out-of-range number into a runner.
"""

import math
import os
import tempfile
from dataclasses import fields

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from w2s_lab.harness.cli import config_from_argv  # noqa: E402
from w2s_lab.harness.config import (  # noqa: E402
    EXPERIMENTS,
    KINDS,
    MAX_WORKERS,
    READERS,
    SETTINGS,
    ConfigError,
    build_config,
    parse_config_file,
)

_FREE_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_FLOAT_TEXT = (
    st.sampled_from(["inf", "-inf", "nan", "1e400", "-0.0", "0", "1", "1.5", "2", "3"])
    | st.floats(allow_nan=True, allow_infinity=True).map(repr)
)
_INT_TEXT = (
    st.integers(-3, 600).map(str)
    | st.integers(-(2**70), 2**70).map(str)
    | st.sampled_from(["1.5", "1e3", "2**64", ""])
)


def _joined(item):
    return st.lists(item, max_size=4).map(",".join)


# One text strategy per file key, mostly of the key's own type so that many
# files pass the parser and reach validation, with free text mixed in.
_KEY_TEXT = {
    "experiment": st.sampled_from(("risk-vs-n", "nope")),
    "p": _INT_TEXT,
    "n": _joined(_INT_TEXT),
    "m": _joined(_INT_TEXT),
    "alpha": _joined(_FLOAT_TEXT),
    "beta_exp": _FLOAT_TEXT,
    "sigma_t_sq": _FLOAT_TEXT,
    "sigma_s_sq": _FLOAT_TEXT,
    "trials": _INT_TEXT,
    "seed": _INT_TEXT,
    "kinds": _joined(st.sampled_from(KINDS + ("oracle", ""))),
    "workers": _INT_TEXT,
    "out": _FREE_TEXT,
    "json_mirror": st.sampled_from(["true", "off", "maybe", ""]),
}
_KEY_LINES = st.lists(st.sampled_from(sorted(_KEY_TEXT)), unique=True, max_size=4).flatmap(
    lambda keys: st.tuples(*(_KEY_TEXT[key] | _FREE_TEXT for key in keys)).map(
        lambda texts: [f"{key} = {text}" for key, text in zip(keys, texts)]
    )
)
_FREE_LINE = (
    st.tuples(st.text(max_size=6), _FREE_TEXT).map(lambda kv: f"{kv[0]} = {kv[1]}")
    | st.sampled_from(["", "# comment", "no equals sign", "p = 3"])
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)
)
_LINES = st.tuples(_KEY_LINES, st.lists(_FREE_LINE, max_size=1)).map(
    lambda parts: parts[0] + parts[1]
)

_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_INTS = st.integers(-3, 600) | st.integers(-(2**66), 2**66)
_OVERRIDE_VALUES = {
    "p": _INTS,
    "n": st.lists(_INTS, max_size=3).map(tuple),
    "m": st.lists(_INTS, max_size=3).map(tuple),
    "alpha": st.lists(_FLOATS, max_size=3).map(tuple),
    "beta_exp": _FLOATS,
    "sigma_t_sq": _FLOATS,
    "sigma_s_sq": _FLOATS,
    "trials": _INTS,
    "seed": _INTS,
    "workers": _INTS,
    "kinds": st.lists(st.sampled_from(KINDS), max_size=3).map(tuple),
}
# Overrides arrive typed, as a library caller passes them to build_config.
_OVERRIDES = st.lists(st.sampled_from(sorted(_OVERRIDE_VALUES)), unique=True, max_size=2).flatmap(
    lambda keys: st.fixed_dictionaries({key: _OVERRIDE_VALUES[key] for key in keys})
)


def _assert_in_bounds(cfg):
    assert isinstance(cfg.p, int) and cfg.p >= 2
    assert cfg.n and all(isinstance(v, int) and 1 <= v for v in cfg.n)
    assert all(isinstance(v, int) and v >= 1 for v in cfg.m)
    assert cfg.alpha and all(math.isfinite(a) and a > 1.0 for a in cfg.alpha)
    assert math.isfinite(cfg.beta_exp) and cfg.beta_exp > 1.0
    for sigma in (cfg.sigma_t_sq, cfg.sigma_s_sq):
        assert math.isfinite(sigma) and sigma >= 0.0
    assert cfg.trials >= 1 and 1 <= cfg.workers <= MAX_WORKERS
    assert 0 <= cfg.seed < 2**64
    assert cfg.kinds and set(cfg.kinds) <= set(KINDS)
    assert cfg.out is not None or not cfg.json_mirror
    for f in fields(cfg):  # a field the experiment does not read keeps its default
        if cfg.experiment not in READERS.get(f.name, (cfg.experiment,)):
            assert getattr(cfg, f.name) == f.default, f.name


def _parse_text(text: str) -> dict:
    handle, path = tempfile.mkstemp(suffix=".cfg")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as fh:
            fh.write(text)
        return parse_config_file(path)
    finally:
        os.unlink(path)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(
    experiment=st.sampled_from(EXPERIMENTS + ("unknown",)),
    lines=_LINES,
    overrides=st.none() | _OVERRIDES,
)
@example(experiment="risk-vs-n", lines=["p = 20", "n = 5", "beta_exp = inf"], overrides=None)
@example(experiment="risk-vs-n", lines=["p = 20", "n = 5"], overrides={"sigma_t_sq": math.inf})
@example(experiment="risk-vs-n", lines=["p = 20", "n = 5", "sigma_s_sq = nan"], overrides=None)
@example(experiment="mask-count", lines=["p = 20", "n = 5", "alpha = 2, inf"], overrides=None)
def test_config_is_in_bounds_or_refused(experiment, lines, overrides):
    try:
        values = _parse_text("\n".join(lines) + "\n")
        cfg = build_config(experiment, values, **(overrides or {}))
    except ConfigError:
        return
    _assert_in_bounds(cfg)


def _flag_arg(key: str, text: str) -> str:
    setting = SETTINGS[key]
    return setting.flag if setting.const else f"{setting.flag}={text}"


# The file keys' texts again, each as its flag's `--flag=text` (a switch such
# as --json takes no text and is given bare).
_FLAG_ARGS = st.lists(st.sampled_from(sorted(SETTINGS)), unique=True, max_size=4).flatmap(
    lambda keys: st.tuples(*(_KEY_TEXT[key] | _FREE_TEXT for key in keys)).map(
        lambda texts: [_flag_arg(key, text) for key, text in zip(keys, texts)]
    )
)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(experiment=st.sampled_from(EXPERIMENTS + ("unknown",)), args=_FLAG_ARGS)
@example(experiment="risk-vs-n", args=["--p=20", "--n=5", "--beta-exp=inf"])
@example(experiment="mask-count", args=["--p=20", "--n=5", "--alpha=2, inf"])
@example(experiment="verify", args=["--json"])
def test_flags_are_in_bounds_or_refused(experiment, args):
    try:
        cfg = config_from_argv([experiment, *args])
    except ConfigError:
        return
    _assert_in_bounds(cfg)


def test_non_utf8_file_is_a_config_error(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("out = caf\xe9\n".encode("latin-1"))
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file(path)


@pytest.mark.parametrize("field", ["beta_exp", "sigma_t_sq", "sigma_s_sq"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_scalar_is_refused_by_name(field, value):
    with pytest.raises(ConfigError, match=field):
        build_config("risk-vs-n", {"p": 20, "n": (5,), field: value})


def test_non_finite_alpha_is_refused_by_name():
    with pytest.raises(ConfigError, match="alpha"):
        build_config("mask-count", {"p": 20, "n": (5,), "alpha": (2.0, math.inf)})
