"""Tests for config handling, experiment tables, CSV/JSON output, and the CLI."""

import json
import math
import sys
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from w2s_lab import (
    NonConvergenceError,
    ProblemInstance,
    empirical_excess_risk,
    one_stage_risk,
    optimal_mask,
    optimal_surrogate,
    power_law_signal,
    power_law_spectrum,
    solve_tau,
    two_stage_risk,
)
from w2s_lab import estimators
from w2s_lab.estimators import STAGE_SURROGATE, STAGE_TARGET, derive_seed, fit, sample_dataset
from w2s_lab.harness import cli, experiments, verify
from w2s_lab.harness.cli import main
from w2s_lab.harness.config import (
    EXPERIMENTS,
    KINDS,
    MAX_WORKERS,
    READERS,
    SETTINGS,
    ConfigError,
    ExperimentConfig,
    build_config,
    parse_config_file,
)
from w2s_lab.harness.experiments import (
    RUNNERS,
    mc_one_stage_risks,
    mc_two_stage_risks,
    mean_and_se,
    run_gain_profile,
    run_mask_count,
    run_risk_vs_n,
    run_scaling_slope,
    run_two_stage_grid,
    surrogate_values_for_kind,
)
from w2s_lab.harness.output import (
    build_id,
    format_value,
    render_csv,
    render_json,
    write_outputs,
)


class TestConfigFile:
    def test_parses_typed_values(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "# a sweep\n"
            "\n"
            "p = 40\n"
            "n = 5, 10\n"
            "alpha = 2.0\n"
            "sigma_t_sq = 0.1\n"
            "json_mirror = true\n"
            "kinds = ground-truth,optimal\n"
        )
        values = parse_config_file(path)
        assert values["p"] == 40
        assert tuple(values["n"]) == (5, 10)
        assert values["sigma_t_sq"] == pytest.approx(0.1)
        assert values["json_mirror"] is True
        assert tuple(values["kinds"]) == ("ground-truth", "optimal")

    def test_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("rho = 3\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_rejects_duplicate_key(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("p = 10\np = 20\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_rejects_non_assignment_line(self, tmp_path):
        path = tmp_path / "line.cfg"
        path.write_text("just words\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(tmp_path / "absent.cfg")


class TestBuildConfig:
    def test_overrides_beat_file_values(self):
        cfg = build_config(
            "risk-vs-n",
            {"p": 50, "trials": 9, "n": (5,)},
            trials=3,
        )
        assert cfg.p == 50
        assert cfg.trials == 3

    def test_none_overrides_are_ignored(self):
        cfg = build_config("risk-vs-n", {"trials": 9, "n": (5,), "p": 40}, trials=None)
        assert cfg.trials == 9

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            build_config("risk-vs-n", {}, rho=1.0)

    def test_replace_and_construction_revalidate(self):
        cfg = build_config("risk-vs-n", {"p": 40, "n": (5,)})
        bumped = replace(cfg, trials=7)
        assert bumped.trials == 7
        assert bumped.p == 40
        with pytest.raises(ConfigError, match="trials"):
            replace(cfg, trials=0)
        with pytest.raises(ConfigError, match="n: every value must be < p"):
            ExperimentConfig(experiment="risk-vs-n", p=40, n=(40,))

    @pytest.mark.parametrize("named", ["two-stage-grid", "nonsense"])
    def test_file_experiment_key_must_match_the_command(self, tmp_path, named):
        path = tmp_path / "sweep.cfg"
        path.write_text(f"experiment = {named}\np = 40\nn = 5\n")
        with pytest.raises(ConfigError, match="experiment"):
            build_config("risk-vs-n", parse_config_file(path))
        path.write_text("experiment = risk-vs-n\np = 40\nn = 5\n")
        assert build_config("risk-vs-n", parse_config_file(path)).p == 40


# Per settable field, a text that the field's experiment (two-stage-grid
# unless _FIELD_EXPERIMENT names another) accepts and one that it refuses
# (None where the field takes any text, or its flag takes none).
_FIELD_TEXTS = {
    "p": ("400", "x"),  # above two-stage-grid's default n up to 300
    "n": ("5,10", "5,x"),
    "m": ("6,11,12", "6,1.5"),
    "alpha": ("1.5,3", "2,two"),
    "beta_exp": ("2.5", "steep"),
    "sigma_t_sq": ("0.1", "-0.1"),
    "sigma_s_sq": ("0", ""),
    "trials": ("7", "1e3"),
    "seed": ("11", "-1"),
    "kinds": ("optimal,masked", "optimal,oracle"),
    "workers": ("3", "0"),
    "out": ("x y/run.csv", None),
    "json_mirror": ("true", None),
}
# two-stage-grid reads every field but kinds.
_FIELD_EXPERIMENT = {"kinds": "risk-vs-n"}


def _from_file_and_flag(tmp_path, experiment, name, text):
    """Build experiment from `name = text` in a file and from the flag: configs or errors.

    The JSON mirror needs an out path, which both ways then also give.
    """
    results = []
    path = tmp_path / "one.cfg"
    path.write_text(f"{name} = {text}\n" + ("out = run.csv\n" if name == "json_mirror" else ""))
    setting = SETTINGS[name]
    flag = [setting.flag] if setting.const else [f"{setting.flag}={text}"]
    if name == "json_mirror":
        flag.append("--out=run.csv")
    for build in (
        lambda: build_config(experiment, parse_config_file(path)),
        lambda: cli.config_from_argv([experiment, *flag]),
    ):
        try:
            results.append(build())
        except ConfigError as exc:
            results.append(str(exc))
    return results


class TestFieldTable:
    def test_every_settable_field_is_in_the_table(self):
        names = {f.name for f in fields(ExperimentConfig)}
        assert set(SETTINGS) == names - {"experiment", "force"}
        assert set(_FIELD_TEXTS) == set(SETTINGS)

    def test_flags_are_the_documented_set(self):
        flags = {s.flag for s in SETTINGS.values()}
        assert flags == {
            "--p", "--n", "--m", "--alpha", "--beta-exp", "--sigma-t", "--sigma-s",
            "--trials", "--seed", "--kinds", "--workers", "--out", "--json",
        }

    @pytest.mark.parametrize("name", sorted(_FIELD_TEXTS))
    def test_file_key_and_flag_build_the_same_config(self, tmp_path, name):
        good, bad = _FIELD_TEXTS[name]
        experiment = _FIELD_EXPERIMENT.get(name, "two-stage-grid")
        from_file, from_flag = _from_file_and_flag(tmp_path, experiment, name, good)
        assert isinstance(from_file, ExperimentConfig), from_file
        assert from_file == from_flag
        assert getattr(from_file, name) != getattr(build_config(experiment), name)
        if bad is not None:
            from_file, from_flag = _from_file_and_flag(tmp_path, experiment, name, bad)
            assert isinstance(from_file, str) and from_file.startswith(f"{name}: ")
            assert from_file == from_flag


# The experiments that read each field (seed is read by few and refused by
# none), as the README documents it.
_TABLES = ("gain-profile", "risk-vs-n", "two-stage-grid", "mask-count", "scaling-slope")
_DOCUMENTED_READERS = {
    "p": _TABLES,
    "n": _TABLES,
    "m": ("two-stage-grid",),
    "alpha": _TABLES,
    "beta_exp": ("gain-profile", "risk-vs-n", "two-stage-grid", "scaling-slope"),
    "sigma_t_sq": ("risk-vs-n", "two-stage-grid", "scaling-slope"),
    "sigma_s_sq": ("two-stage-grid",),
    "trials": ("risk-vs-n", "two-stage-grid"),
    "kinds": ("risk-vs-n", "scaling-slope"),
}
# A config each experiment accepts, and per field a value other than its default.
_BASES = {
    "gain-profile": {"p": 50, "n": (5,)},
    "risk-vs-n": {"p": 50, "n": (5,)},
    "two-stage-grid": {"p": 50, "n": (5,)},
    "mask-count": {"p": 50, "n": (5,)},
    "scaling-slope": {"p": 400, "n": (10, 20, 40)},
}
_UNREAD_VALUES = {
    "p": 50,
    "n": (5,),
    "m": (7,),
    "alpha": (3.0,),
    "beta_exp": 3.0,
    "sigma_t_sq": 0.3,
    "sigma_s_sq": 0.3,
    "trials": 7,
    "kinds": ("optimal",),
}


def _assert_unread_is_refused(name, experiment) -> str:
    """An experiment that does not read field `name` refuses any value but its default.

    Returns the refusal's message.
    """
    base = _BASES.get(experiment, {})
    build_config(experiment, base)
    readers = _DOCUMENTED_READERS[name]
    verb = "reads" if len(readers) == 1 else "read"
    with pytest.raises(ConfigError) as caught:
        build_config(experiment, {**base, name: _UNREAD_VALUES[name]})
    message = str(caught.value)
    assert message == (
        f"{name}: only {', '.join(readers)} {verb} {name}, "
        f"got {_UNREAD_VALUES[name]} for {experiment}"
    )
    return message


class TestValidation:
    def test_experiment_enum(self):
        assert "verify" in EXPERIMENTS
        with pytest.raises(ConfigError):
            build_config("unknown-experiment", {})

    def test_sample_count_must_stay_below_p(self):
        with pytest.raises(ConfigError):
            build_config("risk-vs-n", {"p": 10, "n": (10,)})

    def test_risk_vs_n_wants_single_alpha(self):
        with pytest.raises(ConfigError):
            build_config("risk-vs-n", {"p": 40, "n": (5,), "alpha": (1.5, 2.0)})

    def test_gain_profile_wants_single_n(self):
        with pytest.raises(ConfigError):
            build_config("gain-profile", {"p": 40, "n": (5, 6)})

    @pytest.mark.parametrize("experiment", ["gain-profile", "risk-vs-n", "scaling-slope"])
    def test_two_alphas_get_the_one_value_message(self, experiment):
        n = (10, 20, 30) if experiment == "scaling-slope" else (10,)
        with pytest.raises(ConfigError) as caught:
            build_config(experiment, {"p": 3000, "n": n, "alpha": (2.0, 3.0)})
        assert str(caught.value) == (
            f"alpha: {experiment} takes exactly one alpha value, got (2.0, 3.0)"
        )

    def test_scaling_slope_wants_three_distinct_n(self):
        with pytest.raises(ConfigError, match=r"^n: scaling-slope needs >= 3 distinct grid"):
            build_config("scaling-slope", {"p": 300, "n": (10, 10, 10)})
        with pytest.raises(ConfigError, match=r"^n: .*, got 2$"):
            build_config("scaling-slope", {"p": 300, "n": (10, 20, 10)})
        cfg = build_config("scaling-slope", {"p": 300, "n": (10, 20, 10, 30)})
        assert cfg.n == (10, 20, 10, 30)

    def test_two_stage_m_grid_mirrors_n(self):
        cfg = build_config("two-stage-grid", {"p": 30, "n": (5, 8), "trials": 2})
        assert [row[10] for row in run_two_stage_grid(cfg)[1]] == [5, 5, 8, 8]
        cfg = build_config("two-stage-grid", {"p": 30, "n": (5, 8), "m": (6, 9), "trials": 2})
        assert [row[10] for row in run_two_stage_grid(cfg)[1]] == [6, 6, 9, 9]
        with pytest.raises(ConfigError):
            build_config("two-stage-grid", {"p": 30, "n": (5, 8), "m": (6,)})

    @pytest.mark.parametrize("experiment", [e for e in EXPERIMENTS if e != "two-stage-grid"])
    def test_m_is_refused_where_it_is_not_read(self, experiment):
        message = _assert_unread_is_refused("m", experiment)
        assert message == f"m: only two-stage-grid reads m, got (7,) for {experiment}"

    @pytest.mark.parametrize(
        "name, experiment",
        [
            (name, experiment)
            for name, readers in _DOCUMENTED_READERS.items()
            if name != "m"
            for experiment in EXPERIMENTS
            if experiment not in readers
        ],
    )
    def test_unread_field_is_refused(self, name, experiment):
        _assert_unread_is_refused(name, experiment)

    def test_readers_are_the_documented_table(self):
        assert READERS == _DOCUMENTED_READERS

    def test_seed_is_accepted_everywhere(self):
        for experiment in EXPERIMENTS:
            assert build_config(experiment, {**_BASES.get(experiment, {}), "seed": 7}).seed == 7

    def test_build_id_without_m_is_unchanged(self):
        assert build_id(build_config("mask-count", {"p": 50, "n": (5,)})) == "52c28407d5b3"
        cfg = build_config("two-stage-grid", {"p": 50, "n": (5,), "m": (7,)})
        assert build_id(cfg) == "fa6c31a97650"

    def test_scaling_slope_rules(self):
        with pytest.raises(ConfigError):  # needs at least three n points
            build_config("scaling-slope", {"p": 400, "n": (10, 20)})
        with pytest.raises(ConfigError):  # needs p >= 10 * max(n)
            build_config("scaling-slope", {"p": 100, "n": (10, 20, 40)})
        with pytest.raises(ConfigError):  # masked series has no slope prediction
            build_config(
                "scaling-slope",
                {"p": 400, "n": (10, 20, 40), "kinds": ("masked",)},
            )
        build_config(
            "scaling-slope",
            {"p": 400, "n": (10, 20, 40), "kinds": ("ground-truth", "optimal")},
        )

    def test_kind_membership_and_duplicates(self):
        with pytest.raises(ConfigError):
            build_config("risk-vs-n", {"p": 40, "n": (5,), "kinds": ("oracle",)})
        with pytest.raises(ConfigError):
            build_config(
                "risk-vs-n", {"p": 40, "n": (5,), "kinds": ("optimal", "optimal")}
            )

    def test_scalar_bounds(self):
        with pytest.raises(ConfigError):
            build_config("risk-vs-n", {"p": 40, "n": (5,), "trials": 0})
        with pytest.raises(ConfigError):
            build_config("risk-vs-n", {"p": 40, "n": (5,), "workers": 0})
        with pytest.raises(ConfigError):
            build_config("risk-vs-n", {"p": 40, "n": (5,), "seed": -1})
        with pytest.raises(ConfigError):
            build_config("risk-vs-n", {"p": 40, "n": (5,), "sigma_t_sq": -0.1})
        with pytest.raises(ConfigError):
            build_config("risk-vs-n", {"p": 40, "n": (5,), "beta_exp": 1.0})

    @pytest.mark.parametrize(
        "experiment,values,reason",
        [
            ("risk-vs-n", {"n": (5, 0)}, "n: must be >= 1, got 0"),
            ("two-stage-grid", {"n": (5, 6), "m": (5, 2.5)}, "m: must be an integer, got 2.5"),
            ("risk-vs-n", {"trials": 0}, "trials: must be >= 1, got 0"),
            ("risk-vs-n", {"seed": -1}, "seed: must be an integer in [0, 2**64), got -1"),
            ("risk-vs-n", {"sigma_t_sq": -0.1}, "sigma_t_sq: must be finite and >= 0, got -0.1"),
            (
                "two-stage-grid",
                {"sigma_s_sq": math.nan},
                "sigma_s_sq: must be finite and >= 0, got nan",
            ),
            ("risk-vs-n", {"beta_exp": 1.0}, "beta_exp: must be finite and > 1, got 1.0"),
            ("mask-count", {"alpha": (2.0, 0.5)}, "alpha: must be finite and > 1, got 0.5"),
        ],
    )
    def test_values_are_refused_by_the_library_rule(self, experiment, values, reason):
        """Each value is checked by the rule the library applies to it, named by its field."""
        with pytest.raises(ConfigError) as refused:
            build_config(experiment, {"p": 40, "n": (5,), **values})
        assert str(refused.value) == reason

    def test_workers_have_a_ceiling(self):
        """Refused at construction, so no thread is ever asked for."""
        cfg = build_config("risk-vs-n", {"p": 40, "n": (5,), "workers": MAX_WORKERS})
        assert cfg.workers == MAX_WORKERS
        refusal = f"^workers: must be <= {MAX_WORKERS}, got {MAX_WORKERS + 1}$"
        with pytest.raises(ConfigError, match=refusal):
            build_config("risk-vs-n", {"p": 40, "n": (5,), "workers": MAX_WORKERS + 1})
        with pytest.raises(ConfigError, match="^workers: must be <= "):
            replace(cfg, workers=10**6)

    def test_seed_must_fit_in_64_bits(self):
        """Seeds are mixed as 64-bit words, so 2**64 + k would alias seed k."""
        with pytest.raises(ConfigError, match="seed"):
            build_config("risk-vs-n", {"p": 40, "n": (5,), "seed": 2**64})
        cfg = build_config("risk-vs-n", {"p": 40, "n": (5,), "seed": 2**64 - 1})
        assert cfg.seed == 2**64 - 1


def _tiny_cfg(**extra):
    base = {"p": 30, "n": (6, 10), "trials": 25, "seed": 99}
    base.update(extra)
    return build_config("risk-vs-n", base)


class TestRiskVsN:
    def test_row_structure_and_theory_values(self):
        cfg = _tiny_cfg()
        columns, rows = run_risk_vs_n(cfg)
        assert len(rows) == 2 * len(cfg.n) * len(cfg.kinds)
        spectrum = power_law_spectrum(cfg.p, 2.0)
        beta_star = power_law_signal(cfg.p, 2.0, cfg.beta_exp)
        by_col = dict(zip(columns, rows[0]))
        assert by_col["source"] == "theory"
        assert by_col["m"] is None
        assert by_col["mc_mean"] is None
        stats = solve_tau(spectrum, by_col["n"])
        values = surrogate_values_for_kind(by_col["kind"], stats, beta_star)
        expected = one_stage_risk(stats, beta_star, values, cfg.sigma_t_sq)
        assert by_col["theory_total"] == expected.total

    def test_monte_carlo_rows_carry_se(self):
        columns, rows = run_risk_vs_n(_tiny_cfg())
        mc_rows = [dict(zip(columns, r)) for r in rows if r[11] == "monte-carlo"]
        assert mc_rows
        for row in mc_rows:
            assert row["mc_mean"] > 0.0
            assert row["mc_se"] > 0.0

    def test_single_trial_has_no_se(self):
        columns, rows = run_risk_vs_n(
            _tiny_cfg(trials=1, n=(6,), kinds=("ground-truth",))
        )
        mc = dict(zip(columns, rows[1]))
        assert mc["source"] == "monte-carlo"
        assert mc["mc_se"] is None

    def test_rows_identical_across_worker_counts(self):
        serial = _tiny_cfg(trials=12, kinds=("ground-truth", "optimal"))
        threaded = replace(serial, workers=4)
        columns, rows_a = run_risk_vs_n(serial)
        _, rows_b = run_risk_vs_n(threaded)
        assert rows_a == rows_b
        # the header echo skips runtime-only fields, so the files match byte for byte
        assert render_csv(serial, columns, rows_a) == render_csv(threaded, columns, rows_b)


class TestTwoStageGrid:
    def test_theory_column_matches_oracle(self):
        cfg = build_config(
            "two-stage-grid", {"p": 25, "n": (5, 8), "trials": 10, "seed": 7}
        )
        columns, rows = run_two_stage_grid(cfg)
        assert len(rows) == 4
        first = dict(zip(columns, rows[0]))
        assert first["kind"] == "two-stage"
        assert first["m"] == 5
        spectrum = power_law_spectrum(25, first["alpha"])
        inst = ProblemInstance(
            spectrum_t=spectrum,
            spectrum_s=spectrum,
            beta_star=power_law_signal(25, first["alpha"], cfg.beta_exp),
            sigma_t_sq=cfg.sigma_t_sq,
            sigma_s_sq=cfg.sigma_s_sq,
            n=5,
            m=5,
        )
        assert first["theory_total"] == two_stage_risk(inst).total

    @pytest.mark.parametrize(
        "name,grid",
        [("n", {"n": (5, 30)}), ("n", {"n": (5, 25)}), ("m", {"n": (5, 8), "m": (5, 25)})],
    )
    def test_grid_points_at_or_above_p_are_refused(self, name, grid):
        """The two-stage oracle needs n, m < p: such a point is a config error, not a lost row."""
        with pytest.raises(ConfigError) as caught:
            build_config("two-stage-grid", {"p": 25, **grid, "trials": 5, "seed": 7})
        assert str(caught.value) == (
            f"{name}: every value must be < p=25, got {max(grid[name])}"
        )


class TestGainProfileTable:
    def test_power_law_rows(self):
        cfg = build_config("gain-profile", {"p": 20, "n": (5,), "seed": 1})
        columns, rows = run_gain_profile(cfg)
        assert len(rows) == 20
        assert [r[5] for r in rows] == list(range(1, 21))
        mask = optimal_mask(solve_tau(power_law_spectrum(20, 2.0), 5))
        for row in rows:
            by_col = dict(zip(columns, row))
            assert by_col["masked"] == (1 if by_col["i"] - 1 in mask else 0)
            assert by_col["threshold_mask"] == pytest.approx(
                by_col["threshold_amplify"] ** 0.5
            )
            assert (by_col["gain"] > 1.0) == (
                by_col["zeta"] < by_col["threshold_amplify"]
            )


class TestMaskCountTable:
    def test_sizes_and_prediction(self):
        cfg = build_config(
            "mask-count", {"p": 120, "n": (10, 20), "alpha": (1.5, 3.0), "seed": 1}
        )
        columns, rows = run_mask_count(cfg)
        assert len(rows) == 4
        for row in rows:
            by_col = dict(zip(columns, row))
            spectrum = power_law_spectrum(120, by_col["alpha"])
            stats = solve_tau(spectrum, by_col["n"])
            assert by_col["mask_size"] == len(optimal_mask(stats))
            assert by_col["tolerance"] == pytest.approx(0.05 * by_col["n"] + 5.0)
            assert by_col["within"] in (0, 1)


class TestScalingSlope:
    def test_desk_scale_slopes_near_prediction(self):
        cfg = build_config(
            "scaling-slope",
            {
                "p": 400,
                "n": (10, 20, 40),
                "sigma_t_sq": 0.0,
                "kinds": ("ground-truth", "optimal"),
                "seed": 1,
            },
        )
        columns, rows = run_scaling_slope(cfg)
        first = dict(zip(columns, rows[0]))
        slope_target = first["slope_target"]
        slope_optimal = first["slope_optimal"]
        predicted = first["predicted_slope"]
        assert predicted == pytest.approx(-0.5)
        assert slope_target == pytest.approx(-0.5, abs=0.25)
        assert slope_optimal == pytest.approx(-0.5, abs=0.25)

    @pytest.mark.parametrize(
        "kind,blank",
        [
            ("ground-truth", ("optimal_total", "slope_optimal")),
            ("optimal", ("target_total", "slope_target")),
        ],
    )
    def test_one_kind_keeps_its_series_and_blanks_the_other(self, kind, blank):
        # several leaves of the column tree, so the fused pass streams
        settings = {"p": 3 * 2**14 + 5, "n": (400, 100, 200, 800)}
        both = build_config("scaling-slope", {**settings, "kinds": ("ground-truth", "optimal")})
        alone = build_config("scaling-slope", {**settings, "kinds": (kind,)})
        _, both_rows = run_scaling_slope(both)
        columns, alone_rows = run_scaling_slope(alone)
        assert len(alone_rows) == len(both_rows) == 4
        for both_row, alone_row in zip(both_rows, alone_rows):
            for column, both_value, alone_value in zip(columns, both_row, alone_row):
                if column in blank:
                    assert alone_value is None, column
                else:
                    assert both_value is not None and alone_value == both_value, column


_SWEEP_HEADER = (
    "experiment,p,alpha,beta_exp,sigma_t_sq,sigma_s_sq,trials,seed,kind,n,m,source,"
    "theory_bias,theory_variance,theory_total,mc_mean,mc_se"
)


class TestTableHeaders:
    """Each table's column line, written out: a renamed or reordered column fails here."""

    @pytest.mark.parametrize(
        "experiment,settings,header",
        [
            ("risk-vs-n", {"n": (5,), "trials": 2, "kinds": ("ground-truth",)}, _SWEEP_HEADER),
            ("two-stage-grid", {"n": (5,), "trials": 2}, _SWEEP_HEADER),
            (
                "gain-profile",
                {"n": (5,)},
                "experiment,p,alpha,beta_exp,n,i,eigenvalue,zeta,beta_star,beta_opt,gain,"
                "masked,threshold_amplify,threshold_mask",
            ),
            (
                "mask-count",
                {"n": (5,)},
                "experiment,p,alpha,n,mask_size,predicted_count,abs_error,tolerance,within",
            ),
            (
                "scaling-slope",
                {"p": 40, "n": (2, 3, 4)},
                "experiment,p,alpha,beta_exp,sigma_t_sq,n,target_total,optimal_total,"
                "slope_target,slope_optimal,predicted_slope",
            ),
        ],
        ids=["risk-vs-n", "two-stage-grid", "gain-profile", "mask-count", "scaling-slope"],
    )
    def test_column_line(self, experiment, settings, header):
        cfg = build_config(experiment, {"p": 20, **settings})
        lines = render_csv(cfg, *RUNNERS[experiment](cfg)).splitlines()
        assert [line for line in lines if not line.startswith("#")][0] == header

    def test_readme_example_header(self, capsys):
        argv = "risk-vs-n --p 60 --n 15,30 --alpha 2.0 --trials 50 --seed 7 --kinds ground-truth"
        assert main(argv.split()) == 0
        assert capsys.readouterr().out.splitlines()[:14] == [
            "# schema=w2s-lab/risk-vs-n/v1",
            "# build_id=d38f9d9b70e4",
            "# experiment=risk-vs-n",
            "# p=60",
            "# n=15,30",
            "# m=",
            "# alpha=2.0",
            "# beta_exp=1.5",
            "# sigma_t_sq=0.05",
            "# sigma_s_sq=0.05",
            "# trials=50",
            "# seed=7",
            "# kinds=ground-truth",
            _SWEEP_HEADER,
        ]


class TestValidationCount:
    """Each sweep point of the large-p theory experiments validates its spectrum once."""

    def test_one_as_spectrum_call_per_sweep_point(self, monkeypatch):
        import sys

        from w2s_lab import spectrum

        calls = []
        real = spectrum.as_spectrum

        def counting(eigenvalues):
            calls.append(len(eigenvalues))
            return real(eigenvalues)

        for name, module in list(sys.modules.items()):
            if name.startswith("w2s_lab") and getattr(module, "as_spectrum", None) is real:
                monkeypatch.setattr(module, "as_spectrum", counting)
        # the grid shapes of the large-p theory workload, at desk scale
        run_scaling_slope(
            build_config(
                "scaling-slope",
                {"p": 3_200, "n": (10, 20, 40, 80, 160, 320), "kinds": ("ground-truth", "optimal")},
            )
        )
        run_mask_count(
            build_config("mask-count", {"p": 3_200, "alpha": (1.5, 3.0), "n": (10, 100, 1000)})
        )
        assert len(calls) == 6 + 2 * 3


class TestSmallHelpers:
    def test_mean_and_se(self):
        mean, se = mean_and_se(np.array([1.0, 2.0, 3.0]))
        assert mean == pytest.approx(2.0)
        assert se == pytest.approx(1.0 / 3.0**0.5)
        single_mean, single_se = mean_and_se(np.array([4.2]))
        assert single_mean == pytest.approx(4.2)
        assert single_se is None

    def test_surrogate_values_for_kind(self):
        spectrum = power_law_spectrum(15, 2.0)
        beta_star = power_law_signal(15, 2.0, 1.5)
        stats = solve_tau(spectrum, 5)
        truth = surrogate_values_for_kind("ground-truth", stats, beta_star)
        assert np.array_equal(truth, beta_star)
        opt = surrogate_values_for_kind("optimal", stats, beta_star)
        assert np.array_equal(opt, optimal_surrogate(stats, beta_star))
        with pytest.raises(ValueError):
            surrogate_values_for_kind("oracle", stats, beta_star)

    def _stack(self):
        spectrum = power_law_spectrum(37, 2.0)
        beta = power_law_signal(37, 2.0, 1.5)
        stats = solve_tau(spectrum, 11)
        return spectrum, beta, [surrogate_values_for_kind(kind, stats, beta) for kind in KINDS]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_stacked_mc_risks_match_per_kind_calls(self, workers):
        """One stacked call gives each kind's one-kind risks, to rounding."""
        spectrum, beta, values = self._stack()
        (stacked,) = mc_one_stage_risks(
            spectrum, beta, [np.stack(values)], 0.1, [11], 9, 5, workers
        )
        assert stacked.shape == (9, len(KINDS))
        for j, kind_values in enumerate(values):
            (alone,) = mc_one_stage_risks(spectrum, beta, [kind_values], 0.1, [11], 9, 5, workers)
            np.testing.assert_allclose(stacked[:, j], alone, rtol=1e-12, atol=0.0)

    def test_two_stage_mc_risks_do_not_depend_on_workers(self):
        """At the widened Gram sizes too: any worker count gives the same bits."""
        spectrum = power_law_spectrum(300, 2.0)
        insts = [
            ProblemInstance(
                spectrum_t=spectrum,
                spectrum_s=spectrum,
                beta_star=power_law_signal(300, 2.0, 1.5),
                sigma_t_sq=0.05,
                sigma_s_sq=0.05,
                n=n,
                m=n,
            )
            for n in (240, 285)
        ]
        one, two, three = (mc_two_stage_risks(insts, 4, 11, workers) for workers in (1, 2, 3))
        for a, b, c in zip(one, two, three):
            assert np.array_equal(a, b) and np.array_equal(a, c)

    @pytest.mark.parametrize("workers,trials,threads", [(8, 3, 3), (2, 5, 2), (4, 1, None)])
    def test_fan_out_starts_at_most_one_thread_per_trial(
        self, monkeypatch, workers, trials, threads
    ):
        pools = []
        pool_class = experiments.ThreadPoolExecutor

        def recording_pool(max_workers):
            pools.append(max_workers)
            return pool_class(max_workers=max_workers)

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", recording_pool)
        monkeypatch.setattr(estimators, "_TRIAL_BLOCK_BYTES", 1)  # one trial per block
        (values,) = experiments._fan_out_blocks(
            lambda block, workspace: [np.array(block, dtype=np.float64)], trials, 1, 1, workers
        )
        assert np.array_equal(values, np.arange(trials, dtype=np.float64))
        assert pools == ([] if threads is None else [threads])

    def test_one_kind_stack_equals_vector_call(self):
        """A (1, p) stack, as risk-vs-n passes for one kind, gives the 1-D call's risks."""
        spectrum, beta, values = self._stack()
        for kind_values in values:
            (stacked,) = mc_one_stage_risks(spectrum, beta, [kind_values[None, :]], 0.1, [11], 9, 5)
            (alone,) = mc_one_stage_risks(spectrum, beta, [kind_values], 0.1, [11], 9, 5)
            assert stacked.shape == (9, 1)
            assert np.array_equal(stacked[:, 0], alone)


class TestSweeps:
    """A sweep's rows equal its one-point runs'."""

    @pytest.mark.parametrize(
        "experiment,values",
        [
            ("risk-vs-n", {"p": 30, "n": (12, 5, 20, 5), "kinds": KINDS}),
            (
                "two-stage-grid",
                {"p": 30, "n": (20, 29, 8, 12), "m": (10, 12, 29, 25), "alpha": (1.5, 2.0)},
            ),
        ],
    )
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_rows_equal_one_point_runs(self, experiment, values, workers):
        """Grid points next to p included (n or m = p - 1)."""
        cfg = build_config(experiment, dict(values, trials=6, seed=3, workers=workers))
        _, rows = RUNNERS[experiment](cfg)
        expected_rows = []
        for alpha in cfg.alpha:
            for i, n in enumerate(cfg.n):
                one = replace(cfg, alpha=(alpha,), n=(n,), m=cfg.m[i : i + 1], workers=1)
                expected_rows += RUNNERS[experiment](one)[1]
        assert rows == expected_rows


def _one_stage_trial(spectrum, beta, values, sigma_sq, n, seed, t):
    """Trial t's risk, or its (k,) risks for a (k, p) stack, from the public one-trial calls."""
    ds = sample_dataset(spectrum, values, sigma_sq, n, derive_seed(seed, STAGE_TARGET, t))
    fitted = fit(ds.design, ds.labels).fitted
    if fitted.ndim == 1:
        return empirical_excess_risk(fitted, beta, spectrum)
    return [empirical_excess_risk(column, beta, spectrum) for column in fitted.T]


def _two_stage_trial(insts, seed, t):
    """Trial t's two-stage risks from sample_dataset and fit, stage by stage."""
    risks = []
    for inst in insts:
        stage1 = sample_dataset(
            inst.spectrum_s, inst.beta_star, inst.sigma_s_sq, inst.m,
            derive_seed(seed, STAGE_SURROGATE, t),
        )
        beta_s = fit(stage1.design, stage1.labels).fitted
        stage2 = sample_dataset(
            inst.spectrum_t, beta_s, inst.sigma_t_sq, inst.n, derive_seed(seed, STAGE_TARGET, t)
        )
        beta_s2t = fit(stage2.design, stage2.labels).fitted
        risks.append(empirical_excess_risk(beta_s2t, inst.beta_star, inst.spectrum_t))
    return risks


class TestTrialBlocks:
    """Per-trial risks do not depend on the block size or the worker count.

    Every sweep point equals its trials run one at a time through the public
    calls, bit for bit, in a C-contiguous (trials,) or (trials, k) array.
    """

    TRIALS = 9

    @pytest.fixture(params=[1, 2, 7, TRIALS], ids=lambda size: f"block{size}")
    def block_size(self, request, monkeypatch):
        """Set the byte budget so that a block holds exactly `size` trials of `stream`."""

        def set_stream(stream):
            budget = request.param * 8 * stream
            monkeypatch.setattr(estimators, "_TRIAL_BLOCK_BYTES", budget)

        return request.param, set_stream

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_one_stage_risks(self, block_size, workers):
        size, set_stream = block_size
        p, sigma_sq, seed = 40, 0.1, 17
        spectrum = power_law_spectrum(p, 2.0)
        beta = power_law_signal(p, 2.0, 1.5)
        stats = solve_tau(spectrum, 12)
        stack = np.stack([surrogate_values_for_kind(kind, stats, beta) for kind in KINDS])
        counts, values = [12, 60, 12], [stack, beta, 2.0 * beta]
        set_stream(max(counts) * (p + 1))
        assert len(estimators.trial_blocks(self.TRIALS, max(counts), p)[0]) == size
        sweep = mc_one_stage_risks(
            spectrum, beta, values, sigma_sq, counts, self.TRIALS, seed, workers
        )
        assert len(sweep) == len(counts)
        for n, point_values, risks in zip(counts, values, sweep):
            expected = np.array([
                _one_stage_trial(spectrum, beta, point_values, sigma_sq, n, seed, t)
                for t in range(self.TRIALS)
            ])
            assert risks.flags.c_contiguous
            assert risks.shape == (self.TRIALS,) + point_values.shape[:-1]
            assert np.array_equal(risks, expected)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_two_stage_risks(self, block_size, workers):
        """A repeated m and both orders of n and m."""
        _, set_stream = block_size
        p, seed = 50, 23
        spectrum = power_law_spectrum(p, 2.0)
        signal = power_law_signal(p, 2.0, 1.5)
        insts = [
            ProblemInstance(spectrum, spectrum, signal, 0.05, 0.1, n, m)
            for n, m in ((30, 12), (12, 40), (40, 12))
        ]
        set_stream(40 * (p + 1))
        sweep = mc_two_stage_risks(insts, self.TRIALS, seed, workers)
        assert len(sweep) == len(insts)
        expected = np.array([_two_stage_trial(insts, seed, t) for t in range(self.TRIALS)])
        for i, risks in enumerate(sweep):
            assert risks.flags.c_contiguous
            assert risks.shape == (self.TRIALS,)
            assert np.array_equal(risks, expected[:, i])

    def test_shift_property_risks(self, block_size):
        """verify's source-design trials, transported or not, one trial at a time."""
        _, set_stream = block_size
        p, n, sigma_sq, seed = 30, 10, 0.05, 5
        lam_s, lam_t = power_law_spectrum(p, 1.5), power_law_spectrum(p, 2.5)
        beta = power_law_signal(p, 2.5, 1.8)
        set_stream(n * (p + 1))
        scale = np.sqrt(lam_t / lam_s)
        for transport in (False, True):
            risks = verify._source_design_risks(
                lam_s, lam_t, beta, sigma_sq, n, self.TRIALS, seed, transport
            )
            for t, risk in enumerate(risks):
                ds = sample_dataset(lam_s, beta, sigma_sq, n, derive_seed(seed, STAGE_TARGET, t))
                design = ds.design * scale if transport else ds.design
                fitted = fit(design, ds.labels).fitted
                assert risk == empirical_excess_risk(fitted, beta, lam_t)


class TestWorkspaces:
    """Per-worker workspaces: one per worker per call, never aliased by a returned array."""

    @staticmethod
    def _two_stage_insts(p, alpha, pairs):
        spectrum = power_law_spectrum(p, alpha)
        signal = power_law_signal(p, alpha, 1.5)
        return [ProblemInstance(spectrum, spectrum, signal, 0.05, 0.1, n, m) for n, m in pairs]

    @pytest.mark.parametrize("trials", [0, -3])
    def test_monte_carlo_calls_refuse_fewer_than_one_trial(self, trials):
        spectrum = power_law_spectrum(20, 2.0)
        beta = power_law_signal(20, 2.0, 1.5)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            mc_one_stage_risks(spectrum, beta, [beta], 0.1, [8], trials, 3)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            mc_two_stage_risks(self._two_stage_insts(20, 2.0, [(8, 6)]), trials, 3)

    @pytest.mark.parametrize(
        "workers,refusal",
        [(0, "must be >= 1, got 0"), (MAX_WORKERS + 1, f"must be <= {MAX_WORKERS}, got 65")],
    )
    def test_monte_carlo_calls_refuse_workers_before_any_thread(
        self, monkeypatch, workers, refusal
    ):
        """The engine applies the config's worker rule itself, before a pool or a draw."""

        def no_pool(max_workers):
            raise AssertionError(f"a pool of {max_workers} threads was made")

        def no_draw(*args):
            raise AssertionError("a trial drew")

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(estimators, "_draw", no_draw)
        monkeypatch.setattr(estimators, "_TRIAL_BLOCK_BYTES", 1)  # one trial per block
        spectrum = power_law_spectrum(20, 2.0)
        beta = power_law_signal(20, 2.0, 1.5)
        with pytest.raises(ValueError, match=f"^workers {refusal}$"):
            mc_one_stage_risks(spectrum, beta, [beta], 0.1, [8], 3, 3, workers)
        with pytest.raises(ValueError, match=f"^workers {refusal}$"):
            mc_two_stage_risks(self._two_stage_insts(20, 2.0, [(8, 6)]), 3, 3, workers)

    def test_empty_one_stage_sweep_names_the_fault(self):
        spectrum = power_law_spectrum(20, 2.0)
        beta = power_law_signal(20, 2.0, 1.5)
        with pytest.raises(ValueError, match="need one beta per count, got 0 and 0"):
            mc_one_stage_risks(spectrum, beta, [], 0.1, [], 3, 1)

    def test_returned_arrays_outlive_later_monte_carlo_calls(self):
        """Public results keep their values through later same-shape Monte Carlo calls."""
        p, n, sigma_sq = 60, 40, 0.1
        spectrum = power_law_spectrum(p, 2.0)
        beta = power_law_signal(p, 2.0, 1.5)
        seeds = [derive_seed(4, STAGE_TARGET, t) for t in range(3)]
        (block,) = estimators.sample_block(spectrum, [beta], sigma_sq, [n], seeds)
        single = sample_dataset(spectrum, beta, sigma_sq, n, seeds[0])
        fitted = estimators.fit_block(block.design, block.labels)
        kept = [
            array.copy()
            for array in (block.design, block.labels, single.design, single.labels, fitted.fitted)
        ]
        mc_one_stage_risks(spectrum, beta, [beta], sigma_sq, [n], 7, 5)
        mc_two_stage_risks(self._two_stage_insts(p, 2.0, [(n, n)]), 7, 5)
        after = (block.design, block.labels, single.design, single.labels, fitted.fitted)
        for before, now in zip(kept, after):
            assert np.array_equal(before, now)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_workspace_per_worker_dies_with_the_call(self, monkeypatch, workers):
        made = []

        class RecordingWorkspace(estimators.Workspace):
            def __init__(self):
                super().__init__()
                made.append(weakref.ref(self))

        monkeypatch.setattr(experiments, "Workspace", RecordingWorkspace)
        monkeypatch.setattr(estimators, "_TRIAL_BLOCK_BYTES", 1)  # one trial per block
        insts = self._two_stage_insts(30, 2.0, [(12, 20), (25, 8)])
        mc_two_stage_risks(insts, 6, 9, workers)
        assert 1 <= len(made) <= workers
        assert all(ref() is None for ref in made)

    def test_workers_never_share_a_workspace(self, monkeypatch):
        """More workers than cores, one trial a block, frequent switches: serial bits."""
        insts = self._two_stage_insts(40, 2.0, [(30, 12), (12, 35)])
        serial = mc_two_stage_risks(insts, 16, 3, 1)
        monkeypatch.setattr(estimators, "_TRIAL_BLOCK_BYTES", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = mc_two_stage_risks(insts, 16, 3, 4)
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("block", [None, 4], ids=["default-block", "block4"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_lstsq_fallbacks_in_uneven_blocks(self, monkeypatch, block, workers):
        """m = p - 1 at alpha 3 sends some stage-one fits to lstsq; 9 trials leave a short block."""
        p, seed, trials = 40, 23, 9
        insts = self._two_stage_insts(p, 3.0, [(30, 12), (20, p - 1), (35, p - 1)])
        stream = (p - 1) * (p + 1)  # the largest count, m = p - 1, sets the block size
        if block is not None:
            monkeypatch.setattr(estimators, "_TRIAL_BLOCK_BYTES", block * 8 * stream)
        sizes = [len(b) for b in estimators.trial_blocks(trials, p - 1, p)]
        assert sizes == ([trials] if block is None else [4, 4, 1])
        seeds = [derive_seed(seed, STAGE_SURROGATE, t) for t in range(trials)]
        inst = insts[1]
        (stage1,) = estimators.sample_block(
            inst.spectrum_s, [inst.beta_star], inst.sigma_s_sq, [inst.m], seeds
        )
        route = estimators.fit_block(stage1.design, stage1.labels).route
        assert "lstsq" in route and "gram" in route
        sweep = mc_two_stage_risks(insts, trials, seed, workers)
        expected = np.array([_two_stage_trial(insts, seed, t) for t in range(trials)])
        for i, risks in enumerate(sweep):
            assert np.array_equal(risks, expected[:, i])


class TestOutputFormat:
    def test_format_value(self):
        assert format_value(None) == ""
        assert format_value(True) == "true"
        assert format_value(False) == "false"
        assert format_value(0.05) == "0.05"
        assert format_value((100, 200)) == "100,200"
        assert format_value("abc") == "abc"

    def test_render_csv_header_and_shape(self):
        cfg = _tiny_cfg(trials=2, n=(6,), kinds=("ground-truth",))
        columns, rows = run_risk_vs_n(cfg)
        text = render_csv(cfg, columns, rows)
        lines = text.splitlines()
        assert lines[0] == "# schema=w2s-lab/risk-vs-n/v1"
        assert lines[1].startswith("# build_id=")
        assert any(line.startswith("# p=30") for line in lines)
        assert not any(line.startswith("# workers") for line in lines)
        header_count = sum(1 for line in lines if line.startswith("#"))
        assert lines[header_count] == ",".join(columns)
        assert len(lines) == header_count + 1 + len(rows)
        assert text.endswith("\n")

    def test_render_csv_rejects_ragged_rows(self):
        cfg = _tiny_cfg()
        with pytest.raises(RuntimeError):
            render_csv(cfg, ("a", "b"), [(1, 2, 3)])

    def test_render_csv_refuses_non_finite_values(self):
        cfg = _tiny_cfg()
        for bad in (math.nan, math.inf, -math.inf, np.float64("nan")):
            with pytest.raises(FloatingPointError, match="^risk-vs-n report: b is "):
                render_csv(cfg, ("a", "b"), [(1, 2.0), (3, bad)])

    def test_build_id_tracks_scientific_fields_only(self):
        cfg = _tiny_cfg()
        assert build_id(cfg) == build_id(replace(cfg, workers=8))
        assert build_id(cfg) != build_id(replace(cfg, p=31))
        assert len(build_id(cfg)) == 12
        assert set(build_id(cfg)) <= set("0123456789abcdef")

    def test_render_json_round_trips(self):
        cfg = _tiny_cfg(trials=2, n=(6,), kinds=("ground-truth",))
        columns, rows = run_risk_vs_n(cfg)
        payload = json.loads(render_json(cfg, {"columns": columns, "rows": rows}))
        assert payload["schema"] == "w2s-lab/risk-vs-n/v1"
        assert payload["columns"] == list(columns)
        assert len(payload["rows"]) == len(rows)
        # the echo block reuses the canonical header formatting, so values are strings
        assert payload["config"]["p"] == "30"

    def test_render_json_writes_the_header_before_the_body(self):
        cfg = _tiny_cfg()
        payload = json.loads(render_json(cfg, {"rows": [[1, None]], "all_passed": True}))
        assert list(payload) == ["schema", "build_id", "config", "rows", "all_passed"]
        assert payload["build_id"] == build_id(cfg)
        assert payload["rows"] == [[1, None]]

    def test_render_json_refuses_non_finite_values(self):
        cfg = _tiny_cfg()
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(FloatingPointError, match="^risk-vs-n report: "):
                render_json(cfg, {"rows": [[1, bad]]})

    def test_write_outputs_refusal_and_mirror(self, tmp_path):
        out = tmp_path / "deep" / "table.csv"
        cfg = _tiny_cfg(
            trials=2, n=(6,), kinds=("ground-truth",),
            out=str(out), json_mirror=True,
        )
        columns, rows = run_risk_vs_n(cfg)
        texts = [
            render_csv(cfg, columns, rows),
            render_json(cfg, {"columns": columns, "rows": rows}),
        ]
        paths = write_outputs(cfg, texts)
        assert out.read_text() == texts[0]
        assert (tmp_path / "deep" / "table.json").read_text() == texts[1]
        assert len(paths) == 2
        with pytest.raises(ConfigError):
            write_outputs(cfg, texts)
        forced = replace(cfg, force=True)
        write_outputs(forced, texts)

    @pytest.mark.parametrize("mirror", ["file", "directory"])
    def test_write_outputs_leaves_no_file_when_a_path_is_refused(self, tmp_path, mirror):
        """Every path is checked before the first is written: a refused mirror leaves no CSV."""
        out = tmp_path / "table.csv"
        mirror_path = tmp_path / "table.json"
        if mirror == "file":
            mirror_path.write_text("kept\n")
        else:
            mirror_path.mkdir()
        cfg = _tiny_cfg(out=str(out), json_mirror=True, force=mirror == "directory")
        with pytest.raises(ConfigError, match="table.json"):
            write_outputs(cfg, ["a,b\n", "{}\n"])
        assert not out.exists()
        if mirror == "file":
            assert mirror_path.read_text() == "kept\n"


class TestCli:
    def test_stdout_csv_run(self, capsys):
        rc = main(
            [
                "risk-vs-n", "--p", "20", "--n", "5", "--alpha", "2.0",
                "--trials", "3", "--seed", "7", "--kinds", "ground-truth",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.startswith("# schema=w2s-lab/risk-vs-n/v1")
        assert "# trials=3" in captured.out

    def test_out_file_and_force_cycle(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        argv = [
            "risk-vs-n", "--p", "20", "--n", "5", "--trials", "2",
            "--seed", "7", "--kinds", "ground-truth", "--out", str(out),
        ]
        assert main(argv) == 0
        assert "wrote" in capsys.readouterr().err
        assert main(argv) == 1  # refuses to clobber
        assert "config error" in capsys.readouterr().err
        assert main(argv + ["--force"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, existing",
        [
            (["verify"], "report.json"),
            (["risk-vs-n", "--p", "20", "--n", "5"], "run.csv"),
            (["risk-vs-n", "--p", "20", "--n", "5", "--json"], "run.json"),
        ],
    )
    def test_existing_out_is_refused_before_running(
        self, tmp_path, capsys, monkeypatch, argv, existing
    ):
        def not_run(cfg):
            raise AssertionError("ran before the output check")

        monkeypatch.setattr(cli, "run_verify", not_run)
        for name in RUNNERS:
            monkeypatch.setitem(RUNNERS, name, not_run)
        (tmp_path / existing).write_text("kept\n")
        out = tmp_path / ("report.json" if argv[0] == "verify" else "run.csv")
        assert main(argv + ["--out", str(out)]) == 1
        assert f"{existing} exists" in capsys.readouterr().err
        assert (tmp_path / existing).read_text() == "kept\n"

    def test_json_mirror_flag(self, tmp_path):
        out = tmp_path / "run.csv"
        rc = main(
            [
                "risk-vs-n", "--p", "20", "--n", "5", "--trials", "2",
                "--seed", "7", "--kinds", "ground-truth",
                "--out", str(out), "--json",
            ]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "run.json").read_text())
        assert payload["config"]["seed"] == "7"

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        path = tmp_path / "sweep.cfg"
        path.write_text("p = 20\nn = 5\ntrials = 9\nkinds = ground-truth\n")
        rc = main(["risk-vs-n", "--config", str(path), "--trials", "2"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "# trials=2" in captured.out
        assert "# p=20" in captured.out

    def test_bad_inputs_exit_one(self, capsys):
        assert main(["no-such-experiment"]) == 1
        assert main(["risk-vs-n", "--config", "/nonexistent/x.cfg"]) == 1
        assert main(["risk-vs-n", "--p", "10", "--n", "10"]) == 1
        capsys.readouterr()

    def test_too_many_workers_is_a_config_error(self, capsys, monkeypatch):
        def not_run(cfg):
            raise AssertionError("ran with a refused worker count")

        monkeypatch.setitem(RUNNERS, "two-stage-grid", not_run)
        argv = ["two-stage-grid", "--workers", "1000000", "--trials", "1000000"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"config error: workers: must be <= {MAX_WORKERS}, got 1000000" in err

    def test_numerical_failure_exits_three(self, capsys, monkeypatch):
        def boom(cfg):
            raise NonConvergenceError("bracket certification failed")

        monkeypatch.setitem(RUNNERS, "risk-vs-n", boom)
        rc = main(["risk-vs-n", "--p", "20", "--n", "5", "--trials", "2"])
        captured = capsys.readouterr()
        assert rc == 3
        assert "numerical failure" in captured.err

    def test_scaling_slope_prints_summary(self, capsys):
        rc = main(
            [
                "scaling-slope", "--p", "200", "--n", "10,15,20",
                "--sigma-t", "0.0", "--kinds", "ground-truth,optimal", "--seed", "3",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        lines = [line for line in captured.out.splitlines() if not line.startswith("#")]
        first = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert (
            f"slopes: target={first['slope_target']} optimal={first['slope_optimal']} "
            f"predicted={first['predicted_slope']}"
        ) in captured.err.splitlines()

    @pytest.mark.parametrize(
        "grid, line",
        [
            (["--n", "5,30"], "config error: n: every value must be < p=25, got 30"),
            (["--n", "5,8", "--m", "5,25"], "config error: m: every value must be < p=25, got 25"),
        ],
        ids=["n", "m"],
    )
    def test_grid_point_at_or_above_p_is_one_config_error(
        self, tmp_path, capsys, monkeypatch, grid, line
    ):
        """Exit 1 with one stderr line, before any runner starts or any file is written."""
        ran = []
        monkeypatch.setitem(RUNNERS, "two-stage-grid", ran.append)
        out = tmp_path / "run.csv"
        argv = ["two-stage-grid", "--p", "25", *grid, "--trials", "2", "--seed", "7"]
        rc = main(argv + ["--out", str(out), "--json"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.splitlines() == [line]
        assert captured.out == ""
        assert ran == []
        assert list(tmp_path.iterdir()) == []

    def test_registry_covers_every_experiment(self):
        assert sorted([*RUNNERS, "verify"]) == sorted(EXPERIMENTS)

    @pytest.mark.parametrize("experiment", sorted(RUNNERS))
    def test_every_experiment_runs_with_its_defaults(self, experiment, capsys):
        small = ["--trials", "2"] if experiment in ("risk-vs-n", "two-stage-grid") else []
        rc = main([experiment, *small])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert captured.out.startswith(f"# schema=w2s-lab/{experiment}/v1")

    def test_verify_command_reports_and_passes(self, capsys):
        rc = main(["verify", "--seed", "123"])
        captured = capsys.readouterr()
        assert rc == 0
        report = json.loads(captured.out)
        assert report["all_passed"] is True
        assert "properties passed" in captured.err
        assert "PASS fixed-point-residual" in captured.err

    def test_verify_report_is_strict_json(self, monkeypatch, capsys):
        """A non-finite margin makes the command fail instead of writing Infinity."""
        report = {
            "properties": [{"name": "x", "passed": True, "margin": float("inf"), "detail": ""}],
            "property_count": 1,
            "all_passed": True,
        }
        monkeypatch.setattr(cli, "run_verify", lambda cfg: report)
        rc = main(["verify", "--seed", "123"])
        captured = capsys.readouterr()
        assert rc == 3
        assert "numerical failure" in captured.err
        assert "Infinity" not in captured.out

    def test_table_mirror_is_strict_json(self, tmp_path, capsys, monkeypatch):
        """A NaN cell fails the run before any file is written, the CSV included."""
        monkeypatch.setitem(RUNNERS, "mask-count", lambda cfg: (("a", "b"), [(1, math.nan)]))
        out = tmp_path / "run.csv"
        rc = main(["mask-count", "--p", "50", "--n", "5", "--out", str(out), "--json"])
        captured = capsys.readouterr()
        assert rc == 3
        assert "numerical failure: mask-count report: " in captured.err
        assert not out.exists()
        assert not (tmp_path / "run.json").exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_non_finite_cell_writes_nothing(self, tmp_path, capsys, monkeypatch, bad, to_file):
        """Without the mirror, a NaN or infinite cell fails the run before any output."""
        monkeypatch.setitem(RUNNERS, "mask-count", lambda cfg: (("a", "b"), [(1, 2.5), (2, bad)]))
        out = tmp_path / "run.csv"
        argv = ["mask-count", "--p", "50", "--n", "5"] + (["--out", str(out)] if to_file else [])
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 3
        assert f"numerical failure: mask-count report: b is {bad!r}" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("experiment", ["mask-count", "gain-profile"])
    def test_omega_rounding_to_one_writes_nothing(self, experiment, tmp_path, capsys):
        """lambda_2 = 2**-1000 rounds Omega to 1.0, which every oracle refuses."""
        out = tmp_path / "run.csv"
        argv = [experiment, "--p", "2", "--n", "1", "--alpha", "1000", "--out", str(out), "--json"]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err == (
            "numerical failure: internal inconsistency: Omega=1.0 outside (0, 1)\n"
        )
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_vacuous_omega_lower_bound_fails(self):
        """Draws whose hypothesis window is empty (alpha < 3.3) check nothing."""

        class EmptyWindowDraws:
            def uniform(self, low, high):
                return 2.0

            def integers(self, low, high):
                return 1000

        result = dict(verify._PROPERTIES)["omega-lower-bound"](EmptyWindowDraws())
        assert result.passed is False
        assert math.isfinite(result.margin) and result.margin < 0.0
        assert "vacuous" in result.detail

    def test_bad_flag_value_names_its_field(self, capsys):
        assert main(["risk-vs-n", "--p", "x"]) == 1
        assert capsys.readouterr().err == "config error: p: expected an integer, got 'x'\n"

    def test_count_beyond_float_range_is_one_config_error(self, capsys):
        assert main(["mask-count", "--n", "1" + "0" * 400]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line == f"config error: n: must be at most 1.7976931348623157e+308, got {10**400}"

    def test_repeated_slope_n_is_refused(self, capsys):
        assert main(["scaling-slope", "--p", "300", "--n", "10,10,10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: n: scaling-slope needs >= 3 distinct")

    def test_underflowing_power_law_names_alpha_and_p(self, capsys):
        assert main(["mask-count", "--p", "100000", "--alpha", "70", "--n", "100"]) == 1
        assert capsys.readouterr().err == (
            "config error: alpha=70.0 is too large for p=100000: p^-alpha underflows to 0\n"
        )

    def test_verify_json_is_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_verify", lambda cfg: pytest.fail("verify ran"))
        assert main(["verify", "--json"]) == 1
        assert "json_mirror: verify's report is JSON" in capsys.readouterr().err

    def test_json_without_out_is_refused(self, capsys, monkeypatch):
        monkeypatch.setitem(RUNNERS, "mask-count", lambda cfg: pytest.fail("mask-count ran"))
        assert main(["mask-count", "--p", "50", "--n", "5", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: json_mirror: ")
        assert captured.out == ""

    @pytest.mark.parametrize("force", [False, True])
    def test_directory_out_is_refused_before_running(self, tmp_path, capsys, force):
        rc = main(["verify", "--out", str(tmp_path)] + (["--force"] if force else []))
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"config error: out: {tmp_path} is a directory\n"  # no PASS/FAIL line

    def test_directory_mirror_is_refused_before_running(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(RUNNERS, "mask-count", lambda cfg: pytest.fail("mask-count ran"))
        (tmp_path / "run.json").mkdir()
        out = tmp_path / "run.csv"
        argv = ["mask-count", "--p", "50", "--n", "5", "--out", str(out), "--json", "--force"]
        assert main(argv) == 1
        assert capsys.readouterr().err.endswith("run.json is a directory\n")
        assert not out.exists()

    def test_unwritable_out_exits_one_without_traceback(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")  # a parent that is not a directory
        out = tmp_path / "file" / "run.csv"
        rc = main(["mask-count", "--p", "20", "--n", "5", "--out", str(out), "--force"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("config error: out: ")
        assert "Traceback" not in err

    def test_verify_refuses_existing_out(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        out.write_text("{}")
        rc = main(["verify", "--seed", "123", "--out", str(out)])
        capsys.readouterr()
        assert rc == 1
