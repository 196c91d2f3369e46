"""Tests for config handling, experiment tables, CSV/JSON output, and the CLI."""

import json

import numpy as np
import pytest

from w2s_lab import (
    NonConvergenceError,
    ProblemInstance,
    one_stage_risk,
    optimal_mask,
    optimal_surrogate,
    power_law_signal,
    power_law_spectrum,
    solve_tau,
    two_stage_risk,
)
from w2s_lab.harness.cli import main
from w2s_lab.harness.config import (
    EXPERIMENTS,
    KINDS,
    ConfigError,
    build_config,
    parse_config_file,
    two_stage_m_grid,
    validate_config,
    with_overrides,
)
from w2s_lab.harness.experiments import (
    GAIN_COLUMNS,
    MASK_COLUMNS,
    RESULT_COLUMNS,
    mc_one_stage_risks,
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

    def test_with_overrides_revalidates(self):
        cfg = build_config("risk-vs-n", {"p": 40, "n": (5,)})
        bumped = with_overrides(cfg, trials=7)
        assert bumped.trials == 7
        assert bumped.p == 40
        with pytest.raises(ConfigError):
            with_overrides(cfg, trials=0)


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

    def test_two_stage_m_grid_mirrors_n(self):
        cfg = build_config("two-stage-grid", {"p": 30, "n": (5, 8)})
        assert two_stage_m_grid(cfg) == (5, 8)
        cfg = build_config("two-stage-grid", {"p": 30, "n": (5, 8), "m": (6, 9)})
        assert two_stage_m_grid(cfg) == (6, 9)
        with pytest.raises(ConfigError):
            build_config("two-stage-grid", {"p": 30, "n": (5, 8), "m": (6,)})

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
        cfg = build_config(
            "scaling-slope",
            {"p": 400, "n": (10, 20, 40), "kinds": ("ground-truth", "optimal")},
        )
        validate_config(cfg)

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
        assert columns == RESULT_COLUMNS
        assert len(rows) == 2 * len(cfg.n) * len(cfg.kinds)
        spectrum = power_law_spectrum(cfg.p, 2.0)
        beta_star = power_law_signal(cfg.p, 2.0, cfg.beta_exp)
        by_col = dict(zip(columns, rows[0]))
        assert by_col["source"] == "theory"
        assert by_col["m"] is None
        assert by_col["mc_mean"] is None
        stats = solve_tau(spectrum, by_col["n"])
        values = surrogate_values_for_kind(
            by_col["kind"], spectrum, beta_star, by_col["n"], stats
        )
        expected = one_stage_risk(
            spectrum, beta_star, values, by_col["n"], cfg.sigma_t_sq, stats=stats
        )
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
        threaded = with_overrides(serial, workers=4)
        _, rows_a = run_risk_vs_n(serial)
        _, rows_b = run_risk_vs_n(threaded)
        assert rows_a == rows_b
        # the header echo skips runtime-only fields, so the files match byte for byte
        assert render_csv(serial, RESULT_COLUMNS, rows_a) == render_csv(
            threaded, RESULT_COLUMNS, rows_b
        )


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

    def test_saturated_grid_points_are_skipped_with_warning(self, capsys):
        cfg = build_config(
            "two-stage-grid", {"p": 25, "n": (5, 30), "trials": 5, "seed": 7}
        )
        _, rows = run_two_stage_grid(cfg)
        err = capsys.readouterr().err
        assert "skipping grid point" in err
        assert len(rows) == 2  # only the n = 5 point survives
        assert all(r[9] == 5 for r in rows)


class TestGainProfileTable:
    def test_power_law_rows(self):
        cfg = build_config("gain-profile", {"p": 20, "n": (5,), "seed": 1})
        columns, rows = run_gain_profile(cfg)
        assert columns == GAIN_COLUMNS
        assert len(rows) == 20
        assert [r[5] for r in rows] == list(range(1, 21))
        mask = optimal_mask(power_law_spectrum(20, 2.0), 5)
        for row in rows:
            by_col = dict(zip(columns, row))
            assert by_col["masked"] == (1 if by_col["i"] - 1 in mask else 0)
            assert by_col["threshold_mask"] == pytest.approx(
                by_col["threshold_amplify"] ** 0.5
            )
            assert (by_col["gain"] > 1.0) == (
                by_col["zeta"] < by_col["threshold_amplify"]
            )

    def test_isotropic_override_blanks_power_law_columns(self):
        cfg = build_config("gain-profile", {"p": 12, "n": (4,), "seed": 1})
        columns, rows = run_gain_profile(cfg, spectrum=np.full(12, 2.0))
        for row in rows:
            by_col = dict(zip(columns, row))
            assert by_col["alpha"] is None
            assert by_col["beta_exp"] is None
            assert by_col["masked"] == 1
            assert by_col["gain"] == pytest.approx(1.0, rel=1e-10)


class TestMaskCountTable:
    def test_sizes_and_prediction(self):
        cfg = build_config(
            "mask-count", {"p": 120, "n": (10, 20), "alpha": (1.5, 3.0), "seed": 1}
        )
        columns, rows = run_mask_count(cfg)
        assert columns == MASK_COLUMNS
        assert len(rows) == 4
        for row in rows:
            by_col = dict(zip(columns, row))
            spectrum = power_law_spectrum(120, by_col["alpha"])
            assert by_col["mask_size"] == len(optimal_mask(spectrum, by_col["n"]))
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
        slope_target, slope_optimal, predicted = run_scaling_slope(cfg)
        assert predicted == pytest.approx(-0.5)
        assert slope_target == pytest.approx(-0.5, abs=0.25)
        assert slope_optimal == pytest.approx(-0.5, abs=0.25)


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
        truth = surrogate_values_for_kind("ground-truth", spectrum, beta_star, 5, stats)
        assert np.array_equal(truth, beta_star)
        opt = surrogate_values_for_kind("optimal", spectrum, beta_star, 5, stats)
        assert np.array_equal(
            opt, optimal_surrogate(spectrum, beta_star, 5, stats=stats).values
        )
        with pytest.raises(ValueError):
            surrogate_values_for_kind("oracle", spectrum, beta_star, 5, stats)

    def test_mc_risks_deterministic(self):
        spectrum = power_law_spectrum(20, 2.0)
        beta = power_law_signal(20, 2.0, 1.5)
        a = mc_one_stage_risks(spectrum, beta, beta, 0.1, 6, 8, 123)
        b = mc_one_stage_risks(spectrum, beta, beta, 0.1, 6, 8, 123, workers=3)
        assert np.array_equal(a, b)


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

    def test_build_id_tracks_scientific_fields_only(self):
        cfg = _tiny_cfg()
        assert build_id(cfg) == build_id(with_overrides(cfg, workers=8))
        assert build_id(cfg) != build_id(with_overrides(cfg, p=31))
        assert len(build_id(cfg)) == 12
        assert set(build_id(cfg)) <= set("0123456789abcdef")

    def test_render_json_round_trips(self):
        cfg = _tiny_cfg(trials=2, n=(6,), kinds=("ground-truth",))
        columns, rows = run_risk_vs_n(cfg)
        payload = json.loads(render_json(cfg, columns, rows))
        assert payload["schema"] == "w2s-lab/risk-vs-n/v1"
        assert payload["columns"] == list(columns)
        assert len(payload["rows"]) == len(rows)
        # the echo block reuses the canonical header formatting, so values are strings
        assert payload["config"]["p"] == "30"

    def test_write_outputs_refusal_and_mirror(self, tmp_path):
        out = tmp_path / "deep" / "table.csv"
        cfg = _tiny_cfg(
            trials=2, n=(6,), kinds=("ground-truth",),
            out=str(out), json_mirror=True,
        )
        columns, rows = run_risk_vs_n(cfg)
        paths = write_outputs(cfg, columns, rows)
        assert out.exists()
        assert (tmp_path / "deep" / "table.json").exists()
        assert len(paths) == 2
        with pytest.raises(ConfigError):
            write_outputs(cfg, columns, rows)
        forced = with_overrides(cfg, force=True)
        write_outputs(forced, columns, rows)


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

    def test_numerical_failure_exits_three(self, capsys, monkeypatch):
        def boom(cfg):
            raise NonConvergenceError("bracket certification failed")

        monkeypatch.setattr("w2s_lab.harness.cli.run_risk_vs_n", boom)
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
        assert "slopes: target=" in captured.err

    def test_verify_command_reports_and_passes(self, capsys):
        rc = main(["verify", "--seed", "123"])
        captured = capsys.readouterr()
        assert rc == 0
        report = json.loads(captured.out)
        assert report["all_passed"] is True
        assert "properties passed" in captured.err
        assert "PASS fixed-point-residual" in captured.err

    def test_verify_refuses_existing_out(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        out.write_text("{}")
        rc = main(["verify", "--seed", "123", "--out", str(out)])
        capsys.readouterr()
        assert rc == 1
