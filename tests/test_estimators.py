"""Tests for seeded sampling, least-squares fitting, and the two-stage pipeline."""

import numpy as np
import pytest

from w2s_lab import (
    ProblemInstance,
    apply_mask,
    derive_seed,
    empirical_excess_risk,
    fit,
    power_law_signal,
    power_law_spectrum,
    sample_dataset,
    surrogate_to_target_fit,
    two_stage_fit,
)
from w2s_lab.estimators import GRAM_COND_LIMIT, STAGE_ROOT, STAGE_SURROGATE, STAGE_TARGET


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 1, 7) == derive_seed(42, 1, 7)

    def test_distinct_across_stages_and_trials(self):
        seen = set()
        for stage in (STAGE_ROOT, STAGE_SURROGATE, STAGE_TARGET):
            for trial in range(50):
                seen.add(derive_seed(12345, stage, trial))
        assert len(seen) == 150

    def test_stage_constants(self):
        assert (STAGE_ROOT, STAGE_SURROGATE, STAGE_TARGET) == (0, 1, 2)


class TestSampleDataset:
    def test_shapes_and_determinism(self):
        lam = power_law_spectrum(12, 2.0)
        beta = np.ones(12)
        a = sample_dataset(lam, beta, 0.3, 5, 99)
        b = sample_dataset(lam, beta, 0.3, 5, 99)
        assert a.design.shape == (5, 12)
        assert a.labels.shape == (5,)
        assert np.array_equal(a.design, b.design)
        assert np.array_equal(a.labels, b.labels)

    def test_noiseless_labels_are_exact(self):
        lam = power_law_spectrum(8, 1.5)
        beta = power_law_signal(8, 1.5, 2.0)
        ds = sample_dataset(lam, beta, 0.0, 4, 7)
        assert np.array_equal(ds.labels, ds.design @ beta)

    def test_design_invariant_to_noise_level(self):
        """The same seed must draw the same design whatever sigma_sq is."""
        lam = power_law_spectrum(10, 2.0)
        beta = np.ones(10)
        clean = sample_dataset(lam, beta, 0.0, 6, 314)
        noisy = sample_dataset(lam, beta, 2.5, 6, 314)
        assert np.array_equal(clean.design, noisy.design)
        assert not np.array_equal(clean.labels, noisy.labels)

    def test_column_scale_follows_spectrum(self):
        lam = power_law_spectrum(100, 2.0)
        ds = sample_dataset(lam, np.zeros(100), 0.0, 4000, 11)
        var = ds.design.var(axis=0)
        # loose moment check on the first and last columns
        assert var[0] == pytest.approx(lam[0], rel=0.1)
        assert var[-1] == pytest.approx(lam[-1], rel=0.1)

    def test_validation(self):
        lam = power_law_spectrum(5, 2.0)
        with pytest.raises(ValueError):
            sample_dataset(lam, np.ones(4), 0.1, 3, 1)
        with pytest.raises(ValueError):
            sample_dataset(lam, np.ones(5), -0.1, 3, 1)
        with pytest.raises(ValueError):
            sample_dataset(lam, np.ones(5), 0.1, 0, 1)


class TestFit:
    def test_interpolates_when_underdetermined(self):
        rng = np.random.default_rng(5)
        design = rng.normal(size=(6, 15))
        labels = rng.normal(size=6)
        out = fit(design, labels)
        assert out.regime == "min-norm-interpolator"
        assert out.rank == 6
        assert not out.rank_deficient
        assert design @ out.fitted == pytest.approx(labels, abs=1e-9)

    def test_minimum_norm_among_interpolants(self):
        """Adding any row-null-space direction can only grow the norm."""
        rng = np.random.default_rng(8)
        design = rng.normal(size=(4, 10))
        labels = rng.normal(size=4)
        fitted = fit(design, labels).fitted
        proj = design.T @ np.linalg.solve(design @ design.T, design)
        for _ in range(5):
            w = rng.normal(size=10)
            null_dir = w - proj @ w
            alt = fitted + null_dir
            assert design @ alt == pytest.approx(labels, abs=1e-8)
            assert np.linalg.norm(alt) >= np.linalg.norm(fitted) - 1e-10
        # the interpolant itself has no null-space component
        assert proj @ fitted == pytest.approx(fitted, abs=1e-8)

    def test_overdetermined_matches_normal_equations(self):
        rng = np.random.default_rng(13)
        design = rng.normal(size=(30, 8))
        labels = rng.normal(size=30)
        out = fit(design, labels)
        expected = np.linalg.solve(design.T @ design, design.T @ labels)
        assert out.regime == "ordinary-least-squares"
        assert out.fitted == pytest.approx(expected, abs=1e-9)

    def test_flags_rank_deficiency(self):
        rng = np.random.default_rng(21)
        row = rng.normal(size=9)
        design = np.stack([row, 2.0 * row, rng.normal(size=9)])
        out = fit(design, np.array([1.0, 2.0, 0.5]))
        assert out.rank == 2
        assert out.rank_deficient


def _lstsq_risk_gap(design, labels, beta, lam):
    """Fit output and its excess risk relative to np.linalg.lstsq's on the same data."""
    out = fit(design, labels)
    ref = np.linalg.lstsq(design, labels, rcond=None)[0]
    risk = empirical_excess_risk(out.fitted, beta, lam)
    ref_risk = empirical_excess_risk(ref, beta, lam)
    return out, abs(risk - ref_risk) / ref_risk


class TestFitRoute:
    """The Gram-matrix route must agree with lstsq wherever it is taken."""

    @pytest.mark.parametrize(
        "p,n", [(500, 100), (500, 300), (300, 90), (300, 240), (300, 285), (300, 600)]
    )
    def test_matches_lstsq_on_benchmark_shapes(self, p, n):
        lam = power_law_spectrum(p, 2.0)
        beta = power_law_signal(p, 2.0, 1.5)
        for trial in range(3):
            ds = sample_dataset(lam, beta, 0.05, n, derive_seed(20260822, STAGE_TARGET, trial))
            out, gap = _lstsq_risk_gap(ds.design, ds.labels, beta, lam)
            assert gap <= 1e-9
            assert out.rank == min(n, p)
            assert not out.rank_deficient
            if n <= 0.8 * p or n >= 2 * p:
                assert out.route == "gram"

    def test_near_square_falls_back_or_agrees(self):
        p = 300
        lam = power_law_spectrum(p, 2.0)
        beta = power_law_signal(p, 2.0, 1.5)
        for trial in range(3):
            ds = sample_dataset(lam, beta, 0.05, p - 1, derive_seed(7, STAGE_TARGET, trial))
            out, gap = _lstsq_risk_gap(ds.design, ds.labels, beta, lam)
            if out.route == "lstsq":
                ref = np.linalg.lstsq(ds.design, ds.labels, rcond=None)[0]
                assert np.array_equal(out.fitted, ref)
            else:
                assert gap <= 1e-6

    def test_duplicated_column_takes_lstsq(self):
        rng = np.random.default_rng(3)
        design = rng.normal(size=(40, 10))
        design[:, 7] = design[:, 3]
        labels = rng.normal(size=40)
        out = fit(design, labels)
        _, _, rank, _ = np.linalg.lstsq(design, labels, rcond=None)
        assert out.route == "lstsq"
        assert out.rank == rank == 9
        assert out.rank_deficient == bool(rank < 10)

    @pytest.mark.parametrize("wide", [True, False])
    def test_guard_threshold_is_trace_over_smallest_eigenvalue(self, wide):
        """Gram route iff trace(G) / lambda_min(G) <= GRAM_COND_LIMIT."""
        rng = np.random.default_rng(11)
        k, other = 5, 12
        u, _ = np.linalg.qr(rng.normal(size=(k, k)))
        v, _ = np.linalg.qr(rng.normal(size=(other, k)))
        for factor, route in ((0.5, "gram"), (2.0, "lstsq")):
            # singular values 1 (x4) and s: trace / lambda_min = 4 / s^2 + 1
            s = np.sqrt(4.0 / (factor * GRAM_COND_LIMIT - 1.0))
            design = (u * np.array([1.0, 1.0, 1.0, 1.0, s])) @ v.T
            if not wide:
                design = design.T.copy()
            out = fit(design, rng.normal(size=design.shape[0]))
            assert out.route == route
            assert out.rank == k
            assert not out.rank_deficient

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("shape", [(5, 12), (12, 5)])
    def test_non_finite_design_raises_from_lstsq(self, bad, shape):
        design = np.random.default_rng(0).normal(size=shape)
        design[1, 2] = bad
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            fit(design, np.ones(shape[0]))

    def test_zero_design_takes_lstsq(self):
        out = fit(np.zeros((3, 4)), np.ones(3))
        assert out.route == "lstsq"
        assert out.rank == 0
        assert out.rank_deficient
        assert np.array_equal(out.fitted, np.zeros(4))


class TestPipelines:
    def test_surrogate_fit_is_sample_then_fit(self):
        lam = power_law_spectrum(20, 1.8)
        beta_s = power_law_signal(20, 1.8, 2.2)
        direct = surrogate_to_target_fit(lam, beta_s, 0.1, 7, 404)
        ds = sample_dataset(lam, beta_s, 0.1, 7, 404)
        assert np.array_equal(direct.fitted, fit(ds.design, ds.labels).fitted)

    def _instance(self):
        p = 16
        return ProblemInstance(
            spectrum_t=power_law_spectrum(p, 2.0),
            spectrum_s=power_law_spectrum(p, 1.5),
            beta_star=power_law_signal(p, 2.0, 1.6),
            sigma_t_sq=0.05,
            sigma_s_sq=0.1,
            n=6,
            m=9,
        )

    def test_two_stage_shapes_and_determinism(self):
        inst = self._instance()
        beta_s, beta_s2t = two_stage_fit(inst, 2024, trial=3)
        again_s, again_s2t = two_stage_fit(inst, 2024, trial=3)
        assert beta_s.shape == (16,)
        assert beta_s2t.shape == (16,)
        assert np.array_equal(beta_s, again_s)
        assert np.array_equal(beta_s2t, again_s2t)

    def test_two_stage_uses_disjoint_stage_streams(self):
        """Each stage draws from its own derived seed, reproducible in isolation."""
        inst = self._instance()
        seed, trial = 777, 2
        beta_s, beta_s2t = two_stage_fit(inst, seed, trial=trial)
        stage1 = sample_dataset(
            inst.spectrum_s, inst.beta_star, inst.sigma_s_sq, inst.m,
            derive_seed(seed, STAGE_SURROGATE, trial),
        )
        expected_s = fit(stage1.design, stage1.labels).fitted
        assert np.array_equal(beta_s, expected_s)
        stage2 = surrogate_to_target_fit(
            inst.spectrum_t, expected_s, inst.sigma_t_sq, inst.n,
            derive_seed(seed, STAGE_TARGET, trial),
        )
        assert np.array_equal(beta_s2t, stage2.fitted)

    def test_distillation_flag_drops_stage_two_noise(self):
        inst = self._instance()
        _, noiseless = two_stage_fit(inst, 55, distill_noiseless=True)
        beta_s, _ = two_stage_fit(inst, 55)
        stage2 = surrogate_to_target_fit(
            inst.spectrum_t, beta_s, 0.0, inst.n, derive_seed(55, STAGE_TARGET, 0)
        )
        assert np.array_equal(noiseless, stage2.fitted)

    def test_instance_validation(self):
        lam = power_law_spectrum(4, 2.0)
        with pytest.raises(ValueError):
            ProblemInstance(lam, power_law_spectrum(5, 2.0), np.ones(4), 0.1, 0.1, 2, 2)
        with pytest.raises(ValueError):
            ProblemInstance(lam, lam, np.ones(4), -1.0, 0.1, 2, 2)
        with pytest.raises(ValueError):
            ProblemInstance(lam, lam, np.ones(4), 0.1, 0.1, 0, 2)


class TestHelpers:
    def test_empirical_excess_risk_value(self):
        lam = np.array([1.0, 0.25])
        risk = empirical_excess_risk(np.array([2.0, 3.0]), np.array([1.0, 1.0]), lam)
        assert risk == pytest.approx(1.0 + 0.25 * 4.0)

    def test_empirical_excess_risk_shape_guard(self):
        with pytest.raises(ValueError):
            empirical_excess_risk(np.ones(3), np.ones(2), np.array([1.0, 0.5]))

    def test_apply_mask_semantics(self):
        beta = np.array([1.0, 2.0, 3.0, 4.0])
        masked = apply_mask(beta, {0, 2})
        assert masked == pytest.approx([1.0, 0.0, 3.0, 0.0])
        assert apply_mask(beta, frozenset()) == pytest.approx([0.0, 0.0, 0.0, 0.0])

    def test_apply_mask_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            apply_mask(np.ones(3), {3})
        with pytest.raises(IndexError):
            apply_mask(np.ones(3), {-1})
