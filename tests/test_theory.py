"""Tests for the closed-form risk formulas against hand values and blunt re-derivations."""

import inspect

import numpy as np
import pytest

from w2s_lab import design, spectrum, theory
from w2s_lab import (
    ProblemInstance,
    brute_force_mask,
    covariance_shift_map,
    cutoff_indices,
    empirical_excess_risk,
    fixed_point_residual,
    gain_profile,
    gamma_t_sq,
    mask_size,
    masked_surrogate,
    omega_lower_bound,
    omniscient_risk,
    one_stage_risk,
    optimal_mask,
    optimal_surrogate,
    power_law_signal,
    power_law_spectrum,
    sample_dataset,
    solve_tau,
    tau_asymptotic,
    tau_bounds_nonasymptotic,
    to_spectral_coordinates,
    two_stage_fit,
    two_stage_risk,
)
from w2s_lab.estimators import sample_block
from w2s_lab.harness.experiments import mc_one_stage_risks, mc_two_stage_risks, mean_and_se
from w2s_lab.reference import one_stage_risk_dense
from w2s_lab.spectrum import _tolerance


def _reference_tau(lam, n):
    """Plain 120-step bisection, kept independent of the library solver."""
    lo, hi = 1e-13, float(lam[0]) * lam.size
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if np.sum(lam / (lam + mid)) > n:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _reference_one_stage(lam, beta_star, beta_s, n, sigma_sq):
    """Re-derive the one-stage risk with no shared code beyond numpy."""
    tau = _reference_tau(lam, n)
    shrink = lam / (lam + tau)
    zeta = 1.0 - shrink
    omega = np.sum(shrink**2) / n
    bias = np.sum(lam * (shrink * beta_s - beta_star) ** 2)
    variance = omega * (sigma_sq + np.sum(lam * zeta**2 * beta_s**2)) / (1.0 - omega)
    return bias, variance


class TestOneStage:
    def test_hand_worked_two_point_instance(self):
        """Eigenvalues (1, 1/4), n=1, noiseless self-labeled fit at beta = (1, 1)."""
        lam = np.array([1.0, 0.25])
        ones = np.ones(2)
        report = one_stage_risk(solve_tau(lam, 1), ones, ones, 0.0)
        assert report.bias == pytest.approx(2.0 / 9.0, abs=1e-10)
        assert report.variance == pytest.approx(5.0 / 18.0, abs=1e-10)
        assert report.total == pytest.approx(0.5, abs=1e-10)

    def test_matches_reference_derivation(self):
        rng = np.random.default_rng(300)
        for _ in range(15):
            p = int(rng.integers(5, 60))
            n = int(rng.integers(1, p))
            lam = np.sort(rng.uniform(0.02, 3.0, size=p))[::-1]
            beta_star = rng.normal(size=p)
            beta_s = rng.normal(size=p)
            sigma_sq = float(rng.uniform(0.0, 1.5))
            report = one_stage_risk(solve_tau(lam, n), beta_star, beta_s, sigma_sq)
            bias, variance = _reference_one_stage(lam, beta_star, beta_s, n, sigma_sq)
            assert report.bias == pytest.approx(bias, rel=1e-10, abs=1e-12)
            assert report.variance == pytest.approx(variance, rel=1e-10, abs=1e-12)

    def test_total_is_exact_sum(self):
        lam = power_law_spectrum(30, 1.8)
        beta = power_law_signal(30, 1.8, 2.4)
        report = one_stage_risk(solve_tau(lam, 9), beta, 0.5 * beta, 0.3)
        assert report.total == report.bias + report.variance
        assert report.variance >= 0.0

    def test_precomputed_stats_reused_bitwise(self):
        # one solve serves many calls: each matches a fresh solve bit for bit
        lam = power_law_spectrum(40, 1.5)
        beta = power_law_signal(40, 1.5, 2.0)
        stats = solve_tau(lam, 12)
        zeta = stats.zeta.copy()
        first = one_stage_risk(stats, beta, beta, 0.2)
        again = one_stage_risk(stats, beta, beta, 0.2)
        fresh = one_stage_risk(solve_tau(lam, 12), beta, beta, 0.2)
        assert first.total == again.total == fresh.total
        assert np.array_equal(stats.zeta, zeta)

    def test_mismatched_stats_rejected(self):
        lam = power_law_spectrum(20, 2.0)
        with pytest.raises(TypeError):  # a spectrum where the stats belong
            one_stage_risk(lam, np.ones(20), np.ones(20), 0.1)
        stats = solve_tau(lam, 5)
        with pytest.raises(ValueError):  # stats of another dimension than the vectors
            one_stage_risk(stats, np.ones(21), np.ones(21), 0.1)

    def test_shape_and_noise_validation(self):
        stats = solve_tau(power_law_spectrum(6, 2.0), 2)
        with pytest.raises(ValueError):
            one_stage_risk(stats, np.ones(5), np.ones(6), 0.1)
        with pytest.raises(ValueError):
            one_stage_risk(stats, np.ones(6), np.ones(6), -0.1)


class TestOmniscient:
    def test_isotropic_pure_noise_oracle(self):
        """Flat spectrum, zero signal, unit noise, n = p/2: risk is exactly 1."""
        report = omniscient_risk(solve_tau(np.ones(2), 1), np.zeros(2), 1.0)
        assert report.bias == pytest.approx(0.0, abs=1e-12)
        assert report.total == pytest.approx(1.0, abs=1e-10)


class TestGamma:
    def test_hand_value(self):
        stats = solve_tau(np.array([1.0, 0.25]), 1)
        assert gamma_t_sq(stats, np.ones(2), 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_affine_in_noise(self):
        """gamma^2 grows by kappa * sigma_sq / (1 - omega) per unit of noise."""
        lam = power_law_spectrum(30, 2.2)
        stats = solve_tau(lam, 10)
        beta = power_law_signal(30, 2.2, 1.5)
        base = gamma_t_sq(stats, beta, 0.0)
        bumped = gamma_t_sq(stats, beta, 0.7)
        kappa = 30 / 10
        assert bumped - base == pytest.approx(kappa * 0.7 / (1.0 - stats.omega), rel=1e-10)


class TestTwoStage:
    def _instance(self, **overrides):
        p = 40
        kwargs = dict(
            spectrum_t=power_law_spectrum(p, 2.0),
            spectrum_s=power_law_spectrum(p, 1.5),
            beta_star=power_law_signal(p, 2.0, 1.8),
            sigma_t_sq=0.05,
            sigma_s_sq=0.1,
            n=12,
            m=16,
        )
        kwargs.update(overrides)
        return ProblemInstance(**kwargs)

    def test_zero_signal_zero_noise_is_exactly_zero(self):
        inst = self._instance(beta_star=np.zeros(40), sigma_t_sq=0.0, sigma_s_sq=0.0)
        report = two_stage_risk(inst)
        assert report.bias == 0.0
        assert report.variance == 0.0
        assert report.total == 0.0

    def test_total_is_exact_sum_and_nonnegative(self):
        report = two_stage_risk(self._instance())
        assert report.total == report.bias + report.variance
        assert report.bias >= 0.0
        assert report.variance >= 0.0

    def test_monotone_in_stage_two_noise(self):
        totals = [
            two_stage_risk(self._instance(sigma_t_sq=s)).total for s in (0.0, 0.2, 0.8)
        ]
        assert totals == sorted(totals)

    def test_simulation_agreement_desk_scale(self):
        """400 paired-pipeline trials land within 4 SE of the formula."""
        inst = self._instance()
        theory = two_stage_risk(inst).total
        risks = np.empty(400)
        for t in range(400):
            _, beta_s2t = two_stage_fit(inst, 9090, trial=t)
            risks[t] = empirical_excess_risk(beta_s2t, inst.beta_star, inst.spectrum_t)
        se = risks.std(ddof=1) / np.sqrt(risks.size)
        assert abs(risks.mean() - theory) <= 4.0 * se
        assert risks.mean() == pytest.approx(theory, rel=0.2)

    def test_rejects_saturated_sample_counts(self):
        with pytest.raises(ValueError):
            two_stage_risk(self._instance(n=40))
        with pytest.raises(ValueError):
            two_stage_risk(self._instance(m=41))


class TestCovarianceShiftMap:
    def test_identity_when_spectra_match(self):
        lam = power_law_spectrum(10, 2.0)
        beta = power_law_signal(10, 2.0, 1.5)
        assert covariance_shift_map(beta, lam, lam) == pytest.approx(beta, rel=1e-14)

    def test_four_to_one_ratio_doubles(self):
        lam_t = power_law_spectrum(6, 1.5)
        beta = np.ones(6)
        mapped = covariance_shift_map(beta, 4.0 * lam_t, lam_t)
        assert mapped == pytest.approx(2.0 * np.ones(6), rel=1e-14)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            covariance_shift_map(np.ones(4), power_law_spectrum(4, 2.0), power_law_spectrum(5, 2.0))

    def test_transport_identity_on_shared_draw(self):
        """Column-rescaled source data is target data labeled by the mapped vector.

        With one shared seed the two datasets come from the same gaussian table,
        so the identity can be checked directly rather than in distribution.
        """
        p, n = 15, 8
        lam_s = power_law_spectrum(p, 1.4)
        lam_t = power_law_spectrum(p, 2.6)
        beta_star = power_law_signal(p, 2.6, 1.7)
        mapped = covariance_shift_map(beta_star, lam_s, lam_t)
        ds_source = sample_dataset(lam_s, beta_star, 0.0, n, 606)
        ds_target = sample_dataset(lam_t, mapped, 0.0, n, 606)
        transported = ds_source.design * np.sqrt(lam_t / lam_s)[None, :]
        assert transported == pytest.approx(ds_target.design, rel=1e-12, abs=1e-12)
        assert ds_source.labels == pytest.approx(ds_target.labels, rel=1e-12, abs=1e-12)


class TestSpectralCoordinates:
    def test_recovers_diagonal_instance(self):
        lam = power_law_spectrum(12, 1.9)
        beta = power_law_signal(12, 1.9, 2.1)
        spectrum, beta_bar = to_spectral_coordinates(np.diag(lam), beta)
        assert spectrum == pytest.approx(lam, rel=1e-12)
        assert np.abs(beta_bar) == pytest.approx(np.abs(beta), rel=1e-9)

    def test_risk_invariant_under_rotation(self):
        """A dense covariance and its spectral pair give the same self-labeled risk."""
        rng = np.random.default_rng(17)
        p, n = 14, 5
        lam = np.sort(rng.uniform(0.1, 3.0, size=p))[::-1]
        beta = rng.normal(size=p)
        basis, _ = np.linalg.qr(rng.normal(size=(p, p)))
        cov = basis @ np.diag(lam) @ basis.T
        spectrum, beta_bar = to_spectral_coordinates(cov, basis @ beta)
        direct = one_stage_risk(solve_tau(lam, n), beta, beta, 0.3)
        rotated = one_stage_risk(solve_tau(spectrum, n), beta_bar, beta_bar, 0.3)
        assert rotated.total == pytest.approx(direct.total, rel=1e-8)

    def test_rejects_asymmetric_and_indefinite(self):
        with pytest.raises(ValueError):
            to_spectral_coordinates(np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones(2))
        with pytest.raises(ValueError):
            to_spectral_coordinates(np.diag([1.0, -0.5]), np.ones(2))
        with pytest.raises(ValueError):
            to_spectral_coordinates(np.eye(3), np.ones(2))


class TestMonteCarloReport:
    def test_tracks_closed_form(self):
        # min-norm fits by lstsq, a route independent of estimators.fit
        lam = power_law_spectrum(30, 2.0)
        beta = power_law_signal(30, 2.0, 1.6)
        theory = one_stage_risk(solve_tau(lam, 10), beta, beta, 0.1)
        risks = np.empty(300)
        for t in range(300):
            ds = sample_dataset(lam, beta, 0.1, 10, 5000 + t)
            fitted = np.linalg.lstsq(ds.design, ds.labels, rcond=None)[0]
            risks[t] = empirical_excess_risk(fitted, beta, lam)
        mean, se = mean_and_se(risks)
        assert abs(mean - theory.total) <= 4.0 * se


class TestExactFiniteN:
    """The Monte Carlo engine against the exact Gaussian risks at finite n, within 3 SE.

    Isotropic interpolation (Sigma = I, n < p - 1) has E[P] = (n/p) I for the
    row-space projection and E tr((X X^T)^-1) = n/(p - n - 1); least squares
    (n > p + 1) is unbiased with E[(X^T X)^-1] = Sigma^-1/(n - p - 1). See
    Belkin, Hsu & Xu (arXiv 1903.07571) and Hastie et al. (arXiv 1903.08560,
    section 2). At the isotropic points the p -> infinity oracle must sit
    outside 3 SE, which shows the gate has power.
    """

    SIGMA_SQ = 0.05

    @staticmethod
    def _z(risks, value):
        mean, se = mean_and_se(risks)
        return abs(mean - value) / se

    def test_isotropic_one_stage(self):
        p, n, lam = 20, 15, np.ones(20)
        beta_star = power_law_signal(p, 2.0, 3.0)
        beta_star /= np.linalg.norm(beta_star)
        beta_s = masked_surrogate(beta_star, range(10))
        exact = (
            beta_star @ beta_star - 2.0 * (n / p) * (beta_star @ beta_s)
            + (n / p) * (beta_s @ beta_s) + self.SIGMA_SQ * n / (p - n - 1)
        )
        (risks,) = mc_one_stage_risks(lam, beta_star, [beta_s], self.SIGMA_SQ, [n], 3000, 11)
        assert self._z(risks, exact) <= 3.0
        oracle = one_stage_risk(solve_tau(lam, n), beta_star, beta_s, self.SIGMA_SQ)
        assert self._z(risks, oracle.total) > 3.0

    def test_isotropic_two_stage(self):
        p, n, m, lam = 50, 40, 40, np.ones(50)
        beta_star = power_law_signal(p, 2.0, 3.0)
        beta_star /= np.linalg.norm(beta_star)
        inst = ProblemInstance(lam, lam, beta_star, self.SIGMA_SQ, self.SIGMA_SQ, n, m)
        exact = (
            (beta_star @ beta_star) * (1.0 - n * m / p**2)
            + (n / p) * self.SIGMA_SQ * m / (p - m - 1) + self.SIGMA_SQ * n / (p - n - 1)
        )
        (risks,) = mc_two_stage_risks([inst], 2000, 12)
        assert self._z(risks, exact) <= 3.0
        assert self._z(risks, two_stage_risk(inst).total) > 3.0

    def test_least_squares_one_stage(self):
        """Any Sigma: E R = ||Sigma^(1/2) (beta_s - beta*)||^2 + sigma^2 p/(n - p - 1)."""
        p, n, lam = 20, 40, power_law_spectrum(20, 2.0)
        beta_star = power_law_signal(p, 2.0, 1.5)
        beta_s = masked_surrogate(beta_star, range(10))
        exact = lam @ (beta_s - beta_star) ** 2 + self.SIGMA_SQ * p / (n - p - 1)
        (risks,) = mc_one_stage_risks(lam, beta_star, [beta_s], self.SIGMA_SQ, [n], 3000, 13)
        assert self._z(risks, exact) <= 3.0

    @pytest.mark.parametrize(
        "n, m, sigma_t_sq, sigma_s_sq, seed", [(40, 60, 0.1, 0.5, 14), (30, 80, 0.2, 0.3, 15)]
    )
    def test_least_squares_two_stage(self, n, m, sigma_t_sq, sigma_s_sq, seed):
        """Distinct spectra, n and m > p + 1: least squares at both stages has

            E R = sigma_s^2 tr(Sigma_t Sigma_s^-1)/(m - p - 1) + sigma_t^2 p/(n - p - 1).

        Stage one is unbiased with covariance sigma_s^2 Sigma_s^-1/(m - p - 1),
        and stage two adds its own noise fit to it. The form without its
        stage-one term must sit outside 3 SE, which shows the gate has power.
        """
        p = 20
        lam_t, lam_s = power_law_spectrum(p, 2.0), power_law_spectrum(p, 1.2)
        beta_star = power_law_signal(p, 2.0, 1.5)
        inst = ProblemInstance(lam_t, lam_s, beta_star, sigma_t_sq, sigma_s_sq, n, m)
        stage_one = sigma_s_sq * np.sum(lam_t / lam_s) / (m - p - 1)
        stage_two = sigma_t_sq * p / (n - p - 1)
        (risks,) = mc_two_stage_risks([inst], 3000, seed)
        assert self._z(risks, stage_one + stage_two) <= 3.0
        assert self._z(risks, stage_two) > 3.0


def _inline_energy(st, surrogates, sigma_sq):
    """Noise energy per row of a (k, p) stack, as one unblocked expression."""
    terms = st.eigenvalues[None, :] * st.zeta[None, :] ** 2 * surrogates**2
    return sigma_sq + np.sum(terms[:, ::-1], axis=1)


def _inline_one_stage(st, beta_star, surrogates, sigma_sq):
    """Bias and variance rows of a (k, p) stack, each formula one unblocked expression."""
    bias_terms = st.eigenvalues[None, :] * (
        st.one_minus_zeta()[None, :] * surrogates - beta_star[None, :]
    ) ** 2
    energy = _inline_energy(st, surrogates, sigma_sq)
    return np.sum(bias_terms[:, ::-1], axis=1), st.omega * energy / (1.0 - st.omega)


def _inline_two_stage(inst):
    """Bias and variance of two_stage_risk, each term one unblocked expression."""
    st_s, st_t = solve_tau(inst.spectrum_s, inst.m), solve_tau(inst.spectrum_t, inst.n)
    lam_s, lam_t, p = inst.spectrum_s, inst.spectrum_t, inst.p
    beta_sq = inst.beta_star**2
    one_minus_s, one_minus_t = st_s.one_minus_zeta(), st_t.one_minus_zeta()
    shrink_s = lam_s / (lam_s + st_s.tau) ** 2
    bias_terms = lam_t * (1.0 - one_minus_t * one_minus_s) ** 2 * beta_sq
    gamma_s_sq = gamma_t_sq(st_s, inst.beta_star, inst.sigma_s_sq)
    label = lam_t * st_t.zeta**2 * (one_minus_s**2 * beta_sq + (gamma_s_sq / p) * shrink_s)
    exp_gamma_t = (
        (p / inst.n) * (inst.sigma_t_sq + float(np.sum(label[::-1]))) / (1.0 - st_t.omega)
    )
    carry_terms = lam_t * one_minus_t**2 * shrink_s
    variance = exp_gamma_t * inst.n * st_t.omega / p + (gamma_s_sq / p) * float(
        np.sum(carry_terms[::-1])
    )
    return float(np.sum(bias_terms[::-1])), variance


class TestColumnBlocks:
    """Blocking the p-length formulas by columns changes no bit of any result."""

    P = 100_003  # 8 leaves of the default width, 1,024 of width 128

    @pytest.fixture(scope="class")
    def problem(self):
        lam = power_law_spectrum(self.P, 1.5)
        beta = power_law_signal(self.P, 1.5, 1.3)
        surrogate = beta * np.random.default_rng(3).uniform(0.0, 2.0, self.P)
        return lam, beta, surrogate, solve_tau(lam, 2_000)

    @pytest.fixture(params=["width-128", "width-p+1"])
    def width(self, request, monkeypatch):
        width = 128 if request.param == "width-128" else self.P + 1
        monkeypatch.setattr(spectrum, "_CHUNK_COLUMNS", width)
        return width

    def test_one_stage_risk(self, problem, width):
        _, beta, surrogate, st = problem
        bias, variance = _inline_one_stage(st, beta, surrogate[None, :], 0.05)
        report = one_stage_risk(st, beta, surrogate, 0.05)
        assert report.bias == bias[0]
        assert report.variance == variance[0]
        energy = _inline_energy(st, surrogate[None, :], 0.05)[0]
        assert gamma_t_sq(st, surrogate, 0.05) == st.p / st.n * energy / (1.0 - st.omega)

    def test_designers(self, problem, width):
        _, beta, _, st = problem
        one_minus = st.one_minus_zeta()
        gains = one_minus / (one_minus**2 + st.omega / (1.0 - st.omega) * st.zeta**2)
        assert np.array_equal(gain_profile(st), gains)
        assert np.array_equal(optimal_surrogate(st, beta), gains * beta)
        rel = _tolerance(st.n) / (st.n * (1.0 - st.omega))
        threshold = ((1.0 - st.omega) - 2.0 * st.omega * rel) / (1.0 + 2.0 * rel)
        keep = np.flatnonzero(st.zeta**2 < threshold)
        assert optimal_mask(st) == frozenset(keep.tolist())
        assert mask_size(st) == keep.size

    def test_solve_tau(self, problem, width, monkeypatch):
        lam = problem[0]
        st = solve_tau(lam, 2_000)
        monkeypatch.setattr(spectrum, "_CHUNK_COLUMNS", self.P + 1)
        unblocked = solve_tau(lam, 2_000)
        assert (st.tau, st.omega, st.residual, st.iterations) == (
            unblocked.tau,
            unblocked.omega,
            unblocked.residual,
            unblocked.iterations,
        )
        one_minus = lam[::-1] / (lam[::-1] + st.tau)
        assert st.residual == float(np.sum(one_minus)) - 2_000
        assert st.omega == float(np.sum(one_minus**2)) / 2_000
        assert fixed_point_residual(lam, st.tau, 2_000) == st.residual

    def test_two_stage_risk(self, problem, width):
        lam, beta, _, _ = problem
        inst = ProblemInstance(lam, lam**1.2, beta, 0.05, 0.2, 2_000, 3_000)
        bias, variance = _inline_two_stage(inst)
        report = two_stage_risk(inst)
        assert (report.bias, report.variance, report.total) == (bias, variance, bias + variance)

    def test_brute_force_mask(self):
        # the kernel brute_force_mask scores every candidate support with
        lam = power_law_spectrum(14, 2.0)
        beta = power_law_signal(14, 2.0, 1.5)
        st = solve_tau(lam, 5)
        for _, keep in design._support_blocks(14):
            stack = np.where(keep, beta, 0.0)
            kernel = theory._one_stage_terms(st, beta, stack, 0.05)
            for got, want in zip(kernel, _inline_one_stage(st, beta, stack, 0.05)):
                assert np.array_equal(got, want)


_P, _N = 6, 3
_LAM = power_law_spectrum(_P, 2.0)
_BETA = power_law_signal(_P, 2.0, 1.5)


def _instance(beta_star=_BETA, sigma_t_sq=0.1, sigma_s_sq=0.1):
    return ProblemInstance(_LAM, _LAM, beta_star, sigma_t_sq, sigma_s_sq, _N, _N)


# Every entry point that takes coefficient vectors (arguments beta*) or noise
# variances (sigma*), called with valid values unless a keyword replaces one.
_ENTRY_POINTS = {
    "one_stage_risk": lambda beta_star=_BETA, beta_s=_BETA, sigma_sq=0.1: one_stage_risk(
        solve_tau(_LAM, _N), beta_star, beta_s, sigma_sq
    ),
    "two_stage_risk": lambda beta_star=_BETA, sigma_t_sq=0.1, sigma_s_sq=0.1: two_stage_risk(
        _instance(beta_star, sigma_t_sq, sigma_s_sq)
    ),
    "gamma_t_sq": lambda beta_s=_BETA, sigma_sq=0.1: gamma_t_sq(
        solve_tau(_LAM, _N), beta_s, sigma_sq
    ),
    "covariance_shift_map": lambda beta_star=_BETA: covariance_shift_map(beta_star, _LAM, _LAM),
    "to_spectral_coordinates": lambda beta=_BETA: to_spectral_coordinates(np.diag(_LAM), beta),
    "optimal_surrogate": lambda beta_star=_BETA: optimal_surrogate(
        solve_tau(_LAM, _N), beta_star
    ),
    "brute_force_mask": lambda beta_star=_BETA, sigma_sq=0.1: brute_force_mask(
        _LAM, beta_star, _N, sigma_sq
    ),
    "empirical_excess_risk": lambda beta_hat=_BETA, beta_star=_BETA: empirical_excess_risk(
        beta_hat, beta_star, _LAM
    ),
    "ProblemInstance": _instance,
    "mc_one_stage_risks": lambda beta_star=_BETA, sigma_sq=0.1: mc_one_stage_risks(
        _LAM, beta_star, [_BETA], sigma_sq, [_N], 2, 1
    ),
    "sample_block": lambda beta=_BETA, sigma_sq=0.1: sample_block(
        _LAM, [beta], sigma_sq, [_N], [1]
    ),
    "sample_dataset": lambda beta=_BETA, sigma_sq=0.1: sample_dataset(_LAM, beta, sigma_sq, _N, 1),
    "one_stage_risk_dense": lambda beta_star=_BETA, beta_s=_BETA, sigma_sq=0.1: (
        one_stage_risk_dense(_LAM, beta_star, beta_s, _N, sigma_sq)
    ),
    "masked_surrogate": lambda beta_star=_BETA: masked_surrogate(beta_star, {0, 1}),
}
_ARGUMENTS = [
    (entry, argument)
    for entry, call in _ENTRY_POINTS.items()
    for argument in inspect.signature(call).parameters
]


class TestCoefficientCheck:
    """Every entry point refuses a non-finite coefficient or an invalid noise variance by name."""

    @pytest.mark.parametrize("entry", _ENTRY_POINTS)
    def test_valid_arguments_pass(self, entry):
        _ENTRY_POINTS[entry]()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "entry,argument", [case for case in _ARGUMENTS if case[1].startswith("beta")]
    )
    def test_non_finite_coefficient_is_refused(self, entry, argument, bad):
        vector = _BETA.copy()
        vector[2] = bad
        with pytest.raises(ValueError, match=f"^{argument} must be finite"):
            _ENTRY_POINTS[entry](**{argument: vector})

    @pytest.mark.parametrize(
        "entry,argument",
        # masked_surrogate has no spectrum: any length is its own
        [
            (entry, argument)
            for entry, argument in _ARGUMENTS
            if argument.startswith("beta") and entry != "masked_surrogate"
        ],
    )
    def test_wrong_shape_is_refused(self, entry, argument):
        with pytest.raises(ValueError, match=f"^{argument} has shape"):
            _ENTRY_POINTS[entry](**{argument: _BETA[:-1]})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize(
        "entry,argument", [case for case in _ARGUMENTS if case[1].startswith("sigma")]
    )
    def test_invalid_noise_variance_is_refused(self, entry, argument, bad):
        with pytest.raises(ValueError, match=f"^{argument} must be finite and >= 0"):
            _ENTRY_POINTS[entry](**{argument: bad})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariance_is_refused(self, bad):
        cov = np.diag(_LAM)
        cov[1, 1] = bad
        with pytest.raises(ValueError, match="^cov must be finite"):
            to_spectral_coordinates(cov, _BETA)


# Every entry point that takes a count (n, m, p, a sample count or trials),
# called with valid values unless a keyword replaces one.
_COUNT_ENTRY_POINTS = {
    "solve_tau": lambda n=_N: solve_tau(_LAM, n),
    "fixed_point_residual": lambda n=_N: fixed_point_residual(_LAM, 0.1, n),
    "power_law_spectrum": lambda p=_P: power_law_spectrum(p, 2.0),
    "power_law_signal": lambda p=_P: power_law_signal(p, 2.0, 1.5),
    "tau_asymptotic": lambda n=_N: tau_asymptotic(2.0, n),
    "tau_bounds_nonasymptotic": lambda p=1000, n=100: tau_bounds_nonasymptotic(2.0, p, n),
    "omega_lower_bound": lambda p=1000, n=400: omega_lower_bound(5.0, p, n),
    "cutoff_indices": lambda n=_N: cutoff_indices(2.0, n),
    "brute_force_mask": lambda n=_N: brute_force_mask(_LAM, _BETA, n, 0.1),
    "one_stage_risk_dense": lambda n=_N: one_stage_risk_dense(_LAM, _BETA, _BETA, n, 0.1),
    "ProblemInstance": lambda n=_N, m=_N: ProblemInstance(_LAM, _LAM, _BETA, 0.1, 0.1, n, m),
    "sample_block": lambda count=_N: sample_block(_LAM, [_BETA] * 2, 0.1, [_N, count], [1]),
    "sample_dataset": lambda count=_N: sample_dataset(_LAM, _BETA, 0.1, count, 1),
    "mc_one_stage_risks": lambda n=_N, trials=2: mc_one_stage_risks(
        _LAM, _BETA, [_BETA], 0.1, [n], trials, 1
    ),
    "mc_two_stage_risks": lambda trials=2: mc_two_stage_risks([_instance()], trials, 1),
}
_COUNT_ARGUMENTS = [
    (entry, argument)
    for entry, call in _COUNT_ENTRY_POINTS.items()
    for argument in inspect.signature(call).parameters
]


class TestCountCheck:
    """Every entry point refuses a count that is not an integer >= 1 by name, never truncates it."""

    @pytest.mark.parametrize("entry", _COUNT_ENTRY_POINTS)
    def test_valid_counts_pass(self, entry):
        _COUNT_ENTRY_POINTS[entry]()

    @pytest.mark.parametrize("bad", [0, -1, 2.5, np.nan])
    @pytest.mark.parametrize("entry,argument", _COUNT_ARGUMENTS)
    def test_count_must_be_an_integer_of_at_least_one(self, entry, argument, bad):
        with pytest.raises(ValueError, match=f"^{argument} must be (an integer|>= 1), got {bad}$"):
            _COUNT_ENTRY_POINTS[entry](**{argument: bad})

    def test_problem_instance_stores_integral_counts_as_ints(self):
        inst = ProblemInstance(_LAM, _LAM, _BETA, 0.1, 0.1, 3.0, np.int64(4))
        assert (inst.n, inst.m) == (3, 4)
        assert type(inst.n) is int and type(inst.m) is int
