"""Tests for the fixed-point solver, spectrum builders, and finite-sample bounds."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from w2s_lab import (
    HypothesisViolatedError,
    NonConvergenceError,
    SpectralStats,
    cutoff_indices,
    fixed_point_residual,
    omega_asymptotic,
    omega_lower_bound,
    optimal_mask,
    optimal_surrogate,
    power_law_signal,
    power_law_spectrum,
    scaling_exponent,
    solve_tau,
    tau_asymptotic,
    tau_bounds_nonasymptotic,
)
from w2s_lab import spectrum
from w2s_lab.harness.config import build_config
from w2s_lab.harness.experiments import run_mask_count
from w2s_lab.spectrum import TAU_ATOL, TAU_RTOL, as_spectrum


class TestSolveTau:
    def test_two_point_spectrum_exact_root(self):
        """For eigenvalues (1, 1/4) and n=1 the root is tau = 1/2 by hand."""
        stats = solve_tau(np.array([1.0, 0.25]), 1)
        assert stats.tau == pytest.approx(0.5, abs=1e-10)
        assert stats.zeta[0] == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert stats.zeta[1] == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert stats.omega == pytest.approx(5.0 / 9.0, abs=1e-10)

    def test_isotropic_closed_form(self):
        # flat spectrum: tau = lam * (p - n) / n exactly
        for lam, p, n in [(1.0, 10, 4), (3.5, 50, 49), (0.2, 6, 1)]:
            stats = solve_tau(np.full(p, lam), n)
            assert stats.tau == pytest.approx(lam * (p - n) / n, rel=1e-10)
            assert stats.omega == pytest.approx(n / p, rel=1e-10)

    def test_rejects_n_at_least_p(self):
        with pytest.raises(ValueError):
            solve_tau(np.array([1.0, 0.5]), 2)
        with pytest.raises(ValueError):
            solve_tau(np.array([1.0, 0.5]), 0)

    @pytest.mark.parametrize("tau", [0.0, -1.0, -0.5, math.nan, math.inf, -math.inf])
    def test_residual_refuses_tau_outside_the_positive_reals(self, tau):
        """tau = 0 would report p - n, and tau = -lambda_1 would divide by zero."""
        lam = power_law_spectrum(10, 2.0)
        with pytest.raises(ValueError, match=f"^tau must be finite and > 0, got {tau}$"):
            fixed_point_residual(lam, tau, 5)

    def test_rejects_non_integral_n(self):
        lam = power_law_spectrum(50, 2.0)
        with pytest.raises(ValueError, match=r"^n must be an integer, got 10.7$"):
            solve_tau(lam, 10.7)
        assert solve_tau(lam, 10.0).tau == solve_tau(lam, 10).tau

    def test_rejects_an_int_beyond_float_range_by_name(self):
        """Compared exactly, before float() could overflow on it."""
        refusal = rf"^n must be at most 1\.7976931348623157e\+308, got {10**400}$"
        with pytest.raises(ValueError, match=refusal):
            solve_tau(power_law_spectrum(5, 2.0), 10**400)

    def test_rejects_bad_spectra(self):
        with pytest.raises(ValueError):
            solve_tau(np.array([1.0, -0.5, 0.1]), 1)
        with pytest.raises(ValueError):
            solve_tau(np.array([0.5, 1.0]), 1)  # not non-increasing


class TestSolverObservability:
    """The solver reports its pass count and the residual it certified."""

    @pytest.fixture(scope="class", params=[1.5, 3.0])
    def large_spectrum(self, request):
        return power_law_spectrum(1_000_000, request.param)

    @pytest.mark.parametrize("n", [1_000, 10_000, 100_000])
    def test_few_passes_at_large_p(self, large_spectrum, n):
        stats = solve_tau(large_spectrum, n)
        assert stats.iterations <= 5
        assert stats.residual == fixed_point_residual(large_spectrum, stats.tau, n)
        assert abs(stats.residual) <= TAU_ATOL + TAU_RTOL * n
        lam = large_spectrum
        assert np.array_equal(stats.one_minus_zeta(), lam / (lam + stats.tau))
        assert np.array_equal(stats.zeta, stats.tau / (lam + stats.tau))


class TestLazyBracket:
    """The start, and the bracket ends checked only when a bisection needs them."""

    @staticmethod
    def _record_passes(monkeypatch):
        taus = []
        real = spectrum._residual_into

        def recording(lam, tau, n, rows):
            taus.append(tau)
            return real(lam, tau, n, rows)

        monkeypatch.setattr(spectrum, "_residual_into", recording)
        return taus

    @pytest.mark.parametrize("lam, p, n", [(1.0, 10, 4), (3.5, 50, 49), (0.2, 6, 1), (2.0, 1000, 1)])
    def test_flat_spectrum_takes_one_pass(self, lam, p, n):
        stats = solve_tau(np.full(p, lam), n)
        assert stats.iterations == 1

    def test_converging_newton_evaluates_no_end(self, monkeypatch):
        lam = power_law_spectrum(2_000, 2.0)
        taus = self._record_passes(monkeypatch)
        stats = solve_tau(lam, 100)
        lo, hi = float(lam[-1]) * spectrum._EPS, float(lam[0]) * lam.size / 100
        assert lo not in taus and hi not in taus
        assert len(taus) == stats.iterations

    def test_bisection_certifies_the_analytic_end(self, monkeypatch):
        # a plateau between two levels: Newton creeps from the tail's flat
        # root until the step safeguard bisects toward the analytic right end
        lam = np.array([1.0] * 50 + [1e-300] * 50)
        taus = self._record_passes(monkeypatch)
        stats = solve_tau(lam, 50)
        hi = float(lam[0]) * lam.size / 50
        assert hi in taus
        assert len(taus) == stats.iterations
        assert abs(stats.residual) <= TAU_ATOL + TAU_RTOL * 50

    def test_wrong_sign_end_raises(self, monkeypatch):
        lam = np.array([1.0] * 50 + [1e-300] * 50)
        hi = float(lam[0]) * lam.size / 50
        real = spectrum._residual_into

        def wrong_at_hi(lam, tau, n, rows):
            residual, sum_sq = real(lam, tau, n, rows)
            return (abs(residual) if tau == hi else residual), sum_sq

        monkeypatch.setattr(spectrum, "_residual_into", wrong_at_hi)
        with pytest.raises(NonConvergenceError, match="bracket certification failed"):
            solve_tau(lam, 50)

    def test_start_outside_bracket_bisects(self, monkeypatch):
        # the flat root of a one-denormal tail underflows to 0 = lo
        lam = np.array([1.0, 1.0, math.ulp(0.0)])
        taus = self._record_passes(monkeypatch)
        stats = solve_tau(lam, 2)
        lo, hi = float(lam[-1]) * spectrum._EPS, float(lam[0]) * lam.size / 2
        assert taus[:2] == [lo, hi]
        assert len(taus) == stats.iterations


# Spectra of any size p the coarse start must serve: decays, a plateau and noise.
LARGE_SPECTRA = {
    **{
        f"power-{alpha}": lambda p, a=alpha: power_law_spectrum(p, a)
        for alpha in (1.05, 1.5, 2.0, 3.0, 6.0)
    },
    "exponential": lambda p: np.exp(np.linspace(0.0, -20.0, p)),
    "two-level": lambda p: np.concatenate([np.ones(p // 2), np.full(p - p // 2, 1e-3)]),
    "random": lambda p: np.sort(np.random.default_rng(3).uniform(1e-3, 1.0, p))[::-1].copy(),
}


class TestCoarseStart:
    """Large solves start from the root of a coarse model and still certify their own residual."""

    P = 1_000_000

    @staticmethod
    def _flat_start(monkeypatch, p):
        monkeypatch.setattr(spectrum, "_COARSE_MIN_P", p + 1)

    @pytest.fixture(scope="class", params=list(LARGE_SPECTRA))
    def large(self, request):
        return LARGE_SPECTRA[request.param](self.P)

    @pytest.mark.parametrize("n", [100, 10_000, 400_000])
    def test_takes_no_more_passes_than_the_flat_start(self, monkeypatch, large, n):
        coarse = solve_tau(large, n)
        self._flat_start(monkeypatch, large.size)
        flat = solve_tau(large, n)
        assert coarse.iterations <= flat.iterations
        assert abs(coarse.residual) <= TAU_ATOL + TAU_RTOL * n
        assert coarse.residual == fixed_point_residual(large, coarse.tau, n)

    def test_benchmark_sweep_takes_two_passes_a_point(self):
        # the theory-large-p sweep points: scaling-slope at alpha 2, then
        # mask-count at alpha 1.5 and 3 (46 passes from the flat start)
        points = [(2.0, n) for n in (1000, 2000, 4000, 8000, 16000, 32000)]
        points += [(alpha, n) for alpha in (1.5, 3.0) for n in (1000, 10_000, 100_000)]
        spectra = {alpha: power_law_spectrum(self.P, alpha) for alpha in (1.5, 2.0, 3.0)}
        assert sum(solve_tau(spectra[alpha], n).iterations for alpha, n in points) <= 24

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, 1e300])  # 0 and 1e300 leave (lo, hi)
    def test_failed_coarse_root_falls_back_to_the_flat_start(self, monkeypatch, bad):
        p, n = spectrum._COARSE_MIN_P, 1_000
        lam = power_law_spectrum(p, 2.0)
        monkeypatch.setattr(spectrum, "_coarse_root", lambda *_: bad)
        fallback = solve_tau(lam, n)
        self._flat_start(monkeypatch, p)
        flat = solve_tau(lam, n)
        assert (fallback.tau, fallback.iterations, fallback.residual) == (
            flat.tau,
            flat.iterations,
            flat.residual,
        )
        assert abs(fallback.residual) <= TAU_ATOL + TAU_RTOL * n

    def test_coarse_solve_that_cannot_certify_gives_nan(self, monkeypatch):
        p, n = spectrum._COARSE_MIN_P, 1_000
        lam = power_law_spectrum(p, 2.0)
        lo, hi = float(lam[-1]) * spectrum._EPS, float(lam[0]) * p / n
        assert lo < spectrum._coarse_root(lam, n, lo, hi) < hi
        monkeypatch.setattr(spectrum, "TAU_MAX_ITER", 1)
        assert math.isnan(spectrum._coarse_root(lam, n, lo, hi))


class TestMemory:
    """At p = 1e6 a solve and a designer call hold at most one p-length array.

    The oracles' own pins are tests/test_column_tree.py::TestStreamedMemory.
    """

    P = 1_000_000

    @pytest.fixture(scope="class")
    def problem(self):
        lam = power_law_spectrum(self.P, 2.0)
        beta = power_law_signal(self.P, 2.0, 1.5)
        return lam, beta, solve_tau(lam, 1_000)

    def _peak_bytes(self, call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # The p-length formulas run in blocks of columns, so the calls below hold
    # at most their one (k, p) scratch or their p-length result.
    ARRAY = 8 * P  # bytes of one float64 array of length p

    def test_optimal_surrogate_holds_one_array(self, problem):
        _, beta, stats = problem
        assert self._peak_bytes(lambda: optimal_surrogate(stats, beta)) <= self.ARRAY + 2**20

    def test_optimal_mask_holds_a_quarter_array(self, problem):
        # at n = 1000 the mask keeps about a thousand indices, whose list,
        # ints and set fit in the 1 MiB
        _, _, stats = problem
        assert len(optimal_mask(stats)) < 2_000
        assert self._peak_bytes(lambda: optimal_mask(stats)) <= self.ARRAY // 4 + 2**20

    # A solve streams its passes through one (2, leaf) buffer, so it holds
    # only the validation's bool mask (an eighth of an array) beyond leaf
    # buffers.
    def test_solve_tau_holds_one_array(self, problem):
        lam, _, _ = problem
        assert self._peak_bytes(lambda: solve_tau(lam, 1_000)) <= self.ARRAY // 8 + 2**20

    def test_fixed_point_residual_holds_its_validation_mask(self, problem):
        lam, _, stats = problem
        peak = self._peak_bytes(lambda: fixed_point_residual(lam, stats.tau, 1_000))
        assert peak <= self.ARRAY // 8 + 2**20

    def test_mask_count_holds_two_arrays(self):
        # one alpha's spectrum: the last one is released before the next is built
        p = 200_000
        cfg = build_config("mask-count", {"p": p, "alpha": (1.5, 3.0), "n": (1000, 10000)})
        assert self._peak_bytes(lambda: run_mask_count(cfg)) <= 8 * p + 2**20


class TestSpectralStats:
    def test_shrinkage_complement(self):
        lam = power_law_spectrum(30, 1.5)
        stats = solve_tau(lam, 10)
        assert np.allclose(stats.zeta + stats.one_minus_zeta(), 1.0, atol=1e-14)
        assert stats.p == 30
        assert stats.n == 10

    def test_is_frozen(self):
        stats = solve_tau(np.array([1.0, 0.25]), 1)
        assert isinstance(stats, SpectralStats)
        with pytest.raises(Exception):
            stats.tau = 0.0

    def test_stored_arrays_are_read_only(self):
        stats = solve_tau(power_law_spectrum(30, 1.5), 10)
        for array in (stats.zeta, stats.one_minus_zeta()):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.5

    def test_hold_no_array_but_the_spectrum(self):
        lam = power_law_spectrum(1_000, 2.0)
        stats = solve_tau(lam, 100)
        arrays = {
            f.name
            for f in dataclasses.fields(stats)
            if isinstance(getattr(stats, f.name), np.ndarray)
        }
        assert arrays == {"eigenvalues"}
        assert stats.eigenvalues is lam

    @pytest.mark.parametrize("solved", [True, False], ids=["solve_tau", "constructed"])
    def test_shrinkage_is_computed_bit_for_bit_on_each_read(self, solved):
        lam = power_law_spectrum(500, 1.5)
        if solved:
            stats = solve_tau(lam, 100)
        else:
            stats = SpectralStats(
                tau=0.01, omega=0.5, n=100, eigenvalues=lam, iterations=0, residual=0.0
            )
        tau = stats.tau
        pairs = ((stats.zeta, tau / (lam + tau)), (stats.one_minus_zeta(), lam / (lam + tau)))
        for array, expected in pairs:
            assert np.array_equal(array, expected)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[-1] = 0.5
        assert stats.zeta is not stats.zeta


class TestAsSpectrumMessages:
    """The one-pass check accepts what the separate checks accept, and every
    refused spectrum raises the message the separate checks give."""

    FINITE = "spectrum entries must be finite and > 0"
    SORTED = "spectrum must be sorted non-increasing"

    @pytest.mark.parametrize(
        "values, message",
        [
            ([math.nan, 2.0, 1.0], FINITE),
            ([3.0, math.nan, 1.0], FINITE),
            ([3.0, 2.0, math.nan], FINITE),
            ([math.inf, 2.0, 1.0], FINITE),
            ([3.0, 2.0, 0.0], FINITE),
            ([3.0, 2.0, -1.0], FINITE),
            ([math.nan], FINITE),
            ([0.0], FINITE),
            ([1.0, 2.0, 0.5], SORTED),
            ([3.0, 1.0, 2.0], SORTED),
            ([1.0, 2.0, math.nan, 0.5], FINITE),
            ([2.0, math.nan, 3.0, 0.5], FINITE),
        ],
    )
    def test_bad_spectrum_raises_its_message(self, values, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            as_spectrum(values)

    @pytest.mark.parametrize(
        "values", [[1.0], [5e-324], [2.0, 2.0, 1.0], [1e308, 1.0, 5e-324], [3.0, 1.0, 1.0]]
    )
    def test_good_spectrum_passes(self, values):
        lam = as_spectrum(values)
        assert np.array_equal(lam, np.asarray(values))


class TestBuilders:
    def test_power_law_spectrum_values(self):
        lam = power_law_spectrum(5, 2.0)
        assert lam == pytest.approx([1.0, 0.25, 1.0 / 9.0, 0.0625, 0.04])

    def test_power_law_spectrum_rejects_small_alpha(self):
        with pytest.raises(ValueError):
            power_law_spectrum(10, 1.0)
        with pytest.raises(ValueError):
            power_law_spectrum(0, 2.0)

    def test_builders_reject_non_integral_p(self):
        with pytest.raises(ValueError, match=r"^p must be an integer, got 2.5$"):
            power_law_spectrum(2.5, 2.0)
        with pytest.raises(ValueError, match=r"^p must be an integer, got 2.5$"):
            power_law_signal(2.5, 2.0, 1.5)

    def test_power_law_spectrum_refuses_an_underflowing_tail(self):
        with pytest.raises(ValueError, match=r"^alpha=70.0 is too large for p=100000: "):
            power_law_spectrum(100_000, 70.0)
        with pytest.raises(ValueError, match=r"^alpha=1080.0 is too large for p=2: "):
            power_law_spectrum(2, 1080.0)
        assert power_law_spectrum(2, 1070.0)[-1] > 0.0  # a denormal tail is kept

    def test_signal_matches_spectral_profile(self):
        """The signal is built so lambda_i * beta_i^2 = i^(-beta_exp)."""
        p, alpha, beta_exp = 40, 1.6, 2.3
        lam = power_law_spectrum(p, alpha)
        beta = power_law_signal(p, alpha, beta_exp)
        idx = np.arange(1, p + 1, dtype=np.float64)
        assert lam * beta**2 == pytest.approx(idx**-beta_exp, rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.01, 1.5, 2.0, 3.0, 4.5])
    def test_power_law_spectrum_is_the_plain_power(self, alpha):
        idx = np.arange(1, 10_001, dtype=np.float64)
        assert np.array_equal(power_law_spectrum(10_000, alpha), idx ** (-alpha))

    @pytest.mark.parametrize(
        "alpha, beta_exp", [(2.0, 1.5), (1.5, 2.5), (3.0, 1.0 + 1e-9), (2.0, 4.0), (3.0, 2.0)]
    )
    def test_power_law_signal_is_the_plain_power(self, alpha, beta_exp):
        idx = np.arange(1, 10_001, dtype=np.float64)
        expected = idx ** (0.5 * (alpha - beta_exp))
        assert np.array_equal(power_law_signal(10_000, alpha, beta_exp), expected)

    def test_as_spectrum_normalizes(self):
        lam = as_spectrum([2.0, 1.0, 0.5])
        assert lam.dtype == np.float64
        assert lam.shape == (3,)


# Every power-law exponent check, by function and argument: the other
# arguments are valid, so only the named exponent can be refused.
_EXPONENTS = {
    ("power_law_spectrum", "alpha"): lambda a: power_law_spectrum(10, a),
    ("power_law_signal", "alpha"): lambda a: power_law_signal(10, a, 1.5),
    ("power_law_signal", "beta_exp"): lambda b: power_law_signal(10, 2.0, b),
    ("tau_asymptotic", "alpha"): lambda a: tau_asymptotic(a, 10),
    ("omega_asymptotic", "alpha"): omega_asymptotic,
    ("tau_bounds_nonasymptotic", "alpha"): lambda a: tau_bounds_nonasymptotic(a, 1000, 100),
    ("omega_lower_bound", "alpha"): lambda a: omega_lower_bound(a, 1000, 400),
    ("cutoff_indices", "alpha"): lambda a: cutoff_indices(a, 10),
    ("scaling_exponent", "alpha"): lambda a: scaling_exponent(a, 1.5),
    ("scaling_exponent", "beta_exp"): lambda b: scaling_exponent(2.0, b),
}


class TestExponentCheck:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1.0, 0.5])
    @pytest.mark.parametrize("case", _EXPONENTS, ids="-".join)
    def test_exponent_must_be_finite_and_above_one(self, case, bad):
        _, name = case
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 1, got {bad}$"):
            _EXPONENTS[case](bad)


class TestAsymptotics:
    def test_tau_asymptotic_alpha_two(self):
        # c = (pi / (alpha sin(pi/alpha)))^alpha is (pi/2)^2 at alpha = 2
        assert tau_asymptotic(2.0, 10) == pytest.approx((math.pi / 2.0) ** 2 / 100.0, rel=1e-12)

    def test_omega_asymptotic(self):
        assert omega_asymptotic(2.0) == pytest.approx(0.5)
        assert omega_asymptotic(5.0) == pytest.approx(0.8)
        with pytest.raises(ValueError):
            omega_asymptotic(1.0)


class TestFiniteSampleBounds:
    def test_tau_bounds_contain_solver_root(self):
        alpha, p, n = 2.0, 1000, 100
        lower, upper = tau_bounds_nonasymptotic(alpha, p, n)
        tau = solve_tau(power_law_spectrum(p, alpha), n).tau
        assert lower <= tau <= upper
        assert lower > 0.0

    def test_tau_bounds_hypothesis_guard(self):
        # k(2) = 3.25 / 5 = 0.65, so n = 99 with p = 100 is out of range
        with pytest.raises(HypothesisViolatedError):
            tau_bounds_nonasymptotic(2.0, 100, 99)

    def test_omega_lower_bound_value(self):
        bound = omega_lower_bound(5.0, 1000, 400)
        assert bound == pytest.approx(0.79332, abs=5e-5)
        exact = solve_tau(power_law_spectrum(1000, 5.0), 400).omega
        assert bound <= exact

    def test_omega_lower_bound_window_guard(self):
        with pytest.raises(HypothesisViolatedError):
            omega_lower_bound(5.0, 1000, 100)
        with pytest.raises(HypothesisViolatedError):
            omega_lower_bound(5.0, 1000, 900)

    def test_omega_window_low_edge_is_exact(self):
        # alpha*(p+alpha)/(alpha-1)^2 is exactly 37 here, while its float
        # evaluation rounds to 36.99999999999999, which would admit n = 37
        with pytest.raises(HypothesisViolatedError):
            omega_lower_bound(9.25, 263, 37)
        assert omega_lower_bound(9.25, 263, 38) > 0.0
