"""Tests for surrogate designers, mask selection, and the asymptotic predictors."""

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from w2s_lab import design, theory
from w2s_lab import (
    benign_region_check,
    brute_force_mask,
    cutoff_indices,
    gain_profile,
    gamma_t_sq,
    mask_size,
    masked_surrogate,
    omniscient_risk,
    one_stage_risk,
    optimal_mask,
    optimal_surrogate,
    power_law_signal,
    power_law_spectrum,
    scaling_exponent,
    solve_tau,
)
from w2s_lab.spectrum import SpectralStats, _tolerance


def _stats_at(lam, n, tau):
    """SpectralStats of (lam, n) built from the closed forms at a chosen tau."""
    one_minus = lam / (lam + tau)
    return SpectralStats(
        tau=tau,
        omega=float(np.sum(one_minus[::-1] ** 2)) / n,
        n=n,
        eigenvalues=lam,
        iterations=0,
        residual=float(np.sum(one_minus[::-1])) - n,
    )


_LAM30 = power_law_spectrum(30, 2.0)
_BETA30 = power_law_signal(30, 2.0, 1.5)
# Each oracle that reads the fixed point, as a function of its stats alone.
_ORACLES = {
    "gain_profile": gain_profile,
    "gamma_t_sq": lambda st: gamma_t_sq(st, _BETA30, 0.1),
    "mask_size": mask_size,
    "omniscient_risk": lambda st: omniscient_risk(st, _BETA30, 0.1).total,
    "one_stage_risk": lambda st: one_stage_risk(st, _BETA30, 0.5 * _BETA30, 0.1).total,
    "optimal_mask": lambda st: sorted(optimal_mask(st)),
    "optimal_surrogate": lambda st: optimal_surrogate(st, _BETA30),
}


class TestStatsGivenSkipValidation:
    """Stats are an oracle's only spectrum input: solve_tau's are trusted, others checked."""

    @pytest.mark.parametrize("name", sorted(_ORACLES))
    def test_equal_copy_gives_identical_result(self, name):
        # hand-built stats at solve_tau's tau are an equal copy of its fixed point
        oracle = _ORACLES[name]
        solved = solve_tau(_LAM30, 8)
        hand_built = _stats_at(_LAM30.copy(), 8, solved.tau)
        assert np.array_equal(oracle(hand_built), oracle(solved))

    @pytest.mark.parametrize("name", sorted(_ORACLES))
    def test_different_or_invalid_spectrum_raises(self, name):
        oracle = _ORACLES[name]
        for not_stats in (_LAM30, _LAM30.tolist(), None):  # an old-style spectrum argument
            with pytest.raises(TypeError):
                oracle(not_stats)
        with pytest.raises(ValueError):  # hand-built over a spectrum that is not 1-D
            oracle(_stats_at(_LAM30[None, :], 8, 0.01))

    @pytest.mark.parametrize("name", sorted(_ORACLES))
    def test_hand_built_stats_do_not_vouch_for_their_spectrum(self, name):
        oracle = _ORACLES[name]
        with_nan = _LAM30.copy()
        with_nan[-1] = np.nan
        for spectrum in (with_nan, _LAM30[::-1].copy()):
            with pytest.raises(ValueError):
                oracle(_stats_at(spectrum, 8, 0.01))
            with pytest.raises(ValueError):  # a solved fixed point's copy over another spectrum
                oracle(replace(solve_tau(_LAM30, 8), eigenvalues=spectrum))

    @pytest.mark.parametrize("omega", [0.0, 1.0])
    @pytest.mark.parametrize("name", sorted(_ORACLES))
    def test_omega_outside_the_open_unit_interval_is_refused(self, name, omega):
        stats = replace(_stats_at(_LAM30, 8, 0.01), omega=omega)
        refusal = rf"^internal inconsistency: Omega={omega} outside \(0, 1\)$"
        with pytest.raises(RuntimeError, match=refusal):
            _ORACLES[name](stats)


class TestDesignersReturnArrays:
    def test_float64_vectors_of_length_p(self):
        stats = solve_tau(_LAM30, 8)
        integer_beta = np.arange(30)  # an integer signal still gives float64 vectors
        for values in (
            gain_profile(stats),
            optimal_surrogate(stats, integer_beta),
            masked_surrogate(integer_beta, optimal_mask(stats)),
        ):
            assert type(values) is np.ndarray
            assert values.dtype == np.float64
            assert values.shape == (30,)


class TestOptimalSurrogate:
    def test_hand_worked_two_point_instance(self):
        """Eigenvalues (1, 1/4), n=1, beta = (1, 1): gains are 8/7 and 1/2."""
        values = optimal_surrogate(solve_tau(np.array([1.0, 0.25]), 1), np.ones(2))
        assert values[0] == pytest.approx(8.0 / 7.0, abs=1e-9)
        assert values[1] == pytest.approx(0.5, abs=1e-9)

    def test_isotropic_gains_are_unity(self):
        # flat spectrum: amplification and shrinkage cancel coordinate by coordinate
        beta = np.arange(1.0, 7.0)
        values = optimal_surrogate(solve_tau(np.full(6, 2.0), 2), beta)
        assert values == pytest.approx(beta, rel=1e-9)

    def test_never_beaten_by_nearby_surrogates(self):
        rng = np.random.default_rng(42)
        lam = power_law_spectrum(20, 1.8)
        beta = power_law_signal(20, 1.8, 2.1)
        stats = solve_tau(lam, 7)
        opt = optimal_surrogate(stats, beta)
        best = one_stage_risk(stats, beta, opt, 0.0).total
        for _ in range(20):
            jitter = opt + 0.01 * rng.normal(size=20)
            assert one_stage_risk(stats, beta, jitter, 0.0).total >= best - 1e-12


class TestGainProfile:
    def test_amplification_set_matches_threshold(self):
        """gain_i > 1 exactly when zeta_i falls below 1 - Omega."""
        lam = power_law_spectrum(60, 1.6)
        stats = solve_tau(lam, 20)
        gains = gain_profile(stats)
        assert np.array_equal(gains > 1.0, stats.zeta < 1.0 - stats.omega)

    def test_single_crossing_on_power_law(self):
        gains = gain_profile(solve_tau(power_law_spectrum(80, 2.5), 25))
        signs = np.sign(gains - 1.0)
        flips = np.count_nonzero(np.diff(signs[signs != 0.0]))
        assert flips == 1
        assert gains[0] > 1.0
        assert gains[-1] < 1.0


class TestMasks:
    def test_threshold_tie_is_excluded(self):
        # at (1, 1/4), n=1 the second coordinate sits exactly on the boundary
        # zeta^2 = 1 - Omega = 4/9, and the strict rule drops it
        assert optimal_mask(solve_tau(np.array([1.0, 0.25]), 1)) == frozenset({0})

    @pytest.mark.parametrize("second", [0.25, 0.25 * (1.0 + 1e-11)])
    def test_mask_is_stable_across_the_certified_band(self, second):
        # the exact tie, and a near tie that the strict rule at the exact tau
        # would keep: every tau the certificate allows gives the same mask
        lam = np.array([1.0, second])
        base = solve_tau(lam, 1)
        rel = _tolerance(1) / (1.0 - base.omega)
        masks = {
            optimal_mask(_stats_at(lam, 1, base.tau * (1.0 + k * rel)))
            for k in (-1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0)
        }
        assert masks == {frozenset({0})}

    def test_clear_margin_instance(self):
        assert optimal_mask(solve_tau(np.array([1.0, 0.2]), 1)) == frozenset({0})

    def test_isotropic_mask_keeps_everything(self):
        assert optimal_mask(solve_tau(np.full(6, 2.0), 2)) == frozenset(range(6))

    def test_mask_holds_python_ints(self):
        mask = optimal_mask(solve_tau(power_law_spectrum(200, 2.0), 50))
        assert mask and all(type(i) is int for i in mask)

    def test_brute_force_agrees_with_threshold_rule(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            p = int(rng.integers(3, 11))
            n = int(rng.integers(1, p))
            lam = np.sort(rng.uniform(0.05, 3.0, size=p))[::-1]
            beta = rng.normal(size=p)
            sigma_sq = float(rng.choice([0.0, 1.0]))
            assert brute_force_mask(lam, beta, n, sigma_sq) == optimal_mask(solve_tau(lam, n))

    def test_brute_force_refuses_large_p(self):
        lam = power_law_spectrum(21, 2.0)
        with pytest.raises(ValueError):
            brute_force_mask(lam, np.ones(21), 5, 0.1)

    def test_masked_surrogate_values(self):
        values = masked_surrogate(np.array([3.0, -2.0, 5.0]), {0, 2})
        assert values == pytest.approx([3.0, 0.0, 5.0])
        numpy_indices = masked_surrogate(np.array([3.0, -2.0, 5.0]), np.array([2, 0]))
        assert np.array_equal(numpy_indices, values)
        empty = masked_surrogate(np.array([3.0, -2.0, 5.0]), frozenset())
        assert empty == pytest.approx([0.0, 0.0, 0.0])

    def test_masked_surrogate_rejects_bad_support(self):
        for bad in (3, 5, -1):
            with pytest.raises(IndexError):
                masked_surrogate(np.ones(3), {bad})

    @pytest.mark.parametrize(
        "support", [[1.9, 3.2], [True, False, True], np.array([True, False, True])]
    )
    def test_masked_surrogate_refuses_non_index_entries(self, support):
        with pytest.raises(ValueError, match=r"^support entries must be integer indices"):
            masked_surrogate(np.array([1.0, 2.0, 3.0, 4.0]), support)


def _criterion_04_instances():
    """The 50 instances of acceptance criterion 04, drawn the same way."""
    rng = np.random.default_rng(20260822)
    for _ in range(50):
        p = 12
        n = int(rng.integers(3, 10))
        lam = np.sort(rng.uniform(0.05, 3.0, size=p))[::-1]
        beta_star = rng.normal(size=p)
        sigma_sq = float(rng.choice([0.0, 1.0]))
        yield lam, beta_star, n, sigma_sq


def _power_law_instances():
    """The p = 14 power-law instances of the mask search benchmark."""
    lam = power_law_spectrum(14, 2.0)
    beta_star = power_law_signal(14, 2.0, 1.5)
    return [(lam, beta_star, n, 0.05) for n in (3, 5, 7)]


def _python_min_support(lam, beta_star, n, sigma_sq):
    """Brute-force winner by a Python min over (total, size, tuple) keys.

    The totals come from one kernel call over every support; the tie-break is
    Python's tuple order, independent of the search's blocks and tie rule.
    """
    p = lam.size
    st = solve_tau(lam, n)
    combos = [c for size in range(p + 1) for c in itertools.combinations(range(p), size)]
    keep = np.zeros((len(combos), p), dtype=bool)
    for row, combo in enumerate(combos):
        keep[row, list(combo)] = True
    bias, variance = design._one_stage_terms(
        st, beta_star, np.where(keep, beta_star, 0.0), sigma_sq
    )
    total = bias + variance
    key = min((float(total[r]), len(c), c) for r, c in enumerate(combos))
    return frozenset(key[2])


def _rank(support, p):
    return sum(2 ** (p - 1 - i) for i in support)


class TestBatchedSearch:
    @pytest.mark.parametrize(
        "instances",
        [_criterion_04_instances, _power_law_instances],
        ids=["criterion-04", "power-law-p14"],
    )
    def test_kernel_rows_bit_identical_to_one_stage_risk(self, instances):
        """Every support, every row: stacked bias, variance, total == the scalar oracle."""
        for lam, beta_star, n, sigma_sq in instances():
            st = solve_tau(lam, n)
            for _, _, stack in design._support_blocks(beta_star):
                bias, variance = theory._one_stage_terms(st, beta_star, stack, sigma_sq)
                total = bias + variance
                for row, values in enumerate(stack):
                    ref = one_stage_risk(st, beta_star, values, sigma_sq)
                    assert ref.bias == bias[row]
                    assert ref.variance == variance[row]
                    assert ref.total == total[row]

    def test_negative_zero_stacks_score_as_masked_surrogates(self):
        """A dropped negative entry is -0.0 in the stack; every score keeps its bits."""
        lam = power_law_spectrum(10, 2.0)
        beta_star = power_law_signal(10, 2.0, 1.5)
        beta_star[[1, 4, 8]] *= -1.0
        beta_star[[2, 6]] = 0.0
        beta_star[9] = -0.0
        n, sigma_sq = 4, 0.3
        st = solve_tau(lam, n)
        rows, negative_zeros = 0, 0
        for _, keep, stack in design._support_blocks(beta_star):
            masked = np.stack([masked_surrogate(beta_star, np.flatnonzero(k)) for k in keep])
            assert np.array_equal(stack, masked)
            bias, variance = theory._one_stage_terms(st, beta_star, stack, sigma_sq)
            ref_bias, ref_variance = theory._one_stage_terms(st, beta_star, masked, sigma_sq)
            assert bias.tobytes() == ref_bias.tobytes()
            assert variance.tobytes() == ref_variance.tobytes()
            assert (bias + variance).tobytes() == (ref_bias + ref_variance).tobytes()
            rows += len(stack)
            negative_zeros += np.count_nonzero(np.signbit(stack) & (stack == 0.0))
        assert rows == 2**10
        assert negative_zeros > 0  # masked_surrogate writes +0.0 where the stack has -0.0
        mask = brute_force_mask(lam, beta_star, n, sigma_sq)
        assert mask == _python_min_support(lam, beta_star, n, sigma_sq)

    def test_zero_signal_ties_pick_the_smaller_support(self):
        # a zero entry of beta_star gives the same surrogate kept or dropped,
        # so the two totals tie exactly and the coordinate must be dropped
        lam = power_law_spectrum(10, 2.0)
        beta_star = power_law_signal(10, 2.0, 1.5)
        beta_star[[0, 2]] = 0.0
        mask = brute_force_mask(lam, beta_star, 4, 0.1)
        assert mask == optimal_mask(solve_tau(lam, 4)) - {0, 2}
        assert mask == _python_min_support(lam, beta_star, 4, 0.1)

    def test_zero_signal_picks_the_empty_support(self):
        lam = power_law_spectrum(12, 2.0)
        assert brute_force_mask(lam, np.zeros(12), 5, 0.1) == frozenset()

    @pytest.mark.parametrize("score", ["size-three", "rounded"])
    def test_equal_size_ties_pick_the_smallest_tuple(self, monkeypatch, score):
        """Planted ties among equal-size supports, in blocks after the first."""
        real = theory._one_stage_terms

        def planted(stats, beta_star, surrogates, sigma_sq):
            bias, variance = real(stats, beta_star, surrogates, sigma_sq)
            if score == "size-three":  # every 3-support ties at 0
                tied = (np.count_nonzero(surrogates, axis=1) - 3.0) ** 2
            else:  # one decimal of the true total: ties of many sizes
                tied = np.round(bias + variance, 1)
            return tied, np.zeros_like(tied)

        monkeypatch.setattr(design, "_one_stage_terms", planted)
        lam = power_law_spectrum(12, 2.0)
        beta_star = power_law_signal(12, 2.0, 1.5)
        mask = brute_force_mask(lam, beta_star, 5, 0.05)
        assert mask == _python_min_support(lam, beta_star, 5, 0.05)
        if score == "size-three":
            assert mask == frozenset({0, 1, 2})
            assert _rank(mask, 12) >= 3 * design._CHUNK_ROWS

    # Each case plants totals by candidate rank at p = 12 (four blocks of
    # 1,024): a base total, the planted (rank, total) pairs, and the winner.
    # Ranks 2**11 | 1 = 2049 and 2**10 | 1 = 1025 hold {0, 11} and {1, 11}.
    _PLANTED = {
        # inside block 2: sizes 3, 2, 2 and 4 tie, the size-2 larger rank wins
        "sizes-and-ranks-in-one-block": (
            5.0,
            {2048 | 0b111: 1.0, 2048 | 0b101: 1.0, 2048 | 0b11: 1.0, 2048 | 0b1111: 1.0},
            {0, 9, 11},
        ),
        # ranks 1023 (size 10) and 1024 (size 1) on either side of a boundary
        "sizes-at-a-block-boundary": (5.0, {1023: 1.0, 1024: 1.0}, {1}),
        # one size across three blocks: {10, 11}, {1, 11} and {0, 11}
        "ranks-across-blocks": (5.0, {3: 1.0, 1025: 1.0, 2049: 1.0}, {0, 11}),
        # one ulp apart is no tie: the smaller total wins over the smaller size
        "one-ulp-is-no-tie": (5.0, {3: 1.0, 1024: math.nextafter(1.0, 2.0)}, {10, 11}),
        "one-ulp-in-one-block": (5.0, {1027: 1.0, 1024: math.nextafter(1.0, 2.0)}, {1, 10, 11}),
        # -0.0 and +0.0 tie; the size decides inside a block and across blocks
        "signed-zeros": (5.0, {0b1111: -0.0, 0b11: 0.0, 1024 | 0b111: -0.0}, {10, 11}),
        "signed-zeros-same-size": (5.0, {1025: 0.0, 2049: -0.0, 3: -0.0}, {0, 11}),
        # every total infinite: they all tie, and the empty support is smallest
        "all-inf": (math.inf, {}, set()),
        "inf-and-one-finite": (math.inf, {4095: 1e300}, set(range(12))),
    }

    @staticmethod
    def _plant_by_rank(monkeypatch, base, planted):
        """Make the kernel score candidate r with total[r]: base, or planted[r]."""
        total = np.full(2**12, base)
        for rank, value in planted.items():
            total[rank] = value
        weights = 2 ** np.arange(11, -1, -1)

        def by_rank(stats, beta_star, surrogates, sigma_sq):
            # the variance -0.0 keeps the sign of a -0.0 total in bias + variance
            bias = total[(surrogates != 0.0) @ weights]
            return bias, np.full_like(bias, -0.0)

        monkeypatch.setattr(design, "_one_stage_terms", by_rank)

    @pytest.mark.parametrize("case", sorted(_PLANTED))
    def test_winner_rule_on_planted_totals(self, monkeypatch, case):
        """Minimum total, then the smallest size, then the smallest tuple."""
        base, planted, winner = self._PLANTED[case]
        self._plant_by_rank(monkeypatch, base, planted)
        lam = power_law_spectrum(12, 2.0)
        beta_star = power_law_signal(12, 2.0, 1.5)  # no zero entry: rank = kept bits
        mask = brute_force_mask(lam, beta_star, 5, 0.05)
        assert mask == frozenset(winner)
        assert mask == _python_min_support(lam, beta_star, 5, 0.05)

    @pytest.mark.parametrize("rank", [0, 1025, 4095])
    def test_nan_total_is_refused_by_name(self, monkeypatch, rank):
        # a NaN has no place in the (total, size, tuple) order, wherever it falls
        self._plant_by_rank(monkeypatch, 1.0, {rank: math.nan, 7: 0.5})
        lam = power_law_spectrum(12, 2.0)
        beta_star = power_law_signal(12, 2.0, 1.5)
        support = [i for i in range(12) if rank >> (11 - i) & 1]
        message = re.escape(f"the one-stage total of support {support} is NaN")
        with pytest.raises(ValueError, match=f"^{message}$"):
            brute_force_mask(lam, beta_star, 5, 0.05)

    def test_winner_outside_the_first_block(self):
        lam = power_law_spectrum(12, 2.0)
        beta_star = power_law_signal(12, 2.0, 1.5)
        assert 2**12 >= 4 * design._CHUNK_ROWS
        mask = brute_force_mask(lam, beta_star, 5, 0.05)
        assert _rank(mask, 12) >= design._CHUNK_ROWS
        assert mask == optimal_mask(solve_tau(lam, 5))
        assert mask == _python_min_support(lam, beta_star, 5, 0.05)

    def test_largest_allowed_p_matches_threshold_rule(self):
        lam = power_law_spectrum(20, 2.0)
        beta_star = power_law_signal(20, 2.0, 1.5)
        assert brute_force_mask(lam, beta_star, 8, 0.05) == optimal_mask(solve_tau(lam, 8))


class TestCutoffs:
    def test_alpha_two_values(self):
        i_gain, i_mask = cutoff_indices(2.0, 100)
        assert i_gain == pytest.approx(63.662, abs=2e-3)
        assert i_mask == pytest.approx(98.916, abs=2e-3)

    def test_mask_cutoff_above_gain_cutoff(self):
        for alpha in (1.2, 1.5, 2.0, 3.0, 6.0):
            i_gain, i_mask = cutoff_indices(alpha, 50)
            assert i_mask > i_gain > 0.0

    def test_linear_in_n(self):
        i_gain_1, _ = cutoff_indices(1.8, 10)
        i_gain_2, _ = cutoff_indices(1.8, 30)
        assert i_gain_2 == pytest.approx(3.0 * i_gain_1, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            cutoff_indices(1.0, 10)
        with pytest.raises(ValueError):
            cutoff_indices(2.0, 0)


class TestScalingExponent:
    def test_signal_limited_regime(self):
        assert scaling_exponent(2.0, 1.5) == pytest.approx(0.5)

    def test_approximation_limited_regime(self):
        # beta_exp = 4 exceeds 2 * 1.2 + 1, so the spectrum caps the rate
        assert scaling_exponent(1.2, 4.0) == pytest.approx(2.4)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            scaling_exponent(2.0, 5.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            scaling_exponent(1.0, 2.0)
        with pytest.raises(ValueError):
            scaling_exponent(2.0, 1.0)


class TestBenignRegion:
    def test_pinned_values(self):
        assert benign_region_check(5.0, 10**4, 4563) is True
        assert benign_region_check(4.0, 10**4, 4563) is False
        assert benign_region_check(5.0, 10**4, 9000) is False

    def test_small_alpha_never_certified(self):
        for n in (100, 2000, 5000):
            assert benign_region_check(3.0, 10**4, n) is False

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_is_not_certified(self, alpha):
        assert benign_region_check(alpha, 10**4, 4563) is False
