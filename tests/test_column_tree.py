"""The column tree every p-length formula streams over, and what rides on it.

spectrum._tail_first_sum adds per-leaf sums along numpy's own pairwise tree,
so a streamed sum must equal one tail-first np.sum over the whole terms bit
for bit, at any leaf width. The oracles built on it must keep the bits of the
unstreamed formulas while holding no p-length scratch, and the optimal mask,
found by bisection over its prefix, must keep the vectorised rule's verdict.
"""

import tracemalloc

import numpy as np
import pytest

from w2s_lab import (
    ProblemInstance,
    SpectralStats,
    mask_size,
    omniscient_risk,
    one_stage_risk,
    optimal_mask,
    optimal_surrogate,
    power_law_signal,
    power_law_spectrum,
    solve_tau,
    two_stage_risk,
)
from w2s_lab import spectrum
from w2s_lab.harness.config import build_config
from w2s_lab.harness.experiments import _slope_point, run_scaling_slope
from w2s_lab.spectrum import _tail_first_sum, _tolerance

LENGTHS = [1, 7, 8, 127, 128, 129, 2**14 - 1, 2**14 + 1, 3 * 2**14 + 5, 1_000_000]
# (k, p) shapes of the terms: every length for k = 1 and 2, the short ones
# for k = 1024 (at most about two million terms a shape)
SHAPES = [(k, p) for k in (1, 2, 1024) for p in LENGTHS if k * p <= 2_100_000]


def _terms(k: int, p: int) -> np.ndarray:
    """Positive terms spread over sixty decades, so any reordering shows."""
    rng = np.random.default_rng(k * 7919 + p)
    return rng.standard_normal((k, p)) ** 2 * np.exp(rng.uniform(-70.0, 70.0, (k, p)))


def _streamed(terms: np.ndarray) -> np.ndarray:
    p = terms.shape[-1]
    return _tail_first_sum(p, lambda cols: np.sum(terms[..., cols][..., ::-1], axis=-1))


class TestTailFirstSum:
    @pytest.mark.parametrize("width", [None, 128, 1000], ids=["default", "w128", "w1000"])
    @pytest.mark.parametrize("k,p", SHAPES)
    def test_equals_one_whole_sum(self, monkeypatch, width, k, p):
        if width is not None:
            monkeypatch.setattr(spectrum, "_CHUNK_COLUMNS", width)
        terms = _terms(k, p)
        assert np.array_equal(_streamed(terms), np.sum(terms[..., ::-1], axis=-1))

    @pytest.mark.parametrize("width", [1000, 2**14])
    def test_one_dimensional_terms(self, monkeypatch, width):
        monkeypatch.setattr(spectrum, "_CHUNK_COLUMNS", width)
        terms = _terms(1, 3 * 2**14 + 5)[0]
        assert _streamed(terms) == np.sum(terms[::-1])

    @pytest.mark.parametrize("width", [128, 1000, 2**14, 2**20])
    @pytest.mark.parametrize("p", [1, 129, 100_003, 1_000_000])
    def test_leaves_cover_the_columns_tail_first(self, monkeypatch, width, p):
        monkeypatch.setattr(spectrum, "_CHUNK_COLUMNS", width)
        leaves = _tail_first_sum(p, lambda cols: [cols])  # the slices in the order summed
        assert leaves[0].stop == p and leaves[-1].start == 0
        for before, after in zip(leaves, leaves[1:]):
            assert after.stop == before.start
        assert max(c.stop - c.start for c in leaves) <= width
        assert (len(leaves) == 1) == (p <= width)

    def test_one_leaf_is_all_columns(self):
        assert _tail_first_sum(2**14, lambda cols: [cols]) == [slice(0, 2**14)]

    def test_leaf_width_is_at_least_numpys_unsplit_run(self):
        # numpy's pairwise sum adds a run of up to 128 terms without splitting
        # it: a narrower leaf would split a run numpy keeps whole, and the
        # streamed sums would lose the bits of one whole np.sum
        assert spectrum._CHUNK_COLUMNS >= 128


class TestStreamedSolve:
    """Each solver pass sums r and r^2 leaf by leaf: the solve is width-free."""

    @pytest.fixture(scope="class", params=[(1_000_000, 1.5, 10_000), (3 * 2**14 + 5, 2.0, 5_000)])
    def case(self, request):
        p, alpha, n = request.param
        return power_law_spectrum(p, alpha), n

    def test_solve_is_bit_identical_at_every_width(self, monkeypatch, case):
        lam, n = case
        solves = []
        for width in (128, 1000, 2**14, lam.size + 1):
            monkeypatch.setattr(spectrum, "_CHUNK_COLUMNS", width)
            st = solve_tau(lam, n)
            solves.append((st.tau, st.omega, st.iterations, st.residual))
        assert solves.count(solves[0]) == len(solves)

    @pytest.mark.parametrize(
        "lam, n",
        [
            (np.array([1.0, 0.25]), 1),
            (np.concatenate([np.ones(50), np.full(50, 1e-300)]), 50),
            (power_law_spectrum(3 * 2**14 + 5, 1.5), 700),
            (power_law_spectrum(1_000_000, 3.0), 100_000),
        ],
        ids=["tie", "plateau", "three-leaves", "1e6"],
    )
    def test_omega_is_the_tail_first_sum_of_squares(self, lam, n):
        st = solve_tau(lam, n)
        assert st.omega == np.sum(np.square(st.one_minus_zeta()[::-1])) / n


class TestFusedSlopePoint:
    """One streamed pass gives both slope totals with the oracles' bits."""

    P = 1_000_000

    @pytest.fixture(scope="class")
    def problem(self):
        lam = power_law_spectrum(self.P, 2.0)
        beta = power_law_signal(self.P, 2.0, 1.5)
        st = solve_tau(lam, 4_000)
        expected = (
            omniscient_risk(st, beta, 0.05).total,
            one_stage_risk(st, beta, optimal_surrogate(st, beta), 0.05).total,
        )
        return lam, beta, expected

    @pytest.mark.parametrize("width", [128, 1000, P + 1])
    def test_matches_the_oracles(self, monkeypatch, problem, width):
        lam, beta, expected = problem
        monkeypatch.setattr(spectrum, "_CHUNK_COLUMNS", width)
        assert _slope_point(lam, beta, 4_000, 0.05) == expected


class TestStreamedMemory:
    """The streamed oracles hold leaf-sized buffers, never a p-length scratch."""

    ARRAY = 8 * 1_000_000  # bytes of one float64 array of length 1e6

    @pytest.fixture(scope="class")
    def problem(self):
        lam = power_law_spectrum(1_000_000, 2.0)
        beta = power_law_signal(1_000_000, 2.0, 1.5)
        return lam, beta, solve_tau(lam, 1_000)

    def _peak_bytes(self, call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_one_stage_risk_holds_under_a_mib(self, problem):
        lam, beta, stats = problem
        surrogate = 0.9 * beta
        assert self._peak_bytes(lambda: one_stage_risk(stats, beta, surrogate, 0.05)) <= 2**20

    def test_two_stage_risk_holds_only_its_solves(self, problem):
        # each solve holds its spectrum check's bool mask, an eighth of an array
        lam, beta, _ = problem
        inst = ProblemInstance(lam, lam, beta, 0.05, 0.1, 1_000, 2_000)
        assert self._peak_bytes(lambda: two_stage_risk(inst)) <= self.ARRAY // 4 + 2**20

    def test_scaling_slope_holds_two_arrays(self):
        # spectrum and signal: a solve holds no p-length work buffer
        p = 200_000
        cfg = build_config(
            "scaling-slope",
            {"p": p, "n": (1000, 2000, 4000, 8000), "kinds": ("ground-truth", "optimal")},
        )
        assert self._peak_bytes(lambda: run_scaling_slope(cfg)) <= 2 * 8 * p + 2**20


def _vectorised_keep(stats: SpectralStats) -> np.ndarray:
    """The keep rule as one array expression: the reference for the bisection."""
    rel = _tolerance(stats.n) / (stats.n * (1.0 - stats.omega))
    threshold = ((1.0 - stats.omega) - 2.0 * stats.omega * rel) / (1.0 + 2.0 * rel)
    return stats.zeta**2 < threshold


def _stats_around(lam: np.ndarray, n: int):
    """The solved stats, and stats at taus across and beyond the certified band."""
    base = solve_tau(lam, n)
    yield base
    rel = _tolerance(n) / (n * (1.0 - base.omega))
    for shift in (-3.0, -1.0, -0.5, -1e-3, 1e-3, 0.5, 1.0, 3.0):
        tau = base.tau * (1.0 + shift * rel)
        yield SpectralStats(tau, base.omega, n, lam, base.iterations, base.residual)
    for ulps in (-2, -1, 1, 2):
        tau = base.tau
        for _ in range(abs(ulps)):
            tau = np.nextafter(tau, np.inf if ulps > 0 else 0.0)
        yield SpectralStats(float(tau), base.omega, n, lam, base.iterations, base.residual)


def _mask_spectra():
    rng = np.random.default_rng(21)
    yield np.array([1.0, 0.25]), 1  # the exact tie: zeta^2 = 1 - Omega
    yield np.array([1.0, 0.25 * (1.0 + 1e-11)]), 1  # a near tie inside the band
    yield np.repeat([1.0, 0.25], 10), 10  # the exact tie on a plateau of ten
    for n in (50, 60, 75):  # a wide plateau (n = 50 fills the top level exactly)
        yield np.concatenate([np.ones(50), np.full(50, 1e-3)]), n
    yield np.concatenate([np.ones(50), np.full(50, 1e-300)]), 70
    yield np.concatenate([np.ones(30), np.full(40, 0.5), np.full(30, 0.25)]), 40
    yield np.full(64, 3.0), 10  # isotropic: every zeta equal
    for p, alpha, n in [(1000, 1.5, 10), (1000, 2.0, 100), (5000, 3.0, 700), (100_003, 1.5, 3000)]:
        yield power_law_spectrum(p, alpha), n
    for _ in range(20):
        # rounded values: long runs of exact ties at random levels
        lam = np.sort(np.round(rng.uniform(0.0, 1.0, 300), int(rng.integers(1, 3))) + 1e-3)[::-1]
        yield lam.copy(), int(rng.integers(1, 299))


class TestMaskBySearch:
    @pytest.mark.parametrize("case", list(range(len(list(_mask_spectra())))))
    def test_matches_the_vectorised_rule(self, case):
        lam, n = list(_mask_spectra())[case]
        for stats in _stats_around(lam, n):
            keep = _vectorised_keep(stats)
            size = int(np.count_nonzero(keep))
            assert keep[:size].all()  # the verdict is a prefix
            assert mask_size(stats) == size
            assert optimal_mask(stats) == frozenset(np.flatnonzero(keep).tolist())

    def test_exact_threshold_is_dropped_and_ulp_neighbours_decide(self):
        """zeta^2 equal to the threshold, and values ulps either side of it."""
        n, tau = 10, 1.0
        target = (tau / (0.5 + tau)) ** 2  # zeta^2 of lambda = 0.5

        def threshold(omega):
            rel = _tolerance(n) / (n * (1.0 - omega))
            return ((1.0 - omega) - 2.0 * omega * rel) / (1.0 + 2.0 * rel)

        lo, hi = 0.0, 1.0 - 1e-9  # threshold() falls as omega rises
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if threshold(mid) > target else (lo, mid)
        omega = next(
            o for o in lo + np.arange(-300, 300) * np.spacing(lo) if threshold(o) == target
        )
        near = 0.5 + np.arange(40, -41, -1) * np.spacing(0.5)
        lam = np.concatenate([[4.0, 2.0, 1.0], near, [0.25, 0.125]])
        stats = SpectralStats(tau, float(omega), n, lam, 1, 0.0)
        zeta_sq = stats.zeta**2
        assert (zeta_sq == target).any()
        assert ((zeta_sq < target) & (zeta_sq >= target - 8 * np.spacing(target))).any()
        keep = _vectorised_keep(stats)
        assert not keep[3 + 40]  # lambda = 0.5 sits exactly on the threshold
        assert mask_size(stats) == np.count_nonzero(keep)
        assert optimal_mask(stats) == frozenset(np.flatnonzero(keep).tolist())

    def test_nothing_kept_when_the_threshold_is_below_every_zeta(self):
        lam = np.array([1.0, 0.5, 0.25])
        st = solve_tau(lam, 2)
        far = SpectralStats(1e300, st.omega, 2, lam, st.iterations, st.residual)
        assert mask_size(far) == 0 and optimal_mask(far) == frozenset()
