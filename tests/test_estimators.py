"""Tests for seeded sampling, least-squares fitting, and the two-stage pipeline."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from w2s_lab import (
    ProblemInstance,
    derive_seed,
    empirical_excess_risk,
    fit,
    power_law_signal,
    power_law_spectrum,
    sample_dataset,
    two_stage_fit,
)
from w2s_lab import estimators
from w2s_lab.estimators import (
    GRAM_COND_LIMIT,
    STAGE_ROOT,
    STAGE_SURROGATE,
    STAGE_TARGET,
    fit_block,
    sample_block,
    trial_blocks,
    two_stage_block,
)


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

    @pytest.mark.parametrize("seed", [3.7, -1, 2**64, 2**64 + 5, np.nan, np.inf])
    def test_parent_seed_outside_64_bits_is_refused(self, seed):
        """Not truncated (3.7 as 3) and not wrapped (-1 as 2**64 - 1, 2**64 + 5 as 5)."""
        with pytest.raises(ValueError, match=r"^parent_seed must be an integer in \[0, 2\*\*64\)"):
            derive_seed(seed, STAGE_TARGET, 0)

    def test_integral_seeds_of_any_type_agree(self):
        top = 2**64 - 1
        assert derive_seed(3.0, 1, 2) == derive_seed(np.uint64(3), 1, 2) == derive_seed(3, 1, 2)
        assert derive_seed(np.uint64(top), 1, 2) == derive_seed(top, 1, 2)


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

    @pytest.mark.parametrize("p,count", [(12, 5), (37, 9)])
    def test_stacked_beta_shares_one_draw(self, p, count):
        """A (k, p) stack gives the 1-D call's design and, per column, its labels."""
        lam = power_law_spectrum(p, 2.0)
        stack = np.random.default_rng(4).normal(size=(3, p))
        shared = sample_dataset(lam, stack, 0.3, count, 2718)
        assert shared.labels.shape == (count, 3)
        for j, beta in enumerate(stack):
            alone = sample_dataset(lam, beta.copy(), 0.3, count, 2718)
            assert np.array_equal(shared.design, alone.design)
            assert np.array_equal(shared.labels[:, j], alone.labels)

    def test_validation(self):
        lam = power_law_spectrum(5, 2.0)
        with pytest.raises(ValueError):
            sample_dataset(lam, np.ones(4), 0.1, 3, 1)
        with pytest.raises(ValueError):
            sample_dataset(lam, np.ones((2, 4)), 0.1, 3, 1)
        with pytest.raises(ValueError):
            sample_dataset(lam, np.ones((0, 5)), 0.1, 3, 1)
        with pytest.raises(ValueError):
            sample_dataset(lam, np.ones(5), -0.1, 3, 1)
        with pytest.raises(ValueError):
            sample_dataset(lam, np.ones(5), 0.1, 0, 1)


def _own_draw(lam, beta, sigma_sq, count, seed):
    """A dataset drawn at its own size: (count, p) normals for the design, then count for noise."""
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((count, lam.size))
    design *= np.sqrt(lam)
    noise = rng.standard_normal(count) * np.sqrt(sigma_sq)
    if beta.ndim == 1:
        return design, design @ beta + noise
    return design, np.stack([design @ column + noise for column in beta], axis=1)


class TestSamplePrefixes:
    @pytest.mark.parametrize("sigma_sq", [0.0, 0.3])
    @pytest.mark.parametrize(
        "counts", [(7,), (3, 11, 7), (11, 3, 11, 5), (30, 4, 12)], ids=str
    )
    def test_each_count_equals_its_own_draw(self, counts, sigma_sq):
        """Unsorted, repeated and > p counts, (p,) and (k, p) betas: bit for bit."""
        p, seed = 12, 4242
        lam = power_law_spectrum(p, 2.0)
        rng = np.random.default_rng(8)
        betas = [rng.normal(size=(3, p) if i % 2 else p) for i in range(len(counts))]
        datasets = sample_block(lam, betas, sigma_sq, counts, [seed])
        assert len(datasets) == len(counts)
        for beta, count, ds in zip(betas, counts, datasets):
            design, labels = _own_draw(lam, beta, sigma_sq, count, seed)
            assert ds.design.shape == (1, count, p)
            assert np.array_equal(ds.design[0], design)
            assert np.array_equal(ds.labels[0], labels)
            alone = sample_dataset(lam, beta, sigma_sq, count, seed)
            assert np.array_equal(alone.design, design)
            assert np.array_equal(alone.labels, labels)
            # every count reads the one draw made at the largest count
            assert np.shares_memory(ds.design, datasets[0].design)

    def test_validation(self):
        lam = power_law_spectrum(5, 2.0)
        with pytest.raises(ValueError):
            sample_block(lam, [], 0.1, [], [1])
        with pytest.raises(ValueError):
            sample_block(lam, [np.ones(5)], 0.1, [3, 4], [1])
        with pytest.raises(ValueError):
            sample_block(lam, [np.ones(5), np.ones(4)], 0.1, [3, 4], [1])
        with pytest.raises(ValueError):
            sample_block(lam, [np.ones(5), np.ones(5)], 0.1, [3, 0], [1])

    @pytest.mark.parametrize(
        "beta",
        [np.ones((0, 5)), np.array([np.ones(5), [1.0, 1.0, np.nan, 1.0, 1.0]]), np.ones((2, 2, 5))],
        ids=["empty-stack", "nan-in-a-row", "three-dims"],
    )
    def test_bad_beta_is_refused_before_the_draw(self, beta):
        workspace = estimators.Workspace()
        with pytest.raises(ValueError, match="^beta "):
            sample_block(power_law_spectrum(5, 2.0), [np.ones(5), beta], 0.1, [3, 4], [1], workspace)
        assert workspace._buffers == {}


class TestSampleBlock:
    @pytest.mark.parametrize("sigma_sq", [0.0, 0.3])
    def test_each_item_equals_its_own_draw(self, sigma_sq):
        """Unsorted, repeated and > p counts, (p,) and (k, p) betas: item b is seeds[b]'s draw."""
        p, counts, seeds = 12, (11, 3, 11, 30), [derive_seed(9, STAGE_TARGET, t) for t in range(4)]
        lam = power_law_spectrum(p, 2.0)
        rng = np.random.default_rng(8)
        betas = [rng.normal(size=(3, p) if i % 2 else p) for i in range(len(counts))]
        block = sample_block(lam, betas, sigma_sq, counts, seeds)
        for beta, count, ds in zip(betas, counts, block):
            assert ds.design.shape == (len(seeds), count, p)
            assert ds.labels.shape == (len(seeds), count) + beta.shape[:-1]
            assert np.shares_memory(ds.design, block[0].design)
            for item, seed in enumerate(seeds):
                alone = sample_dataset(lam, beta, sigma_sq, count, seed)
                assert np.array_equal(ds.design[item], alone.design)
                assert np.array_equal(ds.labels[item], alone.labels)

    def test_needs_a_seed(self):
        with pytest.raises(ValueError):
            sample_block(power_law_spectrum(5, 2.0), [np.ones(5)], 0.1, [3], [])

    @pytest.mark.parametrize("seed", [3.7, -1, 2**64, 2**64 + 5, np.nan])
    def test_seed_outside_64_bits_is_refused(self, seed):
        """numpy's own default_rng refuses -1; a block neither truncates nor wraps a seed."""
        lam, beta = power_law_spectrum(5, 2.0), np.ones(5)
        message = r"^seed must be an integer in \[0, 2\*\*64\)"
        with pytest.raises(ValueError, match=message):
            sample_block(lam, [beta], 0.1, [3], [1, seed])
        with pytest.raises(ValueError, match=message):
            sample_dataset(lam, beta, 0.1, 3, seed)

    def test_seeds_at_both_ends_of_64_bits_draw(self):
        lam, beta = power_law_spectrum(5, 2.0), np.ones(5)
        for seed in (0, 2**64 - 1):
            ds = sample_dataset(lam, beta, 0.1, 3, seed)
            twin = sample_dataset(lam, beta, 0.1, 3, np.uint64(seed))
            assert np.array_equal(ds.design, twin.design)
            assert np.array_equal(ds.labels, twin.labels)


class TestTrialBlocks:
    @pytest.mark.parametrize(
        "rows,p,size", [(30, 80, 26), (80, 100, 8), (285, 300, 1), (300, 500, 1)]
    )
    def test_block_size_follows_the_stream_budget(self, rows, p, size):
        """verify's 30 x 80 runs 26 trials a block, the benchmark's Monte Carlo shapes one."""
        blocks = trial_blocks(400, rows * (p + 1))
        assert len(blocks[0]) == size
        assert [t for block in blocks for t in block] == list(range(400))

    def test_budget_sets_the_size(self, monkeypatch):
        monkeypatch.setattr(estimators, "_TRIAL_BLOCK_BYTES", 7 * 8 * 50)
        assert [len(block) for block in trial_blocks(16, 50)] == [7, 7, 2]
        assert [len(block) for block in trial_blocks(3, 10**6)] == [1, 1, 1]


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
    def test_non_finite_design_raises_value_error(self, bad, shape):
        design = np.random.default_rng(0).normal(size=shape)
        design[1, 2] = bad
        with pytest.raises(ValueError, match="design must be finite"):
            fit(design, np.ones(shape[0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_labels_raise_on_lstsq_route(self, bad):
        # a duplicated column fails the Gram certificate, so the fit reaches lstsq
        design = np.random.default_rng(0).normal(size=(12, 5))
        design[:, 1] = design[:, 0]
        labels = np.ones(12)
        labels[3] = bad
        with pytest.raises(ValueError, match="labels must be finite"):
            fit(design, labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("columns", [None, 3])
    def test_non_finite_labels_raise_on_gram_route(self, bad, columns):
        design = np.random.default_rng(0).normal(size=(5, 12))
        assert fit(design, np.ones(5)).route == "gram"
        labels = np.ones(5) if columns is None else np.ones((5, columns))
        labels[3] = bad
        with pytest.raises(ValueError, match="labels must be finite"):
            fit(design, labels)

    def test_zero_design_takes_lstsq(self):
        out = fit(np.zeros((3, 4)), np.ones(3))
        assert out.route == "lstsq"
        assert out.rank == 0
        assert out.rank_deficient
        assert np.array_equal(out.fitted, np.zeros(4))


ROUTES = pytest.mark.parametrize(
    "shape,duplicate,route",
    [
        ((30, 70), False, "gram"),
        ((90, 30), False, "gram"),
        ((40, 10), True, "lstsq"),
        ((285, 300), False, "gram"),
        ((600, 300), False, "gram"),
    ],
    ids=[
        "gram-wide",
        "gram-tall",
        "lstsq-duplicated-column",
        "gram-wide-widened",
        "gram-tall-widened",
    ],
)


def _design_and_labels(shape, duplicate, k):
    rng = np.random.default_rng(17)
    design = rng.normal(size=shape)
    if duplicate:
        design[:, 7] = design[:, 3]  # fails the Gram certificate
    return design, rng.normal(size=(design.shape[0], k))


class TestSharedDesignFit:
    """(rows, k) labels share one route and one solve with k one-column fits."""

    @ROUTES
    def test_columns_match_one_column_fits(self, shape, duplicate, route):
        """Route, rank and rank_deficient exactly; each column to rounding."""
        design, labels = _design_and_labels(shape, duplicate, 4)
        shared = fit(design, labels)
        assert shared.route == route
        assert shared.fitted.shape == (design.shape[1], 4)
        for j in range(4):
            alone = fit(design, labels[:, j].copy())
            assert (alone.route, alone.rank, alone.rank_deficient) == (
                shared.route,
                shared.rank,
                shared.rank_deficient,
            )
            gap = np.linalg.norm(shared.fitted[:, j] - alone.fitted)
            assert gap <= 1e-12 * np.linalg.norm(alone.fitted)

    @ROUTES
    def test_matrix_of_one_column_equals_vector_fit(self, shape, duplicate, route):
        """(rows, 1) labels give the (rows,) fit bit for bit, as a one-kind stack needs."""
        design, labels = _design_and_labels(shape, duplicate, 1)
        column = fit(design, labels)
        vector = fit(design, labels[:, 0].copy())
        assert column.fitted.shape == (design.shape[1], 1)
        assert np.array_equal(column.fitted[:, 0], vector.fitted)
        assert (column.route, column.rank, column.rank_deficient) == (
            route,
            vector.rank,
            vector.rank_deficient,
        )

    @pytest.mark.parametrize(
        "shape,k,widened",
        [
            ((240, 300), 1, True),
            ((285, 300), 1, True),
            ((600, 300), 1, True),
            ((30, 80), 1, False),
            ((100, 500), 3, False),
        ],
    )
    def test_mid_size_one_column_solve_is_widened(self, monkeypatch, shape, k, widened):
        """One-column Gram solves of 126-500 rows reach np.linalg.solve with > 500 entries.

        numpy holds the GIL for smaller outputs; every other solve is passed as is.
        A lone fit is a block of one, so b has the stacked (1, m, columns) layout.
        """
        sizes = []
        solve = np.linalg.solve

        def recording_solve(a, b):
            sizes.append(b.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        rng = np.random.default_rng(3)
        design = rng.normal(size=shape)
        labels = rng.normal(size=shape[0]) if k == 1 else rng.normal(size=(shape[0], k))
        assert fit(design, labels).route == "gram"
        gram_size = min(shape)
        (b_shape,) = sizes
        if widened:
            assert b_shape[-2] == gram_size and np.prod(b_shape) > 500
        else:
            assert b_shape == (1, shape[0], k)  # both cases are wide: b is the label columns

    @pytest.mark.parametrize("columns", [None, 1, 3])
    @pytest.mark.parametrize(
        "shape",
        [(30, 80), (90, 300), (240, 300), (285, 300), (100, 500), (600, 300), (90, 40)],
        ids=str,
    )
    def test_gram_route_has_the_bits_of_the_2d_numpy_route(self, shape, columns):
        """A lone fit runs stacked calls; they give it the bits of numpy's 2-D calls.

        Wide: X^T solve(X X^T, y); tall: solve(X^T X, X^T y); a one-column solve of
        Gram size 126-500 widened with zero columns, as fit widens it.
        """
        rng = np.random.default_rng(41)
        design = rng.normal(size=shape)
        rows, p = shape
        labels = rng.normal(size=(rows,) if columns is None else (rows, columns))
        out = fit(design, labels)
        assert out.route == "gram"

        wide = rows < p
        gram = design @ design.T if wide else design.T @ design
        rhs = labels if wide else design.T @ labels
        size = len(gram)
        if columns in (None, 1) and 126 <= size <= 500:
            widened = np.zeros((size, 500 // size + 1))
            widened[:, 0] = rhs.reshape(size)
            solved = np.linalg.solve(gram, widened)[:, 0].reshape(rhs.shape)
        else:
            solved = np.linalg.solve(gram, rhs)
        expected = design.T @ solved if wide else solved
        assert out.fitted.shape == expected.shape
        assert np.array_equal(out.fitted, expected)

    def test_shape_validation(self):
        design = np.ones((4, 6))
        for labels in (np.ones((3, 2)), np.ones((4, 0)), np.ones((4, 2, 1))):
            with pytest.raises(ValueError, match="one label per row"):
                fit(design, labels)
        for design in (np.ones(4), np.ones((1, 4, 6))):  # 1-D and 3-D designs
            with pytest.raises(ValueError, match="one label per row"):
                fit(design, np.ones(4))
        # the caller's shapes, not the block shapes (1, 4) and (1, 4)
        with pytest.raises(ValueError, match=re.escape("got shapes (4,) and (4,)")):
            fit(np.ones(4), np.ones(4))


def _block_of(shape, count, k=None, duplicate_item=None):
    rng = np.random.default_rng(29)
    designs = rng.normal(size=(count,) + shape)
    if duplicate_item is not None:
        designs[duplicate_item][:, 7] = designs[duplicate_item][:, 3]
    labels = rng.normal(size=(count, shape[0]) + (() if k is None else (k,)))
    return designs, labels


def _assert_items_equal_own_fits(block, designs, labels):
    for item in range(len(designs)):
        alone = fit(designs[item], labels[item])
        assert np.array_equal(block.fitted[item], alone.fitted)
        assert block.route[item] == alone.route
        assert block.rank[item] == alone.rank
        assert block.rank_deficient[item] == alone.rank_deficient


class TestWorkspace:
    """A reused workspace gives every block the bits of fresh buffers; results never alias it."""

    def test_buffer_grows_then_is_reused(self):
        workspace = estimators.Workspace()
        large = workspace.take("draw", (2, 5, 7))
        small = workspace.take("draw", (3, 4))
        assert small.flags.c_contiguous and small.shape == (3, 4)
        assert np.shares_memory(large, small)
        grown = workspace.take("draw", (9, 9))
        assert not np.shares_memory(large, grown)
        assert not np.shares_memory(grown, workspace.take("gram", (2, 2)))

    def test_reused_buffers_across_shapes_give_fresh_bits(self):
        """Shrinking and growing blocks, wide and tall, one item on lstsq: each block as fresh."""
        p = 12
        lam = power_law_spectrum(p, 2.0)
        beta = power_law_signal(p, 2.0, 1.5)
        workspace = estimators.Workspace()
        for counts, trials, duplicate in [
            ((30, 8), 4, 1), ((5,), 2, None), ((30, 12), 3, 0), ((40,), 6, 5)
        ]:
            seeds = [derive_seed(3, STAGE_TARGET, t) for t in range(trials)]
            reused = sample_block(lam, [beta] * len(counts), 0.1, counts, seeds, workspace=workspace)
            fresh = sample_block(lam, [beta] * len(counts), 0.1, counts, seeds)
            draw = workspace._buffers["draw"]
            for ds, alone in zip(reused, fresh):
                assert np.shares_memory(ds.design, draw)
                assert not np.shares_memory(ds.labels, draw)
                assert np.array_equal(ds.design, alone.design)
                assert np.array_equal(ds.labels, alone.labels)
                designs = ds.design.copy()
                if duplicate is not None:
                    designs[duplicate][:, 7] = designs[duplicate][:, 3]
                block = fit_block(designs, ds.labels, workspace=workspace)
                expected = fit_block(designs, ds.labels)
                for name in ("fitted", "rank", "rank_deficient", "route"):
                    assert np.array_equal(getattr(block, name), getattr(expected, name))
                    for buffer in workspace._buffers.values():
                        assert not np.shares_memory(getattr(block, name), buffer)
                if duplicate is not None and len(ds.design[0]) >= p:  # tall: rank p - 1
                    assert block.route[duplicate] == "lstsq"

    def test_two_stage_block_on_a_reused_workspace_gives_fresh_bits(self):
        """Growing and shrinking sweeps on one workspace, m = p - 1 items on lstsq: fresh bits."""
        p, seed = 40, 23
        lam = power_law_spectrum(p, 3.0)
        inst = ProblemInstance(lam, lam, power_law_signal(p, 3.0, 1.5), 0.05, 0.1, n=30, m=12)
        seeds = [derive_seed(seed, STAGE_SURROGATE, t) for t in range(9)]
        (stage1,) = sample_block(lam, [inst.beta_star], inst.sigma_s_sq, [p - 1], seeds)
        route = fit_block(stage1.design, stage1.labels).route
        assert "lstsq" in route and "gram" in route
        workspace = estimators.Workspace()
        kept = []
        for pairs, trials in [
            ([(30, 12)], range(2)),
            ([(20, p - 1), (35, p - 1), (30, 12)], range(9)),
            ([(6, 5)], range(3, 5)),
            ([(45, 20), (12, 30)], range(4)),
        ]:
            insts = [replace(inst, n=n, m=m) for n, m in pairs]
            reused = two_stage_block(insts, seed, trials, workspace=workspace)
            fresh = two_stage_block(insts, seed, trials)
            for fits, expected in zip(reused, fresh):
                for got, want in zip(fits, expected):
                    assert np.array_equal(got, want)
                    for buffer in workspace._buffers.values():
                        assert not np.shares_memory(got, buffer)
                    kept.append((got, want.copy()))
        for got, want in kept:  # later sweeps on the workspace left earlier results alone
            assert np.array_equal(got, want)


class TestFitBlock:
    """Every item of a stacked fit is its own fit, bit for bit, routes included."""

    @pytest.mark.parametrize("k", [None, 1, 3])
    @pytest.mark.parametrize("shape", [(30, 80), (90, 30), (12, 12)], ids=str)
    def test_items_equal_their_own_fits(self, shape, k):
        designs, labels = _block_of(shape, 5, k)
        block = fit_block(designs, labels)
        assert block.fitted.shape == (5, shape[1]) + (() if k is None else (k,))
        _assert_items_equal_own_fits(block, designs, labels)

    @pytest.mark.parametrize("k", [None, 2])
    @pytest.mark.parametrize("item", [0, 2, 4])
    def test_duplicated_column_item_alone_takes_lstsq(self, item, k):
        designs, labels = _block_of((40, 10), 5, k, duplicate_item=item)
        block = fit_block(designs, labels)
        assert list(block.route) == ["lstsq" if i == item else "gram" for i in range(5)]
        assert block.rank[item] == 9 and block.rank_deficient[item]
        _assert_items_equal_own_fits(block, designs, labels)

    @pytest.mark.parametrize("shape", [(240, 300), (300, 240)], ids=str)
    def test_mid_size_items_are_widened_as_alone(self, monkeypatch, shape):
        """Gram size 240 in a block of 2: one widened stacked solve, each item its own fit."""
        designs, labels = _block_of(shape, 2)
        expected = [fit(design, item_labels) for design, item_labels in zip(designs, labels)]
        sizes = []
        solve = np.linalg.solve

        def recording_solve(a, b):
            sizes.append(b.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        block = fit_block(designs, labels)
        assert sizes == [(2, 240, 500 // 240 + 1)]
        for item, alone in enumerate(expected):
            assert np.array_equal(block.fitted[item], alone.fitted)
            assert block.route[item] == alone.route == "gram"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("item", [0, 3])
    @pytest.mark.parametrize("k", [None, 2])
    def test_non_finite_labels_raise_as_fit_raises(self, item, bad, k):
        designs, labels = _block_of((5, 12), 4, k)
        labels[item, 2] = bad
        with pytest.raises(ValueError, match="labels must be finite") as alone:
            fit(designs[item], labels[item])
        with pytest.raises(ValueError, match="labels must be finite") as stacked:
            fit_block(designs, labels)
        assert str(stacked.value) == str(alone.value)

    def test_non_finite_design_raises_as_fit_raises(self):
        designs, labels = _block_of((12, 5), 3)
        designs[1, 4, 2] = np.nan
        with pytest.raises(ValueError, match="design must be finite"):
            fit_block(designs, labels)

    def test_shape_validation(self):
        for designs, labels in (
            (np.ones((4, 6)), np.ones((4,))),
            (np.ones((2, 4, 6)), np.ones((2, 3))),
            (np.ones((2, 4, 6)), np.ones((3, 4))),
            (np.ones((2, 4, 6)), np.ones((2, 4, 0))),
        ):
            with pytest.raises(ValueError, match="one label per row"):
                fit_block(designs, labels)


class TestPipelines:
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
        stage2 = sample_dataset(
            inst.spectrum_t, expected_s, inst.sigma_t_sq, inst.n,
            derive_seed(seed, STAGE_TARGET, trial),
        )
        assert np.array_equal(beta_s2t, fit(stage2.design, stage2.labels).fitted)

    def test_sweep_trial_holds_one_stage_draw_at_a_time(self):
        """Stage one's draw is freed before stage two draws: the peak is one draw plus fits."""
        p, top = 2000, 100
        lam = power_law_spectrum(p, 2.0)
        beta = power_law_signal(p, 2.0, 1.5)
        insts = [ProblemInstance(lam, lam, beta, 0.05, 0.05, n=c, m=c) for c in (40, top)]
        draw_bytes = (top * p + top) * 8  # 1.6 MB; the Gram fits' temporaries are ~0.1 MB
        two_stage_block(insts, 5, [0])
        tracemalloc.start()
        try:
            two_stage_block(insts, 5, [0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert draw_bytes < peak < 1.5 * draw_bytes

    def test_block_rows_equal_one_trial_sweeps(self):
        """A repeated m, m > n and n > m: row b of a block is trial b's block of one."""
        inst = self._instance()
        insts = [replace(inst, n=n, m=m) for n, m in ((6, 9), (12, 9), (4, 14), (9, 4))]
        trials = [3, 4, 5, 9]
        block = two_stage_block(insts, 2024, trials)
        for row, trial in enumerate(trials):
            for (beta_s, beta_s2t), (one_s, one_s2t) in zip(
                block, two_stage_block(insts, 2024, [trial])
            ):
                assert np.array_equal(beta_s[row], one_s[0])
                assert np.array_equal(beta_s2t[row], one_s2t[0])

    def test_sweep_points_must_share_all_but_the_counts(self):
        inst = self._instance()
        with pytest.raises(ValueError):
            two_stage_block([], 1, [0])
        with pytest.raises(ValueError):
            two_stage_block([inst, replace(inst, sigma_t_sq=0.0)], 1, [0])
        with pytest.raises(ValueError):
            two_stage_block([inst, replace(inst, beta_star=2.0 * inst.beta_star)], 1, [0])

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
