"""Experiment runners: seeded Monte Carlo sweeps against the theory oracles.

Each runner returns its table as dict rows, keys in CSV order beside their
values, for `output.render_table` to write in one pass; `run_gain_profile`
returns a generator, so its rows are made as they are written. Monte Carlo
fan-out is over trial blocks: trial t of a sweep uses the seed derived from
(config seed, stage, t), results are reduced in trial order, and the worker
count therefore never changes any output byte. Because trial t's stream does
not depend on the sweep point, one fan-out covers a whole sweep: each trial
draws each stage's stream once, at the sweep's largest sample count, and every
point reads its dataset as a prefix of it, bit for bit what a one-point sweep
draws. A block (`estimators.trial_blocks`, sized from the sampler's stream)
runs consecutive trials of a small shape as stacked draws, stacked certified
fits and one (B, ...) risk array per point, which `_fan_out_blocks` joins in
trial order; each trial's risks are the bits it gets in a block of one. The
fan-out refuses workers outside [1, MAX_WORKERS] before any thread, and each
worker's `estimators.Workspace` (draw and Gram buffers) dies with the call.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..design import (
    cutoff_indices,
    gain_profile,
    mask_size,
    masked_surrogate,
    optimal_mask,
    optimal_surrogate,
    scaling_exponent,
)
from ..estimators import (
    STAGE_TARGET,
    ProblemInstance,
    Workspace,
    _as_workers,
    derive_seed,
    excess_risks,
    fit_block,
    sample_block,
    trial_blocks,
    two_stage_block,
)
from ..spectrum import (
    _as_coefficients,
    _as_count,
    as_spectrum,
    power_law_signal,
    power_law_spectrum,
    solve_tau,
)
from ..theory import _check_stats, _gains, _one_stage_terms, one_stage_risk, two_stage_risk
from .config import ExperimentConfig


def _fan_out_blocks(block_fn, trials: int, rows: int, p: int, workers: int) -> list[np.ndarray]:
    """Run block_fn(block, workspace) on each trial block; join its per-point (B, ...) arrays.

    Returns one contiguous trial-ordered array per point. Trials of at most
    `rows` rows of p set the block size, and at most min(workers, blocks)
    threads start; no result depends on either. Each worker thread makes one
    Workspace at its first block and passes it to every block it runs; the
    workspaces live in a thread-local made for this call, so they die with it.
    """
    blocks = trial_blocks(_as_count(trials, "trials"), rows, p)
    local = threading.local()

    def run(block: range) -> list[np.ndarray]:
        if not hasattr(local, "workspace"):
            local.workspace = Workspace()
        return block_fn(block, local.workspace)

    threads = min(_as_workers(workers, "workers"), len(blocks))  # refused before any thread
    if threads <= 1:
        results = [run(block) for block in blocks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, blocks))
    return [np.concatenate(point) for point in zip(*results)]


def mc_one_stage_risks(
    spectrum, beta_star, surrogate_values, sigma_sq, n, trials, seed, workers=1
) -> list[np.ndarray]:
    """Per-trial empirical excess risks of the fit on surrogate-labeled data.

    n is a sweep of sample counts and surrogate_values holds one entry per
    count: a (p,) surrogate, giving that point (trials,) risks, or a (k, p)
    stack, giving it (trials, k) risks. Returns one contiguous trial-ordered
    array per point.

    The trial seed depends only on (seed, trial), not on the surrogate or the
    count, so all points and surrogate kinds at one seed share their design
    matrices and noise draws trial for trial (paired comparisons), and each
    trial draws once, at the largest count. A point's risks equal the
    one-point sweep's bit for bit, at any block size and worker count. A
    stack fits all k label columns in one solve against one certified Gram
    matrix; column j equals the call with surrogate_values[j] alone to
    rounding, and a (1, p) stack equals the (p,) call bit for bit. trials
    below 1 and workers outside [1, MAX_WORKERS] raise ValueError.
    """
    lam = as_spectrum(spectrum)
    beta_star = _as_coefficients(beta_star, lam.size, "beta_star")
    n = [_as_count(count, "n") for count in n]  # before the block size is taken from them
    surrogates = [np.asarray(values, dtype=np.float64) for values in surrogate_values]

    def one_block(block: range, workspace: Workspace) -> list[np.ndarray]:
        seeds = [derive_seed(seed, STAGE_TARGET, t) for t in block]
        risks = []
        for ds in sample_block(lam, surrogates, sigma_sq, n, seeds, workspace):
            # (B, p) or (B, p, k) fits; the risk sums run over p, last
            fitted = np.moveaxis(fit_block(ds.design, ds.labels, workspace).fitted, 1, -1)
            risks.append(excess_risks(fitted, beta_star, lam))
        return risks

    return _fan_out_blocks(one_block, trials, max(n, default=0), lam.size, workers)


def mc_two_stage_risks(insts, trials, seed, workers=1) -> list[np.ndarray]:
    """Per-trial empirical excess risks of the two-stage pipeline per sweep point.

    insts are ProblemInstances that differ only in n and m (see
    `estimators.two_stage_block`). Returns one contiguous (trials,) array per
    instance, equal bit for bit to that instance's one-point sweep. trials
    below 1 and workers outside [1, MAX_WORKERS] raise ValueError.
    """
    insts = list(insts)

    def one_block(block: range, workspace: Workspace) -> list[np.ndarray]:
        fits = two_stage_block(insts, seed, block, workspace)
        return [
            excess_risks(beta_s2t, inst.beta_star, inst.spectrum_t)
            for inst, (_, beta_s2t) in zip(insts, fits)
        ]

    rows, p = max(((max(inst.n, inst.m), inst.p) for inst in insts), default=(0, 0))
    return _fan_out_blocks(one_block, trials, rows, p, workers)


def mean_and_se(risks: np.ndarray) -> tuple[float, float | None]:
    """Mean and standard error of per-trial risks; the SE is None for one trial."""
    mean = float(np.mean(risks))
    if risks.size < 2:
        return mean, None
    return mean, float(np.std(risks, ddof=1) / math.sqrt(risks.size))


def _point_rows(cfg: ExperimentConfig, alpha, kind: str, n, m, report, risks) -> list[dict]:
    """The theory row and the Monte Carlo row of one sweep point."""
    base = dict(
        experiment=cfg.experiment,
        p=cfg.p,
        alpha=alpha,
        beta_exp=cfg.beta_exp,
        sigma_t_sq=cfg.sigma_t_sq,
        sigma_s_sq=cfg.sigma_s_sq,
        trials=cfg.trials,
        seed=cfg.seed,
        kind=kind,
        n=n,
        m=m,
    )
    theory = dict(
        theory_bias=report.bias, theory_variance=report.variance, theory_total=report.total
    )
    mc_mean, mc_se = mean_and_se(risks)
    return [
        {**base, "source": "theory", **theory, "mc_mean": None, "mc_se": None},
        {**base, "source": "monte-carlo", **theory, "mc_mean": mc_mean, "mc_se": mc_se},
    ]


def surrogate_values_for_kind(kind: str, stats, beta_star) -> np.ndarray:
    if kind == "ground-truth":
        return np.asarray(beta_star, dtype=np.float64)
    if kind == "optimal":
        return optimal_surrogate(stats, beta_star)
    if kind == "masked":
        return masked_surrogate(beta_star, optimal_mask(stats))
    raise ValueError(f"unknown surrogate kind {kind!r}")


def run_risk_vs_n(cfg: ExperimentConfig):
    """Theory and Monte Carlo excess risk per (n, surrogate kind).

    The whole sweep runs as one Monte Carlo call on shared trial draws, one
    multi-column fit per n and trial (see mc_one_stage_risks).
    """
    (alpha,) = cfg.alpha
    spectrum = power_law_spectrum(cfg.p, alpha)
    beta_star = power_law_signal(cfg.p, alpha, cfg.beta_exp)
    stats = [solve_tau(spectrum, n) for n in cfg.n]
    values = [
        [surrogate_values_for_kind(kind, point, beta_star) for kind in cfg.kinds]
        for point in stats
    ]
    risks = mc_one_stage_risks(
        spectrum,
        beta_star,
        [np.stack(point) for point in values],
        cfg.sigma_t_sq,
        cfg.n,
        cfg.trials,
        cfg.seed,
        cfg.workers,
    )
    rows = []
    for n, point, point_values, point_risks in zip(cfg.n, stats, values, risks):
        # one contiguous trial-ordered vector per kind, as a one-kind call returns
        for kind, kind_values, kind_risks in zip(cfg.kinds, point_values, point_risks.T.copy()):
            report = one_stage_risk(point, beta_star, kind_values, cfg.sigma_t_sq)
            rows += _point_rows(cfg, alpha, kind, n, None, report, kind_risks)
    return rows


def run_two_stage_grid(cfg: ExperimentConfig):
    """Theory (two-stage oracle) vs Monte Carlo (two_stage_block) over an (alpha, n, m) grid.

    The config refuses a grid point with n >= p or m >= p, outside the
    fixed-point regime, so every point runs. Each alpha's theory rows are
    computed before its Monte Carlo call, which the points of that alpha share
    (see mc_two_stage_risks).
    """
    rows = []
    m_grid = cfg.m or cfg.n
    for alpha in cfg.alpha:
        spectrum = power_law_spectrum(cfg.p, alpha)
        signal = power_law_signal(cfg.p, alpha, cfg.beta_exp)
        insts, reports = [], []
        for n, m in zip(cfg.n, m_grid):
            inst = ProblemInstance(
                spectrum_t=spectrum,
                spectrum_s=spectrum,
                beta_star=signal,
                sigma_t_sq=cfg.sigma_t_sq,
                sigma_s_sq=cfg.sigma_s_sq,
                n=n,
                m=m,
            )
            insts.append(inst)
            reports.append(two_stage_risk(inst))
        risks = mc_two_stage_risks(insts, cfg.trials, cfg.seed, cfg.workers)
        for inst, report, point_risks in zip(insts, reports, risks):
            rows += _point_rows(cfg, alpha, "two-stage", inst.n, inst.m, report, point_risks)
    return rows


def run_gain_profile(cfg: ExperimentConfig):
    """Per-coordinate profile: eigenvalue, shrinkage, optimal surrogate, mask bit."""
    (n,) = cfg.n
    (alpha,) = cfg.alpha
    lam = power_law_spectrum(cfg.p, alpha)
    signal = power_law_signal(cfg.p, alpha, cfg.beta_exp)

    stats = solve_tau(lam, n)
    zeta = stats.zeta  # computed on each read, so read once
    gains = gain_profile(stats)
    kept = mask_size(stats)  # the optimal mask is the prefix of this length
    optimal = gains * signal  # optimal_surrogate(stats, signal), bit for bit
    threshold_amplify = 1.0 - stats.omega
    threshold_mask = math.sqrt(threshold_amplify)
    return (
        dict(
            experiment=cfg.experiment,
            p=cfg.p,
            alpha=alpha,
            beta_exp=cfg.beta_exp,
            n=n,
            i=i + 1,
            eigenvalue=float(lam[i]),
            zeta=float(zeta[i]),
            beta_star=float(signal[i]),
            beta_opt=float(optimal[i]),
            gain=float(gains[i]),
            masked=1 if i < kept else 0,
            threshold_amplify=threshold_amplify,
            threshold_mask=threshold_mask,
        )
        for i in range(cfg.p)
    )


def run_mask_count(cfg: ExperimentConfig):
    """Optimal-mask size against the asymptotic count n * C2 per (alpha, n)."""
    rows = []
    for alpha in cfg.alpha:
        spectrum = power_law_spectrum(cfg.p, alpha)
        for n in cfg.n:
            size = mask_size(solve_tau(spectrum, n))
            _, i_mask = cutoff_indices(alpha, n)
            abs_error = abs(size - i_mask)
            tolerance = 0.05 * n + 5.0
            rows.append(
                dict(
                    experiment=cfg.experiment,
                    p=cfg.p,
                    alpha=alpha,
                    n=n,
                    mask_size=size,
                    predicted_count=i_mask,
                    abs_error=abs_error,
                    tolerance=tolerance,
                    within=1 if abs_error <= tolerance else 0,
                )
            )
        del spectrum  # released before the next alpha's is built
    return rows


def _slope_point(spectrum, beta_star, n, sigma_sq):
    """(ground-truth total, optimal total) at one n, from one streamed pass.

    The one-stage kernel's two rows, beta_star and then the optimal surrogate
    gains * beta_star, are filled leaf by leaf from the leaf's own 1 - zeta
    and zeta^2: the bits of omniscient_risk and of one_stage_risk on
    optimal_surrogate, with no p-length array beyond the point's solve.
    """
    stats = solve_tau(spectrum, n)
    _check_stats(stats)  # as those oracles do, before the ratio divides by 1 - Omega
    ratio = stats.omega / (1.0 - stats.omega)

    def fill(cols, one_minus, zeta_sq):
        beta = beta_star[cols]
        values = np.empty((2, beta.size))
        values[0] = beta
        _gains(one_minus, zeta_sq, ratio, out=values[1])
        values[1] *= beta
        return values

    bias, variance = _one_stage_terms(stats, beta_star, fill, sigma_sq)
    return tuple((bias + variance).tolist())


def run_scaling_slope(cfg: ExperimentConfig):
    """Theory-only risk decay series plus fitted and predicted log-log slopes.

    Each n costs one solve and one fused pass that gives both series'
    totals (see _slope_point). Every row repeats the three slopes; a series
    not requested via kinds has None in its total and slope columns.
    """
    (alpha,) = cfg.alpha
    spectrum = power_law_spectrum(cfg.p, alpha)
    beta_star = power_law_signal(cfg.p, alpha, cfg.beta_exp)

    n_values = sorted(cfg.n)
    points = [_slope_point(spectrum, beta_star, n, cfg.sigma_t_sq) for n in n_values]

    def series(kind, totals):
        if kind not in cfg.kinds:
            return [None] * len(totals), None
        return totals, float(np.polyfit(np.log(n_values), np.log(totals), 1)[0])

    target, slope_target = series("ground-truth", [t for t, _ in points])
    optimal, slope_optimal = series("optimal", [o for _, o in points])
    predicted = -scaling_exponent(alpha, cfg.beta_exp)

    return [
        dict(
            experiment=cfg.experiment,
            p=cfg.p,
            alpha=alpha,
            beta_exp=cfg.beta_exp,
            sigma_t_sq=cfg.sigma_t_sq,
            n=n,
            target_total=target_total,
            optimal_total=optimal_total,
            slope_target=slope_target,
            slope_optimal=slope_optimal,
            predicted_slope=predicted,
        )
        for n, target_total, optimal_total in zip(n_values, target, optimal)
    ]


# The table runners by experiment name, each returning dict rows keyed in CSV
# order; `verify` is the one experiment that writes a report instead of a table.
RUNNERS = {
    "risk-vs-n": run_risk_vs_n,
    "two-stage-grid": run_two_stage_grid,
    "gain-profile": run_gain_profile,
    "mask-count": run_mask_count,
    "scaling-slope": run_scaling_slope,
}
