"""Experiment runners: seeded Monte Carlo sweeps against the theory oracles.

Each runner returns (columns, rows) ready for the output module. Monte Carlo
fan-out is trial-level: trial t of a sweep uses the seed derived from
(config seed, stage, t), results are reduced in trial order, and the worker
count therefore never changes any output byte.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..design import (
    cutoff_indices,
    gain_profile,
    masked_surrogate,
    optimal_mask,
    optimal_surrogate,
    scaling_exponent,
)
from ..estimators import (
    STAGE_TARGET,
    ProblemInstance,
    derive_seed,
    empirical_excess_risk,
    fit,
    sample_dataset,
    two_stage_fit,
)
from ..spectrum import as_spectrum, power_law_signal, power_law_spectrum, solve_tau
from ..theory import omniscient_risk, one_stage_risk, two_stage_risk
from .config import ExperimentConfig

RESULT_COLUMNS = (
    "experiment",
    "p",
    "alpha",
    "beta_exp",
    "sigma_t_sq",
    "sigma_s_sq",
    "trials",
    "seed",
    "kind",
    "n",
    "m",
    "source",
    "theory_bias",
    "theory_variance",
    "theory_total",
    "mc_mean",
    "mc_se",
)

GAIN_COLUMNS = (
    "experiment",
    "p",
    "alpha",
    "beta_exp",
    "n",
    "i",
    "eigenvalue",
    "zeta",
    "beta_star",
    "beta_opt",
    "gain",
    "masked",
    "threshold_amplify",
    "threshold_mask",
)

MASK_COLUMNS = (
    "experiment",
    "p",
    "alpha",
    "n",
    "mask_size",
    "predicted_count",
    "abs_error",
    "tolerance",
    "within",
)

SLOPE_COLUMNS = (
    "experiment",
    "p",
    "alpha",
    "beta_exp",
    "sigma_t_sq",
    "n",
    "target_total",
    "optimal_total",
    "slope_target",
    "slope_optimal",
    "predicted_slope",
)


def _fan_out(fn, trials: int, workers: int) -> np.ndarray:
    """Run fn(0..trials-1), reducing in trial order regardless of worker count.

    At most min(workers, trials) threads start.
    """
    threads = min(workers, trials)
    if threads <= 1:
        values = [fn(t) for t in range(trials)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(fn, t) for t in range(trials)]
            values = [f.result() for f in futures]
    return np.asarray(values, dtype=np.float64)


def mc_one_stage_risks(
    spectrum, beta_star, surrogate_values, sigma_sq, n, trials, seed, workers=1
) -> np.ndarray:
    """Per-trial empirical excess risks of the fit on surrogate-labeled data.

    The trial seed depends only on (seed, trial), not on the surrogate, so
    runs with different surrogate kinds at the same seed share their design
    matrices and noise draws trial for trial (paired comparisons).

    surrogate_values is one (p,) surrogate, giving (trials,) risks, or a
    (k, p) stack, giving (trials, k) risks. A stack draws each trial's design
    once and fits all k label columns in one solve against one certified Gram
    matrix; column j equals the call with surrogate_values[j] alone to
    rounding, and a (1, p) stack equals the (p,) call bit for bit.
    """
    lam = as_spectrum(spectrum)
    surrogates = np.asarray(surrogate_values, dtype=np.float64)

    def one_trial(t: int):
        ds = sample_dataset(lam, surrogates, sigma_sq, n, derive_seed(seed, STAGE_TARGET, t))
        fitted = fit(ds.design, ds.labels).fitted
        if surrogates.ndim == 1:
            return empirical_excess_risk(fitted, beta_star, lam)
        return [
            empirical_excess_risk(fitted[:, j], beta_star, lam)
            for j in range(fitted.shape[1])
        ]

    return _fan_out(one_trial, trials, workers)


def mc_two_stage_risks(inst: ProblemInstance, trials, seed, workers=1) -> np.ndarray:
    """Per-trial empirical excess risks of the full two-stage pipeline."""

    def one_trial(t: int) -> float:
        _, beta_s2t = two_stage_fit(inst, seed, trial=t)
        return empirical_excess_risk(beta_s2t, inst.beta_star, inst.spectrum_t)

    return _fan_out(one_trial, trials, workers)


def mean_and_se(risks: np.ndarray) -> tuple[float, float | None]:
    """Mean and standard error of per-trial risks; the SE is None for one trial."""
    mean = float(np.mean(risks))
    if risks.size < 2:
        return mean, None
    return mean, float(np.std(risks, ddof=1) / math.sqrt(risks.size))


def _point_rows(cfg: ExperimentConfig, alpha, kind: str, n, m, report, risks) -> list:
    """The theory row and the Monte Carlo row of one sweep point (RESULT_COLUMNS)."""
    base = (
        cfg.experiment,
        cfg.p,
        alpha,
        cfg.beta_exp,
        cfg.sigma_t_sq,
        cfg.sigma_s_sq,
        cfg.trials,
        cfg.seed,
        kind,
        n,
        m,
    )
    theory = (report.bias, report.variance, report.total)
    return [
        base + ("theory",) + theory + (None, None),
        base + ("monte-carlo",) + theory + mean_and_se(risks),
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

    All kinds at one n run as one Monte Carlo call on shared trial designs,
    one multi-column fit per trial (see mc_one_stage_risks).
    """
    (alpha,) = cfg.alpha
    spectrum = power_law_spectrum(cfg.p, alpha)
    beta_star = power_law_signal(cfg.p, alpha, cfg.beta_exp)
    rows = []
    for n in cfg.n:
        stats = solve_tau(spectrum, n)
        values = [surrogate_values_for_kind(kind, stats, beta_star) for kind in cfg.kinds]
        risks = mc_one_stage_risks(
            spectrum,
            beta_star,
            np.stack(values),
            cfg.sigma_t_sq,
            n,
            cfg.trials,
            cfg.seed,
            cfg.workers,
        )
        # one contiguous trial-ordered vector per kind, as a one-kind call returns
        for kind, kind_values, kind_risks in zip(cfg.kinds, values, risks.T.copy()):
            report = one_stage_risk(stats, beta_star, kind_values, cfg.sigma_t_sq)
            rows += _point_rows(cfg, alpha, kind, n, None, report, kind_risks)
    return RESULT_COLUMNS, rows


def run_two_stage_grid(cfg: ExperimentConfig):
    """Theory (two-stage oracle) vs Monte Carlo (two_stage_fit) over an (alpha, n, m) grid.

    Grid points with n >= p or m >= p are outside the fixed-point regime and
    are skipped with a warning rather than failing the sweep.
    """
    rows = []
    m_grid = cfg.m or cfg.n
    for alpha in cfg.alpha:
        spectrum = power_law_spectrum(cfg.p, alpha)
        signal = power_law_signal(cfg.p, alpha, cfg.beta_exp)
        for n, m in zip(cfg.n, m_grid):
            if n >= cfg.p or m >= cfg.p:
                warnings.warn(
                    f"skipping grid point n={n}, m={m}: "
                    f"two-stage theory needs n < p and m < p (p={cfg.p})"
                )
                continue
            inst = ProblemInstance(
                spectrum_t=spectrum,
                spectrum_s=spectrum,
                beta_star=signal,
                sigma_t_sq=cfg.sigma_t_sq,
                sigma_s_sq=cfg.sigma_s_sq,
                n=n,
                m=m,
            )
            report = two_stage_risk(inst)
            risks = mc_two_stage_risks(inst, cfg.trials, cfg.seed, cfg.workers)
            rows += _point_rows(cfg, alpha, "two-stage", n, m, report, risks)
    return RESULT_COLUMNS, rows


def run_gain_profile(cfg: ExperimentConfig):
    """Per-coordinate profile: eigenvalue, shrinkage, optimal surrogate, mask bit."""
    (n,) = cfg.n
    (alpha,) = cfg.alpha
    lam = power_law_spectrum(cfg.p, alpha)
    signal = power_law_signal(cfg.p, alpha, cfg.beta_exp)

    stats = solve_tau(lam, n)
    gains = gain_profile(stats)
    mask = optimal_mask(stats)
    optimal = optimal_surrogate(stats, signal)
    threshold_amplify = 1.0 - stats.omega
    threshold_mask = math.sqrt(threshold_amplify)
    rows = []
    for i in range(cfg.p):
        rows.append(
            (
                cfg.experiment,
                cfg.p,
                alpha,
                cfg.beta_exp,
                n,
                i + 1,
                float(lam[i]),
                float(stats.zeta[i]),
                float(signal[i]),
                float(optimal[i]),
                float(gains[i]),
                1 if i in mask else 0,
                threshold_amplify,
                threshold_mask,
            )
        )
    return GAIN_COLUMNS, rows


def run_mask_count(cfg: ExperimentConfig):
    """Optimal-mask size against the asymptotic count n * C2 per (alpha, n)."""
    rows = []
    for alpha in cfg.alpha:
        spectrum = power_law_spectrum(cfg.p, alpha)
        for n in cfg.n:
            size = len(optimal_mask(solve_tau(spectrum, n)))
            _, i_mask = cutoff_indices(alpha, n)
            abs_error = abs(size - i_mask)
            tolerance = 0.05 * n + 5.0
            rows.append(
                (
                    cfg.experiment,
                    cfg.p,
                    alpha,
                    n,
                    size,
                    i_mask,
                    abs_error,
                    tolerance,
                    1 if abs_error <= tolerance else 0,
                )
            )
    return MASK_COLUMNS, rows


def run_scaling_slope(cfg: ExperimentConfig):
    """Theory-only risk decay series plus fitted and predicted log-log slopes.

    Every row repeats the three slopes; a series not requested via kinds has
    None in its total and slope columns.
    """
    (alpha,) = cfg.alpha
    spectrum = power_law_spectrum(cfg.p, alpha)
    beta_star = power_law_signal(cfg.p, alpha, cfg.beta_exp)
    want_target = "ground-truth" in cfg.kinds
    want_optimal = "optimal" in cfg.kinds

    n_values = sorted(cfg.n)
    target_totals = []
    optimal_totals = []
    for n in n_values:
        stats = solve_tau(spectrum, n)
        if want_target:
            target_totals.append(omniscient_risk(stats, beta_star, cfg.sigma_t_sq).total)
        if want_optimal:
            values = optimal_surrogate(stats, beta_star)
            optimal_totals.append(one_stage_risk(stats, beta_star, values, cfg.sigma_t_sq).total)

    def fitted_slope(totals):
        return float(np.polyfit(np.log(n_values), np.log(totals), 1)[0])

    slope_target = fitted_slope(target_totals) if want_target else None
    slope_optimal = fitted_slope(optimal_totals) if want_optimal else None
    predicted = -scaling_exponent(alpha, cfg.beta_exp)

    rows = []
    for idx, n in enumerate(n_values):
        rows.append(
            (
                cfg.experiment,
                cfg.p,
                alpha,
                cfg.beta_exp,
                cfg.sigma_t_sq,
                n,
                target_totals[idx] if want_target else None,
                optimal_totals[idx] if want_optimal else None,
                slope_target,
                slope_optimal,
                predicted,
            )
        )
    return SLOPE_COLUMNS, rows


# The table runners by experiment name; `verify` is the one experiment that
# writes a report instead of a table.
RUNNERS = {
    "risk-vs-n": run_risk_vs_n,
    "two-stage-grid": run_two_stage_grid,
    "gain-profile": run_gain_profile,
    "mask-count": run_mask_count,
    "scaling-slope": run_scaling_slope,
}
