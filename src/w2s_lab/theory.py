"""Deterministic risk oracles for ridgeless regression with designed surrogates.

All risks are population excess risks of the minimum-norm interpolator in the
overparameterized proportional regime, measured against the ground truth
beta_star under the target covariance:

    R = E || Sigma_t^(1/2) (beta_hat - beta_star) ||^2.

The closed forms live entirely in spectral coordinates. Each oracle takes
the stats (tau, Omega) of the fixed point at sample count n, as solve_tau
returns them, in place of the spectrum. Each sum runs in one pass over the
leaves of the column tree (spectrum._tail_first_sum): a leaf recomputes
zeta_i = tau/(lambda_i + tau) and 1 - zeta_i = lambda_i/(lambda_i + tau) once,
fills all of its terms into a leaf-sized buffer and sums them, so an oracle
holds no p-length array, and every sum has the bits of one tail-first np.sum
over the whole terms:

  one stage, labels from a fixed surrogate beta_s with noise sigma^2:
      bias     = sum_i lambda_i ((1 - zeta_i) beta_s_i - beta_star_i)^2
      variance = Omega * (sigma^2 + sum_i lambda_i zeta_i^2 beta_s_i^2) / (1 - Omega)

  the label-noise amplification constant, kappa = p/n:
      gamma^2 = kappa * (sigma^2 + sum_i lambda_i zeta_i^2 beta_s_i^2) / (1 - Omega)

  so variance = gamma^2 * n * Omega / p. The two-stage form composes two fixed
  points and adds the stage-one estimation error propagated through stage two.

Each oracle returns a RiskReport of bias, variance and their total. Dense-matrix
reference implementations of the same quantities (slow, p <= a few hundred)
live in the reference module and are cross-checked in the test suite. The
Monte Carlo side reduces per-trial risks to a mean and standard error in
harness.experiments.mean_and_se.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import ProblemInstance
from .spectrum import (
    SpectralStats,
    _as_coefficients,
    _check_noise,
    _tail_first_sum,
    as_spectrum,
    solve_tau,
)


@dataclass(frozen=True)
class RiskReport:
    """An excess risk split into bias and variance, with total = bias + variance."""

    bias: float
    variance: float
    total: float


def _check_stats(stats: SpectralStats) -> None:
    """Refuse anything but fixed-point stats whose spectrum is known valid.

    Stats from solve_tau were solved from a validated spectrum; stats built
    any other way do not vouch for their eigenvalues, which are validated
    here. Omega must lie in (0, 1) either way.
    """
    if not isinstance(stats, SpectralStats):
        raise TypeError(f"expected SpectralStats from solve_tau, got {type(stats).__name__}")
    if not stats._validated:
        as_spectrum(stats.eigenvalues)
    if not 0.0 < stats.omega < 1.0:
        raise RuntimeError(f"internal inconsistency: Omega={stats.omega} outside (0, 1)")


def _shrinkage(lam: np.ndarray, tau: float):
    """1 - zeta = lambda/(lambda + tau) and zeta^2 for one leaf."""
    shifted = lam + tau
    one_minus = lam / shifted
    zeta_sq = np.divide(tau, shifted, out=shifted)
    return one_minus, np.square(zeta_sq, out=zeta_sq)


def _gains(one_minus: np.ndarray, zeta_sq: np.ndarray, ratio: float, out: np.ndarray):
    """Optimal gains (1 - zeta)/((1 - zeta)^2 + zeta^2 Omega/(1 - Omega)) of a leaf, into out.

    ratio is Omega/(1 - Omega); zeta_sq is scaled by it in place. The one
    implementation of the gains formula: design.gain_profile writes it leaf
    by leaf, and the optimal surrogate is the gains times beta_star.
    """
    zeta_sq *= ratio
    np.square(one_minus, out=out)
    out += zeta_sq
    return np.divide(one_minus, out, out=out)


def _one_stage_sums(stats: SpectralStats, beta_star: np.ndarray, surrogates):
    """Tail-first sums of the one-stage bias and noise-energy terms per surrogate row.

    Returns a (2, k) array: row 0 sums lambda_i ((1 - zeta_i) s_i -
    beta_star_i)^2 and row 1 sums lambda_i zeta_i^2 s_i^2, for each surrogate
    row s. The surrogates are a (k, p) stack, or a function rows(cols,
    one_minus, zeta_sq) that returns the (k, len) rows of one leaf of columns
    from that leaf's 1 - zeta and zeta^2 (which it may overwrite), so no row
    need be held whole. One pass per leaf of the column tree computes 1 - zeta
    and zeta^2 once and all terms into one leaf-sized buffer, so the call
    holds no p-length array.
    """
    tau = stats.tau
    lam_all = stats.eigenvalues

    def leaf(cols: slice) -> np.ndarray:
        lam = lam_all[cols]
        one_minus, zeta_sq = _shrinkage(lam, tau)
        lam_zeta_sq = zeta_sq * lam
        if callable(surrogates):
            rows = surrogates(cols, one_minus, zeta_sq)
        else:
            rows = surrogates[..., cols]
        terms = np.empty((2,) + rows.shape)
        energy = np.square(rows, out=terms[1])
        energy *= lam_zeta_sq
        bias = np.multiply(one_minus, rows, out=terms[0])
        bias -= beta_star[cols]
        np.square(bias, out=bias)
        bias *= lam
        return np.sum(terms[..., ::-1], axis=-1)

    return _tail_first_sum(stats.p, leaf)


def _one_stage_terms(
    stats: SpectralStats, beta_star: np.ndarray, surrogates, sigma_sq: float
) -> tuple[np.ndarray, np.ndarray]:
    """Bias and variance arrays of the one-stage risk per surrogate row.

    The one implementation of the one-stage formula: one_stage_risk calls it
    with k = 1 after validating its inputs, brute_force_mask with a block of
    candidate masks, and the scaling-slope sweep with rows filled per leaf
    (see _one_stage_sums for the forms of surrogates). Inputs are trusted:
    stats solved, Omega in (0, 1), shapes checked by the caller.
    """
    bias, energy = _one_stage_sums(stats, beta_star, surrogates)
    energy = sigma_sq + energy
    return bias, stats.omega * energy / (1.0 - stats.omega)


def gamma_t_sq(stats: SpectralStats, beta_s, sigma_sq: float) -> float:
    """Noise-amplification constant gamma^2 for labels from beta_s.

    gamma^2 = kappa * (sigma^2 + sum_i lambda_i zeta_i^2 beta_s_i^2) / (1 - Omega)
    with kappa = p/n. Satisfies gamma^2 >= kappa * sigma^2, and solves the
    self-consistency relation gamma^2 = kappa * (sigma^2 + R(beta_s; beta_s))
    where R(beta_s; beta_s) is the one-stage risk of estimating beta_s from
    its own labels.
    """
    _check_stats(stats)
    beta_s = _as_coefficients(beta_s, stats.p, "beta_s")
    _check_noise(sigma_sq, "sigma_sq")
    kappa = stats.p / stats.n
    # row 1, the label energy, does not read the reference vector
    energy = sigma_sq + float(_one_stage_sums(stats, beta_s, beta_s[None, :])[1, 0])
    return kappa * energy / (1.0 - stats.omega)


def one_stage_risk(stats: SpectralStats, beta_star, beta_s, sigma_sq: float) -> RiskReport:
    """Excess risk of a single ridgeless fit whose labels come from beta_s.

    Args:
        stats: the fixed point of the covariance spectrum at the sample count,
            from solve_tau.
        beta_star: ground truth the risk is measured against.
        beta_s: vector generating the labels (beta_s = beta_star recovers the
            standard self-labeled fit).
        sigma_sq: label noise variance, >= 0.

    Returns:
        RiskReport with total = bias + variance exactly.
    """
    _check_stats(stats)
    _check_noise(sigma_sq, "sigma_sq")
    beta_star = _as_coefficients(beta_star, stats.p, "beta_star")
    beta_s = _as_coefficients(beta_s, stats.p, "beta_s")
    bias, variance = _one_stage_terms(stats, beta_star, beta_s[None, :], sigma_sq)
    bias, variance = float(bias[0]), float(variance[0])
    return RiskReport(bias=bias, variance=variance, total=bias + variance)


def omniscient_risk(stats: SpectralStats, beta_star, sigma_sq: float) -> RiskReport:
    """Excess risk of the standard fit on ground-truth labels (beta_s = beta_star)."""
    return one_stage_risk(stats, beta_star, beta_star, sigma_sq)


def two_stage_risk(inst: ProblemInstance) -> RiskReport:
    """Expected excess risk of the estimated-surrogate pipeline.

    Stage one estimates beta_s from m samples under spectrum_s (noise
    sigma_s_sq); stage two refits it from n fresh samples under spectrum_t
    (noise sigma_t_sq). The expectation is over both stages. With fixed-point
    stats (tau_s, zeta_s, Omega_s) at m and (tau_t, zeta_t, Omega_t) at n:

        bias  = sum_i lambda_t_i (1 - (1-zeta_t_i)(1-zeta_s_i))^2 beta_star_i^2
        gamma_s^2 = (p/m) (sigma_s^2 + sum_i lambda_s_i zeta_s_i^2 beta_star_i^2)
                    / (1 - Omega_s)
        E[gamma_t^2] = (p/n) (sigma_t^2 + sum_i lambda_t_i zeta_t_i^2
                       [(1-zeta_s_i)^2 beta_star_i^2
                        + (gamma_s^2/p) lambda_s_i/(lambda_s_i+tau_s)^2])
                       / (1 - Omega_t)
        variance = E[gamma_t^2] n Omega_t / p
                   + (gamma_s^2/p) sum_i lambda_t_i (1-zeta_t_i)^2
                     lambda_s_i/(lambda_s_i+tau_s)^2

    Note (1-zeta_s_i)^2/lambda_s_i = lambda_s_i/(lambda_s_i+tau_s)^2; the
    latter form is used so denormal tail eigenvalues never divide by zero.
    After gamma_s^2's pass, one pass per leaf of the column tree computes the
    bias, label-energy and carry terms into one leaf-sized buffer and sums
    each tail first, so beyond its two solves the call holds no p-length
    array, with the bits of the whole-array formulas.
    """
    if inst.n >= inst.p or inst.m >= inst.p:
        raise ValueError(
            f"two-stage formulas need n < p and m < p, got n={inst.n}, m={inst.m}, p={inst.p}"
        )
    st_s = solve_tau(inst.spectrum_s, inst.m)
    st_t = solve_tau(inst.spectrum_t, inst.n)
    _check_stats(st_s)
    _check_stats(st_t)
    gamma_s_sq = gamma_t_sq(st_s, inst.beta_star, inst.sigma_s_sq)

    p = inst.p
    tau_s, tau_t = st_s.tau, st_t.tau
    carry = gamma_s_sq / p

    def leaf(cols: slice) -> np.ndarray:
        """The leaf's bias, label-energy and carry terms, each summed tail first."""
        lam_s, lam_t = inst.spectrum_s[cols], inst.spectrum_t[cols]
        beta_sq = inst.beta_star[cols] ** 2
        one_minus_t, zeta_t_sq = _shrinkage(lam_t, tau_t)
        shifted_s = lam_s + tau_s  # kept: _shrinkage would overwrite it
        one_minus_s = lam_s / shifted_s
        shrink_s = lam_s / shifted_s**2  # (1-zeta_s)^2 / lambda_s
        terms = np.empty((3, lam_t.size))
        np.multiply(lam_t * (1.0 - one_minus_t * one_minus_s) ** 2, beta_sq, out=terms[0])
        np.multiply(lam_t * zeta_t_sq, one_minus_s**2 * beta_sq + carry * shrink_s, out=terms[1])
        np.multiply(lam_t * one_minus_t**2, shrink_s, out=terms[2])
        return np.sum(terms[:, ::-1], axis=-1)

    bias, label_sum, carry_sum = _tail_first_sum(p, leaf).tolist()
    exp_gamma_t = (p / inst.n) * (inst.sigma_t_sq + label_sum) / (1.0 - st_t.omega)
    variance_stage2 = exp_gamma_t * inst.n * st_t.omega / p
    variance_carry = carry * carry_sum
    variance = variance_stage2 + variance_carry
    return RiskReport(bias=bias, variance=variance, total=bias + variance)


def covariance_shift_map(beta_star, spectrum_s, spectrum_t) -> np.ndarray:
    """Coefficients that re-express source-covariance data in the target frame.

    Returns beta_s with beta_s_i = sqrt(lambda_s_i / lambda_t_i) * beta_star_i,
    i.e. A beta_star for the unique positive diagonal A with
    diag(spectrum_s) = A diag(spectrum_t) A.

    The map transports datasets, not fitted coefficients. A design drawn with
    row covariance diag(spectrum_s) and labels design @ beta_star + noise turns,
    after rescaling column i by sqrt(lambda_t_i / lambda_s_i), into a design
    with row covariance diag(spectrum_t) whose labels read
    design' @ (A beta_star) + noise: the same dataset, viewed in the target
    frame, is a surrogate-labeled target problem. Risks computed through that
    shared view agree in distribution. Refitting the minimum-norm interpolator
    directly on the raw source design is a different estimator (the fit does
    not commute with a non-orthogonal column scaling) and its risk under the
    target spectrum is not the mapped instance's risk; the verify suite pins
    both the agreement and that separation.
    """
    lam_s = as_spectrum(spectrum_s)
    lam_t = as_spectrum(spectrum_t)
    if lam_s.shape != lam_t.shape:
        raise ValueError("spectrum_s and spectrum_t must share one length")
    beta_star = _as_coefficients(beta_star, lam_t.size, "beta_star")
    return np.sqrt(lam_s / lam_t) * beta_star


def to_spectral_coordinates(cov: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a covariance matrix and rotate a vector into its eigenbasis.

    Args:
        cov: symmetric positive definite matrix.
        beta: vector of matching dimension.

    Returns:
        (spectrum, beta_bar): eigenvalues sorted non-increasing and the rotated
        coefficients, satisfying cov = U diag(spectrum) U^T, beta_bar = U^T beta.
        Every risk formula in this package is invariant under this change of
        basis, so downstream code only ever sees the pair.
    """
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"cov must be square, got shape {cov.shape}")
    if not np.isfinite(cov).all():
        raise ValueError("cov must be finite, got a NaN or inf entry")
    beta = _as_coefficients(beta, cov.shape[0], "beta")
    scale = max(1.0, float(np.max(np.abs(cov))))
    if float(np.max(np.abs(cov - cov.T))) > 1e-10 * scale:
        raise ValueError("cov must be symmetric")
    w, v = np.linalg.eigh(0.5 * (cov + cov.T))
    if w[0] <= 0.0:
        raise ValueError(f"cov must be positive definite, smallest eigenvalue {w[0]:g}")
    order = slice(None, None, -1)  # eigh returns ascending
    return w[order].copy(), (v.T @ beta)[order].copy()
