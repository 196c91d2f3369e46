"""Synthetic data generation and least-squares estimators in spectral coordinates.

Datasets are sampled directly in the basis that diagonalizes the population
covariance: feature j of every row is N(0, lambda_j) independent, labels are
x.beta plus N(0, sigma^2) noise. The fit is the minimum-norm least-squares
solution, which below p rows is the min-norm interpolator this package's risk
formulas describe, and at or above p rows is ordinary least squares.

The fit solves through the smaller Gram matrix G (X X^T below p rows, X^T X
otherwise) when a shifted Cholesky factorization certifies
trace(G) / lambda_min(G) <= GRAM_COND_LIMIT, rounding included. Every other
input falls back to the SVD solver `np.linalg.lstsq`. Which route ran is
recorded in `EstimatorOutput.route`.

Seeding is explicit everywhere. Child seeds are derived from (parent seed,
stage index, trial index) with splitmix64-style mixing, so trial fan-out is
order-independent and every artifact is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import as_spectrum

STAGE_ROOT = 0
STAGE_SURROGATE = 1
STAGE_TARGET = 2

_MASK64 = (1 << 64) - 1

# The Gram route runs only where trace(G) / lambda_min(G) is certified at most
# this, so cond(X) <= 1e4: far from lstsq's rank cutoff
# (sigma_min / sigma_max <= max(rows, p) * eps), so the rank is min(rows, p).
# The Gram solve loses about cond(G) * eps where lstsq loses cond(X) * eps; at
# this limit the excess risk stays within about 1e-9 relative of lstsq's.
GRAM_COND_LIMIT = 1e8
_UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2.0


def _splitmix64(state: int) -> int:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(parent_seed: int, stage: int, trial: int) -> int:
    """Mix (parent seed, stage index, trial index) into a fresh 64-bit seed."""
    state = int(parent_seed) & _MASK64
    for word in (int(stage), int(trial)):
        state = _splitmix64(state ^ _splitmix64(word & _MASK64))
    return state


@dataclass(frozen=True, eq=False)
class Dataset:
    """A sampled design matrix with labels and the seed that produced them."""

    design: np.ndarray
    labels: np.ndarray
    seed: int

    @property
    def rows(self) -> int:
        return int(self.design.shape[0])


@dataclass(frozen=True, eq=False)
class EstimatorOutput:
    fitted: np.ndarray
    regime: str
    rank: int
    rank_deficient: bool
    route: str  # "gram" or "lstsq"


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A full two-stage problem: target/surrogate spectra, signal, noise, sizes.

    Attributes:
        spectrum_t: target covariance eigenvalues (non-increasing, positive).
        spectrum_s: surrogate-stage covariance eigenvalues, same length.
        beta_star: ground-truth signal in the shared diagonalizing basis.
        sigma_t_sq: target-stage label noise variance, >= 0.
        sigma_s_sq: surrogate-stage label noise variance, >= 0.
        n: target-stage sample count.
        m: surrogate-stage sample count.
    """

    spectrum_t: np.ndarray
    spectrum_s: np.ndarray
    beta_star: np.ndarray
    sigma_t_sq: float
    sigma_s_sq: float
    n: int
    m: int

    def __post_init__(self):
        lam_t = as_spectrum(self.spectrum_t)
        lam_s = as_spectrum(self.spectrum_s)
        beta = np.asarray(self.beta_star, dtype=np.float64)
        if lam_s.size != lam_t.size or beta.size != lam_t.size or beta.ndim != 1:
            raise ValueError(
                "spectrum_t, spectrum_s and beta_star must share one length, got "
                f"{lam_t.size}, {lam_s.size}, {beta.shape}"
            )
        if self.sigma_t_sq < 0.0 or self.sigma_s_sq < 0.0:
            raise ValueError("noise variances must be >= 0")
        if self.n < 1 or self.m < 1:
            raise ValueError(f"sample counts must be >= 1, got n={self.n}, m={self.m}")
        object.__setattr__(self, "spectrum_t", lam_t)
        object.__setattr__(self, "spectrum_s", lam_s)
        object.__setattr__(self, "beta_star", beta)

    @property
    def p(self) -> int:
        return int(self.spectrum_t.size)


def sample_dataset(spectrum, beta, sigma_sq: float, count: int, seed: int) -> Dataset:
    """Draw `count` rows with independent N(0, lambda_j) features and noisy labels.

    Labels are design @ beta + N(0, sigma_sq). With sigma_sq = 0 the noise draw
    still consumes the generator (scaled by exactly 0.0), so labels are exact
    and seed alignment across noise levels is preserved.
    """
    lam = as_spectrum(spectrum)
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != lam.shape:
        raise ValueError(f"beta has shape {beta.shape}, spectrum has {lam.shape}")
    if sigma_sq < 0.0:
        raise ValueError(f"sigma_sq must be >= 0, got {sigma_sq}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(int(seed) & _MASK64)
    design = rng.standard_normal((count, lam.size)) * np.sqrt(lam)[None, :]
    noise = rng.standard_normal(count) * np.sqrt(sigma_sq)
    labels = design @ beta + noise
    return Dataset(design=design, labels=labels, seed=int(seed))


def _gram_solve(design: np.ndarray, labels: np.ndarray) -> np.ndarray | None:
    """Min-norm solution through the smaller Gram matrix, or None if not certified.

    With G = X X^T (rows < p) the solution is X^T G^-1 y, with G = X^T X it is
    G^-1 X^T y. The certificate (Rump, "Verification of positive
    definiteness", BIT 2006): forming G and factoring G - shift*I in floating
    point move eigenvalues by at most `slack`, so a Cholesky factorization of
    G - (floor + slack)*I that completes proves lambda_min(G) >= floor.
    """
    rows, p = design.shape
    wide = rows < p
    gram = design @ design.T if wide else design.T @ design
    trace = float(np.trace(gram))
    if not (np.isfinite(trace) and trace > 0.0):
        return None
    floor = trace / GRAM_COND_LIMIT
    slack = 2.0 * (rows + p + 2) * _UNIT_ROUNDOFF * trace
    diagonal = gram.diagonal().copy()
    np.fill_diagonal(gram, diagonal - (floor + slack))
    try:
        np.linalg.cholesky(gram)  # only success matters; the factor is dropped
    except np.linalg.LinAlgError:
        return None
    np.fill_diagonal(gram, diagonal)
    if wide:
        return design.T @ np.linalg.solve(gram, labels)
    return np.linalg.solve(gram, design.T @ labels)


def fit(design: np.ndarray, labels: np.ndarray) -> EstimatorOutput:
    """Minimum-norm least-squares fit of labels on design.

    Below p rows the result is the minimum-norm interpolator; at or above p
    rows it is ordinary least squares. The solve goes through the smaller
    Gram matrix when its conditioning is certified well inside
    GRAM_COND_LIMIT (route "gram": full rank by construction). Otherwise it
    falls back to the SVD-based solver with singular values below
    sigma_max * max(rows, p) * eps treated as zero (route "lstsq"). Rank
    deficiency is reported, not fatal; a non-finite design raises
    `np.linalg.LinAlgError` from the SVD.
    """
    design = np.asarray(design, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if design.ndim != 2 or labels.ndim != 1 or labels.size != design.shape[0]:
        raise ValueError(
            f"design must be 2-D with one label per row, got {design.shape} and {labels.shape}"
        )
    rows, p = design.shape
    regime = "min-norm-interpolator" if rows < p else "ordinary-least-squares"
    fitted = _gram_solve(design, labels)
    if fitted is not None:
        return EstimatorOutput(
            fitted=fitted, regime=regime, rank=min(rows, p), rank_deficient=False, route="gram"
        )
    fitted, _, rank, _ = np.linalg.lstsq(design, labels, rcond=None)
    return EstimatorOutput(
        fitted=fitted,
        regime=regime,
        rank=int(rank),
        rank_deficient=bool(rank < min(rows, p)),
        route="lstsq",
    )


def surrogate_to_target_fit(
    spectrum, beta_s, sigma_sq: float, count: int, seed: int
) -> EstimatorOutput:
    """Second-stage fit against labels generated by a fixed surrogate vector.

    Samples a fresh dataset whose labels are design @ beta_s plus
    N(0, sigma_sq) noise, then fits it. This is the entry point for pipelines
    where the surrogate is designed (not itself estimated).
    """
    ds = sample_dataset(spectrum, beta_s, sigma_sq, count, seed)
    return fit(ds.design, ds.labels)


def two_stage_fit(
    inst: ProblemInstance,
    seed: int,
    trial: int = 0,
    distill_noiseless: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the full surrogate-then-target pipeline for one trial.

    Stage one fits beta_s on m rows drawn from spectrum_s with ground-truth
    labels (noise sigma_s_sq). Stage two fits on n fresh rows drawn from
    spectrum_t with labels produced by beta_s plus fresh noise sigma_t_sq,
    or exactly zero noise when distill_noiseless is set.

    Returns:
        (beta_s, beta_s_to_t), the stage-one and stage-two fitted vectors.
    """
    seed_s = derive_seed(seed, STAGE_SURROGATE, trial)
    seed_t = derive_seed(seed, STAGE_TARGET, trial)
    stage1 = sample_dataset(inst.spectrum_s, inst.beta_star, inst.sigma_s_sq, inst.m, seed_s)
    beta_s = fit(stage1.design, stage1.labels).fitted
    del stage1  # free the stage-one design before stage two allocates its own
    sigma_t = 0.0 if distill_noiseless else inst.sigma_t_sq
    stage2 = surrogate_to_target_fit(inst.spectrum_t, beta_s, sigma_t, inst.n, seed_t)
    return beta_s, stage2.fitted


def empirical_excess_risk(beta_hat, beta_star, spectrum) -> float:
    """Population excess risk sum_i lambda_i * (beta_hat_i - beta_star_i)^2."""
    lam = as_spectrum(spectrum)
    beta_hat = np.asarray(beta_hat, dtype=np.float64)
    beta_star = np.asarray(beta_star, dtype=np.float64)
    if beta_hat.shape != lam.shape or beta_star.shape != lam.shape:
        raise ValueError("beta_hat, beta_star and spectrum must share one length")
    diff = beta_hat - beta_star
    return float(np.sum((lam * diff**2)[::-1]))


def apply_mask(beta, support) -> np.ndarray:
    """Zero out every coordinate of beta outside `support` (0-based indices)."""
    beta = np.asarray(beta, dtype=np.float64)
    idx = sorted(int(i) for i in support)
    for i in idx:
        if i < 0 or i >= beta.size:
            raise IndexError(f"mask index {i} out of range for length {beta.size}")
    masked = np.zeros_like(beta)
    if idx:
        masked[idx] = beta[idx]
    return masked
