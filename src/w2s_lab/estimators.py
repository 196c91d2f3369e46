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
recorded in `EstimatorOutput.route`. Label vectors that share a design (a
(k, p) stack of coefficient vectors in `sample_dataset`, (rows, k) labels in
`fit`) share its draw, its certified Gram matrix and one multi-column solve,
so a fitted column matches the one-column fit to rounding, not bit for bit.
A one-column solve against a mid-size Gram matrix (126 to 500 rows) is padded
with zero columns so that numpy releases the GIL and trial workers overlap.

Seeding is explicit everywhere. Child seeds are derived from (parent seed,
stage index, trial index) with splitmix64-style mixing, so trial fan-out is
order-independent and every artifact is reproducible bit for bit. A seed's
draw of c rows is a prefix of its draw of more rows, so a sweep draws once
per trial and stage, at its largest count (`sample_prefixes`,
`two_stage_sweep`), bit for bit what each count's own draw gives.
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

# np.linalg.solve holds the GIL when its output has at most this many entries,
# so one-column solves in concurrent trial workers run one at a time. A
# one-column solve with Gram size m in [_WIDEN_MIN_GRAM, _GIL_HELD_ENTRIES]
# is widened with zero columns past that size. The lower end is measured on
# one thread: a widened 30-row solve (verify's tiny fits) takes 24 us against
# 13 us and overlaps no better, while widened 240- and 285-row solves cost
# what the plain ones do (0.5-1.1 ms).
_GIL_HELD_ENTRIES = 500
_WIDEN_MIN_GRAM = 126


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
    """A sampled design matrix with its labels."""

    design: np.ndarray
    labels: np.ndarray


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


def sample_prefixes(spectrum, betas, sigma_sq: float, counts, seed: int) -> list[Dataset]:
    """Datasets of counts[i] rows labelled by betas[i], all read from one seeded draw.

    The seed's stream of standard normals is drawn once, at the largest count
    C: a (C, p) design followed by C noise draws. The dataset of count c
    reads the design's first c rows and the c normals after its first c * p
    as noise, exactly the draws a single call for c rows makes. Each dataset
    therefore equals `sample_dataset` with count c and betas[i] alone, bit
    for bit, and its design is a view of the shared (C, p) design.

    counts may be unsorted and repeat; betas has one (p,) vector or (k, p)
    stack per count, labelled as in `sample_dataset`.
    """
    lam = as_spectrum(spectrum)
    if len(counts) == 0 or len(betas) != len(counts):
        raise ValueError(f"need one beta per count, got {len(betas)} and {len(counts)}")
    if sigma_sq < 0.0:
        raise ValueError(f"sigma_sq must be >= 0, got {sigma_sq}")
    if min(counts) < 1:
        raise ValueError(f"count must be >= 1, got {min(counts)}")
    p, top = lam.size, max(counts)
    rng = np.random.default_rng(int(seed) & _MASK64)
    stream = rng.standard_normal(top * p + top)
    # a smaller count's noise lies inside the top design: copy it before scaling
    scale = np.sqrt(sigma_sq)
    noise = [stream[count * p : count * p + count] * scale for count in counts]
    design = stream[: top * p].reshape(top, p)
    design *= np.sqrt(lam)
    datasets = []
    for beta, count, count_noise in zip(betas, counts, noise):
        beta = np.asarray(beta, dtype=np.float64)
        if beta.ndim not in (1, 2) or beta.shape[-1:] != lam.shape or beta.size == 0:
            raise ValueError(f"beta has shape {beta.shape}, spectrum has {lam.shape}")
        rows = design[:count]
        if beta.ndim == 1:
            labels = rows @ beta + count_noise
        else:
            labels = np.stack([rows @ column + count_noise for column in beta], axis=1)
        datasets.append(Dataset(design=rows, labels=labels))
    return datasets


def sample_dataset(spectrum, beta, sigma_sq: float, count: int, seed: int) -> Dataset:
    """Draw `count` rows with independent N(0, lambda_j) features and noisy labels.

    Labels are design @ beta + N(0, sigma_sq). With sigma_sq = 0 the noise draw
    still consumes the generator (scaled by exactly 0.0), so labels are exact
    and seed alignment across noise levels is preserved. This is the
    one-count case of `sample_prefixes`.

    beta may be one (p,) vector or a (k, p) stack. A stack shares one design
    and one noise draw, and labels is then (count, k) with column j computed
    exactly as the call with beta[j] alone computes its labels, bit for bit.
    """
    return sample_prefixes(spectrum, [beta], sigma_sq, [count], seed)[0]


def _gram_solve(design: np.ndarray, labels: np.ndarray) -> np.ndarray | None:
    """Min-norm solution through the smaller Gram matrix, or None if not certified.

    G is formed, certified and factored once for all label columns: labels is
    (rows,) or (rows, k), as `b` in np.linalg.solve. A one-column right-hand
    side of Gram size m = min(rows, p) with _WIDEN_MIN_GRAM <= m <=
    _GIL_HELD_ENTRIES is solved as column 0 of an
    (m, _GIL_HELD_ENTRIES // m + 1) array, zeros elsewhere, so the solve
    releases the GIL. The choice depends on m alone, never on the worker
    count, and (rows,) and (rows, 1) labels take the same path.

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
    rhs = labels if wide else design.T @ labels
    size = gram.shape[0]
    if rhs.size == size and _WIDEN_MIN_GRAM <= size <= _GIL_HELD_ENTRIES:
        widened = np.zeros((size, _GIL_HELD_ENTRIES // size + 1))
        widened[:, 0] = rhs.ravel()
        solved = np.linalg.solve(gram, widened)[:, 0].reshape(rhs.shape)
    else:
        solved = np.linalg.solve(gram, rhs)
    return design.T @ solved if wide else solved


def fit(design: np.ndarray, labels: np.ndarray) -> EstimatorOutput:
    """Minimum-norm least-squares fit of labels on design.

    Below p rows the result is the minimum-norm interpolator; at or above p
    rows it is ordinary least squares. The solve goes through the smaller
    Gram matrix when its conditioning is certified well inside
    GRAM_COND_LIMIT (route "gram": full rank by construction). Otherwise it
    falls back to the SVD-based solver with singular values below
    sigma_max * max(rows, p) * eps treated as zero (route "lstsq"). Rank
    deficiency is reported, not fatal.

    labels is (rows,) or (rows, k), as `b` in np.linalg.solve, and fitted is
    then (p,) or (p, k). The route, rank and rank_deficient depend on the
    design alone, so k columns share one Gram product, one certificate and
    one solve; a fitted column matches that column's own fit to rounding, and
    (rows, 1) labels fit bit for bit as (rows,). Non-finite labels raise
    ValueError on every route. A non-finite design never passes the Gram
    certificate and raises ValueError before the SVD.
    """
    design = np.asarray(design, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if (
        design.ndim != 2
        or labels.ndim not in (1, 2)
        or labels.shape[0] != design.shape[0]
        or labels.shape[1:] == (0,)
    ):
        raise ValueError(
            f"design must be 2-D with one label per row, got {design.shape} and {labels.shape}"
        )
    if not np.isfinite(labels).all():
        raise ValueError("labels must be finite, got a NaN or inf entry")
    rows, p = design.shape
    regime = "min-norm-interpolator" if rows < p else "ordinary-least-squares"
    fitted = _gram_solve(design, labels)
    if fitted is not None:
        route, rank = "gram", min(rows, p)
    else:
        if not np.isfinite(design).all():
            raise ValueError("design must be finite, got a NaN or inf entry")
        fitted, _, rank, _ = np.linalg.lstsq(design, labels, rcond=None)
        route = "lstsq"
    return EstimatorOutput(
        fitted=fitted,
        regime=regime,
        rank=int(rank),
        rank_deficient=bool(rank < min(rows, p)),
        route=route,
    )


def two_stage_sweep(
    insts, seed: int, trial: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Run the surrogate-then-target pipeline of one trial at every sweep point.

    insts are ProblemInstances that differ only in n and m. Stage one fits
    beta_s on m rows drawn from spectrum_s with ground-truth labels (noise
    sigma_s_sq), once per distinct m, all m reading prefixes of one draw.
    That draw is freed before stage two draws once for every point and fits
    n fresh rows from spectrum_t labelled by the point's beta_s plus fresh
    noise sigma_t_sq (an instance with sigma_t_sq = 0 distills without
    noise). Every point gets the vectors its own one-point sweep gets, bit
    for bit.

    Returns:
        (beta_s, beta_s_to_t) per instance, the stage-one and stage-two fits.
    """
    insts = list(insts)
    if not insts:
        raise ValueError("a sweep needs at least one ProblemInstance")
    first = insts[0]
    for inst in insts[1:]:
        if not (
            np.array_equal(inst.spectrum_s, first.spectrum_s)
            and np.array_equal(inst.spectrum_t, first.spectrum_t)
            and np.array_equal(inst.beta_star, first.beta_star)
            and inst.sigma_s_sq == first.sigma_s_sq
            and inst.sigma_t_sq == first.sigma_t_sq
        ):
            raise ValueError("sweep points must differ only in n and m")
    ms = sorted({inst.m for inst in insts})
    stage1 = sample_prefixes(
        first.spectrum_s,
        [first.beta_star] * len(ms),
        first.sigma_s_sq,
        ms,
        derive_seed(seed, STAGE_SURROGATE, trial),
    )
    beta_s = {m: fit(ds.design, ds.labels).fitted for m, ds in zip(ms, stage1)}
    del stage1  # free the stage-one draw before stage two allocates its own
    stage2 = sample_prefixes(
        first.spectrum_t,
        [beta_s[inst.m] for inst in insts],
        first.sigma_t_sq,
        [inst.n for inst in insts],
        derive_seed(seed, STAGE_TARGET, trial),
    )
    return [(beta_s[inst.m], fit(ds.design, ds.labels).fitted) for inst, ds in zip(insts, stage2)]


def two_stage_fit(
    inst: ProblemInstance, seed: int, trial: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Run the full surrogate-then-target pipeline for one trial.

    The one-point case of `two_stage_sweep`: stage one fits beta_s on m rows
    drawn from spectrum_s, stage two fits on n fresh rows from spectrum_t
    labelled by beta_s.

    Returns:
        (beta_s, beta_s_to_t), the stage-one and stage-two fitted vectors.
    """
    return two_stage_sweep([inst], seed, trial)[0]


def empirical_excess_risk(beta_hat, beta_star, spectrum) -> float:
    """Population excess risk sum_i lambda_i * (beta_hat_i - beta_star_i)^2."""
    lam = as_spectrum(spectrum)
    beta_hat = np.asarray(beta_hat, dtype=np.float64)
    beta_star = np.asarray(beta_star, dtype=np.float64)
    if beta_hat.shape != lam.shape or beta_star.shape != lam.shape:
        raise ValueError("beta_hat, beta_star and spectrum must share one length")
    diff = beta_hat - beta_star
    return float(np.sum((lam * diff**2)[::-1]))
