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
`fit_block` fits a (B, rows, p) stack of designs in stacked numpy calls (one
Gram product, one certificate Cholesky and one solve for the stack), and
`fit` is its block of one, so every item gets the bits, route and rank `fit`
gives it alone.

Seeding is explicit everywhere. Child seeds are derived from (parent seed,
stage index, trial index) with splitmix64-style mixing, so trial fan-out is
order-independent and every artifact is reproducible bit for bit. A seed's
draw of c rows is a prefix of its draw of more rows, so a sweep draws once
per trial and stage, at its largest count, bit for bit what each count's own
draw gives. A trial block (`trial_blocks`) runs consecutive trials of a
small shape together: each trial's generator fills one row of a stacked draw
(`sample_block`, `two_stage_block`; `sample_dataset` and `two_stage_fit` are
their one-trial cases), so every trial keeps its own stream and its own bits.

`sample_block`, `fit_block` and `two_stage_block` draw and form Gram stacks
in an optional `Workspace`. The Monte Carlo engine gives each worker one per
call, whose buffers every block of that worker reuses, so large trials stop
faulting in fresh pages. Without one a call makes its own, so no array a
one-off call returns aliases a buffer that a later call overwrites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import _as_coefficients, _as_count, _check_noise, as_spectrum

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

# A trial block's stacked draw holds at most this many bytes of normals (one
# trial at least). verify's 30 x 80 trials run 26 to a block; one 285 x 300
# trial (686 KB) runs alone, with the work and memory of an unblocked trial.
_TRIAL_BLOCK_BYTES = 512 * 1024

# Trial workers are OS threads; more than this would only contend for the GIL.
MAX_WORKERS = 64


def _splitmix64(state: int) -> int:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _as_seed(value, name: str) -> int:
    """The seed `name` as an int in [0, 2**64); others are refused, not truncated or wrapped."""
    if not (0 <= value <= _MASK64 and float(value).is_integer()):  # NaN fails the range
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {value}")
    return int(value)


def _as_workers(value, name: str) -> int:
    """The thread count `name` as an int in [1, MAX_WORKERS]; others are refused."""
    if _as_count(value, name) > MAX_WORKERS:
        raise ValueError(f"{name} must be <= {MAX_WORKERS}, got {value}")
    return int(value)


def derive_seed(parent_seed: int, stage: int, trial: int) -> int:
    """Mix (parent seed, stage index, trial index), each in [0, 2**64), into a fresh 64-bit seed."""
    state = _as_seed(parent_seed, "parent_seed")
    for word in (_as_seed(stage, "stage"), _as_seed(trial, "trial")):
        state = _splitmix64(state ^ _splitmix64(word))
    return state


def trial_blocks(trials: int, rows: int, p: int) -> list[range]:
    """Consecutive trial ranges covering range(trials), for trials that draw `rows` rows of p.

    A block holds B = max(1, _TRIAL_BLOCK_BYTES // (8 * stream)) trials, the last one
    fewer, for the stream of rows * p + rows normals that `_draw` fills. Every
    stacked item gets the bits it gets alone, so no output depends on B.
    """
    size = max(1, _TRIAL_BLOCK_BYTES // (8 * max(rows * p + rows, 1)))
    return [range(start, min(start + size, trials)) for start in range(0, trials, size)]


@dataclass(frozen=True, eq=False)
class Dataset:
    """A sampled design matrix with its labels.

    design is (rows, p) and labels (rows,) or (rows, k); a trial block's
    datasets put the trial first: (B, rows, p) and (B, rows) or (B, rows, k).
    """

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
class BlockFit:
    """Per-item results of `fit_block`: item i is what `fit` gives design i alone."""

    fitted: np.ndarray  # (B, p) or (B, p, k)
    rank: np.ndarray  # (B,) ints
    rank_deficient: np.ndarray  # (B,) bools
    route: np.ndarray  # (B,) "gram" or "lstsq"


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A full two-stage problem: target/surrogate spectra, signal, noise, sizes.

    Attributes:
        spectrum_t: target covariance eigenvalues (non-increasing, positive).
        spectrum_s: surrogate-stage covariance eigenvalues, same length.
        beta_star: ground-truth signal in the shared diagonalizing basis.
        sigma_t_sq: target-stage label noise variance, >= 0.
        sigma_s_sq: surrogate-stage label noise variance, >= 0.
        n: target-stage sample count, an integer >= 1 (stored as an int).
        m: surrogate-stage sample count, likewise.
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
        if lam_s.size != lam_t.size:
            raise ValueError(f"spectra must share one length, got {lam_t.size} and {lam_s.size}")
        beta = _as_coefficients(self.beta_star, lam_t.size, "beta_star")
        _check_noise(self.sigma_t_sq, "sigma_t_sq")
        _check_noise(self.sigma_s_sq, "sigma_s_sq")
        object.__setattr__(self, "n", _as_count(self.n, "n"))
        object.__setattr__(self, "m", _as_count(self.m, "m"))
        object.__setattr__(self, "spectrum_t", lam_t)
        object.__setattr__(self, "spectrum_s", lam_s)
        object.__setattr__(self, "beta_star", beta)

    @property
    def p(self) -> int:
        return int(self.spectrum_t.size)


class Workspace:
    """Reusable float64 buffers for the trial blocks one worker runs in one call.

    "draw" holds a block's stacked draw and "gram" its Gram stack. Each grows
    to the largest block it serves, and the next block overwrites it: arrays
    that leave a Monte Carlo call are fits and risks, never views of it.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple) -> np.ndarray:
        """A C-contiguous view of buffer `name` with `shape`, the buffer grown to fit first."""
        size = math.prod(shape)
        if name not in self._buffers or self._buffers[name].size < size:
            self._buffers.pop(name, None)  # let the old buffer go before its successor allocates
            self._buffers[name] = np.empty(size)
        return self._buffers[name][:size].reshape(shape)


def _draw(lam: np.ndarray, sigma_sq: float, counts, seeds, workspace: Workspace):
    """The stacked draw of a trial block: a (B, top, p) design and each count's noise.

    Row b of a (B, top * p + top) view of the workspace's "draw" buffer is
    filled by seeds[b]'s generator, the stream a single trial draws: its
    first top * p normals are the design, scaled in place by sqrt(lam), and
    count c's noise is the c normals after its first c * p, copied and
    scaled by sigma before the design is scaled.
    """
    p, top = lam.size, max(counts)
    stream = workspace.take("draw", (len(seeds), top * p + top))
    for row, seed in zip(stream, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    scale = np.sqrt(sigma_sq)
    noise = [stream[:, count * p : count * p + count] * scale for count in counts]
    design = stream[:, : top * p].reshape(len(seeds), top, p)
    design *= np.sqrt(lam)
    return design, noise


def _labels(rows: np.ndarray, beta: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """rows @ beta + noise per item: beta is one (p,) vector, or one per item (B, p)."""
    return (rows @ beta[..., None])[..., 0] + noise


def sample_block(
    spectrum, betas, sigma_sq: float, counts, seeds, workspace: Workspace | None = None
) -> list[Dataset]:
    """Datasets of counts[i] rows labelled by betas[i] for a block of trials.

    Trial b reads seeds[b]'s stream, drawn once at the largest count: the
    dataset of count c takes the design's first c rows and the c normals
    after its first c * p as noise, so item b equals `sample_dataset` with
    count c, betas[i] and seeds[b], bit for bit. Designs are (B, c, p) views
    of one stacked draw in the workspace's draw buffer (a workspace of the
    call's own without one), which the workspace's next draw overwrites.

    counts may be unsorted and repeat. betas has one entry per count, shared
    by every trial: a (p,) vector gives (B, c) labels, a (k, p) stack gives
    (B, c, k) labels whose column j is beta[j]'s labels, one noise draw for all.
    A wrong shape, an empty stack or a NaN or inf entry raises ValueError
    before anything is drawn, as does a count that is not an integer >= 1 or
    a seed that is not an integer in [0, 2**64).
    """
    lam = as_spectrum(spectrum)
    if len(counts) == 0 or len(betas) != len(counts):
        raise ValueError(f"need one beta per count, got {len(betas)} and {len(counts)}")
    _check_noise(sigma_sq, "sigma_sq")
    counts = [_as_count(count, "count") for count in counts]
    if len(seeds) == 0:
        raise ValueError("a trial block needs at least one seed")
    seeds = [_as_seed(seed, "seed") for seed in seeds]
    betas = [np.asarray(beta, dtype=np.float64) for beta in betas]
    for beta in betas:  # each vector and each row of a stack; an empty stack as a whole
        for row in beta if beta.ndim == 2 and len(beta) else [beta]:
            _as_coefficients(row, lam.size, "beta")
    design, noise = _draw(lam, sigma_sq, counts, seeds, workspace or Workspace())
    datasets = []
    for beta, count, count_noise in zip(betas, counts, noise):
        rows = design[:, :count]
        if beta.ndim == 1:
            labels = _labels(rows, beta, count_noise)
        else:
            labels = np.stack([_labels(rows, column, count_noise) for column in beta], axis=-1)
        datasets.append(Dataset(design=rows, labels=labels))
    return datasets


def sample_dataset(spectrum, beta, sigma_sq: float, count: int, seed: int) -> Dataset:
    """Draw `count` rows with independent N(0, lambda_j) features and noisy labels.

    Labels are design @ beta + N(0, sigma_sq). With sigma_sq = 0 the noise draw
    still consumes the generator (scaled by exactly 0.0), so labels are exact
    and seed alignment across noise levels is preserved. This is item 0 of
    the one-count, one-seed `sample_block`.

    beta may be one (p,) vector or a (k, p) stack. A stack shares one design
    and one noise draw, and labels is then (count, k) with column j computed
    exactly as the call with beta[j] alone computes its labels, bit for bit.
    """
    (ds,) = sample_block(spectrum, [beta], sigma_sq, [count], [seed])
    return Dataset(design=ds.design[0], labels=ds.labels[0])


def _certify(gram: np.ndarray, dims: int) -> np.ndarray:
    """Which Gram matrices of a (B, m, m) stack pass the certificate, per item.

    dims is rows + p + 2. The certificate (Rump, "Verification of positive
    definiteness", BIT 2006): forming G and factoring G - shift*I in floating
    point move eigenvalues by at most `slack`, so a Cholesky factorization of
    G - (floor + slack)*I that completes proves lambda_min(G) >= floor, with
    floor = trace(G) / GRAM_COND_LIMIT. One stacked factorization certifies
    the block; if it fails, each item is factored alone. The diagonals are
    shifted in place and restored, so gram comes back as formed.
    """
    # the diagonals of the C-contiguous stack, as a writable view
    diagonal = gram.reshape(len(gram), -1)[:, :: gram.shape[-1] + 1]
    formed = diagonal.copy()
    trace = formed.sum(axis=1)
    passed = np.isfinite(trace) & (trace > 0.0)
    floor, slack = trace / GRAM_COND_LIMIT, 2.0 * dims * _UNIT_ROUNDOFF * trace
    diagonal -= np.where(passed, floor + slack, 0.0)[:, None]
    try:
        np.linalg.cholesky(gram if passed.all() else gram[passed])  # success is all that counts
    except np.linalg.LinAlgError:
        items = np.flatnonzero(passed)
        passed[items] = False  # a lone item's own factorization has just failed
        for item in items if items.size > 1 else ():
            try:
                np.linalg.cholesky(gram[item])
                passed[item] = True
            except np.linalg.LinAlgError:
                pass
    diagonal[...] = formed
    return passed


def _gram_fit(designs: np.ndarray, columns: np.ndarray, gram: np.ndarray, wide: bool):
    """Min-norm solutions of (B, rows, p) designs and (B, rows, k) label columns.

    With G = X X^T (rows < p) the solution is X^T G^-1 y, with G = X^T X it
    is G^-1 X^T y. A one-column right-hand side of Gram size m with
    _WIDEN_MIN_GRAM <= m <= _GIL_HELD_ENTRIES is solved as column 0 of a
    (B, m, _GIL_HELD_ENTRIES // m + 1) stack, zeros elsewhere, so the solve
    releases the GIL. The choice depends on m and k alone, never on the
    worker count or the block size.
    """
    rhs = columns if wide else designs.mT @ columns
    size = gram.shape[-1]
    if rhs.shape[-1] == 1 and _WIDEN_MIN_GRAM <= size <= _GIL_HELD_ENTRIES:
        widened = np.zeros(gram.shape[:-1] + (_GIL_HELD_ENTRIES // size + 1,))
        widened[..., 0] = rhs.reshape(gram.shape[:-1])
        solved = np.linalg.solve(gram, widened)[..., 0].reshape(rhs.shape)
    else:
        solved = np.linalg.solve(gram, rhs)
    return designs.mT @ solved if wide else solved


def _check_shapes(design: np.ndarray, labels: np.ndarray, block: int) -> None:
    """Refuse a design and labels that do not fit, naming the shapes as given.

    block is the number of leading block axes: 0 for `fit`'s (rows, p) design
    with (rows,) or (rows, k) labels, 1 for `fit_block`'s (B, rows, p) stack.
    """
    if (
        design.ndim != 2 + block
        or labels.ndim not in (1 + block, 2 + block)
        or labels.shape[: 1 + block] != design.shape[: 1 + block]
        or labels.shape[1 + block :] == (0,)
    ):
        raise ValueError(
            "a design must be (rows, p), or (B, rows, p) in a block, with one label per row, "
            f"got shapes {design.shape} and {labels.shape}"
        )


def fit_block(designs, labels, workspace: Workspace | None = None) -> BlockFit:
    """Minimum-norm least-squares fits of a (B, rows, p) stack of designs.

    labels is (B, rows) or (B, rows, k), else ValueError (the shape check
    `fit` shares); fitted is then (B, p) or (B, p, k). The stack shares one Gram
    product (syrk per item), one shifted Cholesky that certifies every item, and
    one solve of the (B, rows, k) label columns; an item that fails the
    certificate alone falls back to lstsq on its own columns. Every stacked call
    gives each item the bits it gives a block of one, so item i's fitted, rank,
    rank_deficient and route are what `fit(designs[i], labels[i])` gives, bit
    for bit, whatever else the block holds. Non-finite labels in any item raise
    ValueError; a non-finite design never passes the certificate and raises
    ValueError before the SVD. The Gram stack is formed in the workspace's gram
    buffer (or the call's own); no returned array views it.
    """
    designs = np.asarray(designs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    _check_shapes(designs, labels, 1)
    if not np.isfinite(labels).all():
        raise ValueError("labels must be finite, got a NaN or inf entry")
    count, rows, p = designs.shape
    wide = rows < p
    factor = designs if wide else designs.mT  # G = factor @ factor^T, syrk per item
    size = factor.shape[1]
    gram = (workspace or Workspace()).take("gram", (count, size, size))
    np.matmul(factor, factor.mT, out=gram)
    certified = _certify(gram, rows + p + 2)
    rank = np.full(count, min(rows, p))
    columns = labels.reshape(count, rows, -1)
    every = certified.all()
    items = slice(None) if every else certified  # a view of the whole stack when all pass
    fitted = _gram_fit(designs[items], columns[items], gram[items], wide)
    if not every:
        solved, fitted = fitted, np.empty((count, p, columns.shape[-1]))
        fitted[certified] = solved
        for item in np.flatnonzero(~certified):
            if not np.isfinite(designs[item]).all():
                raise ValueError("design must be finite, got a NaN or inf entry")
            fitted[item], _, rank[item], _ = np.linalg.lstsq(
                designs[item], columns[item], rcond=None
            )
    return BlockFit(
        fitted=fitted.reshape((count, p) + labels.shape[2:]),
        rank=rank,
        rank_deficient=rank < min(rows, p),
        route=np.where(certified, "gram", "lstsq"),
    )


def fit(design: np.ndarray, labels: np.ndarray) -> EstimatorOutput:
    """Minimum-norm least-squares fit of labels on design.

    Below p rows the result is the minimum-norm interpolator; at or above p
    rows it is ordinary least squares. The solve goes through the smaller
    Gram matrix when its conditioning is certified well inside
    GRAM_COND_LIMIT (route "gram": full rank by construction). Otherwise it
    falls back to the SVD-based solver with singular values below
    sigma_max * max(rows, p) * eps treated as zero (route "lstsq"). Rank
    deficiency is reported, not fatal. This is the one-item case of
    `fit_block`, and the same shape check refuses a design or labels of the
    wrong shape, naming the shapes as given.

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
    _check_shapes(design, labels, 0)  # before the block axis, so the message names these shapes
    block = fit_block(design[None], labels[None])
    rows, p = design.shape
    return EstimatorOutput(
        fitted=block.fitted[0],
        regime="min-norm-interpolator" if rows < p else "ordinary-least-squares",
        rank=int(block.rank[0]),
        rank_deficient=bool(block.rank_deficient[0]),
        route=str(block.route[0]),
    )


def two_stage_block(
    insts, seed: int, trials, workspace: Workspace | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Run the surrogate-then-target pipeline of a block of trials at every sweep point.

    insts are ProblemInstances that differ only in n and m; trials is a
    sequence of trial indices. Stage one fits beta_s on m rows drawn from
    spectrum_s with ground-truth labels (noise sigma_s_sq), once per distinct
    m, all m reading prefixes of one stacked draw. Stage two then draws once
    for every point, into the same buffer, and fits n fresh rows from
    spectrum_t labelled by the trial's own beta_s plus fresh noise sigma_t_sq
    (an instance with sigma_t_sq = 0 distills without noise). Row b of every
    result is what the one-trial block [trials[b]] gives, and every point
    what its own one-point sweep gives, bit for bit. Both stages draw into
    the workspace's one draw buffer (or the call's own); no result views it.

    Returns:
        (beta_s, beta_s_to_t) per instance, each (B, p): the stage-one and
        stage-two fits.
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
    workspace = workspace or Workspace()
    ms = sorted({inst.m for inst in insts})
    # stage one's datasets live only inside this comprehension, so a larger
    # stage-two draw replaces the draw buffer instead of joining it
    beta_s = {
        m: fit_block(ds.design, ds.labels, workspace).fitted
        for m, ds in zip(
            ms,
            sample_block(
                first.spectrum_s,
                [first.beta_star] * len(ms),
                first.sigma_s_sq,
                ms,
                [derive_seed(seed, STAGE_SURROGATE, t) for t in trials],
                workspace,
            ),
        )
    }
    design, noise = _draw(
        first.spectrum_t,
        first.sigma_t_sq,
        [inst.n for inst in insts],
        [derive_seed(seed, STAGE_TARGET, t) for t in trials],
        workspace,
    )
    results = []
    for inst, point_noise in zip(insts, noise):
        rows = design[:, : inst.n]
        labels = _labels(rows, beta_s[inst.m], point_noise)
        results.append((beta_s[inst.m], fit_block(rows, labels, workspace).fitted))
    return results


def two_stage_fit(
    inst: ProblemInstance, seed: int, trial: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Run the full surrogate-then-target pipeline for one trial.

    Row 0 of the one-instance, one-trial `two_stage_block`: stage one fits
    beta_s on m rows drawn from spectrum_s, stage two fits on n fresh rows
    from spectrum_t labelled by beta_s.

    Returns:
        (beta_s, beta_s_to_t), the stage-one and stage-two fitted vectors.
    """
    ((beta_s, beta_s_to_t),) = two_stage_block([inst], seed, [trial])
    return beta_s[0], beta_s_to_t[0]


def excess_risks(betas: np.ndarray, beta_star: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """sum_i lam_i * (betas_i - beta_star_i)^2 over the last axis of (..., p) betas.

    lam is a validated spectrum and beta_star a validated (p,) vector. Each
    vector's sum runs as `empirical_excess_risk` runs it on that vector alone,
    bit for bit.
    """
    diff = np.subtract(betas, beta_star, order="C")
    return np.sum((lam * diff**2)[..., ::-1], axis=-1)


def empirical_excess_risk(beta_hat, beta_star, spectrum) -> float:
    """Population excess risk sum_i lambda_i * (beta_hat_i - beta_star_i)^2."""
    lam = as_spectrum(spectrum)
    beta_hat = _as_coefficients(beta_hat, lam.size, "beta_hat")
    beta_star = _as_coefficients(beta_star, lam.size, "beta_star")
    return float(excess_risks(beta_hat, beta_star, lam))
