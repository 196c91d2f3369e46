"""Covariance eigenstructure and the effective-regularization fixed point.

Everything downstream (risk oracles, surrogate designers, the Monte Carlo
harness) consumes covariances through their eigenvalue sequence in the
diagonalizing basis, sorted non-increasing. Given a spectrum and a sample
count n < p, the central object is the effective regularization tau: the
unique positive root of

    sum_i lambda_i / (lambda_i + tau) = n.

The left side is continuous and strictly decreasing in tau, from p (tau -> 0)
to 0 (tau -> infinity), so for n < p the root exists and is unique. From tau
we derive the shrinkage factors zeta_i = tau/(lambda_i + tau) and the
variance-inflation statistic Omega = (1/n) * sum_i (1 - zeta_i)^2, which
together parameterize every closed-form risk in this package. The statistics
store only scalars: zeta and 1 - zeta are exact functions of (lambda_i, tau),
so every consumer recomputes them leaf by leaf of one column tree, and a
division gives the same bits in any leaf order.

Every p-length formula runs on that tree: numpy's pairwise-summation tree
over the columns taken tail first, cut off at leaves of at most
_CHUNK_COLUMNS columns. A formula fills its terms one leaf at a time, sums
each leaf with np.sum, and _tail_first_sum adds the leaf sums in the tree's
order, so every sum has the bits of np.sum(terms[..., ::-1], axis=-1) over
the whole p-length terms, which are never held.

All functions here are eigenvalue-only (no p x p matrices), so p up to 1e7 is
practical for asymptotic checks: solve_tau on a power-law spectrum at p = 1e7
(alpha 1.5 or 3, n from 1e3 to 1e5) takes 2-3 full-spectrum passes from the
root of a coarse model of the residual, and 0.08-0.11 s on one core of a
2-CPU x86 VM (numpy 2.4), against 3-4 passes and 0.16-0.20 s from the flat
start. Each pass streams over the column tree through one (2, leaf) buffer,
so a solve holds no p-length work array. Sums over the
spectrum accumulate the tail first (smallest eigenvalues first) for
reproducible floating-point results when the tail is near the denormal
range.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

TAU_RTOL = 1e-12
TAU_ATOL = 1e-12
TAU_MAX_ITER = 200

_EPS = float(np.finfo(np.float64).eps)
_TINY = math.ulp(0.0)  # smallest positive (denormal) float

# Longest leaf of the column tree every p-length formula runs on
# (_tail_first_sum): one leaf of a row is at most 128 KiB, so no formula holds a
# p-length temporary at large p. The width changes no bit of any result as long
# as it is at least 128, the longest run numpy's pairwise summation adds
# without splitting it (PW_BLOCKSIZE): then every node the tree splits, numpy
# splits too.
_CHUNK_COLUMNS = 2**14

# Solves at p >= _COARSE_MIN_P start from the root of a coarse model of S(tau)
# (_coarse_root): the first _COARSE_HEAD eigenvalues and at most _COARSE_NODES
# weighted nodes of the rest. Below it the flat start is cheaper: a solve from
# the model took 0.85 of the flat start's time at p = 2**17 and 1.2 at 2**16.
_COARSE_MIN_P = 2**17
_COARSE_HEAD = 4096
_COARSE_NODES = 2**14


class NonConvergenceError(RuntimeError):
    """The fixed-point solver could not certify its bracket or tolerance."""


class HypothesisViolatedError(ValueError):
    """Inputs fall outside the hypothesis of a non-asymptotic bound."""


def as_spectrum(eigenvalues) -> np.ndarray:
    """Validate and return a spectrum as a float64 array.

    Requirements: one-dimensional, length >= 1, strictly positive entries,
    sorted non-increasing (ties allowed).
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.ndim != 1 or lam.size < 1:
        raise ValueError("spectrum must be a non-empty 1-D sequence")
    # One pass: non-increasing from a finite head to a positive tail bounds
    # every entry, and a NaN anywhere fails the comparison. A spectrum that
    # fails it goes through the separate checks, which name the fault.
    if not (math.isfinite(lam[0]) and lam[-1] > 0.0 and (lam[1:] <= lam[:-1]).all()):
        if not np.isfinite(lam).all() or not (lam > 0.0).all():
            raise ValueError("spectrum entries must be finite and > 0")
        if (lam[1:] > lam[:-1]).any():
            raise ValueError("spectrum must be sorted non-increasing")
    return lam


def _as_coefficients(values, p: int, name: str) -> np.ndarray:
    """Validate and return a coefficient vector `name` as a float64 array of shape (p,).

    The one check of every coefficient vector an entry point takes: any
    other shape, and a NaN or inf entry, raise ValueError naming the argument.
    """
    vector = np.asarray(values, dtype=np.float64)
    if vector.shape != (p,):
        raise ValueError(f"{name} has shape {vector.shape}, the spectrum has ({p},)")
    if not np.isfinite(vector).all():
        raise ValueError(f"{name} must be finite, got a NaN or inf entry")
    return vector


def _check_noise(sigma_sq, name: str) -> None:
    """Refuse a noise variance `name` that is not finite and >= 0 (NaN fails the comparison)."""
    if not 0.0 <= sigma_sq < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {sigma_sq}")


def _check_exponent(value, name: str) -> None:
    """Refuse a power-law exponent `name` that is not finite and > 1 (NaN fails the comparison)."""
    if not 1.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 1, got {value}")


def _as_count(value, name: str) -> int:
    """Return the count `name` as an int: the one check of every count an entry point takes.

    A non-integral value (NaN included) is refused, not truncated, and so is a value below 1
    or an int beyond float range, which float() would not convert.
    """
    if isinstance(value, int) and value > sys.float_info.max:  # an exact comparison
        raise ValueError(f"{name} must be at most {sys.float_info.max!r}, got {value}")
    if not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


def _leaf_width(p: int) -> int:
    """Longest leaf of the column tree over p columns: the size of a leaf buffer."""
    return min(p, _CHUNK_COLUMNS)


def _tail_first_sum(p: int, leaf_sum, stop: int | None = None):
    """Sum p columns of terms tail first, one leaf of the column tree at a time.

    The tree's one walker: a node of more than _CHUNK_COLUMNS columns splits
    as numpy's pairwise sum does, at n2 = n//2 - (n//2) % 8, its last n2
    columns first. leaf_sum(cols) returns np.sum(terms[..., cols][..., ::-1],
    axis=-1) for a leaf's column slice, or any stack of such sums. Adding the
    leaf sums in the tree's order gives np.sum(terms[..., ::-1], axis=-1) over
    all p columns bit for bit, without the p-length terms: numpy's add
    reduction starts from -0.0 and sums the reduced axis along the same tree,
    whose shape depends on its length alone.
    """
    stop = p if stop is None else stop
    if p <= _CHUNK_COLUMNS:
        return leaf_sum(slice(stop - p, stop))
    half = p // 2 - (p // 2) % 8
    return _tail_first_sum(half, leaf_sum, stop) + _tail_first_sum(p - half, leaf_sum, stop - half)


@dataclass(frozen=True, eq=False)
class SpectralStats:
    """Fixed-point statistics (tau, Omega) of a spectrum at sample count n.

    Attributes:
        tau: effective regularization, the positive fixed-point root.
        omega: (1/n) * sum (1 - zeta_i)^2, in (0, 1) whenever n < p.
        n: sample count the fixed point was solved at.
        eigenvalues: the spectrum the statistics belong to.
        iterations: full-spectrum residual passes the solve spent, each
            bracket-end check counted when it ran (ends are checked only
            when a bisection relies on them). The start is not counted:
            neither the coarse model's steps nor the flat start's tail sum
            is a full pass.
        residual: the certified signed residual sum lambda/(lambda+tau) - n,
            bit-identical to fixed_point_residual(eigenvalues, tau, n).

    The statistics hold no p-length array of their own. The shrinkage
    zeta_i = tau/(lambda_i + tau) and its complement lambda_i/(lambda_i + tau)
    are exact functions of (lambda_i, tau): the oracles recompute them leaf
    by leaf of the column tree, and zeta and one_minus_zeta() compute a fresh
    read-only array on every read, so no loop should read them per element.
    The oracles take these statistics in place of a spectrum. Only solve_tau
    marks its statistics as built from a validated spectrum; the oracles
    validate the eigenvalues of statistics built any other way.
    """

    tau: float
    omega: float
    n: int
    eigenvalues: np.ndarray
    iterations: int
    residual: float
    _validated: bool = field(default=False, repr=False)

    @property
    def p(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def zeta(self) -> np.ndarray:
        """Per-coordinate shrinkage tau/(lambda_i + tau), non-decreasing; read-only."""
        zeta = self.tau / (self.eigenvalues + self.tau)
        zeta.flags.writeable = False
        return zeta

    def one_minus_zeta(self) -> np.ndarray:
        """1 - zeta_i as lambda_i/(lambda_i + tau), so a tiny tail suffers no cancellation.

        Read-only, like zeta.
        """
        one_minus = self.eigenvalues / (self.eigenvalues + self.tau)
        one_minus.flags.writeable = False
        return one_minus


def _tolerance(n: int) -> float:
    """The residual tolerance solve_tau certifies at sample count n."""
    return TAU_ATOL + TAU_RTOL * n


def _r_terms(values: np.ndarray, tau: float, terms: np.ndarray) -> np.ndarray:
    """Fill the (2, w) terms with r = values/(values+tau) and r^2 in place, and return them."""
    np.add(values, tau, out=terms[1])
    np.divide(values, terms[1], out=terms[0])
    np.square(terms[0], out=terms[1])
    return terms


def _residual_into(lam: np.ndarray, tau: float, n: int, rows: np.ndarray) -> tuple[float, float]:
    """Signed residual S(tau) - n and sum r^2, with r = lambda/(lambda+tau), in one pass.

    The pass streams over the leaves of the column tree through rows, one
    (2, leaf) buffer: per leaf, _r_terms fills the rows with r and r^2, and
    both rows are summed tail first through a reversed view, whose sum has the
    bits of a sum over terms stored tail first.
    _tail_first_sum adds the leaf sums in the tree's order, so S and sum r^2
    have the bits of the whole tail-first np.sum of r and of r^2, and no
    p-length array is held. solve_tau certifies with this helper and
    fixed_point_residual reports with it, so the two agree bit for bit.
    """

    def leaf(cols: slice) -> np.ndarray:
        block = lam[cols]
        return _r_terms(block, tau, rows[:, : block.size])[:, ::-1].sum(axis=-1)

    total, sum_sq = _tail_first_sum(lam.size, leaf).tolist()
    return total - n, sum_sq


def fixed_point_residual(spectrum, tau: float, n: int) -> float:
    """Signed residual sum_i lambda_i/(lambda_i + tau) - n at a finite candidate tau > 0."""
    lam = as_spectrum(spectrum)
    tau = float(tau)
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be finite and > 0, got {tau}")
    n = _as_count(n, "n")
    return _residual_into(lam, tau, n, np.empty((2, _leaf_width(lam.size))))[0]


def _split(lo: float, hi: float) -> float | None:
    """Bisection point of (lo, hi): geometric mean, else arithmetic, else None.

    The geometric mean halves the bracket in log tau. A left end that
    underflowed to 0 counts as the smallest positive float there, so a
    denormal root is still reached in about ten log-halvings. The arithmetic
    mean serves when the two ends are a few ulps apart, and None means the
    bracket is exhausted at float resolution.
    """
    geometric = math.sqrt(max(lo, _TINY)) * math.sqrt(hi)
    for mid in (geometric, 0.5 * (lo + hi)):
        if lo < mid < hi:
            return mid
    return None


def _certified_split(evaluate, lo, hi, lo_open, hi_open):
    """Bisection point of (lo, hi) and the evaluations spent certifying its ends.

    A bisection relies on both ends of its bracket. An end that is still the
    analytic one (lo_open, hi_open: no residual has replaced it) is evaluated
    here, and its residual must have the sign the bracket claims, positive at
    the left end and negative at the right.
    """
    passes = 0
    for end, is_open, sign in ((lo, lo_open, 1.0), (hi, hi_open, -1.0)):
        if is_open:
            f_end = evaluate(end)[0]
            passes += 1
            if not sign * f_end > 0.0:
                raise NonConvergenceError(
                    f"bracket certification failed: f({end:g})={f_end:g}, "
                    f"expected {'> 0' if sign > 0.0 else '< 0'}"
                )
    return _split(lo, hi), passes


def _newton(evaluate, n: int, lo: float, hi: float, tau: float):
    """Certified root of S(tau) = n in the bracket (lo, hi), by safeguarded log-Newton from tau.

    evaluate(tau) returns the signed residual S(tau) - n and sum r^2. Returns
    the root, its residual and sum r^2, and the evaluations spent; the rules
    are solve_tau's. Raises NonConvergenceError as solve_tau does.
    """
    lo_open = hi_open = True  # the end is analytic and its residual unchecked
    passes = 0
    tol = _tolerance(n)
    log_n = math.log(n)
    if not lo < tau < hi:  # only by underflow or overflow
        tau, passes = _certified_split(evaluate, lo, hi, lo_open, hi_open)
        lo_open = hi_open = False
    step = step_before = math.inf  # |log tau| moves of the last two updates
    while tau is not None and passes < TAU_MAX_ITER:
        residual, sum_sq = evaluate(tau)
        passes += 1
        if abs(residual) <= tol:
            break
        if residual > 0.0:
            lo, lo_open = tau, False
        else:
            hi, hi_open = tau, False
        total = residual + n  # S
        # tau * D = sum r (1 - r) = S - sum r^2 = -S * d log S / d log tau, with
        # r = lambda/(lambda+tau): the pass summed r^2 beside r. Cancellation
        # only spoils the proposed step, which the bracket and the tau_d > 0
        # guard police.
        tau_d = total - sum_sq
        candidate = None
        if total > 0.0 and tau_d > 0.0:
            move = (math.log(total) - log_n) * (total / tau_d)
            if abs(move) <= 0.5 * step_before:
                candidate = tau * math.exp(min(move, 709.0))
        if candidate is None or not lo < candidate < hi:
            candidate, spent = _certified_split(evaluate, lo, hi, lo_open, hi_open)
            passes += spent
            lo_open = hi_open = False
        if candidate is not None:
            step_before, step = step, abs(math.log(candidate) - math.log(tau))
        tau = candidate
    else:
        if tau is None:
            raise NonConvergenceError(
                f"bracket exhausted at float resolution without reaching tolerance {tol:g}"
            )
        raise NonConvergenceError(
            f"residual tolerance {tol:g} unreachable within {TAU_MAX_ITER} iterations"
        )
    return tau, residual, sum_sq, passes


def _coarse_root(lam: np.ndarray, n: int, lo: float, hi: float) -> float:
    """Root of a coarse quadrature of S(tau) = n, the start of a large solve; NaN if it fails.

    The model keeps the first _COARSE_HEAD eigenvalues exactly. Of the rest
    it takes every k-th as a node, k the least stride that leaves at most
    _COARSE_NODES nodes, and it keeps the fewer than k eigenvalues after the
    last node exactly. The nodes stand for every index from the first node
    to the last by Euler-Maclaurin: weight k each, less (k - 1)/2 at both
    ends, and the derivative term (k^2 - 1)/12 * (f'(last) - f'(first))
    taken from the differences of the two end nodes. The weights sum to p.
    The model reads lambda through a strided view into node-sized buffers,
    and it depends on lambda alone, not on the leaf width. It is solved by
    the same safeguarded log-Newton, from the flat start of its own weights
    (the weight beyond the first n units, times the eigenvalues, over n).
    """
    head = _COARSE_HEAD
    k = -(-(lam.size - head) // _COARSE_NODES)
    nodes = lam[head::k]
    last = head + (nodes.size - 1) * k
    values = np.concatenate((lam[:head], nodes, lam[last + 1 :]))
    weights = np.ones(values.size)
    weights[head : head + nodes.size] = k
    trim, slope = 0.5 * (k - 1), (k * k - 1) / (12.0 * k)
    ends = [head, head + 1, head + nodes.size - 2, head + nodes.size - 1]
    weights[ends] += [-trim - slope, slope, slope, -trim - slope]
    beyond = np.cumsum(weights)
    beyond -= n
    np.clip(beyond, 0.0, weights, out=beyond)
    beyond *= values
    tau = float(np.sum(beyond[::-1])) / n
    terms = np.empty((2, values.size))  # the model's weighted r and r^2

    def evaluate(tau: float) -> tuple[float, float]:
        np.multiply(_r_terms(values, tau, terms), weights, out=terms)
        total, sum_sq = terms[:, ::-1].sum(axis=-1).tolist()
        return total - n, sum_sq

    try:
        return _newton(evaluate, n, lo, hi, tau)[0]
    except NonConvergenceError:
        return math.nan


def solve_tau(spectrum, n: int) -> SpectralStats:
    """Solve the effective-regularization fixed point by safeguarded Newton.

    Args:
        spectrum: eigenvalues, non-increasing, all positive.
        n: sample count with 1 <= n < p.

    Returns:
        SpectralStats with residual |sum lambda/(lambda+tau) - n| <= atol + rtol*n,
        the number of full-spectrum passes spent, and that certified residual.

    Raises:
        ValueError: if n >= p (no positive root exists) or n < 1.
        NonConvergenceError: if a bracket end a bisection relies on fails its
            certification, or the residual tolerance is unreachable within the
            iteration cap.

    The bracket [lambda_p * eps, lambda_1 * p / n] is valid because the map is
    strictly decreasing: at the left end the sum is close to p > n, at the
    right end each term is below lambda_1 / (lambda_1 * p / n) = n / p, so the
    sum is below n. At p >= _COARSE_MIN_P the first iterate is the root of a
    coarse quadrature of S (_coarse_root: about 2e4 weighted eigenvalues,
    solved by the same step), within about 1e-7 relative residual of the
    root on smooth spectra, so one Newton step and a certifying pass finish
    most solves. Below that size, or when the coarse root is not finite or
    falls outside the bracket, the first iterate is the root of a flat
    spectrum with the same tail, tau_0 = (sum_{i >= n} lambda_i) / n
    (0-based i, summed tail first): exact when the spectrum is flat, and
    within a small factor of the root on power laws, at the cost of one
    read-only sum over the p - n tail values. Neither start is a residual
    pass, and iterations counts neither. Every evaluation shrinks the
    bracket by the sign of its residual. The next point is a Newton step on
    log S against log tau,

        log tau <- log tau + (log S - log n) / (tau * D / S),
        D = sum lambda/(lambda+tau)^2,  tau * D = sum r (1 - r) = S - sum r^2,

    with r = lambda/(lambda+tau) = 1 - zeta, so the slope costs only the sum
    of r^2 that each pass takes beside S. The step is nearly exact for
    power-law-like spectra. A step that leaves the bracket, or that fails to
    halve the step before last, is replaced by a bisection (geometric, else
    arithmetic), as is any step whose slope cancelled to tau * D <= 0, so
    convergence is unconditional; tau_0 outside the bracket also starts with a
    bisection. An analytic bracket end is certified by its own residual only
    at the first bisection whose bracket still has it; when the Newton
    iterates converge neither end is evaluated. The end residuals never enter
    the returned tau, which is certified by its own residual, and every
    bisection runs inside a certified bracket. A flat spectrum takes 1 pass
    and a power-law spectrum at p = 1e6 takes 1-2, end checks included when
    they run (2-5 from the flat start). The passes stream through one
    (2, leaf) buffer, and Omega is the accepted pass's sum r^2 over n, so
    neither the solve nor its statistics hold a p-length array beyond the
    eigenvalues. Identical inputs always reproduce bit-identical
    tau, at any leaf width.
    """
    lam = as_spectrum(spectrum)
    p = lam.size
    n = _as_count(n, "n")
    if n >= p:
        raise ValueError(f"no solution: need n < p, got n={n}, p={p}")

    lo = float(lam[-1]) * _EPS
    hi = float(lam[0]) * p / n
    tau = _coarse_root(lam, n, lo, hi) if p >= _COARSE_MIN_P else math.nan
    if not lo < tau < hi:  # no coarse model, or its solve failed
        tau = float(np.sum(lam[n:][::-1])) / n  # the root if the spectrum were flat
    rows = np.empty((2, _leaf_width(p)))  # one leaf of r and of r^2
    tau, residual, sum_sq, passes = _newton(
        lambda t: _residual_into(lam, t, n, rows), n, lo, hi, tau
    )

    return SpectralStats(
        tau=float(tau),
        omega=sum_sq / n,  # sum (1 - zeta)^2 from the accepted pass
        n=n,
        eigenvalues=lam,
        iterations=passes,
        residual=residual,
        _validated=True,
    )


def power_law_spectrum(p: int, alpha: float) -> np.ndarray:
    """Spectrum lambda_i = i^(-alpha) for i = 1..p.

    Requires an integer p >= 1 and a finite alpha > 1 (summability of the
    head-heavy tail) whose tail p^(-alpha) does not underflow to 0. The
    power_law_signal of the same p and alpha cannot overflow unless that tail
    underflows, so the one check keeps both finite.
    """
    p = _as_count(p, "p")
    _check_exponent(alpha, "alpha")
    idx = np.arange(1, p + 1, dtype=np.float64)
    idx **= -alpha  # in place: numpy's scalar-power path, the bits of idx ** (-alpha)
    if not idx[-1] > 0.0:
        raise ValueError(f"alpha={alpha} is too large for p={p}: p^-alpha underflows to 0")
    return idx


def power_law_signal(p: int, alpha: float, beta_exp: float) -> np.ndarray:
    """Signal coefficients beta_i = i^((alpha - beta_exp)/2).

    Chosen so that the per-coordinate signal energy satisfies
    lambda_i * beta_i^2 = i^(-beta_exp) when lambda_i = i^(-alpha).
    Requires an integer p >= 1, finite alpha > 1 and finite beta_exp > 1.
    """
    p = _as_count(p, "p")
    _check_exponent(alpha, "alpha")
    _check_exponent(beta_exp, "beta_exp")
    idx = np.arange(1, p + 1, dtype=np.float64)
    idx **= 0.5 * (alpha - beta_exp)
    return idx


def tau_asymptotic(alpha: float, n: int) -> float:
    """Large-p approximation tau ~ c * n^(-alpha), c = (pi/(alpha*sin(pi/alpha)))^alpha."""
    _check_exponent(alpha, "alpha")
    n = _as_count(n, "n")
    c = (math.pi / (alpha * math.sin(math.pi / alpha))) ** alpha
    return c * float(n) ** (-alpha)


def omega_asymptotic(alpha: float) -> float:
    """Large-p, large-n limit of Omega for a power-law spectrum: (alpha-1)/alpha."""
    _check_exponent(alpha, "alpha")
    return (alpha - 1.0) / alpha


def _tau_hypothesis_k(alpha: float) -> float:
    """k of the tau bounds' hypothesis n < p*k, also k2 of the Omega window."""
    return (3.0 + 2.0 ** (-alpha)) / (4.0 + 2.0 ** (-(alpha - 2.0)))


def _omega_window(alpha: float, p: int) -> tuple[float, float]:
    """Edges (low, high) of the Omega lower bound's hypothesis low < n < high.

    The low edge p*k1 + alpha^2/(alpha-1)^2 = alpha*(p + alpha)/(alpha-1)^2 is
    rational in alpha, so its integer part is computed exactly in integers and
    the float edge is clamped into [floor, floor + 1): then low < n holds for
    an integer n exactly when it holds for the exact edge. Unclamped, alpha =
    9.25 and p = 263 give 36.99999999999999 for the exact edge 37.
    """
    k1 = alpha / (alpha - 1.0) ** 2
    low = p * k1 + alpha**2 / (alpha - 1.0) ** 2
    num, den = float(alpha).as_integer_ratio()
    whole = num * (p * den + num) // (num - den) ** 2
    low = min(max(low, float(whole)), math.nextafter(whole + 1.0, 0.0))
    return low, p * _tau_hypothesis_k(alpha)


def tau_bounds_nonasymptotic(alpha: float, p: int, n: int) -> tuple[float, float]:
    """Finite-(n, p) interval certain to contain tau for a power-law spectrum.

    Valid under the hypothesis n < p*k with k = (3 + 2^-alpha)/(4 + 2^-(alpha-2)).
    The bounds on tau^-1 are c*n^alpha <= tau^-1 <= c*(n + 1 + (p+1)/(alpha-1))^alpha
    with c = (alpha*sin(pi/alpha)/pi)^alpha; the returned interval inverts them.

    Returns:
        (lower, upper) with lower <= tau <= upper.

    Raises:
        HypothesisViolatedError: when n >= p*k.
    """
    _check_exponent(alpha, "alpha")
    p, n = _as_count(p, "p"), _as_count(n, "n")
    k = _tau_hypothesis_k(alpha)
    if n >= p * k:
        raise HypothesisViolatedError(
            f"requires n < p*k = {p * k:.4g} (k={k:.4g} at alpha={alpha}), got n={n}"
        )
    c_inv = (alpha * math.sin(math.pi / alpha) / math.pi) ** alpha
    stretched = n + 1.0 + (p + 1.0) / (alpha - 1.0)
    lower = 1.0 / (c_inv * stretched**alpha)
    upper = 1.0 / (c_inv * float(n) ** alpha)
    return lower, upper


def omega_lower_bound(alpha: float, p: int, n: int) -> float:
    """Finite-(n, p) lower bound on Omega for a power-law spectrum.

    Valid under p*k1 + alpha^2/(alpha-1)^2 < n < p*k2, where k1 = alpha/(alpha-1)^2
    and k2 is the same constant as in tau_bounds_nonasymptotic. The bound is

        (alpha-1)/alpha - (1/alpha)*((n + 1 + (p+1)/(alpha-1))/(p+1))^(2*alpha-1) - 1/n.

    Raises:
        HypothesisViolatedError: when n falls outside the window.
    """
    _check_exponent(alpha, "alpha")
    p, n = _as_count(p, "p"), _as_count(n, "n")
    low_edge, high_edge = _omega_window(alpha, p)
    if not (low_edge < n < high_edge):
        raise HypothesisViolatedError(
            f"requires {low_edge:.4g} < n < {high_edge:.4g}, got n={n}"
        )
    stretched = (n + 1.0 + (p + 1.0) / (alpha - 1.0)) / (p + 1.0)
    return (alpha - 1.0) / alpha - stretched ** (2.0 * alpha - 1.0) / alpha - 1.0 / n
