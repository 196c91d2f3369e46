"""Designers: risk-optimal surrogates, optimal feature masks, scaling predictions.

The one-stage risk is a separable quadratic in the surrogate vector, so the
minimizer has a closed per-coordinate form. Masking is the restriction of the
surrogate to {0, beta_star_i}; its optimal support also separates, into a
threshold rule on the shrinkage factors. A brute-force oracle over all
supports is kept for small p so the threshold rule can be checked against
exhaustive search, and power-law asymptotics predict where the thresholds
land and how fast the optimal risks decay. The designers take the fixed-point
stats from solve_tau, as the risk oracles do, and return plain (p,) float64
vectors: the gains, the optimal surrogate and the masked surrogate (a mask is
a frozenset of 0-based indices). The gains are written one leaf-width slice
at a time with theory's gains formula, the one copy of it; the optimal
mask is always a prefix of the coordinates, whose length a bisection finds.
The brute-force oracle alone takes the raw problem and solves its fixed
point itself. It scores blocks of candidate supports with the array kernel
behind one_stage_risk, so its memory stays bounded up to its limit p = 20.
"""

from __future__ import annotations

import math

import numpy as np

from .spectrum import (
    SpectralStats,
    _as_coefficients,
    _as_count,
    _check_exponent,
    _check_noise,
    _leaf_width,
    _omega_window,
    _tolerance,
    as_spectrum,
    solve_tau,
)
from .theory import _check_stats, _gains, _one_stage_terms, _shrinkage

# Candidate supports scored per kernel call in brute_force_mask.
_CHUNK_ROWS = 1024


def gain_profile(stats: SpectralStats) -> np.ndarray:
    """Optimal per-coordinate gains beta_opt_i / beta_star_i, independent of the signal.

    gain_i exceeds 1 (amplification) exactly when 1 - zeta_i > Omega, i.e.
    zeta_i < 1 - stats.omega. The gains are written into the returned array
    one slice of the leaf width at a time, each recomputing zeta and 1 - zeta
    from (lambda, tau), so the call holds one p-length array and leaf-sized
    temporaries, with the bits of the whole-array formula.
    """
    _check_stats(stats)
    ratio = stats.omega / (1.0 - stats.omega)
    gains = np.empty(stats.p)
    width = _leaf_width(stats.p)
    for start in range(0, stats.p, width):
        cols = slice(start, start + width)
        one_minus, zeta_sq = _shrinkage(stats.eigenvalues[cols], stats.tau)
        _gains(one_minus, zeta_sq, ratio, out=gains[cols])
    return gains


def optimal_surrogate(stats: SpectralStats, beta_star) -> np.ndarray:
    """Minimizer of the one-stage risk over all surrogate vectors.

    beta_opt_i = beta_star_i * (1 - zeta_i) / ((1 - zeta_i)^2
                 + zeta_i^2 * Omega / (1 - Omega))

    For an isotropic spectrum the fixed point gives Omega = 1 - zeta exactly,
    every gain collapses to 1, and the optimal surrogate is beta_star itself;
    anisotropy is what creates room for improvement. The gains are scaled in
    place, so the result is the call's one p-length allocation.
    """
    gains = gain_profile(stats)
    gains *= _as_coefficients(beta_star, stats.p, "beta_star")
    return gains


def optimal_mask(stats: SpectralStats) -> frozenset:
    """Risk-optimal support for a masked surrogate: keep i iff zeta_i^2 < 1 - Omega.

    Coordinates on the threshold are dropped (keeping them changes nothing in
    exact arithmetic; dropping gives the smaller support), and so are those
    within the solver's resolution of it, which count as ties. The solver
    certifies |S(tau) - n| <= tol, so to first order tau is known to a relative
    rel = tol / (n (1 - Omega)), within which zeta_i^2 moves by at most
    2 zeta_i^2 rel and 1 - Omega by at most 2 Omega rel. A coordinate is kept
    only when the strict rule holds across that band,

        zeta_i^2 < ((1 - Omega) - 2 Omega rel) / (1 + 2 rel),

    so exact ties, and near ties inside that band, are dropped for every tau
    the certificate allows. The band moves the point where the mask flips; it
    does not remove it: a coordinate whose margin is close to the band width
    can still be kept or dropped by the last digits of tau. Indices are 0-based
    positions into the spectrum. The kept coordinates are always a prefix
    (see mask_size).
    """
    return frozenset(range(mask_size(stats)))


def mask_size(stats: SpectralStats) -> int:
    """len(optimal_mask(stats)): the length of the prefix the keep rule holds on.

    The rule's one implementation. On a non-increasing spectrum lambda_i + tau
    is non-increasing, so zeta_i = tau/(lambda_i + tau) and its square are
    non-decreasing in i, rounding included (correctly rounded operations are
    monotone): the rule holds on a prefix, and a bisection finds its length
    from O(log p) coordinates, each evaluated by the same float operations as
    the vectorised rule zeta**2 < threshold.
    """
    _check_stats(stats)
    rel = _tolerance(stats.n) / (stats.n * (1.0 - stats.omega))
    threshold = ((1.0 - stats.omega) - 2.0 * stats.omega * rel) / (1.0 + 2.0 * rel)
    tau = stats.tau
    lam = stats.eigenvalues

    kept, dropped = 0, stats.p  # the rule holds below kept and fails from dropped on
    while kept < dropped:
        i = (kept + dropped) // 2
        zeta = tau / (float(lam[i]) + tau)
        if zeta * zeta < threshold:
            kept = i + 1
        else:
            dropped = i
    return kept


def masked_surrogate(beta_star, support) -> np.ndarray:
    """Surrogate equal to beta_star on `support` and zero elsewhere.

    support holds integer indices; a float or boolean entry (a boolean mask
    in place of indices) is refused, not rounded or read as 0 and 1.
    """
    beta_star = _as_coefficients(beta_star, np.size(beta_star), "beta_star")
    sup = frozenset(support)
    for i in sup:
        if isinstance(i, (bool, np.bool_)) or not isinstance(i, (int, np.integer)):
            raise ValueError(f"support entries must be integer indices, got {i!r}")
        if i < 0 or i >= beta_star.size:
            raise IndexError(f"mask index {i} out of range for length {beta_star.size}")
    keep = sorted(sup)
    values = np.zeros_like(beta_star)
    values[keep] = beta_star[keep]
    return values


def _support_blocks(beta_star: np.ndarray):
    """Yield (r, keep, stack) blocks of _CHUNK_ROWS candidates, all r in range(2^p) in order.

    keep[j, i] is bit p-1-i of r[j]: whether candidate r[j] keeps coordinate
    i. stack[j] = keep[j] * beta_star is the candidate's surrogate; a dropped
    negative entry is -0.0 there, which the one-stage kernel only multiplies
    and squares, so each row scores with the bits of its masked_surrogate.
    """
    p = beta_star.size
    shifts = np.arange(p - 1, -1, -1)
    for first in range(0, 2**p, _CHUNK_ROWS):
        ranks = np.arange(first, min(first + _CHUNK_ROWS, 2**p))
        keep = ((ranks[:, None] >> shifts) & 1).astype(bool)
        yield ranks, keep, np.multiply(keep, beta_star)


def brute_force_mask(spectrum, beta_star, n: int, sigma_sq: float) -> frozenset:
    """Exhaustive argmin of the one-stage risk over all 2^p masked supports.

    Only for p <= 20. Ties are broken toward the smaller support, then
    lexicographically on the sorted index tuple, which makes the result
    deterministic and comparable with optimal_mask.

    Candidate r in range(2^p) keeps coordinate i when bit p-1-i of r is set,
    so its size is the popcount of r, and among supports of one size the
    larger r is the smaller sorted tuple. Candidates are scored _CHUNK_ROWS
    at a time by one call of the one-stage kernel, which bounds memory at a
    few (_CHUNK_ROWS, p) arrays for any p. A block's winner is taken among
    the candidates at its minimum total (+0.0 and -0.0 tie, as do two infs):
    the smallest popcount, then the largest r. It is compared with the best
    so far on the full key (total, size, sorted tuple). A NaN total has no
    place in that order and raises ValueError naming its support. Every
    support is scored with the full risk formula, so the search does not
    rely on the separable structure that optimal_mask exploits. It takes the
    raw problem, not fixed-point stats, and solves the fixed point itself.
    """
    lam = as_spectrum(spectrum)
    p = lam.size
    if p > 20:
        raise ValueError(f"brute force is limited to p <= 20, got p={p}")
    beta_star = _as_coefficients(beta_star, p, "beta_star")
    _check_noise(sigma_sq, "sigma_sq")
    st = solve_tau(lam, n)
    _check_stats(st)

    best_key = None
    for ranks, keep, stack in _support_blocks(beta_star):
        bias, variance = _one_stage_terms(st, beta_star, stack, sigma_sq)
        total = bias + variance
        low = total.min()  # NaN if any total is
        if np.isnan(low):
            j = np.flatnonzero(np.isnan(total))[0]
            support = np.flatnonzero(keep[j]).tolist()
            raise ValueError(f"the one-stage total of support {support} is NaN")
        tied = np.flatnonzero(total == low)
        size = np.bitwise_count(ranks[tied])
        smallest = size.min()
        j = tied[np.flatnonzero(size == smallest)[-1]]  # the largest r: the smallest tuple
        key = (float(low), int(smallest), tuple(np.flatnonzero(keep[j]).tolist()))
        if best_key is None or key < best_key:
            best_key = key
    return frozenset(best_key[2])


def cutoff_indices(alpha: float, n: int) -> tuple[float, float]:
    """Asymptotic feature-index cutoffs for a power-law spectrum at sample count n.

    Returns (i_gain, i_mask): below i_gain the optimal gain amplifies
    (gain > 1), below i_mask coordinates survive the optimal mask. Both scale
    linearly in n:

        i_gain = n * alpha sin(pi/alpha) / (pi (alpha - 1)^(1/alpha))
        i_mask = n * alpha sin(pi/alpha) / (pi (sqrt(alpha) - 1)^(1/alpha))

    and i_mask > i_gain for every alpha > 1.
    """
    _check_exponent(alpha, "alpha")
    n = _as_count(n, "n")
    base = alpha * math.sin(math.pi / alpha) / math.pi
    i_gain = n * base / (alpha - 1.0) ** (1.0 / alpha)
    i_mask = n * base / (math.sqrt(alpha) - 1.0) ** (1.0 / alpha)
    return i_gain, i_mask


def scaling_exponent(alpha: float, beta_exp: float) -> float:
    """Predicted decay exponent of the optimal-surrogate risk, risk ~ n^-e.

    e = beta_exp - 1 in the signal-limited regime beta_exp < 2*alpha + 1 and
    e = 2*alpha in the approximation-limited regime beta_exp > 2*alpha + 1.
    The boundary beta_exp = 2*alpha + 1 carries a logarithmic correction and
    is rejected.
    """
    _check_exponent(alpha, "alpha")
    _check_exponent(beta_exp, "beta_exp")
    boundary = 2.0 * alpha + 1.0
    if beta_exp == boundary:
        raise ValueError(
            f"beta_exp = 2*alpha + 1 = {boundary} is the boundary case and has no pure power law"
        )
    return beta_exp - 1.0 if beta_exp < boundary else 2.0 * alpha


def benign_region_check(alpha: float, p: int, n: int) -> bool:
    """Whether (alpha, p, n) certifiably lies in the masked-helps regime.

    True when alpha > 4 and n falls strictly inside the window

        max(2a, low) < n < min((p+1)(a-2)/a, high,
                              p*pi*(sqrt(2a/5) - 1)^(1/a)/(a sin(pi/a)) - (p+1)/(a-1)) - 1

    with a = alpha and low < n < high the hypothesis window of
    spectrum.omega_lower_bound. Inside the window, dropping every coordinate
    with zeta_i^2 > 1 - Omega strictly improves on the standard target-only
    fit for any signal that has mass on a dropped coordinate. Total in
    (alpha, p, n); returns False instead of raising when the hypotheses fail.
    A p or n below 1 needs no check: then upper < 1 or n < 1, while lower >= 2a > 8.
    """
    if not 4.0 < alpha < math.inf:
        return False
    a = alpha
    low_edge, high_edge = _omega_window(a, p)
    lower = max(2.0 * a, low_edge)
    upper = (
        min(
            (p + 1.0) * (a - 2.0) / a,
            high_edge,
            p * math.pi * (math.sqrt(2.0 * a / 5.0) - 1.0) ** (1.0 / a)
            / (a * math.sin(math.pi / a))
            - (p + 1.0) / (a - 1.0),
        )
        - 1.0
    )
    return lower < n < upper
