"""Property-based fuzzing of the fixed-point certificate.

For any valid spectrum and 1 <= n < p, solve_tau either returns a tau inside
its bracket whose residual meets the certified tolerance (the same residual,
bit for bit, as fixed_point_residual and a second solve report), or raises
NonConvergenceError. Nothing else is allowed. The exact root is not asserted:
for 50 ones and 50 values of 1e-300 at n = 50 every tau in about
(1e-288, 1e-12) meets the tolerance, so only the certificate is the contract.
The arrays the solver keeps from its buffers, zeta and 1 - zeta, must equal
their closed forms at the returned tau bit for bit.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from w2s_lab import NonConvergenceError, fixed_point_residual, solve_tau  # noqa: E402
from w2s_lab.spectrum import TAU_ATOL, TAU_RTOL  # noqa: E402

_TINY = math.ulp(0.0)


@st.composite
def spectra_and_n(draw):
    """A positive non-increasing spectrum and a sample count n in [1, p-1].

    Eigenvalues are 10^(top - span*level), with the levels either free or
    picked from a few shared values (ties and flat spectra); spans reach 330
    decades, which pushes the tail into (and clamps it at) the denormal range.
    """
    p = draw(st.integers(2, 60))
    top = draw(st.floats(-8.0, 8.0))
    span = draw(st.sampled_from([0.0, 1.0, 30.0, 300.0, 330.0]) | st.floats(0.0, 330.0))
    if draw(st.booleans()):  # ties: p picks from a few shared levels
        levels = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
        picks = draw(st.lists(st.integers(0, len(levels) - 1), min_size=p, max_size=p))
        levels = np.asarray(levels)[picks]
    else:
        levels = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=p, max_size=p)))
    exponents = top - span * levels
    with np.errstate(under="ignore"):
        lam = np.maximum(10.0**exponents, _TINY)
    lam = np.sort(lam)[::-1]
    n = draw(st.sampled_from([1, p - 1]) | st.integers(1, p - 1))
    return lam, n


def _two_level(top, bottom, count, n):
    return np.array([top] * count + [bottom] * count), n


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(spectra_and_n())
@example(_two_level(1.0, 1e-300, 50, 50))
@example(_two_level(1.0, _TINY, 50, 50))
@example(_two_level(1.0, _TINY, 50, 99))
@example((np.full(40, 3.0), 39))
@example((np.full(40, 3.0), 1))
@example((np.logspace(0.0, -320.0, 60), 30))
def test_solve_tau_certificate(case):
    lam, n = case
    tol = TAU_ATOL + TAU_RTOL * n
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            stats = solve_tau(lam, n)
        except NonConvergenceError:
            return
        again = solve_tau(lam.copy(), n)
        residual = fixed_point_residual(lam, stats.tau, n)

    p = lam.size
    assert float(lam[-1]) * np.finfo(np.float64).eps < stats.tau < float(lam[0]) * p / n
    assert abs(residual) <= tol
    assert residual == stats.residual
    assert again.tau == stats.tau
    assert again.residual == stats.residual
    assert again.iterations == stats.iterations
    assert again.omega == stats.omega
    assert np.array_equal(again.zeta, stats.zeta)


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(spectra_and_n())
@example(_two_level(1.0, 1e-300, 50, 50))
@example(_two_level(1.0, _TINY, 50, 99))
@example((np.logspace(0.0, -320.0, 60), 30))
def test_kept_buffers_are_exact(case):
    """The kept solver buffers equal the closed forms at the returned tau, bit for bit."""
    lam, n = case
    try:
        stats = solve_tau(lam, n)
    except NonConvergenceError:
        return
    assert np.array_equal(stats.one_minus_zeta(), lam / (lam + stats.tau))
    assert np.array_equal(stats.zeta, stats.tau / (lam + stats.tau))
