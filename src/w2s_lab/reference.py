"""Dense-matrix reference implementations of the risk oracles.

These build explicit p x p resolvents and evaluate the risk formulas in their
literal trace and quadratic-form shape, optionally in a rotated basis, without
any of the diagonal-coordinate simplifications used by the theory module.
They are slow (meant for p up to a few hundred) and exist so the fast
implementations can be cross-checked against an independently coded route.
Do not use them in experiment loops.
"""

from __future__ import annotations

import numpy as np

from .estimators import ProblemInstance
from .spectrum import _as_coefficients, _check_noise, as_spectrum, solve_tau
from .theory import RiskReport


def random_orthogonal(p: int, seed: int) -> np.ndarray:
    """A Haar-ish random orthogonal matrix from the QR of a Gaussian draw."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    return q * np.sign(np.diag(r))[None, :]


def _rotate(lam: np.ndarray, basis: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    p = lam.size
    u = np.eye(p) if basis is None else np.asarray(basis, dtype=np.float64)
    if u.shape != (p, p):
        raise ValueError(f"basis must be {p} x {p}, got {u.shape}")
    return u @ np.diag(lam) @ u.T, u


def one_stage_risk_dense(
    spectrum, beta_star, beta_s, n: int, sigma_sq: float, basis=None
) -> RiskReport:
    """One-stage risk via the literal resolvent quadratic forms.

    The mean part is expanded into its three cross terms around
    theta1 = (Sigma + tau I)^-1 Sigma rather than collapsed, and the variance
    uses gamma^2 times the trace (1/p) tr((Sigma + tau I)^-2 Sigma^2).
    """
    lam = as_spectrum(spectrum)
    p = lam.size
    _check_noise(sigma_sq, "sigma_sq")
    sigma, u = _rotate(lam, basis)
    b_star = u @ _as_coefficients(beta_star, p, "beta_star")
    b_s = u @ _as_coefficients(beta_s, p, "beta_s")

    tau = solve_tau(lam, n).tau
    resolvent = np.linalg.inv(sigma + tau * np.eye(p))
    theta1 = resolvent @ sigma
    sqrt_sigma = u @ np.diag(np.sqrt(lam)) @ u.T

    omega = float(np.trace(resolvent @ resolvent @ sigma @ sigma)) / n
    label_energy = sigma_sq + tau**2 * float(
        np.sum((sqrt_sigma @ resolvent @ b_s) ** 2)
    )
    gamma_sq = (p / n) * label_energy / (1.0 - omega)

    diff = b_s - b_star
    residual_op = np.eye(p) - theta1
    t_shift = float(diff @ theta1.T @ sigma @ theta1 @ diff)
    t_null = float(b_star @ residual_op.T @ sigma @ residual_op @ b_star)
    t_cross = -2.0 * float(b_star @ residual_op.T @ sigma @ theta1 @ diff)
    variance = gamma_sq * float(np.trace(resolvent @ resolvent @ sigma @ sigma)) / p

    bias = t_shift + t_null + t_cross
    return RiskReport(bias=bias, variance=variance, total=bias + variance)


def two_stage_risk_dense(inst: ProblemInstance, basis=None) -> RiskReport:
    """Two-stage risk via the literal trace expressions, without diagonal collapse.

    Both covariances share one eigenbasis, so a single orthogonal `basis`
    rotates the whole problem. Every trace below is evaluated on explicit
    matrix products.
    """
    p = inst.p
    sigma_t, u = _rotate(inst.spectrum_t, basis)
    sigma_s = u @ np.diag(inst.spectrum_s) @ u.T
    b_star = u @ inst.beta_star

    tau_s = solve_tau(inst.spectrum_s, inst.m).tau
    tau_t = solve_tau(inst.spectrum_t, inst.n).tau
    eye = np.eye(p)
    res_s = np.linalg.inv(sigma_s + tau_s * eye)
    res_t = np.linalg.inv(sigma_t + tau_t * eye)
    theta_s = res_s @ sigma_s
    theta_t = res_t @ sigma_t
    half_s = u @ np.diag(np.sqrt(inst.spectrum_s)) @ u.T
    half_t = u @ np.diag(np.sqrt(inst.spectrum_t)) @ u.T

    omega_s = float(np.trace(res_s @ res_s @ sigma_s @ sigma_s)) / inst.m
    omega_t = float(np.trace(res_t @ res_t @ sigma_t @ sigma_t)) / inst.n

    term1 = float(np.sum((half_t @ (eye - theta_t @ theta_s) @ b_star) ** 2))

    gamma_s_sq = (
        (p / inst.m)
        * (inst.sigma_s_sq + tau_s**2 * float(np.sum((res_s @ half_s @ b_star) ** 2)))
        / (1.0 - omega_s)
    )

    bridge = half_s @ res_s @ half_t  # p x p, shared by the two mixed traces
    mixed_var = float(np.trace(bridge @ res_t @ res_t @ bridge.T))
    exp_gamma_t = (
        (p / inst.n)
        * (
            inst.sigma_t_sq
            + tau_t**2 * float(np.sum((res_t @ half_t @ theta_s @ b_star) ** 2))
            + tau_t**2 * (gamma_s_sq / p) * mixed_var
        )
        / (1.0 - omega_t)
    )
    term2 = exp_gamma_t * float(np.trace(res_t @ res_t @ sigma_t @ sigma_t)) / p

    inner = sigma_t @ res_t @ sigma_t @ res_t @ sigma_t
    term3 = (gamma_s_sq / p) * float(
        np.trace(half_s @ res_s @ inner @ res_s @ half_s)
    )

    variance = term2 + term3
    return RiskReport(bias=term1, variance=variance, total=term1 + variance)
