"""Self-verification suite: every module invariant checked at desk scale.

Each property is named, runs in at most a few seconds, and reports a margin:
how far the worst observed case sat from the failure boundary, in the
property's own units (tolerance-style properties use the fraction of
tolerance left, sandwich-style use the smallest slack, boolean properties
use +1/-1). A property that raises is reported as failed, not crashed, so
the report is always complete. The suite includes a negative control that
injects a known fault (a relatively perturbed tau) and passes only if the
fixed-point residual check rejects it.

The battery is the registry _PROPERTIES of (report name, check) pairs. A
check takes its generator and returns a Verdict; run_property runs one entry
and names it, run_verify runs them all, and pytest runs each entry as its own
test under its report name.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from ..design import (
    brute_force_mask,
    gain_profile,
    mask_size,
    masked_surrogate,
    optimal_mask,
    optimal_surrogate,
)
from ..estimators import (
    STAGE_ROOT,
    STAGE_TARGET,
    ProblemInstance,
    derive_seed,
    excess_risks,
    fit,
    fit_block,
    sample_block,
    sample_dataset,
)
from ..reference import one_stage_risk_dense, random_orthogonal, two_stage_risk_dense
from ..spectrum import (
    _omega_window,
    _tau_hypothesis_k,
    _tolerance,
    fixed_point_residual,
    omega_lower_bound,
    power_law_signal,
    power_law_spectrum,
    solve_tau,
    tau_asymptotic,
    tau_bounds_nonasymptotic,
)
from ..theory import (
    _one_stage_terms,
    covariance_shift_map,
    gamma_t_sq,
    omniscient_risk,
    one_stage_risk,
    two_stage_risk,
)
from .config import ExperimentConfig
from .experiments import _fan_out_blocks, mc_one_stage_risks, mean_and_se, run_risk_vs_n
from .output import render_table


class Verdict(NamedTuple):
    """What a property check returns; run_property adds the registry name."""

    passed: bool
    margin: float
    detail: str


def _random_spectrum(rng, p: int) -> np.ndarray:
    return np.sort(10.0 ** rng.uniform(-3.0, 0.0, p))[::-1]


def _tol_result(worst: float, tol: float, detail: str) -> Verdict:
    return Verdict(
        passed=bool(worst <= tol),
        margin=float(1.0 - worst / tol),
        detail=f"{detail}; worst={worst:.3e}, tol={tol:.3e}",
    )


def _bool_result(passed: bool, detail: str) -> Verdict:
    return Verdict(passed=bool(passed), margin=1.0 if passed else -1.0, detail=detail)


def _slack_result(slack: float, detail: str) -> Verdict:
    return Verdict(passed=bool(slack >= 0.0), margin=float(slack), detail=detail)


def _relative_gap(fast, dense) -> float:
    """Largest bias, variance or total gap of two risk reports, relative to dense total."""
    return max(
        abs(fast.total - dense.total) / dense.total,
        abs(fast.bias - dense.bias) / dense.total,
        abs(fast.variance - dense.variance) / dense.total,
    )


def _prop_fixed_point_residual(rng) -> Verdict:
    cases = [
        (power_law_spectrum(400, 1.5), 40),
        (power_law_spectrum(400, 2.0), 133),
        (power_law_spectrum(400, 3.0), 320),
        (_random_spectrum(rng, 200), 60),
        (_random_spectrum(rng, 200), 199),
    ]
    worst = 0.0
    for lam, n in cases:
        st = solve_tau(lam, n)
        tol = _tolerance(n)
        worst = max(worst, abs(fixed_point_residual(lam, st.tau, n)) / tol)
    return _tol_result(worst, 1.0, f"{len(cases)} instances, ratio to solver tol")


def _prop_fixed_point_determinism(rng) -> Verdict:
    lam = _random_spectrum(rng, 300)
    a = solve_tau(lam, 80)
    b = solve_tau(lam.copy(), 80)
    same = a.tau == b.tau and np.array_equal(a.zeta, b.zeta) and a.omega == b.omega
    return _bool_result(same, "identical inputs give bit-identical stats")


def _prop_shrinkage_ordering(rng) -> Verdict:
    ok = True
    min_diff = math.inf
    for lam, n in [(power_law_spectrum(500, 2.0), 100), (_random_spectrum(rng, 250), 30)]:
        zeta = solve_tau(lam, n).zeta
        diffs = np.diff(zeta)
        min_diff = min(min_diff, float(diffs.min()) if diffs.size else 0.0)
        ok = ok and bool(np.all(diffs >= 0.0)) and bool(np.all((zeta > 0.0) & (zeta < 1.0)))
    return _bool_result(
        ok, f"zeta non-decreasing and in (0,1); min successive diff {min_diff:.3e}"
    )


def _prop_omega_identity(rng) -> Verdict:
    worst = 0.0
    for lam, n in [(power_law_spectrum(400, 2.0), 120), (_random_spectrum(rng, 300), 90)]:
        st = solve_tau(lam, n)
        one_minus = st.one_minus_zeta()
        mass = float(np.sum(one_minus[::-1]))
        alt_omega = float(np.sum((one_minus**2)[::-1])) / mass
        worst = max(worst, abs(mass - n) / n, abs(st.omega - alt_omega) / st.omega)
    return _tol_result(
        worst,
        1e-10,
        "sum(1-zeta)=n at the fixed point and Omega matches its mass-normalized form",
    )


def _prop_scale_covariance(rng) -> Verdict:
    lam = _random_spectrum(rng, 220)
    n = 70
    base = solve_tau(lam, n)
    worst = 0.0
    for c in (0.1, 7.3):
        scaled = solve_tau(c * lam, n)
        worst = max(
            worst,
            abs(scaled.tau - c * base.tau) / (c * base.tau),
            float(np.max(np.abs(scaled.zeta - base.zeta))),
            abs(scaled.omega - base.omega) / base.omega,
        )
    return _tol_result(worst, 1e-10, "tau scales linearly, zeta and Omega invariant")


def _prop_tau_bounds_sandwich(rng) -> Verdict:
    min_slack = math.inf
    for _ in range(12):
        alpha = float(rng.uniform(1.5, 6.0))
        p = int(rng.integers(300, 1500))
        k = _tau_hypothesis_k(alpha)
        n = int(rng.integers(max(2, int(0.2 * p * k)), max(3, int(0.95 * p * k))))
        lower, upper = tau_bounds_nonasymptotic(alpha, p, n)
        tau = solve_tau(power_law_spectrum(p, alpha), n).tau
        min_slack = min(min_slack, (tau - lower) / tau, (upper - tau) / tau)
    return _slack_result(
        min_slack, f"12 random hypothesis-satisfying draws; min relative slack {min_slack:.3e}"
    )


def _prop_omega_lower_bound(rng) -> Verdict:
    min_slack = math.inf
    for _ in range(8):
        alpha = float(rng.uniform(3.4, 6.0))
        p = int(rng.integers(500, 3000))
        low, high = _omega_window(alpha, p)
        if not low + 2.0 < high:
            continue
        n = int(0.5 * (low + high))
        bound = omega_lower_bound(alpha, p, n)
        omega = solve_tau(power_law_spectrum(p, alpha), n).omega
        min_slack = min(min_slack, omega - bound)
    if min_slack == math.inf:  # every draw missed its window: nothing was checked
        return _bool_result(False, "vacuous: no draw had a non-empty hypothesis window")
    return _slack_result(min_slack, f"window midpoints; min slack Omega-bound {min_slack:.3e}")


def _prop_power_law_asymptotics(rng) -> Verdict:
    p, n, alpha = 100_000, 100, 2.0
    st = solve_tau(power_law_spectrum(p, alpha), n)
    rel_tau = abs(st.tau - tau_asymptotic(alpha, n)) / st.tau
    dev_omega = abs(st.omega - 0.5)
    worst = max(rel_tau, dev_omega)
    return _tol_result(
        worst, 10.0 / n, f"alpha=2, p={p}, n={n}: tau vs (pi/2)^2 n^-2 and Omega vs 1/2"
    )


def _prop_interpolation(rng) -> Verdict:
    lam = _random_spectrum(rng, 60)
    beta = rng.standard_normal(60)
    ds = sample_dataset(lam, beta, 0.3, 25, int(rng.integers(2**32)))
    out = fit(ds.design, ds.labels)
    rel = float(
        np.linalg.norm(ds.design @ out.fitted - ds.labels) / np.linalg.norm(ds.labels)
    )
    return _tol_result(rel, 1e-8, f"n=25 < p=60 fit ({out.regime}) reproduces labels")


def _prop_min_norm_minimality(rng) -> Verdict:
    lam = _random_spectrum(rng, 60)
    beta = rng.standard_normal(60)
    ds = sample_dataset(lam, beta, 0.1, 25, int(rng.integers(2**32)))
    out = fit(ds.design, ds.labels)
    _, _, vt = np.linalg.svd(ds.design, full_matrices=True)
    null_basis = vt[25:]
    ortho = float(
        np.linalg.norm(null_basis @ out.fitted) / np.linalg.norm(out.fitted)
    )
    worst_norm = 0.0
    for _ in range(5):
        v = null_basis.T @ rng.standard_normal(null_basis.shape[0])
        grow = np.linalg.norm(out.fitted + v) - np.linalg.norm(out.fitted)
        worst_norm = max(worst_norm, -float(grow))
    worst = max(ortho, worst_norm / np.linalg.norm(out.fitted))
    return _tol_result(
        worst,
        1e-8,
        "fit orthogonal to null(X); adding null-space vectors never shrinks the norm",
    )


def _prop_ols_normal_equations(rng) -> Verdict:
    lam = _random_spectrum(rng, 40)
    beta = rng.standard_normal(40)
    ds = sample_dataset(lam, beta, 0.5, 90, int(rng.integers(2**32)))
    out = fit(ds.design, ds.labels)
    if out.regime != "ordinary-least-squares":
        return _bool_result(False, "wrong regime label")
    grad = ds.design.T @ (ds.design @ out.fitted - ds.labels)
    scale = float(np.linalg.norm(ds.design, ord=2) * np.linalg.norm(ds.labels))
    rel = float(np.linalg.norm(grad)) / scale
    return _tol_result(rel, 1e-8, f"n=90 >= p=40 fit ({out.regime})")


def _prop_sampling_determinism(rng) -> Verdict:
    lam = power_law_spectrum(50, 2.0)
    beta = power_law_signal(50, 2.0, 1.5)
    seed = derive_seed(1234, STAGE_TARGET, 7)
    a = sample_dataset(lam, beta, 0.05, 20, seed)
    b = sample_dataset(lam, beta, 0.05, 20, seed)
    c = sample_dataset(lam, beta, 0.05, 20, derive_seed(1234, STAGE_TARGET, 8))
    same = np.array_equal(a.design, b.design) and np.array_equal(a.labels, b.labels)
    different = not np.array_equal(a.design, c.design)
    return _bool_result(
        same and different, "same derived seed reproduces bytes, next trial seed differs"
    )


def _prop_one_stage_dense_agreement(rng) -> Verdict:
    worst = 0.0
    for rotated in (False, True, True):
        p = 40
        lam = _random_spectrum(rng, p)
        beta_star = rng.standard_normal(p)
        beta_s = rng.standard_normal(p)
        n = int(rng.integers(5, p - 1))
        sigma_sq = float(rng.uniform(0.0, 1.0))
        basis = random_orthogonal(p, int(rng.integers(2**32))) if rotated else None
        fast = one_stage_risk(solve_tau(lam, n), beta_star, beta_s, sigma_sq)
        dense = one_stage_risk_dense(lam, beta_star, beta_s, n, sigma_sq, basis=basis)
        worst = max(worst, _relative_gap(fast, dense))
    return _tol_result(
        worst,
        1e-9,
        "diagonal formulas vs literal resolvent quadratic forms, rotated bases included",
    )


def _prop_two_stage_dense_agreement(rng) -> Verdict:
    worst = 0.0
    for rotated in (False, True):
        p = 30
        inst = ProblemInstance(
            spectrum_t=_random_spectrum(rng, p),
            spectrum_s=_random_spectrum(rng, p),
            beta_star=rng.standard_normal(p),
            sigma_t_sq=float(rng.uniform(0.0, 0.5)),
            sigma_s_sq=float(rng.uniform(0.0, 0.5)),
            n=int(rng.integers(5, 15)),
            m=int(rng.integers(5, 25)),
        )
        basis = random_orthogonal(p, int(rng.integers(2**32))) if rotated else None
        fast = two_stage_risk(inst)
        dense = two_stage_risk_dense(inst, basis=basis)
        worst = max(worst, _relative_gap(fast, dense))
    return _tol_result(
        worst, 1e-9, "diagonal two-stage formulas vs literal trace forms, distinct spectra"
    )


def _prop_omniscient_consistency(rng) -> Verdict:
    lam = _random_spectrum(rng, 150)
    beta = rng.standard_normal(150)
    n, sigma_sq = 40, 0.3
    st = solve_tau(lam, n)
    omni = omniscient_risk(st, beta, sigma_sq)
    via_one_stage = one_stage_risk(st, beta, beta, sigma_sq)
    signal_energy = float(np.sum((lam * st.zeta**2 * beta**2)[::-1]))
    # closed form: bias = sum lam zeta^2 beta^2, variance = Omega(sigma^2+bias)/(1-Omega)
    closed_total = signal_energy + (sigma_sq + signal_energy) * st.omega / (1.0 - st.omega)
    exact = (
        omni.total == via_one_stage.total
        and omni.bias == via_one_stage.bias
        and omni.variance == via_one_stage.variance
    )
    if not exact:
        return _bool_result(False, "shared code path broke exact equality")
    rel = abs(omni.total - closed_total) / closed_total
    return _tol_result(rel, 1e-12, "matches (B + (sigma^2+B) Omega/(1-Omega))")


def _prop_gamma_self_consistency(rng) -> Verdict:
    worst = 0.0
    for lam, n in [(power_law_spectrum(200, 2.0), 60), (_random_spectrum(rng, 120), 30)]:
        beta_s = rng.standard_normal(lam.size)
        sigma_sq = float(rng.uniform(0.0, 1.0))
        st = solve_tau(lam, n)
        gamma_sq = gamma_t_sq(st, beta_s, sigma_sq)
        risk_self = one_stage_risk(st, beta_s, beta_s, sigma_sq).total
        kappa = lam.size / n
        worst = max(worst, abs(gamma_sq - kappa * (sigma_sq + risk_self)) / gamma_sq)
    return _tol_result(
        worst, 1e-10, "gamma^2 = kappa (sigma^2 + R(beta_s; beta_s)) closes the fixed point"
    )


def _prop_noise_monotonicity(rng) -> Verdict:
    lam = power_law_spectrum(300, 2.0)
    beta = power_law_signal(300, 2.0, 1.5)
    n = 90
    st = solve_tau(lam, n)
    totals = [one_stage_risk(st, beta, beta, s).total for s in (0.0, 0.1, 0.5, 2.0)]
    gaps = np.diff(totals)
    return Verdict(
        passed=bool(np.all(gaps > 0.0)),
        margin=float(gaps.min()),
        detail=f"risk strictly increasing in sigma^2; min gap {gaps.min():.3e}",
    )


def _prop_gain_threshold_sign(rng) -> Verdict:
    violations = 0
    checked = 0
    for lam, n in [
        (power_law_spectrum(400, 2.0), 130),
        (power_law_spectrum(400, 1.5), 40),
        (_random_spectrum(rng, 200), 66),
    ]:
        st = solve_tau(lam, n)
        lhs = gain_profile(st) - 1.0
        rhs = st.one_minus_zeta() - st.omega
        keep = np.abs(rhs) > 1e-13
        checked += int(keep.sum())
        violations += int(np.sum(np.sign(lhs[keep]) != np.sign(rhs[keep])))
    return _bool_result(
        violations == 0, f"sign(gain-1) = sign((1-zeta)-Omega) at {checked} coordinates"
    )


def _prop_isotropy_degeneracy(rng) -> Verdict:
    lam = np.full(50, 0.7)
    beta = rng.standard_normal(50)
    st = solve_tau(lam, 20)
    gains = gain_profile(st)
    opt = optimal_surrogate(st, beta)
    mask = optimal_mask(st)
    worst = max(
        float(np.max(np.abs(gains - 1.0))),
        float(np.max(np.abs(opt - beta)) / np.max(np.abs(beta))),
        0.0 if mask == frozenset(range(50)) else 1.0,
    )
    return _tol_result(worst, 1e-10, "isotropic: gains 1, full mask, optimal = target")


def _prop_optimal_surrogate_optimality(rng) -> Verdict:
    lam = power_law_spectrum(100, 2.0)
    beta = power_law_signal(100, 2.0, 1.5)
    n, sigma_sq = 40, 0.05
    st = solve_tau(lam, n)
    opt = optimal_surrogate(st, beta)
    risk_opt = one_stage_risk(st, beta, opt, sigma_sq).total
    min_gap = math.inf
    for _ in range(10):
        # 100 candidates in the order the generator draws them, scored as one
        # stack; stacks of 100 keep the oracle's temporaries small
        candidates = np.stack(
            [opt + rng.standard_normal(100) * rng.uniform(0.01, 2.0) for _ in range(100)]
        )
        bias, variance = _one_stage_terms(st, beta, candidates, sigma_sq)
        min_gap = min(min_gap, float(np.min((bias + variance) - risk_opt)))
    risk_star = one_stage_risk(st, beta, beta, sigma_sq).total
    strict = risk_star - risk_opt
    passed = min_gap >= -1e-12 and strict > 0.0
    return Verdict(
        passed=bool(passed),
        margin=float(min(min_gap, strict)),
        detail=(
            f"1000 perturbed candidates, min excess over optimum {min_gap:.3e}; "
            f"strict gain over ground-truth labels {strict:.3e}"
        ),
    )


def _prop_ordering_chain(rng) -> Verdict:
    min_gap = math.inf
    for alpha, n in [(1.5, 50), (2.0, 50), (2.0, 150), (3.0, 90)]:
        lam = power_law_spectrum(300, alpha)
        beta = power_law_signal(300, alpha, 1.5)
        st = solve_tau(lam, n)
        opt = optimal_surrogate(st, beta)
        msk = masked_surrogate(beta, optimal_mask(st))
        r_opt = one_stage_risk(st, beta, opt, 0.05).total
        r_msk = one_stage_risk(st, beta, msk, 0.05).total
        r_star = one_stage_risk(st, beta, beta, 0.05).total
        min_gap = min(min_gap, r_msk - r_opt, r_star - r_msk)
    return _slack_result(min_gap, f"optimal <= masked <= ground-truth; min gap {min_gap:.3e}")


def _prop_mask_brute_force(rng) -> Verdict:
    mismatches = 0
    for _ in range(3):
        lam = _random_spectrum(rng, 10)
        beta = rng.standard_normal(10)
        n = int(rng.integers(3, 8))
        rule = optimal_mask(solve_tau(lam, n))
        for sigma_sq in (0.0, 1.0):
            if rule != brute_force_mask(lam, beta, n, sigma_sq):
                mismatches += 1
    return _bool_result(
        mismatches == 0,
        "threshold rule equals exhaustive search over 2^10 supports, sigma^2 in {0, 1}",
    )


def _prop_mask_sparsity_monotone(rng) -> Verdict:
    lam = power_law_spectrum(400, 2.0)
    sizes = [mask_size(solve_tau(lam, n)) for n in range(10, 210, 10)]
    return _slack_result(
        float(np.diff(sizes).min()),
        f"mask size non-decreasing over n=10..200; sizes {sizes[0]}..{sizes[-1]}",
    )


def _source_design_risks(
    lam_s, lam_t, beta_star, sigma_sq: float, n: int, trials: int, seed: int, transport: bool
) -> np.ndarray:
    """Per-trial risks of fits on source-covariance data, evaluated under lam_t.

    Each trial draws a design with row covariance diag(lam_s) and labels from
    beta_star. With transport=True the design is first rescaled column-wise by
    sqrt(lam_t/lam_s): that rescaled matrix has row covariance diag(lam_t) and
    the same labels re-expressed against the mapped coefficients, so fitting it
    is the target-frame view of the identical dataset. With transport=False the
    fit runs on the raw source design, which is a genuinely different estimator
    (a minimum-norm fit does not commute with a non-orthogonal column scaling).
    Trial t draws from derive_seed(seed, STAGE_TARGET, t), and the trials run
    in blocks on the Monte Carlo engine's one-worker loop.
    """
    scale = np.sqrt(lam_t / lam_s)

    def block_risks(block: range, workspace) -> list[np.ndarray]:
        seeds = [derive_seed(seed, STAGE_TARGET, t) for t in block]
        (ds,) = sample_block(lam_s, [beta_star], sigma_sq, [n], seeds, workspace)
        designs = ds.design * scale if transport else ds.design
        return [excess_risks(fit_block(designs, ds.labels, workspace).fitted, beta_star, lam_t)]

    (risks,) = _fan_out_blocks(block_risks, trials, n, lam_s.size, 1)
    return risks


_SHIFT_TRIALS = 400


def _shift_gap(
    seed: int, transport: bool, p: int = 80, n: int = 30, trials: int = _SHIFT_TRIALS
) -> tuple[float, float]:
    """Mean gap and combined SE: mapped-surrogate draws vs source-design draws.

    Source spectrum alpha = 1.5, target alpha = 2.5, signal exponent 1.8 and
    sigma^2 = 0.05. The mapped surrogate runs on `seed`, the source design on
    `seed + 1`, each for `trials` trials at (p, n). Verify's two shift
    properties run the default scale; acceptance criterion 09 runs p = 200,
    n = 80 and 300 trials.
    """
    sigma_sq = 0.05
    lam_s = power_law_spectrum(p, 1.5)
    lam_t = power_law_spectrum(p, 2.5)
    beta_star = power_law_signal(p, 2.5, 1.8)
    mapped = covariance_shift_map(beta_star, lam_s, lam_t)
    (model_shift,) = mc_one_stage_risks(lam_t, beta_star, [mapped], sigma_sq, [n], trials, seed)
    source = _source_design_risks(
        lam_s, lam_t, beta_star, sigma_sq, n, trials, seed + 1, transport=transport
    )
    mean_model, se_model = mean_and_se(model_shift)
    mean_source, se_source = mean_and_se(source)
    return abs(mean_model - mean_source), math.hypot(se_model, se_source)


def _prop_covariance_shift_equivalence(rng) -> Verdict:
    gap, se = _shift_gap(777, transport=True)
    return _tol_result(
        gap,
        3.0 * se,
        f"mapped-surrogate draws vs transported source-design draws, independent seeds, "
        f"{_SHIFT_TRIALS} trials each, means within 3 combined SE",
    )


def _prop_covariance_shift_refit_separation(rng) -> Verdict:
    gap, se = _shift_gap(811, transport=False)
    band = 3.0 * se
    return Verdict(
        passed=bool(gap > band),
        margin=float(gap / band - 1.0),
        detail=(
            "plain refit on the untransported source design measures a different "
            f"quantity; gap={gap:.3e} must exceed the 3 SE band {band:.3e}"
        ),
    )


def _prop_two_stage_degenerate_limit(rng) -> Verdict:
    p = 300
    lam = power_law_spectrum(p, 2.0)
    beta = power_law_signal(p, 2.0, 1.5)
    inst = ProblemInstance(
        spectrum_t=lam,
        spectrum_s=lam,
        beta_star=beta,
        sigma_t_sq=0.05,
        sigma_s_sq=0.0,
        n=50,
        m=p - 1,
    )
    two = two_stage_risk(inst).total
    omni = omniscient_risk(solve_tau(lam, 50), beta, 0.05).total
    rel = abs(two - omni) / omni
    return _tol_result(
        rel,
        0.02,
        "m = p-1, noiseless stage one, same spectra: pipeline risk meets the one-stage risk",
    )


def _prop_parallel_determinism(rng) -> Verdict:
    cfg = ExperimentConfig(
        experiment="risk-vs-n",
        p=60,
        n=(20,),
        alpha=(2.0,),
        beta_exp=1.5,
        trials=8,
        seed=99,
        workers=1,
    )
    csv1 = render_table(cfg, run_risk_vs_n(cfg))
    cfg3 = replace(cfg, workers=3)
    csv3 = render_table(cfg3, run_risk_vs_n(cfg3))
    return _bool_result(csv1 == csv3, "risk-vs-n output bytes identical with 1 and 3 workers")


def _prop_negative_control(rng) -> Verdict:
    lam = power_law_spectrum(100, 2.0)
    n = 30
    st = solve_tau(lam, n)
    bad_tau = st.tau * (1.0 + 1e-3)
    tol = _tolerance(n)
    residual = abs(fixed_point_residual(lam, bad_tau, n))
    caught = residual > tol
    return Verdict(
        passed=bool(caught),
        margin=float(residual / tol - 1.0),
        detail=(
            f"tau perturbed by a factor (1 + 1e-3) leaves residual {residual:.3e} "
            f"above tol {tol:.3e}; the residual check rejects the fault as it must"
        ),
    )


# The battery in report order: (report name, check). Entry i runs on the
# generator seeded by derive_seed(seed, STAGE_ROOT, i), so appending keeps every
# earlier property's draws; reordering or inserting changes them.
_PROPERTIES = (
    ("fixed-point-residual", _prop_fixed_point_residual),
    ("fixed-point-determinism", _prop_fixed_point_determinism),
    ("shrinkage-ordering", _prop_shrinkage_ordering),
    ("omega-identity", _prop_omega_identity),
    ("scale-covariance", _prop_scale_covariance),
    ("tau-bounds-sandwich", _prop_tau_bounds_sandwich),
    ("omega-lower-bound", _prop_omega_lower_bound),
    ("power-law-asymptotics", _prop_power_law_asymptotics),
    ("interpolation", _prop_interpolation),
    ("min-norm-minimality", _prop_min_norm_minimality),
    ("ols-normal-equations", _prop_ols_normal_equations),
    ("sampling-determinism", _prop_sampling_determinism),
    ("one-stage-dense-agreement", _prop_one_stage_dense_agreement),
    ("two-stage-dense-agreement", _prop_two_stage_dense_agreement),
    ("omniscient-consistency", _prop_omniscient_consistency),
    ("gamma-self-consistency", _prop_gamma_self_consistency),
    ("noise-monotonicity", _prop_noise_monotonicity),
    ("gain-threshold-sign", _prop_gain_threshold_sign),
    ("isotropy-degeneracy", _prop_isotropy_degeneracy),
    ("optimal-surrogate-optimality", _prop_optimal_surrogate_optimality),
    ("ordering-chain", _prop_ordering_chain),
    ("mask-brute-force-equality", _prop_mask_brute_force),
    ("mask-sparsity-monotone", _prop_mask_sparsity_monotone),
    ("covariance-shift-equivalence", _prop_covariance_shift_equivalence),
    ("covariance-shift-refit-separation", _prop_covariance_shift_refit_separation),
    ("two-stage-degenerate-limit", _prop_two_stage_degenerate_limit),
    ("parallel-determinism", _prop_parallel_determinism),
    ("negative-control-fault-detected", _prop_negative_control),
)


def run_property(index: int, seed: int) -> dict:
    """Run registry entry `index` on its generator derive_seed(seed, STAGE_ROOT, index).

    Returns the report entry: registry name, verdict, margin and detail. A
    check that raises is a failed property with margin -1, not a crash.
    """
    name, check = _PROPERTIES[index]
    rng = np.random.default_rng(derive_seed(seed, STAGE_ROOT, index))
    try:
        passed, margin, detail = check(rng)
    except Exception as exc:
        passed, margin, detail = False, -1.0, f"raised {exc!r}"
    return {"name": name, "passed": passed, "margin": margin, "detail": detail}


def run_verify(cfg: ExperimentConfig) -> dict:
    """Run every property at desk scale; return the report body output.render_json writes."""
    results = [run_property(index, cfg.seed) for index in range(len(_PROPERTIES))]
    return {
        "properties": results,
        "property_count": len(results),
        "all_passed": all(r["passed"] for r in results),
    }
