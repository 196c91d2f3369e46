"""End-to-end acceptance sweeps at documented scales, one verdict line per criterion.

Each test prints "[criterion NN] label: PASS/FAIL" with the measured margins
before asserting, so a full run reads as a ten-line scorecard under -s and a
ten-line test report under -v. Tolerances are written out literally next to
the quantities they gate.

The criteria call the lab's own reductions (`mean_and_se`, `_omega_window`,
verify's `_shift_gap`) instead of restating them; 01 and 05 share `_mc_agreement`.
"""

import math

import numpy as np

from w2s_lab import (
    brute_force_mask,
    omega_asymptotic,
    omega_lower_bound,
    one_stage_risk,
    optimal_mask,
    optimal_surrogate,
    power_law_signal,
    power_law_spectrum,
    solve_tau,
    tau_asymptotic,
    tau_bounds_nonasymptotic,
)
from w2s_lab.harness.config import build_config
from w2s_lab.harness.experiments import (
    mc_one_stage_risks,
    mean_and_se,
    run_mask_count,
    run_risk_vs_n,
    run_scaling_slope,
    run_two_stage_grid,
    surrogate_values_for_kind,
)
from w2s_lab.harness.verify import _shift_gap, run_verify
from w2s_lab.spectrum import _omega_window

MASTER_SEED = 20260822


def _verdict(num: int, label: str, ok: bool, detail: str) -> str:
    line = f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def _mc_agreement(columns, rows, rel_band: float):
    """Worst relative gap, worst z, and the rows past rel_band or 3 SE, over Monte Carlo rows."""
    worst_rel, worst_z, offenders = 0.0, 0.0, []
    for row in rows:
        d = dict(zip(columns, row))
        if d["source"] != "monte-carlo":
            continue
        gap = abs(d["mc_mean"] - d["theory_total"])
        rel = gap / d["theory_total"]
        z = gap / d["mc_se"]
        worst_rel = max(worst_rel, rel)
        worst_z = max(worst_z, z)
        if rel > rel_band or z > 3.0:
            offenders.append(f"alpha={d['alpha']} n=m={d['n']} rel={rel:.3f} z={z:.2f}")
    return worst_rel, worst_z, offenders


def test_criterion_01_one_stage_agreement():
    """Theory vs 200-trial Monte Carlo for every surrogate kind, p=500."""
    cfg = build_config(
        "risk-vs-n",
        {
            "p": 500,
            "n": (100, 200, 300),
            "alpha": (2.0,),
            "beta_exp": 1.5,
            "sigma_t_sq": 0.05,
            "trials": 200,
            "seed": MASTER_SEED,
        },
    )
    worst_rel, worst_z, offenders = _mc_agreement(*run_risk_vs_n(cfg), rel_band=0.05)
    ok = not offenders
    line = _verdict(
        1,
        "one-stage theory vs simulation",
        ok,
        f"worst rel {worst_rel:.4f} <= 0.05, worst z {worst_z:.2f} <= 3",
    )
    assert ok, line


def test_criterion_02_risk_ordering():
    """optimal < masked < ground-truth at n=200, gaps beyond 3 paired SE."""
    p, n, sigma_sq, trials = 500, 200, 0.05, 200
    spectrum = power_law_spectrum(p, 2.0)
    beta_star = power_law_signal(p, 2.0, 1.5)
    stats = solve_tau(spectrum, n)
    kinds = ("ground-truth", "optimal", "masked")
    values = [surrogate_values_for_kind(kind, stats, beta_star) for kind in kinds]
    theory = {
        kind: one_stage_risk(stats, beta_star, v, sigma_sq).total
        for kind, v in zip(kinds, values)
    }
    # one stacked call: every kind is fit on the same trial draws (paired)
    (risks,) = mc_one_stage_risks(
        spectrum, beta_star, [np.stack(values)], sigma_sq, [n], trials, MASTER_SEED
    )
    mc = {kind: risks[:, j] for j, kind in enumerate(kinds)}
    theory_ok = theory["optimal"] < theory["masked"] < theory["ground-truth"]
    ratios = []
    for low, high in (("optimal", "masked"), ("masked", "ground-truth")):
        mean, paired_se = mean_and_se(mc[high] - mc[low])
        ratios.append(mean / (3.0 * paired_se))
    mc_ok = all(r > 1.0 for r in ratios)
    ok = theory_ok and mc_ok
    line = _verdict(
        2,
        "risk ordering with paired gaps",
        ok,
        f"theory ordering {theory_ok}, gap/3SE {ratios[0]:.1f} and {ratios[1]:.1f}",
    )
    assert ok, line


def test_criterion_03_optimal_surrogate_stationarity():
    """Central finite differences vanish at the optimal surrogate."""
    rng = np.random.default_rng(MASTER_SEED)
    h = 1e-5
    worst = 0.0
    for _ in range(20):
        p = 20
        n = int(rng.choice([5, 10, 15]))
        lam = np.sort(rng.uniform(0.05, 3.0, size=p))[::-1]
        beta_star = rng.normal(size=p)
        stats = solve_tau(lam, n)
        opt = optimal_surrogate(stats, beta_star)
        risk = one_stage_risk(stats, beta_star, opt, 0.0).total
        tol = 1e-6 * (1.0 + risk)
        for i in range(p):
            step = np.zeros(p)
            step[i] = h
            up = one_stage_risk(stats, beta_star, opt + step, 0.0).total
            down = one_stage_risk(stats, beta_star, opt - step, 0.0).total
            worst = max(worst, abs(up - down) / (2.0 * h) / tol)
    ok = worst <= 1.0
    line = _verdict(
        3,
        "optimal surrogate stationarity",
        ok,
        f"worst |gradient| at {worst:.3e} of the 1e-6*(1+risk) budget",
    )
    assert ok, line


def test_criterion_04_mask_exhaustive_equivalence():
    """All 4096 supports at p=12 never beat the threshold mask, 50 instances."""
    rng = np.random.default_rng(MASTER_SEED)
    mismatches = 0
    for _ in range(50):
        p = 12
        n = int(rng.integers(3, 10))
        lam = np.sort(rng.uniform(0.05, 3.0, size=p))[::-1]
        beta_star = rng.normal(size=p)
        sigma_sq = float(rng.choice([0.0, 1.0]))
        if brute_force_mask(lam, beta_star, n, sigma_sq) != optimal_mask(solve_tau(lam, n)):
            mismatches += 1
    ok = mismatches == 0
    line = _verdict(
        4, "mask oracle equivalence", ok, f"{mismatches}/50 instances disagree"
    )
    assert ok, line


def test_criterion_05_two_stage_agreement():
    """Theory vs 400-trial Monte Carlo on the (alpha, n=m) grid, p=100."""
    cfg = build_config(
        "two-stage-grid",
        {
            "p": 100,
            "n": tuple(range(10, 81, 10)),
            "alpha": (1.5, 2.0),
            "trials": 400,
            "seed": MASTER_SEED,
        },
    )
    worst_rel, worst_z, offenders = _mc_agreement(*run_two_stage_grid(cfg), rel_band=0.10)
    ok = not offenders
    line = _verdict(
        5,
        "two-stage theory vs simulation",
        ok,
        f"worst rel {worst_rel:.4f} <= 0.10, worst z {worst_z:.2f} <= 3"
        + ("; offenders: " + "; ".join(offenders) if offenders else ""),
    )
    assert ok, line


def test_criterion_06_asymptotics_and_bounds():
    """Power-law tau/Omega limits at p=1e5 plus a 30-point bound sandwich grid."""
    limit_ok = True
    details = []
    for n in (50, 100, 200):
        stats = solve_tau(power_law_spectrum(10**5, 2.0), n)
        tau_rel = abs(stats.tau - tau_asymptotic(2.0, n)) / stats.tau
        omega_gap = abs(stats.omega - omega_asymptotic(2.0))
        details.append(f"n={n}: tau rel {tau_rel:.4f}, omega gap {omega_gap:.4f}")
        if tau_rel > 10.0 / n or omega_gap > 10.0 / n:
            limit_ok = False
    rng = np.random.default_rng(MASTER_SEED)
    grid_ok = True
    for _ in range(30):
        alpha = float(rng.uniform(3.3, 6.0))
        p = int(rng.integers(600, 1500))
        low_edge, high_edge = _omega_window(alpha, p)
        n = int(rng.integers(math.floor(low_edge) + 2, math.ceil(high_edge) - 1))
        stats = solve_tau(power_law_spectrum(p, alpha), n)
        lower, upper = tau_bounds_nonasymptotic(alpha, p, n)
        if not (lower <= stats.tau <= upper):
            grid_ok = False
        if omega_lower_bound(alpha, p, n) > stats.omega:
            grid_ok = False
    ok = limit_ok and grid_ok
    line = _verdict(
        6,
        "tau/omega asymptotics and bounds",
        ok,
        "; ".join(details) + f"; 30-point bound grid ok={grid_ok}",
    )
    assert ok, line


def test_criterion_07_mask_count_prediction():
    """Optimal mask size tracks n*C2 within 0.05n + 5 across alphas."""
    cfg = build_config(
        "mask-count",
        {
            "p": 500,
            "alpha": (1.5, 3.0, 4.5),
            "n": tuple(range(10, 101, 10)),
            "seed": MASTER_SEED,
        },
    )
    columns, rows = run_mask_count(cfg)
    without = [r for r in rows if dict(zip(columns, r))["within"] != 1]
    worst = max(
        dict(zip(columns, r))["abs_error"] - dict(zip(columns, r))["tolerance"]
        for r in rows
    )
    ok = not without
    line = _verdict(
        7,
        "mask-count prediction",
        ok,
        f"{len(rows) - len(without)}/{len(rows)} points inside 0.05n+5 "
        f"(worst slack {-worst:.2f})",
    )
    assert ok, line


def _slopes(cfg):
    """(target, optimal, predicted) slopes, repeated in every scaling-slope row."""
    columns, rows = run_scaling_slope(cfg)
    first = dict(zip(columns, rows[0]))
    return first["slope_target"], first["slope_optimal"], first["predicted_slope"]


def test_criterion_08_scaling_law_slopes():
    """Log-log risk slopes match the predicted decay exponents, p=8000."""
    shared = {
        "p": 8000,
        "n": (50, 100, 200, 400, 800),
        "sigma_t_sq": 0.0,
        "kinds": ("ground-truth", "optimal"),
        "seed": MASTER_SEED,
    }
    cfg = build_config("scaling-slope", dict(shared, alpha=(2.0,), beta_exp=1.5))
    target_1, optimal_1, predicted_1 = _slopes(cfg)
    regime_1_ok = (
        abs(target_1 - predicted_1) <= 0.1
        and abs(optimal_1 - predicted_1) <= 0.1
        and abs(target_1 - optimal_1) <= 0.05
    )
    cfg = build_config("scaling-slope", dict(shared, alpha=(1.2,), beta_exp=4.0))
    target_2, optimal_2, predicted_2 = _slopes(cfg)
    regime_2_ok = (
        abs(target_2 - predicted_2) <= 0.15 and abs(optimal_2 - predicted_2) <= 0.15
    )
    ok = regime_1_ok and regime_2_ok and predicted_1 == -0.5 and predicted_2 == -2.4
    line = _verdict(
        8,
        "scaling-law exponents",
        ok,
        f"signal-limited {target_1:.3f}/{optimal_1:.3f} vs {predicted_1}; "
        f"spectrum-limited {target_2:.3f}/{optimal_2:.3f} vs {predicted_2}",
    )
    assert ok, line


def test_criterion_09_shift_pipeline_equivalence():
    """Mapped model-shift risk equals the transported source-design risk, 3 SE."""
    # the source design draws on MASTER_SEED + 1, moved into the target frame
    gap, se = _shift_gap(MASTER_SEED, True, p=200, n=80, trials=300)
    band = 3.0 * se
    ok = gap <= band
    line = _verdict(
        9,
        "shift pipeline equivalence",
        ok,
        f"gap {gap:.4f} within 3 SE band {band:.4f}",
    )
    assert ok, line


def test_criterion_10_property_suite():
    """Full verify battery passes, including the seeded-fault negative control."""
    cfg = build_config("verify", {"seed": MASTER_SEED})
    report = run_verify(cfg)
    names = {prop["name"] for prop in report["properties"]}
    required = {
        "fixed-point-residual",
        "interpolation",
        "min-norm-minimality",
        "one-stage-dense-agreement",
        "two-stage-dense-agreement",
        "gain-threshold-sign",
        "isotropy-degeneracy",
        "parallel-determinism",
        "negative-control-fault-detected",
    }
    failed = [p["name"] for p in report["properties"] if not p["passed"]]
    ok = (
        report["all_passed"]
        and report["property_count"] >= 15
        and required <= names
        and not failed
    )
    line = _verdict(
        10,
        "verification property suite",
        ok,
        f"{report['property_count']} properties, failed={failed or 'none'}, "
        f"missing={sorted(required - names) or 'none'}",
    )
    assert ok, line
