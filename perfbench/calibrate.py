"""Host-speed calibration kernels, one per kind of hot path.

The benchmark runs on a shared host whose CPUs slow down by 30 percent and
more for minutes at a time, when neighbours take CPU time, cache or memory
bandwidth. A kernel that does the same kind of work as a workload's hot path,
timed in the same process between the timed intervals, slows down with it.
Each reported time is the measured wall time times (the kernel's reference
time / its time now), which is the time the interval would have taken at the
host speed on which the reference times were taken.

The kernels are fixed code on fixed inputs and do not use w2s_lab, so a
change to the package moves the measured time but not the kernel.

    theory  residual sums of the fixed point, as spectrum.solve_tau does them,
            on a 1e6-long power-law spectrum (long-vector numpy, memory bound)
    oracle  one_stage_risk-sized work on 14-long vectors: validation and
            short sums, so per-call interpreter and numpy overhead dominate
    fit     sample a Gaussian design and solve min-norm least squares, as a
            Monte Carlo trial does, on one thread or on a pool of `workers`
    python  pure-Python work (no numpy); it times set-up, before numpy loads

A kernel is timed in `chunks` short runs of `reps` repetitions each, 40 to
90 ms on the reference host. The host also stalls for tens of milliseconds at
random, which moves a single short run by up to a factor of two, so a pass
uses the median over all its chunks: it follows the slow drift and ignores
the stalls. The stalls that hit the workload itself average out in the
median over passes.
"""

from __future__ import annotations

import time


def _theory(np, reps: int):
    tail_first = (np.arange(1, 1_000_001, dtype=np.float64) ** -1.5)[::-1]

    def work() -> None:
        tau = 1e-6
        for _ in range(reps):
            float(np.sum(tail_first / (tail_first + tau)))
            tau *= 1.01

    return work


def _oracle(np, reps: int):
    idx = np.arange(1, 15, dtype=np.float64)
    lam_list = list(idx ** -2.0)
    beta = idx ** 0.25
    tau = 0.01

    def work() -> None:
        for i in range(reps):
            lam = np.asarray(lam_list, dtype=np.float64)
            if not np.all(np.isfinite(lam)) or not np.all(lam > 0.0) or np.any(np.diff(lam) > 0.0):
                raise AssertionError("calibration spectrum is invalid")
            chosen = [i % 14, (i + 5) % 14]
            values = np.zeros(14)
            values[chosen] = beta[chosen]
            keep = lam / (lam + tau)
            zeta = tau / (lam + tau)
            bias = float(np.sum((lam * (keep * values - beta) ** 2)[::-1]))
            float(np.sum((lam * zeta**2 * values**2)[::-1])) + bias

    return work


def _fit(np, reps: int, rows: int, p: int, workers: int):
    def trial(t: int) -> None:
        rng = np.random.default_rng(t)
        design = rng.standard_normal((rows, p))
        labels = design[:, 0] + rng.standard_normal(rows)
        np.linalg.lstsq(design, labels, rcond=None)

    if workers <= 1:
        return lambda: [trial(t) for t in range(reps)]
    from concurrent.futures import ThreadPoolExecutor

    def work() -> None:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(trial, range(reps)))

    return work


def _python(reps: int):
    def work() -> None:
        total = 0
        for i in range(reps):
            key = f"k{i % 97}"
            total += len(key.upper()) * (i & 7)

    return work


def make_kernel(spec: dict):
    """A zero-argument callable that runs one chunk of the kernel `spec` describes.

    Inputs are built here, outside the timed work.
    """
    kind = spec["kind"]
    if kind == "python":
        return _python(spec["reps"])
    import numpy as np

    if kind == "theory":
        return _theory(np, spec["reps"])
    if kind == "oracle":
        return _oracle(np, spec["reps"])
    if kind == "fit":
        return _fit(np, spec["reps"], spec["rows"], spec["p"], spec.get("workers", 1))
    raise ValueError(f"unknown calibration kernel {kind!r}")


def time_kernel(work, chunks: int) -> list:
    """Wall seconds of each of `chunks` runs of a kernel made by make_kernel."""
    times = []
    for _ in range(chunks):
        t0 = time.perf_counter()
        work()
        times.append(time.perf_counter() - t0)
    return times
