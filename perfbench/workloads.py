"""Workload definitions shared by the runner, the worker and the reference builder.

Each workload is a fixed list of operations run back to back by one caller
(a closed loop). An operation is either one `w2s-lab` CLI experiment, run
through `w2s_lab.harness.cli.main`, or one library call. The benchmark's
`--seed` picks one of REFERENCE_SEEDS recorded experiment seeds, so every
run's output can be compared with the seed commit's output for that seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Seeds n and n + REFERENCE_SEEDS select the same inputs; refs/ holds one
# recorded output per selectable seed.
REFERENCE_SEEDS = 10
BASE_EXPERIMENT_SEED = 20260822  # the package's default master seed

# Each calibration's ref_s is the kernel's median chunk time over 40 chunks
# (see calibrate.py) on a 2-CPU virtual machine: Intel Xeon, OpenBLAS 0.3.31,
# numpy 2.4.6, Python 3.11. Calibrated times are seconds at that host speed.
SETUP_CALIBRATION = dict(kind="python", reps=40_000, chunks=5, ref_s=0.0197)


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    kind "cli": `experiment` run with the config fields in `config`.
    kind "brute_force": design.brute_force_mask on the power-law problem in
    `config` (keys p, alpha, beta_exp, sigma_sq, n).
    """

    name: str
    kind: str
    experiment: str = ""
    config: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    blas_threads: int
    workers: int
    ops: tuple
    work_unit: str
    work_units: int  # units of work per pass, counted from the inputs
    work_ops: tuple  # ops whose wall time the work rate divides by
    calibration: dict  # calibrate.py kernel run between ops, with its ref_s


MC_ONE_STAGE = Workload(
    name="mc-one-stage",
    blas_threads=2,
    workers=1,
    ops=(
        Op(
            name="risk-vs-n",
            kind="cli",
            experiment="risk-vs-n",
            config=dict(
                p=500,
                n=(100, 300),
                alpha=(2.0,),
                beta_exp=1.5,
                trials=40,
                kinds=("ground-truth", "optimal", "masked"),
                workers=1,
            ),
        ),
    ),
    work_unit="Monte Carlo trials",
    work_units=40 * 2 * 3,
    work_ops=("risk-vs-n",),
    calibration=dict(kind="fit", reps=1, chunks=8, rows=300, p=500, ref_s=0.0396),
)

MC_TWO_STAGE_SQUARE = Workload(
    name="mc-two-stage-square",
    blas_threads=1,
    workers=2,
    ops=(
        Op(
            name="two-stage-grid",
            kind="cli",
            experiment="two-stage-grid",
            config=dict(p=300, n=(90, 240, 285), alpha=(2.0,), trials=100, workers=2),
        ),
    ),
    work_unit="two-stage Monte Carlo trials (both stages)",
    work_units=100 * 3,
    work_ops=("two-stage-grid",),
    calibration=dict(
        kind="fit", reps=6, chunks=5, rows=285, p=300, workers=2, ref_s=0.0930
    ),
)

THEORY_LARGE_P = Workload(
    name="theory-large-p",
    blas_threads=1,
    workers=1,
    ops=(
        Op(
            name="scaling-slope",
            kind="cli",
            experiment="scaling-slope",
            config=dict(
                p=1_000_000,
                n=(1000, 2000, 4000, 8000, 16000, 32000),
                kinds=("ground-truth", "optimal"),
            ),
        ),
        Op(
            name="mask-count",
            kind="cli",
            experiment="mask-count",
            config=dict(p=1_000_000, alpha=(1.5, 3.0), n=(1000, 10000, 100000)),
        ),
    ),
    work_unit="sweep points (one fixed-point solve at p=1e6 each)",
    work_units=6 + 2 * 3,
    work_ops=("scaling-slope", "mask-count"),
    calibration=dict(kind="theory", reps=4, chunks=5, ref_s=0.0493),
)

_BRUTE = dict(p=14, alpha=2.0, beta_exp=1.5, sigma_sq=0.05)

VERIFY_DESIGN = Workload(
    name="verify-design",
    blas_threads=1,
    workers=1,
    ops=(
        Op(name="verify", kind="cli", experiment="verify", config=dict()),
        *(
            Op(name=f"brute-force-n{n}", kind="brute_force", config=dict(_BRUTE, n=n))
            for n in (3, 5, 7)
        ),
    ),
    work_unit="candidate masks evaluated by brute_force_mask",
    work_units=3 * 2**14,
    work_ops=("brute-force-n3", "brute-force-n5", "brute-force-n7"),
    calibration=dict(kind="oracle", reps=800, chunks=5, ref_s=0.0460),
)

WORKLOADS = {
    w.name: w for w in (MC_ONE_STAGE, MC_TWO_STAGE_SQUARE, THEORY_LARGE_P, VERIFY_DESIGN)
}


def output_kind(op: Op) -> str:
    """How an op's output is written and checked: "csv", "verify" or "support"."""
    if op.kind == "brute_force":
        return "support"
    return "verify" if op.experiment == "verify" else "csv"


def experiment_seed(bench_seed: int) -> tuple[int, int]:
    """(reference index, experiment master seed) selected by a benchmark seed."""
    index = int(bench_seed) % REFERENCE_SEEDS
    return index, BASE_EXPERIMENT_SEED + index


def cli_config(op: Op, seed: int, workers: int | None = None) -> dict:
    """Typed config fields for a CLI op, as build_config takes them."""
    values = dict(op.config, seed=seed)
    if workers is not None and "workers" in values:
        values["workers"] = workers
    return values


def cli_argv(op: Op, values: dict, out_path: str) -> list:
    """The `w2s-lab` command line equivalent to (op.experiment, values)."""
    argv = [op.experiment]
    for key, value in values.items():
        text = ",".join(str(v) for v in value) if isinstance(value, tuple) else str(value)
        argv += ["--" + key.replace("_", "-"), text]
    return argv + ["--out", out_path, "--force"]
