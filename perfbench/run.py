"""w2s-lab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; it benchmarks the package under ./src. Every
pass of a workload runs in a fresh worker process (worker.py) with the BLAS
thread variables set before numpy loads. Passes repeat, each waiting for the
previous one, until the next would end after --seconds. Every operation's
output is compared with the seed commit's output in refs/ (see check.py).

--trace 0 prints the end-to-end metrics, taken from untraced passes only.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced ones, plus trace.overhead_frac, the traced over the
untraced median body time minus 1.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
The line before it is the provenance record; the full record, with every
pass, is written to .perfbench_out/<workload>/result-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import check
import selftest
from tracer import layer_metric_units
from workloads import REFERENCE_SEEDS, WORKLOADS, experiment_seed, output_kind

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(BENCH_DIR, "refs")
OUT_NAME = ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Set-up is short and noisy, so it is sampled more often than passes run:
# every pass reports one sample, and set-up-only processes top them up.
SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 150


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env(workload) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for var in THREAD_VARS:
        env[var] = str(workload.blas_threads)
    return env


def run_worker(workload, seed: int, root: str, out_dir: str, *flags) -> dict:
    """One worker process; returns its JSON result, or {"error": ...}."""
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "worker.py"),
        "--workload",
        workload.name,
        "--seed",
        str(seed),
        "--src",
        os.path.join(root, "src"),
        "--out-dir",
        out_dir,
        *flags,
    ]
    try:
        proc = subprocess.run(
            cmd,
            env=worker_env(workload),
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {WORKER_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"unreadable worker result: {lines[-1][:200]!r}"}


def load_reference(workload, index: int, seed: int) -> dict:
    with open(os.path.join(REFS_DIR, workload.name + ".json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    if refs["experiment_seeds"][index] != seed:
        raise SystemExit(f"refs/{workload.name}.json was recorded for other seeds")
    return refs["outputs"][index]


def check_pass(workload, result: dict, out_dir: str, reference: dict, tolerances) -> list:
    """Per-op problem lists for one pass (empty list = op passed)."""
    if "error" in result:
        return [[result["error"]] for _ in workload.ops]
    kinds = {op.name: output_kind(op) for op in workload.ops}
    problems = []
    for op_result in result["ops"]:
        name = op_result["name"]
        if op_result["error"] is not None:
            problems.append([op_result["error"]])
            continue
        paths = glob.glob(os.path.join(out_dir, name + ".*"))
        if len(paths) != 1:
            problems.append([f"{name}: expected one output file, found {len(paths)}"])
            continue
        with open(paths[0], encoding="utf-8") as fh:
            actual = fh.read()
        problems.append(check.compare_output(kinds[name], reference[name], actual, tolerances))
    return problems


def git_commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_line_count(root: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def median_of(passes, key):
    return statistics.median(key(p) for p in passes)


def end_to_end_metrics(workload, passes, setup_samples) -> dict:
    def work_rate(result):
        seconds = sum(op["seconds"] for op in result["ops"] if op["name"] in workload.work_ops)
        return workload.work_units / seconds

    return {
        "setup_s": statistics.median(setup_samples),
        "run_s": median_of(passes, lambda r: r["body_s"]),
        "work_per_s": median_of(passes, work_rate),
        "peak_rss_mb": median_of(passes, lambda r: r["peak_rss_mb"]),
    }


def layer_metrics(untraced, traced) -> dict:
    metrics = {
        name: median_of(traced, lambda r, name=name: r["layers"][name])
        for name in layer_metric_units()
        if name != "trace.overhead_frac"
    }
    metrics["trace.overhead_frac"] = (
        median_of(traced, lambda r: r["body_s"]) / median_of(untraced, lambda r: r["body_s"])
        - 1.0
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="w2s-lab benchmark runner")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "w2s_lab", "__init__.py")):
        print("no w2s_lab package under ./src; run from the repository root", file=sys.stderr)
        return 2
    problems = selftest.run_selftest(END_TO_END_UNITS, layer_metric_units())
    if problems:
        print("benchmark self-test failed:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload]
    if workload.workers * workload.blas_threads > nproc():
        print(
            f"refusing {workload.name}: {workload.workers} workers x "
            f"{workload.blas_threads} BLAS threads exceeds nproc={nproc()}",
            file=sys.stderr,
        )
        return 1

    index, seed = experiment_seed(args.seed)
    reference = load_reference(workload, index, seed)
    tolerances = check.load_tolerances()
    out_root = os.path.join(root, OUT_NAME, workload.name)
    os.makedirs(out_root, exist_ok=True)

    # Untimed warm-up: the first import in a fresh checkout compiles bytecode.
    warm = run_worker(workload, seed, root, out_root, "--setup-only")
    if "error" in warm:
        print(f"set-up failed: {warm['error']}", file=sys.stderr)
        return 1

    start = time.perf_counter()
    untraced, traced, pass_walls, op_problems = [], [], [], []
    while True:
        trace = bool(args.trace) and len(traced) < len(untraced)
        out_dir = os.path.join(out_root, "traced" if trace else "pass")
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        result = run_worker(workload, seed, root, out_dir, *(["--trace"] if trace else []))
        pass_walls.append(time.perf_counter() - t0)
        op_problems += check_pass(workload, result, out_dir, reference, tolerances)
        if "error" not in result:
            (traced if trace else untraced).append(result)
        elapsed = time.perf_counter() - start
        enough = untraced and (traced or not args.trace)
        if enough and elapsed + statistics.median(pass_walls) > args.seconds:
            break
        if len(pass_walls) >= 3 and not untraced:
            break  # every pass failed; do not spin for the whole budget

    setup_samples = [r["setup_s"] for r in untraced + traced]
    while len(setup_samples) < SETUP_SAMPLES:
        sample = run_worker(workload, seed, root, out_root, "--setup-only")
        if "error" in sample:
            print(f"set-up failed: {sample['error']}", file=sys.stderr)
            return 1
        setup_samples.append(sample["setup_s"])

    failed = sum(1 for p in op_problems if p)
    attempted = len(op_problems)
    if not untraced or (args.trace and not traced):
        metrics = {}
    elif args.trace:
        metrics = layer_metrics(untraced, traced)
    else:
        metrics = end_to_end_metrics(workload, untraced, setup_samples)
    metrics, nonfinite = check.sanitize(metrics)
    failed += nonfinite
    attempted += nonfinite
    units = layer_metric_units() if args.trace else END_TO_END_UNITS
    sample = (untraced + traced + [{}])[0]
    provenance = {
        "workload": workload.name,
        "bench_seed": args.seed,
        "experiment_seed": seed,
        "reference_index": index,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": sample.get("numpy"),
        "blas": sample.get("blas"),
        "thread_env": {var: str(workload.blas_threads) for var in THREAD_VARS},
        "workers": workload.workers,
        "git_commit": git_commit(root),
        "src_lines": src_line_count(root),
        "passes_untraced": len(untraced),
        "passes_traced": len(traced),
        "setup_samples": len(setup_samples),
        "work_unit": workload.work_unit,
        "work_units_per_pass": workload.work_units,
        "reference_seeds": REFERENCE_SEEDS,
    }
    problems = [p for plist in op_problems for p in plist]
    record = {
        "provenance": provenance,
        "problems": problems,
        "passes": untraced + traced,
        "metrics": metrics,
    }
    with open(os.path.join(out_root, f"result-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, allow_nan=False)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    summary = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps({"provenance": provenance}, allow_nan=False))
    print(json.dumps(summary, allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
