"""One pass of a workload in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed S --src DIR --out-dir DIR
                                [--trace] [--setup-only] [--reference]

The runner starts this process with the BLAS thread variables already in its
environment, so they hold before numpy is first imported. It times set-up
(importing w2s_lab and its CLI, and building the first config), then runs
every operation of the workload once, writing each operation's output under
--out-dir. The last line on stdout is one JSON object with the timings, the
peak resident memory, and, with --trace, the per-layer metrics.
Each time is reported both as wall time and calibrated: a kernel from
calibrate.py runs before the first and after every timed interval, and wall
times are scaled by the kernel's reference time over its median time in the
process (see calibrate.py).
--reference runs every CLI op with one worker, which is how refs/ was made.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

from calibrate import make_kernel, time_kernel
from workloads import SETUP_CALIBRATION, WORKLOADS, cli_argv, cli_config, output_kind


def _out_path(out_dir: str, op) -> str:
    return os.path.join(out_dir, op.name + (".csv" if output_kind(op) == "csv" else ".json"))


def _speed_factor(spec: dict, samples: list) -> float:
    """Reference over current host speed: spec["ref_s"] / median chunk time."""
    return spec["ref_s"] / statistics.median(samples)


def _blas_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        return {"name": None, "version": None}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    workers = 1 if args.reference else None
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)

    setup_kernel = make_kernel(SETUP_CALIBRATION)
    samples = time_kernel(setup_kernel, SETUP_CALIBRATION["chunks"])
    start = time.perf_counter()
    import w2s_lab
    from w2s_lab.harness import cli, config

    if not os.path.abspath(w2s_lab.__file__).startswith(src + os.sep):
        print(f"w2s_lab imported from {w2s_lab.__file__}, not {src}", file=sys.stderr)
        return 2
    first_cli = next((op for op in workload.ops if op.kind == "cli"), None)
    if first_cli is not None:
        config.build_config(first_cli.experiment, {}, **cli_config(first_cli, args.seed, workers))
    setup_wall_s = time.perf_counter() - start
    samples += time_kernel(setup_kernel, SETUP_CALIBRATION["chunks"])
    setup_s = setup_wall_s * _speed_factor(SETUP_CALIBRATION, samples)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}, allow_nan=False))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    os.makedirs(args.out_dir, exist_ok=True)
    spec = workload.calibration
    kernel = make_kernel(spec)
    time_kernel(kernel, 1)  # warm-up
    samples = time_kernel(kernel, spec["chunks"])
    ops = []
    for op in workload.ops:
        path = _out_path(args.out_dir, op)
        error = None
        start = time.perf_counter()
        try:
            if op.kind == "cli":
                argv = cli_argv(op, cli_config(op, args.seed, workers), path)
                code = cli.main(argv)
                if code != 0:
                    error = f"exit code {code}"
            else:
                c = op.config
                spectrum = w2s_lab.power_law_spectrum(c["p"], c["alpha"])
                signal = w2s_lab.power_law_signal(c["p"], c["alpha"], c["beta_exp"])
                mask = w2s_lab.brute_force_mask(spectrum, signal, c["n"], c["sigma_sq"])
        except Exception as exc:  # a raising op is a failed op, not a crashed pass
            error = repr(exc)
        wall = time.perf_counter() - start
        samples += time_kernel(kernel, spec["chunks"])
        if op.kind == "brute_force" and error is None:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"support": sorted(int(i) for i in mask)}, fh)
        ops.append({"name": op.name, "wall_s": wall, "error": error})
    factor = _speed_factor(spec, samples)
    for op in ops:
        op["seconds"] = op["wall_s"] * factor
    body_wall_s = sum(op["wall_s"] for op in ops)

    import numpy as np

    result = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "body_s": sum(op["seconds"] for op in ops),
        "body_wall_s": body_wall_s,
        "ops": ops,
        "speed_factor": factor,
        "kernel_s": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "blas": _blas_info(np),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(body_wall_s)
        result["untraced_layers"] = tracer.missing
        tracer.write_spans(os.path.join(args.out_dir, "spans.jsonl"))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
