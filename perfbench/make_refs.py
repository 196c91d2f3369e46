"""Record the reference outputs in refs/ from the package under ./src.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Run from the repository root at the commit whose outputs every later run is
compared with. Each workload runs once per selectable seed with one worker,
so a workload that runs with more workers is checked against single-worker
output.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import OUT_NAME, REFS_DIR, run_worker
from workloads import REFERENCE_SEEDS, WORKLOADS, experiment_seed


def main(names) -> int:
    root = os.getcwd()
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        seeds, outputs = [], []
        for bench_seed in range(REFERENCE_SEEDS):
            _, seed = experiment_seed(bench_seed)
            out_dir = os.path.join(root, OUT_NAME, "refs", name)
            shutil.rmtree(out_dir, ignore_errors=True)
            result = run_worker(workload, seed, root, out_dir, "--reference")
            failed = [op for op in result.get("ops", []) if op["error"]]
            if "error" in result or failed:
                print(f"{name} seed {seed}: {result.get('error') or failed}", file=sys.stderr)
                return 1
            texts = {}
            for fname in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, fname), encoding="utf-8") as fh:
                    texts[os.path.splitext(fname)[0]] = fh.read()
            seeds.append(seed)
            outputs.append(texts)
            print(f"{name} seed {seed}: recorded {sorted(texts)}", file=sys.stderr)
        os.makedirs(REFS_DIR, exist_ok=True)
        with open(os.path.join(REFS_DIR, name + ".json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "experiment_seeds": seeds, "outputs": outputs},
                      fh, indent=1, allow_nan=False)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
