"""Compare what the `w2s-lab` CLI writes from two source trees, byte for byte.

Usage:
    python tools/byte_identity.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the `w2s_lab` package (a checkout's
`src`). Every command of COMMANDS runs once per tree, as
`python -m w2s_lab.harness.cli`, with PYTHONPATH set to that tree and
OPENBLAS_NUM_THREADS=1. Both sides run in the same freshly made working
directory, emptied between them, so relative --out paths and the `wrote ...`
lines match. For each command the script compares stdout, stderr, the exit
code and every file the command wrote, prints one line, and exits 1 if any
command differs.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

COMMANDS = (
    # the CLI ops of the benchmark's four workloads, at the base experiment seed
    "risk-vs-n --p 500 --n 100,300 --alpha 2.0 --beta-exp 1.5 --trials 40"
    " --kinds ground-truth,optimal,masked --workers 1 --seed 20260822",
    "two-stage-grid --p 300 --n 90,240,285 --alpha 2.0 --trials 100 --workers 2 --seed 20260822",
    "scaling-slope --p 1000000 --n 1000,2000,4000,8000,16000,32000"
    " --kinds ground-truth,optimal --seed 20260822",
    "mask-count --p 1000000 --alpha 1.5,3.0 --n 1000,10000,100000 --seed 20260822",
    # every experiment at its defaults
    "risk-vs-n",
    "two-stage-grid",
    "gain-profile",
    "mask-count",
    "scaling-slope",
    "verify",
    "verify --seed 5",
    # written files: an --m grid on three workers with its JSON mirror, a verify report
    "two-stage-grid --p 120 --n 20,40 --m 30,60 --trials 30 --workers 3"
    " --out runs/grid.csv --json",
    "verify --seed 5 --out runs/verify.json",
    # refusals: n >= p, and a fixed point whose Omega rounds to 1
    "risk-vs-n --p 50 --n 20,50",
    "mask-count --p 2 --n 1 --alpha 1000 --out runs/refused.csv --json",
)


def _run(src: str, command: str, cwd: str) -> tuple:
    """(exit code, stdout, stderr, {relative path: bytes}) of one command from one tree."""
    env = dict(
        os.environ,
        PYTHONPATH=os.path.abspath(src),
        OPENBLAS_NUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "w2s_lab.harness.cli", *command.split()],
        cwd=cwd,
        env=env,
        capture_output=True,
        timeout=600,
    )
    files = {}
    for root, _, names in os.walk(cwd):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, cwd)] = fh.read()
    return proc.returncode, proc.stdout, proc.stderr, files


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python tools/byte_identity.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    for src in argv:
        if not os.path.isfile(os.path.join(src, "w2s_lab", "__init__.py")):
            print(f"{src}: no w2s_lab package", file=sys.stderr)
            return 2
    base = tempfile.mkdtemp(prefix="byte-identity-")
    cwd = os.path.join(base, "run")
    differs = 0
    try:
        for command in COMMANDS:
            sides = []
            for src in argv:
                os.mkdir(cwd)
                try:
                    sides.append(_run(src, command, cwd))
                finally:
                    shutil.rmtree(cwd)
            parent, change = sides
            fields = [
                label
                for label, a, b in zip(("exit code", "stdout", "stderr", "files"), parent, change)
                if a != b
            ]
            written = len(change[3])
            if fields:
                differs += 1
                print(f"DIFFERS ({', '.join(fields)}): w2s-lab {command}")
            else:
                print(
                    f"identical (exit {change[0]}, {written} file(s) written): w2s-lab {command}"
                )
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"{len(COMMANDS) - differs}/{len(COMMANDS)} commands identical")
    return 1 if differs else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
