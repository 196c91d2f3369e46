"""Self-test of the benchmark's own checks; run.py runs it before every run.

    python3 perfbench/selftest.py

It plants faults in copies of recorded outputs and requires the output check
to reject each one, as the verify battery's negative control does for the
program. It also requires strict JSON (a non-finite value is reported as null
and counted as a failure) and requires every metric name to match
[A-Za-z0-9_.-]+ and to be declared in BENCHMARK.json with the same unit.
"""

from __future__ import annotations

import json
import os
import re

import check

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _ref(workload: str, op: str) -> str:
    with open(os.path.join(BENCH_DIR, "refs", workload + ".json"), encoding="utf-8") as fh:
        return json.load(fh)["outputs"][0][op]


def _perturb_mc_mean(text: str) -> str:
    """The same CSV with the first mc_mean scaled by (1 + 1e-4)."""
    lines = text.splitlines(keepends=True)
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[header_at].rstrip("\n").split(",").index("mc_mean")
    for i in range(header_at + 1, len(lines)):
        cells = lines[i].rstrip("\n").split(",")
        if cells[col]:
            cells[col] = repr(float(cells[col]) * (1.0 + 1e-4))
            lines[i] = ",".join(cells) + "\n"
            return "".join(lines)
    raise ValueError("no mc_mean value to perturb")


def _planted_faults() -> list:
    """(description, expected text, faulty text, output kind) for each planted fault."""
    csv_text = _ref("mc-two-stage-square", "two-stage-grid")
    verify_text = _ref("verify-design", "verify")
    support_text = _ref("verify-design", "brute-force-n5")

    flipped = json.loads(verify_text)
    flipped["properties"][0]["passed"] = not flipped["properties"][0]["passed"]
    infinite = json.loads(verify_text)
    infinite["properties"][0]["margin"] = float("inf")
    support = json.loads(support_text)
    support["support"] = support["support"][:-1]
    return [
        ("one mc_mean perturbed by 1e-4", csv_text, _perturb_mc_mean(csv_text), "csv"),
        ("one row dropped", csv_text, csv_text.rsplit("\n", 2)[0] + "\n", "csv"),
        ("one metadata line changed", csv_text, csv_text.replace("# seed=", "# seed=1", 1), "csv"),
        ("one verify verdict flipped", verify_text, json.dumps(flipped), "verify"),
        ("one verify margin infinite", verify_text, json.dumps(infinite), "verify"),
        ("one mask index dropped", support_text, json.dumps(support), "support"),
    ]


def run_selftest(end_to_end_units: dict, layer_units: dict) -> list:
    """Problems found; an empty list means every self-check held."""
    problems = []
    tolerances = check.load_tolerances()
    for what, expected, faulty, kind in _planted_faults():
        if check.compare_output(kind, expected, expected, tolerances):
            problems.append(f"an unchanged {kind} output is rejected")
        if not check.compare_output(kind, expected, faulty, tolerances):
            problems.append(f"planted fault not rejected: {what}")

    value, bad = check.sanitize({"m": [1.0, float("inf"), float("nan")]})
    if value != {"m": [1.0, None, None]} or bad != 2:
        problems.append("non-finite values are not reported as null and counted")
    try:
        json.dumps(float("inf"), allow_nan=False)
        problems.append("json.dumps accepts a non-finite value with allow_nan=False")
    except ValueError:
        pass

    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        declared = json.load(fh)
    for section, units in (("end_to_end", end_to_end_units), ("per_layer", layer_units)):
        listed = {m["name"]: m["unit"] for m in declared[section]}
        for name in units:
            if not NAME_RE.fullmatch(name):
                problems.append(f"metric name {name!r} does not match [A-Za-z0-9_.-]+")
        if listed != units:
            problems.append(f"{section} metrics differ from BENCHMARK.json: "
                            f"{sorted(set(listed) ^ set(units))} or their units")
    return problems


def main() -> int:
    from run import END_TO_END_UNITS
    from tracer import layer_metric_units

    problems = run_selftest(END_TO_END_UNITS, layer_metric_units())
    for problem in problems:
        print(problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
