"""Output checks: compare one operation's output with the seed commit's output.

Each compare function returns a list of problems; an empty list means the
output is accepted. The rules and their tolerances are in tolerances.json.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re

TOLERANCES_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tolerances.json")

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def load_tolerances(path: str = TOLERANCES_PATH) -> dict:
    """Column name -> (rtol, atol) for the CSV columns compared with a tolerance."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {
        col: (float(group["rtol"]), float(group["atol"]))
        for group in doc["csv_columns"]
        for col in group["columns"]
    }


def strict_loads(text: str):
    """Parse JSON, returning (value, count of non-finite numbers seen).

    Non-finite numbers (NaN, Infinity) are not JSON; they are read as None and
    counted so the caller can fail the operation that wrote them.
    """
    bad = []

    def reject(token):
        bad.append(token)
        return None

    return json.loads(text, parse_constant=reject), len(bad)


def sanitize(value):
    """(value with every non-finite float replaced by None, count replaced)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None, 1
    if isinstance(value, dict):
        out, bad = {}, 0
        for key, item in value.items():
            out[key], n = sanitize(item)
            bad += n
        return out, bad
    if isinstance(value, list):
        pairs = [sanitize(item) for item in value]
        return [p[0] for p in pairs], sum(p[1] for p in pairs)
    return value, 0


def _close(actual: str, expected: str, rtol: float, atol: float) -> bool:
    if actual == expected:
        return True
    try:
        a, e = float(actual), float(expected)
    except ValueError:
        return False
    return math.isfinite(a) and math.isfinite(e) and abs(a - e) <= atol + rtol * abs(e)


def compare_csv(expected: str, actual: str, tolerances: dict) -> list:
    exp_lines = expected.splitlines()
    act_lines = actual.splitlines()
    exp_meta = [line for line in exp_lines if line.startswith("#")]
    act_meta = [line for line in act_lines if line.startswith("#")]
    if exp_meta != act_meta:
        return [f"metadata differs: {act_meta} != {exp_meta}"]
    exp_rows = list(csv.reader(io.StringIO("\n".join(exp_lines[len(exp_meta):]))))
    act_rows = list(csv.reader(io.StringIO("\n".join(act_lines[len(act_meta):]))))
    if not exp_rows or not act_rows or exp_rows[0] != act_rows[0]:
        return ["column header differs"]
    if len(exp_rows) != len(act_rows):
        return [f"{len(act_rows) - 1} rows, expected {len(exp_rows) - 1}"]
    header = exp_rows[0]
    problems = []
    for r, (erow, arow) in enumerate(zip(exp_rows[1:], act_rows[1:]), start=1):
        if len(erow) != len(arow):
            problems.append(f"row {r}: {len(arow)} fields, expected {len(erow)}")
            continue
        for col, e, a in zip(header, erow, arow):
            tol = tolerances.get(col)
            if not (a == e if tol is None else _close(a, e, *tol)):
                problems.append(f"row {r} {col}: {a!r} != {e!r}")
    return problems


def _mask_numbers(text: str) -> str:
    return _NUMBER.sub("#", text)


def compare_verify(expected: str, actual: str) -> list:
    exp, _ = strict_loads(expected)
    act, nonfinite = strict_loads(actual)
    problems = [f"{nonfinite} non-finite numbers"] if nonfinite else []
    for key in ("schema", "build_id", "config", "property_count", "all_passed"):
        if act.get(key) != exp.get(key):
            problems.append(f"{key}: {act.get(key)!r} != {exp.get(key)!r}")
    eprops, aprops = exp["properties"], act.get("properties", [])
    if [p["name"] for p in aprops] != [p["name"] for p in eprops]:
        return problems + ["property names or order differ"]
    for e, a in zip(eprops, aprops):
        name = e["name"]
        if a["passed"] != e["passed"]:
            problems.append(f"{name}: passed={a['passed']}, expected {e['passed']}")
        margin = a["margin"]
        if not isinstance(margin, (int, float)) or (margin >= 0) != (e["margin"] >= 0):
            problems.append(f"{name}: margin {margin!r}, reference {e['margin']!r}")
        if _mask_numbers(a["detail"]) != _mask_numbers(e["detail"]):
            problems.append(f"{name}: detail {a['detail']!r} != {e['detail']!r}")
    return problems


def compare_support(expected: str, actual: str) -> list:
    exp, _ = strict_loads(expected)
    act, _ = strict_loads(actual)
    if act != exp:
        return [f"support {act} != {exp}"]
    return []


def compare_output(kind: str, expected: str, actual: str, tolerances: dict) -> list:
    """Problems with one op's output; `kind` is workloads.output_kind of the op."""
    try:
        if kind == "verify":
            return compare_verify(expected, actual)
        if kind == "support":
            return compare_support(expected, actual)
        return compare_csv(expected, actual, tolerances)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unreadable output: {exc!r}"]
