"""Layer tracing from outside the program.

Tracer.install() replaces each traced public function with a wrapper that
records a span (id, name, start, end, parent, thread). The wrapper is bound
wherever the program binds the original: the defining module and every
w2s_lab module that imported the name (`from ..estimators import fit`).
Spans stay in memory; per-layer metrics are derived from them after the
timed body, and the spans can be written out as JSON lines at the end.

A span opened on a thread with no open span of its own (a trial running on a
pool thread) takes as parent the innermost open span of the thread that
installed the tracer, which is blocked waiting for the pool. Self time is a
span's duration minus the union of its children's intervals, so two children
running at once on two pool threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
import time

# Traced functions per module of the package.
LAYERS = {
    "w2s_lab.spectrum": ("solve_tau",),
    "w2s_lab.estimators": ("fit", "sample_dataset", "two_stage_fit", "empirical_excess_risk"),
    "w2s_lab.theory": ("one_stage_risk", "two_stage_risk"),
    "w2s_lab.design": ("optimal_surrogate", "optimal_mask", "brute_force_mask"),
    "w2s_lab.reference": ("one_stage_risk_dense", "two_stage_risk_dense"),
    "w2s_lab.harness.config": ("build_config",),
    "w2s_lab.harness.experiments": ("mc_one_stage_risks", "mc_two_stage_risks"),
    "w2s_lab.harness.output": ("write_outputs",),
    "w2s_lab.harness.verify": ("run_verify",),
}

# Functions called often enough somewhere for call-latency percentiles.
LATENCY_LAYERS = (
    "spectrum.solve_tau",
    "estimators.fit",
    "estimators.sample_dataset",
    "estimators.two_stage_fit",
    "estimators.empirical_excess_risk",
    "theory.one_stage_risk",
)

FANOUT_LAYERS = ("harness.experiments.mc_one_stage_risks", "harness.experiments.mc_two_stage_risks")


def _label(module: str, func: str) -> str:
    return module.removeprefix("w2s_lab.") + "." + func


def _fit_counts(bound, result):
    design = bound.arguments["design"]
    rows, p = len(design), len(design[0])
    return {
        "rank_deficient": int(bool(getattr(result, "rank_deficient", False))),
        "near_square": int(rows / p >= 0.9),
    }


def _sample_counts(bound, result):
    return {"bytes": int(bound.arguments["count"]) * len(bound.arguments["spectrum"]) * 8}


def _solve_tau_counts(bound, result):
    return {"elems": len(bound.arguments["spectrum"])}


def _write_counts(bound, result):
    return {"bytes": sum(os.path.getsize(path) for path in result)}


# Extra counters read from a call's arguments and result: label -> (names, fn).
COUNTERS = {
    "estimators.fit": (("rank_deficient", "near_square"), _fit_counts),
    "estimators.sample_dataset": (("bytes",), _sample_counts),
    "spectrum.solve_tau": (("elems",), _solve_tau_counts),
    "harness.output.write_outputs": (("bytes",), _write_counts),
}

_UNITS = {
    "calls": "count",
    "self_s": "s",
    "share": "fraction",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "rank_deficient": "count",
    "near_square": "count",
    "bytes": "bytes",
    "elems": "count",
}


def layer_metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for module, funcs in LAYERS.items():
        for func in funcs:
            label = _label(module, func)
            stats = ["calls", "self_s", "share"]
            if label in LATENCY_LAYERS:
                stats += ["p50_ms", "p90_ms"]
            stats += list(COUNTERS.get(label, ((), None))[0])
            for stat in stats:
                units[f"{label}.{stat}"] = _UNITS[stat]
    units["harness.experiments.fanout_util"] = "fraction"
    units["trace.overhead_frac"] = "fraction"
    return units


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _percentile_ms(values, q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


class Tracer:
    """Span recorder for one process; install() once, before the timed body."""

    def __init__(self):
        self.spans = []  # (id, label, start, end, parent, thread)
        self.counts = {}  # label -> {counter: total}
        self.workers = {}  # span id -> worker count, for fan-out spans
        self._ids = itertools.count(1)
        self._stacks = {}  # thread id -> open span ids
        self._lock = threading.Lock()
        self._home = threading.get_ident()
        self.missing = []

    def install(self) -> None:
        for module_name, funcs in LAYERS.items():
            module = sys.modules.get(module_name)
            for func in funcs:
                original = getattr(module, func, None) if module else None
                label = _label(module_name, func)
                if original is None:
                    self.missing.append(label)
                    continue
                wrapper = self._wrap(label, original)
                for name, mod in list(sys.modules.items()):
                    if name == "w2s_lab" or name.startswith("w2s_lab."):
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)

    def _wrap(self, label: str, original):
        counter = COUNTERS.get(label, (None, None))[1]
        fanout = label in FANOUT_LAYERS
        signature = inspect.signature(original) if counter or fanout else None
        spans = self.spans

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id = next(self._ids)
            thread = threading.get_ident()
            parent = self._push(span_id, thread)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._pop(thread)
                spans.append((span_id, label, start, end, parent, thread))
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if fanout:
                    self.workers[span_id] = int(bound.arguments.get("workers", 1))
                if counter:
                    self._add_counts(label, counter(bound, result))
            return result

        return wrapper

    def _push(self, span_id: int, thread: int):
        with self._lock:
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                home = self._stacks.get(self._home)
                parent = home[-1] if home and thread != self._home else None
            stack.append(span_id)
        return parent

    def _pop(self, thread: int) -> None:
        with self._lock:
            self._stacks[thread].pop()

    def _add_counts(self, label: str, counts: dict) -> None:
        with self._lock:
            totals = self.counts.setdefault(label, {})
            for key, value in counts.items():
                totals[key] = totals.get(key, 0) + value

    def layer_metrics(self, body_s: float) -> dict:
        """Per-layer metrics of the traced body; body_s is its wall time."""
        children = {}
        for span in self.spans:
            children.setdefault(span[4], []).append(span)
        self_s = {}
        durations = {}
        fan_child = 0.0
        fan_capacity = 0.0
        for span_id, label, start, end, _, _ in self.spans:
            kids = children.get(span_id, ())
            covered = _union_length(
                (max(k[2], start), min(k[3], end)) for k in kids if k[3] > start and k[2] < end
            )
            self_s[label] = self_s.get(label, 0.0) + (end - start) - covered
            durations.setdefault(label, []).append(end - start)
            if span_id in self.workers:
                fan_child += sum(k[3] - k[2] for k in kids)
                fan_capacity += self.workers[span_id] * (end - start)

        metrics = {}
        for module, funcs in LAYERS.items():
            for func in funcs:
                label = _label(module, func)
                calls = durations.get(label, [])
                own = self_s.get(label, 0.0)
                metrics[f"{label}.calls"] = len(calls)
                metrics[f"{label}.self_s"] = own
                metrics[f"{label}.share"] = own / body_s if body_s > 0 else 0.0
                if label in LATENCY_LAYERS:
                    metrics[f"{label}.p50_ms"] = _percentile_ms(calls, 50)
                    metrics[f"{label}.p90_ms"] = _percentile_ms(calls, 90)
                names = COUNTERS.get(label, ((), None))[0]
                for name in names:
                    metrics[f"{label}.{name}"] = self.counts.get(label, {}).get(name, 0)
        metrics["harness.experiments.fanout_util"] = (
            fan_child / fan_capacity if fan_capacity > 0 else 0.0
        )
        return metrics

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, label, start, end, parent, thread in self.spans:
                record = {
                    "id": span_id,
                    "name": label,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "thread": thread,
                }
                fh.write(json.dumps(record, allow_nan=False) + "\n")
