"""The contract between the package and the benchmark's layer tracer.

perfbench/tracer.py wraps the functions it lists by module and name, and its
counters and fan-out read call arguments by name. A rename in src would not
fail the benchmark: the layer would read as missing or a counter as zero.
These tests fail instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from w2s_lab import fit, power_law_spectrum, sample_dataset

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()

TRACED = [(module, func) for module, funcs in tracer.LAYERS.items() for func in funcs]

# The arguments the tracer binds by name, per traced function.
BOUND_ARGUMENTS = {
    "estimators.fit": ("design",),
    "estimators.sample_dataset": ("count", "spectrum"),
    "spectrum.solve_tau": ("spectrum",),
    "harness.experiments.mc_one_stage_risks": ("workers",),
    "harness.experiments.mc_two_stage_risks": ("workers",),
}


def _traced(label: str):
    module, func = label.rsplit(".", 1)
    return getattr(importlib.import_module("w2s_lab." + module), func)


@pytest.mark.parametrize("module,func", TRACED, ids=[f"{m}.{f}" for m, f in TRACED])
def test_every_traced_layer_exists(module, func):
    assert callable(getattr(importlib.import_module(module), func, None))


def test_bound_arguments_cover_the_counters_and_fan_out():
    """Every counter that reads arguments and every fan-out layer is listed above."""
    argument_counters = set(tracer.COUNTERS) - {"harness.output.write_outputs"}
    assert argument_counters | set(tracer.FANOUT_LAYERS) == set(BOUND_ARGUMENTS)


@pytest.mark.parametrize("label", sorted(BOUND_ARGUMENTS))
def test_bound_arguments_exist(label):
    parameters = inspect.signature(_traced(label)).parameters
    for name in BOUND_ARGUMENTS[label]:
        assert name in parameters, f"{label} has no argument {name!r}"


def _count(label: str, *args):
    """Run a traced function and the tracer's counter on its bound call."""
    original = _traced(label)
    result = original(*args)
    bound = inspect.signature(original).bind(*args)
    bound.apply_defaults()
    return tracer.COUNTERS[label][1](bound, result)


def test_counters_read_real_calls():
    spectrum = power_law_spectrum(12, 2.0)
    assert _count("spectrum.solve_tau", spectrum, 5) == {"elems": 12}
    assert _count("estimators.sample_dataset", spectrum, np.ones(12), 0.1, 7, 3) == {
        "bytes": 7 * 12 * 8
    }
    design = sample_dataset(spectrum, np.ones(12), 0.1, 13, 3).design
    design[:, 1] = design[:, 0]  # rank 11 < 12 = min(rows, p)
    assert _count("estimators.fit", design, np.ones(13)) == {
        "rank_deficient": 1,
        "near_square": 1,
    }
