"""The public surface: each package's __all__ is exactly the names its __init__ imports,
no module keeps a private twin `_name` of a name it defines, each harness
module imports on its own, and the declared numpy floor is one the code runs on."""

import ast
import importlib
import inspect
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import w2s_lab

PACKAGES = ("w2s_lab",)
SOURCE = pathlib.Path(w2s_lab.__file__).parent
HARNESS_MODULES = sorted(
    path.stem for path in (SOURCE / "harness").glob("*.py") if path.stem != "__init__"
)


def _imported_names(module) -> set:
    tree = ast.parse(inspect.getsource(module))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_is_unique_and_resolves(package):
    module = importlib.import_module(package)
    assert len(module.__all__) == len(set(module.__all__))
    for name in module.__all__:
        assert getattr(module, name, None) is not None, name


@pytest.mark.parametrize("package", PACKAGES)
def test_exports_equal_the_imports(package):
    # a stale export and a forgotten one both fail
    module = importlib.import_module(package)
    assert set(module.__all__) == _imported_names(module)


def _top_level_names(path: pathlib.Path) -> set:
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    return names


def test_no_module_defines_a_name_and_its_private_twin():
    # one implementation per concept: a public `f` beside a private `_f` is a
    # wrapper pair, and the public function should take the private one's arguments
    twins = {}
    for path in sorted(SOURCE.rglob("*.py")):
        names = _top_level_names(path)
        pairs = sorted(name for name in names if "_" + name in names)
        if pairs:
            twins[str(path.relative_to(SOURCE))] = pairs
    assert twins == {}


@pytest.mark.parametrize("module", HARNESS_MODULES)
def test_each_harness_module_imports_alone(module):
    # the harness package root imports nothing, so a module that leans on an
    # import made elsewhere fails here, in a fresh interpreter
    path = os.pathsep.join(filter(None, [str(SOURCE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"import w2s_lab.harness.{module}"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def _version(text: str) -> tuple:
    """(major, minor) of a version string such as 2.4.6 or 2.1.0rc1."""
    major, minor = re.match(r"(\d+)\.(\d+)", text).groups()
    return int(major), int(minor)


def test_numpy_floor_covers_the_numpy_2_api():
    # the estimators use ndarray.mT and the mask search np.bitwise_count, both new in 2.0
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        dependencies = tomllib.load(f)["project"]["dependencies"]
    (spec,) = [d for d in dependencies if re.match(r"numpy\b", d)]
    floor = re.fullmatch(r"numpy>=(\d+\.\d+)", spec).group(1)
    assert _version(floor) >= (2, 0)
    assert _version(np.__version__) >= _version(floor)
