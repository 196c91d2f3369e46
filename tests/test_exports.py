"""The public surface: each package's __all__ is exactly the names its __init__ imports."""

import ast
import importlib
import inspect

import pytest

PACKAGES = ("w2s_lab", "w2s_lab.harness")


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
