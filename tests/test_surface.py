"""The public surface resolves: every exported name and every traced name."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import shockld

MODULES = ["shockld"] + [f"shockld.{m.name}"
                         for m in pkgutil.iter_modules(shockld.__path__)]

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names():
    """(module, attribute) of each TARGETS entry, read from the source."""
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value)
                    for entry in node.value.elts]
    raise AssertionError("no TARGETS list in perfbench/tracing.py")


@pytest.mark.parametrize("module", MODULES)
def test_all_entries_resolve(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.{name}"


def test_benchmark_tracer_targets_resolve():
    targets = traced_names()
    assert targets
    for module, attr in targets:
        assert hasattr(importlib.import_module(module), attr), \
            f"{module}.{attr}"
