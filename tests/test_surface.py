"""The public surface: what the package exports resolves, and so does every
point the benchmark tracer hooks into."""

import importlib
import importlib.util
import inspect
import os

import pytest

import traywaiter

MODULES = ("compensation", "dynamics", "fileio", "planner", "smoothers")
TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"traywaiter.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_root_exports_are_listed_by_their_modules():
    # every name the package root re-exports is in its module's __all__
    for name, value in vars(traywaiter).items():
        if name.startswith("_") or inspect.ismodule(value):
            continue
        module = importlib.import_module(value.__module__)
        assert name in module.__all__, f"{name} is not in {value.__module__}.__all__"
    namespace = {}
    exec("from traywaiter import *", namespace)
    assert "plan" in namespace and "CascadeState" in namespace


def test_tracer_hook_points_resolve():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, path, _, _ in tracer.HOOKS:
        owner = importlib.import_module(f"traywaiter.{layer}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{layer}.{path}")
    assert missing == []
