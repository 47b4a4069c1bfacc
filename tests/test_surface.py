"""The public surface: what the package exports resolves, so does every
point the benchmark tracer hooks into, the helpers only the tests use stay
out of it, and every third-party module the package or its tests import is a
declared dependency."""

import ast
import importlib
import importlib.metadata
import importlib.util
import inspect
import os
import re
import sys

import pytest

import traywaiter

MODULES = ("compensation", "dynamics", "fileio", "planner", "smoothers")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


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


def test_test_only_helpers_live_in_the_tests():
    # the linear slosh oracle, its midpoint stencil, the desk-scale plant and
    # the rest motion serve only the tests, from tests/_oracles.py
    dynamics = importlib.import_module("traywaiter.dynamics")
    for name in ("simulate_linear_slosh", "_midpoints", "desk_params"):
        assert not hasattr(dynamics, name) and not hasattr(traywaiter, name), name
    assert not hasattr(dynamics.TrayMotion, "rest")


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


def _normalized(name):
    return re.sub(r"[-_.]+", "-", name).lower()


def _declared(specs):
    return {_normalized(re.match(r"[A-Za-z0-9._-]+", spec).group()) for spec in specs}


def _third_party_imports(directory):
    """Top-level modules the .py files of a directory import, less the
    standard library, the package and the directory's own modules."""
    files = [name for name in os.listdir(directory) if name.endswith(".py")]
    imported = set()
    for name in files:
        with open(os.path.join(directory, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    local = {name[:-3] for name in files}
    return imported - set(sys.stdlib_module_names) - {"traywaiter"} - local


def _undeclared(modules, declared):
    distributions = importlib.metadata.packages_distributions()
    return [m for m in modules
            if not {_normalized(d) for d in distributions[m]} & declared]


def test_third_party_imports_are_declared_dependencies():
    # the package needs its dependencies; the tests also need the test extra
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    runtime = _declared(project["dependencies"])
    testing = runtime | _declared(project["optional-dependencies"]["test"])
    package = _third_party_imports(os.path.dirname(traywaiter.__file__))
    tests = _third_party_imports(os.path.join(ROOT, "tests"))
    # the scans see imports
    assert {"numpy", "orjson", "yaml"} <= package
    assert {"hypothesis", "numpy", "pytest", "yaml"} <= tests
    assert _undeclared(package, runtime) == []
    assert _undeclared(tests, testing) == []
