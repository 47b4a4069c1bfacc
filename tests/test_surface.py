"""The public surface: what the package exports resolves, so does every
point the benchmark tracer hooks into, every export is used by the package
or documented in the README, the helpers only the tests use stay out of it,
the simulators start from rest only, the CLI starts without the compiled
loops' build tools, the smoother kinds have one spelling each and their
cascade one start, every third-party module the package or its tests import
is a declared dependency, and no new numpy call or BLAS product whose bytes
depend on the CPU enters the package."""

import ast
import dataclasses
import importlib
import importlib.metadata
import importlib.util
import inspect
import os
import re
import subprocess
import sys
import typing

import pytest

import traywaiter
from traywaiter import smoothers
from traywaiter.compensation import MountingTransform
from traywaiter.fileio import PoseTrajectoryFile

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
    # the linear slosh oracle, its midpoint stencil, the desk-scale plant,
    # the rest motion and the contact model's reference formulas serve only
    # the tests, from tests/_oracles.py
    dynamics = importlib.import_module("traywaiter.dynamics")
    for name in ("simulate_linear_slosh", "_midpoints", "desk_params", "_pendulum_rhs",
                 "_normal", "_demand", "_stick_rates", "_stick_eval"):
        assert not hasattr(dynamics, name) and not hasattr(traywaiter, name), name
    assert not hasattr(dynamics.TrayMotion, "rest")


def test_matrix_route_lives_in_the_tests():
    # the package keeps every rotation as a quaternion and builds the mount
    # from its rpy in floats; the rotation-matrix converters and the mount's
    # matrix route serve only the tests, from tests/_oracles.py
    modules = [traywaiter, importlib.import_module("traywaiter.cli")]
    modules += [importlib.import_module(f"traywaiter.{name}") for name in MODULES]
    for module in modules:
        for name in ("rotation_to_quaternion", "quaternion_to_rotation",
                     "_check_rotation", "_rpy_matrix"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(MountingTransform, "from_parts")
    assert not hasattr(MountingTransform(), "matrix")
    assert not hasattr(PoseTrajectoryFile, "rotations")


def _used_in_the_package():
    """Names the package's source files read, as a name or an attribute,
    outside the definition of a function or class of that name."""
    package = os.path.dirname(traywaiter.__file__)
    used = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, ast.Name) and node.id not in defining:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in defining:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                visit(ast.parse(fh.read()), frozenset())
    return used


# exports that neither a CLI path nor the README reaches yet, with the reason
# each stays: the analytic tilt channel, which the planner and simulate are
# to take in place of the finite-difference one
UNUSED_EXPORTS_ALLOWED = {"analytic_tilt_channel"}


def test_every_export_is_used_by_the_package_or_documented():
    # an export the package never reads and the README never names serves
    # only the tests, which reach the package's internals anyway
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    used = _used_in_the_package()
    exported = {name for name in vars(traywaiter) if not name.startswith("_")
                and not inspect.ismodule(vars(traywaiter)[name])}
    for name in MODULES:
        exported.update(importlib.import_module(f"traywaiter.{name}").__all__)
    exported.discard("__version__")
    unused = {name for name in exported
              if name not in used and not re.search(rf"\b{name}\b", readme)}
    assert unused == UNUSED_EXPORTS_ALLOWED


def test_library_only_api_is_gone():
    # the glued pendulum is simulate_coupled with mu = inf, the friction of a
    # row is the trace's demand and f_s, a start state other than rest goes
    # to the engine directly, the motion has one sampler and the arc-length
    # rollout is part of rollout_trajectory
    dynamics = importlib.import_module("traywaiter.dynamics")
    planner = importlib.import_module("traywaiter.planner")
    compensation = importlib.import_module("traywaiter.compensation")
    for module, names in ((dynamics, ("simulate_pendulum", "friction_margin", "SimState")),
                          (planner, ("rollout_profile",))):
        for name in names:
            assert not hasattr(module, name) and not hasattr(traywaiter, name), name
    # tilt_angles stays a tracer hook point only
    assert not hasattr(traywaiter, "tilt_angles")
    assert "tilt_angles" not in compensation.__all__
    assert not hasattr(dynamics.SimTrace, "margin")
    for simulate in (dynamics.simulate_coupled, dynamics.simulate_solid_sliding):
        params = inspect.signature(simulate).parameters
        assert list(params) == ["params", "motion", "dt"], simulate.__name__
        assert params["dt"].default is None
    assert "interp" not in {f.name for f in dataclasses.fields(dynamics.TrayMotion)}
    assert "interp" not in inspect.signature(dynamics.TrayMotion.from_channels).parameters


def test_cli_start_up_loads_no_build_tools():
    # the compiled loops' module, and the subprocess module it builds them
    # with, load only when a simulation runs, not with the CLI that every
    # command starts
    package = os.path.dirname(os.path.dirname(os.path.abspath(traywaiter.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, traywaiter.cli\n"
            "print(*[m for m in ('traywaiter._native', 'subprocess') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_smoother_kinds_have_one_spelling_each():
    assert typing.get_args(smoothers.SmootherKind) == (smoothers.Trapezoidal,
                                                      smoothers.DampedHarmonic)
    for name in ("Rectangular", "Harmonic", "make_harmonic_T", "continuity_gain"):
        assert not hasattr(traywaiter, name) and not hasattr(smoothers, name), name


def test_cascade_state_has_one_start_and_one_input():
    # every stage starts at rest at the given initial value, and only
    # positions go in: no lazy start and no input-derivative arguments
    cascade = smoothers.CascadeState
    params = inspect.signature(cascade).parameters
    assert list(params) == ["spec", "sample_period", "initial_value"]
    assert params["initial_value"].default is inspect.Parameter.empty
    assert list(inspect.signature(cascade.run).parameters) == ["self", "series"]
    assert list(inspect.signature(cascade.step).parameters) == ["self", "u"]
    state = cascade(smoothers.Trapezoidal(0.01, 0.01), 1e-3, initial_value=0.0)
    for name in ("reset", "_primed", "_kinds"):
        assert not hasattr(cascade, name) and not hasattr(state, name), name


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


def test_readme_library_sketch_runs(capsys):
    # the README's "Library sketch" block runs as written, so a renamed or
    # moved name cannot rot it unnoticed
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    section = readme.split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library sketch)", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) >= 3 and printed[-1].endswith("]")   # theta, slip, transitions


# numpy ufuncs whose SIMD code may differ from libm in the last bit, so their
# bytes depend on the CPU numpy dispatches for; np.sin, np.cos and np.sqrt
# matched libm and stay allowed
CPU_DEPENDENT = {"arctan2", "arctan", "arcsin", "arccos", "tan", "exp", "expm1",
                 "power", "hypot", "cbrt", "sinh", "cosh", "tanh", "arcsinh",
                 "arccosh", "arctanh"}
# (file, enclosing function, call) sites still to move to libm
CPU_DEPENDENT_ALLOWED = [
    ("dynamics.py", "analytic_tilt_channel", "np.arctan2"),
    ("dynamics.py", "fd_tilt_channel", "np.arctan2"),
]


def _cpu_dependent_call(node):
    """What a node computes whose bytes depend on the CPU's SIMD dispatch:
    a CPU-dependent numpy call, or a ** whose exponent is not the literal 2."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        owner, attr = node.func.value, node.func.attr
        if (isinstance(owner, ast.Name) and owner.id in ("np", "numpy")
                and (attr in CPU_DEPENDENT or attr.startswith("log"))):
            return f"np.{attr}"
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
        exponent = node.right if isinstance(node, ast.BinOp) else node.value
        if not (isinstance(exponent, ast.Constant) and exponent.value == 2):
            return f"** {ast.unparse(exponent)}"
    return None


def _sites(classify):
    """Sorted (file, enclosing function, what) for each node of the
    package's source files that `classify` names."""
    package = os.path.dirname(traywaiter.__file__)
    sites = []

    def visit(name, node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        what = classify(node)
        if what is not None:
            sites.append((name, func, what))
        for child in ast.iter_child_nodes(node):
            visit(name, child, func)

    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                visit(name, ast.parse(fh.read()), "<module>")
    return sorted(sites)


def test_no_new_cpu_dependent_numpy_calls():
    assert _sites(_cpu_dependent_call) == CPU_DEPENDENT_ALLOWED


# products that numpy hands to BLAS, whose kernel, and so whose rounding,
# OpenBLAS picks by the CPU: @ and these calls
BLAS_CALLS = {"dot", "matmul", "einsum", "inner", "linalg.norm"}
# (file, enclosing function, call) sites that stay
BLAS_ALLOWED = [
    # a dot product under a BLAS ddot, still to replace on the simulate path
    ("cli.py", "_planar_projection", "np.linalg.norm"),
    # the planner's distance and direction of a move, as in _planar_projection
    ("planner.py", "__post_init__", "np.linalg.norm"),
    ("planner.py", "direction", "np.linalg.norm"),
    ("planner.py", "displacement", "np.linalg.norm"),
]


def _blas_call(node):
    """What a node computes through BLAS: @ or one of BLAS_CALLS."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return "@"
    if isinstance(node, ast.Call):
        owner, _, call = ast.unparse(node.func).partition(".")
        if owner in ("np", "numpy") and call in BLAS_CALLS:
            return f"np.{call}"
    return None


def test_no_new_blas_calls():
    assert _sites(_blas_call) == BLAS_ALLOWED
