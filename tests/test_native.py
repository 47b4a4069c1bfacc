"""The compiled loops, of the stick/slip engine and of the smoother's
oscillator: the golden outputs without them, their build into a cold cache,
the reuse of a cached build, a private build where the cache cannot be
used, and the silent fallback to the Python sub-step and the Python
recurrence where no build is possible. test_golden.py covers the default
run, which uses the loops where they build."""

import os
import shutil
import stat
import subprocess

import pytest

from traywaiter import _native, dynamics

from test_golden import GOLDEN, _run_case

# the golden cases that simulate; the filter cases run no simulator, and
# "filter" and the liquid plan of "demo" run the oscillator recurrence
SIMULATING = ("demo", "solid_slip", "slip_coupled")


@pytest.fixture
def cold_cache(monkeypatch, tmp_path):
    """An empty cache directory for the library, loaded afresh in the test
    and again after it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _native.library.cache_clear()
    yield tmp_path / "cache" / "traywaiter"
    _native.library.cache_clear()


def _needs_compiler():
    if _native._compiler() is None:
        pytest.skip("no C compiler")


@pytest.mark.parametrize("run", SIMULATING)
def test_golden_output_hashes_without_the_compiled_loop(monkeypatch, tmp_path, run):
    monkeypatch.setattr(dynamics._TraySim, "_compiled", False)
    assert _run_case(run, str(tmp_path)) == GOLDEN[run]


@pytest.mark.parametrize("run", ["demo", "filter"])
def test_golden_output_hashes_without_the_library(monkeypatch, tmp_path, run):
    monkeypatch.setattr(_native, "library", lambda: None)
    assert _run_case(run, str(tmp_path)) == GOLDEN[run]


def test_cold_cache_builds_the_library_once(cold_cache, tmp_path):
    _needs_compiler()
    assert _run_case("demo", str(tmp_path / "run")) == GOLDEN["demo"]
    built = os.listdir(cold_cache)
    assert len(built) == 1 and built[0].startswith("engine-") and built[0].endswith(".so")
    assert stat.S_IMODE(os.stat(cold_cache).st_mode) == 0o700
    assert _native.library() is not None


def test_a_cached_library_is_loaded_without_a_build(cold_cache, monkeypatch):
    _needs_compiler()
    assert _native.library() is not None
    (path,) = cold_cache.iterdir()
    mtime = path.stat().st_mtime_ns
    _native.library.cache_clear()

    def no_build(*args, **kwargs):
        raise AssertionError("compiled again")
    monkeypatch.setattr(subprocess, "run", no_build)
    assert _native.library() is not None
    assert path.stat().st_mtime_ns == mtime


def test_a_cache_others_can_write_is_not_used(cold_cache):
    # the library is built for this process alone, and nothing is left there
    _needs_compiler()
    cold_cache.mkdir(parents=True)
    cold_cache.chmod(0o777)
    assert _native.library() is not None
    assert list(cold_cache.iterdir()) == []


@pytest.mark.parametrize("compiler", [None, "false"], ids=["no-compiler", "build-fails"])
def test_without_a_build_the_python_kernels_give_the_same_bytes(
        cold_cache, monkeypatch, tmp_path, capfd, compiler):
    path = compiler and shutil.which(compiler)
    if compiler and path is None:
        pytest.skip(f"no {compiler} command")
    monkeypatch.setattr(_native, "_compiler", lambda: path)
    assert _native.library() is None
    hashes = {run: _run_case(run, str(tmp_path / run)) for run in SIMULATING}
    assert hashes == {run: GOLDEN[run] for run in SIMULATING}
    assert capfd.readouterr().err == ""
