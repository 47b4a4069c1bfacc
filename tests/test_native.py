"""The compiled pieces, the stick/slip engine's step loop, the smoother's
oscillator loop and the CSV row writer: the golden outputs without them,
their build into a cold cache, the reuse of a cached build, a private build
where the cache cannot be used, the silent fallback to the Python sub-step,
recurrence and writer where no build is possible, and the array checks of
their bindings.
test_golden.py covers the default run, which uses the loops where they
build."""

import os
import shutil
import stat
import subprocess

import numpy as np
import orjson
import pytest

from traywaiter import _native, dynamics

from _oracles import desk_params
from test_golden import GOLDEN, _run_case

# the golden cases that simulate; the filter cases run no simulator. Both
# filter cases run the oscillator recurrence for their noise, "filter" and
# the liquid plan of "demo" for the damped-harmonic stage too. Every case
# writes tables, through the row writer
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


@pytest.mark.parametrize("run", ["demo", "filter", "filter_solid"])
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


@pytest.fixture
def loop_calls(monkeypatch):
    """The names of the compiled library's pieces, in the order they are
    called."""
    _needs_compiler()
    lib = _native.library()
    calls = []
    for name in ("steps", "osc_steps", "csv_rows"):
        def counted(*args, _name=name, _fn=getattr(lib, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(lib, name, counted)
    return calls


def _loop_arrays(n=3):
    # valid grid and midpoint rows and trace arrays of an n-step run
    trace = [np.zeros(n + 1) for _ in range(7)]
    trace[4] = np.zeros(n + 1, dtype=np.uint8)
    return np.zeros((n + 1, 5)), np.zeros((n, 5)), trace


def _strided(a):
    # `a` as a view that is not C-contiguous: every other element of its
    # rows repeated
    b = np.repeat(a, 2, axis=-1)[..., ::2]
    assert not b.flags.c_contiguous
    return b


_BAD_LOOP_ARRAYS = {
    "grid-shape": lambda grid, mid, trace: (grid[:, :4].copy(), mid, trace),
    "mid-shape": lambda grid, mid, trace: (grid, grid.copy(), trace),
    "trace-shape": lambda grid, mid, trace: (grid, mid, [trace[0][:-1].copy(), *trace[1:]]),
    "mode-dtype": lambda grid, mid, trace: (grid, mid, [*trace[:4], trace[4].astype(np.int8),
                                                       *trace[5:]]),
    "trace-dtype": lambda grid, mid, trace: (grid, mid, [*trace[:5], trace[5].astype(np.float32),
                                                        trace[6]]),
    "grid-not-contiguous": lambda grid, mid, trace: (_strided(grid), mid, trace),
    "trace-not-contiguous": lambda grid, mid, trace: (grid, mid, [_strided(trace[0]),
                                                                  *trace[1:]]),
}


@pytest.mark.parametrize("case", _BAD_LOOP_ARRAYS)
def test_the_step_loop_refuses_bad_arrays_before_any_call(loop_calls, case):
    grid, mid, trace = _BAD_LOOP_ARRAYS[case](*_loop_arrays())
    with pytest.raises(ValueError, match="^engine loop arrays: "):
        _native.loops(desk_params(), 0.0, 1e-6, 1e-3, grid, mid, trace)
    assert loop_calls == []
    # the same run with valid arrays calls the loop
    loop = _native.loops(desk_params(), 0.0, 1e-6, 1e-3, *_loop_arrays())
    assert loop(dynamics.STICK, 0, (0.0,) * 4, (0.0,) * 4, 0.0)[0] == 0
    assert loop_calls == ["steps"]


_BAD_OSCILLATOR_ARRAYS = {
    "length": lambda f, x1s, x2s: (f, x1s[:-1].copy(), x2s),
    "two-dimensional": lambda f, x1s, x2s: (f[:, None].copy(), x1s, x2s),
    "dtype": lambda f, x1s, x2s: (f, x1s, x2s.astype(np.float32)),
    "not-contiguous": lambda f, x1s, x2s: (_strided(f), x1s, x2s),
}


@pytest.mark.parametrize("case", _BAD_OSCILLATOR_ARRAYS)
def test_the_oscillator_loop_refuses_bad_arrays_before_any_call(loop_calls, case):
    loop = _native.oscillator(0.5, 0.1, -0.1, 0.5, 0.2, 0.3)
    f, x1s, x2s = _BAD_OSCILLATOR_ARRAYS[case](np.ones(4), np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError, match="^oscillator loop arrays: "):
        loop(f, 0.0, 0.0, x1s, x2s)
    assert loop_calls == []
    # the same call with valid arrays calls the loop
    loop(np.ones(4), 0.0, 0.0, np.zeros(4), np.zeros(4))
    assert loop_calls == ["osc_steps"]


def _dump(values):
    return orjson.dumps(np.ravel(values), option=orjson.OPT_SERIALIZE_NUMPY)


_BAD_TABLES = {
    "one-dimensional": np.ones(4),
    "no-columns": np.ones((4, 0)),
    "dtype": np.ones((2, 2), dtype=np.float32),
    "not-contiguous": _strided(np.ones((2, 2))),
}


@pytest.mark.parametrize("case", _BAD_TABLES)
def test_the_row_writer_refuses_bad_tables_before_any_call(loop_calls, case):
    write = _native.csv_rows()
    table = _BAD_TABLES[case]
    with pytest.raises(ValueError, match="^CSV rows: expected a C-contiguous 2-D float64 "):
        write(table, _dump(table))
    assert loop_calls == []
    # the same write of a valid table calls the writer
    assert write(np.ones((2, 2)), _dump(np.ones((2, 2)))) == b"1.0,1.0\n1.0,1.0\n"
    assert loop_calls == ["csv_rows"]


@pytest.mark.parametrize("dump", [b"[1.0,2.0,3.0]", b"[1.0,2.0,3.0,4.0,5.0]", b"[]",
                                  b"[1.0,2.0,,4.0]", b"1.0,2.0,3.0,4.0"],
                         ids=["one-too-few", "one-too-many", "empty", "empty-token",
                              "no-brackets"])
def test_the_row_writer_refuses_a_dump_that_does_not_hold_the_table(loop_calls, dump):
    write = _native.csv_rows()
    with pytest.raises(ValueError, match="^CSV rows: the dump does not hold the 4 values "
                                         "of the 2x2 table$"):
        write(np.ones((2, 2)), dump)
    assert loop_calls == ["csv_rows"]
