"""The compiled pieces, the stick/slip engine's step loop, the smoother's
oscillator loop and the CSV row writer: the golden outputs without them,
their build into a cold cache, the reuse of a cached build, the rebuild of
one that does not load, a private build where the cache cannot be used, the
silent fallback to the Python sub-step, recurrence and writer where no
build is possible, the bindings' contract (a callable on either path, with
the bits of the piece's definition) and their array checks.
test_golden.py covers the default run, which uses the loops where they
build."""

import os
import shutil
import stat
import subprocess

import numpy as np
import pytest

from traywaiter import _native, dynamics, smoothers

from _oracles import (LIBRARY_PATHS, desk_params, library_path, oscillator_path,
                      python_loops, writer_path)
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
    monkeypatch.setattr(_native, "loops", python_loops)
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


def test_a_cached_library_that_does_not_load_is_built_again(cold_cache, monkeypatch):
    # garbage at the key path, never loaded in this process: one build
    # replaces it in the cache, and the next process loads that build
    _needs_compiler()
    cold_cache.mkdir(parents=True, mode=0o700)
    path = _native._build(_native._compiler(), str(cold_cache))
    with open(path, "wb") as fh:
        fh.write(b"\0" * 8)
    builds = []

    def counted(*args, _run=subprocess.run, **kwargs):
        builds.append(args)
        return _run(*args, **kwargs)
    monkeypatch.setattr(subprocess, "run", counted)
    assert _native.library() is not None
    assert len(builds) == 1
    assert os.listdir(cold_cache) == [os.path.basename(path)]
    with open(path, "rb") as fh:
        assert fh.read(4) == b"\x7fELF"
    _native.library.cache_clear()

    def no_build(*args, **kwargs):
        raise AssertionError("compiled again")
    monkeypatch.setattr(subprocess, "run", no_build)
    assert _native.library() is not None


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


@pytest.mark.parametrize("path", LIBRARY_PATHS)
def test_each_binding_hands_out_a_callable(path):
    with library_path(path, "steps", 0):
        bindings = (_native.loops(desk_params(), 0.0, 1e-6, 1e-3, *_loop_arrays()),
                    _native.oscillator(0.5, 0.1, -0.1, 0.5, 0.2, 0.3), _native.csv_rows())
    assert all(map(callable, bindings))
    assert (bindings[0] is _native.no_steps) == (path == "python")


def test_no_steps_hands_back_its_arguments():
    y, k1 = (0.1, -0.2, 0.3, -0.4), (1.0, 2.0, -3.0, 4.0)
    j, y_out, k1_out = _native.no_steps(dynamics.SLIP, 7, y, k1, -1.0)
    assert j == 7 and y_out is y and k1_out is k1


@pytest.mark.parametrize("path", LIBRARY_PATHS)
def test_the_oscillator_on_either_path_has_the_bits_of_its_definition(path):
    # a damped pole pair over 1000 samples of white forcing, from a state
    # off rest, against the recurrence written out per sample
    coefficients = f11, f12, f21, f22, g1, g2 = smoothers._pole_pair_map(-3.0, 40.0, 1e-3)
    f = np.random.default_rng(5).standard_normal(1000)
    x1s, x2s = np.empty(1000), np.empty(1000)
    with oscillator_path(path) as calls:
        last = _native.oscillator(*coefficients)(f, 0.25, -0.5, x1s, x2s)
    x1, x2 = 0.25, -0.5
    states = []
    for fk in f.tolist():
        x1, x2 = f11 * x1 + f12 * x2 + g1 * fk, f21 * x1 + f22 * x2 + g2 * fk
        states.append((x1, x2))
    assert np.column_stack((x1s, x2s)).tobytes() == np.array(states).tobytes()
    assert [v.hex() for v in last] == [x1.hex(), x2.hex()]
    assert calls is None or calls == [1000]


# a value in each of the compiled writer's notation ranges, from both sides
# of zero, with NaN, the infinities, a signed zero and a subnormal
_NOTATIONS = np.array([5e-10, 3.3333333333333333e-06, 1.2345678901234568e-05, 2e-5, 0.5,
                       1.2345678901234567e+15, 1e16, 3.3333333333333336e+16,
                       1.7976931348623157e+308, -3e-9, -7e-6, -0.001, -8e16,
                       0.0, -0.0, 5e-324, np.nan, np.inf, -np.inf, 42.0]).reshape(5, 4)


@pytest.mark.parametrize("path", LIBRARY_PATHS)
def test_the_row_writer_on_either_path_writes_the_bytes_of_its_definition(path):
    with writer_path(path) as calls:
        text = _native.csv_rows()(_NOTATIONS)
    assert text == "".join(",".join(map(repr, row)) + "\n"
                           for row in _NOTATIONS.tolist()).encode()
    assert calls is None or calls == [_NOTATIONS.size]


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
        write(table)
    assert loop_calls == []
    # the same write of a valid table calls the writer
    assert write(np.ones((2, 2))) == b"1.0,1.0\n1.0,1.0\n"
    assert loop_calls == ["csv_rows"]


@pytest.mark.parametrize("dump", [b"[1.0,2.0,3.0]", b"[1.0,2.0,3.0,4.0,5.0]", b"[]",
                                  b"[1.0,2.0,,4.0]", b"1.0,2.0,3.0,4.0"],
                         ids=["one-too-few", "one-too-many", "empty", "empty-token",
                              "no-brackets"])
def test_the_row_writer_refuses_a_dump_that_does_not_hold_the_table(
        loop_calls, monkeypatch, dump):
    write = _native.csv_rows()
    monkeypatch.setattr(_native, "_dump", lambda table: dump)
    with pytest.raises(ValueError, match="^CSV rows: the dump does not hold the 4 values "
                                         "of the 2x2 table$"):
        write(np.ones((2, 2)))
    assert loop_calls == ["csv_rows"]
