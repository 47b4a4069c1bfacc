"""The compiled pieces of traywaiter: `_engine.c`, built with a C compiler
at the first use in a process (the first simulator step, the first
oscillator stage that `plan` or `filter` builds, the first `filter` noise,
or the first table a command writes) and loaded through ctypes. It holds
three of them:

- the step loop, which runs the steps of the engine that need no event,
  sticking or sliding, bit for bit as the Python sub-step
  (`_TraySim._advance` over the contact model `dynamics._contact`) runs them;
- the oscillator loop, which runs the 2x2 recurrence of the damped-harmonic
  smoother stage and the `filter` noise;
- the CSV row writer, which lays out orjson's dump of a block of floats as
  lines of each value's repr(), with the same bytes.

Each binding hands out its compiled piece or, where the library is not
built, the piece's plain definition, which the tests hold the compiled
piece to and which gives the same bytes: `no_steps`, which hands every
step to the Python sub-step; one loop over the forcing; ",".join(map(repr,
row)) per row. The library is cached in `$XDG_CACHE_HOME/traywaiter`
(default `~/.cache/traywaiter`), a directory of mode 0700, under the
SHA-256 of the source, the flags and the machine, and built there once
more where the cached build does not load. Where that directory cannot be
used it is built for this process alone, in a private temporary
directory. Without a compiler, or where the build or the load fails,
`library` is None and the plain definitions run, silently.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile

import numpy as np
import orjson

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_engine.c")
# No fused multiply-add, which rounds once where Python rounds twice; sin,
# cos and pow as calls of libm, as Python makes them: without -fno-builtin
# gcc folds pow(w, 2) into w * w, which differs in the last bit.
FLAGS = ("-O2", "-ffp-contract=off", "-fno-builtin", "-fPIC", "-shared")
LIBS = ("-lm",)


def _compiler():
    return shutil.which("cc")


def _cache_dir():
    """The per-user cache directory, made with mode 0700 if missing, or None
    where it cannot be made or another user could write into it."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(root, "traywaiter")
    if not os.path.isabs(path):     # no home directory to expand ~ to
        return None
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        info = os.stat(path)
    except OSError:
        return None
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        return None
    return path


def _build(cc, directory):
    """The path of the library in `directory`, compiled there first unless
    a build of the same source and flags is there already."""
    with open(SOURCE, "rb") as fh:
        key = hashlib.sha256(b"\0".join(
            [fh.read(), *(s.encode() for s in FLAGS + LIBS), platform.machine().encode()]))
    path = os.path.join(directory, f"engine-{key.hexdigest()[:16]}.so")
    if not os.path.exists(path):
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
        os.close(fd)
        try:
            subprocess.run([cc, *FLAGS, "-o", tmp, SOURCE, *LIBS], check=True,
                           stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
            os.replace(tmp, path)     # whole, even where another process builds it too
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
    return path


def _load(path):
    lib = ctypes.CDLL(path)
    doubles = ctypes.POINTER(ctypes.c_double)
    lib.steps.argtypes = [ctypes.c_int, doubles, ctypes.c_double, ctypes.c_void_p,
                          ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_double,
                          doubles, *[ctypes.c_void_p] * 7]
    lib.steps.restype = ctypes.c_long
    lib.osc_steps.argtypes = [doubles, ctypes.c_void_p, ctypes.c_long, doubles,
                              ctypes.c_void_p, ctypes.c_void_p]
    lib.osc_steps.restype = None
    lib.csv_rows.argtypes = [ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_char_p,
                             ctypes.c_long, ctypes.c_char_p, ctypes.c_long]
    lib.csv_rows.restype = ctypes.c_long
    return lib


@functools.cache
def library():
    """The compiled pieces' C library, built and loaded once per process, or
    None."""
    cc = _compiler()
    if cc is None:
        return None
    failures = (OSError, subprocess.SubprocessError)
    cache = _cache_dir()
    if cache is not None:
        with contextlib.suppress(*failures):
            path = _build(cc, cache)
            with contextlib.suppress(OSError):
                return _load(path)
            os.unlink(path)     # a build that does not load: build it once more
            return _load(_build(cc, cache))
    with contextlib.suppress(*failures), tempfile.TemporaryDirectory() as private:
        return _load(_build(cc, private))
    return None


def no_steps(mode, k, y, k1, s):
    """The step loop's plain definition: it commits no step, so the engine's
    Python loop runs every step."""
    return k, y, k1


def loops(p, damp, v_eps, dt, grid, mid, trace):
    """The compiled step loop bound to one run, or `no_steps` where it is
    not built.

    `p` is the plant, `damp` its pendulum damping b_lc / (m l), `v_eps` the
    stick capture velocity, `grid` and `mid` the (n + 1, 5) grid and (n, 5)
    midpoint rows of tray inputs and `trace` the run's theta, theta_dot, d_x,
    d_x_dot, mode, demand and f_s arrays of n + 1 rows. The loop is a call
    (mode, k, y, k1, s) -> (j, y, k1): from step k with the state y and its
    stick test k1 at row k, in the engine's mode (STICK = 0, SLIP = 1),
    sliding with sign s, it commits steps k to j - 1 into rows k + 1 to j of
    `trace` and returns the state and stick test at row j. It stops at the
    first step the Python loop would end in an event or an error, and at
    j = n.
    """
    lib = library()
    if lib is None:
        return no_steps
    n = grid.shape[0] - 1
    arrays = (grid, mid, *trace)
    if grid.shape != (n + 1, 5) or mid.shape != (n, 5) \
            or [a.shape for a in trace] != [(n + 1,)] * 7 \
            or [a.dtype for a in arrays] != [np.float64] * 6 + [np.uint8] + [np.float64] * 2 \
            or not all(a.flags.c_contiguous for a in arrays):
        raise ValueError("engine loop arrays: expected (n + 1, 5) and (n, 5) rows and "
                         "seven trace arrays of n + 1 float64 rows, the fifth uint8")
    plant = (ctypes.c_double * 10)(p.m, p.M, p.l, p.h, p.d_z, p.b_ct, p.mu, p.g, damp, v_eps)
    rows = (grid.ctypes.data, mid.ctypes.data)
    out = [a.ctypes.data for a in trace]
    state = (ctypes.c_double * 8)()
    fn = lib.steps

    def steps(mode, k, y, k1, s, _arrays=arrays):      # the arrays stay alive with the loop
        state[:] = (*y, *k1)
        j = fn(mode, plant, dt, *rows, k, n, s, state, *out)
        return j, tuple(state[:4]), tuple(state[4:])
    return steps


def oscillator(f11, f12, f21, f22, g1, g2):
    """The compiled oscillator recurrence bound to one set of coefficients,
    or where it is not built one loop over Python floats, its definition.

    The loop is a call (f, x1, x2, x1s, x2s) -> (x1, x2): from the state
    (x1, x2) it runs x1, x2 = f11 x1 + f12 x2 + g1 f[k], f21 x1 + f22 x2 +
    g2 f[k] over the forcing `f`, writes every state into `x1s` and `x2s`,
    three float64 arrays of one length, and returns the last state as floats.
    """
    lib = library()
    if lib is None:
        def steps(f, x1, x2, x1s, x2s):
            for k, fk in enumerate(f.tolist()):
                x1, x2 = f11 * x1 + f12 * x2 + g1 * fk, f21 * x1 + f22 * x2 + g2 * fk
                x1s[k] = x1
                x2s[k] = x2
            return x1, x2
        return steps
    coefficients = (ctypes.c_double * 6)(f11, f12, f21, f22, g1, g2)
    state = (ctypes.c_double * 2)()
    fn = lib.osc_steps

    def steps(f, x1, x2, x1s, x2s):
        n = f.shape[0]
        for a in (f, x1s, x2s):
            if a.shape != (n,) or a.dtype != np.float64 or not a.flags.c_contiguous:
                raise ValueError("oscillator loop arrays: expected three C-contiguous "
                                 "float64 arrays of one length")
        state[0], state[1] = x1, x2
        fn(coefficients, f.ctypes.data, n, state, x1s.ctypes.data, x2s.ctypes.data)
        return state[0], state[1]
    return steps


def _dump(table):
    """orjson's dump of the values of `table` in C order, a flat JSON array."""
    return orjson.dumps(table.ravel(), option=orjson.OPT_SERIALIZE_NUMPY)


def csv_rows():
    """The compiled CSV row writer, or where it is not built its definition.

    The writer is a call (table) -> bytes, `table` a C-contiguous 2-D
    float64 array with at least one column, that returns the bytes of
    "".join(",".join(map(repr, row)) + "\n" for row in table.tolist()); the
    compiled writer lays them out in one pass over orjson's dump (`_dump`).
    """
    lib = library()
    if lib is None:
        def write(table):
            return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist()).encode()
        return write
    fn = lib.csv_rows

    def write(table):
        if table.ndim != 2 or table.shape[1] < 1 or table.dtype != np.float64 \
                or not table.flags.c_contiguous:
            raise ValueError("CSV rows: expected a C-contiguous 2-D float64 table "
                             "with at least one column")
        dump = _dump(table)
        out = ctypes.create_string_buffer(len(dump) + 4 * table.size)
        size = fn(table.ctypes.data, table.size, table.shape[1], dump, len(dump),
                  out, len(out))
        if size < 0:
            rows, cols = table.shape
            raise ValueError(f"CSV rows: the dump does not hold the {table.size} values "
                             f"of the {rows}x{cols} table")
        return ctypes.string_at(out, size)
    return write
