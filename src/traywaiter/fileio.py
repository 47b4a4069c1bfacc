"""File formats and run configuration.

Everything on disk is plain text: a YAML run configuration, and
comma-separated data files with a single typed header line of the form

    # <kind> key=value ... columns=a,b,c

Every float is written as its repr(), the shortest decimal that
round-trips, so write-then-read is lossless and repeated runs are
byte-identical. A pose file stores each rotation once, as a unit
quaternion from which the matrix is rebuilt.

A block of rows is formatted in one orjson call: its Ryu digits (Adams,
PLDI 2018) are repr()'s shortest, correctly rounded digits, and its text
equals repr() for |x| < 1e-9 (0 and subnormals included) and
1e-4 <= |x| < 1e16. Other finite values are dumped by orjson a range at a
time with their notation fixed to repr()'s; NaN and inf are written by repr().

Tables are streamed as bytes: rows are formatted and written a fixed-size
block at a time, so the text of a whole file is never held in memory. Writes
still go to a temporary file in the target directory followed by an atomic
rename, so a reader never sees a partly written file.

Tables are read as bytes as well. A first pass counts the lines, so that the
rows fill one preallocated array; then each block of whole lines (up to
32 KB) is parsed in one orjson call, as one JSON array of its comma-joined
lines. orjson's float parser is correctly rounded, so every value has the
bits float() gives its token; a bare -0, which orjson reads as the int 0,
gets its sign back. A data line holds comma-separated JSON numbers, with
optional spaces or tabs around them and an LF or CRLF end. Any other line
(blank, a comment, a token such as +1 or .5) is refused with the file and
its 0-based data row, which only the error path finds, by parsing the
failing block again one line at a time.
"""

from __future__ import annotations

import math
import os
import re
import struct
import tempfile
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import orjson
import yaml

from .compensation import MountingTransform, quaternion_to_rotation
from .dynamics import PlantParams, SimTrace
from .planner import Scenario

__all__ = [
    "FormatError",
    "ConfigError",
    "TrajectoryFile",
    "PoseTrajectoryFile",
    "RunConfig",
    "read_trajectory",
    "write_trajectory",
    "write_pose_trajectory",
    "read_pose_trajectory",
    "write_sim_trace",
    "read_sim_trace",
    "load_config",
    "band_limited_noise",
]


class FormatError(ValueError):
    """Malformed or inconsistent data file."""


class ConfigError(ValueError):
    """Invalid run configuration; carries the dotted field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# low-level text helpers
# ---------------------------------------------------------------------------

# Table rows formatted per written chunk. Small blocks keep peak RSS level:
# with 1024-row blocks (~350 KB of 17-column pose text each) the teleoperation
# filter's peak RSS was ~2 MB (3.5%) higher, and formatting was no faster.
_BLOCK_ROWS = 128


def _atomic_write(path: str, chunks) -> None:
    """Write an iterable of byte chunks to `path` atomically, with the mode
    a plain open() would give it."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    umask = os.umask(0)  # the only way to read it is to set it
    os.umask(umask)
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _e05(text: bytes) -> bytes:  # orjson's 0.0000ddd to d.dde-05, 0.0000d to de-05
    for d in b"123456789":
        text = text.replace(b"0.0000%c" % d, b"%c." % d)
    return (text.replace(b",", b"e-05,") + b"e-05").replace(b".e", b"e")


# |x| ranges of the odd values ([1e-4, 1e16) holds none), each with its text fix
_ODD_BOUNDS = np.array([1e-5, 1e-4, math.inf])  # NaN and inf lie past the last
_ODD_FIXES = (lambda t: t.replace(b"e-", b"e-0"), _e05, lambda t: t.replace(b"e", b"e+"))


def _table_chunks(header: str, rows: np.ndarray):
    rows = np.ascontiguousarray(rows, dtype=float)  # orjson takes C order only
    yield (header + "\n").encode()
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        size = np.abs(block)
        # Ryu's text is repr()'s for |x| < 1e-9 and 1e-4 <= |x| < 1e16; every
        # other value goes out as null and is spliced back fixed, range by range
        odd = ~((size < 1e-9) | ((size >= 1e-4) & (size < 1e16)))
        text = orjson.dumps(np.where(odd, np.nan, block),
                            option=orjson.OPT_SERIALIZE_NUMPY)
        pieces = b"\n".join(text[2:-2].split(b"],[")).split(b"null")
        values = block[odd]
        ranges = np.searchsorted(_ODD_BOUNDS, size[odd], side="right")
        texts = np.empty(values.size, dtype=object)
        for k in np.flatnonzero(np.bincount(ranges)).tolist():
            mask = ranges == k
            if k == len(_ODD_BOUNDS):
                texts[mask] = [repr(v).encode() for v in values[mask].tolist()]
            else:
                dump = orjson.dumps(values[mask], option=orjson.OPT_SERIALIZE_NUMPY)
                texts[mask] = _ODD_FIXES[k](dump[1:-1]).split(b",")
        assert len(pieces) == texts.size + 1, "a null that the mask did not make"
        spliced = [None] * (2 * texts.size + 1)
        spliced[::2] = pieces
        spliced[1::2] = texts.tolist()
        yield b"".join(spliced) + b"\n"


def _write_table(path: str, header: str, rows: np.ndarray) -> None:
    """Header line, then one line of comma-separated floats per row, each
    written as its repr()."""
    _atomic_write(path, _table_chunks(header, rows))


# Bytes read per call when a table is read; each block of whole lines in them
# is parsed in one orjson call. 64 KB blocks parsed ~5% faster but left the
# harness's peak RSS ~0.15 MB higher on every workload; 16 KB ones gave no less.
_READ_BYTES = 1 << 15
# The bytes of JSON numbers and of the blanks a data line may hold
_NUMBER_BYTES = b"0123456789+-.eE \t\r"
# A bare -0, which orjson reads as the int 0; not the -0 of an exponent
_BARE_MINUS_ZERO = re.compile(rb"-0(?![0-9.eE])(?<![eE]-0)")


def _parse_header(line: str, expected_kind: str, path: str) -> dict:
    if not line.startswith("#"):
        raise FormatError(f"{path}: missing '# {expected_kind} ...' header line")
    parts = line[1:].split()
    if not parts or parts[0] != expected_kind:
        raise FormatError(f"{path}: expected a {expected_kind} file, got {parts[:1]}")
    meta = {}
    for item in parts[1:]:
        if "=" not in item:
            raise FormatError(f"{path}: malformed header item {item!r}")
        key, value = item.split("=", 1)
        meta[key] = value
    return meta


def _header_float(meta: dict, key: str, path: str) -> float:
    if key not in meta:
        raise FormatError(f"{path}: header lacks {key}")
    try:
        return float(meta[key])
    except ValueError:
        raise FormatError(f"{path}: header {key} is not a number: {meta[key]!r}") from None


def _parse_lines(lines: bytes, ncols: int) -> list | None:
    """The numbers of `lines`, flat, if each line ends in a newline and holds
    `ncols` comma-separated JSON numbers; None if one does not."""
    # deleting the number and blank bytes leaves the commas and newlines, and
    # any other byte a row may not hold
    seps = lines.translate(None, _NUMBER_BYTES)
    if seps != (b"," * (ncols - 1) + b"\n") * (len(seps) // ncols):
        return None
    try:
        return orjson.loads(b"[%b]" % lines[:-1].replace(b"\n", b","))
    except orjson.JSONDecodeError:
        return None


def _bad_row(path: str, lines: bytes, row: int, ncols: int,
             expected: str | None = None) -> FormatError:
    """The error for the first line of `lines`, data row `row` onwards, that
    _parse_lines refuses."""
    for k, line in enumerate(lines.split(b"\n")):
        if _parse_lines(line + b"\n", ncols) is None:
            break
    text = line.decode(errors="replace").strip()
    return FormatError(f"{path}: row {row + k}: expected {expected or ncols} "
                       f"comma-separated numbers, got {text!r}")


def _data_extent(fh) -> tuple[int, int]:
    """Offset past the last non-blank byte of the rest of a binary file, and
    the number of lines up to it."""
    end = pos = fh.tell()
    lines = seen = 0
    while chunk := fh.read(_READ_BYTES):
        # ~3x faster than chunk.count(b"\n")
        newlines = int(np.count_nonzero(np.frombuffer(chunk, np.uint8) == 10))
        body = len(chunk.rstrip())
        if body:
            end = pos + body
            lines = seen + newlines - chunk.count(b"\n", body) + 1
        seen += newlines
        pos += len(chunk)
    return end, lines


def _line_blocks(fh, size: int):
    """The next `size` bytes of a binary file in blocks of whole lines, the
    last line given a newline."""
    carry = b""
    while chunk := fh.read(min(_READ_BYTES, size)):
        size -= len(chunk)
        lines = carry + chunk + (b"" if size else b"\n")
        cut = lines.rfind(b"\n") + 1
        if cut:
            yield lines[:cut]
        carry = lines[cut:]


def _load_table(path: str, kind: str, widths: tuple) -> tuple[dict, float, np.ndarray]:
    """Header items, sample period and rows of a `kind` table: a positive,
    finite header dt, one of `widths` columns, finite values, and first-column
    timestamps dt apart."""
    with open(path, "rb") as fh:
        try:
            line = fh.readline().decode()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: header line is not UTF-8 text: {exc}") from None
        meta = _parse_header(line.rstrip("\n"), kind, path)
        dt = _header_float(meta, "dt", path)
        if not (math.isfinite(dt) and dt > 0.0):
            raise FormatError(f"{path}: header dt must be positive and finite, got {dt!r}")
        start = fh.tell()
        end, nrows = _data_extent(fh)
        if nrows == 0:
            raise FormatError(f"{path} contains no data rows")
        fh.seek(start)
        data, row = None, 0
        for lines in _line_blocks(fh, end - start):
            if data is None:
                first = lines[:lines.index(b"\n") + 1]
                ncols = first.count(b",") + 1
                if ncols not in widths:
                    expected = " or ".join(map(str, widths))
                    if _parse_lines(first, ncols) is None:
                        raise _bad_row(path, first, 0, ncols, expected)
                    raise FormatError(f"{path}: expected {expected} columns, got {ncols}")
                data = np.empty((nrows, ncols))
            values = _parse_lines(lines, ncols)
            if values is None:
                raise _bad_row(path, lines, row, ncols)
            # packs as float() converts, ~2.5x faster than a numpy slice assignment
            struct.pack_into(f"{len(values)}d", data, row * ncols * 8, *values)
            n = len(values) // ncols
            # orjson reads a bare -0 as the int 0, so only a block that holds a
            # zero can need its sign back
            if not data[row:row + n].all() and _BARE_MINUS_ZERO.search(lines):
                values = _parse_lines(_BARE_MINUS_ZERO.sub(b"-0.0", lines), ncols)
                struct.pack_into(f"{len(values)}d", data, row * ncols * 8, *values)
            row += n
    if row != nrows:
        raise FormatError(f"{path} changed while it was read")
    if not np.all(np.isfinite(data)):
        raise FormatError(f"{path} contains non-finite values")
    t = data[:, 0]
    # |t - (t[0] + k dt)| in one array, updated in place
    ramp = np.arange(t.size, dtype=float)
    ramp *= dt
    ramp += t[0]
    np.abs(np.subtract(t, ramp, out=ramp), out=ramp)
    if ramp.max() > 1e-9 * max(1.0, abs(t[-1])):
        raise FormatError(f"{path}: timestamps are not uniform at dt={dt!r}")
    return meta, dt, data


# ---------------------------------------------------------------------------
# trajectory files
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryFile:
    """Sampled Cartesian reference: (t, x, y, z) rows, optionally with
    acceleration columns (ax, ay, az) when the source supplies them."""

    dt: float
    t: np.ndarray
    positions: np.ndarray                  # (n, 3)
    accelerations: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.t.size


def write_trajectory(path: str, traj: TrajectoryFile) -> None:
    cols = "t,x,y,z" if traj.accelerations is None else "t,x,y,z,ax,ay,az"
    header = f"# trajectory dt={traj.dt!r} columns={cols}"
    blocks = [traj.t[:, None], traj.positions]
    if traj.accelerations is not None:
        blocks.append(traj.accelerations)
    _write_table(path, header, np.hstack(blocks))


def read_trajectory(path: str) -> TrajectoryFile:
    _, dt, data = _load_table(path, "trajectory", (4, 7))
    acc = data[:, 4:7] if data.shape[1] == 7 else None
    return TrajectoryFile(dt, data[:, 0], data[:, 1:4], acc)


# ---------------------------------------------------------------------------
# pose (6-DOF) trajectory files
# ---------------------------------------------------------------------------

@dataclass
class PoseTrajectoryFile:
    """6-DOF flange trajectory. Each rotation is stored once, as a unit
    quaternion (w, x, y, z), w >= 0 as rotation_to_quaternion gives it;
    `rotations` rebuilds the matrices."""

    dt: float
    delay: float
    t: np.ndarray
    positions: np.ndarray                  # (n, 3)
    quaternions: np.ndarray                # (n, 4), (w, x, y, z)

    @property
    def n(self) -> int:
        return self.t.size

    @property
    def rotations(self) -> np.ndarray:
        """(n, 3, 3) rotation matrices of the quaternions."""
        return quaternion_to_rotation(self.quaternions)


def write_pose_trajectory(path: str, pose: PoseTrajectoryFile) -> None:
    header = (f"# pose_trajectory dt={pose.dt!r} delay={pose.delay!r} "
              "columns=t,x,y,z,qw,qx,qy,qz")
    _write_table(path, header, np.hstack([pose.t[:, None], pose.positions,
                                          pose.quaternions]))


def read_pose_trajectory(path: str) -> PoseTrajectoryFile:
    """A pose file's fields exactly as written; a row whose quaternion is
    not of unit norm is rejected."""
    meta, dt, data = _load_table(path, "pose_trajectory", (8,))
    delay = _header_float(meta, "delay", path)
    if not math.isfinite(delay):
        raise FormatError(f"{path}: header delay is not finite: {meta['delay']!r}")
    quat = data[:, 4:8]
    norm = np.sqrt(np.sum(quat * quat, axis=1))
    bad = np.abs(norm - 1.0) > 1e-9
    if bad.any():
        row = np.argmax(bad)
        raise FormatError(
            f"{path}: row {row}: quaternion norm {float(norm[row])!r} is not 1")
    return PoseTrajectoryFile(dt, delay, data[:, 0], data[:, 1:4], quat)


# ---------------------------------------------------------------------------
# simulation trace files
# ---------------------------------------------------------------------------

_TRACE_COLS = "t,theta,theta_dot,d_x,d_x_dot,mode,demand,f_s"


def write_sim_trace(path: str, trace: SimTrace, dt: float) -> None:
    """A trace sampled every `dt` seconds, the simulation step."""
    header = f"# sim_trace dt={dt!r} columns={_TRACE_COLS}"
    rows = np.column_stack([trace.t, trace.theta, trace.theta_dot, trace.d_x,
                            trace.d_x_dot, trace.mode.astype(float),
                            trace.demand, trace.f_s])
    _write_table(path, header, rows)


def read_sim_trace(path: str) -> SimTrace:
    _, _, data = _load_table(path, "sim_trace", (8,))
    mode = data[:, 5]
    bad = (mode != 0.0) & (mode != 1.0)
    if bad.any():
        row = np.argmax(bad)
        raise FormatError(
            f"{path}: row {row}: mode must be 0 or 1, got {float(mode[row])!r}")
    return SimTrace(data[:, 0], data[:, 1], data[:, 2], data[:, 3], data[:, 4],
                    mode.astype(np.uint8), data[:, 6], data[:, 7], [])


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

def _get(cfg: dict, path: str, typ, required=True, default=None):
    node = cfg
    parts = path.split(".")
    for i, key in enumerate(parts):
        if not isinstance(node, dict) or key not in node:
            if required:
                raise ConfigError(".".join(parts[: i + 1]), "missing")
            return default
        node = node[key]
    # bool subclasses int, but a YAML true/false is never a number
    if isinstance(node, bool) and typ is not bool:
        raise ConfigError(path, f"expected {typ.__name__}, got bool")
    if typ is float and isinstance(node, (int, float)):
        return _finite_float(path, node)
    if not isinstance(node, typ):
        raise ConfigError(path, f"expected {typ.__name__}, got {type(node).__name__}")
    return node


def _finite_float(path: str, number) -> float:
    try:
        value = float(number)
    except OverflowError:               # an int beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(path, f"must be finite, got {value!r}")
    return value


def _get_bounded(cfg: dict, path: str, default, zero_ok: bool = False):
    """An optional float field that must be positive, or with zero_ok not
    negative. An absent field takes `default` unchecked."""
    value = _get(cfg, path, float, required=False, default=default)
    if value is not None and not (value > 0.0 or zero_ok and value == 0.0):
        raise ConfigError(path, "must not be negative" if zero_ok else "must be positive")
    return value


def _get_vec3(cfg: dict, path: str, required=True, default=None):
    raw = _get(cfg, path, list, required=required, default=None)
    if raw is None:
        return default
    if len(raw) != 3 or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                                for v in raw):
        raise ConfigError(path, "expected a list of three numbers")
    return np.array([_finite_float(path, v) for v in raw])


def _rpy_matrix(rpy) -> np.ndarray:
    r, p, y = rpy
    cr, sr = math.cos(r), math.sin(r)
    cp, sp = math.cos(p), math.sin(p)
    cy, sy = math.cos(y), math.sin(y)
    return np.array([
        [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
        [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
        [-sp, cp * sr, cp * cr],
    ])


@dataclass
class RunConfig:
    """Validated contents of one YAML run configuration."""

    scenario: Scenario
    plant: PlantParams | None
    g: float                              # plant.g, also without a plant block
    mounting: MountingTransform
    dt: float
    sim_dt: float
    seed: int
    tilt_mode: str                        # "compensated" | "none"
    max_theta: float
    max_slip: float
    noise_amplitude: float
    noise_cutoff_hz: float
    freq_omega_max: float | None
    freq_points: int
    emit_freq_response: bool


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            cfg = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError("<document>", f"not valid YAML: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("<document>", "top level must be a mapping")

    material = _get(cfg, "scenario.material", str)
    motion = _get(cfg, "scenario.motion", str)
    omega_n = _get(cfg, "scenario.slosh.omega_n", float,
                   required=(material == "liquid"), default=None)
    delta = _get(cfg, "scenario.slosh.delta", float, required=False, default=0.0)
    g = _get(cfg, "plant.g", float, required=False, default=9.81)
    # fields are read before the try, so that their own ConfigError keeps its path
    fields = dict(
        material=material,
        motion=motion,
        start=_get_vec3(cfg, "scenario.start", required=(motion == "point_to_point")),
        goal=_get_vec3(cfg, "scenario.goal", required=(motion == "point_to_point")),
        v_max=_get(cfg, "scenario.v_max", float,
                   required=(motion == "point_to_point"), default=None),
        a_max=_get(cfg, "scenario.a_max", float,
                   required=(motion == "point_to_point"), default=None),
        omega_n=omega_n,
        delta=delta,
        free_stage_T=_get_bounded(cfg, "scenario.free_stage_T", None),
        angular_accel_cap=_get_bounded(cfg, "scenario.angular_accel_cap", 20.0),
    )
    try:
        scenario = Scenario(**fields)
    except ValueError as exc:
        raise ConfigError("scenario", str(exc)) from None

    plant = None
    if isinstance(cfg.get("plant"), dict):
        fields = {name: _get(cfg, f"plant.{name}", float)
                  for name in ("m", "M", "l", "h", "d_z", "b_lc", "b_ct", "mu")}
        try:
            plant = PlantParams(**fields, g=g)
        except ValueError as exc:
            raise ConfigError("plant", str(exc)) from None

    rpy = _get_vec3(cfg, "mounting.rotation_rpy", required=False,
                    default=np.zeros(3))
    pos = _get_vec3(cfg, "mounting.position", required=False, default=np.zeros(3))
    mounting = MountingTransform.from_parts(_rpy_matrix(rpy), pos)

    tilt_mode = _get(cfg, "sim.tilt", str, required=False, default="compensated")
    if tilt_mode not in ("compensated", "none"):
        raise ConfigError("sim.tilt", "must be 'compensated' or 'none'")

    dt = _get_bounded(cfg, "numerics.dt", 1e-3)
    seed = _get(cfg, "numerics.seed", int, required=False, default=0)
    if seed < 0:                        # numpy's generators take no negative seed
        raise ConfigError("numerics.seed", "must not be negative")
    points = _get(cfg, "freqresp.points", int, required=False, default=500)
    if points < 2:
        raise ConfigError("freqresp.points", "need at least two grid points")

    return RunConfig(
        scenario=scenario,
        plant=plant,
        g=g,
        mounting=mounting,
        dt=dt,
        sim_dt=_get_bounded(cfg, "numerics.sim_dt", dt),
        seed=seed,
        tilt_mode=tilt_mode,
        max_theta=_get_bounded(cfg, "thresholds.max_theta", 1e-6, zero_ok=True),
        max_slip=_get_bounded(cfg, "thresholds.max_slip", 1e-6, zero_ok=True),
        noise_amplitude=_get_bounded(cfg, "noise.amplitude", 0.0, zero_ok=True),
        noise_cutoff_hz=_get_bounded(cfg, "noise.cutoff_hz", 5.0),
        freq_omega_max=_get_bounded(cfg, "freqresp.omega_max", None),
        freq_points=points,
        emit_freq_response=_get(cfg, "output.emit_freq_response", bool,
                                required=False, default=False),
    )


# ---------------------------------------------------------------------------
# teleoperation noise emulation
# ---------------------------------------------------------------------------

def band_limited_noise(n: int, dt: float, amplitude: float, cutoff_hz: float,
                       seed: int | Sequence[int]) -> np.ndarray:
    """Gaussian noise low-passed at cutoff_hz and scaled to the requested RMS
    amplitude; used to emulate sensor noise and hand tremor on recorded
    trajectories. Deterministic for a given seed.

    An int seed gives shape (n,). A sequence of k seeds gives shape (n, k),
    one RMS-scaled column per seed: the white rows go through one rfft/irfft
    pair, and column j has the bits of the call with the int seeds[j].
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not (amplitude >= 0.0 and math.isfinite(amplitude)):
        raise ValueError(f"amplitude must be non-negative and finite, got {amplitude}")
    if not (cutoff_hz > 0.0 and math.isfinite(cutoff_hz)):
        raise ValueError(f"cutoff_hz must be positive and finite, got {cutoff_hz}")
    single = isinstance(seed, (int, np.integer))
    seeds = [seed] if single else list(seed)
    if not seeds:
        raise ValueError("seed must be an int or a non-empty sequence of ints")
    white = np.stack([np.random.default_rng(s).standard_normal(n) for s in seeds])
    spec = np.fft.rfft(white)
    spec[:, np.fft.rfftfreq(n, dt) > cutoff_hz] = 0.0
    out = np.fft.irfft(spec, n)
    rms = np.sqrt(np.mean(out ** 2, axis=1))
    silent = rms == 0.0
    out *= (amplitude / np.where(silent, 1.0, rms))[:, None]
    out[silent] = 0.0
    return out[0] if single else out.T
