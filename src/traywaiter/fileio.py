"""File formats and run configuration.

Everything on disk is plain text: a YAML run configuration, and
comma-separated data files with a single typed header line of the form

    # <kind> key=value ... columns=a,b,c

Every float is written as its repr(), the shortest decimal that
round-trips, so write-then-read is lossless and repeated runs are
byte-identical. A pose file stores each rotation once, as a unit
quaternion.

Rows are laid out by `_native.csv_rows`. Where the C library builds, a
block of rows is formatted from one orjson call: its Ryu digits (Adams,
PLDI 2018) are repr()'s shortest, correctly rounded digits, and the
library's CSV row writer lays the dump out as rows in one pass, with
repr()'s notation. Without it, each row is written as
",".join(map(repr, row)), the definition the compiled writer is held to,
more slowly and with the same bytes. (`_native.oscillator` runs the
filter's low-pass noise, `band_limited_noise`.)

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

from .compensation import MountingTransform
from .dynamics import PlantParams, SimTrace
from .planner import Scenario
from .smoothers import _pole_pair_map

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


def _table_chunks(header: str, rows: np.ndarray):
    rows = np.ascontiguousarray(rows, dtype=float)  # the row writer takes C order only
    yield (header + "\n").encode()
    from . import _native     # here, so that its build tools stay out of start-up
    write = _native.csv_rows()
    for start in range(0, len(rows), _BLOCK_ROWS):
        yield write(rows[start:start + _BLOCK_ROWS])


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
    quaternion (w, x, y, z), w >= 0 as flange_poses gives it."""

    dt: float
    delay: float
    t: np.ndarray
    positions: np.ndarray                  # (n, 3)
    quaternions: np.ndarray                # (n, 4), (w, x, y, z)

    @property
    def n(self) -> int:
        return self.t.size


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
    # a null block is an absent one; any other block must be a mapping
    node = cfg
    parts = path.split(".")
    for i, key in enumerate(parts):
        if node is not None and not isinstance(node, dict):
            raise ConfigError(".".join(parts[:i]),
                              f"expected a mapping, got {type(node).__name__}")
        if node is None or key not in node:
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

    mounting = MountingTransform(
        _get_vec3(cfg, "mounting.rotation_rpy", required=False, default=np.zeros(3)),
        _get_vec3(cfg, "mounting.position", required=False, default=np.zeros(3)))

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

def _det3(a, b, c) -> float:
    """The determinant of the 3x3 matrix with columns a, b and c."""
    return (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def _noise_section(dt: float, cutoff_hz: float) -> tuple:
    """(f11, f12, f21, f22, g1, g2, l11, l21, l22): the noise's low-pass
    section over one sample period dt, driven by unit white rows, and the
    Cholesky factor L of its stationary covariance P = F P F^T + G G^T.

    The section is a second-order Butterworth low-pass, -3 dB at cutoff_hz:
    poles w (-1 +/- j), w = 2 pi cutoff_hz / sqrt(2). ValueError where its
    coefficients or P are not finite, or P is not positive definite.
    """
    w = math.sqrt(2.0) * math.pi * cutoff_hz
    try:
        f = f11, f12, f21, f22, g1, g2 = _pole_pair_map(-w, w, dt)
        # P = F P F^T + G G^T, three equations in (p11, p12, p22), by Cramer's rule
        cols = ((1.0 - f11 * f11, -f11 * f21, -f21 * f21),
                (-2.0 * f11 * f12, 1.0 - f11 * f22 - f12 * f21, -2.0 * f21 * f22),
                (-f12 * f12, -f12 * f22, 1.0 - f22 * f22))
        q = (g1 * g1, g1 * g2, g2 * g2)
        det = _det3(*cols)
        p11, p12, p22 = (_det3(*cols[:j], q, *cols[j + 1:]) / det for j in range(3))
        l11 = math.sqrt(p11)
        l21 = p12 / l11
        l22 = math.sqrt(p22 - l21 * l21)
        if all(map(math.isfinite, (*f, l11, l21, l22))) and l11 > 0.0 and l22 > 0.0:
            return (*f, l11, l21, l22)
    except (ValueError, ZeroDivisionError):     # cos(inf), a singular system, sqrt(< 0)
        pass
    raise ValueError(f"cutoff_hz must be where the noise filter has finite coefficients "
                     f"and a positive definite stationary covariance (cutoff_hz * dt "
                     f"from about 1e-16 to 75), got {cutoff_hz!r} at dt = {dt!r} s")


def band_limited_noise(n: int, dt: float, amplitude: float, cutoff_hz: float,
                       seeds: Sequence[int]) -> np.ndarray:
    """Gaussian noise low-passed at cutoff_hz, with stationary RMS
    `amplitude`; used to emulate sensor noise and hand tremor on recorded
    trajectories. Deterministic for given seeds, and causal: row k depends
    only on the first k + 2 draws of its seed, so a longer trace's first n
    rows are the rows of this one.

    Each seed's n + 1 standard normal draws drive a second-order Butterworth
    low-pass (-3 dB at cutoff_hz, -40 dB/decade above it), each held over
    its sample period and propagated with the exact matrix exponential
    (Kasdin, Proc. IEEE 1995) in the oscillator recurrence. The first two
    draws set the start state x0 = L z, with L L^T = P the stationary
    covariance, so the first rows are not quiet; the rest drive the
    recurrence. Row 0 is x0[0], and every row is scaled by
    amplitude / sqrt(P11), the stationary RMS in closed form.

    Shape (n, k) for k seeds; column j has the bits of the call with the
    one seed seeds[j]. cutoff_hz * dt must lie between about 1e-16 and 75
    (ValueError otherwise); below about 1e-8 the rounding of the
    discretization changes the spectrum near the Nyquist frequency.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not (amplitude >= 0.0 and math.isfinite(amplitude)):
        raise ValueError(f"amplitude must be non-negative and finite, got {amplitude}")
    if not (cutoff_hz > 0.0 and math.isfinite(cutoff_hz)):
        raise ValueError(f"cutoff_hz must be positive and finite, got {cutoff_hz}")
    if not (isinstance(seeds, Sequence) and seeds):
        raise ValueError(f"seeds must be a non-empty sequence of ints, got {seeds!r}")
    f11, f12, f21, f22, g1, g2, *factor = _noise_section(dt, cutoff_hz)
    scale = amplitude / factor[0]
    l11, l21, l22 = (scale * v for v in factor)
    from . import _native     # here, so that its build tools stay out of start-up
    loop = _native.oscillator(f11, f12, f21, f22, scale * g1, scale * g2)
    out = np.empty((len(seeds), n))
    x2s = np.empty(n - 1)
    for row, seed in zip(out, seeds):
        z = np.random.default_rng(seed).standard_normal(n + 1)
        z0, z1 = z[:2].tolist()
        row[0] = x1 = l11 * z0
        loop(z[2:], x1, l21 * z0 + l22 * z1, row[1:], x2s)
    return out.T
