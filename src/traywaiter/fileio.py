"""File formats and run configuration.

Everything on disk is plain text: a YAML run configuration, and
comma-separated data files with a single typed header line of the form

    # <kind> key=value ... columns=a,b,c

Floats are serialized with repr(), the shortest decimal that round-trips,
so write-then-read is lossless and repeated runs are byte-identical.
Tables are streamed: rows are formatted and written a fixed-size block at a
time, so the text of a whole file is never held in memory. Writes still go
to a temporary file in the target directory followed by an atomic rename,
so a reader never sees a partly written file.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np
import yaml

from .compensation import MountingTransform
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
    "rotation_to_quaternion",
    "quaternion_to_rotation",
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

_BLOCK_ROWS = 1024  # table rows formatted per written chunk


def _atomic_write(path: str, chunks) -> None:
    """Write an iterable of text chunks to `path` atomically."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _table_chunks(header: str, rows: np.ndarray):
    rows = np.asarray(rows, dtype=float)
    yield header + "\n"
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS].tolist()
        yield "\n".join(",".join(map(repr, row)) for row in block) + "\n"


def _write_table(path: str, header: str, rows: np.ndarray) -> None:
    """Header line, then one line of comma-separated repr() floats per row."""
    _atomic_write(path, _table_chunks(header, rows))


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


def _load_table(path: str, expected_kind: str) -> tuple[dict, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        meta = _parse_header(header, expected_kind, path)
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise FormatError(f"bad data row in {path}: {exc}") from None
    if data.size == 0:
        raise FormatError(f"{path} contains no data rows")
    if not np.all(np.isfinite(data)):
        raise FormatError(f"{path} contains non-finite values")
    return meta, data


def _check_uniform_time(t: np.ndarray, dt: float, path: str) -> None:
    if not (math.isfinite(dt) and dt > 0.0):
        raise FormatError(f"{path}: header dt must be positive and finite, got {dt!r}")
    if t.size >= 2:
        ref = t[0] + np.arange(t.size) * dt
        if np.abs(t - ref).max() > 1e-9 * max(1.0, abs(t[-1])):
            raise FormatError(f"{path}: timestamps are not uniform at dt={dt!r}")


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
    meta, data = _load_table(path, "trajectory")
    dt = _header_float(meta, "dt", path)
    if data.shape[1] not in (4, 7):
        raise FormatError(f"{path}: expected 4 or 7 columns, got {data.shape[1]}")
    t = data[:, 0]
    _check_uniform_time(t, dt, path)
    acc = data[:, 4:7] if data.shape[1] == 7 else None
    return TrajectoryFile(dt, t, data[:, 1:4], acc)


# ---------------------------------------------------------------------------
# pose (6-DOF) trajectory files
# ---------------------------------------------------------------------------

def rotation_to_quaternion(R: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z), w >= 0, of a rotation matrix, or an
    (n, 4) stack of them for an (n, 3, 3) stack of matrices.

    A matrix with positive trace uses the trace branch; any other uses the
    branch of its largest diagonal entry, ties going to the earlier one.
    """
    R = np.asarray(R, dtype=float)
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = R.reshape(-1, 9).T
    tr = m00 + m11 + m22
    with np.errstate(invalid="ignore", divide="ignore"):  # branches not taken
        s0 = np.sqrt(tr + 1.0) * 2.0
        s1 = np.sqrt(1.0 + m00 - m11 - m22) * 2.0
        s2 = np.sqrt(1.0 + m11 - m00 - m22) * 2.0
        s3 = np.sqrt(1.0 + m22 - m00 - m11) * 2.0
        branches = (
            (0.25 * s0, (m21 - m12) / s0, (m02 - m20) / s0, (m10 - m01) / s0),
            ((m21 - m12) / s1, 0.25 * s1, (m01 + m10) / s1, (m02 + m20) / s1),
            ((m02 - m20) / s2, (m01 + m10) / s2, 0.25 * s2, (m12 + m21) / s2),
            ((m10 - m01) / s3, (m02 + m20) / s3, (m12 + m21) / s3, 0.25 * s3),
        )
    taken = [tr > 0.0, (m00 >= m11) & (m00 >= m22), m11 >= m22,
             np.full(tr.shape, True)]
    q = np.column_stack([np.select(taken, [b[i] for b in branches])
                         for i in range(4)])
    flip = q[:, 0] < 0.0
    q[flip] = -q[flip]
    # the row-wise dot is the one np.linalg.norm(q) takes for a single q
    q /= np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0]
    return q.reshape(R.shape[:-2] + (4,))


def quaternion_to_rotation(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a quaternion (w, x, y, z), or an (n, 3, 3) stack
    of them for an (n, 4) stack of quaternions."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    n = w * w + x * x + y * y + z * z
    s = 2.0 / n
    R = np.stack([
        1 - s * (y * y + z * z), s * (x * y - z * w), s * (x * z + y * w),
        s * (x * y + z * w), 1 - s * (x * x + z * z), s * (y * z - x * w),
        s * (x * z - y * w), s * (y * z + x * w), 1 - s * (x * x + y * y),
    ], axis=-1)
    return R.reshape(w.shape + (3, 3))


@dataclass
class PoseTrajectoryFile:
    """6-DOF flange trajectory; rotations live both as quaternions and
    row-major matrices and are cross-validated on read."""

    dt: float
    delay: float
    t: np.ndarray
    positions: np.ndarray                  # (n, 3)
    rotations: np.ndarray                  # (n, 3, 3)

    @property
    def n(self) -> int:
        return self.t.size


_POSE_COLS = ("t,x,y,z,qw,qx,qy,qz,"
              "r00,r01,r02,r10,r11,r12,r20,r21,r22")


def write_pose_trajectory(path: str, pose: PoseTrajectoryFile) -> None:
    header = (f"# pose_trajectory dt={pose.dt!r} delay={pose.delay!r} "
              f"columns={_POSE_COLS}")
    rows = np.hstack([pose.t[:, None], pose.positions,
                      rotation_to_quaternion(pose.rotations),
                      pose.rotations.reshape(pose.n, 9)])
    _write_table(path, header, rows)


def read_pose_trajectory(path: str) -> PoseTrajectoryFile:
    meta, data = _load_table(path, "pose_trajectory")
    dt = _header_float(meta, "dt", path)
    delay = _header_float(meta, "delay", path)
    if data.shape[1] != 17:
        raise FormatError(f"{path}: expected 17 columns, got {data.shape[1]}")
    t = data[:, 0]
    _check_uniform_time(t, dt, path)
    rot = data[:, 8:17].reshape(-1, 3, 3)
    quat = data[:, 4:8]
    bad = np.abs(quaternion_to_rotation(quat) - rot).max(axis=(1, 2)) > 1e-9
    if bad.any():
        raise FormatError(
            f"{path}: row {np.argmax(bad)}: quaternion and matrix disagree")
    return PoseTrajectoryFile(dt, delay, t, data[:, 1:4], rot)


# ---------------------------------------------------------------------------
# simulation trace files
# ---------------------------------------------------------------------------

_TRACE_COLS = "t,theta,theta_dot,d_x,d_x_dot,mode,demand,f_s"


def write_sim_trace(path: str, trace: SimTrace) -> None:
    dt = float(trace.t[1] - trace.t[0]) if trace.t.size > 1 else 0.0
    header = f"# sim_trace dt={dt!r} columns={_TRACE_COLS}"
    rows = np.column_stack([trace.t, trace.theta, trace.theta_dot, trace.d_x,
                            trace.d_x_dot, trace.mode.astype(float),
                            trace.demand, trace.f_s])
    _write_table(path, header, rows)


def read_sim_trace(path: str) -> SimTrace:
    meta, data = _load_table(path, "sim_trace")
    if data.shape[1] != 8:
        raise FormatError(f"{path}: expected 8 columns, got {data.shape[1]}")
    return SimTrace(data[:, 0], data[:, 1], data[:, 2], data[:, 3], data[:, 4],
                    data[:, 5].astype(np.uint8), data[:, 6], data[:, 7], [])


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
    if typ is float and isinstance(node, int):
        node = float(node)
    if not isinstance(node, typ):
        raise ConfigError(path, f"expected {typ.__name__}, got {type(node).__name__}")
    return node


def _get_vec3(cfg: dict, path: str, required=True, default=None):
    raw = _get(cfg, path, list, required=required, default=None)
    if raw is None:
        return default
    if len(raw) != 3 or not all(isinstance(v, (int, float)) for v in raw):
        raise ConfigError(path, "expected a list of three numbers")
    return np.array([float(v) for v in raw])


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
    raw: dict = field(default_factory=dict)


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError("<document>", f"not valid YAML: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("<document>", "top level must be a mapping")

    material = _get(cfg, "scenario.material", str)
    motion = _get(cfg, "scenario.motion", str)
    omega_n = _get(cfg, "scenario.slosh.omega_n", float,
                   required=(material == "liquid"), default=None)
    delta = _get(cfg, "scenario.slosh.delta", float, required=False, default=0.0)
    try:
        scenario = Scenario(
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
            free_stage_T=_get(cfg, "scenario.free_stage_T", float,
                              required=False, default=None),
            angular_accel_cap=_get(cfg, "scenario.angular_accel_cap", float,
                                   required=False, default=20.0),
            cor_offset_d_z=_get(cfg, "scenario.cor_offset_d_z", float,
                                required=False, default=0.0),
        )
    except ValueError as exc:
        raise ConfigError("scenario", str(exc)) from None

    plant = None
    if isinstance(cfg.get("plant"), dict):
        try:
            plant = PlantParams(
                m=_get(cfg, "plant.m", float),
                M=_get(cfg, "plant.M", float),
                l=_get(cfg, "plant.l", float),
                h=_get(cfg, "plant.h", float),
                d_z=_get(cfg, "plant.d_z", float),
                b_lc=_get(cfg, "plant.b_lc", float),
                b_ct=_get(cfg, "plant.b_ct", float),
                mu=_get(cfg, "plant.mu", float),
                g=_get(cfg, "plant.g", float, required=False, default=9.81),
            )
        except ValueError as exc:
            raise ConfigError("plant", str(exc)) from None

    rpy = _get_vec3(cfg, "mounting.rotation_rpy", required=False,
                    default=np.zeros(3))
    pos = _get_vec3(cfg, "mounting.position", required=False, default=np.zeros(3))
    mounting = MountingTransform.from_parts(_rpy_matrix(rpy), pos)

    tilt_mode = _get(cfg, "sim.tilt", str, required=False, default="compensated")
    if tilt_mode not in ("compensated", "none"):
        raise ConfigError("sim.tilt", "must be 'compensated' or 'none'")

    dt = _get(cfg, "numerics.dt", float, required=False, default=1e-3)
    sim_dt = _get(cfg, "numerics.sim_dt", float, required=False, default=dt)
    if dt <= 0.0:
        raise ConfigError("numerics.dt", "must be positive")
    if sim_dt <= 0.0:
        raise ConfigError("numerics.sim_dt", "must be positive")

    points = _get(cfg, "freqresp.points", int, required=False, default=500)
    if points < 2:
        raise ConfigError("freqresp.points", "need at least two grid points")

    return RunConfig(
        scenario=scenario,
        plant=plant,
        mounting=mounting,
        dt=dt,
        sim_dt=sim_dt,
        seed=_get(cfg, "numerics.seed", int, required=False, default=0),
        tilt_mode=tilt_mode,
        max_theta=_get(cfg, "thresholds.max_theta", float, required=False,
                       default=1e-6),
        max_slip=_get(cfg, "thresholds.max_slip", float, required=False,
                      default=1e-6),
        noise_amplitude=_get(cfg, "noise.amplitude", float, required=False,
                             default=0.0),
        noise_cutoff_hz=_get(cfg, "noise.cutoff_hz", float, required=False,
                             default=5.0),
        freq_omega_max=_get(cfg, "freqresp.omega_max", float, required=False,
                            default=None),
        freq_points=points,
        raw=cfg,
    )


# ---------------------------------------------------------------------------
# teleoperation noise emulation
# ---------------------------------------------------------------------------

def band_limited_noise(n: int, dt: float, amplitude: float, cutoff_hz: float,
                       seed: int) -> np.ndarray:
    """Gaussian noise low-passed at cutoff_hz and scaled to the requested RMS
    amplitude; used to emulate sensor noise and hand tremor on recorded
    trajectories. Deterministic for a given seed."""
    if n < 2 or amplitude < 0.0 or cutoff_hz <= 0.0:
        raise ValueError("need n >= 2, amplitude >= 0, cutoff_hz > 0")
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, dt)
    spec[freqs > cutoff_hz] = 0.0
    out = np.fft.irfft(spec, n)
    rms = np.sqrt(np.mean(out ** 2))
    if rms == 0.0:
        return np.zeros(n)
    return out * (amplitude / rms)
