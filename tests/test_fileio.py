import math

import numpy as np
import pytest

from traywaiter.compensation import rotation_matrix
from traywaiter.dynamics import SimTrace
from traywaiter.fileio import (
    ConfigError,
    FormatError,
    PoseTrajectoryFile,
    TrajectoryFile,
    band_limited_noise,
    load_config,
    quaternion_to_rotation,
    read_pose_trajectory,
    read_sim_trace,
    read_trajectory,
    rotation_to_quaternion,
    write_pose_trajectory,
    write_sim_trace,
    write_trajectory,
)

GOOD_CONFIG = """
scenario:
  material: liquid
  motion: point_to_point
  start: [0.0, 0.0, 0.4]
  goal: [0.6, 0.0, 0.4]
  v_max: 1.0
  a_max: 3.0
  slosh: {omega_n: 14.0, delta: 0.05}
plant:
  m: 0.1
  M: 0.5
  l: 0.05
  h: 0.05
  d_z: 0.02
  b_lc: 0.00035
  b_ct: 0.0
  mu: 0.3
numerics: {dt: 0.001, sim_dt: 0.0002, seed: 7}
thresholds: {max_theta: 1.0e-6, max_slip: 1.0e-6}
sim: {tilt: compensated}
"""


def _sample_traj(n=50, with_accel=True):
    dt = 0.01
    t = np.arange(n) * dt
    pos = np.column_stack([np.sin(t), np.cos(t), 0.4 + 0.01 * t])
    acc = np.column_stack([-np.sin(t), -np.cos(t), np.zeros(n)]) if with_accel else None
    return TrajectoryFile(dt, t, pos, acc)


def test_trajectory_round_trip(tmp_path):
    for with_accel in (False, True):
        path = str(tmp_path / f"traj{with_accel}.csv")
        traj = _sample_traj(with_accel=with_accel)
        write_trajectory(path, traj)
        back = read_trajectory(path)
        assert back.dt == traj.dt
        assert np.array_equal(back.t, traj.t)
        assert np.array_equal(back.positions, traj.positions)
        if with_accel:
            assert np.array_equal(back.accelerations, traj.accelerations)
        else:
            assert back.accelerations is None


def test_trajectory_rejects_nonuniform(tmp_path):
    path = str(tmp_path / "bad.csv")
    traj = _sample_traj()
    traj.t[10] += 0.004
    write_trajectory(path, traj)
    with pytest.raises(FormatError):
        read_trajectory(path)


def test_trajectory_rejects_nonfinite(tmp_path):
    path = str(tmp_path / "nan.csv")
    with open(path, "w") as fh:
        fh.write("# trajectory dt=0.01 columns=t,x,y,z\n0.0,0.0,nan,0.0\n")
    with pytest.raises(FormatError):
        read_trajectory(path)


def test_trajectory_rejects_missing_header(tmp_path):
    path = str(tmp_path / "hdr.csv")
    with open(path, "w") as fh:
        fh.write("0.0,0.0,0.0,0.0\n")
    with pytest.raises(FormatError):
        read_trajectory(path)


def test_quaternion_rotation_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(100):
        R = rotation_matrix(rng.uniform(-1.4, 1.4), rng.uniform(-3.1, 3.1))
        q = rotation_to_quaternion(R)
        assert np.abs(quaternion_to_rotation(q) - R).max() < 1e-12
        assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)


def test_pose_round_trip(tmp_path):
    n = 20
    dt = 0.01
    t = np.arange(n) * dt + 0.5
    rng = np.random.default_rng(2)
    rot = np.array([rotation_matrix(rng.uniform(-1, 1), rng.uniform(-3, 3))
                    for _ in range(n)])
    pose = PoseTrajectoryFile(dt, 0.5, t, rng.uniform(-1, 1, (n, 3)), rot)
    path = str(tmp_path / "pose.csv")
    write_pose_trajectory(path, pose)
    back = read_pose_trajectory(path)
    assert back.delay == 0.5
    assert np.array_equal(back.t, pose.t)
    assert np.array_equal(back.positions, pose.positions)
    assert np.abs(back.rotations - pose.rotations).max() < 1e-15


def test_pose_cross_validation_catches_corruption(tmp_path):
    pose = PoseTrajectoryFile(0.01, 0.0, np.array([0.0, 0.01, 0.02]),
                              np.zeros((3, 3)), np.array([np.eye(3)] * 3))
    path = str(tmp_path / "pose.csv")
    write_pose_trajectory(path, pose)
    with open(path) as fh:
        lines = fh.read().splitlines()
    for k in (2, 3):  # data rows 1 and 2
        row = lines[k].split(",")
        row[8] = "0.9"  # r00 no longer matches the quaternion
        lines[k] = ",".join(row)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=r"row 1: quaternion and matrix disagree"):
        read_pose_trajectory(path)


def _with_header_item(path, key, text):
    with open(path) as fh:
        lines = fh.read().splitlines()
    head = lines[0].split()
    head = [f"{key}={text}" if item.startswith(f"{key}=") else item for item in head]
    lines[0] = " ".join(head)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _trajectory_file(tmp_path, n):
    path = str(tmp_path / f"traj{n}.csv")
    write_trajectory(path, _sample_traj(n=n))
    return path


def _pose_file(tmp_path, n):
    t = np.arange(n) * 0.01
    path = str(tmp_path / f"pose{n}.csv")
    write_pose_trajectory(path, PoseTrajectoryFile(0.01, 0.0, t, np.zeros((n, 3)),
                                                   np.array([np.eye(3)] * n)))
    return path


@pytest.mark.parametrize("make, read", [(_trajectory_file, read_trajectory),
                                        (_pose_file, read_pose_trajectory)])
@pytest.mark.parametrize("dt_text, n", [("nan", 5), ("nan", 1), ("inf", 5),
                                        ("-0.001", 1), ("0.0", 1)])
def test_readers_reject_bad_header_dt(tmp_path, make, read, dt_text, n):
    # NaN fails every comparison and a single row has no spacing to check,
    # so the header dt itself must be validated, for any row count
    path = _with_header_item(make(tmp_path, n), "dt", dt_text)
    with pytest.raises(FormatError, match=r"header dt must be positive and finite") as exc:
        read(path)
    assert path in str(exc.value)


@pytest.mark.parametrize("make, read, key, text", [
    (_trajectory_file, read_trajectory, "dt", "abc"),
    (_pose_file, read_pose_trajectory, "dt", "abc"),
    (_pose_file, read_pose_trajectory, "delay", "xyz"),
], ids=["trajectory-dt", "pose-dt", "pose-delay"])
def test_readers_reject_non_numeric_header_values(tmp_path, make, read, key, text):
    path = _with_header_item(make(tmp_path, 5), key, text)
    with pytest.raises(FormatError, match=f"header {key} is not a number: '{text}'") as exc:
        read(path)
    assert path in str(exc.value)


@pytest.mark.parametrize("read, kind", [(read_trajectory, "trajectory"),
                                        (read_pose_trajectory, "pose_trajectory"),
                                        (read_sim_trace, "sim_trace")],
                         ids=["trajectory", "pose", "trace"])
@pytest.mark.parametrize("first_line, message", [
    ("0.0,0.0,0.0,0.0", r"missing '# {kind} \.\.\.' header line"),
    ("# other dt=0.01", r"expected a {kind} file, got \['other'\]"),
    ("# {kind} dt=0.01 junk", r"malformed header item 'junk'"),
], ids=["no-header", "wrong-kind", "malformed-item"])
def test_readers_name_the_file_on_a_bad_header_line(tmp_path, read, kind, first_line,
                                                     message):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write(first_line.format(kind=kind) + "\n0.0,0.0,0.0,0.0\n")
    with pytest.raises(FormatError, match=message.format(kind=kind)) as exc:
        read(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_sim_trace_round_trip(tmp_path):
    n = 30
    t = np.arange(n) * 1e-3
    rng = np.random.default_rng(5)
    trace = SimTrace(t, rng.normal(size=n), rng.normal(size=n),
                     rng.normal(size=n), rng.normal(size=n),
                     (rng.random(n) > 0.5).astype(np.uint8),
                     rng.normal(size=n), np.abs(rng.normal(size=n)), [])
    path = str(tmp_path / "trace.csv")
    write_sim_trace(path, trace)
    back = read_sim_trace(path)
    for name in ("t", "theta", "theta_dot", "d_x", "d_x_dot", "demand", "f_s"):
        assert np.array_equal(getattr(back, name), getattr(trace, name))
    assert np.array_equal(back.mode, trace.mode)


def test_load_config(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(GOOD_CONFIG)
    cfg = load_config(str(path))
    assert cfg.scenario.material == "liquid"
    assert cfg.scenario.omega_n == 14.0
    assert cfg.plant.mu == 0.3
    assert cfg.plant.g == 9.81
    assert cfg.sim_dt == 0.0002
    assert cfg.seed == 7
    assert cfg.max_theta == 1e-6
    assert np.allclose(cfg.mounting.matrix, np.eye(4))


@pytest.mark.parametrize("mutation, path_fragment", [
    ("scenario:\n  motion: point_to_point\n", "scenario.material"),
    (GOOD_CONFIG.replace("material: liquid", "material: jelly"), "scenario"),
    (GOOD_CONFIG.replace("  slosh: {omega_n: 14.0, delta: 0.05}\n", ""),
     "scenario.slosh"),
    (GOOD_CONFIG.replace("tilt: compensated", "tilt: sideways"), "sim.tilt"),
    (GOOD_CONFIG.replace("dt: 0.001", "dt: -0.001"), "numerics.dt"),
    (GOOD_CONFIG.replace("mu: 0.3", "mu: -0.3"), "plant"),
])
def test_config_errors_carry_field_paths(tmp_path, mutation, path_fragment):
    path = tmp_path / "cfg.yaml"
    path.write_text(mutation)
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert path_fragment in str(err.value)


def test_band_limited_noise_deterministic():
    a = band_limited_noise(4096, 1e-3, 0.01, 5.0, seed=42)
    b = band_limited_noise(4096, 1e-3, 0.01, 5.0, seed=42)
    c = band_limited_noise(4096, 1e-3, 0.01, 5.0, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_band_limited_noise_band_and_amplitude():
    n, dt, cutoff = 8192, 1e-3, 5.0
    noise = band_limited_noise(n, dt, 0.02, cutoff, seed=1)
    assert np.sqrt(np.mean(noise ** 2)) == pytest.approx(0.02, rel=1e-9)
    spec = np.abs(np.fft.rfft(noise))
    freqs = np.fft.rfftfreq(n, dt)
    assert spec[freqs > cutoff].max() < 1e-12 * spec.max()
