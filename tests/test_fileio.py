import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from traywaiter import fileio
from traywaiter.compensation import (
    quaternion_to_rotation,
    rotation_matrix,
    rotation_to_quaternion,
)
from traywaiter.dynamics import SimTrace
from traywaiter.fileio import (
    ConfigError,
    FormatError,
    PoseTrajectoryFile,
    TrajectoryFile,
    band_limited_noise,
    load_config,
    read_pose_trajectory,
    read_sim_trace,
    read_trajectory,
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
    pose = PoseTrajectoryFile(dt, 0.5, t, rng.uniform(-1, 1, (n, 3)),
                              rotation_to_quaternion(rot))
    path = str(tmp_path / "pose.csv")
    write_pose_trajectory(path, pose)
    back = read_pose_trajectory(path)
    assert back.delay == 0.5
    assert np.array_equal(back.t, pose.t)
    assert np.array_equal(back.positions, pose.positions)
    assert np.abs(back.rotations - rot).max() < 1e-15


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
    identity = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    write_pose_trajectory(path, PoseTrajectoryFile(0.01, 0.0, t, np.zeros((n, 3)),
                                                   identity))
    return path


def _trace_file(tmp_path, n):
    t = np.arange(n) * 0.01
    zeros = np.zeros(n)
    path = str(tmp_path / f"trace{n}.csv")
    write_sim_trace(path, SimTrace(t, zeros, zeros, zeros, zeros, zeros.astype(np.uint8),
                                   zeros, zeros + 1.0, []), 0.01)
    return path


@pytest.mark.parametrize("rows, columns, text, message", [
    ((1, 2), (4,), "0.9", r"row 1: quaternion norm 0\.9 is not 1"),
    ((2,), (4, 5, 6, 7), "0.0", r"row 2: quaternion norm 0\.0 is not 1"),
], ids=["qw-on-rows-1-and-2", "all-zero-row"])
def test_pose_reader_rejects_a_quaternion_off_unit_norm(tmp_path, rows, columns, text,
                                                        message):
    path = _pose_file(tmp_path, 3)
    with open(path) as fh:
        header, *lines = fh.read().splitlines()
    for k in rows:
        row = lines[k].split(",")
        for i in columns:
            row[i] = text
        lines[k] = ",".join(row)
    with open(path, "w") as fh:
        fh.write("\n".join([header] + lines) + "\n")
    with pytest.raises(FormatError, match=message) as exc:
        read_pose_trajectory(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_pose_reader_refuses_a_17_column_file(tmp_path):
    # the earlier layout also carried each rotation as a row-major matrix
    path = str(tmp_path / "v1.csv")
    with open(path, "w") as fh:
        fh.write("# pose_trajectory dt=0.01 delay=0.0 columns=t,x,y,z,qw,qx,qy,qz,"
                 "r00,r01,r02,r10,r11,r12,r20,r21,r22\n")
        for k in range(3):
            fh.write(f"{k * 0.01!r},0.0,0.0,0.0,1.0,0.0,0.0,0.0,"
                     "1.0,0.0,0.0,0.0,1.0,0.0,0.0,0.0,1.0\n")
    with pytest.raises(FormatError, match=r"expected 8 columns, got 17") as exc:
        read_pose_trajectory(path)
    assert path in str(exc.value)


@pytest.mark.parametrize("make, read", [(_trajectory_file, read_trajectory),
                                        (_pose_file, read_pose_trajectory),
                                        (_trace_file, read_sim_trace)])
@pytest.mark.parametrize("dt_text, n", [("nan", 5), ("nan", 1), ("inf", 5),
                                        ("-0.001", 1), ("0.0", 1)])
def test_readers_reject_bad_header_dt(tmp_path, make, read, dt_text, n):
    # NaN fails every comparison and a single row has no spacing to check,
    # so the header dt itself must be validated, for any row count
    path = _with_header_item(make(tmp_path, n), "dt", dt_text)
    with pytest.raises(FormatError, match=r"header dt must be positive and finite") as exc:
        read(path)
    assert path in str(exc.value)


@pytest.mark.parametrize("make, read, key, text, problem", [
    (_trajectory_file, read_trajectory, "dt", "abc", "is not a number"),
    (_pose_file, read_pose_trajectory, "dt", "abc", "is not a number"),
    (_trace_file, read_sim_trace, "dt", "abc", "is not a number"),
    (_pose_file, read_pose_trajectory, "delay", "xyz", "is not a number"),
    (_pose_file, read_pose_trajectory, "delay", "nan", "is not finite"),
    (_pose_file, read_pose_trajectory, "delay", "inf", "is not finite"),
], ids=["trajectory-dt", "pose-dt", "trace-dt", "pose-delay", "pose-delay-nan",
        "pose-delay-inf"])
def test_readers_reject_non_numeric_header_values(tmp_path, make, read, key, text,
                                                  problem):
    path = _with_header_item(make(tmp_path, 5), key, text)
    with pytest.raises(FormatError, match=f"header {key} {problem}: '{text}'") as exc:
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


@pytest.mark.parametrize("make, read", [(_trajectory_file, read_trajectory),
                                        (_pose_file, read_pose_trajectory),
                                        (_trace_file, read_sim_trace)],
                         ids=["trajectory", "pose", "trace"])
def test_readers_reject_non_uniform_timestamps(tmp_path, make, read):
    # the three readers share one loader, so a trace is held to its dt too
    path = make(tmp_path, 3)
    with open(path) as fh:
        header, *rows = fh.read().splitlines()
    rows[2] = "0.015" + rows[2][rows[2].index(","):]   # 0.0, 0.01, 0.015
    with open(path, "w") as fh:
        fh.write("\n".join([header] + rows) + "\n")
    with pytest.raises(FormatError, match=r"timestamps are not uniform at dt=0\.01") as exc:
        read(path)
    assert str(exc.value).startswith(f"{path}: ")


@pytest.mark.parametrize("make, read", [(_trajectory_file, read_trajectory),
                                        (_pose_file, read_pose_trajectory),
                                        (_trace_file, read_sim_trace)],
                         ids=["trajectory", "pose", "trace"])
def test_readers_name_the_file_on_a_non_utf8_header(tmp_path, make, read):
    path = make(tmp_path, 3)
    with open(path, "rb") as fh:
        header, rows = fh.read().split(b"\n", 1)
    with open(path, "wb") as fh:
        fh.write(header + b" note=\xff\n" + rows)
    with pytest.raises(FormatError, match=r"header line is not UTF-8") as exc:
        read(path)
    assert str(exc.value).startswith(f"{path}: ")


def _second_field(line, text):
    fields = line.split(",")
    fields[1] = text
    return ",".join(fields)


# each turns the lines from data row k on into ones with a bad line at k
SPOILERS = {
    "bad-token": lambda lines, k: [_second_field(lines[k], "0.5x")] + lines[k + 1:],
    "short-row": lambda lines, k: [lines[k].rsplit(",", 1)[0]] + lines[k + 1:],
    "blank-line": lambda lines, k: [""] + lines[k:],
    "comment-line": lambda lines, k: ["# a note"] + lines[k:],
    "plus-sign": lambda lines, k: [_second_field(lines[k], "+1")] + lines[k + 1:],
}


@pytest.mark.parametrize("spoil", SPOILERS.values(), ids=SPOILERS.keys())
@pytest.mark.parametrize("n, k", [(5, 3), (3000, 2500)], ids=["first-block", "later-block"])
def test_reader_names_the_row_of_a_bad_line(tmp_path, spoil, n, k):
    path = _trajectory_file(tmp_path, n)
    with open(path) as fh:
        header, *lines = fh.read().splitlines()
    if n > 5:   # the bad line lies past the first block the reader parses
        assert len("\n".join(lines[:k])) > fileio._READ_BYTES
    with open(path, "w") as fh:
        fh.write("\n".join([header] + lines[:k] + spoil(lines, k)) + "\n")
    with pytest.raises(FormatError, match=rf"^{re.escape(path)}: row {k}: expected 7 "
                                          r"comma-separated numbers, got "):
        read_trajectory(path)


def test_reader_names_row_0_of_a_bad_first_line(tmp_path):
    path = str(tmp_path / "comment.csv")
    with open(path, "w") as fh:
        fh.write("# trajectory dt=0.01 columns=t,x,y,z\n# a note\n0.0,0.0,0.0,0.0\n")
    with pytest.raises(FormatError) as exc:
        read_trajectory(path)
    assert str(exc.value) == (f"{path}: row 0: expected 4 or 7 comma-separated numbers, "
                              "got '# a note'")


def test_reader_keeps_the_sign_of_a_bare_minus_zero(tmp_path):
    # orjson reads a bare -0 as the int 0; float() and np.loadtxt keep its sign
    path = str(tmp_path / "zeros.csv")
    with open(path, "wb") as fh:
        fh.write(b"# trajectory dt=0.5 columns=t,x,y,z\r\n"
                 b"0,-0,1e-0,-0e0\r\n0.5, -0\t,-0.0,2E-0\r\n1.0,0,-0 ,-0")
    back = read_trajectory(path)
    rows = np.column_stack([back.t, back.positions])
    assert rows.tobytes() == np.array([[0.0, -0.0, 1.0, -0.0], [0.5, -0.0, -0.0, 2.0],
                                       [1.0, 0.0, -0.0, -0.0]]).tobytes()


def test_sim_trace_round_trip(tmp_path):
    n = 30
    t = np.arange(n) * 1e-3
    rng = np.random.default_rng(5)
    trace = SimTrace(t, rng.normal(size=n), rng.normal(size=n),
                     rng.normal(size=n), rng.normal(size=n),
                     (rng.random(n) > 0.5).astype(np.uint8),
                     rng.normal(size=n), np.abs(rng.normal(size=n)), [])
    path = str(tmp_path / "trace.csv")
    write_sim_trace(path, trace, 1e-3)
    back = read_sim_trace(path)
    for name in ("t", "theta", "theta_dot", "d_x", "d_x_dot", "demand", "f_s"):
        assert np.array_equal(getattr(back, name), getattr(trace, name))
    assert np.array_equal(back.mode, trace.mode)


@pytest.mark.parametrize("bad", [-1.0, 2.7, 0.5, 2.0])
def test_sim_trace_rejects_modes_other_than_0_and_1(tmp_path, bad):
    path = str(tmp_path / "trace.csv")
    with open(path, "w") as fh:
        fh.write("# sim_trace dt=0.001 columns=t,theta,theta_dot,d_x,d_x_dot,"
                 "mode,demand,f_s\n")
        for k, mode in enumerate([0.0, 1.0, -0.0, bad, 3.0]):
            fh.write(f"{k * 0.001!r},0.0,0.0,0.0,0.0,{mode!r},0.0,1.0\n")
    with pytest.raises(FormatError) as exc:
        read_sim_trace(path)
    assert str(exc.value) == f"{path}: row 3: mode must be 0 or 1, got {bad!r}"


# finite floats that stress the writer: ±0.0, subnormals, the ranges just
# outside [1e-4, 1e16) where repr() writes an exponent, and the extremes
csv_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.floats(1e-5, 1e-4), st.floats(-1e-4, -1e-5),
    st.floats(min_value=1e16, allow_infinity=False),
    st.floats(max_value=-1e16, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, -1.7976931348623157e308]))
row_counts = st.integers(1, 16)
dts = st.floats(1e-6, 10.0)


def _table(n, cols):
    return arrays(np.float64, (n, cols), elements=csv_floats, fill=st.nothing())


def _same_bits(a, b):
    """Equal bit for bit, so -0.0 differs from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(deadline=None)
@given(st.data(), row_counts, st.booleans(), csv_floats, dts)
def test_trajectory_round_trip_is_bit_exact(tmp_path_factory, data, n, with_accel,
                                            t0, dt):
    traj = TrajectoryFile(dt, t0 + np.arange(n) * dt, data.draw(_table(n, 3)),
                          data.draw(_table(n, 3)) if with_accel else None)
    path = str(tmp_path_factory.mktemp("traj") / "traj.csv")
    write_trajectory(path, traj)
    back = read_trajectory(path)
    assert _same_bits(back.dt, traj.dt) and _same_bits(back.t, traj.t)
    assert _same_bits(back.positions, traj.positions)
    assert (back.accelerations is None if traj.accelerations is None
            else _same_bits(back.accelerations, traj.accelerations))


@settings(deadline=None)
@given(st.data(), row_counts, csv_floats, csv_floats, dts)
def test_pose_round_trip_is_bit_exact(tmp_path_factory, data, n, t0, delay, dt):
    quats = data.draw(arrays(np.float64, (n, 4), elements=st.floats(-1.0, 1.0),
                             fill=st.nothing()))
    quats[np.linalg.norm(quats, axis=1) < 1e-3] = (1.0, 0.0, 0.0, 0.0)
    quats /= np.linalg.norm(quats, axis=1)[:, None]
    pose = PoseTrajectoryFile(dt, delay, t0 + np.arange(n) * dt,
                              data.draw(_table(n, 3)), quats)
    path = str(tmp_path_factory.mktemp("pose") / "pose.csv")
    write_pose_trajectory(path, pose)
    back = read_pose_trajectory(path)
    for name in ("dt", "delay", "t", "positions", "quaternions"):
        assert _same_bits(getattr(back, name), getattr(pose, name)), name


@settings(deadline=None)
@given(st.data(), row_counts, csv_floats, dts)
def test_sim_trace_round_trip_is_bit_exact(tmp_path_factory, data, n, t0, dt):
    columns = data.draw(_table(n, 6))
    mode = data.draw(arrays(np.uint8, n, elements=st.integers(0, 1)))
    trace = SimTrace(t0 + np.arange(n) * dt, *columns[:, :4].T, mode,
                     *columns[:, 4:].T, [])
    path = str(tmp_path_factory.mktemp("trace") / "trace.csv")
    write_sim_trace(path, trace, dt)
    back = read_sim_trace(path)
    for name in ("t", "theta", "theta_dot", "d_x", "d_x_dot", "demand", "f_s"):
        assert _same_bits(getattr(back, name), getattr(trace, name)), name
    assert np.array_equal(back.mode, trace.mode)


# JSON spellings of a float: the writer's, 17 and 25 significant digits
# (the latter writes bare integers, and -0 for -0.0), an upper-case E with an
# explicit exponent sign, and blanks around the token
SPELLINGS = (repr, "%.17e".__mod__, "%.25g".__mod__, "%.17E".__mod__,
             lambda x: f" {x!r}\t")


@settings(deadline=None)
@given(st.data(), st.integers(1, 24), st.sampled_from(["\n", "\r\n"]), st.booleans(),
       st.sampled_from([8, 64, 512]))
def test_reader_gives_the_bits_of_float(tmp_path_factory, data, n, newline, last_newline,
                                        block_bytes):
    # tokens in several spellings, rows spread over several parse blocks
    rows = np.column_stack([np.arange(n) * 0.001, data.draw(_table(n, 3))])
    spell = data.draw(st.lists(st.sampled_from(SPELLINGS), min_size=rows.size,
                               max_size=rows.size))
    tokens = [[spell[4 * i + j](x) for j, x in enumerate(row)]
              for i, row in enumerate(rows.tolist())]
    text = newline.join(",".join(row) for row in tokens) + (newline if last_newline else "")
    path = str(tmp_path_factory.mktemp("spelled") / "traj.csv")
    with open(path, "w", newline="") as fh:
        fh.write(f"# trajectory dt=0.001 columns=t,x,y,z{newline}{text}")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "_READ_BYTES", block_bytes)
        back = read_trajectory(path)
    expected = np.array([[float(token) for token in row] for row in tokens])
    assert _same_bits(np.column_stack([back.t, back.positions]), expected)


def test_reader_peak_memory_stays_near_its_array(tmp_path):
    # the rows are counted first and fill one array, block by block
    n = 30001
    t = np.arange(n) * 1e-3
    path = str(tmp_path / "long.csv")
    write_trajectory(path, TrajectoryFile(1e-3, t, np.column_stack([np.sin(t), np.cos(t),
                                                                    0.4 + t])))
    tracemalloc.start()
    try:
        back = read_trajectory(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = back.t.nbytes + back.positions.nbytes
    assert nbytes == n * 4 * 8
    assert peak <= 1.5 * nbytes + 0.3e6


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600),
                                         (0o002, 0o664)])
def test_written_files_get_the_mode_open_would_give(tmp_path, umask, mode):
    path = tmp_path / "traj.csv"
    path.write_text("an older file\n")
    previous = os.umask(umask)
    try:
        write_trajectory(str(path), _sample_traj())
    finally:
        os.umask(previous)
    assert os.stat(path).st_mode & 0o777 == mode


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
    (GOOD_CONFIG + "freqresp: {omega_max: 0.0}\n", "freqresp.omega_max"),
    (GOOD_CONFIG + "freqresp: {omega_max: .inf}\n", "freqresp.omega_max"),
    (GOOD_CONFIG + "freqresp: {omega_max: .nan}\n", "freqresp.omega_max"),
    # bool subclasses int, so a YAML boolean must not pass for a number
    (GOOD_CONFIG.replace("mu: 0.3", "mu: true"), "plant.mu"),
    (GOOD_CONFIG.replace("v_max: 1.0", "v_max: false"), "scenario.v_max"),
    (GOOD_CONFIG.replace("seed: 7", "seed: true"), "numerics.seed"),
    (GOOD_CONFIG + "freqresp: {points: true}\n", "freqresp.points"),
    (GOOD_CONFIG.replace("goal: [0.6, 0.0, 0.4]", "goal: [0.6, false, 0.4]"),
     "scenario.goal"),
    (GOOD_CONFIG + "mounting: {position: [0.0, 0.0, true]}\n", "mounting.position"),
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


@pytest.mark.parametrize("n", [2, 3, 5, 17, 128, 1000, 4096, 4097, 12289, 30001,
                               65537, 99991])
def test_band_limited_noise_seed_sequence_columns_match_int_calls(n):
    for dt, cutoff in ((1e-3, 5.0), (1e-2, 0.7)):
        seeds = [7, 8, 9]
        cols = band_limited_noise(n, dt, 0.0005, cutoff, seed=seeds)
        assert cols.shape == (n, 3)
        for j, s in enumerate(seeds):
            alone = band_limited_noise(n, dt, 0.0005, cutoff, seed=s)
            assert alone.shape == (n,)
            assert np.ascontiguousarray(cols[:, j]).tobytes() == alone.tobytes()


@pytest.mark.parametrize("name, value", [
    ("n", 1),
    ("dt", math.nan),
    ("dt", math.inf),
    ("dt", 0.0),
    ("dt", -1e-3),
    ("amplitude", math.inf),
    ("amplitude", math.nan),
    ("amplitude", -0.1),
    ("cutoff_hz", math.nan),
    ("cutoff_hz", math.inf),
    ("cutoff_hz", 0.0),
    ("seed", []),
])
def test_band_limited_noise_rejects_bad_arguments(name, value):
    kwargs = dict(n=100, dt=1e-3, amplitude=0.01, cutoff_hz=5.0, seed=1)
    kwargs[name] = value
    with pytest.raises(ValueError, match=f"^{name} must be"):
        band_limited_noise(**kwargs)


def test_band_limited_noise_band_and_amplitude():
    n, dt, cutoff = 8192, 1e-3, 5.0
    noise = band_limited_noise(n, dt, 0.02, cutoff, seed=1)
    assert np.sqrt(np.mean(noise ** 2)) == pytest.approx(0.02, rel=1e-9)
    spec = np.abs(np.fft.rfft(noise))
    freqs = np.fft.rfftfreq(n, dt)
    assert spec[freqs > cutoff].max() < 1e-12 * spec.max()
