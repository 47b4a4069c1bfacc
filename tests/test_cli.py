import dataclasses
import glob
import math
import os
import re

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from traywaiter import fileio
from traywaiter.cli import main
from traywaiter.compensation import rotation_matrix
from traywaiter.fileio import (
    TrajectoryFile,
    read_pose_trajectory,
    read_sim_trace,
    read_trajectory,
    write_trajectory,
)
from traywaiter.planner import friction_limited_duration
from traywaiter.smoothers import Trapezoidal, freq_response

from _oracles import planar_tilt, quaternion_to_rotation
from test_golden import (
    DEMO_CONFIG,
    FILTER_CONFIG,
    FILTER_ROWS,
    SOLID_SLIP_CONFIG,
    _hand_trace,
)

G = 9.81

P2P_CONFIG = """
scenario:
  material: liquid
  motion: point_to_point
  start: [0.0, 0.0, 0.4]
  goal: [0.6, 0.0, 0.4]
  v_max: 1.0
  a_max: 3.0
  slosh: {omega_n: 14.0071410359145, delta: 0.05}
mounting:
  rotation_rpy: [0.0, 0.0, 0.0]
  position: [0.0, 0.0, 0.12]
plant:
  m: 0.1
  M: 0.5
  l: 0.05
  h: 0.05
  d_z: 0.02
  b_lc: 0.00035
  b_ct: 0.0
  mu: 0.3
numerics: {dt: 0.001, sim_dt: 0.0002, seed: 0}
thresholds: {max_theta: 1.0e-6, max_slip: 1.0e-6}
sim: {tilt: compensated}
"""

COMPLEX_SOLID_CONFIG = """
scenario:
  material: solid
  motion: complex
  free_stage_T: 0.2
plant:
  m: 0.0
  M: 0.5
  l: 0.05
  h: 0.05
  d_z: 0.0
  b_lc: 0.0
  b_ct: 0.0
  mu: 0.3
numerics: {dt: 0.002, seed: 1}
sim: {tilt: none}
thresholds: {max_theta: 1.0e-6, max_slip: 1.0e-6}
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _const_traj(tmp_path, name, n=2000, dt=2e-3, pos=(0.3, -0.1, 0.4)):
    t = np.arange(n) * dt
    positions = np.tile(np.asarray(pos, dtype=float), (n, 1))
    path = str(tmp_path / name)
    write_trajectory(path, TrajectoryFile(dt, t, positions))
    return path


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

def test_plan_outputs(tmp_path):
    cfg = _write(tmp_path, "cfg.yaml", P2P_CONFIG)
    out = str(tmp_path / "out")
    assert main(["plan", "--config", cfg, "--output", out]) == 0
    pose = read_pose_trajectory(os.path.join(out, "trajectory.csv"))
    ref = read_trajectory(os.path.join(out, "reference.csv"))
    report = open(os.path.join(out, "plan.txt")).read()
    assert "friction floor" in report and "removes the bound" in report
    assert "DampedHarmonic" in report  # the slosh-notch stage with (sigma, T)
    # starts at rest: flange = start - mount offset, identity rotation
    assert np.allclose(pose.positions[0], [0.0, 0.0, 0.28])
    assert np.abs(quaternion_to_rotation(pose.quaternions[0]) - np.eye(3)).max() < 1e-12
    # arrives exactly: reference hits the goal after the kernel support
    assert np.allclose(ref.positions[-1], [0.6, 0.0, 0.4], atol=1e-9)
    assert pose.delay > 0


def test_plan_solid_p2p_duration(tmp_path):
    solid = P2P_CONFIG.replace("material: liquid", "material: solid")
    solid = solid.replace("v_max: 1.0", "v_max: 2.0")
    solid = solid.replace("a_max: 3.0", "a_max: 5.0")
    solid = solid.replace("goal: [0.6, 0.0, 0.4]", "goal: [1.0, 0.0, 0.4]")
    solid += "\nscenario_extra: {}\n"
    cfg = _write(tmp_path, "cfg.yaml",
                 solid.replace("scenario:\n", "scenario:\n  free_stage_T: 0.1\n"))
    out = str(tmp_path / "out")
    assert main(["plan", "--config", cfg, "--output", out]) == 0
    report = open(os.path.join(out, "plan.txt")).read()
    assert "total kernel support: 1.1 s" in report  # 0.9 s profile + free stage
    pose = read_pose_trajectory(os.path.join(out, "trajectory.csv"))
    assert pose.delay == pytest.approx(1.1, abs=1e-12)


def test_plan_zero_displacement(tmp_path):
    cfg = _write(tmp_path, "cfg.yaml",
                 P2P_CONFIG.replace("goal: [0.6, 0.0, 0.4]", "goal: [0.0, 0.0, 0.4]"))
    out = str(tmp_path / "out")
    assert main(["plan", "--config", cfg, "--output", out]) == 0
    pose = read_pose_trajectory(os.path.join(out, "trajectory.csv"))
    assert pose.n == 2
    assert np.abs(quaternion_to_rotation(pose.quaternions) - np.eye(3)).max() < 1e-12


def test_plan_uses_the_plant_gravity(tmp_path):
    cfg = _write(tmp_path, "cfg.yaml",
                 P2P_CONFIG.replace("  mu: 0.3\n", "  mu: 0.3\n  g: 5.0\n"))
    out = str(tmp_path / "out")
    assert main(["plan", "--config", cfg, "--output", out]) == 0
    report = open(os.path.join(out, "plan.txt")).read()
    floor = friction_limited_duration(0.6, 0.0, 0.3, 5.0)
    assert f"friction floor: T >= {floor!r} s" in report
    pose = read_pose_trajectory(os.path.join(out, "trajectory.csv"))
    ref = read_trajectory(os.path.join(out, "reference.csv"))
    k = int(np.argmax(np.abs(ref.accelerations[:, 0])))
    beta = planar_tilt(ref.accelerations[k, 0], ref.accelerations[k, 2], 5.0)
    rotation = quaternion_to_rotation(pose.quaternions[k])
    assert np.abs(rotation - rotation_matrix(beta, math.pi)).max() < 1e-12


def test_plan_rejects_complex_scenario(tmp_path):
    cfg = _write(tmp_path, "cfg.yaml", COMPLEX_SOLID_CONFIG)
    assert main(["plan", "--config", cfg, "--output", str(tmp_path / "o")]) == 2


def test_invalid_config_exit_code(tmp_path):
    cfg = _write(tmp_path, "cfg.yaml", P2P_CONFIG.replace("material: liquid",
                                                          "material: jelly"))
    assert main(["plan", "--config", cfg, "--output", str(tmp_path / "o")]) == 2


def test_bool_for_number_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.yaml", P2P_CONFIG.replace("mu: 0.3", "mu: true"))
    assert main(["plan", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
    assert "plant.mu: expected float, got bool" in capsys.readouterr().err


# load_config parses with libyaml's C loader when PyYAML has it, else with
# the pure-Python SafeLoader; both must give the same configs and errors

def _bits(value):
    """A loaded config as nested tuples that keep each leaf's type, with
    every float as hex and every array as its bytes."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                tuple((f.name, _bits(getattr(value, f.name)))
                      for f in dataclasses.fields(value)))
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


CONFIG_FILES = sorted(glob.glob(os.path.join(os.path.dirname(DEMO_CONFIG), "*.yaml")))
CONFIG_TEXTS = [P2P_CONFIG, COMPLEX_SOLID_CONFIG, SOLID_SLIP_CONFIG, FILTER_CONFIG,
                COMPLEX_SOLID_CONFIG + "noise: {amplitude: 0.003, cutoff_hz: 4.0}\n"]


def test_both_yaml_loaders_give_the_same_config(tmp_path, monkeypatch):
    paths = CONFIG_FILES + [_write(tmp_path, f"cfg{i}.yaml", text)
                            for i, text in enumerate(CONFIG_TEXTS)]
    assert len(CONFIG_FILES) >= 2
    loaded = [_bits(fileio.load_config(path)) for path in paths]
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert [_bits(fileio.load_config(path)) for path in paths] == loaded


@pytest.mark.parametrize("c_loader", [True, False], ids=["CSafeLoader", "SafeLoader"])
def test_malformed_yaml_exit_code(tmp_path, capsys, monkeypatch, c_loader):
    if not c_loader:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    cfg = _write(tmp_path, "cfg.yaml", P2P_CONFIG.replace("v_max: 1.0", "v_max: [1.0"))
    out = tmp_path / "o"
    assert main(["plan", "--config", cfg, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: <document>: not valid YAML: ")
    assert not out.exists()


# every float and three-number field load_config reads; freqresp.points is an
# int and stays out: a huge value would allocate the whole grid
FLOAT_FIELDS = [
    "scenario.slosh.omega_n", "scenario.slosh.delta", "scenario.v_max",
    "scenario.a_max", "scenario.free_stage_T", "scenario.angular_accel_cap",
    "plant.g", "plant.m", "plant.M", "plant.l",
    "plant.h", "plant.d_z", "plant.b_lc", "plant.b_ct", "plant.mu",
    "numerics.dt", "numerics.sim_dt", "freqresp.omega_max",
    "thresholds.max_theta", "thresholds.max_slip", "noise.amplitude",
    "noise.cutoff_hz",
]
VEC3_FIELDS = ["scenario.start", "scenario.goal", "mounting.rotation_rpy",
               "mounting.position"]


def _config_with(field, value):
    cfg = yaml.safe_load(P2P_CONFIG)
    *parents, leaf = field.split(".")
    node = cfg
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = value
    return yaml.safe_dump(cfg)


def test_non_finite_cases_cover_every_number_field(tmp_path, monkeypatch):
    read = {float: [], list: []}
    get = fileio._get

    def spy(cfg, path, typ, **kwargs):
        read.get(typ, []).append(path)
        return get(cfg, path, typ, **kwargs)

    monkeypatch.setattr(fileio, "_get", spy)
    fileio.load_config(_write(tmp_path, "cfg.yaml", P2P_CONFIG))
    assert sorted(read[float]) == sorted(FLOAT_FIELDS)
    assert sorted(read[list]) == sorted(VEC3_FIELDS)


# YAML .nan, .inf and -.inf, and an integer beyond the float range
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -10**400])
@pytest.mark.parametrize("field", FLOAT_FIELDS + VEC3_FIELDS)
def test_non_finite_config_numbers_exit_2(tmp_path, capsys, field, value):
    if field in VEC3_FIELDS:
        value = [0.1, value, 0.4]
    cfg = _write(tmp_path, "cfg.yaml", _config_with(field, value))
    assert main(["plan", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


@pytest.mark.parametrize("command, field, value, problem", [
    ("filter", "noise.amplitude", -0.001, "must not be negative"),
    ("filter", "noise.cutoff_hz", 0.0, "must be positive"),
    ("filter", "numerics.seed", -5, "must not be negative"),
    ("simulate", "thresholds.max_theta", -1.0, "must not be negative"),
    ("simulate", "thresholds.max_slip", -1.0, "must not be negative"),
    ("simulate", "scenario.angular_accel_cap", -1.0, "must be positive"),
    ("simulate", "scenario.angular_accel_cap", 0.0, "must be positive"),
    ("simulate", "scenario.free_stage_T", 0.0, "must be positive"),
])
def test_out_of_range_config_values_exit_2(tmp_path, capsys, command, field, value,
                                           problem):
    # unchecked, a negative amplitude would add no noise, numpy would refuse
    # a negative seed without naming the field, and a negative threshold
    # would fail every run ("|slip| = 0.0 m > -1.0"); a cap that is not
    # positive would send a solid move through a free-stage search that
    # cannot succeed, with an error that names no field
    noisy = COMPLEX_SOLID_CONFIG + "noise: {amplitude: 0.003, cutoff_hz: 4.0}\n"
    cfg = yaml.safe_load(noisy if command == "filter" else P2P_CONFIG)
    section, leaf = field.split(".")
    cfg[section][leaf] = value
    n, dt = 200, 2e-3
    rest = str(tmp_path / "rest.csv")
    write_trajectory(rest, TrajectoryFile(dt, np.arange(n) * dt,
                                          np.tile([0.0, 0.0, 0.4], (n, 1)),
                                          np.zeros((n, 3))))
    out = tmp_path / "out"
    assert main([command, "--config", _write(tmp_path, "cfg.yaml", yaml.safe_dump(cfg)),
                 "--input", rest, "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {field}: {problem}\n"
    assert not out.exists()


def _config_nodes(node, path=()):
    """Key paths of every mapping entry and list element of a parsed config."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _config_nodes(value, path + (key,))


with open(DEMO_CONFIG) as _fh:
    FUZZ_BASES = {"demo": yaml.safe_load(_fh), "solid": yaml.safe_load(SOLID_SLIP_CONFIG)}
FUZZ_TARGETS = [(name, path) for name, base in FUZZ_BASES.items()
                for path in _config_nodes(base)]
# no other small positive durations: omega_n = 1e-4 already asks for ~1e8
# samples per array, and freqresp.points = 1e9 for ~8 GB
FUZZ_VALUES = [None, True, "text", [1.0, 2.0, 3.0], [0.1, 0.2], 0, -1, math.nan,
               math.inf, -math.inf, 10**400, 1e-300, 1e300]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(target=st.sampled_from(FUZZ_TARGETS), value=st.sampled_from(FUZZ_VALUES))
@example(target=("demo", ("scenario", "slosh", "omega_n")), value=1e-300)
@example(target=("demo", ("scenario", "goal", 0)), value=1e300)
@example(target=("solid", ("scenario", "v_max")), value=1e-300)
def test_fuzzed_config_ends_in_a_documented_exit_code(tmp_path_factory, target, value):
    # one field replaced; plan and freqresp end in 0-3, never in a traceback
    # (the suite also turns a RuntimeWarning into an error)
    name, path = target
    cfg = yaml.safe_load(yaml.safe_dump(FUZZ_BASES[name]))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg_path = _write(tmp, "cfg.yaml", yaml.safe_dump(cfg))
    for command in ("plan", "freqresp"):
        assert main([command, "--config", cfg_path, "--output", str(tmp / "out")]) \
            in (0, 1, 2, 3)


def test_plan_free_fall_exit_code(tmp_path, capsys):
    # the free-stage search meets g + az <= 0 on a fast solid drop
    cfg = _write(tmp_path, "cfg.yaml", """
scenario:
  material: solid
  motion: point_to_point
  start: [0.0, 0.0, 1.0]
  goal: [0.0, 0.0, 0.0]
  v_max: 2.0
  a_max: 30.0
""")
    assert main(["plan", "--config", cfg, "--output", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "free fall" in err and err.rstrip().endswith("lower a_max")
    # the time along the planned step, not an index into the planner's grid
    assert re.search(r"at t = 0\.04\d* s", err) and "sample" not in err


def test_plan_names_a_sample_period_too_coarse_for_the_notch(tmp_path, capsys):
    # undamped, the notch's pole term is (pi/span)^2 alone, and at a 1e300 s
    # sample period the quantized span makes it underflow to zero
    cfg = yaml.safe_load(P2P_CONFIG)
    cfg["scenario"]["slosh"]["delta"] = 0.0
    cfg["numerics"]["dt"] = 1.0e300
    path = _write(tmp_path, "cfg.yaml", yaml.safe_dump(cfg))
    assert main(["plan", "--config", path, "--output", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: the sample period 1e+300 s quantizes an oscillator span")


def test_plan_beyond_the_sample_budget_exits_2(tmp_path, capsys):
    # a 1e9 m move at 1 ms per sample would ask for 1e12 samples per array
    cfg = _write(tmp_path, "cfg.yaml", _config_with("scenario.goal", [1.0e9, 0.0, 0.4]))
    out = tmp_path / "o"
    assert main(["plan", "--config", cfg, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: numerics.dt: a 1000000001.0070312 s plan at 0.001 s "
                          "per sample needs 1e+12 samples, beyond the budget of ")
    assert not (out / "trajectory.csv").exists()


# ---------------------------------------------------------------------------
# filter
# ---------------------------------------------------------------------------

def test_filter_constant_input_identity(tmp_path):
    cfg = _write(tmp_path, "cfg.yaml", COMPLEX_SOLID_CONFIG)
    traj = _const_traj(tmp_path, "in.csv")
    out = str(tmp_path / "out")
    assert main(["filter", "--config", cfg, "--input", traj, "--output", out]) == 0
    pose = read_pose_trajectory(os.path.join(out, "filtered.csv"))
    assert pose.delay == pytest.approx(0.4, abs=1e-12)
    assert np.abs(pose.positions - np.array([0.3, -0.1, 0.4])).max() < 1e-12
    assert np.abs(quaternion_to_rotation(pose.quaternions) - np.eye(3)).max() < 1e-12
    # timestamps shifted by exactly the reported delay
    src = read_trajectory(traj)
    assert np.array_equal(pose.t, src.t + pose.delay)


def test_filter_planar_input_single_axis_tilt(tmp_path):
    cfg = _write(tmp_path, "cfg.yaml", COMPLEX_SOLID_CONFIG)
    dt, n = 2e-3, 3000
    t = np.arange(n) * dt
    x = 0.3 * np.sin(1.5 * t) ** 2
    positions = np.column_stack([x, np.full(n, 0.1), np.full(n, 0.4)])
    path = str(tmp_path / "in.csv")
    write_trajectory(path, TrajectoryFile(dt, t, positions))
    out = str(tmp_path / "out")
    assert main(["filter", "--config", cfg, "--input", path, "--output", out]) == 0
    pose = read_pose_trajectory(os.path.join(out, "filtered.csv"))
    ref = read_trajectory(os.path.join(out, "reference.csv"))
    # both files carry the input's sample period, not a difference of the
    # delay-shifted times
    assert pose.dt == ref.dt == dt
    for k in range(100, n, 379):
        beta = planar_tilt(ref.accelerations[k, 0], ref.accelerations[k, 2], G)
        expect = rotation_matrix(beta, math.pi)
        assert np.abs(quaternion_to_rotation(pose.quaternions[k]) - expect).max() < 1e-9


def test_filter_noise_attenuation_matches_magnitude_response(tmp_path):
    # single tone at omega0 on a constant position: the output acceleration
    # amplitude must be A * omega0^2 * |H(j omega0)|
    cfg = _write(tmp_path, "cfg.yaml", COMPLEX_SOLID_CONFIG)
    dt, n = 2e-3, 4500
    omega0 = 4 * math.pi
    amp = 0.01
    t = np.arange(n) * dt
    positions = np.column_stack([0.3 + amp * np.sin(omega0 * t),
                                 np.zeros(n), np.full(n, 0.4)])
    path = str(tmp_path / "in.csv")
    write_trajectory(path, TrajectoryFile(dt, t, positions))
    out = str(tmp_path / "out")
    assert main(["filter", "--config", cfg, "--input", path, "--output", out]) == 0
    ref = read_trajectory(os.path.join(out, "reference.csv"))
    # lock-in over an integer number of periods, past the transient
    lo, hi = int(1.0 / dt), int(7.0 / dt)  # 6 s = 12 periods of 0.5 s
    window = ref.accelerations[lo:hi, 0]
    phase = np.exp(-1j * omega0 * t[lo:hi])
    measured = 2.0 * abs(np.mean(window * phase))
    expected = amp * omega0 ** 2 * freq_response(Trapezoidal(0.2, 0.2), [omega0])[0]
    assert measured == pytest.approx(expected, rel=0.05)


def test_filter_free_fall_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.yaml", COMPLEX_SOLID_CONFIG)
    dt, n = 2e-3, 1500
    t = np.arange(n) * dt
    z = 0.4 - 7.5 * t ** 2  # steady -15 m/s^2 dive: beyond free fall
    positions = np.column_stack([np.zeros(n), np.zeros(n), z])
    path = str(tmp_path / "in.csv")
    write_trajectory(path, TrajectoryFile(dt, t, positions))
    assert main(["filter", "--config", cfg, "--input", path,
                 "--output", str(tmp_path / "out")]) == 3
    # the pose chain's free-fall check names the sample, the CLI its time
    assert re.fullmatch(r"error: free fall: g \+ acc_z = \S+ <= 0 at sample \d+: "
                        r"tilt compensation undefined \(at t = \S+ s\)\n",
                        capsys.readouterr().err)


def test_filter_beyond_the_sample_budget_exits_2(tmp_path, capsys):
    # a 2e5 s kernel at the input's 2 ms would hold 1e8 samples per stage
    cfg = _write(tmp_path, "cfg.yaml",
                 COMPLEX_SOLID_CONFIG.replace("free_stage_T: 0.2", "free_stage_T: 1.0e+5"))
    traj = _const_traj(tmp_path, "in.csv", n=10)
    assert main(["filter", "--config", cfg, "--input", traj,
                 "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: scenario: a 200000.0 s kernel")


def test_filter_rejects_nonuniform_input(tmp_path):
    cfg = _write(tmp_path, "cfg.yaml", COMPLEX_SOLID_CONFIG)
    path = str(tmp_path / "in.csv")
    with open(path, "w") as fh:
        fh.write("# trajectory dt=0.002 columns=t,x,y,z\n"
                 "0.0,0.0,0.0,0.4\n0.002,0.0,0.0,0.4\n0.0045,0.0,0.0,0.4\n")
    assert main(["filter", "--config", cfg, "--input", path,
                 "--output", str(tmp_path / "out")]) == 2


def test_filter_rejects_a_one_row_input(tmp_path, capsys):
    # one sample has no period: the output headers would read dt=0.0, which
    # the package's own readers reject
    cfg = _write(tmp_path, "cfg.yaml", COMPLEX_SOLID_CONFIG)
    traj = _const_traj(tmp_path, "in.csv", n=1)
    out = tmp_path / "out"
    assert main(["filter", "--config", cfg, "--input", traj, "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {traj}: filter needs at least two samples, got 1\n")
    assert not (out / "filtered.csv").exists()


@pytest.mark.parametrize("cutoff", [1e-300, 1e5, 1e300])
def test_filter_noise_cutoff_without_a_stationary_filter_exits_2(tmp_path, capsys, cutoff):
    # at the input's 1 ms the noise filter's Lyapunov system is singular,
    # its P22 is 0 or its coefficients are NaN
    cfg = _write(tmp_path, "cfg.yaml", COMPLEX_SOLID_CONFIG
                 + f"noise: {{amplitude: 0.003, cutoff_hz: {cutoff:.1e}}}\n")
    traj = _const_traj(tmp_path, "in.csv", n=100, dt=1e-3)
    out = tmp_path / "out"
    assert main(["filter", "--config", cfg, "--input", traj, "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: noise.cutoff_hz: cutoff_hz must be ")
    assert not out.exists()


@pytest.mark.parametrize("noise", [True, False], ids=["noise", "quiet"])
def test_filter_of_a_prefix_writes_the_prefix_of_the_full_run(tmp_path, noise):
    # every step of filter is causal: the noise, the cascade and the poses
    config = FILTER_CONFIG if noise else FILTER_CONFIG.replace("noise:", "#noise:")
    cfg = _write(tmp_path, "cfg.yaml", config)
    full = str(tmp_path / "full.csv")
    _hand_trace(full)
    with open(full) as fh:
        lines = fh.readlines()
    assert len(lines) == FILTER_ROWS + 1
    head = _write(tmp_path, "head.csv", "".join(lines[:1001]))
    outputs = []
    for trace, name in ((full, "full"), (head, "head")):
        out = str(tmp_path / name)
        assert main(["filter", "--config", cfg, "--input", trace, "--output", out]) == 0
        outputs.append({f: open(os.path.join(out, f), "rb").read().splitlines(True)
                        for f in ("filtered.csv", "reference.csv")})
    for name, lines in outputs[1].items():
        assert len(lines) == 1001
        assert lines == outputs[0][name][:1001]


def test_filter_noise_injection_deterministic(tmp_path):
    noisy_cfg = COMPLEX_SOLID_CONFIG + "noise: {amplitude: 0.003, cutoff_hz: 4.0}\n"
    traj = _const_traj(tmp_path, "in.csv", n=1500)
    outs = []
    for name, seed in (("a", 9), ("b", 9), ("c", 10)):
        cfg = _write(tmp_path, f"{name}.yaml",
                     noisy_cfg.replace("seed: 1", f"seed: {seed}"))
        out = str(tmp_path / name)
        assert main(["filter", "--config", cfg, "--input", traj, "--output", out]) == 0
        outs.append(open(os.path.join(out, "filtered.csv"), "rb").read())
    assert outs[0] == outs[1]
    # a different numerics.seed changes the bytes
    assert outs[2] != outs[0]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_planned_trajectory_passes(tmp_path):
    cfg = _write(tmp_path, "cfg.yaml", P2P_CONFIG)
    out = str(tmp_path / "out")
    assert main(["plan", "--config", cfg, "--output", out]) == 0
    rc = main(["simulate", "--config", cfg,
               "--input", os.path.join(out, "reference.csv"), "--output", out])
    assert rc == 0
    trace = read_sim_trace(os.path.join(out, "trace.csv"))
    assert np.abs(trace.theta).max() < 1e-6
    assert trace.d_x[-1] == 0.0
    assert "PASS" in open(os.path.join(out, "verdict.txt")).read()


def test_simulate_fast_uncompensated_fails_with_slip(tmp_path):
    solid_cfg = COMPLEX_SOLID_CONFIG.replace("mu: 0.3", "mu: 0.5")
    cfg = _write(tmp_path, "cfg.yaml", solid_cfg)
    h_o, mu = 1.0, 0.5
    t_star = 2 * math.sqrt(h_o / (mu * G))
    T = 0.95 * t_star
    dt = 1e-4
    n = int(round((T + 0.3) / dt)) + 1
    t = np.arange(n) * dt
    a = 4 * h_o / T ** 2
    acc = np.where(t < T / 2, a, np.where(t < T, -a, 0.0))
    vel = np.cumsum(np.concatenate([[0.0], 0.5 * (acc[1:] + acc[:-1]) * dt]))
    pos = np.cumsum(np.concatenate([[0.0], 0.5 * (vel[1:] + vel[:-1]) * dt]))
    positions = np.column_stack([pos, np.zeros(n), np.full(n, 0.4)])
    accels = np.column_stack([acc, np.zeros(n), np.zeros(n)])
    path = str(tmp_path / "fast.csv")
    write_trajectory(path, TrajectoryFile(dt, t, positions, accels))
    out = str(tmp_path / "out")
    rc = main(["simulate", "--config", cfg, "--input", path, "--output", out])
    assert rc == 1
    verdict = open(os.path.join(out, "verdict.txt")).read()
    assert "FAIL" in verdict and "slip" in verdict
    trace = read_sim_trace(os.path.join(out, "trace.csv"))
    assert abs(trace.d_x[-1]) > 1e-3


def test_simulate_rest_trajectory_passes(tmp_path):
    cfg = _write(tmp_path, "cfg.yaml", P2P_CONFIG)
    dt, n = 1e-3, 500
    t = np.arange(n) * dt
    positions = np.tile([0.0, 0.0, 0.4], (n, 1))
    accels = np.zeros((n, 3))
    path = str(tmp_path / "rest.csv")
    write_trajectory(path, TrajectoryFile(dt, t, positions, accels))
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--input", path, "--output", out]) == 0


def test_simulate_rejects_a_one_row_input(tmp_path, capsys):
    # np.gradient needs two samples for the tilt channel's derivatives
    cfg = _write(tmp_path, "cfg.yaml", P2P_CONFIG)
    path = str(tmp_path / "one.csv")
    write_trajectory(path, TrajectoryFile(1e-3, np.zeros(1), np.array([[0.0, 0.0, 0.4]]),
                                          np.zeros((1, 3))))
    assert main(["simulate", "--config", cfg, "--input", path,
                 "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: simulate needs at least two samples, got 1\n")


def test_simulate_rejects_an_input_shorter_than_one_step(tmp_path, capsys):
    # a 1 ms input at 1.6 ms per step has no whole step: it used to give a
    # one-row trace
    cfg = _write(tmp_path, "cfg.yaml", _config_with("numerics.sim_dt", 0.0016))
    path = str(tmp_path / "two.csv")
    write_trajectory(path, TrajectoryFile(1e-3, np.arange(2) * 1e-3, np.tile([0.0, 0.0, 0.4], (2, 1)),
                                          np.zeros((2, 3))))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--input", path, "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: motion shorter than one integration step\n"
    assert not (out / "trace.csv").exists()


def _dive(tmp_path):
    """A 0.2 s reference of a steady -15 m/s^2 dive, in tmp_path."""
    dt, n = 1e-3, 200
    t = np.arange(n) * dt
    positions = np.column_stack([np.zeros(n), np.zeros(n), 0.4 - 7.5 * t ** 2])
    accels = np.column_stack([np.zeros(n), np.zeros(n), np.full(n, -15.0)])
    path = str(tmp_path / "dive.csv")
    write_trajectory(path, TrajectoryFile(dt, t, positions, accels))
    return path


def test_simulate_free_fall_exit_code(tmp_path, capsys):
    # a compensated simulation of a steady -15 m/s^2 dive has no tilt angle
    cfg = _write(tmp_path, "cfg.yaml", P2P_CONFIG)
    path = _dive(tmp_path)
    assert main(["simulate", "--config", cfg, "--input", path,
                 "--output", str(tmp_path / "out")]) == 3
    assert "free fall" in capsys.readouterr().err


def test_simulate_contact_loss_is_a_fail_verdict(tmp_path, capsys):
    # uncompensated, the same dive takes the normal force below zero at once
    cfg = _write(tmp_path, "cfg.yaml", P2P_CONFIG.replace("tilt: compensated", "tilt: none"))
    path = _dive(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--input", path, "--output", str(out)]) == 1
    assert capsys.readouterr().out == "FAIL: contact lost at t = 0 s\n"
    assert (out / "verdict.txt").read_text() == "FAIL: contact lost at t = 0 s\n"
    assert not (out / "trace.csv").exists()


def test_simulate_contact_loss_removes_an_earlier_trace(tmp_path, capsys):
    # a PASS run leaves its trace in out/; a contact-loss FAIL in the same
    # directory writes no trace and must not leave that one beside its verdict
    cfg = _write(tmp_path, "cfg.yaml", P2P_CONFIG)
    out = str(tmp_path / "out")
    assert main(["plan", "--config", cfg, "--output", out]) == 0
    assert main(["simulate", "--config", cfg, "--input", os.path.join(out, "reference.csv"),
                 "--output", out]) == 0
    assert os.path.exists(os.path.join(out, "trace.csv"))
    cfg = _write(tmp_path, "cfg.yaml", P2P_CONFIG.replace("tilt: compensated", "tilt: none"))
    path = _dive(tmp_path)
    assert main(["simulate", "--config", cfg, "--input", path, "--output", out]) == 1
    with open(os.path.join(out, "verdict.txt")) as fh:
        assert fh.read() == "FAIL: contact lost at t = 0 s\n"
    assert not os.path.exists(os.path.join(out, "trace.csv"))


def test_simulate_beyond_the_sample_budget_exits_2(tmp_path, capsys):
    # 1e-12 s steps over the 1.659 s demo reference would be 1.66e12 steps
    cfg = _write(tmp_path, "cfg.yaml", P2P_CONFIG)
    out = str(tmp_path / "out")
    assert main(["plan", "--config", cfg, "--output", out]) == 0
    cfg = _write(tmp_path, "cfg.yaml", _config_with("numerics.sim_dt", 1e-12))
    capsys.readouterr()
    assert main(["simulate", "--config", cfg, "--input", os.path.join(out, "reference.csv"),
                 "--output", out]) == 2
    assert capsys.readouterr().err.startswith(
        "error: numerics.sim_dt: a 1.659 s input at 1e-12 s per step needs 1.66e+12 samples, "
        "beyond the budget of ")
    assert not os.path.exists(os.path.join(out, "trace.csv"))


def test_simulate_requires_accel_columns(tmp_path):
    cfg = _write(tmp_path, "cfg.yaml", P2P_CONFIG)
    path = _const_traj(tmp_path, "noacc.csv", n=200, dt=1e-3)
    assert main(["simulate", "--config", cfg, "--input", path,
                 "--output", str(tmp_path / "out")]) == 2


def test_simulate_requires_plant(tmp_path):
    cfg_text = "\n".join(line for line in P2P_CONFIG.splitlines()
                         if not line.startswith("plant")
                         and not line.startswith("  m:")
                         and not line.startswith("  M:")
                         and not line.startswith("  l:")
                         and not line.startswith("  h:")
                         and not line.startswith("  d_z:")
                         and not line.startswith("  b_lc:")
                         and not line.startswith("  b_ct:")
                         and not line.startswith("  mu:"))
    cfg = _write(tmp_path, "cfg.yaml", cfg_text)
    path = _const_traj(tmp_path, "in.csv", n=100, dt=1e-3)
    assert main(["simulate", "--config", cfg, "--input", path,
                 "--output", str(tmp_path / "out")]) == 2


# ---------------------------------------------------------------------------
# freqresp
# ---------------------------------------------------------------------------

def test_freqresp_output(tmp_path):
    omega_n = 14.0071410359145
    cfg_text = P2P_CONFIG + (f"freqresp: {{omega_max: {5 * omega_n}, points: 501}}\n")
    cfg = _write(tmp_path, "cfg.yaml", cfg_text)
    out = str(tmp_path / "out")
    assert main(["freqresp", "--config", cfg, "--output", out]) == 0
    data = np.loadtxt(os.path.join(out, "freqresp.csv"), delimiter=",", skiprows=1)
    omegas = data[:, 0]
    cascade = data[:, -1]
    assert cascade[0] == 1.0                       # DC row
    k_n = np.argmin(np.abs(omegas - omega_n))
    assert abs(omegas[k_n] - omega_n) < 1e-9
    # the damped-harmonic stage notches the damped frequency; the plant pole
    # pair sits at sigma +/- j omega_d, so on the j axis the dip is near
    # omega_d and small but not zero for delta > 0
    stage_dh = data[:, 2]
    omega_d = omega_n * math.sqrt(1 - 0.05 ** 2)
    k_d = np.argmin(np.abs(omegas - omega_d))
    assert stage_dh[k_d] < 0.05  # deep dip; the exact zero sits off-axis
    # cutoff sanity on the undamped variant: |H(0.4 omega_n)| near 1/sqrt(2)
    cfg2 = _write(tmp_path, "cfg2.yaml",
                  cfg_text.replace("delta: 0.05", "delta: 0.0"))
    out2 = str(tmp_path / "out2")
    assert main(["freqresp", "--config", cfg2, "--output", out2]) == 0
    data2 = np.loadtxt(os.path.join(out2, "freqresp.csv"), delimiter=",", skiprows=1)
    k_nn = np.argmin(np.abs(data2[:, 0] - omega_n))
    assert data2[k_nn, 2] < 1e-12                  # exact notch at omega_n
    k_c = np.argmin(np.abs(data2[:, 0] - 0.4 * omega_n))
    assert data2[k_c, 2] == pytest.approx(1 / math.sqrt(2), rel=0.10)


def test_freqresp_beyond_the_sample_budget_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.yaml", P2P_CONFIG + "freqresp: {points: 1000000000}\n")
    assert main(["freqresp", "--config", cfg, "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: freqresp.points: the frequency grid needs 1e+09 samples")


def test_plan_and_freqresp_write_the_same_freqresp(tmp_path):
    # no omega_n and no omega_max: both take the range from the kernel support
    solid = (P2P_CONFIG.replace("material: liquid", "material: solid")
             .replace("  slosh: {omega_n: 14.0071410359145, delta: 0.05}\n",
                      "  free_stage_T: 0.1\n")
             + "output: {emit_freq_response: true}\n")
    cfg = _write(tmp_path, "cfg.yaml", solid)
    outs = [str(tmp_path / "plan"), str(tmp_path / "freqresp")]
    assert main(["plan", "--config", cfg, "--output", outs[0]]) == 0
    assert main(["freqresp", "--config", cfg, "--output", outs[1]]) == 0
    blobs = [open(os.path.join(out, "freqresp.csv"), "rb").read() for out in outs]
    assert blobs[0] == blobs[1]


def test_emit_freq_response_must_be_a_bool(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.yaml",
                 P2P_CONFIG + 'output: {emit_freq_response: "no"}\n')
    out = str(tmp_path / "out")
    assert main(["plan", "--config", cfg, "--output", out]) == 2
    assert "output.emit_freq_response" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "freqresp.csv"))


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command, flag", [
    ("plan", "--dt"), ("plan", "--seed"), ("plan", "--input"),
    ("filter", "--dt"), ("filter", "--seed"), ("simulate", "--dt"),
    ("simulate", "--seed"), ("freqresp", "--dt"),
])
def test_commands_reject_flags_they_do_not_read(tmp_path, capsys, command, flag):
    argv = [command, "--config", _write(tmp_path, "cfg.yaml", P2P_CONFIG),
            "--output", str(tmp_path / "out")]
    if command in ("filter", "simulate"):
        argv += ["--input", "in.csv"]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, "4"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 4" in capsys.readouterr().err


def test_end_to_end_determinism(tmp_path):
    cfg = _write(tmp_path, "cfg.yaml", P2P_CONFIG)
    blobs = []
    for name in ("r1", "r2"):
        out = str(tmp_path / name)
        assert main(["plan", "--config", cfg, "--output", out]) == 0
        assert main(["simulate", "--config", cfg,
                     "--input", os.path.join(out, "reference.csv"),
                     "--output", out]) == 0
        blobs.append(tuple(open(os.path.join(out, f), "rb").read()
                           for f in ("plan.txt", "trajectory.csv",
                                     "reference.csv", "trace.csv", "verdict.txt")))
    assert blobs[0] == blobs[1]
