"""Command-line surface: plan, filter, simulate, freqresp.

Exit codes: 0 success (or PASS verdict), 1 FAIL verdict, 2 configuration or
input-format error, 3 runtime model error (e.g. free-fall acceleration).
Log level comes from the WAITER_LOG environment variable.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import math
import os
import sys

import numpy as np

from .compensation import FreeFallError, flange_poses
from .dynamics import (
    ContactLostError,
    IntegrationError,
    TrayMotion,
    fd_tilt_channel,
    simulate_coupled,
    simulate_solid_sliding,
)
from .fileio import (
    ConfigError,
    FormatError,
    PoseTrajectoryFile,
    RunConfig,
    TrajectoryFile,
    _atomic_write,
    _write_table,
    band_limited_noise,
    load_config,
    read_trajectory,
    write_pose_trajectory,
    write_sim_trace,
    write_trajectory,
)
from .planner import feasibility_report, plan, rollout_trajectory
from .smoothers import CascadeState, freq_response

log = logging.getLogger("traywaiter")

_SETTLE = 0.05  # s of tail appended after the kernel support in planned files

# Samples per array one command may allocate: far above any real run (a 30 s
# trace at 1 kHz is 3e4 samples), so that an absurd duration or sample period
# exits 2 before it asks for gigabytes.
_MAX_SAMPLES = 10_000_000


def _check_samples(samples: float, field: str, what: str) -> None:
    if samples > _MAX_SAMPLES:
        raise ValueError(f"{field}: {what} needs {samples:.3g} samples, beyond "
                         f"the budget of {_MAX_SAMPLES}")


def _ensure_outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _read_input(path: str, command: str) -> TrajectoryFile:
    """The --input trajectory. One row has no sample period: the output
    headers and the simulator's tilt derivatives need at least two."""
    traj = read_trajectory(path)
    if traj.n < 2:
        raise FormatError(f"{path}: {command} needs at least two samples, got {traj.n}")
    return traj


def _pose_rows(t, dt, positions, accelerations, g, mounting, delay=0.0):
    """Tilt-compensated flange poses for a stream of samples `dt` apart,
    their rotations as unit quaternions."""
    try:
        pos_out, quat_out = flange_poses(positions, accelerations, g, mounting)
    except FreeFallError as exc:
        raise FreeFallError(f"{exc} (at t = {t[exc.sample]!r} s)") from None
    return PoseTrajectoryFile(dt, delay, t, pos_out, quat_out)


def _write_freq_response(path: str, cfg: RunConfig, result) -> float:
    """Write the stage and cascade magnitudes of a plan up to omega_max and
    return omega_max: the configured value, else five slosh frequencies,
    else 10 pi over the kernel support."""
    _check_samples(cfg.freq_points, "freqresp.points", "the frequency grid")
    omega_max = cfg.freq_omega_max
    if omega_max is None:
        omega_n = cfg.scenario.omega_n
        omega_max = 5.0 * omega_n if omega_n else 10.0 * math.pi / result.duration
    stages = result.cascade.stages
    grid = np.linspace(0.0, omega_max, cfg.freq_points)
    cols = [grid]
    for st in stages:
        cols.append(freq_response(st, grid))
    total = np.ones_like(grid)
    for c in cols[1:]:
        total = total * c
    cols.append(total)
    names = ["omega"] + [f"stage{i}" for i in range(len(stages))] + ["cascade"]
    _write_table(path, f"# freq_response columns={','.join(names)}",
                 np.column_stack(cols))
    return omega_max


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

def cmd_plan(cfg: RunConfig, args) -> int:
    sc = cfg.scenario
    if sc.motion != "point_to_point":
        raise ConfigError("scenario.motion", "plan needs a point_to_point scenario")
    outdir = _ensure_outdir(args.output)
    dt = cfg.dt

    if np.array_equal(sc.start, sc.goal):
        t = np.array([0.0, dt])
        positions = np.vstack([sc.start, sc.start])
        accels = np.zeros((2, 3))
        pose = _pose_rows(t, dt, positions, accels, cfg.g, cfg.mounting, delay=0.0)
        write_pose_trajectory(os.path.join(outdir, "trajectory.csv"), pose)
        write_trajectory(os.path.join(outdir, "reference.csv"),
                         TrajectoryFile(dt, t, positions, accels))
        report = "plan: goal equals start; nothing to do\n"
        _atomic_write(os.path.join(outdir, "plan.txt"), [report.encode()])
        print(report.strip())
        return 0

    result = plan(sc, cfg.g)
    log.info("planned %d stages, support %g s", len(result.cascade.stages),
             result.duration)
    _check_samples((result.duration + _SETTLE) / dt, "numerics.dt",
                   f"a {result.duration!r} s plan at {dt!r} s per sample")
    t, P, _, A = rollout_trajectory(result, sc, dt, settle=_SETTLE)
    pose = _pose_rows(t, dt, P, A, cfg.g, cfg.mounting, delay=result.duration)
    write_pose_trajectory(os.path.join(outdir, "trajectory.csv"), pose)
    write_trajectory(os.path.join(outdir, "reference.csv"),
                     TrajectoryFile(dt, t, P, A))

    lines = ["plan report", "==========="]
    for i, st in enumerate(result.cascade.stages):
        lines.append(f"stage {i}: {st!r}")
    lines.append(f"distance: {result.distance!r} m")
    lines.append(f"total kernel support: {result.duration!r} s")
    lines.append(f"output continuity class: C^{result.output_class}")
    lines.append(f"jerk continuous (tilt feasible): {result.jerk_continuous}")
    for note in result.notes:
        lines.append(f"note: {note}")
    lines.append("")
    lines.append(feasibility_report(sc, cfg.plant))
    report = "\n".join(lines) + "\n"
    _atomic_write(os.path.join(outdir, "plan.txt"), [report.encode()])

    if cfg.emit_freq_response:
        _write_freq_response(os.path.join(outdir, "freqresp.csv"), cfg, result)

    print(f"plan: {len(result.cascade.stages)} stages, "
          f"support {result.duration!r} s -> {outdir}")
    return 0


# ---------------------------------------------------------------------------
# filter
# ---------------------------------------------------------------------------

def cmd_filter(cfg: RunConfig, args) -> int:
    sc = cfg.scenario
    if sc.motion != "complex":
        raise ConfigError("scenario.motion", "filter needs a complex scenario")
    traj = _read_input(args.input, "filter")

    positions = traj.positions.copy()
    if cfg.noise_amplitude > 0.0:
        try:
            positions += band_limited_noise(
                traj.n, traj.dt, cfg.noise_amplitude, cfg.noise_cutoff_hz,
                range(cfg.seed, cfg.seed + 3))
        except ValueError as exc:   # the config and the reader checked the rest
            raise ConfigError("noise.cutoff_hz", str(exc)) from None

    result = plan(sc, cfg.g)
    _check_samples(result.duration / traj.dt, "scenario",
                   f"a {result.duration!r} s kernel at the input's {traj.dt!r} s "
                   "per sample")
    log.info("filtering %d samples through %d stages", traj.n,
             len(result.cascade.stages))
    filtered = np.empty_like(positions)
    accels = np.empty_like(positions)
    for axis in range(3):
        state = CascadeState(result.cascade, traj.dt, initial_value=positions[0, axis])
        p, v, a = state.run(positions[:, axis])
        filtered[:, axis] = p
        accels[:, axis] = a
    delay = state.delay

    t_out = traj.t + delay  # output sample k reflects the input at traj.t[k]
    pose = _pose_rows(t_out, traj.dt, filtered, accels, cfg.g, cfg.mounting,
                      delay=delay)
    outdir = _ensure_outdir(args.output)
    write_pose_trajectory(os.path.join(outdir, "filtered.csv"), pose)
    write_trajectory(os.path.join(outdir, "reference.csv"),
                     TrajectoryFile(traj.dt, t_out, filtered, accels))
    print(f"filter: {traj.n} samples, end-to-end delay {delay!r} s -> {outdir}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _planar_projection(traj: TrajectoryFile):
    """Reduce a straight-line 3D reference to the planar (x, z) model."""
    if traj.accelerations is None:
        raise FormatError("simulation input needs acceleration columns "
                          "(7-column trajectory file)")
    disp = traj.positions[-1] - traj.positions[0]
    horiz = np.array([disp[0], disp[1], 0.0])
    norm = np.linalg.norm(horiz)
    u = horiz / norm if norm > 1e-12 else np.array([1.0, 0.0, 0.0])
    acc_h = traj.accelerations[:, :2]
    # elementwise, not a BLAS product, whose rounding depends on the CPU
    acc_par = acc_h[:, 0] * u[0] + acc_h[:, 1] * u[1]
    residual = acc_h - acc_par[:, None] * u[None, :2]
    scale = max(1.0, np.abs(traj.accelerations).max())
    if np.abs(residual).max() > 1e-9 * scale:
        raise FormatError("horizontal motion is not along a fixed direction; "
                          "the planar simulator cannot represent it")
    return acc_par, traj.accelerations[:, 2]


def cmd_simulate(cfg: RunConfig, args) -> int:
    if cfg.plant is None:
        raise ConfigError("plant", "simulation needs a plant block")
    traj = _read_input(args.input, "simulate")
    acc_x, acc_z = _planar_projection(traj)
    p = cfg.plant

    if cfg.tilt_mode == "compensated":
        beta, beta_dot, beta_ddot = fd_tilt_channel(acc_x, acc_z, traj.dt, cfg.g)
    else:
        beta = beta_dot = beta_ddot = np.zeros(traj.n)
    motion = TrayMotion.from_channels(traj.dt, acc_x, acc_z,
                                      beta, beta_dot, beta_ddot)
    dt = cfg.sim_dt
    _check_samples(motion.duration / dt, "numerics.sim_dt",
                   f"a {motion.duration!r} s input at {dt!r} s per step")

    outdir = _ensure_outdir(args.output)
    try:
        if cfg.scenario.material == "solid":
            trace = simulate_solid_sliding(p, motion, dt=dt)
        else:
            trace = simulate_coupled(p, motion, dt=dt)
    except (ContactLostError, IntegrationError) as exc:
        verdict = f"FAIL: {exc}"
        # no trace of this run: one left by an earlier run would belie the verdict
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(outdir, "trace.csv"))
    else:
        write_sim_trace(os.path.join(outdir, "trace.csv"), trace, dt)
        failures = []
        if cfg.scenario.material == "liquid" and trace.max_abs_theta > cfg.max_theta:
            failures.append(f"max|theta| = {trace.max_abs_theta!r} rad "
                            f"> {cfg.max_theta!r}")
        if abs(trace.net_slip) > cfg.max_slip:
            failures.append(f"|slip| = {abs(trace.net_slip)!r} m > {cfg.max_slip!r}")
        verdict = ("FAIL: " + "; ".join(failures) if failures else
                   f"PASS: max|theta| = {trace.max_abs_theta!r} rad, "
                   f"slip = {trace.net_slip!r} m, "
                   f"transitions = {len(trace.transitions)}")
    _atomic_write(os.path.join(outdir, "verdict.txt"), [(verdict + "\n").encode()])
    print(verdict)
    return 1 if verdict.startswith("FAIL") else 0


# ---------------------------------------------------------------------------
# freqresp
# ---------------------------------------------------------------------------

def cmd_freqresp(cfg: RunConfig, args) -> int:
    sc = cfg.scenario
    result = plan(sc, cfg.g)
    outdir = _ensure_outdir(args.output)
    omega_max = _write_freq_response(os.path.join(outdir, "freqresp.csv"), cfg, result)
    print(f"freqresp: {cfg.freq_points} points up to {omega_max!r} rad/s -> {outdir}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="traywaiter",
        description="Slosh-free, slip-free reference trajectories for "
                    "tray-carried transport, with a physics validator.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (("plan", cmd_plan), ("filter", cmd_filter),
                       ("simulate", cmd_simulate), ("freqresp", cmd_freqresp)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--output", default=".", help="output directory")
        if name in ("filter", "simulate"):
            p.add_argument("--input", required=True, help="input trajectory file")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    level = getattr(logging, os.environ.get("WAITER_LOG", "WARNING").upper(),
                    logging.WARNING)
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.func(cfg, args)
    except FreeFallError as exc:
        print(f"error: free fall: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
