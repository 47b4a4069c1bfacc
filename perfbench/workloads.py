"""The benchmark's workloads: inputs made from a seed, the CLI calls of one
pipeline iteration, and the checks every iteration's outputs must pass.

The program only ever sees the generated files; the seed stays here.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np
import yaml

from traywaiter.fileio import read_pose_trajectory, read_sim_trace, read_trajectory

# Net slip of the solid_slip move, recorded at the commit that added this
# benchmark. The planar physics does not depend on the move's heading
# (checked at several headings to 1e-16), so one value serves every seed.
SOLID_NET_SLIP = 0.017694791954464276
SLIP_REL_TOL = 1e-6

# Rows each workload writes; like the slip, they do not depend on the seed.
EXPECTED_ROWS = {
    "liquid_p2p": {"trajectory.csv": 1660, "reference.csv": 1660, "trace.csv": 8296},
    "solid_slip": {"trajectory.csv": 1073, "reference.csv": 1073, "trace.csv": 5361},
    "teleop_filter": {"filtered.csv": 30001, "reference.csv": 30001},
}

TELEOP_SECONDS = 30.0
TELEOP_DT = 1e-3


@dataclass
class Prepared:
    """One workload made ready to run in `outdir`."""

    commands: list            # CLI argument lists, run in order
    outdir: str
    check: Callable           # exit codes -> list of problems found


def _write_config(path: str, cfg: dict) -> str:
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)
    return path


def _heading_goal(start, distance: float, rng: random.Random) -> list:
    heading = rng.uniform(-math.pi, math.pi)
    return [start[0] + distance * math.cos(heading),
            start[1] + distance * math.sin(heading), start[2]]


def _row_problems(workload: str, files: dict) -> list:
    return [f"{name}: {files[name]} rows, expected {rows}"
            for name, rows in EXPECTED_ROWS[workload].items()
            if files.get(name) != rows]


def _p2p_commands(cfg_path: str, outdir: str) -> list:
    return [["plan", "--config", cfg_path, "--output", outdir],
            ["simulate", "--config", cfg_path, "--input",
             os.path.join(outdir, "reference.csv"), "--output", outdir]]


def _read_p2p(outdir: str):
    pose = read_pose_trajectory(os.path.join(outdir, "trajectory.csv"))
    ref = read_trajectory(os.path.join(outdir, "reference.csv"))
    trace = read_sim_trace(os.path.join(outdir, "trace.csv"))
    with open(os.path.join(outdir, "verdict.txt")) as fh:
        verdict = fh.read()
    rows = {"trajectory.csv": pose.n, "reference.csv": ref.n,
            "trace.csv": trace.t.size}
    return trace, verdict, rows


def liquid_p2p(root: str, work: str, seed: int) -> Prepared:
    """configs/demo_p2p.yaml with the goal's heading rotated by the seed."""
    with open(os.path.join(root, "configs", "demo_p2p.yaml")) as fh:
        cfg = yaml.safe_load(fh)
    sc = cfg["scenario"]
    start = sc["start"]
    distance = math.dist(start, sc["goal"])
    sc["goal"] = _heading_goal(start, distance, random.Random(seed))
    cfg_path = _write_config(os.path.join(work, "liquid_p2p.yaml"), cfg)
    outdir = os.path.join(work, "out")

    def check(codes):
        if codes != [0, 0]:
            return [f"exit codes {codes}, expected [0, 0]"]
        trace, verdict, rows = _read_p2p(outdir)
        problems = _row_problems("liquid_p2p", rows)
        if not verdict.startswith("PASS"):
            problems.append(f"verdict {verdict.strip()!r}, expected PASS")
        theta = float(np.abs(trace.theta).max())
        if not theta < 1e-6:
            problems.append(f"max|theta| = {theta!r} rad, expected < 1e-6")
        if trace.d_x[-1] - trace.d_x[0] != 0.0:
            problems.append("container slipped, expected zero slip")
        return problems

    return Prepared(_p2p_commands(cfg_path, outdir), outdir, check)


def solid_slip(root: str, work: str, seed: int) -> Prepared:
    """A 1.2 m solid move without tilt, fast enough to slip; seeded heading."""
    start = [0.0, 0.0, 0.4]
    cfg = {
        "scenario": {"material": "solid", "motion": "point_to_point",
                     "start": start,
                     "goal": _heading_goal(start, 1.2, random.Random(seed)),
                     "v_max": 2.0, "a_max": 8.0, "angular_accel_cap": 150.0},
        "mounting": {"rotation_rpy": [0.0, 0.0, 0.0], "position": [0.0, 0.0, 0.12]},
        "plant": {"m": 0.0, "M": 0.5, "l": 0.05, "h": 0.05, "d_z": 0.02,
                  "b_lc": 0.0, "b_ct": 0.0, "mu": 0.4, "g": 9.81},
        "numerics": {"dt": 0.001, "sim_dt": 0.0002},
        "sim": {"tilt": "none"},
    }
    cfg_path = _write_config(os.path.join(work, "solid_slip.yaml"), cfg)
    outdir = os.path.join(work, "out")

    def check(codes):
        if codes != [0, 1]:
            return [f"exit codes {codes}, expected [0, 1]"]
        trace, verdict, rows = _read_p2p(outdir)
        problems = _row_problems("solid_slip", rows)
        if not (verdict.startswith("FAIL") and "slip" in verdict):
            problems.append(f"verdict {verdict.strip()!r}, expected a slip FAIL")
        slip = abs(float(trace.d_x[-1] - trace.d_x[0]))
        if not abs(slip - SOLID_NET_SLIP) <= SLIP_REL_TOL * SOLID_NET_SLIP:
            problems.append(f"|net slip| = {slip!r} m, expected {SOLID_NET_SLIP!r}")
        if not np.any(np.diff(trace.mode.astype(int)) == 1):
            problems.append("no stick->slip transition in trace.csv")
        return problems

    return Prepared(_p2p_commands(cfg_path, outdir), outdir, check)


def hand_trace(seed: int) -> np.ndarray:
    """(t, x, y, z) rows of a hand-guided motion: quintic blends between
    random waypoints in a 30 cm box, 0.8 s to 1.6 s apart."""
    rng = random.Random(seed)
    n = int(round(TELEOP_SECONDS / TELEOP_DT)) + 1
    center = np.array([0.0, 0.0, 0.4])
    pos = np.empty((n, 3))
    here = center.copy()
    k0 = 0
    while k0 < n:
        steps = int(round(rng.uniform(0.8, 1.6) / TELEOP_DT))
        there = center + np.array([rng.uniform(-0.15, 0.15) for _ in range(3)])
        k = np.arange(k0, min(k0 + steps, n))
        tau = (k - k0) / steps
        s = tau ** 3 * (10.0 - 15.0 * tau + 6.0 * tau ** 2)
        pos[k] = here + s[:, None] * (there - here)
        here = there
        k0 += steps
    return np.column_stack([np.arange(n) * TELEOP_DT, pos])


def teleop_filter(root: str, work: str, seed: int) -> Prepared:
    """A seeded hand trace through the complex-liquid filter with noise on."""
    input_path = os.path.join(work, "hand_trace.csv")
    with open(input_path, "w") as fh:
        fh.write(f"# trajectory dt={TELEOP_DT!r} columns=t,x,y,z\n")
        fh.writelines(",".join(map(repr, row)) + "\n"
                      for row in hand_trace(seed).tolist())
    cfg = {
        "scenario": {"material": "liquid", "motion": "complex",
                     "slosh": {"omega_n": 14.0071410359145, "delta": 0.05}},
        "mounting": {"rotation_rpy": [0.0, 0.0, 0.0], "position": [0.0, 0.0, 0.12]},
        "numerics": {"dt": TELEOP_DT, "seed": seed % 2 ** 31},
        "noise": {"amplitude": 0.0005, "cutoff_hz": 5.0},
    }
    cfg_path = _write_config(os.path.join(work, "teleop_filter.yaml"), cfg)
    outdir = os.path.join(work, "out")

    def check(codes):
        if codes != [0]:
            return [f"exit codes {codes}, expected [0]"]
        pose = read_pose_trajectory(os.path.join(outdir, "filtered.csv"))
        ref = read_trajectory(os.path.join(outdir, "reference.csv"))
        return _row_problems("teleop_filter",
                             {"filtered.csv": pose.n, "reference.csv": ref.n})

    commands = [["filter", "--config", cfg_path, "--input", input_path,
                 "--output", outdir]]
    return Prepared(commands, outdir, check)


WORKLOADS = {"liquid_p2p": liquid_p2p, "solid_slip": solid_slip,
             "teleop_filter": teleop_filter}
