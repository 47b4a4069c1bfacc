"""Metamorphic relations of the CLI path: plan then simulate on a move that
is shifted, turned or mirrored in the plane.

The planar stick/slip and slosh physics sees only the move's distance and
its profile along the path. On the demo's move along +x, a shift of both
ends, a turn to +y and a mirror to -x must write the golden trace.csv and
verdict.txt bytes. At an arbitrary heading the bytes may differ in the
last bits, so a move there must keep its verdict class, its max|theta| to
1e-15 rad and its net slip to 1e-6 relative, as the benchmark harness
checks the slip.
"""

import math
import os

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from traywaiter.fileio import read_sim_trace

from test_golden import DEMO_CONFIG, GOLDEN, SOLID_SLIP_CONFIG, _hashes, _plan_and_simulate


def _run(cfg: dict, workdir, codes: list) -> str:
    """Plan and simulate `cfg` in `workdir`, which must exit with `codes`;
    returns the output directory."""
    path = os.path.join(workdir, "cfg.yaml")
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)
    outdir = os.path.join(workdir, "out")
    assert _plan_and_simulate(path, outdir) == codes
    return outdir


def _demo() -> dict:
    with open(DEMO_CONFIG) as fh:
        return yaml.safe_load(fh)


@pytest.mark.parametrize("start, goal", [
    ([0.25, -0.125, 0.4], [0.85, -0.125, 0.4]),     # both ends shifted
    ([0.0, 0.0, 0.4], [0.0, 0.6, 0.4]),             # turned to +y
    ([0.0, 0.0, 0.4], [-0.6, 0.0, 0.4]),            # mirrored to -x
], ids=["shifted", "turned-to-y", "mirrored-to-minus-x"])
def test_demo_move_moved_in_the_plane_writes_the_golden_trace(tmp_path, start, goal):
    cfg = _demo()
    cfg["scenario"]["start"], cfg["scenario"]["goal"] = start, goal
    hashes = _hashes(_run(cfg, str(tmp_path), [0, 0]))
    for name in ("trace.csv", "verdict.txt"):
        assert hashes[name] == GOLDEN["demo"][name], name


def _outcome(cfg: dict, workdir, codes: list):
    """The verdict class (the text before its first '='), max|theta| and the
    net slip |d_x[-1] - d_x[0]| of one run."""
    outdir = _run(cfg, workdir, codes)
    with open(os.path.join(outdir, "verdict.txt")) as fh:
        verdict = fh.read()
    trace = read_sim_trace(os.path.join(outdir, "trace.csv"))
    return (verdict.split("=", 1)[0], float(np.abs(trace.theta).max()),
            abs(float(trace.d_x[-1] - trace.d_x[0])))


# each golden move: its config, its exit codes and its verdict class
MOVES = {"demo": (_demo, [0, 0], "PASS: max|theta| "),
         "solid_slip": (lambda: yaml.safe_load(SOLID_SLIP_CONFIG), [0, 1], "FAIL: |slip| ")}


@pytest.fixture(scope="module")
def golden_outcomes(tmp_path_factory):
    return {name: _outcome(config(), tmp_path_factory.mktemp(name), codes)
            for name, (config, codes, _) in MOVES.items()}


@pytest.mark.parametrize("move", MOVES)
@settings(deadline=None, max_examples=12)
@given(heading=st.floats(-math.pi, math.pi))
@example(heading=0.65)
@example(heading=0.0)
@example(heading=2.5)
def test_a_move_at_another_heading_keeps_its_verdict_tilt_and_slip(tmp_path_factory,
                                                                   golden_outcomes, move,
                                                                   heading):
    config, codes, golden_class = MOVES[move]
    cfg = config()
    start = cfg["scenario"]["start"]
    distance = math.dist(start, cfg["scenario"]["goal"])
    cfg["scenario"]["goal"] = [start[0] + distance * math.cos(heading),
                               start[1] + distance * math.sin(heading), start[2]]
    verdict_class, theta, slip = _outcome(cfg, tmp_path_factory.mktemp(move), codes)
    golden_theta, golden_slip = golden_outcomes[move][1:]
    assert golden_outcomes[move][0] == verdict_class == golden_class
    assert abs(theta - golden_theta) <= 1e-15
    assert abs(slip - golden_slip) <= 1e-6 * golden_slip
