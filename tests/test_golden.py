"""Golden outputs: SHA-256 of every file three CLI runs write.

A refactor that keeps behaviour leaves these hashes unchanged. A deliberate
numeric change records them again and says why in CHANGES.md.
"""

import hashlib
import math
import os

import pytest

from traywaiter.cli import main
from traywaiter.fileio import _BLOCK_ROWS

DEMO_CONFIG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "configs", "demo_p2p.yaml")

SOLID_SLIP_CONFIG = """
scenario:
  material: solid
  motion: point_to_point
  start: [0.0, 0.0, 0.4]
  goal: [0.72, 0.96, 0.4]
  v_max: 2.0
  a_max: 8.0
  angular_accel_cap: 150.0
mounting:
  rotation_rpy: [0.0, 0.0, 0.0]
  position: [0.0, 0.0, 0.12]
plant:
  m: 0.0
  M: 0.5
  l: 0.05
  h: 0.05
  d_z: 0.02
  b_lc: 0.0
  b_ct: 0.0
  mu: 0.4
numerics: {dt: 0.001, sim_dt: 0.0002}
sim: {tilt: none}
"""

FILTER_CONFIG = """
scenario:
  material: liquid
  motion: complex
  slosh: {omega_n: 14.0071410359145, delta: 0.05}
mounting:
  rotation_rpy: [0.1, -0.2, 0.3]
  position: [0.01, -0.02, 0.12]
numerics: {dt: 0.001, seed: 3}
noise: {amplitude: 0.0005, cutoff_hz: 5.0}
"""

# more rows than one block of the CSV writers, and not a multiple of it
FILTER_ROWS = 2500

GOLDEN = {
    "demo": {
        "freqresp.csv":
            "ed956e9c851a24d416e628956a193b3f18b86eca5725bd72aecde443080df374",
        "plan.txt":
            "d04fe31067047746c704d27885becf318d34e427a0a646b58f543ac323d04b0b",
        "reference.csv":
            "98e604ae4c35840de7428255671b4915308d648d1d859b01d25c1fc166a4d4c6",
        "trace.csv":
            "1c769013f3b062dc23fe6449e7dc4dfd70412c7507a3a6111b443ad9dac6b6dc",
        "trajectory.csv":
            "edf7c4b15bf07df1839b4106d49ec2feb99ce7ace5c6c384ca8ecbe507f224cc",
        "verdict.txt":
            "a5684008d08119af18cb58ffd1e9dbb6fb4b1b6c0ecefd38ca3ee0a3494e80e7",
    },
    "solid_slip": {
        "plan.txt":
            "ef90f3df91a6bcf3799b38bdedfc87064e83734acff46c3b16ab452e3198dd65",
        "reference.csv":
            "7997eae7e4f438774de33d918fe18e0c9c103015aea848856011a4f70fc3609b",
        "trace.csv":
            "2cadabd86ac402c4e3384c683a8ffdc0ffba31f7cd7a04758e5e8dc0d4991639",
        "trajectory.csv":
            "34425ac5e5c00d250c709adc05210a536462feeae8e2d9eff212fe3579b7c01e",
        "verdict.txt":
            "04cfc6da505c6f16dffd17ba5c122d964c6a4e80263db52f4066e55e17f35f00",
    },
    "filter": {
        "filtered.csv":
            "eb6f726efa4eb53e33998435494b8d8375d4ea02dc7d1ef6234a94c1d700d24a",
        "reference.csv":
            "6e464d49bad6a35e35690ec798089d6ef087017f5b6964b81dd1a9fb089fcf5c",
    },
}


def _hashes(outdir):
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _plan_and_simulate(cfg, outdir):
    return [main(["plan", "--config", cfg, "--output", outdir]),
            main(["simulate", "--config", cfg, "--input",
                  os.path.join(outdir, "reference.csv"), "--output", outdir])]


def _hand_trace(path):
    """A smooth 3-axis motion, written without the package's writers."""
    dt = 0.001
    with open(path, "w") as fh:
        fh.write(f"# trajectory dt={dt!r} columns=t,x,y,z\n")
        for k in range(FILTER_ROWS):
            t = k * dt
            row = (t, 0.1 * math.sin(2.0 * t), 0.05 * math.sin(3.0 * t) ** 2,
                   0.4 + 0.02 * math.cos(5.0 * t))
            fh.write(",".join(map(repr, row)) + "\n")


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_golden_output_hashes(tmp_path, run):
    outdir = str(tmp_path / "out")
    if run == "demo":
        assert _plan_and_simulate(DEMO_CONFIG, outdir) == [0, 0]
    elif run == "solid_slip":
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(SOLID_SLIP_CONFIG)
        assert _plan_and_simulate(str(cfg), outdir) == [0, 1]
    else:
        assert FILTER_ROWS > _BLOCK_ROWS
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(FILTER_CONFIG)
        trace = str(tmp_path / "hand_trace.csv")
        _hand_trace(trace)
        assert main(["filter", "--config", str(cfg), "--input", trace,
                     "--output", outdir]) == 0
    assert _hashes(outdir) == GOLDEN[run]
