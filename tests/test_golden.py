"""Golden outputs: SHA-256 of every file four CLI runs write.

A refactor that keeps behaviour leaves these hashes unchanged. A deliberate
numeric change records them again and says why in CHANGES.md. The same
hashes hold whichever kernels OpenBLAS picks for the CPU.
"""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import traywaiter
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

# the demo's liquid on a tray that does not tilt, with too little friction
# to hold it: the container slides, with the pendulum coupled in
SLIP_COUPLED_CONFIG = """
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
  mu: 0.1
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

# the Trapezoidal-only cascade of a solid complex scenario, on the same trace
FILTER_SOLID_CONFIG = FILTER_CONFIG.replace("material: liquid", "material: solid")

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
            "6b7d7aad6131af5392403f78918c092ca2bbc5f0c63e75dd2f2e82c3c1bc2a2f",
        "verdict.txt":
            "a5684008d08119af18cb58ffd1e9dbb6fb4b1b6c0ecefd38ca3ee0a3494e80e7",
    },
    "solid_slip": {
        "plan.txt":
            "ef90f3df91a6bcf3799b38bdedfc87064e83734acff46c3b16ab452e3198dd65",
        "reference.csv":
            "7997eae7e4f438774de33d918fe18e0c9c103015aea848856011a4f70fc3609b",
        "trace.csv":
            "bf738b922f67da06adfb78f0ae921ff8855b350b8aa4f1579e52c71941a86cd9",
        "trajectory.csv":
            "1c4eb0f50bdbe2808b4746fd39d080767ed017b680086709043882f79f1a45fb",
        "verdict.txt":
            "0a8b7c1834fd691afdedeb5b30959bb4d149f960105e0511f6a8fdee041b3d06",
    },
    "slip_coupled": {
        "plan.txt":
            "b468457a1d24552e9dfa0238ac8202e7c1bc9c07f897d6dc708e4f96d5e33fb4",
        "reference.csv":
            "98e604ae4c35840de7428255671b4915308d648d1d859b01d25c1fc166a4d4c6",
        "trace.csv":
            "a5acc09d5425a9b878d53b08f9c20b2e752f09faf6a769589dc62d3c2faed27b",
        "trajectory.csv":
            "6b7d7aad6131af5392403f78918c092ca2bbc5f0c63e75dd2f2e82c3c1bc2a2f",
        "verdict.txt":
            "248f388a25c996ee576b16aa8ca6559c8ac847b035fb6950ac2e1a56650c8751",
    },
    "filter": {
        "filtered.csv":
            "71cc22f91a69327a6b9513f8ad249eee93774d104f867006d82ea29efd54a55f",
        "reference.csv":
            "43bdcb0717c2c7f189b1a7723e44ad01afd8e076d4578a6c988203e2c1dc12ee",
    },
    "filter_solid": {
        "filtered.csv":
            "eb5ebe39fe521ac60abfec8597a48d982c46a2260d23a3960a469bf6c971eeda",
        "reference.csv":
            "1d6b92d270e50a22dc6cdf8f8a26ba2b2e2ec5758dd90ccc5e2845ad0c973746",
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


def _run_case(run, workdir):
    """Run one golden case in `workdir` and return the hashes it wrote."""
    os.makedirs(workdir, exist_ok=True)
    outdir = os.path.join(workdir, "out")
    if run == "demo":
        assert _plan_and_simulate(DEMO_CONFIG, outdir) == [0, 0]
    elif run in ("solid_slip", "slip_coupled"):
        cfg = os.path.join(workdir, "cfg.yaml")
        with open(cfg, "w") as fh:
            fh.write(SOLID_SLIP_CONFIG if run == "solid_slip" else SLIP_COUPLED_CONFIG)
        assert _plan_and_simulate(cfg, outdir) == [0, 1]
    else:
        assert FILTER_ROWS > _BLOCK_ROWS
        cfg = os.path.join(workdir, "cfg.yaml")
        with open(cfg, "w") as fh:
            fh.write(FILTER_CONFIG if run == "filter" else FILTER_SOLID_CONFIG)
        trace = os.path.join(workdir, "hand_trace.csv")
        _hand_trace(trace)
        assert main(["filter", "--config", cfg, "--input", trace,
                     "--output", outdir]) == 0
    return _hashes(outdir)


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_golden_output_hashes(tmp_path, run):
    assert _run_case(run, str(tmp_path)) == GOLDEN[run]


# Every golden case in a fresh interpreter, each in its own directory under
# argv[1]; prints the hashes as JSON.
_SUBPROCESS_RUN = """
import json, os, sys
import test_golden
print(json.dumps({run: test_golden._run_case(run, os.path.join(sys.argv[1], run))
                  for run in sorted(test_golden.GOLDEN)}))
"""


def _blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        return "unknown"


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_golden_output_hashes_under_other_blas_kernels(tmp_path, coretype):
    # OpenBLAS picks its kernels by the CPU, and OPENBLAS_CORETYPE picks them
    # as another CPU would: no output may depend on that choice
    if "openblas" not in _blas_name().lower():
        pytest.skip(f"numpy's BLAS is {_blas_name()}, not OpenBLAS")
    tests = os.path.dirname(os.path.abspath(__file__))
    package = os.path.dirname(os.path.dirname(os.path.abspath(traywaiter.__file__)))
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, PYTHONPATH=os.pathsep.join(
        [tests, package] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", _SUBPROCESS_RUN, str(tmp_path)],
                          env=env, cwd=str(tmp_path), capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == GOLDEN
