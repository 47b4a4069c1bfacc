"""Closed forms and reference writers the tests compare the package against."""

import math

import numpy as np

from traywaiter.compensation import FreeFallError
from traywaiter.dynamics import PlantParams


def planar_tilt(ax: float, az: float, g: float) -> float:
    """Planar compensation angle beta* = -atan(ax / (g + az))."""
    gz = g + az
    if gz <= 0.0:
        raise FreeFallError(f"g + az = {gz} <= 0: tilt compensation undefined")
    return -math.atan2(ax, gz) + 0.0


def linear_slosh_params(params: PlantParams) -> tuple[float, float]:
    """(omega_n, delta) of the linearized slosh oscillator."""
    if params.m <= 0.0:
        raise ValueError("linearized slosh needs m > 0")
    omega_n = math.sqrt(params.g / params.l)
    delta = params.b_lc / (2.0 * params.m * params.l * params.l * omega_n)
    return omega_n, delta


def repr_table_chunks(header: str, rows):
    """The per-float repr() table writer that fileio._table_chunks replaces:
    the header line, then 1024-row blocks of comma-separated repr() floats."""
    rows = np.asarray(rows, dtype=float)
    yield header + "\n"
    for start in range(0, len(rows), 1024):
        block = rows[start:start + 1024].tolist()
        yield "\n".join(",".join(map(repr, row)) for row in block) + "\n"
