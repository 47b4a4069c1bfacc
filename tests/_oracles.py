"""Scalar closed forms the tests compare the package against."""

import math

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
