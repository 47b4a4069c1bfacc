"""Tilt compensation: optimal tray orientation from linear accelerations.

Rotating the tray so that its normal stays aligned with the combined
gravity-plus-inertia vector removes the tangential force on anything resting
on it, for any friction coefficient. The rotation is applied about a
configurable center of rotation (CoR) and mapped back to the robot flange
through a constant mounting transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FreeFallError",
    "MountingTransform",
    "tilt_angles",
    "flange_poses",
]


class FreeFallError(ValueError):
    """Raised when g + az <= 0: the load is in free fall and no tray
    orientation can keep it pressed against the surface. `sample` is the
    index of the offending sample when flange_poses raises it."""

    sample: int | None = None


def _wrap_angle(phi: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    out = math.remainder(phi, 2.0 * math.pi)
    if out <= -math.pi:
        out += 2.0 * math.pi
    return out


def tilt_angles(accel, g: float) -> tuple[float, float]:
    """Compensation angles (beta, phi) for a filtered acceleration sample.

    beta = -atan(sqrt(ax^2 + ay^2) / (g + az)), phi = pi + atan2(ay, ax),
    with phi wrapped to (-pi, pi]. With zero lateral acceleration beta is 0
    and phi is reported as pi by convention (it is not meaningful there; the
    conjugation in rotation_matrix makes the attitude the identity anyway).
    """
    ax, ay, az = map(float, accel)
    gz = g + az
    if gz <= 0.0:
        raise FreeFallError(f"g + az = {gz} <= 0: tilt compensation undefined")
    rho = math.hypot(ax, ay)
    beta = -math.atan2(rho, gz) + 0.0
    phi = _wrap_angle(math.pi + math.atan2(ay, ax))
    return beta, phi


# Scalar pose chain: oracle of flange_poses in the tests, hooked by perfbench/tracer.py.
def _rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_matrix(beta: float, phi: float) -> np.ndarray:
    """Tray attitude Rot_z(phi) @ Rot_y(beta) @ Rot_z(-phi)."""
    return _rot_z(phi) @ _rot_y(beta) @ _rot_z(-phi)


_BLOCK_SAMPLES = 1024  # samples per block in flange_poses


def _rot_z_stack(a: np.ndarray) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    out = np.zeros((a.size, 3, 3))
    out[:, 0, 0] = out[:, 1, 1] = c
    out[:, 0, 1] = -s
    out[:, 1, 0] = s
    out[:, 2, 2] = 1.0
    return out


def _rot_y_stack(a: np.ndarray) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    out = np.zeros((a.size, 3, 3))
    out[:, 0, 0] = out[:, 2, 2] = c
    out[:, 0, 2] = s
    out[:, 2, 0] = -s
    out[:, 1, 1] = 1.0
    return out


def _check_rotation(R: np.ndarray, tol: float = 1e-9) -> None:
    if np.abs(R @ R.T - np.eye(3)).max() > tol or abs(np.linalg.det(R) - 1.0) > tol:
        raise ValueError("rotation block is not orthonormal with det +1")


@dataclass(frozen=True)
class MountingTransform:
    """Constant flange -> CoR transform for one object/container."""

    matrix: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"mounting transform must be 4x4, got {m.shape}")
        if not np.allclose(m[3], [0.0, 0.0, 0.0, 1.0], atol=1e-12):
            raise ValueError("last row of a homogeneous transform must be [0 0 0 1]")
        _check_rotation(m[:3, :3])
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_parts(cls, rotation, translation) -> "MountingTransform":
        m = np.eye(4)
        m[:3, :3] = np.asarray(rotation, dtype=float)
        m[:3, 3] = np.asarray(translation, dtype=float)
        return cls(m)

    def inverse(self) -> np.ndarray:
        R = self.matrix[:3, :3]
        p = self.matrix[:3, 3]
        out = np.eye(4)
        out[:3, :3] = R.T
        out[:3, 3] = -R.T @ p
        return out


def compose_flange_pose(position, rotation: np.ndarray,
                        mount: MountingTransform) -> np.ndarray:
    """Flange pose T_0_F = T_0_CoR @ inv(T_F_CoR).

    The CoR point itself follows `position` exactly; the flange is offset by
    the constant mounting transform.
    """
    T = np.eye(4)
    T[:3, :3] = rotation
    T[:3, 3] = np.asarray(position, dtype=float)
    return T @ mount.inverse()


def flange_poses(positions, accelerations, g: float,
                 mount: MountingTransform) -> tuple[np.ndarray, np.ndarray]:
    """Flange positions (n, 3) and rotations (n, 3, 3) of a stream of samples.

    Bit for bit the same as tilt_angles -> rotation_matrix ->
    compose_flange_pose on each sample: the libm calls of tilt_angles and
    _wrap_angle are mapped over a block of samples, and the matrices built
    and multiplied as stacks. A sample in free fall raises FreeFallError with
    its index in `sample`.
    """
    n = len(accelerations)
    accelerations = np.asarray(accelerations, dtype=float).reshape(n, 3)
    gz = g + accelerations[:, 2]
    for k in np.flatnonzero(gz <= 0.0)[:1].tolist():  # the first in free fall
        try:
            tilt_angles(accelerations[k], g)  # raises
        except FreeFallError as exc:
            exc.sample = k
            raise
    pos_out = np.empty((n, 3))
    rot_out = np.empty((n, 3, 3))
    inverse = mount.inverse()
    for start in range(0, n, _BLOCK_SAMPLES):
        stop = min(start + _BLOCK_SAMPLES, n)
        ax, ay = accelerations[start:stop, :2].T.tolist()
        # libm through math, as in tilt_angles: numpy's SIMD arctan2 and
        # hypot can differ from it in the last bit
        rho = map(math.hypot, ax, ay)
        beta = -np.array(list(map(math.atan2, rho, gz[start:stop].tolist()))) + 0.0
        shifted = (math.pi + np.array(list(map(math.atan2, ay, ax)))).tolist()
        phi = np.array(list(map(math.remainder, shifted, [2.0 * math.pi] * len(ax))))
        phi[phi <= -math.pi] += 2.0 * math.pi
        T = np.zeros((stop - start, 4, 4))
        T[:, :3, :3] = _rot_z_stack(phi) @ _rot_y_stack(beta) @ _rot_z_stack(-phi)
        T[:, :3, 3] = positions[start:stop]
        T[:, 3, 3] = 1.0
        flange = T @ inverse
        pos_out[start:stop] = flange[:, :3, 3]
        rot_out[start:stop] = flange[:, :3, :3]
    return pos_out, rot_out
