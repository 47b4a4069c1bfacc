"""Tilt compensation: optimal tray orientation from linear accelerations.

Rotating the tray so that its normal stays aligned with the combined
gravity-plus-inertia vector removes the tangential force on anything resting
on it, for any friction coefficient. The rotation is applied about a
configurable center of rotation (CoR) and mapped back to the robot flange
through a constant mounting transform, and stored as a unit quaternion. The
mount is given as fixed-axis roll, pitch and yaw, R_m = Rot_z(yaw)
Rot_y(pitch) Rot_x(roll), plus the CoR's position in the flange frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FreeFallError",
    "MountingTransform",
    "flange_poses",
]


class FreeFallError(ValueError):
    """Raised when g + az <= 0: the load is in free fall and no tray
    orientation can keep it pressed against the surface. `sample` is the
    index of the offending sample when _supported raises it for a stream."""

    sample: int | None = None


def _supported(acc_z, g) -> np.ndarray:
    """g + acc_z, which tilt compensation needs positive on every sample; the
    first sample in free fall raises FreeFallError with its index in
    `sample`."""
    v = g + np.asarray(acc_z, dtype=float)
    bad = np.flatnonzero(v <= 0.0)
    if bad.size:
        k = int(bad[0])
        exc = FreeFallError(f"g + acc_z = {float(v[k])!r} <= 0 at sample {k}: "
                            "tilt compensation undefined")
        exc.sample = k
        raise exc
    return v


def _wrap_angle(phi: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    out = math.remainder(phi, 2.0 * math.pi)
    if out <= -math.pi:
        out += 2.0 * math.pi
    return out


# tilt_angles, _wrap_angle and rotation_matrix are called nowhere in the
# package and exported nowhere. Two things keep them until the benchmark
# tracer hooks flange_poses: the tracer (perfbench/tracer.py) hooks
# tilt_angles and rotation_matrix as per-sample points, and the CI
# workflow's traced teleop_filter step requires a non-null
# compensation.calls, which reads null without both hooks.

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


def rotation_matrix(beta, phi) -> np.ndarray:
    """Tray attitude Rot_z(phi) @ Rot_y(beta) @ Rot_z(-phi), or an (n, 3, 3)
    stack of them for (n,) stacks of angles: the rotation by beta about the
    horizontal axis (-sin phi, cos phi, 0), entry by entry."""
    c, s = np.cos(phi), np.sin(phi)
    cb, sb = np.cos(beta), np.sin(beta)
    vers = 1.0 - cb
    out = np.empty(np.shape(c * cb) + (3, 3))
    out[..., 0, 0] = 1.0 - vers * c * c
    out[..., 1, 1] = 1.0 - vers * s * s
    out[..., 0, 1] = out[..., 1, 0] = -vers * s * c
    out[..., 0, 2] = sb * c
    out[..., 1, 2] = sb * s
    out[..., 2, 0] = -sb * c
    out[..., 2, 1] = -sb * s
    out[..., 2, 2] = cb
    return out


@dataclass(frozen=True)
class MountingTransform:
    """Constant flange -> CoR transform T_F_CoR for one object/container:
    the fixed-axis rotation R_m = Rot_z(yaw) Rot_y(pitch) Rot_x(roll) of
    `rotation_rpy` = (roll, pitch, yaw), and the translation `position`.

    Its inverse, the flange seen from the CoR, is kept as the two terms of
    every flange pose: `flange_quaternion`, conj(q_mount) with q_mount the
    unit quaternion (w >= 0) of R_m, and `flange_offset`, c = -R_m^T p_m.
    """

    rotation_rpy: tuple = (0.0, 0.0, 0.0)
    position: tuple = (0.0, 0.0, 0.0)
    flange_quaternion: tuple = field(init=False, repr=False, compare=False)
    flange_offset: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("rotation_rpy", "position"):
            value = tuple(map(float, getattr(self, name)))
            if len(value) != 3 or not all(map(math.isfinite, value)):
                raise ValueError(f"mounting {name} must be three finite numbers, "
                                 f"got {value!r}")
            object.__setattr__(self, name, value)
        roll, pitch, yaw = self.rotation_rpy
        cr, sr = math.cos(roll), math.sin(roll)
        cp, sp = math.cos(pitch), math.sin(pitch)
        cy, sy = math.cos(yaw), math.sin(yaw)
        m00, m01, m02 = cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr
        m10, m11, m12 = sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr
        m20, m21, m22 = -sp, cp * sr, cp * cr
        # q_mount: trace > 0, else the largest diagonal entry's branch, ties to the earlier
        tr = m00 + m11 + m22
        if tr > 0.0:
            s = math.sqrt(tr + 1.0) * 2.0
            w, x, y, z = 0.25 * s, (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s
        elif m00 >= m11 and m00 >= m22:
            s = math.sqrt(1.0 + m00 - m11 - m22) * 2.0
            w, x, y, z = (m21 - m12) / s, 0.25 * s, (m01 + m10) / s, (m02 + m20) / s
        elif m11 >= m22:
            s = math.sqrt(1.0 + m11 - m00 - m22) * 2.0
            w, x, y, z = (m02 - m20) / s, (m01 + m10) / s, 0.25 * s, (m12 + m21) / s
        else:
            s = math.sqrt(1.0 + m22 - m00 - m11) * 2.0
            w, x, y, z = (m10 - m01) / s, (m02 + m20) / s, (m12 + m21) / s, 0.25 * s
        # w >= 0, then unit norm: one division by the signed norm does both
        norm = math.sqrt(w * w + x * x + y * y + z * z) * (-1.0 if w < 0.0 else 1.0)
        object.__setattr__(self, "flange_quaternion",
                           (w / norm, -(x / norm), -(y / norm), -(z / norm)))
        px, py, pz = self.position
        object.__setattr__(self, "flange_offset", tuple(
            -(a * px + b * py + c * pz)
            for a, b, c in ((m00, m10, m20), (m01, m11, m21), (m02, m12, m22))))


def compose_flange_pose(position, tray_quaternion, mount: MountingTransform):
    """Flange position and unit quaternion (w, x, y, z), w >= 0, of the pose
    T_0_F = T_0_CoR @ inv(T_F_CoR), where T_0_CoR places the CoR at
    `position` with the attitude of the unit `tray_quaternion`; or (n, 3)
    positions and (n, 4) quaternions for stacks of them.

    Elementwise: the flange quaternion is q_tray * conj(q_mount), and the
    flange position p + R_tray c with c = -R_m^T p_m, rotated as
    c + w t + u x t with t = 2 u x c for q_tray = (w, u).
    """
    w, x, y, z = np.moveaxis(np.asarray(tray_quaternion, dtype=float), -1, 0)
    px, py, pz = np.moveaxis(np.asarray(position, dtype=float), -1, 0)
    cx, cy, cz = mount.flange_offset
    tx = 2.0 * (y * cz - z * cy)
    ty = 2.0 * (z * cx - x * cz)
    tz = 2.0 * (x * cy - y * cx)
    flange_position = np.stack([px + (cx + w * tx + (y * tz - z * ty)),
                                py + (cy + w * ty + (z * tx - x * tz)),
                                pz + (cz + w * tz + (x * ty - y * tx))], axis=-1)
    mw, mx, my, mz = mount.flange_quaternion
    qw = w * mw - x * mx - y * my - z * mz
    qx = w * mx + x * mw + y * mz - z * my
    qy = w * my - x * mz + y * mw + z * mx
    qz = w * mz + x * my - y * mx + z * mw
    # w >= 0, then unit norm: one division by the signed norm does both
    norm = np.sqrt(qw * qw + qx * qx + qy * qy + qz * qz) * np.where(qw < 0.0, -1.0, 1.0)
    return flange_position, np.stack([qw / norm, qx / norm, qy / norm, qz / norm], axis=-1)


def _tilt_quaternion(accelerations, g: float) -> np.ndarray:
    """Unit quaternions (n, 4) of the tray attitudes tilt_angles and
    rotation_matrix give for (n, 3) accelerations, none in free fall.

    Rot_z(phi) Rot_y(beta) Rot_z(-phi) is the shortest-arc rotation taking
    z to (ax, ay, gz) / L, gz = g + az, L = |(ax, ay, gz)|, so its
    quaternion is (L + gz, -ay, ax, 0) normalized: only square roots, and no
    cancellation since gz > 0. Each row is first scaled by the exact power
    of two that brings its largest entry into [0.5, 1): that keeps the
    squares finite, and changes no bit of a row whose entries stay normal.
    """
    ax, ay, az = np.asarray(accelerations, dtype=float).T
    gz = g + az
    _, e = np.frexp(np.maximum(np.maximum(np.abs(ax), np.abs(ay)), gz))
    ax, ay, gz = np.ldexp(ax, -e), np.ldexp(ay, -e), np.ldexp(gz, -e)
    w = np.sqrt(ax * ax + ay * ay + gz * gz) + gz
    norm = np.sqrt(w * w + ay * ay + ax * ax)
    return np.column_stack([w / norm, -ay / norm, ax / norm, np.zeros_like(w)])


_BLOCK_SAMPLES = 1024  # samples per block in flange_poses


def flange_poses(positions, accelerations, g: float,
                 mount: MountingTransform) -> tuple[np.ndarray, np.ndarray]:
    """Flange positions (n, 3) and unit quaternions (n, 4), w >= 0, of a
    stream of samples: the tray attitude of each acceleration in closed
    form, composed with the mount by compose_flange_pose, one block of
    samples at a time. The first sample in free fall raises FreeFallError
    with its index in `sample`.
    """
    n = len(accelerations)
    accelerations = np.asarray(accelerations, dtype=float).reshape(n, 3)
    _supported(accelerations[:, 2], g)
    pos_out = np.empty((n, 3))
    quat_out = np.empty((n, 4))
    for start in range(0, n, _BLOCK_SAMPLES):
        stop = min(start + _BLOCK_SAMPLES, n)
        pos_out[start:stop], quat_out[start:stop] = compose_flange_pose(
            positions[start:stop], _tilt_quaternion(accelerations[start:stop], g), mount)
    return pos_out, quat_out
