"""Tilt compensation: optimal tray orientation from linear accelerations.

Rotating the tray so that its normal stays aligned with the combined
gravity-plus-inertia vector removes the tangential force on anything resting
on it, for any friction coefficient. The rotation is applied about a
configurable center of rotation (CoR) and mapped back to the robot flange
through a constant mounting transform, and stored as a unit quaternion.
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
    "rotation_to_quaternion",
    "quaternion_to_rotation",
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


def _rot_z(a) -> np.ndarray:
    """Rot_z(a), or an (n, 3, 3) stack of them for an (n,) stack of angles."""
    c, s = np.cos(a), np.sin(a)
    out = np.zeros(np.shape(a) + (3, 3))
    out[..., 0, 0] = out[..., 1, 1] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 2, 2] = 1.0
    return out


def _rot_y(a) -> np.ndarray:
    """Rot_y(a), or an (n, 3, 3) stack of them for an (n,) stack of angles."""
    c, s = np.cos(a), np.sin(a)
    out = np.zeros(np.shape(a) + (3, 3))
    out[..., 0, 0] = out[..., 2, 2] = c
    out[..., 0, 2] = s
    out[..., 2, 0] = -s
    out[..., 1, 1] = 1.0
    return out


def rotation_matrix(beta, phi) -> np.ndarray:
    """Tray attitude Rot_z(phi) @ Rot_y(beta) @ Rot_z(-phi), or an (n, 3, 3)
    stack of them for (n,) stacks of angles."""
    return _rot_z(phi) @ _rot_y(beta) @ _rot_z(-phi)


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
        if not np.isfinite(m).all():
            raise ValueError(f"mounting transform must be finite, got {m.tolist()!r}")
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


def compose_flange_pose(position, rotation, mount: MountingTransform) -> np.ndarray:
    """Flange pose T_0_F = T_0_CoR @ inv(T_F_CoR), or an (n, 4, 4) stack of
    them for (n, 3) positions and (n, 3, 3) rotations.

    The CoR point itself follows `position` exactly; the flange is offset by
    the constant mounting transform.
    """
    rotation = np.asarray(rotation, dtype=float)
    T = np.zeros(rotation.shape[:-2] + (4, 4))
    T[..., :3, :3] = rotation
    T[..., :3, 3] = position
    T[..., 3, 3] = 1.0
    return T @ mount.inverse()


def rotation_to_quaternion(R: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z), w >= 0, of a rotation matrix, or an
    (n, 4) stack of them for an (n, 3, 3) stack of matrices.

    A matrix with positive trace uses the trace branch; any other uses the
    branch of its largest diagonal entry, ties going to the earlier one.
    """
    R = np.asarray(R, dtype=float)
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = R.reshape(-1, 9).T
    tr = m00 + m11 + m22
    with np.errstate(invalid="ignore", divide="ignore"):  # branches not taken
        s0 = np.sqrt(tr + 1.0) * 2.0
        s1 = np.sqrt(1.0 + m00 - m11 - m22) * 2.0
        s2 = np.sqrt(1.0 + m11 - m00 - m22) * 2.0
        s3 = np.sqrt(1.0 + m22 - m00 - m11) * 2.0
        branches = (
            (0.25 * s0, (m21 - m12) / s0, (m02 - m20) / s0, (m10 - m01) / s0),
            ((m21 - m12) / s1, 0.25 * s1, (m01 + m10) / s1, (m02 + m20) / s1),
            ((m02 - m20) / s2, (m01 + m10) / s2, 0.25 * s2, (m12 + m21) / s2),
            ((m10 - m01) / s3, (m02 + m20) / s3, (m12 + m21) / s3, 0.25 * s3),
        )
    taken = [tr > 0.0, (m00 >= m11) & (m00 >= m22), m11 >= m22,
             np.full(tr.shape, True)]
    q = np.column_stack([np.select(taken, [b[i] for b in branches])
                         for i in range(4)])
    flip = q[:, 0] < 0.0
    q[flip] = -q[flip]
    # the row-wise dot is the one np.linalg.norm(q) takes for a single q
    q /= np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0]
    return q.reshape(R.shape[:-2] + (4,))


def quaternion_to_rotation(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a quaternion (w, x, y, z), or an (n, 3, 3) stack
    of them for an (n, 4) stack of quaternions."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    n = w * w + x * x + y * y + z * z
    s = 2.0 / n
    R = np.stack([
        1 - s * (y * y + z * z), s * (x * y - z * w), s * (x * z + y * w),
        s * (x * y + z * w), 1 - s * (x * x + z * z), s * (y * z - x * w),
        s * (x * z - y * w), s * (y * z + x * w), 1 - s * (x * x + y * y),
    ], axis=-1)
    return R.reshape(w.shape + (3, 3))


_BLOCK_SAMPLES = 1024  # samples per block in flange_poses


def flange_poses(positions, accelerations, g: float,
                 mount: MountingTransform) -> tuple[np.ndarray, np.ndarray]:
    """Flange positions (n, 3) and unit quaternions (n, 4) of a stream of
    samples, the quaternions as rotation_to_quaternion gives them.

    Bit for bit the same as tilt_angles -> rotation_matrix ->
    compose_flange_pose on each sample: the libm calls of tilt_angles and
    _wrap_angle are mapped over a block of samples, and rotation_matrix and
    compose_flange_pose take the block as stacks. A sample in free fall
    raises FreeFallError with its index in `sample`.
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
    quat_out = np.empty((n, 4))
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
        flange = compose_flange_pose(positions[start:stop], rotation_matrix(beta, phi), mount)
        pos_out[start:stop] = flange[:, :3, 3]
        quat_out[start:stop] = rotation_to_quaternion(flange[:, :3, :3])
    return pos_out, quat_out
