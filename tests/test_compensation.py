import math

import numpy as np
import pytest

from traywaiter.compensation import (
    FreeFallError,
    MountingTransform,
    _wrap_angle,
    compose_flange_pose,
    rotation_matrix,
    tilt_angles,
)

from _oracles import planar_tilt

G = 9.81


def test_tilt_angles_rest():
    beta, phi = tilt_angles((0.0, 0.0, 0.0), G)
    assert beta == 0.0
    assert phi == pytest.approx(math.pi)


def test_tilt_angles_unit_ratio():
    beta, phi = tilt_angles((G, 0.0, 0.0), G)
    assert beta == pytest.approx(-math.pi / 4)
    assert phi == pytest.approx(math.pi)


def test_tilt_angles_wrapped_quadrant():
    beta, phi = tilt_angles((0.0, G, -G / 2), G)
    assert beta == pytest.approx(-math.atan(2.0))
    assert phi == pytest.approx(-math.pi / 2)  # pi + pi/2 wrapped to (-pi, pi]


def test_tilt_angles_free_fall():
    with pytest.raises(FreeFallError):
        tilt_angles((1.0, 0.0, -G), G)
    with pytest.raises(FreeFallError):
        tilt_angles((0.0, 0.0, -2 * G), G)


def test_rotation_identity_for_zero_beta():
    for phi in (0.0, 1.0, -2.5, math.pi):
        R = rotation_matrix(0.0, phi)
        assert np.abs(R - np.eye(3)).max() < 1e-12


def test_rotation_phi_zero_is_pure_y_rotation():
    beta = 0.37
    R = rotation_matrix(beta, 0.0)
    c, s = math.cos(beta), math.sin(beta)
    ref = np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])
    assert np.abs(R - ref).max() < 1e-12


def test_rotation_orthonormal():
    R = rotation_matrix(0.3, 1.2)
    assert np.abs(R @ R.T - np.eye(3)).max() < 1e-12
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_zero_lateral_acceleration_gives_identity_attitude():
    R = rotation_matrix(*tilt_angles((0.0, 0.0, 1.3), G))
    assert np.abs(R - np.eye(3)).max() < 1e-12


def test_compensation_identity():
    # rotated gravity-plus-inertia vector must be parallel to the tray normal
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.uniform((-15, -15, -5), (15, 15, 20))
        beta, phi = tilt_angles(a, G)
        R = rotation_matrix(beta, phi)
        v = np.array([a[0], a[1], a[2] + G])
        tangential = (R.T @ v)[:2]
        assert np.abs(tangential).max() < 1e-10 * np.linalg.norm(v)


def test_angular_continuity():
    # smooth acceleration stream -> rotation increments shrink with dt
    def max_increment(dt):
        t = np.arange(0.0, 1.0, dt)
        worst = 0.0
        prev = None
        for ti in t:
            a = (4 * math.sin(2 * math.pi * ti), 2 * math.cos(2 * math.pi * ti), 0.0)
            R = rotation_matrix(*tilt_angles(a, G))
            if prev is not None:
                worst = max(worst, np.abs(R - prev).max())
            prev = R
        return worst

    m1 = max_increment(2e-3)
    m2 = max_increment(1e-3)
    assert m2 <= 0.6 * m1


def test_planar_tilt_values():
    assert planar_tilt(0.0, 0.0, G) == 0.0
    assert planar_tilt(G, 0.0, G) == pytest.approx(-math.pi / 4)
    assert planar_tilt(2.0, -4.0, G) == pytest.approx(-math.atan(2.0 / 5.81))
    with pytest.raises(FreeFallError):
        planar_tilt(1.0, -G, G)


def test_planar_and_3d_agree_on_planar_inputs():
    for ax in (3.0, -3.0, 0.5, -G):
        for az in (0.0, 1.0, -2.0):
            beta2d = planar_tilt(ax, az, G)
            R2d = rotation_matrix(beta2d, math.pi)
            R3d = rotation_matrix(*tilt_angles((ax, 0.0, az), G))
            assert np.abs(R2d - R3d).max() < 1e-12


def test_compose_flange_pose_trivial():
    pose = compose_flange_pose((1.0, 2.0, 3.0), np.eye(3), MountingTransform())
    assert np.allclose(pose[:3, 3], [1.0, 2.0, 3.0])
    assert np.allclose(pose[:3, :3], np.eye(3))


def test_compose_flange_pose_pure_translation():
    mount = MountingTransform.from_parts(np.eye(3), [0.0, 0.0, 0.12])
    pose = compose_flange_pose((1.0, 0.0, 0.5), np.eye(3), mount)
    assert np.allclose(pose[:3, 3], [1.0, 0.0, 0.38])


def test_compose_flange_pose_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        beta, phi = rng.uniform(-1.2, 1.2), rng.uniform(-3.0, 3.0)
        R = rotation_matrix(beta, phi)
        p = rng.uniform(-1, 1, 3)
        mR = rotation_matrix(rng.uniform(-1, 1), rng.uniform(-3, 3))
        mount = MountingTransform.from_parts(mR, rng.uniform(-0.2, 0.2, 3))
        flange = compose_flange_pose(p, R, mount)
        cor = flange @ mount.matrix
        assert np.abs(cor[:3, :3] - R).max() < 1e-12
        assert np.abs(cor[:3, 3] - p).max() < 1e-12


def test_mounting_transform_validation():
    bad = np.eye(4)
    bad[:3, :3] *= 2.0
    with pytest.raises(ValueError):
        MountingTransform(bad)
    bad2 = np.eye(4)
    bad2[3, 0] = 0.1
    with pytest.raises(ValueError):
        MountingTransform(bad2)



@pytest.mark.parametrize("entry", [(0, 0), (1, 2), (0, 3), (2, 3)])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_mounting_transform_rejects_non_finite_entries(entry, value):
    # NaN fails no comparison of the orthonormality check, and the
    # translation column is not checked at all
    m = np.eye(4)
    m[entry] = value
    with pytest.raises(ValueError, match="^mounting transform must be finite"):
        MountingTransform(m)

def test_wrap_angle():
    assert _wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert _wrap_angle(math.pi) == pytest.approx(math.pi)
    assert _wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert _wrap_angle(0.0) == 0.0
