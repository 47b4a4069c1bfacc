"""Property tests: the batched pose path and the streamed CSV writer give
exactly the bits of the per-sample code they replace."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from traywaiter import compensation, fileio
from traywaiter.compensation import (
    FreeFallError,
    MountingTransform,
    compose_flange_pose,
    flange_poses,
    rotation_matrix,
    tilt_angles,
)
from traywaiter.fileio import quaternion_to_rotation, rotation_to_quaternion

G = 9.81
BLOCK = fileio._BLOCK_ROWS
POSE_BLOCK = compensation._BLOCK_SAMPLES

lateral = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(-30.0, 30.0, allow_subnormal=False))
accels = st.tuples(lateral, lateral, st.floats(-9.0, 30.0))
unit_quaternions = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda q: sum(v * v for v in q) > 1e-3).map(
    lambda q: np.array(q) / math.sqrt(sum(v * v for v in q)))
mounts = st.one_of(
    st.just(MountingTransform()),
    st.tuples(unit_quaternions, st.tuples(*[st.floats(-0.5, 0.5)] * 3)).map(
        lambda qp: MountingTransform.from_parts(quaternion_to_rotation(qp[0]), qp[1])))


def _scalar_poses(positions, accelerations, g, mount):
    flanges = [compose_flange_pose(p, rotation_matrix(*tilt_angles(a, g)), mount)
               for p, a in zip(positions, accelerations)]
    return (np.array([f[:3, 3] for f in flanges]),
            np.array([f[:3, :3] for f in flanges]))


def _scalar_quaternion(R):
    """The per-matrix formulas rotation_to_quaternion applies to each matrix."""
    m00, m01, m02 = R[0]
    m10, m11, m12 = R[1]
    m20, m21, m22 = R[2]
    tr = m00 + m11 + m22
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s, (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s])
    elif m00 >= m11 and m00 >= m22:
        s = math.sqrt(1.0 + m00 - m11 - m22) * 2.0
        q = np.array([(m21 - m12) / s, 0.25 * s, (m01 + m10) / s, (m02 + m20) / s])
    elif m11 >= m22:
        s = math.sqrt(1.0 + m11 - m00 - m22) * 2.0
        q = np.array([(m02 - m20) / s, (m01 + m10) / s, 0.25 * s, (m12 + m21) / s])
    else:
        s = math.sqrt(1.0 + m22 - m00 - m11) * 2.0
        q = np.array([(m10 - m01) / s, (m02 + m20) / s, (m12 + m21) / s, 0.25 * s])
    if q[0] < 0.0:
        q = -q
    return q / np.linalg.norm(q)


def _per_row_text(header, rows):
    body = "\n".join(",".join(repr(float(v)) for v in row) for row in rows)
    return (header + "\n" + body + "\n").encode()


# ---------------------------------------------------------------------------
# flange poses
# ---------------------------------------------------------------------------

@settings(deadline=None)
@given(st.lists(st.tuples(accels, st.tuples(*[st.floats(-2.0, 2.0)] * 3)),
                min_size=1, max_size=40),
       mounts)
@example([((0.0, 0.0, 0.0), (0.1, 0.2, 0.3)), ((-0.0, 0.0, 1.3), (0.0, 0.0, 0.0))],
         MountingTransform.from_parts(rotation_matrix(0.4, -2.0), (0.01, 0.0, 0.12)))
def test_flange_poses_match_scalar_chain(samples, mount):
    accelerations = np.array([a for a, _ in samples])
    positions = np.array([p for _, p in samples])
    pos, rot = flange_poses(positions, accelerations, G, mount)
    pos_ref, rot_ref = _scalar_poses(positions, accelerations, G, mount)
    assert np.array_equal(pos, pos_ref)
    assert np.array_equal(rot, rot_ref)


def test_flange_poses_match_scalar_chain_across_blocks():
    n = 2 * POSE_BLOCK + 5
    rng = np.random.default_rng(4)
    accelerations = rng.uniform(-20.0, 20.0, (n, 3))
    accelerations[:, 2] = rng.uniform(-9.0, 20.0, n)
    accelerations[::7, :2] = 0.0  # zero lateral acceleration: phi = pi
    positions = rng.uniform(-1.0, 1.0, (n, 3))
    mount = MountingTransform.from_parts(rotation_matrix(0.3, 1.1), (0.0, 0.02, 0.12))
    pos, rot = flange_poses(positions, accelerations, G, mount)
    pos_ref, rot_ref = _scalar_poses(positions, accelerations, G, mount)
    assert np.array_equal(pos, pos_ref)
    assert np.array_equal(rot, rot_ref)


@pytest.mark.parametrize("bad", [0, 5, POSE_BLOCK + 7])
def test_flange_poses_free_fall_names_first_sample(bad):
    n = POSE_BLOCK + 20
    accelerations = np.zeros((n, 3))
    accelerations[bad, 2] = -G
    accelerations[bad + 3, 2] = -2 * G
    with pytest.raises(FreeFallError) as info:
        flange_poses(np.zeros((n, 3)), accelerations, G, MountingTransform())
    assert info.value.sample == bad
    with pytest.raises(FreeFallError) as scalar:
        tilt_angles(accelerations[bad], G)
    assert str(info.value) == str(scalar.value)


# ---------------------------------------------------------------------------
# quaternions
# ---------------------------------------------------------------------------

def _branch(R):
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0.0:
        return 0
    if R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        return 1
    return 2 if R[1, 1] >= R[2, 2] else 3


# a half turn for each branch past the first, and a rotation whose trace is
# exactly 0: it takes branch 1, where the trace branch would give other bits
BRANCH_CASES = [np.eye(3), np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]),
                np.diag([-1.0, -1.0, 1.0]),
                quaternion_to_rotation(np.array([0.5, -0.7, -0.46, 0.22]))]


def test_quaternion_branches_match_scalar():
    assert [_branch(R) for R in BRANCH_CASES] == [0, 1, 2, 3, 1]
    assert np.trace(BRANCH_CASES[-1]) == 0.0
    batched = rotation_to_quaternion(np.array(BRANCH_CASES))
    for R, q in zip(BRANCH_CASES, batched):
        assert np.array_equal(q, _scalar_quaternion(R))


@settings(deadline=None)
@given(st.lists(unit_quaternions, min_size=1, max_size=30))
def test_batched_quaternions_match_scalar(quaternions):
    rotations = quaternion_to_rotation(np.array(quaternions))
    batched = rotation_to_quaternion(rotations)
    assert batched.shape == (len(quaternions), 4)
    for R, q in zip(rotations, batched):
        assert np.array_equal(q, _scalar_quaternion(R))
        assert np.array_equal(rotation_to_quaternion(R), q)


def test_random_rotations_reach_every_branch():
    rng = np.random.default_rng(8)
    q = rng.normal(size=(4000, 4))
    rotations = quaternion_to_rotation(q / np.linalg.norm(q, axis=1)[:, None])
    assert {_branch(R) for R in rotations} == {0, 1, 2, 3}
    batched = rotation_to_quaternion(rotations)
    for R, q_row in zip(rotations, batched):
        assert np.array_equal(q_row, _scalar_quaternion(R))


# ---------------------------------------------------------------------------
# streamed table writer
# ---------------------------------------------------------------------------

SPECIAL = [0.0, -0.0, 5e-324, -2.2250738585072e-308, 1e300, -1e300, 1.0, 0.1]


@settings(deadline=None)
@given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=3, max_size=3), min_size=1, max_size=20))
@example([SPECIAL[:3]])
@example([SPECIAL[3:6], SPECIAL[5:]])
def test_streamed_table_matches_per_row_repr(tmp_path_factory, rows):
    path = str(tmp_path_factory.mktemp("table") / "t.csv")
    fileio._write_table(path, "# table columns=a,b,c", np.array(rows))
    with open(path, "rb") as fh:
        assert fh.read() == _per_row_text("# table columns=a,b,c", rows)


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_streamed_table_row_counts_around_block(tmp_path, n):
    rng = np.random.default_rng(n)
    rows = rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-320, 300, (n, 4))
    rows[rng.integers(0, n, 3), rng.integers(0, 4, 3)] = SPECIAL[1]
    path = str(tmp_path / "t.csv")
    fileio._write_table(path, "# table columns=a,b,c,d", rows)
    with open(path, "rb") as fh:
        assert fh.read() == _per_row_text("# table columns=a,b,c,d", rows)
