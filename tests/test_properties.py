"""Property tests: the batched pose path gives exactly the bits of the
closed form it evaluates and keeps near the matrix chain it replaced; the
mount's quaternion and offset are the bits of the matrix route; the
streamed CSV writer, with its rows laid out compiled or in Python, and the
flattened smoother cascade, with its oscillator recurrence compiled or in
Python, give exactly the bits of the code they replace;
smoother step responses keep unit DC gain, stay in range and respect the
trapezoid's kinematic limits; stick and slip agree where they meet; the
contact model's stick test and slide give exactly the bits of the reference
formulas, and the RK4 sub-step in either mode the bits of the generic RK4
step over them; the compiled step loop, sticking and sliding, commits
exactly the bits of the Python sub-step."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from traywaiter import _native, compensation, dynamics, fileio, smoothers
from traywaiter.compensation import (
    FreeFallError,
    MountingTransform,
    compose_flange_pose,
    flange_poses,
    rotation_matrix,
)
from traywaiter.dynamics import (
    SLIP,
    STICK,
    _V_EPS,
    ContactLostError,
    IntegrationError,
    PlantParams,
    TrayMotion,
    _TraySim,
    _contact,
    _input_terms,
)
from traywaiter.smoothers import (
    CascadeState,
    DampedHarmonic,
    Trapezoidal,
    make_trapezoidal_params,
)

from _oracles import (
    LIBRARY_PATHS,
    _rpy_matrix,
    _slip_eval,
    _stick_eval,
    _stick_rates,
    desk_params,
    generic_slip_step,
    generic_stick_step,
    matrix_route_mount,
    oscillator_path,
    per_sample_stages,
    writer_path,
    closed_form_poses,
    repr_table_chunks,
    scalar_poses,
    scalar_rotation_matrix,
)

G = 9.81
BLOCK = fileio._BLOCK_ROWS
POSE_BLOCK = compensation._BLOCK_SAMPLES

# tiny and subnormal lateral accelerations, mixed with signed zeros, reach
# the corners of hypot and atan2
lateral = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(-30.0, 30.0),
                    st.floats(-1e-300, 1e-300))
accels = st.tuples(lateral, lateral, st.floats(-9.0, 30.0))
unit_quaternions = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda q: sum(v * v for v in q) > 1e-3).map(
    lambda q: np.array(q) / math.sqrt(sum(v * v for v in q)))
rpys = st.tuples(*[st.floats(-math.pi, math.pi)] * 3)
mount_positions = st.tuples(*[st.floats(-0.5, 0.5)] * 3)
mounts = st.one_of(st.just(MountingTransform()),
                   st.builds(MountingTransform, rpys, mount_positions))


# ---------------------------------------------------------------------------
# flange poses
# ---------------------------------------------------------------------------

# the closed form against the matrix chain through the angles: both round
# each sample's pose to within a few ulp of the exact one, so 2e-15 holds for
# positions and unit quaternions of magnitude below 3 (measured: 6.7e-16 on
# 200k random samples and three mounts)
CHAIN_BOUND = 2e-15


def assert_near_matrix_chain(pos, quat, pos_ref, quat_ref):
    # a quaternion with w near 0 may come out with either sign
    assert np.abs(pos - pos_ref).max() < CHAIN_BOUND
    err = np.abs(quat - quat_ref).max(axis=1)
    either = np.abs(quat_ref[:, 0]) < 1e-12
    err[either] = np.minimum(err[either], np.abs(quat + quat_ref).max(axis=1)[either])
    assert err.max() < CHAIN_BOUND


@settings(deadline=None)
@given(st.lists(st.tuples(accels, st.tuples(*[st.floats(-2.0, 2.0)] * 3)),
                min_size=1, max_size=40),
       mounts)
@example([((0.0, 0.0, 0.0), (0.1, 0.2, 0.3)), ((-0.0, 0.0, 1.3), (0.0, 0.0, 0.0))],
         MountingTransform((0.4, -0.3, -2.0), (0.01, 0.0, 0.12)))
def test_flange_poses_match_closed_form(samples, mount):
    accelerations = np.array([a for a, _ in samples])
    positions = np.array([p for _, p in samples])
    pos, quat = flange_poses(positions, accelerations, G, mount)
    pos_ref, quat_ref = closed_form_poses(positions, accelerations, G, mount)
    assert np.array_equal(pos, pos_ref)
    assert np.array_equal(quat, quat_ref)
    assert_near_matrix_chain(pos, quat, *scalar_poses(positions, accelerations, G, mount))


def test_flange_poses_match_closed_form_across_blocks():
    n = 2 * POSE_BLOCK + 5
    rng = np.random.default_rng(4)
    accelerations = rng.uniform(-20.0, 20.0, (n, 3))
    accelerations[:, 2] = rng.uniform(-9.0, 20.0, n)
    accelerations[::7, :2] = 0.0  # zero lateral acceleration: phi = pi
    positions = rng.uniform(-1.0, 1.0, (n, 3))
    mount = MountingTransform((0.3, 0.2, 1.1), (0.0, 0.02, 0.12))
    pos, quat = flange_poses(positions, accelerations, G, mount)
    pos_ref, quat_ref = closed_form_poses(positions, accelerations, G, mount)
    assert np.array_equal(pos, pos_ref)
    assert np.array_equal(quat, quat_ref)
    assert_near_matrix_chain(pos, quat, *scalar_poses(positions, accelerations, G, mount))


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_flange_poses_of_extreme_accelerations_are_finite_unit_quaternions(scale):
    # the squares of 1e300 overflow and those of 1e-300 underflow; an exact
    # power-of-two scaling of each row keeps both out of the closed form
    accelerations = np.array([[scale, -scale, scale], [scale, 0.0, -0.5 * scale]])
    g = scale
    positions = np.zeros((2, 3))
    mount = MountingTransform((0.3, 0.2, 1.1), (0.0, 0.02, 0.12))
    pos, quat = flange_poses(positions, accelerations, g, mount)
    assert np.isfinite(pos).all() and np.isfinite(quat).all()
    assert np.abs(np.sum(quat * quat, axis=1) - 1.0).max() < 1e-15
    pos_ref, quat_ref = closed_form_poses(positions, accelerations, g, mount)
    assert np.array_equal(pos, pos_ref)
    assert np.array_equal(quat, quat_ref)
    assert_near_matrix_chain(pos, quat, *scalar_poses(positions, accelerations, g, mount))


@settings(deadline=None)
@given(st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0), unit_quaternions,
                          st.tuples(*[st.floats(-2.0, 2.0)] * 3)),
                min_size=1, max_size=40),
       mounts)
def test_stacked_pose_functions_match_one_sample(samples, mount):
    # rotation_matrix and compose_flange_pose on stacks give each sample the
    # bits of a one-sample call; rotation_matrix keeps to the matrix product
    beta, phi, quaternions, positions = (np.array(column) for column in zip(*samples))
    rotations = rotation_matrix(beta, phi)
    flange_positions, flange_quaternions = compose_flange_pose(positions, quaternions, mount)
    assert rotations.shape == (len(samples), 3, 3)
    assert flange_positions.shape == (len(samples), 3)
    assert flange_quaternions.shape == (len(samples), 4)
    for b, f, q, p, R, fp, fq in zip(beta.tolist(), phi.tolist(), quaternions, positions,
                                     rotations, flange_positions, flange_quaternions):
        assert np.array_equal(R, rotation_matrix(b, f))
        assert np.abs(R - scalar_rotation_matrix(b, f)).max() < CHAIN_BOUND
        one_position, one_quaternion = compose_flange_pose(p, q, mount)
        assert np.array_equal(fp, one_position)
        assert np.array_equal(fq, one_quaternion)


# the wording of the one free-fall check, for a sample where g + az is 0.0
FREE_FALL_AT = "g + acc_z = 0.0 <= 0 at sample {}: tilt compensation undefined"


@pytest.mark.parametrize("bad", [0, 5, POSE_BLOCK + 7])
def test_flange_poses_free_fall_names_first_sample(bad):
    n = POSE_BLOCK + 20
    accelerations = np.zeros((n, 3))
    accelerations[bad, 2] = -G
    accelerations[bad + 3, 2] = -2 * G
    with pytest.raises(FreeFallError) as info:
        flange_poses(np.zeros((n, 3)), accelerations, G, MountingTransform())
    assert info.value.sample == bad
    assert str(info.value) == FREE_FALL_AT.format(bad)


@settings(deadline=None)
@given(st.lists(accels, min_size=1, max_size=40), st.data())
def test_flange_poses_free_fall_in_a_later_block_names_its_sample(samples, data):
    accelerations = np.zeros((POSE_BLOCK + len(samples), 3))
    accelerations[POSE_BLOCK:] = samples
    bad = POSE_BLOCK + data.draw(st.integers(0, len(samples) - 1))
    accelerations[bad, 2] = -G  # g + az is exactly 0
    with pytest.raises(FreeFallError) as info:
        flange_poses(np.zeros_like(accelerations), accelerations, G, MountingTransform())
    assert info.value.sample == bad
    assert str(info.value) == FREE_FALL_AT.format(bad)


# ---------------------------------------------------------------------------
# the mount
# ---------------------------------------------------------------------------

def _branch(R):
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0.0:
        return 0
    if R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        return 1
    return 2 if R[1, 1] >= R[2, 2] else 3


# the identity, and a half turn about x, y and z: one rpy for each branch of
# the quaternion formula
BRANCH_RPYS = [(0.0, 0.0, 0.0), (math.pi, 0.0, 0.0), (0.0, math.pi, 0.0),
               (0.0, 0.0, math.pi)]


def test_branch_rpys_reach_every_branch():
    assert [_branch(_rpy_matrix(rpy)) for rpy in BRANCH_RPYS] == [0, 1, 2, 3]


@settings(deadline=None)
@given(rpys, mount_positions)
@example(BRANCH_RPYS[0], (0.0, 0.0, 0.12))
@example(BRANCH_RPYS[1], (0.1, 0.2, 0.3))
@example(BRANCH_RPYS[2], (-0.5, 0.5, 0.0))
@example(BRANCH_RPYS[3], (0.01, -0.02, 0.12))
@example((0.1, -0.2, 0.3), (0.0, 0.0, 0.12))  # the golden filter case's mount
def test_mount_matches_matrix_route(rpy, position):
    # the floats MountingTransform computes from its rpy and position are
    # the bits of the 4x4 matrix route it replaced
    mount = MountingTransform(rpy, position)
    quaternion, offset = matrix_route_mount(mount)
    assert np.array(mount.flange_quaternion).tobytes() == np.array(quaternion).tobytes()
    assert np.array(mount.flange_offset).tobytes() == np.array(offset).tobytes()


# ---------------------------------------------------------------------------
# streamed table writer
# ---------------------------------------------------------------------------

def _per_repr_text(header, rows):
    return "".join(repr_table_chunks(header, rows)).encode()


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
        assert fh.read() == _per_repr_text("# table columns=a,b,c", rows)


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_streamed_table_row_counts_around_block(tmp_path, n):
    rng = np.random.default_rng(n)
    rows = rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-320, 300, (n, 4))
    rows[rng.integers(0, n, 3), rng.integers(0, 4, 3)] = SPECIAL[1]
    path = str(tmp_path / "t.csv")
    fileio._write_table(path, "# table columns=a,b,c,d", rows)
    with open(path, "rb") as fh:
        assert fh.read() == _per_repr_text("# table columns=a,b,c,d", rows)


# repr() and Ryu's fixed-point text part at 1e-4 and 1e16, and their exponent
# spellings (1e-09 against 1e-9) from 1e-9 on: these values sit on either side
# of the three bounds, and the ranges around them; subnormals lie below 1e-9
TEXT_BOUNDS = [b * s for b in (1e-9, 1e-4, 1e16) for s in (1.0, -1.0)]
SUBNORMAL_MAX = np.nextafter(2.2250738585072014e-308, 0.0)
ODD_FLOATS = st.one_of(
    st.sampled_from([v for b in TEXT_BOUNDS for v in
                     (b, np.nextafter(b, 0.0), np.nextafter(b, 2.0 * b))]
                    + [0.0, -0.0, 5e-324, -5e-324, 1.5e-320, SUBNORMAL_MAX,
                       -SUBNORMAL_MAX, math.nan, math.inf, -math.inf]),
    st.floats(1e-10, 1e-8), st.floats(-1e-8, -1e-10),
    st.floats(1e-5, 1e-4), st.floats(-1e-4, -1e-5),
    st.floats(1e16, 1e17), st.floats(-1e17, -1e16))


@settings(deadline=None)
@given(st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 1023, 1024, 1025]),
       st.integers(1, 17), st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.integers(0), ODD_FLOATS), max_size=30),
       st.sampled_from("CF"))
@example(1, 2, 0, [(0, 5e-5), (1, 3e16)], "C")
@example(1, 4, 0, [(0, 1e-9), (1, np.nextafter(1e-9, 1.0)), (2, -SUBNORMAL_MAX),
                   (3, np.nextafter(1e-9, 0.0))], "C")
def test_table_chunks_match_per_float_repr(n_rows, n_cols, seed, planted, order):
    # arbitrary float64 bit patterns: NaN payloads, infinities, subnormals
    bits = np.random.default_rng(seed).integers(0, 2**64, (n_rows, n_cols),
                                                dtype=np.uint64)
    flat = bits.view(np.float64).reshape(-1)
    for index, value in planted:
        if flat.size:
            flat[index % flat.size] = value
    rows = np.asarray(flat.reshape(n_rows, n_cols), order=order)
    assert b"".join(fileio._table_chunks("# t", rows)) == _per_repr_text("# t", rows)


def _neighbours(x):
    return [np.nextafter(x, 0.0), x, np.nextafter(x, 2.0 * x)]


# every bound where orjson's notation and repr()'s part, from both sides, and
# 1-digit and 17-digit values in each range whose notation is fixed
NOTATION_EDGES = ([s * v for s in (1.0, -1.0) for b in (1e-9, 1e-5, 1e-4, 1e16)
                   for v in _neighbours(b)]
                  + [s * v for s in (1.0, -1.0) for v in
                     (3e-9, 1.2345678901234567e-08, 7e-6, 3.3333333333333333e-06,
                      2e-5, 1.2345678901234568e-05, 8e16, 3.3333333333333336e+16,
                      1.7976931348623157e+308)]
                  + [-0.0, 5e-324, math.nan, math.inf, -math.inf])


def test_table_chunks_match_per_float_repr_at_notation_edges():
    rows = np.array(NOTATION_EDGES + [0.0] * (-len(NOTATION_EDGES) % 5)).reshape(-1, 5)
    assert b"".join(fileio._table_chunks("# t", rows)) == _per_repr_text("# t", rows)


# the values whose text the writer fixes or writes itself, with their
# neighbours: NaN, the infinities, the notation bounds, zeros and subnormals
WRITER_EDGES = np.array(
    [s * v for s in (1.0, -1.0) for b in (1e-9, 1e-5, 1e-4, 1e16) for v in _neighbours(b)]
    + [s * v for s in (1.0, -1.0) for v in (0.0, 5e-324, SUBNORMAL_MAX, math.inf)]
    + [math.nan, -math.nan])


@pytest.mark.parametrize("path", LIBRARY_PATHS)
@settings(deadline=None, max_examples=60)
@given(st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]),
       st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@example(2, 8, 0, 1.0)
def test_both_row_writers_match_per_row_repr(path, n_rows, n_cols, seed, share):
    # random magnitudes across the whole float range, and a drawn share of
    # the table taken from the edges; the compiled path must have laid out
    # every block, the Python path none
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n_rows, n_cols)) * 10.0 ** rng.integers(-320, 300,
                                                                    (n_rows, n_cols))
    edges = rng.random((n_rows, n_cols)) < share
    rows[edges] = rng.choice(WRITER_EDGES, int(edges.sum()))
    with writer_path(path) as calls:
        text = b"".join(fileio._table_chunks("# t", rows))
    assert text == b"# t\n" + b"".join((",".join(map(repr, row)) + "\n").encode()
                                      for row in rows.tolist())
    assert calls is None or calls == [rows[k:k + BLOCK].size
                                      for k in range(0, n_rows, BLOCK)]


# ---------------------------------------------------------------------------
# smoother cascade
# ---------------------------------------------------------------------------

class _ReferenceSmootherState:
    """The one-kind streaming realization that CascadeState now flattens,
    kept verbatim (apart from its name and the per-sample stages of
    _oracles it is built from) as a reference."""

    def __init__(self, kind, sample_period: float,
                 initial_value: float | None = None):
        if not (sample_period > 0.0 and math.isfinite(sample_period)):
            raise ValueError(f"sample_period must be positive, got {sample_period}")
        self.kind = kind
        self.sample_period = sample_period
        self._stages = per_sample_stages(kind, sample_period)
        self._primed = False
        if initial_value is not None:
            self.reset(initial_value)

    @property
    def delay(self) -> float:
        """Total group delay after quantization to the sample grid."""
        return sum(st.t_span for st in self._stages)

    def reset(self, value: float = 0.0, vel: float = 0.0, acc: float = 0.0) -> None:
        for st in self._stages:
            st.prime(value, vel, acc)
        self._primed = True

    def step(self, u: float, u_dot: float = 0.0, u_ddot: float = 0.0):
        if not self._primed:
            self.reset(u, u_dot, u_ddot)
        p, v, a = u, u_dot, u_ddot
        for st in self._stages:
            p, v, a = st.step(p, v, a)
        return p, v, a


class _ReferenceCascadeState:
    """The serial composition of one-kind states that CascadeState replaced,
    kept verbatim (apart from its name) as a reference."""

    def __init__(self, spec, sample_period: float, initial_value: float | None = None):
        stages = spec.stages if isinstance(spec, smoothers.CascadeSpec) else tuple(spec)
        if len(stages) == 0:
            raise ValueError("cascade must contain at least one stage")
        self.spec = spec if isinstance(spec, smoothers.CascadeSpec) \
            else smoothers.CascadeSpec(stages)
        self.sample_period = sample_period
        self._states = [_ReferenceSmootherState(k, sample_period) for k in stages]
        if initial_value is not None:
            self.reset(initial_value)

    @property
    def delay(self) -> float:
        return sum(s.delay for s in self._states)

    def reset(self, value: float = 0.0) -> None:
        for s in self._states:
            s.reset(value)

    def step(self, u: float, u_dot: float = 0.0, u_ddot: float = 0.0):
        p, v, a = u, u_dot, u_ddot
        for s in self._states:
            p, v, a = s.step(p, v, a)
        return p, v, a


spans = st.floats(1e-3, 0.05)
kinds = st.one_of(st.builds(DampedHarmonic, st.just(0.0), spans),
                  st.builds(Trapezoidal, spans, spans),
                  st.builds(DampedHarmonic, st.floats(-30.0, 10.0), spans))
periods = st.floats(2e-4, 4e-3)
signal = st.floats(-10.0, 10.0)


@settings(deadline=None)
@given(st.lists(kinds, min_size=1, max_size=4), periods, signal,
       st.lists(st.tuples(signal, signal, signal), min_size=1, max_size=60),
       st.booleans())
# a start where a kind's first output differs from its input in the last
# bits, and one where a derivative input reaches a second stage of the kind
@example([DampedHarmonic(0.0, 0.02), Trapezoidal(0.01, 0.005)], 1e-3, 0.3,
         [(0.3, 0.0, 0.0), (0.8, 0.0, 0.0), (0.05, 0.0, 0.0)], False)
@example([Trapezoidal(0.01, 0.005), Trapezoidal(0.004, 0.002)], 1e-3, 1.3,
         [(1.3, 0.7, -2.0), (0.4, 0.1, 0.2)], True)
def test_cascade_state_matches_nested_reference(cascade, dt, initial, samples,
                                                with_derivatives):
    # the reference takes input derivatives when with_derivatives is drawn;
    # the flat state takes none, and no output of a primed cascade reads them
    pairs = [(_ReferenceCascadeState(cascade, dt, initial_value=initial),
              CascadeState(cascade, dt, initial_value=initial))]
    if len(cascade) == 1:
        pairs.append((_ReferenceSmootherState(cascade[0], dt, initial_value=initial),
                      CascadeState(cascade[0], dt, initial_value=initial)))
    for ref, flat in pairs:
        assert flat.delay == ref.delay
    for u, v, a in samples:
        if not with_derivatives:
            v = a = 0.0
        for ref, flat in pairs:
            assert flat.step(u) == ref.step(u, v, a)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


# long inputs for the spans of 85 and 600 samples, and one of 4500 samples
_LONG = [tuple(r) for r in np.random.default_rng(11).uniform(-10.0, 10.0, (1500, 3))]
_LONGER = _LONG * 3


def _same(x, y):
    """The same bits, where any NaN matches any NaN."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return np.array_equal(np.where(np.isnan(x), np.nan, x).view(np.int64),
                          np.where(np.isnan(y), np.nan, y).view(np.int64))


def _hit(value):
    """_LONG[:300] with `value` as the input of its 101st sample."""
    return _LONG[:100] + [(value, 0.0, 0.0)] + _LONG[101:300]


@pytest.mark.parametrize("path", LIBRARY_PATHS)
@settings(deadline=None)
@given(st.lists(kinds, min_size=1, max_size=4), periods, signal,
       st.lists(st.tuples(signal, signal, signal), max_size=120),
       st.lists(st.floats(0.0, 1.0), max_size=8),
       st.booleans())
@example([Trapezoidal(0.007, 0.003)], 1e-3, _LONG[0][0], _LONG[:40],
         [0.05, 0.05, 0.1, 0.5], True)
@example([Trapezoidal(0.085, 0.6)], 1e-3, _LONG[0][0], _LONG,
         [0.0, 0.002, 0.03, 0.5, 0.52], True)
@example([Trapezoidal(0.6, 0.085), DampedHarmonic(0.0, 0.085)], 1e-3, 0.4, _LONG,
         [0.3, 0.3, 0.7], False)
@example([DampedHarmonic(-4.0, 0.085), Trapezoidal(0.007, 0.003)], 1e-3, _LONG[0][0],
         _LONGER, [0.001, 0.95], True)
# infinite and NaN forcing, and an input whose forcing and state overflow
@example([DampedHarmonic(-4.0, 0.085)], 1e-3, 0.5, _hit(math.inf), [0.2, 0.5], False)
@example([DampedHarmonic(0.0, 0.085)], 1e-3, 0.5, _hit(-math.inf), [0.7], False)
@example([DampedHarmonic(2.0, 0.05)], 1e-3, 0.5, _hit(math.nan), [0.4], False)
@example([Trapezoidal(0.007, 0.003), DampedHarmonic(-1.0, 0.02)], 1e-3, 0.5,
         _hit(1e308), [0.33], False)
def test_cascade_block_run_matches_stream(path, cascade, dt, initial, samples, cuts,
                                          with_derivatives):
    # successive run() calls over chunks of the series (empty ones and ones
    # shorter than a stage's span among them) give the bits of step() on
    # every sample, and leave the state where step() would; input
    # derivatives, when drawn, go to the reference only. The oscillator
    # recurrence runs on `path`, and the compiled loop must have run.
    u, v, a = np.array(samples, dtype=float).reshape(-1, 3).T
    if not with_derivatives:
        v = a = np.zeros_like(u)
    # the examples beyond the drawn range warn in numpy, as they should
    quiet = {} if (np.abs(u) <= 10.0).all() else {"all": "ignore"}
    with oscillator_path(path) as calls, np.errstate(**quiet):
        ref = _ReferenceCascadeState(cascade, dt, initial_value=initial)
        stream = CascadeState(cascade, dt, initial_value=initial)
        block = CascadeState(cascade, dt, initial_value=initial)
        expected = []
        for k in range(u.size):
            out = stream.step(u[k])
            assert _same(out, ref.step(u[k], v[k], a[k]))
            expected.append(out)
        expected = np.array(expected).reshape(-1, 3)
        bounds = [0, *sorted(int(c * u.size) for c in cuts), u.size]
        got = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            out = block.run(u[lo:hi])
            assert all(c.shape == (hi - lo,) for c in out)
            got.append(np.column_stack(out))
        assert np.array_equal(_bits(np.concatenate(got)), _bits(expected))
        last = [s.step(0.7) for s in (block, stream)]
        assert _bits(last[0]).tolist() == _bits(last[1]).tolist()
        assert _same(last[1], ref.step(0.7, 0.1, -0.2))
    if calls is not None and any(isinstance(k, DampedHarmonic) for k in cascade):
        assert calls


def _step_response(cascade, dt, h, tail=5):
    state = CascadeState(cascade, dt, initial_value=0.0)
    n = int(round(state.delay / dt)) + tail
    return state, state.run(np.full(n, h))


@settings(deadline=None)
@given(st.lists(kinds, min_size=1, max_size=3), periods,
       st.one_of(st.floats(-10.0, -1e-6), st.floats(1e-6, 10.0)))
def test_cascade_unit_dc_gain(cascade, dt, c):
    # |c| stays far above the subnormals, where relative precision is lost
    state = CascadeState(cascade, dt, initial_value=c)
    p, v, a = state.run(np.full(40, c))
    assert np.abs(p - c).max() <= 1e-12 * abs(c)
    _, (p, _, _) = _step_response(cascade, dt, c)
    assert abs(p[-1] - c) <= 1e-12 * abs(c)


@settings(deadline=None)
@given(st.lists(kinds, min_size=1, max_size=3), periods, st.floats(1e-3, 1e3))
def test_step_response_in_range_and_settled_after_delay(cascade, dt, h):
    state, (p, _, _) = _step_response(cascade, dt, h)
    assert p.min() >= -1e-12 * h
    assert p.max() <= h * (1.0 + 1e-12)
    k_settled = int(round(state.delay / dt))   # first output after the support
    assert np.abs(p[k_settled:] - h).max() <= 1e-12 * h


@settings(deadline=None)
@given(st.floats(1e-2, 2.0), st.floats(0.5, 5.0), st.floats(1.0, 50.0),
       st.floats(5e-4, 4e-3))
def test_trapezoidal_meets_velocity_and_acceleration_limits(h, v_max, a_max, dt):
    # supports up to 4 s, at most 8000 samples per stage
    t1, t2 = make_trapezoidal_params(h, v_max, a_max)
    _, (p, v, a) = _step_response([Trapezoidal(t1, t2)], dt, h)
    assert np.abs(v).max() <= v_max * (1.0 + 1e-12)
    assert np.abs(a).max() <= a_max * (1.0 + 1e-12)
    assert p[-1] == pytest.approx(h, rel=1e-12)


# ---------------------------------------------------------------------------
# contact model
# ---------------------------------------------------------------------------

def _plants(m, mu=st.just(0.0)):
    b_lc = st.just(0.0) if m == 0.0 else st.floats(0.0, 1e-2)
    return st.builds(PlantParams, m=st.just(m), M=st.floats(0.1, 5.0),
                     l=st.floats(0.01, 0.5), h=st.floats(0.01, 0.3),
                     d_z=st.floats(-0.1, 0.1), b_lc=b_lc, b_ct=st.floats(0.0, 1.0),
                     mu=mu)


@settings(deadline=None)
@given(st.one_of(st.just(0.0), st.floats(0.01, 2.0)).flatmap(_plants),
       st.tuples(st.floats(-1.0, 1.0), st.floats(-3.0, 3.0), st.floats(-0.1, 0.1),
                 st.floats(-0.5, 0.5)),
       st.tuples(st.floats(-10.0, 10.0), st.floats(-5.0, 10.0), st.floats(-0.3, 0.3),
                 st.floats(-2.0, 2.0), st.floats(-20.0, 20.0)))
def test_slip_meets_stick_on_the_friction_cone(plant, y, u):
    # with mu = |D| / N the friction bound is just reached, and sliding
    # against the demand must reproduce the held container: d_x_ddot = 0
    # and the pendulum's own theta_ddot
    damp = plant.b_lc / (plant.m * plant.l) if plant.m > 0.0 else 0.0
    u = _input_terms(plant, u)
    _, normal, demand, _ = _stick_eval(plant, damp, *y, u)
    assume(normal > 0.0 and demand != 0.0)
    thdd = _stick_rates(plant, damp, *y, u)[0]
    edge = replace(plant, mu=abs(demand) / normal)
    thdd_slip, dxdd, _ = _slip_eval(edge, damp, *y, -math.copysign(1.0, demand), u)
    assert abs(dxdd) <= 1e-12 * (abs(demand) / (plant.m + plant.M) + 1.0)
    assert abs(thdd_slip - thdd) <= 1e-11 * (abs(thdd) + 1.0)


# The examples: signed zeros in the state and the inputs; the pendulum
# (mu = inf); a diverging theta_dot whose square overflows to inf.
@settings(deadline=None, max_examples=300)
@given(st.one_of(st.just(0.0), st.floats(0.01, 2.0)).flatmap(
           lambda m: _plants(m, st.sampled_from([0.0, 0.3, math.inf]))),
       st.tuples(st.floats(-1.5, 1.5), st.floats(-30.0, 30.0), st.floats(-0.1, 0.1),
                 st.floats(-1.0, 1.0)),
       st.tuples(st.floats(-10.0, 10.0), st.floats(-15.0, 10.0), st.floats(-0.5, 0.5),
                 st.floats(-3.0, 3.0), st.floats(-50.0, 50.0)))
@example(desk_params(), (-0.0, -0.0, -0.0, -0.0), (-0.0, 0.0, -0.0, -0.0, -0.0))
@example(desk_params(m=0.0, b_lc=0.0), (-0.0, 0.0, -0.0, 0.0), (0.0, -0.0, 0.0, -0.0, 0.0))
@example(desk_params(mu=math.inf), (0.1, -0.5, -0.0, 0.0), (1.0, 0.5, 0.1, 0.2, -3.0))
@example(desk_params(), (0.1, 1e300, 0.0, 0.0), (1.0, 0.5, 0.1, 0.2, -3.0))
def test_stick_test_matches_the_reference_formulas(plant, y, row):
    # the plant's stick test, which run(), held states and the sub-step's
    # stages while sticking and its end test share, is the reference stick
    # test bit for bit, at held (d_x_dot = 0) and sliding states alike
    damp = plant.b_lc / (plant.m * plant.l) if plant.m > 0.0 else 0.0
    u = _input_terms(plant, row)
    new = _contact(plant, damp)[0](*y, u)
    ref = _stick_eval(plant, damp, *y, u)
    assert tuple(map(float.hex, new)) == tuple(map(float.hex, ref))


def _step_outcome(step, *args):
    """The floats `step` returns, as hex so that the sign of a zero counts,
    or the message of the contact loss or integration error it raises."""
    try:
        return tuple(map(float.hex, step(*args)))
    except (ContactLostError, IntegrationError) as exc:
        return str(exc)


def _slide_cases(plant, y, row, s):
    # the plant's slide and the reference slide at the same state and inputs
    damp = plant.b_lc / (plant.m * plant.l) if plant.m > 0.0 else 0.0
    u = _input_terms(plant, row)
    return (_step_outcome(_contact(plant, damp)[1], *y, u, s),
            _step_outcome(_slip_eval, plant, damp, *y, s, u))


# The examples: signed zeros in the state and the inputs, for both slip
# signs; a diverging theta_dot whose square overflows to inf.
@settings(deadline=None, max_examples=300)
@given(st.one_of(st.just(0.0), st.floats(0.01, 2.0)).flatmap(
           lambda m: _plants(m, st.floats(0.0, 1.5))),
       st.tuples(st.floats(-1.5, 1.5), st.floats(-30.0, 30.0), st.floats(-0.1, 0.1),
                 st.floats(-1.0, 1.0)),
       st.tuples(st.floats(-10.0, 10.0), st.floats(-15.0, 10.0), st.floats(-0.5, 0.5),
                 st.floats(-3.0, 3.0), st.floats(-50.0, 50.0)),
       st.sampled_from([1.0, -1.0]))
@example(desk_params(), (-0.0, -0.0, -0.0, -0.0), (-0.0, 0.0, -0.0, -0.0, -0.0), -1.0)
@example(desk_params(), (-0.0, -0.0, -0.0, 0.0), (0.0, -0.0, 0.0, 0.0, 0.0), 1.0)
@example(desk_params(m=0.0, b_lc=0.0), (-0.0, -0.0, -0.0, -0.0), (-0.0, 0.0, -0.0, -0.0, -0.0),
         -1.0)
@example(desk_params(m=0.0, b_lc=0.0), (-0.0, 0.0, -0.0, 0.0), (0.0, -0.0, 0.0, -0.0, 0.0), 1.0)
@example(desk_params(), (0.1, 1e300, 0.0, 0.0), (1.0, 0.5, 0.1, 0.2, -3.0), 1.0)
def test_slide_matches_the_reference_formulas(plant, y, row, s):
    # m = 0 and m > 0, both slip signs: the plant's slide, every stage of
    # the sub-step while sliding, is the reference slide bit for bit
    new, ref = _slide_cases(plant, y, row, s)
    assert new == ref


# m = 2, M = 0.1 at theta = 0.7 with this mu: the slip coupling matrix is singular
_SINGULAR_MU = (0.1 + 2.0 * math.sin(0.7) ** 2) / (2.0 * math.sin(0.7) * math.cos(0.7))


@pytest.mark.parametrize("s", [1.0, -1.0])
def test_slide_reports_a_singular_coupling_matrix(s):
    # the matrix is singular at theta = 0.7 for s = 1 and, mirrored, at
    # theta = -0.7 for s = -1
    new, ref = _slide_cases(desk_params(m=2.0, M=0.1, mu=_SINGULAR_MU),
                            (0.7 * s, 0.0, 0.0, 0.1 * s), (0.0,) * 5, s)
    assert new == ref == "singular coupling matrix in slip dynamics"


# ---------------------------------------------------------------------------
# stick sub-step
# ---------------------------------------------------------------------------


def _step_engine(plant):
    # the sub-steps read only the plant and the slip sign from the engine
    return _TraySim(plant, TrayMotion.from_channels(1e-3, [0.0, 0.0]), None,
                    (0.0, 0.0, 0.0, 0.0))


def _step_cases(mode, plant, y, rows, h, s=0.0, sim=None):
    # the sub-step's new state and end test in `mode`, sliding with sign s,
    # and the generic step's new state and the reference stick test there
    sim = sim or _step_engine(plant)
    sim.slip_sign = s
    u = tuple(_input_terms(plant, row) for row in rows)

    def step(*args):
        y_new, test = sim._advance(*args)
        return (*y_new, *test)

    def generic(*args):
        if mode == STICK:
            y_new = generic_stick_step(plant, sim.damp, *args)
        else:
            y_new = generic_slip_step(plant, sim.damp, s, *args)
        return (*y_new, *_stick_eval(plant, sim.damp, *y_new, u[2]))
    return (_step_outcome(step, y, 0.2, h, mode, u), _step_outcome(generic, y, 0.2, h, u))


def _contact_counting_engine(plant, calls):
    # an engine whose stick test and slide count their calls in `calls`
    def contact(p, damp, _real=dynamics._contact):
        return tuple(lambda *args, _fn=fn: calls.append(1) or _fn(*args)
                     for fn in _real(p, damp))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_contact", contact)
        return _step_engine(plant)


_ZERO_ROWS = ((0.0,) * 5,) * 3
_ROWS = st.tuples(*[st.tuples(st.floats(-10.0, 10.0), st.floats(-15.0, 10.0),
                              st.floats(-0.5, 0.5), st.floats(-3.0, 3.0),
                              st.floats(-50.0, 50.0))] * 3)


# The examples: all-zero inputs; signed zeros in the state (d_x = -0.0
# among them) and in the inputs, two of which flip a zero of theta if the
# stages' d_x + h/2 * 0.0 or d_x_dot = 0.0 is changed; the pendulum (mu =
# inf); a sub-step narrower than the step; a bisection-wide sub-step.
@settings(deadline=None, max_examples=300)
@given(st.one_of(st.just(0.0), st.floats(0.01, 2.0)).flatmap(
           lambda m: _plants(m, st.sampled_from([0.3, math.inf]))),
       st.tuples(st.floats(-1.5, 1.5), st.floats(-30.0, 30.0), st.floats(-0.1, 0.1)),
       _ROWS, st.floats(1e-10, 2e-3))
@example(desk_params(), (0.0, 0.0, 0.0), _ZERO_ROWS, 1e-3)
@example(desk_params(), (-0.0, -0.0, -0.0), _ZERO_ROWS, 1e-3)
@example(desk_params(), (-0.0, -0.0, -0.0), ((-0.0, 0.0, -0.0, 0.0, -0.0),) * 3, 1e-3)
@example(desk_params(), (-0.0, -0.0, -0.0), ((-0.0, 0.0, -0.0, -0.0, -0.0),) * 3, 1e-3)
@example(desk_params(m=0.0, b_lc=0.0), (-0.0, -0.0, -0.0), _ZERO_ROWS, 1e-3)
@example(desk_params(mu=math.inf), (0.1, -0.5, -0.0), _ZERO_ROWS, 1e-3)
@example(desk_params(), (0.1, -0.5, -0.0), ((1.0, 0.5, 0.1, 0.2, -3.0),) * 3, 3.7e-4)
@example(desk_params(), (0.0, 0.0, -0.0), ((2.0, 0.0, -0.2, 0.0, 0.0),) * 3, 1.5e-10)
def test_stick_step_matches_generic_rk4(plant, y, rows, h):
    # m = 0, m > 0 and mu = inf (the pendulum); full steps and the narrower
    # sub-steps of event handling. The d_x + h/2 * 0.0 of the stages and
    # the d_x_dot = 0.0 of the new state are the generic step's; the end
    # test is the reference stick test at the new state, bit for bit.
    new, ref = _step_cases(STICK, plant, (*y, 0.0), rows, h)
    assert new == ref


# (state, one input row for all three of u0, um, u1, width) on m = 0.4,
# M = 0.1 that lose contact first in stage 1, 2, 3 and 4
_CONTACT_LOSS = [
    ((-1.2690878858837644, 5.98576852779604, 0.0),
     (-9.372444756493646, -9.631381722858967, -0.09206386438300918,
      0.6628027378040491, -34.380100898643526), 0.001),
    ((0.25522232221609054, 5.055107578211931, 0.0),
     (8.084035416955501, -3.8162143603803997, 0.428945601200017,
      2.138403398380534, 49.09896448688151), 0.05),
    ((-0.869598854775862, -26.52618979587887, 0.0),
     (6.718064338309503, -7.309074507153533, 0.20464446559514804,
      1.65731174620249, -29.95420931715208), 0.05),
    ((-0.8042339838699851, -20.902657418826834, 0.0),
     (8.51670943546015, -7.3207593493534455, -0.48485326266727247,
      1.6634080885662783, -34.060006023771884), 0.05),
]


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_stick_step_contact_loss_in_each_stage(stage):
    y, row, h = _CONTACT_LOSS[stage - 1]
    plant = desk_params(m=0.4, M=0.1)
    calls = []
    sim = _contact_counting_engine(plant, calls)
    new, ref = _step_cases(STICK, plant, (*y, 0.0), (row,) * 3, h, sim=sim)
    assert new == ref == "contact lost at t = 0.2 s"
    # the sub-step stops at the stage that lost contact: one stick test a
    # stage, and no end test
    assert len(calls) == stage


# ---------------------------------------------------------------------------
# compiled stick loop
# ---------------------------------------------------------------------------

def _empty_trace(n):
    # rows no step wrote hold NaN (mode 7), which no committed value is
    return ([np.full(n + 1, np.nan) for _ in range(4)] + [np.full(n + 1, 7, np.uint8)]
            + [np.full(n + 1, np.nan) for _ in range(2)])


def _python_steps(mode, sim, h, grid, mid, k, y, k1, s, trace):
    """run()'s steps in `mode` from step k with the Python sub-step, sliding
    with sign s: the index of the first step that ends in an event or an
    error, and the state and stick test at that row. The steps before it
    fill `trace` as record() does. Sticking, the event is a failed end test;
    sliding, a stop, a reversal or a capture test. A record whose N is NaN,
    which run() would write, also ends the steps: the compiled loop commits
    N > 0 alone."""
    sim.slip_sign = s
    grid, mid = grid.tolist(), mid.tolist()
    u0 = _input_terms(sim.p, grid[k])
    while k < len(mid):
        um, u1 = _input_terms(sim.p, mid[k]), _input_terms(sim.p, grid[k + 1])
        try:
            y_new, test = sim._advance(y, k * h, h, mode, (u0, um, u1))
        except (ContactLostError, IntegrationError):
            break
        if mode == STICK:
            event = not abs(test[2]) <= test[3]
        else:
            event = not (y_new[3] * s > 0.0 and abs(y_new[3]) >= _V_EPS)
        if event or not (all(map(math.isfinite, y_new)) and test[1] > 0.0):
            break
        for arr, value in zip(trace, (*y_new, mode, *test[2:])):
            arr[k + 1] = value
        y, k1, k, u0 = y_new, test, k + 1, u1
    return k, y, k1


def _hex_run(stop, y, k1, trace):
    return stop, [float(v).hex() for v in (*y, *k1)], \
        [[float(v).hex() for v in arr.tolist()] for arr in trace]


def _compiled_and_python_runs(mode, plant, y, rows, h, k, s=1.0):
    # the compiled loop's run and the Python sub-step's from step k in `mode`,
    # sliding with sign s, on the grid rows `rows` with each step's first row
    # as its midpoint row, from the state y and its stick test at row k; and
    # the run that commits nothing
    if _native.library() is None:
        pytest.skip("no C compiler: the compiled loops are not built")
    sim = _step_engine(plant)
    grid = np.array(rows, dtype=float)
    mid = np.array(rows[:-1], dtype=float)
    k1 = sim._test(*y, _input_terms(plant, rows[k]))
    n = len(rows) - 1
    compiled_trace, python_trace = _empty_trace(n), _empty_trace(n)
    loop = _native.loops(plant, sim.damp, _V_EPS, h, grid, mid, compiled_trace)
    compiled = loop(mode, k, y, k1, s)
    python = _python_steps(mode, sim, h, grid, mid, k, y, k1, s, python_trace)
    return (_hex_run(*compiled, compiled_trace), _hex_run(*python, python_trace),
            _hex_run(k, y, k1, _empty_trace(n)))


_ROW = st.tuples(st.floats(-10.0, 10.0), st.floats(-15.0, 10.0), st.floats(-0.5, 0.5),
                 st.floats(-3.0, 3.0), st.floats(-50.0, 50.0))

# (plant, y, grid rows, width) where the first step is handed back: contact
# lost in stage 2, 3 and 4, the end test failing, and theta overflowing to
# inf, where sin and cos are NaN, and to a non-finite theta_dot
_HAND_BACK = {
    **{f"contact-lost-in-stage-{stage}": (desk_params(m=0.4, M=0.1), y, (row,) * 2, h)
       for stage, (y, row, h) in enumerate(_CONTACT_LOSS[1:], start=2)},
    "end-test-fails": (desk_params(mu=0.05), (0.0, 0.0, 0.0), ((5.0, 0.0, 0.0, 0.0, 0.0),) * 2,
                       1e-3),
    "theta-overflows": (desk_params(mu=math.inf), (-1.2245396884174076, -6.41191512216294e307,
                                                   0.0), _ZERO_ROWS[:2], 1e-3),
    "theta-dot-overflows": (desk_params(mu=math.inf), (0.80025481711764, -2.622883793437958e307,
                                                       0.0), _ZERO_ROWS[:2], 1e-3),
}


# The examples: the hand-back cases; signed zeros in the state and the
# inputs; a committed row whose N, D and F_s are infinite; a start past
# row 0; a theta_dot whose square pow and w * w round apart, over a step
# too narrow to move the state; inputs where the pendulum sum of a stage
# changes its bits if two adjacent terms are swapped. The slide sign s,
# which the loop takes in both modes, is 0.0 at run()'s start and +-1.0
# after a slide; sticking reads none of them, and with mu = inf the
# product s mu of s = 0.0 is NaN.
@settings(deadline=None, max_examples=300)
@given(st.one_of(st.just(0.0), st.floats(0.01, 2.0)).flatmap(
           lambda m: _plants(m, st.one_of(st.floats(0.0, 1.5), st.just(math.inf)))),
       st.tuples(st.floats(-1.5, 1.5), st.floats(-30.0, 30.0), st.floats(-0.1, 0.1)),
       st.integers(1, 4).flatmap(lambda n: st.lists(_ROW, min_size=n + 1, max_size=n + 1)),
       st.floats(1e-10, 0.05), st.integers(0, 3), st.sampled_from([0.0, 1.0, -1.0]))
@example(*_HAND_BACK["contact-lost-in-stage-2"], 0, 0.0)
@example(*_HAND_BACK["contact-lost-in-stage-3"], 0, 1.0)
@example(*_HAND_BACK["contact-lost-in-stage-4"], 0, -1.0)
@example(*_HAND_BACK["end-test-fails"], 0, 0.0)
@example(*_HAND_BACK["theta-overflows"], 0, 0.0)
@example(*_HAND_BACK["theta-dot-overflows"], 0, -1.0)
@example(desk_params(), (-0.0, -0.0, -0.0), [(-0.0, 0.0, -0.0, 0.0, -0.0)] * 3, 1e-3, 0, 0.0)
@example(desk_params(m=0.0, b_lc=0.0), (-0.0, -0.0, -0.0), _ZERO_ROWS, 1e-3, 1, -1.0)
@example(desk_params(mu=math.inf), (-0.6291470363099416, -2.886081300105434e176, 0.0),
         _ZERO_ROWS, 1e-3, 0, 0.0)
@example(desk_params(mu=math.inf), (0.3, -11.295802070436245, 0.0), _ZERO_ROWS[:2], 1e-30, 0,
         1.0)
@example(PlantParams(m=1.1294764103969792, M=0.9372586728560999, l=0.015608566622543384,
                     h=0.12705652890029515, d_z=-0.028172045739839863, b_lc=0.002181788663327989,
                     b_ct=0.16327203032328755, mu=math.inf),
         (-0.8651320961364377, -4.85063308717924e-95, -0.06534482477417103),
         [(-6.136093865027654e-70, -9.090217516627287e-17, 0.47040172457393203,
           2.1527730570059234, -32.827147312378855),
          (-3.196616691059239e-233, 10.0, -0.406191182980737, 1e-05, -2.7734639460080863e-84)],
         1e-10, 0, 0.0)
def test_compiled_stick_loop_matches_the_python_kernel(plant, y, rows, h, k, s):
    # m = 0 and m > 0, mu finite and inf, b_ct >= 0: the compiled loop
    # commits the steps the Python sub-step and run()'s checks commit, with
    # the same bits in every trace row, and returns the same stop index,
    # state and k1, whatever the slide sign s; rows no step wrote are left
    # as they were
    assume(k < len(rows) - 1)
    compiled, python, _ = _compiled_and_python_runs(STICK, plant, (*y, 0.0), rows, h, k, s)
    assert compiled == python


@pytest.mark.parametrize("case", _HAND_BACK)
def test_compiled_stick_loop_hands_back_the_step_python_ends_otherwise(case):
    # the loop commits nothing and leaves the state and k1 as they were
    plant, y, rows, h = _HAND_BACK[case]
    compiled, python, unchanged = _compiled_and_python_runs(STICK, plant, (*y, 0.0), rows, h, 0)
    assert compiled == python == unchanged


# ---------------------------------------------------------------------------
# slip sub-step
# ---------------------------------------------------------------------------

# The examples: all-zero inputs; signed zeros in the state and the inputs,
# for both slip signs, on the solid too; a sub-step narrower than the step;
# a bisection-wide sub-step.
@settings(deadline=None, max_examples=300)
@given(st.one_of(st.just(0.0), st.floats(0.01, 2.0)).flatmap(
           lambda m: _plants(m, st.floats(0.0, 1.5))),
       st.tuples(st.floats(-1.5, 1.5), st.floats(-30.0, 30.0), st.floats(-0.1, 0.1),
                 st.floats(-1.0, 1.0)),
       _ROWS, st.floats(1e-10, 2e-3), st.sampled_from([1.0, -1.0]))
@example(desk_params(), (0.0, 0.0, 0.0, 0.0), _ZERO_ROWS, 1e-3, 1.0)
@example(desk_params(), (-0.0, -0.0, -0.0, -0.0), _ZERO_ROWS, 1e-3, -1.0)
@example(desk_params(), (-0.0, -0.0, -0.0, 0.2), ((-0.0, 0.0, -0.0, 0.0, -0.0),) * 3,
         1e-3, 1.0)
@example(desk_params(), (-0.0, -0.0, -0.0, -0.2), ((-0.0, 0.0, -0.0, -0.0, -0.0),) * 3,
         1e-3, -1.0)
@example(desk_params(m=0.0, b_lc=0.0), (-0.0, -0.0, -0.0, -0.3), _ZERO_ROWS, 1e-3, -1.0)
@example(desk_params(m=0.0, b_lc=0.0), (-0.0, -0.0, -0.0, -0.0), _ZERO_ROWS, 1e-3, -1.0)
@example(desk_params(m=0.0, b_lc=0.0), (-0.0, -0.0, -0.0, 0.0), ((-0.0, 0.0, -0.0, -0.0, -0.0),) * 3,
         1e-3, 1.0)
@example(desk_params(m=0.0, b_lc=0.0), (0.0, 0.0, 0.01, 0.3), ((3.0, 0.5, 0.1, 0.2, -3.0),) * 3,
         3.7e-4, 1.0)
@example(desk_params(), (0.1, -0.5, -0.0, 0.05), ((1.0, 0.5, 0.1, 0.2, -3.0),) * 3, 3.7e-4, 1.0)
@example(desk_params(), (0.0, 0.0, -0.0, -1e-7), ((2.0, 0.0, -0.2, 0.0, 0.0),) * 3, 1.5e-10, -1.0)
def test_slip_step_matches_generic_rk4(plant, y, rows, h, s):
    # m = 0 and m > 0, both slip signs; full steps and the narrower
    # sub-steps of event handling. The end test is the reference stick test
    # at the new state, bit for bit.
    new, ref = _step_cases(SLIP, plant, y, rows, h, s)
    assert new == ref


def test_slip_step_reports_a_singular_coupling_matrix():
    # the generic step raises the same error, from the first stage
    new, ref = _step_cases(SLIP, desk_params(m=2.0, M=0.1, mu=_SINGULAR_MU),
                           (0.7, 0.0, 0.0, 0.1), _ZERO_ROWS, 1e-3, 1.0)
    assert new == ref == "singular coupling matrix in slip dynamics"


# (state, one input row for all three of u0, um, u1, width, slip sign) on
# m = 0.4, M = 0.1 that lose contact first in stage 1, 2, 3 and 4
_SLIP_CONTACT_LOSS = [
    ((-1.3711153334392332, -2.3509291092597557, 0.030054236624571434, 0.04132366463739179),
     (2.733528435403244, -9.131213184755072, 0.3865369963019609, -2.681611402075583,
      12.74442858707279), 0.05, -1.0),
    ((0.15255432309743688, 25.312940320656786, -0.04418530090835635, -0.26404844225563895),
     (-9.279743237842613, -9.855345327113465, -0.3918806940334827, 0.21346901497443405,
      44.8895493130273), 0.05, -1.0),
    ((0.5963753329546546, -22.5682539134066, -0.07425080890944039, -0.3273361298520776),
     (-1.703682740300703, -7.568840029480159, -0.053508554516106144, 2.456742941933414,
      14.99909738942921), 0.05, 1.0),
    ((0.714102867756103, -28.669051860551406, -0.08788463927084054, 0.1760203094873768),
     (9.266111607725147, -4.977554436330596, -0.04368787036362076, 0.5560312539989347,
      -17.997461425199347), 0.05, 1.0),
]


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_slip_step_contact_loss_in_each_stage(stage):
    y, row, h, s = _SLIP_CONTACT_LOSS[stage - 1]
    plant = desk_params(m=0.4, M=0.1)
    calls = []
    sim = _contact_counting_engine(plant, calls)
    new, ref = _step_cases(SLIP, plant, y, (row,) * 3, h, s, sim)
    assert new == ref == "contact lost at t = 0.2 s"
    # the sub-step stops at the stage that lost contact: one slide a stage,
    # and no end test
    assert len(calls) == stage


def test_solid_slip_step_contact_loss_in_the_first_stage():
    # the solid's first stage reports its contact loss at the step time,
    # and the sub-step goes no further
    plant = desk_params(m=0.0, b_lc=0.0)
    calls = []
    sim = _contact_counting_engine(plant, calls)
    row = (0.0, -12.0, 0.0, 0.0, 0.0)          # the tray falls faster than gravity
    new, ref = _step_cases(SLIP, plant, (0.0, 0.0, 0.0, 0.1), (row,) * 3, 1e-3, 1.0, sim)
    assert new == ref == "contact lost at t = 0.2 s"
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# compiled slip loop
# ---------------------------------------------------------------------------

def _slip_hand_back(plant, y, rows, h, s):
    """How run() ends the first step of a slide on `rows`: the message of
    the error the sub-step or the record raises, or the event or check that
    ends it, in run()'s order."""
    sim = _step_engine(plant)
    sim.slip_sign = s
    u = tuple(_input_terms(plant, row) for row in (rows[0], rows[0], rows[1]))
    try:
        y_new, test = sim._advance(y, 0.2, h, SLIP, u)
    except (ContactLostError, IntegrationError) as exc:
        return str(exc)
    if y_new[3] * s <= 0.0:
        return "stop or reversal"
    if abs(y_new[3]) < _V_EPS:
        return "capture test"
    if not all(map(math.isfinite, y_new)):
        return "non-finite state"
    return "contact lost in the record" if test[1] <= 0.0 else None


# (plant, y, grid rows, width, slip sign) where the first step of a slide is
# handed back, and how run() ends it. In each, the check that ends the step
# is the only one that fails: without it, the loop would commit the step.
_SLIP_HAND_BACK = {
    "solid-contact-lost-in-stage-1": (
        (PlantParams(m=0.0, M=4.473531240673359, l=0.44159614336138414, h=0.09149791503850231,
                     d_z=0.03404346796401589, b_lc=0.0, b_ct=0.8299127311218815,
                     mu=1.2781419507277176),
         (-0.2134457836457715, 7.7718084297879955, -0.09121120864317762, -0.0055666656735609),
         ((7.411757104841158, -9.292792399072102, 0.40739916011680133, -2.3312706479431284,
           -21.21319812822887),
          (9.754178808572153, -11.75065235052526, -0.27090259392843874, -0.48429811353057417,
           7.580553357992073)), 0.05, -1.0), "contact lost at t = 0.2 s"),
    "contact-lost-in-stage-1": (
        (PlantParams(m=0.06465238444577906, M=3.621691998406734, l=0.3726169996655839,
                     h=0.14841295446918132, d_z=-0.08915457122902103,
                     b_lc=0.007661835202905536, b_ct=0.06458904360694817,
                     mu=1.2204978159567514),
         (0.6443656074995507, -18.273481870367576, 0.00010754659675640821, 0.5624789380847226),
         ((8.695383035292839, -10.70041411331229, 0.11678800286532043, -1.6512812243307233,
           42.65881128353492),
          (1.8414715891103057, -9.652063316543376, -0.01927564248622249, -0.9883834397672833,
           7.149033091836024)), 0.05, 1.0), "contact lost at t = 0.2 s"),
    "contact-lost-in-stage-2": (
        (PlantParams(m=0.22684930996329852, M=0.5324054028517758, l=0.04322152029657273,
                     h=0.2191945815676415, d_z=0.034676494945292874,
                     b_lc=0.008478414281982176, b_ct=0.18302785191495097,
                     mu=0.2760494994438835),
         (0.5676715303301183, -25.653295717529424, -0.002789100259430105, 0.3186530344719838),
         ((-7.1629671399963835, -10.87258832736513, -0.015056608038161667, -0.5733094414843292,
           17.226724371735713),
          (7.681371848121351, -10.845837093072353, -0.19945945723180825, 1.0435785660542631,
           37.988529405841206)), 0.05, 1.0), "contact lost at t = 0.2 s"),
    "contact-lost-in-stage-3": (
        (PlantParams(m=0.5591754733292613, M=0.9002730419004623, l=0.13931602824945444,
                     h=0.09524970605834923, d_z=-0.0823650241215735,
                     b_lc=0.00880970451197778, b_ct=0.09228111785403803,
                     mu=1.4690816873697576),
         (0.4050732171624343, 16.328071700384406, 0.016597522944792928, 0.8432211734882102),
         ((8.900880885817706, -11.772225751241546, 0.4258580533597025, -0.8623163340430091,
           -27.326251477662456),
          (-2.365832782112662, -10.32999040989791, -0.37327171721630614, 2.8027896708355478,
           -49.065862778036205)), 0.05, 1.0), "contact lost at t = 0.2 s"),
    "contact-lost-in-stage-4": (
        (PlantParams(m=1.8522005489895692, M=2.3518769973640827, l=0.2591975041135382,
                     h=0.020110866212524982, d_z=0.09025318815242045,
                     b_lc=0.0008804388621465653, b_ct=0.5810938143606545,
                     mu=0.9040882621755636),
         (-0.9774192723824189, -8.975891823297907, -0.04001044969460104, -0.9817313268412633),
         ((-2.0007511227585546, -10.092075035622429, 0.21821620249850282, 1.1972384547303019,
           44.79474187040829),
          (7.418661414984939, -10.718756101209578, 0.1109877397384903, 1.1566424456414186,
           28.88457612881902)), 0.001, -1.0), "contact lost at t = 0.2 s"),
    # |det| < tol in the first stage, whose huge theta_ddot the later
    # stages and the end state absorb
    "singular-coupling-matrix": (
        (PlantParams(m=1.8728612172830121, M=1.764025301005591, l=0.3389592899907452,
                     h=0.2380731489258791, d_z=-0.007191669013527371,
                     b_lc=0.0018967690912243941, b_ct=0.2871599340774782,
                     mu=3.140713631638047),
         (0.8840430669140854, 2.160783003005424, 0.0738423205320431, 0.2535993263617996),
         ((5.412416764074223, -1.1058024205508197, 0.0, 0.0, 0.0),) * 2, 1e-3, 1.0),
        "singular coupling matrix in slip dynamics"),
    # friction stops the slide on a still tray
    "stop": ((desk_params(m=0.0, b_lc=0.0), (0.0, 0.0, 0.0, 1e-3), _ZERO_ROWS[:2], 1e-3, 1.0),
             "stop or reversal"),
    # the tray's pull reverses it
    "reversal": ((desk_params(), (0.0, 0.0, 0.0, -1e-3), ((-10.0, 0.0, 0.0, 0.0, 0.0),) * 2,
                  1e-3, -1.0), "stop or reversal"),
    # mu g h + 5e-7: the slide ends at 5e-7 m/s, inside the capture band
    "ends-in-the-capture-band": (
        (desk_params(m=0.0, b_lc=0.0), (0.0, 0.0, 0.0, 0.3 * 9.81 * 1e-3 + 5e-7),
         _ZERO_ROWS[:2], 1e-3, 1.0), "capture test"),
    # d_x overflows to inf, and with beta_ddot > 0 the record's N is inf
    "non-finite-state": ((desk_params(m=0.0, b_lc=0.0), (0.0, 0.0, 0.0, 1e308),
                          ((0.0, 0.0, 0.0, 0.0, 1.0),) * 2, 1e-3, 1.0), "non-finite state"),
    # the end row's x_ddot takes the demand and d_x_ddot of stage 4 to inf,
    # so d_x_dot alone overflows, and with beta_dot < 0 the record's N is inf
    "d-x-dot-overflows": ((desk_params(m=0.0, b_lc=0.0, M=2.0), (0.0, 0.0, 0.0, -0.5),
                           ((0.0, 0.0, 0.0, -1.0, 0.0), (1.7e308, 0.0, 0.0, -1.0, 0.0)),
                           1e-3, -1.0), "non-finite state"),
    "contact-lost-in-the-record": (
        (PlantParams(m=0.1129388775989291, M=0.9748598699372891, l=0.022165049226024205,
                     h=0.02819994953413965, d_z=-0.09392387061698121,
                     b_lc=0.0034928151889684444, b_ct=0.3384521447504315,
                     mu=1.1380871551157539),
         (0.3963127949950651, -14.078044690097151, 0.08045997427394108, -0.7733408367202219),
         ((-5.048332606386912, -4.204396885545522, -0.3275225811572835, -2.8309583758381107,
           -49.359659456942595),
          (1.8981929991856852, -9.64925674198344, -0.3907312187960533, -0.31874843589146185,
           -27.855904212915718)), 0.05, -1.0), "contact lost in the record"),
}


# A sliding state and the slide's sign, which is the sign of d_x_dot in
# four draws of five: against it, most first steps end in a reversal.
_SLIDES = st.tuples(st.floats(-1.5, 1.5), st.floats(-30.0, 30.0), st.floats(-0.1, 0.1),
                    st.floats(-1.0, 1.0)).flatmap(
    lambda y: st.tuples(st.just(y), st.sampled_from([1.0, 1.0, 1.0, 1.0, -1.0]).map(
        lambda along: along * math.copysign(1.0, y[3]))))


def _slip_example(case, k=0):
    # a hand-back case as the arguments of the matching test
    plant, y, rows, h, s = _SLIP_HAND_BACK[case][0]
    return plant, (y, s), rows, h, k


# The examples: the hand-back cases; signed zeros in the state and the
# inputs for both signs, on the solid too; a start past row 0; a slide that
# the tray's pull keeps going over several steps.
@settings(deadline=None, max_examples=500)
@given(st.one_of(st.just(0.0), st.floats(0.01, 2.0)).flatmap(
           lambda m: _plants(m, st.floats(0.0, 1.5))),
       _SLIDES,
       st.integers(1, 4).flatmap(lambda n: st.lists(_ROW, min_size=n + 1, max_size=n + 1)),
       st.floats(1e-10, 0.05), st.integers(0, 3))
@example(*_slip_example("solid-contact-lost-in-stage-1"))
@example(*_slip_example("contact-lost-in-stage-1"))
@example(*_slip_example("contact-lost-in-stage-2"))
@example(*_slip_example("contact-lost-in-stage-3"))
@example(*_slip_example("contact-lost-in-stage-4"))
@example(*_slip_example("singular-coupling-matrix"))
@example(*_slip_example("stop"))
@example(*_slip_example("reversal"))
@example(*_slip_example("ends-in-the-capture-band"))
@example(*_slip_example("non-finite-state"))
@example(*_slip_example("contact-lost-in-the-record"))
@example(desk_params(), ((-0.0, -0.0, -0.0, -0.2), -1.0), [(-0.0, 0.0, -0.0, 0.0, -0.0)] * 3,
         1e-3, 0)
@example(desk_params(), ((-0.0, -0.0, -0.0, 0.2), 1.0), [(-0.0, 0.0, -0.0, -0.0, -0.0)] * 3,
         1e-3, 0)
@example(desk_params(m=0.0, b_lc=0.0), ((-0.0, -0.0, -0.0, -0.3), -1.0), _ZERO_ROWS, 1e-3, 1)
@example(desk_params(b_ct=0.5), ((0.1, -0.5, -0.0, 0.05), 1.0), [(-10.0, 0.5, 0.1, 0.2, -3.0)] * 5,
         1e-3, 0)
def test_compiled_slip_loop_matches_the_python_kernel(plant, slide, rows, h, k):
    # m = 0 and m > 0, both slip signs, mu finite, b_ct >= 0: the compiled
    # loop commits the steps the Python sub-step and run()'s checks commit,
    # with the same bits in every trace row, and returns the same stop
    # index, state and k1; rows no step wrote are left as they were
    assume(k < len(rows) - 1)
    y, s = slide
    compiled, python, _ = _compiled_and_python_runs(SLIP, plant, y, rows, h, k, s)
    assert compiled == python


@pytest.mark.parametrize("case", _SLIP_HAND_BACK)
def test_compiled_slip_loop_hands_back_the_step_python_ends_otherwise(case):
    # each case is what its name says, and the loop commits nothing and
    # leaves the state and k1 as they were
    args, how = _SLIP_HAND_BACK[case]
    assert _slip_hand_back(*args) == how
    plant, y, rows, h, s = args
    compiled, python, unchanged = _compiled_and_python_runs(SLIP, plant, y, rows, h, 0, s)
    assert compiled == python == unchanged
