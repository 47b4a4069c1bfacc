"""Property tests: the batched pose path, the streamed CSV writer and the
flattened smoother cascade give exactly the bits of the code they replace;
smoother step responses keep unit DC gain, stay in range and respect the
trapezoid's kinematic limits; stick and slip agree where they meet; the
stick and slip sub-steps give exactly the bits of the generic RK4 step they
replaced."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from traywaiter import compensation, dynamics, fileio, smoothers
from traywaiter.compensation import (
    FreeFallError,
    MountingTransform,
    compose_flange_pose,
    flange_poses,
    quaternion_to_rotation,
    rotation_matrix,
    rotation_to_quaternion,
    tilt_angles,
)
from traywaiter.dynamics import (
    ContactLostError,
    IntegrationError,
    PlantParams,
    TrayMotion,
    _TraySim,
    _input_terms,
    _stick_test,
)
from traywaiter.smoothers import (
    CascadeState,
    DampedHarmonic,
    Trapezoidal,
    make_trapezoidal_params,
)

from _oracles import (
    _scalar_quaternion,
    _slip_eval,
    _stick_eval,
    _stick_rates,
    desk_params,
    generic_slip_step,
    generic_stick_step,
    per_sample_stages,
    repr_table_chunks,
    scalar_flange_pose,
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
mounts = st.one_of(
    st.just(MountingTransform()),
    st.tuples(unit_quaternions, st.tuples(*[st.floats(-0.5, 0.5)] * 3)).map(
        lambda qp: MountingTransform.from_parts(quaternion_to_rotation(qp[0]), qp[1])))


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
    pos, quat = flange_poses(positions, accelerations, G, mount)
    pos_ref, quat_ref = scalar_poses(positions, accelerations, G, mount)
    assert np.array_equal(pos, pos_ref)
    assert np.array_equal(quat, quat_ref)


def test_flange_poses_match_scalar_chain_across_blocks():
    n = 2 * POSE_BLOCK + 5
    rng = np.random.default_rng(4)
    accelerations = rng.uniform(-20.0, 20.0, (n, 3))
    accelerations[:, 2] = rng.uniform(-9.0, 20.0, n)
    accelerations[::7, :2] = 0.0  # zero lateral acceleration: phi = pi
    positions = rng.uniform(-1.0, 1.0, (n, 3))
    mount = MountingTransform.from_parts(rotation_matrix(0.3, 1.1), (0.0, 0.02, 0.12))
    pos, quat = flange_poses(positions, accelerations, G, mount)
    pos_ref, quat_ref = scalar_poses(positions, accelerations, G, mount)
    assert np.array_equal(pos, pos_ref)
    assert np.array_equal(quat, quat_ref)


@settings(deadline=None)
@given(st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
                          st.tuples(*[st.floats(-2.0, 2.0)] * 3)),
                min_size=1, max_size=40),
       mounts)
def test_stacked_pose_chain_matches_scalar_chain(samples, mount):
    # rotation_matrix and compose_flange_pose on stacks give each sample the
    # bits of the math-based chain
    beta, phi, positions = (np.array(column) for column in zip(*samples))
    rotations = rotation_matrix(beta, phi)
    flanges = compose_flange_pose(positions, rotations, mount)
    assert rotations.shape == (len(samples), 3, 3)
    assert flanges.shape == (len(samples), 4, 4)
    for b, f, p, R, flange in zip(beta.tolist(), phi.tolist(), positions,
                                  rotations, flanges):
        R_ref = scalar_rotation_matrix(b, f)
        assert np.array_equal(R, R_ref)
        assert np.array_equal(flange, scalar_flange_pose(p, R_ref, mount))


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


@settings(deadline=None)
@given(st.lists(accels, min_size=1, max_size=40), st.data())
def test_flange_poses_free_fall_in_a_later_block_matches_tilt_angles(samples, data):
    accelerations = np.zeros((POSE_BLOCK + len(samples), 3))
    accelerations[POSE_BLOCK:] = samples
    bad = POSE_BLOCK + data.draw(st.integers(0, len(samples) - 1))
    accelerations[bad, 2] = -G  # g + az is exactly 0
    with pytest.raises(FreeFallError) as info:
        flange_poses(np.zeros_like(accelerations), accelerations, G, MountingTransform())
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
@given(st.lists(kinds, min_size=1, max_size=4), periods,
       st.one_of(st.none(), signal),
       st.lists(st.tuples(signal, signal, signal), min_size=1, max_size=60),
       st.booleans())
# lazy starts where a kind's first output differs from its input in the last
# bits, and where a derivative input reaches a second stage of the kind
@example([DampedHarmonic(0.0, 0.02), Trapezoidal(0.01, 0.005)], 1e-3, None,
         [(0.3, 0.0, 0.0), (0.8, 0.0, 0.0), (0.05, 0.0, 0.0)], False)
@example([Trapezoidal(0.01, 0.005), Trapezoidal(0.004, 0.002)], 1e-3, None,
         [(1.3, 0.7, -2.0), (0.4, 0.1, 0.2)], True)
def test_cascade_state_matches_nested_reference(cascade, dt, initial, samples,
                                                with_derivatives):
    # initial None primes lazily from the first sample, with zero input
    # derivatives unless with_derivatives is drawn
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
            assert flat.step(u, v, a) == ref.step(u, v, a)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


# long inputs for the spans of 85 and 600 samples, and one that crosses the
# chunks of the oscillator recurrence
_LONG = [tuple(r) for r in np.random.default_rng(11).uniform(-10.0, 10.0, (1500, 3))]
_LONGER = _LONG * (smoothers._RECURRENCE_CHUNK // len(_LONG) + 1)


@settings(deadline=None)
@given(st.lists(kinds, min_size=1, max_size=4), periods,
       st.one_of(st.none(), signal),
       st.lists(st.tuples(signal, signal, signal), max_size=120),
       st.lists(st.floats(0.0, 1.0), max_size=8),
       st.booleans())
@example([Trapezoidal(0.007, 0.003)], 1e-3, None, _LONG[:40], [0.05, 0.05, 0.1, 0.5],
         True)
@example([Trapezoidal(0.085, 0.6)], 1e-3, None, _LONG, [0.0, 0.002, 0.03, 0.5, 0.52],
         True)
@example([Trapezoidal(0.6, 0.085), DampedHarmonic(0.0, 0.085)], 1e-3, 0.4, _LONG,
         [0.3, 0.3, 0.7], False)
@example([DampedHarmonic(-4.0, 0.085), Trapezoidal(0.007, 0.003)], 1e-3, None, _LONGER,
         [0.001, 0.95], True)
def test_cascade_block_run_matches_stream(cascade, dt, initial, samples, cuts,
                                          with_derivatives):
    # successive run() calls over chunks of the series (empty ones and ones
    # shorter than a stage's span among them) give the bits of step() on
    # every sample, and leave the state where step() would
    ref = _ReferenceCascadeState(cascade, dt, initial_value=initial)
    stream = CascadeState(cascade, dt, initial_value=initial)
    block = CascadeState(cascade, dt, initial_value=initial)
    u, v, a = np.array(samples, dtype=float).reshape(-1, 3).T
    if not with_derivatives:
        v = a = None
    expected = []
    for k in range(u.size):
        args = (u[k],) if v is None else (u[k], v[k], a[k])
        out = stream.step(*args)
        assert out == ref.step(*args)
        expected.append(out)
    expected = np.array(expected).reshape(-1, 3)
    bounds = [0, *sorted(int(c * u.size) for c in cuts), u.size]
    got = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        derivs = () if v is None else (v[lo:hi], a[lo:hi])
        out = block.run(u[lo:hi], *derivs)
        assert all(c.shape == (hi - lo,) for c in out)
        got.append(np.column_stack(out))
    assert np.array_equal(_bits(np.concatenate(got)), _bits(expected))
    last = [_bits(s.step(0.7, 0.1, -0.2)).tolist() for s in (block, stream, ref)]
    assert last[0] == last[1] == last[2]


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
    u = next(_input_terms(plant, [u]))
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
    # the plant's stick test, which run(), held states, friction_margin and
    # the slip kernel's end test share, is the reference stick test bit for
    # bit, at held (d_x_dot = 0) and sliding states alike
    damp = plant.b_lc / (plant.m * plant.l) if plant.m > 0.0 else 0.0
    u = next(_input_terms(plant, [row]))
    new = _stick_test(plant, damp)(*y, u)
    ref = _stick_eval(plant, damp, *y, u)
    assert tuple(map(float.hex, new)) == tuple(map(float.hex, ref))


# ---------------------------------------------------------------------------
# stick sub-step
# ---------------------------------------------------------------------------

def _step_outcome(step, *args):
    """The state a sub-step returns, as hex so that the sign of a zero
    counts, or the message of the contact loss or integration error it
    raises."""
    try:
        return tuple(map(float.hex, step(*args)))
    except (ContactLostError, IntegrationError) as exc:
        return str(exc)


def _step_engine(plant):
    # the sub-steps read only the plant and the slip sign from the engine
    return _TraySim(plant, TrayMotion.from_channels(1e-3, [0.0, 0.0]), None,
                    (0.0, 0.0, 0.0, 0.0))


def _stick_step_cases(plant, y, rows, h, sim=None):
    # the kernel's new state and end test from k1, the reference stick test
    # at y and u0, and the generic step's new state and the reference stick
    # test there
    sim = sim or _step_engine(plant)
    u = tuple(_input_terms(plant, rows))
    y = (*y, 0.0)                              # the stick state holds d_x_dot = 0
    k1 = _stick_eval(plant, sim.damp, *y[:3], 0.0, u[0])

    def kernel(*args):
        y_new, test = sim._stick(*args)
        return (*y_new, *test)

    def generic(*args):
        y_new = generic_stick_step(*args)
        return (*y_new, *_stick_eval(plant, sim.damp, *y_new[:3], 0.0, u[2]))
    return (_step_outcome(kernel, y, 0.2, h, u, k1),
            _step_outcome(generic, plant, sim.damp, y, 0.2, h, u))


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
    # m = 0, m > 0 and mu = inf (the pendulum); the first stage taken from
    # the stick test at the same state and inputs; full steps and the
    # narrower sub-steps of event handling. The kernel's end test is the
    # reference stick test at the new state, bit for bit.
    new, ref = _stick_step_cases(plant, y, rows, h)
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
def test_stick_step_contact_loss_in_each_stage(monkeypatch, stage):
    y, row, h = _CONTACT_LOSS[stage - 1]
    plant = desk_params(m=0.4, M=0.1)
    calls = []
    with monkeypatch.context() as mp:
        for name in ("sin", "cos"):
            mp.setattr(math, name, lambda x, _real=getattr(math, name), _name=name:
                       calls.append(_name) or _real(x))
        sim = _step_engine(plant)              # its kernel takes the counting sin and cos
    new, ref = _stick_step_cases(plant, y, (row,) * 3, h, sim)
    assert new == ref == "contact lost at t = 0.2 s"
    # the kernel stops at the stage that lost contact, and each stage it
    # evaluates takes sin and cos of theta and of beta + theta once; stage 1
    # is k1, the stick test at y, whose N <= 0 in the first case
    assert calls.count("sin") == calls.count("cos") == 2 * (stage - 1)


# ---------------------------------------------------------------------------
# slip sub-step
# ---------------------------------------------------------------------------

def _slip_step_cases(plant, y, rows, h, s, sim=None):
    # the kernel's new state and end test from k1, the reference stick test
    # at y and u0, and the generic step's new state and the reference stick
    # test there
    sim = sim or _step_engine(plant)
    u = tuple(_input_terms(plant, rows))
    k1 = _stick_eval(plant, sim.damp, *y, u[0])

    def kernel(*args):
        y_new, test = sim._slip(*args)
        return (*y_new, *test)

    def generic(*args):
        y_new = generic_slip_step(*args)
        return (*y_new, *_stick_eval(plant, sim.damp, *y_new, u[2]))
    return (_step_outcome(kernel, y, 0.2, h, u, k1, s),
            _step_outcome(generic, plant, sim.damp, s, y, 0.2, h, u))


# m = 2, M = 0.1 at theta = 0.7 with this mu: the slip coupling matrix is singular
_SINGULAR_MU = (0.1 + 2.0 * math.sin(0.7) ** 2) / (2.0 * math.sin(0.7) * math.cos(0.7))


# The examples: all-zero inputs; signed zeros in the state and the inputs,
# for both slip signs, with the solid's first stage taken from k1; a
# sub-step narrower than the step; a bisection-wide sub-step.
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
    # m = 0 and m > 0, both slip signs, the first stage evaluated (m > 0)
    # or taken from k1, the stick test at the same state and inputs (m = 0);
    # full steps and the narrower sub-steps of event handling. The kernel's
    # end test is the reference stick test at the new state, bit for bit.
    new, ref = _slip_step_cases(plant, y, rows, h, s)
    assert new == ref


def test_slip_step_reports_a_singular_coupling_matrix():
    # the generic step raises the same error, from the first stage
    new, ref = _slip_step_cases(desk_params(m=2.0, M=0.1, mu=_SINGULAR_MU),
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
def test_slip_step_contact_loss_in_each_stage(monkeypatch, stage):
    y, row, h, s = _SLIP_CONTACT_LOSS[stage - 1]
    plant = desk_params(m=0.4, M=0.1)
    calls = []
    with monkeypatch.context() as mp:
        for name in ("sin", "cos"):
            mp.setattr(math, name, lambda x, _real=getattr(math, name), _name=name:
                       calls.append(_name) or _real(x))
        sim = _step_engine(plant)              # its kernel takes the counting sin and cos
    new, ref = _slip_step_cases(plant, y, (row,) * 3, h, s, sim)
    assert new == ref == "contact lost at t = 0.2 s"
    # the kernel stops at the stage that lost contact, and each stage it
    # evaluates takes sin and cos of theta and of beta + theta once; with
    # m > 0 the stick test at y, k1, is no first stage, so it is evaluated
    assert calls.count("sin") == calls.count("cos") == 2 * stage


def test_solid_slip_step_contact_loss_in_the_first_stage(monkeypatch):
    # the solid's first stage, taken from k1, the stick test at y, reports
    # its contact loss at the step time and takes no sin or cos
    plant = desk_params(m=0.0, b_lc=0.0)
    calls = []
    with monkeypatch.context() as mp:
        for name in ("sin", "cos"):
            mp.setattr(math, name, lambda x, _real=getattr(math, name), _name=name:
                       calls.append(_name) or _real(x))
        sim = _step_engine(plant)
    row = (0.0, -12.0, 0.0, 0.0, 0.0)          # the tray falls faster than gravity
    new, ref = _slip_step_cases(plant, (0.0, 0.0, 0.0, 0.1), (row,) * 3, 1e-3, 1.0, sim)
    assert new == ref == "contact lost at t = 0.2 s"
    assert calls.count("sin") == calls.count("cos") == 0
