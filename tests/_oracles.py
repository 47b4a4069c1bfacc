"""Closed forms, the matrix route of rotations and of the mount, the scalar
pose chains, reference writers, per-sample smoother stages, the contact
model's reference formulas, the pendulum's own integration loop, the generic
stick and slip sub-steps, the linear slosh oscillator and the desk-scale
plant, which the tests compare the package against or build their cases
from; and the switch between the two paths of the compiled pieces: the
engine's step loop, the oscillator recurrence and the table writer."""

import contextlib
import math
from collections import deque

import numpy as np
import pytest

from traywaiter.compensation import FreeFallError, tilt_angles
from traywaiter import _native, dynamics
from traywaiter.dynamics import (
    SLIP,
    STICK,
    ContactLostError,
    IntegrationError,
    PlantParams,
    SimTrace,
    _input_terms,
    _MotionSampler,
    _resolve_steps,
    _square,
    _TraySim,
)
from traywaiter.smoothers import (
    DampedHarmonic,
    Trapezoidal,
    _quantize,
)


def planar_tilt(ax: float, az: float, g: float) -> float:
    """Planar compensation angle beta* = -atan(ax / (g + az))."""
    gz = g + az
    if gz <= 0.0:
        raise FreeFallError(f"g + az = {gz} <= 0: tilt compensation undefined")
    return -math.atan2(ax, gz) + 0.0


# The matrix route the package took before it kept every rotation as a
# quaternion: the mount's 4x4 matrix from its rpy, and the stacked converters
# between rotation matrices and unit quaternions.

def _rpy_matrix(rpy) -> np.ndarray:
    """Fixed-axis rotation Rot_z(yaw) Rot_y(pitch) Rot_x(roll) of
    rpy = (roll, pitch, yaw)."""
    r, p, y = rpy
    cr, sr = math.cos(r), math.sin(r)
    cp, sp = math.cos(p), math.sin(p)
    cy, sy = math.cos(y), math.sin(y)
    return np.array([
        [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
        [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
        [-sp, cp * sr, cp * cr],
    ])


def mount_matrix(mount) -> np.ndarray:
    """The homogeneous 4x4 T_F_CoR of a MountingTransform."""
    m = np.eye(4)
    m[:3, :3] = _rpy_matrix(mount.rotation_rpy)
    m[:3, 3] = mount.position
    return m


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
    w, x, y, z = (np.select(taken, [b[i] for b in branches]) for i in range(4))
    norm = np.sqrt(w * w + x * x + y * y + z * z) * np.where(w < 0.0, -1.0, 1.0)
    q = np.column_stack([w / norm, x / norm, y / norm, z / norm])
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


def matrix_route_mount(mount):
    """(flange_quaternion, flange_offset) of a mount by the matrix route:
    _rpy_matrix, rotation_to_quaternion and its conjugate, and -R^T p."""
    m = mount_matrix(mount)
    w, x, y, z = rotation_to_quaternion(m[:3, :3]).tolist()
    R, p = m[:3, :3].tolist(), m[:3, 3].tolist()
    return (w, -x, -y, -z), tuple(-(R[0][i] * p[0] + R[1][i] * p[1] + R[2][i] * p[2])
                                  for i in range(3))


# The pose chain one sample at a time, as the package wrote it before the
# closed-form tilt quaternion: tilt angles, the attitude built from math.cos
# and math.sin, the flange pose from a 4x4 identity and the mount's matrix
# inverse, and the per-matrix quaternion formulas of rotation_to_quaternion.
# It shares no formula with the closed form, so it checks its geometry.

def _rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def scalar_rotation_matrix(beta: float, phi: float) -> np.ndarray:
    """Tray attitude Rot_z(phi) @ Rot_y(beta) @ Rot_z(-phi)."""
    return _rot_z(phi) @ _rot_y(beta) @ _rot_z(-phi)


def scalar_flange_pose(position, rotation: np.ndarray, mount) -> np.ndarray:
    """Flange pose T_0_F = T_0_CoR @ inv(T_F_CoR) of one sample."""
    T = np.eye(4)
    T[:3, :3] = rotation
    T[:3, 3] = np.asarray(position, dtype=float)
    return T @ np.linalg.inv(mount_matrix(mount))


def _scalar_quaternion(R):
    """The per-matrix formulas rotation_to_quaternion applies to each matrix."""
    m00, m01, m02 = R[0]
    m10, m11, m12 = R[1]
    m20, m21, m22 = R[2]
    tr = m00 + m11 + m22
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = [0.25 * s, (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s]
    elif m00 >= m11 and m00 >= m22:
        s = math.sqrt(1.0 + m00 - m11 - m22) * 2.0
        q = [(m21 - m12) / s, 0.25 * s, (m01 + m10) / s, (m02 + m20) / s]
    elif m11 >= m22:
        s = math.sqrt(1.0 + m11 - m00 - m22) * 2.0
        q = [(m02 - m20) / s, (m01 + m10) / s, 0.25 * s, (m12 + m21) / s]
    else:
        s = math.sqrt(1.0 + m22 - m00 - m11) * 2.0
        q = [(m10 - m01) / s, (m02 + m20) / s, (m12 + m21) / s, 0.25 * s]
    return _unit_w_nonnegative(*map(float, q))


def _unit_w_nonnegative(w, x, y, z):
    """(w, x, y, z) with w >= 0, divided by its norm."""
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    return np.array([w / norm, x / norm, y / norm, z / norm])


def scalar_poses(positions, accelerations, g, mount):
    """Flange positions (n, 3) and quaternions (n, 4), one sample at a time:
    tilt_angles -> scalar_rotation_matrix -> scalar_flange_pose ->
    _scalar_quaternion."""
    flanges = [scalar_flange_pose(p, scalar_rotation_matrix(*tilt_angles(a, g)), mount)
               for p, a in zip(positions, accelerations)]
    return (np.array([f[:3, 3] for f in flanges]),
            np.array([_scalar_quaternion(f[:3, :3]) for f in flanges]))


def closed_form_poses(positions, accelerations, g, mount):
    """Flange positions (n, 3) and quaternions (n, 4) from the closed form,
    one sample at a time in math: the tray quaternion (L + gz, -ay, ax, 0)
    normalized, each row first scaled by the power of two that brings its
    largest entry into [0.5, 1); the flange quaternion q_tray * conj(q_m)
    with w >= 0, normalized; the flange position p + R_tray c with
    c = -R_m^T p_m, rotated as c + w t + u x t, t = 2 u x c."""
    (mw, mx, my, mz), (cx, cy, cz) = matrix_route_mount(mount)
    pos_out, quat_out = [], []
    for (px, py, pz), (ax, ay, az) in zip(np.asarray(positions, dtype=float).tolist(),
                                          np.asarray(accelerations, dtype=float).tolist()):
        gz = g + az
        if gz <= 0.0:
            raise FreeFallError(f"g + az = {gz} <= 0: tilt compensation undefined")
        e = math.frexp(max(abs(ax), abs(ay), gz))[1]
        ax, ay, gz = math.ldexp(ax, -e), math.ldexp(ay, -e), math.ldexp(gz, -e)
        lw = math.sqrt(ax * ax + ay * ay + gz * gz) + gz
        n = math.sqrt(lw * lw + ay * ay + ax * ax)
        w, x, y, z = lw / n, -ay / n, ax / n, 0.0
        tx = 2.0 * (y * cz - z * cy)
        ty = 2.0 * (z * cx - x * cz)
        tz = 2.0 * (x * cy - y * cx)
        pos_out.append([px + (cx + w * tx + (y * tz - z * ty)),
                        py + (cy + w * ty + (z * tx - x * tz)),
                        pz + (cz + w * tz + (x * ty - y * tx))])
        quat_out.append(_unit_w_nonnegative(w * mw - x * mx - y * my - z * mz,
                                            w * mx + x * mw + y * mz - z * my,
                                            w * my - x * mz + y * mw + z * mx,
                                            w * mz + x * my - y * mx + z * mw))
    return np.array(pos_out).reshape(-1, 3), np.array(quat_out).reshape(-1, 4)


def desk_params(**overrides) -> PlantParams:
    """Desk-scale defaults used across the test suite (delta ~= 0.05)."""
    values = dict(m=0.1, M=0.5, l=0.05, h=0.05, d_z=0.02,
                  b_lc=3.5e-4, b_ct=0.0, mu=0.3, g=9.81)
    values.update(overrides)
    return PlantParams(**values)


class TrayMotion(dynamics.TrayMotion):
    """The package's TrayMotion with the all-zero motion the tests start from."""

    @classmethod
    def rest(cls, duration: float, dt: float) -> "TrayMotion":
        n = max(2, int(round(duration / dt)) + 1)
        z = np.zeros(n)
        return cls(dt, z, z.copy(), z.copy(), z.copy(), z.copy())


def linear_slosh_params(params: PlantParams) -> tuple[float, float]:
    """(omega_n, delta) of the linearized slosh oscillator."""
    if params.m <= 0.0:
        raise ValueError("linearized slosh needs m > 0")
    omega_n = math.sqrt(params.g / params.l)
    delta = params.b_lc / (2.0 * params.m * params.l * params.l * omega_n)
    return omega_n, delta


def repr_table_chunks(header: str, rows):
    """The per-float repr() table writer, the definition both of
    `_native.csv_rows`' writers are held to: the header line, then
    1024-row blocks of comma-separated repr() floats."""
    rows = np.asarray(rows, dtype=float)
    yield header + "\n"
    for start in range(0, len(rows), 1024):
        block = rows[start:start + 1024].tolist()
        yield "\n".join(",".join(map(repr, row)) for row in block) + "\n"


# The per-sample realizations of the smoother stages that CascadeState.run
# replaced, kept verbatim (apart from their names): one sample per step() on
# deque delay lines.

class RectStageRef:
    """Moving average with trapezoid weights (exact integral of the linearly
    interpolated input over the box support); derivatives come from the
    delay-line differences, never from differentiating the output."""

    def __init__(self, n: int, dt: float):
        self.n = n
        self.t_span = n * dt
        self._vals = None
        self._vels = None
        self._sum = 0.0

    def prime(self, u: float, v: float, a: float) -> None:
        self._vals = deque([u] * (self.n + 1))
        self._vels = deque([v] * (self.n + 1))
        self._sum = self.n * u

    def step(self, u: float, v: float, a: float):
        vals = self._vals
        prev = vals[-1]
        old2 = vals.popleft()          # u[k-N-1]
        old1 = vals[0]                 # u[k-N]
        vals.append(u)
        self._sum += 0.5 * ((u + prev) - (old1 + old2))
        vels = self._vels
        vels.popleft()
        vold = vels[0]
        vels.append(v)
        return (self._sum / self.n,
                (u - old1) / self.t_span,
                (v - vold) / self.t_span)


class OscStageRef:
    """Second-order core in controllable canonical form, fed by the
    two-impulse stage K*(u(t) + e^{sigma T} u(t-T)).

    The pole pair sigma +/- j pi/T is propagated with the exact matrix
    exponential over one sample (forcing held at the midpoint average), so
    the pole/zero cancellation that ends the transient is exact at float
    precision and the DC fixed point is reached bit-tightly.
    """

    def __init__(self, sigma: float, n: int, dt: float):
        self.n = n
        self.t_span = n * dt
        t_span = self.t_span
        wp = math.pi / t_span
        self.a0 = sigma * sigma + wp * wp
        self.a1 = -2.0 * sigma
        self.w_tap = math.exp(sigma * t_span)
        self.gain = self.a0 / (1.0 + self.w_tap)
        e = math.exp(sigma * dt)
        c = math.cos(wp * dt)
        s = math.sin(wp * dt)
        self.f11 = e * (c - sigma * s / wp)
        self.f12 = e * s / wp
        self.f21 = -self.a0 * self.f12
        self.f22 = e * (c + sigma * s / wp)
        self.g1 = (1.0 - self.f22 - self.a1 * self.f12) / self.a0
        self.g2 = self.f12
        self._buf = None

    def prime(self, u: float, v: float, a: float) -> None:
        self._buf = deque([u] * (self.n + 1))
        self.x1 = u
        self.x2 = 0.0
        self._w_prev = self.a0 * u

    def step(self, u: float, v: float, a: float):
        buf = self._buf
        buf.popleft()
        delayed = buf[0]
        buf.append(u)
        w = self.gain * (u + self.w_tap * delayed)
        f = 0.5 * (self._w_prev + w)
        x1 = self.f11 * self.x1 + self.f12 * self.x2 + self.g1 * f
        x2 = self.f21 * self.x1 + self.f22 * self.x2 + self.g2 * f
        self.x1, self.x2, self._w_prev = x1, x2, w
        return x1, x2, w - self.a0 * x1 - self.a1 * x2


# the paths of a compiled piece, to parametrize a test with: the compiled
# library, where a C compiler is at hand, and the Python fallback
LIBRARY_PATHS = [
    pytest.param("compiled", marks=pytest.mark.skipif(_native._compiler() is None,
                                                      reason="no C compiler")),
    "python",
]


def python_loops(*args):
    """`_native.loops` as where the library is not built: the engine runs
    every step in Python, while the oscillator and the writer stay compiled."""
    return _native.no_steps


@contextlib.contextmanager
def library_path(path, piece, size):
    """The compiled piece `piece` (a function of the library) runs on `path`
    inside the block. "python" patches the compiled library away and yields
    None. "compiled" requires the library, so that a silent fallback fails,
    and yields a list that gets argument `size` of every call of `piece`."""
    with pytest.MonkeyPatch.context() as mp:
        if path == "python":
            mp.setattr(_native, "library", lambda: None)
            yield None
            return
        lib = _native.library()
        assert lib is not None, "the compiled library did not build"
        calls = []
        fn = getattr(lib, piece)

        def counted(*args):
            calls.append(args[size])
            return fn(*args)
        mp.setattr(lib, piece, counted)
        yield calls


def oscillator_path(path):
    """The oscillator stages built inside the block run their recurrence on
    `path`; the compiled path's list gets the block length of each call."""
    return library_path(path, "osc_steps", 2)


def writer_path(path):
    """The tables written inside the block are laid out on `path`; the
    compiled path's list gets the number of values of each call."""
    return library_path(path, "csv_rows", 1)


def per_sample_stages(kind, dt: float) -> list:
    """The serial stages of one smoother kind, as per-sample references."""
    if isinstance(kind, Trapezoidal):
        return [RectStageRef(_quantize(kind.T1, dt), dt),
                RectStageRef(_quantize(kind.T2, dt), dt)]
    if isinstance(kind, DampedHarmonic):
        return [OscStageRef(kind.sigma, _quantize(kind.T, dt), dt)]
    raise TypeError(f"not a smoother kind: {kind!r}")


# The contact model as the reference formulas the engine's contact model
# was written out from, kept verbatim: the pendulum equation, the normal
# force N and the demand D of the container held still, and the stick test
# built from them. The property tests pin the engine's stick test and slide
# and its RK4 sub-step in both modes to these bit for bit.

def _pendulum_rhs(p: PlantParams, damp: float, th: float, thd: float,
                  dx: float, dxd: float, u) -> float:
    """l theta_ddot + cos(theta) d_x_ddot: the pendulum equation with the
    container's acceleration moved to the left-hand side."""
    xtt, gz, b, bd, bdd, _, _, hbb, _, _ = u
    st, ct = math.sin(th), math.cos(th)
    return -(damp * thd
             + (p.l - p.h * ct + dx * st) * bdd
             + ct * (-dx * bd * bd)
             + st * (2.0 * bd * dxd - hbb)
             + math.sin(b + th) * gz + math.cos(b + th) * xtt)


def _normal(p: PlantParams, th: float, thd: float, dx: float, dxd: float,
            u, thdd: float) -> float:
    """N(theta_ddot): the normal force on the container held still on the
    tray while the pendulum accelerates at theta_ddot."""
    _, _, _, bd, bdd, n_u, _, _, dzbb, bb = u
    m, l = p.m, p.l
    ct = math.cos(th)
    return ((p.M + m) * (n_u + dx * bdd + 2.0 * bd * dxd - dzbb)
            + m * (l * math.sin(th) * (bdd + thdd) + l * ct * thd * (2.0 * bd + thd)
                   + bb * (l * ct - p.h)))


def _demand(p: PlantParams, th: float, thd: float, dx: float, dxd: float,
            u, thdd: float) -> float:
    """D(theta_ddot): the tangential force friction must supply to hold the
    container still on the tray while the pendulum accelerates at
    theta_ddot."""
    _, _, _, bd, bdd, _, d_u, _, _, _ = u
    m, M, l = p.m, p.M, p.l
    ct = math.cos(th)
    return (d_u
            + ((l * ct - p.h) * m - p.d_z * M) * bdd
            + m * l * ct * thdd
            - l * m * math.sin(th) * _square(bd + thd)
            - (m + M) * dx * bd * bd
            + p.b_ct * dxd)


def _stick_rates(p: PlantParams, damp: float, th: float, thd: float,
                 dx: float, dxd: float, u) -> tuple[float, float]:
    """(theta_ddot, N) with the container held still: all that an RK4 stage
    in stick mode needs."""
    thdd = _pendulum_rhs(p, damp, th, thd, dx, dxd, u) / p.l if p.m > 0.0 else 0.0
    return thdd, _normal(p, th, thd, dx, dxd, u, thdd)


def _stick_eval(p: PlantParams, damp: float, th: float, thd: float,
                dx: float, dxd: float, u) -> tuple[float, float, float, float]:
    """(theta_ddot, N, D, F_s) of the stick test: the contact model with the
    container held still, so theta_ddot is the pendulum's own."""
    thdd, normal = _stick_rates(p, damp, th, thd, dx, dxd, u)
    return thdd, normal, _demand(p, th, thd, dx, dxd, u, thdd), p.mu * normal


# The pendulum's own fixed-step loop, which the stick/slip engine at
# unbounded friction replaced, kept as it was apart from the _pendulum_rhs
# call and the input terms it reads. _rk4_ref is the generic
# classical RK4 step over a rates function; this loop and the generic stick
# and slip sub-steps below, which run it on the reference formulas, are the
# oracles the engine's one RK4 sub-step is checked against.

def _rk4_ref(rates, y, h, u0, um, u1):
    hh = 0.5 * h
    k1 = rates(y, u0)
    k2 = rates([a + hh * b for a, b in zip(y, k1)], um)
    k3 = rates([a + hh * b for a, b in zip(y, k2)], um)
    k4 = rates([a + h * b for a, b in zip(y, k3)], u1)
    return tuple([a + h * (b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0
                  for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])


def pinned_pendulum(params: PlantParams, motion: TrayMotion,
                    init: tuple[float, float] = (0.0, 0.0),
                    dt: float | None = None) -> SimTrace:
    """Integrate the nonlinear slosh pendulum with the container fixed on the
    tray (d_x identically zero)."""
    p = params
    if p.m <= 0.0:
        raise ValueError("the pinned pendulum needs a pendulum mass m > 0")
    damp = p.b_lc / (p.m * p.l)
    dt, n_steps = _resolve_steps(motion, dt)
    smp = _MotionSampler(motion, dt, n_steps)
    th, thd = float(init[0]), float(init[1])

    theta = np.empty(n_steps + 1)
    theta_dot = np.empty(n_steps + 1)
    demand = np.empty(n_steps + 1)
    f_s = np.empty(n_steps + 1)

    def record(k, th, thd, u):
        theta[k] = th
        theta_dot[k] = thd
        _, normal, dem, fs = _stick_eval(p, damp, th, thd, 0.0, 0.0, u)
        demand[k] = dem
        f_s[k] = fs
        if normal <= 0.0:
            raise ContactLostError(f"contact lost at t = {k * dt:.6g} s")

    def rates(y, u):
        return y[1], _pendulum_rhs(p, damp, y[0], y[1], 0.0, 0.0, u) / p.l

    grid = [_input_terms(p, row) for row in smp.grid.tolist()]
    mid = [_input_terms(p, row) for row in smp.mid.tolist()]
    u1 = grid[0]
    record(0, th, thd, u1)
    for k in range(n_steps):
        u0, u1 = u1, grid[k + 1]
        th, thd = _rk4_ref(rates, (th, thd), dt, u0, mid[k], u1)
        if not (math.isfinite(th) and math.isfinite(thd)):
            raise IntegrationError(f"non-finite pendulum state at t = {(k + 1) * dt:.6g} s")
        record(k + 1, th, thd, u1)

    t = np.arange(n_steps + 1) * dt
    zeros = np.zeros(n_steps + 1)
    return SimTrace(t, theta, theta_dot, zeros, zeros.copy(),
                    np.zeros(n_steps + 1, dtype=np.uint8), demand, f_s, [])


# The engine's stick sub-step written as calls of the reference formulas:
# the stick rates of the 4-state state (theta, theta_dot, d_x, d_x_dot)
# through the generic RK4 step. GenericStickSim is the engine with this
# sub-step followed by the reference stick test at the end state in place
# of `_advance` while sticking; `steps` counts the sub-steps it took. Like
# GenericSlipSim, it runs every step in Python, not in the compiled loops.

def generic_stick_step(p, damp, y, t, h, inputs):
    def rates(y, u):
        thdd, normal = _stick_rates(p, damp, y[0], y[1], y[2], 0.0, u)
        if normal <= 0.0:
            raise ContactLostError(f"contact lost at t = {t:.6g} s")
        return (y[1], thdd, 0.0, 0.0)
    return _rk4_ref(rates, y, h, *inputs)


class GenericStickSim(_TraySim):
    steps = 0

    def _loops(self, trace):
        return _native.no_steps

    def _advance(self, y, t, h, mode, inputs):
        if mode != STICK:
            return super()._advance(y, t, h, mode, inputs)
        self.steps += 1
        y_new = generic_stick_step(self.p, self.damp, y, t, h, inputs)
        return y_new, _stick_eval(self.p, self.damp, *y_new[:3], 0.0, inputs[2])


# The contact model while sliding and the engine's slip sub-step written as
# calls of the reference formulas: the slip rates of the 4-state state
# through the generic RK4 step. GenericSlipSim is the engine with this
# sub-step followed by the reference stick test at the end state in place
# of `_advance` while sliding; `steps` counts the sub-steps it took.

def _slip_eval(p: PlantParams, damp: float, th: float, thd: float,
               dx: float, dxd: float, s: float, u) -> tuple[float, float, float]:
    """(theta_ddot, d_x_ddot, N) while sliding with sign s.

    The contact model is taken at theta_ddot = 0; its theta_ddot terms,
    m l cos(theta) theta_ddot in D and m l sin(theta) theta_ddot in N, go
    back in through the coupling matrix, so the system stays linear."""
    m, M, l = p.m, p.M, p.l
    nf0 = _normal(p, th, thd, dx, dxd, u, 0.0)
    b2 = -_demand(p, th, thd, dx, dxd, u, 0.0) - s * p.mu * nf0
    if m == 0.0:
        return 0.0, b2 / M, nf0
    # solve [l, ct; a21, m+M] [theta_ddot, d_x_ddot] = [r1, b2]
    st, ct = math.sin(th), math.cos(th)
    r1 = _pendulum_rhs(p, damp, th, thd, dx, dxd, u)
    a21 = m * l * ct + s * p.mu * m * l * st
    det = l * (m + M) - ct * a21
    if abs(det) < 1e-12 * l * (m + M):
        raise IntegrationError("singular coupling matrix in slip dynamics")
    thdd = (r1 * (m + M) - ct * b2) / det
    return thdd, (l * b2 - a21 * r1) / det, nf0 + m * l * st * thdd


def generic_slip_step(p, damp, s, y, t, h, inputs):
    def rates(y, u):
        thdd, dxdd, normal = _slip_eval(p, damp, y[0], y[1], y[2], y[3], s, u)
        if normal <= 0.0:
            raise ContactLostError(f"contact lost at t = {t:.6g} s")
        return (y[1], thdd, y[3], dxdd)
    return _rk4_ref(rates, y, h, *inputs)


class GenericSlipSim(_TraySim):
    steps = 0

    def _loops(self, trace):
        return _native.no_steps

    def _advance(self, y, t, h, mode, inputs):
        if mode != SLIP:
            return super()._advance(y, t, h, mode, inputs)
        self.steps += 1
        y_new = generic_slip_step(self.p, self.damp, self.slip_sign, y, t, h, inputs)
        return y_new, _stick_eval(self.p, self.damp, *y_new, inputs[2])


# The linear slosh oscillator with its own loop, independent of the engine,
# and the 4-point midpoint stencil that the motion sampler also uses.

def _midpoints(u: np.ndarray) -> np.ndarray:
    n = u.size
    if n >= 4:
        um = np.empty(n - 1)
        um[1:-1] = (-u[:-3] + 9.0 * u[1:-2] + 9.0 * u[2:-1] - u[3:]) / 16.0
        um[0] = (5.0 * u[0] + 15.0 * u[1] - 5.0 * u[2] + u[3]) / 16.0
        um[-1] = (u[-4] - 5.0 * u[-3] + 15.0 * u[-2] + 5.0 * u[-1]) / 16.0
        return um
    return 0.5 * (u[:-1] + u[1:])


def simulate_linear_slosh(omega_n: float, delta: float, accel_series, dt: float,
                          init: tuple[float, float] = (0.0, 0.0),
                          g: float = 9.81) -> tuple[np.ndarray, np.ndarray]:
    """Linearized slosh oscillator theta'' + 2 delta w theta' + w^2 theta =
    -x_ddot / l with l = g / w^2; returns (theta, theta_dot) on the input grid.
    """
    if not (omega_n > 0.0 and 0.0 <= delta < 1.0 and dt > 0.0):
        raise ValueError("need omega_n > 0, 0 <= delta < 1, dt > 0")
    acc = np.asarray(accel_series, dtype=float)
    if not np.all(np.isfinite(acc)):
        raise ValueError("acceleration series contains non-finite values")
    l = g / (omega_n * omega_n)
    u = -acc / l
    n = acc.size
    um = _midpoints(u)  # 4-point stencil, same as the motion sampler
    two_dw = 2.0 * delta * omega_n
    w2 = omega_n * omega_n
    th, thd = float(init[0]), float(init[1])
    theta = np.empty(n)
    theta_dot = np.empty(n)
    theta[0] = th
    theta_dot[0] = thd

    def f(x, v, uk):
        return uk - two_dw * v - w2 * x

    for k in range(n - 1):
        u0, u_half, u1 = u[k], um[k], u[k + 1]
        k1 = f(th, thd, u0)
        x2, v2 = th + 0.5 * dt * thd, thd + 0.5 * dt * k1
        k2 = f(x2, v2, u_half)
        x3, v3 = th + 0.5 * dt * v2, thd + 0.5 * dt * k2
        k3 = f(x3, v3, u_half)
        x4, v4 = th + dt * v3, thd + dt * k3
        k4 = f(x4, v4, u1)
        th += dt * (thd + 2.0 * v2 + 2.0 * v3 + v4) / 6.0
        thd += dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        theta[k + 1] = th
        theta_dot[k + 1] = thd
    if not np.all(np.isfinite(theta)):
        raise IntegrationError("non-finite state in linear slosh integration")
    return theta, theta_dot
