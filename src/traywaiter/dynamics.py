"""Planar physics of the tray-container-liquid system.

The liquid's first slosh mode is an equivalent pendulum (angle theta) whose
pivot sits at the liquid surface; the container of mass M can slide on the
tray (offset d_x) against dry friction, modelled as a differential inclusion
with a set-valued force at zero velocity. The tray's translation
(x_ddot, z_ddot) and tilt channel (beta, beta_dot, beta_ddot) are disturbance
inputs; they are never differentiated from positions here.

Integration is explicit fixed-step RK4 with bisection localization of
stick/slip transitions, so runs are deterministic and convergence is clean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .smoothers import transfer_function

__all__ = [
    "PlantParams",
    "TrayMotion",
    "SimState",
    "SimTrace",
    "ContactLostError",
    "IntegrationError",
    "desk_params",
    "linear_slosh_params",
    "analytic_tilt_channel",
    "fd_tilt_channel",
    "friction_margin",
    "simulate_pendulum",
    "simulate_linear_slosh",
    "simulate_solid_sliding",
    "simulate_coupled",
    "estimate_prv",
]

STICK, SLIP = 0, 1

_EVENT_TOL = 1e-10       # s, bisection width for mode transitions
_V_EPS = 1e-6            # m/s, stick capture velocity
_MAX_EVENTS_PER_STEP = 64


class ContactLostError(RuntimeError):
    """Normal force reached zero: the container left the tray surface."""


class IntegrationError(RuntimeError):
    """Simulation produced a non-finite state or could not make progress."""


@dataclass(frozen=True)
class PlantParams:
    """Physical parameters of the liquid/container/tray system.

    m      slosh pendulum mass (kg); 0 models a dry solid object
    M      container plus non-sloshing liquid mass (kg)
    l      equivalent pendulum length (m)
    h      liquid surface height above the tray frame origin (m)
    d_z    container height offset from the center of rotation (m)
    b_lc   liquid-container damping (N m s), enters as b_lc/(m l) theta_dot
    b_ct   container-tray viscous friction (N s/m)
    mu     static dry friction coefficient (kinetic is taken equal)
    g      gravity (m/s^2)
    """

    m: float
    M: float
    l: float
    h: float
    d_z: float
    b_lc: float
    b_ct: float
    mu: float
    g: float = 9.81

    def __post_init__(self):
        if self.m < 0.0:
            raise ValueError(f"m must be >= 0, got {self.m}")
        for name in ("M", "l", "h", "g"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("b_lc", "b_ct", "mu"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.m == 0.0 and self.b_lc != 0.0:
            raise ValueError("b_lc requires a nonzero pendulum mass m")


def desk_params(**overrides) -> PlantParams:
    """Desk-scale defaults used across the test suite (delta ~= 0.05)."""
    values = dict(m=0.1, M=0.5, l=0.05, h=0.05, d_z=0.02,
                  b_lc=3.5e-4, b_ct=0.0, mu=0.3, g=9.81)
    values.update(overrides)
    return PlantParams(**values)


def linear_slosh_params(params: PlantParams) -> tuple[float, float]:
    """(omega_n, delta) of the linearized slosh oscillator."""
    if params.m <= 0.0:
        raise ValueError("linearized slosh needs m > 0")
    omega_n = math.sqrt(params.g / params.l)
    delta = params.b_lc / (2.0 * params.m * params.l * params.l * omega_n)
    return omega_n, delta


# ---------------------------------------------------------------------------
# tray motion (disturbance inputs)
# ---------------------------------------------------------------------------

def _cumtrapz(y: np.ndarray, dt: float) -> np.ndarray:
    out = np.zeros_like(y)
    np.cumsum(0.5 * (y[1:] + y[:-1]) * dt, out=out[1:])
    return out


@dataclass
class TrayMotion:
    """Uniformly sampled tray translation and tilt channels.

    `interp` selects how values between samples are produced for the
    integrator: 'cubic' (4-point Lagrange, for smooth channels) or 'linear'
    (shape preserving, for bang-bang profiles).
    """

    dt: float
    x: np.ndarray
    z: np.ndarray
    x_dot: np.ndarray
    z_dot: np.ndarray
    x_ddot: np.ndarray
    z_ddot: np.ndarray
    beta: np.ndarray
    beta_dot: np.ndarray
    beta_ddot: np.ndarray
    interp: str = "cubic"

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.interp not in ("cubic", "linear"):
            raise ValueError(f"interp must be 'cubic' or 'linear', got {self.interp!r}")
        arrays = [np.asarray(getattr(self, name), dtype=float) for name in
                  ("x", "z", "x_dot", "z_dot", "x_ddot", "z_ddot",
                   "beta", "beta_dot", "beta_ddot")]
        n = arrays[0].size
        if n < 2:
            raise ValueError("motion needs at least two samples")
        for name, arr in zip(("x", "z", "x_dot", "z_dot", "x_ddot", "z_ddot",
                              "beta", "beta_dot", "beta_ddot"), arrays):
            if arr.size != n:
                raise ValueError(f"channel {name} has length {arr.size}, expected {n}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"channel {name} contains non-finite values")
            setattr(self, name, arr)

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def duration(self) -> float:
        return (self.n - 1) * self.dt

    @classmethod
    def rest(cls, duration: float, dt: float) -> "TrayMotion":
        n = max(2, int(round(duration / dt)) + 1)
        z = np.zeros(n)
        return cls(dt, z, z.copy(), z.copy(), z.copy(), z.copy(), z.copy(),
                   z.copy(), z.copy(), z.copy())

    @classmethod
    def from_channels(cls, dt: float, x_ddot, z_ddot=None, beta=None,
                      beta_dot=None, beta_ddot=None, interp: str = "cubic",
                      ) -> "TrayMotion":
        """Build a motion from acceleration (and optional tilt) series,
        integrating position/velocity bookkeeping channels from rest."""
        x_ddot = np.asarray(x_ddot, dtype=float)
        n = x_ddot.size
        zeros = np.zeros(n)
        z_ddot = zeros if z_ddot is None else np.asarray(z_ddot, dtype=float)
        beta = zeros if beta is None else np.asarray(beta, dtype=float)
        beta_dot = zeros if beta_dot is None else np.asarray(beta_dot, dtype=float)
        beta_ddot = zeros if beta_ddot is None else np.asarray(beta_ddot, dtype=float)
        x_dot = _cumtrapz(x_ddot, dt)
        z_dot = _cumtrapz(z_ddot, dt)
        return cls(dt, _cumtrapz(x_dot, dt), _cumtrapz(z_dot, dt), x_dot, z_dot,
                   x_ddot, z_ddot, beta, beta_dot, beta_ddot, interp=interp)

    def with_tilt(self, beta, beta_dot, beta_ddot) -> "TrayMotion":
        return TrayMotion(self.dt, self.x, self.z, self.x_dot, self.z_dot,
                          self.x_ddot, self.z_ddot, np.asarray(beta, dtype=float),
                          np.asarray(beta_dot, dtype=float),
                          np.asarray(beta_ddot, dtype=float), interp=self.interp)


def analytic_tilt_channel(acc_x, jerk_x, snap_x, acc_z, jerk_z, snap_z, g):
    """(beta, beta_dot, beta_ddot) of the planar compensation angle
    beta = -atan(acc_x / (g + acc_z)) from analytic derivative chains."""
    u = np.asarray(acc_x, dtype=float)
    du = np.asarray(jerk_x, dtype=float)
    ddu = np.asarray(snap_x, dtype=float)
    v = g + np.asarray(acc_z, dtype=float)
    dv = np.asarray(jerk_z, dtype=float)
    ddv = np.asarray(snap_z, dtype=float)
    if np.any(v <= 0.0):
        raise ValueError("g + acc_z must stay positive for tilt compensation")
    q = u * u + v * v
    num = du * v - u * dv
    beta = -np.arctan2(u, v)
    beta_dot = -num / q
    beta_ddot = -((ddu * v - u * ddv) * q - num * 2.0 * (u * du + v * dv)) / (q * q)
    return beta, beta_dot, beta_ddot


def fd_tilt_channel(acc_x, acc_z, dt, g):
    """Tilt channel with beta exact per sample and derivatives from central
    finite differences (for motions whose jerk is not available)."""
    u = np.asarray(acc_x, dtype=float)
    v = g + np.asarray(acc_z, dtype=float)
    if np.any(v <= 0.0):
        raise ValueError("g + acc_z must stay positive for tilt compensation")
    beta = -np.arctan2(u, v)
    beta_dot = np.gradient(beta, dt)
    beta_ddot = np.gradient(beta_dot, dt)
    return beta, beta_dot, beta_ddot


# ---------------------------------------------------------------------------
# state, trace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimState:
    theta: float
    theta_dot: float
    d_x: float
    d_x_dot: float
    contact_mode: str = "stick"


@dataclass
class SimTrace:
    """Time series of the simulator state plus friction bookkeeping.

    demand and f_s are both evaluated under the frozen-container hypothesis
    (the same stick test friction_margin computes), so their margin decides
    stick/slip onset; during slip the force actually applied is mu times the
    normal force of the sliding dynamics, which differs at O(m l theta_ddot).
    """

    t: np.ndarray
    theta: np.ndarray
    theta_dot: np.ndarray
    d_x: np.ndarray
    d_x_dot: np.ndarray
    mode: np.ndarray                 # 0 = stick, 1 = slip
    demand: np.ndarray               # tangential force friction must supply
    f_s: np.ndarray                  # static friction bound
    transitions: list = field(default_factory=list)

    @property
    def margin(self) -> np.ndarray:
        """|tangential demand| - F_s; <= 0 whenever the contact sticks."""
        return np.abs(self.demand) - self.f_s

    @property
    def max_abs_theta(self) -> float:
        return float(np.abs(self.theta).max())

    @property
    def net_slip(self) -> float:
        return float(self.d_x[-1] - self.d_x[0])


# ---------------------------------------------------------------------------
# physics kernels
# ---------------------------------------------------------------------------

def _pendulum_rhs(p: PlantParams, damp: float, th: float, thd: float,
                  dx: float, dxd: float, dxdd: float, u) -> float:
    """theta_ddot for a prescribed container motion (d_x channel given)."""
    xtt, ztt, b, bd, bdd = u
    st, ct = math.sin(th), math.cos(th)
    gz = p.g + ztt
    b1 = -(damp * thd
           + (p.l - p.h * ct + dx * st) * bdd
           + ct * (dxdd - dx * bd * bd)
           + st * (2.0 * bd * dxd - p.h * bd * bd)
           + math.sin(b + th) * gz + math.cos(b + th) * xtt)
    return b1 / p.l


def _square(w: float) -> float:
    """w ** 2, or inf where that overflows.

    On Python floats ** raises OverflowError where numpy gave inf, and a
    diverging run must end in ContactLostError or IntegrationError. The
    product w * w is not used: it differs from the power in the last bit for
    about 0.05 % of arguments, which would change the traces.
    """
    try:
        return w ** 2
    except OverflowError:
        return math.inf


def _stick_rates(p: PlantParams, damp: float, th: float, thd: float,
                 dx: float, dxd: float, u) -> tuple[float, float]:
    """(theta_ddot, normal) with the container motion frozen: all that an
    RK4 stage in stick mode needs."""
    xtt, ztt, b, bd, bdd = u
    st, ct = math.sin(th), math.cos(th)
    sb, cb = math.sin(b), math.cos(b)
    gz = p.g + ztt
    m, M, l, h, dz = p.m, p.M, p.l, p.h, p.d_z
    if m > 0.0:
        thdd = _pendulum_rhs(p, damp, th, thd, dx, dxd, 0.0, u)
    else:
        thdd = 0.0
    normal = ((M + m) * (cb * gz - sb * xtt + dx * bdd + 2.0 * bd * dxd - dz * bd * bd)
              + m * (l * st * (bdd + thdd) + l * ct * thd * (2.0 * bd + thd)
                     + bd * bd * (l * ct - h)))
    return thdd, normal


def _stick_eval(p: PlantParams, damp: float, th: float, thd: float,
                dx: float, dxd: float, u):
    """(theta_ddot, demand, F_s, normal) with the container motion frozen."""
    thdd, normal = _stick_rates(p, damp, th, thd, dx, dxd, u)
    xtt, ztt, b, bd, bdd = u
    st, ct = math.sin(th), math.cos(th)
    sb, cb = math.sin(b), math.cos(b)
    gz = p.g + ztt
    m, M, l, h, dz = p.m, p.M, p.l, p.h, p.d_z
    demand = ((m + M) * (sb * gz + cb * xtt)
              + ((l * ct - h) * m - dz * M) * bdd
              + m * l * ct * thdd
              - l * m * st * _square(bd + thd)
              - (m + M) * dx * bd * bd
              + p.b_ct * dxd)
    return thdd, demand, p.mu * normal, normal


def _slip_eval(p: PlantParams, damp: float, th: float, thd: float,
               dx: float, dxd: float, s: float, u):
    """(theta_ddot, d_x_ddot, F_s, normal) while sliding with sign s."""
    xtt, ztt, b, bd, bdd = u
    st, ct = math.sin(th), math.cos(th)
    sb, cb = math.sin(b), math.cos(b)
    gz = p.g + ztt
    m, M, l, h, dz = p.m, p.M, p.l, p.h, p.d_z
    # normal force split: nf0 + m l sin(theta) theta_ddot
    nf0 = ((M + m) * (cb * gz - sb * xtt + dx * bdd + 2.0 * bd * dxd - dz * bd * bd)
           + m * (l * st * bdd + l * ct * thd * (2.0 * bd + thd)
                  + bd * bd * (l * ct - h)))
    b2 = -(p.b_ct * dxd
           + ((l * ct - h) * m - dz * M) * bdd
           - l * m * st * _square(bd + thd)
           - (m + M) * dx * bd * bd
           + (m + M) * (sb * gz + cb * xtt)) - s * p.mu * nf0
    if m > 0.0:
        # Solve [l, ct; a21, m+M] [thdd, dxdd] = [r1, b2]; the theta_ddot
        # part of F_s has been moved into a21 so the system stays linear.
        r1 = -(damp * thd
               + (l - h * ct + dx * st) * bdd
               + ct * (-dx * bd * bd)
               + st * (2.0 * bd * dxd - h * bd * bd)
               + math.sin(b + th) * gz + math.cos(b + th) * xtt)
        a21 = m * l * ct + s * p.mu * m * l * st
        det = l * (m + M) - ct * a21
        if abs(det) < 1e-12 * l * (m + M):
            raise IntegrationError("singular coupling matrix in slip dynamics")
        thdd = (r1 * (m + M) - ct * b2) / det
        dxdd = (l * b2 - a21 * r1) / det
    else:
        thdd = 0.0
        dxdd = b2 / (m + M)
    normal = nf0 + m * l * st * thdd
    return thdd, dxdd, p.mu * normal, normal


def friction_margin(state: SimState, params: PlantParams, motion_sample
                    ) -> tuple[float, float]:
    """Both sides of the no-slip condition at one instant.

    Returns (demand, F_s): the tangential force static friction would have to
    supply to keep the container from accelerating on the tray, and the
    friction bound mu times the normal force. The pendulum acceleration
    entering both terms is evaluated under the frozen-container hypothesis.
    """
    p = params
    damp = p.b_lc / (p.m * p.l) if p.m > 0.0 else 0.0
    _, demand, f_s, _ = _stick_eval(p, damp, state.theta, state.theta_dot,
                                    state.d_x, state.d_x_dot, tuple(motion_sample))
    return demand, f_s


# ---------------------------------------------------------------------------
# motion sampling for the integrator
# ---------------------------------------------------------------------------

_CHANNELS = ("x_ddot", "z_ddot", "beta", "beta_dot", "beta_ddot")


class _MotionSampler:
    """Evaluates the five disturbance channels on the integration grid, at
    step midpoints, and at arbitrary times (for event localization)."""

    def __init__(self, motion: TrayMotion, dt: float, n_steps: int):
        self.motion = motion
        self.dt = dt
        self.chan = np.vstack([getattr(motion, c) for c in _CHANNELS])
        t_grid = np.arange(n_steps + 1) * dt
        t_mid = (np.arange(n_steps) + 0.5) * dt
        self.grid = self._eval_many(t_grid)    # (n_steps+1, 5)
        self.mid = self._eval_many(t_mid)      # (n_steps, 5)

    def _eval_many(self, tq: np.ndarray) -> np.ndarray:
        m = self.motion
        nm = m.n
        uu = tq / m.dt
        if m.interp == "linear":
            j = np.clip(np.floor(uu).astype(int), 0, nm - 2)
            x = uu - j
            vals = self.chan[:, j] * (1.0 - x) + self.chan[:, j + 1] * x
            return vals.T.copy()
        j = np.clip(np.floor(uu).astype(int), 1, nm - 3)
        x = uu - j
        w0 = -x * (x - 1.0) * (x - 2.0) / 6.0
        w1 = (x + 1.0) * (x - 1.0) * (x - 2.0) / 2.0
        w2 = -(x + 1.0) * x * (x - 2.0) / 2.0
        w3 = (x + 1.0) * x * (x - 1.0) / 6.0
        vals = (self.chan[:, j - 1] * w0 + self.chan[:, j] * w1
                + self.chan[:, j + 1] * w2 + self.chan[:, j + 2] * w3)
        return vals.T.copy()

    def at(self, t: float) -> list:
        """The five channels at time t, as Python floats."""
        return self._eval_many(np.array([t]))[0].tolist()


# ---------------------------------------------------------------------------
# simulators
# ---------------------------------------------------------------------------

def _resolve_steps(motion: TrayMotion, dt: float | None) -> tuple[float, int]:
    dt = motion.dt if dt is None else float(dt)
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_steps = int(round(motion.duration / dt))
    if n_steps < 1:
        raise ValueError("motion shorter than one integration step")
    if abs(n_steps * dt - motion.duration) > 1e-9 * max(1.0, motion.duration):
        n_steps = int(math.floor(motion.duration / dt + 1e-12))
    return dt, n_steps


def _rk4(rates, y, h, u0, um, u1):
    """One classical RK4 step of y' = rates(y, u) with the inputs sampled at
    the start (u0), midpoint (um) and end (u1) of the step."""
    hh = 0.5 * h
    k1 = rates(y, u0)
    k2 = rates([a + hh * b for a, b in zip(y, k1)], um)
    k3 = rates([a + hh * b for a, b in zip(y, k2)], um)
    k4 = rates([a + h * b for a, b in zip(y, k3)], u1)
    return tuple([a + h * (b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0
                  for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])


def simulate_pendulum(params: PlantParams, motion: TrayMotion,
                      init: tuple[float, float] = (0.0, 0.0),
                      dt: float | None = None) -> SimTrace:
    """Integrate the nonlinear slosh pendulum with the container fixed on the
    tray (d_x identically zero)."""
    p = params
    if p.m <= 0.0:
        raise ValueError("simulate_pendulum needs a pendulum mass m > 0")
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
        _, dem, fs, normal = _stick_eval(p, damp, th, thd, 0.0, 0.0, u)
        demand[k] = dem
        f_s[k] = fs
        if normal <= 0.0:
            raise ContactLostError(f"contact lost at t = {k * dt:.6g} s")

    def rates(y, u):
        return y[1], _pendulum_rhs(p, damp, y[0], y[1], 0.0, 0.0, 0.0, u)

    u1 = smp.grid[0].tolist()
    record(0, th, thd, u1)
    for k in range(n_steps):
        u0, u1 = u1, smp.grid[k + 1].tolist()
        th, thd = _rk4(rates, (th, thd), dt, u0, smp.mid[k].tolist(), u1)
        if not (math.isfinite(th) and math.isfinite(thd)):
            raise IntegrationError(f"non-finite pendulum state at t = {(k + 1) * dt:.6g} s")
        record(k + 1, th, thd, u1)

    t = np.arange(n_steps + 1) * dt
    zeros = np.zeros(n_steps + 1)
    return SimTrace(t, theta, theta_dot, zeros, zeros.copy(),
                    np.zeros(n_steps + 1, dtype=np.uint8), demand, f_s, [])


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


class _TraySim:
    """Shared stick/slip event-stepping engine for the container (with or
    without the coupled pendulum)."""

    def __init__(self, params: PlantParams, motion: TrayMotion, dt: float | None,
                 init: tuple[float, float, float, float]):
        self.p = params
        self.damp = params.b_lc / (params.m * params.l) if params.m > 0.0 else 0.0
        self.dt, self.n_steps = _resolve_steps(motion, dt)
        self.smp = _MotionSampler(motion, self.dt, self.n_steps)
        self.y = [float(v) for v in init]      # theta, theta_dot, d_x, d_x_dot
        self.transitions: list = []
        self.slip_sign = 0.0

    def _advance(self, y, t, h, mode, inputs=None):
        """One RK4 sub-step of width h from time t; `inputs` holds the samples
        at (t, t+h/2, t+h) and is interpolated when not given. Contact loss
        in any stage is reported at the step time t."""
        if inputs is None:
            inputs = (self.smp.at(t), self.smp.at(t + 0.5 * h), self.smp.at(t + h))
        p, damp = self.p, self.damp
        if mode == STICK:
            def rates(y, u):
                thdd, normal = _stick_rates(p, damp, y[0], y[1], y[2], 0.0, u)
                if normal <= 0.0:
                    raise ContactLostError(f"contact lost at t = {t:.6g} s")
                return (y[1], thdd, 0.0, 0.0)
        else:
            s = self.slip_sign

            def rates(y, u):
                thdd, dxdd, _, normal = _slip_eval(p, damp, y[0], y[1], y[2], y[3], s, u)
                if normal <= 0.0:
                    raise ContactLostError(f"contact lost at t = {t:.6g} s")
                return (y[1], thdd, y[3], dxdd)
        return _rk4(rates, y, h, *inputs)

    # -- mode bookkeeping ----------------------------------------------------

    def _stick_test(self, y, u):
        """(demand, F_s, normal) of the stick test at state y, with the
        container velocity taken as zero."""
        return _stick_eval(self.p, self.damp, y[0], y[1], y[2], 0.0, u)[1:]

    def _stick_ok(self, y, u) -> bool:
        demand, f_s, _ = self._stick_test(y, u)
        return abs(demand) <= f_s

    def _log(self, t, old, new):
        names = {STICK: "stick", SLIP: "slip"}
        self.transitions.append((t, names[old], names[new]))

    def run(self) -> SimTrace:
        p = self.p
        dt = self.dt
        n = self.n_steps
        theta = np.empty(n + 1)
        theta_dot = np.empty(n + 1)
        d_x = np.empty(n + 1)
        d_x_dot = np.empty(n + 1)
        mode_arr = np.empty(n + 1, dtype=np.uint8)
        demand_arr = np.empty(n + 1)
        fs_arr = np.empty(n + 1)

        y = tuple(self.y)
        u0 = self.smp.grid[0].tolist()
        if abs(y[3]) < _V_EPS and self._stick_ok(y, u0):
            mode = STICK
            y = (y[0], y[1], y[2], 0.0)
        else:
            mode = SLIP
            self.slip_sign = math.copysign(1.0, y[3]) if abs(y[3]) >= _V_EPS \
                else -math.copysign(1.0, self._stick_test(y, u0)[0])

        def record(k, y, mode, u, test=None):
            # `test`, when given, is the stick test just made at y and u
            if test is None:
                test = _stick_eval(p, self.damp, *y, u)[1:]
            dem, fs, normal = test
            if normal <= 0.0:
                raise ContactLostError(f"contact lost at t = {k * dt:.6g} s")
            theta[k] = y[0]
            theta_dot[k] = y[1]
            d_x[k] = y[2]
            d_x_dot[k] = y[3]
            mode_arr[k] = mode
            demand_arr[k] = dem
            fs_arr[k] = fs

        record(0, y, mode, u0)
        u_end = u0
        for k in range(n):
            t0 = k * dt
            t_end = (k + 1) * dt
            u_start, u_end = u_end, self.smp.grid[k + 1].tolist()
            t = t0
            events = 0
            end_test = None
            # first attempt covers the whole interval with precomputed inputs
            full_grid = True
            while t < t_end - 1e-15:
                h = t_end - t
                if full_grid:
                    y_new = self._advance(y, t0, dt, mode,
                                          (u_start, self.smp.mid[k].tolist(), u_end))
                else:
                    y_new = self._advance(y, t, h, mode)
                full_grid = False
                if mode == STICK:
                    at_end = t + h >= t_end - 1e-15
                    u_new = u_end if at_end else self.smp.at(t + h)
                    test = self._stick_test(y_new, u_new)
                    if abs(test[0]) <= test[1]:
                        y = y_new
                        t += h
                        if at_end:      # the loop ends here: record reuses it
                            end_test = test
                        continue
                    # slip onset: bisect |demand| - F_s = 0 on (t, t+h]
                    t_ev, y_ev = self._bisect(y, t, h, mode,
                                              lambda yy, uu: not self._stick_ok(yy, uu))
                    events += 1
                    if events > _MAX_EVENTS_PER_STEP:
                        raise IntegrationError(f"event chatter at t = {t_ev:.6g} s")
                    demand, _, _ = self._stick_test(y_ev, self.smp.at(t_ev))
                    self.slip_sign = -math.copysign(1.0, demand)
                    self._log(t_ev, STICK, SLIP)
                    mode = SLIP
                    y = y_ev
                    t = t_ev
                else:
                    # the slide stopped or reversed. A NaN velocity does
                    # neither (the sign bit of a NaN depends on the operand
                    # order the interpreter uses) and ends the run below.
                    if y_new[3] * self.slip_sign <= 0.0:
                        t_ev, y_ev = self._bisect(y, t, h, mode,
                                                  lambda yy, uu: yy[3] * self.slip_sign <= 0.0)
                        events += 1
                        if events > _MAX_EVENTS_PER_STEP:
                            raise IntegrationError(f"event chatter at t = {t_ev:.6g} s")
                        y_ev = (y_ev[0], y_ev[1], y_ev[2], 0.0)
                        u_ev = self.smp.at(t_ev)
                        if self._stick_ok(y_ev, u_ev):
                            self._log(t_ev, SLIP, STICK)
                            mode = STICK
                        else:
                            self.slip_sign = -self.slip_sign
                        y = y_ev
                        t = t_ev
                    else:
                        y = y_new
                        t += h
                        if abs(y[3]) < _V_EPS:
                            u_now = u_end if t >= t_end - 1e-15 else self.smp.at(t)
                            if self._stick_ok((y[0], y[1], y[2], 0.0), u_now):
                                y = (y[0], y[1], y[2], 0.0)
                                self._log(t, SLIP, STICK)
                                mode = STICK
                if not all(math.isfinite(v) for v in y):
                    raise IntegrationError(f"non-finite state at t = {t:.6g} s")
            record(k + 1, y, mode, u_end, end_test)

        t_arr = np.arange(n + 1) * dt
        return SimTrace(t_arr, theta, theta_dot, d_x, d_x_dot, mode_arr,
                        demand_arr, fs_arr, self.transitions)

    def _bisect(self, y0, t0, h, mode, tripped):
        """Locate the first time in (t0, t0+h] where `tripped(state, inputs)`
        becomes true, to within the event tolerance."""
        lo, hi = 0.0, h
        y_hi = None
        for _ in range(80):
            if hi - lo <= _EVENT_TOL:
                break
            mid = 0.5 * (lo + hi)
            y_mid = self._advance(y0, t0, mid, mode)
            if tripped(y_mid, self.smp.at(t0 + mid)):
                hi = mid
                y_hi = y_mid
            else:
                lo = mid
        if y_hi is None:
            y_hi = self._advance(y0, t0, hi, mode)
        return t0 + hi, y_hi


def simulate_solid_sliding(params: PlantParams, motion: TrayMotion,
                           dt: float | None = None,
                           init: tuple[float, float] = (0.0, 0.0)) -> SimTrace:
    """Stick/slip integration of a solid object of mass M on the tray (the
    m = 0 reduction of the coupled model)."""
    p = params
    if p.m != 0.0:
        p = PlantParams(0.0, p.M, p.l, p.h, p.d_z, 0.0, p.b_ct, p.mu, p.g)
    sim = _TraySim(p, motion, dt, (0.0, 0.0, init[0], init[1]))
    return sim.run()


def simulate_coupled(params: PlantParams, motion: TrayMotion,
                     dt: float | None = None,
                     init: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0),
                     ) -> SimTrace:
    """Co-integrate the slosh pendulum and the sliding container with full
    coupling; the pendulum is frozen when m == 0."""
    sim = _TraySim(params, motion, dt, init)
    return sim.run()


# ---------------------------------------------------------------------------
# residual-vibration rating
# ---------------------------------------------------------------------------

def estimate_prv(kind, omega_n: float, delta: float = 0.0) -> float:
    """Percent residual vibration of a smoother on the linear slosh plant
    (omega_n, delta): the residual amplitude after the kernel support,
    normalized by the residual an unsmoothed step leaves on the same plant.

    By the input-shaping residual identity this is |H(s_p)| at the plant
    pole s_p = -delta omega_n + j omega_n sqrt(1 - delta^2).
    """
    if not (omega_n > 0.0 and 0.0 <= delta < 1.0):
        raise ValueError("need omega_n > 0 and 0 <= delta < 1")
    s_p = complex(-delta * omega_n, omega_n * math.sqrt(1.0 - delta * delta))
    return abs(transfer_function(kind, s_p))
