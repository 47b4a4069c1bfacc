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
from dataclasses import dataclass, field, replace

import numpy as np

from .compensation import FreeFallError
from .smoothers import transfer_function

__all__ = [
    "PlantParams",
    "TrayMotion",
    "SimState",
    "SimTrace",
    "ContactLostError",
    "IntegrationError",
    "analytic_tilt_channel",
    "fd_tilt_channel",
    "friction_margin",
    "simulate_pendulum",
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


# ---------------------------------------------------------------------------
# tray motion (disturbance inputs)
# ---------------------------------------------------------------------------

_CHANNELS = ("x_ddot", "z_ddot", "beta", "beta_dot", "beta_ddot")


@dataclass
class TrayMotion:
    """Uniformly sampled tray acceleration and tilt channels.

    `interp` selects how values between samples are produced for the
    integrator: 'cubic' (4-point Lagrange, for smooth channels; linear on
    motions of fewer than four samples) or 'linear' (shape preserving, for
    bang-bang profiles).
    """

    dt: float
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
        arrays = [np.asarray(getattr(self, name), dtype=float) for name in _CHANNELS]
        n = arrays[0].size
        if n < 2:
            raise ValueError("motion needs at least two samples")
        for name, arr in zip(_CHANNELS, arrays):
            if arr.size != n:
                raise ValueError(f"channel {name} has length {arr.size}, expected {n}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"channel {name} contains non-finite values")
            setattr(self, name, arr)

    @property
    def n(self) -> int:
        return self.x_ddot.size

    @property
    def duration(self) -> float:
        return (self.n - 1) * self.dt

    @classmethod
    def from_channels(cls, dt: float, x_ddot, z_ddot=None, beta=None,
                      beta_dot=None, beta_ddot=None, interp: str = "cubic",
                      ) -> "TrayMotion":
        """Build a motion from acceleration (and optional tilt) series."""
        x_ddot = np.asarray(x_ddot, dtype=float)
        n = x_ddot.size
        zeros = np.zeros(n)
        z_ddot = zeros if z_ddot is None else np.asarray(z_ddot, dtype=float)
        beta = zeros if beta is None else np.asarray(beta, dtype=float)
        beta_dot = zeros if beta_dot is None else np.asarray(beta_dot, dtype=float)
        beta_ddot = zeros if beta_ddot is None else np.asarray(beta_ddot, dtype=float)
        return cls(dt, x_ddot, z_ddot, beta, beta_dot, beta_ddot, interp=interp)


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


def analytic_tilt_channel(acc_x, jerk_x, snap_x, acc_z, jerk_z, snap_z, g):
    """(beta, beta_dot, beta_ddot) of the planar compensation angle
    beta = -atan(acc_x / (g + acc_z)) from analytic derivative chains."""
    u = np.asarray(acc_x, dtype=float)
    du = np.asarray(jerk_x, dtype=float)
    ddu = np.asarray(snap_x, dtype=float)
    v = _supported(acc_z, g)
    dv = np.asarray(jerk_z, dtype=float)
    ddv = np.asarray(snap_z, dtype=float)
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
    v = _supported(acc_z, g)
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


@dataclass
class SimTrace:
    """Time series of the simulator state plus friction bookkeeping.

    demand and f_s are both evaluated under the frozen-container hypothesis
    (the same stick test friction_margin computes), so their margin decides
    stick/slip onset; during slip the force actually applied is mu times the
    normal force of the sliding dynamics, which differs at O(m l theta_ddot).
    simulate_pendulum glues the container with unbounded friction, so there
    f_s is inf.
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

def _input_terms(p: PlantParams, rows):
    """The input-only terms of the contact model, one tuple per row
    (x_ddot, z_ddot, beta, beta_dot, beta_ddot) of tray inputs, yielded as
    the rows are read:

        (x_ddot, g + z_ddot, beta, beta_dot, beta_ddot, N_u, D_u,
         h beta_dot^2, d_z beta_dot^2, beta_dot^2)

    N_u = cos(beta) (g + z_ddot) - sin(beta) x_ddot leads the bracket of the
    normal force and D_u = (m + M) (sin(beta) (g + z_ddot) + cos(beta) x_ddot)
    leads the demand. Each term keeps the operand order of the expression it
    stands for, so using it changes no bit, and math.sin and math.cos give
    the same terms on every host."""
    g, h, d_z, mass = p.g, p.h, p.d_z, p.m + p.M
    sin, cos = math.sin, math.cos
    for xtt, ztt, b, bd, bdd in rows:
        gz = g + ztt
        sb, cb = sin(b), cos(b)
        yield (xtt, gz, b, bd, bdd, cb * gz - sb * xtt, mass * (sb * gz + cb * xtt),
               h * bd * bd, d_z * bd * bd, bd * bd)


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
    _, _, demand, f_s = _stick_eval(p, damp, state.theta, state.theta_dot,
                                    state.d_x, state.d_x_dot,
                                    next(_input_terms(p, [motion_sample])))
    return demand, f_s


# ---------------------------------------------------------------------------
# motion sampling for the integrator
# ---------------------------------------------------------------------------

class _MotionSampler:
    """Evaluates the five disturbance channels on the integration grid, at
    step midpoints, and at arbitrary times (for event localization)."""

    def __init__(self, motion: TrayMotion, dt: float, n_steps: int):
        self.motion = motion
        self.chan = np.vstack([getattr(motion, c) for c in _CHANNELS])
        t_grid = np.arange(n_steps + 1) * dt
        t_mid = (np.arange(n_steps) + 0.5) * dt
        self.grid = self._eval_many(t_grid)    # (n_steps+1, 5)
        self.mid = self._eval_many(t_mid)      # (n_steps, 5)

    def _eval_many(self, tq: np.ndarray) -> np.ndarray:
        m = self.motion
        nm = m.n
        uu = tq / m.dt
        if m.interp == "linear" or nm < 4:     # the cubic stencil needs 4 samples
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

    def at(self, times) -> list:
        """The five channels at each of `times`, as rows of Python floats."""
        return self._eval_many(np.array(times)).tolist()


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


def simulate_pendulum(params: PlantParams, motion: TrayMotion,
                      init: tuple[float, float] = (0.0, 0.0),
                      dt: float | None = None) -> SimTrace:
    """Integrate the nonlinear slosh pendulum with the container fixed on the
    tray: the stick/slip engine with unbounded friction, so d_x stays zero,
    every row sticks and f_s is inf."""
    if params.m <= 0.0:
        raise ValueError("simulate_pendulum needs a pendulum mass m > 0")
    return _TraySim(replace(params, mu=math.inf), motion, dt,
                    (init[0], init[1], 0.0, 0.0)).run()


class _TraySim:
    """The stick/slip event-stepping engine: the container with or without
    the coupled pendulum, and with mu = inf the pendulum on a glued
    container. A sub-step is one call of the stick or the slip kernel built
    for the plant at construction (`_stick_kernel`, `_slip_kernel`). Both
    end in the stick test at the new state, which fills the record and is
    the next step's first stage where the kernel can reuse it; sticking, it
    also decides stick or slip."""

    def __init__(self, params: PlantParams, motion: TrayMotion, dt: float | None,
                 init: tuple[float, float, float, float]):
        self.p = params
        self.damp = params.b_lc / (params.m * params.l) if params.m > 0.0 else 0.0
        self.dt, self.n_steps = _resolve_steps(motion, dt)
        self.smp = _MotionSampler(motion, self.dt, self.n_steps)
        self.y = [float(v) for v in init]      # theta, theta_dot, d_x, d_x_dot
        self.transitions: list = []
        self.slip_sign = 0.0
        self.events = 0                        # events in the current step
        self._stick = self._stick_kernel()
        self._slip = self._slip_kernel()

    def _at(self, *times) -> tuple:
        """The input terms at each of `times`, off the grid, from one
        evaluation."""
        return tuple(_input_terms(self.p, self.smp.at(times)))

    def _advance(self, y, t, h, mode, inputs, k1=None):
        """One RK4 sub-step of width h from time t; `inputs` holds the input
        terms at (t, t+h/2, t+h) and `k1`, unless None, the stick test at y
        and inputs[0]. Contact loss in any stage is reported at the step
        time t. Returns the kernel's new state and its stick test at that
        state and inputs[2]."""
        if mode == STICK:
            return self._stick(y, t, h, inputs, k1)
        return self._slip(y, t, h, inputs, k1, self.slip_sign)

    def _slip_kernel(self):
        """The slip sub-step of this plant as one call: `_advance` while
        sliding with sign s, classical RK4 on (theta, theta_dot, d_x,
        d_x_dot) with each stage state formed as y + h/2 * k in that operand
        order, then the stick test (theta_ddot, N, D, F_s) at the new state
        and inputs[2], or None where theta is infinite there and sin raises:
        run() reports that state. With m = 0 the stick test is N and D at
        theta_ddot = 0, the first stage's own, so `k1`, unless None, is that
        stage; with m > 0 it is ignored.

        A stage is the contact model at theta_ddot = 0 and, with m > 0, the
        2x2 coupling solve of the sliding dynamics: _normal, _demand and
        _pendulum_rhs written out with sin and cos of theta taken once, in
        their operand order, followed by the stage's contact-loss check. The
        end test is _stick_eval written out the same way. What is hoisted
        (the plant products, s mu and ((s mu) m) l, the tolerance of the
        singular matrix) is a whole operand there, and m l equals l m bit for
        bit, so the bits are theirs."""
        p, damp = self.p, self.damp
        m, M, l, hgt, b_ct, mu = p.m, p.M, p.l, p.h, p.b_ct, p.mu
        mass, ml, dz_m, l_mass = M + m, m * l, p.d_z * M, l * (m + M)
        tol = 1e-12 * l * (m + M)
        solid, pendulum = m == 0.0, m > 0.0
        sin, cos = math.sin, math.cos

        def stage(th, thd, dx, dxd, u, t, smu, smml):
            # N(0) and b2 = -D(0) - s mu N(0); the theta_ddot = 0.0 terms
            # stay, as their signed zeros count
            xtt, gz, b, bd, bdd, n_u, d_u, hbb, dzbb, bb = u
            st, ct = sin(th), cos(th)
            lct, bd2 = l * ct, 2.0 * bd
            nf0 = (mass * (n_u + dx * bdd + bd2 * dxd - dzbb)
                   + m * (l * st * (bdd + 0.0) + lct * thd * (bd2 + thd) + bb * (lct - hgt)))
            b2 = -(d_u + ((lct - hgt) * m - dz_m) * bdd + ml * ct * 0.0
                   - ml * st * _square(bd + thd) - mass * dx * bd * bd + b_ct * dxd) - smu * nf0
            if solid:
                thdd, dxdd = 0.0, b2 / M
            else:
                r1 = -(damp * thd + (l - hgt * ct + dx * st) * bdd + ct * (-dx * bd * bd)
                       + st * (bd2 * dxd - hbb) + sin(b + th) * gz + cos(b + th) * xtt)
                a21 = ml * ct + smml * st
                det = l_mass - ct * a21
                if abs(det) < tol:
                    raise IntegrationError("singular coupling matrix in slip dynamics")
                thdd = (r1 * mass - ct * b2) / det
                dxdd = (l * b2 - a21 * r1) / det
                nf0 = nf0 + ml * st * thdd
            if nf0 <= 0.0:
                raise ContactLostError(f"contact lost at t = {t:.6g} s")
            return thdd, dxdd

        def slip_step(y, t, h, inputs, k1, s):
            u0, um, u1 = inputs
            th, thd, dx, dxd = y
            hh = 0.5 * h
            smu = s * mu
            smml = smu * m * l
            if solid and k1 is not None:
                if k1[1] <= 0.0:
                    raise ContactLostError(f"contact lost at t = {t:.6g} s")
                a1, x1 = 0.0, (-k1[2] - smu * k1[1]) / M
            else:
                a1, x1 = stage(th, thd, dx, dxd, u0, t, smu, smml)
            v2, w2 = thd + hh * a1, dxd + hh * x1
            a2, x2 = stage(th + hh * thd, v2, dx + hh * dxd, w2, um, t, smu, smml)
            v3, w3 = thd + hh * a2, dxd + hh * x2
            a3, x3 = stage(th + hh * v2, v3, dx + hh * w2, w3, um, t, smu, smml)
            v4, w4 = thd + h * a3, dxd + h * x3
            a4, x4 = stage(th + h * v3, v4, dx + h * w3, w4, u1, t, smu, smml)
            th = th + h * (thd + 2.0 * v2 + 2.0 * v3 + v4) / 6.0
            thd = thd + h * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0
            dx = dx + h * (dxd + 2.0 * w2 + 2.0 * w3 + w4) / 6.0
            dxd = dxd + h * (x1 + 2.0 * x2 + 2.0 * x3 + x4) / 6.0
            y = (th, thd, dx, dxd)
            # the stick test at y and u1
            xtt, gz, b, bd, bdd, n_u, d_u, hbb, dzbb, bb = u1
            try:
                st, ct = sin(th), cos(th)
            except ValueError:
                return y, None
            a = -(damp * thd + (l - hgt * ct + dx * st) * bdd + ct * (-dx * bd * bd)
                  + st * (2.0 * bd * dxd - hbb) + sin(b + th) * gz
                  + cos(b + th) * xtt) / l if pendulum else 0.0
            lct = l * ct
            n = (mass * (n_u + dx * bdd + 2.0 * bd * dxd - dzbb)
                 + m * (l * st * (bdd + a) + lct * thd * (2.0 * bd + thd) + bb * (lct - hgt)))
            d = (d_u + ((lct - hgt) * m - dz_m) * bdd + ml * ct * a
                 - ml * st * _square(bd + thd) - mass * dx * bd * bd + b_ct * dxd)
            return y, (a, n, d, mu * n)

        return slip_step

    def _stick_kernel(self):
        """The stick sub-step of this plant as one straight-line call:
        `_advance` with the container held still, RK4 on (theta, theta_dot)
        alone, then the stick test (theta_ddot, N, D, F_s) at the new state
        and inputs[2]. `k1`, unless None, is the stick test at y and
        inputs[0], as the last step's call returned it.

        Each stage is _stick_rates and the end test _stick_eval, written out
        at d_x_dot = 0.0 with sin and cos of theta taken once, in their
        operand order. What is hoisted (the plant products, the row terms
        two stages share) is a whole operand there, and m l equals l m bit
        for bit, so the bits are theirs. The stages get the d_x of the
        generic 4-state step, d_x + h/2 * 0.0, since it can flip the sign of
        a zero in theta."""
        p, damp = self.p, self.damp
        m, M, l, hgt, b_ct, mu = p.m, p.M, p.l, p.h, p.b_ct, p.mu
        mass, ml, dz_m, pendulum = M + m, m * l, p.d_z * M, m > 0.0
        sin, cos = math.sin, math.cos

        def stick_step(y, t, h, inputs, k1):
            u0, um, u1 = inputs
            th, thd, dx = y[0], y[1], y[2]
            hh = 0.5 * h
            if k1 is None:
                xtt, gz, b, bd, bdd, n_u, _, hbb, dzbb, bb = u0
                st, ct = sin(th), cos(th)
                a1 = -(damp * thd + (l - hgt * ct + dx * st) * bdd + ct * (-dx * bd * bd)
                       + st * (2.0 * bd * 0.0 - hbb) + sin(b + th) * gz
                       + cos(b + th) * xtt) / l if pendulum else 0.0
                n1 = (mass * (n_u + dx * bdd + 2.0 * bd * 0.0 - dzbb)
                      + m * (l * st * (bdd + a1) + l * ct * thd * (2.0 * bd + thd)
                             + bb * (l * ct - hgt)))
            else:
                a1, n1 = k1[0], k1[1]
            if n1 <= 0.0:
                raise ContactLostError(f"contact lost at t = {t:.6g} s")
            dx = dx + 0.0                      # d_x + h/2 * 0.0, as h > 0
            # stages 2 and 3: the midpoint row
            xtt, gz, b, bd, bdd, n_u, _, hbb, dzbb, bb = um
            bd2 = 2.0 * bd
            r_dx, r_s = -dx * bd * bd, bd2 * 0.0 - hbb
            n_row = mass * (n_u + dx * bdd + bd2 * 0.0 - dzbb)
            th2, v2 = th + hh * thd, thd + hh * a1
            st, ct = sin(th2), cos(th2)
            a2 = -(damp * v2 + (l - hgt * ct + dx * st) * bdd + ct * r_dx + st * r_s
                   + sin(b + th2) * gz + cos(b + th2) * xtt) / l if pendulum else 0.0
            n2 = n_row + m * (l * st * (bdd + a2) + l * ct * v2 * (bd2 + v2)
                              + bb * (l * ct - hgt))
            if n2 <= 0.0:
                raise ContactLostError(f"contact lost at t = {t:.6g} s")
            th3, v3 = th + hh * v2, thd + hh * a2
            st, ct = sin(th3), cos(th3)
            a3 = -(damp * v3 + (l - hgt * ct + dx * st) * bdd + ct * r_dx + st * r_s
                   + sin(b + th3) * gz + cos(b + th3) * xtt) / l if pendulum else 0.0
            n3 = n_row + m * (l * st * (bdd + a3) + l * ct * v3 * (bd2 + v3)
                              + bb * (l * ct - hgt))
            if n3 <= 0.0:
                raise ContactLostError(f"contact lost at t = {t:.6g} s")
            # stage 4 and the end test: the end row
            xtt, gz, b, bd, bdd, n_u, d_u, hbb, dzbb, bb = u1
            bd2 = 2.0 * bd
            r_dx, r_s = -dx * bd * bd, bd2 * 0.0 - hbb
            n_row = mass * (n_u + dx * bdd + bd2 * 0.0 - dzbb)
            th4, v4 = th + h * v3, thd + h * a3
            st, ct = sin(th4), cos(th4)
            a4 = -(damp * v4 + (l - hgt * ct + dx * st) * bdd + ct * r_dx + st * r_s
                   + sin(b + th4) * gz + cos(b + th4) * xtt) / l if pendulum else 0.0
            n4 = n_row + m * (l * st * (bdd + a4) + l * ct * v4 * (bd2 + v4)
                              + bb * (l * ct - hgt))
            if n4 <= 0.0:
                raise ContactLostError(f"contact lost at t = {t:.6g} s")
            th = th + h * (thd + 2.0 * v2 + 2.0 * v3 + v4) / 6.0
            thd = thd + h * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0
            st, ct = sin(th), cos(th)
            a = -(damp * thd + (l - hgt * ct + dx * st) * bdd + ct * r_dx + st * r_s
                  + sin(b + th) * gz + cos(b + th) * xtt) / l if pendulum else 0.0
            lct = l * ct
            n = n_row + m * (l * st * (bdd + a) + lct * thd * (bd2 + thd) + bb * (lct - hgt))
            d = (d_u + ((lct - hgt) * m - dz_m) * bdd + ml * ct * a
                 - ml * st * _square(bd + thd) - mass * dx * bd * bd + b_ct * 0.0)
            return (th, thd, dx, 0.0), (a, n, d, mu * n)

        return stick_step

    def run(self) -> SimTrace:
        p, damp = self.p, self.damp
        dt = self.dt
        n = self.n_steps
        theta = np.empty(n + 1)
        theta_dot = np.empty(n + 1)
        d_x = np.empty(n + 1)
        d_x_dot = np.empty(n + 1)
        mode_arr = np.empty(n + 1, dtype=np.uint8)
        demand_arr = np.empty(n + 1)
        fs_arr = np.empty(n + 1)

        def held(y, u):
            # the state y with the container held still, and its stick test
            y = (y[0], y[1], y[2], 0.0)
            return y, _stick_eval(p, damp, *y, u)

        def record(k, y, mode, u, test=None):
            # `test`, when given, is the stick test just made at y and u
            _, normal, dem, fs = test or _stick_eval(p, damp, *y, u)
            if normal <= 0.0:
                raise ContactLostError(f"contact lost at t = {k * dt:.6g} s")
            theta[k] = y[0]
            theta_dot[k] = y[1]
            d_x[k] = y[2]
            d_x_dot[k] = y[3]
            mode_arr[k] = mode
            demand_arr[k] = dem
            fs_arr[k] = fs

        # the grid and midpoint rows as Python floats, one row at a time
        grid = _input_terms(p, map(np.ndarray.tolist, self.smp.grid))
        mid = _input_terms(p, map(np.ndarray.tolist, self.smp.mid))
        y = tuple(self.y)
        u0 = next(grid)
        y_held, k1 = held(y, u0)               # sticking, row 0's test and the first k1
        if abs(y[3]) < _V_EPS and abs(k1[2]) <= k1[3]:
            mode, y = STICK, y_held
        else:
            mode = SLIP
            self.slip_sign = math.copysign(1.0, y[3]) if abs(y[3]) >= _V_EPS \
                else -math.copysign(1.0, k1[2])
            k1 = None
        record(0, y, mode, u0, k1)
        u_end = u0
        for k in range(n):
            t = k * dt
            t_end = (k + 1) * dt
            # the first sub-step covers the whole step with the grid inputs
            h = dt
            inputs = (u_end, next(mid), next(grid))
            u_end = inputs[2]
            self.events = 0
            end_test = None
            while t < t_end:
                y_new, test = self._advance(y, t, h, mode, inputs, k1)
                if mode == STICK:
                    if abs(test[2]) <= test[3]:
                        # the loop ends here: record and k1 reuse the test
                        y, t, end_test = y_new, t_end, test
                        continue
                    # slip onset: bisect |demand| - F_s = 0 on (t, t_end]
                    t, y, test, u = self._bisect(y, t, t_end - t, mode, inputs[0],
                                                 lambda yy, test: not abs(test[2]) <= test[3])
                    self.slip_sign = -math.copysign(1.0, test[2])
                    self.transitions.append((t, "stick", "slip"))
                    mode = SLIP
                elif y_new[3] * self.slip_sign <= 0.0:
                    # the slide stopped or reversed. A NaN velocity does
                    # neither (the sign bit of a NaN depends on the operand
                    # order the interpreter uses) and ends the run below.
                    t, y, _, u = self._bisect(y, t, t_end - t, mode, inputs[0],
                                              lambda yy, _: yy[3] * self.slip_sign <= 0.0)
                    y, test = held(y, u)
                    if abs(test[2]) <= test[3]:
                        self.transitions.append((t, "slip", "stick"))
                        mode = STICK
                    else:
                        self.slip_sign = -self.slip_sign
                else:
                    # the loop ends here: record and k1 reuse the test,
                    # or the held state's where the slide is captured
                    y, t, end_test = y_new, t_end, test
                    if abs(y[3]) < _V_EPS:
                        y_held, test = held(y, u_end)
                        if abs(test[2]) <= test[3]:
                            y, end_test = y_held, test
                            self.transitions.append((t, "slip", "stick"))
                            mode = STICK
                if not all(map(math.isfinite, y)):
                    raise IntegrationError(f"non-finite state at t = {t:.6g} s")
                if t < t_end:   # an event inside the step: go on from it and its test
                    h = t_end - t
                    inputs, k1 = (u, *self._at(t + 0.5 * h), u_end), test
            record(k + 1, y, mode, u_end, end_test)
            k1 = end_test

        t_arr = np.arange(n + 1) * dt
        return SimTrace(t_arr, theta, theta_dot, d_x, d_x_dot, mode_arr,
                        demand_arr, fs_arr, self.transitions)

    def _bisect(self, y0, t0, h, mode, u0, tripped):
        """Locate the first time in (t0, t0+h] where `tripped(state, test)`
        becomes true, to within the event tolerance, and count it among the
        events of the current step; `test` is the stick test `_advance`
        returns with the state. `u0` holds the input terms at t0. Returns the
        time, and the state, its test and the input terms there."""
        def advance(w):
            um, u1 = self._at(t0 + 0.5 * w, t0 + w)
            return (*self._advance(y0, t0, w, mode, (u0, um, u1)), u1)

        lo, hi = 0.0, h
        end = None
        for _ in range(80):
            if hi - lo <= _EVENT_TOL:
                break
            mid = 0.5 * (lo + hi)
            probe = advance(mid)
            if tripped(probe[0], probe[1]):
                hi, end = mid, probe
            else:
                lo = mid
        y_hi, test, u_hi = end or advance(hi)
        self.events += 1
        if self.events > _MAX_EVENTS_PER_STEP:
            raise IntegrationError(f"event chatter at t = {t0 + hi:.6g} s")
        return t0 + hi, y_hi, test, u_hi


def simulate_solid_sliding(params: PlantParams, motion: TrayMotion,
                           dt: float | None = None,
                           init: tuple[float, float] = (0.0, 0.0)) -> SimTrace:
    """Stick/slip integration of a solid object of mass M on the tray (the
    m = 0 reduction of the coupled model)."""
    solid = replace(params, m=0.0, b_lc=0.0)
    return _TraySim(solid, motion, dt, (0.0, 0.0, init[0], init[1])).run()


def simulate_coupled(params: PlantParams, motion: TrayMotion,
                     dt: float | None = None,
                     init: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0),
                     ) -> SimTrace:
    """Co-integrate the slosh pendulum and the sliding container with full
    coupling; the pendulum is frozen when m == 0."""
    return _TraySim(params, motion, dt, init).run()


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
