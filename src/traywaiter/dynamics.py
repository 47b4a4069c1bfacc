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

from .compensation import _supported
from .smoothers import transfer_function

__all__ = [
    "PlantParams",
    "TrayMotion",
    "SimTrace",
    "ContactLostError",
    "IntegrationError",
    "analytic_tilt_channel",
    "fd_tilt_channel",
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
    mu     static dry friction coefficient (kinetic is taken equal); +inf,
           the only non-finite value a field takes, glues the container
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
        for name in ("m", "M", "l", "h", "d_z", "b_lc", "b_ct", "mu", "g"):
            value = getattr(self, name)
            if not math.isfinite(value) and not (name == "mu" and value == math.inf):
                raise ValueError(f"{name} must be finite, got {value}")
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
    """Uniformly sampled tray acceleration and tilt channels. The integrator
    reads them between samples through the 4-point Lagrange stencil, or
    linearly on motions of fewer than four samples.
    """

    dt: float
    x_ddot: np.ndarray
    z_ddot: np.ndarray
    beta: np.ndarray
    beta_dot: np.ndarray
    beta_ddot: np.ndarray

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
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
                      beta_dot=None, beta_ddot=None) -> "TrayMotion":
        """Build a motion from acceleration (and optional tilt) series."""
        x_ddot = np.asarray(x_ddot, dtype=float)
        n = x_ddot.size
        zeros = np.zeros(n)
        z_ddot = zeros if z_ddot is None else np.asarray(z_ddot, dtype=float)
        beta = zeros if beta is None else np.asarray(beta, dtype=float)
        beta_dot = zeros if beta_dot is None else np.asarray(beta_dot, dtype=float)
        beta_ddot = zeros if beta_ddot is None else np.asarray(beta_ddot, dtype=float)
        return cls(dt, x_ddot, z_ddot, beta, beta_dot, beta_ddot)


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
# trace
# ---------------------------------------------------------------------------

@dataclass
class SimTrace:
    """Time series of the simulator state plus friction bookkeeping.

    demand and f_s are both evaluated under the frozen-container hypothesis
    (the stick test of the row's state and grid inputs), so |demand| - f_s
    decides stick/slip onset; during slip the force actually applied is mu
    times the normal force of the sliding dynamics, which differs at
    O(m l theta_ddot). With mu = inf, which glues the container, f_s is inf.
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
    def max_abs_theta(self) -> float:
        return float(np.abs(self.theta).max())

    @property
    def net_slip(self) -> float:
        return float(self.d_x[-1] - self.d_x[0])


# ---------------------------------------------------------------------------
# contact model
# ---------------------------------------------------------------------------

def _input_terms(p: PlantParams, row) -> tuple:
    """The input-only terms of the contact model for one row (x_ddot,
    z_ddot, beta, beta_dot, beta_ddot) of tray inputs:

        (x_ddot, g + z_ddot, beta, beta_dot, beta_ddot, N_u, D_u,
         h beta_dot^2, d_z beta_dot^2, beta_dot^2)

    N_u = cos(beta) (g + z_ddot) - sin(beta) x_ddot leads the bracket of the
    normal force and D_u = (m + M) (sin(beta) (g + z_ddot) + cos(beta) x_ddot)
    leads the demand. Each term keeps the operand order of the expression it
    stands for, so using it changes no bit, and math.sin and math.cos give
    the same terms on every host."""
    xtt, ztt, b, bd, bdd = row
    gz = p.g + ztt
    sb, cb = math.sin(b), math.cos(b)
    return (xtt, gz, b, bd, bdd, cb * gz - sb * xtt, (p.m + p.M) * (sb * gz + cb * xtt),
            p.h * bd * bd, p.d_z * bd * bd, bd * bd)


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


def _sincos(x: float) -> tuple[float, float]:
    """sin and cos of x, NaN where x is infinite: libm's values there, where
    math.sin and math.cos raise ValueError."""
    try:
        return math.sin(x), math.cos(x)
    except ValueError:
        return math.nan, math.nan


def _contact(p: PlantParams, damp: float):
    """The contact model of the plant as two calls on a state (th, thd, dx,
    dxd) and a row of input terms u, each taking sin and cos of theta once:

        stick_test(th, thd, dx, dxd, u) -> (theta_ddot, N, D, F_s)
        slide(th, thd, dx, dxd, u, s) -> (theta_ddot, d_x_ddot, N)

    The stick test holds the container still, so theta_ddot is the
    pendulum's own (0 for a solid), N is the normal force on the container,
    D the tangential force friction must supply to hold it and F_s = mu N
    the friction bound. Sliding with sign s, N and D are taken at
    theta_ddot = 0 and their theta_ddot terms go back in through the 2x2
    coupling solve under the friction force -s mu N; a singular coupling
    matrix raises IntegrationError. The bracket of the pendulum equation,
    whose negative over l is theta_ddot, and N and D are each written once,
    in the operand order of `bracket`, `normal` and `demand` in _engine.c,
    so the compiled step loop gets the same bits. An infinite theta gives NaN."""
    m, M, l, hgt, b_ct, mu = p.m, p.M, p.l, p.h, p.b_ct, p.mu
    mass, ml, dz_m, l_mass, pendulum = M + m, m * l, p.d_z * M, l * (m + M), m > 0.0
    tol = 1e-12 * l * (m + M)

    def bracket(th, st, ct, thd, dx, dxd, u):
        xtt, gz, b, bd, bdd, _, _, hbb, _, _ = u
        sbt, cbt = _sincos(b + th)
        return (damp * thd + (l - hgt * ct + dx * st) * bdd + ct * (-dx * bd * bd)
                + st * (2.0 * bd * dxd - hbb) + sbt * gz + cbt * xtt)

    def normal_demand(st, ct, thd, dx, dxd, a, u):
        _, _, _, bd, bdd, n_u, d_u, _, dzbb, bb = u
        lct = l * ct
        n = (mass * (n_u + dx * bdd + 2.0 * bd * dxd - dzbb)
             + m * (l * st * (bdd + a) + lct * thd * (2.0 * bd + thd) + bb * (lct - hgt)))
        d = (d_u + ((lct - hgt) * m - dz_m) * bdd + ml * ct * a
             - ml * st * _square(bd + thd) - mass * dx * bd * bd + b_ct * dxd)
        return n, d

    def stick_test(th, thd, dx, dxd, u):
        st, ct = _sincos(th)
        a = -bracket(th, st, ct, thd, dx, dxd, u) / l if pendulum else 0.0
        n, d = normal_demand(st, ct, thd, dx, dxd, a, u)
        return a, n, d, mu * n

    def slide(th, thd, dx, dxd, u, s):
        # the theta_ddot = 0.0 terms of N and D stay, as their signed zeros count
        st, ct = _sincos(th)
        n, d = normal_demand(st, ct, thd, dx, dxd, 0.0, u)
        smu = s * mu
        b2 = -d - smu * n
        if not pendulum:
            return 0.0, b2 / M, n
        r1 = -bracket(th, st, ct, thd, dx, dxd, u)
        a21 = ml * ct + smu * m * l * st    # ((s mu) m) l, not (s mu) (m l): other bits
        det = l_mass - ct * a21
        if abs(det) < tol:
            raise IntegrationError("singular coupling matrix in slip dynamics")
        a = (r1 * mass - ct * b2) / det
        return a, (l * b2 - a21 * r1) / det, n + ml * st * a

    return stick_test, slide


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
        if nm < 4:     # the cubic stencil needs 4 samples
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
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    n_steps = int(round(motion.duration / dt))
    if abs(n_steps * dt - motion.duration) > 1e-9 * max(1.0, motion.duration):
        n_steps = int(math.floor(motion.duration / dt + 1e-12))
    if n_steps < 1:
        raise ValueError("motion shorter than one integration step")
    return dt, n_steps


class _TraySim:
    """The stick/slip event-stepping engine from the state `init` = (theta,
    theta_dot, d_x, d_x_dot), which the public simulators set to rest: the
    container with or without the coupled pendulum, and with mu = inf the
    pendulum on a glued container. A sub-step is one call of `_advance`,
    classical RK4 on the state over the plant's contact model
    (`_contact`) in either mode, ending in the stick test at the new state,
    which fills the record; sticking, it also decides stick or slip.

    Where a C compiler is at hand, the sticking and the sliding steps that
    need no event run in the compiled step loop of `_native.py`, bit for bit
    as `_advance` runs them; it hands any other step back to the Python
    loop. Both loops read step k's inputs by index, grid rows k and k + 1
    and midpoint row k, so the Python loop takes a handed-back step up at
    its own rows. Without the library the step loop is `_native.no_steps`,
    which hands every step back. `_loops` is the seam where the tests'
    oracles keep every step in Python."""

    def __init__(self, params: PlantParams, motion: TrayMotion, dt: float | None,
                 init: tuple[float, float, float, float]):
        self.p = params
        self.damp = params.b_lc / (params.m * params.l) if params.m > 0.0 else 0.0
        self.dt, self.n_steps = _resolve_steps(motion, dt)
        self.smp = _MotionSampler(motion, self.dt, self.n_steps)
        self.init = tuple(map(float, init))    # theta, theta_dot, d_x, d_x_dot
        self.transitions: list = []
        self.slip_sign = 0.0
        self.events = 0                        # events in the current step
        self._test, self._slide = _contact(params, self.damp)

    def _at(self, *times) -> tuple:
        """The input terms at each of `times`, off the grid, from one
        evaluation."""
        return tuple(_input_terms(self.p, row) for row in self.smp.at(times))

    def _advance(self, y, t, h, mode, inputs):
        """One RK4 sub-step of width h from the state y at time t; `inputs`
        holds the input terms at (t, t+h/2, t+h). A stage is the stick test's
        (theta_ddot, 0.0) while sticking, which keeps d_x_dot at 0.0, and the
        slide with sign `slip_sign` while sliding; each stage state is formed
        as y + h/2 * k in that operand order. Contact loss in any stage is
        reported at the step time t. Returns the new state and the stick test
        at that state and inputs[2]."""
        test, slide, s = self._test, self._slide, self.slip_sign

        def stage(th, thd, dx, dxd, u):
            if mode == STICK:
                a, normal, _, _ = test(th, thd, dx, dxd, u)
                xdd = 0.0
            else:
                a, xdd, normal = slide(th, thd, dx, dxd, u, s)
            if normal <= 0.0:
                raise ContactLostError(f"contact lost at t = {t:.6g} s")
            return a, xdd

        u0, um, u1 = inputs
        th, thd, dx, dxd = y
        hh = 0.5 * h
        a1, x1 = stage(th, thd, dx, dxd, u0)
        v2, w2 = thd + hh * a1, dxd + hh * x1
        a2, x2 = stage(th + hh * thd, v2, dx + hh * dxd, w2, um)
        v3, w3 = thd + hh * a2, dxd + hh * x2
        a3, x3 = stage(th + hh * v2, v3, dx + hh * w2, w3, um)
        v4, w4 = thd + h * a3, dxd + h * x3
        a4, x4 = stage(th + h * v3, v4, dx + h * w3, w4, u1)
        y = (th + h * (thd + 2.0 * v2 + 2.0 * v3 + v4) / 6.0,
             thd + h * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0,
             dx + h * (dxd + 2.0 * w2 + 2.0 * w3 + w4) / 6.0,
             dxd + h * (x1 + 2.0 * x2 + 2.0 * x3 + x4) / 6.0)
        return y, test(*y, u1)

    def run(self) -> SimTrace:
        test_at = self._test
        dt = self.dt
        n = self.n_steps
        # theta, theta_dot, d_x, d_x_dot, mode, demand and f_s by row
        trace = [np.empty(n + 1) for _ in range(7)]
        trace[4] = np.empty(n + 1, dtype=np.uint8)

        def held(y, u):
            # the state y with the container held still, and its stick test
            y = (y[0], y[1], y[2], 0.0)
            return y, test_at(*y, u)

        def record(k, y, mode, test):
            # `test` is the stick test at y and row k's inputs
            _, normal, dem, fs = test
            if normal <= 0.0:
                raise ContactLostError(f"contact lost at t = {k * dt:.6g} s")
            for arr, value in zip(trace, (*y, mode, dem, fs)):
                arr[k] = value

        def terms(rows, k):
            # the input terms of row k of `rows`, read as Python floats
            return _input_terms(self.p, rows[k].tolist())

        grid, mid = self.smp.grid, self.smp.mid
        y = self.init
        u_end = terms(grid, 0)
        y_held, k1 = held(y, u_end)            # sticking, row 0's test
        if abs(y[3]) < _V_EPS and abs(k1[2]) <= k1[3]:
            mode, y = STICK, y_held
        else:
            mode = SLIP
            self.slip_sign = math.copysign(1.0, y[3]) if abs(y[3]) >= _V_EPS \
                else -math.copysign(1.0, k1[2])
            k1 = test_at(*y, u_end)            # sliding, row 0's test
        record(0, y, mode, k1)
        # the step loop; it takes and returns the state and its stick test
        # k1 at the row it starts or stops at
        loop = self._loops(trace)
        k = 0
        while k < n:
            j, y, k1 = loop(mode, k, y, k1, self.slip_sign)
            if j > k:           # steps k to j - 1 are committed: read on from row j
                k = j
                if k == n:
                    break
                u_end = terms(grid, k)
            t = k * dt
            t_end = (k + 1) * dt
            # the first sub-step covers the whole step with the grid inputs
            h = dt
            inputs = (u_end, terms(mid, k), terms(grid, k + 1))
            u_end = inputs[2]
            self.events = 0
            end_test = None
            while t < t_end:
                y_new, test = self._advance(y, t, h, mode, inputs)
                if mode == STICK:
                    if not all(map(math.isfinite, y_new)):
                        raise IntegrationError(f"non-finite state at t = {t_end:.6g} s")
                    if abs(test[2]) <= test[3]:
                        # the loop ends here: the record takes the test
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
                    # the loop ends here: the record takes the test, or
                    # the held state's where the slide is captured
                    y, t, end_test = y_new, t_end, test
                    if abs(y[3]) < _V_EPS:
                        y_held, test = held(y, u_end)
                        if abs(test[2]) <= test[3]:
                            y, end_test = y_held, test
                            self.transitions.append((t, "slip", "stick"))
                            mode = STICK
                if not all(map(math.isfinite, y)):
                    raise IntegrationError(f"non-finite state at t = {t:.6g} s")
                if t < t_end:   # an event inside the step: go on from it
                    h = t_end - t
                    inputs = (u, *self._at(t + 0.5 * h), u_end)
            if end_test is None:    # an event at the step's end, tested off the grid
                end_test = test_at(*y, u_end)
            record(k + 1, y, mode, end_test)
            k1 = end_test
            k += 1

        return SimTrace(np.arange(n + 1) * dt, *trace, self.transitions)

    def _loops(self, trace):
        """The step loop bound to this run's rows and its `trace` arrays
        (`_native.loops`)."""
        from . import _native     # here, so that its build tools stay out of start-up
        return _native.loops(self.p, self.damp, _V_EPS, self.dt, self.smp.grid,
                             self.smp.mid, trace)

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
                           dt: float | None = None) -> SimTrace:
    """Stick/slip integration of a solid object of mass M on the tray (the
    m = 0 reduction of the coupled model), from rest."""
    solid = replace(params, m=0.0, b_lc=0.0)
    return _TraySim(solid, motion, dt, (0.0, 0.0, 0.0, 0.0)).run()


def simulate_coupled(params: PlantParams, motion: TrayMotion,
                     dt: float | None = None) -> SimTrace:
    """Co-integrate the slosh pendulum and the sliding container with full
    coupling, from rest; the pendulum is frozen when m == 0, and mu = inf
    glues the container, leaving the pendulum on a container fixed to the
    tray."""
    return _TraySim(params, motion, dt, (0.0, 0.0, 0.0, 0.0)).run()


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
    if not (0.0 < omega_n < math.inf and 0.0 <= delta < 1.0):
        raise ValueError(f"need 0 < omega_n < inf and 0 <= delta < 1, "
                         f"got omega_n = {omega_n}, delta = {delta}")
    s_p = complex(-delta * omega_n, omega_n * math.sqrt(1.0 - delta * delta))
    return abs(transfer_function(kind, s_p))
