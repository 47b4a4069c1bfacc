"""Finite-support smoothing filters with structural derivative outputs.

Two kernel kinds are provided, both with unit DC gain:

* trapezoidal  -- two box kernels in series, durations T1 and T2
* damped harmonic -- exponentially weighted half-sine, parameters (sigma, T);
  sigma = 0 is the plain half-sine of duration T

Each discrete realization emits the filtered signal together with its first
and second derivatives; nothing downstream ever differentiates the output
numerically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Trapezoidal",
    "DampedHarmonic",
    "SmootherKind",
    "CascadeSpec",
    "CascadeState",
    "make_trapezoidal_params",
    "make_damped_harmonic_params",
    "kernel_duration",
    "transfer_function",
    "freq_response",
]


def _oscillator_span_ok(T: float) -> bool:
    """T > 0 and finite, with (pi/T)^2 > 0: the oscillator's transfer
    function and realization divide by that square, which underflows to 0
    for T beyond ~2e154 s."""
    return T > 0.0 and math.isfinite(T) and (math.pi / T) * (math.pi / T) > 0.0


@dataclass(frozen=True)
class Trapezoidal:
    """Two box kernels in series; T1 == T2 is the triangular case."""

    T1: float
    T2: float

    def __post_init__(self):
        for name, val in (("T1", self.T1), ("T2", self.T2)):
            if not (val > 0.0 and math.isfinite(val)):
                raise ValueError(f"trapezoidal smoother needs {name} > 0, got {val}")


@dataclass(frozen=True)
class DampedHarmonic:
    """Half-sine kernel with exponential weight exp(sigma t) on [0, T];
    sigma = 0 is the plain harmonic smoother of the same T."""

    sigma: float
    T: float

    def __post_init__(self):
        if not _oscillator_span_ok(self.T):
            raise ValueError(f"damped harmonic smoother needs T > 0 with "
                             f"(pi/T)^2 > 0, got {self.T}")
        if not math.isfinite(self.sigma):
            raise ValueError("sigma must be finite")


SmootherKind = Union[Trapezoidal, DampedHarmonic]


def kernel_duration(kind: SmootherKind) -> float:
    """Support of the impulse response (the group delay of the stage)."""
    if isinstance(kind, Trapezoidal):
        return kind.T1 + kind.T2
    return kind.T


# ---------------------------------------------------------------------------
# closed-form parameter solvers
# ---------------------------------------------------------------------------

def make_trapezoidal_params(h: float, v_max: float, a_max: float) -> tuple[float, float]:
    """Time constants of the minimum-time trapezoidal smoother for a step of
    amplitude h under velocity/acceleration bounds.

    Falls back to the triangular case T1 = T2 = sqrt(h/a_max) when the
    velocity bound cannot be reached (h * a_max < v_max**2).
    """
    if not (h > 0.0 and v_max > 0.0 and a_max > 0.0):
        raise ValueError(f"h, v_max, a_max must be positive, got {(h, v_max, a_max)}")
    if h * a_max >= v_max * v_max:
        return h / v_max, v_max / a_max
    t = math.sqrt(h / a_max)
    return t, t


def make_damped_harmonic_params(omega_n: float, delta: float) -> tuple[float, float]:
    """(sigma, T) cancelling an underdamped pole pair (omega_n, delta)."""
    if not (omega_n > 0.0 and math.isfinite(omega_n)):
        raise ValueError(f"omega_n must be positive, got {omega_n}")
    if not (0.0 <= delta < 1.0):
        raise ValueError(f"delta must be in [0, 1), got {delta}")
    sigma = -delta * omega_n
    T = 3.0 * math.pi / (omega_n * math.sqrt(1.0 - delta * delta))
    return sigma, T


# ---------------------------------------------------------------------------
# analytic frequency response
# ---------------------------------------------------------------------------

def _expm1c(z: complex) -> complex:
    # exp(z) - 1 without cancellation for small |z|
    if abs(z) < 1e-4:
        return z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
    return cmath.exp(z) - 1.0


def _rect_tf(T: float, s: complex) -> complex:
    if s * T == 0:      # s = 0, or |s T| below the float range: H = 1
        return 1.0 + 0.0j
    return -_expm1c(-s * T) / (s * T)


def _osc_tf(sigma: float, T: float, s: complex) -> complex:
    # (sigma^2 + wp^2)/(1+e^{sigma T}) * (1 + e^{-sT} e^{sigma T}) / ((s-sigma)^2 + wp^2)
    # written in z = (s - sigma)/wp so the removable singularities sit at +/- 1j
    wp = math.pi / T
    K = (sigma * sigma + wp * wp) / (1.0 + math.exp(sigma * T))
    z = (s - sigma) / wp
    d1 = z - 1j
    d2 = z + 1j
    if min(abs(d1), abs(d2)) < 0.5:
        w, other = (d1, d2) if abs(d1) < abs(d2) else (d2, d1)
        # 1 + e^{-pi z} = 1 - e^{-pi w} at either singularity
        if w == 0:
            ratio = cmath.pi / other
        else:
            ratio = -_expm1c(-cmath.pi * w) / (w * other)
    else:
        ratio = (1.0 + cmath.exp(-cmath.pi * z)) / (1.0 + z * z)
    return K * ratio / (wp * wp)


def transfer_function(kind, s: complex) -> complex:
    """Exact H(s) of a smoother kind or a CascadeSpec at complex frequency s."""
    if isinstance(kind, CascadeSpec):
        out = 1.0 + 0.0j
        for stage in kind.stages:
            out *= transfer_function(stage, s)
        return out
    if isinstance(kind, Trapezoidal):
        return _rect_tf(kind.T1, s) * _rect_tf(kind.T2, s)
    if isinstance(kind, DampedHarmonic):
        return _osc_tf(kind.sigma, kind.T, s)
    raise TypeError(f"not a smoother kind: {kind!r}")


def freq_response(kind, omega_grid) -> np.ndarray:
    """|H(j omega)| over a grid of frequencies (rad/s, values >= 0)."""
    omegas = np.asarray(omega_grid, dtype=float)
    if np.any(omegas < 0.0):
        raise ValueError("frequency grid must be non-negative")
    return np.array([abs(transfer_function(kind, 1j * w)) for w in np.atleast_1d(omegas)])


# ---------------------------------------------------------------------------
# discrete-time realizations
# ---------------------------------------------------------------------------

def _quantize(T: float, dt: float) -> int:
    """Kernel duration in samples: snap to the grid when T/dt is integral
    (within 1e-9 relative), otherwise round up to stay conservative."""
    ratio = T / dt
    nearest = round(ratio)
    if nearest >= 1 and abs(ratio - nearest) <= 1e-9 * max(1.0, ratio):
        return int(nearest)
    return max(1, math.ceil(ratio))


def _pole_pair_map(sigma: float, w: float, dt: float) -> tuple:
    """(f11, f12, f21, f22, g1, g2): the exact one-sample map of the core
    x1' = x2, x2' = -a0 x1 - a1 x2 + f with poles sigma +/- j w, where
    a0 = sigma^2 + w^2 and a1 = -2 sigma, and f is held over the sample:
    F = e^{A dt} in closed form and G = A^-1 (F - I) B, B = (0, 1)."""
    a0 = sigma * sigma + w * w
    a1 = -2.0 * sigma
    e = math.exp(sigma * dt)
    c = math.cos(w * dt)
    s = math.sin(w * dt)
    f12 = e * s / w
    f22 = e * (c + sigma * s / w)
    return (e * (c - sigma * s / w), f12, -a0 * f12, f22,
            (1.0 - f22 - a1 * f12) / a0, f12)


class _RectStage:
    """Moving average with trapezoid weights (exact integral of the linearly
    interpolated input over the box support); derivatives come from the
    delay-line differences, never from differentiating the output. The
    stage starts at rest at u."""

    def __init__(self, n: int, dt: float, u: float):
        self.n = n
        self.t_span = n * dt
        self._vals = np.full(n + 1, u, dtype=float)
        self._vels = np.zeros(n + 1)
        self._sum = n * u

    def run(self, u: np.ndarray, v: np.ndarray):
        """The running sum is a cumulative sum of per-sample increments,
        added left to right, so a block gives the bits of its samples fed
        one at a time."""
        m, n = u.size, self.n
        vals = np.concatenate((self._vals, u))   # u[k-N-1] ... u[k+m-1]
        vels = np.concatenate((self._vels, v))
        old1 = vals[1:m + 1]
        inc = 0.5 * ((u + vals[n:n + m]) - (old1 + vals[:m]))
        inc[0] += self._sum
        sums = np.cumsum(inc, out=inc)
        self._sum = float(sums[-1])
        self._vals = vals[m:].copy()
        self._vels = vels[m:].copy()
        return (sums / n,
                (u - old1) / self.t_span,
                (v - vels[1:m + 1]) / self.t_span)


class _OscStage:
    """Second-order core in controllable canonical form, fed by the
    two-impulse stage K*(u(t) + e^{sigma T} u(t-T)).

    The pole pair sigma +/- j pi/T is propagated with the exact matrix
    exponential over one sample (forcing held at the midpoint average), so
    the pole/zero cancellation that ends the transient is exact at float
    precision and the DC fixed point is reached bit-tightly.

    The stage starts at rest at u; its recurrence runs in
    `_native.oscillator`'s loop, compiled where a C compiler is at hand.
    """

    def __init__(self, sigma: float, n: int, dt: float, u: float):
        self.n = n
        self.t_span = t_span = n * dt
        if not _oscillator_span_ok(t_span):
            raise ValueError(f"the sample period {dt!r} s quantizes an oscillator "
                             f"span to {t_span!r} s, where (pi/span)^2 underflows; "
                             "shorten the sample period")
        wp = math.pi / t_span
        self.a0 = sigma * sigma + wp * wp
        self.a1 = -2.0 * sigma
        self.w_tap = math.exp(sigma * t_span)
        self.gain = self.a0 / (1.0 + self.w_tap)
        self._buf = np.full(n + 1, u, dtype=float)
        self.x1 = u
        self.x2 = 0.0
        self._w_prev = self.a0 * u
        from . import _native     # here, so that its build tools stay out of start-up
        self._loop = _native.oscillator(*_pole_pair_map(sigma, wp, dt))

    def run(self, u: np.ndarray, v: np.ndarray):
        """Forcing and acceleration as arrays, the 2x2 recurrence as one
        call of `_native.oscillator`'s loop."""
        m = u.size
        buf = np.concatenate((self._buf, u))
        w = self.gain * (u + self.w_tap * buf[1:m + 1])
        f = 0.5 * (np.concatenate(([self._w_prev], w[:-1])) + w)
        x1s, x2s = np.empty(m), np.empty(m)
        x1, x2 = self._loop(f, self.x1, self.x2, x1s, x2s)
        self.x1, self.x2, self._w_prev = x1, x2, float(w[-1])
        self._buf = buf[m:].copy()
        return x1s, x2s, w - self.a0 * x1s - self.a1 * x2s


def _build_stages(kind: SmootherKind, dt: float, u: float) -> list:
    """The serial stages of one smoother kind, at rest at u."""
    if isinstance(kind, Trapezoidal):
        return [_RectStage(_quantize(kind.T1, dt), dt, u),
                _RectStage(_quantize(kind.T2, dt), dt, u)]
    if isinstance(kind, DampedHarmonic):
        return [_OscStage(kind.sigma, _quantize(kind.T, dt), dt, u)]
    raise TypeError(f"not a smoother kind: {kind!r}")


@dataclass(frozen=True)
class CascadeSpec:
    """Ordered stages applied in series."""

    stages: tuple

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        for st in self.stages:
            if not isinstance(st, SmootherKind):
                raise TypeError(f"not a smoother kind: {st!r}")

    def total_duration(self) -> float:
        return sum(kernel_duration(st) for st in self.stages)

    def continuity_gain(self) -> int:
        return 2 * len(self.stages)


class CascadeState:
    """Streaming realization of one smoother kind, a sequence of kinds or a
    CascadeSpec, all sharing one sample period.

    Every stage starts as if initial_value had been held forever, so a
    stationary stream produces no startup transient. run() filters the next
    block of input samples and returns the filtered triple (p, p', p'');
    step() is run() on one sample.
    """

    def __init__(self, spec, sample_period: float, initial_value: float):
        if not (sample_period > 0.0 and math.isfinite(sample_period)):
            raise ValueError(f"sample_period must be positive and finite, "
                             f"got {sample_period}")
        if not isinstance(spec, CascadeSpec):
            spec = CascadeSpec((spec,) if isinstance(spec, SmootherKind) else spec)
        if len(spec.stages) == 0:
            raise ValueError("cascade must contain at least one stage")
        self.spec = spec
        self.sample_period = sample_period
        # a Python float, numpy scalars included, so the oscillator's
        # Python loop runs on plain floats
        value = float(initial_value)
        kinds = [_build_stages(k, sample_period, value) for k in spec.stages]
        # total group delay after quantization, summed kind by kind: the
        # filter output's header prints its bits
        self.delay = sum(sum(st.t_span for st in stages) for stages in kinds)
        self._stages = [st for stages in kinds for st in stages]

    def step(self, u: float):
        """run() on one sample; returns three floats."""
        p, v, a = self.run([u])
        return float(p[0]), float(v[0]), float(a[0])

    def run(self, series):
        """Filter a whole series; returns (p, v, a) arrays of equal length.

        `series` must be 1-D, otherwise ValueError is raised before any state
        changes. The block is filtered stage by stage, and a series cut into
        consecutive blocks gives the bytes of one run() over all of it. An
        empty series returns three empty arrays and leaves the state as it
        was.
        """
        p = np.asarray(series, dtype=float)
        if p.ndim != 1:
            raise ValueError(f"series must be 1-D, got shape {p.shape}")
        if p.size == 0:
            return np.empty(0), np.empty(0), np.empty(0)
        v = np.zeros(p.size)
        for st in self._stages:
            p, v, a = st.run(p, v)
        return p, v, a
