"""Scenario-level trajectory synthesis.

Maps the four application cells (solid/liquid material crossed with
point-to-point/complex motion) onto smoother cascades, computes the
friction-limited duration floor that applies when tilt compensation is off,
and rolls planned point-to-point profiles along the straight segment from
start to goal (a single scalar cascade drives the arc-length parameter, so
the path stays straight).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .compensation import FreeFallError
from .dynamics import PlantParams, fd_tilt_channel
from .smoothers import (
    CascadeSpec,
    CascadeState,
    DampedHarmonic,
    Trapezoidal,
    kernel_duration,
    make_damped_harmonic_params,
    make_trapezoidal_params,
)

__all__ = [
    "Scenario",
    "PlanResult",
    "friction_limited_duration",
    "plan",
    "feasibility_report",
    "rollout_profile",
    "rollout_trajectory",
]

MIN_FREE_STAGE_T = 0.05  # s, floor for the free triangular stage


def friction_limited_duration(h_o: float, h_v: float, mu: float, g: float) -> float:
    """Duration floor T* = 2 sqrt((h_o + mu h_v) / (mu g)) below which a
    triangular-velocity move must slip when stability relies on friction
    alone (worst-case vertical coupling z_ddot = -4 h_v / T^2 assumed).

    Returns inf when mu == 0 with lateral displacement (infeasible).
    """
    if not g > 0.0:
        raise ValueError(f"g must be positive, got {g}")
    for name, val in (("h_o", h_o), ("h_v", h_v), ("mu", mu)):
        if not val >= 0.0:
            raise ValueError(f"{name} must be non-negative, got {val}")
    if mu == math.inf:  # the mu -> inf limit, where the formula gives nan
        return 2.0 * math.sqrt(h_v / g)
    if mu == 0.0:
        if h_o > 0.0:
            return math.inf
        return 2.0 * math.sqrt(h_v / g)  # mu cancels for pure vertical motion
    return 2.0 * math.sqrt((h_o + mu * h_v) / (mu * g))


@dataclass
class Scenario:
    """One transport task: what is carried and what kind of motion drives it.

    Point-to-point scenarios need start, goal and kinematic limits; liquid
    scenarios need the slosh parameters (omega_n, delta). free_stage_T fixes
    the free triangular stage of a solid. Left None, plan() searches a
    point-to-point move for the smallest value keeping the simulated tilt
    acceleration under angular_accel_cap, and leaves a complex move's stage
    at the floor MIN_FREE_STAGE_T.
    """

    material: str                      # "solid" | "liquid"
    motion: str                        # "point_to_point" | "complex"
    start: np.ndarray | None = None
    goal: np.ndarray | None = None
    v_max: float | None = None
    a_max: float | None = None
    omega_n: float | None = None
    delta: float = 0.0
    free_stage_T: float | None = None
    angular_accel_cap: float = 20.0    # rad/s^2

    def __post_init__(self):
        if self.material not in ("solid", "liquid"):
            raise ValueError(f"material must be 'solid' or 'liquid', got {self.material!r}")
        if self.motion not in ("point_to_point", "complex"):
            raise ValueError(
                f"motion must be 'point_to_point' or 'complex', got {self.motion!r}")
        for name in ("start", "goal"):
            value = getattr(self, name)
            if value is not None:
                value = np.asarray(value, dtype=float)
                if not np.isfinite(value).all():
                    raise ValueError(f"{name} must be finite, got {value.tolist()!r}")
                setattr(self, name, value)
        if self.motion == "point_to_point":
            if self.start is None or self.goal is None:
                raise ValueError("point-to-point scenario needs start and goal")
            if self.v_max is None or self.a_max is None:
                raise ValueError("point-to-point scenario needs v_max and a_max")
            if not (self.v_max > 0.0 and self.a_max > 0.0):
                raise ValueError("kinematic limits must be positive")
            # the norm squares the displacement, which overflows beyond ~1e154 m
            with np.errstate(over="ignore"):
                if not math.isfinite(np.linalg.norm(self.goal - self.start)):
                    raise ValueError("the distance from start to goal must be "
                                     "finite in float64 (below ~1e154 m)")
        if self.material == "liquid":
            if self.omega_n is None:
                raise ValueError("liquid scenario needs the slosh frequency omega_n")
            if not (self.omega_n > 0.0 and 0.0 <= self.delta < 1.0):
                raise ValueError("liquid scenario needs omega_n > 0 and delta in [0, 1)")
        if self.free_stage_T is not None and not self.free_stage_T > 0.0:
            raise ValueError("free_stage_T must be positive")
        if not self.angular_accel_cap > 0.0:
            raise ValueError("angular_accel_cap must be positive")
        # an unbounded v_max or angular_accel_cap is a limit that never binds;
        # these three size a smoother stage, which has no infinite length
        for name in ("a_max", "omega_n", "free_stage_T"):
            value = getattr(self, name)
            if value is not None and math.isinf(value):
                raise ValueError(f"{name} must be finite, got {float(value)!r}")

    @property
    def displacement(self) -> float:
        return float(np.linalg.norm(self.goal - self.start))

    @property
    def direction(self) -> np.ndarray:
        d = self.goal - self.start
        n = np.linalg.norm(d)
        if n == 0.0:
            return np.array([1.0, 0.0, 0.0])
        return d / n

    @property
    def horizontal_vertical_split(self) -> tuple[float, float]:
        d = self.goal - self.start
        return float(math.hypot(d[0], d[1])), float(abs(d[2]))


@dataclass
class PlanResult:
    cascade: CascadeSpec
    duration: float                    # total kernel support, s
    distance: float
    direction: np.ndarray
    input_class: int
    output_class: int
    free_stage_T: float | None
    notes: list = field(default_factory=list)

    @property
    def jerk_continuous(self) -> bool:
        """Tilt compensation needs at least C^3 position."""
        return self.output_class >= 3


def _max_tilt_accel(stages, h: float, direction: np.ndarray, g: float) -> float:
    """Max |beta_ddot| of the signed compensation angle along the planned
    step, from the simulator's tilt channel. A step that falls faster than
    gravity raises FreeFallError naming the time along the step."""
    total = sum(kernel_duration(s) for s in stages)
    dt = total / 3000.0
    state = CascadeState(CascadeSpec(tuple(stages)), dt, initial_value=0.0)
    n = int(total / dt) + 8
    _, _, acc = state.run(np.full(n, h))
    try:
        _, _, beta_dd = fd_tilt_channel(acc * math.hypot(direction[0], direction[1]),
                                        acc * direction[2], dt, g)
    except FreeFallError as exc:
        raise FreeFallError(f"the planned step reaches g + acc_z <= 0 at t = "
                            f"{exc.sample * dt:.6g} s; lower a_max") from None
    return float(np.abs(beta_dd).max())


def _search_free_stage(base_stages, h, direction, cap, g) -> float:
    """Smallest free triangular stage T (>= floor) keeping the simulated
    tilt acceleration under the cap; plain bisection, the response is
    monotone in T."""
    def ok(tf):
        return _max_tilt_accel(list(base_stages) + [Trapezoidal(tf, tf)],
                               h, direction, g) <= cap

    lo = MIN_FREE_STAGE_T
    if ok(lo):
        return lo
    hi = 2.0 * lo
    for _ in range(14):
        if ok(hi):
            break
        hi *= 2.0
    else:
        raise ValueError("no free-stage duration satisfies the angular cap")
    lo_bad = lo
    for _ in range(40):
        mid = 0.5 * (lo_bad + hi)
        if hi - lo_bad <= 1e-3 * hi:
            break
        if ok(mid):
            hi = mid
        else:
            lo_bad = mid
    return hi


def plan(scenario: Scenario, g: float) -> PlanResult:
    """Choose the smoother cascade for a scenario under gravity g.

    point-to-point solid : trapezoidal (min-time under limits) + free triangular
    point-to-point liquid: trapezoidal + damped harmonic tuned to the slosh mode
    complex solid        : free triangular only
    complex liquid       : damped harmonic only
    """
    s = scenario
    notes = []
    if s.motion == "point_to_point":
        h = s.displacement
        if h == 0.0:
            raise ValueError("zero displacement: nothing to plan")
        base = [Trapezoidal(*make_trapezoidal_params(h, s.v_max, s.a_max))]
        direction = s.direction
    else:
        h, base, direction = 0.0, [], np.array([1.0, 0.0, 0.0])
    if s.material == "liquid":
        sigma, T = make_damped_harmonic_params(s.omega_n, s.delta)
        stages = base + [DampedHarmonic(sigma, T)]
        free_T = None
    else:
        free_T = s.free_stage_T
        if free_T is None and base:
            free_T = _search_free_stage(base, h, direction, s.angular_accel_cap, g)
            notes.append(f"free stage set to {free_T:.6g} s by bisection "
                         f"against the {s.angular_accel_cap} rad/s^2 tilt cap")
        elif free_T is None:
            free_T = MIN_FREE_STAGE_T
            notes.append("free stage left at the floor; tune against the "
                         "robot's angular-rate limits")
        stages = base + [Trapezoidal(free_T, free_T)]

    spec = CascadeSpec(tuple(stages))
    # a step input is discontinuous in position; a recorded trace is taken as C^2
    in_class = -1 if s.motion == "point_to_point" else 2
    out_class = in_class + spec.continuity_gain()
    if out_class < 3:
        notes.append("output is below C^3: tilt compensation would demand "
                     "unbounded angular acceleration")
    return PlanResult(spec, spec.total_duration(), h, direction,
                      in_class, out_class, free_T, notes)


def feasibility_report(scenario: Scenario, plant: PlantParams | None) -> str:
    """The feasibility section of a point-to-point plan report.

    With tilt compensation and the CoR at the CoM no friction bound remains;
    a CoR offset plant.d_z adds the caveat |d_z M beta_ddot| <= F_s. Given a
    plant, the section also states the duration floor that its mu and g set
    when tilt compensation is off.
    """
    lines = ["with tilt compensation:",
             "friction floor: none (tilt compensation removes the bound)"]
    if plant is None:
        return "\n".join(lines)
    if plant.d_z != 0.0:
        lines.append(f"caveat: CoR offset d_z = {plant.d_z} m from the CoM: sticking "
                     "additionally requires |d_z M beta_ddot| <= F_s; keep the free "
                     "stage long enough")
    h_o, h_v = scenario.horizontal_vertical_split
    floor = friction_limited_duration(h_o, h_v, plant.mu, plant.g)
    bound = ("infeasible (mu = 0 with lateral motion)" if floor == math.inf
             else f"T >= {floor!r} s (duration below this slips)")
    lines += ["", f"without tilt compensation (mu = {plant.mu!r}):",
              f"friction floor: {bound}",
              "assumption: worst-case vertical coupling z_ddot = -4 h_v / T^2"]
    return "\n".join(lines)


def rollout_profile(result: PlanResult, dt: float, settle: float = 0.0,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Roll the planned cascade on the step input.

    Returns (t, s, s_dot, s_ddot) for the arc-length parameter, starting with
    one rest sample at t = 0; the goal is reached exactly once the total
    kernel support has elapsed.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not (settle >= 0.0 and math.isfinite(settle)):
        raise ValueError(f"settle must be non-negative and finite, got {settle}")
    state = CascadeState(result.cascade, dt, initial_value=0.0)
    n = int(math.ceil((result.duration + settle) / dt)) + 1
    pos, vel, acc = state.run(np.full(n, result.distance))
    t = np.arange(n + 1) * dt
    return (t,
            np.concatenate(([0.0], pos)),
            np.concatenate(([0.0], vel)),
            np.concatenate(([0.0], acc)))


def rollout_trajectory(result: PlanResult, scenario: Scenario, dt: float,
                       settle: float = 0.0):
    """Planned Cartesian trajectory along the straight start->goal segment.

    Returns (t, positions, velocities, accelerations) with shape (n, 3).
    """
    t, s, sd, sdd = rollout_profile(result, dt, settle)
    u = result.direction
    start = scenario.start
    return (t,
            start[None, :] + s[:, None] * u[None, :],
            sd[:, None] * u[None, :],
            sdd[:, None] * u[None, :])
