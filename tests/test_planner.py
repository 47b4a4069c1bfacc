import math

import numpy as np
import pytest

from traywaiter.dynamics import PlantParams
from traywaiter.planner import (
    PlanResult,
    Scenario,
    feasibility_report,
    friction_limited_duration,
    plan,
    rollout_trajectory,
)
from traywaiter.smoothers import CascadeSpec, DampedHarmonic, Trapezoidal

from _oracles import planar_tilt, simulate_linear_slosh

G = 9.81


def p2p_scenario(**kw):
    base = dict(material="solid", motion="point_to_point",
                start=[0.0, 0.0, 0.0], goal=[1.0, 0.0, 0.0],
                v_max=2.0, a_max=5.0, free_stage_T=0.1)
    base.update(kw)
    return Scenario(**base)


def rollout_x(result, scenario, dt, settle=0.0):
    """(t, x, x_dot, x_ddot) of a rollout along +x from the origin, which
    are the arc-length parameter s and its derivatives bit for bit (s * 1.0
    and 0.0 + s are exact)."""
    assert scenario.start.tolist() == [0.0, 0.0, 0.0]
    assert result.direction.tolist() == [1.0, 0.0, 0.0]
    t, P, V, A = rollout_trajectory(result, scenario, dt, settle)
    return t, P[:, 0], V[:, 0], A[:, 0]


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_friction_limited_duration_values():
    assert friction_limited_duration(1.0, 0.0, 0.5, G) == pytest.approx(
        2.0 * math.sqrt(1.0 / 4.905))  # 0.90326 s
    assert friction_limited_duration(0.0, 0.7, 0.3, G) == pytest.approx(
        2.0 * math.sqrt(0.7 / G))
    assert friction_limited_duration(1.0, 1.0, 1.0, 4.0) == pytest.approx(math.sqrt(2.0))


def test_friction_limited_duration_infeasible():
    assert friction_limited_duration(1.0, 0.0, 0.0, G) == math.inf
    assert friction_limited_duration(0.0, 0.5, 0.0, G) == pytest.approx(
        2.0 * math.sqrt(0.5 / G))


def test_friction_limited_duration_unbounded_friction_is_the_limit():
    # mu -> inf leaves only the vertical term; the formula itself gives nan
    assert friction_limited_duration(1.0, 0.5, math.inf, G) == 2.0 * math.sqrt(0.5 / G)
    assert friction_limited_duration(1.0, 0.0, math.inf, G) == 0.0


@pytest.mark.parametrize("name, args, problem", [
    ("h_o", (math.nan, 0.0, 0.3, G), "must be non-negative"),
    ("h_v", (1.0, math.nan, 0.3, G), "must be non-negative"),
    ("h_v", (1.0, -0.1, 0.3, G), "must be non-negative"),
    ("mu", (1.0, 0.0, math.nan, G), "must be non-negative"),
    ("mu", (1.0, 0.0, -0.3, G), "must be non-negative"),
    ("g", (1.0, 0.0, 0.3, math.nan), "must be positive"),
])
def test_friction_limited_duration_rejects_a_bad_argument(name, args, problem):
    bad = args[("h_o", "h_v", "mu", "g").index(name)]
    with pytest.raises(ValueError, match=f"^{name} {problem}, got {bad}$"):
        friction_limited_duration(*args)


# ---------------------------------------------------------------------------
# plan structure
# ---------------------------------------------------------------------------

def test_plan_solid_p2p():
    result = plan(p2p_scenario(), G)
    assert result.cascade.stages == (Trapezoidal(0.5, 0.4), Trapezoidal(0.1, 0.1))
    assert result.duration == pytest.approx(1.1)
    assert result.output_class == 3
    assert result.jerk_continuous


def test_plan_liquid_p2p():
    sc = p2p_scenario(material="liquid", omega_n=2 * math.pi, delta=0.1,
                      free_stage_T=None)
    result = plan(sc, G)
    trap, dh = result.cascade.stages
    assert trap == Trapezoidal(0.5, 0.4)
    assert isinstance(dh, DampedHarmonic)
    assert dh.sigma == pytest.approx(-0.2 * math.pi)
    assert dh.T == pytest.approx(1.5 / math.sqrt(0.99))
    assert result.duration == pytest.approx(0.9 + 1.5 / math.sqrt(0.99))
    assert result.jerk_continuous


def test_plan_liquid_complex_single_stage():
    sc = Scenario(material="liquid", motion="complex", omega_n=2 * math.pi, delta=0.1)
    result = plan(sc, G)
    assert len(result.cascade.stages) == 1
    dh = result.cascade.stages[0]
    assert dh.sigma == pytest.approx(-0.2 * math.pi)
    assert dh.T == pytest.approx(1.50756, abs=1e-5)


def test_plan_solid_complex_continuity():
    sc = Scenario(material="solid", motion="complex", free_stage_T=0.2)
    result = plan(sc, G)
    assert result.cascade.stages == (Trapezoidal(0.2, 0.2),)
    assert result.input_class == 2
    assert result.output_class == 4
    assert result.jerk_continuous


def test_plan_liquid_requires_slosh_params():
    with pytest.raises(ValueError):
        Scenario(material="liquid", motion="complex")


@pytest.mark.parametrize("field, value", [
    ("angular_accel_cap", 0.0), ("angular_accel_cap", -1.0),
    ("angular_accel_cap", math.nan), ("free_stage_T", -0.1), ("free_stage_T", math.nan),
])
def test_scenario_rejects_a_bad_free_stage_setting(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be positive$"):
        p2p_scenario(**{field: value})


def test_scenario_takes_an_unbounded_angular_cap():
    assert p2p_scenario(angular_accel_cap=math.inf).angular_accel_cap == math.inf


@pytest.mark.parametrize("field, refused", [
    ("free_stage_T", True), ("a_max", True), ("omega_n", True),
    ("v_max", False), ("angular_accel_cap", False),
])
def test_scenario_infinite_fields(field, refused):
    # a_max, omega_n and free_stage_T size a smoother stage, so Scenario
    # refuses them infinite; an unbounded speed or tilt cap never binds
    sc = dict(material="liquid", omega_n=14.0) if field == "omega_n" else {}
    sc[field] = math.inf
    if refused:
        with pytest.raises(ValueError, match=f"^{field} must be finite, got inf$"):
            p2p_scenario(**sc)
    else:
        assert 0.0 < plan(p2p_scenario(**sc), G).duration < 2.0


@pytest.mark.parametrize("field", ["start", "goal"])
@pytest.mark.parametrize("motion", ["point_to_point", "complex"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_scenario_non_finite_endpoints(field, motion, value):
    message = rf"^{field} must be finite, got \[0\.0, {value}, 0\.4\]$"
    with pytest.raises(ValueError, match=message):
        p2p_scenario(motion=motion, **{field: [0.0, value, 0.4]})


def test_plan_auto_free_stage_respects_cap():
    sc = p2p_scenario(free_stage_T=None, angular_accel_cap=15.0)
    result = plan(sc, G)
    assert result.free_stage_T >= 0.05
    # the chosen stage actually meets the cap
    from traywaiter.planner import _max_tilt_accel
    got = _max_tilt_accel(list(result.cascade.stages[:-1]) +
                          [result.cascade.stages[-1]], result.distance,
                          result.direction, G)
    assert got <= 15.0 * 1.001
    # a clearly shorter stage would violate it
    shorter = _max_tilt_accel([result.cascade.stages[0],
                               Trapezoidal(result.free_stage_T / 3,
                                           result.free_stage_T / 3)],
                              result.distance, result.direction, G)
    assert shorter > 15.0


def test_plan_searches_the_free_stage_under_the_given_gravity():
    # the golden solid move: weaker gravity tilts the tray further for the
    # same acceleration, so the stage that meets the cap is longer
    sc = Scenario(material="solid", motion="point_to_point", start=[0.0, 0.0, 0.4],
                  goal=[0.72, 0.96, 0.4], v_max=2.0, a_max=8.0, angular_accel_cap=150.0)
    assert plan(sc, G).free_stage_T == pytest.approx(0.0850, abs=5e-5)
    assert plan(sc, 5.0).free_stage_T == pytest.approx(0.1276, abs=5e-5)


def test_plan_triangular_solid_move_keeps_a_short_free_stage():
    # the move never reaches v_max, so its acceleration crosses zero with
    # nonzero jerk; the signed tilt is smooth there, where an unsigned one
    # has a kink that a second difference turns into a spike
    sc = p2p_scenario(goal=[0.2, 0.0, 0.0], v_max=2.0, a_max=8.0,
                      free_stage_T=None, angular_accel_cap=150.0)
    result = plan(sc, G)
    assert result.free_stage_T <= 0.2
    assert result.duration < 0.7
    # independent check: per-sample angles on a 10x finer grid than the
    # planner's, second differences instead of two gradients
    dt = result.duration / 30000
    sdd = rollout_x(result, sc, dt)[3]
    beta = np.array([planar_tilt(a, 0.0, G) for a in sdd.tolist()])
    beta_dd = (beta[2:] - 2.0 * beta[1:-1] + beta[:-2]) / (dt * dt)
    assert np.abs(beta_dd).max() <= 1.01 * 150.0


# ---------------------------------------------------------------------------
# rollouts
# ---------------------------------------------------------------------------

def test_rollout_reaches_goal_exactly():
    dt = 1e-3
    for sc in (p2p_scenario(),
               p2p_scenario(material="liquid", omega_n=14.0, delta=0.05,
                            free_stage_T=None)):
        result = plan(sc, G)
        t, s, sd, sdd = rollout_x(result, sc, dt, settle=0.05)
        h = result.distance
        after = t >= result.duration + 2 * dt
        assert np.abs(s[after] - h).max() < 1e-9 * h
        assert np.abs(s).max() <= h * (1 + 1e-9)  # no overshoot for these stages
        assert abs(sd[-1]) < 1e-9 and abs(sdd[-1]) < 1e-9


def test_rollout_straight_line():
    sc = p2p_scenario(goal=[0.6, 0.8, 0.0])
    result = plan(sc, G)
    t, P, V, A = rollout_trajectory(result, sc, 1e-3, settle=0.02)
    # path stays on the segment: cross product of displacement with direction
    d = P - sc.start[None, :]
    cross = np.cross(d, result.direction)
    assert np.abs(cross).max() < 1e-12
    assert np.allclose(P[-1], sc.goal, atol=1e-9)


def test_rollout_jerk_has_no_jumps():
    sc = p2p_scenario()
    result = plan(sc, G)

    def max_jerk_jump(dt):
        t, s, sd, sdd = rollout_x(result, sc, dt)
        jerk = np.gradient(sdd, dt)
        return np.abs(np.diff(jerk)).max()

    j1 = max_jerk_jump(2e-3)
    j2 = max_jerk_jump(1e-3)
    assert j2 <= 0.6 * j1  # vanishes with dt: position is C^3


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
def test_rollout_rejects_a_bad_dt(dt):
    sc = p2p_scenario()
    result = plan(sc, G)
    with pytest.raises(ValueError, match=f"^dt must be positive and finite, got {dt}$"):
        rollout_trajectory(result, sc, dt)


@pytest.mark.parametrize("settle", [math.nan, math.inf, -0.1])
def test_rollout_rejects_a_bad_settle(settle):
    sc = p2p_scenario()
    result = plan(sc, G)
    with pytest.raises(ValueError,
                       match=f"^settle must be non-negative and finite, got {settle}$"):
        rollout_trajectory(result, sc, 1e-3, settle=settle)


def test_planned_liquid_cascade_suppresses_slosh():
    omega_n, delta = 14.0, 0.05
    sc = p2p_scenario(material="liquid", omega_n=omega_n, delta=delta,
                      free_stage_T=None)
    result = plan(sc, G)
    dt = 2e-4
    t, s, sd, sdd = rollout_x(result, sc, dt, settle=1.0)
    theta, _ = simulate_linear_slosh(omega_n, delta, sdd, dt, g=G)
    k_end = int(result.duration / dt) + 2
    peak = np.abs(theta).max()
    residual = np.abs(theta[k_end:]).max()
    assert residual < 1e-3 * peak

    # ablation: equal-duration triangular stage instead of the damped notch
    dh = result.cascade.stages[1]
    ablated = PlanResult(
        CascadeSpec((result.cascade.stages[0], Trapezoidal(dh.T / 2, dh.T / 2))),
        result.duration, result.distance, result.direction,
        result.input_class, 3, dh.T / 2)
    t2, _, _, sdd2 = rollout_x(ablated, sc, dt, settle=1.0)
    theta2, _ = simulate_linear_slosh(omega_n, delta, sdd2, dt, g=G)
    residual2 = np.abs(theta2[k_end:]).max()
    assert residual2 > 3.0 * residual


# ---------------------------------------------------------------------------
# feasibility reports
# ---------------------------------------------------------------------------

def _plant(**kw):
    base = dict(m=0.0, M=0.5, l=0.05, h=0.05, d_z=0.0, b_lc=0.0, b_ct=0.0, mu=0.5)
    base.update(kw)
    return PlantParams(**base)


def test_feasibility_tilt_off_floor():
    text = feasibility_report(p2p_scenario(), _plant(mu=0.5))
    # 2 sqrt(1 / (0.5 * 9.81)), evaluated independently
    assert ("\n\nwithout tilt compensation (mu = 0.5):\n"
            "friction floor: T >= 0.9030472819714618 s (duration below this slips)\n"
            "assumption: worst-case vertical coupling z_ddot = -4 h_v / T^2") in text
    assert "friction floor: infeasible (mu = 0 with lateral motion)" in \
        feasibility_report(p2p_scenario(), _plant(mu=0.0))
    # the plant's gravity: 2 sqrt(1 / (0.5 * 4)) = sqrt(2)
    assert f"T >= {math.sqrt(2.0)!r} s" in feasibility_report(p2p_scenario(),
                                                              _plant(mu=0.5, g=4.0))


def test_feasibility_tilt_on_removes_floor():
    assert feasibility_report(p2p_scenario(), _plant()).startswith(
        "with tilt compensation:\n"
        "friction floor: none (tilt compensation removes the bound)\n\n")


def test_feasibility_tilt_on_cor_offset_caveat():
    # the caveat reads the plant's CoR offset, the one the simulator integrates
    assert "\ncaveat: CoR offset d_z = 0.02 m from the CoM: " in feasibility_report(
        p2p_scenario(), _plant(d_z=0.02))
    assert "caveat" not in feasibility_report(p2p_scenario(), _plant(d_z=0.0))


def test_feasibility_without_a_plant_is_the_tilt_section_alone():
    assert feasibility_report(p2p_scenario(), None) == (
        "with tilt compensation:\n"
        "friction floor: none (tilt compensation removes the bound)")
