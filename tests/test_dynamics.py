import math

import numpy as np
import pytest

from traywaiter.dynamics import (
    ContactLostError,
    IntegrationError,
    PlantParams,
    SimState,
    TrayMotion,
    analytic_tilt_channel,
    desk_params,
    estimate_prv,
    fd_tilt_channel,
    friction_margin,
    linear_slosh_params,
    simulate_coupled,
    simulate_linear_slosh,
    simulate_pendulum,
    simulate_solid_sliding,
)
from traywaiter import dynamics
from traywaiter.dynamics import _MotionSampler, _midpoints
from traywaiter.smoothers import (
    CascadeState,
    DampedHarmonic,
    Harmonic,
    Rectangular,
    SmootherState,
    Trapezoidal,
    freq_response,
    kernel_duration,
    make_damped_harmonic_params,
    make_harmonic_T,
)

G = 9.81


def triangular_motion(h_o, T, dt, tail=0.3):
    """Uncompensated bang-bang (triangular velocity) lateral move."""
    a = 4.0 * h_o / T ** 2
    n = int(round((T + tail) / dt)) + 1
    t = np.arange(n) * dt
    acc = np.where(t < T / 2, a, np.where(t < T, -a, 0.0))
    return TrayMotion.from_channels(dt, acc, interp="linear")


def sin3_channels(amp, omega, t):
    """C^2 windowed acceleration pulse with analytic jerk and snap."""
    w = omega * t
    active = t <= 2 * math.pi / omega
    s, c = np.sin(w), np.cos(w)
    acc = np.where(active, amp * s ** 3, 0.0)
    jerk = np.where(active, 3 * amp * omega * s ** 2 * c, 0.0)
    snap = np.where(active, 3 * amp * omega ** 2 * (2 * s * c ** 2 - s ** 3), 0.0)
    return acc, jerk, snap


def compensated_sin3_motion(dt, amp_x=0.6 * G, amp_z=0.25 * G, omega=2 * math.pi,
                            duration=1.5, l_equals_h=True):
    t = np.arange(0.0, duration + dt / 2, dt)
    xdd, xj, xs = sin3_channels(amp_x, omega, t)
    zdd, zj, zs = sin3_channels(amp_z, omega, t)
    beta, bd, bdd = analytic_tilt_channel(xdd, xj, xs, zdd, zj, zs, G)
    return TrayMotion.from_channels(dt, xdd, zdd, beta, bd, bdd)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        desk_params(M=0.0)
    with pytest.raises(ValueError):
        desk_params(m=-0.1)
    with pytest.raises(ValueError):
        desk_params(mu=-0.5)
    with pytest.raises(ValueError):
        desk_params(m=0.0)  # keeps b_lc > 0
    desk_params(m=0.0, b_lc=0.0)


def test_desk_params_give_target_damping():
    omega_n, delta = linear_slosh_params(desk_params())
    assert omega_n == pytest.approx(math.sqrt(G / 0.05))
    assert delta == pytest.approx(0.05, abs=0.001)


def test_motion_validation():
    with pytest.raises(ValueError):
        TrayMotion.rest(1.0, -1e-3)
    m = TrayMotion.rest(1.0, 1e-3)
    with pytest.raises(ValueError):
        m.with_tilt(np.zeros(3), np.zeros(3), np.zeros(3))  # length mismatch


# ---------------------------------------------------------------------------
# nonlinear pendulum
# ---------------------------------------------------------------------------

def test_pendulum_rest_equilibrium():
    tr = simulate_pendulum(desk_params(), TrayMotion.rest(1.0, 1e-3))
    assert tr.max_abs_theta == 0.0
    assert np.all(tr.mode == 0)


def test_pendulum_settles_to_acceleration_equilibrium():
    a = 0.2
    dt = 1e-3
    motion = TrayMotion.from_channels(dt, np.full(int(30 / dt) + 1, a))
    tr = simulate_pendulum(desk_params(), motion)
    assert tr.theta[-1] == pytest.approx(-math.atan(a / G), abs=1e-8)
    assert abs(tr.theta_dot[-1]) < 1e-8


def test_zero_slosh_compensation():
    dt = 1e-4
    motion = compensated_sin3_motion(dt)
    tr = simulate_pendulum(desk_params(), motion)
    assert tr.max_abs_theta < 1e-6


def test_zero_slosh_requires_both_conditions():
    dt = 2e-4
    motion = compensated_sin3_motion(dt)
    base = simulate_pendulum(desk_params(), motion).max_abs_theta
    # wrong pendulum length (CoR no longer at the bob)
    off_l = simulate_pendulum(desk_params(l=0.025), motion).max_abs_theta
    # no tilt at all
    flat = TrayMotion.from_channels(dt, motion.x_ddot, motion.z_ddot)
    off_beta = simulate_pendulum(desk_params(), flat).max_abs_theta
    assert off_l > 1e3 * max(base, 1e-12)
    assert off_beta > 1e3 * max(base, 1e-12)


def test_pendulum_energy_conservation():
    p = desk_params(b_lc=0.0)
    tr = simulate_pendulum(p, TrayMotion.rest(10.0, 1e-3), init=(0.5, 0.0))
    energy = (0.5 * p.m * (p.l * tr.theta_dot) ** 2
              + p.m * G * p.l * (1 - np.cos(tr.theta)))
    drift = np.abs(energy - energy[0]).max() / energy[0]
    assert drift < 1e-8  # 1e4 steps, far below O(dt^2)


def test_integrator_fourth_order_convergence():
    def end_theta(dt):
        n = int(round(2.0 / dt)) + 1
        t = np.arange(n) * dt
        acc = 2.0 * np.sin(2 * np.pi * t) * np.sin(0.5 * np.pi * t) ** 2
        return simulate_pendulum(desk_params(), TrayMotion.from_channels(dt, acc)).theta[-1]

    ref = end_theta(2e-3 / 8)
    e1 = abs(end_theta(2e-3) - ref)
    e2 = abs(end_theta(1e-3) - ref)
    assert e1 / e2 >= 8.0


# ---------------------------------------------------------------------------
# linear slosh oracle
# ---------------------------------------------------------------------------

def test_linear_slosh_free_oscillation():
    omega = 9.0
    dt = 1e-4
    n = 20001
    theta, theta_dot = simulate_linear_slosh(omega, 0.0, np.zeros(n), dt,
                                             init=(0.1, 0.0))
    t = np.arange(n) * dt
    assert np.abs(theta - 0.1 * np.cos(omega * t)).max() < 1e-6


def test_harmonic_smoother_suppresses_residual():
    omega_n = 2 * math.pi
    dt = 1e-4
    T = make_harmonic_T(omega_n)
    state = SmootherState(Harmonic(T), dt, initial_value=0.0)
    n = int((T + 2.0) / dt)
    _, _, acc = state.run(np.ones(n))
    theta, _ = simulate_linear_slosh(omega_n, 0.0, acc, dt)
    k_end = int(T / dt) + 2
    peak = np.abs(theta).max()
    residual = np.abs(theta[k_end:]).max()
    assert residual < 1e-3 * peak
    # same displacement in the same time without smoothing: bang-bang accel
    a = 4.0 / T ** 2
    t = np.arange(n) * dt
    raw = np.where(t < T / 2, a, np.where(t < T, -a, 0.0))
    theta_raw, _ = simulate_linear_slosh(omega_n, 0.0, raw, dt)
    assert np.abs(theta_raw[k_end:]).max() > 100 * residual


def test_linear_matches_nonlinear_for_small_angles():
    p = desk_params()
    omega_n, delta = linear_slosh_params(p)
    dt = 1e-4
    n = int(6.0 / dt) + 1
    t = np.arange(n) * dt
    acc = 0.08 * np.sin(0.8 * omega_n * t)
    motion = TrayMotion.from_channels(dt, acc)
    nl = simulate_pendulum(p, motion)
    lin_theta, _ = simulate_linear_slosh(omega_n, delta, acc, dt, g=G)
    peak_nl = nl.max_abs_theta
    peak_lin = np.abs(lin_theta).max()
    assert 0.01 < peak_lin < 0.05
    assert abs(peak_nl - peak_lin) < 0.02 * peak_lin


# ---------------------------------------------------------------------------
# solid sliding
# ---------------------------------------------------------------------------

def test_solid_sticks_below_friction_limit():
    p = desk_params(m=0.0, b_lc=0.0, d_z=0.0)
    dt = 1e-4
    n = int(1.0 / dt) + 1
    t = np.arange(n) * dt
    acc = 0.8 * p.mu * G * np.sin(2 * np.pi * t)  # |acc| < mu g throughout
    tr = simulate_solid_sliding(p, TrayMotion.from_channels(dt, acc))
    assert np.all(tr.d_x == 0.0)
    assert np.all(tr.mode == 0)


def test_solid_slip_closed_form():
    p = desk_params(m=0.0, b_lc=0.0, d_z=0.0)
    a0 = 1.5 * p.mu * G
    dt = 1e-4
    n = int(0.3 / dt) + 1
    tr = simulate_solid_sliding(p, TrayMotion.from_channels(dt, np.full(n, a0)))
    # sliding backwards: d_x_ddot = -a0 + mu g
    k = int(0.2 / dt)
    assert tr.d_x_dot[k] == pytest.approx(-(a0 - p.mu * G) * tr.t[k], rel=1e-8)
    assert tr.mode[k] == 1


def test_solid_compensated_sticks_with_cor_at_com():
    # with the CoR at the CoM (d_z = 0) the tilt channel cannot shake the
    # object loose, whatever beta rates it carries
    dt = 1e-4
    st = CascadeState([Trapezoidal(0.25, 0.25), Trapezoidal(0.08, 0.08)], dt,
                      initial_value=0.0)
    n = int(1.2 / dt)
    _, _, acc = st.run(np.full(n, 0.6))
    beta, bd, bdd = fd_tilt_channel(acc, np.zeros(n), dt, G)
    motion = TrayMotion.from_channels(dt, acc, None, beta, bd, bdd)
    p = desk_params(m=0.0, b_lc=0.0, d_z=0.0, mu=0.05)
    tr = simulate_solid_sliding(p, motion)
    assert np.all(tr.d_x == 0.0)
    assert np.all(tr.mode == 0)


def test_friction_bound_bracketing_single_pair():
    h_o, mu = 1.0, 0.5
    p = desk_params(m=0.0, b_lc=0.0, mu=mu, d_z=0.0)
    t_star = 2 * math.sqrt(h_o / (mu * G))
    fast = simulate_solid_sliding(p, triangular_motion(h_o, 0.95 * t_star, 1e-4))
    slow = simulate_solid_sliding(p, triangular_motion(h_o, 1.05 * t_star, 1e-4))
    assert abs(fast.net_slip) > 1e-3
    assert abs(slow.net_slip) < 1e-6


def test_contact_loss_detected():
    p = desk_params(m=0.0, b_lc=0.0, d_z=0.0)
    dt = 1e-3
    n = 501
    zdd = np.full(n, -1.2 * G)  # tray accelerates down faster than gravity
    with pytest.raises(ContactLostError):
        simulate_solid_sliding(p, TrayMotion.from_channels(dt, np.zeros(n), zdd))


def test_contact_loss_inside_rk4_stage_names_step_time():
    # the first sample past t = 0.2 s reaches only the last RK4 stage of the
    # step from 0.2 s; the error must still name that step's start time
    p = desk_params()
    dt = 1e-3
    t = np.arange(501) * dt
    zdd = np.where(t > 0.2 + 0.5 * dt, -12.0, 0.0)
    motion = TrayMotion.from_channels(dt, np.zeros(t.size), zdd)
    for simulate in (simulate_coupled, simulate_solid_sliding):
        with pytest.raises(ContactLostError, match=r"contact lost at t = 0\.2 s"):
            simulate(p, motion)


def test_overflowing_state_ends_in_simulator_errors():
    # on Python floats x ** 2 raises OverflowError where float64 gave inf;
    # a diverging run must still end in ContactLostError or IntegrationError
    rest = TrayMotion.rest(0.1, 1e-3)
    with pytest.raises(ContactLostError, match=r"contact lost at t = 0 s"):
        simulate_coupled(desk_params(), rest, init=(0.1, 1e200, 0.0, 0.0))
    with pytest.raises(ContactLostError, match=r"contact lost at t = 0\.004 s"):
        simulate_pendulum(desk_params(), rest, init=(0.1, 1e200))


def test_nan_slip_velocity_ends_in_integration_error_on_every_run():
    # the sign bit of a NaN may differ once the interpreter has specialized
    # the float operations, so the outcome is checked over repeated runs
    rest = TrayMotion.rest(0.1, 1e-3)
    for _ in range(4):
        with pytest.raises(IntegrationError, match=r"non-finite state at t = 0\.001 s"):
            simulate_coupled(desk_params(), rest, init=(0.1, 1e150, 0.0, 1e150))


# ---------------------------------------------------------------------------
# coupled system
# ---------------------------------------------------------------------------

def _compensated_cascade_motion(dt, goal=0.4, stages=((0.3, 0.3), (0.1, 0.1)),
                                duration=1.4):
    st = CascadeState([Trapezoidal(*s) for s in stages], dt, initial_value=0.0)
    n = int(duration / dt)
    _, _, acc = st.run(np.full(n, goal))
    beta, bd, bdd = fd_tilt_channel(acc, np.zeros(n), dt, G)
    return TrayMotion.from_channels(dt, acc, None, beta, bd, bdd)


def test_coupled_compensated_equilibrium():
    dt = 1e-4
    motion = _compensated_cascade_motion(dt)
    tr = simulate_coupled(desk_params(), motion)
    assert tr.max_abs_theta < 1e-6
    assert np.all(tr.d_x == 0.0)
    assert np.all(tr.margin <= 0.0)


def test_coupled_slip_onset_matches_margin_crossing():
    dt = 1e-4
    motion = _compensated_cascade_motion(dt)
    tr = simulate_coupled(desk_params(mu=0.05), motion)
    assert len(tr.transitions) >= 1
    t_onset, from_mode, to_mode = tr.transitions[0]
    assert (from_mode, to_mode) == ("stick", "slip")
    k_cross = int(np.argmax(tr.margin > 0.0))
    assert abs(t_onset - tr.t[k_cross]) <= dt + 1e-12


@pytest.mark.parametrize("params", [desk_params(), desk_params(m=0.0, b_lc=0.0)],
                         ids=["coupled", "solid"])
def test_stick_step_makes_one_full_friction_evaluation(monkeypatch, params):
    # the four RK4 stages need only theta_ddot and the normal force; the
    # end-of-step stick test is the step's only full evaluation, and the
    # record of the step reuses it
    calls = dict.fromkeys(("_stick_eval", "_stick_rates", "_slip_eval"), 0)
    for name in calls:
        def counted(*args, _real=getattr(dynamics, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(dynamics, name, counted)
    tr = simulate_coupled(params, _compensated_cascade_motion(1e-3))
    n = tr.t.size - 1
    assert not tr.mode.any()
    assert calls["_slip_eval"] == 0
    assert calls["_stick_eval"] <= n + 2                   # + start-up test, record
    assert calls["_stick_rates"] <= 4 * n + calls["_stick_eval"]


@pytest.mark.parametrize("params", [desk_params(), desk_params(m=0.0, b_lc=0.0),
                                    desk_params(mu=0.05)],
                         ids=["coupled", "solid", "coupled-slipping"])
def test_recorded_friction_matches_friction_margin(params):
    # demand and F_s on every row, whether reused from the stick test or
    # evaluated for the record, are friction_margin at that row, bit for bit
    dt = 1e-3
    motion = _compensated_cascade_motion(dt)
    tr = simulate_coupled(params, motion)
    grid = _MotionSampler(motion, dt, tr.t.size - 1).grid
    for k in range(tr.t.size):
        state = SimState(tr.theta[k], tr.theta_dot[k], tr.d_x[k], tr.d_x_dot[k])
        demand, f_s = friction_margin(state, params, grid[k])
        assert (float(demand).hex(), float(f_s).hex()) == \
            (float(tr.demand[k]).hex(), float(tr.f_s[k]).hex()), k
    assert tr.mode.any() == (params.mu == 0.05)


def test_coupled_reduces_to_solid_as_m_vanishes():
    h_o, mu = 1.0, 0.4
    t_star = 2 * math.sqrt(h_o / (mu * G))
    motion = triangular_motion(h_o, 0.95 * t_star, 1e-4)
    solid = simulate_solid_sliding(desk_params(m=0.0, b_lc=0.0, mu=mu, d_z=0.0), motion)
    tiny = simulate_coupled(desk_params(m=1e-12, b_lc=0.0, mu=mu, d_z=0.0), motion)
    assert np.abs(solid.d_x - tiny.d_x).max() < 1e-8
    assert np.abs(solid.d_x_dot - tiny.d_x_dot).max() < 1e-8
    assert np.array_equal(solid.mode, tiny.mode)


def test_coupled_slip_satisfies_equations_of_motion():
    # independent re-derivation: finite-difference the logged trace and plug
    # it back into the pendulum and container equations (flat tray, beta = 0)
    p = desk_params(mu=0.08)
    dt = 1e-4
    T = 0.8
    n = int(round((T + 0.4) / dt)) + 1
    t = np.arange(n) * dt
    a = 3.0
    acc = np.where(t < T / 2, a, np.where(t < T, -a, 0.0))
    tr = simulate_coupled(p, TrayMotion.from_channels(dt, acc, interp="linear"))

    th, thd, dxd = tr.theta, tr.theta_dot, tr.d_x_dot
    thdd = np.gradient(thd, dt)
    dxdd = np.gradient(dxd, dt)
    m, M, l, h = p.m, p.M, p.l, p.h
    st, ct = np.sin(th), np.cos(th)
    res_pend = (l * thdd + (p.b_lc / (m * l)) * thd + ct * dxdd
                + st * G + ct * acc)
    f_slip = p.mu * ((M + m) * G + m * (l * st * thdd + l * ct * thd * thd))
    res_cont = ((m + M) * (acc + dxdd) + m * l * ct * thdd
                - l * m * st * thd ** 2 + f_slip * np.sign(dxd))

    bad = np.zeros(n, dtype=bool)
    for tj in (0.0, T / 2, T):                       # acceleration jumps
        k = int(round(tj / dt))
        bad[max(0, k - 5):k + 6] = True
    sgn = np.sign(dxd)
    for k in np.where(sgn[1:] * sgn[:-1] <= 0)[0]:   # friction reversals
        bad[max(0, k - 4):k + 5] = True
    sel = (tr.mode == 1) & ~bad
    sel[:3] = sel[-3:] = False
    assert sel.sum() > 5000
    assert np.abs(res_pend[sel]).max() < 1e-5
    assert np.abs(res_cont[sel]).max() < 1e-4 * (m + M) * G


def test_mode_consistency_invariant():
    h_o, mu = 0.8, 0.35
    t_star = 2 * math.sqrt(h_o / (mu * G))
    tr = simulate_solid_sliding(desk_params(m=0.0, b_lc=0.0, mu=mu, d_z=0.0),
                                triangular_motion(h_o, 0.9 * t_star, 1e-4))
    stick = tr.mode == 0
    assert np.all(tr.margin[stick] <= 1e-9)
    assert np.all(tr.d_x_dot[stick] == 0.0)
    assert np.any(~stick)


# ---------------------------------------------------------------------------
# friction margin
# ---------------------------------------------------------------------------

def test_friction_margin_at_rest():
    p = desk_params()
    demand, f_s = friction_margin(SimState(0, 0, 0, 0), p, (0, 0, 0, 0, 0))
    assert demand == 0.0
    assert f_s == pytest.approx(p.mu * (p.M + p.m) * G)


def test_friction_margin_maximized_at_beta_star():
    p = desk_params()
    ax = 4.0
    beta_star = -math.atan(ax / G)
    state = SimState(0, 0, 0, 0)
    d0, f0 = friction_margin(state, p, (ax, 0, beta_star, 0, 0))
    assert d0 == pytest.approx(0.0, abs=1e-12)
    for db in (-0.05, 0.05):
        _, f = friction_margin(state, p, (ax, 0, beta_star + db, 0, 0))
        assert f < f0


def test_friction_margin_matches_printed_formulas():
    # independent re-evaluation of the tangential balance and friction bound
    p = desk_params()
    th, thd = 0.12, -0.4
    xtt, ztt, b, bd, bdd = 1.5, -0.8, 0.1, 0.6, -2.0
    demand, f_s = friction_margin(SimState(th, thd, 0.0, 0.0), p,
                                  (xtt, ztt, b, bd, bdd))
    m, M, l, h, dz = p.m, p.M, p.l, p.h, p.d_z
    gz = G + ztt
    thdd = -((p.b_lc / (m * l)) * thd + (l - h * math.cos(th)) * bdd
             - h * math.sin(th) * bd ** 2
             + math.sin(b + th) * gz + math.cos(b + th) * xtt) / l
    expect_demand = ((m + M) * (math.sin(b) * gz + math.cos(b) * xtt)
                     + ((l * math.cos(th) - h) * m - dz * M) * bdd
                     + m * l * math.cos(th) * thdd
                     - l * m * math.sin(th) * (bd + thd) ** 2)
    expect_fs = p.mu * ((M + m) * (math.cos(b) * gz - math.sin(b) * xtt - dz * bd ** 2)
                        + m * (l * math.sin(th) * (bdd + thdd)
                               + l * math.cos(th) * thd * (2 * bd + thd)
                               + bd ** 2 * (l * math.cos(th) - h)))
    assert demand == pytest.approx(expect_demand, rel=1e-12)
    assert f_s == pytest.approx(expect_fs, rel=1e-12)


# ---------------------------------------------------------------------------
# residual vibration rating
# ---------------------------------------------------------------------------

def test_prv_notch_suppression():
    omega_n = 2 * math.pi
    assert estimate_prv(Harmonic(make_harmonic_T(omega_n)), omega_n) < 1e-3


def test_prv_passthrough_limit():
    omega_n = 2 * math.pi
    prv = estimate_prv(Rectangular(0.01), omega_n)
    assert prv == pytest.approx(1.0, abs=0.05)


def test_prv_harmonic_beats_trapezoidal_off_nominal():
    omega_n = 2 * math.pi
    harm = Harmonic(make_harmonic_T(omega_n))
    trap = Trapezoidal(2 * math.pi / omega_n, math.pi / omega_n)
    w = 1.3 * omega_n
    assert estimate_prv(harm, w) <= estimate_prv(trap, w)


def test_prv_proportional_to_magnitude_response():
    omega_n = 2 * math.pi
    harm = Harmonic(make_harmonic_T(omega_n))
    for ratio in (0.6, 0.8, 1.3, 1.7):
        w = ratio * omega_n
        prv = estimate_prv(harm, w)
        mag = freq_response(harm, [w])[0]
        assert abs(prv - mag) < 0.05 * mag


def _velocity_driven_slosh(omega_n, delta, vel_series, dt, g):
    """Linear slosh oscillator in the integrated-by-parts state
    (theta, theta_dot + x_dot/l), which only the tray velocity forces; so it
    runs on structural velocity outputs even when the acceleration is
    distributional (single rectangular kernel). Returns (theta, theta_dot)."""
    l = g / (omega_n * omega_n)
    v = np.asarray(vel_series, dtype=float) / l
    vm = _midpoints(v)
    two_dw = 2.0 * delta * omega_n
    w2 = omega_n * omega_n
    n = v.size
    p1 = np.empty(n)
    p2 = np.empty(n)
    # p2 is continuous across velocity jumps (the jump lands in theta_dot)
    x1, x2 = 0.0, 0.0
    p1[0], p2[0] = x1, x2

    def f(a, b, vk):
        return (b - vk, -two_dw * (b - vk) - w2 * a)

    for k in range(n - 1):
        v0, vh, v1 = v[k], vm[k], v[k + 1]
        k1 = f(x1, x2, v0)
        a2, b2 = x1 + 0.5 * dt * k1[0], x2 + 0.5 * dt * k1[1]
        k2 = f(a2, b2, vh)
        a3, b3 = x1 + 0.5 * dt * k2[0], x2 + 0.5 * dt * k2[1]
        k3 = f(a3, b3, vh)
        a4, b4 = x1 + dt * k3[0], x2 + dt * k3[1]
        k4 = f(a4, b4, v1)
        x1 += dt * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0
        x2 += dt * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0
        p1[k + 1], p2[k + 1] = x1, x2
    return p1, p2 - v


def _simulated_prv(kind, omega_n, delta=0.0, g=G, h=1.0, dt=None):
    """Residual-vibration rating by simulation: the residual envelope of the
    linear slosh plant after the smoothed step of height h has settled,
    normalized by the residual an unsmoothed step leaves. `dt` defaults to a
    grid commensurate with the kernel support; pass one to see how
    quantization to a coarser grid detunes a notch."""
    period = 2.0 * math.pi / omega_n
    support = kernel_duration(kind)
    if dt is None:
        dt = min(period, support) / 4000.0
        dt = support / max(1, round(support / dt))
    state = SmootherState(kind, dt, initial_value=0.0)
    support_q = state.delay
    n = int(round((support_q + 1.5 * period) / dt)) + 1
    _, vel, _ = state.run(np.full(n, h))
    theta, theta_dot = _velocity_driven_slosh(omega_n, delta, vel, dt, g)

    l = g / (omega_n * omega_n)
    omega_d = omega_n * math.sqrt(1.0 - delta * delta)
    idx = np.arange(int(math.ceil(support_q / dt)) + 1, n)
    env = np.sqrt(theta[idx] ** 2 +
                  ((theta_dot[idx] + delta * omega_n * theta[idx]) / omega_d) ** 2)
    ref = (h / l) * np.exp(-delta * omega_n * idx * dt) / math.sqrt(1.0 - delta * delta)
    return float(np.max(env / ref))


W0 = 2 * math.pi
DAMPED = DampedHarmonic(*make_damped_harmonic_params(W0, 0.1))


@pytest.mark.parametrize("kind, omega_n, delta", [
    (Harmonic(make_harmonic_T(W0)), 0.7 * W0, 0.0),
    (Harmonic(make_harmonic_T(W0)), 1.3 * W0, 0.05),
    (Trapezoidal(2 * math.pi / W0, math.pi / W0), 1.3 * W0, 0.0),
    (Trapezoidal(0.4, 0.25), W0, 0.1),
    (Rectangular(0.3), W0, 0.0),
    (Rectangular(0.45), 1.6 * W0, 0.05),
    (DAMPED, 0.8 * W0, 0.0),
    (DAMPED, 1.25 * W0, 0.1),
])
def test_prv_closed_form_matches_simulation_off_notch(kind, omega_n, delta):
    closed = estimate_prv(kind, omega_n, delta)
    simulated = _simulated_prv(kind, omega_n, delta)
    assert closed > 1e-2
    assert abs(closed - simulated) <= 1e-3 * simulated


@pytest.mark.parametrize("kind, delta", [
    (Harmonic(make_harmonic_T(W0)), 0.0),
    (Trapezoidal(2 * math.pi / W0, math.pi / W0), 0.0),
    (DAMPED, 0.1),
])
def test_prv_closed_form_and_simulation_vanish_at_notch(kind, delta):
    assert estimate_prv(kind, W0, delta) < 1e-6
    assert _simulated_prv(kind, W0, delta) < 1e-6
