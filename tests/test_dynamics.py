import math
from dataclasses import replace

import numpy as np
import pytest

from traywaiter.dynamics import (
    ContactLostError,
    IntegrationError,
    PlantParams,
    analytic_tilt_channel,
    estimate_prv,
    fd_tilt_channel,
    simulate_coupled,
    simulate_solid_sliding,
)
from traywaiter import _native, dynamics
from traywaiter.dynamics import _contact, _input_terms, _MotionSampler, _TraySim
from traywaiter.smoothers import (
    CascadeState,
    DampedHarmonic,
    Trapezoidal,
    freq_response,
    kernel_duration,
    make_damped_harmonic_params,
)

from _oracles import (
    GenericSlipSim,
    GenericStickSim,
    TrayMotion,
    _midpoints,
    desk_params,
    linear_slosh_params,
    pinned_pendulum,
    python_loops,
    simulate_linear_slosh,
)

G = 9.81


def triangular_motion(h_o, T, dt, tail=0.3):
    """Uncompensated bang-bang (triangular velocity) lateral move."""
    a = 4.0 * h_o / T ** 2
    n = int(round((T + tail) / dt)) + 1
    t = np.arange(n) * dt
    acc = np.where(t < T / 2, a, np.where(t < T, -a, 0.0))
    return TrayMotion.from_channels(dt, acc)


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
    desk_params(mu=math.inf)  # glues the container


_PLANT_FIELDS = ("m", "M", "l", "h", "d_z", "b_lc", "b_ct", "mu", "g")


@pytest.mark.parametrize("name, value", [
    (name, value) for name in _PLANT_FIELDS for value in (math.nan, math.inf, -math.inf)
    if (name, value) != ("mu", math.inf)])
def test_params_reject_non_finite_fields(name, value):
    # a NaN or infinite field used to pass and end the run late in
    # "IntegrationError: non-finite state at t = 0.001 s"
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        desk_params(**{name: value})


def test_desk_params_give_target_damping():
    omega_n, delta = linear_slosh_params(desk_params())
    assert omega_n == pytest.approx(math.sqrt(G / 0.05))
    assert delta == pytest.approx(0.05, abs=0.001)


def test_motion_validation():
    with pytest.raises(ValueError):
        TrayMotion.rest(1.0, -1e-3)
    with pytest.raises(ValueError):
        TrayMotion.from_channels(1e-3, np.zeros(5), beta=np.zeros(3))  # length mismatch


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
def test_motion_and_simulators_reject_a_bad_dt(dt):
    # a NaN dt used to pass TrayMotion and, as the simulators' step, end in
    # "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match=f"^dt must be positive and finite, got {dt}$"):
        TrayMotion.from_channels(dt, np.zeros(5))
    motion = TrayMotion.from_channels(1e-3, np.zeros(5))
    for simulate in (simulate_coupled, simulate_solid_sliding):
        with pytest.raises(ValueError, match=f"^dt must be positive and finite, got {dt}$"):
            simulate(desk_params(), motion, dt=dt)


@pytest.mark.parametrize("dt", [1.2e-3, 1.6e-3, 2e-3])
def test_simulators_reject_a_motion_shorter_than_one_step(dt):
    # a 1 ms motion at a wider step: at 1.2 and 1.6 ms the step count rounds
    # to 1, which is off the duration, and its floor fallback to 0, which
    # used to give a one-row trace
    motion = TrayMotion.from_channels(1e-3, [0.0, 0.0])
    for simulate in (simulate_coupled, simulate_solid_sliding):
        with pytest.raises(ValueError, match="^motion shorter than one integration step$"):
            simulate(desk_params(), motion, dt=dt)


# ---------------------------------------------------------------------------
# nonlinear pendulum: the engine with the container glued by mu = inf
# ---------------------------------------------------------------------------

def convergence_motion(dt):
    n = int(round(2.0 / dt)) + 1
    t = np.arange(n) * dt
    acc = 2.0 * np.sin(2 * np.pi * t) * np.sin(0.5 * np.pi * t) ** 2
    return TrayMotion.from_channels(dt, acc)


def test_pendulum_rest_equilibrium():
    tr = simulate_coupled(desk_params(mu=math.inf), TrayMotion.rest(1.0, 1e-3))
    assert tr.max_abs_theta == 0.0
    assert np.all(tr.mode == 0)


def test_pendulum_settles_to_acceleration_equilibrium():
    a = 0.2
    dt = 1e-3
    motion = TrayMotion.from_channels(dt, np.full(int(30 / dt) + 1, a))
    tr = simulate_coupled(desk_params(mu=math.inf), motion)
    assert tr.theta[-1] == pytest.approx(-math.atan(a / G), abs=1e-8)
    assert abs(tr.theta_dot[-1]) < 1e-8


def test_zero_slosh_compensation():
    dt = 1e-4
    motion = compensated_sin3_motion(dt)
    tr = simulate_coupled(desk_params(mu=math.inf), motion)
    assert tr.max_abs_theta < 1e-6


def test_zero_slosh_requires_both_conditions():
    dt = 2e-4
    motion = compensated_sin3_motion(dt)
    base = simulate_coupled(desk_params(mu=math.inf), motion).max_abs_theta
    # wrong pendulum length (CoR no longer at the bob)
    off_l = simulate_coupled(desk_params(l=0.025, mu=math.inf), motion).max_abs_theta
    # no tilt at all
    flat = TrayMotion.from_channels(dt, motion.x_ddot, motion.z_ddot)
    off_beta = simulate_coupled(desk_params(mu=math.inf), flat).max_abs_theta
    assert off_l > 1e3 * max(base, 1e-12)
    assert off_beta > 1e3 * max(base, 1e-12)


def test_pendulum_energy_conservation():
    p = desk_params(b_lc=0.0, mu=math.inf)
    tr = _TraySim(p, TrayMotion.rest(10.0, 1e-3), None, (0.5, 0.0, 0.0, 0.0)).run()
    energy = (0.5 * p.m * (p.l * tr.theta_dot) ** 2
              + p.m * G * p.l * (1 - np.cos(tr.theta)))
    drift = np.abs(energy - energy[0]).max() / energy[0]
    assert drift < 1e-8  # 1e4 steps, far below O(dt^2)


def test_integrator_fourth_order_convergence():
    def end_theta(dt):
        return simulate_coupled(desk_params(mu=math.inf), convergence_motion(dt)).theta[-1]

    ref = end_theta(2e-3 / 8)
    e1 = abs(end_theta(2e-3) - ref)
    e2 = abs(end_theta(1e-3) - ref)
    assert e1 / e2 >= 8.0


# (params, motion, init) of the pendulum runs above
PENDULUM_RUNS = {
    "rest": lambda: (desk_params(), TrayMotion.rest(1.0, 1e-3), (0.0, 0.0)),
    "constant-acceleration": lambda: (
        desk_params(), TrayMotion.from_channels(1e-3, np.full(30001, 0.2)), (0.0, 0.0)),
    "compensated-sin3": lambda: (desk_params(), compensated_sin3_motion(1e-4), (0.0, 0.0)),
    "energy": lambda: (desk_params(b_lc=0.0), TrayMotion.rest(10.0, 1e-3), (0.5, 0.0)),
    **{f"convergence-{dt:g}": lambda dt=dt: (desk_params(), convergence_motion(dt), (0.0, 0.0))
       for dt in (2e-3, 1e-3, 2e-3 / 8)},
}


@pytest.mark.parametrize("run", list(PENDULUM_RUNS))
def test_pendulum_matches_its_own_loop_bit_for_bit(run):
    # the engine at mu = inf sticks on every step and integrates theta as
    # the pendulum's own fixed-step loop did
    params, motion, init = PENDULUM_RUNS[run]()
    tr = _TraySim(replace(params, mu=math.inf), motion, None, (*init, 0.0, 0.0)).run()
    ref = pinned_pendulum(params, motion, init=init)
    for name in ("t", "theta", "theta_dot", "demand"):
        assert getattr(tr, name).tobytes() == getattr(ref, name).tobytes(), name
    assert np.all(tr.f_s == math.inf)
    assert not (tr.mode.any() or tr.d_x.any() or tr.d_x_dot.any() or tr.transitions)


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
    T = make_damped_harmonic_params(omega_n, 0.0)[1]
    state = CascadeState(DampedHarmonic(0.0, T), dt, initial_value=0.0)
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
    nl = simulate_coupled(replace(p, mu=math.inf), motion)
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
    for params in (desk_params(), desk_params(mu=math.inf)):
        with pytest.raises(ContactLostError, match=r"contact lost at t = 0 s"):
            _TraySim(params, rest, None, (0.1, 1e200, 0.0, 0.0)).run()


@pytest.mark.parametrize("params, init", [
    (desk_params(mu=0.05), (0.0, 0.0, 0.0, 0.0)),                 # slip onset
    (desk_params(m=0.0, b_lc=0.0), (0.0, 0.0, 0.0, 0.3)),          # slide stops
], ids=["onset", "stop"])
def test_every_located_event_counts_towards_chatter(monkeypatch, params, init):
    monkeypatch.setattr(dynamics, "_MAX_EVENTS_PER_STEP", 0)
    with pytest.raises(IntegrationError, match=r"event chatter at t = "):
        _TraySim(params, _compensated_cascade_motion(1e-3), None, init).run()


def test_nan_slip_velocity_ends_in_integration_error_on_every_run():
    # the sign bit of a NaN may differ once the interpreter has specialized
    # the float operations, so the outcome is checked over repeated runs
    rest = TrayMotion.rest(0.1, 1e-3)
    for _ in range(4):
        with pytest.raises(IntegrationError, match=r"non-finite state at t = 0\.001 s"):
            _TraySim(desk_params(), rest, None, (0.1, 1e150, 0.0, 1e150)).run()


@pytest.mark.parametrize("params, init", [
    # theta_dot = 1e308 holds on the solid, so the RK4 sum overflows and the
    # slide step ends at theta = inf
    (desk_params(m=0.0, b_lc=0.0), (0.0, 1e308, 0.0, 0.3)),
    # the coupled slide's later stages and its end state reach theta = -inf
    (desk_params(), (-1.2245396884174076, -6.41191512216294e307, 0.0, 0.1)),
], ids=["solid", "coupled"])
def test_infinite_theta_after_a_slide_step_ends_in_integration_error(engine_loops, params, init):
    # sin and cos of an infinite theta are NaN in the contact model, as libm
    # gives them where math.sin raises ValueError: the compiled loop hands
    # that step back, and on either path the NaN reaches the new state, which
    # the run reports as non-finite
    motion = TrayMotion.from_channels(1e-3, np.zeros(10))
    with pytest.raises(IntegrationError, match=r"^non-finite state at t = 0\.001 s$"):
        _TraySim(params, motion, None, init).run()


def test_infinite_theta_after_a_stick_step_ends_in_integration_error(engine_loops):
    # the RK4 sum of theta overflows, so the stick step ends at theta = -inf,
    # where sin and cos are NaN: the compiled loop hands that step back, and
    # on either path the run reports the non-finite state
    motion = TrayMotion.from_channels(1e-3, np.zeros(10))
    with pytest.raises(IntegrationError, match=r"^non-finite state at t = 0\.001 s$"):
        _TraySim(desk_params(mu=math.inf), motion, None,
                 (-1.2245396884174076, -6.41191512216294e307, 0.0, 0.0)).run()


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
    assert np.all(np.abs(tr.demand) <= tr.f_s)


def test_coupled_slip_onset_matches_margin_crossing():
    dt = 1e-4
    motion = _compensated_cascade_motion(dt)
    tr = simulate_coupled(desk_params(mu=0.05), motion)
    assert len(tr.transitions) >= 1
    t_onset, from_mode, to_mode = tr.transitions[0]
    assert (from_mode, to_mode) == ("stick", "slip")
    k_cross = int(np.argmax(np.abs(tr.demand) > tr.f_s))
    assert abs(t_onset - tr.t[k_cross]) <= dt + 1e-12


def _count_engine_calls(monkeypatch):
    # the Python sub-steps by mode ("stick", "slip": calls of `_advance`),
    # the calls of the plant's slide and of its stick test, which are split
    # into "sub_test" (made inside a sub-step: its stages while sticking and
    # its end test) and "test" (made by run(): start-up, row 0, held states
    # and events at a step's end); "at_slide" counts the tests of run() at a
    # sliding state, d_x_dot != 0
    calls = dict.fromkeys(("stick", "slip", "slide", "sub_test", "test", "at_slide"), 0)
    in_step = []

    def contact(p, damp, _real=dynamics._contact):
        test, slide = _real(p, damp)

        def counted_test(*args):
            if in_step:
                calls["sub_test"] += 1
            else:
                calls["test"] += 1
                calls["at_slide"] += args[3] != 0.0
            return test(*args)

        def counted_slide(*args):
            calls["slide"] += 1
            return slide(*args)
        return counted_test, counted_slide
    monkeypatch.setattr(dynamics, "_contact", contact)

    def advance(self, y, t, h, mode, inputs, _real=dynamics._TraySim._advance):
        calls["slip" if mode == dynamics.SLIP else "stick"] += 1
        in_step.append(mode)
        try:
            return _real(self, y, t, h, mode, inputs)
        finally:
            in_step.pop()
    monkeypatch.setattr(dynamics._TraySim, "_advance", advance)
    return calls


# runs that stick throughout
STICKING_RUNS = pytest.mark.parametrize("simulate, params", [
    (simulate_coupled, desk_params()),
    (simulate_coupled, desk_params(m=0.0, b_lc=0.0)),
    (simulate_coupled, desk_params(mu=math.inf)),
], ids=["coupled", "solid", "pendulum"])


@STICKING_RUNS
def test_stick_step_is_one_sub_step_whose_end_test_fills_the_record(monkeypatch, simulate,
                                                                    params):
    # a sticking step is one sub-step: four stages, each the plant's stick
    # test, and the stick test at the new state, which fills the record of
    # the step; the start-up stick test is the run's only other one, and
    # fills row 0. The Python loop only: the compiled loop makes no Python
    # sub-step.
    monkeypatch.setattr(_native, "loops", python_loops)
    calls = _count_engine_calls(monkeypatch)
    tr = simulate(params, _compensated_cascade_motion(1e-3))
    assert not tr.mode.any()
    assert calls["stick"] == tr.t.size - 1
    assert calls["slip"] == calls["slide"] == 0
    assert calls["sub_test"] == 5 * calls["stick"]
    assert calls["test"] == 1


@STICKING_RUNS
def test_compiled_loop_runs_every_step_of_a_sticking_run(monkeypatch, simulate, params):
    # where the compiled stick loop builds, a run that sticks throughout
    # makes no Python sub-step and no stick test past its start-up one
    if _native.library() is None:
        pytest.skip("no C compiler: the compiled stick loop is not built")
    calls = _count_engine_calls(monkeypatch)
    tr = simulate(params, _compensated_cascade_motion(1e-3))
    assert not tr.mode.any()
    assert calls == dict(stick=0, slip=0, slide=0, sub_test=0, test=1, at_slide=0)


# a 300-step slide without events: the tray pulls ahead at 10 m/s^2 > mu g
_SLIDE = TrayMotion.from_channels(1e-3, np.full(301, 10.0))


@pytest.mark.parametrize("params", [desk_params(), desk_params(m=0.0, b_lc=0.0)],
                         ids=["coupled", "solid"])
def test_slip_step_is_one_sub_step_whose_end_test_fills_the_record(monkeypatch, params):
    # a sliding step is one sub-step: four stages, each the plant's slide,
    # and the stick test at the new state, which fills the record of the
    # step. On a slide without events the start-up makes the run's only
    # other stick tests: the one of the held state, which decides the start
    # mode, and the one at the sliding state, which fills row 0. An n-step
    # slide thus makes n + 2 stick tests. The Python loop only: the compiled
    # loop makes no Python sub-step.
    monkeypatch.setattr(_native, "loops", python_loops)
    calls = _count_engine_calls(monkeypatch)
    tr = _TraySim(params, _SLIDE, None, (0.0, 0.0, 0.0, -0.3)).run()
    assert tr.mode.all() and not tr.transitions
    assert calls["slip"] == _SLIDE.n - 1
    assert calls["stick"] == 0
    assert calls["slide"] == 4 * calls["slip"]
    assert calls["sub_test"] == _SLIDE.n - 1
    assert calls["test"] == 2
    assert calls["at_slide"] == 1


def _pulse_motion(dt, accel):
    t = np.arange(401) * dt
    x_ddot = np.where((t >= 0.1) & (t < 0.2), accel, 0.0)
    return TrayMotion.from_channels(dt, x_ddot)


# slides captured at a step end, with the capture time
_CAPTURES = {
    # the next step starts in stick from the held state's stick test
    "captured-at-step-end": (desk_params(), _pulse_motion(1e-3, 3.45745), 0.205),
    # d_x_dot ~ -9.4e-8 at the capture, which viscous friction turns into
    # demand: the record and the next step's first stage must take the held
    # state's stick test, not the slide step's
    "captured-with-viscous-friction": (desk_params(b_ct=0.5),
                                       _pulse_motion(1e-3, 3.4625645), 0.205),
    # the same on a tilted (compensated) move
    "tilted-captured-with-viscous-friction": (
        desk_params(b_ct=0.5, mu=0.05), _compensated_cascade_motion(1e-3, goal=0.40098), 0.222),
}

# stick -> slip -> stick runs, with sub-steps and bisection after each event;
# each test takes the `engine_loops` fixture, so it runs with the compiled
# step loop, with every step in Python and with the compiled loop handing
# back a step after every few
_STICK_SLIP_STICK_RUNS = {
    "coupled": (desk_params(mu=0.05), _compensated_cascade_motion(1e-3)),
    "solid": (desk_params(m=0.0, b_lc=0.0, mu=0.05), _compensated_cascade_motion(1e-3)),
    **{name: case[:2] for name, case in _CAPTURES.items()},
}
STICK_SLIP_STICK = pytest.mark.parametrize("params, motion", _STICK_SLIP_STICK_RUNS.values(),
                                           ids=_STICK_SLIP_STICK_RUNS)


def _windowed_loops(loops, m):
    """`loops` bound, at each call from step k, to the rows up to row
    min(k + m, n): the compiled loop commits at most m steps a call, and
    run() goes on in Python at the row it stops at."""
    def bind(p, damp, v_eps, dt, grid, mid, trace):
        n = mid.shape[0]

        def steps(mode, k, y, k1, s):
            stop = min(k + m, n)
            window = [a[:stop + 1] for a in trace]
            return loops(p, damp, v_eps, dt, grid[:stop + 1], mid[:stop], window)(
                mode, k, y, k1, s)
        return steps
    return bind


@pytest.fixture(params=["compiled", "python", "hand-back"])
def engine_loops(request, monkeypatch):
    # hand-back: the compiled loop hands a step back to Python after at
    # most three, so that the Python loop resumes at many rows
    if request.param == "python":
        monkeypatch.setattr(_native, "loops", python_loops)
        return request.param
    if _native.library() is None:
        pytest.skip("no C compiler: the compiled loops are not built")
    if request.param == "hand-back":
        monkeypatch.setattr(_native, "loops", _windowed_loops(_native.loops, 3))
    return request.param


# sliding runs from rest (stick -> slip -> stick) and the slide without
# events, from d_x_dot = -0.3
_SLIDING_RUNS = {
    **{name: (*case, (0.0, 0.0, 0.0, 0.0)) for name, case in _STICK_SLIP_STICK_RUNS.items()},
    "slide-coupled": (desk_params(), _SLIDE, (0.0, 0.0, 0.0, -0.3)),
    "slide-solid": (desk_params(m=0.0, b_lc=0.0), _SLIDE, (0.0, 0.0, 0.0, -0.3)),
}


@pytest.mark.parametrize("params, motion, init", _SLIDING_RUNS.values(), ids=_SLIDING_RUNS)
def test_compiled_loop_runs_every_step_of_a_sliding_run(monkeypatch, params, motion, init):
    # where the compiled loops build, a Python sub-step runs only in the
    # steps that hold an event, a bisection or a transition; the slide
    # without events makes no Python sub-step and no stick test past its
    # start-up ones
    if _native.library() is None:
        pytest.skip("no C compiler: the compiled loops are not built")
    dt = motion.dt
    python_steps, event_steps = [], set()
    calls = _count_engine_calls(monkeypatch)

    def advance(self, y, t, *args, _real=dynamics._TraySim._advance):
        python_steps.append(math.floor(t / dt + 1e-6))
        return _real(self, y, t, *args)

    def bisect(self, y0, t0, *args, _real=dynamics._TraySim._bisect):
        event_steps.add(math.floor(t0 / dt + 1e-6))
        return _real(self, y0, t0, *args)
    monkeypatch.setattr(dynamics._TraySim, "_advance", advance)
    monkeypatch.setattr(dynamics._TraySim, "_bisect", bisect)
    tr = _TraySim(params, motion, None, init).run()
    event_steps.update(math.ceil(t / dt - 1e-6) - 1 for t, _, _ in tr.transitions)
    assert np.count_nonzero(tr.mode) > 10 * len(set(python_steps))     # mostly compiled
    assert set(python_steps) <= event_steps
    if not tr.transitions:
        assert calls == dict(stick=0, slip=0, slide=0, sub_test=0, test=2, at_slide=1)


@pytest.mark.parametrize("params, motion, t_capture", _CAPTURES.values(), ids=_CAPTURES)
def test_capture_cases_end_their_slide_on_the_grid(monkeypatch, params, motion, t_capture):
    # the capture cases stay what their names say: the first slide ends at
    # a step end, where 0 < |d_x_dot| < 1e-6, and not by a bisection, so the
    # held state differs from the slide step's end state
    monkeypatch.setattr(_native, "loops", python_loops)
    slide_ends = []

    def advance(self, y, t, h, mode, inputs, _real=dynamics._TraySim._advance):
        out = _real(self, y, t, h, mode, inputs)
        if mode == dynamics.SLIP:
            slide_ends.append((t + h, out[0][3]))
        return out
    monkeypatch.setattr(dynamics._TraySim, "_advance", advance)
    tr = simulate_coupled(params, motion)
    t = tr.transitions[1][0]
    assert tr.transitions[1][1:] == ("slip", "stick")
    assert t == round(t_capture / 1e-3) * 1e-3
    (d_x_dot,) = [v for t_end, v in slide_ends if abs(t_end - t) < 1e-12]
    assert 0.0 < abs(d_x_dot) < 1e-6


def _assert_same_stick_slip_run(tr, ref):
    assert tr.transitions == ref.transitions
    assert [a for _, a, _ in tr.transitions[:2]] == ["stick", "slip"]
    for name in ("t", "theta", "theta_dot", "d_x", "d_x_dot", "mode", "demand", "f_s"):
        assert getattr(tr, name).tobytes() == getattr(ref, name).tobytes(), name


@STICK_SLIP_STICK
def test_engine_matches_generic_stick_oracle(engine_loops, params, motion):
    # the engine gives the bits of the engine whose sub-step while sticking
    # is the generic RK4 step over the reference formulas
    oracle = GenericStickSim(params, motion, None, (0.0, 0.0, 0.0, 0.0))
    ref = oracle.run()
    # the generic sub-step ran every sticking step, not the engine's own
    assert oracle.steps >= np.count_nonzero(ref.mode[1:] == 0) > 0
    _assert_same_stick_slip_run(simulate_coupled(params, motion), ref)


@pytest.mark.parametrize("simulate", [simulate_coupled, simulate_solid_sliding],
                         ids=["simulate_coupled", "simulate_solid_sliding"])
@STICK_SLIP_STICK
def test_engine_matches_generic_slip_oracle(engine_loops, simulate, params, motion):
    # the engine gives the bits of the engine whose sub-step while sliding
    # is the generic RK4 step over the reference formulas
    plant = params if simulate is simulate_coupled else replace(params, m=0.0, b_lc=0.0)
    oracle = GenericSlipSim(plant, motion, None, (0.0, 0.0, 0.0, 0.0))
    ref = oracle.run()
    # the generic sub-step ran every sliding step, not the engine's own
    assert oracle.steps >= np.count_nonzero(ref.mode[1:] == 1) > 0
    _assert_same_stick_slip_run(simulate(params, motion), ref)


def stick_test(params):
    """The plant's stick test (th, thd, dx, dxd, u) -> (theta_ddot, N, D,
    F_s) on a row u of input terms."""
    damp = params.b_lc / (params.m * params.l) if params.m > 0.0 else 0.0
    return _contact(params, damp)[0]


def _assert_rows_hold_the_friction_margin(tr, params, motion):
    grid = _MotionSampler(motion, motion.dt, tr.t.size - 1).grid.tolist()
    states = zip(tr.theta.tolist(), tr.theta_dot.tolist(), tr.d_x.tolist(),
                 tr.d_x_dot.tolist())
    test = stick_test(params)
    for k, (y, row) in enumerate(zip(states, grid)):
        assert test(*y, _input_terms(params, row))[2:] == (tr.demand[k], tr.f_s[k]), k


@STICK_SLIP_STICK
def test_record_holds_the_friction_margin_of_each_row(engine_loops, params, motion):
    # demand and f_s of every row are the stick test's at the row's state and
    # grid inputs, whichever sub-step's or held state's stick test filled it
    _assert_rows_hold_the_friction_margin(simulate_coupled(params, motion), params, motion)


@STICK_SLIP_STICK
def test_events_at_a_step_end_hand_on_the_grid_stick_test(monkeypatch, engine_loops, params,
                                                         motion):
    # with an event tolerance wider than a step every bisection ends at the
    # step's end, where the last probe tested its state at inputs sampled
    # off the grid; the record and the next step's k1 take the stick test at
    # the grid row
    monkeypatch.setattr(dynamics, "_EVENT_TOL", 1.0)
    tr = simulate_coupled(params, motion)
    assert len(tr.transitions) >= 2
    assert all(t == round(t / motion.dt) * motion.dt for t, _, _ in tr.transitions)
    _assert_rows_hold_the_friction_margin(tr, params, motion)


@STICK_SLIP_STICK
def test_stick_test_only_at_start_up_and_held_states(monkeypatch, engine_loops, params, motion):
    # sliding rows are filled by the sub-step's end test; past the start-up,
    # run() makes the plant's stick test only where it holds the container
    # still, after a stop or at a capture, and hands it on. A sub-step makes
    # four stage tests and its end test while sticking, four slides and its
    # end test while sliding
    calls = _count_engine_calls(monkeypatch)
    bisections = []
    real = dynamics._TraySim._bisect
    monkeypatch.setattr(dynamics._TraySim, "_bisect",
                        lambda self, *args: bisections.append(1) or real(self, *args))
    tr = simulate_coupled(params, motion)
    assert np.count_nonzero(tr.mode) > 0
    assert calls["at_slide"] == 0
    assert calls["sub_test"] == 5 * calls["stick"] + calls["slip"]
    assert calls["slide"] == 4 * calls["slip"]
    assert 1 < calls["test"] <= 1 + len(bisections) + len(tr.transitions)


@STICK_SLIP_STICK
def test_bisection_samples_each_probe_once(monkeypatch, engine_loops, params, motion):
    # each probe of the event bisection evaluates its midpoint and end
    # inputs in one sampler call, and the end row is what the probe's test
    # reads; the start of the interval costs at most one call more
    calls = dict.fromkeys(("at", "_advance"), 0)
    per_event = []
    for owner, name in ((_MotionSampler, "at"), (dynamics._TraySim, "_advance")):
        def counted(*args, _real=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(owner, name, counted)

    def bisect(*args, _real=dynamics._TraySim._bisect):
        calls.update(at=0, _advance=0)
        out = _real(*args)
        per_event.append(dict(calls))
        return out
    monkeypatch.setattr(dynamics._TraySim, "_bisect", bisect)
    simulate_coupled(params, motion)
    assert per_event
    for c in per_event:
        assert 0 < c["at"] <= c["_advance"] + 1, c


@pytest.mark.parametrize("params", [desk_params(), desk_params(m=0.0, b_lc=0.0),
                                    desk_params(mu=0.05)],
                         ids=["coupled", "solid", "coupled-slipping"])
def test_recorded_friction_matches_friction_margin(params):
    # demand and F_s on every row, whether reused from the stick test or
    # evaluated for the record, are the stick test's at that row, bit for bit
    dt = 1e-3
    motion = _compensated_cascade_motion(dt)
    tr = simulate_coupled(params, motion)
    grid = _MotionSampler(motion, dt, tr.t.size - 1).grid.tolist()
    test = stick_test(params)
    for k, row in enumerate(grid):
        y = (tr.theta[k], tr.theta_dot[k], tr.d_x[k], tr.d_x_dot[k])
        _, _, demand, f_s = test(*map(float, y), _input_terms(params, row))
        assert (demand.hex(), f_s.hex()) == \
            (float(tr.demand[k]).hex(), float(tr.f_s[k]).hex()), k
    assert tr.mode.any() == (params.mu == 0.05)


@pytest.mark.parametrize("n", [2, 3])
def test_cubic_sampler_is_exact_on_short_ramps(n):
    # the 4-point stencil needs four samples; a shorter motion is sampled
    # linearly instead of wrapping its stencil to the other end of the array
    dt, sim_dt = 0.1, 0.05
    motion = TrayMotion.from_channels(dt, np.arange(n, dtype=float))
    smp = _MotionSampler(motion, sim_dt, 2 * (n - 1))
    t_grid = np.arange(2 * n - 1) * sim_dt
    t_mid = (np.arange(2 * n - 2) + 0.5) * sim_dt
    assert np.abs(smp.grid[:, 0] - t_grid / dt).max() <= 1e-15
    assert np.abs(smp.mid[:, 0] - t_mid / dt).max() <= 1e-15


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
    tr = simulate_coupled(p, TrayMotion.from_channels(dt, acc))

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
    assert np.all((np.abs(tr.demand) - tr.f_s)[stick] <= 1e-9)
    assert np.all(tr.d_x_dot[stick] == 0.0)
    assert np.any(~stick)


# ---------------------------------------------------------------------------
# friction margin
# ---------------------------------------------------------------------------

# the stick test at a state and one row of tray inputs (x_ddot, z_ddot,
# beta, beta_dot, beta_ddot), whose demand D and bound F_s = mu N are the
# two sides of the no-slip condition

def test_friction_margin_at_rest():
    p = desk_params()
    _, _, demand, f_s = stick_test(p)(0, 0, 0, 0, _input_terms(p, (0, 0, 0, 0, 0)))
    assert demand == 0.0
    assert f_s == pytest.approx(p.mu * (p.M + p.m) * G)


def test_friction_margin_maximized_at_beta_star():
    p = desk_params()
    ax = 4.0
    beta_star = -math.atan(ax / G)
    test = stick_test(p)
    _, _, d0, f0 = test(0, 0, 0, 0, _input_terms(p, (ax, 0, beta_star, 0, 0)))
    assert d0 == pytest.approx(0.0, abs=1e-12)
    for db in (-0.05, 0.05):
        f = test(0, 0, 0, 0, _input_terms(p, (ax, 0, beta_star + db, 0, 0)))[3]
        assert f < f0


def test_friction_margin_matches_printed_formulas():
    # independent re-evaluation of the tangential balance and friction bound
    p = desk_params()
    th, thd = 0.12, -0.4
    xtt, ztt, b, bd, bdd = 1.5, -0.8, 0.1, 0.6, -2.0
    _, _, demand, f_s = stick_test(p)(th, thd, 0.0, 0.0,
                                      _input_terms(p, (xtt, ztt, b, bd, bdd)))
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
    harm = DampedHarmonic(0.0, make_damped_harmonic_params(omega_n, 0.0)[1])
    assert estimate_prv(harm, omega_n) < 1e-3


@pytest.mark.parametrize("omega_n, delta", [
    (math.inf, 0.0), (math.nan, 0.0), (0.0, 0.0), (2.5, 1.0), (2.5, math.nan),
])
def test_prv_rejects_a_bad_plant(omega_n, delta):
    # at omega_n = inf the plant pole is infinite, where |H| is nan
    with pytest.raises(ValueError, match=f"got omega_n = {omega_n}, delta = {delta}$"):
        estimate_prv(Trapezoidal(0.1, 0.1), omega_n, delta)


def test_prv_passthrough_limit():
    omega_n = 2 * math.pi
    prv = estimate_prv(Trapezoidal(0.005, 0.005), omega_n)
    assert prv == pytest.approx(1.0, abs=0.05)


def test_prv_harmonic_beats_trapezoidal_off_nominal():
    omega_n = 2 * math.pi
    harm = DampedHarmonic(0.0, make_damped_harmonic_params(omega_n, 0.0)[1])
    trap = Trapezoidal(2 * math.pi / omega_n, math.pi / omega_n)
    w = 1.3 * omega_n
    assert estimate_prv(harm, w) <= estimate_prv(trap, w)


def test_prv_proportional_to_magnitude_response():
    omega_n = 2 * math.pi
    harm = DampedHarmonic(0.0, make_damped_harmonic_params(omega_n, 0.0)[1])
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
    state = CascadeState(kind, dt, initial_value=0.0)
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
    (DampedHarmonic(0.0, make_damped_harmonic_params(W0, 0.0)[1]), 0.7 * W0, 0.0),
    (DampedHarmonic(0.0, make_damped_harmonic_params(W0, 0.0)[1]), 1.3 * W0, 0.05),
    (Trapezoidal(2 * math.pi / W0, math.pi / W0), 1.3 * W0, 0.0),
    (Trapezoidal(0.4, 0.25), W0, 0.1),
    (Trapezoidal(0.3, 0.15), W0, 0.0),
    (Trapezoidal(0.45, 0.2), 1.6 * W0, 0.05),
    (DAMPED, 0.8 * W0, 0.0),
    (DAMPED, 1.25 * W0, 0.1),
])
def test_prv_closed_form_matches_simulation_off_notch(kind, omega_n, delta):
    closed = estimate_prv(kind, omega_n, delta)
    simulated = _simulated_prv(kind, omega_n, delta)
    assert closed > 1e-2
    assert abs(closed - simulated) <= 1e-3 * simulated


@pytest.mark.parametrize("kind, delta", [
    (DampedHarmonic(0.0, make_damped_harmonic_params(W0, 0.0)[1]), 0.0),
    (Trapezoidal(2 * math.pi / W0, math.pi / W0), 0.0),
    (DAMPED, 0.1),
])
def test_prv_closed_form_and_simulation_vanish_at_notch(kind, delta):
    assert estimate_prv(kind, W0, delta) < 1e-6
    assert _simulated_prv(kind, W0, delta) < 1e-6
