import math
from dataclasses import replace

import numpy as np
import pytest

from traywaiter.dynamics import (
    ContactLostError,
    IntegrationError,
    PlantParams,
    SimState,
    analytic_tilt_channel,
    estimate_prv,
    fd_tilt_channel,
    friction_margin,
    simulate_coupled,
    simulate_pendulum,
    simulate_solid_sliding,
)
from traywaiter import dynamics
from traywaiter.dynamics import _MotionSampler
from traywaiter.smoothers import (
    CascadeState,
    DampedHarmonic,
    Harmonic,
    Rectangular,
    Trapezoidal,
    freq_response,
    kernel_duration,
    make_damped_harmonic_params,
    make_harmonic_T,
)

from _oracles import (
    GenericSlipSim,
    GenericStickSim,
    TrayMotion,
    _midpoints,
    desk_params,
    linear_slosh_params,
    pinned_pendulum,
    simulate_linear_slosh,
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
    with pytest.raises(ValueError):
        TrayMotion.from_channels(1e-3, np.zeros(5), beta=np.zeros(3))  # length mismatch


# ---------------------------------------------------------------------------
# nonlinear pendulum
# ---------------------------------------------------------------------------

def convergence_motion(dt):
    n = int(round(2.0 / dt)) + 1
    t = np.arange(n) * dt
    acc = 2.0 * np.sin(2 * np.pi * t) * np.sin(0.5 * np.pi * t) ** 2
    return TrayMotion.from_channels(dt, acc)


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
        return simulate_pendulum(desk_params(), convergence_motion(dt)).theta[-1]

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
    tr = simulate_pendulum(params, motion, init=init)
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
    T = make_harmonic_T(omega_n)
    state = CascadeState(Harmonic(T), dt, initial_value=0.0)
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
    with pytest.raises(ContactLostError, match=r"contact lost at t = 0 s"):
        simulate_pendulum(desk_params(), rest, init=(0.1, 1e200))


@pytest.mark.parametrize("params, init", [
    (desk_params(mu=0.05), (0.0, 0.0, 0.0, 0.0)),                 # slip onset
    (desk_params(m=0.0, b_lc=0.0), (0.0, 0.0, 0.0, 0.3)),          # slide stops
], ids=["onset", "stop"])
def test_every_located_event_counts_towards_chatter(monkeypatch, params, init):
    monkeypatch.setattr(dynamics, "_MAX_EVENTS_PER_STEP", 0)
    with pytest.raises(IntegrationError, match=r"event chatter at t = "):
        simulate_coupled(params, _compensated_cascade_motion(1e-3), init=init)


def test_nan_slip_velocity_ends_in_integration_error_on_every_run():
    # the sign bit of a NaN may differ once the interpreter has specialized
    # the float operations, so the outcome is checked over repeated runs
    rest = TrayMotion.rest(0.1, 1e-3)
    for _ in range(4):
        with pytest.raises(IntegrationError, match=r"non-finite state at t = 0\.001 s"):
            simulate_coupled(desk_params(), rest, init=(0.1, 1e150, 0.0, 1e150))


def test_infinite_theta_after_a_slide_step_ends_in_integration_error():
    # theta_dot = 1e308 holds on the solid, so the RK4 sum overflows and the
    # slide step ends at theta = inf, where math.sin raises ValueError: the
    # run must still report the non-finite state
    rest = TrayMotion.rest(0.1, 1e-3)
    with pytest.raises(IntegrationError, match=r"non-finite state at t = 0\.001 s"):
        simulate_coupled(desk_params(m=0.0, b_lc=0.0), rest, init=(0.0, 1e308, 0.0, 0.3))


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


def _count_engine_calls(monkeypatch):
    # the calls of the module's stick test and of its parts, and of the
    # kernels the engine builds; "at_slide" counts the stick tests made at a
    # sliding state, d_x_dot != 0
    names = ("_stick_eval", "_stick_rates", "_pendulum_rhs", "_normal", "_demand")
    calls = dict.fromkeys((*names, "at_slide", "stick", "slip"), 0)
    for name in names:
        def counted(*args, _real=getattr(dynamics, name), _name=name):
            calls[_name] += 1
            if _name == "_stick_eval" and args[5] != 0.0:
                calls["at_slide"] += 1
            return _real(*args)
        monkeypatch.setattr(dynamics, name, counted)
    for kind in ("stick", "slip"):
        def kernel(self, _real=getattr(dynamics._TraySim, f"_{kind}_kernel"), _kind=kind):
            step = _real(self)

            def counted(*args):
                calls[_kind] += 1
                return step(*args)
            return counted
        monkeypatch.setattr(dynamics._TraySim, f"_{kind}_kernel", kernel)
    return calls


@pytest.mark.parametrize("simulate, params", [
    (simulate_coupled, desk_params()),
    (simulate_coupled, desk_params(m=0.0, b_lc=0.0)),
    (simulate_pendulum, desk_params()),
], ids=["coupled", "solid", "pendulum"])
def test_stick_step_makes_one_full_friction_evaluation(monkeypatch, simulate, params):
    # a sticking step is one call of the plant's stick kernel, which ends in
    # the stick test that the record of the step and the next step's first
    # stage reuse; the start-up stick test is the run's only module-level
    # evaluation, and the first step reuses it too
    calls = _count_engine_calls(monkeypatch)
    tr = simulate(params, _compensated_cascade_motion(1e-3))
    assert not tr.mode.any()
    assert calls["stick"] == tr.t.size - 1
    assert calls["slip"] == 0
    assert calls["_stick_eval"] == calls["_stick_rates"] == 1


@pytest.mark.parametrize("params", [desk_params(), desk_params(m=0.0, b_lc=0.0)],
                         ids=["coupled", "solid"])
def test_slip_step_makes_one_full_friction_evaluation(monkeypatch, params):
    # a sliding step is one call of the plant's slip kernel, which ends in
    # the stick test that fills the record of the step. On a slide without
    # events the start-up makes the run's only module-level evaluations: the
    # stick test of the held state, which decides the start mode, and the
    # test at the sliding state, which fills row 0
    calls = _count_engine_calls(monkeypatch)
    n = 300
    motion = TrayMotion.from_channels(1e-3, np.full(n + 1, 10.0))   # 10 > mu g
    tr = simulate_coupled(params, motion, init=(0.0, 0.0, 0.0, -0.3))
    assert tr.mode.all() and not tr.transitions
    assert calls["slip"] == n
    assert calls["stick"] == 0
    assert calls["_stick_eval"] == calls["_normal"] == calls["_demand"] == 2
    assert calls["at_slide"] == 1


def _pulse_motion(dt, accel):
    t = np.arange(401) * dt
    x_ddot = np.where((t >= 0.1) & (t < 0.2), accel, 0.0)
    return TrayMotion.from_channels(dt, x_ddot, interp="linear")


# stick -> slip -> stick runs, with sub-steps and bisection after each event
STICK_SLIP_STICK = pytest.mark.parametrize("params, motion", [
    (desk_params(mu=0.05), _compensated_cascade_motion(1e-3)),
    (desk_params(m=0.0, b_lc=0.0, mu=0.05), _compensated_cascade_motion(1e-3)),
    # the slide is captured at t = 0.207 s, a step end, so the next step
    # starts in stick without a stick test to reuse
    (desk_params(), _pulse_motion(1e-3, 3.526)),
    # captured at t = 0.21 s, a step end, with d_x_dot ~ 1e-7 that viscous
    # friction turns into demand: the record and the next step's first stage
    # must take the held state's stick test, not the slide step's
    (desk_params(b_ct=0.5), _pulse_motion(1e-3, 3.6228179931640625)),
], ids=["coupled", "solid", "captured-at-step-end", "captured-with-viscous-friction"])


def _assert_same_stick_slip_run(tr, ref):
    assert tr.transitions == ref.transitions
    assert [a for _, a, _ in tr.transitions[:2]] == ["stick", "slip"]
    for name in ("t", "theta", "theta_dot", "d_x", "d_x_dot", "mode", "demand", "f_s"):
        assert getattr(tr, name).tobytes() == getattr(ref, name).tobytes(), name


@STICK_SLIP_STICK
def test_engine_matches_generic_stick_oracle(params, motion):
    # the engine with the stick kernel and the reused first stage
    # gives the bits of the engine with the generic 4-state step
    oracle = GenericStickSim(params, motion, None, (0.0, 0.0, 0.0, 0.0))
    ref = oracle.run()
    # the generic sub-step ran every sticking step, not the engine's kernel
    assert oracle.steps >= np.count_nonzero(ref.mode[1:] == 0) > 0
    _assert_same_stick_slip_run(simulate_coupled(params, motion), ref)


@pytest.mark.parametrize("simulate", [simulate_coupled, simulate_solid_sliding],
                         ids=["simulate_coupled", "simulate_solid_sliding"])
@STICK_SLIP_STICK
def test_engine_matches_generic_slip_oracle(simulate, params, motion):
    # the engine with the slip kernel and, for the solid, the reused first
    # stage gives the bits of the engine with the generic 4-state RK4 step
    # while sliding
    plant = params if simulate is simulate_coupled else replace(params, m=0.0, b_lc=0.0)
    oracle = GenericSlipSim(plant, motion, None, (0.0, 0.0, 0.0, 0.0))
    ref = oracle.run()
    # the generic sub-step ran every sliding step, not the engine's kernel
    assert oracle.steps >= np.count_nonzero(ref.mode[1:] == 1) > 0
    _assert_same_stick_slip_run(simulate(params, motion), ref)


@STICK_SLIP_STICK
def test_record_holds_the_friction_margin_of_each_row(params, motion):
    # demand and f_s of every row are friction_margin at the row's state and
    # grid inputs, whichever kernel's or held state's stick test filled it
    tr = simulate_coupled(params, motion)
    grid = _MotionSampler(motion, motion.dt, tr.t.size - 1).grid.tolist()
    states = zip(tr.theta.tolist(), tr.theta_dot.tolist(), tr.d_x.tolist(),
                 tr.d_x_dot.tolist())
    for k, (y, row) in enumerate(zip(states, grid)):
        assert friction_margin(SimState(*y), params, row) == (tr.demand[k], tr.f_s[k]), k


@STICK_SLIP_STICK
def test_stick_test_only_at_start_up_and_held_states(monkeypatch, params, motion):
    # sliding rows are filled by the slip kernel's end test; past the
    # start-up the engine makes the module's stick test only where it holds
    # the container still, after a stop or at a capture, and hands it on
    calls = _count_engine_calls(monkeypatch)
    bisections = []
    real = dynamics._TraySim._bisect
    monkeypatch.setattr(dynamics._TraySim, "_bisect",
                        lambda self, *args: bisections.append(1) or real(self, *args))
    tr = simulate_coupled(params, motion)
    assert np.count_nonzero(tr.mode) > 0
    assert calls["at_slide"] == 0
    assert 1 < calls["_stick_eval"] <= 1 + len(bisections) + len(tr.transitions)


@STICK_SLIP_STICK
def test_bisection_samples_each_probe_once(monkeypatch, params, motion):
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


@pytest.mark.parametrize("n", [2, 3])
def test_cubic_sampler_is_exact_on_short_ramps(n):
    # the 4-point stencil needs four samples; a shorter motion is sampled
    # linearly instead of wrapping its stencil to the other end of the array
    dt, sim_dt = 0.1, 0.05
    motion = TrayMotion.from_channels(dt, np.arange(n, dtype=float))
    assert motion.interp == "cubic"
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
