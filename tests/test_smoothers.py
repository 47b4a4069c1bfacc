import math

import numpy as np
import pytest

from traywaiter.smoothers import (
    CascadeSpec,
    CascadeState,
    DampedHarmonic,
    Trapezoidal,
    _quantize,
    _RectStage,
    freq_response,
    kernel_duration,
    make_damped_harmonic_params,
    make_trapezoidal_params,
    transfer_function,
)

from _oracles import LIBRARY_PATHS, oscillator_path


# ---------------------------------------------------------------------------
# parameter solvers
# ---------------------------------------------------------------------------

def test_trapezoidal_params_fig3a():
    assert make_trapezoidal_params(1.0, 2.0, 5.0) == (0.5, 0.4)


def test_trapezoidal_params_triangular_fallback():
    # v_max**2 = 100 > h*a_max = 4, so the velocity limit is unreachable
    T1, T2 = make_trapezoidal_params(1.0, 10.0, 4.0)
    assert T1 == T2 == pytest.approx(math.sqrt(1.0 / 4.0))


def test_trapezoidal_params_boundary():
    # h*a_max == v_max**2 exactly: both branches coincide
    assert make_trapezoidal_params(4.0, 2.0, 1.0) == (2.0, 2.0)


@pytest.mark.parametrize("bad", [(0, 1, 1), (1, -1, 1), (1, 1, 0)])
def test_trapezoidal_params_domain(bad):
    with pytest.raises(ValueError):
        make_trapezoidal_params(*bad)


def test_harmonic_T():
    assert make_damped_harmonic_params(math.pi, 0.0)[1] == pytest.approx(3.0)
    assert make_damped_harmonic_params(3 * math.pi, 0.0)[1] == pytest.approx(1.0)
    assert make_damped_harmonic_params(2 * math.pi, 0.0)[1] == pytest.approx(1.5)
    with pytest.raises(ValueError):
        make_damped_harmonic_params(0.0, 0.0)


def test_damped_harmonic_params():
    sigma, T = make_damped_harmonic_params(math.pi, 0.0)
    assert sigma == 0.0
    assert T == pytest.approx(3.0)

    sigma, T = make_damped_harmonic_params(2 * math.pi, 0.1)
    assert sigma == pytest.approx(-0.2 * math.pi)
    assert T == pytest.approx(1.5 / math.sqrt(0.99))  # 1.50756 s

    sigma, T = make_damped_harmonic_params(1.0, 0.5)
    assert sigma == pytest.approx(-0.5)
    assert T == pytest.approx(3 * math.pi / math.sqrt(0.75))  # 10.8828 s

    with pytest.raises(ValueError):
        make_damped_harmonic_params(1.0, 1.0)
    with pytest.raises(ValueError):
        make_damped_harmonic_params(1.0, -0.1)


def test_kind_validation():
    with pytest.raises(ValueError):
        Trapezoidal(0.0, 1.0)
    with pytest.raises(ValueError):
        Trapezoidal(1.0, -1.0)
    with pytest.raises(ValueError):
        DampedHarmonic(0.0, -2.0)
    # triangular degenerate case is allowed
    Trapezoidal(0.3, 0.3)


def test_duration_and_continuity_bookkeeping():
    spec = CascadeSpec((Trapezoidal(0.1, 0.1), DampedHarmonic(0.0, 0.5),
                        Trapezoidal(0.1, 0.3), DampedHarmonic(-0.5, 0.4)))
    assert spec.total_duration() == pytest.approx(0.2 + 0.5 + 0.4 + 0.4)
    assert spec.continuity_gain() == 2 + 2 + 2 + 2
    assert kernel_duration(Trapezoidal(1.0, 2.0)) == 3.0


# ---------------------------------------------------------------------------
# step responses
# ---------------------------------------------------------------------------

def _step_response(kind, dt, n, h=1.0):
    state = CascadeState(kind, dt, initial_value=0.0)
    return state.run(np.full(n, h))


def test_rectangular_step_is_ramp():
    # one box stage, the half of a trapezoid
    dt = 1e-3
    T = 0.5
    box = _RectStage(_quantize(T, dt), dt, 0.0)
    p, v, a = box.run(np.ones(800), np.zeros(800))
    t = (np.arange(800) + 0.5) * dt  # step occurs half a sample before index 0
    ref = np.clip(t / T, 0.0, 1.0)
    assert np.abs(p - ref).max() < 1e-12
    assert v[200] == pytest.approx(1.0 / T)
    assert np.all(p[520:] == 1.0)


def test_harmonic_step_velocity_is_kernel():
    T = 1.0
    dt = 1e-4
    n = int(1.2 * T / dt)
    p, v, a = _step_response(DampedHarmonic(0.0, T), dt, n)
    t = (np.arange(n) + 0.5) * dt
    kern = np.where(t <= T, (np.pi / (2 * T)) * np.sin(np.pi * np.minimum(t, T) / T), 0.0)
    assert np.abs(v - kern).max() < 1e-6  # O(dt^2)


def test_constant_input_reproduced_exactly():
    dt = 1e-3
    for kind in (Trapezoidal(0.155, 0.155), DampedHarmonic(0.0, 0.47),
                 Trapezoidal(0.2, 0.11), DampedHarmonic(-1.3, 0.37)):
        state = CascadeState(kind, dt, initial_value=0.7)
        # primed at the held value: no startup transient at all
        for _ in range(int(2 * kernel_duration(kind) / dt)):
            p, v, a = state.step(0.7)
            assert p == pytest.approx(0.7, rel=1e-12)
            assert abs(v) < 1e-12 and abs(a) < 1e-12


def test_dc_gain_after_transient():
    dt = 1e-3
    for kind in (Trapezoidal(0.15, 0.15), DampedHarmonic(0.0, 0.45),
                 Trapezoidal(0.25, 0.15), DampedHarmonic(-0.8, 0.5)):
        n = int(kernel_duration(kind) / dt) + 50
        p, v, a = _step_response(kind, dt, n, h=3.25)
        assert p[-1] == pytest.approx(3.25, rel=1e-12)
        assert abs(v[-1]) < 1e-9 and abs(a[-1]) < 1e-9


def test_trapezoidal_respects_limits_harmonic_violates():
    # Fig-3a style comparison: equal total duration, step of amplitude 1
    h, v_max, a_max = 1.0, 2.0, 5.0
    T1, T2 = make_trapezoidal_params(h, v_max, a_max)
    dt = 1e-3
    n = 1500
    p, v, a = _step_response(Trapezoidal(T1, T2), dt, n, h=h)
    assert np.abs(v).max() == pytest.approx(v_max, abs=1e-9)
    assert np.abs(a).max() == pytest.approx(a_max, abs=1e-6)
    ph, vh, ah = _step_response(DampedHarmonic(0.0, T1 + T2), dt, n, h=h)
    assert np.abs(ah).max() > a_max  # same duration cannot meet the bound
    assert np.abs(vh).max() > v_max * 0.85


def test_damped_harmonic_sigma_zero_matches_harmonic():
    # the undamped solver gives sigma = -0.0: the same values as sigma = 0.0
    dt = 1e-3
    omega_n = 3.0 * math.pi / 0.8
    s1 = CascadeState(DampedHarmonic(*make_damped_harmonic_params(omega_n, 0.0)), dt,
                      initial_value=0.0)
    s2 = CascadeState(DampedHarmonic(0.0, 0.8), dt, initial_value=0.0)
    u = np.sin(np.linspace(0, 7, 1500)) + 0.4
    p1 = s1.run(u)
    p2 = s2.run(u)
    for x, y in zip(p1, p2):
        assert np.array_equal(x, y)


def test_startup_precharge_suppresses_transient():
    # stationary stream must not produce spurious acceleration at t=0
    state = CascadeState(DampedHarmonic(0.0, 0.5), 1e-3, initial_value=2.0)
    p, v, a = state.step(2.0)
    assert (p, v, a) == (2.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# structural derivatives and convergence
# ---------------------------------------------------------------------------

def _fd_error(kind, dt):
    n = int(3.0 / dt)
    t = np.arange(n) * dt
    u = np.sin(1.7 * t) + 0.3 * np.cos(4.1 * t)
    state = CascadeState(kind, dt, initial_value=u[0])
    p, v, a = state.run(u)
    lo = int(1.2 / dt)
    hi = n - 10
    fd_v = (p[lo + 1:hi + 1] - p[lo - 1:hi - 1]) / (2 * dt)
    fd_a = (v[lo + 1:hi + 1] - v[lo - 1:hi - 1]) / (2 * dt)
    return (np.abs(fd_v - v[lo:hi]).max(), np.abs(fd_a - a[lo:hi]).max())


@pytest.mark.parametrize("kind", [Trapezoidal(0.15, 0.15), DampedHarmonic(0.0, 0.4),
                                  Trapezoidal(0.25, 0.15), DampedHarmonic(-0.7, 0.4)])
def test_structural_derivatives_match_finite_differences(kind):
    ev1, ea1 = _fd_error(kind, 2e-3)
    ev2, ea2 = _fd_error(kind, 1e-3)
    # O(dt^2): halving dt should quarter the mismatch (allow some slack)
    assert ev2 <= 0.35 * ev1 + 1e-13
    assert ea2 <= 0.35 * ea1 + 1e-13
    assert ev1 < 1e-4 and ea1 < 1e-3


def test_step_response_converges_to_continuous():
    T = 0.8

    def maxerr(dt):
        n = int(1.1 * T / dt)
        p, _, _ = _step_response(DampedHarmonic(0.0, T), dt, n)
        t = (np.arange(n) + 0.5) * dt
        ref = np.where(t <= T, 0.5 * (1 - np.cos(np.pi * np.minimum(t, T) / T)), 1.0)
        return np.abs(p - ref).max()

    e1, e2, e3 = maxerr(4e-3), maxerr(2e-3), maxerr(1e-3)
    assert e2 <= 0.5 * e1 + 1e-12
    assert e3 <= 0.5 * e2 + 1e-12


# ---------------------------------------------------------------------------
# frequency response
# ---------------------------------------------------------------------------

def test_freq_response_unit_dc_gain():
    for kind in (Trapezoidal(0.35, 0.35), DampedHarmonic(0.0, 1.1),
                 Trapezoidal(0.5, 0.2), DampedHarmonic(-0.4, 0.9)):
        assert freq_response(kind, [0.0])[0] == 1.0


def test_rectangular_zeros():
    # each box factor has its zeros at multiples of 2 pi / T
    zeros = [2 * math.pi, 8 * math.pi]
    assert np.all(freq_response(Trapezoidal(1.0, 0.25), zeros) < 1e-12)


def test_harmonic_notch():
    for omega_n in (math.pi, 2 * math.pi, 11.3):
        T = make_damped_harmonic_params(omega_n, 0.0)[1]
        assert freq_response(DampedHarmonic(0.0, T), [omega_n])[0] < 1e-12


def test_damped_harmonic_pole_zero_cancellation():
    for omega_n, delta in ((2 * math.pi, 0.1), (7.0, 0.3), (14.0, 0.05)):
        sigma, T = make_damped_harmonic_params(omega_n, delta)
        omega_d = omega_n * math.sqrt(1 - delta ** 2)
        for s in (sigma + 1j * omega_d, sigma - 1j * omega_d):
            assert abs(transfer_function(DampedHarmonic(sigma, T), s)) < 1e-12


def test_harmonic_pole_is_removable():
    # |H| is finite and equals pi/4 at the (cancelled) pole frequency pi/T
    T = 1.3
    val = freq_response(DampedHarmonic(0.0, T), [math.pi / T])[0]
    assert val == pytest.approx(math.pi / 4, rel=1e-9)


def test_cascade_response_is_product():
    spec = CascadeSpec((Trapezoidal(0.4, 0.15), DampedHarmonic(0.0, 0.6)))
    w = np.linspace(0.1, 30.0, 57)
    combined = freq_response(spec, w)
    product = (freq_response(Trapezoidal(0.4, 0.15), w)
               * freq_response(DampedHarmonic(0.0, 0.6), w))
    assert np.allclose(combined, product, rtol=1e-12, atol=1e-15)


def test_freq_response_rejects_negative():
    with pytest.raises(ValueError):
        freq_response(Trapezoidal(1.0, 1.0), [-1.0])


# ---------------------------------------------------------------------------
# cascades
# ---------------------------------------------------------------------------

def test_single_stage_cascade_identity():
    dt = 1e-3
    u = np.sin(np.linspace(0, 5, 700))
    c = CascadeState([DampedHarmonic(0.0, 0.5)], dt, initial_value=u[0])
    s = CascadeState(DampedHarmonic(0.0, 0.5), dt, initial_value=u[0])
    pc, _, _ = c.run(u)
    ps, _, _ = s.run(u)
    assert np.array_equal(pc, ps)


def test_empty_cascade_rejected():
    with pytest.raises(ValueError):
        CascadeState([], 1e-3, initial_value=0.0)


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf, -math.inf])
def test_state_rejects_a_bad_sample_period(dt):
    with pytest.raises(ValueError,
                       match=f"^sample_period must be positive and finite, got {dt}$"):
        CascadeState(DampedHarmonic(0.0, 0.5), dt, initial_value=0.0)


@pytest.mark.parametrize("path", LIBRARY_PATHS)
def test_numpy_scalar_prime_is_kept_as_python_floats(path):
    # a numpy scalar in the oscillator state would turn its Python loop into
    # numpy-scalar arithmetic: same bits, several times slower; the compiled
    # loop hands its state back as floats too
    dt = 1e-3
    u = 0.2 + 0.1 * np.sin(np.linspace(0, 7, 900))
    spec = [Trapezoidal(0.05, 0.03), DampedHarmonic(-0.7, 0.2),
            DampedHarmonic(0.0, 0.1)]
    with oscillator_path(path) as calls:
        primed_np = CascadeState(spec, dt, initial_value=np.float64(u[0]))
        primed_float = CascadeState(spec, dt, initial_value=float(u[0]))
    for x, y in zip(primed_np.run(u), primed_float.run(u)):
        assert x.tobytes() == y.tobytes()
    oscillators = [st for st in primed_np._stages if hasattr(st, "x1")]
    assert len(oscillators) == 2
    for st in oscillators:
        assert [type(st.x1), type(st.x2), type(st._w_prev)] == [float] * 3
    assert calls is None or calls == [u.size] * 4


RUN_CASCADE = [Trapezoidal(0.005, 0.003), DampedHarmonic(-2.0, 0.004)]


@pytest.mark.parametrize("series", [np.ones((6, 2)), 1.0, np.ones((6, 1)), np.array(1.0),
                                    [0.4, "spam"]])
def test_run_rejects_bad_shapes_before_changing_state(series):
    u = np.linspace(0.3, 1.0, 12)
    state, twin = (CascadeState(RUN_CASCADE, 1e-3, initial_value=0.3) for _ in range(2))
    state.run(u[:5])
    twin.run(u[:5])
    with pytest.raises(ValueError):
        state.run(series)
    for x, y in zip(state.run(u), twin.run(u)):
        assert np.array_equal(x, y)


def test_run_empty_series_leaves_state_as_it_was():
    state, fresh = (CascadeState(RUN_CASCADE, 1e-3, initial_value=0.3) for _ in range(2))
    assert [x.shape for x in state.run([])] == [(0,)] * 3
    u = np.linspace(0.3, 1.0, 12)
    for x, y in zip(state.run(u), fresh.run(u)):
        assert np.array_equal(x, y)


def _fd_jerk_jump(stages, dt):
    c = CascadeState(stages, dt, initial_value=0.0)
    n = int((sum(kernel_duration(k) for k in stages) + 0.2) / dt)
    p, v, a = c.run(np.ones(n))
    jerk = np.gradient(a, dt)
    return np.abs(np.diff(jerk)).max()


def test_four_rect_stages_give_c3_position():
    # step through two trapezoids (4 box stages) is C^3: numerical jerk jumps
    # vanish as O(dt); through one (2 boxes) the acceleration itself jumps,
    # and the jerk jumps do not shrink
    stages4 = [Trapezoidal(0.2, 0.2)] * 2
    j1 = _fd_jerk_jump(stages4, 2e-3)
    j2 = _fd_jerk_jump(stages4, 1e-3)
    assert j2 <= 0.6 * j1
    stages2 = [Trapezoidal(0.2, 0.2)]
    k1 = _fd_jerk_jump(stages2, 2e-3)
    k2 = _fd_jerk_jump(stages2, 1e-3)
    assert k2 > 0.8 * k1  # does not shrink: genuine discontinuity


def test_cascade_delay_accounting():
    dt = 1e-3
    c = CascadeState(CascadeSpec((Trapezoidal(0.5, 0.4), Trapezoidal(0.05, 0.05))), dt,
                     initial_value=0.0)
    assert c.delay == pytest.approx(1.0, abs=1e-12)


def test_spectral_dominance_grid_between_shared_zeros():
    # Fig-3b comparison over the band up to the notch: equal-delay harmonic
    # stays below the trapezoidal magnitude there, point by point. Above w_n
    # only the lobe peaks compare (acceptance criterion 7 checks the whole
    # (0, 5 w_n] band, pointwise up to w_n and against the trapezoid's
    # side-lobe envelope above it)
    omega_n = 2 * math.pi
    trap = Trapezoidal(2 * math.pi / omega_n, math.pi / omega_n)
    harm = DampedHarmonic(0.0, make_damped_harmonic_params(omega_n, 0.0)[1])
    w = np.linspace(1e-3, omega_n, 200)
    assert np.all(freq_response(harm, w) <= freq_response(trap, w) + 1e-9)


def test_determinism_bit_identical():
    dt = 1e-3
    u = np.sin(np.linspace(0, 3, 400)) * 0.3
    runs = []
    for _ in range(2):
        s = CascadeState([Trapezoidal(0.2, 0.1), DampedHarmonic(-0.5, 0.3)], dt,
                         initial_value=u[0])
        runs.append(s.run(u))
    for x, y in zip(runs[0], runs[1]):
        assert np.array_equal(x, y)
