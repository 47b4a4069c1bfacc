"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criterion 7 (spectral dominance of the harmonic smoother over the
equal-delay trapezoidal one, T1 = 2 pi / w_n, T2 = pi / w_n) is checked on the
whole band (0, 5 w_n] in two parts: (a) |H_harm| <= |H_trap| pointwise on
(0, w_n]; (b) above w_n every local maximum of |H_harm| stays below the
trapezoid's side-lobe envelope, the log-log interpolation between the
consecutive local maxima of |H_trap|. The pointwise inequality is false above
w_n: both box factors of the trapezoid vanish at 2 w_n and 4 w_n, so it has
double zeros there, while the harmonic response keeps side lobes of 1/35 and
1/143 at those frequencies.
"""

import math
import os
import time

import numpy as np

from traywaiter.cli import main as cli_main
from traywaiter.dynamics import (
    TrayMotion,
    analytic_tilt_channel,
    estimate_prv,
    fd_tilt_channel,
    simulate_coupled,
    simulate_solid_sliding,
)
from traywaiter.planner import friction_limited_duration
from traywaiter.smoothers import (
    CascadeState,
    DampedHarmonic,
    Trapezoidal,
    freq_response,
    make_damped_harmonic_params,
    make_trapezoidal_params,
)

from _oracles import desk_params, simulate_linear_slosh

G = 9.81
_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                       "demo_p2p.yaml")


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _triangular_motion(h_o, T, dt, tail=0.35):
    a = 4.0 * h_o / T ** 2
    n = int(round((T + tail) / dt)) + 1
    t = np.arange(n) * dt
    acc = np.where(t < T / 2, a, np.where(t < T, -a, 0.0))
    return TrayMotion.from_channels(dt, acc)


def test_criterion_01_notch_cancellation():
    start = time.perf_counter()
    omega_n = 2 * math.pi
    T = make_damped_harmonic_params(omega_n, 0.0)[1]
    mag = freq_response(DampedHarmonic(0.0, T), [omega_n])[0]

    dt = 1e-4
    state = CascadeState(DampedHarmonic(0.0, T), dt, initial_value=0.0)
    n = int((T + 2.0) / dt)
    _, _, acc = state.run(np.ones(n))
    theta, _ = simulate_linear_slosh(omega_n, 0.0, acc, dt)
    k_end = int(T / dt) + 2
    peak = np.abs(theta).max()
    residual = np.abs(theta[k_end:]).max()
    elapsed = time.perf_counter() - start

    ok = mag < 1e-12 and residual < 1e-3 * peak and elapsed < 1.0
    assert _report(1, ok, f"|H(j w_n)| = {mag:.2e}, residual/peak = "
                          f"{residual / peak:.2e}, {elapsed:.2f} s")


def test_criterion_02_damped_notch():
    start = time.perf_counter()
    omega_n, delta = 2 * math.pi, 0.1
    sigma, T = make_damped_harmonic_params(omega_n, delta)
    prv = estimate_prv(DampedHarmonic(sigma, T), omega_n, delta)
    elapsed = time.perf_counter() - start
    ok = prv < 1e-3 and elapsed < 1.0
    assert _report(2, ok, f"residual/unsmoothed = {prv:.2e}, {elapsed:.2f} s")


def test_criterion_03_kinematic_limits():
    h, v_max, a_max = 1.0, 2.0, 5.0
    t1, t2 = make_trapezoidal_params(h, v_max, a_max)
    dt = 1e-3
    state = CascadeState(Trapezoidal(t1, t2), dt, initial_value=0.0)
    support = state.delay
    n = int(1.2 / dt)
    _, vel, acc = state.run(np.full(n, h))
    v_peak = float(np.abs(vel).max())
    a_peak = float(np.abs(acc).max())
    ok = (abs(v_peak - v_max) <= 1e-6 and abs(a_peak - a_max) <= 0.01
          and abs(support - 0.9) <= 1e-12)
    assert _report(3, ok, f"max|v| = {v_peak!r}, max|a| = {a_peak!r}, "
                          f"support = {support!r} s")


def test_criterion_04_zero_slosh_compensation():
    start = time.perf_counter()
    dt = 1e-4
    omega = 2 * math.pi
    t = np.arange(0.0, 1.5 + dt / 2, dt)
    w = omega * t
    active = t <= 2 * math.pi / omega

    def channels(amp):
        s, c = np.sin(w), np.cos(w)
        return (np.where(active, amp * s ** 3, 0.0),
                np.where(active, 3 * amp * omega * s ** 2 * c, 0.0),
                np.where(active, 3 * amp * omega ** 2 * (2 * s * c ** 2 - s ** 3), 0.0))

    xdd, xj, xs = channels(0.6 * G)
    zdd, zj, zs = channels(0.25 * G)
    beta, bd, bdd = analytic_tilt_channel(xdd, xj, xs, zdd, zj, zs, G)
    motion = TrayMotion.from_channels(dt, xdd, zdd, beta, bd, bdd)

    # the pendulum on a container glued to the tray by unbounded friction
    compensated = simulate_coupled(desk_params(mu=math.inf), motion).max_abs_theta
    wrong_length = simulate_coupled(desk_params(l=0.025, mu=math.inf), motion).max_abs_theta
    no_tilt = simulate_coupled(
        desk_params(mu=math.inf), TrayMotion.from_channels(dt, xdd, zdd)).max_abs_theta
    elapsed = time.perf_counter() - start

    floor = max(compensated, 1e-12)
    ok = (compensated < 1e-6 and wrong_length >= 1e3 * floor
          and no_tilt >= 1e3 * floor and elapsed < 10.0)
    assert _report(4, ok, f"max|theta| = {compensated:.2e} rad; ablations "
                          f"{wrong_length:.2e} / {no_tilt:.2e} rad, {elapsed:.1f} s")


def test_criterion_05_friction_bound_bracketing():
    start = time.perf_counter()
    dt = 1e-4
    results = []
    for h_o, mu in ((1.0, 0.5), (0.8, 0.3), (1.5, 0.8)):
        p = desk_params(m=0.0, b_lc=0.0, mu=mu, d_z=0.0)
        t_star = friction_limited_duration(h_o, 0.0, mu, G)
        fast = simulate_solid_sliding(p, _triangular_motion(h_o, 0.95 * t_star, dt))
        slow = simulate_solid_sliding(p, _triangular_motion(h_o, 1.05 * t_star, dt))
        results.append((h_o, mu, abs(fast.net_slip), abs(slow.net_slip)))
    elapsed = time.perf_counter() - start

    ok = all(f > 1e-3 and s < 1e-6 for _, _, f, s in results) and elapsed < 30.0
    detail = "; ".join(f"(h_o={h}, mu={m}): slip {f * 1e3:.2f} mm / "
                       f"stick {s * 1e6:.3f} um" for h, m, f, s in results)
    assert _report(5, ok, detail + f", {elapsed:.1f} s")


def test_criterion_06_tilt_removes_friction_bound():
    start = time.perf_counter()
    h_o, mu = 0.4, 0.3
    t_star = friction_limited_duration(h_o, 0.0, mu, G)
    duration = 0.5 * t_star
    dt = 1e-4
    # jerk-continuous profile spanning exactly half the friction-limited time
    ta = 0.35 * duration / 2.0
    tb = 0.15 * duration / 2.0
    cascade = CascadeState([Trapezoidal(ta, ta), Trapezoidal(tb, tb)], dt,
                           initial_value=0.0)
    n = int((duration + 0.25) / dt)
    _, _, acc = cascade.run(np.full(n, h_o))
    beta, bd, bdd = fd_tilt_channel(acc, np.zeros(n), dt, G)
    motion = TrayMotion.from_channels(dt, acc, None, beta, bd, bdd)
    # CoR at the CoM and at the pendulum bob: d_z = 0, l = h
    p = desk_params(mu=mu, d_z=0.0)
    trace = simulate_coupled(p, motion)
    elapsed = time.perf_counter() - start

    slipped = float(np.abs(trace.d_x).max())
    ok = (slipped == 0.0 and trace.max_abs_theta < 1e-6
          and np.all(trace.mode == 0) and elapsed < 10.0)
    assert _report(6, ok, f"duration = 0.5 T* = {duration:.3f} s, slip = "
                          f"{slipped:.1e} m, max|theta| = "
                          f"{trace.max_abs_theta:.2e} rad, {elapsed:.1f} s")


def _local_maxima(mag):
    i = np.arange(1, mag.size - 1)
    return i[(mag[i] >= mag[i - 1]) & (mag[i] > mag[i + 1])]


def test_criterion_07_spectral_dominance():
    # (a) pointwise dominance on (0, w_n]; (b) above w_n every harmonic lobe
    # peak sits below the trapezoid's side-lobe envelope (log-log
    # interpolation of its local maxima; the grid runs to 6 w_n so the
    # envelope covers 5 w_n). See the module docstring for why the pointwise
    # form cannot hold above w_n.
    start = time.perf_counter()
    omega_n = 2 * math.pi
    trap = Trapezoidal(2 * math.pi / omega_n, math.pi / omega_n)
    harm = DampedHarmonic(0.0, make_damped_harmonic_params(omega_n, 0.0)[1])
    grid = omega_n * np.arange(1, 601) / 100  # w_n, 2 w_n exact at [99], [199]
    mag_h = freq_response(harm, grid)
    mag_t = freq_response(trap, grid)

    low = grid <= omega_n
    violations = int(np.count_nonzero(mag_h[low] > mag_t[low] + 1e-9))

    peaks_t = _local_maxima(mag_t)
    peaks_t = peaks_t[grid[peaks_t] > omega_n]
    peaks_h = _local_maxima(mag_h)
    peaks_h = peaks_h[(grid[peaks_h] > omega_n) & (grid[peaks_h] <= 5 * omega_n)]
    envelope = np.exp(np.interp(np.log(grid[peaks_h]), np.log(grid[peaks_t]),
                                np.log(mag_t[peaks_t])))
    ratio = mag_h[peaks_h] / envelope
    worst = int(np.argmax(ratio))
    elapsed = time.perf_counter() - start

    ok = violations == 0 and ratio[worst] <= 1.0 and elapsed < 1.0
    assert _report(7, ok, f"{violations}/{int(low.sum())} points above "
                          f"|H_trap| on (0, w_n]; worst lobe peak/envelope = "
                          f"{ratio[worst]:.3f} at {grid[peaks_h[worst]] / omega_n:.2f}"
                          f" w_n over {peaks_h.size} lobes (pointwise at 2 w_n: "
                          f"{mag_h[199]:.4f} vs {mag_t[199]:.1e}), {elapsed:.2f} s")


def test_criterion_08_oracle_equivalences():
    # (a) coupled simulation collapses to the solid model as m -> 0
    dt = 1e-4
    h_o, mu = 1.0, 0.4
    t_star = friction_limited_duration(h_o, 0.0, mu, G)
    motion = _triangular_motion(h_o, 0.95 * t_star, dt)
    solid = simulate_solid_sliding(desk_params(m=0.0, b_lc=0.0, mu=mu, d_z=0.0),
                                   motion)
    tiny = simulate_coupled(desk_params(m=1e-12, b_lc=0.0, mu=mu, d_z=0.0), motion)
    model_gap = max(np.abs(solid.d_x - tiny.d_x).max(),
                    np.abs(solid.d_x_dot - tiny.d_x_dot).max())

    # (b) linear and nonlinear slosh agree within 2% for small angles
    p = desk_params()
    omega_n = math.sqrt(p.g / p.l)
    delta = p.b_lc / (2 * p.m * p.l * p.l * omega_n)
    n = int(6.0 / dt) + 1
    t = np.arange(n) * dt
    acc = 0.08 * np.sin(0.8 * omega_n * t)
    peak_nl = simulate_coupled(desk_params(mu=math.inf),
                               TrayMotion.from_channels(dt, acc)).max_abs_theta
    lin_theta, _ = simulate_linear_slosh(omega_n, delta, acc, dt, g=G)
    peak_lin = np.abs(lin_theta).max()
    lin_gap = abs(peak_nl - peak_lin) / peak_lin

    # (c) structural derivatives match central differences at O(dt^2)
    def fd_gap(step):
        m = int(3.0 / step)
        tt = np.arange(m) * step
        u = np.sin(1.7 * tt) + 0.3 * np.cos(4.1 * tt)
        state = CascadeState(Trapezoidal(0.25, 0.15), step, initial_value=u[0])
        pp, vv, aa = state.run(u)
        lo, hi = int(1.0 / step), m - 5
        fd_v = (pp[lo + 1:hi + 1] - pp[lo - 1:hi - 1]) / (2 * step)
        fd_a = (vv[lo + 1:hi + 1] - vv[lo - 1:hi - 1]) / (2 * step)
        return max(np.abs(fd_v - vv[lo:hi]).max(), np.abs(fd_a - aa[lo:hi]).max())

    g1, g2 = fd_gap(2e-3), fd_gap(1e-3)
    second_order = g2 <= 0.35 * g1 + 1e-13

    ok = model_gap < 1e-8 and peak_lin > 0.01 and lin_gap < 0.02 and second_order
    assert _report(8, ok, f"m->0 gap = {model_gap:.1e} m, linear/nonlinear "
                          f"peak gap = {100 * lin_gap:.2f}%, FD ratio = "
                          f"{g2 / g1:.2f} (<= 0.35)")


def test_criterion_09_integrator_convergence():
    def end_state(dt):
        n = int(round(2.0 / dt)) + 1
        t = np.arange(n) * dt
        acc = 2.0 * np.sin(2 * np.pi * t) * np.sin(0.5 * np.pi * t) ** 2
        tr = simulate_coupled(desk_params(mu=math.inf), TrayMotion.from_channels(dt, acc))
        return tr.theta[-1]

    ref = end_state(2e-3 / 8)
    e1 = abs(end_state(2e-3) - ref)
    e2 = abs(end_state(1e-3) - ref)
    ratio = e1 / e2
    ok = ratio >= 8.0
    assert _report(9, ok, f"halving dt shrinks the error {ratio:.1f}x "
                          f"({e1:.2e} -> {e2:.2e})")


def test_criterion_10_end_to_end_determinism(tmp_path):
    blobs = []
    for name in ("run1", "run2"):
        out = str(tmp_path / name)
        assert cli_main(["plan", "--config", _CONFIG, "--output", out]) == 0
        assert cli_main(["simulate", "--config", _CONFIG,
                         "--input", os.path.join(out, "reference.csv"),
                         "--output", out]) == 0
        blobs.append(tuple(open(os.path.join(out, f), "rb").read()
                           for f in ("plan.txt", "trajectory.csv", "reference.csv",
                                     "freqresp.csv", "trace.csv", "verdict.txt")))
    ok = blobs[0] == blobs[1]
    assert _report(10, ok, "plan + simulate byte-identical across runs"
                   if ok else "outputs differ between identical runs")
