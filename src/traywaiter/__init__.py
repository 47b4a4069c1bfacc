"""Slosh-free, slip-free reference trajectories for tray-carried transport.

Smoothing filters shape the commanded motion and expose its derivatives
structurally; tilt compensation keeps the gravity-plus-inertia vector normal
to the tray; a planar stick-slip and pendulum-slosh simulator validates the
result.
"""

from .compensation import (
    FreeFallError,
    MountingTransform,
    tilt_angles,
)
from .dynamics import (
    ContactLostError,
    IntegrationError,
    PlantParams,
    SimState,
    SimTrace,
    TrayMotion,
    analytic_tilt_channel,
    estimate_prv,
    fd_tilt_channel,
    friction_margin,
    simulate_coupled,
    simulate_pendulum,
    simulate_solid_sliding,
)
from .planner import (
    PlanResult,
    Scenario,
    feasibility_report,
    friction_limited_duration,
    plan,
    rollout_profile,
    rollout_trajectory,
)
from .smoothers import (
    CascadeSpec,
    CascadeState,
    DampedHarmonic,
    Harmonic,
    Rectangular,
    Trapezoidal,
    freq_response,
    kernel_duration,
    make_damped_harmonic_params,
    make_harmonic_T,
    make_trapezoidal_params,
    transfer_function,
)

__version__ = "0.1.0"
