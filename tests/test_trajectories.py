import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import RK45, OdeSolution, solve_ivp
from scipy.special import ndtri as scipy_ndtri

from diracflow import (
    LEFT,
    RIGHT,
    UNRESOLVED,
    BracketingError,
    DiracflowError,
    DomainError,
    ExactVelocityField,
    IntegrationError,
    NodeError,
    PacketParams,
    QuadConfig,
    SchrodingerField,
    SpaVelocityField,
    Spinor,
    ValidationError,
    antipodal_clusters,
    barrier_check,
    barrier_curves,
    bohmian_observables,
    cayley_klein,
    cayley_klein_along,
    evolve_exact_grid,
    find_bifurcation,
    integrate_trajectory,
    j0_first_zero,
    run_ensemble,
    schrodinger_trajectory,
    spa_velocity_field,
    trajectory_closeness,
    xy_ode_velocity,
)
from diracflow import trajectories
from diracflow.spa import SpaParams, spa_weights
from diracflow.trajectories import (
    _RK45,
    MAX_ENSEMBLE_SIZE,
    Trajectory,
    _integrate_members,
    classify_trajectory,
    summarize_ensemble,
)


def _macro(p0=1.0, sigma=0.2, omega=60.0, vartheta=0.0):
    return SpaParams(p0=p0, sigma=sigma, omega=omega, vartheta=vartheta)


# =============================================================================
# Velocity fields
# =============================================================================

def test_schrodinger_trajectories_match_closed_form():
    rng = np.random.default_rng(17)
    ts = np.linspace(0.0, 5.0, 101)
    for _ in range(5):
        q0 = rng.normal(0.0, 0.5)
        k0 = rng.normal(0.0, 2.0)
        traj = integrate_trajectory(q0, (0.0, 5.0), SchrodingerField(k0), tol=1e-10)
        err = np.max(np.abs(traj.position_at(ts) - schrodinger_trajectory(ts, q0, k0)))
        assert err <= 1e-6


def test_spa_field_saturates_at_plus_minus_v0():
    # Far into each packet's side (but above the underflow node threshold)
    # the velocity is exactly +-v0.
    p = _macro()
    t = 1.0
    assert spa_velocity_field(t, 6.0, p) == pytest.approx(p.v0, abs=1e-12)
    assert spa_velocity_field(t, -6.0, p) == pytest.approx(-p.v0, abs=1e-12)


def test_spa_field_equals_rescaled_ode_velocity():
    # vartheta = 0 data corresponds to the eigen angle theta0 = arccos(v0);
    # under the rescaling x = sqrt(v0) t / sigma, y = sqrt(v0) s / sigma the
    # field is exactly F(x, y).
    p = _macro(p0=1.0, sigma=0.2, omega=60.0)
    theta0 = np.arccos(p.v0)
    a_omega = 2 * p.sigma * p.e0 * p.omega / np.sqrt(p.v0)
    field = SpaVelocityField(p)
    for t in (0.3, 0.9, 1.7):
        for s in (-0.8, -0.1, 0.0, 0.2, 1.1):
            x = np.sqrt(p.v0) * t / p.sigma
            y = np.sqrt(p.v0) * s / p.sigma
            assert field(t, s) == pytest.approx(
                float(xy_ode_velocity(x, y, theta0, a_omega)), abs=1e-12)


def test_zero_curve_of_rescaled_field():
    theta0 = np.pi / 8
    a_omega = 11.0
    eta = np.tan(theta0 / 2)
    tan0 = np.tan(theta0)
    for x in (0.4, 1.0, 2.7):
        c = np.cos(a_omega * x)
        y0 = np.log(eta / (tan0 * c + np.sqrt(1 + tan0**2 * c**2))) / x
        assert abs(xy_ode_velocity(x, y0, theta0, a_omega)) <= 1e-12


def test_spa_field_node_signal():
    p = _macro()
    with pytest.raises(NodeError):
        SpaVelocityField(p)(1.0, 1e6)


def test_speed_of_light_bound():
    p = _macro(vartheta=0.9)
    field = SpaVelocityField(p)
    rng = np.random.default_rng(2)
    for _ in range(500):
        t = rng.uniform(0.01, 3.0)
        s = rng.uniform(-3.0, 3.0)
        assert abs(field(t, s)) <= 1.0 + 1e-12


# =============================================================================
# Barrier curves
# =============================================================================

def test_barrier_constant_degenerates_at_quarter_pi():
    assert barrier_curves(np.pi / 4).c_plus == 0.0


def test_barrier_quadrants():
    low = barrier_curves(np.pi / 8)
    high = barrier_curves(3 * np.pi / 8)
    assert low.c_minus < 0 and low.c_plus < 0  # same quadrant
    assert high.c_minus < 0 < high.c_plus      # opposite quadrants
    for spec in (low, high):
        assert spec.c_minus < 0
        assert abs(spec.c_plus) < -spec.c_minus


def test_barrier_degenerate_angles():
    for theta0 in (0.0, np.pi):
        with pytest.raises(DomainError):
            barrier_curves(theta0)


def test_barrier_check_at_an_overflowing_x():
    # C_+- / x overflows at x = 5e-324, which raises; at theta0 = pi/2,
    # where C_+- = +-inf, the check runs as before, with no warning.
    with pytest.raises(DomainError, match=r"overflows at x = 5e-324"):
        barrier_check(barrier_curves(0.7), [1.0], [5e-324, 1.0], [0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = barrier_check(barrier_curves(np.pi / 2), [1.0, 3.7], [5e-324, 1e-300, 1.0],
                               [0.0, 1.0])
    assert report == {"n_checked": 24, "violations": 0, "worst": 0.0}


def test_barrier_sign_regions():
    x = np.linspace(0.2, 5.0, 50)
    offsets = np.linspace(0.0, 3.0, 50)
    for theta0 in (np.pi / 8, 3 * np.pi / 8, 5 * np.pi / 8, 7 * np.pi / 8):
        spec = barrier_curves(theta0)
        report = barrier_check(spec, [1.0, 3.7, 10.0, 100.0], x, offsets)
        assert report["violations"] == 0


def test_spa_trajectories_do_not_recross_upper_barrier():
    # Once past the upper hyperbola x*y >= C_+, the rescaled path stays there.
    p = _macro(p0=1.0, sigma=0.2, omega=60.0)
    theta0 = np.arccos(p.v0)
    spec = barrier_curves(theta0)
    field = SpaVelocityField(p)
    scale = np.sqrt(p.v0) / p.sigma
    for q0 in (0.05, 0.2, 0.5):
        traj = integrate_trajectory(q0, (0.05, 3.0), field, tol=1e-10)
        ts = np.linspace(0.05, 3.0, 400)
        xy = (scale * ts) * (scale * traj.position_at(ts))
        past = np.nonzero(xy >= spec.c_plus)[0]
        if past.size:
            assert np.all(xy[past[0]:] >= spec.c_plus - 1e-6)


# =============================================================================
# Trajectory integration
# =============================================================================

def test_symmetric_exact_data_stays_at_origin():
    data = PacketParams(sigma=1.0, k0=0.0, theta0=np.pi / 2, omega0=0.0, mass=2.0)
    traj = integrate_trajectory(0.0, (0.0, 1.0), ExactVelocityField(data), tol=1e-9)
    assert np.max(np.abs(traj.positions)) <= 1e-6


def test_deep_forward_support_reaches_terminal_velocity():
    p = _macro(omega=100.0)
    field = SpaVelocityField(p)
    q0 = 4 * p.sigma
    traj = integrate_trajectory(q0, (0.0, 3.0), field, tol=1e-9)
    h = 0.05
    v_end = (traj.position_at(3.0) - traj.position_at(3.0 - h)) / h
    assert v_end == pytest.approx(p.v0, abs=1e-3)


def test_trajectories_preserve_order():
    p = _macro(omega=60.0)
    field = SpaVelocityField(p)
    q0s = np.linspace(-0.5, 0.5, 8)
    trajs = [integrate_trajectory(q0, (0.0, 2.0), field, tol=1e-9) for q0 in q0s]
    ts = np.linspace(0.0, 2.0, 50)
    paths = np.array([tr.position_at(ts) for tr in trajs])
    assert np.all(np.diff(paths, axis=0) > -1e-6)


class _CountingField:
    def __init__(self, field):
        self.field = field
        self.calls = 0

    def __call__(self, t, s):
        self.calls += 1
        return self.field(t, s)


def _reference_fields():
    fig3 = PacketParams(sigma=1.0, k0=10.0, theta0=np.pi / 2, omega0=0.0, mass=3.0)
    return [SpaVelocityField(SpaParams.from_packet(fig3)), SchrodingerField(1.5)]


@pytest.mark.parametrize("field", _reference_fields(), ids=["spa", "schrodinger"])
def test_integrator_calls_field_once_per_stage(field):
    # RK45 is first-same-as-last: recording the accepted-step velocities must
    # not cost a field call beyond the stepper's own.
    counted = _CountingField(field)
    traj = integrate_trajectory(0.3, (0.0, 6.0), counted, tol=1e-8)
    ref = solve_ivp(lambda t, y: [field(t, y[0])], (0.0, 6.0), [0.3], method="RK45",
                    rtol=1e-8, atol=1e-8)
    assert counted.calls == ref.nfev
    assert np.array_equal(traj.times, ref.t)
    assert np.array_equal(traj.positions, ref.y[0])


@pytest.mark.parametrize("field", _reference_fields(), ids=["spa", "schrodinger"])
def test_recorded_velocities_are_the_field_values(field):
    traj = integrate_trajectory(-0.4, (0.0, 6.0), field, tol=1e-8)
    fresh = [field(t, q) for t, q in zip(traj.times, traj.positions)]
    assert np.array_equal(traj.velocities, fresh)


@pytest.mark.parametrize("workers", [1, 2])
def test_ensemble_members_keep_dense_output(fig3_packet, workers):
    trajs, _ = run_ensemble(4, fig3_packet, 4.0, field_mode="SPA", seed=3,
                            workers=workers)
    field = SpaVelocityField(SpaParams.from_packet(fig3_packet))
    ts = np.linspace(0.0, 4.0, 41)
    for tr in trajs:
        single = integrate_trajectory(tr.q0, (0.0, 4.0), field)
        assert np.array_equal(tr.position_at(ts), single.position_at(ts))


def test_failed_member_has_no_positions(fig3_packet):
    # Unreachable tolerances in 8 panels make every exact-field evaluation fail.
    trajs, _ = run_ensemble(2, fig3_packet, 0.5, field_mode="EXACT", seed=3,
                            quad=QuadConfig(rel_tol=1e-300, abs_tol=1e-300, max_panels=8))
    for tr in trajs:
        assert tr.error is not None
        with pytest.raises(DiracflowError):
            tr.position_at(0.25)


def test_velocity_bound_on_recorded_steps(fig3_packet):
    trajs, _ = run_ensemble(4, fig3_packet, 4.0, field_mode="SPA", seed=3)
    for tr in trajs:
        assert np.all(np.abs(tr.velocities) <= 1.0 + 1e-9)
        # No step moves faster than light either.
        assert np.all(np.abs(np.diff(tr.positions)) <= np.diff(tr.times) + 1e-6)


# =============================================================================
# Ensembles
# =============================================================================

def test_ensemble_is_deterministic(fig3_packet):
    trajs_a, sum_a = run_ensemble(6, fig3_packet, 5.0, field_mode="SPA", seed=11)
    trajs_b, sum_b = run_ensemble(6, fig3_packet, 5.0, field_mode="SPA", seed=11)
    for a, b in zip(trajs_a, trajs_b):
        assert a.q0 == b.q0
        assert np.array_equal(a.positions, b.positions)
    assert sum_a == sum_b


def test_ensemble_worker_count_invariance(fig3_packet):
    trajs_a, _ = run_ensemble(6, fig3_packet, 5.0, field_mode="SPA", seed=11,
                              workers=1)
    trajs_b, _ = run_ensemble(6, fig3_packet, 5.0, field_mode="SPA", seed=11,
                              workers=2)
    for a, b in zip(trajs_a, trajs_b):
        assert a.q0 == b.q0
        assert np.array_equal(a.positions, b.positions)
        assert a.classification == b.classification


def test_ensemble_seed_changes_draws(fig3_packet):
    trajs_a, _ = run_ensemble(4, fig3_packet, 1.0, field_mode="SPA", seed=1)
    trajs_b, _ = run_ensemble(4, fig3_packet, 1.0, field_mode="SPA", seed=2)
    assert any(a.q0 != b.q0 for a, b in zip(trajs_a, trajs_b))


@pytest.mark.parametrize("seed", [0, 5, 2**31 - 2, 2**64 + 3])
def test_ensemble_draws_are_scipys_ndtri(seed):
    # q0 = sigma * ndtri(u) with the u each member's (seed, index) stream
    # draws first: the Cephes transcription gives scipy's bits.
    data = PacketParams(sigma=0.7, k0=10.0, theta0=np.pi / 2, omega0=0.0, mass=3.0)
    trajs, _ = run_ensemble(8, data, 0.05, field_mode="SPA", seed=seed)
    u = [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,))).random()
         for i in range(8)]
    assert [t.q0 for t in trajs] == [float(0.7 * scipy_ndtri(x)) for x in u]


@pytest.mark.parametrize("seed", [-1, -2**40, 1.5, "3"], ids=["-1", "-2**40", "float", "str"])
def test_ensemble_rejects_a_bad_seed(fig3_packet, seed):
    with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
        run_ensemble(2, fig3_packet, 1.0, field_mode="SPA", seed=seed)


@pytest.mark.parametrize("n", [0, MAX_ENSEMBLE_SIZE + 1])
def test_ensemble_size_is_bounded(fig3_packet, n):
    # Rejected before any initial position is drawn.
    with pytest.raises(ValidationError, match=f"n must lie in \\[1, {MAX_ENSEMBLE_SIZE}\\]"):
        run_ensemble(n, fig3_packet, 1.0, field_mode="SPA")


def test_non_monotone_ensemble_has_no_bifurcation_point():
    # A RIGHT member left of a LEFT one: the escape side is not monotone in q0.
    def member(q0, side):
        return Trajectory(times=np.zeros(1), positions=np.array([q0]),
                          velocities=np.zeros(1), q0=q0, classification=side)

    summary = summarize_ensemble([member(0.5, LEFT), member(-0.5, RIGHT), member(1.0, RIGHT)],
                                 0.9)
    assert (summary.n_right, summary.n_left) == (2, 1)
    assert not summary.monotone
    assert summary.s0_estimate is None and summary.s0_bracket is None


def test_equal_q0_on_both_sides_is_not_monotone():
    # A LEFT and a RIGHT member at one q0 leave no point between the sides,
    # whichever comes first.
    def member(q0, side):
        return Trajectory(times=np.zeros(1), positions=np.array([q0]),
                          velocities=np.zeros(1), q0=q0, classification=side)

    for sides in ((LEFT, RIGHT), (RIGHT, LEFT)):
        summary = summarize_ensemble([member(0.5, side) for side in sides], 0.9)
        assert not summary.monotone
        assert summary.s0_estimate is None and summary.s0_bracket is None


@pytest.mark.parametrize("t_final", [0.0, -1.0, np.nan, np.inf])
def test_ensemble_rejects_bad_t_final(fig3_packet, t_final):
    with pytest.raises(ValidationError, match="t_final"):
        run_ensemble(2, fig3_packet, t_final, field_mode="SPA")


def test_classification_sides(fig3_packet):
    trajs, summary = run_ensemble(16, fig3_packet, 8.0, field_mode="SPA", seed=5)
    assert summary.n_unresolved == 0
    assert summary.monotone
    assert summary.s0_estimate is not None
    for tr in trajs:
        if tr.q0 > summary.s0_estimate:
            assert tr.classification == RIGHT
        else:
            assert tr.classification == LEFT


@pytest.mark.parametrize("seed", [3, 11])
def test_exact_flow_splits_the_ensemble_as_the_spa_flow(fig3_packet, seed):
    # The headline under the exact field: every member escapes to the same
    # side as under the SPA field, with one bifurcation point.
    exact, exact_summary = run_ensemble(20, fig3_packet, 8.0, field_mode="EXACT", seed=seed)
    spa, spa_summary = run_ensemble(20, fig3_packet, 8.0, field_mode="SPA", seed=seed)
    assert [t.classification for t in exact] == [t.classification for t in spa]
    for summary in (exact_summary, spa_summary):
        assert summary.monotone and summary.s0_estimate is not None
        assert summary.n_left and summary.n_right
        assert summary.n_unresolved == summary.n_failed == 0
    assert not any(t.node_events for t in exact + spa)


def late_time_observables(trajs, data, t):
    """Per member at time t: its class, (v, q / t, p, E) and tan^2 Omega under the exact field."""
    field = ExactVelocityField(data)
    rows = []
    for tr in trajs:
        q = tr.position_at(t)
        ck = cayley_klein(field.spinor(t, q))
        v, p, e = bohmian_observables(ck, data.mass)
        rows.append((tr.classification, v, q / t, p, e, np.tan(ck.omega) ** 2))
    return rows


@pytest.mark.parametrize("seed", [3, 11])
def test_exact_flow_is_locally_a_plane_wave_at_late_times(fig3_packet, seed):
    # The paper's large-time claims under the exact field, to t = 300: each
    # member's energy has the sign of its class, and the flow is locally a
    # plane wave, v -> q / t and E^2 - p^2 = m^2 sec^2 Omega -> m^2.  Measured
    # worst |v - q / t| at t = 100 and 300: 0.0178 and 3.64e-3 (seed 3),
    # 0.0164 and 4.09e-3 (seed 11); worst tan^2 Omega 8.0e-3 and 3.27e-3,
    # 5.81e-3 and 3.04e-3.
    trajs, summary = run_ensemble(8, fig3_packet, 300.0, field_mode="EXACT", seed=seed)
    events = {tr.q0: len(tr.node_events) for tr in trajs if tr.node_events}
    assert summary.n_failed == summary.n_unresolved == 0, events
    worst = {}
    for t in (30.0, 100.0, 300.0):
        rows = late_time_observables(trajs, fig3_packet, t)
        for cls, v, q_over_t, p, e, tan2 in rows:
            # Against k0 > 0, right-movers carry positive energy.
            assert (e > 0) == (cls == RIGHT), (t, cls, e, events)
            # Each member tends to a momentum its spectrum |phi_hat|^2 ~
            # e^{-2 sigma^2 (k - k0)^2} holds: within four standard
            # deviations 1 / (2 sigma) of k0.
            assert abs(p - fig3_packet.k0) <= 2 / fig3_packet.sigma, (t, p, events)
        worst[t] = (max(abs(v - q_over_t) for _, v, q_over_t, *_ in rows),
                    max(row[-1] for row in rows))
    assert worst[300.0][0] < worst[100.0][0] and worst[300.0][1] < worst[100.0][1], (worst, events)
    assert worst[300.0][0] <= 6e-3 and worst[300.0][1] <= 5e-3, (worst, events)


def test_exact_bifurcation_point_is_near_the_spa_one(fig3_packet):
    # The SPA is the paper's method of proof, not the exact flow: the two s0
    # differ by a measured 6.7e-4 (-0.369049 exact, -0.368378 SPA), and each
    # bisection lands within tol_s of its own s0.
    tol_s = 1e-4
    exact = find_bifurcation(fig3_packet, 8.0, tol_s, field_mode="EXACT")
    spa = find_bifurcation(fig3_packet, 8.0, tol_s)
    assert abs(exact - spa) <= 7e-4 + 2 * tol_s


def test_negative_momentum_reverses_energy_sides():
    data = PacketParams(sigma=1.0, k0=-10.0, theta0=np.pi / 2, omega0=0.0, mass=3.0)
    trajs, summary = run_ensemble(10, data, 8.0, field_mode="SPA", seed=9)
    field = SpaVelocityField(SpaParams.from_packet(data))
    from diracflow import bohmian_observables, cayley_klein
    for tr in trajs:
        if tr.classification == UNRESOLVED:
            continue
        psi = field.spinor(tr.times[-1], tr.positions[-1])
        _, p, e = bohmian_observables(cayley_klein(psi), data.mass)
        assert p == pytest.approx(-10.0, rel=0.01)
        # Right-movers against a leftward momentum carry negative energy.
        if tr.classification == RIGHT:
            assert e < 0
        else:
            assert e > 0


def test_find_bifurcation_reproducible(fig3_packet):
    s0_a = find_bifurcation(fig3_packet, 8.0, 1e-4)
    s0_b = find_bifurcation(fig3_packet, 8.0, 1e-4)
    assert s0_a == s0_b
    assert abs(s0_a) < 6 * fig3_packet.sigma


def test_find_bifurcation_needs_bracket(fig3_packet):
    with pytest.raises(BracketingError):
        find_bifurcation(fig3_packet, 8.0, 1e-3,
                         bracket=(2 * fig3_packet.sigma, 8 * fig3_packet.sigma))


def _bisect_one_at_a_time(field, data, t_final, tol_s, bracket):
    """find_bifurcation as plain bisection with one trajectory per integration."""
    v0 = abs(data.k0) / np.hypot(data.k0, data.mass)

    def classify(q0):
        horizon = t_final
        for _ in range(3):
            cls, _ = classify_trajectory(integrate_trajectory(q0, (0.0, horizon), field), v0)
            if cls != UNRESOLVED:
                return cls
            horizon *= 2
        return UNRESOLVED

    lo, hi = bracket
    cls_lo = classify(lo)
    assert cls_lo != UNRESOLVED and classify(hi) not in (UNRESOLVED, cls_lo)
    while hi - lo > tol_s:
        mid = 0.5 * (lo + hi)
        cls_mid = classify(mid)
        assert cls_mid != UNRESOLVED
        if cls_mid == cls_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _recording_horizons(monkeypatch):
    """Record (members, horizon) of every lockstep call find_bifurcation makes."""
    calls = []

    def recorded(q0s, t_span, field, tol):
        calls.append((len(q0s), t_span[1]))
        return _integrate_members(q0s, t_span, field, tol)

    monkeypatch.setattr(trajectories, "_integrate_members", recorded)
    return calls


@pytest.mark.parametrize("t_final, tol_s", [(8.0, 1e-4), (3.0, 1e-2)])
def test_find_bifurcation_equals_one_at_a_time_bisection(fig3_packet, monkeypatch,
                                                         t_final, tol_s):
    # At t_final = 3 members near the boundary are still unresolved and run
    # again to twice the horizon.
    bracket = (-8 * fig3_packet.sigma, 8 * fig3_packet.sigma)
    field = SpaVelocityField(SpaParams.from_packet(fig3_packet))
    expected = _bisect_one_at_a_time(field, fig3_packet, t_final, tol_s, bracket)
    calls = _recording_horizons(monkeypatch)
    assert find_bifurcation(fig3_packet, t_final, tol_s) == expected
    levels = int(np.ceil(np.log2((bracket[1] - bracket[0]) / tol_s)))
    first_pass = [n for n, horizon in calls if horizon == t_final]
    # The bracket ends in one call, then two bisection levels per call.
    assert first_pass[0] == 2 and len(first_pass) == 1 + int(np.ceil(levels / 2))
    assert max(first_pass) == 3
    assert any(horizon > t_final for _, horizon in calls) == (t_final == 3.0)


class _SignField:
    """v = +-v0 away from the origin, with a stalled and a failing start region."""

    def __init__(self, v0):
        self.v0 = v0

    def __call__(self, t, s):
        if -4.5 < s < -4.0:
            return 0.0
        if t < 0.1 and 5.0 < s < 5.25:
            raise IntegrationError("failed off the bisection path")
        return np.copysign(self.v0, s)


def test_find_bifurcation_ignores_points_it_does_not_visit(fig3_packet, monkeypatch):
    # Over [-8, 7] bisection visits -0.5, 3.25, 1.375, ...; the speculative
    # points -4.25 (stalled, UNRESOLVED) and 5.125 (its integration fails)
    # are classified alongside but never visited.
    field = _SignField(abs(fig3_packet.k0) / np.hypot(fig3_packet.k0, fig3_packet.mass))
    monkeypatch.setattr(trajectories, "_make_field", lambda *args: field)
    expected = _bisect_one_at_a_time(field, fig3_packet, 1.0, 1e-3, (-8.0, 7.0))
    calls = _recording_horizons(monkeypatch)
    assert find_bifurcation(fig3_packet, 1.0, 1e-3, bracket=(-8.0, 7.0)) == expected
    # The stalled point ran alone to twice and four times the horizon.
    assert calls[2:4] == [(1, 2.0), (1, 4.0)]


def test_rescaling_leaves_classification_invariant(fig3_packet):
    # The macroscopic rescaling multiplies (k0, mass) by L and divides sigma
    # by L; trajectories in rescaled variables are identical.
    L = 7.0
    scaled = fig3_packet.rescaled(L)
    field = SpaVelocityField(SpaParams.from_packet(fig3_packet))
    field_scaled = SpaVelocityField(SpaParams.from_packet(scaled))
    q0 = 0.3
    tr = integrate_trajectory(q0, (0.0, 4.0), field, tol=1e-10)
    tr_scaled = integrate_trajectory(q0 / L, (0.0, 4.0 / L), field_scaled, tol=1e-10)
    ts = np.linspace(0.0, 4.0, 30)
    assert np.allclose(tr.position_at(ts), L * tr_scaled.position_at(ts / L),
                       atol=1e-6)


# =============================================================================
# Closeness and equivariance
# =============================================================================

def test_closeness_of_identical_trajectories():
    field = SchrodingerField(1.0)
    a = integrate_trajectory(0.3, (0.0, 2.0), field, tol=1e-10)
    b = integrate_trajectory(0.3, (0.0, 2.0), field, tol=1e-10)
    assert trajectory_closeness(a, b) <= 1e-12


def test_closeness_requires_overlap():
    field = SchrodingerField(1.0)
    a = integrate_trajectory(0.3, (0.0, 1.0), field)
    b = integrate_trajectory(0.3, (2.0, 3.0), field)
    with pytest.raises(DomainError):
        trajectory_closeness(a, b)


def test_closeness_shrinks_with_omega():
    q0, t0, t1 = 0.25, 0.35, 1.0
    sups = []
    for omega in (50.0, 100.0):
        p = _macro(omega=omega)
        tr_e = integrate_trajectory(q0, (t0, t1), ExactVelocityField(p.packet()),
                                    tol=1e-8)
        tr_s = integrate_trajectory(q0, (t0, t1), SpaVelocityField(p), tol=1e-8)
        sups.append(trajectory_closeness(tr_e, tr_s))
    assert sups[1] <= 1.1 * sups[0]


def test_equivariance_kolmogorov_smirnov(fig3_packet):
    # Positions distributed as rho(0, .) stay distributed as rho(t, .).
    t_final = 0.5
    trajs, _ = run_ensemble(200, fig3_packet, t_final, field_mode="EXACT", seed=7)
    finals = np.sort([tr.positions[-1] for tr in trajs if tr.error is None])
    s = np.linspace(-14, 14, 2001)
    psi, _ = evolve_exact_grid(t_final, s, fig3_packet)
    cdf = np.cumsum(psi.density)
    cdf /= cdf[-1]
    model = np.interp(finals, s, cdf)
    n = finals.size
    ks = max(np.max(np.abs(np.arange(1, n + 1) / n - model)),
             np.max(np.abs(np.arange(0, n) / n - model)))
    assert ks <= 0.15


# =============================================================================
# Bloch data along trajectories
# =============================================================================

def test_bloch_angles_settle_and_observables_match(fig3_packet):
    trajs, _ = run_ensemble(6, fig3_packet, 8.0, field_mode="SPA", seed=21)
    field = SpaVelocityField(SpaParams.from_packet(fig3_packet))
    energy = np.hypot(fig3_packet.k0, fig3_packet.mass)
    from diracflow import bohmian_observables, CayleyKlein
    for tr in trajs:
        assert tr.classification in (RIGHT, LEFT)
        ck = cayley_klein_along(tr, field.spinors)
        late = tr.times >= 7.0
        assert np.ptp(ck["theta"][late]) <= 0.02
        assert np.ptp(np.cos(ck["omega"][late])) <= 0.02
        point = CayleyKlein(r=float(ck["r"][-1]), theta=float(ck["theta"][-1]),
                            omega=float((ck["omega"][-1] + np.pi) % (2 * np.pi) - np.pi),
                            phi=float(ck["phi"][-1]))
        _, p, e = bohmian_observables(point, fig3_packet.mass)
        assert p == pytest.approx(fig3_packet.k0, rel=0.01)
        sign = 1 if tr.classification == RIGHT else -1
        assert e == pytest.approx(sign * energy, rel=0.01)


def test_antipodal_cluster_report():
    rng = np.random.default_rng(4)
    center = np.array([0.3, 0.0, 0.95])
    center /= np.linalg.norm(center)
    cloud = []
    for sign in (+1, -1):
        for _ in range(20):
            v = sign * center + 0.01 * rng.normal(size=3)
            cloud.append(v / np.linalg.norm(v))
    report = antipodal_clusters(np.array(cloud))
    assert report["n_clusters"] == 2
    assert report["antipodal"]
    assert max(report["angular_radii"]) < 0.1


# =============================================================================
# The lockstep RK45 loop against scipy
# =============================================================================

def _scipy_run(field, q0, t_span, tol=1e-8):
    """scipy's RK45 on a scalar field, with node points recorded as the loop does.

    Returns (times, positions, velocities, node events, OdeSolution, nfev),
    or the failure message.
    """
    events = []

    def rhs(t, y):
        try:
            return [field(t, y[0])]
        except NodeError:
            events.append((float(t), float(y[0])))
            return [0.0]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        solver = RK45(rhs, t_span[0], [q0], t_span[1], rtol=tol, atol=tol)
    steps = [(solver.t, solver.y[0], solver.f[0])]
    pieces = []
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            return message
        steps.append((solver.t, solver.y[0], solver.f[0]))
        pieces.append(solver.dense_output())
    times, positions, velocities = map(np.array, zip(*steps))
    return times, positions, velocities, events, OdeSolution(times, pieces), solver.nfev


def _assert_matches_scipy(traj, ref, t_check):
    times, positions, velocities, events, dense, _ = ref
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.positions, positions)
    assert np.array_equal(traj.velocities, velocities)
    assert traj.node_events == events
    assert np.array_equal(traj.position_at(t_check), dense(t_check)[0])


@pytest.mark.parametrize("seed", [1, 77])
def test_ensemble_members_match_scipy_rk45(fig3_packet, seed, monkeypatch):
    points = []
    batch = SpaVelocityField.velocities

    def counted(self, t, s):
        points.append(np.size(t))
        return batch(self, t, s)

    monkeypatch.setattr(SpaVelocityField, "velocities", counted)
    trajs, _ = run_ensemble(50, fig3_packet, 8.0, field_mode="SPA", seed=seed)
    field_points = sum(points)
    field = SpaVelocityField(SpaParams.from_packet(fig3_packet))
    t_check = np.linspace(0.0, 8.0, 997)
    nfev = 0
    for tr in trajs:
        ref = _scipy_run(field, tr.q0, (0.0, 8.0))
        _assert_matches_scipy(tr, ref, t_check)
        nfev += ref[-1]
    assert field_points == nfev


def test_underflowing_member_keeps_scalar_node_events(fig3_packet):
    # At q0 = 40 sigma both SPA envelopes underflow: the member sees node
    # events, stepped alongside ordinary members.
    field = SpaVelocityField(SpaParams.from_packet(fig3_packet))
    q0s = [-0.5, 40.0 * fig3_packet.sigma, 0.7]
    t_check = np.linspace(0.0, 2.0, 997)
    members = _integrate_members(q0s, (0.0, 2.0), field, 1e-8)
    assert members[1].node_events
    for q0, tr in zip(q0s, members):
        _assert_matches_scipy(tr, _scipy_run(field, q0, (0.0, 2.0)), t_check)


class _FailsRightOfOrigin:
    """A scalar field that cannot be evaluated at s > 0."""

    def __init__(self, field):
        self.field = field

    def __call__(self, t, s):
        if s > 0:
            raise IntegrationError(f"no field at s = {s:.3f}")
        return self.field(t, s)


def test_failing_members_leave_the_rest_untouched(fig3_packet):
    field = _FailsRightOfOrigin(SpaVelocityField(SpaParams.from_packet(fig3_packet)))
    q0s = [-2.0, 0.5, -1.5, 1.25, -3.0]
    members = _integrate_members(q0s, (0.0, 2.0), field, 1e-8)
    for q0, member in zip(q0s, members):
        if q0 > 0:
            assert isinstance(member, IntegrationError)
            assert str(member) == f"no field at s = {q0:.3f}"
            continue
        solo = integrate_trajectory(q0, (0.0, 2.0), field)
        assert np.all(solo.positions < 0)
        assert np.array_equal(member.times, solo.times)
        assert np.array_equal(member.positions, solo.positions)
        assert np.array_equal(member.velocities, solo.velocities)


def test_exact_member_in_a_node_region_records_node_events(fig3_packet):
    # At q0 = 9 sigma the exact density stays below NODE_EPS of the initial
    # peak over (0, 0.2): every stage is a node event with velocity 0.  The
    # member beside it never meets a node and is unaffected by it.
    field = ExactVelocityField(fig3_packet)
    deep, near = _integrate_members([9.0 * fig3_packet.sigma, 0.3], (0.0, 0.2), field, 1e-8)
    assert deep.times.size == 8 and len(deep.node_events) == 44
    assert np.all(deep.velocities == 0.0) and np.all(deep.positions == deep.q0)
    assert not near.node_events
    solo = integrate_trajectory(0.3, (0.0, 0.2), field)
    assert np.array_equal(near.times, solo.times)
    assert np.array_equal(near.positions, solo.positions)
    assert np.array_equal(near.velocities, solo.velocities)


class _NanAboveOne:
    """dq/dt = q / 2, NaN above q = 1; raises once called often enough to be a hang."""

    def __init__(self, nan_everywhere=False):
        self.nan_everywhere = nan_everywhere
        self.calls = 0

    def __call__(self, t, q):
        self.calls += 1
        if self.calls > 10_000:
            raise RuntimeError("velocity field called 10000 times: the loop does not end")
        return float("nan") if self.nan_everywhere or q > 1 else 0.5 * q


def test_non_finite_velocity_fails_the_member_alone():
    start = time.perf_counter()
    with pytest.raises(IntegrationError, match="non-finite velocity nan at t = 0.0, q = 0.3"):
        integrate_trajectory(0.3, (0.0, 1.0), _NanAboveOne(nan_everywhere=True))
    failed, finite = _integrate_members([2.0, 0.3], (0.0, 1.0), _NanAboveOne(), 1e-8)
    assert time.perf_counter() - start < 5.0
    assert str(failed) == ("trajectory integration failed: non-finite velocity nan "
                           "at t = 0.0, q = 2.0")
    solo = integrate_trajectory(0.3, (0.0, 1.0), _NanAboveOne())
    assert np.array_equal(finite.times, solo.times)
    assert np.array_equal(finite.positions, solo.positions)
    assert np.array_equal(finite.velocities, solo.velocities)


def test_too_small_step_fails_with_scipys_message():
    # dq/dt = q^2 from q = 1 blows up at t = 1.
    def blow_up(t, q):
        return q * q

    message = _scipy_run(blow_up, 1.0, (0.0, 2.0))
    assert message == "Required step size is less than spacing between numbers."
    with pytest.raises(IntegrationError, match=f"trajectory integration failed: {message}"):
        integrate_trajectory(1.0, (0.0, 2.0), blow_up)
    # In a loop with a member that stays finite, only the blow-up fails.
    members = _integrate_members([1.0, -1.0], (0.0, 2.0), blow_up, 1e-8)
    assert str(members[0]) == f"trajectory integration failed: {message}"
    _assert_matches_scipy(members[1], _scipy_run(blow_up, -1.0, (0.0, 2.0)),
                          np.linspace(0.0, 2.0, 97))


@pytest.mark.parametrize("t_span", [(3.0, 0.5), (1.0, 1.0)], ids=["backward", "empty"])
def test_backward_and_empty_spans_match_scipy(fig3_packet, t_span):
    field = SpaVelocityField(SpaParams.from_packet(fig3_packet))
    tr = integrate_trajectory(0.4, t_span, field)
    _assert_matches_scipy(tr, _scipy_run(field, 0.4, t_span), np.linspace(*t_span, 97))


def test_tiny_tol_warns_once_and_clamps_like_scipy(fig3_packet):
    with pytest.warns(UserWarning, match="below 100 machine epsilons") as caught:
        trajs, _ = run_ensemble(3, fig3_packet, 0.5, field_mode="SPA", seed=4, tol=1e-30)
    assert len(caught) == 1
    field = SpaVelocityField(SpaParams.from_packet(fig3_packet))
    for tr in trajs:
        _assert_matches_scipy(tr, _scipy_run(field, tr.q0, (0.0, 0.5), tol=1e-30),
                              np.linspace(0.0, 0.5, 97))


def test_tableau_is_scipys():
    for name in ("C", "A", "B", "E", "P"):
        ours, theirs = getattr(_RK45, name), getattr(RK45, name)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name
    assert _RK45.n_stages == RK45.n_stages
    assert _RK45.error_estimator_order == RK45.error_estimator_order
    assert _RK45.TOO_SMALL_STEP == RK45.TOO_SMALL_STEP


@pytest.mark.parametrize("t_span", [(0.0, 2.0), (3.0, 0.5), (1.0, 1.0)],
                         ids=["forward", "backward", "empty"])
def test_position_queries_match_scipy_dense_output(fig3_packet, t_span):
    # Scalar and shuffled array queries, on step boundaries and outside the span.
    field = SpaVelocityField(SpaParams.from_packet(fig3_packet))
    tr = integrate_trajectory(0.4, t_span, field)
    dense = _scipy_run(field, 0.4, t_span)[4]
    lo, hi = sorted(t_span)
    ts = np.concatenate((tr.times, np.linspace(lo, hi, 41), [lo - 0.25, hi + 0.25]))
    for t in ts:
        assert tr.position_at(t) == float(dense(t)[0])
    shuffled = np.random.default_rng(5).permutation(np.concatenate((ts, ts[:7])))
    assert np.array_equal(tr.position_at(shuffled), dense(shuffled)[0])


@pytest.mark.parametrize("kwargs", [
    {"t_span": (0.0, np.inf)}, {"t_span": (np.nan, 1.0)}, {"tol": np.nan},
    {"tol": np.inf}, {"tol": 0.0}, {"tol": -1e-8}, {"q0": np.nan}, {"q0": -np.inf},
], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_integrate_trajectory_rejects_bad_inputs(kwargs):
    args = {"q0": 0.3, "t_span": (0.0, 1.0), "tol": 1e-8, **kwargs}
    with pytest.raises(ValidationError):
        integrate_trajectory(args["q0"], args["t_span"], SchrodingerField(1.0),
                             tol=args["tol"])


@pytest.mark.parametrize("kwargs", [
    {"t_final": np.inf}, {"t_final": np.nan}, {"tol_s": np.nan}, {"tol_s": np.inf},
    {"tol_s": 0.0},
], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_find_bifurcation_rejects_bad_inputs(fig3_packet, kwargs):
    args = {"t_final": 8.0, "tol_s": 1e-3, **kwargs}
    with pytest.raises(ValidationError):
        find_bifurcation(fig3_packet, args["t_final"], args["tol_s"])


# Inputs that hung before they were validated; a fresh process with a
# timeout turns a regression into a failure rather than a stuck suite.
HANG_CASES = {
    "infinite_t_span": "integrate_trajectory(0.3, (0.0, float('inf')), SchrodingerField(1.0))",
    "nan_tol": "integrate_trajectory(0.3, (0.0, 1.0), SchrodingerField(1.0), tol=float('nan'))",
    "ensemble_nan_tol": "run_ensemble(2, FIG3, 1.0, tol=float('nan'))",
}


@pytest.mark.parametrize("case", sorted(HANG_CASES))
def test_formerly_hanging_inputs_rejected_in_subprocess(case):
    import diracflow
    src = str(Path(diracflow.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "from diracflow import *\n"
        "FIG3 = PacketParams(sigma=1.0, k0=10.0, theta0=1.5707963267948966, omega0=0.0, mass=3.0)\n"
        "try:\n"
        f"    {HANG_CASES[case]}\n"
        "except ValidationError as exc:\n"
        "    print('rejected:', exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected:")


# =============================================================================
# The array SPA field and the paired spinor
# =============================================================================

def _spa_points(rng, n=4000):
    t = rng.uniform(0.0, 20.0, n)
    s = rng.uniform(-60.0, 60.0, n)
    # Saturated points (|w| > 350) and deep-tail nodes, both signs.
    t[:200], s[:200] = rng.uniform(8.0, 20.0, 200), rng.uniform(45.0, 60.0, 200)
    t[200:400], s[200:400] = rng.uniform(8.0, 20.0, 200), -rng.uniform(45.0, 60.0, 200)
    t[400:600], s[400:600] = rng.uniform(0.0, 0.5, 200), rng.choice([-1, 1], 200) * 50.0
    return t, s


def test_array_spa_field_equals_scalar_calls(fig3_packet):
    field = SpaVelocityField(SpaParams.from_packet(fig3_packet))
    t, s = _spa_points(np.random.default_rng(5))
    v, node = field.velocities(t, s)
    w = field.params.v0 * t * s / fig3_packet.sigma**2
    assert np.count_nonzero(np.abs(w) > 350) >= 300
    assert np.count_nonzero(node) >= 100
    for ti, si, vi, ni in zip(t, s, v, node):
        if ni:
            assert vi == 0.0
            with pytest.raises(NodeError):
                field(ti, si)
        else:
            assert field(ti, si) == vi


def test_array_spa_field_matches_spinor_current(fig3_packet):
    # The field's spinor carries the velocity's own weights at every t.
    field = SpaVelocityField(SpaParams.from_packet(fig3_packet))
    t, s = _spa_points(np.random.default_rng(6))
    v, _ = field.velocities(t, s)
    psi = field.spinors(t, s)
    dense = psi.density > 1e-250
    assert np.count_nonzero(dense) >= 1000
    ref = psi.current[dense] / psi.density[dense]
    assert np.max(np.abs(v[dense] - ref) / np.maximum(np.abs(ref), 1.0)) <= 1e-12


@pytest.mark.parametrize("data", [
    PacketParams(sigma=1.0, k0=10.0, theta0=np.pi / 2, omega0=0.0, mass=3.0),
    # B's rounding (|B| ~ 2e-17) is set to 0.
    PacketParams.energy_eigen(1, 10, 3, +1),
    # B = 0 exactly.
    PacketParams.energy_eigen(1, 0.75, 1, +1),
], ids=["fig3", "eigen", "eigen-b-zero"])
def test_spa_field_is_overflow_and_warning_free(data):
    p = SpaParams.from_packet(data)
    field = SpaVelocityField(p)
    for seed in (5, 6):
        t, s = _spa_points(np.random.default_rng(seed))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                v, node = field.velocities(t, s)
        # Both envelopes underflow: ln(peak) - d^2 / (2 sigma^2) below ln(5e-324).
        d = np.abs(s) - np.abs(p.v0 * t)
        assert np.array_equal(node, -np.log(np.sqrt(2 * np.pi) * p.sigma)
                              - d * d / (2 * p.sigma**2) < -744.0)
        assert np.all(np.isfinite(v)) and np.all(v[node] == 0.0)
        assert np.max(np.abs(v)) <= 1.0 + 1e-15


def test_spa_field_of_one_packet_moves_at_v0():
    # With B = 0 only phi_- is left, so the velocity is v0 at every point
    # that is not a node, however far into either tail.
    p = SpaParams.from_packet(PacketParams.energy_eigen(1, 0.75, 1, +1))
    assert not np.any(spa_weights(p)[1])
    field = SpaVelocityField(p)
    t, s = _spa_points(np.random.default_rng(7))
    v, node = field.velocities(t, s)
    assert np.count_nonzero(~node) >= 1000
    assert np.all(v[~node] == p.v0)
    assert field(20.0, -30.0) == field(20.0, 30.0) == p.v0


@pytest.mark.parametrize("k0, m", [(10, 3), (1, 1), (-10, 3), (2.5, 7)])
def test_energy_eigen_spinor_current_is_the_field_velocity(k0, m):
    # With B = 0 the spinor is A phi_- alone, so current over density is v0
    # wherever the density is a normal double, deep in phi_+'s tail too.
    field = SpaVelocityField(SpaParams.from_packet(PacketParams.energy_eigen(1, k0, m, +1)))
    for seed in (5, 6, 7, 8):
        t, s = _spa_points(np.random.default_rng(seed))
        v, _ = field.velocities(t, s)
        psi = field.spinors(t, s)
        normal = psi.density >= np.finfo(float).tiny
        assert np.count_nonzero(normal) >= 2000
        assert np.max(np.abs(psi.current[normal] / psi.density[normal] - v[normal])) <= 1e-12


def _stacked(field):
    """A paired-point spinor built from the field's one-point ``spinor`` calls."""
    def spinors(t, s):
        psi = [field.spinor(ti, si) for ti, si in zip(t, s)]
        return Spinor(minus=np.array([u.minus for u in psi]),
                      plus=np.array([u.plus for u in psi]))
    return spinors


def test_paired_bloch_series_equals_pointwise(fig3_packet):
    trajs, _ = run_ensemble(4, fig3_packet, 8.0, field_mode="SPA", seed=21)
    field = SpaVelocityField(SpaParams.from_packet(fig3_packet))
    for tr in trajs:
        paired = cayley_klein_along(tr, field.spinors)
        pointwise = cayley_klein_along(tr, _stacked(field))
        for key in ("r", "theta", "omega", "phi"):
            assert np.array_equal(paired[key], pointwise[key])


def test_exact_spinors_equal_pointwise(fig3_packet):
    field = ExactVelocityField(fig3_packet)
    tr = integrate_trajectory(0.4, (0.0, 0.3), field)
    paired = field.spinors(tr.times, tr.positions)
    pointwise = _stacked(field)(tr.times, tr.positions)
    assert tr.times.size >= 5
    assert np.array_equal(paired.minus, pointwise.minus)
    assert np.array_equal(paired.plus, pointwise.plus)


@pytest.mark.parametrize("data, s", [
    (PacketParams(sigma=1.0, k0=10.0, theta0=np.pi / 2, omega0=0.0, mass=3.0),
     np.linspace(-12.0, 12.0, 241)),
    (PacketParams.macroscopic(0.2, 1.0, 50.0), np.linspace(-1.5, 1.5, 121)),
], ids=["fig3", "macroscopic-omega50"])
def test_spa_field_spinor_tracks_exact_before_the_switch(data, s):
    # Before omega t = j0 E0 the paper's formula keeps one critical point;
    # the field's spinor keeps both, as its velocity does, and stays close to
    # the exact spinor (the one-point weights are 0.2 to 0.44 off here).
    params = SpaParams.from_packet(data)
    field = SpaVelocityField(params)
    t_switch = j0_first_zero() * params.e0 / params.omega
    for frac in (0.25, 0.5, 0.9):
        t = frac * t_switch
        psi, _ = evolve_exact_grid(t, s, data)
        u = field.spinors(np.full(s.size, t), s)
        sup = np.max(np.sqrt(np.abs(psi.minus - u.minus) ** 2 + np.abs(psi.plus - u.plus) ** 2))
        assert sup <= 0.05, (frac, sup)
