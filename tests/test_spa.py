import numpy as np
import pytest

from diracflow import (
    DomainError,
    PacketParams,
    ValidationError,
    bohmian_observables,
    cayley_klein,
    error_bound_shape,
    evolve_exact_grid,
    phase_diagnostics,
    phase_function,
    spa_envelopes,
    spa_evaluate,
    spa_leading_term,
    spa_spinor_grid,
    spa_weights,
    transport_beta,
)
from diracflow.quadrature import integrate_panels
from diracflow.spa import ErrorScaling, SpaParams, error_scaling, sup_error_at_omega
from diracflow.specfun import j0_first_zero


def _params(p0=1.0, sigma=0.2, omega=100.0, vartheta=0.0):
    return SpaParams(p0=p0, sigma=sigma, omega=omega, vartheta=vartheta)


# =============================================================================
# Parameters
# =============================================================================

def test_derived_quantities():
    p = _params(p0=1.0)
    assert p.e0 == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert p.v0 == pytest.approx(1 / np.sqrt(2.0), rel=1e-15)
    for p0 in (-2.5, -0.3, 0.4, 3.0):
        q = _params(p0=p0)
        assert abs(q.e0**2 - q.p0**2 - 1.0) <= 1e-14
        assert q.e0 >= 1.0
        assert abs(q.v0) < 1.0
        assert q.v0 * q.p0 > 0


def test_parameter_validation():
    with pytest.raises(ValidationError):
        SpaParams(p0=0.0, sigma=0.2, omega=10.0)
    with pytest.raises(ValidationError):
        SpaParams(p0=1.0, sigma=-0.1, omega=10.0)
    with pytest.raises(ValidationError):
        SpaParams(p0=1.0, sigma=0.2, omega=0.0)
    with pytest.raises(ValidationError):
        SpaParams(p0=1.0, sigma=0.2, omega=10.0, vartheta=4.0)


@pytest.mark.parametrize("key", ["sigma", "omega"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_scales_rejected(key, value):
    with pytest.raises(ValidationError, match=key):
        SpaParams(**{"p0": 1.0, "sigma": 0.2, "omega": 10.0, key: value})


def test_from_packet_round_trip(fig3_packet):
    p = SpaParams.from_packet(fig3_packet)
    assert p.p0 == pytest.approx(10.0 / 3.0)
    assert p.omega == pytest.approx(3.0)
    assert p.vartheta == pytest.approx(np.pi / 2)
    assert p.packet().k0 == pytest.approx(fig3_packet.k0)


# =============================================================================
# Evaluation
# =============================================================================

def test_envelope_definition():
    p = _params()
    t, s = 0.7, 0.31
    phi_m, phi_p = spa_envelopes(t, s, p)
    f = (2 * np.pi * p.sigma**2) ** -0.25
    want_m = (f * np.exp(-((s - p.v0 * t) ** 2) / (4 * p.sigma**2))
              * np.exp(1j * p.omega * (p.p0 * s - p.e0 * t)))
    want_p = (f * np.exp(-((s + p.v0 * t) ** 2) / (4 * p.sigma**2))
              * np.exp(1j * p.omega * (p.p0 * s + p.e0 * t)))
    assert phi_m == pytest.approx(want_m, rel=1e-14)
    assert phi_p == pytest.approx(want_p, rel=1e-14)


def test_upper_component_data_weights():
    # vartheta = 0 is the (1, 0) packet: U = ((E0+p0) phi- + (E0-p0) phi+,
    # phi- - phi+) / (2 E0).
    p = _params(vartheta=0.0)
    res = spa_evaluate(0.8, 0.2, p)
    e0, p0 = p.e0, p.p0
    want_minus = ((e0 + p0) * res.phi_minus + (e0 - p0) * res.phi_plus) / (2 * e0)
    want_plus = (res.phi_minus - res.phi_plus) / (2 * e0)
    assert res.u.minus == pytest.approx(want_minus, rel=1e-14)
    assert res.u.plus == pytest.approx(want_plus, rel=1e-14)


def test_lower_component_data_weights():
    # vartheta = pi is the (0, 1) packet: U = ((phi- - phi+),
    # (E0-p0) phi- + (E0+p0) phi+) / (2 E0), with weights (sqrt2 -+ 1)/(2 sqrt2)
    # at p0 = 1.
    p = _params(p0=1.0, vartheta=np.pi)
    a, b = spa_weights(p)
    s2 = np.sqrt(2.0)
    assert a[1] == pytest.approx((s2 - 1) / (2 * s2), rel=1e-14)
    assert b[1] == pytest.approx((s2 + 1) / (2 * s2), rel=1e-14)
    res = spa_evaluate(0.8, 0.2, p)
    want_minus = (res.phi_minus - res.phi_plus) / (2 * p.e0)
    assert res.u.minus == pytest.approx(want_minus, rel=1e-14)


# (k0, m) of +E energy eigen-packets whose B rounded to 2e-17 .. 9e-17.
EIGEN_PACKETS = [(10, 3), (1, 1), (-10, 3), (2.5, 7)]


@pytest.mark.parametrize("k0, m", EIGEN_PACKETS)
def test_energy_eigen_packet_has_no_phi_plus(k0, m):
    # tan(vartheta) = 1 / p0 makes B = 0 in exact arithmetic, so the
    # weights hold no rounding where B belongs.
    p = SpaParams.from_packet(PacketParams.energy_eigen(1, k0, m, +1))
    a, b = spa_weights(p)
    assert np.all(b == 0.0)
    assert np.hypot(*a) == pytest.approx(1.0, rel=1e-15)


def test_gaussian_tails_vanish():
    p = _params()
    t = 1.0
    for s in (p.v0 * t + 12 * p.sigma, -p.v0 * t - 12 * p.sigma + 3):
        res = spa_evaluate(t, s + 5, p)
        assert abs(res.u.minus) < 1e-12
        assert abs(res.u.plus) < 1e-12


def test_matches_exact_solution_at_large_omega():
    # The convention check: for each mixing angle the approximation converges
    # to the exact evolution.
    t = 1.0
    s = np.linspace(-1.4, 1.4, 41)
    for vartheta in (0.0, np.pi, np.pi / 2):
        p = _params(omega=200.0, vartheta=vartheta)
        psi, _ = evolve_exact_grid(t, s, p.packet())
        u = spa_spinor_grid(t, s, p)
        sup = np.max(np.sqrt(np.abs(psi.minus - u.minus) ** 2
                             + np.abs(psi.plus - u.plus) ** 2))
        assert sup <= 0.02


def test_critical_point_count_flag():
    p = _params(omega=10.0)
    threshold = j0_first_zero() * p.e0 / p.omega
    assert not spa_evaluate(0.9 * threshold, 0.0, p).both_critical_points
    assert spa_evaluate(1.1 * threshold, 0.0, p).both_critical_points


def test_truncated_upper_component():
    # Below the omega*t threshold only the in-domain critical point feeds the
    # plus component (for p0 > 0 that is the phi- term).
    p = _params(p0=1.0, omega=10.0, vartheta=np.pi)
    t = 0.3  # omega*t = 3 < j0*E0 ~ 3.4
    res = spa_evaluate(t, 0.05, p)
    assert not res.both_critical_points
    want_plus = (p.e0 - p.p0) * res.phi_minus / (2 * p.e0)
    assert res.u.plus == pytest.approx(want_plus, rel=1e-14)


def test_spinor_grid_takes_one_time():
    p = _params(omega=10.0)
    with pytest.raises(DomainError):
        spa_spinor_grid(np.array([0.3, 1.0]), np.array([0.0, 0.1]), p)


def test_spa_evaluate_takes_one_time():
    with pytest.raises(DomainError):
        spa_evaluate(np.array([0.3, 0.5]), 0.0, _params(omega=10.0))


@pytest.mark.parametrize("p0", [1e155, -1e301])
def test_p0_whose_square_overflows_rejected(p0):
    # E0 = sqrt(1 + p0^2) would be inf and v0 = p0 / E0 zero or NaN.
    with pytest.raises(ValidationError, match="p0"):
        SpaParams(p0=p0, sigma=0.2, omega=10.0)


def test_validity_window_warning():
    p = _params()
    with pytest.warns(UserWarning, match="validity window"):
        spa_evaluate(0.05, 0.0, p, t_horizon=1.0)
    with pytest.raises(DomainError):
        spa_evaluate(0.0, 0.0, p)


def test_norm_approaches_one_when_separated():
    p = _params(omega=300.0)
    t = 5 * p.sigma / p.v0  # separation 2 v0 t = 10 sigma
    def density(s):
        u = spa_spinor_grid(t, s, p)
        return np.abs(u.minus) ** 2 + np.abs(u.plus) ** 2
    val, _, _ = integrate_panels(density, -t - 8 * p.sigma, t + 8 * p.sigma,
                                 initial_panels=256)
    assert val == pytest.approx(1.0, abs=1e-4)


def test_packet_observables_in_each_support():
    p = _params(omega=300.0, vartheta=0.0)
    t = 5 * p.sigma / p.v0
    for s, sign in ((p.v0 * t, +1), (-p.v0 * t, -1)):
        u = spa_spinor_grid(t, np.array([s]), p)
        from diracflow import Spinor
        ck = cayley_klein(Spinor(minus=complex(u.minus[0]), plus=complex(u.plus[0])))
        _, mom, en = bohmian_observables(ck, p.omega)
        assert mom == pytest.approx(p.omega * p.p0, rel=0.01)
        assert en == pytest.approx(sign * p.omega * p.e0, rel=0.01)


# =============================================================================
# Transport-cancellation root
# =============================================================================

def test_transport_beta_boundary():
    j0 = j0_first_zero()
    for wt in (5.0, 50.0):
        beta = transport_beta(1.0, wt)
        assert beta == pytest.approx(j0**2 / (4 * wt**2), abs=1e-12)


def test_transport_beta_inverts_g():
    def g(beta, wt):
        from diracflow import bessel_j0
        return 1.0 - bessel_j0(2 * wt * np.sqrt(beta))

    j0 = j0_first_zero()
    for wt in (5.0, 50.0):
        for alpha in (0.1, 0.5, 0.9):
            beta = transport_beta(alpha, wt)
            assert abs(g(beta, wt) - alpha) <= 1e-12
            assert 0 < beta <= j0**2 / (4 * wt**2)


def test_transport_beta_monotone():
    alphas = np.linspace(0.05, 1.0, 20)
    betas = [transport_beta(a, 10.0) for a in alphas]
    assert all(b1 <= b2 + 1e-15 for b1, b2 in zip(betas, betas[1:]))


def test_transport_beta_domain():
    with pytest.raises(DomainError):
        transport_beta(0.0, 10.0)
    with pytest.raises(DomainError):
        transport_beta(1.5, 10.0)
    with pytest.raises(DomainError):
        transport_beta(0.5, 1.0)


# =============================================================================
# Phase geometry
# =============================================================================

def test_critical_point_locations():
    d = phase_diagnostics(0.75)
    assert d.y_plus == pytest.approx(2.0, rel=1e-14)
    assert d.y_minus == pytest.approx(-0.5, rel=1e-14)
    for p0 in (-2.0, -0.5, 0.5, 1.0, 2.0):
        d = phase_diagnostics(p0)
        assert d.y_plus * d.y_minus == pytest.approx(-1.0, rel=1e-12)
        assert d.y_plus > 0 > d.y_minus
        assert (d.sig_plus, d.sig_minus) == (2, -2)
        assert d.hess_plus > 0 > d.hess_minus


def test_phase_gradient_vanishes_at_critical_points():
    h = 1e-6
    for p0 in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
        d = phase_diagnostics(p0)
        for y in (d.y_plus, d.y_minus):
            gx = (phase_function(h, y, 0.3, 1.0, p0)
                  - phase_function(-h, y, 0.3, 1.0, p0)) / (2 * h)
            gy = (phase_function(0.0, y + h, 0.3, 1.0, p0)
                  - phase_function(0.0, y - h, 0.3, 1.0, p0)) / (2 * h)
            assert abs(gx) <= 1e-8
            assert abs(gy) <= 1e-8


def test_phase_values_at_critical_points():
    # phi(0, y+) = p0 s - E0 t (the forward packet) and
    # phi(0, y-) = p0 s + E0 t (the backward packet).
    s, t = 0.4, 1.3
    for p0 in (0.75, -1.2):
        e0 = np.sqrt(1 + p0 * p0)
        d = phase_diagnostics(p0)
        assert phase_function(0.0, d.y_plus, s, t, p0) == pytest.approx(
            p0 * s - e0 * t, rel=1e-12)
        assert phase_function(0.0, d.y_minus, s, t, p0) == pytest.approx(
            p0 * s + e0 * t, rel=1e-12)


def test_hessian_scalar_matches_finite_differences():
    h = 1e-4
    t = 1.0
    for p0 in (0.6, -1.5):
        d = phase_diagnostics(p0)
        for y0, scalar in ((d.y_plus, d.hess_plus), (d.y_minus, d.hess_minus)):
            dxx = (phase_function(h, y0, 0.0, t, p0)
                   - 2 * phase_function(0.0, y0, 0.0, t, p0)
                   + phase_function(-h, y0, 0.0, t, p0)) / h**2
            dyy = (phase_function(0.0, y0 + h, 0.0, t, p0)
                   - 2 * phase_function(0.0, y0, 0.0, t, p0)
                   + phase_function(0.0, y0 - h, 0.0, t, p0)) / h**2
            assert dxx == pytest.approx(scalar * t, rel=1e-5)
            assert dyy == pytest.approx(scalar * t, rel=1e-5)


def test_degenerate_phase_rejected():
    with pytest.raises(DomainError):
        phase_diagnostics(0.0)


# =============================================================================
# Leading-term assembly
# =============================================================================

def _assemble_spa(t, s, p0, sigma, omega):
    """Assemble U1_-+ from per-critical-point leading terms (independent route)."""
    from diracflow import gaussian_amplitude
    d = phase_diagnostics(p0)
    e0 = np.sqrt(1 + p0 * p0)
    v0 = p0 / e0
    out = {}
    for comp in ("minus", "plus"):
        total = 0.0 + 0.0j
        for y0, scalar, sig in ((d.y_plus, d.hess_plus, d.sig_plus),
                                (d.y_minus, d.hess_minus, d.sig_minus)):
            r = abs(y0)
            envelope = gaussian_amplitude(
                sigma, s - t * (y0**2 - 1) / (y0**2 + 1))
            if comp == "minus":
                amp = envelope * 4j / (1 + y0**2) ** 2
            else:
                angle = 1j if y0 > 0 else -1j
                amp = envelope * 4 * angle / (r * (1 + y0**2) ** 2)
            term = spa_leading_term(
                amp, phase_function(0.0, y0, s, t, p0),
                (scalar * t) ** 2, sig, omega)
            total += term
        out[comp] = (-omega * t / (4 * np.pi)) * total
    return out["minus"], out["plus"], e0, v0


def test_leading_term_assembles_the_closed_form():
    from diracflow import gaussian_amplitude
    t, s, sigma, omega = 1.0, 0.1, 0.1, 60.0
    for p0 in (1.0, -0.6):
        got_minus, got_plus, e0, v0 = _assemble_spa(t, s, p0, sigma, omega)
        f_m = gaussian_amplitude(sigma, s - v0 * t)
        f_p = gaussian_amplitude(sigma, s + v0 * t)
        phi_m = f_m * np.exp(1j * omega * (p0 * s - e0 * t))
        phi_p = f_p * np.exp(1j * omega * (p0 * s + e0 * t))
        want_minus = (phi_m - phi_p) / (2 * e0)
        want_plus = ((e0 - p0) * phi_m + (e0 + p0) * phi_p) / (2 * e0)
        assert got_minus == pytest.approx(want_minus, abs=1e-12)
        assert got_plus == pytest.approx(want_plus, abs=1e-12)


def test_leading_term_signature_zero_and_boundary():
    val = spa_leading_term(2.0, 0.5, 4.0, 0, 10.0)
    assert val == pytest.approx(2.0 * np.exp(5.0j) / 2.0 * (2 * np.pi / 10.0))
    half = spa_leading_term(2.0, 0.5, 4.0, 0, 10.0, boundary=True)
    assert half == pytest.approx(0.5 * val)
    with pytest.raises(DomainError):
        spa_leading_term(1.0, 0.0, 0.0, 2, 10.0)
    with pytest.raises(DomainError):
        spa_leading_term(1.0, 0.0, 1.0, 1, 10.0)


# =============================================================================
# Error scaling
# =============================================================================

def test_error_bound_shape_grows_with_time():
    assert error_bound_shape(1.0, 2.0, 0.2, 100.0) > error_bound_shape(
        1.0, 1.0, 0.2, 100.0)
    assert error_bound_shape(1.0, 1.0, 0.2, 400.0) < error_bound_shape(
        1.0, 1.0, 0.2, 100.0)


def test_error_scaling_validation():
    p = _params()
    grid = np.linspace(-1, 1, 11)
    with pytest.raises(ValidationError):
        error_scaling(p, 1.0, [50.0, 100.0], grid)
    with pytest.raises(ValidationError):
        error_scaling(p, 1.0, [50.0, 100.0, 180.0, 400.0], grid)
    with pytest.raises(ValidationError):
        error_scaling(p, 0.01, [50.0, 100.0, 200.0, 400.0], grid)


def test_error_decays_with_omega():
    p = _params(sigma=0.2)
    grid = np.linspace(-1.2, 1.2, 41)
    res = error_scaling(p, 0.8, [40.0, 80.0, 160.0, 320.0], grid)
    assert isinstance(res, ErrorScaling)
    sups = res.sup_errors
    assert all(b <= 1.1 * a for a, b in zip(sups, sups[1:]))
    assert res.slope < -0.3
    # Single-rung helper agrees with the ladder entries.
    single = sup_error_at_omega(p, 40.0, 0.8, grid)
    assert single == pytest.approx(sups[0], rel=1e-9)
