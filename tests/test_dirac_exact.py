import numpy as np
import pytest

from diracflow import (
    DomainError,
    IntegrationError,
    PacketParams,
    QuadConfig,
    ValidationError,
    continuity_residual,
    evolve_exact,
    evolve_exact_grid,
    evolve_exact_spherical,
    integrate_density,
    make_initial_packet,
    schrodinger_reference,
    schrodinger_trajectory,
    spherical_cut,
)

from _oracles import dirac_spectral


# =============================================================================
# Bessel-kernel route
# =============================================================================

def test_time_zero_returns_initial_data():
    p = PacketParams(sigma=0.8, k0=4.0, theta0=0.7, omega0=1.3, mass=2.0)
    s = np.linspace(-3, 3, 11)
    psi, err = evolve_exact_grid(0.0, s, p)
    pk = make_initial_packet(p)(s)
    assert np.array_equal(psi.minus, pk.minus)
    assert np.array_equal(psi.plus, pk.plus)
    assert np.all(err == 0)


def test_negative_time_rejected():
    p = PacketParams(sigma=1.0, k0=1.0, theta0=0.5, omega0=0.0, mass=1.0)
    with pytest.raises(DomainError):
        evolve_exact(-0.5, 0.0, p)
    # Non-finite times and positions are rejected up front, not refined to
    # the panel budget.
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="t must"):
            evolve_exact(bad, 0.0, p)
        with pytest.raises(DomainError, match="t must"):
            evolve_exact_grid(bad, [0.0, 1.0], p)
        with pytest.raises(DomainError, match="s must"):
            evolve_exact(0.5, bad, p)
        with pytest.raises(DomainError, match="s must"):
            evolve_exact_grid(0.5, [0.0, bad], p)


def test_massless_evolution_is_pure_transport():
    p = PacketParams(sigma=1.0, k0=2.0, theta0=0.9, omega0=0.3, mass=0.0)
    pk = make_initial_packet(p)
    s = np.linspace(-4, 4, 9)
    t = 1.7
    psi, err = evolve_exact_grid(t, s, p)
    assert np.allclose(psi.minus, pk(s - t).minus, atol=1e-15)
    assert np.allclose(psi.plus, pk(s + t).plus, atol=1e-15)
    assert np.all(err == 0)


def test_small_mass_limit_approaches_transport():
    pk_params = dict(sigma=1.0, k0=2.0, theta0=0.9, omega0=0.3)
    s = np.linspace(-3, 3, 7)
    t = 1.0
    small = PacketParams(mass=1e-6, **pk_params)
    pk = make_initial_packet(small)
    psi, _ = evolve_exact_grid(t, s, small)
    # Kernel terms carry a prefactor omega = mass.
    assert np.max(np.abs(psi.minus - pk(s - t).minus)) <= 1e-5
    assert np.max(np.abs(psi.plus - pk(s + t).plus)) <= 1e-5


def test_matches_spectral_propagator():
    data = PacketParams(sigma=1.0, k0=2.0, theta0=0.9, omega0=0.7, mass=1.5)
    t = 1.3
    s_ref, minus_ref, plus_ref = dirac_spectral(t, data)
    idx = np.searchsorted(s_ref, np.linspace(-6, 9, 21))
    psi, _ = evolve_exact_grid(t, s_ref[idx], data)
    assert np.max(np.abs(psi.minus - minus_ref[idx])) <= 1e-9
    assert np.max(np.abs(psi.plus - plus_ref[idx])) <= 1e-9


FIG3 = PacketParams(sigma=1.0, k0=10.0, theta0=np.pi / 2, omega0=0.0, mass=3.0)


@pytest.mark.parametrize("data, t, s_lo, s_hi", [
    (FIG3, 0.5, -5.4, 5.4),
    (FIG3, 8.0, -12.7, 12.7),
    (PacketParams.macroscopic(0.2, 1.0, 50.0), 1.0, -1.5, 1.5),
    (PacketParams.macroscopic(0.2, 1.0, 400.0), 1.0, -1.5, 1.5),
], ids=["fig3-t0.5", "fig3-t8", "macro-w50", "macro-w400"])
def test_matches_spectral_propagator_over_benchmark_range(data, t, s_lo, s_hi):
    # omega * t from 1.5 to 400, as in the benchmark's field grids.  The FFT
    # band pi * n / (2 * half_width) must cover |k0| + 12 / sigma.
    half_width = 60.0
    band = abs(data.k0) + 12 / data.sigma
    n = max(2**14, 1 << int(np.ceil(np.log2(band * 2 * half_width / np.pi))))
    s_ref, minus_ref, plus_ref = dirac_spectral(t, data, half_width, n)
    idx = np.searchsorted(s_ref, np.linspace(s_lo, s_hi, 33))
    psi, _ = evolve_exact_grid(t, s_ref[idx], data)
    assert np.max(np.abs(psi.minus - minus_ref[idx])) <= 1e-9
    assert np.max(np.abs(psi.plus - plus_ref[idx])) <= 1e-9


def test_error_estimate_contract(fig3_packet):
    q = QuadConfig()
    for s in (-2.0, 0.0, 1.5, 3.0):
        sample = evolve_exact(0.7, s, fig3_packet, q)
        rho = np.sqrt(sample.psi.density)
        assert sample.err_est <= max(q.abs_tol, q.rel_tol * rho) * 10


def test_norm_conserved(fig3_packet):
    norm, err = integrate_density(0.6, fig3_packet)
    assert norm == pytest.approx(1.0, abs=1e-6)


def test_light_cone_support(fig3_packet):
    # Data numerically supported in [-8 sigma, 8 sigma]; nothing reaches
    # beyond that support plus t (plus margin).
    t = 1.0
    bound = 8 * fig3_packet.sigma + t + 5 * fig3_packet.sigma
    for s in (bound + 0.5, -(bound + 0.5), bound + 3.0):
        sample = evolve_exact(t, s, fig3_packet)
        assert sample.psi.density < 1e-12


def test_quadrature_budget_error_carries_partial(fig3_packet):
    q = QuadConfig(rel_tol=1e-13, abs_tol=1e-16, max_panels=16)
    with pytest.raises(IntegrationError) as info:
        evolve_exact(1.0, 0.0, fig3_packet, q)
    assert info.value.partial is not None
    assert info.value.residual is not None


def test_quad_config_validation():
    with pytest.raises(ValidationError):
        QuadConfig(rel_tol=0.0)
    with pytest.raises(ValidationError):
        QuadConfig(oscillation_guard=2.0)
    for field in ("rel_tol", "abs_tol", "oscillation_guard", "max_panels"):
        with pytest.raises(ValidationError):
            QuadConfig(**{field: float("nan")})


# =============================================================================
# Spherical route
# =============================================================================

def test_routes_agree_at_fig3_point(fig3_packet):
    a = evolve_exact(1.0, 0.0, fig3_packet)
    b = evolve_exact_spherical(1.0, 0.0, fig3_packet)
    assert abs(a.psi.minus - b.psi.minus) <= 1e-6
    assert abs(a.psi.plus - b.psi.plus) <= 1e-6


def test_routes_agree_macroscopic_point():
    data = PacketParams.macroscopic(sigma=0.2, p0=1.0, omega=40.0, vartheta=0.0)
    a = evolve_exact(0.8, 0.45, data)
    b = evolve_exact_spherical(0.8, 0.45, data)
    assert abs(a.psi.minus - b.psi.minus) <= 1e-6
    assert abs(a.psi.plus - b.psi.plus) <= 1e-6


def test_domain_cut_geometry():
    theta0, radius = spherical_cut(5.0)
    assert 0 < theta0 < np.pi
    # The cut shrinks as omega*t grows.
    radii = [spherical_cut(wt)[1] for wt in (2.0, 5.0, 20.0, 100.0)]
    assert all(a > b for a, b in zip(radii, radii[1:]))
    with pytest.raises(DomainError):
        spherical_cut(1.0)


def test_spherical_needs_domain_cut():
    data = PacketParams(sigma=1.0, k0=5.0, theta0=0.5, omega0=0.0, mass=3.0)
    with pytest.raises(DomainError):
        evolve_exact_spherical(0.1, 0.0, data)  # omega*t = 0.3 < j0/2


# =============================================================================
# Continuity equation
# =============================================================================

def test_continuity_residual_small(fig3_packet):
    res = continuity_residual(0.5, 0.0, fig3_packet, h=1e-3)
    assert abs(res) <= 1e-3


def test_continuity_residual_second_order(fig3_packet):
    res_h = abs(continuity_residual(0.5, 0.3, fig3_packet, h=0.02))
    res_h2 = abs(continuity_residual(0.5, 0.3, fig3_packet, h=0.01))
    assert res_h / res_h2 == pytest.approx(4.0, rel=0.6)


def test_continuity_residual_massless():
    p = PacketParams(sigma=1.0, k0=2.0, theta0=0.8, omega0=0.2, mass=0.0)
    assert abs(continuity_residual(0.5, 0.1, p, h=1e-3)) <= 1e-9


def test_continuity_validation(fig3_packet):
    with pytest.raises(DomainError):
        continuity_residual(0.5, 0.0, fig3_packet, h=0.0)
    with pytest.raises(DomainError):
        continuity_residual(0.01, 0.0, fig3_packet, h=0.1)


# =============================================================================
# Nonrelativistic reference
# =============================================================================

def test_schrodinger_trajectory_values():
    assert schrodinger_trajectory(0.0, 0.37, 1.5) == pytest.approx(0.37)
    assert schrodinger_trajectory(1.0, 0.5, 2.0) == pytest.approx(2.0 + 0.5 * np.sqrt(5.0))


def test_schrodinger_asymptotic_velocity():
    # dq/dt -> k0 + 2 q0 for large t.
    q0, k0 = 1.0, 0.0
    h = 1e-4
    v10 = (schrodinger_trajectory(10 + h, q0, k0)
           - schrodinger_trajectory(10 - h, q0, k0)) / (2 * h)
    assert v10 == pytest.approx(2 * q0, rel=0.01)


def test_schrodinger_density_and_velocity_consistent():
    k0 = 1.3
    s = np.linspace(-4, 6, 81)
    t = 0.9
    psi, rho, v = schrodinger_reference(t, s, k0)
    assert np.allclose(np.abs(psi) ** 2, rho, rtol=1e-12)
    h = 1e-6
    psi_p, _, _ = schrodinger_reference(t, s + h, k0)
    psi_m, _, _ = schrodinger_reference(t, s - h, k0)
    v_fd = np.imag(np.conj(psi) * (psi_p - psi_m) / (2 * h)) / rho
    assert np.allclose(v_fd, v, atol=1e-6)
