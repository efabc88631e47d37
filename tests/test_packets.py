import warnings

import numpy as np
import pytest

from diracflow import (
    DomainError,
    InfiniteMomentumError,
    IntegrationError,
    NodeError,
    PacketParams,
    QuadConfig,
    Spinor,
    UndefinedSecantError,
    ValidationError,
    bloch_vector,
    bohmian_observables,
    cayley_klein,
    evolve_exact_grid,
    expected_energy,
    expected_momentum,
    gaussian_amplitude,
    make_initial_packet,
    momentum_band,
    spa_regime_report,
    spinor_amplitudes,
    spinor_from_cayley_klein,
    truncation_half_width,
)
from diracflow.quadrature import integrate_panels


def _random_spinors(n, seed=0):
    rng = np.random.default_rng(seed)
    re = rng.normal(size=(n, 4))
    return [Spinor(minus=complex(a, b), plus=complex(c, d)) for a, b, c, d in re]


# =============================================================================
# Initial data
# =============================================================================

def test_pure_upper_component_when_theta0_zero():
    p = PacketParams(sigma=0.7, k0=2.0, theta0=0.0, omega0=0.0, mass=1.0)
    packet = make_initial_packet(p)
    s = np.linspace(-5, 5, 101)
    assert np.all(packet(s).plus == 0)


def test_initial_packet_is_normalized():
    p = PacketParams(sigma=0.6, k0=3.5, theta0=1.1, omega0=2.2, mass=1.0)
    packet = make_initial_packet(p)
    val, err, _ = integrate_panels(lambda s: packet(s).density, -12 * p.sigma,
                                   12 * p.sigma, initial_panels=64)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_positive_energy_eigen_packet_direction():
    k0, m = 3.0, 2.0
    p = PacketParams.energy_eigen(1.0, k0, m, +1)
    # tan(theta_plus) = m / k and the Bloch vector is (m/E, 0, k/E).
    assert np.tan(p.theta0) == pytest.approx(m / k0, rel=1e-12)
    ck = cayley_klein(Spinor(*spinor_amplitudes(p)))
    energy = np.hypot(k0, m)
    assert bloch_vector(ck) == pytest.approx((m / energy, 0.0, k0 / energy), abs=1e-12)


def test_negative_energy_eigen_packet_angles():
    k0, m = 3.0, 2.0
    plus = PacketParams.energy_eigen(1.0, k0, m, +1)
    minus = PacketParams.energy_eigen(1.0, k0, m, -1)
    assert minus.theta0 == pytest.approx(np.pi - plus.theta0, rel=1e-12)
    assert minus.omega0 == pytest.approx(np.pi)


def test_mixed_energy_eigen_combination():
    k0, m, vt = 3.0, 2.0, 0.8
    mixed = PacketParams.mixed_energy_eigen(1.0, k0, m, vt)
    got = np.array(spinor_amplitudes(mixed))
    cp = np.array(spinor_amplitudes(PacketParams.energy_eigen(1.0, k0, m, +1)))
    cm = np.array(spinor_amplitudes(PacketParams.energy_eigen(1.0, k0, m, -1)))
    want = np.cos(vt / 2) * cp + np.sin(vt / 2) * cm
    assert np.allclose(got, want, atol=1e-12)
    assert np.abs(got[0]) ** 2 + np.abs(got[1]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_packet_validation_messages():
    with pytest.raises(ValidationError, match="sigma"):
        PacketParams(sigma=0.0, k0=1.0, theta0=0.5, omega0=0.0, mass=1.0)
    with pytest.raises(ValidationError, match="theta0"):
        PacketParams(sigma=1.0, k0=1.0, theta0=3.5, omega0=0.0, mass=1.0)
    with pytest.raises(ValidationError, match="omega0"):
        PacketParams(sigma=1.0, k0=1.0, theta0=0.5, omega0=-0.1, mass=1.0)
    with pytest.raises(ValidationError, match="eigen"):
        PacketParams(sigma=1.0, k0=1.0, theta0=0.5, omega0=0.0, mass=1.0,
                     energy_sign=+1)


@pytest.mark.parametrize("phase0", [np.nan, np.inf, -np.inf])
def test_non_finite_phase0_rejected(phase0):
    with pytest.raises(ValidationError, match="phase0"):
        PacketParams(sigma=1.0, k0=1.0, theta0=0.5, omega0=0.0, mass=1.0, phase0=phase0)


def test_spa_regime_report_warns_for_wide_packet(fig3_packet):
    with pytest.warns(UserWarning, match="SPA regime"):
        report = spa_regime_report(fig3_packet)
    assert report["wavelength_ok"]
    assert not report["macro_ok"]


def test_macroscopic_constructor():
    p = PacketParams.macroscopic(sigma=0.2, p0=1.5, omega=100.0, vartheta=0.3)
    assert p.k0 == pytest.approx(150.0)
    assert p.mass == pytest.approx(100.0)
    assert p.theta0 == pytest.approx(0.3)


# =============================================================================
# Cayley-Klein decomposition
# =============================================================================

def test_cayley_klein_axis_cases():
    ck = cayley_klein(Spinor(1.0, 0.0))
    assert (ck.r, ck.theta) == (1.0, 0.0)
    ck = cayley_klein(Spinor(0.0, 1j))
    assert (ck.r, ck.theta) == (1.0, np.pi)
    ck = cayley_klein(Spinor(1 / np.sqrt(2), 1 / np.sqrt(2)))
    assert ck.theta == pytest.approx(np.pi / 2)
    assert ck.omega == pytest.approx(0.0)
    assert bloch_vector(ck) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)


def test_round_trip_and_invariants():
    for psi in _random_spinors(1000, seed=42):
        ck = cayley_klein(psi)
        assert -np.pi <= ck.omega < np.pi
        back = spinor_from_cayley_klein(ck)
        assert abs(back.minus - psi.minus) <= 1e-12 * ck.r
        assert abs(back.plus - psi.plus) <= 1e-12 * ck.r
        n = bloch_vector(ck)
        assert np.hypot(np.hypot(n[0], n[1]), n[2]) == pytest.approx(1.0, abs=1e-12)
        # velocity two ways: current/density versus cos(theta)
        assert psi.velocity == pytest.approx(np.cos(ck.theta), abs=1e-12)


def test_velocity_is_zero_at_zero_density():
    # A node carries no current: its velocity is 0, not 0/0 with a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Spinor(0j, 0j).velocity == 0.0
        v = Spinor(np.array([0j, 1j, 0j]), np.array([0j, 0j, 2.0])).velocity
    assert v.tolist() == [0.0, 1.0, -1.0]


def test_bloch_vector_matches_component_formula():
    for psi in _random_spinors(100, seed=3):
        ck = cayley_klein(psi)
        r2 = psi.density
        direct = (
            2 * np.real(psi.minus * np.conj(psi.plus)) / r2,
            2 * np.imag(psi.minus * np.conj(psi.plus)) / r2,
            psi.current / r2,
        )
        assert bloch_vector(ck) == pytest.approx(direct, abs=1e-12)


def test_bloch_trivial_directions():
    assert bloch_vector(cayley_klein(Spinor(1.0, 0.0))) == pytest.approx((0, 0, 1))
    psi = spinor_from_cayley_klein(
        cayley_klein(Spinor(np.exp(0.25j * np.pi), np.exp(-0.25j * np.pi))))
    ck = cayley_klein(psi)
    assert bloch_vector(ck) == pytest.approx((0, 1, 0), abs=1e-12)


def test_zero_spinor_is_a_node():
    with pytest.raises(NodeError):
        cayley_klein(Spinor(0.0, 0.0))


def _cayley_klein_scalar(psi):
    """The scalar formulas cayley_klein had before it became the series' one-point case."""
    am = np.abs(psi.minus)
    ap = np.abs(psi.plus)
    r2 = am * am + ap * ap
    if r2 == 0:
        raise NodeError("zero spinor: Cayley-Klein angles undefined")
    arg_m = float(np.angle(psi.minus))
    arg_p = float(np.angle(psi.plus))
    omega = arg_m - arg_p
    phi = arg_m + arg_p
    if omega < -np.pi:
        omega += 2 * np.pi
        phi += 2 * np.pi
    elif omega >= np.pi:
        omega -= 2 * np.pi
        phi -= 2 * np.pi
    return float(np.sqrt(r2)), float(2 * np.arctan2(ap, am)), float(omega), float(phi)


def _cayley_klein_bits(decompose, psi):
    try:
        return np.array(decompose(psi)).tobytes()
    except NodeError:
        return "node"


def test_cayley_klein_equals_scalar_formulas_bit_for_bit():
    # Magnitudes 1e-200 to 1e200 (whose squares under- and overflow), and
    # edge values: arguments exactly +-pi, so that Omega lands on +-pi or
    # -2 pi, signed and subnormal zeros, and real components.
    rng = np.random.default_rng(2024)
    z = 10.0 ** rng.uniform(-200, 200, (100_000, 2)) * np.exp(1j * rng.uniform(-4, 4, (100_000, 2)))
    edge = [complex(-1.0, 0.0), complex(-1.0, -0.0), complex(1.0, -0.0), 1.0, -1.0, -0.0,
            1j, -1j, 5e-324, -5e-324, complex(-2e-310, 0.0), complex(4e-320, -0.0),
            complex(0.0, -0.0), complex(-0.0, 0.0), 1e200, -3e-200, complex(-1e154, -0.0)]
    pairs = z.tolist() + [(a, b) for a in edge for b in edge]
    with np.errstate(all="ignore"):
        for minus, plus in pairs:
            psi = Spinor(minus, plus)
            got = _cayley_klein_bits(lambda x: tuple(vars(cayley_klein(x)).values()), psi)
            assert got == _cayley_klein_bits(_cayley_klein_scalar, psi), (minus, plus)


# =============================================================================
# Bohmian observables
# =============================================================================

def test_observables_at_rest():
    ck = cayley_klein(Spinor(1 / np.sqrt(2), 1 / np.sqrt(2)))
    assert bohmian_observables(ck, 1.0) == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)


def test_observables_on_energy_eigen_angles():
    k0, m = 3.0, 2.0
    energy = np.hypot(k0, m)
    plus = PacketParams.energy_eigen(1.0, k0, m, +1)
    v, p, e = bohmian_observables(
        cayley_klein(Spinor(*spinor_amplitudes(plus))), m)
    assert (v, p, e) == pytest.approx((k0 / energy, k0, energy), rel=1e-12)
    minus = PacketParams.energy_eigen(1.0, k0, m, -1)
    v, p, e = bohmian_observables(
        cayley_klein(Spinor(*spinor_amplitudes(minus))), m)
    assert (v, p, e) == pytest.approx((-k0 / energy, k0, -energy), rel=1e-12)


def test_observable_identity():
    rng = np.random.default_rng(5)
    for psi in _random_spinors(200, seed=8):
        ck = cayley_klein(psi)
        if abs(np.sin(ck.theta)) < 1e-3 or abs(np.cos(ck.omega)) < 1e-3:
            continue
        m = rng.uniform(0.5, 3.0)
        _, p, e = bohmian_observables(ck, m)
        lhs = e * e - p * p
        rhs = m * m / np.cos(ck.omega) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_singular_observables_signal():
    with pytest.raises(InfiniteMomentumError):
        bohmian_observables(cayley_klein(Spinor(1.0, 0.0)), 1.0)
    with pytest.raises(InfiniteMomentumError):
        bohmian_observables(cayley_klein(Spinor(0.0, 1.0)), 1.0)
    with pytest.raises(UndefinedSecantError):
        bohmian_observables(cayley_klein(Spinor(1j, 1.0)), 1.0)


# =============================================================================
# Expectation values
# =============================================================================

def test_expected_momentum_is_k0():
    p = PacketParams(sigma=1.0, k0=3.0, theta0=0.8, omega0=0.4, mass=1.0)
    val = expected_momentum(make_initial_packet(p), 1e-8, truncation_half_width(p, 0),
                            momentum_band(p))
    assert val == pytest.approx(3.0, abs=1e-8)


def test_expected_energy_closed_form():
    p = PacketParams(sigma=1.0, k0=0.0, theta0=np.pi / 2, omega0=0.0, mass=1.7)
    val = expected_energy(make_initial_packet(p), p.mass, 1e-9,
                          truncation_half_width(p, 0), momentum_band(p))
    assert val == pytest.approx(1.7, abs=1e-8)
    p2 = PacketParams(sigma=0.8, k0=2.0, theta0=1.0, omega0=0.6, mass=1.3)
    want = p2.k0 * np.cos(p2.theta0) + p2.mass * np.sin(p2.theta0) * np.cos(p2.omega0)
    got = expected_energy(make_initial_packet(p2), p2.mass, 1e-9,
                          truncation_half_width(p2, 0), momentum_band(p2))
    assert got == pytest.approx(want, abs=1e-8)


def test_expected_energy_of_eigen_packets():
    k0, m = 3.0, 2.0
    energy = np.hypot(k0, m)
    for sign in (+1, -1):
        p = PacketParams.energy_eigen(1.0, k0, m, sign)
        got = expected_energy(make_initial_packet(p), m, 1e-9,
                              truncation_half_width(p, 0), momentum_band(p))
        assert got == pytest.approx(sign * energy, abs=1e-8)


@pytest.mark.parametrize("quad_tol", [0.0, -1e-6, np.nan])
def test_expectations_reject_bad_quad_tol(quad_tol):
    p = PacketParams(sigma=1.0, k0=3.0, theta0=0.8, omega0=0.4, mass=1.0)
    half, band = truncation_half_width(p, 0), momentum_band(p)
    with pytest.raises(DomainError, match="quad_tol"):
        expected_momentum(make_initial_packet(p), quad_tol, half, band)
    with pytest.raises(DomainError, match="quad_tol"):
        expected_energy(make_initial_packet(p), p.mass, quad_tol, half, band)


@pytest.mark.parametrize("k0", [1000.0, 3000.0])
@pytest.mark.parametrize("t", [0.0, 0.5])
def test_expected_momentum_at_large_k0(k0, t):
    # The grid starts where its wavenumbers cover |k0| + 8 / sigma; a start
    # of 2048 points aliased the spectrum (<P> = 426.4 at k0 = 3000) and
    # could still pass the doubling test.
    p = PacketParams(sigma=1.0, k0=k0, theta0=np.pi / 2, omega0=0.0, mass=3.0)
    if t == 0:
        fn = make_initial_packet(p)
    else:
        def fn(s):
            return evolve_exact_grid(t, s, p)[0]
    val = expected_momentum(fn, 1e-6, truncation_half_width(p, t), momentum_band(p))
    assert val == pytest.approx(k0, abs=1e-6)


def test_expectation_beyond_the_grid_cap_evaluates_nothing():
    # At k0 = 1e4 and t = 0.5 the band needs 2^17 points on the light cone
    # [-10.5, 10.5], the cap, which leaves no finer grid to compare with.
    p = PacketParams(sigma=1.0, k0=1e4, theta0=np.pi / 2, omega0=0.0, mass=3.0)
    assert truncation_half_width(p, 0.5) == 10.5
    calls = []
    with pytest.raises(IntegrationError, match="more than 131072 grid points") as info:
        expected_momentum(calls.append, 1e-6, 10.5, momentum_band(p))
    assert not calls and info.value.partial is None


def _recording(fn, calls):
    """fn, recording each grid it is called on."""
    def wrapped(s):
        calls.append(np.array(s))
        return fn(s)
    return wrapped


def _fft_moments(psi, ds, mass):
    """<P> and <H> of the grid values ``psi`` by the FFT, written out."""
    n = psi.minus.size
    k = 2 * np.pi * np.fft.fftfreq(n, d=ds)
    pm, pp = (np.abs(np.fft.fft(c)) ** 2 * ds / n for c in (psi.minus, psi.plus))
    cross = 2 * ds * np.sum(np.real(np.conj(psi.minus) * psi.plus))
    return np.sum(k * (pm + pp)), np.sum(k * (pm - pp)) + mass * cross


@pytest.mark.parametrize("t", [0.0, 0.5])
def test_moments_evaluate_the_field_once_per_pass_on_two_n_points(t):
    # One pass is one call on the 2 n points -L + (2 L / (2 n)) arange(2 n);
    # its every other point is the coarse grid, so nothing is evaluated twice.
    p = PacketParams(sigma=0.8, k0=2.0, theta0=1.0, omega0=0.6, mass=1.3)
    if t == 0:
        fn = make_initial_packet(p)
    else:
        def fn(s):
            return evolve_exact_grid(t, s, p)[0]
    half, band = truncation_half_width(p, t), momentum_band(p)
    for moment in (lambda f: expected_momentum(f, 1e-6, half, band),
                   lambda f: expected_energy(f, p.mass, 1e-6, half, band)):
        calls = []
        moment(_recording(fn, calls))
        assert len(calls) == 1
        assert np.array_equal(calls[0], -half + (2 * half / 4096) * np.arange(4096))


def test_moments_double_the_grid_until_the_pair_agrees():
    # k0 = 400 lies beyond the 2048-point grid's wavenumbers (321 on
    # [-10, 10]) but within the 4096-point one's, so the first pass's pair
    # disagrees and the second, on 8192 points, converges.
    p = PacketParams(sigma=1.0, k0=400.0, theta0=np.pi / 2, omega0=0.0, mass=3.0)
    calls = []
    val = expected_momentum(_recording(make_initial_packet(p), calls), 1e-6,
                            truncation_half_width(p, 0), 18.0)
    assert [c.size for c in calls] == [4096, 8192]
    assert val == pytest.approx(400.0, abs=1e-6)


@pytest.mark.parametrize("t", [0.0, 0.5, 2.0])
def test_moments_equal_the_fft_moments_on_the_finer_grid(t):
    p = PacketParams(sigma=0.8, k0=2.0, theta0=1.0, omega0=0.6, mass=1.3)
    if t == 0:
        fn = make_initial_packet(p)
    else:
        def fn(s):
            return evolve_exact_grid(t, s, p)[0]
    half, band = truncation_half_width(p, t), momentum_band(p)
    ds = 2 * half / 4096
    want_p, want_h = _fft_moments(fn(-half + ds * np.arange(4096)), ds, p.mass)
    assert abs(expected_momentum(fn, 1e-6, half, band) - want_p) <= 1e-13
    assert abs(expected_energy(fn, p.mass, 1e-6, half, band) - want_h) <= 1e-13


def test_moment_beyond_the_band_fails_with_the_finer_moment():
    # k0 = 1.1e5 lies beyond every grid's wavenumbers, and each pair aliases
    # it to different ones, so the doubling ends at 2^17 points (2^16 panels
    # of two points each), reporting that grid's moment and its distance
    # from the moment over every other point.
    p = PacketParams(sigma=1.0, k0=1.1e5, theta0=np.pi / 2, omega0=0.0, mass=3.0)
    fn = make_initial_packet(p)
    half = truncation_half_width(p, 0)
    calls = []
    with pytest.raises(IntegrationError, match="within 65536 panels") as info:
        expected_momentum(_recording(fn, calls), 1e-6, half, 18.0)
    assert [c.size for c in calls] == [2**k for k in range(12, 18)]
    ds = 2 * half / 2**17
    psi = fn(-half + ds * np.arange(2**17))
    fine = _fft_moments(psi, ds, p.mass)[0]
    coarse = _fft_moments(Spinor(psi.minus[::2], psi.plus[::2]), 2 * ds, p.mass)[0]
    assert info.value.partial == pytest.approx(fine, rel=1e-12)
    assert info.value.residual == pytest.approx(abs(fine - coarse), rel=1e-9)
    assert info.value.residual > 1e3


def test_momentum_conserved_under_evolution():
    p = PacketParams(sigma=1.0, k0=3.0, theta0=1.2, omega0=0.0, mass=2.0)
    quad = QuadConfig()
    values = []
    for t in (0.0, 0.4, 0.8):
        if t == 0:
            fn = make_initial_packet(p)
        else:
            def fn(s, tt=t):
                return evolve_exact_grid(tt, s, p, quad)[0]
        values.append(expected_momentum(fn, 1e-7, truncation_half_width(p, t), momentum_band(p)))
    assert np.ptp(values) <= 1e-5
    assert values[0] == pytest.approx(3.0, abs=1e-6)


def test_gaussian_amplitude_matches_normal_density():
    sigma = 0.37
    x = np.linspace(-2, 2, 41)
    density = gaussian_amplitude(sigma, x) ** 2
    want = np.exp(-x**2 / (2 * sigma**2)) / np.sqrt(2 * np.pi * sigma**2)
    assert np.allclose(density, want, rtol=1e-13)
