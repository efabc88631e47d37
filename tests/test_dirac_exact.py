import decimal
import gc
import math
import re
import sys
import time
import warnings
import weakref
from decimal import Decimal

import numpy as np
import pytest
import mpmath
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from diracflow import (
    DomainError,
    IntegrationError,
    PacketParams,
    QuadConfig,
    Spinor,
    ValidationError,
    continuity_residual,
    dirac_exact,
    evolve_exact,
    evolve_exact_grid,
    evolve_exact_spherical,
    integrate_density,
    make_initial_packet,
    quadrature,
    schrodinger_reference,
    schrodinger_trajectory,
    spherical_cut,
)
from diracflow.packets import spinor_amplitudes
from diracflow.quadrature import _TRAPEZOID_NODES, _trapezoid_rule, refine_panels
from diracflow.spa import SpaParams, spa_spinor_grid

from _oracles import dirac_spectral, massless_transport


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


@pytest.mark.parametrize("data", [
    PacketParams(sigma=0.8, k0=4.0, theta0=0.7, omega0=1.3, mass=2.0),
    PacketParams.energy_eigen(0.8, 4.0, 2.0, -1),
    PacketParams.mixed_energy_eigen(1.0, 2.0, 1.0, 1.1),
], ids=["bloch", "eigen", "mixed"])
def test_time_zero_is_the_initial_packet_bit_for_bit(data):
    # ``observables`` evaluates t = 0 through the field like any other time.
    s = np.concatenate([np.linspace(-6, 6, 101), [-0.0, 0.0, 1e-300]])
    psi, err = evolve_exact_grid(0.0, s, data)
    want = make_initial_packet(data)(s)
    assert psi.minus.tobytes() == want.minus.tobytes()
    assert psi.plus.tobytes() == want.plus.tobytes()
    assert not err.any()


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


@pytest.mark.parametrize("t, s, route", [
    (0.5, np.zeros((2, 3)), "_kspace_grid"),
    (0.5, np.full((2, 3), 400.0), "_bessel_grid"),
    (0.0, np.zeros((2, 3)), None),
    (0.5, np.zeros((1, 1)), "_kspace_grid"),
], ids=["momentum-route", "bessel-route", "t0", "one-by-one"])
def test_positions_beyond_one_axis_rejected(t, s, route):
    # The check comes before the route choice and the t = 0 transport, so
    # no route broadcasts a 2-D grid or returns a 2-D spinor.
    if route is not None:
        assert dirac_exact._route_and_panels(t, s.ravel(), FIG3)[0].__name__ == route
    with pytest.raises(DomainError, match=r"s must be a number or a 1-D array, got shape"):
        evolve_exact_grid(t, s, FIG3)


@pytest.mark.parametrize("s", [[1.0], np.array([1.0]), (0.0, 1.0), 1.0 + 0.5j, np.complex128(1.0)],
                         ids=["list", "array", "tuple", "complex", "complex128"])
def test_single_point_needs_a_real_number(s):
    with pytest.raises(DomainError, match="s must be a real number"):
        evolve_exact(0.5, s, FIG3)


def test_single_point_takes_numpy_scalars():
    want = evolve_exact(0.5, 0.4, FIG3)
    for s in (np.float64(0.4), np.array(0.4)):
        got = evolve_exact(0.5, s, FIG3)
        assert got.psi == want.psi and got.s == 0.4


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


@pytest.mark.parametrize("mass", [5e-324, 1e-310])
@pytest.mark.parametrize("k0", [0.0, 2.0])
def test_subnormal_mass_is_transport_without_warnings(mass, k0):
    # m t is below the smallest normal double, so the field is the transport
    # terms: every kernel term carries the factor m t.
    data = PacketParams(sigma=1.0, k0=k0, theta0=0.7, omega0=0.0, mass=mass)
    s = np.linspace(-6, 6, 41)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi, err = evolve_exact_grid(1.0, s, data)
    pk = make_initial_packet(data)
    assert np.max(np.abs(psi.minus - pk(s - 1.0).minus)) <= 1e-300
    assert np.max(np.abs(psi.plus - pk(s + 1.0).plus)) <= 1e-300
    assert np.all(np.isfinite(err))


@pytest.mark.parametrize("mass, k0, t", [
    (5e-324, 0.0, 1.0), (1e-310, 2.0, 1.0), (1e-310, 5.0, 100.0),
    # Far too many Bessel panels (2.5e10) to start from.
    (1e-320, 10.0, 1e10),
])
def test_tiny_mass_time_product_is_transport(mass, k0, t, monkeypatch):
    # Below m t = 2.2e-308 neither grid route runs: the field is the
    # transport terms, bit for bit, with err 0.
    def no_route(*args):
        raise AssertionError("a grid route was chosen")

    monkeypatch.setattr(dirac_exact, "_route_and_panels", no_route)
    data = PacketParams(sigma=1.0, k0=k0, theta0=0.7, omega0=0.3, mass=mass)
    s = np.linspace(-6.0, 6.0, 13) + k0 * t
    psi, err = evolve_exact_grid(t, s, data)
    pk = make_initial_packet(data)
    assert np.array_equal(psi.minus, pk(s - t).minus)
    assert np.array_equal(psi.plus, pk(s + t).plus)
    assert np.all(err == 0)


def test_matches_spectral_propagator():
    data = PacketParams(sigma=1.0, k0=2.0, theta0=0.9, omega0=0.7, mass=1.5)
    t = 1.3
    s_ref, minus_ref, plus_ref = dirac_spectral(t, data)
    idx = np.searchsorted(s_ref, np.linspace(-6, 9, 21))
    psi, _ = evolve_exact_grid(t, s_ref[idx], data)
    assert np.max(np.abs(psi.minus - minus_ref[idx])) <= 1e-9
    assert np.max(np.abs(psi.plus - plus_ref[idx])) <= 1e-9


FIG3 = PacketParams(sigma=1.0, k0=10.0, theta0=np.pi / 2, omega0=0.0, mass=3.0)
EPS = float(np.finfo(float).eps)
FIG3_V0 = FIG3.k0 / np.hypot(FIG3.k0, FIG3.mass)


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


def route_of(t, s, data):
    return dirac_exact._route_and_panels(t, s, data)[0]


def assert_converged_to_oracle(data, t, s_lo, s_hi):
    """Within 1e-12 of the FFT oracle, and never beyond max(err_est, 1e-13).

    A coarse starting panel count can let two under-resolved estimates agree
    by accident; that shows here as a true error above the estimate.
    """
    half_width = 60.0
    band = abs(data.k0) + 12 / data.sigma
    n = max(2**14, 1 << int(np.ceil(np.log2(band * 2 * half_width / np.pi))))
    s_ref, minus_ref, plus_ref = dirac_spectral(t, data, half_width, n)
    idx = np.searchsorted(s_ref, np.linspace(s_lo, s_hi, 33))
    psi, err = evolve_exact_grid(t, s_ref[idx], data)
    true_err = np.stack([np.abs(psi.minus - minus_ref[idx]),
                         np.abs(psi.plus - plus_ref[idx])])
    assert np.max(true_err) <= 1e-12
    assert np.all(true_err <= np.maximum(err, 1e-13))


@pytest.mark.parametrize("data, t, s_lo, s_hi", [
    (FIG3, 0.5, -5.4, 5.4),
    (FIG3, 2.0, -6.9, 6.9),
    (FIG3, 8.0, -12.7, 12.7),
    *[(PacketParams.macroscopic(0.2, 1.0, w), 1.0, -1.5, 1.5) for w in (50.0, 100.0, 200.0, 400.0)],
], ids=["fig3-t0.5", "fig3-t2", "fig3-t8", "macro-w50", "macro-w100", "macro-w200", "macro-w400"])
def test_converged_field_within_1e12_of_oracle(data, t, s_lo, s_hi):
    assert_converged_to_oracle(data, t, s_lo, s_hi)


@settings(max_examples=25, deadline=None, database=None)
@given(sigma=st.floats(0.3, 2.0), k0=st.floats(-15.0, 15.0), mass=st.floats(0.0, 6.0),
       theta0=st.floats(0.0, np.pi), omega0=st.floats(0.0, 6.28),
       t=st.floats(0.0, 8.0))
# A narrower packet than the draws take: its momentum pass has 33 panels,
# whose 17 panel-basis rows at u >= 0 take two plane-wave chains.
@example(sigma=0.2, k0=5.0, mass=3.0, theta0=1.0, omega0=2.0, t=8.0)
def test_no_false_convergence(sigma, k0, mass, theta0, omega0, t):
    # The band s in [-6 sigma - t, 6 sigma + t] holds both packets.
    data = PacketParams(sigma=sigma, k0=k0, theta0=theta0, omega0=omega0, mass=mass)
    assert_converged_to_oracle(data, t, -6.0 * sigma - t, 6.0 * sigma + t)


def test_fig3_late_time_starts_near_the_nodes_it_needs(monkeypatch):
    # FIG3 at t = 8 converges at its 12 starting panels of 16 nodes on the
    # momentum route (21 panels of 33 on the Bessel route).  A Bessel start
    # that counts panels rather than nodes per 2 pi of phase needs 832.
    used = record_panels(monkeypatch)
    evolve_exact_grid(8.0, np.linspace(-12.7, 12.7, 64), FIG3)
    assert len(used) == 1
    assert used[0][1] <= 64


@pytest.mark.parametrize("t", [0.5, 2.0])
def test_budget_failure_partial_is_the_field(t):
    # A budget of eight panels leaves no room to refine, and the tolerances
    # are out of reach: the eight-panel theta-integrals assemble into the
    # field itself, with the field's error bound from the same pass.  The
    # grid reaches s = -120, where the momentum route would start from 704
    # nodes, more than 2.5 times the Bessel route's 264.
    s = np.linspace(-120.0, 4.0 + 10 * t, 41)
    assert route_of(t, s, FIG3) is dirac_exact._bessel_grid
    psi, _ = evolve_exact_grid(t, s, FIG3)
    with pytest.raises(IntegrationError) as info:
        evolve_exact_grid(t, s, FIG3, QuadConfig(rel_tol=1e-300, abs_tol=1e-300, max_panels=8))
    partial = info.value.partial
    assert isinstance(partial, Spinor)
    assert np.max(np.abs(partial.minus - psi.minus)) <= 1e-12
    assert np.max(np.abs(partial.plus - psi.plus)) <= 1e-12
    assert info.value.residual.shape == (2, s.size)
    assert np.all(np.isfinite(info.value.residual))


@pytest.mark.parametrize("n", [3, 64])
def test_unreachable_tolerance_stops_at_rounding(n):
    # |K33 - G16| sits at rounding level from the first pass on, so doubling
    # stops once it fails to halve, far below the 2**20-panel budget.
    s = np.linspace(-12.7, 12.7, n)
    evolve_exact_grid(0.5, s, FIG3)  # builds the route's tables, outside the timing
    start = time.perf_counter()
    with pytest.raises(IntegrationError, match="did not converge within 1048576 panels") as info:
        evolve_exact_grid(0.5, s, FIG3, QuadConfig(rel_tol=1e-300, abs_tol=1e-300))
    assert time.perf_counter() - start < 1.0
    assert int(re.search(r"refinement stopped at (\d+) panels", str(info.value))[1]) <= 64
    assert np.all(np.isfinite(info.value.residual))


MACRO_W400 = PacketParams.macroscopic(0.2, 1.0, 400.0)


@pytest.mark.parametrize("data, t, s", [
    (FIG3, 0.5, np.linspace(-4.0, 9.0, 27)),
    # The momentum route, which starts here from 10 panels.
    (MACRO_W400, 1.0, np.linspace(-1.5, 1.5, 33)),
], ids=["fig3-bessel", "macro-w400-kspace"])
def test_unconverged_partial_carries_field_residual(data, t, s):
    # One doubling is allowed but the tolerance is out of reach: the residual
    # is the field's error bound, in the units of the converged err.
    psi, err = evolve_exact_grid(t, s, data)
    q = QuadConfig(rel_tol=1e-300, abs_tol=1e-300, max_panels=64)
    with pytest.raises(IntegrationError) as info:
        evolve_exact_grid(t, s, data, q)
    partial, residual = info.value.partial, info.value.residual
    assert isinstance(partial, Spinor)
    assert np.max(np.abs(partial.minus - psi.minus)) <= 1e-12
    assert np.max(np.abs(partial.plus - psi.plus)) <= 1e-12
    assert residual.shape == err.shape
    assert np.all(np.isfinite(residual))


def test_kspace_budget_failure_carries_its_residual():
    # Sixteen panels leave no room to double the momentum route's start of
    # 10, and the tolerances are out of reach: the one pass still gives the
    # partial field an error bound.
    s = np.linspace(-1.5, 1.5, 33)
    with pytest.raises(IntegrationError) as info:
        evolve_exact_grid(1.0, s, MACRO_W400,
                          QuadConfig(rel_tol=1e-300, abs_tol=1e-300, max_panels=16))
    assert isinstance(info.value.partial, Spinor)
    assert info.value.partial.minus.shape == s.shape
    assert info.value.residual.shape == (2, s.size)
    assert np.all(np.isfinite(info.value.residual))


def test_start_beyond_budget_has_no_partial():
    # Eight panels are fewer than the momentum route's start of 10: nothing
    # is evaluated, so there is neither a partial field nor a residual.
    s = np.linspace(-1.5, 1.5, 33)
    with pytest.raises(IntegrationError, match="panel budget 8 is below the 10 starting") as info:
        evolve_exact_grid(1.0, s, MACRO_W400, QuadConfig(max_panels=8))
    assert info.value.partial is None
    assert info.value.residual.shape == (2, s.size)
    assert np.all(np.isinf(info.value.residual))


# =============================================================================
# Momentum route against the Bessel route
# =============================================================================

def assert_routes_agree(data, t, s):
    """Both grid routes, called directly, within 1e-12 of each other."""
    q = QuadConfig()
    bessel, _ = dirac_exact._bessel_grid(t, s, data, q, dirac_exact._bessel_panels(t, data))
    kspace, _ = dirac_exact._kspace_grid(t, s, data, q, dirac_exact._kspace_panels(t, s, data))
    assert np.max(np.abs(kspace.minus - bessel.minus)) <= 1e-12
    assert np.max(np.abs(kspace.plus - bessel.plus)) <= 1e-12


@settings(max_examples=50, deadline=None, database=None)
@given(sigma=st.floats(0.3, 2.0), k0=st.floats(-15.0, 15.0), mass=st.floats(0.0, 6.0),
       theta0=st.floats(0.0, np.pi), omega0=st.floats(0.0, 6.28),
       t=st.floats(0.0, 8.0))
# A subnormal mass at rest, where the node table once formed g / E = inf.
@example(sigma=1.0, k0=0.0, mass=5e-324, theta0=0.0, omega0=0.0, t=1.0)
def test_grid_routes_agree(sigma, k0, mass, theta0, omega0, t):
    # The ranges of test_no_false_convergence; both routes need m t > 0.
    assume(mass * t > 0)
    data = PacketParams(sigma=sigma, k0=k0, theta0=theta0, omega0=omega0, mass=mass)
    assert_routes_agree(data, t, np.linspace(-6.0 * sigma - t, 6.0 * sigma + t, 33))


@settings(max_examples=20, deadline=None, database=None)
@given(omega=st.sampled_from([50.0, 100.0, 200.0, 400.0]), vartheta=st.floats(0.0, np.pi),
       t=st.floats(0.05, 1.0))
def test_grid_routes_agree_on_macroscopic_ladder(omega, vartheta, t):
    data = PacketParams.macroscopic(0.2, 1.0, omega, vartheta)
    assert_routes_agree(data, t, np.linspace(-1.5, 1.5, 33))


@pytest.mark.parametrize("mass", [5e-324, 1e-310, 2.2e-309])
@pytest.mark.parametrize("k0", [0.0, 10.0])
def test_grid_routes_agree_at_subnormal_masses(mass, k0):
    # At k = 0, E is the subnormal mass: the node table's k / E and m / E
    # stay at most 1, and its shift factor is 0, not 0 / 0.
    data = PacketParams(sigma=1.0, k0=k0, theta0=0.7, omega0=0.3, mass=mass)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_routes_agree(data, 1.0, np.linspace(-7.0, 7.0, 33))


def test_grid_route_choice():
    # Pinned to timings of both routes forced on FIG3 grids: the momentum
    # route runs where it starts from at most 2.5 times the Bessel route's
    # nodes (16 per momentum panel, 33 per Bessel panel).
    v0 = FIG3.k0 / np.hypot(FIG3.k0, FIG3.mass)
    # FIG3 grids over both packets: momentum at 7, 8 and 12 panels (112,
    # 128 and 192 nodes) against Bessel's 8, 8 and 21 (264, 264 and 693).
    for t, start in ((0.5, 7), (2.0, 8), (8.0, 12)):
        half = v0 * t + 5.0
        s = np.linspace(-half, half, 64)
        assert dirac_exact._route_and_panels(t, s, FIG3) == (dirac_exact._kspace_grid, start)
    # The macroscopic ladder: 160 nodes against 594 to 4686.
    for omega in (50.0, 100.0, 200.0, 400.0):
        data = PacketParams.macroscopic(0.2, 1.0, omega)
        assert dirac_exact._route_and_panels(1.0, np.linspace(-1.5, 1.5, 33), data) == (
            dirac_exact._kspace_grid, 10)
    # Single points on the FIG3 packets' centres: 128 against 363 nodes at
    # t = 4, 176 against 693 at t = 8.
    for t in (4.0, 8.0):
        for s in (-v0 * t, v0 * t):
            assert route_of(t, np.array([s]), FIG3) is dirac_exact._kspace_grid
    # Wide grids stay on the Bessel route: over [-120, 120] at t = 0.5 the
    # momentum route would start from 704 nodes against 264, and from
    # 5.1e307 with a far position.
    assert route_of(0.5, np.linspace(-12.7, 12.7, 64), FIG3) is dirac_exact._kspace_grid
    assert route_of(0.5, np.linspace(-120.0, 120.0, 64), FIG3) is dirac_exact._bessel_grid
    assert route_of(1.0, np.array([0.0, 1e307]), FIG3) is dirac_exact._bessel_grid


def test_route_choice_does_not_depend_on_the_mass():
    # A subnormal mass with m t above the smallest normal double takes the
    # cheaper route: 432 momentum nodes against 264 Bessel nodes here.
    data = PacketParams(sigma=1.0, k0=0.0, theta0=0.7, omega0=0.3, mass=2.2e-309)
    t, s = 30.0, np.linspace(-36.0, 36.0, 64)
    assert dirac_exact._route_and_panels(t, s, data) == (dirac_exact._kspace_grid, 27)
    assert_routes_agree(data, t, s)


def field_bytes(t, s, data):
    psi, err = evolve_exact_grid(t, s, data)
    return psi.minus.tobytes() + psi.plus.tobytes() + err.tobytes()


def assert_layout_cache_transparent(t, s, data, monkeypatch):
    """A cold (cache miss), a warm (cache hit) and an uncached call give the same bits."""
    quadrature._cached_layout.cache_clear()
    cold = field_bytes(t, s, data)
    assert quadrature._cached_layout.cache_info().currsize > 0
    warm = field_bytes(t, s, data)
    with monkeypatch.context() as m:
        m.setattr(quadrature, "_LAYOUT_CACHE_NODES", 0)
        uncached = field_bytes(t, s, data)
    assert cold == warm == uncached


@pytest.mark.parametrize("case", ["fig3_bessel", "ladder_kspace"])
def test_layout_cache_keeps_field_bits(case, monkeypatch):
    if case == "fig3_bessel":
        # Wide enough that the momentum route would start from 704 nodes,
        # against the Bessel route's 264.
        t, s, data = 0.5, np.linspace(-120.0, 120.0, 64), FIG3
        assert route_of(t, s, data) is dirac_exact._bessel_grid
    else:
        t, s, data = 1.0, np.linspace(-1.5, 1.5, 33), PacketParams.macroscopic(0.2, 1.0, 400.0)
        assert route_of(t, s, data) is dirac_exact._kspace_grid
    assert_layout_cache_transparent(t, s, data, monkeypatch)


@settings(max_examples=15, deadline=None, database=None)
@given(sigma=st.floats(0.3, 2.0), k0=st.floats(-15.0, 15.0), mass=st.floats(0.0, 6.0),
       theta0=st.floats(0.0, np.pi), omega0=st.floats(0.0, 6.28),
       t=st.floats(0.0, 8.0), n=st.sampled_from([1, 7, 33]))
def test_layout_cache_keeps_field_bits_property(sigma, k0, mass, theta0, omega0, t, n):
    # Below m t = the smallest normal double the field is transport, and no
    # layout is built.
    assume(mass * t >= sys.float_info.min)
    data = PacketParams(sigma=sigma, k0=k0, theta0=theta0, omega0=omega0, mass=mass)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_layout_cache_transparent(
            t, np.linspace(-6.0 * sigma - t, 6.0 * sigma + t, n), data, monkeypatch)


def clear_momentum_plans():
    dirac_exact._kspace_plan.cache_clear()
    dirac_exact._cached_node_table.cache_clear()


@pytest.mark.parametrize("case", ["fig3", "ladder"])
def test_momentum_plan_keeps_field_bits(case, monkeypatch):
    # A call that builds the packet's plan and node tables, one that finds
    # them cached, and one that builds each pass's table itself give the
    # same psi and err, bit for bit.  FIG3 at t = 8 on 128 positions runs
    # its 12 panels over blocks of 85 and 43 positions from one table.
    if case == "fig3":
        v0 = FIG3.k0 / np.hypot(FIG3.k0, FIG3.mass)
        cases = [(t, np.linspace(-(v0 * t + 5.0), v0 * t + 5.0, n), FIG3)
                 for t, n in ((0.5, 64), (2.0, 64), (8.0, 64), (8.0, 128))]
    else:
        cases = [(1.0, np.linspace(-1.5, 1.5, 33), PacketParams.macroscopic(0.2, 1.0, omega))
                 for omega in (50.0, 400.0)]
    for t, s, data in cases:
        assert route_of(t, s, data) is dirac_exact._kspace_grid
        clear_momentum_plans()
        cold = field_bytes(t, s, data)
        assert dirac_exact._cached_node_table.cache_info().currsize > 0
        warm = field_bytes(t, s, data)
        with monkeypatch.context() as m:
            m.setattr(dirac_exact, "_PLAN_CACHE_NODES", 0)
            uncached = field_bytes(t, s, data)
        assert cold == warm == uncached


def test_momentum_plan_cache_stays_within_its_budget():
    # Many packets, each with a pass at the node cap and one just above it:
    # the cache keeps at most _PLAN_CACHE_SIZE plans, and the node tables
    # still alive afterwards (those it keeps) hold at most 4 MiB, read-only.
    clear_momentum_plans()
    at_cap = dirac_exact._PLAN_CACHE_NODES // _TRAPEZOID_NODES
    refs = []
    for j in range(3 * dirac_exact._PLAN_CACHE_SIZE):
        plan = dirac_exact._kspace_plan(
            PacketParams(sigma=1.0 + j, k0=10.0, theta0=np.pi / 2, omega0=0.0, mass=3.0))
        for n_panels in (at_cap, at_cap + 1):
            nodes, _ = quadrature._layout(-plan.half, plan.half, n_panels, _trapezoid_rule)
            table = dirac_exact._node_table(plan, n_panels, nodes)
            assert table.shape == (4, nodes.size)
            refs.append(weakref.ref(table))
    del table
    gc.collect()
    kept = [r() for r in refs if r() is not None]
    assert len(kept) == dirac_exact._PLAN_CACHE_SIZE
    assert all(not table.flags.writeable for table in kept)
    assert sum(table.nbytes for table in kept) <= 4 * 2**20
    assert dirac_exact._kspace_plan.cache_info().currsize == dirac_exact._PLAN_CACHE_SIZE


def test_phase_error_matches_34_digit_decimal():
    # E t - fl(E0 t), with E = sqrt(k0^2 + m^2) exactly and E0 = hypot(k0, m),
    # against 34-digit decimal arithmetic.  It is at most 1.5 ulp(E0 t), so
    # its own rounding allows 2 eps ulp(E0 t).
    rng = np.random.default_rng(18)
    n = 2000
    k0s = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 16.0, n)
    k0s[:20] = 0.0
    masses = 10.0 ** rng.uniform(-3.0, 9.0, n)
    times = 10.0 ** rng.uniform(-3.0, 6.0, n)
    for k0, m, t in zip(k0s.tolist(), masses.tolist(), times.tolist()):
        plan = dirac_exact._kspace_plan(
            PacketParams(sigma=1.0, k0=k0, theta0=np.pi / 2, omega0=0.0, mass=m))
        phase, err = plan.energy_phase(t)
        assert phase == math.hypot(k0, m) * t
        with decimal.localcontext() as ctx:
            ctx.prec = 34
            exact = (Decimal(k0) ** 2 + Decimal(m) ** 2).sqrt() * Decimal(t)
            want = float(exact - Decimal(phase))
        assert abs(err - want) <= 2 * EPS * math.ulp(phase), (k0, m, t)


def test_error_free_parts_work_elementwise():
    # The same expressions on arrays give each element's scalar result.
    rng = np.random.default_rng(5)
    a, b = rng.uniform(0.5, 1.0, (2, 50))
    k, m = rng.uniform(0.0, 0.7, (2, 50))
    e = np.hypot(k, m)
    scalar = [(dirac_exact._two_product_tail(x, y, x * y), dirac_exact._square_residual(p, q, r))
              for x, y, p, q, r in zip(a.tolist(), b.tolist(), k.tolist(), m.tolist(), e.tolist())]
    arrays = zip(dirac_exact._two_product_tail(a, b, a * b), dirac_exact._square_residual(k, m, e))
    assert [tuple(map(float, pair)) for pair in arrays] == scalar


def test_bessel_error_bound_combines_the_theta_residuals(monkeypatch):
    # err_-+ = (w t / 2)(|c_-+| e1_-+ + |c_+-| e0) from the residuals of the
    # three theta-integrals (J1 (1 -+ cos) and J0 sin), with |c_-| != |c_+|.
    results = []

    def recording(*args, **kwargs):
        results.append(refine_panels(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(dirac_exact, "refine_panels", recording)
    data = PacketParams(sigma=0.8, k0=4.0, theta0=0.7, omega0=1.3, mass=2.0)
    t = 1.5
    q = QuadConfig()
    _, err = dirac_exact._bessel_grid(t, np.linspace(-3.0, 5.0, 9), data, q,
                                      dirac_exact._bessel_panels(t, data))
    ((_, (e1m, e1p, e0), _),) = results
    cm, cp = map(abs, spinor_amplitudes(data))
    wt = data.mass * t
    assert np.array_equal(err[0], 0.5 * wt * (cm * e1m + cp * e0))
    assert np.array_equal(err[1], 0.5 * wt * (cp * e1p + cm * e0))


def test_collapsed_momentum_window_is_unresolvable():
    # At k0 = 1e300 the window k0 +- 8 / sigma rounds to k0 itself, but the
    # phase split takes every node's phase from u: the momentum route runs
    # and gives the massless transport to 1e-15.
    data = PacketParams(sigma=1.0, k0=1e300, theta0=np.pi / 2, omega0=0.0, mass=3.0)
    s = np.linspace(-1.0, 1.0, 3)
    assert route_of(0.5, s, data) is dirac_exact._kspace_grid
    psi, _ = evolve_exact_grid(0.5, s, data)
    rho, j = massless_transport(0.5, s, data)
    assert np.max(np.abs(psi.density - rho)) <= 1e-15
    assert np.max(np.abs(psi.current - j)) <= 1e-15


# rho at (t, s) = (0.5, -0.5) of FIG3 with these k0, from a 50-digit mpmath
# quadrature of the momentum integral.
RHO_50_DIGITS = {1e9: 0.32045650222483068, 1e12: 0.32045650246005256, 1e13: 0.32045650246026447,
                 1e14: 0.32045650246028566, 1e15: 0.32045650246028778,
                 1e16: 0.32045650246028799}


@pytest.mark.parametrize("k0", list(RHO_50_DIGITS))
def test_coarse_momentum_nodes_are_unresolvable(k0):
    # Nodes at |k| = k0 + u are rounded by up to half a spacing of k0, but
    # the phase split takes their phase from u: the momentum route runs and
    # rho is within 1e-15 of the 50-digit value, at rel_tol = 1e-15 too.
    data = PacketParams(sigma=1.0, k0=k0, theta0=np.pi / 2, omega0=0.0, mass=3.0)
    assert route_of(0.5, np.array([-0.5]), data) is dirac_exact._kspace_grid
    for q in (QuadConfig(), QuadConfig(rel_tol=1e-15)):
        assert abs(evolve_exact(0.5, -0.5, data, q).psi.density - RHO_50_DIGITS[k0]) <= 1e-15


@pytest.mark.parametrize("k0", [10.0, 1e9, 1e14])
def test_route_does_not_depend_on_the_tolerance(k0, monkeypatch):
    # Route and starting count come from t, s and sigma alone, so every
    # tolerance takes the momentum route's 6 panels at (t, s) = (0.5, -0.5).
    data = PacketParams(sigma=1.0, k0=k0, theta0=np.pi / 2, omega0=0.0, mass=3.0)
    choose = dirac_exact._route_and_panels
    chosen = []
    monkeypatch.setattr(dirac_exact, "_route_and_panels",
                        lambda *args: chosen.append(choose(*args)) or chosen[-1])
    for rel_tol in (1e-6, 1e-9, 1e-15):
        evolve_exact(0.5, -0.5, data, QuadConfig(rel_tol=rel_tol))
    assert chosen == [(dirac_exact._kspace_grid, 6.0)] * 3


@pytest.mark.parametrize("s, minus, plus", [
    (0.0, 0.20863101644459668291 + 0.38362363718592991447j,
     0.20863101644459668291 - 0.38362340701181477747j),
    (0.25, -0.43922871365685673111 - 0.079373698721574754134j,
     0.15965396362000645662 + 0.38207650782677894601j),
])
def test_large_k0_point_runs_on_the_momentum_route(s, minus, plus):
    # At k0 = 1e7, t = 0.3 the momentum route starts from 6 panels and the
    # Bessel route from 750001; psi matches a 50-digit mpmath quadrature of
    # the momentum integral.
    data = PacketParams(sigma=1.0, k0=1e7, theta0=np.pi / 2, omega0=0.0, mass=3.0)
    assert route_of(0.3, np.array([s]), data) is dirac_exact._kspace_grid
    psi = evolve_exact(0.3, s, data).psi
    assert abs(psi.minus - minus) <= 1e-14 and abs(psi.plus - plus) <= 1e-14


def test_fine_momentum_nodes_keep_the_momentum_route():
    # At k0 = 1e10 the momentum route still runs and matches rho from a
    # 50-digit mpmath quadrature of the same momentum integral.
    data = PacketParams(sigma=1.0, k0=1e10, theta0=np.pi / 2, omega0=0.0, mass=3.0)
    s = np.array([-0.5])
    assert route_of(0.5, s, data) is dirac_exact._kspace_grid
    assert abs(evolve_exact(0.5, -0.5, data).psi.density - 0.3204565024367) <= 1e-12


def test_fine_momentum_nodes_at_a_shifted_window():
    # sigma = 0.9999999 moves the window's nodes off those of sigma = 1; the
    # phase taken from u keeps rho within 1e-12 of a 50-digit mpmath
    # quadrature of the same momentum integral (0.32045652238385706413).
    data = PacketParams(sigma=0.9999999, k0=1e10, theta0=np.pi / 2, omega0=0.0, mass=3.0)
    s = np.array([-0.5])
    assert route_of(0.5, s, data) is dirac_exact._kspace_grid
    assert abs(evolve_exact(0.5, -0.5, data).psi.density - 0.32045652238385706) <= 1e-12


def record_panels(monkeypatch):
    """(starting, final) panel counts of every refinement loop the field runs.

    Both grid routes run the one loop through ``_integrate_field``: the
    momentum route hands it its trapezoid pass, and the Bessel route its
    K33/G16 panel pass over theta.
    """
    used = []

    def recording(run_pass, initial_panels, **kwargs):
        value, err, n = refine_panels(run_pass, initial_panels, **kwargs)
        used.append((initial_panels, n))
        return value, err, n

    monkeypatch.setattr(dirac_exact, "refine_panels", recording)
    monkeypatch.setattr(quadrature, "refine_panels", recording)
    return used


@pytest.mark.parametrize("omega", [1e7, 1e9])
def test_momentum_phase_on_a_high_ladder_rung(omega, monkeypatch):
    # From omega = 1e7 on, E t rounds by ulp(E t) >= 1.9e-9 at every node,
    # which stalled the doubling; taken from u, the phase converges at the
    # 10 starting panels.  The density then matches the SPA's, whose error
    # falls as 1 / omega (9.8e-13 at omega = 1e9).
    data = PacketParams.macroscopic(0.2, 1.0, omega)
    s = np.linspace(-1.5, 1.5, 101)
    used = record_panels(monkeypatch)
    psi, err = evolve_exact_grid(1.0, s, data)
    assert used == [(10.0, 10)]
    assert np.max(err) <= 1e-15
    spa = spa_spinor_grid(1.0, s, SpaParams(p0=1.0, sigma=0.2, omega=omega))
    assert np.max(np.abs(psi.density - spa.density)) <= 2e-3 / omega


@pytest.mark.parametrize("n_panels", [1, 16, 17, 600])
def test_plane_wave_rows_are_within_rounding_of_their_phase(n_panels):
    # Every row of a pass's bases is within 64 eps (1 + |u s|) of e^{i u s}
    # at 40 digits, at the pass's own u and s: the offsets u = k0 + b h and
    # the panels' first nodes u = (p - P / 2) width, over FIG3's window and
    # positions out to the pass's alias bound pi / h.  The 301 rows at
    # u >= 0 of 600 panels take 19 chains.
    plan = dirac_exact._kspace_plan(FIG3)
    width = 2 * plan.half / n_panels
    h = width / _TRAPEZOID_NODES
    s = np.concatenate([np.linspace(-np.pi / h, np.pi / h, 9), [0.1234567, -2.0 ** 0.5]])
    offset, panel = dirac_exact._plane_waves(plan.k0, width, n_panels, 0, n_panels, s)
    with mpmath.workdps(40):
        exact = [(offset, [mpmath.mpf(plan.k0) + b * mpmath.mpf(h)
                           for b in range(_TRAPEZOID_NODES)]),
                 (panel, [(p - mpmath.mpf(n_panels) / 2) * mpmath.mpf(width)
                          for p in range(n_panels)])]
        for rows, us in exact:
            assert rows.shape == (len(us), s.size)
            for row, u in zip(rows, us):
                for value, x in zip(row.tolist(), s.tolist()):
                    phase = u * mpmath.mpf(x)
                    assert abs(value - mpmath.expj(phase)) <= 64 * EPS * (1 + abs(phase))


@pytest.mark.parametrize("data, t, s, start", [
    *[(FIG3, t, np.linspace(-(FIG3_V0 * t + 5.0), FIG3_V0 * t + 5.0, 64), n)
      for t, n in ((0.5, 7), (2.0, 8), (8.0, 12))],
    *[(PacketParams.macroscopic(0.2, 1.0, w), 1.0, np.linspace(-1.5, 1.5, 33), n)
      for w, n in ((50.0, 10), (100.0, 10), (200.0, 10), (400.0, 10))],
    (FIG3, 0.5, np.linspace(-120.0, 120.0, 300), 8),
], ids=["fig3-t0.5", "fig3-t2", "fig3-t8", "macro-w50", "macro-w100", "macro-w200", "macro-w400",
        "fig3-wide-bessel"])
def test_benchmark_grids_converge_at_their_start(data, t, s, start, monkeypatch):
    # The benchmark's field grids: one trapezoid pass at the alias-free start.
    # A wide FIG3 grid takes the Bessel route (8 panels of 33 nodes against
    # the momentum route's 44 of 16), whose theta pass runs in the same loop.
    used = record_panels(monkeypatch)
    evolve_exact_grid(t, s, data)
    assert used == [(start, start)]


@pytest.mark.parametrize("s, abs_scale", [
    (np.linspace(-5.0, 5.0, 33), 1.0),
    (np.linspace(-120.0, 120.0, 300), 1.5),
], ids=["momentum", "bessel"])
def test_grid_routes_hand_the_loop_their_tolerances(s, abs_scale, monkeypatch):
    # The loop runs at the QuadConfig's rel_tol and budget.  The Bessel
    # route's theta-integrals enter psi times m t / 2, so their abs_tol is
    # divided by max(1, m t) = 1.5 at FIG3, t = 0.5; the momentum route's
    # sums are psi itself.
    q = QuadConfig(rel_tol=1e-8, abs_tol=1e-11, max_panels=4096)
    calls = []

    def recording(run_pass, initial_panels, **kwargs):
        calls.append(kwargs)
        return refine_panels(run_pass, initial_panels, **kwargs)

    monkeypatch.setattr(dirac_exact, "refine_panels", recording)
    monkeypatch.setattr(quadrature, "refine_panels", recording)
    evolve_exact_grid(0.5, s, FIG3, q)
    assert calls == [dict(rel_tol=1e-8, abs_tol=1e-11 / abs_scale, max_panels=4096)]


def record_passes(monkeypatch):
    """Each chunk of a momentum pass as (kernel nodes, [positions of each block]).

    A chunk evaluates its kernel, the integrand's factor over the nodes,
    once on all its nodes, and makes the plane waves once per block of
    positions; passes of up to 1024 panels are one chunk.
    """
    passes = []
    kernel, waves = dirac_exact._momentum_kernel, dirac_exact._plane_waves

    def recording_kernel(plan, t, table):
        passes.append((table.shape[1], []))
        return kernel(plan, t, table)

    def recording_waves(k0, width, n_panels, first, count, s):
        passes[-1][1].append(s.size)
        return waves(k0, width, n_panels, first, count, s)

    monkeypatch.setattr(dirac_exact, "_momentum_kernel", recording_kernel)
    monkeypatch.setattr(dirac_exact, "_plane_waves", recording_waves)
    return passes


@pytest.mark.parametrize("data, t, s", [
    *[(FIG3, t, np.linspace(-(FIG3_V0 * t + 5.0), FIG3_V0 * t + 5.0, 64)) for t in (0.5, 2.0, 8.0)],
    (MACRO_W400, 1.0, np.linspace(-1.5, 1.5, 33)),
    # The CLI benchmark's field grid.
    *[(FIG3, t, np.linspace(-8.0, 8.0, 64)) for t in (0.5, 2.0)],
], ids=["fig3-t0.5", "fig3-t2", "fig3-t8", "macro-w400", "cli-t0.5", "cli-t2"])
def test_field_grids_take_one_integrand_call_per_pass(data, t, s, monkeypatch):
    # One pass at the start, its kernel made once on all its nodes and its
    # positions in one block.
    passes = record_passes(monkeypatch)
    evolve_exact_grid(t, s, data)
    assert passes == [(_TRAPEZOID_NODES * dirac_exact._kspace_panels(t, s, data), [s.size])]


def serial_product(n_panels, n_points):
    """4 m n k of a block's complex (4 P, 16) @ (16, n) product: on one thread below 2**18."""
    return 4 * (4 * n_panels) * _TRAPEZOID_NODES * n_points


def test_large_grid_is_chunked_within_the_bound(monkeypatch):
    # 4096 positions over both FIG3 packets at t = 8, on 12 panels: the
    # kernel is made once, and the positions run in blocks of 85, the most
    # that keep the complex (4 P, 16) @ (16, n) product on one thread.
    s = np.linspace(-(FIG3_V0 * 8.0 + 5.0), FIG3_V0 * 8.0 + 5.0, 4096)
    passes = record_passes(monkeypatch)
    evolve_exact_grid(8.0, s, FIG3)
    ((nodes, blocks),) = passes
    assert nodes == 12 * _TRAPEZOID_NODES
    assert blocks == [85] * 48 + [16]
    assert serial_product(12, 85) < 2**18 <= serial_product(12, 86)


def test_many_panels_run_in_chunks_and_blocks_of_16_positions(monkeypatch):
    # An observables grid at t = 3000 has 1919 panels: chunks of 1024 and
    # 895 panels, each over blocks of 16 positions, where no block keeps
    # the product on one thread.  The chunks' sums add up to the field.
    s_ref, minus_ref, plus_ref = dirac_spectral(3000.0, FIG3, 3100.0, 2**19)
    idx = np.searchsorted(s_ref, np.linspace(-3010.0, 3010.0, 40))
    assert dirac_exact._kspace_panels(3000.0, s_ref[idx], FIG3) == 1919
    passes = record_passes(monkeypatch)
    psi, _ = dirac_exact._kspace_grid(3000.0, s_ref[idx], FIG3, QuadConfig(), 1919)
    assert passes == [(1024 * _TRAPEZOID_NODES, [16, 16, 8]), (895 * _TRAPEZOID_NODES, [16, 16, 8])]
    assert serial_product(1024, 1) >= 2**18
    assert np.max(np.abs(psi.minus - minus_ref[idx])) <= 1e-12
    assert np.max(np.abs(psi.plus - plus_ref[idx])) <= 1e-12


def test_start_below_the_alias_bound_doubles_once(monkeypatch):
    # A start where pi / h covers only max|s| + t + 6 sigma lets T_2h alias:
    # its estimate misses the tolerance, and one doubling, where T_2h has
    # the first pass's spacing and 2 pi / h covers the light cone, meets it.
    t = 8.0
    s_ref, minus_ref, plus_ref = dirac_spectral(t, FIG3, 60.0, 2**14)
    idx = np.searchsorted(s_ref, np.linspace(-12.7, 12.7, 33))
    s = s_ref[idx]
    reach = np.abs(s).max() + t + 6.0 * FIG3.sigma
    start = float(np.ceil(16.0 / FIG3.sigma * reach / (np.pi * _TRAPEZOID_NODES)))
    assert start < dirac_exact._kspace_panels(t, s, FIG3)
    used = record_panels(monkeypatch)
    psi, _ = dirac_exact._kspace_grid(t, s, FIG3, QuadConfig(), start)
    assert used == [(start, 2 * start)]
    assert np.max(np.abs(psi.minus - minus_ref[idx])) <= 1e-12
    assert np.max(np.abs(psi.plus - plus_ref[idx])) <= 1e-12


def test_far_position_takes_bessel_route():
    # The momentum route would start from 3.2e306 panels at |s| = 1e307; the
    # Bessel route runs and the packets are negligible there.
    with np.errstate(over="ignore"):
        sample = evolve_exact(1.0, 1e307, FIG3)
    assert sample.psi.minus == 0 and sample.psi.plus == 0
    assert np.isfinite(sample.err_est)


def test_overflowing_phase_is_an_integration_error():
    # At t = 1e308 E0 t overflows, and with it the Bessel route's count: no
    # panel count resolves the phase, and nothing is evaluated on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError) as single:
            evolve_exact(1e308, 0.0, FIG3)
        with pytest.raises(IntegrationError) as grid:
            evolve_exact_grid(1e308, np.linspace(-5.0, 5.0, 7), FIG3)
    assert single.value.partial is None
    assert np.all(np.isinf(single.value.residual))
    assert grid.value.residual.shape == (2, 7) and np.all(np.isinf(grid.value.residual))


def test_overflowing_momentum_phase_is_an_integration_error():
    # m t = 1e310 overflows a float while |s| + t |v| stays small: the
    # Bessel route's count is inf, so the momentum route is not handed inf
    # phases (which refined NaN to the full budget) and the Bessel route fails.
    data = PacketParams(sigma=1.0, k0=0.0, theta0=np.pi / 2, omega0=0.0, mass=1e300)
    assert dirac_exact._route_and_panels(1e10, np.array([0.0]), data) == (
        dirac_exact._bessel_grid, np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="phase overflows") as info:
            evolve_exact(1e10, 0.0, data)
    assert info.value.partial is None


def test_finite_energy_phase_keeps_the_momentum_route():
    # m t = 1e307 is finite, though the Bessel count (2.5e306 panels) is far
    # beyond any budget: the momentum route runs from 6 panels.  At k0 = 0
    # the packet sits still, with rho the N(0, sigma^2) density and j = 0.
    data = PacketParams(sigma=1.0, k0=0.0, theta0=np.pi / 2, omega0=0.0, mass=1e307)
    s = np.array([-1.0, 0.0, 1.0])
    assert dirac_exact._route_and_panels(1.0, s, data) == (dirac_exact._kspace_grid, 6.0)
    psi, _ = evolve_exact_grid(1.0, s, data)
    assert np.max(np.abs(psi.density - np.exp(-s**2 / 2) / np.sqrt(2 * np.pi))) <= 1e-15
    assert np.max(np.abs(psi.current)) <= 1e-15


@settings(max_examples=20, deadline=None, database=None)
@given(sigma=st.floats(0.4, 2.0), k0=st.floats(-8.0, 8.0), mass=st.floats(0.0, 4.0),
       theta0=st.floats(0.0, np.pi), omega0=st.floats(0.0, 6.28),
       t=st.floats(0.0, 3.0))
def test_parity_mirror(sigma, k0, mass, theta0, omega0, t):
    # Parity swaps the components and reflects s: the packet with k0 -> -k0,
    # theta0 -> pi - theta0 and omega0 -> 2 pi - omega0 evolves into
    # psi'_-+(t, s) = psi_+-(t, -s).  Writing omega0' as 2 pi - omega0 flips
    # the sign of both components, which phase0 = 2 pi undoes; where it wraps
    # to 0 (omega0 = 0, or too small to move 2 pi) there is nothing to undo.
    data = PacketParams(sigma=sigma, k0=k0, theta0=theta0, omega0=omega0, mass=mass)
    omega0_mirror = (2 * np.pi - omega0) % (2 * np.pi)
    mirror = PacketParams(sigma=sigma, k0=-k0, theta0=np.pi - theta0,
                          omega0=omega0_mirror, mass=mass,
                          phase0=2 * np.pi if omega0_mirror > 0 else 0.0)
    s = np.linspace(-4.0 * sigma - t, 4.0 * sigma + t, 17)
    psi, _ = evolve_exact_grid(t, -s, data)
    psi_mirror, _ = evolve_exact_grid(t, s, mirror)
    assert np.max(np.abs(psi_mirror.minus - psi.plus)) <= 1e-12
    assert np.max(np.abs(psi_mirror.plus - psi.minus)) <= 1e-12


def test_error_estimate_contract(fig3_packet):
    q = QuadConfig()
    for s in (-2.0, 0.0, 1.5, 3.0):
        sample = evolve_exact(0.7, s, fig3_packet, q)
        rho = np.sqrt(sample.psi.density)
        assert sample.err_est <= max(q.abs_tol, q.rel_tol * rho) * 10


def test_norm_conserved(fig3_packet):
    norm, err = integrate_density(0.6, fig3_packet)
    assert norm == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=30, deadline=None, database=None)
@given(sigma=st.floats(0.3, 2.0), k0=st.floats(-15.0, 15.0), mass=st.floats(0.0, 6.0),
       theta0=st.floats(0.0, np.pi), t=st.floats(0.0, 8.0))
# A subnormal mass at rest: m t is below the smallest normal double, so the
# field is the transport terms.
@example(sigma=0.3, k0=0.0, mass=5e-324, theta0=0.0, t=1.0)
def test_norm_conserved_property(sigma, k0, mass, theta0, t):
    data = PacketParams(sigma=sigma, k0=k0, theta0=theta0, omega0=0.0, mass=mass)
    norm, _ = integrate_density(t, data)
    assert norm == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("t", [800.0, 2000.0])
def test_norm_of_a_narrow_massless_packet_at_late_times(t):
    # The grid resolves the spectrum |k| <= 8 / sigma = 26.7 over the whole
    # light cone; a rule blind to sigma read 1 + 1.8e-5 at t = 800 and 1.313
    # at t = 2000.
    data = PacketParams(sigma=0.3, k0=0.0, theta0=0.7, omega0=0.0, mass=0.0)
    norm, _ = integrate_density(t, data)
    assert abs(norm - 1.0) <= 1e-12


def test_density_grid_beyond_the_cap_evaluates_nothing(fig3_packet, monkeypatch):
    # At t = 1e6 the band |k| <= 18 needs more than 2^17 points on the light
    # cone: IntegrationError before any field call, not a grid of 2^25.
    calls = []
    monkeypatch.setattr(dirac_exact, "evolve_exact_grid", lambda *args: calls.append(args))
    start = time.perf_counter()
    with pytest.raises(IntegrationError, match="more than 131072 grid points") as info:
        integrate_density(1e6, fig3_packet)
    assert time.perf_counter() - start < 1.0
    assert not calls and info.value.partial is None


def test_light_cone_support(fig3_packet):
    # Data numerically supported in [-8 sigma, 8 sigma]; nothing reaches
    # beyond that support plus t (plus margin).
    t = 1.0
    bound = 8 * fig3_packet.sigma + t + 5 * fig3_packet.sigma
    for s in (bound + 0.5, -(bound + 0.5), bound + 3.0):
        sample = evolve_exact(t, s, fig3_packet)
        assert sample.psi.density < 1e-12


def test_quadrature_budget_error_carries_partial(fig3_packet):
    # Tolerances out of reach, so the 16-panel budget (one doubling of the
    # 8-panel start) really is exhausted.
    q = QuadConfig(rel_tol=1e-300, abs_tol=1e-300, max_panels=16)
    with pytest.raises(IntegrationError) as info:
        evolve_exact(1.0, 0.0, fig3_packet, q)
    assert info.value.partial is not None
    assert info.value.residual is not None
    assert np.all(np.isfinite(info.value.residual))


def test_quad_config_validation():
    with pytest.raises(ValidationError):
        QuadConfig(rel_tol=0.0)
    for field in ("rel_tol", "abs_tol", "max_panels"):
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


def test_spherical_phase_overflow_is_an_integration_error(fig3_packet):
    # omega * t overflows: no trapezoid or panel count resolves the phase.
    with pytest.raises(IntegrationError, match="phase overflows") as info:
        evolve_exact_spherical(1e308, 0.0, fig3_packet)
    assert info.value.partial is None
    with pytest.raises(DomainError):
        evolve_exact_spherical(np.inf, 0.0, fig3_packet)


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
