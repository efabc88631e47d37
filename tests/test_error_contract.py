"""Every public evaluator turns input that is not a finite real number into a DiracflowError."""

import warnings

import numpy as np
import pytest

from diracflow import (
    DomainError,
    PacketParams,
    QuadConfig,
    SchrodingerField,
    SpaParams,
    Spinor,
    ValidationError,
    antipodal_clusters,
    barrier_check,
    barrier_curves,
    cayley_klein,
    continuity_residual,
    error_bound_shape,
    error_scaling,
    evolve_exact,
    evolve_exact_grid,
    evolve_exact_spherical,
    expected_energy,
    expected_momentum,
    find_bifurcation,
    integrate_density,
    integrate_trajectory,
    make_initial_packet,
    phase_diagnostics,
    run_ensemble,
    schrodinger_reference,
    schrodinger_trajectory,
    spa_envelopes,
    spa_evaluate,
    spa_spinor_grid,
    spa_velocity_field,
)

FIG3 = PacketParams(sigma=1.0, k0=10.0, theta0=np.pi / 2, omega0=0.0, mass=3.0)
SPA = SpaParams(p0=1.0, sigma=0.2, omega=60.0)
PSI0 = make_initial_packet(FIG3)


def _trajectory(q0, t_span=(0.0, 1.0), tol=1e-8):
    return integrate_trajectory(q0, t_span, SchrodingerField(1.0), tol=tol)


# ValidationError and DomainError are also ValueErrors, so each case names
# the DiracflowError subclass it expects rather than accepting any ValueError.
CASES = {
    "grid-t-str": (DomainError, lambda: evolve_exact_grid("a", [0.0], FIG3)),
    "grid-t-complex": (DomainError, lambda: evolve_exact_grid(1j, [0.0], FIG3)),
    "grid-s-complex": (DomainError, lambda: evolve_exact_grid(0.5, [1 + 1j], FIG3)),
    "grid-s-str": (DomainError, lambda: evolve_exact_grid(0.5, "abc", FIG3)),
    "grid-s-ragged": (DomainError, lambda: evolve_exact_grid(0.5, [[1.0], [2.0, 3.0]], FIG3)),
    "point-s-str": (DomainError, lambda: evolve_exact(0.5, "abc", FIG3)),
    "point-t-none": (DomainError, lambda: evolve_exact(None, 0.0, FIG3)),
    "spherical-s-str": (DomainError, lambda: evolve_exact_spherical(0.5, "abc", FIG3)),
    "spherical-s-complex": (DomainError, lambda: evolve_exact_spherical(0.5, 1j, FIG3)),
    "spherical-s-nan": (DomainError, lambda: evolve_exact_spherical(0.5, np.nan, FIG3)),
    "spherical-s-inf": (DomainError, lambda: evolve_exact_spherical(0.5, np.inf, FIG3)),
    "spa-grid-s-complex": (DomainError, lambda: spa_spinor_grid(0.5, [1j], SPA)),
    "spa-point-s-str": (DomainError, lambda: spa_evaluate(0.5, "x", SPA)),
    "trajectory-q0-complex": (ValidationError, lambda: _trajectory(1j)),
    "trajectory-q0-str": (ValidationError, lambda: _trajectory("a")),
    "trajectory-q0-pair": (ValidationError, lambda: _trajectory([0.1, 0.2])),
    "trajectory-t-span-str": (ValidationError, lambda: _trajectory(0.3, t_span=(0.0, "a"))),
    "trajectory-tol-complex": (ValidationError, lambda: _trajectory(0.3, tol=1j)),
    "ensemble-t-final-str": (ValidationError, lambda: run_ensemble(2, FIG3, "a")),
    "bifurcation-tol-s-none": (ValidationError, lambda: find_bifurcation(FIG3, 8.0, None)),
    "continuity-t-str": (DomainError, lambda: continuity_residual("a", 0.0, FIG3, h=1e-3)),
    "spa-velocity-s-nan": (DomainError, lambda: spa_velocity_field(1.0, np.nan, SPA)),
    "spa-envelopes-s-str": (DomainError, lambda: spa_envelopes(0.5, "abc", SPA)),
    "schrodinger-s-str": (DomainError, lambda: schrodinger_reference(0.5, "abc", 1.0)),
    "schrodinger-t-nan": (DomainError, lambda: schrodinger_reference(np.nan, 0.1, 1.0)),
    "schrodinger-trajectory-t-str": (DomainError, lambda: schrodinger_trajectory("a", 0.1, 1.0)),
    "density-t-inf": (DomainError, lambda: integrate_density(np.inf, FIG3)),
    "density-t-str": (DomainError, lambda: integrate_density("a", FIG3)),
    "momentum-half-width-zero": (DomainError, lambda: expected_momentum(PSI0, 1e-6, 0.0, 18.0)),
    "momentum-half-width-str": (DomainError, lambda: expected_momentum(PSI0, 1e-6, "a", 18.0)),
    "momentum-quad-tol-str": (DomainError, lambda: expected_momentum(PSI0, "a", 10.0, 18.0)),
    "energy-mass-str": (DomainError, lambda: expected_energy(PSI0, "a", 1e-6, 10.0, 18.0)),
    "cayley-klein-str": (DomainError, lambda: cayley_klein(Spinor("a", 1))),
    "phase-diagnostics-nan": (DomainError, lambda: phase_diagnostics(np.nan)),
    "antipodal-empty": (DomainError, lambda: antipodal_clusters(np.zeros((0, 3)))),
    "antipodal-zero-only": (DomainError, lambda: antipodal_clusters([[0.0, 0.0, 0.0]])),
    "antipodal-zero-row": (DomainError,
                           lambda: antipodal_clusters([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])),
    "barrier-x-str": (DomainError,
                      lambda: barrier_check(barrier_curves(0.7), [1.0], "abc", [0.0])),
    "barrier-rate-number": (DomainError,
                            lambda: barrier_check(barrier_curves(0.7), 1.0, [1.0], [0.0])),
    "error-bound-p0-str": (ValidationError, lambda: error_bound_shape("a", 1, 1, 1)),
    "error-scaling-ladder-str": (ValidationError, lambda: error_scaling(
        SPA, 1.0, ["a", 1, 2, 3], np.linspace(-1.0, 1.0, 5))),
    "ensemble-n-float": (ValidationError, lambda: run_ensemble(2.5, FIG3, 1.0)),
    "ensemble-n-str": (ValidationError, lambda: run_ensemble("3", FIG3, 1.0)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_non_real_input_raises_a_diracflow_error(case):
    expected, call = CASES[case]
    with warnings.catch_warnings(record=True) as caught, pytest.raises(expected) as info:
        warnings.simplefilter("always")
        call()
    assert type(info.value) is expected
    # Rejected before any arithmetic: no numpy warning on the way.
    assert not caught


def _packet(**changes):
    fields = dict(sigma=1.0, k0=10.0, theta0=np.pi / 2, omega0=0.0, mass=3.0)
    return PacketParams(**{**fields, **changes})


# Parameter constructors validate every number they take the same way.
PARAMETER_CASES = {
    "packet-k0-complex": lambda: _packet(k0=1j),
    "packet-sigma-str": lambda: _packet(sigma="a"),
    "packet-mass-none": lambda: _packet(mass=None),
    "packet-phase0-complex": lambda: _packet(phase0=0.5 + 0.5j),
    "spa-p0-str": lambda: SpaParams(p0="a", sigma=0.2, omega=10.0),
    "spa-omega-complex": lambda: SpaParams(p0=1.0, sigma=0.2, omega=10.0 + 1j),
    "quad-rel-tol-inf": lambda: QuadConfig(rel_tol=np.inf),
    "quad-abs-tol-inf": lambda: QuadConfig(abs_tol=np.inf),
    "quad-rel-tol-str": lambda: QuadConfig(rel_tol="a"),
    "quad-max-panels-str": lambda: QuadConfig(max_panels="a"),
    "energy-eigen-mass-str": lambda: PacketParams.energy_eigen(1, 10, "a"),
    "macroscopic-omega-str": lambda: PacketParams.macroscopic(1, 1, "a"),
    "rescaled-length-str": lambda: FIG3.rescaled("a"),
}


@pytest.mark.parametrize("case", sorted(PARAMETER_CASES))
def test_parameter_constructors_raise_a_validation_error(case):
    with warnings.catch_warnings(record=True) as caught, pytest.raises(ValidationError) as info:
        warnings.simplefilter("always")
        PARAMETER_CASES[case]()
    assert type(info.value) is ValidationError
    assert not caught
