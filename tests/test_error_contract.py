"""Every public evaluator turns input that is not a finite real number into a DiracflowError."""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import diracflow
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
    bohmian_observables,
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
    spa_leading_term,
    spa_spinor_grid,
    spa_velocity_field,
    spherical_cut,
    sup_error_at_omega,
    transport_beta,
    xy_ode_velocity,
)
from diracflow.errors import as_real
from diracflow.specfun import j0_first_zero

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
    "ensemble-field-mode-int": (ValidationError,
                                lambda: run_ensemble(2, FIG3, 1.0, field_mode=5)),
    "spherical-cut-nan": (DomainError, lambda: spherical_cut(np.nan)),
    "spherical-cut-inf": (DomainError, lambda: spherical_cut(np.inf)),
    "spherical-cut-str": (DomainError, lambda: spherical_cut("a")),
    "barrier-curves-str": (DomainError, lambda: barrier_curves("a")),
    "barrier-curves-none": (DomainError, lambda: barrier_curves(None)),
    "xy-velocity-theta0-str": (DomainError, lambda: xy_ode_velocity(1.0, 1.0, "a", 1.0)),
    "transport-beta-str": (DomainError, lambda: transport_beta("a", 3)),
    "transport-beta-omega-t-inf": (DomainError, lambda: transport_beta(0.5, np.inf)),
    "leading-term-hess-nan": (DomainError, lambda: spa_leading_term(1, 0, np.nan, 2, 1.0)),
    "leading-term-hess-str": (DomainError, lambda: spa_leading_term(1, 0, "a", 2, 1.0)),
    "leading-term-omega-zero": (DomainError, lambda: spa_leading_term(1, 0, 1, 2, 0.0)),
    "spa-point-horizon-str": (DomainError, lambda: spa_evaluate(1, 0, SPA, t_horizon="a")),
    "spa-point-horizon-nan": (DomainError, lambda: spa_evaluate(1, 0, SPA, t_horizon=np.nan)),
    "sup-error-s-str": (DomainError, lambda: sup_error_at_omega(SPA, 50, 1, ["a"])),
    "sup-error-omega-str": (ValidationError, lambda: sup_error_at_omega(SPA, "a", 1, [0.0])),
    "bohmian-mass-nan": (DomainError,
                         lambda: bohmian_observables(cayley_klein(Spinor(0.6, 0.8)), np.nan)),
    # C_+ / x overflows at the smallest subnormal x.
    "barrier-x-overflow": (DomainError, lambda: barrier_check(barrier_curves(0.7), [1.0],
                                                              [5e-324, 1.0], [0.0])),
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


# Every argument with a lower bound, just past it: (class, op, call).  Each
# site raises the class it raised before its bound moved into as_real.
BELOW_ZERO = -5e-324
HALF_J0 = j0_first_zero() / 2
BOUND_CASES = {
    "quad-rel-tol": (ValidationError, ">", lambda: QuadConfig(rel_tol=0.0)),
    "quad-abs-tol": (ValidationError, ">", lambda: QuadConfig(abs_tol=0.0)),
    "quad-max-panels": (ValidationError, ">=", lambda: QuadConfig(max_panels=7)),
    "grid-t": (DomainError, ">=", lambda: evolve_exact_grid(BELOW_ZERO, [0.0], FIG3)),
    "point-t": (DomainError, ">=", lambda: evolve_exact(BELOW_ZERO, 0.0, FIG3)),
    "spherical-t": (DomainError, ">=", lambda: evolve_exact_spherical(BELOW_ZERO, 0.0, FIG3)),
    "density-t": (DomainError, ">=", lambda: integrate_density(BELOW_ZERO, FIG3)),
    "continuity-h": (DomainError, ">", lambda: continuity_residual(1.0, 0.0, FIG3, h=0.0)),
    "packet-mass": (ValidationError, ">=", lambda: _packet(mass=BELOW_ZERO)),
    "energy-eigen-mass": (ValidationError, ">", lambda: PacketParams.energy_eigen(1, 10, 0.0)),
    "macroscopic-omega": (ValidationError, ">", lambda: PacketParams.macroscopic(1, 1, 0.0)),
    "rescaled-length": (ValidationError, ">", lambda: FIG3.rescaled(0.0)),
    "momentum-quad-tol": (DomainError, ">", lambda: expected_momentum(PSI0, 0.0, 10.0, 18.0)),
    "momentum-half-width": (DomainError, ">", lambda: expected_momentum(PSI0, 1e-6, 0.0, 18.0)),
    "energy-quad-tol": (DomainError, ">", lambda: expected_energy(PSI0, 3.0, 0.0, 10.0, 18.0)),
    "spa-sigma": (ValidationError, ">", lambda: SpaParams(p0=1.0, sigma=0.0, omega=60.0)),
    "spa-omega": (ValidationError, ">", lambda: SpaParams(p0=1.0, sigma=0.2, omega=0.0)),
    "spa-point-t": (DomainError, ">", lambda: spa_evaluate(0.0, 0.0, SPA)),
    "error-bound-sigma": (ValidationError, ">", lambda: error_bound_shape(1, 1, 0.0, 1)),
    "error-bound-omega": (ValidationError, ">", lambda: error_bound_shape(1, 1, 1, 0.0)),
    "spa-velocity-t": (DomainError, ">=", lambda: spa_velocity_field(BELOW_ZERO, 0.0, SPA)),
    "trajectory-tol": (ValidationError, ">", lambda: _trajectory(0.3, tol=0.0)),
    "ensemble-t-final": (ValidationError, ">", lambda: run_ensemble(2, FIG3, 0.0)),
    "bifurcation-t-final": (ValidationError, ">", lambda: find_bifurcation(FIG3, 0.0, 1e-3)),
    "bifurcation-tol-s": (ValidationError, ">", lambda: find_bifurcation(FIG3, 8.0, 0.0)),
    "barrier-x": (DomainError, ">", lambda: barrier_check(barrier_curves(0.7), [1.0],
                                                          [1.0, 0.0], [0.0])),
    # The lower ends of the intervals.
    "packet-sigma": (ValidationError, ">=", lambda: _packet(sigma=1e-300)),
    "packet-theta0": (ValidationError, ">=", lambda: _packet(theta0=BELOW_ZERO)),
    "packet-omega0": (ValidationError, ">=", lambda: _packet(omega0=BELOW_ZERO)),
    "mixed-vartheta": (ValidationError, ">=",
                       lambda: PacketParams.mixed_energy_eigen(1, 10, 3, BELOW_ZERO)),
    "macroscopic-vartheta": (ValidationError, ">=",
                             lambda: PacketParams.macroscopic(1, 1, 60, BELOW_ZERO)),
    "spa-vartheta": (ValidationError, ">=",
                     lambda: SpaParams(p0=1.0, sigma=0.2, omega=60.0, vartheta=BELOW_ZERO)),
    "transport-alpha": (DomainError, ">", lambda: transport_beta(0.0, 10.0)),
    "transport-omega-t": (DomainError, ">", lambda: transport_beta(0.5, HALF_J0)),
    "spherical-cut": (DomainError, ">", lambda: spherical_cut(HALF_J0)),
    "error-scaling-omega-t": (ValidationError, ">", lambda: error_scaling(
        SPA, 0.01, [1, 2, 4, 8], np.linspace(-1.0, 1.0, 5))),
    "error-scaling-ladder": (ValidationError, ">", lambda: error_scaling(
        SPA, -1.0, [-10, -20, -40, -80], np.linspace(-1.0, 1.0, 5))),
    "continuity-t": (DomainError, ">=", lambda: continuity_residual(0.5, 0.0, FIG3, h=0.75)),
    "xy-velocity-theta0": (DomainError, ">", lambda: xy_ode_velocity(1.0, 1.0, 5e-324, 1.0)),
    "barrier-curves-theta0": (DomainError, ">", lambda: barrier_curves(5e-324)),
}


@pytest.mark.parametrize("case", sorted(BOUND_CASES))
def test_lower_bounds_have_one_message(case):
    expected, op, call = BOUND_CASES[case]
    with warnings.catch_warnings(record=True) as caught, pytest.raises(expected) as info:
        warnings.simplefilter("always")
        call()
    assert type(info.value) is expected
    assert f" must be {op} " in str(info.value)
    assert not caught


# Every argument with an upper bound, just past it.
ABOVE_PI = np.nextafter(np.pi, 4.0)
UPPER_BOUND_CASES = {
    "packet-sigma": (ValidationError, "<=", lambda: _packet(sigma=1e154)),
    "packet-theta0": (ValidationError, "<=", lambda: _packet(theta0=ABOVE_PI)),
    "packet-omega0": (ValidationError, "<", lambda: _packet(omega0=2 * np.pi)),
    "mixed-vartheta": (ValidationError, "<=",
                       lambda: PacketParams.mixed_energy_eigen(1, 10, 3, ABOVE_PI)),
    "macroscopic-vartheta": (ValidationError, "<=",
                             lambda: PacketParams.macroscopic(1, 1, 60, ABOVE_PI)),
    "spa-vartheta": (ValidationError, "<=",
                     lambda: SpaParams(p0=1.0, sigma=0.2, omega=60.0, vartheta=ABOVE_PI)),
    "transport-alpha": (DomainError, "<=", lambda: transport_beta(np.nextafter(1.0, 2.0), 10.0)),
    "xy-velocity-theta0": (DomainError, "<", lambda: xy_ode_velocity(1.0, 1.0, np.pi, 1.0)),
    "barrier-curves-theta0": (DomainError, "<", lambda: barrier_curves(np.pi)),
}


@pytest.mark.parametrize("case", sorted(UPPER_BOUND_CASES))
def test_upper_bounds_have_one_message(case):
    expected, op, call = UPPER_BOUND_CASES[case]
    with warnings.catch_warnings(record=True) as caught, pytest.raises(expected) as info:
        warnings.simplefilter("always")
        call()
    assert type(info.value) is expected
    assert f" must be {op} " in str(info.value)
    assert not caught


def test_interval_bounds_accept_the_bound():
    assert _packet(theta0=np.pi, omega0=0.0).theta0 == np.pi
    assert PacketParams.macroscopic(1, 1, 60, np.pi).theta0 == np.pi
    assert PacketParams.mixed_energy_eigen(1, 10, 3, np.pi).sigma == 1
    assert SpaParams(p0=1.0, sigma=0.2, omega=60.0, vartheta=np.pi).vartheta == np.pi
    assert transport_beta(1.0, 10.0) == j0_first_zero() ** 2 / 400
    spec = barrier_curves(1e-323)
    assert np.isfinite([spec.c_plus, spec.c_minus]).all()
    assert np.isfinite(continuity_residual(0.5, 0.0, FIG3, h=0.5))


def test_as_real_reports_the_largest_value_past_an_upper_bound():
    with pytest.raises(DomainError, match=r"^x must be < 1, got 3\.0$"):
        as_real([1.0, 3.0, 2.0], "x", below=1)
    with pytest.raises(ValidationError, match=r"^y must be <= 0\.5, got 0\.75$"):
        as_real(0.75, "y", scalar=True, error=ValidationError, at_least=0, at_most=0.5)
    # The lower bound is checked first.
    with pytest.raises(DomainError, match=r"^z must be >= 0, got -1\.0$"):
        as_real([-1.0, 9.0], "z", at_least=0, at_most=1)
    assert as_real([], "x", above=0, below=0).size == 0


def test_at_least_bounds_accept_the_bound():
    psi, err = evolve_exact_grid(0.0, [0.25], FIG3)
    assert (psi.minus[0], psi.plus[0]) == (PSI0(0.25).minus, PSI0(0.25).plus)
    assert err.tolist() == [[0.0], [0.0]]
    assert np.isfinite(spa_velocity_field(0.0, 0.0, SPA))
    assert _packet(mass=0.0).mass == 0.0
    assert QuadConfig(max_panels=8).max_panels == 8


def test_as_real_reports_the_smallest_value():
    with pytest.raises(DomainError, match=r"^x must be >= 0, got -2\.0$"):
        as_real([1.0, -2.0, -1.0], "x", at_least=0)
    with pytest.raises(ValidationError, match=r"^y must be > 1, got 1\.0$"):
        as_real(1, "y", scalar=True, error=ValidationError, above=1)
    assert as_real([], "x", above=0).size == 0


# Order comparisons kept as written in a raising ``if``; none is a range
# check on a real number the caller passes.
KEPT_BOUNDS = {
    # Integer checks: the seeds, --workers, the ensemble size, grid counts and shapes.
    ("cli.py", "seed < 0"), ("trajectories.py", "seed < 0"), ("cli.py", "args.workers < 1"),
    ("trajectories.py", "1 <= n <= MAX_ENSEMBLE_SIZE"), ("cli.py", "count < 1"),
    ("cli.py", "count > MAX_GRID_POINTS"), ("cli.py", "x.size * offsets.size > MAX_GRID_POINTS"),
    ("dirac_exact.py", "s_arr.ndim > 1"), ("spa.py", "ladder.size < 4"),
    # Preconditions on a packet whose numbers PacketParams has already checked
    # (the spherical route's mass, SpaParams.from_packet's mass).
    ("dirac_exact.py", "omega <= 0"), ("spa.py", "data.mass <= 0"),
    # An energy eigen-packet's angles equal the eigenspinor's, to 1e-12.
    ("packets.py", "abs(self.theta0 - expect[0]) > 1e-12"),
    ("packets.py", "abs(self.omega0 - expect[1]) > 1e-12"),
    # Order checks between two values: get_grid's two keys, two trajectories' spans.
    ("cli.py", "hi < lo"), ("trajectories.py", "t1 <= t0"),
}
_ORDER = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _hand_written_bounds(path: Path) -> list:
    """(file, comparison, line) of each order comparison in an ``if`` test that raises.

    The block raises ValidationError or DomainError directly; the comparison
    may be chained, negated, inside ``and``/``or`` or inside a call such as
    ``all(...)``, and either side may be any expression, such as ``j0 / 2``.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.If):
            continue
        raised = {stmt.exc.func.id for stmt in node.body if isinstance(stmt, ast.Raise)
                  and isinstance(stmt.exc, ast.Call) and isinstance(stmt.exc.func, ast.Name)}
        if not raised & {"ValidationError", "DomainError"}:
            continue
        found += [(path.name, ast.unparse(test), test.lineno) for test in ast.walk(node.test)
                  if isinstance(test, ast.Compare) and any(isinstance(op, _ORDER)
                                                           for op in test.ops)]
    return found


def test_no_hand_written_lower_bounds():
    # A bound on a caller's number, lower or upper, is as_real's above=,
    # at_least=, below= or at_most=, so that every violation is detected and
    # worded in one place.
    package = Path(diracflow.__file__).parent
    found = [site for path in sorted(package.glob("*.py")) for site in _hand_written_bounds(path)]
    assert not [site for site in found if site[:2] not in KEPT_BOUNDS], found
    # Each kept check is still there; one that goes leaves this list.
    assert {site[:2] for site in found} == KEPT_BOUNDS


def test_antipodal_clusters_at_overflowing_norms():
    # Each row is scaled by the power of two of its largest entry before its
    # norm, so rows whose squares overflow still normalise, with no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = antipodal_clusters([[1e200, 0.0, 0.0], [-1e200, 0.0, 0.0]])
    assert report["norms"].tolist() == [1e200, 1e200]
    assert report["n_clusters"] == 2
    assert [c.tolist() for c in report["centers"]] == [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]
    assert report["angular_radii"] == [0.0, 0.0]
    assert report["antipodal_angle"] == 0.0


def test_antipodal_cluster_centre_at_overflowing_sums():
    # Each cluster's rows are scaled by the power of two of their largest
    # entry before the mean, so rows whose sum overflows still give a centre.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = antipodal_clusters([[1.5e308, 0.0, 0.0], [1.5e308, 1e307, 0.0]])
    assert report["n_clusters"] == 1
    # The centre is along the rows' sum, (3, 0.1, 0) times 1e308.
    (center,) = report["centers"]
    angle = np.arctan2(0.1, 3.0)
    assert np.allclose(center, [np.cos(angle), np.sin(angle), 0.0], rtol=0, atol=1e-15)
    radius = max(angle, np.arctan2(1.0, 15.0) - angle)
    assert report["angular_radii"][0] == pytest.approx(radius, rel=1e-12)
