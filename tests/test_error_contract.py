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
from diracflow.errors import as_real

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


# Every argument with a lower bound, just past it: (class, op, call).  Each
# site raises the class it raised before its bound moved into as_real.
BELOW_ZERO = -5e-324
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


# Lower bounds kept as written: the integer seed and --workers checks, and
# preconditions on a packet whose numbers PacketParams has already checked
# (the spherical route's mass, SpaParams.from_packet's mass).
KEPT_BOUNDS = {("cli.py", "seed"), ("cli.py", "args.workers"), ("dirac_exact.py", "omega"),
               ("spa.py", "data.mass")}
_FLIPPED = {ast.Lt: ast.Gt, ast.LtE: ast.GtE, ast.Gt: ast.Lt, ast.GtE: ast.LtE}


def _is_number(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _hand_written_bounds(path: Path) -> list:
    """(file, name, line) of each ``if [not] name <op> number: raise`` lower-bound block.

    A name is a variable, an attribute or a call; the block raises
    ValidationError or DomainError where the name lies below the number.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.If):
            continue
        test, negated = node.test, False
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            test, negated = test.operand, True
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                and type(test.ops[0]) in _FLIPPED):
            continue
        (left, right), op = (test.left, test.comparators[0]), type(test.ops[0])
        if _is_number(left):
            (left, right), op = (right, left), _FLIPPED[op]
        if not (isinstance(left, (ast.Name, ast.Attribute, ast.Call)) and _is_number(right)):
            continue
        raised = {stmt.exc.func.id for stmt in node.body if isinstance(stmt, ast.Raise)
                  and isinstance(stmt.exc, ast.Call) and isinstance(stmt.exc.func, ast.Name)}
        below = op in ((ast.Gt, ast.GtE) if negated else (ast.Lt, ast.LtE))
        if below and raised & {"ValidationError", "DomainError"}:
            found.append((path.name, ast.unparse(left), node.lineno))
    return found


def test_no_hand_written_lower_bounds():
    # A lower bound on a caller's number is as_real's above= or at_least=,
    # so that every violation is detected and worded in one place.
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
