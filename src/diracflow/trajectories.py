"""Bohmian trajectories under the exact and stationary-phase velocity fields.

The guiding equation dq/dt = v(t, q) is integrated with an adaptive
embedded Runge-Kutta 5(4) scheme (scipy's RK45) with dense output.  Velocity
fields are supplied as handles so the expensive quadrature-backed exact
field and the closed-form SPA field share one integrator.

Ensembles draw initial positions from quantum equilibrium N(0, sigma^2) by
inverse CDF, with a per-trajectory seed derived from (seed, index), and
integrate the members in turn, so results are bit-identical for a seed.

The rescaled-ODE barrier analysis lives here too: the zero curve y0(x),
the hyperbola constants C_+- with their barrier curves B_+-(x) = C_+- / x,
and grid checks that the velocity sign is uniform beyond the barriers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import RK45, OdeSolution
from scipy.special import ndtri

from .dirac_exact import QuadConfig, evolve_exact, schrodinger_reference
from .errors import BracketingError, DomainError, IntegrationError, NodeError, ValidationError
from .packets import PacketParams, Spinor, cayley_klein_series
from .spa import SpaParams, spa_spinor_grid, spa_weights

__all__ = [
    "RIGHT",
    "LEFT",
    "UNRESOLVED",
    "Trajectory",
    "BarrierSpec",
    "EnsembleSummary",
    "SchrodingerField",
    "SpaVelocityField",
    "ExactVelocityField",
    "integrate_trajectory",
    "spa_velocity_field",
    "xy_ode_velocity",
    "barrier_curves",
    "barrier_check",
    "run_ensemble",
    "find_bifurcation",
    "trajectory_closeness",
    "cayley_klein_along",
    "antipodal_clusters",
]

RIGHT = "RIGHT"
LEFT = "LEFT"
UNRESOLVED = "UNRESOLVED"

# Densities below this fraction of the packet peak count as a node.
NODE_EPS = 1e-14
_LOG_TINY = -744.0  # ln(smallest positive subnormal double), roughly


@dataclass
class Trajectory:
    """Accepted RK steps with their velocities, and the stepper's dense output."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    q0: float
    classification: str = UNRESOLVED
    asymptotic_velocity: Optional[float] = None
    node_events: List[Tuple[float, float]] = field(default_factory=list)
    error: Optional[str] = None
    dense: Optional[object] = field(default=None, repr=False, compare=False)

    def position_at(self, t):
        if self.dense is None:
            raise IntegrationError(f"no dense output for failed trajectory: {self.error}")
        t_arr = np.asarray(t, dtype=float)
        vals = np.asarray(self.dense(t_arr))[0]
        return float(vals) if t_arr.ndim == 0 else vals


@dataclass(frozen=True)
class BarrierSpec:
    """Hyperbola constants for the rescaled guiding ODE at eigen angle theta0."""

    theta0: float
    c_plus: float
    c_minus: float

    def b_plus(self, x):
        return self.c_plus / np.asarray(x)

    def b_minus(self, x):
        return self.c_minus / np.asarray(x)


@dataclass(frozen=True)
class EnsembleSummary:
    n: int
    v0: float
    n_right: int
    n_left: int
    n_unresolved: int
    n_failed: int
    monotone: bool
    s0_estimate: Optional[float]
    s0_bracket: Optional[Tuple[float, float]] = None


# =============================================================================
# Velocity fields
# =============================================================================

class SchrodingerField:
    """Nonrelativistic reference field v = k0 + 4t(s - k0 t)/(1 + 4t^2)."""

    def __init__(self, k0: float):
        self.k0 = k0

    def __call__(self, t: float, s: float) -> float:
        _, _, v = schrodinger_reference(t, s, self.k0)
        return v


class SpaVelocityField:
    """Closed-form velocity of the SPA spinor, stable in the far Gaussian tails.

    Writing w = v0*t*s/sigma^2 and chi = 2*omega*E0*t, the velocity is a
    ratio of {e^w, e^-w, cos(chi)} combinations with constant weights, so it
    evaluates without forming the (under/overflowing) envelopes themselves.
    """

    def __init__(self, params: SpaParams):
        self.params = params
        a, b = spa_weights(params, both_critical_points=True)
        self._na = float(a[0] ** 2 + a[1] ** 2)
        self._nb = float(b[0] ** 2 + b[1] ** 2)
        self._nc = 2.0 * float(a[0] * b[0] + a[1] * b[1])
        self._da = float(a[0] ** 2 - a[1] ** 2)
        self._db = float(b[0] ** 2 - b[1] ** 2)
        self._dc = 2.0 * float(a[0] * b[0] - a[1] * b[1])

    def log_peak_density(self, t: float, s: float) -> float:
        p = self.params
        lead = -np.log(np.sqrt(2 * np.pi) * p.sigma)
        gm = -((s - p.v0 * t) ** 2) / (2 * p.sigma**2)
        gp = -((s + p.v0 * t) ** 2) / (2 * p.sigma**2)
        return lead + max(gm, gp)

    def __call__(self, t: float, s: float) -> float:
        p = self.params
        if self.log_peak_density(t, s) < _LOG_TINY:
            raise NodeError("both SPA envelopes underflow at this point")
        w = p.v0 * t * s / p.sigma**2
        if w > 350.0:
            return self._da / self._na
        if w < -350.0:
            return self._db / self._nb
        ew, emw = np.exp(w), np.exp(-w)
        cos_chi = np.cos(2 * p.omega * p.e0 * t)
        den = self._na * ew + self._nb * emw + self._nc * cos_chi
        if den <= 0:
            raise NodeError("SPA density vanishes at this point")
        return float((self._da * ew + self._db * emw + self._dc * cos_chi) / den)

    def spinor(self, t: float, s: float) -> Spinor:
        u = spa_spinor_grid(t, np.array([s]), self.params)
        return Spinor(minus=complex(u.minus[0]), plus=complex(u.plus[0]))


class ExactVelocityField:
    """Quadrature-backed velocity of the exact evolved spinor."""

    def __init__(self, data: PacketParams, quad: QuadConfig = QuadConfig(),
                 node_eps: float = NODE_EPS):
        self.data = data
        self.quad = quad
        # Peak of the initial density; the flow only spreads it.
        self.peak_density = 1.0 / np.sqrt(2 * np.pi * data.sigma**2)
        self.node_eps = node_eps

    def __call__(self, t: float, s: float) -> float:
        psi = self.spinor(t, s)
        rho = psi.density
        if rho < self.node_eps * self.peak_density:
            raise NodeError(f"density {rho:.3e} below node threshold")
        return float(psi.current / rho)

    def spinor(self, t: float, s: float) -> Spinor:
        return evolve_exact(t, s, self.data, self.quad).psi


def spa_velocity_field(t: float, s: float, p: SpaParams) -> float:
    """Velocity of the SPA spinor at (t, s); raises NodeError in the deep tails."""
    if t < 0:
        raise DomainError("t must be >= 0")
    return SpaVelocityField(p)(t, s)


def xy_ode_velocity(x, y, theta0: float, a_omega: float):
    """Right-hand side F(x, y) of the rescaled guiding ODE at eigen angle theta0.

    F = cos(theta0) tanh(x y - ln eta) + sin(theta0) sech(x y - ln eta) cos(a_omega x)
    with eta = tan(theta0 / 2); equal to the SPA velocity under
    x = sqrt(v0) t / sigma, y = sqrt(v0) s / sigma, a_omega = 2 sigma E0 omega / sqrt(v0).
    """
    if not (0.0 < theta0 < np.pi):
        raise DomainError("theta0 must lie in (0, pi)")
    u = np.asarray(x) * np.asarray(y) - np.log(np.tan(theta0 / 2))
    return np.cos(theta0) * np.tanh(u) + np.sin(theta0) * (1.0 / np.cosh(u)) * np.cos(
        a_omega * np.asarray(x))


# =============================================================================
# Guiding-equation integration
# =============================================================================

def integrate_trajectory(q0: float, t_span: Tuple[float, float],
                         velocity_field: Callable[[float, float], float],
                         tol: float = 1e-8) -> Trajectory:
    """Integrate dq/dt = v(t, q) adaptively; returns the accepted-step history.

    RK45 is first-same-as-last, so the velocity recorded at each accepted
    point is the one the stepper already evaluated there: the field is
    called once per stage and never again.  Node encounters (NodeError from
    the field) freeze the velocity to zero for that evaluation and are
    recorded as events; integration proceeds.
    """
    if tol <= 0:
        raise ValidationError("tol must be > 0")
    events: List[Tuple[float, float]] = []

    def rhs(t, y):
        try:
            return [velocity_field(t, y[0])]
        except NodeError:
            events.append((float(t), float(y[0])))
            return [0.0]

    t0, t1 = map(float, t_span)
    solver = RK45(rhs, t0, [q0], t1, rtol=tol, atol=tol)
    steps = [(t0, solver.y[0], solver.f[0])]
    pieces = []
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise IntegrationError(f"trajectory integration failed: {message}")
        steps.append((solver.t, solver.y[0], solver.f[0]))
        pieces.append(solver.dense_output())
    times, positions, velocities = map(np.array, zip(*steps))
    return Trajectory(times=times, positions=positions, velocities=velocities,
                      q0=float(q0), node_events=events, dense=OdeSolution(times, pieces))


def classify_trajectory(traj: Trajectory, v0: float, window_frac: float = 0.1,
                        tol: float = 0.02) -> Tuple[str, float]:
    """Windowed mean velocity over the trailing window, matched against +-v0."""
    t0, t1 = traj.times[0], traj.times[-1]
    tw = t1 - window_frac * (t1 - t0)
    if tw <= t0:
        return UNRESOLVED, float("nan")
    q_w = float(traj.position_at(tw))
    v_mean = (float(traj.positions[-1]) - q_w) / (t1 - tw)
    v0 = abs(v0)
    if abs(v_mean - v0) <= tol:
        return RIGHT, v_mean
    if abs(v_mean + v0) <= tol:
        return LEFT, v_mean
    return UNRESOLVED, v_mean


# =============================================================================
# Ensembles
# =============================================================================

def _draw_initial_position(seed: int, index: int, sigma: float) -> float:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    u = np.random.default_rng(ss).random()
    return float(sigma * ndtri(u))


def _make_field(data: PacketParams, field_mode: str, quad: Optional[QuadConfig]):
    mode = field_mode.upper()
    if mode == "SPA":
        return SpaVelocityField(SpaParams.from_packet(data))
    if mode == "EXACT":
        return ExactVelocityField(data, quad or QuadConfig())
    raise ValidationError(f"unknown field mode {field_mode!r} (use EXACT or SPA)")


def _reference_v0(data: PacketParams) -> float:
    return abs(data.k0) / np.sqrt(data.k0**2 + data.mass**2)


def run_ensemble(n: int, data: PacketParams, t_final: float,
                 field_mode: str = "SPA", seed: int = 0, workers: int = 1,
                 tol: float = 1e-8, quad: Optional[QuadConfig] = None):
    """Integrate n quantum-equilibrium trajectories; returns (trajectories, summary).

    Initial positions are i.i.d. N(0, sigma^2) drawn by inverse CDF with
    per-trajectory seeds derived from (seed, index).  Individual integrator
    failures are recorded on the trajectory and do not abort the run.
    Members run in turn in this process; ``workers`` has no effect.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if not (np.isfinite(t_final) and t_final > 0):
        raise ValidationError(f"t_final must be finite and > 0, got {t_final!r}")
    field_fn = _make_field(data, field_mode, quad)
    v0 = _reference_v0(data)
    trajectories = []
    for i in range(n):
        q0 = _draw_initial_position(seed, i, data.sigma)
        try:
            traj = integrate_trajectory(q0, (0.0, t_final), field_fn, tol=tol)
        except IntegrationError as exc:
            traj = Trajectory(times=np.array([0.0]), positions=np.array([q0]),
                              velocities=np.array([0.0]), q0=q0, error=str(exc))
        else:
            traj.classification, traj.asymptotic_velocity = classify_trajectory(traj, v0)
        trajectories.append(traj)
    return trajectories, summarize_ensemble(trajectories, v0, data.k0)


def summarize_ensemble(trajectories: Sequence[Trajectory], v0: float,
                       k0: float) -> EnsembleSummary:
    ok = [t for t in trajectories if t.error is None]
    counts = {RIGHT: 0, LEFT: 0, UNRESOLVED: 0}
    for t in ok:
        counts[t.classification] += 1
    resolved = sorted((t for t in ok if t.classification != UNRESOLVED),
                      key=lambda t: t.q0)
    monotone = True
    boundary = None
    seen_right = False
    for t in resolved:
        going_right = t.classification == RIGHT
        if seen_right and not going_right:
            monotone = False
        seen_right = seen_right or going_right
    bracket = None
    if monotone:
        lefts = [t.q0 for t in resolved if t.classification == LEFT]
        rights = [t.q0 for t in resolved if t.classification == RIGHT]
        if lefts and rights:
            bracket = (max(lefts), min(rights))
            boundary = 0.5 * (bracket[0] + bracket[1])
    return EnsembleSummary(
        n=len(trajectories),
        v0=v0,
        n_right=counts[RIGHT],
        n_left=counts[LEFT],
        n_unresolved=counts[UNRESOLVED],
        n_failed=len(trajectories) - len(ok),
        monotone=monotone,
        s0_estimate=boundary,
        s0_bracket=bracket,
    )


def find_bifurcation(data: PacketParams, t_final: float, tol_s: float,
                     field_mode: str = "SPA", bracket: Optional[Tuple[float, float]] = None,
                     tol: float = 1e-8, quad: Optional[QuadConfig] = None) -> float:
    """Bisect on q0 for the initial position separating LEFT from RIGHT escape."""
    if tol_s <= 0:
        raise ValidationError("tol_s must be > 0")
    field_fn = _make_field(data, field_mode, quad)
    v0 = _reference_v0(data)

    def classify(q0: float) -> str:
        horizon = t_final
        for _ in range(3):
            traj = integrate_trajectory(q0, (0.0, horizon), field_fn, tol=tol)
            cls, _ = classify_trajectory(traj, v0)
            if cls != UNRESOLVED:
                return cls
            horizon *= 2
        return UNRESOLVED

    lo, hi = bracket if bracket is not None else (-8 * data.sigma, 8 * data.sigma)
    cls_lo = classify(lo)
    cls_hi = classify(hi)
    if UNRESOLVED in (cls_lo, cls_hi) or cls_lo == cls_hi:
        raise BracketingError(
            f"no classification sign change over [{lo:g}, {hi:g}] "
            f"({cls_lo} vs {cls_hi})")
    while hi - lo > tol_s:
        mid = 0.5 * (lo + hi)
        cls_mid = classify(mid)
        if cls_mid == UNRESOLVED:
            raise BracketingError(f"classification unresolved at q0 = {mid:g}")
        if cls_mid == cls_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def trajectory_closeness(a: Trajectory, b: Trajectory) -> float:
    """Sup distance |q_a(t) - q_b(t)| over the shared time window (dense output)."""
    t0 = max(a.times[0], b.times[0])
    t1 = min(a.times[-1], b.times[-1])
    if t1 <= t0:
        raise DomainError("trajectories share no time window")
    grid = np.union1d(a.times, b.times)
    grid = grid[(grid >= t0) & (grid <= t1)]
    dense = np.linspace(t0, t1, 4 * grid.size + 1)
    ts = np.union1d(grid, dense)
    return float(np.max(np.abs(a.position_at(ts) - b.position_at(ts))))


# =============================================================================
# Barrier curves for the rescaled ODE
# =============================================================================

def barrier_curves(theta0: float) -> BarrierSpec:
    """Hyperbola constants C_+- with xy = C_+- barriers for eigen angle theta0.

    Evaluated through the stable form C_+- = ln tan(theta0/2) +-
    ln((1 + sin theta0)/|cos theta0|); at theta0 = pi/2 the constants
    diverge (the oscillatory term dominates at every y), and at pi/4 the
    upper hyperbola degenerates to xy = 0 exactly.
    """
    if not (0.0 < theta0 < np.pi):
        raise DomainError("theta0 must lie in (0, pi)")
    log_eta = np.log(np.tan(theta0 / 2))
    if theta0 == np.pi / 2:
        return BarrierSpec(theta0=theta0, c_plus=np.inf, c_minus=-np.inf)
    lever = np.log((1.0 + np.sin(theta0)) / abs(np.cos(theta0)))
    c_plus = 0.0 if theta0 == np.pi / 4 else float(log_eta + lever)
    return BarrierSpec(theta0=theta0, c_plus=c_plus, c_minus=float(log_eta - lever))


def barrier_check(spec: BarrierSpec, a_omegas: Sequence[float],
                  x_grid, offsets, slack: float = 1e-12) -> dict:
    """Sample F beyond the barrier curves and report any sign violations.

    Above B_+ F has the sign of cos(theta0), below B_- the opposite sign, so
    this checks sign(cos theta0) * F >= 0 on y >= B_+(x) and <= 0 on
    y <= B_-(x) across the given oscillation rates (phases of the cos term).
    """
    x = np.asarray(x_grid, dtype=float)
    if np.any(x <= 0):
        raise DomainError("barrier check needs x > 0")
    off = np.abs(np.asarray(offsets, dtype=float))
    orient = np.sign(np.cos(spec.theta0))
    report = {"n_checked": 0, "violations": 0, "worst": 0.0}
    for a_omega in a_omegas:
        y_hi = spec.b_plus(x)[None, :] + off[:, None]
        y_lo = spec.b_minus(x)[None, :] - off[:, None]
        f_hi = orient * xy_ode_velocity(x[None, :], y_hi, spec.theta0, a_omega)
        f_lo = orient * xy_ode_velocity(x[None, :], y_lo, spec.theta0, a_omega)
        report["n_checked"] += 2 * f_hi.size
        bad_hi = f_hi < -slack
        bad_lo = f_lo > slack
        report["violations"] += int(bad_hi.sum() + bad_lo.sum())
        worst = max(float(np.max(-f_hi, initial=0.0)), float(np.max(f_lo, initial=0.0)))
        report["worst"] = max(report["worst"], worst)
    return report


# =============================================================================
# Bloch data along trajectories
# =============================================================================

def cayley_klein_along(traj: Trajectory, spinor_field) -> dict:
    """Cayley-Klein series (R, Theta, Omega, Phi unwrapped) along a trajectory."""
    minus = np.empty(traj.times.size, dtype=complex)
    plus = np.empty(traj.times.size, dtype=complex)
    for i, (t, s) in enumerate(zip(traj.times, traj.positions)):
        psi = spinor_field(t, s)
        minus[i] = psi.minus
        plus[i] = psi.plus
    return cayley_klein_series(minus, plus)


def antipodal_clusters(vectors: np.ndarray, radius: float = 0.1) -> dict:
    """Split unit vectors into the two hemispheres of the first vector.

    Returns cluster centers, angular radii, and the angle between one center
    and the antipode of the other (clusters from a bifurcating ensemble
    should be antipodal within ``radius``).
    """
    vecs = np.asarray(vectors, dtype=float)
    norms = np.linalg.norm(vecs, axis=1)
    ref = vecs[0] / norms[0]
    side = vecs @ ref >= 0
    report = {"norms": norms, "n_clusters": int(side.any()) + int((~side).any())}
    centers = []
    radii = []
    for mask in (side, ~side):
        if not mask.any():
            continue
        center = vecs[mask].mean(axis=0)
        center = center / np.linalg.norm(center)
        cosines = np.clip((vecs[mask] / norms[mask, None]) @ center, -1.0, 1.0)
        centers.append(center)
        radii.append(float(np.max(np.arccos(cosines))))
    report["centers"] = centers
    report["angular_radii"] = radii
    if len(centers) == 2:
        cosang = np.clip(centers[0] @ (-centers[1]), -1.0, 1.0)
        report["antipodal_angle"] = float(np.arccos(cosang))
        report["antipodal"] = report["antipodal_angle"] <= radius
    return report
