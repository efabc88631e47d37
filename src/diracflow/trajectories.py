"""Bohmian trajectories under the exact and stationary-phase velocity fields.

The guiding equation dq/dt = v(t, q) is integrated with the Dormand-Prince
5(4) pair with dense output, in one array loop that steps every member of an
ensemble in lockstep; a single trajectory is the one-member case.  The loop
reproduces scipy's RK45 bit for bit: the same field calls, accepted steps,
dense output and failure message as ``RK45(rtol=tol, atol=tol)`` per member.
A field with ``velocities(t[], q[]) -> (v[], node_mask[])`` (the SPA field)
is called once per stage for all members; any other callable (the
quadrature-backed exact field, user functions) once per point.  A velocity
field's ``spinors(t[], q[])`` (``spinor(t, q)`` at one point) is the spinor
whose current over density is that velocity; the Bloch data come from it.

The SPA velocity is the rescaled guiding ODE's tanh/sech law, exact because
the SPA spinor weights are orthogonal: ``SpaVelocityField`` and
``xy_ode_velocity`` evaluate it through the one ``_guiding_velocity``.

Ensembles draw initial positions from quantum equilibrium N(0, sigma^2) by
inverse CDF, with a per-trajectory seed derived from (seed, index), so
results are bit-identical for a seed.

The RK45 tableau and dense output live here, so integrating a trajectory
imports nothing from ``scipy.integrate``; the draw's normal quantile is
``specfun.ndtri`` (Cephes, bit-identical to scipy's), so an ensemble imports
no scipy module unless its field takes the Bessel route.

The rescaled-ODE barrier analysis lives here too: the hyperbola constants
C_+- with their barrier curves B_+-(x) = C_+- / x, and grid checks that the
velocity sign is uniform beyond the barriers.  The zero curve y0(x) is
computed by the ``barriers`` command in ``cli``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .dirac_exact import QuadConfig, evolve_exact, schrodinger_reference
from .errors import (BracketingError, DomainError, IntegrationError, NodeError, ValidationError,
                     as_real)
from .packets import PacketParams, Spinor, cayley_klein_series
from .spa import SpaParams, spa_envelopes, spa_weights, weighted_spinor
from .specfun import ndtri

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
# Most members in one ensemble: each holds its step history and Bloch series,
# about 56 kB at peak in a FIG3 bloch run to t = 8.
MAX_ENSEMBLE_SIZE = 10**4
# Classification window (a fraction of the time span) and velocity tolerance.
_CLASSIFY_WINDOW = 0.1
_CLASSIFY_TOL = 0.02
# Largest angle from one cluster centre to the other's antipode.
_ANTIPODAL_RADIUS = 0.1
# How far past zero F may lie before a barrier check counts a violation.
_BARRIER_SLACK = 1e-12
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
        vals = self.dense(t_arr)
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
    """Velocity of the SPA spinor U = A phi_- + B phi_+: the rescaled guiding ODE's law.

    B is A = |A| (cos alpha, sin alpha) turned by a right angle, with
    cos(2 alpha) = v0 and sin(2 alpha) = 1 / E0.  So the density has no cross
    term and v = v0 tanh(u) -+ sech(u) cos(2 omega E0 t) / E0 exactly, with
    u = v0 t s / sigma^2 + ln(|A| / |B|) and the sign of -(A x B).  |B| is
    |A x B| / |A|, the part of B orthogonal to A (the rest is rounding); the
    envelopes are never formed, and |v| <= 1 by construction.
    """

    def __init__(self, params: SpaParams):
        self.params = params
        a, b = self._spinor_weights = spa_weights(params, both_critical_points=True)
        cross = float(a[0] * b[1] - a[1] * b[0])
        # A x B = 0 (B = 0, a +E energy eigen-packet) leaves phi_- alone: u = +inf, v = v0.
        self._u_shift = float(np.log(a @ a) - np.log(abs(cross))) if cross else np.inf
        self._sech_weight = -np.sign(cross) / params.e0
        self._sigma2 = params.sigma**2
        self._chi_rate = 2 * params.omega * params.e0
        # ln of the envelopes' common peak, 1 / (sqrt(2 pi) sigma).
        self._log_peak = -np.log(np.sqrt(2 * np.pi) * params.sigma)

    def velocities(self, t, s):
        """Velocities at the paired points (t[i], s[i]) of two 1-D arrays, and the node mask.

        A point is a node where both envelopes underflow; its velocity is 0.
        """
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        vt = self.params.v0 * t
        u = vt * s / self._sigma2 + self._u_shift
        v = _guiding_velocity(u, self.params.v0, self._sech_weight, np.cos(self._chi_rate * t))
        # Both envelopes underflow where the nearer packet center is too far.
        d = np.abs(s) - np.abs(vt)
        node = self._log_peak - d * d / (2 * self._sigma2) < _LOG_TINY
        if np.count_nonzero(node):
            v[node] = 0.0
        return v, node

    def __call__(self, t: float, s: float) -> float:
        v, node = self.velocities(np.array([t]), np.array([s]))
        if node[0]:
            raise NodeError("both SPA envelopes underflow at this point")
        return float(v[0])

    def spinors(self, t, s) -> Spinor:
        """The spinor at the paired points (t[i], s[i]), under the velocity's own weights."""
        return weighted_spinor(self._spinor_weights, *spa_envelopes(t, s, self.params))

    def spinor(self, t: float, s: float) -> Spinor:
        u = self.spinors(np.array([t]), np.array([s]))
        return Spinor(minus=complex(u.minus[0]), plus=complex(u.plus[0]))


class ExactVelocityField:
    """Quadrature-backed velocity of the exact evolved spinor."""

    def __init__(self, data: PacketParams, quad: QuadConfig = QuadConfig()):
        self.data = data
        self.quad = quad
        # Peak of the initial density; the flow only spreads it.
        self.peak_density = 1.0 / np.sqrt(2 * np.pi * data.sigma**2)

    def __call__(self, t: float, s: float) -> float:
        psi = self.spinor(t, s)
        rho = psi.density
        if rho < NODE_EPS * self.peak_density:
            raise NodeError(f"density {rho:.3e} below node threshold")
        return float(psi.velocity)

    def spinors(self, t, s) -> Spinor:
        """The spinor at the paired points (t[i], s[i]), one quadrature per point."""
        pairs = [(u.minus, u.plus) for u in map(self.spinor, t, s)]
        return Spinor(*np.array(pairs, dtype=complex).T)

    def spinor(self, t: float, s: float) -> Spinor:
        return evolve_exact(t, s, self.data, self.quad).psi


def spa_velocity_field(t: float, s: float, p: SpaParams) -> float:
    """Velocity of the SPA spinor at (t, s); raises NodeError in the deep tails."""
    t, s = as_real(t, "t", scalar=True, at_least=0), as_real(s, "s", scalar=True)
    return SpaVelocityField(p)(t, s)


def _guiding_velocity(u, v_inf, c, cos_phase):
    """v_inf tanh(u) + c sech(u) cos_phase, with sech(u) = 2 e^-|u| / (1 + e^-2|u|) finite."""
    e = np.exp(-np.abs(u))
    return v_inf * np.tanh(u) + c * (2 * e / (1 + e * e)) * cos_phase


def xy_ode_velocity(x, y, theta0: float, a_omega: float):
    """Right-hand side F(x, y) of the rescaled guiding ODE at eigen angle theta0.

    F = cos(theta0) tanh(x y - ln eta) + sin(theta0) sech(x y - ln eta) cos(a_omega x)
    with eta = tan(theta0 / 2); the same function as ``SpaVelocityField`` under
    x = sqrt(v0) t / sigma, y = sqrt(v0) s / sigma, a_omega = 2 sigma E0 omega / sqrt(v0).
    """
    if not (0.0 < theta0 / 2 and theta0 < np.pi):
        raise DomainError("theta0 must lie in (0, pi), with theta0 / 2 > 0")
    u = np.asarray(x) * np.asarray(y) - np.log(np.tan(theta0 / 2))
    return _guiding_velocity(u, np.cos(theta0), np.sin(theta0), np.cos(a_omega * np.asarray(x)))


# =============================================================================
# Guiding-equation integration
# =============================================================================

# scipy's RK45 (Dormand & Prince 1980; Hairer, Norsett & Wanner, Solving
# ODEs I, Sec. II.4): the step control is a transcription of its
# select_initial_step, rk_step and RungeKutta._step_impl.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_MIN_RTOL = 100 * np.finfo(float).eps


class _RK45:
    """scipy's RK45 tableau, written with its fraction literals so the doubles match."""

    error_estimator_order, n_stages = 4, 6
    C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
    A = np.array([[0, 0, 0, 0, 0], [1/5, 0, 0, 0, 0], [3/40, 9/40, 0, 0, 0],
                  [44/45, -56/15, 32/9, 0, 0], [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
                  [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
    B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
    E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
    # Shampine's dense output (Math. Comp. 46, 1986) at the optimum c_6.
    P = np.array([
        [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
        [0, 0, 0, 0],
        [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
        [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
        [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
        [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
        [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
    TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


class _DenseOutput:
    """A trajectory's dense output, evaluated as scipy's OdeSolution over RkDenseOutputs.

    Step j is y = ys[j] + h Q[j].(x, x^2, x^3, x^4) with x = (t - ts[j]) / h.  A time
    on a step boundary takes the lower-index step; an empty span is the constant ys[0].
    """

    def __init__(self, ts, ys, Q):
        self.ts, self.ys, self.Q = ts, ys, Q
        self.ascending = ts[-1] >= ts[0]
        self.ts_sorted, self.side = (ts, "left") if self.ascending else (ts[::-1], "right")

    def _step(self, j, t):
        h = self.ts[j + 1] - self.ts[j]
        p = np.cumprod(np.tile((t - self.ts[j]) / h, (4, 1) if t.ndim else 4), axis=0)
        # One (1, 4) dot per step, as scipy takes it, so the sums match bit for bit.
        return (h * np.dot(self.Q[j:j + 1], p))[0] + self.ys[j]

    def __call__(self, t):
        steps = len(self.Q)
        if not steps:
            return np.full(t.shape, self.ys[0])
        order = np.argsort(t.ravel())
        t_sorted = t.ravel()[order]
        j = np.clip(np.searchsorted(self.ts_sorted, t_sorted, side=self.side) - 1, 0, steps - 1)
        j = j if self.ascending else steps - 1 - j
        if not t.ndim:
            return self._step(j[0], t)
        out = np.empty(t.size)
        starts = np.flatnonzero(np.diff(j, prepend=-1))
        for a, b in zip(starts, [*starts[1:], t.size]):
            out[order[a:b]] = self._step(j[a], t_sorted[a:b])
        return out


def _rms(x):
    """scipy's RMS norm of a one-component state, member by member."""
    return np.sqrt(x * x)


def _pow(x, exponent: float):
    """libm's pow elementwise, as scipy's scalar step control computes it."""
    return np.array([math.pow(v, exponent) for v in x.tolist()])


def _integrate_members(q0s, t_span: Tuple[float, float], velocity_field,
                       tol: float) -> list:
    """Step every initial position in lockstep with scipy's RK45 arithmetic.

    Each member keeps its own t, step size, rejection flag and history and
    sees exactly what ``RK45(rtol=tol, atol=tol)`` does for it alone: the
    same field calls in the same order, accepted steps, dense output and
    too-small-step failure.  Every sum is a stacked product, so each
    member's sum is the same BLAS dot product as scipy's.  Returns, per
    member, its Trajectory or the IntegrationError that stopped it; the
    other members carry on.
    """
    t0, t1 = (as_real(x, "t_span", scalar=True, error=ValidationError) for x in t_span)
    as_real(tol, "tol", scalar=True, error=ValidationError, above=0)
    q0s = as_real(q0s, "initial positions", error=ValidationError)
    atol = rtol = tol
    exponent = 1 / (_RK45.error_estimator_order + 1)
    if tol < _MIN_RTOL:
        warnings.warn(f"tol = {tol:g} is below 100 machine epsilons; the relative "
                      f"tolerance is raised to {_MIN_RTOL:.3g}", stacklevel=3)
        rtol = _MIN_RTOL
    n = q0s.size
    direction = np.sign(t1 - t0) if t1 != t0 else 1.0
    events: List[list] = [[] for _ in range(n)]
    errors: list = [None] * n
    batch = getattr(velocity_field, "velocities", None)

    def evaluate(t, q, failed):
        """One stage's velocities at (t[i], q[i]) of the stepping members ``ids``.

        A field with ``velocities(t[], q[]) -> (v[], node_mask[])`` takes
        all points in one call.  Any other callable goes point by point:
        NodeError gives velocity 0; IntegrationError fails that member
        alone, marks it in ``failed`` and skips it for the rest of the
        round.  Node points are appended to their member's events.
        """
        if batch is not None:
            v, node = batch(t, q)
        else:
            v = np.zeros(t.size)
            node = np.zeros(t.size, dtype=bool)
            for k in np.flatnonzero(~failed):
                try:
                    v[k] = velocity_field(t[k], q[k])
                except NodeError:
                    node[k] = True
                except IntegrationError as exc:
                    errors[ids[k]] = exc
                    failed[k] = True
        if np.count_nonzero(node):
            for k in np.flatnonzero(node):
                events[ids[k]].append((float(t[k]), float(q[k])))
        return v

    ids = np.arange(n)
    failed = np.zeros(n, dtype=bool)
    y0 = q0s.copy()
    f0 = evaluate(np.full(n, t0), y0, failed)
    if t0 == t1:
        return [errors[i] or Trajectory(
            times=np.array([t0, t0]), positions=y0[[i, i]], velocities=f0[[i, i]],
            q0=float(q0s[i]), node_events=events[i],
            dense=_DenseOutput(np.array([t0, t0]), y0[[i, i]], np.empty((0, 4))))
            for i in range(n)]

    # select_initial_step; Python's min and max keep the first of equals.
    span = abs(t1 - t0)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.where(span < h0, span, h0)
        f1 = evaluate(t0 + h0 * direction, y0 + h0 * direction * f0, failed)
        d2 = _rms((f1 - f0) / scale) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                      np.where(h0 * 1e-3 > 1e-6, h0 * 1e-3, 1e-6),
                      _pow(0.01 / np.where(d2 > d1, d2, d1), exponent))
    h_abs = np.where(h1 < 100 * h0, h1, 100 * h0)
    h_abs = np.where(span < h_abs, span, h_abs)

    # The members still stepping and their state, compacted as they leave.
    keep = ~failed
    ids, t, y, f, h_abs = ids[keep], np.full(n, t0)[keep], y0[keep], f0[keep], h_abs[keep]
    rejected = np.zeros(ids.size, dtype=bool)
    history = [(np.empty(0, dtype=int), *np.empty((3, 0)), np.empty((0, _RK45.n_stages + 1)))]
    K = np.empty((n, _RK45.n_stages + 1))
    while ids.size:
        # A non-finite velocity at the start makes a NaN step size, which no
        # retry would ever shrink below min_step: the member fails here.
        failed = ~np.isfinite(h_abs)
        for k in np.flatnonzero(failed):
            errors[ids[k]] = IntegrationError(
                f"trajectory integration failed: non-finite velocity {float(f[k])} "
                f"at t = {float(t[k])}, q = {float(y[k])}")
        # A step starts at least at min_step; a rejected retry below it fails.
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        small = h_abs < min_step
        if np.count_nonzero(small):
            h_abs = np.where(small & ~rejected, min_step, h_abs)
            too_small = small & rejected
            failed |= too_small
            for i in ids[too_small]:
                errors[i] = IntegrationError(
                    f"trajectory integration failed: {_RK45.TOO_SMALL_STEP}")
        t_new = t + h_abs * direction
        past = direction * (t_new - t1) > 0
        if np.count_nonzero(past):
            t_new[past] = t1
        h = t_new - t
        h_abs = np.abs(h)
        stage_t = t + np.multiply.outer(_RK45.C, h)  # row s: t + C[s] h; C[-1] = 1
        k = K[:ids.size]
        k[:, 0] = f
        for s in range(1, _RK45.n_stages):
            dy = np.matmul(k[:, None, :s], _RK45.A[s, :s])[:, 0] * h
            k[:, s] = evaluate(stage_t[s], y + dy, failed)
        y_new = y + h * np.matmul(k[:, None, :-1], _RK45.B)[:, 0]
        k[:, -1] = f_new = evaluate(stage_t[-1], y_new, failed)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        error_norm = _rms(np.matmul(k[:, None, :], _RK45.E)[:, 0] * h / scale)
        accept = (error_norm < 1) & ~failed
        zero = error_norm == 0
        factor = _SAFETY * _pow(np.where(zero, 1.0, error_norm), -exponent)
        # fmin and fmax pick the number over a NaN, as Python's min and max do here.
        grow = np.where(zero, _MAX_FACTOR, np.fmin(factor, _MAX_FACTOR))
        grow = np.where(rejected, np.fmin(grow, 1.0), grow)
        h_abs = h_abs * np.where(accept, grow, np.fmax(factor, _MIN_FACTOR))
        rejected = ~accept
        if np.count_nonzero(rejected):
            history.append((ids[accept], t_new[accept], y_new[accept], f_new[accept],
                            k[accept]))
            t = np.where(accept, t_new, t)
            y = np.where(accept, y_new, y)
            f = np.where(accept, f_new, f)
        else:
            history.append((ids, t_new, y_new, f_new, k.copy()))
            t, y, f = t_new, y_new, f_new
        # t_new never passes t1, so a member is done when it lands on t1.
        leave = failed | (accept & (t_new == t1))
        if np.count_nonzero(leave):
            keep = ~leave
            ids, t, y, f, h_abs, rejected = (
                x[keep] for x in (ids, t, y, f, h_abs, rejected))

    # Each member's accepted steps, in order, with their dense-output rows.
    member, times, positions, velocities, stages = (np.concatenate(c) for c in zip(*history))
    q = np.matmul(stages[:, None, :], _RK45.P)[:, 0]
    order = np.argsort(member, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(member, minlength=n))))
    results = []
    for i in range(n):
        if errors[i] is not None:
            results.append(errors[i])
            continue
        rows = order[bounds[i]:bounds[i + 1]]
        ts = np.concatenate(([t0], times[rows]))
        ys = np.concatenate((y0[i:i + 1], positions[rows]))
        results.append(Trajectory(
            times=ts, positions=ys, velocities=np.concatenate((f0[i:i + 1], velocities[rows])),
            q0=float(q0s[i]), node_events=events[i], dense=_DenseOutput(ts, ys, q[rows])))
    return results


def integrate_trajectory(q0: float, t_span: Tuple[float, float],
                         velocity_field: Callable[[float, float], float],
                         tol: float = 1e-8) -> Trajectory:
    """Integrate dq/dt = v(t, q) adaptively; returns the accepted-step history.

    The one-member case of the ensemble loop, so it matches scipy's RK45 bit
    for bit.  RK45 is first-same-as-last, so the velocity recorded at each
    accepted point is the one the stepper already evaluated there: the field
    is called once per stage and never again.  Node encounters (NodeError
    from the field) freeze the velocity to zero for that evaluation and are
    recorded as events; integration proceeds.
    """
    q0 = as_real(q0, "q0", scalar=True, error=ValidationError)
    (result,) = _integrate_members([q0], t_span, velocity_field, tol)
    if isinstance(result, IntegrationError):
        raise result
    return result


def classify_trajectory(traj: Trajectory, v0: float) -> Tuple[str, float]:
    """Windowed mean velocity over the trailing window, matched against +-v0."""
    t0, t1 = traj.times[0], traj.times[-1]
    tw = t1 - _CLASSIFY_WINDOW * (t1 - t0)
    if tw <= t0:
        return UNRESOLVED, float("nan")
    q_w = float(traj.position_at(tw))
    v_mean = (float(traj.positions[-1]) - q_w) / (t1 - tw)
    v0 = abs(v0)
    if abs(v_mean - v0) <= _CLASSIFY_TOL:
        return RIGHT, v_mean
    if abs(v_mean + v0) <= _CLASSIFY_TOL:
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
    """The packets' group speed |k0| / sqrt(k0^2 + m^2); the square sum must be a finite float."""
    try:
        energy_sq = data.k0**2 + data.mass**2
    except OverflowError:
        energy_sq = math.inf
    if not math.isfinite(energy_sq):
        raise ValidationError(f"k0^2 + mass^2 must be finite, got k0 = {data.k0!r}, "
                              f"mass = {data.mass!r}")
    return abs(data.k0) / np.sqrt(energy_sq)


def run_ensemble(n: int, data: PacketParams, t_final: float,
                 field_mode: str = "SPA", seed: int = 0, workers: int = 1,
                 tol: float = 1e-8, quad: Optional[QuadConfig] = None):
    """Integrate n quantum-equilibrium trajectories; returns (trajectories, summary).

    Initial positions are i.i.d. N(0, sigma^2) drawn by inverse CDF with
    per-trajectory seeds derived from (seed, index); the seed is a
    non-negative integer and n is at most ``MAX_ENSEMBLE_SIZE``.  All
    members step in one lockstep loop in this process; ``workers`` has no
    effect.  Individual integrator failures are recorded on the trajectory
    and do not abort the run.
    """
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= MAX_ENSEMBLE_SIZE:
        raise ValidationError(f"n must lie in [1, {MAX_ENSEMBLE_SIZE}], got {n!r}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    as_real(t_final, "t_final", scalar=True, error=ValidationError, above=0)
    v0 = _reference_v0(data)
    field_fn = _make_field(data, field_mode, quad)
    q0s = [_draw_initial_position(seed, i, data.sigma) for i in range(n)]
    trajectories = []
    for q0, traj in zip(q0s, _integrate_members(q0s, (0.0, t_final), field_fn, tol)):
        if isinstance(traj, IntegrationError):
            traj = Trajectory(times=np.array([0.0]), positions=np.array([q0]),
                              velocities=np.array([0.0]), q0=q0, error=str(traj))
        else:
            traj.classification, traj.asymptotic_velocity = classify_trajectory(traj, v0)
        trajectories.append(traj)
    return trajectories, summarize_ensemble(trajectories, v0)


def summarize_ensemble(trajectories: Sequence[Trajectory], v0: float) -> EnsembleSummary:
    """Counts per class and, when every LEFT q0 lies below every RIGHT q0, the s0 bracket."""
    ok = [t for t in trajectories if t.error is None]
    lefts = [t.q0 for t in ok if t.classification == LEFT]
    rights = [t.q0 for t in ok if t.classification == RIGHT]
    bracket = (max(lefts), min(rights)) if lefts and rights else None
    monotone = bracket is None or bracket[0] < bracket[1]
    return EnsembleSummary(
        n=len(trajectories),
        v0=v0,
        n_right=len(rights),
        n_left=len(lefts),
        n_unresolved=len(ok) - len(lefts) - len(rights),
        n_failed=len(trajectories) - len(ok),
        monotone=monotone,
        s0_estimate=0.5 * (bracket[0] + bracket[1]) if monotone and bracket else None,
        s0_bracket=bracket if monotone else None,
    )


def find_bifurcation(data: PacketParams, t_final: float, tol_s: float,
                     field_mode: str = "SPA", bracket: Optional[Tuple[float, float]] = None,
                     tol: float = 1e-8, quad: Optional[QuadConfig] = None) -> float:
    """Bisect on q0 for the initial position separating LEFT from RIGHT escape.

    A point still UNRESOLVED at ``t_final`` is integrated again to twice,
    then four times, that horizon.  One lockstep call classifies both
    bracket ends, and each later call a midpoint together with the two
    points the next step may visit, so it covers two bisection levels.
    Members do not affect each other in the loop, so the result is that of
    bisecting one trajectory at a time, and a point bisection does not
    visit raises nothing.
    """
    for x, name in ((t_final, "t_final"), (tol_s, "tol_s")):
        as_real(x, name, scalar=True, error=ValidationError, above=0)
    v0 = _reference_v0(data)
    field_fn = _make_field(data, field_mode, quad)

    def classify(q0s: list) -> dict:
        """Each point's class, or the IntegrationError that stopped it."""
        found = {}
        pending = q0s
        horizon = t_final
        for _ in range(3):
            trajs = _integrate_members(pending, (0.0, horizon), field_fn, tol)
            for q0, traj in zip(pending, trajs):
                found[q0] = (traj if isinstance(traj, IntegrationError)
                             else classify_trajectory(traj, v0)[0])
            pending = [q0 for q0 in pending if found[q0] == UNRESOLVED]
            if not pending:
                break
            horizon *= 2
        return found

    def known(cls):
        """A visited point's class; its IntegrationError is raised only now."""
        if isinstance(cls, IntegrationError):
            raise cls
        return cls

    lo, hi = bracket if bracket is not None else (-8 * data.sigma, 8 * data.sigma)
    found = classify([lo, hi])
    cls_lo = known(found[lo])
    cls_hi = known(found[hi])
    if UNRESOLVED in (cls_lo, cls_hi) or cls_lo == cls_hi:
        raise BracketingError(
            f"no classification sign change over [{lo:g}, {hi:g}] "
            f"({cls_lo} vs {cls_hi})")
    while hi - lo > tol_s:
        mid = 0.5 * (lo + hi)
        if mid not in found:
            found = classify([mid] + [0.5 * (a + b) for a, b in ((lo, mid), (mid, hi))
                                      if b - a > tol_s])
        cls_mid = known(found[mid])
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
    if not (0.0 < theta0 / 2 and theta0 < np.pi):
        raise DomainError("theta0 must lie in (0, pi), with theta0 / 2 > 0")
    log_eta = np.log(np.tan(theta0 / 2))
    if theta0 == np.pi / 2:
        return BarrierSpec(theta0=theta0, c_plus=np.inf, c_minus=-np.inf)
    lever = np.log((1.0 + np.sin(theta0)) / abs(np.cos(theta0)))
    c_plus = 0.0 if theta0 == np.pi / 4 else float(log_eta + lever)
    return BarrierSpec(theta0=theta0, c_plus=c_plus, c_minus=float(log_eta - lever))


def barrier_check(spec: BarrierSpec, a_omegas: Sequence[float],
                  x_grid, offsets) -> dict:
    """Sample F beyond the barrier curves and report any sign violations.

    Above B_+ F has the sign of cos(theta0), below B_- the opposite sign, so
    this checks sign(cos theta0) * F >= 0 on y >= B_+(x) and <= 0 on
    y <= B_-(x) across the given oscillation rates (phases of the cos term).
    """
    x = as_real(x_grid, "x_grid", above=0)
    off = np.abs(as_real(offsets, "offsets"))
    a_omegas = as_real(a_omegas, "a_omegas")
    if a_omegas.ndim != 1:
        raise DomainError(f"a_omegas must be a 1-D array, got shape {a_omegas.shape}")
    orient = np.sign(np.cos(spec.theta0))
    report = {"n_checked": 0, "violations": 0, "worst": 0.0}
    for a_omega in a_omegas:
        y_hi = spec.b_plus(x)[None, :] + off[:, None]
        y_lo = spec.b_minus(x)[None, :] - off[:, None]
        f_hi = orient * xy_ode_velocity(x[None, :], y_hi, spec.theta0, a_omega)
        f_lo = orient * xy_ode_velocity(x[None, :], y_lo, spec.theta0, a_omega)
        report["n_checked"] += 2 * f_hi.size
        bad_hi = f_hi < -_BARRIER_SLACK
        bad_lo = f_lo > _BARRIER_SLACK
        report["violations"] += int(bad_hi.sum() + bad_lo.sum())
        worst = max(float(np.max(-f_hi, initial=0.0)), float(np.max(f_lo, initial=0.0)))
        report["worst"] = max(report["worst"], worst)
    return report


# =============================================================================
# Bloch data along trajectories
# =============================================================================

def cayley_klein_along(traj: Trajectory, spinors) -> dict:
    """Cayley-Klein series (R, Theta, Omega, Phi unwrapped) along a trajectory.

    ``spinors(t[], q[]) -> Spinor`` is a field's paired-point spinor, such as
    ``field.spinors``, called once with every accepted (t, q) of the trajectory.
    """
    u = spinors(traj.times, traj.positions)
    return cayley_klein_series(u.minus, u.plus)


def _norm(vecs: np.ndarray, axis=None):
    """``np.linalg.norm(vecs, axis=axis)`` with no overflow in the squares.

    Each vector is divided first by the power of two of its largest entry,
    exactly, so a norm that does not overflow is the unscaled one bit for bit.
    """
    exp = np.frexp(np.max(np.abs(vecs), axis=axis, keepdims=True))[1]
    return np.ldexp(np.linalg.norm(np.ldexp(vecs, -exp), axis=axis), exp[..., 0])


def antipodal_clusters(vectors: np.ndarray) -> dict:
    """Split unit vectors into the two hemispheres of the first vector.

    Returns cluster centers, angular radii, and the angle between one center
    and the antipode of the other (clusters from a bifurcating ensemble
    should be antipodal within ``_ANTIPODAL_RADIUS``).
    """
    vecs = as_real(vectors, "vectors")
    if vecs.ndim != 2 or not len(vecs):
        raise DomainError(f"vectors must be a non-empty 2-D array, got shape {vecs.shape}")
    norms = _norm(vecs, axis=1)
    if not norms.all():
        raise DomainError("vectors must have non-zero norms")
    ref = vecs[0] / norms[0]
    side = vecs @ ref >= 0
    report = {"norms": norms, "n_clusters": int(side.any()) + int((~side).any())}
    centers = []
    radii = []
    for mask in (side, ~side):
        if not mask.any():
            continue
        # Scaled as in _norm, so that the sum cannot overflow.
        center = np.ldexp(vecs[mask], -np.frexp(np.max(np.abs(vecs[mask])))[1]).mean(axis=0)
        center = center / _norm(center)
        cosines = np.clip((vecs[mask] / norms[mask, None]) @ center, -1.0, 1.0)
        centers.append(center)
        radii.append(float(np.max(np.arccos(cosines))))
    report["centers"] = centers
    report["angular_radii"] = radii
    if len(centers) == 2:
        cosang = np.clip(centers[0] @ (-centers[1]), -1.0, 1.0)
        report["antipodal_angle"] = float(np.arccos(cosang))
        report["antipodal"] = report["antipodal_angle"] <= _ANTIPODAL_RADIUS
    return report
