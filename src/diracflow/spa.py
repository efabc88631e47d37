"""Stationary-phase approximation of the evolved spinor and its diagnostics.

The approximation writes psi(t, s) as a combination of two Gaussian wave
packets

    phi_-+ = f(s -+ v0 t) e^{i omega (p0 s -+ E0 t)},
    E0 = sqrt(1 + p0^2),  v0 = p0 / E0,

with spinor weights determined by the mixing angle vartheta of the initial
data (cos(vartheta/2), sin(vartheta/2))^T f(s) e^{i omega p0 s}.  phi_- has
energy +E0 and travels with the momentum; phi_+ has energy -E0 and travels
against it.  The sup error of the approximation decays like omega^{-1/2}
(times a |p0|^5 e^{B t / sigma} prefactor), which ``error_scaling`` measures
against the exact Bessel-kernel solver, one omega rung after another.

Supporting pieces: the transport-cancellation root beta(alpha) solving
1 - J0(2 omega t sqrt(beta)) = alpha, the critical points y_+- of the
stereographic phase function with their Hessians and signatures, and the
generic leading-order stationary-phase term they assemble from.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from . import specfun
from .dirac_exact import QuadConfig, evolve_exact_grid
from .errors import DomainError, ValidationError, as_real
from .packets import PacketParams, Spinor, gaussian_amplitude

__all__ = [
    "SpaParams",
    "SpaResult",
    "PhaseDiagnostics",
    "ErrorScaling",
    "spa_weights",
    "spa_envelopes",
    "spa_spinor_grid",
    "spa_evaluate",
    "transport_beta",
    "phase_function",
    "phase_diagnostics",
    "spa_leading_term",
    "error_bound_shape",
    "error_scaling",
    "sup_error_at_omega",
]


@dataclass(frozen=True)
class SpaParams:
    """Macroscopic packet parameters entering the stationary-phase formulas."""

    p0: float
    sigma: float
    omega: float
    vartheta: float = 0.0

    def __post_init__(self):
        for name, bound in (("p0", None), ("sigma", 0), ("omega", 0), ("vartheta", None)):
            as_real(getattr(self, name), name, scalar=True, error=ValidationError, above=bound)
        if self.p0 == 0:
            raise ValidationError("p0 must be nonzero")
        if not np.isfinite(float(self.p0) * float(self.p0)):
            raise ValidationError(f"p0^2 must be a finite float (E0 = sqrt(1 + p0^2)), "
                                  f"got p0 = {self.p0!r}")
        if not (0.0 <= self.vartheta <= np.pi):
            raise ValidationError("vartheta must lie in [0, pi]")

    # Computed once per instance: cached_property stores into the instance
    # __dict__ directly, which a frozen dataclass allows.
    @cached_property
    def e0(self) -> float:
        return float(np.sqrt(1.0 + self.p0 * self.p0))

    @cached_property
    def v0(self) -> float:
        return float(self.p0 / np.sqrt(1.0 + self.p0 * self.p0))

    @classmethod
    def from_packet(cls, data: PacketParams) -> "SpaParams":
        """Map a packet (microscopic or macroscopic variables) to SPA parameters.

        Needs omega0 = 0 (the component-mixture family the approximation is
        stated for) and a nonzero mean momentum.
        """
        if data.omega0 != 0.0:
            raise ValidationError("SPA parameters require omega0 = 0 initial data")
        if data.mass <= 0:
            raise ValidationError("SPA parameters require mass > 0")
        if data.k0 == 0:
            raise ValidationError("SPA parameters require k0 != 0")
        return cls(p0=data.k0 / data.mass, sigma=data.sigma, omega=data.mass,
                   vartheta=data.theta0)

    def packet(self) -> PacketParams:
        """The initial data this approximation describes."""
        return PacketParams.macroscopic(self.sigma, self.p0, self.omega, self.vartheta)


@dataclass(frozen=True)
class SpaResult:
    """SPA value at one spacetime point.

    err_bound_scale carries the structural bound shape |p0|^5 e^{t/sigma} /
    sqrt(omega) with unit constants; fitted constants come from
    ``error_scaling`` runs (the underlying bound only asserts existence).
    """

    u: Spinor
    phi_minus: complex
    phi_plus: complex
    both_critical_points: bool
    err_bound_scale: float


@dataclass(frozen=True)
class PhaseDiagnostics:
    """Critical points of the stereographic phase with Hessian data (per unit t).

    hess_plus/hess_minus are the scalar h in D^2 phi(0, y_+-) = h * Identity.
    """

    y_plus: float
    y_minus: float
    hess_plus: float
    hess_minus: float
    sig_plus: int
    sig_minus: int


@dataclass(frozen=True)
class ErrorScaling:
    """Measured sup-error ladder and its log-log fit against omega."""

    omegas: Tuple[float, ...]
    sup_errors: Tuple[float, ...]
    slope: float
    intercept: float


# =============================================================================
# SPA evaluation
# =============================================================================

def spa_weights(p: SpaParams, both_critical_points: bool = True):
    """Spinor weights (A, B) so that U = A * phi_- + B * phi_+.

    With both critical points included this is the full mixed-data formula;
    otherwise the out-of-domain critical point's contribution to each
    descendant of the upper-component integral is dropped.
    """
    e0, p0 = p.e0, p.p0
    c = np.cos(p.vartheta / 2)
    s = np.sin(p.vartheta / 2)
    keep_minus_env = both_critical_points or p0 > 0
    keep_plus_env = both_critical_points or p0 < 0
    # (phi_- coeff, phi_+ coeff) of the four base approximations.
    u1m = (1.0, -1.0)
    u2p = (1.0, -1.0)
    u1p = ((e0 - p0) if keep_minus_env else 0.0, (e0 + p0) if keep_plus_env else 0.0)
    u2m = ((e0 + p0) if keep_minus_env else 0.0, (e0 - p0) if keep_plus_env else 0.0)
    a = np.array([s * u1m[0] + c * u2m[0], s * u1p[0] + c * u2p[0]]) / (2 * e0)
    b = np.array([s * u1m[1] + c * u2m[1], s * u1p[1] + c * u2p[1]]) / (2 * e0)
    # B = 0 for a +E energy eigen-packet (tan(vartheta) = 1 / p0); its
    # rounding would be a spurious phi_+ where phi_- underflows.
    if np.hypot(*b) <= 8 * np.finfo(float).eps * np.hypot(*a):
        b = np.zeros(2)
    return a, b


def spa_envelopes(t: float, s, p: SpaParams):
    """The two traveling packets (phi_minus, phi_plus) at (t, s)."""
    t, s = as_real(t, "t"), as_real(s, "s")
    f_m = gaussian_amplitude(p.sigma, s - p.v0 * t)
    f_p = gaussian_amplitude(p.sigma, s + p.v0 * t)
    phi_m = f_m * np.exp(1j * p.omega * (p.p0 * s - p.e0 * t))
    phi_p = f_p * np.exp(1j * p.omega * (p.p0 * s + p.e0 * t))
    return phi_m, phi_p


def has_both_critical_points(t: float, p: SpaParams) -> bool:
    return p.omega * t > specfun.j0_first_zero() * p.e0


def weighted_spinor(weights, phi_m, phi_p) -> Spinor:
    """U = A phi_- + B phi_+ for spinor weights (A, B) from ``spa_weights``."""
    a, b = weights
    return Spinor(minus=a[0] * phi_m + b[0] * phi_p, plus=a[1] * phi_m + b[1] * phi_p)


def spa_spinor_grid(t: float, s, p: SpaParams) -> Spinor:
    """Vectorized U(t, s) over an array of positions at one time, with that time's weights."""
    t = as_real(t, "t", scalar=True)
    return weighted_spinor(spa_weights(p, has_both_critical_points(t, p)), *spa_envelopes(t, s, p))


def spa_evaluate(t: float, s: float, p: SpaParams,
                 t_horizon: Optional[float] = None) -> SpaResult:
    """SPA spinor at a single point; warns outside the validity window.

    ``t_horizon`` is the experiment horizon T; the error bound is scoped to
    t in [|v0| T / 2, T], so values outside that window are flagged with a
    warning rather than rejected.
    """
    t, s = as_real(t, "t", scalar=True, above=0), as_real(s, "s", scalar=True)
    if t_horizon is not None:
        if not (abs(p.v0) * t_horizon / 2 <= t <= t_horizon):
            warnings.warn(
                f"t = {t:g} outside the SPA validity window "
                f"[{abs(p.v0) * t_horizon / 2:g}, {t_horizon:g}]",
                stacklevel=2,
            )
    u = spa_spinor_grid(t, s, p)
    phi_m, phi_p = spa_envelopes(t, s, p)
    return SpaResult(
        u=Spinor(minus=complex(u.minus), plus=complex(u.plus)),
        phi_minus=complex(phi_m),
        phi_plus=complex(phi_p),
        both_critical_points=has_both_critical_points(t, p),
        err_bound_scale=error_bound_shape(p.p0, t, p.sigma, p.omega),
    )


# =============================================================================
# Transport-cancellation root g(beta) = alpha
# =============================================================================

def transport_beta(alpha: float, omega_t: float) -> float:
    """Solve 1 - J0(2 * omega_t * sqrt(beta)) = alpha on (0, j0^2 / (4 omega_t^2)].

    Bisection; the returned beta satisfies |g(beta) - alpha| <= 1e-12 and is
    non-decreasing in alpha.
    """
    j0 = specfun.j0_first_zero()
    if not (0.0 < alpha <= 1.0):
        raise DomainError("alpha must lie in (0, 1]")
    if not (omega_t > j0 / 2):
        raise DomainError(f"omega_t must exceed j0/2 = {j0 / 2:.6f}")

    def g(beta):
        return 1.0 - specfun.bessel_j0(2.0 * omega_t * np.sqrt(beta))

    hi = j0 * j0 / (4.0 * omega_t * omega_t)
    if alpha >= g(hi):
        return hi
    lo = 0.0
    mid = 0.5 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = g(mid)
        if abs(val - alpha) <= 1e-14:
            break
        if val < alpha:
            lo = mid
        else:
            hi = mid
    return mid


# =============================================================================
# Phase geometry on the stereographic plane
# =============================================================================

def phase_function(x, y, s: float, t: float, p0: float):
    """Oscillatory phase p0*s - t*(p0*(r^2-1) + 2y)/(r^2+1), r^2 = x^2 + y^2."""
    r2 = np.asarray(x) ** 2 + np.asarray(y) ** 2
    return p0 * s - t * (p0 * (r2 - 1.0) + 2.0 * np.asarray(y)) / (r2 + 1.0)


def phase_diagnostics(p0: float) -> PhaseDiagnostics:
    """Critical points (0, y_+-), Hessian scalars per unit t, and signatures."""
    p0 = as_real(p0, "p0", scalar=True)
    if p0 == 0:
        raise DomainError("p0 = 0 degenerates the phase (no isolated critical points)")
    root = np.sqrt(p0 * p0 + 1.0)
    y_plus = p0 + root
    y_minus = p0 - root
    hess_plus = 1.0 / (root * (p0 + root) ** 2)
    hess_minus = -1.0 / (root * (p0 - root) ** 2)
    return PhaseDiagnostics(
        y_plus=float(y_plus),
        y_minus=float(y_minus),
        hess_plus=float(hess_plus),
        hess_minus=float(hess_minus),
        sig_plus=2,
        sig_minus=-2,
    )


def spa_leading_term(g_at_crit: complex, phase_at_crit: float, hess_det: float,
                     signature: int, omega: float, boundary: bool = False) -> complex:
    """Leading stationary-phase contribution of one critical point.

    g(x0) e^{i omega phi(x0)} e^{i sgn pi/4} / sqrt(|det Hess|) * 2 pi / omega;
    a critical point on the domain boundary contributes half this value.
    """
    if hess_det == 0:
        raise DomainError("degenerate critical point: zero Hessian determinant")
    if signature not in (-2, 0, 2):
        raise DomainError("signature must be one of -2, 0, 2")
    val = (g_at_crit * np.exp(1j * omega * phase_at_crit)
           * np.exp(1j * signature * np.pi / 4)
           / np.sqrt(abs(hess_det)) * (2 * np.pi / omega))
    return complex(0.5 * val if boundary else val)


# =============================================================================
# Empirical error scaling against the exact solver
# =============================================================================

def error_bound_shape(p0: float, t: float, sigma: float, omega: float) -> float:
    """The bound shape |p0|^5 * e^{t / sigma} / sqrt(omega), with unit constants."""
    t = as_real(t, "t", scalar=True)
    p0 = as_real(p0, "p0", scalar=True, error=ValidationError)
    sigma, omega = (as_real(x, name, scalar=True, error=ValidationError, above=0)
                    for x, name in ((sigma, "sigma"), (omega, "omega")))
    return float(abs(p0) ** 5 * np.exp(t / sigma) / np.sqrt(omega))


def sup_error_at_omega(params: SpaParams, omega: float, t: float, s_grid,
                       quad: QuadConfig = QuadConfig()) -> float:
    """sup over s_grid of |psi_exact - U| at one omega (spinor 2-norm pointwise)."""
    run = SpaParams(p0=params.p0, sigma=params.sigma, omega=float(omega),
                    vartheta=params.vartheta)
    psi, _ = evolve_exact_grid(t, np.asarray(s_grid, dtype=float), run.packet(), quad)
    u = spa_spinor_grid(t, np.asarray(s_grid, dtype=float), run)
    diff = np.sqrt(np.abs(psi.minus - u.minus) ** 2 + np.abs(psi.plus - u.plus) ** 2)
    return float(np.max(diff))


def error_scaling(params: SpaParams, t_fixed: float, omega_ladder: Sequence[float],
                  s_grid, quad: QuadConfig = QuadConfig(),
                  workers: int = 1) -> ErrorScaling:
    """Sup |psi_exact - U| over s_grid per omega, and the log-log slope.

    The ladder must be geometric with at least 4 points and every rung must
    satisfy omega * t > j0 * E0 so both critical points contribute.  Rungs
    evaluate one after another, in ladder order; ``workers`` is accepted for
    compatibility and has no effect.
    """
    ladder = as_real(omega_ladder, "omega ladder", error=ValidationError)
    t_fixed = as_real(t_fixed, "t_fixed", scalar=True, error=ValidationError)
    if ladder.ndim != 1 or ladder.size < 4:
        raise ValidationError("omega ladder needs at least 4 points")
    ladder = ladder.tolist()
    ratios = np.diff(np.log(ladder))
    if not np.allclose(ratios, ratios[0], rtol=1e-6, atol=1e-12):
        raise ValidationError("omega ladder must be geometric")
    j0 = specfun.j0_first_zero()
    e0 = params.e0
    for w in ladder:
        if not (w * t_fixed > j0 * e0):
            raise ValidationError(
                f"omega*t = {w * t_fixed:g} must exceed j0*E0 = {j0 * e0:g}")
    s_grid = as_real(s_grid, "s_grid")
    sups = [sup_error_at_omega(params, w, t_fixed, s_grid, quad) for w in ladder]
    slope, intercept = np.polyfit(np.log(ladder), np.log(sups), 1)
    return ErrorScaling(
        omegas=tuple(ladder),
        sup_errors=tuple(sups),
        slope=float(slope),
        intercept=float(intercept),
    )
