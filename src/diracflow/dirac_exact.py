"""Exact evolution of free 1D Dirac spinor packets, plus the nonrelativistic reference.

Two independent evaluation routes are provided:

* ``evolve_exact`` integrates the Bessel-kernel representation of the
  solution.  The substitution ``sigma = s - t*cos(theta)`` removes the
  square-root endpoint singularity of the J1 kernel, leaving smooth
  oscillatory integrands over theta in [0, pi]:

      psi_-(t,s) = psi0_-(s-t) - (w*t/2) Int J1(w*t*sin)(1+cos) psi0_-(s-t*cos)
                                 - (i*w*t/2) Int J0(w*t*sin) sin psi0_+(s-t*cos)
      psi_+(t,s) = psi0_+(s+t) - (w*t/2) Int J1(w*t*sin)(1-cos) psi0_+(s-t*cos)
                                 - (i*w*t/2) Int J0(w*t*sin) sin psi0_-(s-t*cos)

  with w = mass (microscopic) or the large parameter omega (macroscopic;
  the rescaling is a pure reparametrization of PacketParams).

* ``evolve_exact_spherical`` rewrites the kernels through their integral
  representation as a 2D quadrature over the unit sphere, with the polar
  cap theta > theta0 (the disk r < R after stereographic projection)
  removed from the psi_+ domain.  The removed cap exactly cancels the
  transport term up to a narrow remainder integral, which is evaluated
  explicitly so the two routes agree to quadrature tolerance.

The grid evaluator shares one theta quadrature across every requested s,
so field evaluation over (t, s) grids vectorizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Tuple

import numpy as np

from . import specfun
from .errors import DomainError, ValidationError
from .packets import PacketParams, Spinor, gaussian_amplitude, spinor_amplitudes
from .quadrature import integrate_panels

__all__ = [
    "QuadConfig",
    "FieldSample",
    "evolve_exact",
    "evolve_exact_grid",
    "evolve_exact_spherical",
    "spherical_cut",
    "integrate_density",
    "continuity_residual",
    "schrodinger_reference",
    "schrodinger_trajectory",
]


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and oscillation handling for the kernel quadratures."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_panels: int = 2**20
    oscillation_guard: float = 8.0

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValidationError("tolerances must be > 0")
        if not (self.oscillation_guard >= 4):
            raise ValidationError("oscillation_guard must be >= 4")
        if not (self.max_panels >= 8):
            raise ValidationError("max_panels must be >= 8")


@dataclass(frozen=True)
class FieldSample:
    """The evolved spinor at one spacetime point with its quadrature error estimate."""

    t: float
    s: float
    psi: Spinor
    err_est: float


def _initial_panels(rate: float, length: float, q: QuadConfig) -> int:
    """Panels needed so each panel sees at most 2*pi/guard of phase."""
    return max(8, ceil(q.oscillation_guard * rate * length / (2 * np.pi)))


def _node_chunk(n_cols: int) -> int:
    # About 16k Gaussian-basis entries per integrand call keep the block in
    # cache, and keep the (6, N) @ (N, n_cols) product below the size at which
    # OpenBLAS starts threads (which cost more than they save on a busy machine).
    return max(16, 2**14 // max(1, n_cols))


# =============================================================================
# Bessel-kernel route
# =============================================================================

def evolve_exact_grid(t: float, s, data: PacketParams, q: QuadConfig = QuadConfig()):
    """Evaluate psi(t, s) on an array of positions; returns (Spinor, err[2, n]).

    One theta-quadrature is shared by all positions, so the cost is
    O(n_theta * n_s) with fully vectorized inner arithmetic.
    """
    if not (np.isfinite(t) and t >= 0):
        raise DomainError(f"t must be finite and >= 0, got {t!r}")
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.all(np.isfinite(s_arr)):
        raise DomainError("s must be finite")
    cm, cp = spinor_amplitudes(data)
    sigma, k0, omega = data.sigma, data.k0, data.mass

    def phi(x):
        return gaussian_amplitude(sigma, x) * np.exp(1j * k0 * x)

    transport_m = cm * phi(s_arr - t)
    transport_p = cp * phi(s_arr + t)
    if t == 0 or omega * t == 0:
        zeros = np.zeros((2, s_arr.size))
        return Spinor(minus=transport_m, plus=transport_p), zeros

    wt = omega * t

    # The plane wave factors out of psi0(s - t cos):
    # e^{i k0 (s - t cos)} = e^{i k0 s} e^{-i k0 t cos}, so each node's value is
    # a complex (3,) kernel times the real Gaussian row f_sigma(s - t cos),
    # and the theta sum is one real matrix product (see integrate_panels).
    def integrand(theta):
        ct = np.cos(theta)
        st = np.sin(theta)
        x = wt * st
        j1 = specfun.bessel_j1(x)
        kernel = np.empty((theta.size, 3), dtype=complex)
        kernel[:, 0] = j1 * (1 + ct)
        kernel[:, 1] = j1 * (1 - ct)
        kernel[:, 2] = specfun.bessel_j0(x) * st
        kernel *= np.exp(-1j * k0 * t * ct)[:, None]
        return kernel, gaussian_amplitude(sigma, s_arr[None, :] - t * ct[:, None])

    n0 = _initial_panels(rate=(omega + abs(k0)) * t, length=np.pi, q=q)
    value, err, _ = integrate_panels(
        integrand,
        0.0,
        np.pi,
        rel_tol=q.rel_tol,
        abs_tol=q.abs_tol / max(1.0, wt),
        initial_panels=n0,
        max_panels=q.max_panels,
        node_chunk=_node_chunk(s_arr.size),
    )
    a1m, a1p, a0 = value * np.exp(1j * k0 * s_arr)
    e1m, e1p, e0 = err
    psi_m = transport_m - 0.5 * wt * cm * a1m - 0.5j * wt * cp * a0
    psi_p = transport_p - 0.5 * wt * cp * a1p - 0.5j * wt * cm * a0
    err_m = 0.5 * wt * (abs(cm) * e1m + abs(cp) * e0)
    err_p = 0.5 * wt * (abs(cp) * e1p + abs(cm) * e0)
    return Spinor(minus=psi_m, plus=psi_p), np.stack([err_m, err_p])


def evolve_exact(t: float, s: float, data: PacketParams,
                 q: QuadConfig = QuadConfig()) -> FieldSample:
    """Exact evolved spinor at a single spacetime point."""
    psi, err = evolve_exact_grid(t, [s], data, q)
    return FieldSample(
        t=float(t),
        s=float(s),
        psi=Spinor(minus=complex(psi.minus[0]), plus=complex(psi.plus[0])),
        err_est=float(err[:, 0].sum()),
    )


# =============================================================================
# Spherical (2D quadrature) route
# =============================================================================

def spherical_cut(omega_t: float) -> Tuple[float, float]:
    """Polar cut angle theta0 and stereographic disk radius R for the psi_+ domain."""
    j0 = specfun.j0_first_zero()
    delta = 0.25 * j0 * j0
    if omega_t <= j0 / 2:
        raise DomainError(f"omega*t must exceed j0/2 = {j0 / 2:.6f} for the domain cut")
    theta0 = float(np.arccos(2 * delta / omega_t**2 - 1.0))
    radius = float(np.sqrt(delta) / np.sqrt(omega_t**2 - delta))
    return theta0, radius


def _phi_quad_points(omega_t: float) -> int:
    # Trapezoid in the periodic angle resolves Bessel orders up to ~omega*t.
    return int(omega_t + 20 * omega_t ** (1.0 / 3.0) + 60)


def _spherical_base(t, s_arr, p0, sigma, omega, q, n_phi):
    """Spinor components for base data (0, 1)^T f_sigma(s) e^{i omega p0 s}."""
    wt = omega * t
    theta0, _ = spherical_cut(wt)

    def phidat(x):
        return gaussian_amplitude(sigma, x) * np.exp(1j * omega * p0 * x)

    phi_nodes = -np.pi + (2 * np.pi / n_phi) * np.arange(n_phi)
    dphi = 2 * np.pi / n_phi
    e_iphi = np.exp(1j * phi_nodes)
    sin_phi = np.sin(phi_nodes)

    def inner(theta, with_phase):
        # Int over phi of e^{i phi?} e^{-i wt sin(theta) sin(phi)} d phi, per theta.
        osc = np.exp(-1j * wt * np.sin(theta)[:, None] * sin_phi[None, :])
        if with_phase:
            osc = osc * e_iphi[None, :]
        return dphi * osc.sum(axis=1)

    # The theta-chunk times n_phi drives peak memory here, not the s-grid.
    chunk = max(64, 2_000_000 // max(n_phi, 3 * s_arr.size))

    def integrand_minus(theta):
        g0 = inner(theta, with_phase=False)
        vals = phidat(s_arr[None, :] - t * np.cos(theta)[:, None])
        return (np.sin(theta) * g0)[:, None] * vals

    def integrand_plus(theta):
        g1 = inner(theta, with_phase=True)
        vals = phidat(s_arr[None, :] - t * np.cos(theta)[:, None])
        return ((1 - np.cos(theta)) * g1)[:, None] * vals

    rate = (omega * abs(p0) + omega) * t
    n0 = _initial_panels(rate, np.pi, q)
    i_minus, err_m, _ = integrate_panels(
        integrand_minus, 0.0, np.pi,
        rel_tol=q.rel_tol, abs_tol=q.abs_tol / max(1.0, wt),
        initial_panels=n0, max_panels=q.max_panels, node_chunk=chunk,
    )
    n0p = max(8, ceil(n0 * theta0 / np.pi))
    i_plus, err_p, _ = integrate_panels(
        integrand_plus, 0.0, theta0,
        rel_tol=q.rel_tol, abs_tol=q.abs_tol / max(1.0, wt),
        initial_panels=n0p, max_panels=q.max_panels, node_chunk=chunk,
    )

    # Transport remainder: the removed polar cap cancels the transport term
    # only up to this narrow kernel integral (the alpha = 1 split), which we
    # keep so the route is exact rather than accurate to O(1/(omega t)).
    def tail(theta):
        ct = np.cos(theta)
        st = np.sin(theta)
        j1 = specfun.bessel_j1(wt * st)
        vals = phidat(s_arr[None, :] - t * ct[:, None])
        return (j1 * (1 - ct))[:, None] * vals

    tail_val, tail_err, _ = integrate_panels(
        tail, theta0, np.pi,
        rel_tol=q.rel_tol, abs_tol=q.abs_tol / max(1.0, wt),
        initial_panels=16, max_panels=q.max_panels, node_chunk=chunk,
    )
    chi = phidat(s_arr + t) - 0.5 * wt * tail_val

    psi_m = (-1j * wt / (4 * np.pi)) * i_minus
    psi_p = (-wt / (4 * np.pi)) * i_plus + chi
    err_minus = wt / (4 * np.pi) * err_m
    err_plus = wt / (4 * np.pi) * err_p + 0.5 * wt * tail_err
    return psi_m, psi_p, err_minus, err_plus


def evolve_exact_spherical(t: float, s: float, data: PacketParams,
                           q: QuadConfig = QuadConfig()) -> FieldSample:
    """Independent cross-check route via 2D quadrature on the sphere.

    Requires omega * t > j0 / 2 so the psi_+ domain cut is defined.  General
    initial spinors are handled by linearity: the lower-component base
    problem plus its parity mirror (components swapped, s -> -s, p0 -> -p0).
    """
    if t < 0:
        raise DomainError("t must be >= 0")
    omega = data.mass
    if omega <= 0:
        raise DomainError("spherical route requires mass > 0")
    spherical_cut(omega * t)  # raises below the domain cut
    p0 = data.k0 / omega
    cm, cp = spinor_amplitudes(data)
    s_arr = np.array([float(s)])
    n_phi = _phi_quad_points(omega * t)

    def base(n_phi_pts):
        psi_m = np.zeros(1, dtype=complex)
        psi_p = np.zeros(1, dtype=complex)
        err = 0.0
        if cp != 0:
            bm, bp, em, ep = _spherical_base(t, s_arr, p0, data.sigma, omega, q, n_phi_pts)
            psi_m += cp * bm
            psi_p += cp * bp
            err += abs(cp) * float(em[0] + ep[0])
        if cm != 0:
            mb_m, mb_p, mem, mep = _spherical_base(t, -s_arr, -p0, data.sigma, omega, q, n_phi_pts)
            psi_m += cm * mb_p
            psi_p += cm * mb_m
            err += abs(cm) * float(mem[0] + mep[0])
        return psi_m[0], psi_p[0], err

    m1, p1, e1 = base(n_phi)
    m2, p2, e2 = base(2 * n_phi)
    phi_err = abs(m2 - m1) + abs(p2 - p1)
    return FieldSample(
        t=float(t), s=float(s),
        psi=Spinor(minus=m2, plus=p2),
        err_est=float(e2 + phi_err),
    )


# =============================================================================
# Derived field quantities
# =============================================================================

def integrate_density(t: float, data: PacketParams, q: QuadConfig = QuadConfig(),
                      half_width: float = None) -> Tuple[float, float]:
    """Total probability Int rho(t, s) ds; returns (norm, err_est).

    Trapezoid on a uniform grid wide enough that the light-cone tails are
    negligible; the grid is doubled once to estimate the remaining error.
    """
    if half_width is None:
        half_width = 13 * data.sigma + t
    rate = 2 * (abs(data.k0) + data.mass)
    n = 1 << max(11, ceil(np.log2(max(256, rate * half_width * 4 / np.pi))))

    def norm_on(npts):
        s = np.linspace(-half_width, half_width, npts)
        psi, _ = evolve_exact_grid(t, s, data, q)
        return float(np.trapezoid(psi.density, s))

    coarse = norm_on(n)
    fine = norm_on(2 * n)
    return fine, abs(fine - coarse)


def continuity_residual(t: float, s: float, data: PacketParams, h: float,
                        q: QuadConfig = QuadConfig()) -> float:
    """Central-difference estimate of d_t rho + d_s J at (t, s)."""
    if h <= 0:
        raise DomainError("h must be > 0")
    if t - h < 0:
        raise DomainError("need t - h >= 0 for the central time difference")

    def rho_j(tt, ss):
        sample = evolve_exact(tt, ss, data, q)
        return sample.psi.density, sample.psi.current

    rho_p, _ = rho_j(t + h, s)
    rho_m, _ = rho_j(t - h, s)
    _, j_p = rho_j(t, s + h)
    _, j_m = rho_j(t, s - h)
    return float((rho_p - rho_m) / (2 * h) + (j_p - j_m) / (2 * h))


# =============================================================================
# Nonrelativistic (free Schroedinger) reference
# =============================================================================

def schrodinger_reference(t: float, s: float, k0: float):
    """Closed-form free Schroedinger Gaussian: returns (psi, rho, v).

    Initial data (2/pi)^{1/4} e^{-s^2 + i k0 s}; the density is the familiar
    moving, spreading Gaussian and v is its Bohmian velocity field.
    """
    s = np.asarray(s, dtype=float)
    denom = 1.0 + 2j * t
    psi = ((2 / np.pi) ** 0.25 / np.sqrt(denom)
           * np.exp(1j * k0 * s - 0.5j * k0 * k0 * t - (s - k0 * t) ** 2 / denom))
    spread = 1.0 + 4.0 * t * t
    rho = np.sqrt(2 / np.pi) / np.sqrt(spread) * np.exp(-2 * (s - k0 * t) ** 2 / spread)
    v = k0 + 4 * t * (s - k0 * t) / spread
    if np.ndim(s) == 0:
        return complex(psi), float(rho), float(v)
    return psi, rho, v


def schrodinger_trajectory(t, q0: float, k0: float):
    """Exact nonrelativistic Bohmian trajectory q(t) = k0 t + q0 sqrt(1 + 4 t^2)."""
    t = np.asarray(t, dtype=float)
    out = k0 * t + q0 * np.sqrt(1.0 + 4.0 * t * t)
    return float(out) if np.ndim(out) == 0 else out
