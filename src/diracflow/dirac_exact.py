"""Exact evolution of free 1D Dirac spinor packets, plus the nonrelativistic reference.

Three evaluation routes are provided; the first two serve ``evolve_exact``
and ``evolve_exact_grid``, which run the momentum route where it starts from
at most 3.25 times the Bessel route's nodes (``_route_and_panels``):

* The Bessel-kernel route.  The substitution ``sigma = s - t*cos(theta)``
  removes the square-root endpoint singularity of the J1 kernel, leaving
  smooth oscillatory integrands over theta in [0, pi]:

      psi_-(t,s) = psi0_-(s-t) - (w*t/2) Int J1(w*t*sin)(1+cos) psi0_-(s-t*cos)
                                 - (i*w*t/2) Int J0(w*t*sin) sin psi0_+(s-t*cos)
      psi_+(t,s) = psi0_+(s+t) - (w*t/2) Int J1(w*t*sin)(1-cos) psi0_+(s-t*cos)
                                 - (i*w*t/2) Int J0(w*t*sin) sin psi0_-(s-t*cos)

  with w = mass (microscopic) or the large parameter omega (macroscopic;
  the rescaling is a pure reparametrization of PacketParams).  Its phase
  -k0 t cos(theta) +- w t sin(theta) changes at most at the rate
  t*hypot(w, k0) in theta, but its integrand is local in s.

* The momentum route: the Fourier integral of the free propagator over the
  Gaussian spectrum, k0 +- 8/sigma, by the trapezoid rule (see
  ``_kspace_grid``).  Its nodes grow with max|s| + t, not with w, so it runs
  on the macroscopic ladder, at single points near the packets and on grids
  over both FIG3 packets (|s| <= v0 t + 5 sigma, 0.3 to 0.5 times the Bessel
  nodes), at any k0.  Wide grids and far positions stay on the Bessel
  route.  The momentum route needs no Bessel function, so it loads no scipy
  module.

* ``evolve_exact_spherical`` rewrites the kernels through their integral
  representation as a 2D quadrature over the unit sphere, with the polar
  cap theta > theta0 (the disk r < R after stereographic projection)
  removed from the psi_+ domain.  The removed cap exactly cancels the
  transport term up to a narrow remainder integral, which is evaluated
  explicitly so the routes agree to quadrature tolerance.

The grid evaluator shares one quadrature across every requested s, so
field evaluation over (t, s) grids vectorizes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, cos, frexp, hypot, isfinite, ldexp, pi, sin, sqrt
from typing import Tuple

import numpy as np

from . import specfun
from .errors import DomainError, IntegrationError, ValidationError, as_real
from .packets import (PacketParams, Spinor, _norm_moment, _spectral_expectation,
                      gaussian_amplitude, make_initial_packet, momentum_band, spinor_amplitudes,
                      truncation_half_width)
from .quadrature import (_GL_ORDER, _NODE_CHUNK, _PANEL_NODES, _TRAPEZOID_NODES, _composite,
                         _layout, _trapezoid_rule, integrate_panels, refine_panels)

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
    """Tolerances and panel budget for the kernel quadratures."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_panels: int = 2**20

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            as_real(getattr(self, name), name, scalar=True, error=ValidationError, above=0)
        as_real(self.max_panels, "max_panels", scalar=True, error=ValidationError, at_least=8)


@dataclass(frozen=True)
class FieldSample:
    """The evolved spinor at one spacetime point with its quadrature error estimate."""

    t: float
    s: float
    psi: Spinor
    err_est: float


# =============================================================================
# Grid evaluation and the choice of route
# =============================================================================

# Gauss nodes per 2*pi of phase in the starting estimate, above the about pi
# a Gauss rule needs; the doubling test, not this count, decides convergence.
_NODES_PER_CYCLE = 8.0
# The smallest normal double.
_TINY = sys.float_info.min


def _whole(x: float) -> float:
    """The least whole number >= x, as a float; inf and NaN as they are."""
    return float(ceil(x)) if isfinite(x) else x


def _initial_panels(rate: float, length: float) -> float:
    """Starting panels: ``_NODES_PER_CYCLE`` Gauss nodes per 2*pi of phase, at least 8.

    A whole number as a float, inf only where it exceeds the largest double
    (the rate is scaled by 1/16 and the count back by 16, both exactly, so
    nothing overflows before the count does), so that ``_route_and_panels``
    can compare both routes' counts for any input.
    """
    phase_per_panel = 2 * pi * _GL_ORDER / _NODES_PER_CYCLE
    return max(8.0, _whole(16 * (rate / 16 * length / phase_per_panel)))


# OpenBLAS runs a real matrix product on one thread up to m n k = 2**18;
# above it, threads cost more than they save on a busy machine.
_SERIAL_GEMM = 2**18


def _bessel_node_chunk(n_cols: int) -> int:
    # About 16k basis entries per integrand call keep the block in cache, and
    # keep the real (12, N) @ (N, n_cols) product on one thread.
    # _composite rounds it up to whole panels, so that FIG3's 8 starting
    # panels on 64 positions take one call.
    return max(16, 2**14 // max(1, n_cols))


def _integrate_field(run_pass, assemble, n_points, n0, q: QuadConfig, abs_tol: float):
    """``refine_panels`` on a grid route's pass from n0 panels, assembled into (Spinor, err[2, n]).

    A budget failure's partial sums and residual assemble into a partial
    field and its error bound.  Where the phase overflows (an inf ``n0``)
    or the start alone exceeds the budget, nothing is evaluated: there is
    no partial field and the residual is inf.
    """
    if not isfinite(n0):
        raise IntegrationError(
            "integrand phase overflows a float: no panel count resolves it",
            partial=None, residual=np.full((2, n_points), np.inf))
    try:
        value, err, _ = refine_panels(run_pass, n0, rel_tol=q.rel_tol, abs_tol=abs_tol,
                                      max_panels=q.max_panels)
    except IntegrationError as exc:
        partial, residual = None, np.full((2, n_points), np.inf)
        if exc.partial is not None:
            partial, residual = assemble(exc.partial, exc.residual)
        raise IntegrationError(str(exc), partial=partial, residual=residual) from exc
    return assemble(value, err)


def _transport(t: float, s_arr, data: PacketParams):
    """The transport terms c_-+ psi0(s -+ t) of both components."""
    packet = make_initial_packet(data)
    return packet(s_arr - t).minus, packet(s_arr + t).plus


def evolve_exact_grid(t: float, s, data: PacketParams, q: QuadConfig = QuadConfig()):
    """Evaluate psi(t, s) on an array of positions; returns (Spinor, err[2, n]).

    One quadrature is shared by all positions, so the cost is
    O(n_nodes * n_s) with fully vectorized inner arithmetic.  The Bessel
    route integrates over theta and the momentum route over k; the
    momentum route runs where it starts from at most 3.25 times the Bessel
    route's nodes (``_route_and_panels``).  Below m t = ``_TINY`` it is the
    transport terms with err 0: every kernel term carries the factor m t.
    """
    t = as_real(t, "t", scalar=True, at_least=0)
    s_arr = np.atleast_1d(as_real(s, "s"))
    if s_arr.ndim > 1:
        raise DomainError(f"s must be a number or a 1-D array, got shape {s_arr.shape}")
    if data.mass * t < _TINY:
        return Spinor(*_transport(t, s_arr, data)), np.zeros((2, s_arr.size))
    route, n0 = _route_and_panels(t, s_arr, data)
    return route(t, s_arr, data, q, n0)


def evolve_exact(t: float, s: float, data: PacketParams,
                 q: QuadConfig = QuadConfig()) -> FieldSample:
    """Exact evolved spinor at a single spacetime point."""
    s = as_real(s, "s", scalar=True)
    psi, err = evolve_exact_grid(t, [s], data, q)
    return FieldSample(
        t=float(t),
        s=s,
        psi=Spinor(minus=complex(psi.minus[0]), plus=complex(psi.plus[0])),
        err_est=float(err[:, 0].sum()),
    )


# The momentum route runs where its starting nodes are at most this multiple
# of the Bessel route's.  In forced-route timings of both on FIG3 grids of 1,
# 64 and 300 positions at t = 0.5, 2 and 8, the momentum route was the faster
# on every grid up to a ratio of 3.25, the Bessel route on some grid at t = 8
# from 3.5, and on most grids from 6 (by up to 3 times at 10).
_KSPACE_NODE_RATIO = 3.25


def _route_and_panels(t: float, s_arr, data: PacketParams):
    """The momentum route if it starts from at most 3.25 times the Bessel route's nodes.

    Returns the route with its starting panel count, which it is handed, so
    that the count is made once.  The Bessel start grows with t hypot(m, k0)
    but its integrand is local in s; the momentum start grows with t and the
    farthest position, not with the mass.  An inf Bessel count means
    E0 t = t hypot(m, k0) overflows, which neither route integrates;
    ``_integrate_field`` fails it before evaluating anything.  Both routes
    are finite at any mass, so the counts alone decide.
    """
    kspace = _kspace_panels(t, s_arr, data)
    bessel = _bessel_panels(t, data)
    if isfinite(bessel) and _TRAPEZOID_NODES * kspace <= _KSPACE_NODE_RATIO * _PANEL_NODES * bessel:
        return _kspace_grid, kspace
    return _bessel_grid, bessel


# =============================================================================
# Bessel-kernel route
# =============================================================================

def _bessel_panels(t: float, data: PacketParams) -> float:
    """Starting panels of the Bessel route over theta in [0, pi].

    The integrand's phase -k0 t cos(theta) +- m t sin(theta) (the plane wave
    times the Bessel kernels' oscillation) has the theta-derivative
    t (k0 sin(theta) +- m cos(theta)), at most t hypot(m, k0) in magnitude.
    """
    return _initial_panels(t * hypot(data.mass, data.k0), np.pi)


def _bessel_grid(t: float, s_arr, data: PacketParams, q: QuadConfig, n0: float):
    """psi(t, s) from the Bessel-kernel theta-integrals (module docstring).

    ``n0`` is the starting panel count, ``_bessel_panels(t, data)``.
    """
    cm, cp = spinor_amplitudes(data)
    sigma, k0, omega = data.sigma, data.k0, data.mass
    wt = omega * t

    # The plane wave factors out of psi0(s - t cos):
    # e^{i k0 (s - t cos)} = e^{i k0 s} e^{-i k0 t cos}, so each node's value is
    # a complex (3,) kernel times the real Gaussian row f_sigma(s - t cos),
    # and the theta sum is one real matrix product (see _composite).
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

    def assemble(value, err):
        """The spinor and its error bound (2, n) from the theta-integrals (3, n)."""
        a1m, a1p, a0 = value * np.exp(1j * k0 * s_arr)
        e1m, e1p, e0 = err
        # Formed here, so that a phase too large to integrate fails before
        # any value overflows.
        transport_m, transport_p = _transport(t, s_arr, data)
        psi_m = transport_m - 0.5 * wt * cm * a1m - 0.5j * wt * cp * a0
        psi_p = transport_p - 0.5 * wt * cp * a1p - 0.5j * wt * cm * a0
        err_out = np.empty((2, s_arr.size))
        err_out[0] = 0.5 * wt * (abs(cm) * e1m + abs(cp) * e0)
        err_out[1] = 0.5 * wt * (abs(cp) * e1p + abs(cm) * e0)
        return Spinor(minus=psi_m, plus=psi_p), err_out

    chunk = _bessel_node_chunk(s_arr.size)
    return _integrate_field(lambda n: _composite(integrand, 0.0, np.pi, n, chunk), assemble,
                            s_arr.size, n0, q, q.abs_tol / max(1.0, wt))


# =============================================================================
# Momentum-space route
# =============================================================================

# Half-width of the momentum window in units of 1/sigma: the Gaussian
# spectrum e^{-sigma^2 u^2} leaves e^{-64} ~ 1.6e-28 of its peak outside it.
_K_WINDOW = 8.0
# The momentum route's plans of the last _PLAN_CACHE_SIZE packets used, and
# their node tables of up to _PLAN_CACHE_NODES nodes, the last
# _PLAN_CACHE_SIZE used: with 32 bytes per node (the shift factor and three
# rows), the tables keep at most 4 MiB between calls.  Larger passes, whose
# plane-wave cost dwarfs their table's, build each chunk's table per call.
_PLAN_CACHE_NODES = 2**13
_PLAN_CACHE_SIZE = 16
# Dekker's splitter 2^27 + 1: a double times it splits into two halves of
# at most 26 significant bits, whose products are exact.
_SPLITTER = 134217729.0


def _two_product_tail(a, b, p):
    """a b - p for p = fl(a b), exactly (Dekker, Numer. Math. 18, 1971); elementwise.

    Exact where neither split overflows (|a|, |b| < 2^996) and no partial
    product underflows; callers scale a and b into [0.5, 1) first.
    """
    c = _SPLITTER * a
    a_hi = c - (c - a)
    c = _SPLITTER * b
    b_hi = c - (c - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _square_residual(k, m, e):
    """k^2 + m^2 - e^2 for e = hypot(k, m) in [0.5, 1), from exact parts; elementwise.

    The squares' tails are Dekker's and the rounding of their sum is
    Knuth's TwoSum; k^2 + m^2 is within a factor 2 of e^2, so their leading
    difference is exact (Sterbenz).  A square that underflows is below
    e^2 eps^2.  The result is good to a relative eps.
    """
    kk, mm, ee = k * k, m * m, e * e
    total = kk + mm
    z = total - kk
    tail = (kk - (total - z)) + (mm - z)
    return ((total - ee) + tail) + ((_two_product_tail(k, k, kk) + _two_product_tail(m, m, mm))
                                    - _two_product_tail(e, e, ee))


@dataclass(frozen=True, eq=False)
class _KspacePlan:
    """What the momentum route needs of one packet, at any (t, s); see ``_kspace_plan``."""

    k0: float
    mass: float
    half: float  # the window's half-width 8 / sigma
    neg_sigma2: float
    scale: float  # phi_hat's constant over 2 pi
    energy0: float  # E0 = hypot(k0, m) as a double, = frac 2^exp with frac in [0.5, 1)
    energy0_frac: float
    energy0_exp: int
    energy0_excess: float  # sqrt(k0^2 + m^2) - E0
    # (2, 24) real: the rows of c, twice, as (Re, Im) of each component in
    # the layout (component, row, Re/Im), split into the parts a call
    # multiplies by cos(E0 t) and by sin(E0 t) (see _momentum_kernel).
    rotations: np.ndarray

    def energy_phase(self, t: float):
        """E0 t as the double fl(E0 t), and sqrt(k0^2 + m^2) t - fl(E0 t).

        The second is E0 t's rounding, exact from Dekker's product of the
        factors scaled into [0.5, 1), plus t times E0's own rounding.
        """
        t_frac, t_exp = frexp(t)
        tail = _two_product_tail(self.energy0_frac, t_frac, self.energy0_frac * t_frac)
        return self.energy0 * t, ldexp(tail, self.energy0_exp + t_exp) + t * self.energy0_excess


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _kspace_plan(data: PacketParams) -> _KspacePlan:
    """The momentum route's constants of one packet (E0 > 0, as m t >= _TINY), made once."""
    cm, cp = spinor_amplitudes(data)
    sigma, k0, m = data.sigma, data.k0, data.mass
    scale = 2 * sigma * sqrt(pi) * (2 * pi * sigma**2) ** -0.25 / (2 * pi)
    energy0 = hypot(k0, m)
    # E0's rounding sqrt(k0^2 + m^2) - E0 = r / (2 E0), to a relative eps,
    # from the residual r = k0^2 + m^2 - E0^2, at the scale 2^-exp of E0.
    frac, exp = frexp(energy0)
    r = _square_residual(ldexp(k0, -exp), ldexp(m, -exp), frac)
    # The rows of c against g (cos(E t), sin(E t) k / E, sin(E t) m / E); see
    # _kspace_grid.  The factor m sits in the node table's m / E.
    c = [[cm, cp], [-1j * cm, 1j * cp], [-1j * cp, -1j * cm]]
    coeffs = np.array(c + c).view(float).reshape(6, 2, 2).transpose(1, 0, 2)
    by_cos, by_sin = np.array([[1, 0, 0, 0, 1, 1], [0, 1, 1, -1, 0, 0]])[:, None, :, None]
    return _KspacePlan(
        k0=k0, mass=m, half=_K_WINDOW / sigma, neg_sigma2=-sigma * sigma,
        scale=scale, energy0=energy0, energy0_frac=frac, energy0_exp=exp,
        energy0_excess=ldexp(r / (2 * frac), exp),
        rotations=np.stack([by_cos * coeffs, by_sin * coeffs]).reshape(2, -1))


def _build_node_table(plan: _KspacePlan, u):
    """The (4, N) node table at the window offsets ``u``.

    Its rows are the shift factor u (2 k0 + u) / (E + E0), in halves, which
    stay finite for any k0, and g, g k / E and g m / E with g = e^{-sigma^2 u^2}.
    Both ratios are at most 1, so no row overflows where E is subnormal, and
    the half-sum is floored at ``_TINY``, so u = 0 gives 0, not 0 / 0.
    """
    k = plan.k0 + u
    energy = np.hypot(k, plan.mass)
    table = np.empty((4, u.size))
    np.multiply(u, (plan.k0 + 0.5 * u) / np.fmax(0.5 * energy + 0.5 * plan.energy0, _TINY),
                out=table[0])
    np.exp(plan.neg_sigma2 * (u * u), out=table[1])
    np.multiply(table[1], k / energy, out=table[2])
    np.multiply(table[1], plan.mass / energy, out=table[3])
    return table


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _cached_node_table(plan: _KspacePlan, n_panels: int):
    """``_build_node_table`` of a whole pass, read-only and shared by every call."""
    table = _build_node_table(plan, _layout(-plan.half, plan.half, n_panels, _trapezoid_rule)[0])
    table.flags.writeable = False
    return table


def _node_table(plan: _KspacePlan, n_panels: int, nodes):
    """The node table at ``nodes`` of a pass of n_panels panels.

    A pass of up to the cap is one chunk (``_PASS_PANELS``), whose table
    comes from the cache; a larger pass builds each chunk's table.
    """
    if n_panels * _TRAPEZOID_NODES > _PLAN_CACHE_NODES:
        return _build_node_table(plan, nodes)
    return _cached_node_table(plan, n_panels)


def _momentum_kernel(plan: _KspacePlan, t: float, table):
    """The spinor kernel g(k0 + u) (see ``_kspace_grid``) at the nodes of ``table``, (2, N).

    g [cos(E t) c - i sin(E t) H(k) c / E] with H(k) c = k (c-, -c+) + m (c+, c-)
    is (g cos(E t), g sin(E t) k / E, g sin(E t) m / E) times the rows of c.
    By angle addition from E0 t and the node's shift, that is the rows
    g (cos, cos k / E, cos m / E, sin, sin k / E, sin m / E) of the shift times
    the rows of c rotated by E0 t: one real product per component, whose
    columns are its (Re, Im).
    """
    phase0, phase0_err = plan.energy_phase(t)
    cos0, sin0 = plan.scale * cos(phase0), plan.scale * sin(phase0)
    shift = phase0_err + t * table[0]
    trig = np.empty((2, 1, table.shape[1]))
    np.cos(shift, out=trig[0, 0])
    np.sin(shift, out=trig[1, 0])
    rows = (table[1:] * trig).reshape(6, -1)
    coeffs = (np.array((cos0, sin0)) @ plan.rotations).reshape(2, 6, 2)
    return np.matmul(rows.T, coeffs).view(complex)[..., 0]


def _kspace_panels(t: float, s_arr, data: PacketParams) -> float:
    """Starting panels of the momentum route: the fewest where T_2h cannot alias.

    By Poisson summation the trapezoid sum at spacing h differs from the
    integral by psi itself at the aliases s + 2 pi k / h, k != 0, up to the
    window's e^{-64}; psi(t, x) is below that beyond the light cone
    |x| = t + 16 sigma (the initial amplitude is e^{-64} at 16 sigma), so
    T_2h does not alias once pi / h >= max|s| + t + 16 sigma.  A whole
    number as a float, inf only past the largest double.
    """
    reach = float(np.abs(s_arr).max(initial=0.0)) + t + 16.0 * data.sigma
    return _whole(2 * _K_WINDOW / data.sigma * reach / (pi * _TRAPEZOID_NODES))


def _plane_waves(k0: float, width: float, n_panels: int, first: int, count: int, s):
    """The plane-wave bases of panels [first, first + count) of a pass: (offset, panel).

    The offset basis e^{i (k0 + b h) s}, h = width / 16, has rows b < 16,
    so it carries the plane wave e^{i k0 s} of the momentum integral, and
    the panel basis e^{i u_p s} one row per panel at its first window
    offset u_p = m width, m = p - P / 2, over the positions s.  The window
    is symmetric, so a row at u < 0 is the conjugate of the one at -u > 0,
    and only the rows at the |m| the panels need are made, from the
    smallest up.

    Both come in chains of 16 rows e^{i (a + j d) s}, j < 16, each from a
    directly evaluated first row e^{i a s} and step e^{i d s}: the offset
    chain from a = k0 in steps of h, and one panel chain per 16 values of
    |m| in steps of ``width``.  For a whole pass that is
    2 + 2 ceil((P // 2 + 1) / 16) rows of cos and sin per position, instead
    of one per row.  Row j is the first row times the powers e^{i 2^k d s}
    of j's binary digits, each power the square of the one before, so no
    row is more than 7 products from a direct value.  A panel chain only
    grows |u|, so the rounding of its step's phase adds up to at most that
    of u s itself.
    """
    chain = _TRAPEZOID_NODES  # rows per chain, as many as a panel's nodes
    # 2 m at the first and last panel, and the smallest 2 |m| among them.
    lo, hi = 2 * first - n_panels, 2 * (first + count - 1) - n_panels
    base = n_panels % 2 if lo <= 0 <= hi else min(abs(lo), abs(hi))
    rows = (max(-lo, hi) - base) // 2 + 1
    runs = -(-rows // chain)
    angles = np.array([k0, *[(0.5 * base + j * chain) * width for j in range(runs)],
                       width / chain, *[width] * runs])
    # Rows along the first axis, so that each doubling writes a block of
    # memory apart from the one it reads; the last row holds the powers.
    chains = np.empty((chain + 1, 1 + runs, s.size), dtype=complex)
    ends = chains[::chain]
    x = np.multiply.outer(angles.reshape(2, -1), s)
    np.cos(x, out=ends.real)
    np.sin(x, out=ends.imag)
    power = chains[chain]
    done = 1
    while True:
        np.multiply(chains[:done], power, out=chains[done:2 * done])
        done *= 2
        if done == chain:
            break
        np.multiply(power, power, out=power)
    # Row j of the waves is e^{i (base / 2 + j) width s}.
    waves = chains[:chain, 1:].transpose(1, 0, 2).reshape(-1, s.size)
    negative = max(0, min(count, (n_panels + 1) // 2 - first))  # the panels at u < 0
    panel_basis = np.empty((count, s.size), dtype=complex)
    top = (-lo - base) // 2
    np.conjugate(waves[top - negative + 1:top + 1][::-1], out=panel_basis[:negative])
    start = (lo + 2 * negative - base) // 2
    panel_basis[negative:] = waves[start:start + count - negative]
    return chains[:chain, 0], panel_basis


def _kspace_columns(n_panels: int) -> int:
    # Positions per block: as many as keep the block's complex
    # (4 P, 16) @ (16, n) product on one thread (OpenBLAS weighs a complex
    # m n k four times, and threads from 4 m n k = 2**18 on), and never
    # fewer than 16.  From 64 panels on, blocks of 16 positions hold a
    # product of 64 P entries: 2 MiB at the 1919 panels of an observables
    # grid at t = 3000, where blocks of 1 to 4 positions ran 2.5 times
    # slower than blocks of 16 to 256, which ran alike (2-core x86-64).
    return max(16, (_SERIAL_GEMM - 1) // (4 * 4 * _TRAPEZOID_NODES * n_panels))


# Panels per chunk of a pass: the nodes _composite hands an integrand at
# most.  A pass the node-table cache holds is one chunk.
_PASS_PANELS = _NODE_CHUNK // _TRAPEZOID_NODES
assert _PLAN_CACHE_NODES <= _NODE_CHUNK


def _kspace_pass(plan: _KspacePlan, t: float, s_arr, n_panels: int):
    """Both trapezoid sums (T_h, T_2h) of psi(t, s), shape (2, 2, n) (see ``_kspace_grid``).

    Node b of panel p is u_p + b h, so e^{i (k0 + u) s} = e^{i u_p s} e^{i (k0 + b h) s}:
    the weighted kernel rows, (2 rules * 2 components * P, 16), times the
    (16, n) offset basis e^{i (k0 + b h) s} in one complex product, then a
    multiply-and-sum over panels with the (P, n) panel basis e^{i u_p s}.
    The (nodes, n) basis is never formed, and both bases come from product
    chains (``_plane_waves``).  Panels run in chunks of ``_PASS_PANELS`` and
    positions in blocks of ``_kspace_columns``, so that every temporary
    stays bounded; benchmark-sized passes are one chunk of one block.
    """
    nodes, weights = _layout(-plan.half, plan.half, n_panels, _trapezoid_rule)
    width = 2 * plan.half / n_panels
    cols = _kspace_columns(n_panels)
    total = None
    for first in range(0, n_panels, _PASS_PANELS):
        count = min(_PASS_PANELS, n_panels - first)
        part = slice(first * _TRAPEZOID_NODES, (first + count) * _TRAPEZOID_NODES)
        kernel = _momentum_kernel(plan, t, _node_table(plan, n_panels, nodes[part]))
        weighted = (weights[:, None, part] * kernel).reshape(-1, _TRAPEZOID_NODES)
        sums = np.empty((4, s_arr.size), dtype=complex)
        for lo in range(0, s_arr.size, cols):
            s = s_arr[lo:lo + cols]
            offset_basis, panel_basis = _plane_waves(plan.k0, width, n_panels, first, count, s)
            block = (weighted @ offset_basis).reshape(4, count, -1)
            np.add.reduce(block * panel_basis, axis=1, out=sums[:, lo:lo + cols])
        total = sums if total is None else total + sums
    return total.reshape(2, 2, -1)


def _kspace_grid(t: float, s_arr, data: PacketParams, q: QuadConfig, n0: float):
    """psi(t, s) as the momentum integral over the window |u| <= 8 / sigma.

        psi(t, s) = e^{i k0 s} Int du g(k0 + u) e^{i u s},
        g(k) = phi_hat(k) / (2 pi) [cos(E t) - i sin(E t) H(k) / E] c,

    with H(k) = ((k, m), (m, -k)), E = sqrt(k^2 + m^2), c the initial spinor
    and phi_hat(k) = 2 sigma sqrt(pi) (2 pi sigma^2)^{-1/4} e^{-sigma^2 (k - k0)^2}
    (Thaller, The Dirac Equation, sec. 1.4).  Finite at any m > 0.  ``n0`` is the
    starting panel count, ``_kspace_panels(t, s_arr, data)``.

    The integrand is entire and decays like e^{-sigma^2 u^2}, so the
    trapezoid pair converges geometrically from an alias-free start.

    The phase is split as E t = E0 t + t u (2 k0 + u) / (E + E0) with
    E0 = hypot(k0, m): cos and sin of E0 t are formed once and combined with
    each node's shift by angle addition.  The shift comes from u, so the
    rounding of k0 + u does not move the phase, and it carries the rounding
    error of E0 t as a double (``_KspacePlan.energy_phase``).

    What t and s do not change is made once per packet (``_kspace_plan``)
    and once per pass's nodes (``_node_table``); each pass of the shared
    doubling loop (``refine_panels``) is ``_kspace_pass``.
    """
    plan = _kspace_plan(data)
    return _integrate_field(lambda n: _kspace_pass(plan, t, s_arr, n),
                            lambda value, err: (Spinor(*value), err), s_arr.size, n0, q, q.abs_tol)


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

    def integrate(f, a, b, n):
        return integrate_panels(f, a, b, rel_tol=q.rel_tol, abs_tol=q.abs_tol / max(1.0, wt),
                                initial_panels=n, max_panels=q.max_panels, node_chunk=chunk)[:2]

    def integrand_minus(theta):
        g0 = inner(theta, with_phase=False)
        vals = phidat(s_arr[None, :] - t * np.cos(theta)[:, None])
        return (np.sin(theta) * g0)[:, None] * vals

    def integrand_plus(theta):
        g1 = inner(theta, with_phase=True)
        vals = phidat(s_arr[None, :] - t * np.cos(theta)[:, None])
        return ((1 - np.cos(theta)) * g1)[:, None] * vals

    n0 = _initial_panels((omega * abs(p0) + omega) * t, np.pi)
    i_minus, err_m = integrate(integrand_minus, 0.0, np.pi, n0)
    i_plus, err_p = integrate(integrand_plus, 0.0, theta0, max(8, ceil(n0 * theta0 / np.pi)))

    # Transport remainder: the removed polar cap cancels the transport term
    # only up to this narrow kernel integral (the alpha = 1 split), which we
    # keep so the route is exact rather than accurate to O(1/(omega t)).
    def tail(theta):
        ct = np.cos(theta)
        st = np.sin(theta)
        j1 = specfun.bessel_j1(wt * st)
        vals = phidat(s_arr[None, :] - t * ct[:, None])
        return (j1 * (1 - ct))[:, None] * vals

    tail_val, tail_err = integrate(tail, theta0, np.pi, 16)
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
    t, s = as_real(t, "t", scalar=True, at_least=0), as_real(s, "s", scalar=True)
    omega = data.mass
    if omega <= 0:
        raise DomainError("spherical route requires mass > 0")
    if not np.isfinite(omega * t):
        raise IntegrationError("integrand phase overflows a float: no panel count resolves it",
                               partial=None, residual=np.inf)
    spherical_cut(omega * t)  # raises below the domain cut
    p0 = data.k0 / omega
    cm, cp = spinor_amplitudes(data)
    s_arr = np.array([s])
    n_phi = _phi_quad_points(omega * t)

    def base(n_phi_pts):
        psi_m = np.zeros(1, dtype=complex)
        psi_p = np.zeros(1, dtype=complex)
        err = 0.0
        # c_+ times the base problem and c_- its mirror, components swapped.
        for c, sign in ((cp, 1), (cm, -1)):
            if c != 0:
                *parts, em, ep = _spherical_base(t, sign * s_arr, sign * p0, data.sigma, omega, q,
                                                 n_phi_pts)
                bm, bp = parts[::sign]
                psi_m += c * bm
                psi_p += c * bp
                err += abs(c) * float(em[0] + ep[0])
        return psi_m[0], psi_p[0], err

    m1, p1, e1 = base(n_phi)
    m2, p2, e2 = base(2 * n_phi)
    phi_err = abs(m2 - m1) + abs(p2 - p1)
    return FieldSample(
        t=t, s=s,
        psi=Spinor(minus=m2, plus=p2),
        err_est=float(e2 + phi_err),
    )


# =============================================================================
# Derived field quantities
# =============================================================================

def integrate_density(t: float, data: PacketParams,
                      q: QuadConfig = QuadConfig()) -> Tuple[float, float]:
    """Total probability Int rho(t, s) ds; returns (norm, err_est).

    The norm moment of ``packets._spectral_expectation`` on the light cone
    |s| <= ``truncation_half_width(data, t)``, to ``q``'s tolerances.  Its
    grids resolve ``momentum_band(data)``, and the cap on them raises
    IntegrationError before anything is evaluated.
    """
    t = as_real(t, "t", scalar=True, at_least=0)
    return _spectral_expectation(lambda s: evolve_exact_grid(t, s, data, q)[0], _norm_moment,
                                 truncation_half_width(data, t), momentum_band(data),
                                 q.abs_tol, q.rel_tol)


def continuity_residual(t: float, s: float, data: PacketParams, h: float,
                        q: QuadConfig = QuadConfig()) -> float:
    """Central-difference estimate of d_t rho + d_s J at (t, s)."""
    t, h = as_real(t, "t", scalar=True), as_real(h, "h", scalar=True, above=0)
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
    t, s = as_real(t, "t"), as_real(s, "s")
    k0 = as_real(k0, "k0", scalar=True, error=ValidationError)
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
    t = as_real(t, "t")
    q0, k0 = (as_real(x, name, scalar=True, error=ValidationError) for x, name in
              ((q0, "q0"), (k0, "k0")))
    out = k0 * t + q0 * np.sqrt(1.0 + 4.0 * t * t)
    return float(out) if np.ndim(out) == 0 else out
