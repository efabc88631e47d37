"""Initial data and spinor observables.

Gaussian spinor packets, energy eigen-packets and their mixtures; the
Cayley-Klein decomposition (R, Theta, Omega, Phi) with the derived Bloch
vector; local Bohmian velocity/momentum/energy; and the moments <P>, <H>
and the norm of a spinor field, as trapezoid pairs on periodic grids.

Conventions
-----------
A packet is ``psi(s) = e^{i*phase0/2} * (cos(theta0/2) e^{i*omega0/2},
sin(theta0/2) e^{-i*omega0/2})^T * f_sigma(s) e^{i*k0*s}`` where
``f_sigma(x) = (2*pi*sigma^2)^{-1/4} exp(-x^2 / (4*sigma^2))``, so that
|psi|^2 is the N(0, sigma^2) density.

Energy eigen-packets carry the plane-wave eigenspinor angles
``theta_plus = atan2(m, k)`` (so tan(theta_plus) = m/k), ``omega_plus = 0``
and ``theta_minus = pi - theta_plus``, ``omega_minus = pi``.  These
diagonalize the free Hamiltonian H = ((P, m), (m, -P)) and give <H> = +-E.

The mixing angle ``vartheta`` appears in two distinct constructions:
``mixed_energy_eigen`` combines the literal eigen-spinors, while
``macroscopic`` uses the component mixture ``(cos(vartheta/2),
sin(vartheta/2))`` that the stationary-phase formulas are written in
(vartheta = 0 is the pure upper-component packet).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (
    IntegrationError,
    InfiniteMomentumError,
    NodeError,
    UndefinedSecantError,
    ValidationError,
    as_real,
)
from .quadrature import refine_panels

__all__ = [
    "Spinor",
    "CayleyKlein",
    "PacketParams",
    "gaussian_amplitude",
    "make_initial_packet",
    "spinor_amplitudes",
    "cayley_klein",
    "cayley_klein_series",
    "spinor_from_cayley_klein",
    "bloch_vector",
    "bohmian_observables",
    "expected_momentum",
    "expected_energy",
    "truncation_half_width",
    "momentum_band",
    "spa_regime_report",
]


# =============================================================================
# Value types
# =============================================================================

@dataclass(frozen=True)
class Spinor:
    """Two-component spinor value (scalar or array-valued components)."""

    minus: complex
    plus: complex

    @property
    def density(self):
        return np.abs(self.minus) ** 2 + np.abs(self.plus) ** 2

    @property
    def current(self):
        return np.abs(self.minus) ** 2 - np.abs(self.plus) ** 2

    @property
    def velocity(self):
        """current / density, and 0 where the density is 0."""
        rho = self.density
        return self.current / np.where(rho > 0, rho, np.inf)


@dataclass(frozen=True)
class CayleyKlein:
    """Cayley-Klein parameters (R, Theta, Omega, Phi) of a spinor.

    theta in [0, pi]; omega wrapped to [-pi, pi); phi carries the matching
    2*pi shift so the reconstruction is exact (phi itself is only defined
    up to the usual phase ambiguity).
    """

    r: float
    theta: float
    omega: float
    phi: float


# Where sigma^2 and 2*pi*sigma^2 are normal doubles.
_SIGMA_RANGE = (np.finfo(float).tiny ** 0.5, (np.finfo(float).max / (2 * np.pi)) ** 0.5)


@dataclass(frozen=True)
class PacketParams:
    """Initial-data descriptor for a Gaussian spinor packet.

    sigma : position standard deviation (> 0)
    k0    : mean momentum (macroscopic runs use k0 = omega * p0)
    theta0, omega0 : initial Bloch angles, theta0 in [0, pi], omega0 in [0, 2*pi)
    mass  : microscopic m, or the large parameter omega in macroscopic mode
    phase0 : overall phase (Phi of the initial spinor), nonzero only for mixtures
    energy_sign : +-1 when the packet is an energy eigen-packet, else None
    """

    sigma: float
    k0: float
    theta0: float
    omega0: float
    mass: float
    phase0: float = 0.0
    energy_sign: Optional[int] = None

    def __post_init__(self):
        for name in ("sigma", "k0", "theta0", "omega0", "phase0"):
            as_real(getattr(self, name), name, scalar=True, error=ValidationError)
        as_real(self.mass, "mass", scalar=True, error=ValidationError, at_least=0)
        if not (_SIGMA_RANGE[0] <= self.sigma <= _SIGMA_RANGE[1]):
            lo, hi = _SIGMA_RANGE
            raise ValidationError(f"sigma must lie in [{lo:.3g}, {hi:.3g}] (sigma^2 and "
                                  f"2*pi*sigma^2 normal doubles), got {self.sigma}")
        if not (0.0 <= self.theta0 <= np.pi):
            raise ValidationError(f"theta0 must lie in [0, pi], got {self.theta0}")
        if not (0.0 <= self.omega0 < 2 * np.pi):
            raise ValidationError(f"omega0 must lie in [0, 2*pi), got {self.omega0}")
        if self.energy_sign is not None:
            expect = _eigen_angles(self.k0, self.mass, self.energy_sign)
            if (abs(self.theta0 - expect[0]) > 1e-12
                    or abs(self.omega0 - expect[1]) > 1e-12):
                raise ValidationError(
                    "energy eigen-packet angles must match the plane-wave "
                    f"eigenspinor: expected (theta0, omega0) = {expect}"
                )

    # -- alternative constructors ---------------------------------------------

    @classmethod
    def energy_eigen(cls, sigma: float, k0: float, mass: float, sign: int = +1):
        """Gaussian packet aligned with the +-E plane-wave eigenspinor at k0."""
        k0 = as_real(k0, "k0", scalar=True, error=ValidationError)
        mass = as_real(mass, "mass", scalar=True, error=ValidationError, above=0)
        if sign not in (+1, -1):
            raise ValidationError("sign must be +1 or -1")
        theta0, omega0 = _eigen_angles(k0, mass, sign)
        return cls(sigma=sigma, k0=k0, theta0=theta0, omega0=omega0, mass=mass,
                   energy_sign=sign)

    @classmethod
    def mixed_energy_eigen(cls, sigma: float, k0: float, mass: float, vartheta: float):
        """cos(vartheta/2) * (+E eigen-packet) + sin(vartheta/2) * (-E eigen-packet)."""
        vartheta = as_real(vartheta, "vartheta", scalar=True, error=ValidationError)
        if not (0.0 <= vartheta <= np.pi):
            raise ValidationError("vartheta must lie in [0, pi]")
        plus = spinor_amplitudes(cls.energy_eigen(sigma, k0, mass, +1))
        minus = spinor_amplitudes(cls.energy_eigen(sigma, k0, mass, -1))
        c, s = np.cos(vartheta / 2), np.sin(vartheta / 2)
        ck = cayley_klein(Spinor(c * plus[0] + s * minus[0], c * plus[1] + s * minus[1]))
        omega0 = ck.omega % (2 * np.pi)
        # The wrap from [-pi, pi) to [0, 2*pi) shifts phi by the same 2*pi.
        phase0 = ck.phi + (2 * np.pi if ck.omega < 0 else 0.0)
        return cls(sigma=sigma, k0=k0, theta0=ck.theta, omega0=omega0, mass=mass, phase0=phase0)

    @classmethod
    def macroscopic(cls, sigma: float, p0: float, omega: float, vartheta: float = 0.0):
        """Macroscopic-variable packet: momentum k = omega*p0, mass parameter omega.

        The spinor is the component mixture (cos(vartheta/2), sin(vartheta/2)),
        i.e. the basis the stationary-phase approximation is stated in;
        vartheta = 0 gives the pure upper-component data.
        """
        p0, vartheta = (as_real(x, name, scalar=True, error=ValidationError) for x, name in
                        ((p0, "p0"), (vartheta, "vartheta")))
        omega = as_real(omega, "omega", scalar=True, error=ValidationError, above=0)
        if not (0.0 <= vartheta <= np.pi):
            raise ValidationError("vartheta must lie in [0, pi]")
        return cls(sigma=sigma, k0=omega * p0, theta0=vartheta, omega0=0.0, mass=omega)

    def rescaled(self, length: float) -> "PacketParams":
        """Rescale to macroscopic variables with characteristic length L.

        Positions and times shrink by L while momenta and the mass parameter
        grow by L, leaving the dynamics invariant.
        """
        length = as_real(length, "length", scalar=True, error=ValidationError, above=0)
        return replace(self, sigma=self.sigma / length, k0=self.k0 * length,
                       mass=self.mass * length)


def _eigen_angles(k0: float, mass: float, sign: int) -> Tuple[float, float]:
    theta_plus = float(np.arctan2(mass, k0))
    if sign > 0:
        return theta_plus, 0.0
    return np.pi - theta_plus, np.pi


# =============================================================================
# Packet construction
# =============================================================================

def gaussian_amplitude(sigma: float, x):
    """f_sigma(x): square root of the N(0, sigma^2) density."""
    return (2 * np.pi * sigma**2) ** (-0.25) * np.exp(-np.asarray(x) ** 2 / (4 * sigma**2))


def spinor_amplitudes(p: PacketParams) -> Tuple[complex, complex]:
    """Constant spinor direction (c_minus, c_plus) of the initial data."""
    phase = np.exp(0.5j * p.phase0)
    cm = phase * np.cos(p.theta0 / 2) * np.exp(0.5j * p.omega0)
    cp = phase * np.sin(p.theta0 / 2) * np.exp(-0.5j * p.omega0)
    return complex(cm), complex(cp)


def make_initial_packet(p: PacketParams) -> Callable[[np.ndarray], Spinor]:
    """Return s -> Spinor evaluating the initial data (vectorized over s)."""
    cm, cp = spinor_amplitudes(p)
    sigma, k0 = p.sigma, p.k0

    def packet(s):
        envelope = gaussian_amplitude(sigma, s) * np.exp(1j * k0 * np.asarray(s))
        return Spinor(minus=cm * envelope, plus=cp * envelope)

    return packet


# "<<" in the SPA regime 1/(omega*|p0|) << sigma << 1 means by this factor.
_SPA_REGIME_FACTOR = 10.0


def spa_regime_report(p: PacketParams) -> dict:
    """Check 1/(omega*|p0|) << sigma << 1 for macroscopic/SPA use; warn, never reject."""
    wavelength = np.inf if p.k0 == 0 else 1.0 / abs(p.k0)
    lhs_ok = bool(p.sigma * abs(p.k0) >= _SPA_REGIME_FACTOR)
    rhs_ok = bool(p.sigma * _SPA_REGIME_FACTOR <= 1.0)
    report = {
        "wavelength": wavelength,
        "sigma": p.sigma,
        "sigma_over_wavelength": p.sigma * abs(p.k0),
        "sigma_vs_macro_scale": p.sigma,
        "wavelength_ok": lhs_ok,
        "macro_ok": rhs_ok,
        "ok": lhs_ok and rhs_ok,
    }
    if not report["ok"]:
        warnings.warn(
            "packet violates the SPA regime 1/(omega*p0) << sigma << 1: "
            f"sigma*|k0| = {report['sigma_over_wavelength']:.3g}, sigma = {p.sigma:.3g}",
            stacklevel=2,
        )
    return report


# =============================================================================
# Cayley-Klein decomposition and Bloch observables
# =============================================================================

def cayley_klein(psi: Spinor) -> CayleyKlein:
    """Decompose a spinor into (R, Theta, Omega, Phi): ``cayley_klein_series`` at one point."""
    parts = np.asarray([psi.minus, psi.plus])
    as_real([parts.real, parts.imag], "the spinor's real and imaginary parts")
    ck = {key: float(v[0]) for key, v in cayley_klein_series([psi.minus], [psi.plus]).items()}
    if ck["r"] == 0:
        raise NodeError("zero spinor: Cayley-Klein angles undefined")
    # Omega into [-pi, pi), and Phi by the same 2*pi.
    if ck["omega"] < -np.pi:
        ck["omega"] += 2 * np.pi
        ck["phi"] += 2 * np.pi
    elif ck["omega"] >= np.pi:
        ck["omega"] -= 2 * np.pi
        ck["phi"] -= 2 * np.pi
    return CayleyKlein(**ck)


def cayley_klein_series(minus: np.ndarray, plus: np.ndarray) -> dict:
    """Cayley-Klein parameters along a path, with Omega and Phi unwrapped by continuity.

    The component phases are unwrapped first, so Omega = arg(psi-) - arg(psi+)
    and Phi = arg(psi-) + arg(psi+) vary continuously and dPhi/dt is well
    defined along a trajectory.
    """
    am, ap = np.abs(minus), np.abs(plus)
    arg_m, arg_p = np.unwrap(np.angle([minus, plus]))
    return {"r": np.sqrt(am**2 + ap**2), "theta": 2 * np.arctan2(ap, am),
            "omega": arg_m - arg_p, "phi": arg_m + arg_p}


def spinor_from_cayley_klein(ck: CayleyKlein) -> Spinor:
    """Rebuild the spinor R e^{i Phi/2} (cos(Theta/2) e^{i Omega/2}, sin(Theta/2) e^{-i Omega/2})."""
    phase = ck.r * np.exp(0.5j * ck.phi)
    return Spinor(
        minus=phase * np.cos(ck.theta / 2) * np.exp(0.5j * ck.omega),
        plus=phase * np.sin(ck.theta / 2) * np.exp(-0.5j * ck.omega),
    )


def bloch_vector(ck: CayleyKlein):
    """Unit vector (sin(Theta)cos(Omega), sin(Theta)sin(Omega), cos(Theta)).

    Elementwise: a ``CayleyKlein`` of arrays (a series along a path) gives
    three arrays.  The third component equals the Bohmian velocity of the
    spinor.
    """
    st = np.sin(ck.theta)
    return st * np.cos(ck.omega), st * np.sin(ck.omega), np.cos(ck.theta)


def bohmian_observables(ck: CayleyKlein, mass: float) -> Tuple[float, float, float]:
    """Local Bohmian (v, p, E) = (cos Theta, m cot(Theta) sec(Omega), m csc(Theta) sec(Omega))."""
    if ck.theta == 0.0 or ck.theta == np.pi:
        raise InfiniteMomentumError("theta in {0, pi}: Bohmian p and E diverge")
    if ck.omega == np.pi / 2 or ck.omega == -np.pi / 2:
        raise UndefinedSecantError("omega = +-pi/2: sec(Omega) undefined")
    st = np.sin(ck.theta)
    ct = np.cos(ck.theta)
    sec = 1.0 / np.cos(ck.omega)
    v = float(ct)
    p = float(mass * (ct / st) * sec)
    e = float(mass * (1.0 / st) * sec)
    return v, p, e


# =============================================================================
# Operator expectation values
# =============================================================================

def truncation_half_width(p: PacketParams, t: float) -> float:
    """Half-width L for expectation-value grids: the light cone 10 sigma + t."""
    return 10 * p.sigma + t


def momentum_band(p: PacketParams) -> float:
    """|k0| + 8 / sigma: |psi_hat(t, k)|, the same at every t, is e^{-64} of its peak there."""
    return abs(p.k0) + 8 / p.sigma


# The spectral grid doubles up to this many points.
_MAX_SPECTRAL_POINTS = 2**17


def _norm_moment(minus, plus, ds):
    """Int |psi|^2 ds as the grid's sum."""
    return ds * float(np.sum(np.abs(minus) ** 2 + np.abs(plus) ** 2))


def _momentum_moment(minus, plus, ds, sign=1):
    """<P> as ds / n Sum_k k |psi_hat(k)|^2, and with sign -1 <sigma_3 P>."""
    k = 2 * np.pi * np.fft.fftfreq(minus.size, d=ds)
    return ds / minus.size * float(np.sum(k * (np.abs(np.fft.fft(minus)) ** 2
                                               + sign * np.abs(np.fft.fft(plus)) ** 2)))


def _energy_moment(mass, minus, plus, ds):
    """<H> = <sigma_3 P> + m <sigma_1>."""
    cross = ds * float(np.sum(2 * np.real(np.conj(minus) * plus)))
    return _momentum_moment(minus, plus, ds, -1) + mass * cross


def _spectral_expectation(psi_fn, moment, half_width, band, quad_tol, rel_tol=0.0):
    """``moment(minus, plus, ds)`` of the Spinor psi_fn(s) on [-L, L]; returns (value, err_est).

    A pass of n panels evaluates psi_fn once on the 2 n periodic points
    -L + (2 L / (2 n)) arange(2 n) and returns the moment over all of them
    and over every other one, a trapezoid pair for ``refine_panels``.
    """
    quad_tol, half_width, band = (as_real(x, name, scalar=True, above=bound) for x, name, bound in (
        (quad_tol, "quad_tol", 0), (half_width, "half_width", 0), (band, "band", None)))
    # From 2048 on, the first n whose T_2h grid resolves the band: pi n / (2 L) >= band.
    n = 2048
    while n <= _MAX_SPECTRAL_POINTS and np.pi * n / (2 * half_width) < band:
        n *= 2
    if 2 * n > _MAX_SPECTRAL_POINTS:
        raise IntegrationError(f"a grid on [-{half_width:g}, {half_width:g}] needs more than "
                               f"{_MAX_SPECTRAL_POINTS} grid points for |k| <= {band:g}",
                               partial=None, residual=np.inf)

    def run_pass(n):
        ds = 2 * half_width / (2 * n)
        out = psi_fn(-half_width + ds * np.arange(2 * n))
        minus, plus = (np.asarray(c, dtype=complex) for c in (out.minus, out.plus))
        return moment(minus, plus, ds), moment(minus[::2], plus[::2], 2 * ds)

    value, err, _ = refine_panels(run_pass, n, rel_tol=rel_tol, abs_tol=quad_tol,
                                  max_panels=_MAX_SPECTRAL_POINTS // 2)
    return value, float(err)


def expected_momentum(psi_fn, quad_tol: float, half_width: float, band: float) -> float:
    """<psi, P psi> with P = -i d/ds, spectrally on [-L, L] over |k| <= band.

    ``band`` must reach the edge of psi's spectrum; a smaller band aliases silently.
    The CLI and ``integrate_density`` always pass ``momentum_band(data)``.
    """
    return _spectral_expectation(psi_fn, _momentum_moment, half_width, band, quad_tol)[0]


def expected_energy(psi_fn, mass: float, quad_tol: float, half_width: float, band: float) -> float:
    """<psi, H psi> with H = ((P, m), (m, -P)), spectrally on [-L, L] over |k| <= band.

    ``band`` must reach the edge of psi's spectrum; a smaller band aliases silently.
    """
    moment = partial(_energy_moment, as_real(mass, "mass", scalar=True))
    return _spectral_expectation(psi_fn, moment, half_width, band, quad_tol)[0]
