"""Independent reference computations used only by the test suite."""

import numpy as np

from diracflow import make_initial_packet


def j0_quadrature(x: float, n: int = 4096) -> float:
    """J0 from its integral representation by trapezoid quadrature."""
    phi = np.linspace(-np.pi, np.pi, n, endpoint=False)
    return float(np.real(np.mean(np.exp(-1j * x * np.sin(phi)))))


def j1_quadrature(x: float, n: int = 4096) -> float:
    """J1 from its integral representation by trapezoid quadrature."""
    phi = np.linspace(-np.pi, np.pi, n, endpoint=False)
    return float(np.real(np.mean(np.exp(1j * (phi - x * np.sin(phi))))))


def dirac_spectral(t, data, half_width=60.0, n=2**14):
    """Free-Dirac evolution by the exact spectral propagator on a periodic grid.

    Per Fourier mode, exp(-i H(k) t) = cos(E t) I - i sin(E t) H(k) / E with
    H(k) = [[k, m], [m, -k]] and E = sqrt(k^2 + m^2).  Accurate to machine
    precision once the grid covers the packet and its spectrum.
    """
    s = -half_width + (2 * half_width / n) * np.arange(n)
    pk = make_initial_packet(data)(s)
    k = 2 * np.pi * np.fft.fftfreq(n, d=2 * half_width / n)
    fm = np.fft.fft(pk.minus)
    fp = np.fft.fft(pk.plus)
    m = data.mass
    energy = np.sqrt(k * k + m * m)
    cos_t = np.cos(energy * t)
    sinc_t = np.where(energy > 0, np.sin(energy * t) / np.where(energy > 0, energy, 1.0), t)
    gm = cos_t * fm - 1j * sinc_t * (k * fm + m * fp)
    gp = cos_t * fp - 1j * sinc_t * (m * fm - k * fp)
    return s, np.fft.ifft(gm), np.fft.ifft(gp)


def massless_transport(t, s, data):
    """(rho, j) where the whole momentum window has |v| = 1 to a double (k0 >> m, 1/sigma).

    Each component moves undeformed at the speed of light, the minus one to
    the right and the plus one to the left: rho = |c-|^2 f^2(s - t) +
    |c+|^2 f^2(s + t) and j = |c-|^2 f^2(s - t) - |c+|^2 f^2(s + t), with f^2
    the N(0, sigma^2) density.
    """
    s = np.asarray(s, dtype=float)

    def density(x):
        return np.exp(-x**2 / (2 * data.sigma**2)) / np.sqrt(2 * np.pi * data.sigma**2)

    right = np.cos(data.theta0 / 2) ** 2 * density(s - t)
    left = np.sin(data.theta0 / 2) ** 2 * density(s + t)
    return right + left, right - left
