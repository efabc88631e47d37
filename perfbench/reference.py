"""Independent reference solutions the benchmark checks diracflow against.

The free Dirac equation is diagonal in momentum space.  Per Fourier mode
the propagator is exact (Thaller, *The Dirac Equation*, section 1.4):

    exp(-i H(k) t) = cos(E t) I - i sin(E t) H(k) / E,
    H(k) = [[k, m], [m, -k]],  E = sqrt(k^2 + m^2).

The initial Gaussian spinor is sampled on a periodic grid wide enough that
it and everything it spreads into (the Dirac flow moves at speed <= 1) stay
far from the wrap-around, and fine enough that its spectrum lies well
inside the grid's band.  The evolved spectrum is then evaluated at arbitrary
positions by its trigonometric sum, which is exact for a band-limited
periodic function.  Nothing here calls diracflow's quadrature, Bessel
kernels or velocity fields; only the packet definition is shared, and it is
rebuilt from the published formula rather than imported.
"""

from __future__ import annotations

from math import ceil, log2

import numpy as np

# Trigonometric sums are evaluated this many positions at a time, so the
# reference's temporaries stay far below the program's own peak memory.
_POINT_CHUNK = 16


def initial_spinor(data, s):
    """(psi_-, psi_+) of the Gaussian packet at positions s, from its definition."""
    amp = (2 * np.pi * data.sigma**2) ** -0.25 * np.exp(-s**2 / (4 * data.sigma**2))
    envelope = amp * np.exp(1j * data.k0 * s)
    phase = np.exp(0.5j * data.phase0)
    cm = phase * np.cos(data.theta0 / 2) * np.exp(0.5j * data.omega0)
    cp = phase * np.sin(data.theta0 / 2) * np.exp(-0.5j * data.omega0)
    return cm * envelope, cp * envelope


class SpectralSolution:
    """psi(t, .) of one packet at one time, evaluable at any position.

    ``half_width`` must exceed t + 14 sigma so that the packet, after
    spreading at most at light speed, is below 1e-16 at the boundary; the
    mode count is raised until the band covers |k0| + 12 / sigma.
    """

    def __init__(self, data, t: float):
        self.data = data
        self.t = float(t)
        self.half_width = self.t + 14.0 * data.sigma + 1.0
        k_needed = abs(data.k0) + 12.0 / data.sigma
        n_min = 2 * self.half_width * k_needed / np.pi
        self.n = 1 << max(10, ceil(log2(n_min)) + 1)
        length = 2 * self.half_width
        grid = -self.half_width + (length / self.n) * np.arange(self.n)
        minus, plus = initial_spinor(data, grid)
        k = 2 * np.pi * np.fft.fftfreq(self.n, d=length / self.n)
        fm = np.fft.fft(minus)
        fp = np.fft.fft(plus)
        m = data.mass
        energy = np.sqrt(k * k + m * m)
        cos_t = np.cos(energy * self.t)
        sinc_t = np.where(energy > 0, np.sin(energy * self.t) / np.where(energy > 0, energy, 1.0),
                          self.t)
        gm = cos_t * fm - 1j * sinc_t * (k * fm + m * fp)
        gp = cos_t * fp - 1j * sinc_t * (m * fm - k * fp)
        # Drop modes the packet does not populate: the sum below then costs
        # O(kept modes) per position instead of O(n).
        keep = (np.abs(gm) + np.abs(gp)) > 1e-18 * self.n
        self._k = k[keep]
        self._gm = gm[keep] / self.n
        self._gp = gp[keep] / self.n

    def spinor(self, s):
        """(psi_-, psi_+) at positions s (any shape, flattened)."""
        s = np.atleast_1d(np.asarray(s, dtype=float)).ravel()
        minus = np.empty(s.size, dtype=complex)
        plus = np.empty(s.size, dtype=complex)
        for lo in range(0, s.size, _POINT_CHUNK):
            hi = min(lo + _POINT_CHUNK, s.size)
            wave = np.exp(1j * np.outer(s[lo:hi] + self.half_width, self._k))
            minus[lo:hi] = wave @ self._gm
            plus[lo:hi] = wave @ self._gp
        return minus, plus
