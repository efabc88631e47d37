"""Bessel kernels J0 and J1, and the first positive zero of J0.

Thin wrappers over ``scipy.special.j0``/``j1`` (the Cephes fits of Stephen
L. Moshier, 1989: power series near the origin, Hankel asymptotics with
rational coefficients beyond) that add the library's contract: non-finite
arguments raise ``DomainError``, and a scalar argument gives a Python float.
Absolute error stays below 1e-12 for |x| <= 1e4; the test suite checks this
against direct quadrature of the integral representation
J_n(x) = (1/2pi) Int e^{i(n*phi - x*sin(phi))} dphi.

``scipy.special`` (with the array-API layer it imports, the larger part of
a fresh process's start-up) loads on the first Bessel call, not with the
package: a run that evaluates no kernel, such as the barrier analysis or a
rejected config, does not pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DomainError

__all__ = [
    "bessel_j0",
    "bessel_j1",
    "j0_eval",
    "j1_eval",
    "j0_first_zero",
]

# First positive zero of J0 (universal constant; re-verified by a bisection test).
_J0_FIRST_ZERO = 2.404825557695772768621632


@dataclass(frozen=True)
class BesselEval:
    """One kernel evaluation together with a conservative absolute error estimate."""

    x: float
    value: float
    abs_err_est: float


@cache
def _special():
    """``scipy.special``, imported on first use; later calls cost one cache hit."""
    from scipy import special

    return special


def _apply(name: str, x):
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError("Bessel argument must be finite")
    out = getattr(_special(), name)(arr)
    if arr.ndim == 0:
        return float(out)
    return out


def bessel_j0(x):
    """J0(x) for real x (scalar or array). Even in x; abs error <= 1e-12 on |x| <= 1e4."""
    return _apply("j0", x)


def bessel_j1(x):
    """J1(x) for real x (scalar or array). Odd in x; |J1(x)/x| <= 1/2 for x != 0."""
    return _apply("j1", x)


def _err_estimate(x: float) -> float:
    # Rounding in the series/rational fits plus phase-argument reduction at
    # large x; conservative and well under 1e-12 for |x| <= 1e4.
    return 5e-15 + 3e-16 * np.sqrt(max(abs(x), 1.0))


def j0_eval(x: float) -> BesselEval:
    """J0 evaluation bundled with its absolute error estimate."""
    return BesselEval(x=float(x), value=bessel_j0(float(x)), abs_err_est=_err_estimate(x))


def j1_eval(x: float) -> BesselEval:
    """J1 evaluation bundled with its absolute error estimate."""
    return BesselEval(x=float(x), value=bessel_j1(float(x)), abs_err_est=_err_estimate(x))


def j0_first_zero() -> float:
    """The smallest positive zero of J0 (=: j0), hard-coded to full precision."""
    return _J0_FIRST_ZERO
