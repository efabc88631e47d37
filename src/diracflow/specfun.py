"""Bessel kernels J0 and J1, the first positive zero of J0, and the normal quantile.

``bessel_j0``/``bessel_j1`` wrap ``scipy.special.j0``/``j1`` (the Cephes
fits of Stephen L. Moshier, 1989: power series near the origin, Hankel
asymptotics with rational coefficients beyond) and add the library's
contract: non-finite arguments raise ``DomainError``, and a scalar argument
gives a Python float.
Absolute error stays below 1e-12 for |x| <= 1e4; the test suite checks this
against direct quadrature of the integral representation
J_n(x) = (1/2pi) Int e^{i(n*phi - x*sin(phi))} dphi.

``scipy.special`` (with the array-API layer it imports, the larger part of
a fresh process's start-up) loads on the first Bessel call, not with the
package: a run that evaluates no kernel, such as an SPA ensemble, the barrier
analysis or a rejected config, does not pay for it.

``ndtri(y)``, the inverse of the standard normal CDF, is Moshier's Cephes
``ndtri.c`` transcribed with its 21-digit coefficients: a rational fit in
y - 1/2 on the centre, and two fits in z = 1/sqrt(-2 ln y) on the tails.  It
equals ``scipy.special.ndtri`` bit for bit and imports nothing from scipy.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache

import numpy as np

from .errors import DomainError

__all__ = [
    "bessel_j0",
    "bessel_j1",
    "j0_eval",
    "j1_eval",
    "j0_first_zero",
    "ndtri",
]

# First positive zero of J0 (universal constant; re-verified by a bisection test).
_J0_FIRST_ZERO = 2.404825557695772768621632


# One kernel evaluation together with a conservative absolute error estimate.
BesselEval = namedtuple("BesselEval", "x value abs_err_est")


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


def _eval(kernel, x) -> BesselEval:
    # Rounding in the series/rational fits plus phase-argument reduction at
    # large x; conservative and well under 1e-12 for |x| <= 1e4.
    return BesselEval(float(x), kernel(float(x)), 5e-15 + 3e-16 * np.sqrt(max(abs(x), 1.0)))


def j0_eval(x: float) -> BesselEval:
    """J0 evaluation bundled with its absolute error estimate."""
    return _eval(bessel_j0, x)


def j1_eval(x: float) -> BesselEval:
    """J1 evaluation bundled with its absolute error estimate."""
    return _eval(bessel_j1, x)


def j0_first_zero() -> float:
    """The smallest positive zero of J0 (=: j0), hard-coded to full precision."""
    return _J0_FIRST_ZERO


# Cephes ndtri.c: P0/Q0 in y - 1/2 for |y - 1/2| < 1/2 - exp(-2); beyond,
# P1/Q1 in z = 1/x for x = sqrt(-2 ln y) < 8 and P2/Q2 for x >= 8.  The Q
# tuples omit their leading 1.
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x: float, coeffs, acc: float) -> float:
    """acc * x^n + c_0 * x^(n-1) + ... + c_(n-1), in Cephes' order (polevl/p1evl)."""
    for c in coeffs:
        acc = acc * x + c
    return acc


def ndtri(y: float) -> float:
    """x with Phi(x) = y for the standard normal CDF Phi; -inf at 0, inf at 1, NaN outside."""
    y = float(y)
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _horner(y2, _P0[1:], _P0[0]) / _horner(y2, _Q0, 1.0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x - math.log(x) / x - z * _horner(z, p[1:], p[0]) / _horner(z, q, 1.0)
    return x if upper else -x
