"""Exception types shared across the package, and the real-input conversion that raises them."""

import math
import reprlib

import numpy as np

__all__ = [
    "DiracflowError",
    "ValidationError",
    "DomainError",
    "IntegrationError",
    "NodeError",
    "InfiniteMomentumError",
    "UndefinedSecantError",
    "BracketingError",
]


class DiracflowError(Exception):
    """Base class for all diracflow errors."""


class ValidationError(DiracflowError, ValueError):
    """Invalid parameters or configuration; the message names the violated constraint."""


class DomainError(DiracflowError, ValueError):
    """Mathematically inadmissible argument (non-finite input, t < 0, degenerate phase, ...)."""


class IntegrationError(DiracflowError, RuntimeError):
    """Quadrature did not reach the requested tolerance.

    Carries the best available estimate and the achieved residual so callers
    can decide whether a partial result is usable.
    """

    def __init__(self, message, partial=None, residual=None):
        super().__init__(message)
        self.partial = partial
        self.residual = residual


class NodeError(DiracflowError, ArithmeticError):
    """Wave-function node: density too small to define dependent quantities."""


class InfiniteMomentumError(DiracflowError, ArithmeticError):
    """Bohmian momentum/energy diverge (Bloch polar angle at 0 or pi)."""


class UndefinedSecantError(DiracflowError, ArithmeticError):
    """Bohmian momentum/energy undefined (Bloch azimuth at +-pi/2)."""


class BracketingError(DiracflowError, RuntimeError):
    """Root bracketing failed (no sign change over the search interval)."""


def as_real(x, name: str, scalar: bool = False, error=DomainError, *, above=None, at_least=None):
    """``x`` as finite floats: a float if ``scalar``, else a float array of any shape.

    Complex values, strings, None, ragged nesting, NaN and inf (and, for
    ``scalar``, anything with an axis) raise ``error``, so that no raw numpy
    or Python error escapes a public evaluator.  After finiteness, so does a
    value not above ``above`` or below ``at_least``, with one message naming
    the smallest value: ``{name} must be > {bound}, got {value}`` (or ``>=``).
    """
    try:
        arr = np.asarray(x)
        if arr.dtype.kind not in "biufO" or (scalar and arr.ndim):
            raise TypeError
        arr = arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{name} must be {'a real number' if scalar else 'real numbers'}, "
                    f"got {reprlib.repr(x)}") from None
    value = float(arr) if scalar else arr
    if not (math.isfinite(value) if scalar else np.isfinite(arr).all()):
        raise error(f"{name} must be finite, got {reprlib.repr(x)}")
    if above is not None or at_least is not None:
        op, bound = (">", above) if above is not None else (">=", at_least)
        low = value if scalar else float(arr.min(initial=math.inf))
        if not (low > bound if above is not None else low >= bound):
            raise error(f"{name} must be {op} {bound}, got {low!r}")
    return value
