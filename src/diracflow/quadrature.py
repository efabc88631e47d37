"""Panel quadrature for smooth, possibly highly oscillatory integrands.

Composite panels with global doubling, each panel carrying a pair of rules
on the same nodes.  The default pair is the 33-point Kronrod rule K33,
whose nodes include those of the 16-point Gauss-Legendre rule G16 (Laurie,
Math. Comp. 66, 1997; the pairing is QUADPACK's, Piessens et al. 1983).
``_trapezoid_rule`` pairs the trapezoid sums T_h and T_2h on uniform nodes,
for integrands smooth and negligible at both ends, where the trapezoid
rule converges geometrically (Trefethen and Weideman, SIAM Rev. 56, 2014).

``refine_panels`` is the doubling loop shared by every caller, ``packets``'
moments of a spinor field included (two grid points per panel).  It runs a
pass function n -> (first, second), the two rules' sums over n panels, and
returns the first with the error estimate |first - second|.  n is doubled
only while that estimate misses the tolerance, and doubling stops with a
failure once it cannot help: at the panel budget, at a worst estimate that
is not finite, or at one that failed to halve the previous pass's and sits
at the rounding floor 256 eps max|first|, as QUADPACK flags roundoff when
refinement stalls.  The caller sets the starting panel count, typically so
that the first pass already samples every oscillation.

``_composite`` is the pass of a vectorized integrand: it evaluates the
integrand once at the nodes of each of P panels and forms both sums from
the same weighted product.  ``integrate_panels`` runs the loop on it; the
exact field's grid routes hand the loop their passes directly, the Bessel
route ``_composite`` over its integrand and the momentum route a pass of
its own.  ``f(nodes)`` receives a 1-D array of abscissas, whole panels of
ascending nodes each, and returns one of two forms.

* An array whose leading axis matches ``nodes``, with any trailing shape
  (e.g. one column per field point), so whole grids integrate in one pass.
* A pair ``(kernel, basis)`` of shapes (N, c) and (N, n) for N nodes, for an
  integrand whose value at node j is the outer product kernel_j (x) basis_j.
  The weighted sums of both rules are then one matrix product, the (2c, N)
  rows w_r * kernel^T times the basis, that never forms the (N, c, n) array.
  A complex kernel on a real basis is summed as one real product, with the
  kernel's real and imaginary parts as rows.
"""

from __future__ import annotations

from functools import cache, lru_cache
from math import inf, isfinite

import numpy as np

from .errors import IntegrationError

__all__ = ["integrate_panels", "refine_panels"]

_GL_ORDER = 16  # Gauss-Legendre nodes per panel, the embedded rule G16
_PANEL_NODES = 2 * _GL_ORDER + 1  # Kronrod nodes per panel, the rule K33
_TRAPEZOID_NODES = 16  # nodes per panel of the trapezoid pair, even
_NODE_CHUNK = 16384
# Panel layouts of up to _LAYOUT_CACHE_NODES nodes are cached, the last
# _LAYOUT_CACHE_SIZE used: with 24 bytes per node (node and two weights),
# the cache keeps at most 3 MiB between calls.  Larger layouts, whose
# integrand cost dwarfs the layout's, are built per call and freed with it.
_LAYOUT_CACHE_NODES = 2**13
_LAYOUT_CACHE_SIZE = 16
# A residual at most this multiple of max|value| is rounding (QUADPACK
# floors its estimate at 50 eps times the integral of |f|).
_ROUNDOFF_FLOOR = 256 * np.finfo(float).eps


@cache
def _gk_rule():
    """K33 on [-1, 1], built on first use: ascending nodes (33,) and weights (2, 33).

    The weight rows are K33's and G16's; G16's nodes are K33's odd-indexed
    ones, and its weight is 0 at the other 17.  The table holds the nodes
    x >= 0 in descending order, every other one a Gauss node, correctly
    rounded from Laurie's algorithm run in 50-digit arithmetic.
    """
    half = np.array([
        0.9982392741454446, 0.9894009349916499, 0.9715059509693926, 0.9445750230732326,
        0.9091576670123429, 0.8656312023878318, 0.8142402870624444, 0.755404408355003,
        0.6897411066817623, 0.6178762444026438, 0.5404076763521397, 0.45801677765722737,
        0.37148378087841627, 0.2816035507792589, 0.18916857901808373, 0.09501250983763744,
        0.0])
    kronrod = np.array([
        0.004742777049247318, 0.013257930688091158, 0.022498859440049444, 0.031260543647380526,
        0.039512951202421966, 0.047506215976407015, 0.055205633095422174, 0.062358806011834855,
        0.06886299519153125, 0.07476982388559955, 0.08005394126371929, 0.08459580379259064,
        0.08833750257911273, 0.09129203282819166, 0.09343867406092123, 0.09472840124723005,
        0.0951542160804983])
    gauss = np.zeros(_GL_ORDER + 1)
    gauss[1::2] = [
        0.027152459411754096, 0.062253523938647894, 0.09515851168249279, 0.12462897125553388,
        0.14959598881657674, 0.16915651939500254, 0.18260341504492358, 0.1894506104550685]

    def mirrored(h, sign):
        return np.concatenate([sign * h[:-1], h[::-1]])

    nodes = mirrored(half, -1.0)
    weights = np.stack([mirrored(kronrod, 1.0), mirrored(gauss, 1.0)])
    return nodes, weights


@cache
def _trapezoid_rule():
    """The trapezoid pair on [-1, 1]: nodes (B,) and weights (2, B).

    The nodes are uniform at spacing 2 / B from the left end; the right end
    is the next panel's first node (and is negligible after the last).  Row
    0 is T_h, 2 / B on every node, and row 1 T_2h, 4 / B on the even nodes.
    These include u = 0 on a symmetric interval, where midpoint nodes would
    make the even nodes the odd ones' mirror and T_2h equal T_h on every
    even integrand.
    """
    b = _TRAPEZOID_NODES
    weights = np.zeros((2, b))
    weights[0], weights[1, ::2] = 2.0 / b, 4.0 / b
    return 2.0 * np.arange(b) / b - 1.0, weights


def _build_layout(a: float, b: float, n_panels: int, rule=_gk_rule):
    """Abscissas (N,) and the two weight rows (2, N) of n_panels ``rule`` panels over [a, b]."""
    base, wts = rule()
    h = (b - a) / n_panels
    left = a + h * np.arange(n_panels)
    nodes = (left[:, None] + 0.5 * h * (base[None, :] + 1.0)).ravel()
    return nodes, np.tile(0.5 * h * wts, n_panels)


@lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _cached_layout(a: float, b: float, n_panels: int, rule):
    """``_build_layout``, read-only and shared by every call with the same key."""
    nodes, weights = _build_layout(a, b, n_panels, rule)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _layout(a: float, b: float, n_panels: int, rule=_gk_rule):
    """The panel layout, from the cache up to ``_LAYOUT_CACHE_NODES`` nodes."""
    if n_panels * rule()[0].size <= _LAYOUT_CACHE_NODES:
        # Plain numbers as the key, so that 0-d array bounds hash; float()
        # of a float64 is exact.
        return _cached_layout(float(a), float(b), int(n_panels), rule)
    return _build_layout(a, b, n_panels, rule)


def _weighted_sums(w, vals):
    """Sum_j w_rj vals_j over the leading axis of ``vals`` for each row r of ``w``.

    ``vals`` is one of the integrand forms of the module docstring; ``w`` is
    (R, N) and the sums are stacked along a new leading axis of length R.
    """
    if not isinstance(vals, tuple):
        return np.tensordot(w, np.asarray(vals), axes=1)
    kernel, basis = vals
    n_cols = kernel.shape[1]
    split = np.iscomplexobj(kernel) and not np.iscomplexobj(basis)
    if split:
        # Real and imaginary parts as rows of one real product, so that the
        # real basis is never cast to complex.
        kernel = np.ascontiguousarray(kernel).view(kernel.real.dtype)
    # Nodes along the last axis, so that the weighting runs over long rows.
    weighted = w[:, None, :] * np.ascontiguousarray(kernel.T)[None, :, :]
    sums = weighted.reshape(-1, basis.shape[0]) @ basis
    if split:
        parts = sums.reshape(-1, 2, sums.shape[1])
        sums = np.empty((parts.shape[0], parts.shape[2]), dtype=complex)
        sums.real, sums.imag = parts[:, 0], parts[:, 1]
    return sums.reshape(w.shape[0], n_cols, -1)


def _composite(f, a: float, b: float, n_panels: int, node_chunk: int, rule=_gk_rule):
    """Both estimates of ``rule`` over [a, b] with n_panels panels, stacked first."""
    # All abscissas for all panels at once; the integrand sees them in
    # chunks of whole panels, the fewest that hold node_chunk nodes, which
    # bounds its memory.
    nodes, weights = _layout(a, b, n_panels, rule)
    per_panel = rule()[0].size
    step = per_panel * max(1, -(-node_chunk // per_panel))
    total = None
    for lo in range(0, nodes.size, step):
        part = _weighted_sums(weights[:, lo:lo + step], f(nodes[lo:lo + step]))
        total = part if total is None else total + part
    return total


def refine_panels(run_pass, initial_panels, *, rel_tol: float, abs_tol: float, max_panels: int):
    """Double the panel count of ``run_pass`` until it converges; returns ``(value, err_est, n)``.

    ``run_pass(n)`` returns the pair's two sums over n panels, first and
    second, of any common shape; ``value`` is the first and ``err_est`` its
    distance from the second.  Raises IntegrationError if the starting
    count exceeds the panel budget, before any pass, with no partial
    result; and if a pass misses the tolerance where doubling cannot help
    (see the module docstring), carrying that pass's value as the partial
    result and err as residual.
    """
    n = max(1, int(initial_panels))
    if n > max_panels:
        raise IntegrationError(f"panel budget {max_panels} is below the {n:.6g} starting panels",
                               partial=None, residual=np.inf)
    previous = inf
    while True:
        value, coarse = run_pass(n)
        err = np.abs(value - coarse)
        target = np.maximum(abs_tol, rel_tol * np.abs(value))
        if (err <= target).all():
            return value, err, n
        worst = float(np.max(err))
        floor = _ROUNDOFF_FLOOR * float(np.max(np.abs(value)))
        stalled = not isfinite(worst) or previous / 2 < worst <= floor
        if stalled or 2 * n > max_panels:
            stop = f"; refinement stopped at {n} panels" if stalled else ""
            raise IntegrationError(
                f"quadrature did not converge within {max_panels} panels "
                f"(max residual {worst:.3e}{stop})",
                partial=value,
                residual=err,
            )
        previous = worst
        n *= 2


def integrate_panels(
    f,
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
    initial_panels: int = 8,
    max_panels: int = 2**20,
    node_chunk: int = _NODE_CHUNK,
):
    """Integrate ``f`` over [a, b]; returns ``(value, err_est, panels_used)``.

    ``value`` is the K33 estimate and ``err_est`` its distance from G16's,
    from ``refine_panels`` and its failures.  The starting count is checked
    against the budget before ``f`` is evaluated.
    """
    if b <= a:
        return _weighted_sums(np.zeros((1, 1)), f(np.array([a])))[0], 0.0, 0
    return refine_panels(lambda n: _composite(f, a, b, n, node_chunk), initial_panels,
                         rel_tol=rel_tol, abs_tol=abs_tol, max_panels=max_panels)
