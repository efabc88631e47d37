"""Panel quadrature for smooth, possibly highly oscillatory integrands.

Composite Gauss-Legendre panels with global doubling: the integral is
evaluated on N panels, N is doubled until two successive estimates agree
within tolerance, and the last difference is kept as the error estimate.
The caller sets the starting panel count, typically from the integrand's
phase rate so the first estimate already samples every oscillation.

Integrands are vectorized: ``f(nodes)`` receives a 1-D array of abscissas
and may return an array whose leading axis matches ``nodes`` with any
trailing shape (e.g. one column per field point), so whole grids integrate
in one pass.  An integrand whose value at node j is an outer product
kernel_j (x) basis_j may instead return the pair ``(kernel, basis)`` with
shapes (N, c) and (N, n): the weighted sum is then the matrix product
(w*kernel)^T @ basis, a (c, n) result that never forms the (N, c, n) array.
"""

from __future__ import annotations

from functools import cache, lru_cache

import numpy as np

from .errors import IntegrationError

__all__ = ["integrate_panels"]

_GL_ORDER = 16  # Gauss-Legendre nodes per panel
_NODE_CHUNK = 16384
# Panel layouts of up to _LAYOUT_CACHE_NODES nodes are cached, the last
# _LAYOUT_CACHE_SIZE used: with 16 bytes per node (node and weight), the
# cache keeps at most 4 MiB between calls.  Larger layouts, whose integrand
# cost dwarfs the layout's, are built per call and freed with it.
_LAYOUT_CACHE_NODES = 2**14
_LAYOUT_CACHE_SIZE = 16


@cache
def _gl_rule():
    """The ``_GL_ORDER``-point Gauss-Legendre rule on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(_GL_ORDER)


def _build_layout(a: float, b: float, n_panels: int):
    """Abscissas and weights of n_panels Gauss-Legendre panels over [a, b]."""
    base, wts = _gl_rule()
    h = (b - a) / n_panels
    left = a + h * np.arange(n_panels)
    nodes = (left[:, None] + 0.5 * h * (base[None, :] + 1.0)).ravel()
    weights = np.broadcast_to(0.5 * h * wts, (n_panels, _GL_ORDER)).ravel()
    return nodes, weights


@lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _cached_layout(a: float, b: float, n_panels: int):
    """``_build_layout``, read-only and shared by every call with the same key."""
    nodes, weights = _build_layout(a, b, n_panels)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _layout(a: float, b: float, n_panels: int):
    """The panel layout, from the cache up to ``_LAYOUT_CACHE_NODES`` nodes."""
    if n_panels * _GL_ORDER <= _LAYOUT_CACHE_NODES:
        # Plain numbers as the key, so that 0-d array bounds hash; float()
        # of a float64 is exact.
        return _cached_layout(float(a), float(b), int(n_panels))
    return _build_layout(a, b, n_panels)


def _weighted_sum(w, vals):
    """Sum_j w_j vals_j over the leading axis, for an array or a (kernel, basis) pair."""
    if not isinstance(vals, tuple):
        return np.tensordot(w, np.asarray(vals), axes=1)
    kernel, basis = vals
    wk = w[:, None] * kernel
    if np.iscomplexobj(wk) and not np.iscomplexobj(basis):
        # Real and imaginary parts side by side in one real product, so the
        # real basis is never cast to complex.
        re_im = np.ascontiguousarray(wk).view(wk.real.dtype).T @ basis
        return re_im[0::2] + 1j * re_im[1::2]
    return wk.T @ basis


def _composite(f, a: float, b: float, n_panels: int, node_chunk: int):
    """Composite Gauss-Legendre estimate over [a, b] with n_panels panels."""
    # All abscissas for all panels at once; the integrand sees them in
    # chunks, which bounds its memory.
    nodes, weights = _layout(a, b, n_panels)
    total = None
    for lo in range(0, nodes.size, node_chunk):
        hi = min(lo + node_chunk, nodes.size)
        part = _weighted_sum(weights[lo:hi], f(nodes[lo:hi]))
        total = part if total is None else total + part
    return total


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

    Raises IntegrationError (carrying the partial result and residual) if the
    panel budget is exhausted before the tolerance is met; if the starting
    count alone exceeds it, before evaluating ``f``, with no partial result.
    """
    if b <= a:
        return _weighted_sum(np.zeros(1), f(np.array([a]))), 0.0, 0
    n = max(1, int(initial_panels))
    if n > max_panels:
        raise IntegrationError(f"panel budget {max_panels} is below the {n:.6g} starting panels",
                               partial=None, residual=np.inf)
    if 2 * n > max_panels:
        # One doubling of the start exceeds the budget: no refinement (and
        # hence no error estimate) is possible within max_panels.
        partial = _composite(f, a, b, n, node_chunk)
        raise IntegrationError(
            f"panel budget {max_panels} leaves no room to double the {n} "
            f"starting panels (one doubling needs {2 * n})",
            partial=partial,
            residual=np.inf,
        )
    prev = _composite(f, a, b, n, node_chunk)
    while True:
        n *= 2
        cur = _composite(f, a, b, n, node_chunk)
        err = np.abs(cur - prev)
        target = np.maximum(abs_tol, rel_tol * np.abs(cur))
        if (err <= target).all():
            return cur, err, n
        if n * 2 > max_panels:
            raise IntegrationError(
                f"quadrature did not converge within {max_panels} panels "
                f"(max residual {float(np.max(err)):.3e})",
                partial=cur,
                residual=err,
            )
        prev = cur
