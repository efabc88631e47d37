"""Panel quadrature for smooth, possibly highly oscillatory integrands.

Composite Gauss-Legendre panels with global doubling: the integral is
evaluated on N panels, N is doubled until two successive estimates agree
within tolerance, and the last difference is kept as the error estimate.
The starting panel count honors a minimum number of panels per oscillation
so the first estimate already resolves every oscillation of the integrand.

Integrands are vectorized: ``f(nodes)`` receives a 1-D array of abscissas
and may return an array whose leading axis matches ``nodes`` with any
trailing shape (e.g. one column per field point), so whole grids integrate
in one pass.  An integrand whose value at node j is an outer product
kernel_j (x) basis_j may instead return the pair ``(kernel, basis)`` with
shapes (N, c) and (N, n): the weighted sum is then the matrix product
(w*kernel)^T @ basis, a (c, n) result that never forms the (N, c, n) array.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import IntegrationError

__all__ = ["integrate_panels"]

_GL_ORDER = 16
_NODE_CHUNK = 16384


@lru_cache(maxsize=8)
def _gl_rule(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


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


def _composite(f, a: float, b: float, n_panels: int, order: int, node_chunk: int):
    """Composite Gauss-Legendre estimate over [a, b] with n_panels panels."""
    base, wts = _gl_rule(order)
    h = (b - a) / n_panels
    # All abscissas for all panels at once, chunked to bound memory.
    left = a + h * np.arange(n_panels)
    nodes = (left[:, None] + 0.5 * h * (base[None, :] + 1.0)).ravel()
    weights = np.broadcast_to(0.5 * h * wts, (n_panels, order)).ravel()
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
    order: int = _GL_ORDER,
    node_chunk: int = _NODE_CHUNK,
):
    """Integrate ``f`` over [a, b]; returns ``(value, err_est, panels_used)``.

    Raises IntegrationError (carrying the partial result and residual) if the
    panel budget is exhausted before the tolerance is met.
    """
    if b <= a:
        return _weighted_sum(np.zeros(1), f(np.array([a]))), 0.0, 0
    n = max(1, int(initial_panels))
    if 2 * n > max_panels:
        # The oscillation guard alone exceeds the budget: no refinement (and
        # hence no error estimate) is possible within max_panels.
        partial = _composite(f, a, b, min(n, max_panels), order, node_chunk)
        raise IntegrationError(
            f"panel budget {max_panels} below the {n} panels required to "
            "resolve the integrand's oscillations",
            partial=partial,
            residual=np.inf,
        )
    prev = _composite(f, a, b, n, order, node_chunk)
    while True:
        n *= 2
        cur = _composite(f, a, b, n, order, node_chunk)
        err = np.abs(cur - prev)
        target = np.maximum(abs_tol, rel_tol * np.abs(cur))
        if np.all(err <= target):
            return cur, err, n
        if n * 2 > max_panels:
            raise IntegrationError(
                f"quadrature did not converge within {max_panels} panels "
                f"(max residual {float(np.max(err)):.3e})",
                partial=cur,
                residual=err,
            )
        prev = cur
