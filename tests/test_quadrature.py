import gc
import re
import weakref

import numpy as np
import pytest

from diracflow import IntegrationError, PacketParams, dirac_exact, quadrature
from diracflow.quadrature import (_GL_ORDER, _NODE_CHUNK, _PANEL_NODES, _TRAPEZOID_NODES,
                                  _composite, _gk_rule, _trapezoid_rule, integrate_panels)

S = np.linspace(-1.0, 2.0, 7)

# (complex kernel, complex basis): the real-kernel/real-basis product, the
# field evaluator's complex kernel on a real basis, and complex bases.
FORMS = [(False, False), (True, False), (False, True), (True, True)]


def kernel_of(theta, complex_kernel):
    k = np.stack([np.cos(5 * theta), theta * np.sin(3 * theta), np.exp(-theta)], axis=1)
    return k * np.exp(-4j * np.cos(theta))[:, None] if complex_kernel else k


def basis_of(theta, complex_basis):
    x = S[None, :] - 2.0 * np.cos(theta)[:, None]
    b = np.exp(-x * x)
    return b * np.exp(3j * x) if complex_basis else b


def integrands(complex_kernel, complex_basis):
    """The same integrand as a (kernel, basis) pair and as a plain (N, 3, n) array."""
    def pair(theta):
        return kernel_of(theta, complex_kernel), basis_of(theta, complex_basis)

    def plain(theta):
        kernel, basis = pair(theta)
        return kernel[:, :, None] * basis[:, None, :]

    return pair, plain


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("complex_kernel, complex_basis", FORMS)
def test_pair_integrand_matches_plain_array(complex_kernel, complex_basis):
    # Over [0, 4 pi] both forms double twice from the 4 starting panels.
    pair, plain = integrands(complex_kernel, complex_basis)
    got, _, n_got = integrate_panels(pair, 0.0, 4 * np.pi, rel_tol=1e-12, initial_panels=4)
    want, _, n_want = integrate_panels(plain, 0.0, 4 * np.pi, rel_tol=1e-12, initial_panels=4)
    assert n_got == n_want > 4
    assert np.iscomplexobj(got) == (complex_kernel or complex_basis)
    assert_close(got, want)


@pytest.mark.parametrize("complex_kernel, complex_basis", FORMS)
def test_pair_integrand_small_node_chunks(complex_kernel, complex_basis):
    pair, plain = integrands(complex_kernel, complex_basis)
    got, _, _ = integrate_panels(pair, 0.0, np.pi, initial_panels=8, node_chunk=40)
    want, _, _ = integrate_panels(plain, 0.0, np.pi, initial_panels=8)
    assert_close(got, want)


@pytest.mark.parametrize("complex_kernel, complex_basis", FORMS)
def test_pair_integrand_empty_interval(complex_kernel, complex_basis):
    pair, plain = integrands(complex_kernel, complex_basis)
    for a, b in ((1.0, 1.0), (2.0, 1.0)):
        value, err, n = integrate_panels(pair, a, b)
        assert value.shape == (3, S.size)
        assert np.iscomplexobj(value) == (complex_kernel or complex_basis)
        assert np.all(value == 0) and err == 0.0 and n == 0
        assert value.shape == integrate_panels(plain, a, b)[0].shape


# Tolerances out of reach: initial_panels 2 refines until the budget runs
# out; 8 cannot double at once, so its one pass is the last.
@pytest.mark.parametrize("initial_panels", [2, 8])
@pytest.mark.parametrize("complex_kernel, complex_basis", FORMS)
def test_pair_integrand_partial_on_failure(complex_kernel, complex_basis, initial_panels):
    pair, plain = integrands(complex_kernel, complex_basis)
    match = "did not converge within 8"
    partials = []
    for f in (pair, plain):
        with pytest.raises(IntegrationError, match=match) as info:
            integrate_panels(f, 0.0, np.pi, rel_tol=1e-300, abs_tol=1e-300,
                             initial_panels=initial_panels, max_panels=8)
        partials.append(info.value.partial)
    assert_close(*partials)


def test_start_beyond_budget_raises_before_evaluating():
    def never(nodes):
        raise AssertionError("the integrand was evaluated")

    with pytest.raises(IntegrationError,
                       match="panel budget 16 is below the 17 starting panels") as info:
        integrate_panels(never, 0.0, np.pi, initial_panels=17, max_panels=16)
    assert info.value.partial is None
    assert info.value.residual == np.inf


@pytest.mark.parametrize("initial_panels, max_panels", [(12, 16), (9, 17)])
def test_start_without_room_to_double(initial_panels, max_panels):
    # A start within the budget but above half of it cannot double, but its
    # one pass has an error estimate: out of reach of the tolerances, the
    # partial is the starting K33 estimate and the residual |K33 - G16|.
    pair, _ = integrands(True, False)
    with pytest.raises(IntegrationError,
                       match=f"did not converge within {max_panels} panels") as info:
        integrate_panels(pair, 0.0, np.pi, rel_tol=1e-300, abs_tol=1e-300,
                         initial_panels=initial_panels, max_panels=max_panels)
    want, gauss = _composite(pair, 0.0, np.pi, initial_panels, _NODE_CHUNK)
    assert_close(info.value.partial, want)
    assert np.array_equal(info.value.residual, np.abs(want - gauss))


def test_non_finite_integrand_is_evaluated_once():
    # No number of panels makes a NaN converge: the first pass is the last.
    calls = []

    def nan(nodes):
        calls.append(nodes.size)
        return np.full((nodes.size, 2), np.nan)

    with pytest.raises(IntegrationError, match="refinement stopped at 8 panels") as info:
        integrate_panels(nan, 0.0, 1.0, initial_panels=8)
    assert calls == [8 * _PANEL_NODES]
    assert info.value.partial.shape == (2,)


def test_residual_at_rounding_stops_refining():
    # exp on one panel is already exact to rounding; no count reaches 1e-300.
    with pytest.raises(IntegrationError, match="did not converge within 1048576 panels") as info:
        integrate_panels(np.exp, 0.0, 1.0, rel_tol=1e-300, abs_tol=1e-300, initial_panels=1)
    assert int(re.search(r"refinement stopped at (\d+) panels", str(info.value))[1]) <= 64
    assert abs(info.value.partial - (np.e - 1)) <= 1e-15


def test_converging_after_doublings_returns_the_first_passing_pass():
    # From one panel cos(40 x) needs several doublings; the result is the
    # first count whose pass meets the tolerance, bit for bit.
    def f(x):
        return np.stack([np.cos(40 * x), x * np.sin(40 * x)], axis=1)

    value, err, n = integrate_panels(f, 0.0, 3.0, initial_panels=1)
    count = 1
    while True:
        kronrod, gauss = _composite(f, 0.0, 3.0, count, _NODE_CHUNK)
        if (np.abs(kronrod - gauss) <= np.maximum(1e-12, 1e-9 * np.abs(kronrod))).all():
            break
        count *= 2
    assert n == count >= 4
    assert value.tobytes() == kronrod.tobytes()
    assert err.tobytes() == np.abs(kronrod - gauss).tobytes()


def test_cached_layouts_are_read_only_and_capped():
    quadrature._cached_layout.cache_clear()
    nodes, weights = quadrature._layout(0.0, np.pi, 8)
    assert not nodes.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError):
        nodes[0] = 1.0
    assert quadrature._layout(0.0, np.pi, 8)[0] is nodes
    # A layout above the cap is built per call and not retained.
    big = quadrature._LAYOUT_CACHE_NODES // _GL_ORDER + 1
    big_nodes, _ = quadrature._layout(0.0, np.pi, big)
    assert big_nodes.size > quadrature._LAYOUT_CACHE_NODES
    assert quadrature._layout(0.0, np.pi, big)[0] is not big_nodes
    assert quadrature._cached_layout.cache_info().currsize == 1


@pytest.mark.parametrize("n_panels", [8, 21])
def test_layout_equals_per_call_build(n_panels):
    # A cached layout is the one built from scratch, bit for bit; the
    # intervals share an end pairwise, so a key missing one would show.
    for a, b in ((0.0, np.pi), (0.0, 2.0), (-40.0, 2.0), (-40.0, 40.0)):
        got = quadrature._layout(a, b, n_panels)
        want = quadrature._build_layout(a, b, n_panels)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


def test_layout_cache_stays_within_its_budget():
    # Many distinct intervals at the size cap and just above it: the layouts
    # still alive afterwards (those the cache keeps) hold at most 4 MiB.
    quadrature._cached_layout.cache_clear()
    at_cap = quadrature._LAYOUT_CACHE_NODES // _PANEL_NODES
    refs = []
    for j in range(3 * quadrature._LAYOUT_CACHE_SIZE):
        for n_panels in (at_cap, at_cap + 1):
            refs.extend(map(weakref.ref, quadrature._layout(0.0, 1.0 + j, n_panels)))
    gc.collect()
    kept = [r() for r in refs if r() is not None]
    assert len(kept) == 2 * quadrature._LAYOUT_CACHE_SIZE
    assert sum(x.nbytes for x in kept) <= 4 * 2**20


def test_zero_dim_array_bounds():
    pair, _ = integrands(True, False)
    want = integrate_panels(pair, 0.0, 2.0)
    got = integrate_panels(pair, np.array(0.0), np.array(2.0))
    for g, w in zip(got, want):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


# =============================================================================
# The Gauss-Kronrod rule
# =============================================================================

def test_embedded_gauss_rule_is_leggauss():
    nodes, weights = _gk_rule()
    gauss_nodes, gauss_weights = np.polynomial.legendre.leggauss(_GL_ORDER)
    assert np.all(np.abs(nodes[1::2] - gauss_nodes) <= 2 * np.spacing(np.abs(gauss_nodes)))
    # leggauss's weights are up to 4.4e-16 off their 50-digit values, which
    # the table holds correctly rounded: 2 ulp of the weights' sum.
    assert np.all(np.abs(weights[1, 1::2] - gauss_weights) <= 2 * np.spacing(2.0))
    assert np.all(weights[1, 0::2] == 0)


def test_kronrod_rule_shape():
    nodes, weights = _gk_rule()
    assert nodes.shape == (_PANEL_NODES,) and weights.shape == (2, _PANEL_NODES)
    # Symmetric about 0, every K33 weight positive, and the 17 Kronrod nodes
    # interlace the 16 Gauss nodes inside (-1, 1).
    assert np.array_equal(nodes, -nodes[::-1]) and nodes[_GL_ORDER] == 0
    assert np.array_equal(weights, weights[:, ::-1])
    assert np.all(weights[0] > 0) and np.all(weights[1, 1::2] > 0)
    assert -1 < nodes[0] and nodes[-1] < 1 and np.all(np.diff(nodes) > 0)


def test_kronrod_rule_degrees():
    # K33 is exact for polynomials of degree 3 * 16 + 1 = 49, G16 for 31.
    nodes, weights = _gk_rule()
    for rule, degree in ((0, 49), (1, 31)):
        for d in range(degree + 1):
            want = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert abs(weights[rule] @ nodes**d - want) <= 1e-14, (rule, d)


def test_one_pass_per_panel_count():
    # Each count is one pass of 33 nodes per panel: a start that meets the
    # tolerance evaluates the integrand once per chunk, nothing more.
    pair, _ = integrands(True, False)
    seen = []

    def counted(theta):
        seen.append(theta.size)
        return pair(theta)

    _, _, n = integrate_panels(counted, 0.0, np.pi, initial_panels=8)
    assert n == 8 and seen == [8 * _PANEL_NODES]
    seen.clear()
    integrate_panels(counted, 0.0, np.pi, initial_panels=8, node_chunk=40)
    assert seen == [2 * _PANEL_NODES] * 4


# =============================================================================
# The trapezoid pair
# =============================================================================

@pytest.mark.parametrize("a, b, n_panels", [(-8.0, 8.0, 7), (-40.0, 40.0, 10), (0.0, np.pi, 3)])
def test_trapezoid_layout(a, b, n_panels):
    nodes, weights = quadrature._build_layout(a, b, n_panels, _trapezoid_rule)
    width = (b - a) / n_panels
    h = width / _TRAPEZOID_NODES
    per_panel = weights.reshape(2, n_panels, _TRAPEZOID_NODES)
    # Row 0 sums to the panel width; row 1 is the trapezoid at spacing 2 h
    # over the same nodes, 2 h on the even ones and nothing on the odd.
    assert np.all(np.abs(per_panel[0].sum(axis=1) - width) <= 2 * np.spacing(width))
    assert np.array_equal(weights[1, 0::2], 2 * weights[0, 0::2])
    assert np.all(weights[1, 1::2] == 0)
    # The nodes are uniform at spacing h, across panel boundaries too, from
    # a to b - h.
    scale = max(abs(a), abs(b))
    assert np.all(np.abs(np.diff(nodes) - h) <= 4 * np.spacing(scale))
    assert nodes[0] == a and abs(nodes[-1] - (b - h)) <= 2 * np.spacing(scale)


def test_trapezoid_rule_table():
    nodes, weights = _trapezoid_rule()
    assert nodes.shape == (_TRAPEZOID_NODES,) and weights.shape == (2, _TRAPEZOID_NODES)
    assert _TRAPEZOID_NODES % 2 == 0
    assert nodes[0] == -1.0 and np.all(np.diff(nodes) == 2 / _TRAPEZOID_NODES)
    assert weights[0].sum() == 2.0 and weights[1].sum() == 2.0


def even_gaussian_wave(u):
    """e^{-u^2} cos(3 u), whose integral is sqrt(pi) e^{-9/4}."""
    return np.exp(-u * u) * np.cos(3 * u)


def test_trapezoid_estimate_sees_even_integrands():
    # On a symmetric interval the nodes at spacing 2 h are their own mirror
    # image, so an even integrand under-resolved at 2 h shows in the
    # estimate: at h = 1 on [-8, 8].
    value, coarse = _composite(even_gaussian_wave, -8.0, 8.0, 1, _NODE_CHUNK, _trapezoid_rule)
    assert abs(value - coarse) > 0.1


def test_trapezoid_pair_converges_geometrically_on_a_gaussian():
    # Entire and negligible at the ends of [-8, 8]: T_h is 0.12 off at
    # h = 1, 2e-10 at h = 1/2 and exact to rounding at 1/4; the estimate is
    # T_2h's error, so the pair stops at h = 1/8, one doubling later.
    value, err, n = integrate_panels(even_gaussian_wave, -8.0, 8.0, initial_panels=1,
                                     rule=_trapezoid_rule)
    assert abs(value - np.sqrt(np.pi) * np.exp(-2.25)) <= 1e-15
    assert err <= 1e-15 and n == 8


# =============================================================================
# The momentum route's factored trapezoid pass
# =============================================================================

# FIG3 moving (k0 = 10) and at rest (k0 = 0): k0 is the offset chain's
# first phase, the plane wave e^{i k0 s}.
PACKETS = {moving: PacketParams(sigma=1.0, k0=10.0 if moving else 0.0, theta0=0.7, omega0=0.3,
                                mass=3.0)
           for moving in (True, False)}
T_PASS = 2.0


def momentum_pair(data, s):
    """The momentum integrand as a (kernel, basis) pair over the pass's own plane waves.

    Node b of panel p has the basis panel_basis[p] * offset_basis[b], the
    (nodes, positions) array the pass never forms; each pass takes its
    bases from its panel count, and each chunk the rows of its own nodes.
    """
    plan = dirac_exact._kspace_plan(data)

    def pair(nodes):
        spacing = nodes[1] - nodes[0]
        n_panels = round(2 * plan.half / spacing) // _TRAPEZOID_NODES
        all_nodes, _ = quadrature._layout(-plan.half, plan.half, n_panels, _trapezoid_rule)
        lo = int(np.searchsorted(all_nodes, nodes[0]))
        assert np.array_equal(all_nodes[lo:lo + nodes.size], nodes)
        offset_basis, panel_basis = dirac_exact._plane_waves(
            plan.k0, 2 * plan.half / n_panels, n_panels, 0, n_panels, s)
        index = np.arange(lo, lo + nodes.size)
        basis = panel_basis[index // _TRAPEZOID_NODES] * offset_basis[index % _TRAPEZOID_NODES]
        table = dirac_exact._build_node_table(plan, nodes)
        return dirac_exact._momentum_kernel(plan, T_PASS, table).T, basis

    return pair


def assert_within_1e15(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


S_PASS = np.linspace(-9.0, 9.0, 37)
# Positions the passes of up to 8 panels alias (the momentum route would
# start from 19), so that their residual is far above rounding.
S_ALIASED = np.linspace(-40.0, 40.0, 37)


@pytest.mark.parametrize("moving", [True, False])
@pytest.mark.parametrize("n_panels", [1, 8, 21])
def test_factored_integrand_matches_pair_in_every_chunking(moving, n_panels, monkeypatch):
    # The pass's factored sums, (weighted kernel) @ (offset basis) summed
    # against the panel basis, equal the unfactored sum_j w_j g_j e^{i u_j s}
    # on the same plane waves, in chunks of any number of panels and blocks
    # of any number of positions.  The table is built per chunk here.
    data = PACKETS[moving]
    plan = dirac_exact._kspace_plan(data)
    want = _composite(momentum_pair(data, S_PASS), -plan.half, plan.half, n_panels, _NODE_CHUNK,
                      _trapezoid_rule)
    monkeypatch.setattr(dirac_exact, "_PLAN_CACHE_NODES", 0)
    for panels in range(1, n_panels + 1):
        monkeypatch.setattr(dirac_exact, "_PASS_PANELS", panels)
        for cols in range(1, S_PASS.size + 1, 4):
            monkeypatch.setattr(dirac_exact, "_kspace_columns", lambda n, cols=cols: cols)
            got = dirac_exact._kspace_pass(plan, T_PASS, S_PASS, n_panels)
            assert got.shape == (2, 2, S_PASS.size)
            for g, w in zip(got, want):
                assert_within_1e15(g, w)


@pytest.mark.parametrize("moving", [True, False])
@pytest.mark.parametrize("initial_panels", [2, 8])
def test_factored_integrand_partial_on_failure(moving, initial_panels):
    # As for the pair: the budget's last pass is the partial, |T_h - T_2h|
    # the residual, and the momentum route and the pair under
    # integrate_panels carry the same ones.
    data = PACKETS[moving]
    plan = dirac_exact._kspace_plan(data)
    q = dirac_exact.QuadConfig(rel_tol=1e-300, abs_tol=1e-300, max_panels=8)
    with pytest.raises(IntegrationError, match="did not converge within 8") as route:
        dirac_exact._kspace_grid(T_PASS, S_ALIASED, data, q, initial_panels)
    with pytest.raises(IntegrationError, match="did not converge within 8") as unfactored:
        integrate_panels(momentum_pair(data, S_ALIASED), -plan.half, plan.half, rel_tol=1e-300,
                         abs_tol=1e-300, initial_panels=initial_panels, max_panels=8,
                         node_chunk=40, rule=_trapezoid_rule)
    partial = route.value.partial
    assert_within_1e15(np.stack([partial.minus, partial.plus]), unfactored.value.partial)
    assert_within_1e15(route.value.residual, unfactored.value.residual)
