import math

import numpy as np
import pytest
from scipy import special

from diracflow import DomainError, bessel_j0, bessel_j1, j0_eval, j0_first_zero, j1_eval
from diracflow.specfun import ndtri

from _oracles import j0_quadrature, j1_quadrature


def test_j0_at_zero():
    assert bessel_j0(0.0) == 1.0


def test_j1_at_zero_and_leading_order():
    assert bessel_j1(0.0) == 0.0
    assert bessel_j1(1e-8) == pytest.approx(5e-9, rel=1e-12)


def test_frozen_values():
    # Frozen from the integral-representation quadrature oracle.
    assert bessel_j0(5.0) == pytest.approx(-0.1775967713143383, abs=1e-10)
    assert bessel_j1(3.0) == pytest.approx(0.3390589585259365, abs=1e-10)


def test_oracle_agreement_on_working_range():
    # Covers the documented range |x| <= 1e4.  The trapezoid rule on the
    # periodic integrand errs only by aliased J_n with n ~ the node count,
    # negligible once the node count exceeds 2x + 200.
    xs = np.concatenate([np.linspace(0.0, 50.0, 201), np.geomspace(50.0, 1e4, 30)])
    for x in xs:
        n = max(4096, int(2 * x) + 256)
        assert bessel_j0(x) == pytest.approx(j0_quadrature(x, n), abs=1e-10)
        assert bessel_j1(x) == pytest.approx(j1_quadrature(x, n), abs=1e-10)


def test_first_zero_constant():
    assert abs(j0_first_zero() - 2.404825557695773) <= 1e-12


def test_first_zero_bracketing_and_bisection():
    assert bessel_j0(2.0) * bessel_j0(3.0) < 0
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bessel_j0(lo) * bessel_j0(mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert 0.5 * (lo + hi) == pytest.approx(j0_first_zero(), abs=1e-12)
    assert abs(bessel_j0(j0_first_zero())) <= 1e-10


def test_parity():
    rng = np.random.default_rng(20240811)
    xs = rng.uniform(-80.0, 80.0, size=1000)
    assert np.array_equal(bessel_j0(xs), bessel_j0(-xs))
    assert np.array_equal(bessel_j1(xs), -bessel_j1(-xs))


def test_amplitude_bounds():
    rng = np.random.default_rng(7)
    xs = np.concatenate([rng.uniform(-1e4, 1e4, 500), np.linspace(-30, 30, 301)])
    assert np.all(np.abs(bessel_j0(xs)) <= 1.0)
    assert np.all(np.abs(bessel_j1(xs)) <= 1.0)


def test_j1_over_x_bound():
    xs = np.linspace(1e-6, 100.0, 2000)
    assert np.all(np.abs(bessel_j1(xs) / xs) <= 0.5 + 1e-15)


def test_derivative_identity():
    # d/dx J0 = -J1; relative error measured against the local envelope so
    # points near J1 zeros do not dominate.
    rng = np.random.default_rng(11)
    xs = rng.uniform(0.1, 50.0, 100)
    h = 1e-5
    fd = (bessel_j0(xs + h) - bessel_j0(xs - h)) / (2 * h)
    scale = np.maximum(np.abs(bessel_j1(xs)), np.sqrt(2 / (np.pi * np.maximum(xs, 0.5))))
    assert np.all(np.abs(fd + bessel_j1(xs)) / scale <= 1e-6)


def test_eval_error_estimates():
    rng = np.random.default_rng(3)
    for x in rng.uniform(-1e4, 1e4, 200):
        for ev in (j0_eval(x), j1_eval(x)):
            assert abs(ev.value) <= 1.0
            assert 0 < ev.abs_err_est <= 1e-12
            assert ev.abs_err_est == 5e-15 + 3e-16 * np.sqrt(max(abs(x), 1.0))
            assert ev.x == x


def test_non_finite_inputs_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            bessel_j0(bad)
        with pytest.raises(DomainError):
            bessel_j1(bad)
    with pytest.raises(DomainError):
        bessel_j0(np.array([1.0, np.nan]))


# =============================================================================
# ndtri: bit for bit against scipy.special.ndtri (the same Cephes routine)
# =============================================================================

def assert_ndtri_is_scipys(ys):
    ys = np.asarray(ys, dtype=float)
    assert np.array_equal(np.array([ndtri(y) for y in ys]), special.ndtri(ys), equal_nan=True)


def _log_uniform(rng, lo, hi, n):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


EXP_M2 = 0.13533528323661269189  # Cephes' exp(-2): the centre fit's edge
EXP_M32 = math.exp(-32.0)  # sqrt(-2 ln y) = 8: where the tail fits switch


def test_ndtri_centre_branch_is_scipys():
    rng = np.random.default_rng(170)
    assert_ndtri_is_scipys(rng.uniform(EXP_M2, 1.0 - EXP_M2, 100_000))


def test_ndtri_near_tail_branch_is_scipys():
    # Both tails between exp(-32) and exp(-2); the upper one as 1 - y.
    rng = np.random.default_rng(171)
    tail = _log_uniform(rng, EXP_M32, EXP_M2, 100_000)
    assert_ndtri_is_scipys(np.concatenate([tail, 1.0 - tail]))


def test_ndtri_far_tail_branch_is_scipys():
    # The lower tail down through the subnormals, and every double in
    # [1 - exp(-32), 1) (1 - y takes about a hundred values there).
    rng = np.random.default_rng(172)
    below_one = 1.0 - np.arange(1, 115) * 2.0**-53
    assert_ndtri_is_scipys(np.concatenate([
        _log_uniform(rng, 5e-324, EXP_M32, 100_000),
        [5e-324, 1e-320, 2.2250738585072014e-308, 2.2250738585072009e-308], below_one]))
    assert 1.0 - below_one[-1] < EXP_M32 < 115 * 2.0**-53


@pytest.mark.parametrize("edge", [EXP_M2, 1.0 - EXP_M2, EXP_M32, 1.0 - EXP_M32, 0.5],
                         ids=["exp(-2)", "1-exp(-2)", "exp(-32)", "1-exp(-32)", "half"])
def test_ndtri_branch_edges_are_scipys(edge):
    # The edge and 64 neighbouring doubles on each side.
    ys = [edge]
    for direction in (0.0, 1.0):
        y = edge
        for _ in range(64):
            y = float(np.nextafter(y, direction))
            ys.append(y)
    assert_ndtri_is_scipys(ys)


def test_ndtri_ends_and_out_of_range():
    assert ndtri(0.0) == -math.inf and ndtri(-0.0) == -math.inf
    assert ndtri(1.0) == math.inf
    assert ndtri(0.5) == 0.0
    for bad in (-5e-324, -1.0, float(np.nextafter(1.0, 2.0)), 2.0, math.inf, -math.inf, math.nan):
        assert math.isnan(ndtri(bad))
    assert_ndtri_is_scipys([0.0, -0.0, 1.0, -5e-324, -1.0, 1.0 + 2.0**-52, 2.0,
                            math.inf, -math.inf, math.nan])


def test_ndtri_returns_a_python_float():
    assert type(ndtri(np.float64(0.3))) is float
