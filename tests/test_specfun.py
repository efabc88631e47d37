import numpy as np
import pytest

from diracflow import DomainError, bessel_j0, bessel_j1, j0_eval, j0_first_zero, j1_eval

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


def test_non_finite_inputs_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            bessel_j0(bad)
        with pytest.raises(DomainError):
            bessel_j1(bad)
    with pytest.raises(DomainError):
        bessel_j0(np.array([1.0, np.nan]))
