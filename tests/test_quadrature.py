import numpy as np
import pytest

from diracflow import IntegrationError
from diracflow.quadrature import integrate_panels

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
    pair, plain = integrands(complex_kernel, complex_basis)
    got, _, n_got = integrate_panels(pair, 0.0, np.pi, rel_tol=1e-12, initial_panels=4)
    want, _, n_want = integrate_panels(plain, 0.0, np.pi, rel_tol=1e-12, initial_panels=4)
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


# initial_panels 2 refines until the budget runs out; 8 exceeds it at once.
@pytest.mark.parametrize("initial_panels", [2, 8])
@pytest.mark.parametrize("complex_kernel, complex_basis", FORMS)
def test_pair_integrand_partial_on_failure(complex_kernel, complex_basis, initial_panels):
    pair, plain = integrands(complex_kernel, complex_basis)
    partials = []
    for f in (pair, plain):
        with pytest.raises(IntegrationError) as info:
            integrate_panels(f, 0.0, np.pi, rel_tol=1e-15, abs_tol=1e-300,
                             initial_panels=initial_panels, max_panels=8)
        partials.append(info.value.partial)
    assert_close(*partials)
