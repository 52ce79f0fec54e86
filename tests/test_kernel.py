"""Kernel transforms, moments, and the convolution identity.

The oracle here is direct quadrature: every closed-form transform/moment is
checked against scipy.integrate.quad, and the algebraic convolution is
checked against Gauss-Legendre x-space convolution.  In particular the
binomial structure of

    K * (x^q e^{nu x}) = e^{nu x} sum_r C(q,r) (-1)^r kappa_r(nu) x^{q-r}

is pinned numerically (test_convolve_cubic_coefficients) before anything
downstream relies on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from cmnl import kernel as kr
from cmnl.quasipoly import QuasiPolynomial


def quad_moment(kfun, m, nu, lim=60.0, breakpoints=()):
    """int x^m k(x) exp(-nu x) dx by adaptive quadrature (scalar kernels)."""

    def integrand(x, part):
        v = x**m * kfun(x) * np.exp(-nu * x)
        return v.real if part == 0 else v.imag

    pts = list(breakpoints) or None
    re = quad(integrand, -lim, lim, args=(0,), limit=400, epsabs=1e-13, points=pts)[0]
    im = quad(integrand, -lim, lim, args=(1,), limit=400, epsabs=1e-13, points=pts)[0]
    return re + 1j * im


def gaussian_example():
    # (0.3 - 0.7 x + 0.2 x^2) exp(-1.3 (x - 0.4)^2)
    return kr.GaussianMixture.single(1.0, 1.3, b=0.4, poly=[0.3, -0.7, 0.2])


def gaussian_example_fun(x):
    return (0.3 - 0.7 * x + 0.2 * x**2) * np.exp(-1.3 * (x - 0.4) ** 2)


# -- transforms vs quadrature ------------------------------------------------


@pytest.mark.parametrize("nu", [0.0, 0.7, -1.2 + 0.5j, 2.1j, 0.3 - 1.7j])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_gaussian_moments_match_quadrature(nu, m):
    K = gaussian_example()
    exact = K.moment(m, nu)[0, 0]
    oracle = quad_moment(gaussian_example_fun, m, nu)
    assert abs(exact - oracle) < 1e-10 * (1 + abs(oracle))


def test_gaussian_unit_mass_transform():
    # exp(-x^2)/sqrt(pi) has transform exp(nu^2/4).
    K = kr.GaussianMixture.single(1.0 / np.sqrt(np.pi), 1.0)
    for nu in [0.0, 1.0, 1j, 0.5 - 2j]:
        assert abs(K.transform(nu)[0, 0] - np.exp(nu**2 / 4)) < 1e-13 * abs(
            np.exp(nu**2 / 4)
        )


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_exponential_moments_match_quadrature(m):
    K = kr.ExponentialMixture([(0.8, 1.5, -0.3)])
    for nu in [0.0, 0.4j, 0.9 + 1.1j]:
        exact = K.moment(m, nu)[0, 0]
        oracle = quad_moment(
            lambda x: 0.8 * np.exp(-1.5 * abs(x + 0.3)), m, nu, breakpoints=[-0.3]
        )
        assert abs(exact - oracle) < 1e-9 * (1 + abs(oracle))


def test_exponential_outside_strip_raises():
    K = kr.ExponentialMixture([(1.0, 2.0, 0.0)])
    with pytest.raises(ValueError):
        K.transform(2.5)


def test_dirac_transform():
    K = kr.DiracMixture([(2.0, 1.5), (-1.0, -0.5)])
    nu = 0.3 + 0.9j
    expected = 2 * np.exp(-1.5 * nu) - np.exp(0.5 * nu)
    assert abs(K.transform(nu)[0, 0] - expected) < 1e-14 * (1 + abs(expected))
    # moment m: int x^m K = sum A xi^m exp(-nu xi)
    expected1 = 2 * 1.5 * np.exp(-1.5 * nu) - (-0.5) * np.exp(0.5 * nu)
    assert abs(K.moment(1, nu)[0, 0] - expected1) < 1e-13 * (1 + abs(expected1))


@given(st.floats(-2, 2), st.floats(-3, 3))
@settings(max_examples=30, deadline=None)
def test_real_kernel_conjugate_symmetry(re, im):
    # K real-valued => Khat(conj nu) = conj(Khat(nu)).
    K = gaussian_example()
    nu = complex(re, im)
    a = K.transform(np.conj(nu))[0, 0]
    b = np.conj(K.transform(nu)[0, 0])
    assert abs(a - b) < 1e-12 * (1 + abs(b))


# -- the convolution identity ------------------------------------------------


def test_convolve_cubic_coefficients():
    """K*(x^3 e^{nu x}) = e^{nu x}[kappa0 x^3 - 3 kappa1 x^2 + 3 kappa2 x - kappa3].

    The binomial weights here feed the worked reduction coefficients, so pin
    them against quadrature moments.
    """
    K = gaussian_example()
    nu = 1j * 0.9
    u = QuasiPolynomial.monomial(nu, 3)
    v = kr.convolve(K, u)
    kap = [quad_moment(gaussian_example_fun, r, nu) for r in range(4)]
    got = np.zeros(4, dtype=complex)
    coeffs = v.term_for(nu)
    got[: coeffs.shape[0]] = coeffs[:, 0]
    expected = np.array([-kap[3], 3 * kap[2], -3 * kap[1], kap[0]])
    assert np.allclose(got, expected, atol=1e-10 * (1 + np.abs(expected).max()))


@pytest.mark.parametrize("x", [-2.0, -0.3, 0.0, 1.1, 2.7])
def test_convolve_matches_quadrature(x):
    K = gaussian_example()
    u = QuasiPolynomial(
        1, [(0.8j, [[1.0], [0.5], [0.0], [-0.25]]), (-0.2, [[2.0], [1.0]])]
    )
    exact = kr.convolve(K, u).evaluate(x)
    grid = kr.convolve_quadrature(K, u, [x])[0]
    assert np.allclose(exact, grid, atol=1e-10 * (1 + abs(grid[0])))


def test_convolve_exponential_kernel_matches_quadrature():
    K = kr.ExponentialMixture([(0.5, 2.0, 0.3)])
    u = QuasiPolynomial(1, [(1.3j, [[1.0], [1.0], [0.5]])])
    for x in [-1.0, 0.5]:
        exact = kr.convolve(K, u).evaluate(x)
        grid = kr.convolve_quadrature(K, u, [x])[0]
        assert np.allclose(exact, grid, atol=1e-9)


def test_convolve_dirac_is_shift():
    A, xi = 1.7, 0.6
    K = kr.DiracMixture([(A, xi)])
    u = QuasiPolynomial(1, [(0.4j, [[1.0], [-2.0], [0.5]])])
    v = kr.convolve(K, u)
    w = u.shift(-xi).scale(A)
    for x in [-1.0, 0.0, 2.0]:
        assert np.allclose(v.evaluate(x), w.evaluate(x), atol=1e-12)


def test_convolve_matrix_kernel():
    # Rotation-coupled 2x2 gaussian: checks matrix moments act on vector coeffs.
    C = np.array([[0.0, 1.0], [-1.0, 0.0]])
    K = kr.GaussianMixture([(C[None, :, :], 1.0, 0.0)], n=2)
    u = QuasiPolynomial(2, [(0.5j, np.array([[1.0, 2.0], [0.5, -1.0]]))])
    exact = kr.convolve(K, u)
    grid = kr.convolve_quadrature(K, u, [0.7])[0]
    assert np.allclose(exact.evaluate(0.7), grid, atol=1e-10)


def test_apply_T():
    K = gaussian_example()
    u = QuasiPolynomial.exponential(1j)
    Tu = kr.apply_T(K, u)
    expected = 1.0 + K.transform(1j)[0, 0]
    assert abs(Tu.term_for(1j)[0, 0] - expected) < 1e-13


# -- finite differences and symbol kernels -----------------------------------


def test_fd_stencil_first_derivative():
    offsets, weights = kr.fd_central_stencil(1, acc=4)
    assert list(offsets) == [-2, -1, 0, 1, 2]
    assert np.allclose(weights, np.array([1, -8, 0, 8, -1]) / 12.0)


def test_fd_stencil_second_derivative():
    offsets, weights = kr.fd_central_stencil(2, acc=4)
    assert np.allclose(weights, np.array([-1, 16, -30, 16, -1]) / 12.0)


def test_symbol_kernel_fd_derivatives():
    # Error floor is truncation + roundoff eps/h^order; tolerances track that.
    G = kr.GaussianMixture.single(0.7, 1.1, b=0.2)
    S = kr.SymbolKernel(lambda nu: G.transform(nu), eta0=np.inf)
    tol = {1: 1e-10, 2: 1e-8, 3: 5e-6}
    for order in (1, 2, 3):
        for nu in (0.4j, 1.0 + 0.3j):
            a = S.transform(nu, order)[0, 0]
            b = G.transform(nu, order)[0, 0]
            assert abs(a - b) < tol[order] * (1 + abs(b))


def test_symbol_kernel_exact_derivative_callable():
    G = kr.GaussianMixture.single(0.7, 1.1)
    S = kr.SymbolKernel(
        lambda nu: G.transform(nu),
        eta0=np.inf,
        derivative=lambda nu, order: G.transform(nu, order),
    )
    assert abs(S.transform(0.5j, 4)[0, 0] - G.transform(0.5j, 4)[0, 0]) == 0.0


def test_symbol_kernel_tabulated_values():
    G = kr.GaussianMixture.single(1.0 / np.sqrt(np.pi), 1.0)
    S = kr.SymbolKernel(lambda nu: G.transform(nu), eta0=np.inf)
    S.tabulate(halfwidth=20.0, npts=2**12)
    xs = np.array([-1.0, 0.0, 0.5])
    vals = S.eval_x(xs)[:, 0, 0]
    assert np.allclose(vals, np.exp(-(xs**2)) / np.sqrt(np.pi), atol=1e-7)


def test_symbol_kernel_default_table_matches_gaussian():
    # the default table (2**14 points) is what grid_convolve reaches
    G = kr.GaussianMixture.single(1.0 / np.sqrt(np.pi), 1.0)
    S = kr.SymbolKernel(lambda nu: G.transform(nu), eta0=np.inf)
    xs = np.linspace(-4.0, 4.0, 81)
    vals = S.eval_x(xs)[:, 0, 0]
    assert np.allclose(vals, np.exp(-(xs**2)) / np.sqrt(np.pi), atol=1e-7)


# -- calculus on kernels ------------------------------------------------------


def test_gaussian_differentiate_symbol():
    # transform of K' is nu * Khat(nu)
    K = gaussian_example()
    dK = K.differentiate()
    for nu in [0.3, 1j, 0.5 - 0.7j]:
        a = dK.transform(nu)[0, 0]
        b = nu * K.transform(nu)[0, 0]
        assert abs(a - b) < 1e-11 * (1 + abs(b))


def test_gaussian_differentiate_pointwise():
    K = gaussian_example()
    dK = K.differentiate()
    h = 1e-6
    for x in [-0.8, 0.1, 1.4]:
        fd = (K.eval_x(x + h) - K.eval_x(x - h))[0, 0] / (2 * h)
        assert abs(dK.eval_x(x)[0, 0] - fd) < 1e-8


def test_sum_kernel():
    G = kr.GaussianMixture.single(0.5, 1.0)
    E = kr.ExponentialMixture([(0.25, 3.0, 0.0)])
    S = G + E
    nu = 0.4j
    assert abs(
        S.transform(nu)[0, 0] - G.transform(nu)[0, 0] - E.transform(nu)[0, 0]
    ) < 1e-14
    assert S.eta0() == 3.0
    assert S.eval_x(0.3).shape == (1, 1)


def test_scale():
    G = gaussian_example()
    H = G.scale(-2.0)
    nu = 1j
    assert abs(H.transform(nu)[0, 0] + 2 * G.transform(nu)[0, 0]) < 1e-13


# -- decay validation ---------------------------------------------------------


def test_validate_decay_gaussian():
    rep = kr.validate_decay(kr.GaussianMixture.single(1.0, 1.0), eta=1.5)
    assert rep.ok
    assert rep.eta == 1.5


def test_validate_decay_exponential_inside_and_outside():
    K = kr.ExponentialMixture([(1.0, 2.0, 0.0)])
    rep = kr.validate_decay(K)
    assert rep.ok
    assert rep.eta == pytest.approx(1.8)
    bad = kr.validate_decay(K, eta=2.5)
    assert not bad.ok


# -- serialization ------------------------------------------------------------


def test_kernel_json_round_trip_gaussian():
    data = {
        "family": "gaussian",
        "n": 1,
        "terms": [{"c": -0.5642, "a": 1.0, "b": 0.0}],
    }
    K = kr.from_data(data)
    assert isinstance(K, kr.GaussianMixture)
    assert abs(K.transform(0.0)[0, 0] - (-0.5642) * np.sqrt(np.pi)) < 1e-12
    assert kr.from_data(K.to_data()).transform(1j)[0, 0] == pytest.approx(
        K.transform(1j)[0, 0]
    )


def test_kernel_json_poly_prefactor():
    data = {
        "family": "gaussian",
        "n": 1,
        "terms": [{"c": 1.0, "a": 1.0, "b": 0.0, "poly": [0.5, -1.0]}],
    }
    K = kr.from_data(data)
    assert abs(K.eval_x(0.3)[0, 0] - (0.5 - 0.3) * np.exp(-0.09)) < 1e-14


def test_kernel_json_rejects_unknown_keys():
    with pytest.raises(ValueError):
        kr.from_data({"family": "gaussian", "n": 1, "terms": [], "zzz": 1})
    with pytest.raises(ValueError):
        kr.from_data(
            {"family": "gaussian", "n": 1, "terms": [{"c": 1.0, "a": 1.0, "q": 2}]}
        )
    with pytest.raises(ValueError):
        kr.from_data({"family": "mystery"})


def test_kernel_json_sum_and_dirac():
    data = {
        "family": "sum",
        "parts": [
            {"family": "dirac", "n": 1, "terms": [{"c": 1.0, "xi": 0.25}]},
            {"family": "exponential", "n": 1, "terms": [{"c": 0.5, "a": 2.0, "b": 0.0}]},
        ],
    }
    K = kr.from_data(data)
    nu = 0.7j
    expected = np.exp(-0.25 * nu) + 0.5 * (1 / (2 - nu) + 1 / (2 + nu))
    assert abs(K.transform(nu)[0, 0] - expected) < 1e-13
    assert len(K.point_masses()) == 1
