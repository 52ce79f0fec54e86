"""Tests for the bordered solver against closed-form resonant solutions."""

import numpy as np
import pytest

from conftest import critical_pair_kernel, isclose, project, simple_zero_kernel
from cmnl.kernel import GaussianMixture, convolve, convolve_quadrature
from cmnl.projection import BasisElement, KernelBasis, build_pointwise, kernel_basis
from cmnl.quasipoly import QuasiPolynomial
from cmnl.spectrum import locate_roots
from cmnl.tsolve import (
    BorderedProblem,
    block_operator,
    solve,
    t_series,
    truncated_inverse,
)


@pytest.fixture(scope="module")
def simple_setup():
    K = simple_zero_kernel()
    basis = kernel_basis(K, locate_roots(K))
    return K, build_pointwise(basis)


@pytest.fixture(scope="module")
def pair_setup():
    K = critical_pair_kernel()
    basis = kernel_basis(K, locate_roots(K))
    return K, build_pointwise(basis)


def qp(n, nu, coeffs):
    return QuasiPolynomial(n, [(nu, np.array(coeffs, dtype=complex).reshape(-1, n))])


def test_simple_root_linear_growth(simple_setup):
    # T u = 1 with u(0) = 0 forces the resonant answer u = alpha x with
    # alpha = -1 / (first kernel moment)
    K, P = simple_setup
    g = qp(1, 0.0, [-1.0])
    u = solve(BorderedProblem(K, P, g))
    alpha = -1.0 / complex(K.moment(1, 0.0)[0, 0])
    assert isclose(u, qp(1, 0.0, [0.0, alpha]), tol=1e-9)


def test_simple_root_quadratic_resonance(simple_setup):
    # T u = 2 alpha x with u(0) = 0 gives u = alpha^2 x^2 - kappa2 alpha^3 x
    K, P = simple_setup
    alpha = -1.0 / complex(K.moment(1, 0.0)[0, 0])
    kappa2 = complex(K.moment(2, 0.0)[0, 0])
    g = qp(1, 0.0, [0.0, -2.0 * alpha])
    u = solve(BorderedProblem(K, P, g))
    expected = qp(1, 0.0, [0.0, -kappa2 * alpha**3, alpha**2])
    assert isclose(u, expected, tol=1e-9)


def test_double_pair_resonant_solution(pair_setup):
    # T u + K*zeta0 = 0 with Q(u) = 0.  With hat-T and hat-T' vanishing at the
    # double root, the x^2 ansatz gives growth coefficient a = -K^(nu)/K''(nu),
    # and the ker Q normalization appends -a Q(x^2 zeta0) in closed form.
    K, P = pair_setup
    zeta0 = P.basis.elements[0].function
    nu = P.basis.elements[0].nu
    g = convolve(K, zeta0)
    u = solve(BorderedProblem(K, P, g))
    k0 = complex(K.transform(nu)[0, 0])
    k2 = complex(K.transform(nu, 2)[0, 0])
    alpha0 = -k0 / k2
    expected = QuasiPolynomial(
        1,
        [
            (nu, alpha0 * np.array([[-1.5], [2j], [1.0]])),
            (-nu, alpha0 * np.array([[1.5], [1j]])),
        ],
    )
    assert isclose(u, expected, tol=1e-7)
    coords, _ = project(P, u)
    assert np.allclose(coords, 0.0, atol=1e-10)


def test_nonresonant_scalar_division(pair_setup):
    # Away from the roots the solve is division by hat-T(3i), but the ker Q
    # normalization appends a kernel-space correction: with
    # Q(e^{3ix}) = (-4, 5, 8i, 4i) the full solution is
    # gamma [e^{3ix} + (4 - 8ix)e^{ix} - (5 + 4ix)e^{-ix}].
    K, P = pair_setup
    c = 0.8 - 0.3j
    g = qp(1, 3j, [-c])
    u = solve(BorderedProblem(K, P, g))
    gamma = c / (1.0 + complex(K.transform(3j)[0, 0]))
    particular = qp(1, 3j, [gamma])
    coords, _ = project(P, particular)
    assert isclose(u, particular - P.basis.combine(coords), tol=1e-10)
    closed = QuasiPolynomial(
        1,
        [
            (3j, np.array([[gamma]])),
            (1j, gamma * np.array([[4.0], [-8j]])),
            (-1j, gamma * np.array([[-5.0], [-4j]])),
        ],
    )
    assert isclose(u, closed, tol=1e-6)


def test_grid_residual_independent_route(pair_setup):
    # residual on a sample grid, with the convolution done by quadrature
    # rather than the coefficient identity
    K, P = pair_setup
    g = convolve(K, P.basis.elements[0].function)
    u = solve(BorderedProblem(K, P, g))
    xs = np.linspace(-5.0, 5.0, 50)
    residual = u.evaluate(xs) + convolve_quadrature(K, u, xs) + g.evaluate(xs)
    gmax = np.abs(g.evaluate(xs)).max()
    assert np.abs(residual).max() < 1e-7 * (1 + gmax)


def test_prescribed_coordinates(pair_setup):
    K, P = pair_setup
    rng = np.random.default_rng(7)
    target = rng.normal(size=4) + 1j * rng.normal(size=4)
    g = convolve(K, P.basis.elements[0].function)
    u0 = solve(BorderedProblem(K, P, g))
    ut = solve(BorderedProblem(K, P, g, target_coords=target))
    coords, _ = project(P, ut)
    assert np.allclose(coords, target, atol=1e-10)
    assert isclose(ut - u0, P.basis.combine(target), tol=1e-9)


def test_linearity_in_g(pair_setup):
    K, P = pair_setup
    g1 = convolve(K, P.basis.elements[0].function)
    g2 = qp(1, 3j, [0.4 + 0.1j]) + qp(1, 0.0, [1.2])
    a, b = 0.7, -1.3 + 0.2j
    u = solve(BorderedProblem(K, P, g1.scale(a) + g2.scale(b)))
    u1 = solve(BorderedProblem(K, P, g1))
    u2 = solve(BorderedProblem(K, P, g2))
    assert isclose(u, u1.scale(a) + u2.scale(b), tol=1e-8)


def test_canonical_uniqueness(pair_setup):
    K, P = pair_setup
    parts = [
        qp(1, 3j, [0.5]),
        convolve(K, P.basis.elements[2].function),
        qp(1, 0.0, [0.0, 1.0]),
    ]
    g_forward = parts[0] + parts[1] + parts[2]
    g_backward = parts[2] + parts[1] + parts[0]
    ua = solve(BorderedProblem(K, P, g_forward))
    ub = solve(BorderedProblem(K, P, g_backward))
    assert isclose(ua, ub, tol=1e-10)


def test_wrong_multiplicity_data_rejected():
    # a basis claiming the double roots +-i are simple starves the ansatz of
    # the extra degree, so the compatibility condition cannot be met
    K = critical_pair_kernel()
    one = np.array([1.0])
    els = [
        BasisElement(QuasiPolynomial.exponential(1j), 1j, 0, 0, 0, one, 1),
        BasisElement(QuasiPolynomial.exponential(-1j), -1j, 0, 0, 0, one, 0),
    ]
    P = build_pointwise(KernelBasis(els, 1))
    g = convolve(K, els[0].function)
    with pytest.raises(RuntimeError, match="compatibility"):
        solve(BorderedProblem(K, P, g))


def test_frequency_outside_strip_rejected(pair_setup):
    K, P = pair_setup
    g = qp(1, 2.0, [1.0])
    with pytest.raises(RuntimeError, match="strip"):
        solve(BorderedProblem(K, P, g))


def test_target_length_validated(pair_setup):
    K, P = pair_setup
    with pytest.raises(ValueError):
        BorderedProblem(K, P, qp(1, 0.0, [1.0]), target_coords=np.ones(3))


@pytest.mark.parametrize(
    "K, nu, degree",
    [
        (critical_pair_kernel(), 3j, 9),
        # two widths with non-commuting matrices: the Taylor blocks do not
        # commute, so the order of the block products matters
        (GaussianMixture.single([[0.3, 0.1], [0.2, -0.5]], 0.7, n=2)
         + GaussianMixture.single([[0.1, -0.2], [0.05, 0.2]], 0.3, n=2), 1.5j, 6),
    ],
    ids=["n1", "n2"],
)
def test_back_substitution_matches_truncated_svd(K, nu, degree):
    # off the roots the block system is solved by back-substitution on its
    # triangular Toeplitz structure; the SVD solve is the reference
    A, S, gap = block_operator(t_series(K, [nu], degree)[0], 0, 1e-9)
    assert gap is None
    S_svd, (cutoff, kept, dropped) = truncated_inverse(A, 1e-9)
    assert dropped == 0.0 and kept > 1e3 * cutoff
    rng = np.random.default_rng(3)
    b = rng.normal(size=A.shape[0]) + 1j * rng.normal(size=A.shape[0])
    ref = S_svd @ b
    assert np.linalg.norm(S @ b - ref) <= 1e-13 * np.linalg.norm(ref)
