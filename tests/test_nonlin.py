"""Tests for the multilinear convolution-term grammar."""

import numpy as np
import pytest

from cmnl.kernel import DiracMixture, GaussianMixture, convolve, convolve_quadrature
from cmnl.nonlin import NonlinearitySpec, TaylorTerm, apply_term
from cmnl.quasipoly import QuasiPolynomial, multiply

from conftest import critical_pair_kernel, isclose, polynomial_terms, scaled_gaussian


def qp(nu, coeffs):
    return QuasiPolynomial(1, [(nu, np.array(coeffs, dtype=complex)[:, None])])


def gauss():
    return GaussianMixture.single(0.6, 1.0)


# ---------------------------------------------------------------------------
# construction and validation


def test_term_requires_factors():
    with pytest.raises(ValueError):
        TaylorTerm(1.0, ())


def test_spec_rejects_bare_linear_term():
    t = TaylorTerm(1.0, ((None, 0),))
    with pytest.raises(ValueError):
        NonlinearitySpec((t,), max_order=3)


def test_spec_allows_parameter_linear_term():
    t = TaylorTerm(1.0, ((None, 0),), mu_power=1)
    F = NonlinearitySpec((t,), max_order=3)
    assert F.terms[0].degree == 1


def test_spec_rejects_order_overflow():
    t = TaylorTerm(1.0, ((None, 0),) * 3, mu_power=1)
    with pytest.raises(ValueError):
        NonlinearitySpec((t,), max_order=3)


def test_polynomial_terms_shorthand():
    terms = polynomial_terms([0.0, 0.0, -1.0, 0.25], kernel=gauss())
    assert [t.degree for t in terms] == [2, 3]
    assert terms[0].coeff == -1.0
    with pytest.raises(ValueError):
        polynomial_terms([2.0])


# ---------------------------------------------------------------------------
# exact application


def test_square_of_conjugate_pair_is_constant():
    # u^2 on (zeta0, conj zeta0) collapses to the constant 1
    t = TaylorTerm(1.0, ((None, 0), (None, 0)))
    out = apply_term(t, [qp(1j, [1.0]), qp(-1j, [1.0])])
    assert isclose(out, qp(0.0, [1.0]), tol=1e-14)


def test_cubic_with_outer_kernel_is_transform_value():
    # K * zeta0^3 = hat-K(3i l) zeta0^3
    K = critical_pair_kernel()
    t = TaylorTerm(-1.0 / 3.0, ((None, 0),) * 3, outer=K)
    z0 = qp(1j, [1.0])
    out = apply_term(t, [z0, z0, z0])
    k03 = complex(K.transform(3j)[0, 0])
    assert isclose(out, qp(3j, [-k03 / 3.0]), tol=1e-12)


def test_inner_kernels_and_components():
    # two-component term (K*u)_0 (u)_1 placed in component 1
    K = gauss()
    t = TaylorTerm(2.0, ((K, 0), (None, 1)), target=1)
    u = QuasiPolynomial(2, [(0.5j, np.array([[1.0, 0.0], [0.0, 3.0]]))])
    out = apply_term(t, [u, u])
    inner = convolve(K, u.component(0))
    expect_scalar = multiply(inner, u.component(1)).scale(2.0)
    assert out.component(0).is_zero(1e-15)
    assert isclose(out.component(1), expect_scalar, tol=1e-12)


def test_kinetic_cubic_assembly_matches_matrix_oracle():
    # constant-vector arguments with a matrix outer kernel reduce to plain
    # matrix arithmetic: Outer-hat(0) @ D3F[e, e, e]
    rng = np.random.default_rng(7)
    M = rng.normal(size=(2, 2))
    outer = DiracMixture([(M, 0.0)], n=2)
    C = rng.normal(size=(2, 2, 2, 2))  # C[t, c1, c2, c3]
    terms = [
        TaylorTerm(C[t, c1, c2, c3], ((None, c1), (None, c2), (None, c3)),
                   outer=outer, target=t)
        for t in range(2)
        for c1 in range(2)
        for c2 in range(2)
        for c3 in range(2)
    ]
    e = np.array([0.8, -0.5])
    arg = QuasiPolynomial(2, [(0.0, e[None, :])])
    total = QuasiPolynomial.zero(2)
    for t in terms:
        total = total + apply_term(t, [arg, arg, arg])
    cubic = np.einsum("tabc,a,b,c->t", C, e, e, e)
    expected = QuasiPolynomial(2, [(0.0, (M @ cubic)[None, :])])
    assert isclose(total, expected, tol=1e-12)


def test_apply_term_argument_count_mismatch():
    t = TaylorTerm(1.0, ((None, 0), (None, 0)))
    with pytest.raises(ValueError):
        apply_term(t, [qp(0.0, [1.0])])


def test_apply_term_component_out_of_range():
    t = TaylorTerm(1.0, ((None, 3), (None, 0)))
    u = qp(0.0, [1.0])
    with pytest.raises(ValueError):
        apply_term(t, [u, u])


# ---------------------------------------------------------------------------
# invariants: multilinearity, translation equivariance, quadrature agreement


def test_multilinear_in_each_slot():
    K = gauss()
    t = TaylorTerm(1.3 - 0.2j, ((K, 0), (None, 0), (None, 0)))
    u = qp(0.4j, [0.3, 1.0])
    v = qp(-0.2, [1.0])
    w = qp(0.1 + 0.2j, [0.5])
    for slot in range(3):
        args_u = [u] * 3
        args_v = [u] * 3
        args_sum = [u] * 3
        args_v[slot] = v
        args_sum[slot] = u.scale(2.0) + v.scale(-1.5j)
        lhs = apply_term(t, args_sum)
        rhs = apply_term(t, args_u).scale(2.0) + apply_term(t, args_v).scale(-1.5j)
        assert isclose(lhs, rhs, tol=1e-12)


def test_translation_equivariance():
    K = gauss()
    t = TaylorTerm(0.7, ((K, 0), (None, 0)), outer=gauss())
    u = qp(0.3j, [1.0, 0.4])
    v = qp(-0.1, [0.2, 0.0, 1.0])
    for xi in (0.35, -1.2):
        shifted = apply_term(t, [u.shift(xi), v.shift(xi)])
        assert isclose(shifted, apply_term(t, [u, v]).shift(xi), tol=1e-10)


def test_agrees_with_quadrature_convolution():
    # the convolutions are the only integrals in a term; check the outer one
    # against direct quadrature of the integral definition
    K = scaled_gaussian(0.8, 1.0)
    t = TaylorTerm(1.0, ((None, 0), (None, 0)), outer=K)
    u = qp(0.25j, [1.0, 0.3])
    exact = apply_term(t, [u, u])
    xs = np.linspace(-3.0, 3.0, 31)
    quad = convolve_quadrature(K, multiply(u, u), xs)
    assert np.abs(exact.evaluate(xs)[:, 0] - quad[:, 0]).max() < 1e-7
