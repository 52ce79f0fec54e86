"""Tests for the kernel basis and the two projection flavors."""

import numpy as np
import pytest
from scipy import integrate

from conftest import critical_pair_kernel, project
import reference
from reference import add, exponential, frequencies, max_coeff, scale, sub, zero
from cmnl.kernel import apply_T
from cmnl.projection import (
    GRAM_COND_LIMIT,
    BasisElement,
    KernelBasis,
    build_gram,
    build_pointwise,
    gaussian_weight_moments,
    kernel_basis,
    sech_weight_moments,
)
from cmnl.quasipoly import QuasiPolynomial
from cmnl.spectrum import locate_roots


def weighted_moment_oracle(weight, s, nu):
    """Quadrature value of integral x^s e^{nu x} w(x) dx."""
    if weight == "gaussian":
        w, lim = (lambda x: np.exp(-x * x)), 12.0
    else:
        w, lim = (lambda x: 1.0 / np.cosh(x)), 60.0

    def f(x):
        return x**s * np.exp(nu * x) * w(x)

    re = integrate.quad(lambda x: np.real(f(x)), -lim, lim, limit=300)[0]
    im = integrate.quad(lambda x: np.imag(f(x)), -lim, lim, limit=300)[0]
    return re + 1j * im


def pair_basis(l):
    """Exact basis {e^{ilx}, e^{-ilx}, x e^{ilx}, x e^{-ilx}} for a double
    conjugate pair at +-il, in the canonical ordering."""
    one = np.array([1.0])

    def qp(nu, coeffs):
        return QuasiPolynomial(1, [(nu, np.array(coeffs, dtype=complex).reshape(-1, 1))])

    els = [
        BasisElement(qp(1j * l, [1.0]), 1j * l, 0, 0, 0, one, 1),
        BasisElement(qp(-1j * l, [1.0]), -1j * l, 0, 0, 0, one, 0),
        BasisElement(qp(1j * l, [0.0, 1.0]), 1j * l, 0, 0, 1, one, 3),
        BasisElement(qp(-1j * l, [0.0, 1.0]), -1j * l, 0, 0, 1, one, 2),
    ]
    return KernelBasis(els, 1)


def quadratic_prefactor(l):
    """u(x) = x^2 e^{ilx}."""
    return QuasiPolynomial(1, [(1j * l, np.array([[0.0], [0.0], [1.0]], dtype=complex))])


# ---------------------------------------------------------------------------
# weight moments


@pytest.mark.parametrize("s", range(5))
@pytest.mark.parametrize("nu", [0.3, 1j, 0.5 - 0.8j])
def test_gaussian_moments_match_quadrature(s, nu):
    vals = gaussian_weight_moments(nu, s)
    assert np.isclose(vals[s], weighted_moment_oracle("gaussian", s, nu), atol=1e-10)


def test_gaussian_pairing_closed_form():
    l = 1.3
    assert np.isclose(
        gaussian_weight_moments(1j * l, 0)[0],
        np.sqrt(np.pi) * np.exp(-(l**2) / 4),
        rtol=1e-14,
    )


@pytest.mark.parametrize("s", range(4))
@pytest.mark.parametrize("nu", [0.0, 0.3j, 0.4 + 0.2j])
def test_sech_moments_match_quadrature(s, nu):
    vals = sech_weight_moments(nu, s)
    assert np.isclose(vals[s], weighted_moment_oracle("sech", s, nu), atol=1e-9)


@pytest.mark.parametrize("nu", [0.0, 0.3j, -2.5j, 0.4 + 0.2j, -0.9 - 1.1j])
def test_sech_moments_keep_the_bits_of_numpy_polynomial(nu):
    assert sech_weight_moments(nu, 9) == reference.sech_weight_moments(nu, 9)


@pytest.mark.parametrize("nu", [1.0, -1.2, 1.0 + 0.5j])
def test_sech_moments_outside_strip_raise(nu):
    with pytest.raises(RuntimeError):
        sech_weight_moments(nu, 2)


# ---------------------------------------------------------------------------
# pointwise flavor against known closed forms


@pytest.mark.parametrize("l", [1.0, 0.7])
def test_pair_basis_functional_determinant(l):
    P = build_pointwise(pair_basis(l))
    assert not P.augmented
    assert np.isclose(np.linalg.det(P.gram), -16.0 * l**4, rtol=1e-12)


@pytest.mark.parametrize("l", [1.0, 0.7])
def test_pair_basis_functional_matrix_inverse(l):
    # closed form for the inverse of the jet-passage matrix
    P = build_pointwise(pair_basis(l))
    expected = np.array(
        [
            [0.5, -0.75j / l, 0.0, -0.25j / l**3],
            [0.5, 0.75j / l, 0.0, 0.25j / l**3],
            [-0.25j * l, -0.25, -0.25j / l, -0.25 / l**2],
            [0.25j * l, -0.25, 0.25j / l, -0.25 / l**2],
        ]
    )
    assert np.allclose(P.gram_inverse, expected, atol=1e-13)


def test_project_quadratic_prefactor():
    l = 1.0
    coords, element = project(build_pointwise(pair_basis(l)), quadratic_prefactor(l))
    expected = [1.5 / l**2, -1.5 / l**2, -2j / l, -1j / l]
    assert np.allclose(coords, expected, atol=1e-12)
    assert frequencies(element) == pytest.approx([-1j * l, 1j * l])


def test_project_third_harmonic():
    l = 1.0
    u = exponential(3j * l)
    coords, _ = project(build_pointwise(pair_basis(l)), u)
    assert np.allclose(coords, [-4.0, 5.0, 8j * l, 4j * l], atol=1e-12)


def test_single_element_basis_evaluates_at_zero():
    el = BasisElement(exponential(0.0), 0.0, 0, 0, 0, np.array([1.0]))
    P = build_pointwise(KernelBasis([el], 1))
    u = QuasiPolynomial(1, [(0.2, np.array([[2.0], [1.0]], dtype=complex))])
    coords, element = project(P, u)
    assert np.allclose(coords, [2.0], atol=1e-13)
    assert np.allclose(element.evaluate(1.7), 2.0, atol=1e-13)


def test_adjoint_direction_reproduces_two_term_projection():
    # basis {e0, x e0} at a double root 0 of a two-component problem; the
    # supplied adjoint vector plays the role of e0* with <e0, e0*> = 1
    e0 = np.array([1.0, 0.0])
    phi0 = QuasiPolynomial(2, [(0.0, np.array([[1.0, 0.0]], dtype=complex))])
    phi1 = QuasiPolynomial(2, [(0.0, np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex))])
    basis = KernelBasis(
        [
            BasisElement(phi0, 0.0, 0, 0, 0, e0),
            BasisElement(phi1, 0.0, 0, 0, 1, e0),
        ],
        2,
    )
    estar = np.array([1.0, 0.4])
    P = build_pointwise(basis, directions={(0, 0, 1): estar})
    assert not P.augmented
    assert np.allclose(P.gram, np.eye(2), atol=1e-14)
    u = QuasiPolynomial(2, [(0.0, np.array([[1.0, 3.0], [2.0, 1.0]], dtype=complex))])
    coords, _ = project(P, u)
    # (<u(0), e0*>, <u'(0), e0*>) = (1 + 0.4*3, 2 + 0.4*1)
    assert np.allclose(coords, [2.2, 2.4], atol=1e-13)


def test_dependent_heads_trigger_order_augmentation():
    # simple roots at 0 and +-i sharing the same head vector: the default
    # order-0 functionals repeat and extra derivative orders must be added
    e0 = np.array([1.0, 0.0])

    def qp(nu):
        return QuasiPolynomial(2, [(nu, np.array([[1.0, 0.0]], dtype=complex))])

    basis = KernelBasis(
        [
            BasisElement(qp(0.0), 0.0, 0, 0, 0, e0),
            BasisElement(qp(1j), 1j, 1, 0, 0, e0, 2),
            BasisElement(qp(-1j), -1j, 1, 0, 0, e0, 1),
        ],
        2,
    )
    P = build_pointwise(basis)
    assert P.augmented
    # the condition of the reselected functionals, not of the default ones
    assert P.condition == np.linalg.cond(P.gram) < GRAM_COND_LIMIT
    for k, el in enumerate(basis.elements):
        coords, _ = project(P, el.function)
        assert np.allclose(coords, np.eye(3)[k], atol=1e-10)


# ---------------------------------------------------------------------------
# pipeline basis from a located spectrum


@pytest.fixture(scope="module")
def critical_basis():
    K = critical_pair_kernel()
    spectrum = locate_roots(K)
    return K, kernel_basis(K, spectrum)


def test_pipeline_basis_structure(critical_basis):
    K, basis = critical_basis
    assert basis.size == 4
    assert [el.order for el in basis.elements] == [0, 0, 1, 1]
    assert [el.partner for el in basis.elements] == [1, 0, 3, 2]
    nus = [el.nu for el in basis.elements]
    assert np.allclose(nus, [1j, -1j, 1j, -1j], atol=1e-7)
    assert np.isfinite(basis.condition)
    assert not build_pointwise(basis).augmented


def test_pipeline_basis_annihilated(critical_basis):
    K, basis = critical_basis
    for el in basis.elements:
        residual = apply_T(K, el.function)
        assert max_coeff(residual) < 1e-7


def test_pipeline_projection_matches_closed_forms(critical_basis):
    K, basis = critical_basis
    P = build_pointwise(basis)
    assert np.isclose(np.linalg.det(P.gram), -16.0, rtol=1e-5)
    coords, _ = project(P, quadratic_prefactor(1.0))
    assert np.allclose(coords, [1.5, -1.5, -2j, -1j], rtol=1e-5, atol=1e-7)


# ---------------------------------------------------------------------------
# invariants shared by both flavors


@pytest.fixture(scope="module", params=["pointwise", "gram-gaussian", "gram-sech"])
def any_projection(request):
    basis = pair_basis(1.0)
    if request.param == "pointwise":
        return build_pointwise(basis)
    return build_gram(basis, weight=request.param.split("-")[1])


def test_basis_elements_reproduce(any_projection):
    P = any_projection
    m = P.basis.size
    for k, el in enumerate(P.basis.elements):
        coords, element = project(P, el.function)
        assert np.allclose(coords, np.eye(m)[k], atol=1e-10)


def test_projection_idempotent(any_projection):
    P = any_projection
    u = add(quadratic_prefactor(1.0), scale(exponential(3j), 0.3))
    coords, element = project(P, u)
    coords2, element2 = project(P, element)
    assert np.allclose(coords, coords2, atol=1e-12)
    assert max_coeff(sub(element, element2)) < 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_real_input_gives_conjugate_coordinate_pairs(any_projection, seed):
    P = any_projection
    rng = np.random.default_rng(seed)
    u = zero(1)
    for _ in range(3):
        # real parts clipped inside the sech weight strip |Re nu| < 1
        nu = complex(np.clip(rng.normal(0, 0.3), -0.8, 0.8), rng.normal(0, 1.2))
        coeffs = rng.normal(size=(3, 1)) + 1j * rng.normal(size=(3, 1))
        term = QuasiPolynomial(1, [(nu, coeffs)])
        u = add(add(u, term), term.conjugate())
    coords, _ = project(P, u)
    for k, el in enumerate(P.basis.elements):
        assert np.isclose(coords[el.partner], np.conj(coords[k]), atol=1e-9)


def test_flavors_disagree_off_kernel_but_both_idempotent():
    basis = pair_basis(1.0)
    Ppt, Pgr = build_pointwise(basis), build_gram(basis, "gaussian")
    u = quadratic_prefactor(1.0)
    cpt, ept = project(Ppt, u)
    cgr, egr = project(Pgr, u)
    assert not np.allclose(cpt, cgr, atol=1e-3)
    assert np.allclose(project(Ppt, ept)[0], cpt, atol=1e-12)
    assert np.allclose(project(Pgr, egr)[0], cgr, atol=1e-12)


def test_degenerate_basis_rejected():
    e0 = np.array([1.0, 0.0])
    phi = QuasiPolynomial(2, [(0.0, np.array([[1.0, 0.0]], dtype=complex))])
    els = [
        BasisElement(phi, 0.0, 0, 0, 0, e0),
        BasisElement(phi, 0.0, 0, 1, 0, e0),
    ]
    with pytest.raises(RuntimeError):
        KernelBasis(els, 2)
