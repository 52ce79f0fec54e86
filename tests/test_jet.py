"""Order-by-order reduction: graph coefficients, reduced field, scalings.

Two model problems drive the checks.  The scalar problem (simple root at 0,
quadratic nonlinearity) has hand-derivable graph entries ``alpha x`` and
``alpha^2 x^2 - kappa2 alpha^3 x`` with field ``alpha A^2 - kappa2 alpha^3
A^3``, everything expressible through two kernel moments.  The conjugate-pair
problem (double roots at +-i, odd cubic nonlinearity with one parameter) has
closed-form graph polynomials in the generalized moments kappa_{m,j},
re-derived independently from the convolution identity
K*(x^q e^{nu x}) = e^{nu x} sum_r C(q,r) Khat^(r)(nu) x^{q-r} and frozen here.
"""

import itertools

import numpy as np
import pytest

from conftest import (
    build_front_jet,
    build_pair_jet,
    critical_pair_kernel,
    isclose,
    polynomial_terms,
    project,
    simple_zero_kernel,
)
from cmnl import jet
from cmnl.jet import (
    JetIndex,
    _Lattice,
    _Piece,
    _Rows,
    _Solver,
    _add_rows,
    _slot_multisets,
    _term_rhs,
    _unit,
    compute_jet,
    equation_residual,
    evaluate_field,
    manifold_point,
    scale_field,
)
from cmnl.kernel import GaussianMixture, SumKernel
from cmnl.nonlin import NonlinearitySpec, TaylorTerm, apply_term
from cmnl.problem import ProblemError
from cmnl.projection import build_gram, build_pointwise, kernel_basis
from cmnl.quasipoly import TRIM_REL, QuasiPolynomial
from cmnl.spectrum import locate_roots
from cmnl.tsolve import solve_frequency


def kappa(K, m, j):
    """Generalized moment kappa_{m,j} = int x^m K(x) e^{-i j x} dx."""
    return complex(K.moment(m, 1j * float(j))[0, 0])


def reflect(u):
    """u(-x) for a scalar quasi-polynomial."""
    terms = []
    for nu, coeffs in u.terms:
        signs = np.array([(-1.0) ** q for q in range(coeffs.shape[0])])
        terms.append((-nu, coeffs * signs[:, None]))
    return QuasiPolynomial(u.n, terms)


def grid_norm(u, xs=np.linspace(-3.0, 3.0, 61)):
    return float(np.abs(u.evaluate(xs)).max())


# ---------------------------------------------------------------------------
# scalar problem: simple root at 0, F = -u^2


@pytest.fixture(scope="module")
def scalar_problem():
    K = simple_zero_kernel()
    basis = kernel_basis(K, locate_roots(K))
    P = build_pointwise(basis)
    F = NonlinearitySpec(tuple(polynomial_terms([0.0, 0.0, -1.0])), max_order=5)
    return K, P, F, compute_jet(K, P, F, 3)


def test_scalar_graph_quadratic_coefficient(scalar_problem):
    K, P, F, J = scalar_problem
    alpha = -1.0 / kappa(K, 1, 0)
    expected = QuasiPolynomial.monomial(0.0, 1, [alpha])
    assert isclose(J.psi[JetIndex((2,), ())], expected, tol=1e-8)


def test_scalar_graph_cubic_coefficient(scalar_problem):
    K, P, F, J = scalar_problem
    alpha = -1.0 / kappa(K, 1, 0)
    kappa2 = kappa(K, 2, 0)
    expected = QuasiPolynomial(
        1, [(0.0, [[0.0], [-kappa2 * alpha**3], [alpha**2]])]
    )
    assert isclose(J.psi[JetIndex((3,), ())], expected, tol=1e-8)


def test_scalar_field_coefficients(scalar_problem):
    K, P, F, J = scalar_problem
    alpha = -1.0 / kappa(K, 1, 0)
    kappa2 = kappa(K, 2, 0)
    assert abs(J.field[JetIndex((1,), ())][0]) < 1e-10
    assert abs(J.field[JetIndex((2,), ())][0] - alpha) < 1e-8
    assert abs(J.field[JetIndex((3,), ())][0] + kappa2 * alpha**3) < 1e-8
    assert J.vanished == ()


def test_scalar_manifold_residual_slope(scalar_problem):
    K, P, F, J = scalar_problem
    amps = [1e-1, 1e-2, 1e-3]
    norms = [
        grid_norm(equation_residual(K, F, manifold_point(J, [a])))
        for a in amps
    ]
    slope = np.polyfit(np.log(amps), np.log(norms), 1)[0]
    assert slope >= 3.5


# ---------------------------------------------------------------------------
# conjugate-pair problem: double roots at +-i, one parameter
#
# Equation u + K*u + F(u, lam) = 0 with F = -lam K*u + (1/3) K*(u^3); the
# basis is (zeta0, conj zeta0, zeta1, conj zeta1) = (e^{ix}, e^{-ix},
# x e^{ix}, x e^{-ix}) and coordinates are written (A, Abar, B, Bbar).


@pytest.fixture(scope="module")
def pair_problem():
    K = critical_pair_kernel()
    basis = kernel_basis(K, locate_roots(K))
    P = build_pointwise(basis)
    lam_linear = TaylorTerm(-1.0, ((None, 0),), mu_power=1, outer=K)
    cubic = TaylorTerm(1.0 / 3.0, ((None, 0),) * 3, outer=K)
    F = NonlinearitySpec(
        (lam_linear, cubic),
        max_order=5,
    )
    return K, P, F, compute_jet(K, P, F, 3)


def pair_constants(K):
    """alpha0 and the lam-B graph polynomial coefficients, from moments."""
    k01, k21, k31 = kappa(K, 0, 1), kappa(K, 2, 1), kappa(K, 3, 1)
    alpha0 = -(k01**2) / k21
    alpha2 = -(k01**2) / (3.0 * k21)
    alpha1 = -(k01**2) * k31 / (3.0 * k21**2)
    return alpha0, alpha2, alpha1


def test_pair_basis_is_conjugate_interleaved(pair_problem):
    K, P, F, J = pair_problem
    els = P.basis.elements
    assert np.allclose([el.nu for el in els], [1j, -1j, 1j, -1j])
    assert [el.partner for el in els] == [1, 0, 3, 2]


def test_pair_lambda_A_graph_entry(pair_problem):
    # Psi at lam*A: alpha0[(x^2 + 2ix - 3/2)e^{ix} + (ix + 3/2)e^{-ix}]
    K, P, F, J = pair_problem
    alpha0, _, _ = pair_constants(K)
    expected = QuasiPolynomial(
        1,
        [
            (1j, np.array([[-1.5], [2.0j], [1.0]]) * alpha0),
            (-1j, np.array([[1.5], [1.0j]]) * alpha0),
        ],
    )
    assert isclose(J.psi[JetIndex((1, 0, 0, 0), (1,))], expected, tol=1e-8)


def test_pair_lambda_B_graph_entry(pair_problem):
    # Psi at lam*B: (alpha2 x^3 + alpha1 x^2 + b0 x + c0)e^{ix}
    #             + (b1 x - c0)e^{-ix}
    K, P, F, J = pair_problem
    _, alpha2, alpha1 = pair_constants(K)
    b0 = (4.0j * alpha1 + 3.0 * alpha2) / 2.0
    b1 = (2.0j * alpha1 + 3.0 * alpha2) / 2.0
    c0 = (3.0j * alpha2 - 3.0 * alpha1) / 2.0
    expected = QuasiPolynomial(
        1,
        [
            (1j, [[c0], [b0], [alpha1], [alpha2]]),
            (-1j, [[-c0], [b1]]),
        ],
    )
    assert isclose(J.psi[JetIndex((0, 0, 1, 0), (1,))], expected, tol=1e-8)


def test_pair_A2Abar_equals_minus_lambda_A_entry(pair_problem):
    K, P, F, J = pair_problem
    got = J.psi[JetIndex((2, 1, 0, 0), (0,))]
    ref = J.psi[JetIndex((1, 0, 0, 0), (1,))]
    assert isclose(got, ref.scale(-1.0), tol=1e-8)


def test_pair_A3_graph_entry(pair_problem):
    # Psi at A^3: (k03/(3D)) [e^{3ix} + (4 - 8ix)e^{ix} - (5 + 4ix)e^{-ix}]
    K, P, F, J = pair_problem
    k01, k03 = kappa(K, 0, 1), kappa(K, 0, 3)
    beta3 = k03 / (3.0 * (-1.0 + k03 / k01))
    expected = QuasiPolynomial(
        1,
        [
            (3j, [[beta3]]),
            (1j, [[4.0 * beta3], [-8.0j * beta3]]),
            (-1j, [[-5.0 * beta3], [-4.0j * beta3]]),
        ],
    )
    assert isclose(J.psi[JetIndex((3, 0, 0, 0), (0,))], expected, tol=1e-8)


def test_pair_B3_polynomial_family(pair_problem):
    # Psi at B^3 carries (beta0 + beta1 x + beta2 x^2 + beta3 x^3)e^{3ix}.
    K, P, F, J = pair_problem
    k01 = kappa(K, 0, 1)
    k03, k13, k23, k33 = (kappa(K, m, 3) for m in range(4))
    D = -1.0 + k03 / k01
    beta3 = k03 / (3.0 * D)
    beta2 = k13 / D**2
    beta1 = -k23 / D**2 + 2.0 * k13**2 / (k01 * D**3)
    beta0 = (
        k33 / (3.0 * D**2)
        - 2.0 * k13 * k23 / (k01 * D**3)
        + 2.0 * k13**3 / (k01**2 * D**4)
    )
    coeffs = J.psi[JetIndex((0, 0, 3, 0), (0,))].term_for(3j)[:, 0]
    expect = np.array([beta0, beta1, beta2, beta3])
    assert np.allclose(coeffs, expect, rtol=1e-7, atol=0.0)


def test_pair_B2Bbar_polynomial_family(pair_problem):
    # Psi at B^2 Bbar carries (delta0 + ... + delta3 x^3) x^2 e^{ix}.
    K, P, F, J = pair_problem
    k01, k21, k31, k41, k51 = (kappa(K, m, 1) for m in (0, 2, 3, 4, 5))
    delta3 = k01**2 / (10.0 * k21)
    delta2 = k01**2 * k31 / (6.0 * k21**2)
    delta1 = (
        k01
        + (2.0 / 9.0) * k01**2 * k31**2 / k21**3
        - k01**2 * k41 / (6.0 * k21**2)
    )
    delta0 = (
        (2.0 / 9.0) * k01**2 * k31**3 / k21**4
        - k01**2 * k31 * k41 / (3.0 * k21**3)
        + k01**2 * k51 / (10.0 * k21**2)
    )
    coeffs = J.psi[JetIndex((0, 0, 2, 1), (0,))].term_for(1j)[:, 0]
    expect = np.array([delta0, delta1, delta2, delta3])
    assert np.allclose(coeffs[2:6], expect, rtol=1e-7, atol=1e-12)


def test_pair_A2B_polynomial_family(pair_problem):
    # Psi at A^2 B carries (gamma0 + gamma1 x)e^{3ix}.
    K, P, F, J = pair_problem
    k01, k03, k13 = kappa(K, 0, 1), kappa(K, 0, 3), kappa(K, 1, 3)
    D = -1.0 + k03 / k01
    gamma1 = k03 / D
    gamma0 = k13 / D**2
    coeffs = J.psi[JetIndex((2, 0, 1, 0), (0,))].term_for(3j)[:, 0]
    assert np.allclose(coeffs, [gamma0, gamma1], rtol=1e-7, atol=0.0)


def test_pair_ABBbar_polynomial_family(pair_problem):
    # Psi at A B Bbar carries (omega0 + omega1 x + omega2 x^2) x^2 e^{ix}.
    K, P, F, J = pair_problem
    k01, k21, k31, k41 = (kappa(K, m, 1) for m in (0, 2, 3, 4))
    omega2 = k01**2 / (3.0 * k21)
    omega1 = (4.0 / 9.0) * k01**2 * k31 / k21**2
    omega0 = (
        2.0 * k01
        + (4.0 / 9.0) * k01**2 * k31**2 / k21**3
        - k01**2 * k41 / (3.0 * k21**2)
    )
    coeffs = J.psi[JetIndex((1, 0, 1, 1), (0,))].term_for(1j)[:, 0]
    expect = np.array([omega0, omega1, omega2])
    assert np.allclose(coeffs[2:5], expect, rtol=1e-7, atol=1e-12)


def test_pair_AB2_polynomial_family(pair_problem):
    # Psi at A B^2 carries (rho0 + rho1 x + rho2 x^2)e^{3ix}.
    K, P, F, J = pair_problem
    k01 = kappa(K, 0, 1)
    k03, k13, k23 = (kappa(K, m, 3) for m in range(3))
    D = -1.0 + k03 / k01
    rho2 = k03 / D
    rho1 = 2.0 * k13 / D**2
    rho0 = -k23 / D**2 + 2.0 * k13**2 / (k01 * D**3)
    coeffs = J.psi[JetIndex((1, 0, 2, 0), (0,))].term_for(3j)[:, 0]
    assert np.allclose(coeffs, [rho0, rho1, rho2], rtol=1e-7, atol=0.0)


def test_pair_reflection_related_entries(pair_problem):
    # The reflection x -> -x sends the lam*A entry to the lam*Abar one and
    # minus the lam*B entry to the lam*Bbar one.
    K, P, F, J = pair_problem
    assert isclose(
        J.psi[JetIndex((0, 1, 0, 0), (1,))],
        reflect(J.psi[JetIndex((1, 0, 0, 0), (1,))]),
        tol=1e-8,
    )
    assert isclose(
        J.psi[JetIndex((0, 0, 0, 1), (1,))],
        reflect(J.psi[JetIndex((0, 0, 1, 0), (1,))]).scale(-1.0),
        tol=1e-8,
    )


def test_pair_conjugate_indices_are_conjugate_entries(pair_problem):
    K, P, F, J = pair_problem
    swap = {0: 1, 1: 0, 2: 3, 3: 2}
    for idx, u in J.psi.items():
        m = tuple(idx.powers[swap[i]] for i in range(4))
        assert isclose(J.psi[JetIndex(m, idx.mu)], u.conjugate(), tol=1e-9)


def test_pair_only_odd_coordinate_orders_present(pair_problem):
    # Odd nonlinearity: graph entries with even coordinate order all vanish.
    K, P, F, J = pair_problem
    for idx in J.psi:
        assert sum(idx.powers) % 2 == 1
    for idx in J.vanished:
        assert sum(idx.powers) % 2 == 0


def test_pair_graph_entries_have_zero_coordinates(pair_problem):
    K, P, F, J = pair_problem
    for u in J.psi.values():
        coords, _ = project(P, u)
        assert np.abs(coords).max() < 1e-10


def test_pair_solver_diagnostics_small(pair_problem):
    K, P, F, J = pair_problem
    assert max(J.diagnostics.values()) < 1e-9


def test_pair_linear_field_part(pair_problem):
    K, P, F, J = pair_problem
    zero = (0,) * 1
    assert np.allclose(
        J.field[JetIndex((1, 0, 0, 0), zero)], [1j, 0, 0, 0], atol=1e-10
    )
    assert np.allclose(
        J.field[JetIndex((0, 1, 0, 0), zero)], [0, -1j, 0, 0], atol=1e-10
    )
    assert np.allclose(
        J.field[JetIndex((0, 0, 1, 0), zero)], [1, 0, 1j, 0], atol=1e-10
    )
    assert np.allclose(
        J.field[JetIndex((0, 0, 0, 1), zero)], [0, 1, 0, -1j], atol=1e-10
    )


def test_pair_parameter_linear_field_block(pair_problem):
    # Adot = iA + B + 2i alpha0 lam (A + Abar) + 2 a0 lam (B - Bbar)
    # Bdot = iB + 2 alpha0 lam (A + Abar) - 2i a0 lam (B - Bbar)
    K, P, F, J = pair_problem
    alpha0, alpha2, alpha1 = pair_constants(K)
    a0 = 3.0 * alpha2 + 1j * alpha1
    assert np.allclose(
        J.field[JetIndex((1, 0, 0, 0), (1,))],
        np.array([2j, -2j, 2, 2]) * alpha0,
        atol=1e-8,
    )
    assert np.allclose(
        J.field[JetIndex((0, 1, 0, 0), (1,))],
        np.array([2j, -2j, 2, 2]) * alpha0,
        atol=1e-8,
    )
    assert np.allclose(
        J.field[JetIndex((0, 0, 1, 0), (1,))],
        np.array([2, -2, -2j, -2j]) * a0,
        atol=1e-8,
    )
    assert np.allclose(
        J.field[JetIndex((0, 0, 0, 1), (1,))],
        np.array([-2, 2, 2j, 2j]) * a0,
        atol=1e-8,
    )


def test_pair_resonant_cubic_field_entry(pair_problem):
    K, P, F, J = pair_problem
    alpha0, _, _ = pair_constants(K)
    assert np.allclose(
        J.field[JetIndex((2, 1, 0, 0), (0,))],
        np.array([-2j, 2j, -2, -2]) * alpha0,
        atol=1e-8,
    )


def test_pair_flow_matches_finite_difference(pair_problem):
    # the field is the translation-flow derivative of the coordinates
    K, P, F, J = pair_problem
    h = 1e-5
    entries = list(J.psi.items()) + [
        (JetIndex(_unit(4, i), (0,)), el.function)
        for i, el in enumerate(P.basis.elements)
    ]
    for idx, u in entries:
        exact = J.field[idx]
        fd = (project(P, u.shift(h))[0] - project(P, u.shift(-h))[0]) / (2 * h)
        assert np.abs(fd - exact).max() < 1e-6 * (1.0 + np.abs(exact).max())


def test_pair_field_anticommutes_with_reversal(pair_problem):
    # With the reflection action g.(A, Abar, B, Bbar) = (Abar, A, -Bbar, -B),
    # the field satisfies f(g c) = -g f(c) coefficientwise.
    K, P, F, J = pair_problem
    for idx, vec in J.field.items():
        p = idx.powers
        sigma = (p[1], p[0], p[3], p[2])
        sign = (-1.0) ** (p[2] + p[3])
        lhs = sign * J.field[JetIndex(sigma, idx.mu)]
        rhs = np.array([-vec[1], -vec[0], vec[3], vec[2]])
        assert np.abs(lhs - rhs).max() < 1e-8 * (1.0 + np.abs(vec).max())


def pair_residual_slope(K, P, F, J):
    a, b = 0.7 + 0.4j, 0.2 - 0.5j
    sizes = [1e-1, 1e-2, 1e-3]
    norms = []
    for t in sizes:
        coords = (a * t, np.conj(a) * t, b * t, np.conj(b) * t)
        lam = 0.5 * t**2
        u = manifold_point(J, coords, (lam,))
        norms.append(grid_norm(equation_residual(K, F, u, (lam,))))
    return np.polyfit(np.log(sizes), np.log(norms), 1)[0]


def test_pair_manifold_residual_slope(pair_problem):
    K, P, F, J = pair_problem
    assert pair_residual_slope(K, P, F, J) >= 3.5


def test_pair_gram_projection_same_residual_property(pair_problem):
    K, P, F, _ = pair_problem
    P2 = build_gram(P.basis)
    J2 = compute_jet(K, P2, F, 3)
    assert pair_residual_slope(K, P2, F, J2) >= 3.5
    for u in J2.psi.values():
        coords, _ = project(P2, u)
        assert np.abs(coords).max() < 1e-10


def test_pair_parameter_weights_shift_orders(pair_problem):
    K, P, F, J = pair_problem
    J2 = compute_jet(K, P, F, 3, weights=(2,))
    idx = JetIndex((1, 0, 0, 0), (1,))
    assert isclose(J2.psi[idx], J.psi[idx], tol=1e-10)
    assert all(idx2.mu != (2,) for idx2 in J2.psi)


def test_order_validation():
    K = simple_zero_kernel()
    basis = kernel_basis(K, locate_roots(K))
    P = build_pointwise(basis)
    F = NonlinearitySpec(tuple(polynomial_terms([0.0, 0.0, -1.0])), max_order=3)
    with pytest.raises(ProblemError, match="minimum order 2"):
        compute_jet(K, P, F, 1)
    with pytest.raises(ProblemError, match="exceeds"):
        compute_jet(K, P, F, 4)


# ---------------------------------------------------------------------------
# the jet algebra: slot multisets, lattice frequencies, reuse, higher orders


def _ordered_rhs(term, pieces, budget, rho_t):
    """Reference right-hand sides: every ordered slot assignment evaluated
    in full, summed per index."""
    out = {}
    for args in itertools.product(pieces, repeat=term.degree):
        if sum(p.order for p in args) != budget:
            continue
        m = tuple(map(sum, zip(*(p.m for p in args))))
        rho = tuple(map(sum, zip(rho_t, *(p.rho for p in args))))
        val = apply_term(term, [p.value for p in args])
        out[m, rho] = val if (m, rho) not in out else out[m, rho] + val
    return out


def _random_piece(rng, m, rho, order, nu, n, deg):
    coeffs = rng.normal(size=(deg + 1, n)) + 1j * rng.normal(size=(deg + 1, n))
    return _Piece(m, rho, QuasiPolynomial(n, [(nu, coeffs)]), order)


def _assert_rhs_match(term, pieces, budget, rho_t, lattice):
    # the lattice rows of ``_term_rhs`` against the ordered reference on
    # quasi-polynomials
    rows = _Rows(lattice, pieces[0].value.n)
    row_pieces = [_Piece(p.m, p.rho, rows.from_quasi(p.value), p.order)
                  for p in pieces]
    got = _term_rhs(term, row_pieces, budget, rho_t, rows)
    want = _ordered_rhs(term, pieces, budget, rho_t)
    assert set(got) == set(want)
    for key, ref in want.items():
        diff = rows.to_quasi(got[key]) - ref
        assert diff.max_coeff() <= 1e-13 * ref.max_coeff()


def test_slot_multisets_match_ordered_assignments_symmetric_cubic():
    # u^3 with an outer kernel: one group of three interchangeable slots
    rng = np.random.default_rng(7)
    K = critical_pair_kernel()
    nu = 1j
    pieces = [
        _random_piece(rng, (1, 0), (0,), 1, nu, 1, 0),
        _random_piece(rng, (0, 1), (0,), 1, -nu, 1, 0),
        _random_piece(rng, (1, 0), (1,), 2, nu, 1, 1),
        _random_piece(rng, (2, 1), (0,), 3, nu, 1, 2),
        _random_piece(rng, (1, 2), (0,), 3, -nu, 1, 2),
    ]
    term = TaylorTerm(1.0 / 3.0, ((None, 0),) * 3, outer=K)
    lattice = _Lattice([nu, -nu], 5)
    for budget in (3, 4, 5):
        _assert_rhs_match(term, pieces, budget, (0,), lattice)
    weights = [w for w, _ in _slot_multisets(term, pieces, 5)]
    assert sorted(set(weights)) == [3, 6]


def test_slot_multisets_match_ordered_assignments_mixed_slots():
    # two slots share a matrix kernel and component 0, the third reads
    # component 1 bare; a scalar outer kernel lands in component 1
    rng = np.random.default_rng(11)
    G = GaussianMixture.single(0.4, 1.0)
    Kmat = GaussianMixture.single([[0.3, 0.1], [0.2, -0.5]], 0.7, n=2)
    term = TaylorTerm(
        0.7 - 0.2j, ((Kmat, 0), (None, 1), (Kmat, 0)), mu_power=(1,),
        outer=G, target=1,
    )
    nu = 0.5j
    pieces = [
        _random_piece(rng, (1, 0), (0,), 1, nu, 2, 0),
        _random_piece(rng, (0, 1), (0,), 1, -nu, 2, 1),
        _random_piece(rng, (2, 0), (0,), 2, 2 * nu, 2, 0),
        _random_piece(rng, (1, 1), (1,), 3, 0.0, 2, 1),
    ]
    lattice = _Lattice([nu, -nu], 6)
    for budget in (3, 4, 5):
        _assert_rhs_match(term, pieces, budget, (1,), lattice)


# SumKernel.transform_batch calls of the order-5 pair jet: 24 when measured
TRANSFORM_BATCH_CALLS = 28


@pytest.fixture(scope="module")
def counted_pair_jet(pair_problem):
    """The order-5 pair jet, with batched kernel transforms and
    quasi-polynomial constructions counted while it is computed."""
    counts = {"transform_batch": 0, "construct": 0}
    transform_batch = SumKernel.transform_batch
    construct = QuasiPolynomial.__init__

    def counted_transform_batch(self, *args, **kwargs):
        counts["transform_batch"] += 1
        return transform_batch(self, *args, **kwargs)

    def counted_construct(self, *args, **kwargs):
        counts["construct"] += 1
        construct(self, *args, **kwargs)

    K, P, F, _ = pair_problem
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SumKernel, "transform_batch", counted_transform_batch)
        mp.setattr(QuasiPolynomial, "__init__", counted_construct)
        J = compute_jet(K, P, F, 5)
    return J, counts


def test_pair_order5_reuses_transforms_and_constructions(counted_pair_jet):
    # quasi-polynomials are built only for the psi entries (and at most
    # once per basis element); every transform is one batched call
    J, counts = counted_pair_jet
    assert len(J.psi) == 132
    assert counts["transform_batch"] <= TRANSFORM_BATCH_CALLS
    assert counts["construct"] <= len(J.psi) + J.basis.size


def test_pair_order5_frequencies_are_lattice_points(counted_pair_jet):
    J, _ = counted_pair_jet
    nu = next(el.nu for el in J.basis.elements if el.nu.imag > 0)
    lattice = {k * nu for k in range(-5, 6)}
    freqs = {f for u in J.psi.values() for f in u.frequencies}
    assert freqs <= lattice
    assert len(freqs) == 6


def test_front_frequencies_are_one_value():
    _, J, _ = build_front_jet(order=5)
    freqs = {f for u in J.psi.values() for f in u.frequencies}
    assert len(freqs) == 1


# ---------------------------------------------------------------------------
# stacked solves against the per-index reference


class _PerIndexSolver(_Solver):
    """Bordered solves, residuals and coordinates one right-hand side and one
    point at a time: the reference for the stacked ``_Solver``."""

    def solve(self, gs):
        points = self.rows.lattice.points
        us = []
        for g in gs:
            u = {}
            for i, c in g.items():
                A, S = self._operator(i, c.shape[0] - 1 + self.alpha[i])
                u[i] = solve_frequency(A, S, c[None], self.tol, points[i])[0]
            for delta, b in zip(-self.coordinates([u])[0], self.basis):
                if delta != 0:
                    _add_rows(u, b, delta)
            us.append(u)
        return us

    def residual(self, us, gs):
        out = []
        for u, g in zip(us, gs):
            worst = 0.0
            for i, c in u.items():
                r = c + (self.rows.conv_matrix(self.K, i, c.shape[0] - 1)
                         @ c.ravel()).reshape(c.shape)
                gi = g.get(i)
                if gi is not None:
                    r[: gi.shape[0]] += gi
                worst = max(worst, float(np.abs(r).max()))
            out.append(worst / (1.0 + max(float(np.abs(c).max()) for c in g.values())))
        return out

    def coordinates(self, us, flow=False):
        out = np.zeros((len(us), self.P.basis.size), dtype=complex)
        for j, u in enumerate(us):
            for i, c in u.items():
                out[j] += self._coordinate_rows(i, c.shape[0] - 1)[flow] @ c.ravel()
        return out


def _per_index_trim(rowsets):
    out = []
    for rows in rowsets:
        mags = {i: np.abs(c).max(axis=1) for i, c in rows.items()}
        scale = max((m.max() for m in mags.values()), default=0.0)
        out.append({})
        for i, m in mags.items():
            keep = np.flatnonzero(m > TRIM_REL * scale)
            if keep.size:
                out[-1][i] = rows[i][: keep[-1] + 1]
    return out


@pytest.mark.parametrize("build", [
    lambda: build_pair_jet(order=5),
    lambda: build_front_jet(order=5)[:2],
], ids=["pair-o5", "front-o5"])
def test_stacked_solves_match_the_per_index_reference(build, monkeypatch):
    _, J = build()
    monkeypatch.setattr(jet, "_Solver", _PerIndexSolver)
    monkeypatch.setattr(jet, "_trim", _per_index_trim)
    _, R = build()
    assert J.psi.keys() == R.psi.keys()
    for idx, u in J.psi.items():
        assert [nu for nu, _ in u.terms] == [nu for nu, _ in R.psi[idx].terms]
        for (_, a), (_, b) in zip(u.terms, R.psi[idx].terms):
            assert np.array_equal(a, b)
    assert J.field.keys() == R.field.keys()
    for idx, vec in J.field.items():
        assert np.array_equal(vec, R.field[idx])
    assert J.diagnostics == R.diagnostics
    assert (J.vanished, J.root_blocks) == (R.vanished, R.root_blocks)


def test_residual_counts_rows_of_g_that_u_lacks(pair_problem):
    # a trimmed u can be shorter than g, or miss a point of g: those rows
    # of g enter the residual in full
    K, P, _, _ = pair_problem
    rows = _Rows(_Lattice([el.nu for el in P.basis.elements], 3), K.n)
    solver = _Solver(K, P, rows)
    i, k = rows.lattice.index[3j], rows.lattice.index[-3j]
    g = {i: np.array([[1.0 + 0.5j], [0.25]])}
    (u,) = solver.solve([g])
    assert u[i].shape == (2, 1)
    longer = {i: np.concatenate([g[i], [[0.5]]])}
    extra = {**g, k: np.array([[0.5j]])}
    base, *grown = solver.residual([u, u, u], [g, longer, extra])
    assert base <= 1e-15
    assert grown == pytest.approx([0.5 / (1.0 + abs(1.0 + 0.5j))] * 2, rel=1e-12)


@pytest.fixture(scope="module")
def pair_order7():
    return build_pair_jet(order=7, max_order=7)[1]


def test_pair_order7_bordered_solve(pair_order7):
    # unscaled block systems lose a genuine direction from order 6 on
    J = pair_order7
    assert len(J.psi) == 412
    assert max(J.diagnostics.values()) <= 1e-12


def test_pair_order7_root_blocks_keep_a_wide_gap(pair_order7):
    # every block factored at +-i separates its kept and dropped singular
    # values by many orders around the cutoff
    blocks = pair_order7.root_blocks
    keys = [(b["nu"][1], b["nu"][0], b["degree"]) for b in blocks]
    assert keys == sorted(keys)
    assert {round(k[0]) for k in keys} == {-1, 1}
    for b in blocks:
        assert b["smallest_kept"] >= 1e6 * b["cutoff"]
        assert b["largest_dropped"] <= 1e-6 * b["cutoff"]


# ---------------------------------------------------------------------------
# scaling and real form


def test_evaluate_field_monomials():
    fld = {
        JetIndex((1, 0, 0, 0), (0,)): np.array([2.0, 0, 0, 0]),
        JetIndex((0, 0, 2, 0), (1,)): np.array([0, 1.0, 0, 0]),
    }
    out = evaluate_field(fld, (0.5, 0.0, 0.25, 0.0), (2.0,))
    assert np.allclose(out, [1.0, 0.125, 0.0, 0.0])


def test_missing_parameters_are_refused():
    # the front jet has two parameters; evaluating it without them once
    # took every missing parameter as 1, giving -0.27588 for the B entry
    _, J, _ = build_front_jet()
    coords = (0.1, 0.02)
    assert evaluate_field(J.field, coords, (0.0, 0.0))[1] == pytest.approx(
        0.00412, abs=1e-5)
    for mu in ((), (0.0,)):
        with pytest.raises(ValueError, match="needs 2 parameter values"):
            evaluate_field(J.field, coords, mu)
        with pytest.raises(ValueError, match="needs 2 parameter values"):
            manifold_point(J, coords, mu)


def test_scale_field_identity(pair_problem):
    K, P, F, J = pair_problem
    scaled = scale_field(J.field, (0.0,) * 4, 0.0, (0.0,))
    assert scaled.dropped == ()
    for idx, vec in J.field.items():
        got = scaled.field.get(idx, np.zeros(4))
        assert np.allclose(got, vec, atol=1e-8)


def test_scale_field_pulse_balance(pair_problem):
    # c = (eps A, eps Abar, eps^2 B, eps^2 Bbar) with phases (1, -1, 1, -1),
    # x = eps xhat, lam = eps^2: the order-zero field is Adot = B,
    # Bdot = 2 alpha0 lam A - 2 alpha0 A^2 Abar, plus conjugates.
    K, P, F, J = pair_problem
    alpha0, _, _ = pair_constants(K)
    scaled = scale_field(
        J.field, (1.0, 1.0, 2.0, 2.0), 1.0, (2.0,), phases=(1.0, -1.0, 1.0, -1.0)
    )
    expected = {
        JetIndex((0, 0, 1, 0), (0,)): np.array([1.0, 0, 0, 0]),
        JetIndex((0, 0, 0, 1), (0,)): np.array([0, 1.0, 0, 0]),
        JetIndex((1, 0, 0, 0), (1,)): np.array([0, 0, 2.0 * alpha0, 0]),
        JetIndex((0, 1, 0, 0), (1,)): np.array([0, 0, 0, 2.0 * alpha0]),
        JetIndex((2, 1, 0, 0), (0,)): np.array([0, 0, -2.0 * alpha0, 0]),
        JetIndex((1, 2, 0, 0), (0,)): np.array([0, 0, 0, -2.0 * alpha0]),
    }
    assert set(scaled.field) == set(expected)
    for idx, vec in expected.items():
        assert np.allclose(scaled.field[idx], vec, atol=1e-8)
    assert scaled.dropped
    for i, idx, order, oscillatory in scaled.dropped:
        assert oscillatory or order > 0


def test_scale_field_negative_balance_raises(pair_problem):
    K, P, F, J = pair_problem
    with pytest.raises(RuntimeError, match="leading balance"):
        scale_field(J.field, (1.0,) * 4, 2.0, (2.0,))
