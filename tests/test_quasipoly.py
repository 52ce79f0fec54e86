"""Tests for quasi-polynomials and the reference algebra over them.

Everything is checked against direct pointwise evaluation, an independent
route through numpy only.  The closure laws of the reference algebra in
``reference.py`` (translation group action, differentiation commuting with
translation), which the other modules use as their oracle, get
property-based coverage.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmnl.quasipoly import FREQ_TOL, TRIM_REL, QuasiPolynomial

from reference import (
    add, differentiate, exponential, frequencies, is_zero, isclose, max_coeff,
    monomial, mul, multiply, quasi_from_data, quasi_to_data, scale, shift, sub,
    term_for, zero)


def qp(terms, n=1):
    return QuasiPolynomial(n, terms)


# -- strategies --------------------------------------------------------------

finite = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def quasi_polys(draw, n=1, max_terms=3, max_deg=3):
    nterms = draw(st.integers(0, max_terms))
    terms = []
    for _ in range(nterms):
        nu = complex(draw(finite), draw(finite))
        deg = draw(st.integers(0, max_deg))
        coeffs = np.array(
            [[complex(draw(finite), draw(finite)) for _ in range(n)] for _ in range(deg + 1)]
        )
        terms.append((nu, coeffs))
    return QuasiPolynomial(n, terms)


# -- evaluation as the independent oracle ------------------------------------


def test_evaluate_single_term():
    f = qp([(1j, [[2.0], [0.0], [1.0]])])  # (2 + x^2) e^{i x}
    x = 0.7
    expected = (2 + x**2) * np.exp(1j * x)
    assert abs(f.evaluate(x)[0] - expected) < 1e-14


def test_evaluate_vector_valued():
    f = qp([(0.5, np.array([[1.0, 2.0], [3.0, 4.0]]))], n=2)  # (1+3x, 2+4x) e^{x/2}
    x = -1.3
    v = f.evaluate(x)
    assert np.allclose(v, np.array([1 + 3 * x, 2 + 4 * x]) * np.exp(0.5 * x))


def test_evaluate_array_input():
    f = qp([(2.0, [[1.0]])])
    xs = np.linspace(-1, 1, 5)
    assert np.allclose(f.evaluate(xs)[:, 0], np.exp(2 * xs))


@given(quasi_polys(), quasi_polys(), finite)
@settings(max_examples=60, deadline=None)
def test_add_matches_pointwise(f, g, x):
    lhs = add(f, g).evaluate(x)
    rhs = f.evaluate(x) + g.evaluate(x)
    assert np.allclose(lhs, rhs, atol=1e-8 * (1 + max_coeff(f) + max_coeff(g)))


@given(quasi_polys(max_terms=2, max_deg=2), quasi_polys(max_terms=2, max_deg=2), finite)
@settings(max_examples=60, deadline=None)
def test_mul_matches_pointwise(f, g, x):
    lhs = multiply(f, g).evaluate(x)
    rhs = f.evaluate(x) * g.evaluate(x)
    scale = 1 + (max_coeff(f) * max_coeff(g))
    assert np.allclose(lhs, rhs, atol=1e-7 * scale * (1 + abs(x)) ** 6)


def test_mul_requires_scalar_factor():
    f = qp([(0.0, np.eye(2)[:1])], n=2)
    with pytest.raises(ValueError):
        multiply(f, f)


def test_mul_scalar_times_vector():
    s = qp([(1.0, [[2.0]])])  # 2 e^x
    v = qp([(1j, np.array([[1.0, 0.0], [0.0, 1.0]]))], n=2)
    prod = multiply(s, v)
    x = 0.3
    assert np.allclose(prod.evaluate(x), 2 * np.exp(x) * v.evaluate(x))


# -- calculus ----------------------------------------------------------------


def test_differentiate_explicit():
    # d/dx [x^2 e^{i x}] = (2x + i x^2) e^{i x}
    f = qp([(1j, [[0.0], [0.0], [1.0]])])
    df = differentiate(f)
    coeffs = term_for(df, 1j)
    assert np.allclose(coeffs[:, 0], [0.0, 2.0, 1j])


@given(quasi_polys(max_terms=2, max_deg=3), finite)
@settings(max_examples=60, deadline=None)
def test_differentiate_matches_finite_difference(f, x):
    h = 1e-5
    num = (f.evaluate(x + h) - f.evaluate(x - h)) / (2 * h)
    exact = differentiate(f).evaluate(x)
    scale = (1 + max_coeff(f)) * np.exp(3 * (abs(x) + 1))
    assert np.allclose(num, exact, atol=1e-6 * scale)


@given(quasi_polys(max_terms=2, max_deg=3), finite, finite)
@settings(max_examples=60, deadline=None)
def test_shift_is_group_action(f, a, b):
    lhs = shift(shift(f, a), b)
    rhs = shift(f, a + b)
    assert isclose(lhs, rhs, tol=1e-10 * (1 + np.exp(3 * (abs(a) + abs(b)))))


@given(quasi_polys(max_terms=2, max_deg=3), finite, finite)
@settings(max_examples=60, deadline=None)
def test_shift_matches_evaluation(f, xi, x):
    assert np.allclose(
        shift(f, xi).evaluate(x),
        f.evaluate(x + xi),
        atol=1e-8 * (1 + max_coeff(f)) * np.exp(3 * (abs(x) + abs(xi))),
    )


@given(quasi_polys(max_terms=2, max_deg=3), finite)
@settings(max_examples=40, deadline=None)
def test_differentiate_commutes_with_shift(f, xi):
    lhs = differentiate(shift(f, xi))
    rhs = shift(differentiate(f), xi)
    assert isclose(lhs, rhs, tol=1e-9 * (1 + np.exp(3 * abs(xi))))


def test_conjugate_involution_and_pointwise():
    f = qp([(1 + 2j, [[1j], [2.0 - 1j]])])
    g = f.conjugate()
    x = 0.37
    assert abs(g.evaluate(x)[0] - np.conj(f.evaluate(x)[0])) < 1e-14
    assert isclose(g.conjugate(), f, tol=1e-15)


def test_derivative_at_zero():
    # f = (1 + x + 4 x^3) e^{2 x}; compare against symbolic derivatives.
    f = qp([(2.0, [[1.0], [1.0], [0.0], [4.0]])])
    for m in range(6):
        g = f
        for _ in range(m):
            g = differentiate(g)
        direct = f.derivative_at_zero(m)[0]
        assert abs(direct - g.evaluate(0.0)[0]) < 1e-10 * (1 + abs(direct))


# -- canonical form ----------------------------------------------------------


def test_merge_close_frequencies():
    f = qp([(1j, [[1.0]]), (1j + 1e-12, [[1.0]])])
    assert len(f.terms) == 1
    assert abs(f.terms[0][1][0, 0] - 2.0) < 1e-12


def test_distinct_frequencies_not_merged():
    f = qp([(1j, [[1.0]]), (1.000001j, [[1.0]])])
    assert len(f.terms) == 2


def test_trim_trailing_zeros():
    f = qp([(0.0, [[1.0], [0.0], [1e-17]])])
    assert f.terms[0][1].shape[0] == 1


def _canonical_terms_reference(terms):
    """Canonical terms as the constructor built them term by term, before it
    trimmed all terms in one pass: the reference for the bits of that pass."""
    groups = {}
    for nu, coeffs in terms:
        groups.setdefault(complex(nu), []).append(np.asarray(coeffs, dtype=complex))
    clusters = []
    for nu in sorted(groups, key=lambda nu: (nu.real, nu.imag)):
        for cl in clusters:
            if abs(nu - cl[0]) <= FREQ_TOL:
                cl.append(nu)
                break
        else:
            clusters.append([nu])
    merged = []
    for cl in clusters:
        arrays = [c for nu in cl for c in groups[nu]]
        nu = cl[0]
        if len(cl) > 1:
            weights = np.array([np.abs(c).max() if c.size else 0.0 for c in arrays])
            if weights.max() > 0:
                nus = [v for v in cl for _ in groups[v]]
                nu = complex(np.average(nus, weights=weights / weights.max()))
        total = np.zeros((max(c.shape[0] for c in arrays), arrays[0].shape[1]),
                         dtype=complex)
        for c in arrays:
            total[: c.shape[0]] += c
        merged.append((nu, total, np.abs(total).max(axis=1)))
    scale = max(((m.max() if m.size else 0.0) for _, _, m in merged), default=0.0)
    if scale == 0.0:
        return []
    out = []
    for nu, coeffs, mags in merged:
        keep = np.nonzero(mags > TRIM_REL * scale)[0]
        if keep.size:
            out.append((nu, coeffs[: keep[-1] + 1]))
    return sorted(out, key=lambda t: (t[0].real, t[0].imag))


@given(st.lists(st.tuples(
    st.sampled_from([0j, 1j, 1j + 4e-10, -1j, 0.5 - 2j]),
    st.integers(0, 3),
    st.sampled_from([1.0, 1e-14, 0.0, -0.0]),
    st.integers(0, 2**32 - 1),
), max_size=5))
@settings(max_examples=60, deadline=None)
def test_canonical_form_matches_the_term_by_term_reference(spec):
    # repeated and merged frequencies, tiny, zero and negative-zero tails
    terms = []
    for nu, deg, tail, seed in spec:
        rng = np.random.default_rng(seed)
        c = rng.normal(size=(deg + 1, 1)) + 1j * rng.normal(size=(deg + 1, 1))
        c[-1] *= tail
        if np.signbit(tail):
            c.imag[0] = -0.0
        terms.append((nu, c))
    got = QuasiPolynomial(1, terms).terms
    want = _canonical_terms_reference(terms)
    assert [nu for nu, _ in got] == [nu for nu, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(a.view(float), b.view(float))
        assert np.array_equal(np.signbit(a.view(float)), np.signbit(b.view(float)))


def test_cancellation_gives_zero():
    f = qp([(1j, [[1.0], [2.0]])])
    assert is_zero(sub(f, f))
    assert sub(f, f).terms == []


def test_zero_element():
    z = zero(3)
    assert is_zero(z)
    assert max_coeff(z) == 0.0
    assert np.allclose(z.evaluate(1.0), 0.0)


def test_term_sorting_deterministic():
    f = qp([(2j, [[1.0]]), (-1j, [[1.0]]), (1.0, [[1.0]])])
    freqs = frequencies(f)
    assert freqs == sorted(freqs, key=lambda nu: (nu.real, nu.imag))


# -- serialization -----------------------------------------------------------
# the report layout of a quasi-polynomial, kept in the reference module as
# the list-form reference of ``JetResult.to_data``


def test_json_round_trip():
    f = qp(
        [(1j, [[1.0 + 2j], [3.0]]), (-0.5, [[2.0]])],
    )
    data = quasi_to_data(f)
    g = quasi_from_data(data)
    assert isclose(f, g, tol=0.0)
    assert data == quasi_to_data(g)


def test_json_schema_shape():
    f = qp([(1j, np.array([[1.0, 2.0]]))], n=2)
    data = quasi_to_data(f)
    assert data["n"] == 2
    assert data["terms"][0]["nu"] == [0.0, 1.0]
    # poly: degree-major, then component, then [re, im]
    assert data["terms"][0]["poly"] == [[[1.0, 0.0], [2.0, 0.0]]]


@given(quasi_polys(max_terms=3, max_deg=3))
@settings(max_examples=40, deadline=None)
def test_json_round_trip_property(f):
    assert isclose(quasi_from_data(quasi_to_data(f)), f, tol=1e-14)


# -- helpers used elsewhere --------------------------------------------------


def test_monomial_and_exponential():
    m = monomial(1j, 2, [3.0])
    assert np.allclose(term_for(m, 1j)[:, 0], [0, 0, 3.0])
    e = exponential(-1.0, [1.0, 2.0])
    assert e.n == 2
    assert np.allclose(e.evaluate(0.0), [1.0, 2.0])


def test_scale_and_sub():
    f = qp([(1j, [[1.0]])])
    g = sub(scale(f, 2.5), f)
    assert abs(term_for(g, 1j)[0, 0] - 1.5) < 1e-15
    h = sub(mul(2.5, f), mul(f, 2.5))
    assert is_zero(h)
