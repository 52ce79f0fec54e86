"""Property oracle for ``locate_roots``: kernels with roots by construction.

Even Gaussian and exponential mixtures have transforms that depend on
s = nu^2 only.  Given axis points nu = +-i l_k with multiplicities m_k, the
amplitudes solve the linear conditions d^(q)(s_k) = 0, q < m_k, at
s_k = -l_k^2, with as many terms as conditions, as ``two_exponential_kernel``
and ``three_gaussian_kernel`` do for simple roots.  Since s -> nu^2 is
locally invertible away from 0, a zero of order m in s is one of order m at
both nu = +-i l.

An exponential mixture with p terms makes d times the pole product a
polynomial of degree p in s, so the chosen roots are all the roots: the
located spectrum must be exactly that set.  A Gaussian mixture can have
further roots, so there the chosen roots need only be among those found.
A draw may add a real pair +-x, d(x^2) = 0, inside the strip: it must be
located and excluded, shrinking the strip.  On every draw each reported
root must be a zero of d, and the total multiplicity must equal an
independent winding count over the reported strip and window.
"""

from math import factorial

import numpy as np
from hypothesis import assume, given, strategies as st

from cmnl import kernel as kr
from cmnl import spectrum as sp

GAUSS_WIDTHS = (0.2, 0.35, 0.6, 1.0, 1.7, 3.0)
EXP_RATES = (0.1, 0.25, 0.6, 0.9, 1.3, 1.8, 2.5, 3.5)
MIN_SLOPE = 1e-4  # smallest first nonvanishing s-derivative of d at a prescribed root


def gaussian_rows(a, s, q):
    """q-th s-derivative of the transform of e^{-a x^2} at s = nu^2."""
    return np.sqrt(np.pi / a) * np.exp(s / (4 * a)) / (4 * a) ** q


def exponential_rows(b, s, q):
    """q-th s-derivative of the transform 2b/(b^2 - s) of e^{-b|x|}."""
    return factorial(q) * 2 * b / (b * b - s) ** (q + 1)


def amplitudes(rows, scales, chosen, real):
    """Amplitudes with d^(q)(-l^2) = 0 for q < m, for every chosen (l, m),
    and d(real^2) = 0 unless ``real`` is None.

    The draw is rejected unless every prescribed root is well posed: the
    first derivative of d that does not vanish there must be at least
    ``MIN_SLOPE``.  On a flatter d the rounding of the amplitudes alone
    moves a simple root, or splits a double one, by more than the 1e-8 the
    checks allow, so the kernel no longer has the roots it was built for.
    """
    roots = [(-l * l, m) for l, m in chosen] + ([(real * real, 1)] if real is not None else [])
    conditions = [(s, q) for s, m in roots for q in range(m)]
    A = np.array([[rows(c, s, q) for c in scales] for s, q in conditions])
    assume(np.linalg.cond(A) < 1e8)
    c = np.linalg.solve(A, [-1.0 if q == 0 else 0.0 for _, q in conditions])
    assume(np.abs(c).max() < 50)
    for s, m in roots:
        assume(abs(sum(ci * rows(a, s, m) for ci, a in zip(c, scales))) >= MIN_SLOPE)
    return c


@st.composite
def chosen_roots(draw, scales, strip):
    """(chosen [(l, m)], real, term scales): distinct axis points 0.1..2.0,
    at least 0.15 apart, with multiplicities 1 or 2; optionally a real pair
    +-real inside the strip ``strip(terms)`` that ``locate_roots`` starts
    from, either at 0.1 to 0.99 of it or on the absolute grid 0.15..0.5;
    one term per condition.  Nearer the axis than both, ``locate_roots`` can
    take the pair for a double root at 0."""
    grid = st.integers(2, 40).map(lambda k: 0.05 * k)
    ls = sorted(draw(st.lists(grid, min_size=1, max_size=3, unique=True)))
    assume(all(b - a >= 0.15 for a, b in zip(ls, ls[1:])))
    ms = [draw(st.integers(1, 2)) for _ in ls]
    with_real = draw(st.booleans())
    size = sum(ms) + with_real
    assume(size <= 4)
    terms = sorted(draw(st.lists(st.sampled_from(scales), min_size=size, max_size=size,
                                 unique=True)))
    real = None
    if with_real:
        width = strip(terms)
        relative = st.integers(10, 99).map(lambda k: 0.01 * k * width)
        absolute = [0.05 * k for k in range(3, 11) if 0.05 * k < 0.99 * width]
        real = draw(relative | st.sampled_from(absolute) if absolute else relative)
    return list(zip(ls, ms)), real, terms


def located(K, real):
    """Roots with the properties every draw must have: each a zero of d,
    the total an independent winding count, the real pair excluded."""
    res = sp.locate_roots(K)
    for r in res.roots:
        assert abs(sp.char_value(K, r.nu)) <= 1e-9
    count = sp.count_in_rectangle(K, -res.strip, res.strip, -res.window, res.window)
    assert res.total_multiplicity == count
    excluded = res.diagnostics["excluded_offaxis"]
    if real is not None:
        for x in (-real, real):
            assert any(abs(z - x) <= 1e-8 for z in excluded)
    assert res.diagnostics["unconfirmed_clusters"] == []
    return res


def expected_roots(chosen):
    return sorted((s * l, m) for l, m in chosen for s in (-1.0, 1.0))


def matches(res, nu_im, m):
    return any(abs(r.nu - 1j * nu_im) <= 1e-8 and r.multiplicity == m for r in res.roots)


@given(chosen_roots(EXP_RATES, lambda rates: 0.9 * min(rates)))
def test_exponential_mixture_roots_are_exactly_the_chosen_ones(draw):
    chosen, real, rates = draw
    c = amplitudes(exponential_rows, rates, chosen, real)
    K = kr.ExponentialMixture([(ci, b, 0.0) for ci, b in zip(c, rates)])
    res = located(K, real)
    want = expected_roots(chosen)
    assert len(res.roots) == len(want)
    assert all(matches(res, l, m) for l, m in want)
    assert len(res.diagnostics["excluded_offaxis"]) == (0 if real is None else 2)


@given(chosen_roots(GAUSS_WIDTHS, lambda widths: 1.0))
def test_gaussian_mixture_roots_include_the_chosen_ones(draw):
    chosen, real, widths = draw
    c = amplitudes(gaussian_rows, widths, chosen, real)
    K = kr.GaussianMixture([(np.array([[[ci]]]), a, 0.0) for ci, a in zip(c, widths)])
    res = located(K, real)
    assert all(matches(res, l, m) for l, m in expected_roots(chosen))
