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
import pytest
from hypothesis import assume, given, strategies as st

from reference import rectangle, winding_count

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


def amplitudes(rows, scales, chosen, real, check=assume):
    """Amplitudes with d^(q)(-l^2) = 0 for q < m, for every chosen (l, m),
    and d(real^2) = 0 unless ``real`` is None.

    The draw is rejected (``check`` false) unless every prescribed root is
    well posed: the first derivative of d that does not vanish there must
    be at least ``MIN_SLOPE``.  On a flatter d the rounding of the
    amplitudes alone moves a simple root, or splits a double one, by more
    than the 1e-8 the checks allow, so the kernel no longer has the roots it
    was built for.
    """
    roots = [(-l * l, m) for l, m in chosen] + ([(real * real, 1)] if real is not None else [])
    conditions = [(s, q) for s, m in roots for q in range(m)]
    A = np.array([[rows(c, s, q) for c in scales] for s, q in conditions])
    check(np.linalg.cond(A) < 1e8)
    c = np.linalg.solve(A, [-1.0 if q == 0 else 0.0 for _, q in conditions])
    check(np.abs(c).max() < 50)
    for s, m in roots:
        check(abs(sum(ci * rows(a, s, m) for ci, a in zip(c, scales))) >= MIN_SLOPE)
    return c


@st.composite
def chosen_roots(draw, scales, strip):
    """(chosen [(l, m)], real, term scales): distinct axis points 0.1..2.0,
    at least 0.15 apart, with multiplicities 1 or 2; optionally a real pair
    +-real inside the strip ``strip(terms)`` that ``locate_roots`` starts
    from, either at 0.01 to 0.99 of it or on the absolute grid 0.15..0.5;
    one term per condition."""
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
        relative = st.integers(1, 99).map(lambda k: 0.01 * k * width)
        absolute = [0.05 * k for k in range(3, 11) if 0.05 * k < 0.99 * width]
        real = draw(relative | st.sampled_from(absolute) if absolute else relative)
    return list(zip(ls, ms)), real, terms


def counted(K, real):
    """Roots located with each a zero of d, the total an independent
    winding count, and the real pair excluded."""
    res = sp.locate_roots(K)
    for r in res.roots:
        assert abs(sp.char_value(K, r.nu)) <= 1e-9
    count = winding_count(K, rectangle(-res.strip, res.strip, -res.window, res.window))
    assert res.total_multiplicity == count
    excluded = res.diagnostics["excluded_offaxis"]
    if real is not None:
        for x in (-real, real):
            assert any(abs(z - x) <= 1e-8 for z in excluded)
    return res


def located(K, real):
    """Roots with the properties every draw must have: ``counted``, and no
    cluster left unconfirmed."""
    res = counted(K, real)
    assert res.diagnostics["unconfirmed_clusters"] == []
    return res


def exponential_kernel(rates, chosen, real, check=assume):
    """The exponential mixture of ``rates`` whose roots are the axis points
    ``chosen`` and the real pair +-``real``, as a draw builds it."""
    c = amplitudes(exponential_rows, rates, chosen, real, check)
    return kr.ExponentialMixture([(ci, b, 0.0) for ci, b in zip(c, rates)])


def expected_roots(chosen):
    return sorted((s * l, m) for l, m in chosen for s in (-1.0, 1.0))


def matches(res, nu_im, m):
    return any(abs(r.nu - 1j * nu_im) <= 1e-8 and r.multiplicity == m for r in res.roots)


@given(chosen_roots(EXP_RATES, lambda rates: 0.9 * min(rates)))
def test_exponential_mixture_roots_are_exactly_the_chosen_ones(draw):
    chosen, real, rates = draw
    res = located(exponential_kernel(rates, chosen, real), real)
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


def gaussian_pair_kernel(widths, real):
    """Two Gaussians with simple axis roots +-0.1i and a real pair +-real."""
    A = [[gaussian_rows(a, s, 0) for a in widths] for s in (-0.01, real * real)]
    c = np.linalg.solve(A, [-1.0, -1.0])
    return kr.GaussianMixture([(np.array([[[ci]]]), a, 0.0) for ci, a in zip(c, widths)])


@pytest.mark.parametrize("widths, real", [((0.2, 0.35), 0.13), ((0.2, 0.35), 0.26),
                                          ((0.35, 1.0), 0.35)])
def test_real_pair_on_the_first_cut_is_refused(widths, real):
    # the real pair lies on the first cut Im nu = 0, and each half box
    # counts one axis root and two half roots, a clean 2.  With widths
    # (0.35, 1), whose count's noise is only 0.0097, the boxes next to the
    # cut took their half pair for a root, and Newton moved it onto +-0.1i:
    # each axis root was reported twice and the pair was missed.
    res = located(gaussian_pair_kernel(widths, real), real)
    assert all(matches(res, l, 1) for l in (-0.1, 0.1))
    assert len({r.nu for r in res.roots}) == len(res.roots)


def test_noise_refuses_a_count_through_a_root():
    # the half box below the first cut of the +-0.13 pair: s_0 reads a
    # clean 2 from the axis root and two half roots, with noise 0.2
    K = gaussian_pair_kernel((0.2, 0.35), 0.13)
    with pytest.raises(sp.ContourError, match="count 2.* noise 0.2"):
        sp.contour_moments(K, -1.011, 1.011, -8.0, 0.0)


def test_a_quadrature_node_on_a_root_refuses_the_cut():
    # rates (0.1, 0.6), axis roots +-2i and a real pair +-0.0099: a node of
    # a box on the first cut, Im nu = 0, falls on 0.0099 to rounding, where
    # That is singular and cannot be inverted
    rates, real = (0.1, 0.6), 0.0099
    A = np.array([[exponential_rows(b, s, 0) for b in rates] for s in (-4.0, real * real)])
    c = np.linalg.solve(A, [-1.0, -1.0])
    K = kr.ExponentialMixture([(ci, b, 0.0) for ci, b in zip(c, rates)])
    res = located(K, real)
    assert all(matches(res, l, 1) for l in (-2.0, 2.0))


def test_thin_strip_past_a_flat_double_root_is_counted():
    # rates (0.1, 1.8, 3.5), double roots +-0.1i and a real pair +-0.0009:
    # once the pair is excluded, the strip 0.00045 passes so close to a flat
    # d that the count's noise reads 0.0013, a clean count all the same
    rates, real = (0.1, 1.8, 3.5), 0.0009
    conditions = [(-0.01, 0), (-0.01, 1), (real * real, 0)]
    A = np.array([[exponential_rows(b, s, q) for b in rates] for s, q in conditions])
    c = np.linalg.solve(A, [-1.0, 0.0, -1.0])
    K = kr.ExponentialMixture([(ci, b, 0.0) for ci, b in zip(c, rates)])
    res = sp.locate_roots(K)
    assert all(matches(res, l, 2) for l in (-0.1, 0.1)) and len(res.roots) == 2
    ex = sorted(res.diagnostics["excluded_offaxis"], key=lambda z: z.real)
    assert np.allclose(ex, [-real, real], rtol=0.0, atol=1e-8)
    assert res.strip == pytest.approx(0.5 * real)


def test_real_pair_next_to_the_axis_is_no_double_root_at_zero():
    # rates (0.1, 0.25), axis roots +-0.1i and a real pair +-0.0009: the
    # confirmation circle around 0 counts the pair as two roots, but
    # d(0) = 1.3e-5 is not zero, so the cluster is unconfirmed and the box
    # is split until the pair is located and excluded
    rates, real = (0.1, 0.25), 0.0009
    A = [[exponential_rows(b, s, 0) for b in rates] for s in (-0.01, real * real)]
    c = np.linalg.solve(A, [-1.0, -1.0])
    K = kr.ExponentialMixture([(ci, b, 0.0) for ci, b in zip(c, rates)])
    assert abs(sp.char_value(K, 0.0)) > 1e-5
    res = located(K, real)
    assert len(res.roots) == 2
    assert all(matches(res, l, 1) for l in (-0.1, 0.1))


# Two draws of 1,000-draw sweeps of the exponential property, pinned; each
# passes the draw's checks.


def well_posed(ok):
    assert ok


@pytest.mark.xfail(strict=True, reason="spurious unconfirmed cluster at 0: the box"
                   " Im in [-3.0e-4, 2.9e-4] (count 2, strip 0.54), and strip_shrinks 2")
def test_real_pair_near_the_axis_leaves_no_unconfirmed_cluster():
    # rates (0.6, 0.9, 1.3), double roots +-0.1i, real pair +-0.0054: the
    # roots come out right and the pair is excluded, but every box around
    # the pair has a Hankel rank that stays ambiguous down to the floor box,
    # whose cluster at 0 its circle cannot confirm, as d(0) is not zero
    real = 0.0054
    res = located(exponential_kernel((0.6, 0.9, 1.3), [(0.1, 2)], real, well_posed), real)
    assert all(matches(res, l, 2) for l in (-0.1, 0.1)) and len(res.roots) == 2


def test_thin_strip_places_the_double_root_within_the_oracle_tolerance():
    # rates (0.1, 0.9, 1.8, 2.5), double roots +-0.1i, simple roots +-0.6i,
    # real pair +-0.0009: the strip ends at 0.00045, and the double roots
    # come out 2.4e-9 off (once 1.2e-8).  Its unconfirmed clusters are the
    # near-axis finding above.
    real = 0.0009
    K = exponential_kernel((0.1, 0.9, 1.8, 2.5), [(0.1, 2), (0.6, 1)], real, well_posed)
    res = counted(K, real)
    assert res.strip == pytest.approx(0.5 * real)
    want = expected_roots([(0.1, 2), (0.6, 1)])
    assert len(res.roots) == len(want)
    assert all(matches(res, l, m) for l, m in want)
