"""Characteristic roots and Jordan chains.

Oracles: kernels engineered so the root set is known in closed form
(gaussian symbols give d(nu) = 1 + c exp(nu^2/4) whose roots solve an
explicit equation), and the chain conditions are closed by verifying
T phi = 0 through the exact convolution — a route independent of the
linear-algebra used to build the chains.
"""

from math import comb

import numpy as np
import pytest

from conftest import build_front_jet
from conftest import critical_pair_kernel as conftest_pair_kernel
from conftest import simple_zero_kernel, two_exponential_kernel

from cmnl import kernel as kr
from cmnl import spectrum as sp
from cmnl.quasipoly import QuasiPolynomial


def scaled_gaussian(c):
    """K = c exp(-x^2), so Khat(nu) = c sqrt(pi) exp(nu^2/4)."""
    return kr.GaussianMixture.single(c, 1.0)


def double_root_at_zero():
    # Khat = -exp(nu^2/4): d = 1 - exp(nu^2/4), double root at 0.
    return scaled_gaussian(-1.0 / np.sqrt(np.pi))


def real_pair_kernel():
    # Khat = -exp((nu^2-1)/4): d has simple roots at nu = +-1 (real!).
    return scaled_gaussian(-np.exp(-0.25) / np.sqrt(np.pi))


def critical_pair_kernel():
    """Two-gaussian kernel with double roots at exactly +-i.

    Khat(i l) = -4/3 e^{(1-l^2)/4} + 1/3 e^{1-l^2} has value -1, slope 0 at
    l = 1, and stays above -1 elsewhere.
    """
    c1 = -(4.0 / 3.0) * np.exp(0.25) / np.sqrt(np.pi)
    c2 = np.exp(1.0) / (6.0 * np.sqrt(np.pi))
    return kr.GaussianMixture([(np.array([[[c1]]]), 1.0, 0.0), (np.array([[[c2]]]), 0.25, 0.0)])


def test_char_value_closed_form():
    K = double_root_at_zero()
    for nu in [0.3, 1j, 0.2 - 0.7j]:
        expected = 1 - np.exp(nu**2 / 4)
        assert abs(sp.char_value(K, nu) - expected) < 1e-13 * (1 + abs(expected))


def test_char_log_derivative():
    K = real_pair_kernel()
    nu = 0.4 + 0.2j
    h = 1e-6
    fd = (sp.char_value(K, nu + h) - sp.char_value(K, nu - h)) / (2 * h)
    ld = sp._log_derivative(K, nu)[0] * sp.char_value(K, nu)
    assert abs(fd - ld) < 1e-8


def test_winding_counts_known_roots():
    K = real_pair_kernel()
    f = lambda nu: sp.char_value(K, nu)
    assert sp.count_in_rectangle(K, 0.5, 1.5, -0.5, 0.5) == 1
    assert sp.count_in_rectangle(K, -1.5, 1.5, -0.5, 0.5) == 2
    assert sp.count_in_rectangle(K, -0.4, 0.4, -0.4, 0.4) == 0
    assert sp.count_on_circle(K, 1.0, 0.3) == 1


def test_winding_double_root():
    K = double_root_at_zero()
    assert sp.count_on_circle(K, 0.0, 0.5) == 2


def test_contour_through_root_raises():
    K = real_pair_kernel()
    with pytest.raises(sp.ContourError):
        sp.winding_number(
            lambda nu: sp.char_value(K, nu),
            [1.0 + 0j, 1.0 + 1j, 2.0 + 1j, 2.0 + 0j],  # corner hits the root
        )


def _recursive_winding(f, points, budget=20000):
    """Reference for ``winding_number``: depth-first bisection, one value of
    ``f`` per call.  Returns the winding, the points evaluated and the
    number of bisection levels that evaluated a midpoint."""
    evaluated = []
    levels = set()

    def ev(z, level=0):
        evaluated.append(z)
        levels.add(level)
        if len(evaluated) > budget:
            raise sp.ContourError("budget")
        v = f(z)
        if v == 0:
            raise sp.ContourError("root")
        return v

    def increment(z0, z1, v0, v1, depth):
        dphi = np.angle(v1 / v0)
        if abs(dphi) <= np.pi / 3 and abs(v1 - v0) <= 0.7 * max(abs(v0), abs(v1)):
            return dphi
        if depth >= 48:
            raise sp.ContourError("depth")
        zm = 0.5 * (z0 + z1)
        vm = ev(zm, depth + 1)
        return increment(z0, zm, v0, vm, depth + 1) + increment(
            zm, z1, vm, v1, depth + 1
        )

    vals = [ev(z) for z in points]
    m = len(points)
    total = 0.0
    for k in range(m):
        total += increment(points[k], points[(k + 1) % m], vals[k], vals[(k + 1) % m], 0)
    w = total / (2 * np.pi)
    assert abs(w - round(w)) <= 0.05
    return int(round(w)), evaluated, len(levels - {0})


def _circle(center, radius, nodes=48):
    return center + radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)


@pytest.mark.parametrize(
    "kernel, points, expected",
    [
        # simple root at 1 just inside / just outside the contour
        (real_pair_kernel, sp._rect_points(0.999, 1.5, -0.5, 0.5), 1),
        (real_pair_kernel, sp._rect_points(1.001, 1.5, -0.5, 0.5), 0),
        (real_pair_kernel, _circle(1.2, 0.2005), 1),
        # double root at 0 near the contour
        (double_root_at_zero, _circle(0.01, 0.0101), 2),
        (double_root_at_zero, _circle(0.01, 0.0099), 0),
        (double_root_at_zero, sp._rect_points(-0.5, -0.002, -0.5, 0.5), 0),
        (double_root_at_zero, sp._rect_points(-0.5, 0.002, -0.5, 0.5), 2),
    ],
)
def test_level_batched_winding_matches_recursion(kernel, points, expected):
    K = kernel()
    batches = []

    def batched(nus):
        batches.append(np.array(nus))
        return sp.char_value(K, nus)

    w = sp.winding_number(batched, points)
    w_ref, evaluated, levels = _recursive_winding(
        lambda nu: sp.char_value(K, nu), list(points)
    )
    assert w == w_ref == expected
    got = np.concatenate(batches)
    assert got.size == len(evaluated) > len(points)  # the contour was refined
    assert np.array_equal(np.sort_complex(got), np.sort_complex(np.array(evaluated)))
    # one call for the samples, then one per bisection level
    assert len(batches) == 1 + levels


def test_root_at_a_midpoint_raises():
    # the first bisection of the step 0 -> 0.5 lands on the zero of z - 0.25
    with pytest.raises(sp.ContourError, match="hits a root"):
        sp.winding_number(lambda z: z - 0.25, [0.0, 0.5, 0.5 + 0.5j, 0.5j])


def test_root_inside_a_step_hits_the_depth_cap():
    # the root at 1 lies on the step 0.7 -> 1.4 but at no dyadic point of it
    K = real_pair_kernel()
    with pytest.raises(sp.ContourError, match="too fast"):
        sp.winding_number(
            lambda nu: sp.char_value(K, nu), [0.7, 1.4, 1.4 + 1j, 0.7 + 1j]
        )


def test_refinement_budget_raises():
    K = real_pair_kernel()
    f = lambda nu: sp.char_value(K, nu)
    points = sp._rect_points(0.999, 1.5, -0.5, 0.5)
    _, evaluated, _ = _recursive_winding(f, list(points))
    assert sp.winding_number(f, points, budget=len(evaluated)) == 1
    with pytest.raises(sp.ContourError, match="budget"):
        sp.winding_number(f, points, budget=len(evaluated) - 1)
    with pytest.raises(sp.ContourError, match="budget"):
        sp.winding_number(f, points, budget=len(points) - 1)


def test_rectangle_samples_are_at_most_max_spacing_apart():
    pts = sp._rect_points(-1.0, 1.0, -16.0, 16.0)
    steps = np.abs(np.diff(np.append(pts, pts[0])))
    assert steps.max() <= sp.MAX_SPACING + 1e-12
    assert len(sp._rect_points(-0.1, 0.1, 0.0, 0.2)) == 48  # short sides keep 12


def test_locate_roots_makes_only_batched_transform_calls(monkeypatch):
    """Each contour of ``locate_roots`` costs one transform call, plus one per
    refinement level: 12 batched calls (3,245 points) on the conftest pair
    kernel, and no per-point call."""
    K = conftest_pair_kernel()
    counts = {"batch": 0, "scalar": 0}
    batch = kr.SumKernel.transform_batch

    def counted_batch(self, nus, order=0):
        counts["batch"] += 1
        return batch(self, nus, order)

    def forbidden_scalar(self, nu, order=0):
        counts["scalar"] += 1
        raise AssertionError("per-point transform inside locate_roots")

    monkeypatch.setattr(kr.SumKernel, "transform_batch", counted_batch)
    monkeypatch.setattr(kr.Kernel, "transform", forbidden_scalar)
    res = sp.locate_roots(K)
    assert res.total_multiplicity == 4
    assert counts["scalar"] == 0
    assert counts["batch"] <= 16


@pytest.mark.parametrize(
    "kernel, limit",
    [(conftest_pair_kernel, 30), (two_exponential_kernel, 45), (simple_zero_kernel, 16)],
)
def test_locate_roots_counts_few_rectangles(monkeypatch, kernel, limit):
    """A box whose contour moments resolve its roots is not split further:
    at most half the rectangle counts of bisecting every box to the 1e-3
    floor (61, 91 and 32 on these kernels)."""
    calls = []
    count = sp.count_in_rectangle

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return count(*args, **kwargs)

    monkeypatch.setattr(sp, "count_in_rectangle", counted)
    res = sp.locate_roots(kernel())
    assert res.roots
    assert len(calls) <= limit


def three_gaussian_kernel(d):
    """c1 e^{-x^2} + c2 e^{-x^2/4} + d e^{-16 x^2} with simple axis roots at
    +-0.3i and +-0.7i.

    On the axis nu = i l the transform is a function of s = nu^2 = -l^2:
    sqrt(pi) c1 e^{s/4} + 2 sqrt(pi) c2 e^{s} + d (sqrt(pi)/4) e^{s/64}, and
    (c1, c2) solve 1 + Khat = 0 at s = -0.09 and s = -0.49.
    """
    sp_ = np.sqrt(np.pi)
    s = np.array([-0.09, -0.49])
    A = np.column_stack([sp_ * np.exp(s / 4), 2 * sp_ * np.exp(s)])
    c1, c2 = np.linalg.solve(A, -1 - d * (sp_ / 4) * np.exp(s / 64))
    K = scaled_gaussian(c1) + kr.GaussianMixture.single(c2, 0.25)
    if d:
        K = K + kr.GaussianMixture.single(d, 16.0)
    return K


def assert_four_simple_roots(res):
    assert [r.multiplicity for r in res.roots] == [1, 1, 1, 1]
    ims = [r.nu.imag for r in res.roots]
    assert np.allclose(ims, [-0.7, -0.3, 0.3, 0.7], atol=1e-9)
    assert res.diagnostics["strip_shrinks"] == 0
    assert res.diagnostics["excluded_offaxis"] == []


@pytest.mark.parametrize("d, window", [(2.0, 16.0), (4.0, 32.0)])
def test_long_contour_sides_see_every_root(d, window):
    # with 12 samples per side of a 32-long rectangle, d looped around 0
    # between two samples of close value and the count came out 0
    K = three_gaussian_kernel(d)
    assert sp.count_in_rectangle(K, -1.011, 1.011, -window, window) == 4
    res = sp.locate_roots(K)
    assert res.window == window
    assert res.strip == 1.0
    assert_four_simple_roots(res)


def test_isolating_circle_leaves_neighbouring_clusters_out():
    # a circle of radius ~ strip around 0.3i took in +-0.7i and -0.3i, so
    # the strip was shrunk twice, to 0.25, with nothing off the axis
    res = sp.locate_roots(three_gaussian_kernel(0.0))
    assert res.strip == 1.0
    assert_four_simple_roots(res)


def test_isolating_circle_stays_inside_the_strip():
    # the growing circle used to leave |Re nu| < 1, where Khat has poles
    K = two_exponential_kernel()
    res = sp.locate_roots(K)
    assert res.strip == pytest.approx(0.9)
    assert_four_simple_roots(res)


def assert_pair_excluded(res, pair):
    """A real root pair in the first strip: both roots are located by the
    moments and excluded, so the strip shrinks with nothing unconfirmed."""
    assert res.roots == []
    assert res.diagnostics["strip_shrinks"] >= 1
    assert res.diagnostics["unconfirmed_clusters"] == []
    ex = sorted(res.diagnostics["excluded_offaxis"], key=lambda z: z.real)
    assert len(ex) == 2
    assert np.allclose(ex, [-pair, pair], rtol=0.0, atol=1e-8)


def test_growing_circle_stops_at_the_strip():
    # Khat = 2c/(1 - nu^2) has poles at +-1 and real roots at +-0.905, inside
    # the counted strip 0.9 * 1.011, 0.005 from its edge and 0.095 from the
    # poles.  Their centroid is on the axis, so they are found as two roots
    # of one box, not as one cluster.
    c = (0.905**2 - 1) / 2
    K = kr.ExponentialMixture([(c, 1.0, 0.0)])
    res = sp.locate_roots(K)
    assert res.strip < 0.905
    assert_pair_excluded(res, 0.905)


def test_offaxis_pair_polished_inside_a_narrow_strip():
    # The kernel above scaled to rate 0.1: real roots +-0.0905 and poles
    # +-0.1, with the counted strip 0.09 * 1.011 only 5e-4 past the roots.
    # Newton's disc and the confirmation circle must stay inside that strip,
    # since the transform does not exist beyond the poles.
    r = 0.0905
    K = kr.ExponentialMixture([((r**2 - 0.01) / 0.2, 0.1, 0.0)])
    res = sp.locate_roots(K)
    assert res.strip < r
    assert_pair_excluded(res, r)


def test_winding_steps_past_a_root_and_pole_pair():
    # sum_j c_j e^{-b_j |x|} with axis roots +-0.1i, +-0.25i, +-0.5i and a
    # real pair +-0.4, between the strip edge 0.546 and the pole at 0.6: on
    # some cuts a 0.25-long winding step passed root and pole together and
    # hid a whole loop of d, so no split of the strip validated and
    # root location failed.  The moment count catches the miss.
    rates = np.array([0.6, 0.9, 1.8, 3.5])
    s = np.array([-0.01, -0.0625, -0.25, 0.16])
    c = np.linalg.solve(2 * rates / (rates**2 - s[:, None]), -np.ones(4))
    K = kr.ExponentialMixture([(ci, b, 0.0) for ci, b in zip(c, rates)])
    res = sp.locate_roots(K)
    ims = [r.nu.imag for r in res.roots]
    assert np.allclose(ims, [-0.5, -0.25, -0.1, 0.1, 0.25, 0.5], atol=1e-8)
    assert [r.multiplicity for r in res.roots] == [1] * 6
    ex = sorted(res.diagnostics["excluded_offaxis"], key=lambda z: z.real)
    assert np.allclose(ex, [-0.4, 0.4], rtol=0.0, atol=1e-8)
    assert res.strip == pytest.approx(0.2)


def test_thin_strip_counts_stay_inside_the_winding_budget():
    # Rates 0.25 and 0.6 with axis roots +-0.1i and a real pair +-0.00225:
    # the strip shrinks to 0.001125, and samples half its width apart along
    # the window's 16-long sides would be about 28,000 points, more than a
    # winding count may evaluate, so every count raised and no band could
    # be isolated.
    rates = np.array([0.25, 0.6])
    s = np.array([-0.01, 0.00225**2])
    c = np.linalg.solve(2 * rates / (rates**2 - s[:, None]), -np.ones(2))
    K = kr.ExponentialMixture([(ci, b, 0.0) for ci, b in zip(c, rates)])
    res = sp.locate_roots(K)
    assert [r.multiplicity for r in res.roots] == [1, 1]
    assert np.allclose([r.nu.imag for r in res.roots], [-0.1, 0.1], atol=1e-8)
    ex = sorted(res.diagnostics["excluded_offaxis"], key=lambda z: z.real)
    assert np.allclose(ex, [-0.00225, 0.00225], rtol=0.0, atol=1e-8)
    assert res.strip == pytest.approx(0.001125)
    assert len(sp._rect_points(-res.strip, res.strip, -res.window, res.window,
                               spacing=res.strip)) > 20000  # the winding budget
    count = sp.count_in_rectangle(K, -res.strip, res.strip, -res.window, res.window)
    assert count == res.total_multiplicity


def test_newton_steps_stop_at_the_noise_of_a_flat_d():
    # Gaussian widths 0.2, 0.35, 0.6, 1 with amplitudes that put double
    # roots at +-0.1i and +-0.25i: |d| < 1e-6 on the whole disc |nu| < 0.3,
    # so Newton steps from the moment seeds were rounding noise of 1e-9 in
    # Re nu, the roots were excluded as off-axis and the strip shrank away.
    # The moment quadrature near such roots converges only to the rounding
    # noise of d'/d, which it must allow for, or every box is bisected to
    # the floor without moments.
    widths = np.array([0.2, 0.35, 0.6, 1.0])
    s = np.array([-0.01, -0.01, -0.0625, -0.0625])[:, None]
    order = np.array([0, 1, 0, 1])[:, None]
    A = np.sqrt(np.pi / widths) * np.exp(s / (4 * widths)) / (4 * widths) ** order
    c = np.linalg.solve(A, [-1.0, 0.0, -1.0, 0.0])
    K = kr.GaussianMixture([(np.array([[[ci]]]), a, 0.0) for ci, a in zip(c, widths)])
    assert abs(sp.char_value(K, 0.0)) < 1e-8
    res = sp.locate_roots(K)
    assert res.strip == 1.0
    assert res.diagnostics["strip_shrinks"] == 0
    assert [r.multiplicity for r in res.roots] == [2, 2, 2, 2]
    ims = [r.nu.imag for r in res.roots]
    assert np.allclose(ims, [-0.25, -0.1, 0.1, 0.25], atol=1e-7)
    assert all(box["rank"] == 2 for box in res.diagnostics["boxes"])


def test_locate_double_root_at_zero():
    K = double_root_at_zero()
    res = sp.locate_roots(K)
    assert len(res.roots) == 1
    r = res.roots[0]
    assert r.multiplicity == 2
    assert abs(r.nu) < 1e-10
    assert r.snap_distance < 1e-10
    assert res.total_multiplicity == 2


def test_locate_conjugate_pair():
    K = critical_pair_kernel()
    res = sp.locate_roots(K)
    assert res.total_multiplicity == 4
    ims = sorted(r.nu.imag for r in res.roots)
    assert np.allclose(ims, [-1.0, 1.0], atol=1e-9)
    assert all(r.multiplicity == 2 for r in res.roots)
    assert all(r.nu.real == 0.0 for r in res.roots)
    groups = res.pair_groups()
    assert len(groups) == 1
    plus, minus = groups[0]
    assert res.roots[plus].nu.imag > 0 > res.roots[minus].nu.imag
    # exact conjugate symmetrization
    assert res.roots[plus].nu == -res.roots[minus].nu


def test_offaxis_roots_shrink_strip():
    # Roots at nu = +-1 average onto the axis; they must shrink the strip
    # rather than be reported as a fake axis root.
    K = real_pair_kernel()
    res = sp.locate_roots(K)
    assert res.strip <= 0.51
    assert_pair_excluded(res, 1.0)


def test_isolated_offaxis_root_excluded():
    # Khat = -exp(nu^2/4 - nu/2 + 0.1275): simple real roots at 0.3 and 1.7;
    # only 0.3 is in the initial strip and must be excluded explicitly.
    c = -np.exp(0.1275) / np.sqrt(np.pi)
    K = kr.GaussianMixture.single(c, 1.0, b=0.5)
    assert abs(sp.char_value(K, 0.3)) < 1e-13
    res = sp.locate_roots(K)
    assert res.roots == []
    assert res.strip < 0.3
    ex = res.diagnostics["excluded_offaxis"]
    assert any(abs(z - 0.3) < 1e-8 for z in ex)


# -- Jordan chains ------------------------------------------------------------


def check_T_annihilates(K, nu, chains):
    for fn in [f for ch in chains for f in sp.chain_functions(nu, ch)]:
        resid = kr.apply_T(K, fn)
        assert resid.max_coeff() < 1e-7 * (1 + fn.max_coeff())


def test_scalar_double_root_chain():
    K = double_root_at_zero()
    chains = sp.jordan_chains(K, 0.0, 2)
    assert len(chains) == 1
    e0, e1 = chains[0]
    assert np.allclose(e0, [1.0])
    assert np.allclose(e1, [0.0])  # minimum-norm generalized vector
    fns = sp.chain_functions(0.0, chains[0])
    # phi_0 = 1, phi_1 = x
    assert np.allclose(fns[0].evaluate(0.7), [1.0])
    assert np.allclose(fns[1].evaluate(0.7), [0.7])
    check_T_annihilates(K, 0.0, chains)


def test_critical_pair_chains():
    K = critical_pair_kernel()
    chains = sp.jordan_chains(K, 1j, 2)
    assert len(chains) == 1 and len(chains[0]) == 2
    check_T_annihilates(K, 1j, chains)
    conj = sp.conjugate_chains(chains)
    check_T_annihilates(K, -1j, conj)


def test_matrix_length_four_chain():
    """K(x) = (N - I) e^{-x^2}/sqrt(pi), N the 2x2 nilpotent shift.

    Then That(nu) = (1-g) I + g N with g = exp(nu^2/4): det = (1-g)^2 has a
    multiplicity-4 root at 0 carried by a single chain, worked by hand:
    e0 = (1,0), e1 = 0, e2 = (0, 1/2), e3 = 0.
    """
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    C = (N - np.eye(2)) / np.sqrt(np.pi)
    K = kr.GaussianMixture([(C[None, :, :], 1.0, 0.0)], n=2)
    res = sp.locate_roots(K)
    assert res.total_multiplicity == 4
    assert len(res.roots) == 1 and res.roots[0].multiplicity == 4
    chains = sp.jordan_chains(K, 0.0, 4)
    assert len(chains) == 1
    e0, e1, e2, e3 = chains[0]
    assert np.allclose(e0, [1.0, 0.0], atol=1e-10)
    assert np.allclose(e1, [0.0, 0.0], atol=1e-10)
    assert np.allclose(e2, [0.0, 0.5], atol=1e-10)
    assert np.allclose(e3, [0.0, 0.0], atol=1e-10)
    check_T_annihilates(K, 0.0, chains)


def test_two_singleton_chains():
    # Diagonal kernel, each entry with a simple root at 0: two chains of length 1.
    a = -1.0 / np.sqrt(np.pi)
    coeffs = np.zeros((2, 2, 2))
    coeffs[0] = a * np.eye(2)
    coeffs[1] = np.diag([1.0, -0.7])
    K = kr.GaussianMixture([(coeffs, 1.0, 0.0)], n=2)
    chains = sp.jordan_chains(K, 0.0, 2)
    assert sorted(len(c) for c in chains) == [1, 1]
    heads = sorted(np.argmax(np.abs(c[0])) for c in chains)
    assert heads == [0, 1]
    check_T_annihilates(K, 0.0, chains)


def _reference_null_spaces(T0, tol):
    U, s, Vh = np.linalg.svd(T0)
    small = s < tol * max(s.max(initial=0.0), 1.0)
    return Vh[small].conj().T, U[:, small]


def _reference_min_norm_solve(T0, b, tol):
    U, s, Vh = np.linalg.svd(T0)
    keep = s >= tol * max(s.max(initial=0.0), 1.0)
    return Vh[keep].conj().T @ ((U[:, keep].conj().T @ b) / s[keep])


def reference_jordan_chains(K, nu, multiplicity, tol=1e-8):
    """``jordan_chains`` as it was with one SVD for the null spaces and one
    more per minimum-norm solve."""
    derivs = [sp.t_hat(K, nu, q) for q in range(multiplicity + 1)]
    T0 = derivs[0]
    right, left = _reference_null_spaces(T0, tol)
    r = right.shape[1]

    def rhs(chain, j):
        b = np.zeros(K.n, dtype=complex)
        for q in range(1, j + 1):
            b -= comb(j, q) * (derivs[q] @ chain[j - q])
        return b

    def solvable(b, scale):
        return np.linalg.norm(left.conj().T @ b) <= 10 * tol * (scale + np.linalg.norm(b))

    def extend(chain):
        j = len(chain)
        if j > multiplicity:
            return False
        b = rhs(chain, j)
        scale = max(np.linalg.norm(T0, 2), 1.0)
        if not solvable(b, scale):
            if j >= 2 and r > 0:
                A = j * (left.conj().T @ (derivs[1] @ right))
                z, *_ = np.linalg.lstsq(A, left.conj().T @ b, rcond=None)
                chain[j - 1] = chain[j - 1] + right @ z
                b = rhs(chain, j)
            if not solvable(b, scale):
                return False
        e = _reference_min_norm_solve(T0, b, tol)
        if np.linalg.norm(T0 @ e - b) > 10 * tol * (scale + np.linalg.norm(b)):
            return False
        chain.append(e)
        return True

    if r == 1 or r == multiplicity:
        seeds = [right[:, k] for k in range(r)]
    else:
        _, sw, Vwh = np.linalg.svd(left.conj().T @ (derivs[1] @ right))
        seeds = [right @ Vwh[k].conj() for k in np.argsort(sw)]
    chains = [[v] for v in seeds]
    remaining = multiplicity - len(chains)
    progress = True
    while remaining > 0 and progress:
        progress = False
        for chain in chains:
            if remaining == 0:
                break
            if extend(chain):
                remaining -= 1
                progress = True
    assert remaining == 0
    for chain in chains:
        head = chain[0]
        lead = head[np.argmax(np.abs(head) > 1e-8)]
        factor = 1.0 / (np.linalg.norm(head) * lead / abs(lead))
        for k in range(len(chain)):
            chain[k] = chain[k] * factor
    chains.sort(key=len, reverse=True)
    return chains


@pytest.mark.parametrize("case", ["pair+", "pair-", "simple-zero", "front"])
def test_jordan_chains_match_reference(case):
    # one SVD per root reads the same kernel, cokernel and truncated
    # solver as the separate null-space and minimum-norm SVDs did
    K, nu, mult = {
        "pair+": (conftest_pair_kernel(), 1j, 2),
        "pair-": (conftest_pair_kernel(), -1j, 2),
        "simple-zero": (simple_zero_kernel(), 0.0, 1),
        "front": (build_front_jet()[0], 0.0, 2),
    }[case]
    got = sp.jordan_chains(K, nu, mult)
    want = reference_jordan_chains(K, nu, mult)
    assert [len(c) for c in got] == [len(c) for c in want] == [mult]
    for chain, ref in zip(got, want):
        for e, e_ref in zip(chain, ref):
            assert np.array_equal(e, e_ref)


def test_chain_functions_shape():
    fns = sp.chain_functions(2j, [np.array([1.0]), np.array([0.5])])
    # phi_1 = (0.5 + x) e^{2ix}
    coeffs = fns[1].term_for(2j)
    assert np.allclose(coeffs[:, 0], [0.5, 1.0])
