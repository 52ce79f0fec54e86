"""Characteristic roots and Jordan chains.

Oracles: kernels engineered so the root set is known in closed form
(gaussian symbols give d(nu) = 1 + c exp(nu^2/4) whose roots solve an
explicit equation), and the chain conditions are closed by verifying
T phi = 0 through the exact convolution — a route independent of the
linear-algebra used to build the chains.
"""

import runpy
import warnings
from math import comb
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    build_front_jet, critical_pair_kernel, scaled_gaussian, simple_zero_kernel,
    two_exponential_kernel)
from reference import (
    add_kernels, circle, gauss_legendre, kernel_to_data, lapack_root_location, max_coeff,
    rectangle, term_for, winding_count)

from cmnl import kernel as kr
from cmnl import spectrum as sp
from cmnl.problem import load_problem


def double_root_at_zero():
    # Khat = -exp(nu^2/4): d = 1 - exp(nu^2/4), double root at 0.
    return scaled_gaussian(-1.0 / np.sqrt(np.pi))


def real_pair_kernel():
    # Khat = -exp((nu^2-1)/4): d has simple roots at nu = +-1 (real!).
    return scaled_gaussian(-np.exp(-0.25) / np.sqrt(np.pi))


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


@pytest.mark.parametrize("rule, n", [
    (sp.GAUSS_LEGENDRE_HI, sp.QUAD_NODES), (sp.GAUSS_LEGENDRE_LO, sp.QUAD_NODES // 2)])
def test_tabled_gauss_legendre_rules(rule, n):
    # the tables hold the bits of Newton's method, so the moments do not move
    nodes, weights = rule
    x, w = gauss_legendre(n)
    assert np.array_equal(nodes, x) and np.array_equal(weights, w)
    xl, wl = np.polynomial.legendre.leggauss(n)  # ascending nodes
    assert np.abs(nodes[::-1] - xl).max() <= 1e-15
    assert np.abs(weights[::-1] - wl).max() <= 1e-15


def moment_count(K, re0, re1, im0, im1):
    return sp.contour_moments(K, re0, re1, im0, im1)[0]


def test_winding_counts_known_roots():
    # the oracle and the moment count s_0 on boxes around the real roots +-1
    K = real_pair_kernel()
    for box, count in [((0.5, 1.5, -0.5, 0.5), 1), ((-1.5, 1.5, -0.5, 0.5), 2),
                       ((-0.4, 0.4, -0.4, 0.4), 0)]:
        assert winding_count(K, rectangle(*box)) == moment_count(K, *box) == count
    assert winding_count(K, circle(1.0, 0.3)) == 1
    assert sp._confirm(K, 1.0, 1, 0.3, 1.0)


def test_winding_double_root():
    K = double_root_at_zero()
    assert winding_count(K, circle(0.0, 0.5)) == 2
    assert sp._confirm(K, 0.0, 2, 0.5, 1.0)
    assert not sp._confirm(K, 0.0, 1, 0.5, 1.0)


def test_contour_through_root_raises():
    # the corner 1 of the box is the root: the quadrature sees the rounding
    # noise of d'/d next to it
    with pytest.raises(sp.ContourError, match="root near the contour"):
        moment_count(real_pair_kernel(), 1.0, 2.0, 0.0, 1.0)


def test_root_at_a_midpoint_raises():
    # the root 1 is the midpoint of the lower side, where the symmetric
    # Gauss-Legendre rules agree on the principal value: half the root
    with pytest.raises(sp.ContourError, match="count 0.5"):
        moment_count(real_pair_kernel(), 0.5, 1.5, 0.0, 1.0)


def test_scalar_that_exactly_zero_raises_without_a_warning():
    # Khat = -1 / (1 - nu^2): That(0) is exactly 0, and the scalar inverse
    # refuses that node before it divides
    K = kr.ExponentialMixture([(-0.5, 1.0, 0.0)])
    nodes = np.array([[0.5j, 0j, -0.5j]])
    assert sp.t_hat(K, nodes)[0, 1, 0, 0] == 0
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        with pytest.raises(sp.ContourError, match="contour hits a root"):
            sp._log_derivative(K, nodes)
        with lapack_root_location(), pytest.raises(sp.ContourError,
                                                   match="contour hits a root"):
            sp._log_derivative(K, nodes)


def seed_kernels(tmp_path):
    """The kernels of the seed-1 bench problems, each once."""
    root = Path(__file__).resolve().parents[1]
    paths = runpy.run_path(str(root / "bench" / "problems.py"))["write"](1, str(tmp_path))
    kernels = {}
    for path in paths.values():
        K = load_problem(path).kernel
        kernels.setdefault(repr(kernel_to_data(K)), K)
    return list(kernels.values())


def test_scalar_root_location_matches_the_lapack_path(tmp_path):
    # the roots, multiplicities, strip, window and decay checks of the
    # seed-1 kernels are those of LAPACK's inverse, determinant and SVD
    # 2-norm on 1 x 1 matrices; only the sub-noise snap distances and
    # Hankel gaps may move
    kernels = seed_kernels(tmp_path)
    assert len(kernels) == 4
    for K in kernels:
        assert K.n == 1
        res = sp.locate_roots(K)
        decay = kr.validate_decay(K)
        with lapack_root_location():
            ref = sp.locate_roots(K)
            ref_decay = kr.validate_decay(K)
        assert [(r.nu, r.multiplicity, r.pair) for r in res.roots] == [
            (r.nu, r.multiplicity, r.pair) for r in ref.roots]
        assert (res.strip, res.window) == (ref.strip, ref.window)
        assert decay.checks == ref_decay.checks
        for r, q in zip(res.roots, ref.roots):
            assert abs(r.snap_distance - q.snap_distance) <= 1e-15


def test_root_inside_a_side_raises():
    # the root 1 lies on the lower side 0.7 -> 1.4 but at no dyadic point of
    # it: the panels around it are halved until the rounding noise of d'/d
    # next to the root accepts them, and s_0 holds half the root
    with pytest.raises(sp.ContourError, match="count 0.5.* noise 0.07"):
        moment_count(real_pair_kernel(), 0.7, 1.4, 0.0, 1.0)


def _recursive_moments(K, re0, re1, im0, im1):
    """Reference for the level batching of ``contour_moments``: its panel
    rule, depth-first, one panel per evaluation.  Returns s_0, the points
    evaluated and the number of refinement levels that evaluated a panel."""
    center = 0.5 * complex(re0 + re1, im0 + im1)
    scale = 0.5 * abs(complex(re1 - re0, im1 - im0))
    corners = [complex(re1, im0), complex(re1, im1), complex(re0, im1), complex(re0, im0)]
    panels = []
    for p, q in zip(corners, corners[1:] + corners[:1]):
        n = int(np.ceil(abs(q - p) / sp.MAX_PANEL))
        panels += [(p + k / n * (q - p), p + (k + 1) / n * (q - p)) for k in range(n)]
    share = 2 * np.pi * sp.QUAD_TOL / sum(abs(b - a) for a, b in panels)
    (x_hi, w_hi), (x_lo, w_lo) = sp.GAUSS_LEGENDRE_HI, sp.GAUSS_LEGENDRE_LO
    evaluated, levels = [], set()

    def integrate(a, b, level):
        half = 0.5 * (b - a)
        z = 0.5 * (a + b) + half * np.concatenate([x_hi, x_lo])
        evaluated.append(z)
        levels.add(level)
        f, eps, _ = sp._log_derivative(K, z)
        f = f * half
        g = f * (z - center) / scale
        hi = np.array([f[:16] @ w_hi, g[:16] @ w_hi])
        lo = np.array([f[16:] @ w_lo, g[16:] @ w_lo])
        allowance = sp.NOISE_FACTOR * abs(half) * (eps[:16] @ w_hi)
        if np.abs(hi - lo).max() <= share * abs(b - a) + allowance:
            return hi[0]
        m = 0.5 * (a + b)
        return integrate(a, m, level + 1) + integrate(m, b, level + 1)

    s0 = sum(integrate(a, b, 0) for a, b in panels) / (2j * np.pi)
    return s0, np.concatenate(evaluated), len(levels)


@pytest.mark.parametrize(
    "kernel, points, expected",
    [
        # simple root at 1 just inside / just outside the contour
        (real_pair_kernel, (0.999, 1.5, -0.5, 0.5), 1),
        (real_pair_kernel, (1.001, 1.5, -0.5, 0.5), 0),
        (real_pair_kernel, (0.9995, 1.4, -0.2, 0.2), 1),
        # double root at 0 near the contour
        (double_root_at_zero, (-0.0001, 0.02, -0.01, 0.01), 2),
        (double_root_at_zero, (0.0001, 0.02, -0.01, 0.01), 0),
        (double_root_at_zero, (-0.5, -0.002, -0.5, 0.5), 0),
        (double_root_at_zero, (-0.5, 0.002, -0.5, 0.5), 2),
    ],
)
def test_level_batched_winding_matches_recursion(monkeypatch, kernel, points, expected):
    # s_0 is the winding number of d along the box
    K = kernel()
    s0, evaluated, levels = _recursive_moments(K, *points)
    batches = []
    log_derivative = sp._log_derivative

    def batched(K, nus):
        batches.append(nus.ravel())
        return log_derivative(K, nus)

    monkeypatch.setattr(sp, "_log_derivative", batched)
    count, s = sp.contour_moments(K, *points)[:2]
    assert count == round(s0.real) == expected
    assert abs(s[0] - s0) <= 1e-12
    got = np.concatenate(batches)
    assert got.size == evaluated.size
    assert np.array_equal(np.sort_complex(got), np.sort_complex(evaluated))
    # one evaluation per refinement level, and the contour was refined
    assert len(batches) == levels > 1


def test_refinement_budget_raises(monkeypatch):
    K = real_pair_kernel()
    box = (0.999, 1.5, -0.5, 0.5)
    _, evaluated, _ = _recursive_moments(K, *box)
    monkeypatch.setattr(sp, "QUAD_BUDGET", evaluated.size)
    assert sp.contour_moments(K, *box)[0] == 1
    monkeypatch.setattr(sp, "QUAD_BUDGET", evaluated.size - 1)
    with pytest.raises(sp.ContourError, match="budget"):
        sp.contour_moments(K, *box)


def test_rectangle_samples_are_at_most_max_spacing_apart(monkeypatch):
    # the first level's panels are at most MAX_PANEL long, so a long side
    # gets many: 32 on each side 32 long, 2 on each side 1.5 long
    levels = []
    log_derivative = sp._log_derivative

    def recorded(K, nus):
        levels.append(nus)
        return log_derivative(K, nus)

    monkeypatch.setattr(sp, "_log_derivative", recorded)
    sp.contour_moments(real_pair_kernel(), -0.75, 0.75, -16.0, 16.0)
    middles = levels[0].mean(axis=1)  # each panel's nodes are symmetric about its middle
    assert len(middles) == 68
    steps = np.abs(np.diff(np.append(middles, middles[0])))
    assert steps.max() <= sp.MAX_PANEL + 1e-12


def test_a_cut_through_an_axis_root_is_refused(monkeypatch):
    # The strip 1.011 has three panels on each cut, so the double root at 0
    # is the middle of one on the first cut, Im nu = 0: each half box read
    # the clean count 1, no circle confirmed a simple root at 0, and the
    # strip was halved.  Every box taller than 4 is split here.
    resolve = sp._resolve_box

    def split_tall(K, half, lo, hi, moments, eta):
        return None if hi - lo > 4 else resolve(K, half, lo, hi, moments, eta)

    monkeypatch.setattr(sp, "_resolve_box", split_tall)
    res = sp.locate_roots(double_root_at_zero())
    assert [(r.nu, r.multiplicity) for r in res.roots] == [(pytest.approx(0, abs=1e-12), 2)]
    assert res.strip == 1.0
    assert res.diagnostics["unconfirmed_clusters"] == []
    assert all(0.0 not in box["im"] for box in res.diagnostics["boxes"])


def test_locate_roots_makes_only_batched_transform_calls(monkeypatch):
    """Each level of a moment quadrature and each confirmation circle of
    ``locate_roots`` costs two transform calls, Khat and Khat': 12 batched
    calls of 3,169 points in all on the conftest pair kernel, and no
    per-point call."""
    K = critical_pair_kernel()
    counts = {"batch": 0, "points": 0, "scalar": 0}
    batch = kr.SumKernel.transform_batch

    def counted_batch(self, nus, order=0):
        counts["batch"] += 1
        counts["points"] += np.size(nus)
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
    assert counts["points"] <= 3169


@pytest.mark.parametrize(
    "kernel, limit",
    [(critical_pair_kernel, 30), (two_exponential_kernel, 45), (simple_zero_kernel, 16)],
)
def test_locate_roots_counts_few_rectangles(monkeypatch, kernel, limit):
    """A box whose contour moments resolve its roots is not split further:
    at most half the rectangle counts of bisecting every box to the 1e-3
    floor (61, 91 and 32 on these kernels)."""
    calls = []
    moments = sp.contour_moments

    def counted(*args):
        calls.append(args[1:])
        return moments(*args)

    monkeypatch.setattr(sp, "contour_moments", counted)
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
    K = add_kernels(scaled_gaussian(c1), kr.GaussianMixture.single(c2, 0.25))
    if d:
        K = add_kernels(K, kr.GaussianMixture.single(d, 16.0))
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
    assert winding_count(K, rectangle(-1.011, 1.011, -window, window)) == 4
    assert moment_count(K, -1.011, 1.011, -window, window) == 4
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


def test_thin_strip_is_counted_along_its_whole_window():
    # Rates 0.25 and 0.6 with axis roots +-0.1i and a real pair +-0.00225:
    # the strip shrinks to 0.001125.  A winding count sampled half its width
    # apart along the window's 16-long sides needed about 28,000 points,
    # more than it was allowed, so every count raised and no band could be
    # isolated.  The moment count of that box takes 6,576 points, and the
    # oracle, sampling finer still, agrees with it.
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
    box = (-res.strip, res.strip, -res.window, res.window)
    assert winding_count(K, rectangle(*box)) == moment_count(K, *box) == res.total_multiplicity


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


def gaussian_double_pair_and_real_pair():
    # widths 0.2, 0.35, 3 with double roots +-0.1i and a real pair +-0.35
    widths = np.array([0.2, 0.35, 3.0])
    s = np.array([-0.01, -0.01, 0.35**2])[:, None]
    order = np.array([0, 1, 0])[:, None]
    A = np.sqrt(np.pi / widths) * np.exp(s / (4 * widths)) / (4 * widths) ** order
    c = np.linalg.solve(A, [-1.0, 0.0, -1.0])
    return kr.GaussianMixture([(np.array([[[ci]]]), a, 0.0) for ci, a in zip(c, widths)])


def exponential_double_zero_and_real_pair():
    # rates 0.6, 0.9 with a double root at 0 and a real pair +-0.3
    rates = np.array([0.6, 0.9])
    c = np.linalg.solve([2 / rates, 2 * rates / (rates**2 - 0.09)], [-1.0, -1.0])
    return kr.ExponentialMixture([(ci, b, 0.0) for ci, b in zip(c, rates)])


@pytest.mark.parametrize("kernel, axis, pair", [
    (gaussian_double_pair_and_real_pair, [-0.1j, 0.1j], 0.35),
    (exponential_double_zero_and_real_pair, [0j], 0.3),
], ids=["gaussian-pair", "exponential-zero"])
def test_double_roots_found_near_the_axis(kernel, axis, pair):
    # In the first strip the double roots +-0.1i come out about 2e-9 off the
    # axis, where d' vanishes at i Im nu within its rounding noise: they are
    # axis roots, which once counted as off-axis and shrank the strip below
    # its floor.  d also vanishes at i Im nu = 0 for the real pair +-0.3, but
    # the root at 0 is nearer to that point, so the pair stays off-axis.
    res = sp.locate_roots(kernel())
    assert [r.nu for r in res.roots] == pytest.approx(axis, abs=1e-9)
    assert [r.multiplicity for r in res.roots] == [2] * len(axis)
    assert res.strip == pytest.approx(0.5 * pair)
    ex = sorted(res.diagnostics["excluded_offaxis"], key=lambda z: z.real)
    assert np.allclose(ex, [-pair, pair], rtol=0.0, atol=1e-8)


def test_locate_double_root_at_zero():
    K = double_root_at_zero()
    res = sp.locate_roots(K)
    assert len(res.roots) == 1
    r = res.roots[0]
    assert r.multiplicity == 2
    assert abs(r.nu) < 1e-10
    assert r.snap_distance < 1e-10
    assert res.total_multiplicity == 2


@pytest.mark.parametrize("kernel", [double_root_at_zero, simple_zero_kernel])
def test_lone_root_of_a_real_kernel_is_put_at_zero(kernel):
    # the roots of a real kernel come in conjugate pairs, so a root near 0
    # with no partner is 0; Newton left it a rounding error off
    (root,) = sp.locate_roots(kernel()).roots
    assert root.nu == 0 and not np.signbit(root.nu.imag)


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
        assert max_coeff(resid) < 1e-7 * (1 + max_coeff(fn))


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
        "pair+": (critical_pair_kernel(), 1j, 2),
        "pair-": (critical_pair_kernel(), -1j, 2),
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
    coeffs = term_for(fns[1], 2j)
    assert np.allclose(coeffs[:, 0], [0.5, 1.0])
