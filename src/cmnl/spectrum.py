"""Characteristic roots of det(I + Khat(nu)) and their Jordan chains.

The linear part of the equation acts on exp(nu x) through the matrix
symbol That(nu) = I + Khat(nu); bounded solutions on the line are governed
by the roots of d(nu) = det That(nu) inside the analyticity strip.  This
module

* counts roots in rectangles by the argument principle with adaptive phase
  tracking along the contour (samples at most ``MAX_SPACING`` apart, then
  bisection of every step whose phase or value jumps),
* computes the contour moments of a box,
      s_k = (1/(2 pi i)) contour_int ((nu - c)/R)^k d'(nu)/d(nu) dnu,
  with d'/d = tr(That^{-1} Khat'), by adaptive composite Gauss-Legendre
  quadrature; s_0 cross-checks the winding count, and the numerical rank of
  the Hankel matrix [s_{i+j}] is the number of distinct roots in the box
  (Delves and Lyness, Math. Comp. 21, 1967; Kravanja and Van Barel, LNM
  1727, 2000),
* reads one cluster off a rank-one box as the centroid c + R s_1/s_0, and
  several distinct roots with their multiplicities off a higher-rank box
  from the eigenvalues of the shifted Hankel pencil, bisecting a box in the
  imaginary direction only when its rank is ambiguous or its quadrature
  fails,
* polishes every root by Newton's method on d^(alpha-1) and confirms its
  multiplicity alpha with a winding count on a small circle,
* snaps near-axis roots onto the imaginary axis (recording the distance) and
  symmetrizes conjugate pairs,
* certifies a strip holding only the axis roots (shrinking it when genuine
  off-axis roots appear), and
* computes Jordan chains e^0, ..., e^{p-1} per root from
      sum_{q<=j} C(j, q) That^(q)(nu0) e^{j-q} = 0,  j < p,
  by minimum-norm least squares, which keeps generalized vectors orthogonal
  to the geometric kernel.

A chain of length p spans the quasi-polynomial solutions
phi_p = sum_q C(p,q) x^q e^{p-q} exp(nu0 x) of T phi = 0; ``chain_functions``
builds them and the test-suite closes the loop by checking T phi = 0 through
the exact convolution.

Batch contract: ``t_hat`` and ``char_value`` take a scalar nu or an array
of any shape and evaluate every point through one ``Kernel.transform_batch``
call; a scalar gives a Python complex (an (n, n) matrix for ``t_hat``), an
array gives an array of its shape.  ``_log_derivative`` evaluates an array
the same way, with one call for Khat and one for Khat'.  Every contour
is sampled in one such call, and its adaptive refinement adds one call per
bisection level, holding the midpoints of all the steps that failed at that
level; the moment quadrature likewise evaluates all the panels of one level
together.  ``winding_number`` therefore takes an ``f`` that maps an array of
points to the array of values.
"""

from dataclasses import dataclass, field
from functools import cache
from math import comb, factorial

import numpy as np

from cmnl.kernel import validate_decay
from cmnl.quasipoly import QuasiPolynomial


class ContourError(RuntimeError):
    """A contour ran too close to a root to track the phase reliably."""


MAX_DEPTH = 48  # bisections of one contour step before a root is presumed on it
MAX_SPACING = 0.25  # largest distance between the initial samples of a side
WINDING_BUDGET = 20000  # points one winding count may evaluate
RECOUNT = 8  # a recount the moments disputed samples this many times as densely
QUAD_NODES = 16  # Gauss-Legendre nodes per moment panel
QUAD_TOL = 1e-10  # quadrature error allowed in each contour moment, above the noise
QUAD_LEVELS = 40  # halvings of one moment panel
QUAD_BUDGET = 20000  # moment quadrature points per rectangle
MAX_PANEL = 1.0  # longest initial moment panel
NOISE_FACTOR = 100.0  # safety factor on first-order rounding-noise estimates
RANK_DROP = 1e-11  # Hankel singular values below this share of the largest are noise
RANK_GAP = 1e3  # kept singular values exceed the noise floor by this factor
MULT_TOL = 0.01  # distance of a Vandermonde weight from its integer multiplicity
CONFIRM_RADIUS = 2e-3  # circle that confirms each root's multiplicity
FLOOR = 1e-3  # height below which a box is not bisected


def t_hat(K, nu, order=0):
    """That^(order)(nu): identity plus transform at order 0, else Khat^(order).

    ``nu`` is a scalar or an array; the result has shape ``nu.shape + (n, n)``.
    """
    val = K.transform_batch(nu, order)
    if order == 0:
        val += np.eye(K.n)
    return val


def _scalar_or_array(val):
    return complex(val) if val.ndim == 0 else val


def char_value(K, nu):
    """d(nu) = det(I + Khat(nu)) at a scalar or at every point of an array."""
    return _scalar_or_array(np.linalg.det(t_hat(K, nu)))


def _log_derivative(K, nu):
    """``(d'/d, noise)`` at every point of ``nu``, with
    d'/d = tr[(I + Khat)^{-1} Khat'] (valid away from roots).  ``noise`` is the
    first-order rounding error of d'/d: forming That = I + Khat costs about
    eps (1 + |Khat|), which That^{-1} amplifies.  It is large where |d| is
    small on a contour that passes near a multiple root."""
    khat = K.transform_batch(nu)
    inv = np.linalg.inv(khat + np.eye(K.n))
    quot = inv @ K.transform_batch(nu, 1)
    norm = np.linalg.norm
    amplification = 1 + (1 + norm(khat, axis=(-2, -1))) * norm(inv, axis=(-2, -1))
    noise = np.finfo(float).eps * norm(quot, axis=(-2, -1)) * amplification
    return np.trace(quot, axis1=-2, axis2=-1), noise


# -- winding numbers ----------------------------------------------------------


def winding_number(f, points, budget=WINDING_BUDGET):
    """Winding of f along the closed polyline ``points`` (adaptively refined).

    ``f`` maps an array of points to the array of its values.  A step is
    accepted only when the phase jump is small AND the value change is small
    relative to the endpoints; the second criterion catches fast 2-pi sweeps
    hiding between samples near small-|d| dips, where the wrapped phase jump
    alone would look innocent.  Every rejected step is bisected, one level
    at a time: all the midpoints of a level go to ``f`` in one call, and a
    bisected step's phase increment is its left half's plus its right
    half's.  The points evaluated and the sum are those of a depth-first
    recursion over the same steps.

    A root lying (numerically) on the contour is caught by the refinement
    depth cap: near a zero the relative value change between endpoints stays
    order one at every scale, so subdivision cannot terminate.  High-order
    roots near the contour produce legitimately tiny values, which is why no
    absolute smallness guard is applied.  ``budget`` caps the number of
    points evaluated, the initial ones included.
    """
    z0 = np.asarray(points, dtype=complex)
    evals = z0.size
    if evals > budget:
        raise ContourError("refinement budget exhausted; root near the contour")
    v0 = f(z0)
    if np.any(v0 == 0):
        raise ContourError("contour hits a root")
    z1, v1 = np.roll(z0, -1), np.roll(v0, -1)
    levels = []  # (phase jump, accepted) of every step, level by level
    for depth in range(MAX_DEPTH + 1):
        dphi = np.angle(v1 / v0)
        ok = (np.abs(dphi) <= np.pi / 3) & (
            np.abs(v1 - v0) <= 0.7 * np.maximum(np.abs(v0), np.abs(v1))
        )
        levels.append((dphi, ok))
        if ok.all():
            break
        if depth == MAX_DEPTH:
            raise ContourError("phase varies too fast; root on or near the contour")
        bad = ~ok
        a, b, va, vb = z0[bad], z1[bad], v0[bad], v1[bad]
        zm = 0.5 * (a + b)
        evals += zm.size
        if evals > budget:
            raise ContourError("refinement budget exhausted; root near the contour")
        vm = f(zm)
        if np.any(vm == 0):
            raise ContourError("contour hits a root")
        # the halves of each rejected step, in contour order: left, then right
        z0, z1 = np.stack([a, zm], -1).ravel(), np.stack([zm, b], -1).ravel()
        v0, v1 = np.stack([va, vm], -1).ravel(), np.stack([vm, vb], -1).ravel()
    inc = None
    for dphi, ok in reversed(levels):
        if inc is not None:
            dphi[~ok] = inc[0::2] + inc[1::2]
        inc = dphi
    w = np.cumsum(inc)[-1] / (2 * np.pi)  # in order, as a running sum
    if abs(w - round(w)) > 0.05:
        raise ContourError(f"winding {w:.4f} is not close to an integer")
    return int(round(w))


def _rect_points(re0, re1, im0, im1, per_side=12, spacing=MAX_SPACING):
    """Counter-clockwise samples: at least ``per_side`` on each side and at
    most ``spacing`` apart.

    The phase test of ``winding_number`` compares the two ends of a step
    only, so a loop of d around 0 between two far-apart samples with close
    values would go unseen; on a long side that is a real risk.
    """
    corners = np.array([
        complex(re1, im0),
        complex(re1, im1),
        complex(re0, im1),
        complex(re0, im0),
    ])
    sides = []
    for a, b in zip(corners, np.roll(corners, -1)):
        m = max(per_side, int(np.ceil(abs(b - a) / spacing)))
        sides.append(a + np.linspace(0.0, 1.0, m, endpoint=False) * (b - a))
    return np.concatenate(sides)


def count_in_rectangle(K, re0, re1, im0, im1, refine=1):
    """Number of characteristic roots (with multiplicity) in the open rectangle,
    sampled min(``MAX_SPACING``, half its width) apart, but at most
    ``WINDING_BUDGET / (2 RECOUNT)`` times on the perimeter; ``refine``
    divides that spacing, so a recount starts from at most half the budget."""
    width, perimeter = re1 - re0, 2 * ((re1 - re0) + (im1 - im0))
    spacing = min(MAX_SPACING, max(0.5 * width, 2 * RECOUNT * perimeter / WINDING_BUDGET))
    points = _rect_points(re0, re1, im0, im1, spacing=spacing / refine)
    return winding_number(lambda nu: char_value(K, nu), points)


def count_on_circle(K, center, radius, nodes=48):
    pts = center + radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    return winding_number(lambda nu: char_value(K, nu), pts)


@cache
def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]:
    Newton's method on the three-term recurrence of P_n, from the usual
    cosine guesses.  (An eigenvalue solver would map LAPACK code that
    nothing else in a run uses.)  Computed on first use, not at import."""
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1)
        x = x - p1 / dp
    return x, 2 / ((1 - x * x) * dp * dp)


def contour_moments(K, re0, re1, im0, im1, count):
    """``(s, noise, center, scale, panels)``: the scaled log-derivative moments
        s_k = (1/(2 pi i)) contour_int ((nu - center)/scale)^k d'(nu)/d(nu) dnu
    of the rectangle for k < 2 ``count``, with ``center`` its middle and
    ``scale`` its half-diagonal, so |(nu - center)/scale| <= 1 on it.  By the
    residue theorem s_k = sum_j m_j z_j^k over the distinct scaled roots z_j
    inside, with multiplicities m_j.

    Composite Gauss-Legendre: each panel is integrated with ``QUAD_NODES``
    nodes and with half as many, and accepted when the two agree in every
    moment within its share (by length) of ``QUAD_TOL`` plus
    ``NOISE_FACTOR`` times its integrated rounding noise; the rest are
    halved.  ``noise`` sums that noise allowance over the accepted panels,
    ``panels`` counts them.  All nodes of one level go to one batched
    evaluation.  Raises ``ContourError`` when the refinement exceeds
    ``QUAD_LEVELS`` levels or ``QUAD_BUDGET`` points.
    """
    center = 0.5 * complex(re0 + re1, im0 + im1)
    scale = 0.5 * abs(complex(re1 - re0, im1 - im0))
    a = _rect_points(re0, re1, im0, im1, per_side=1, spacing=MAX_PANEL)
    b = np.roll(a, -1)
    share = 2 * np.pi * QUAD_TOL / np.abs(b - a).sum()
    (x_hi, w_hi), (x_lo, w_lo) = _gauss_legendre(QUAD_NODES), _gauss_legendre(QUAD_NODES // 2)
    nodes = np.concatenate([x_hi, x_lo])
    powers = np.arange(2 * count)
    s = np.zeros(2 * count, dtype=complex)
    noise = 0.0
    panels = evals = 0
    for _ in range(QUAD_LEVELS):
        half = 0.5 * (b - a)
        z = 0.5 * (a + b)[:, None] + half[:, None] * nodes
        evals += z.size
        if evals > QUAD_BUDGET:
            raise ContourError("moment quadrature budget exhausted")
        f, eps = _log_derivative(K, z)
        f = f * half[:, None]
        terms = f[..., None] * ((z - center) / scale)[..., None] ** powers
        hi = np.einsum("pjk,j->pk", terms[:, :QUAD_NODES], w_hi)
        lo = np.einsum("pjk,j->pk", terms[:, QUAD_NODES:], w_lo)
        allowance = NOISE_FACTOR * np.abs(half) * (eps[:, :QUAD_NODES] @ w_hi)
        ok = np.abs(hi - lo).max(axis=1) <= share * np.abs(b - a) + allowance
        s += hi[ok].sum(axis=0)
        noise += allowance[ok].sum()
        panels += int(ok.sum())
        if ok.all():
            return s / (2j * np.pi), noise / (2 * np.pi), center, scale, panels
        a, b = a[~ok], b[~ok]
        m = 0.5 * (a + b)
        a, b = np.stack([a, m], -1).ravel(), np.stack([m, b], -1).ravel()
    raise ContourError("moment quadrature did not converge")


# -- roots -------------------------------------------------------------------


@dataclass
class Root:
    """One characteristic root (cluster) on or near the imaginary axis."""

    nu: complex
    multiplicity: int
    snap_distance: float = 0.0
    pair: int = -1  # index of the conjugate partner in the root list, -1 if none

    def to_data(self):
        return {
            "nu": [self.nu.real, self.nu.imag],
            "multiplicity": self.multiplicity,
            "snap_distance": self.snap_distance,
        }


@dataclass
class SpectrumResult:
    roots: list
    strip: float
    window: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def total_multiplicity(self):
        return sum(r.multiplicity for r in self.roots)

    def pair_groups(self):
        """Root indices grouped as conjugate pairs [i_plus, i_minus] or singletons.

        Groups are ordered by |Im nu| of the representative, axis singletons
        first; inside a pair the +Im member leads.
        """
        used = set()
        groups = []
        for i, r in enumerate(self.roots):
            if i in used:
                continue
            if r.pair >= 0:
                j = r.pair
                plus, minus = (i, j) if r.nu.imag >= 0 else (j, i)
                groups.append([plus, minus])
                used.update((i, j))
            else:
                groups.append([i])
                used.add(i)
        groups.sort(key=lambda g: (abs(self.roots[g[0]].nu.imag), self.roots[g[0]].nu.imag))
        return groups


def _hankel(s, m, shift):
    idx = np.arange(m)
    return s[idx[:, None] + idx + shift]


def _count_box(K, half, lo, hi):
    """``(count, moments)`` of the box |Re nu| < half, lo < Im nu < hi.

    The winding count is checked against s_0 of ``contour_moments``, whose
    quadrature controls its own error: a winding step longer than the
    distance to a nearby root and pole can hide a whole loop of d, and then
    the box is counted again on a contour sampled ``RECOUNT`` times as
    densely.
    ``moments`` is None when the quadrature fails or its s_0 is not an
    integer to 1e-6; the winding count then stands alone.
    """
    cnt = count_in_rectangle(K, -half, half, lo, hi)
    try:
        moments = contour_moments(K, -half, half, lo, hi, max(cnt, 1))
    except ContourError:
        return cnt, None
    s0 = moments[0][0]
    if abs(s0 - round(s0.real)) > 1e-6:
        return cnt, None
    if round(s0.real) != cnt:
        cnt = count_in_rectangle(K, -half, half, lo, hi, refine=RECOUNT)
        if cnt != round(s0.real):
            raise ContourError(f"winding count {cnt} but moment count {s0.real:.6g}")
        moments = contour_moments(K, -half, half, lo, hi, max(cnt, 1))
    return cnt, moments


def _resolve_box(K, half, lo, hi, cnt, moments, eta):
    """``(record, roots, confirmed)`` for the box |Re nu| < half,
    lo < Im nu < hi holding ``cnt`` roots, or None when it should be split.
    ``moments`` are those of ``_count_box``.

    The numerical rank r of the cnt x cnt Hankel matrix [s_{i+j}] is the
    number of distinct roots.  With r = 1 the box holds one cluster at the
    centroid s_1/s_0; with r > 1 the eigenvalues of the shifted pencil
    ([s_{i+j+1}], [s_{i+j}]), reduced to its leading r singular directions,
    are the roots, and the Vandermonde weights that reproduce s_0..s_{r-1}
    their multiplicities.  A singular value counts when it exceeds
    ``RANK_GAP`` times the noise floor (the larger of ``RANK_DROP`` of the
    largest and the quadrature noise) and is dropped below the floor itself.
    Each root is polished by Newton's method and confirmed by a winding
    count on a small circle, both on discs inside the strip |Re nu| < half,
    where the transform is known to exist.

    The box is split when it has no moments, when a singular value lies
    between the two thresholds, when the roots or weights come out outside
    the box or off the integers, or when a root is not confirmed.  A box
    ``FLOOR`` high is not split: it is one cluster of all ``cnt`` roots,
    seeded at the centroid (the box centre without moments), and
    ``confirmed`` tells whether its circle saw them.  ``record`` is the
    box's entry in the diagnostics.
    """
    final = hi - lo <= FLOOR
    record = {"im": [lo, hi], "count": cnt, "rank": None, "gap": None, "panels": 0}
    fallback = complex(0.0, 0.5 * (lo + hi))
    seeds = None
    if moments is not None:
        s, noise, center, scale, record["panels"] = moments
        fallback = center + scale * s[1] / s[0]
        seeds = _hankel_roots(s, noise, cnt, record)
        if seeds is not None:
            seeds = [(center + scale * z, m) for z, m in seeds]
            if not all(abs(nu.real) < half and lo < nu.imag < hi for nu, _ in seeds):
                seeds = None
    if seeds is None:
        if not final:
            return None
        seeds = [(fallback, cnt)]
    roots = [(complex(_newton_polish(K, nu, m, eta, half)), m) for nu, m in seeds]
    confirmed = all(
        _confirm(
            K, nu, m,
            min([CONFIRM_RADIUS] + [0.45 * abs(nu - o) for o, _ in roots if o != nu]),
            half - abs(nu.real),
        )
        for nu, m in roots
    )
    if not (confirmed or final):
        return None
    return record, sorted(roots, key=lambda r: (r[0].imag, r[0].real)), confirmed


def _hankel_roots(s, noise, cnt, record):
    """Distinct scaled roots with multiplicities from the moments, or None
    when the rank is ambiguous or the weights are not positive integers
    summing to ``cnt``.  Writes the rank and gap into ``record``."""
    U, sigma, Vh = np.linalg.svd(_hankel(s, cnt, 0))
    floor = max(RANK_DROP * sigma[0], noise)
    r = int(np.count_nonzero(sigma > RANK_GAP * floor))
    record["rank"] = r
    record["gap"] = float(sigma[r] / sigma[0]) if r < cnt else 0.0
    if r == 0 or np.any((sigma > floor) & (sigma <= RANK_GAP * floor)):
        return None
    if r == 1:
        return [(s[1] / s[0], cnt)]
    pencil = (U[:, :r].conj().T @ _hankel(s, cnt, 1) @ Vh[:r].conj().T) / sigma[:r, None]
    z = np.linalg.eigvals(pencil)
    w = np.linalg.solve(z ** np.arange(r)[:, None], s[:r])
    mult = np.rint(w.real)
    if (mult < 1).any() or mult.sum() != cnt or np.abs(w - mult).max() > MULT_TOL:
        return None
    return [(z[j], int(mult[j])) for j in range(r)]


def _isolate(K, eta, lo, hi):
    """``(record, roots, confirmed)`` of every final box of the strip
    |Re nu| < eta (slightly inflated), lo < Im nu < hi, in increasing order
    (see ``_resolve_box``); ``roots`` lists the polished ``(nu,
    multiplicity)`` of the box.

    A box the moments do not resolve is bisected in the imaginary
    direction.  A root exactly on a contour line can yield a clean but wrong
    integer, so every split is validated (children must sum to the parent)
    and the whole pass restarts with a different strip inflation when
    validation cannot be achieved.  One inflation is used consistently per
    pass so band counts are comparable.
    """
    for inflation in (0.011, 0.029, 0.053, 0.087):
        try:
            return _isolate_at(K, eta * (1 + inflation), lo, hi, eta)
        except ContourError:
            continue
    raise ContourError(f"cannot isolate root clusters in band [{lo}, {hi}]")


def _isolate_at(K, half, lo, hi, eta, counted=None):
    cnt, moments = counted or _count_box(K, half, lo, hi)
    if cnt == 0:
        return []
    box = _resolve_box(K, half, lo, hi, cnt, moments, eta)
    if box is not None:
        return [box]
    mid = 0.5 * (lo + hi)
    for shift in (0.0, 0.11, -0.17, 0.23, 0.31):
        m = mid + shift * (hi - lo)
        # Validate the cut cheaply (children must sum to the parent) before
        # committing to either subtree, so that a cut landing near a root is
        # rejected without recomputing whole subtrees.
        try:
            left = _count_box(K, half, lo, m)
            right = _count_box(K, half, m, hi)
        except ContourError:
            continue
        if left[0] + right[0] != cnt:
            continue
        try:
            return (_isolate_at(K, half, lo, m, eta, left)
                    + _isolate_at(K, half, m, hi, eta, right))
        except ContourError:
            continue
    raise ContourError(f"cannot split band [{lo}, {hi}] consistently")


def _choose_window(K, eta):
    sigmas = np.array([0.0, 0.5 * eta, eta, -0.5 * eta, -eta])
    for L in (4.0, 8.0, 16.0, 32.0, 64.0, 128.0):
        nus = sigmas[:, None] + 1j * np.linspace(L, 3 * L, 25)
        sup = np.linalg.norm(K.transform_batch(nus), 2, axis=(-2, -1)).max()
        if sup < 0.5:
            return 2 * L
    raise RuntimeError("transform does not decay along the strip; no finite window")


def _confirm(K, nu, multiplicity, radius, limit):
    """True when a circle of about ``radius`` around ``nu`` counts exactly
    ``multiplicity`` roots; the radius grows when the contour runs into a
    root.  The radius stays below ``limit``, the distance from ``nu`` to the
    edge of the strip the root was counted in."""
    radius = min(radius, 0.9 * limit)
    for _ in range(5):
        if not 0 < radius < limit:
            return False
        try:
            return count_on_circle(K, nu, radius) == multiplicity
        except ContourError:
            radius *= 1.37
    return False


def _disc_derivatives(K, center, orders, radius, nodes=64):
    """``{order: (d^(order)(center), noise)}`` via Cauchy coefficients.

    Taylor coefficients are trapezoid averages of d on a circle of moderate
    radius, so the evaluation stays far from the cancellation floor that
    direct differencing hits next to a multiple root.  ``noise`` carries
    the rounding error eps (1 + |d|) of the values on the circle through
    the same average.
    """
    th = np.linspace(0.0, 2 * np.pi, nodes, endpoint=False)
    vals = char_value(K, center + radius * np.exp(1j * th))
    noise = np.finfo(float).eps * (1 + np.abs(vals).max())
    return {
        o: (
            factorial(o) * np.mean(vals * np.exp(-1j * o * th)) / radius**o,
            factorial(o) * noise / radius**o,
        )
        for o in orders
    }


def _newton_polish(K, nu, alpha, eta, half, iters=5):
    """Refine a cluster centroid by Newton iteration on d^(alpha-1).

    A genuine multiplicity-``alpha`` root is a simple zero of d^(alpha-1), so
    this converges quadratically and reaches ~1e-12 even where d itself only
    determines the root to (machine eps)^(1/alpha).  For a cluster of nearby
    simple roots the zero of d^(alpha-1) is a stable representative point.
    Steps larger than the disc scale are rejected, and so are steps within
    ``NOISE_FACTOR`` times the rounding noise of d^(alpha-1): on a flat d
    they would only move an accurate moment seed by that noise.  The disc
    stays inside the strip |Re nu| < ``half`` the root was counted in, where
    the transform exists: near its edge the radius shrinks to 0.45 of the
    distance to it, and a seed on or beyond the edge is returned as it is.
    """
    for _ in range(iters):
        radius = min(0.05, 0.45 * eta, 0.45 * (half - abs(nu.real)))
        if radius <= 0:
            break
        d = _disc_derivatives(K, nu, (alpha - 1, alpha), radius)
        (g, noise), (gp, _) = d[alpha - 1], d[alpha]
        if gp == 0 or not (np.isfinite(gp.real) and np.isfinite(gp.imag)):
            break
        step = g / gp
        if abs(step) > radius or abs(g) <= NOISE_FACTOR * noise:
            break
        nu = nu - step
        if abs(step) < 1e-13:
            break
    return nu


def locate_roots(K, eta=None, window=None, tol_root=1e-9, pair_tol=1e-7):
    """Find all characteristic roots in a certified strip around the axis.

    Returns a SpectrumResult whose ``strip`` is a half-width in which every
    root (with total multiplicity ``count``) lies on the imaginary axis; the
    strip is shrunk when genuinely off-axis roots are present.  Its
    ``diagnostics`` record every shrink: the off-axis roots excluded, the
    clusters no circle confirmed, the decay checks of the strip and the
    final boxes of the last pass (``_resolve_box``).
    """
    report = validate_decay(K, eta=eta)
    if not report.ok:
        raise RuntimeError(f"kernel decay validation failed: {report.checks}")
    eta = report.eta
    if window is None:
        window = _choose_window(K, eta)
    excluded = []
    clusters = []
    shrinks = 0
    for _ in range(12):
        boxes = _isolate(K, eta, -window, window)
        unconfirmed = [record for record, _, confirmed in boxes if not confirmed]
        if unconfirmed:
            record = unconfirmed[0]
            clusters.append({"im": record["im"], "count": record["count"], "strip": eta})
            eta *= 0.5
            shrinks += 1
            if eta < 1e-6:
                raise RuntimeError("no certifiable strip: unresolved root clusters")
            continue
        found = [root for _, roots, _ in boxes for root in roots]
        off = [nu for nu, _ in found if abs(nu.real) > tol_root]
        if not off:
            roots = [
                Root(
                    nu=complex(0.0, nu.imag),
                    multiplicity=m,
                    snap_distance=abs(nu.real),
                )
                for nu, m in found
            ]
            _pair_conjugates(roots, pair_tol)
            roots.sort(key=lambda r: r.nu.imag)
            return SpectrumResult(
                roots=roots,
                strip=eta,
                window=window,
                diagnostics={
                    "excluded_offaxis": excluded,
                    "unconfirmed_clusters": clusters,
                    "strip_shrinks": shrinks,
                    "decay_checks": report.checks,
                    "boxes": [record for record, _, _ in boxes],
                },
            )
        excluded.extend(off)
        shrinks += 1
        eta = 0.5 * min(abs(nu.real) for nu in off)
        if eta < 1e-6:
            raise RuntimeError("no certifiable strip: roots accumulate at the axis")
    raise RuntimeError("strip certification did not converge")


def _pair_conjugates(roots, pair_tol):
    for i, r in enumerate(roots):
        if r.pair >= 0 or abs(r.nu.imag) <= pair_tol:
            continue
        for j in range(i + 1, len(roots)):
            s = roots[j]
            if s.pair >= 0:
                continue
            if (
                abs(s.nu - np.conj(r.nu)) <= pair_tol * (1 + abs(r.nu))
                and s.multiplicity == r.multiplicity
            ):
                im = 0.5 * (abs(r.nu.imag) + abs(s.nu.imag))
                sign = 1.0 if r.nu.imag > 0 else -1.0
                r.nu = complex(0.0, sign * im)
                s.nu = complex(0.0, -sign * im)
                r.pair, s.pair = j, i
                break


# -- Jordan chains ------------------------------------------------------------


def _truncated_svd(T0, tol):
    """``(U, s, Vh, keep, cutoff)``: the full SVD of T0 and the mask of the
    singular values at or above the cutoff ``tol * max(sigma_max, 1)``.

    With the kept values and vectors, ``V @ ((U^H @ b) / s)`` is the
    minimum-norm solution of ``T0 x = b``; the dropped columns of ``V`` and
    ``U`` span the kernel and the cokernel.
    """
    U, s, Vh = np.linalg.svd(T0)
    cutoff = tol * max(s.max(initial=0.0), 1.0)
    return U, s, Vh, s >= cutoff, float(cutoff)


def jordan_chains(K, nu, multiplicity, tol=1e-8):
    """Jordan chains at a characteristic root.

    Returns a list of chains, each a list [e^0, ..., e^{p-1}] of (n,) arrays
    with sum of lengths equal to ``multiplicity``.  e^0 has unit norm with a
    real positive leading entry; generalized vectors are the minimum-norm
    solutions, hence orthogonal to ker That(nu).
    """
    derivs = [t_hat(K, nu, q) for q in range(multiplicity + 1)]
    T0 = derivs[0]
    # One SVD gives ker T0, coker T0 and the solver of the chain equations.
    # The solver truncates at the null-space cutoff: a machine-precision one
    # (plain lstsq) would invert a numerically singular direction and return
    # a huge spurious component in the kernel's complement; truncating keeps
    # every generalized vector orthogonal to ker T0.
    U, s, Vh, keep, _ = _truncated_svd(T0, tol)
    right = Vh[~keep].conj().T  # columns span ker T0
    left = U[:, ~keep]  # columns span coker (left null space)
    Uh, s, V = U[:, keep].conj().T, s[keep], Vh[keep].conj().T
    r = right.shape[1]
    if r == 0:
        raise RuntimeError("no kernel at the root; multiplicity/count mismatch")

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
            # Use the kernel freedom in the previous vector: replacing
            # e^{j-1} by e^{j-1} + right z shifts b by -j That' right z.
            if j >= 2 and r > 0:
                A = j * (left.conj().T @ (derivs[1] @ right))
                target = left.conj().T @ b
                z, *_ = np.linalg.lstsq(A, target, rcond=None)
                chain[j - 1] = chain[j - 1] + right @ z
                b = rhs(chain, j)
            if not solvable(b, scale):
                return False
        e = V @ ((Uh @ b) / s)
        if np.linalg.norm(T0 @ e - b) > 10 * tol * (scale + np.linalg.norm(b)):
            return False
        chain.append(e)
        return True

    # Seed chains: kernel directions, rotated so extendable combinations come
    # first when the kernel is multidimensional.
    if r == 1 or r == multiplicity:
        seeds = [right[:, k] for k in range(r)]
    else:
        W = left.conj().T @ (derivs[1] @ right)
        _, sw, Vwh = np.linalg.svd(W)
        order = np.argsort(sw)  # smallest first: most extendable combos first
        seeds = [right @ Vwh[k].conj() for k in order]
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
    if remaining != 0:
        raise RuntimeError(
            f"Jordan chains cover {multiplicity - remaining} of {multiplicity}"
        )
    # Normalize: unit head with real positive leading entry; scale the whole
    # chain by the same factor so the chain conditions are preserved.
    for chain in chains:
        head = chain[0]
        lead = head[np.argmax(np.abs(head) > 1e-8)]
        factor = 1.0 / (np.linalg.norm(head) * lead / abs(lead))
        for k in range(len(chain)):
            chain[k] = chain[k] * factor
    chains.sort(key=len, reverse=True)
    verify_chains(derivs, chains, tol)
    return chains


def verify_chains(derivs, chains, tol=1e-8):
    """Check the chain conditions sum_q C(j,q) That^(q) e^{j-q} = 0."""
    scale = max(np.linalg.norm(derivs[0], 2), 1.0)
    for chain in chains:
        for j in range(len(chain)):
            resid = np.zeros_like(chain[0])
            for q in range(j + 1):
                resid = resid + comb(j, q) * (derivs[q] @ chain[j - q])
            if np.linalg.norm(resid) > 100 * tol * scale:
                raise RuntimeError(f"chain condition {j} violated: {resid}")


def chain_functions(nu, chain):
    """Quasi-polynomial solutions spanned by one chain.

    The p-th function is phi_p(x) = sum_q C(p,q) x^q e^{p-q} exp(nu x);
    phi_0 = e^0 exp(nu x), phi_1 = (e^1 + x e^0) exp(nu x), ...
    """
    n = chain[0].size
    out = []
    for p in range(len(chain)):
        coeffs = np.zeros((p + 1, n), dtype=complex)
        for q in range(p + 1):
            coeffs[q] = comb(p, q) * chain[p - q]
        out.append(QuasiPolynomial(n, [(nu, coeffs)]))
    return out


def conjugate_chains(chains):
    """Chains at the conjugate root of a real kernel: entrywise conjugates."""
    return [[np.conj(e) for e in chain] for chain in chains]
