"""Characteristic roots of det(I + Khat(nu)) and their Jordan chains.

The linear part of the equation acts on exp(nu x) through the matrix
symbol That(nu) = I + Khat(nu); bounded solutions on the line are governed
by the roots of d(nu) = det That(nu) inside the analyticity strip.  This
module

* computes the contour moments of a box,
      s_k = (1/(2 pi i)) contour_int ((nu - c)/R)^k d'(nu)/d(nu) dnu,
  with d'/d = tr(That^{-1} Khat'), by adaptive composite Gauss-Legendre
  quadrature, which controls its own error.  s_0 is the number of roots in
  the box, counted with multiplicity (the argument principle); a count is
  refused when s_0 is more than ``COUNT_TOL`` from an integer or its
  rounding noise exceeds ``COUNT_TOL``, as it does when a root lies on the
  contour.  The numerical rank of the Hankel matrix [s_{i+j}] is the
  number of distinct roots in the box (Delves and Lyness, Math. Comp. 21,
  1967; Kravanja and Van Barel, LNM 1727, 2000),
* reads one cluster off a rank-one box as the centroid c + R s_1/s_0, and
  several distinct roots with their multiplicities off a higher-rank box
  from the eigenvalues of the shifted Hankel pencil, bisecting a box in the
  imaginary direction only when its rank is ambiguous, and only at a cut
  that a thin box around it shows to be clear of roots,
* polishes every root by Newton's method on d^(alpha-1) and confirms its
  multiplicity alpha with s_0 of a small circle by the trapezoid rule,
* snaps near-axis roots onto the imaginary axis (recording the distance),
  symmetrizes conjugate pairs and, for a real kernel, puts a lone root
  near 0 at 0,
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
the same way, with one call for Khat and one for Khat'.  The moment
quadrature evaluates all the panels of one refinement level in one such
pair of calls, and a confirmation circle all its nodes.
"""

from math import comb, factorial

import numpy as np

from cmnl.kernel import real_kernel, spectral_norm, validate_decay
from cmnl.quasipoly import QuasiPolynomial


class ContourError(RuntimeError):
    """A contour ran too close to a root to count the roots inside reliably."""


COUNT_TOL = 1e-2  # largest distance of a root count s_0 from its integer, and its noise
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
CIRCLE_NODES = 48  # initial samples of a confirmation circle
DISC_NODES = 64  # trapezoid nodes of the Cauchy coefficients on a disc
NEWTON_ITERS = 5  # Newton steps of one root polish
PAIR_TOL = 1e-7  # relative distance of conjugate roots paired, and of a root from a cut
CHAIN_TOL = 1e-8  # null-space cutoff and residual scale of the Jordan chains

# The QUAD_NODES- and QUAD_NODES/2-point Gauss-Legendre rules on [-1, 1], as
# (nodes, weights), nodes falling from 1 to -1.  The numbers are the bits of
# Newton's method on the Legendre recurrence (tests/reference.py), whose
# nodes and weights are exactly mirror-symmetric; tabled, so that no
# process recomputes them.
_X16 = np.array([
    0.9894009349916499, 0.9445750230732326, 0.8656312023878318, 0.755404408355003,
    0.6178762444026438, 0.45801677765722737, 0.2816035507792589, 0.09501250983763744])
_W16 = np.array([
    0.027152459411754058, 0.062253523938647776, 0.0951585116824929, 0.12462897125553395,
    0.14959598881657682, 0.16915651939500256, 0.1826034150449236, 0.18945061045506847])
_X8 = np.array([0.9602898564975363, 0.7966664774136268, 0.525532409916329, 0.1834346424956498])
_W8 = np.array([0.10122853629037618, 0.22238103445337445, 0.3137066458778874, 0.362683783378362])
GAUSS_LEGENDRE_HI = (np.concatenate([_X16, -_X16[::-1]]), np.concatenate([_W16, _W16[::-1]]))
GAUSS_LEGENDRE_LO = (np.concatenate([_X8, -_X8[::-1]]), np.concatenate([_W8, _W8[::-1]]))


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
    return _scalar_or_array(_det(t_hat(K, nu)))


def _det(that):
    """det That at every point of a stack: for n = 1 the entry itself."""
    return that[..., 0, 0] if that.shape[-1] == 1 else np.linalg.det(that)


def _inverse(that):
    """That^{-1} at every point of a stack, raising ``ContourError`` where
    That is singular to rounding.  For n = 1 one division per point, an
    exactly zero entry being singular: on 1 x 1 matrices LAPACK's batched
    inverse costs some 60 times as much."""
    if that.shape[-1] == 1:
        if not that.all():
            raise ContourError("contour hits a root")
        return 1 / that
    try:
        return np.linalg.inv(that)
    except np.linalg.LinAlgError:
        raise ContourError("contour hits a root") from None


def _log_derivative(K, nu):
    """``(d'/d, noise, That)`` at every point of ``nu``, with
    d'/d = tr[(I + Khat)^{-1} Khat'] (valid away from roots).  ``noise`` is the
    first-order rounding error of d'/d: forming That = I + Khat costs about
    eps (1 + |Khat|), which That^{-1} amplifies.  It is large where |d| is
    small on a contour that passes near a multiple root.  A point where
    That is singular to rounding raises ``ContourError``."""
    khat = K.transform_batch(nu)
    that = khat + np.eye(K.n)
    inv = _inverse(that)
    quot = inv @ K.transform_batch(nu, 1)
    norm = np.linalg.norm
    amplification = 1 + (1 + norm(khat, axis=(-2, -1))) * norm(inv, axis=(-2, -1))
    noise = np.finfo(float).eps * norm(quot, axis=(-2, -1)) * amplification
    return np.trace(quot, axis1=-2, axis2=-1), noise, that


# -- contour moments ---------------------------------------------------------


def contour_moments(K, re0, re1, im0, im1):
    """``(count, s, noise, center, scale, panels)``: the number of roots in
    the rectangle, with multiplicity, and the scaled log-derivative moments
        s_k = (1/(2 pi i)) contour_int ((nu - center)/scale)^k d'(nu)/d(nu) dnu
    for k < 2 max(``count``, 1), with ``center`` its middle and ``scale`` its
    half-diagonal, so |(nu - center)/scale| <= 1 on it.  By the residue
    theorem s_k = sum_j m_j z_j^k over the distinct scaled roots z_j
    inside, with multiplicities m_j; ``count`` is s_0, rounded.

    Composite Gauss-Legendre on panels at most ``MAX_PANEL`` long: each
    panel is integrated with ``QUAD_NODES`` nodes and with half as many, and
    accepted when the two agree in s_0 and s_1 within its share (by length)
    of ``QUAD_TOL`` plus ``NOISE_FACTOR`` times its integrated rounding
    noise; the rest are halved.  (A real pair on a side, placed
    symmetrically about the middle of a panel, makes the integrand of s_0
    odd there, and both rules give its principal value; that of s_1 is
    not.)  All nodes of one level go to one batched evaluation.  The
    moments are then summed from the ``QUAD_NODES``-point rule on the
    accepted panels, level by level.  ``noise`` sums the noise allowance
    over the accepted panels (over 2 pi), ``panels`` counts them.

    Raises ``ContourError`` when the refinement exceeds ``QUAD_LEVELS``
    levels or ``QUAD_BUDGET`` points, and refuses the count when s_0 is
    more than ``COUNT_TOL`` from an integer or ``noise`` is above
    ``COUNT_TOL``.  A root on the contour makes d'/d singular there, and the
    quadrature converges only to its rounding noise; s_0 can then still
    read a clean integer, half of each root on the contour counted, so the
    noise decides.
    """
    center = 0.5 * complex(re0 + re1, im0 + im1)
    scale = 0.5 * abs(complex(re1 - re0, im1 - im0))
    corners = np.array([
        complex(re1, im0), complex(re1, im1), complex(re0, im1), complex(re0, im0)])
    a = np.concatenate([  # counter-clockwise panel starts
        p + np.linspace(0.0, 1.0, int(np.ceil(abs(q - p) / MAX_PANEL)), endpoint=False) * (q - p)
        for p, q in zip(corners, np.roll(corners, -1))
    ])
    b = np.roll(a, -1)
    share = 2 * np.pi * QUAD_TOL / np.abs(b - a).sum()
    (x_hi, w_hi), (x_lo, w_lo) = GAUSS_LEGENDRE_HI, GAUSS_LEGENDRE_LO
    nodes = np.concatenate([x_hi, x_lo])
    accepted = []  # (nodes, weighted d'/d) of the accepted panels, level by level
    s0 = 0.0
    noise = 0.0
    evals = 0
    for _ in range(QUAD_LEVELS):
        half = 0.5 * (b - a)
        z = 0.5 * (a + b)[:, None] + half[:, None] * nodes
        evals += z.size
        if evals > QUAD_BUDGET:
            raise ContourError("moment quadrature budget exhausted")
        f, eps, _ = _log_derivative(K, z)
        f = f * half[:, None]
        terms = f[..., None] * ((z - center) / scale)[..., None] ** np.arange(2)
        hi = np.einsum("pjk,j->pk", terms[:, :QUAD_NODES], w_hi)
        lo = np.einsum("pjk,j->pk", terms[:, QUAD_NODES:], w_lo)
        allowance = NOISE_FACTOR * np.abs(half) * (eps[:, :QUAD_NODES] @ w_hi)
        ok = np.abs(hi - lo).max(axis=1) <= share * np.abs(b - a) + allowance
        accepted.append((z[ok, :QUAD_NODES], f[ok, :QUAD_NODES]))
        s0 += hi[ok, 0].sum()
        noise += allowance[ok].sum()
        if ok.all():
            break
        a, b = a[~ok], b[~ok]
        m = 0.5 * (a + b)
        a, b = np.stack([a, m], -1).ravel(), np.stack([m, b], -1).ravel()
    else:
        raise ContourError("moment quadrature did not converge")
    s0, noise = s0 / (2j * np.pi), noise / (2 * np.pi)
    count = np.rint(s0.real)
    if not (abs(s0 - count) <= COUNT_TOL and noise <= COUNT_TOL):
        raise ContourError(f"count {s0:.6g} with noise {noise:.3g}; root near the contour")
    count = int(count)
    powers = np.arange(2 * max(count, 1))
    s = np.zeros(powers.size, dtype=complex)
    for z, f in accepted:
        terms = f[..., None] * ((z - center) / scale)[..., None] ** powers
        s += np.einsum("pjk,j->pk", terms, w_hi).sum(axis=0)
    panels = sum(len(f) for _, f in accepted)
    return count, s / (2j * np.pi), noise, center, scale, panels


# -- roots -------------------------------------------------------------------


class Root:
    """One characteristic root (cluster) on or near the imaginary axis.

    ``pair`` is the index of its conjugate partner in the root list, -1 if
    none."""

    def __init__(self, nu, multiplicity, snap_distance, pair=-1):
        self.nu, self.multiplicity = nu, multiplicity
        self.snap_distance, self.pair = snap_distance, pair

    def to_data(self):
        return {
            "nu": [self.nu.real, self.nu.imag],
            "multiplicity": self.multiplicity,
            "snap_distance": self.snap_distance,
        }


class SpectrumResult:
    """The roots of ``locate_roots``, its certified strip, window and
    diagnostics."""

    def __init__(self, roots, strip, window, diagnostics):
        self.roots, self.strip = roots, strip
        self.window, self.diagnostics = window, diagnostics

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


def _resolve_box(K, half, lo, hi, moments, eta):
    """``(record, roots, confirmed)`` for the box |Re nu| < half,
    lo < Im nu < hi, or None when it should be split.  ``moments`` are its
    ``contour_moments``, with the count cnt of its roots.

    The numerical rank r of the cnt x cnt Hankel matrix [s_{i+j}] is the
    number of distinct roots.  With r = 1 the box holds one cluster at the
    centroid s_1/s_0; with r > 1 the eigenvalues of the shifted pencil
    ([s_{i+j+1}], [s_{i+j}]), reduced to its leading r singular directions,
    are the roots, and the Vandermonde weights that reproduce s_0..s_{r-1}
    their multiplicities.  A singular value counts when it exceeds
    ``RANK_GAP`` times the noise floor (the larger of ``RANK_DROP`` of the
    largest and the quadrature noise) and is dropped below the floor itself.
    Each root is polished by Newton's method and confirmed by s_0 of a
    small circle, both on discs inside the strip |Re nu| < half, where the
    transform is known to exist.

    The box is split when a singular value lies between the two
    thresholds, when the roots or weights come out outside the box or off
    the integers, or when a root is not confirmed.  A box ``FLOOR`` high is
    not split: it is one cluster of all cnt roots, seeded at the centroid,
    and ``confirmed`` tells whether its circle saw them.  ``record`` is the
    box's entry in the diagnostics.
    """
    cnt, s, noise, center, scale, panels = moments
    final = hi - lo <= FLOOR
    rank, gap, seeds = _hankel_roots(s, noise, cnt)
    record = {"im": [lo, hi], "count": cnt, "rank": rank, "gap": gap, "panels": panels}
    if seeds is not None:
        seeds = [(center + scale * z, m) for z, m in seeds]
        if not all(abs(nu.real) < half and lo < nu.imag < hi for nu, _ in seeds):
            seeds = None
    if seeds is None:
        if not final:
            return None
        seeds = [(center + scale * s[1] / s[0], cnt)]
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


def _hankel_roots(s, noise, cnt):
    """``(rank, gap, roots)``: the numerical rank of the Hankel matrix, its
    first dropped singular value over the largest, and the distinct scaled
    roots with multiplicities, or None for ``roots`` when the rank is
    ambiguous or the weights are not positive integers summing to
    ``cnt``."""
    U, sigma, Vh = np.linalg.svd(_hankel(s, cnt, 0))
    floor = max(RANK_DROP * sigma[0], noise)
    r = int(np.count_nonzero(sigma > RANK_GAP * floor))
    gap = float(sigma[r] / sigma[0]) if r < cnt else 0.0
    if r == 0 or np.any((sigma > floor) & (sigma <= RANK_GAP * floor)):
        return r, gap, None
    if r == 1:
        return r, gap, [(s[1] / s[0], cnt)]
    pencil = (U[:, :r].conj().T @ _hankel(s, cnt, 1) @ Vh[:r].conj().T) / sigma[:r, None]
    z = np.linalg.eigvals(pencil)
    w = np.linalg.solve(z ** np.arange(r)[:, None], s[:r])
    mult = np.rint(w.real)
    if (mult < 1).any() or mult.sum() != cnt or np.abs(w - mult).max() > MULT_TOL:
        return r, gap, None
    return r, gap, [(z[j], int(mult[j])) for j in range(r)]


def _isolate(K, eta, lo, hi):
    """``(record, roots, confirmed)`` of every final box of the strip
    |Re nu| < eta (slightly inflated), lo < Im nu < hi, in increasing order
    (see ``_resolve_box``); ``roots`` lists the polished ``(nu,
    multiplicity)`` of the box.

    A box the moments do not resolve is bisected in the imaginary
    direction.  A root exactly on a contour line can yield a clean but wrong
    integer, so every cut must clear the roots (``_clear_cut``) and its
    children must sum to the parent, and the whole pass restarts with a
    different strip inflation when no cut validates.  One inflation is used
    consistently per pass so band counts are comparable.
    """
    for inflation in (0.011, 0.029, 0.053, 0.087):
        try:
            return _isolate_at(K, eta * (1 + inflation), lo, hi, eta)
        except ContourError:
            continue
    raise ContourError(f"cannot isolate root clusters in band [{lo}, {hi}]")


def _isolate_at(K, half, lo, hi, eta, moments=None):
    moments = moments or contour_moments(K, -half, half, lo, hi)
    if moments[0] == 0:
        return []
    box = _resolve_box(K, half, lo, hi, moments, eta)
    if box is not None:
        return [box]
    mid = 0.5 * (lo + hi)
    for shift in (0.0, 0.11, -0.17, 0.23, 0.31):
        m = mid + shift * (hi - lo)
        # Validate the cut cheaply before committing to either subtree, so
        # that a cut landing on or near a root is rejected without
        # recomputing whole subtrees.
        if not _clear_cut(K, half, m, PAIR_TOL * (hi - lo)):
            continue
        try:
            left = contour_moments(K, -half, half, lo, m)
            right = contour_moments(K, -half, half, m, hi)
        except ContourError:
            continue
        if left[0] + right[0] != moments[0]:
            continue
        try:
            return (_isolate_at(K, half, lo, m, eta, left)
                    + _isolate_at(K, half, m, hi, eta, right))
        except ContourError:
            continue
    raise ContourError(f"cannot split band [{lo}, {hi}] consistently")


def _clear_cut(K, half, m, gap):
    """True when no root lies within ``gap`` of the cut Im nu = m: the thin
    box |Re nu| < half, |Im nu - m| < gap counts none.

    A root on a cut lies on the contours of both boxes, and each may count
    half of it without a trace in the noise: the symmetric Gauss-Legendre
    rules agree on the principal value for an axis root in the middle of a
    panel, or a real pair placed symmetrically about it, and the halves of
    a double root or of a pair add up to a clean integer.  Such roots sit
    on the cut exactly: real roots of a real kernel on Im nu = 0, an axis
    root at the middle of a box.  The thin box's sides keep ``gap`` from
    them."""
    try:
        return contour_moments(K, -half, half, m - gap, m + gap)[0] == 0
    except ContourError:
        return False


def _choose_window(K, eta):
    sigmas = np.array([0.0, 0.5 * eta, eta, -0.5 * eta, -eta])
    for L in (4.0, 8.0, 16.0, 32.0, 64.0, 128.0):
        nus = sigmas[:, None] + 1j * np.linspace(L, 3 * L, 25)
        sup = spectral_norm(K.transform_batch(nus)).max()
        if sup < 0.5:
            return 2 * L
    raise RuntimeError("transform does not decay along the strip; no finite window")


def _confirm(K, nu, multiplicity, radius, limit):
    """True when a circle of about ``radius`` around ``nu`` holds exactly
    ``multiplicity`` roots and d(nu) vanishes within ``NOISE_FACTOR`` times
    its rounding noise eps (1 + max |d|).

    The count is s_0 of the circle by the trapezoid rule on its
    ``CIRCLE_NODES`` equispaced nodes.  It stands when it is within
    ``COUNT_TOL`` of an integer and the rule on the even nodes agrees with
    it within ``COUNT_TOL`` plus ``NOISE_FACTOR`` times the rounding noise
    of d'/d, which is large on a flat d; otherwise the circle runs too close
    to a root, and the radius grows.  The mean of d = det That over the
    same nodes is d(nu) by the trapezoid rule, so one circle costs the two
    transform calls of ``_log_derivative``.  The radius stays below
    ``limit``, the distance from ``nu`` to the edge of the strip the root
    was counted in."""
    radius = min(radius, 0.9 * limit)
    for _ in range(5):
        if not 0 < radius < limit:
            return False
        z = radius * np.exp(2j * np.pi * np.arange(CIRCLE_NODES) / CIRCLE_NODES)
        f, eps, that = _log_derivative(K, nu + z)
        s0, even = np.mean(f * z), np.mean(f[::2] * z[::2])
        allowance = NOISE_FACTOR * radius * eps.mean()
        count = np.rint(s0.real)
        if abs(s0 - count) <= COUNT_TOL and abs(s0 - even) <= COUNT_TOL + allowance:
            d = _det(that)
            noise = np.finfo(float).eps * (1 + np.abs(d).max())
            return count == multiplicity and abs(d.mean()) <= NOISE_FACTOR * noise
        radius *= 1.37
    return False


def _disc_derivatives(K, center, orders, radius):
    """``{order: (d^(order)(center), noise)}`` via Cauchy coefficients.

    Taylor coefficients are trapezoid averages of d on a circle of moderate
    radius, so the evaluation stays far from the cancellation floor that
    direct differencing hits next to a multiple root.  ``noise`` carries
    the rounding error eps (1 + |d|) of the values on the circle through
    the same average.
    """
    th = np.linspace(0.0, 2 * np.pi, DISC_NODES, endpoint=False)
    vals = char_value(K, center + radius * np.exp(1j * th))
    noise = np.finfo(float).eps * (1 + np.abs(vals).max())
    return {
        o: (
            factorial(o) * np.mean(vals * np.exp(-1j * o * th)) / radius**o,
            factorial(o) * noise / radius**o,
        )
        for o in orders
    }


def _newton_polish(K, nu, alpha, eta, half):
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
    for _ in range(NEWTON_ITERS):
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


def _axis_root(K, nu, alpha, eta, found):
    """True when the root ``nu`` of multiplicity ``alpha``, found off the
    axis, is the axis point i Im nu: no other found root is nearer to that
    point, and d^(alpha-1) vanishes there within ``NOISE_FACTOR`` times its
    rounding noise, the test at which ``_newton_polish`` stops."""
    axis = complex(0.0, nu.imag)
    if any(abs(o - axis) <= abs(nu.real) for o, _ in found if o != nu):
        return False
    radius = min(0.05, 0.45 * eta)
    g, noise = _disc_derivatives(K, axis, (alpha - 1,), radius)[alpha - 1]
    return abs(g) <= NOISE_FACTOR * noise


def locate_roots(K, tol_root=1e-9):
    """Find all characteristic roots in a certified strip around the axis.

    Returns a SpectrumResult whose ``strip`` is a half-width in which every
    root (with total multiplicity ``count``) lies on the imaginary axis; the
    strip is shrunk when genuinely off-axis roots are present.  Its
    ``diagnostics`` record every shrink: the off-axis roots excluded, the
    clusters no circle confirmed, the decay checks of the strip and the
    final boxes of the last pass (``_resolve_box``).
    """
    report = validate_decay(K)
    if not report.ok:
        raise RuntimeError(f"kernel decay validation failed: {report.checks}")
    eta = report.eta
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
        off = [nu for nu, m in found
               if abs(nu.real) > tol_root and not _axis_root(K, nu, m, eta, found)]
        if not off:
            roots = [
                Root(
                    nu=complex(0.0, nu.imag),
                    multiplicity=m,
                    snap_distance=abs(nu.real),
                )
                for nu, m in found
            ]
            _pair_conjugates(roots, real_kernel(K))
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


def _pair_conjugates(roots, real):
    """Pair each axis root with its conjugate, putting both exactly at
    +-i|Im nu|.  The roots of a ``real`` kernel are closed under
    conjugation, so a lone root within ``PAIR_TOL`` of 0 is put at 0."""
    for i, r in enumerate(roots):
        if r.pair >= 0:
            continue
        if abs(r.nu.imag) <= PAIR_TOL:
            if real:
                r.nu = 0j
            continue
        for j in range(i + 1, len(roots)):
            s = roots[j]
            if s.pair >= 0:
                continue
            if (
                abs(s.nu - np.conj(r.nu)) <= PAIR_TOL * (1 + abs(r.nu))
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


def jordan_chains(K, nu, multiplicity):
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
    U, s, Vh, keep, _ = _truncated_svd(T0, CHAIN_TOL)
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
        bound = 10 * CHAIN_TOL * (scale + np.linalg.norm(b))
        return np.linalg.norm(left.conj().T @ b) <= bound

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
        if np.linalg.norm(T0 @ e - b) > 10 * CHAIN_TOL * (scale + np.linalg.norm(b)):
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
    verify_chains(derivs, chains)
    return chains


def verify_chains(derivs, chains):
    """Check the chain conditions sum_q C(j,q) That^(q) e^{j-q} = 0."""
    scale = max(np.linalg.norm(derivs[0], 2), 1.0)
    for chain in chains:
        for j in range(len(chain)):
            resid = np.zeros_like(chain[0])
            for q in range(j + 1):
                resid = resid + comb(j, q) * (derivs[q] @ chain[j - q])
            if np.linalg.norm(resid) > 100 * CHAIN_TOL * scale:
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
