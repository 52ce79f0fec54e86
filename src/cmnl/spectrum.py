"""Characteristic roots of det(I + Khat(nu)) and their Jordan chains.

The linear part of the equation acts on exp(nu x) through the matrix
symbol That(nu) = I + Khat(nu); bounded solutions on the line are governed
by the roots of d(nu) = det That(nu) inside the analyticity strip.  This
module

* counts roots in rectangles by the argument principle with adaptive phase
  tracking along the contour (samples at most ``MAX_SPACING`` apart, then
  bisection of every step whose phase or value jumps),
* isolates clusters by bisection in the imaginary direction and refines each
  to machine precision with the log-derivative centroid
      nu* = (1/(2 pi i alpha)) contour_int nu d'(nu)/d(nu) dnu,
  using d'/d = tr(That^{-1} Khat'),
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

Batch contract: ``t_hat``, ``char_value`` and ``char_log_derivative`` take a
scalar nu or an array of any shape and evaluate every point through one
``Kernel.transform_batch`` call; a scalar gives a Python complex (an (n, n)
matrix for ``t_hat``), an array gives an array of its shape.  Every contour
is sampled in one such call, and its adaptive refinement adds one call per
bisection level, holding the midpoints of all the steps that failed at that
level.  ``winding_number`` therefore takes an ``f`` that maps an array of
points to the array of values.
"""

from dataclasses import dataclass, field
from math import comb, factorial

import numpy as np

from cmnl.kernel import validate_decay
from cmnl.quasipoly import QuasiPolynomial


class ContourError(RuntimeError):
    """A contour ran too close to a root to track the phase reliably."""


MAX_DEPTH = 48  # bisections of one contour step before a root is presumed on it
MAX_SPACING = 0.25  # largest distance between the initial samples of a side


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


def char_log_derivative(K, nu):
    """d'(nu)/d(nu) = tr[(I + Khat)^{-1} Khat'] (valid away from roots), at a
    scalar or at every point of an array."""
    quot = np.linalg.solve(t_hat(K, nu), K.transform_batch(nu, 1))
    return _scalar_or_array(np.trace(quot, axis1=-2, axis2=-1))


# -- winding numbers ----------------------------------------------------------


def winding_number(f, points, budget=20000):
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


def _rect_points(re0, re1, im0, im1, per_side=12):
    """Counter-clockwise samples: at least ``per_side`` on each side and at
    most ``MAX_SPACING`` apart.

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
        m = max(per_side, int(np.ceil(abs(b - a) / MAX_SPACING)))
        sides.append(a + np.linspace(0.0, 1.0, m, endpoint=False) * (b - a))
    return np.concatenate(sides)


def count_in_rectangle(K, re0, re1, im0, im1):
    """Number of characteristic roots (with multiplicity) in the open rectangle."""
    return winding_number(lambda nu: char_value(K, nu), _rect_points(re0, re1, im0, im1))


def count_on_circle(K, center, radius, nodes=48):
    pts = center + radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    return winding_number(lambda nu: char_value(K, nu), pts)


def _cluster_centroid(K, center, radius, multiplicity, nodes=64):
    theta = 2 * np.pi * np.arange(nodes) / nodes
    zs = center + radius * np.exp(1j * theta)
    vals = char_log_derivative(K, zs)
    integrand = zs * vals * (1j * radius * np.exp(1j * theta))
    integral = integrand.sum() * (2 * np.pi / nodes)
    return integral / (2j * np.pi * multiplicity)


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

    def to_data(self):
        return {
            "strip": self.strip,
            "window": self.window,
            "count": self.total_multiplicity,
            "roots": [r.to_data() for r in self.roots],
        }


def _subdivide(K, eta, lo, hi, floor):
    """Return ``(boxes, half_width)``: (lo, hi, count) boxes in increasing
    order, each holding one root cluster of the strip |Re nu| < half_width.

    A root exactly on a contour line can yield a clean but wrong integer, so
    every split is validated (children must sum to the parent) and the whole
    pass restarts with a different strip inflation when validation cannot be
    achieved.  One inflation is used consistently per pass so band counts are
    comparable.
    """
    for inflation in (0.011, 0.029, 0.053, 0.087):
        try:
            eta_eff = eta * (1 + inflation)
            return _subdivide_at(K, eta_eff, lo, hi, floor), eta_eff
        except ContourError:
            continue
    raise ContourError(f"cannot isolate root clusters in band [{lo}, {hi}]")


def _subdivide_at(K, eta_eff, lo, hi, floor, cnt=None):
    if cnt is None:
        cnt = count_in_rectangle(K, -eta_eff, eta_eff, lo, hi)
    if cnt == 0:
        return []
    if hi - lo <= floor:
        return [(lo, hi, cnt)]
    mid = 0.5 * (lo + hi)
    for shift in (0.0, 0.11, -0.17, 0.23, 0.31):
        m = mid + shift * (hi - lo)
        # Validate the cut cheaply (children must sum to the parent) before
        # committing to either subtree, so that a cut landing near a root is
        # rejected without recomputing whole subtrees.
        try:
            cl = count_in_rectangle(K, -eta_eff, eta_eff, lo, m)
            cr = count_in_rectangle(K, -eta_eff, eta_eff, m, hi)
        except ContourError:
            continue
        if cl + cr != cnt:
            continue
        try:
            left = _subdivide_at(K, eta_eff, lo, m, floor, cl)
            right = _subdivide_at(K, eta_eff, m, hi, floor, cr)
        except ContourError:
            continue
        return left + right
    raise ContourError(f"cannot split band [{lo}, {hi}] consistently")


def _choose_window(K, eta):
    sigmas = np.array([0.0, 0.5 * eta, eta, -0.5 * eta, -eta])
    for L in (4.0, 8.0, 16.0, 32.0, 64.0, 128.0):
        nus = sigmas[:, None] + 1j * np.linspace(L, 3 * L, 25)
        sup = np.linalg.norm(K.transform_batch(nus), 2, axis=(-2, -1)).max()
        if sup < 0.5:
            return 2 * L
    raise RuntimeError("transform does not decay along the strip; no finite window")


def _circle_limits(boxes, half_width):
    """The largest isolating-circle radius for each box.

    A circle centred in a box stays inside the strip the boxes were counted
    in, where the transform exists, and within 3/4 of the way to the nearest
    other box, so it can take in no root of a neighbouring cluster.
    """
    limits = []
    for k, (lo, hi, _) in enumerate(boxes):
        center = 0.5 * (lo + hi)
        room = np.inf
        if k > 0:
            room = center - boxes[k - 1][1]
        if k + 1 < len(boxes):
            room = min(room, boxes[k + 1][0] - center)
        limits.append(min(half_width, 0.75 * room))
    return limits


def _refine_cluster(K, lo, hi, cnt, eta, limit):
    """Refine one cluster to (centroid, confirmed).

    The isolating circle starts just wider than the strip and grows, up to
    ``limit``, until it counts ``cnt`` roots.  ``confirmed`` means a small
    circle around the centroid still sees all ``cnt`` roots; a symmetric
    off-axis pair averaging onto the axis, or a cluster no circle within
    ``limit`` isolates, fails this and triggers strip shrinking in the
    caller.
    """
    center = complex(0.0, 0.5 * (lo + hi))
    radius = min(max(0.75 * (hi - lo), 1e-3) + eta, limit)
    for _ in range(6):
        try:
            if count_on_circle(K, center, radius) == cnt:
                break
        except ContourError:
            pass
        if radius >= limit:
            break
        radius = min(radius * 1.31, limit)
    nu = center
    for _ in range(4):
        nu = _cluster_centroid(K, center, radius, cnt)
        center, radius = nu, max(radius / 8, 5e-4)
    nu = _newton_polish(K, nu, cnt, eta)
    confirm_r = 2e-3
    confirmed = False
    for _ in range(5):
        try:
            confirmed = count_on_circle(K, nu, confirm_r) == cnt
            break
        except ContourError:
            confirm_r *= 1.37
    return nu, confirmed


def _disc_derivatives(K, center, orders, radius, nodes=64):
    """d^(order)(center) for each requested order, via Cauchy coefficients.

    Taylor coefficients are trapezoid averages of d on a circle of moderate
    radius, so the evaluation stays far from the cancellation floor that
    direct differencing hits next to a multiple root.
    """
    th = np.linspace(0.0, 2 * np.pi, nodes, endpoint=False)
    vals = char_value(K, center + radius * np.exp(1j * th))
    return {
        o: factorial(o) * np.mean(vals * np.exp(-1j * o * th)) / radius**o
        for o in orders
    }


def _newton_polish(K, nu, alpha, eta, iters=5):
    """Refine a cluster centroid by Newton iteration on d^(alpha-1).

    A genuine multiplicity-``alpha`` root is a simple zero of d^(alpha-1), so
    this converges quadratically and reaches ~1e-12 even where d itself only
    determines the root to (machine eps)^(1/alpha).  For a cluster of nearby
    simple roots the zero of d^(alpha-1) is a stable representative point.
    Steps larger than the disc scale are rejected.
    """
    radius = min(0.05, 0.45 * eta)
    for _ in range(iters):
        d = _disc_derivatives(K, nu, (alpha - 1, alpha), radius)
        g, gp = d[alpha - 1], d[alpha]
        if gp == 0 or not (np.isfinite(gp.real) and np.isfinite(gp.imag)):
            break
        step = g / gp
        if abs(step) > radius:
            break
        nu = nu - step
        if abs(step) < 1e-13:
            break
    return nu


def locate_roots(K, eta=None, window=None, tol_root=1e-9, pair_tol=1e-7):
    """Find all characteristic roots in a certified strip around the axis.

    Returns a SpectrumResult whose ``strip`` is a half-width in which every
    root (with total multiplicity ``count``) lies on the imaginary axis; the
    strip is shrunk when genuinely off-axis roots are present.
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
        boxes, half_width = _subdivide(K, eta, -window, window, floor=1e-3)
        candidates = []
        unconfirmed = False
        for (lo, hi, cnt), limit in zip(boxes, _circle_limits(boxes, half_width)):
            nu, ok = _refine_cluster(K, lo, hi, cnt, eta, limit)
            if not ok:
                unconfirmed = True
                clusters.append({"im": (lo, hi), "count": cnt, "strip": eta})
                break
            candidates.append((nu, cnt))
        if unconfirmed:
            eta *= 0.5
            shrinks += 1
            if eta < 1e-6:
                raise RuntimeError("no certifiable strip: unresolved root clusters")
            continue
        off = [nu for nu, _ in candidates if abs(nu.real) > tol_root]
        if not off:
            roots = [
                Root(
                    nu=complex(0.0, nu.imag),
                    multiplicity=cnt,
                    snap_distance=abs(nu.real),
                )
                for nu, cnt in candidates
            ]
            _pair_conjugates(roots, pair_tol)
            roots.sort(key=lambda r: r.nu.imag)
            return SpectrumResult(
                roots=roots,
                strip=eta,
                window=window,
                diagnostics={
                    "excluded_offaxis": [complex(z) for z in excluded],
                    "unconfirmed_clusters": clusters,
                    "strip_shrinks": shrinks,
                    "decay_checks": report.checks,
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


def _null_spaces(T0, tol):
    U, s, Vh = np.linalg.svd(T0)
    scale = max(s.max(initial=0.0), 1.0)
    small = s < tol * scale
    right = Vh[small].conj().T  # columns span ker T0
    left = U[:, small]  # columns span coker (left null space)
    return right, left


def _min_norm_solve(T0, b, tol):
    """Minimum-norm solution of T0 x = b with singular values below the
    null-space tolerance treated as exactly zero.

    A machine-precision cutoff (plain lstsq) would happily invert a
    numerically singular direction and return a huge spurious component in
    the kernel's complement; truncating at the same tolerance used for
    null-space detection keeps the solution orthogonal to ker T0.
    """
    Uh, s, V = _truncated_svd(T0, tol)
    return V @ ((Uh @ b) / s)


def _truncated_svd(T0, tol):
    """``(U^H, s, V)`` of the singular values at or above ``tol`` times
    max(sigma_max, 1); ``V @ ((U^H @ b) / s)`` is the minimum-norm solution."""
    U, s, Vh = np.linalg.svd(T0)
    scale = max(s.max(initial=0.0), 1.0)
    keep = s >= tol * scale
    return U[:, keep].conj().T, s[keep], Vh[keep].conj().T


def jordan_chains(K, nu, multiplicity, tol=1e-8):
    """Jordan chains at a characteristic root.

    Returns a list of chains, each a list [e^0, ..., e^{p-1}] of (n,) arrays
    with sum of lengths equal to ``multiplicity``.  e^0 has unit norm with a
    real positive leading entry; generalized vectors are the minimum-norm
    solutions, hence orthogonal to ker That(nu).
    """
    derivs = [t_hat(K, nu, q) for q in range(multiplicity + 1)]
    T0 = derivs[0]
    right, left = _null_spaces(T0, tol)
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
        e = _min_norm_solve(T0, b, tol)
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
