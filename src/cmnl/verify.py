"""Numerical validation of reduced dynamics.

The exact algebra ends at the reduced vector field; this module checks its
predictions numerically and independently of the quasi-polynomial route:

* ``reconstruct`` -- pointwise graph evaluation of coordinate columns,
  ``u(x) = (u0(c(x)) + Psi(c(x), mu))(0)``: the profile of every wave, a
  row source (``GridProfile``) whose rows are computed one bounded block at
  a time, each monomial one multiply from a monomial of lower degree;
* ``grid_convolve`` / ``residual`` -- trapezoidal convolution quadrature on a
  truncated uniform grid with a two-grid Richardson error estimate, measuring
  how well a profile satisfies ``u + K*u + F(u, mu) = 0``; the defect sums the
  terms that share an outer kernel and convolves each such group once;
* every grid stage -- the pulse's orbit and coordinates, the reconstruction,
  and the fine and coarse defects -- runs over blocks of ``RECONSTRUCT_ROWS``
  grid rows: ``reconstruct`` computes the window a defect block reads, the
  block and the rows its stencils reach around it, and ``residual`` keeps
  only per-block maxima and sums, so no array spans the grid and the memory
  of a pulse sweep does not grow as its parameter shrinks; each row's value
  is the one a whole-grid evaluation gives, bit for bit;
* ``find_homoclinic`` / ``find_front`` -- the waves of the two planar limit
  systems produced by ``scale_field``: the homoclinic loop of the reversible
  pulse equation ``a'' = lin a + cub a^3`` in closed form,
  ``a = P sech(sqrt(lin) s)`` with ``P = sqrt(2 lin / -cub)``, and the front
  of the damped equation ``kappa a'' + c a' + a (alpha - beta a^2) = 0`` by
  deterministic shooting with the fixed-step classical Runge-Kutta
  ``rk4_step`` on pairs of floats;
* ``planar_pulse_system`` / ``planar_front_system`` -- structure-checked
  extraction of those planar systems from a computed reduction;
* ``pulse_scaling_report`` and ``front_profile`` / ``front_report`` --
  end-to-end drivers producing ``WaveReport`` artifacts.
"""

from array import array
from functools import lru_cache
from math import acosh, ceil, inf, log, sqrt

import numpy as np

from .jet import JetIndex, scale_field
from .nonlin import mu_weight, walk_slots


# ---------------------------------------------------------------------------
# containers


class Trajectory:
    """Solution samples of the reduced equation: ``ys[i]`` at ``xs[i]``."""

    def __init__(self, xs, ys):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.atleast_2d(np.asarray(ys, dtype=complex))
        if self.ys.shape[0] != self.xs.shape[0]:
            raise ValueError("trajectory sample count mismatch")


def _uniform_spacing(xs):
    """The first spacing of ``xs``, checked against every other spacing
    ``RECONSTRUCT_ROWS`` rows at a time, so that no temporary spans ``xs``."""
    h = float(xs[1] - xs[0])
    tol = 1e-9 * (1.0 + abs(h))
    if h <= 0 or any(
            np.abs(np.diff(xs[lo:lo + RECONSTRUCT_ROWS + 1]) - h).max() > tol
            for lo in range(0, len(xs) - 1, RECONSTRUCT_ROWS)):
        raise ValueError("grid must be uniform and increasing")
    return h


class GridProfile:
    """A profile on a uniform grid of ``size`` rows of ``n`` components.

    ``x(lo, hi)`` and ``rows(lo, hi)`` return the abscissae and the values,
    shape ``(hi - lo, n)``, of the grid rows ``lo:hi``, computed on demand,
    so that no array spans the grid; a row's value must not depend on
    ``lo:hi``.  ``residual`` reads a profile through them one bounded window
    at a time.  ``h`` is the first spacing, ``x(0, 2)`` differenced.

    Builders choose the half-width at least five times the slowest decay
    length of the profile, so that boundary values of localized profiles
    stay below 1e-6 of the peak.
    """

    def __init__(self, size, n, x, rows):
        self.size, self.n, self.x, self.rows = size, n, x, rows

    @property
    def h(self):
        x = self.x(0, 2)
        return float(x[1] - x[0])


class ResidualReport:
    """Norms of the equation defect on a grid, with a quadrature estimate.

    The norms exclude ``margin`` points on each side (where the convolution
    stencil leaves the grid).  ``quadrature_error`` is the two-grid
    Richardson estimate; ``converged`` means it is dominated by the measured
    residual (or below 1e-9).  ``amplitude`` is the profile's largest
    magnitude, margins included.  ``defect_rows`` yields the defect itself.
    """

    def __init__(self, max_norm, l2_norm, quadrature_error, converged, margin,
                 amplitude):
        self.max_norm, self.l2_norm = max_norm, l2_norm
        self.quadrature_error, self.converged = quadrature_error, converged
        self.margin, self.amplitude = margin, amplitude


class ShootingResult:
    """A wave of a planar system: a deterministic shot, or the closed-form
    pulse loop, which has no ``trajectory``."""

    def __init__(self, success, trajectory, details, monotone=None,
                 section_value=None, crossing_time=None, return_distance=None,
                 reach_distance=None):
        self.success, self.trajectory, self.details = success, trajectory, details
        self.monotone, self.section_value = monotone, section_value
        self.crossing_time, self.return_distance = crossing_time, return_distance
        self.reach_distance = reach_distance


class WaveReport:
    """Summary artifact for a verified wave family."""

    def __init__(self, kind, parameters, residual_max, residual_l2, slope,
                 monotone, details):
        self.kind, self.parameters = kind, parameters
        self.residual_max, self.residual_l2 = residual_max, residual_l2
        self.slope, self.monotone, self.details = slope, monotone, details

    def to_data(self):
        return {
            "type": self.kind,
            "parameters": self.parameters,
            "residual_max": self.residual_max,
            "residual_l2": self.residual_l2,
            "slope": self.slope,
            "monotone": self.monotone,
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# planar integration


def rk4_step(f, y, h):
    """One classical Runge-Kutta step of the planar system ``(a, p)' = f(a, p)``.

    ``y`` is the pair ``(a, p)`` of floats; the stages are unrolled, so a
    step builds no arrays.
    """
    a, p = y
    half = 0.5 * h
    k1a, k1p = f(a, p)
    k2a, k2p = f(a + half * k1a, p + half * k1p)
    k3a, k3p = f(a + half * k2a, p + half * k2p)
    k4a, k4p = f(a + h * k3a, p + h * k3p)
    w = h / 6.0
    return (a + w * (k1a + 2.0 * k2a + 2.0 * k3a + k4a),
            p + w * (k1p + 2.0 * k2p + 2.0 * k3p + k4p))


# ---------------------------------------------------------------------------
# reconstruction


# grid rows that every grid stage evaluates at once: the reconstruction, the
# pulse's orbit and coordinates, and the fine and coarse defects; bounds the
# size of their temporaries
RECONSTRUCT_ROWS = 2048


def _monomial_plan(powers):
    """``{power: (parent power, coordinate)}`` for every nonzero power in
    ``powers`` and the powers they are built from, parents first: the
    monomial of ``power`` is that of its parent times that coordinate."""
    plan = {}
    for p in powers:
        chain = []  # p and its ancestors not yet planned, children first
        while any(p) and p not in plan:
            j = next(k for k, e in enumerate(p) if e)
            parent = p[:j] + (p[j] - 1,) + p[j + 1:]
            chain.append((p, (parent, j)))
            p = parent
        plan.update(reversed(chain))
    return plan


def reconstruct(J, size, x, columns, mu=()):
    """Profile of the manifold along coordinate columns: the ``GridProfile``
    of ``size`` rows at the abscissae ``x(lo, hi)`` whose coordinates there
    are the columns ``columns(lo, hi)``, shape ``(J.basis.size, hi - lo)``.

    Row ``i`` is the graph map at the origin, ``u = (u0(c) + Psi(c, mu))(0)``
    with ``c`` the column ``i``, from the values ``J.psi_at_zero`` that a
    sweep shares.  The parameter factors ``mu^r`` fold once into one
    coefficient vector per coordinate power, the basis values at the origin
    joining the linear powers; a power whose folded vector is exactly zero,
    as most are under a pointwise projection, is dropped.  Every monomial of
    the rows is one multiply from a monomial of lower degree.  Every
    operation is elementwise over the rows, so a row's value does not depend
    on the block ``lo:hi`` it falls in; readers keep blocks bounded.
    """
    mu = (mu,) if np.isscalar(mu) else tuple(mu)
    dim = J.basis.size
    coeffs = {}
    for j, el in enumerate(J.basis.elements):
        unit = tuple(int(k == j) for k in range(dim))
        coeffs[unit] = el.function.evaluate(0.0)
    for idx, value in J.psi_at_zero.items():
        if len(mu) < len(idx.mu) and any(idx.mu[len(mu):]):
            raise ValueError(
                f"index needs {len(idx.mu)} parameter values, got {len(mu)}"
            )
        w = 1.0
        for v, r in zip(mu, idx.mu):
            w *= v**r
        coeffs[idx.powers] = coeffs.get(idx.powers, 0.0) + w * value
    coeffs = {p: c for p, c in coeffs.items() if np.any(c)}
    plan = _monomial_plan(coeffs)

    def rows(lo, hi):
        out = np.zeros((hi - lo, J.basis.n), dtype=complex)
        cols = columns(lo, hi)
        if len(cols) != dim:
            raise ValueError("coordinate columns do not match the basis")
        mono = {}
        for p, (parent, j) in plan.items():
            mono[p] = mono[parent] * cols[j] if parent in mono else cols[j]
        for p, c in coeffs.items():
            # array times scalar, per component: numpy rounds a one-row
            # broadcast product (1, 1) * (n,) differently from longer ones
            for k, ck in enumerate(c):
                out[:, k] += mono[p] * ck if p in mono else ck
        return out

    return GridProfile(size, J.basis.n, x, rows)


# ---------------------------------------------------------------------------
# grid convolution and residuals

# relative kernel mass left outside the truncated convolution support
TAIL_TOL = 1e-10


def _stencil_halfwidth(K, h):
    """Stencil points per side covering the kernel's decay radius."""
    return int(ceil(K.decay_radius(TAIL_TOL) / h))


def _interp_shifted(xs, values, shift):
    """``u(xs - shift)`` by linear interpolation with edge continuation."""
    out = np.empty_like(values)
    target = xs - shift
    for c in range(values.shape[1]):
        out[:, c] = np.interp(target, xs, values[:, c].real) + 1j * np.interp(
            target, xs, values[:, c].imag
        )
    return out


@lru_cache(maxsize=32)
def _stencil(K, h):
    """``(half, weights)``: the trapezoid weights times ``K`` on the
    ``2 half + 1`` points ``z = j h``, ``|j| <= half``, shape
    ``(2 half + 1, n, n)``.  Every block of a defect at the spacing ``h``
    shares them, so they are cached, and read-only."""
    half = _stencil_halfwidth(K, h)
    zs = np.arange(-half, half + 1) * h
    km = K.eval_x(zs)  # (2 half + 1, n, n)
    w = np.full(zs.shape, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    kw = km * w[:, None, None]
    kw.flags.writeable = False
    return half, kw


def grid_convolve(K, xs, values, h=None):
    """``(K * u)(xs)`` by the trapezoidal rule on the truncated support.

    The truncation radius is the kernel decay radius at ``TAIL_TOL``
    (relative tail mass); beyond the grid the profile is continued by its
    edge values, so localized and front-like profiles are both handled.
    Smooth kernel parts use aligned trapezoid sums; point masses shift the
    profile by interpolation.  ``h`` is the spacing of the grid that ``xs``
    is a window of, by default the first spacing of ``xs``: a window's own
    first spacing can differ from its grid's in the last bit, and with it
    every stencil weight.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=complex)
    if values.ndim == 1:
        values = values[:, None]
    m, n = values.shape
    if K.n != n:
        raise ValueError(f"kernel dimension {K.n} does not match profile {n}")
    if h is None:
        h = _uniform_spacing(xs)
    out = np.zeros((m, n), dtype=complex)

    if getattr(K, "family", None) != "dirac":
        half, kw = _stencil(K, h)
        upad = np.concatenate(
            [np.repeat(values[:1], half, axis=0), values,
             np.repeat(values[-1:], half, axis=0)]
        )
        for a in range(n):
            acc = np.zeros(m, dtype=complex)
            for b in range(n):
                col = kw[:, a, b]
                if np.abs(col).max() == 0.0:
                    continue
                # "valid": one row per row of values, each under the whole
                # stencil; the partial overlaps at the pads are not needed
                acc += np.convolve(upad[:, b], col, "valid")
            out[:, a] = acc

    for A, xi in K.point_masses():
        out += _interp_shifted(xs, values, xi) @ A.T
    return out


def _reaches(K, F, h):
    """``(outer, inner)``: the rows on either side of a grid row that the
    outer kernels of a defect, ``K`` among them, and its inner kernels read
    at the spacing ``h``: the largest stencil half-width, and one row more
    for the interpolation of a shifted point mass."""
    def reach(kernels):
        return max((_stencil_halfwidth(k, h) + 1
                    for k in dict.fromkeys(kernels)), default=0)

    return (reach([K] + [t.outer for t in F.terms if t.outer is not None]),
            reach([kern for t in F.terms for kern, _ in t.factors
                   if kern is not None]))


def _defect(K, F, x, u, at, m, mu, h, reach, lo, hi):
    """``u + K*u + F(u, mu)`` at the rows ``lo:hi`` of a grid of ``m`` rows,
    one convolution per outer kernel.

    ``x`` and ``u`` are a window of the grid's abscissae and values that
    starts at its row ``at`` and covers the rows that the defect reads: the
    group sums on the rows the outer kernels reach around ``lo:hi``, from
    the values on the rows the inner kernels reach around those (``reach``,
    from ``_reaches``), as far as the grid goes.

    Each term's pointwise product comes from the exact evaluator's slot walk
    (``nonlin.walk_slots``), with ``grid_convolve`` for the inner kernels.
    The outer kernel acts linearly (``nonlin.walk_outer``), so the weighted
    products of the terms that share one are summed first, ``u`` joins the
    group of ``K``, and every group is convolved once.  A scalar outer
    kernel of a vector problem acts on one component, so its groups are
    per target component.

    Where the rows read meet an end of the grid, ``grid_convolve``
    continues the edge value at either level as on the whole grid;
    elsewhere its edge continuation spoils only the reach, which is
    dropped.  Every convolution takes the grid's spacing ``h``, so each row
    is the one the whole grid gives, bit for bit.
    """
    n = u.shape[1]
    g0, g1 = max(lo - reach[0], 0), min(hi + reach[0], m)  # group sum rows
    v0, v1 = max(g0 - reach[1], 0), min(g1 + reach[1], m)  # rows read
    read, keep = slice(v0 - at, v1 - at), slice(g0 - v0, g1 - v0)

    def conv(kern, v):
        return grid_convolve(kern, x[read], v, h)

    # (outer kernel, target component or None for all of them) -> sum
    groups = {(K, None): u[g0 - at:g1 - at].copy()}
    for t in F.terms:
        weight = t.coeff * mu_weight(t, mu)
        if weight == 0:
            continue
        prod = walk_slots(t, [u[read]] * t.degree, n, conv,
                          lambda v, c: v[:, [c]], np.multiply)[keep]
        if t.outer is not None and t.outer.n == 1 and n != 1:
            key, col = (t.outer, t.target), 0
        else:
            key, col = (t.outer, None), t.target
        if key not in groups:
            groups[key] = np.zeros((g1 - g0, n if key[1] is None else 1),
                                   dtype=complex)
        groups[key][:, col] += weight * prod[:, 0]
    out = u[lo - at:hi - at].copy()
    for (kern, target), acc in groups.items():
        if kern is not None:
            acc = grid_convolve(kern, x[g0 - at:g1 - at], acc, h)
        acc = acc[lo - g0:hi - g0]
        if target is None:
            out += acc
        else:
            out[:, target] += acc[:, 0]
    return out


def _fine_defects(K, F, profile, mu, h, reach, pad=0):
    """``(lo, at, x, u, r)`` for every block ``lo:hi`` of ``RECONSTRUCT_ROWS``
    grid rows: the profile's abscissae ``x`` and values ``u`` on the rows
    from ``at`` that the defect reads around the block, or ``pad`` rows
    around it if that is more, and the defect ``r`` at the block's rows."""
    m = profile.size
    pad = max(pad, sum(reach))
    for lo in range(0, m, RECONSTRUCT_ROWS):
        hi = min(lo + RECONSTRUCT_ROWS, m)
        at, to = max(lo - pad, 0), min(hi + pad, m)
        x, u = profile.x(at, to), profile.rows(at, to)
        yield lo, at, x, u, _defect(K, F, x, u, at, m, mu, h, reach, lo, hi)


def defect_rows(K, F, profile, mu=()):
    """``(x, u, r)`` for every block of ``RECONSTRUCT_ROWS`` grid rows: the
    abscissae, the profile's values and the defect ``u + K*u + F(u, mu)``
    there, each row the one that ``residual`` measures."""
    h = profile.h
    for lo, at, x, u, r in _fine_defects(K, F, profile, mu, h,
                                         _reaches(K, F, h)):
        rows = slice(lo - at, lo - at + len(r))
        yield x[rows], u[rows], r


def residual(K, F, profile, mu=()):
    """Defect norms of ``u + K*u + F(u, mu) = 0`` for a grid profile.

    Computes the defect on the grid and on its every-other-point coarsening,
    each with one ``grid_convolve`` per distinct outer kernel (``K``
    included) and block; their difference estimates the quadrature error
    (the trapezoid rule is second order, so the coarse defect carries
    roughly four times the fine error).  Norms exclude the stencil margin at
    both ends.

    Both defects are computed ``RECONSTRUCT_ROWS`` fine rows at a time
    (``_defect``), from one window of profile rows per block that covers
    what the fine rows read and, every other row, what the block's coarse
    rows read.  Only the maxima, the amplitude among them, and the l2 sums
    of the blocks are kept, so no array spans the grid.  The spacings are
    the grid's first, ``x[1] - x[0]`` and ``x[2] - x[0]``, as whole grids
    would have them.
    """
    if K.n != profile.n:
        raise ValueError("kernel dimension does not match the profile")
    m, h = profile.size, profile.h
    kernels = dict.fromkeys(
        [K] + [k for t in F.terms
               for k in (t.outer, *(kern for kern, _ in t.factors))
               if k is not None])
    margin = max(_stencil_halfwidth(k, h) for k in kernels)
    margin_c = max(_stencil_halfwidth(k, 2 * h) for k in kernels)
    mc = (m + 1) // 2  # coarse row j is fine row 2j
    if 2 * margin >= m or 2 * margin_c >= mc:
        raise RuntimeError(
            "grid too narrow: the convolution stencil covers the whole domain"
        )
    x3 = profile.x(0, 3)
    hc = float(x3[2] - x3[0])
    reach, reach_c = _reaches(K, F, h), _reaches(K, F, hc)
    amplitudes, peaks, gaps, sq = [], [], [], 0.0
    for lo, at, x, u, fine in _fine_defects(K, F, profile, mu, h, reach,
                                            2 * sum(reach_c)):
        hi = lo + len(fine)
        amplitudes.append(np.abs(u[lo - at:hi - at]).max())
        a, b = max(lo, margin), min(hi, m - margin)
        if a < b:
            inner = np.abs(fine[a - lo:b - lo])
            peaks.append(inner.max())
            sq += (inner**2).sum()
        a, b = max((lo + 1) // 2, margin_c), min((hi + 1) // 2, mc - margin_c)
        if a < b:
            c0 = (at + 1) // 2  # the window's first coarse row
            s = 2 * c0 - at
            coarse = _defect(K, F, x[s::2], u[s::2], c0, mc, mu, hc, reach_c,
                             a, b)
            gaps.append(np.abs(fine[2 * a - lo:2 * b - lo:2] - coarse).max())
    quadrature_error = float(np.max(gaps))
    max_norm = float(np.max(peaks))
    l2_norm = float(np.sqrt(h * sq))
    return ResidualReport(
        max_norm=max_norm,
        l2_norm=l2_norm,
        quadrature_error=quadrature_error,
        converged=quadrature_error <= max(0.5 * max_norm, 1e-9),
        margin=margin,
        amplitude=float(np.max(amplitudes)),
    )


# ---------------------------------------------------------------------------
# the reversible pulse, in closed form

# distance to the origin at which a loop counts as back (pulse) or a shot as
# arrived (front), and the front shot's offset from the saddle
ARRIVAL_TOL = 1e-4
FRONT_START = 1e-6

# the defaults of a pulse plan: the amplitude at which the scaled half loop
# starts, and the spacing of the profile grid
PULSE_START = 1e-7
PULSE_STEP_X = 0.1


def _sech_orbit(peak, k, s):
    """``(a, a')`` of the pulse ``a = peak sech(k s)`` at the times ``s``."""
    z = k * s
    sech = 1.0 / np.cosh(z)
    return peak * sech, -(peak * k) * sech * np.tanh(z)


def find_homoclinic(lin, cub, start=PULSE_START):
    """Homoclinic loop of the reversible planar system ``a'' = lin a + cub a^3``.

    The loop is the exact orbit ``a = P sech(k s)`` with ``k = sqrt(lin)``
    (``details['rate']``) and ``P = sqrt(2 lin / -cub)``: it leaves the
    origin along the unstable eigenvector and returns along the stable one.
    The half orbit starts at ``a = start`` and meets the symmetric section
    ``a' = 0`` at the peak after ``T1 = arccosh(P / start) / k``
    (``crossing_time``), with ``section_value`` ``P``; the result holds these
    numbers and no samples.  ``return_distance`` is the orbit's distance
    ``max(|a|, |a'|)`` from the origin at the mirrored time ``2 T1``:
    ``max(1, k tanh(k T1)) start``, about ``max(1, k) start``.  The loop
    counts as found when that is below ``ARRIVAL_TOL``.  A ``start`` at or
    beyond the peak, or so small that ``P / start`` overflows, leaves no half
    orbit and raises ``RuntimeError``.
    """
    lin, cub, start = float(lin), float(cub), float(start)
    if lin <= 0 or cub >= 0 or start <= 0:
        raise ValueError(
            "homoclinic loop needs an unstable origin (lin > 0), a focusing"
            " cubic (cub < 0) and start > 0"
        )
    k = sqrt(lin)
    peak = sqrt(2.0 * lin / -cub)
    if not 1.0 < peak / start < inf:
        raise RuntimeError(
            f"verify.start = {start:.6g} must lie below the pulse peak"
            f" P = {peak:.6g}, at a finite ratio to it"
        )
    return_distance = start * max(1.0, k * sqrt(1.0 - (start / peak) ** 2))
    return ShootingResult(
        success=return_distance < ARRIVAL_TOL,
        trajectory=None,
        section_value=peak,
        crossing_time=acosh(peak / start) / k,
        return_distance=return_distance,
        details={"rate": k},
    )


# ---------------------------------------------------------------------------
# shooting: front


def find_front(kappa, alpha, beta, c_star, tol_reach=ARRIVAL_TOL):
    """Front of ``kappa a'' + c a' + a (alpha - beta a^2) = 0`` by shooting.

    Starts on the saddle's one-dimensional unstable manifold (eigenvector
    offset ``FRONT_START`` from ``sqrt(alpha/beta)``) and integrates toward
    the rest state at the origin, in steps of 0.01 over the fastest rate.
    Success means the trajectory comes within ``tol_reach`` of the origin,
    and ``reach_distance`` is the least distance ``max(|a|, |a'|)`` of a
    sample; the monotone flag checks the sign of the derivative samples (and
    non-negativity) up to that point.
    """
    kappa, alpha, beta = float(kappa), float(alpha), float(beta)
    c_star = float(c_star)
    if min(kappa, alpha, beta) <= 0 or c_star <= 0:
        raise ValueError("front shooting needs kappa, alpha, beta, c > 0")
    a_star = sqrt(alpha / beta)
    s_unstable = (-c_star + sqrt(c_star**2 + 8 * kappa * alpha)) / (2 * kappa)
    disc = c_star**2 - 4 * kappa * alpha
    slow = c_star / (2 * kappa) if disc < 0 else \
        (c_star - sqrt(disc)) / (2 * kappa)
    start = FRONT_START
    step = 0.01 / max(1.0, s_unstable, c_star / kappa)
    max_span = 3.0 * (log(a_star / start) / s_unstable
                      + log(a_star / tol_reach) / slow + 20.0)

    # numpy divides complex numbers by multiplying with the reciprocal; the
    # complex-array reference shooter in the tests must agree bit for bit
    inv_kappa = 1.0 / kappa
    a, p = a_star - start, -start * s_unstable
    ys = array("d", (a, p))
    nmax = int(ceil(max_span / step))
    success = False
    half, w = 0.5 * step, step / 6.0
    # arrival is max(|a|, |p|) <= tol_reach, blow-up a < -a_star / 2 or
    # max(|a|, |p|) > 1e6; both are tested as chained bounds on a and p
    low = -min(0.5 * a_star, 1e6)
    for _ in range(nmax):
        # ``rk4_step`` of (a, p)' = (p, -(c p + a (alpha - beta a^2)) / kappa),
        # its stages and their field inlined in the same operation order
        k1 = -(c_star * p + a * (alpha - beta * (a * a))) * inv_kappa
        a2, p2 = a + half * p, p + half * k1
        k2 = -(c_star * p2 + a2 * (alpha - beta * (a2 * a2))) * inv_kappa
        a3, p3 = a + half * p2, p + half * k2
        k3 = -(c_star * p3 + a3 * (alpha - beta * (a3 * a3))) * inv_kappa
        a4, p4 = a + step * p3, p + step * k3
        k4 = -(c_star * p4 + a4 * (alpha - beta * (a4 * a4))) * inv_kappa
        a, p = (a + w * (p + 2.0 * p2 + 2.0 * p3 + p4),
                p + w * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        ys.extend((a, p))
        if -tol_reach <= a <= tol_reach and -tol_reach <= p <= tol_reach:
            success = True
            break
        if not (low <= a <= 1e6 and -1e6 <= p <= 1e6):
            break
    # the (a, p) samples are interleaved in the flat array ys
    samples = np.frombuffer(ys).reshape(-1, 2)
    reach_distance = float(np.abs(samples).max(axis=1).min())
    traj = Trajectory(step * np.arange(len(samples)), samples)
    slack = 1e-9 * a_star
    monotone = bool(
        traj.ys[:, 1].real.max() <= slack
        and traj.ys[:, 0].real.min() >= -slack
    )
    return ShootingResult(
        success=success,
        trajectory=traj,
        monotone=monotone,
        reach_distance=reach_distance,
        details={"saddle": a_star, "unstable_rate": s_unstable},
    )


# ---------------------------------------------------------------------------
# planar limit systems from a computed reduction


# planar extraction: tolerance relative to the largest kept coefficient
PLANAR_TOL = 1e-8


def _planar_coefficients(sf, expected):
    """Coefficients of the scaled field at ``expected`` = {index: slot}.

    The kept entries must be exactly the expected ones, each concentrated on
    its slot, and the first expected entry, the flow coupling ``A' = B``,
    must be 1.  Returns ``(coefficients, scale)``, with ``scale`` the largest
    kept magnitude, against which ``PLANAR_TOL`` is relative.
    """
    extra = set(sf.field) - set(expected)
    if extra:
        raise RuntimeError(
            f"unexpected resonant entries in the scaled field: {sorted(extra, key=JetIndex.graded_key)}"
        )
    scale = max(np.abs(v).max() for v in sf.field.values()) if sf.field else 1.0
    coeffs = {}
    for idx, slot in expected.items():
        vec = sf.field.get(idx)
        if vec is None:
            raise RuntimeError(f"scaled field misses the entry {idx.powers}|{idx.mu}")
        off = np.abs(np.delete(vec, slot)).max() if len(vec) > 1 else 0.0
        if off > PLANAR_TOL * scale:
            raise RuntimeError(
                f"scaled entry {idx.powers}|{idx.mu} is not concentrated on slot {slot}"
            )
        coeffs[idx] = complex(vec[slot])
    if abs(coeffs[next(iter(expected))] - 1.0) > PLANAR_TOL * scale:
        raise RuntimeError("flow coupling A' = B is not normalized")
    return coeffs, scale


def _check_real(z, name, scale):
    if abs(z.imag) > PLANAR_TOL * scale:
        raise RuntimeError(f"coefficient {name} is not real: {z}")
    return float(z.real)


def planar_pulse_system(sf):
    """Extract ``a'' = lam lin a + cub a^3`` from a scaled pair reduction.

    Expects the leading-order field of a reversible conjugate-pair reduction
    in coordinates ``(A, conj A, B, conj B)`` scaled with exponents
    ``(1, 1, 2, 2)``: the kept entries must be exactly the six resonant
    ones (B feeds A, the parameter and the focusing cubic feed B, plus
    conjugates).  Returns ``(lin, cub)`` with ``lin > 0 > cub``.
    """
    expected = {
        JetIndex((0, 0, 1, 0), (0,)): 0,
        JetIndex((0, 0, 0, 1), (0,)): 1,
        JetIndex((1, 0, 0, 0), (1,)): 2,
        JetIndex((0, 1, 0, 0), (1,)): 3,
        JetIndex((2, 1, 0, 0), (0,)): 2,
        JetIndex((1, 2, 0, 0), (0,)): 3,
    }
    coeffs, scale = _planar_coefficients(sf, expected)
    lin = coeffs[JetIndex((1, 0, 0, 0), (1,))]
    cub = coeffs[JetIndex((2, 1, 0, 0), (0,))]
    for idx, partner in (
        (JetIndex((0, 1, 0, 0), (1,)), lin),
        (JetIndex((1, 2, 0, 0), (0,)), cub),
    ):
        if abs(coeffs[idx] - np.conj(partner)) > PLANAR_TOL * scale:
            raise RuntimeError("conjugate entries of the scaled field disagree")
    lin = _check_real(lin, "lin", scale)
    cub = _check_real(cub, "cub", scale)
    if lin <= 0 or cub >= 0:
        raise RuntimeError(
            f"pulse balance needs lin > 0 > cub, got lin={lin}, cub={cub}"
        )
    return lin, cub


def planar_front_system(J):
    """Extract ``(kappa, alpha, beta)`` of the front equation from a reduction.

    Expects a reduction over a length-two chain at frequency zero with two
    formal parameters (bifurcation, wave speed).  Scales with exponents
    ``(1, 2)`` in the coordinates, ``(2, 1)`` in the parameters, checks the
    kept set is exactly ``{A' = B, B' = g0 c B + ga A + gb A^3}`` and
    returns the coefficients of ``kappa a'' + c a' + a (alpha - beta a^2) = 0``.
    """
    basis = J.basis
    if basis.size != 2 or J.nparams != 2:
        raise RuntimeError("front extraction expects 2 coordinates, 2 parameters")
    if max(abs(el.nu) for el in basis.elements) > 1e-6:
        raise RuntimeError("front extraction expects the chain at frequency zero")
    sf = scale_field(J.field, (1, 2), 1.0, (2, 1))
    expected = {
        JetIndex((0, 1), (0, 0)): 0,
        JetIndex((0, 1), (0, 1)): 1,
        JetIndex((1, 0), (1, 0)): 1,
        JetIndex((3, 0), (0, 0)): 1,
    }
    coeffs, scale = _planar_coefficients(sf, expected)
    g0 = _check_real(coeffs[JetIndex((0, 1), (0, 1))], "g0", scale)
    ga = _check_real(coeffs[JetIndex((1, 0), (1, 0))], "ga", scale)
    gb = _check_real(coeffs[JetIndex((3, 0), (0, 0))], "gb", scale)
    if g0 >= 0 or ga >= 0 or gb <= 0:
        raise RuntimeError(
            f"front balance needs g0, ga < 0 < gb, got ({g0}, {ga}, {gb})"
        )
    return -1.0 / g0, ga / g0, -gb / g0


# ---------------------------------------------------------------------------
# end-to-end drivers

# share of the scaled half orbit that the pulse grid covers on each side
PULSE_SPAN = 0.98


def _pair_phases(J):
    """Carrier frequency of a conjugate-pair reduction, with sanity checks."""
    els = J.basis.elements
    if (len(els) != 4 or [el.partner for el in els] != [1, 0, 3, 2]
            or J.nparams != 1):
        raise RuntimeError(
            "pulse driver expects a conjugate pair of chains and one parameter")
    ell = float(els[0].nu.imag)
    if ell <= 0 or abs(els[0].nu.real) > 1e-9:
        raise RuntimeError("pulse driver expects imaginary pair frequencies")
    return ell


def _pulse_orbit(J, start):
    """The parameter-independent part of the pulse family.

    Scales the reduced field to its leading pulse balance and builds the
    reversible planar homoclinic once.  Returns ``(ell, loop)``.
    """
    ell = _pair_phases(J)
    sf = scale_field(J.field, (1, 1, 2, 2), 1.0, (2,),
                     phases=(ell, -ell, ell, -ell))
    lin, cub = planar_pulse_system(sf)
    hom = find_homoclinic(lin, cub, start=start)
    if not hom.success:
        raise RuntimeError(
            f"the pulse loop from verify.start = {start:.6g} ends"
            f" {hom.return_distance:.3g} from the origin, not within {ARRIVAL_TOL:g}"
        )
    return ell, hom


def _pulse_on_grid(J, orbit, lam, step_x):
    """Map the scaled orbit to parameter ``lam`` and reconstruct the profile
    on a grid over ``PULSE_SPAN`` of the half orbit.

    The slow amplitude and its derivative are the closed-form loop at
    ``z = sqrt(lam) x``, with its peak at ``x = 0``: ``a = P sech(k z)`` and
    ``a' = -P k sech(k z) tanh(k z)``.  The orbit, its carrier phase and the
    coordinates ``(A, conj A, B, conj B)`` are computed for one block of
    rows at a time, whenever a window of the ``reconstruct`` row source is
    read; row ``i`` lies at ``x = (i - m) step_x``.
    """
    ell, hom = orbit
    eps = sqrt(lam)
    peak, rate = hom.section_value, hom.details["rate"]
    m = int(ceil(PULSE_SPAN * hom.crossing_time / (eps * step_x)))

    def x(lo, hi):
        return np.arange(lo - m, hi - m) * step_x

    def columns(lo, hi):
        xb = x(lo, hi)
        a, p = _sech_orbit(peak, rate, eps * xb)
        phase = np.exp(1j * ell * xb)
        A = eps * a * phase
        B = eps**2 * p * phase
        return np.stack([A, np.conj(A), B, np.conj(B)])

    return reconstruct(J, 2 * m + 1, x, columns, (lam,))


def slope_loglog(xs, ys):
    """Least-squares slope of ``log ys`` against ``log xs``, in closed form:
    ``sum(dx dy) / sum(dx^2)`` over the deviations from the means."""
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    dx = lx - lx.mean()
    return float((dx * (ly - ly.mean())).sum() / (dx * dx).sum())


def pulse_scaling_report(K, J, lams, step_x=PULSE_STEP_X, on_profile=None,
                         start=PULSE_START):
    """Residual-vs-amplitude scaling of the pulse family.

    Builds the parameter-independent scaled homoclinic loop once, then the
    reconstructed pulse for every parameter value, measures the equation
    defect, and fits the log-log slope of residual against amplitude.
    ``details['amplitude_ratio']`` is peak / sqrt(lam) at the smallest
    parameter.  ``on_profile(lam, profile, mu)`` is called once per parameter
    when supplied, with the row source of the profile and its parameter
    values.  ``start`` is the amplitude at which the
    scaled half orbit starts (see ``find_homoclinic``) and ``step_x`` the
    profile grid's spacing.
    """
    lams = sorted(float(l) for l in lams)
    if lams[0] <= 0:
        raise ValueError("pulse reconstruction needs lam > 0")
    orbit = _pulse_orbit(J, start)
    hom = orbit[1]
    rows = []
    for lam in reversed(lams):
        prof = _pulse_on_grid(J, orbit, lam, step_x)
        rep = residual(K, J.nonlinearity, prof, mu=(lam,))
        if on_profile is not None:
            on_profile(lam, prof, (lam,))
        rows.append(
            {
                "lambda": lam,
                "amplitude": rep.amplitude,
                "residual_max": rep.max_norm,
                "residual_l2": rep.l2_norm,
                "return_distance": hom.return_distance,
                "quadrature_error": rep.quadrature_error,
            }
        )
    slope = None
    if len(rows) >= 2:
        slope = slope_loglog(
            [r["amplitude"] for r in rows], [r["residual_max"] for r in rows]
        )
    last = rows[-1]  # smallest parameter
    return WaveReport(
        kind="homoclinic",
        parameters={"lambda": lams},
        residual_max=last["residual_max"],
        residual_l2=last["residual_l2"],
        slope=slope,
        monotone=None,
        details={
            "sweep": rows,
            "amplitude_ratio": last["amplitude"] / sqrt(last["lambda"]),
        },
    )


def front_profile(J, epsilon, c_star, tol_reach=ARRIVAL_TOL):
    """Reconstructed front at parameter ``epsilon`` and scaled speed ``c_star``.

    Extracts the planar front system from the reduction, shoots from the
    saddle, and maps the scaled trajectory back through the graph map
    (``reconstruct``) with parameter values ``(epsilon^2, epsilon c_star)``,
    one block of rows at a time, whenever a window of the returned row
    source is read.  The shooting result's details record the planar
    coefficients ``kappa``, ``alpha``, ``beta``.  Returns ``(GridProfile,
    ShootingResult)``.
    """
    if epsilon <= 0:
        raise ValueError("front reconstruction needs epsilon > 0")
    kappa, alpha, beta = planar_front_system(J)
    fr = find_front(kappa, alpha, beta, c_star, tol_reach=tol_reach)
    if not fr.success:
        raise RuntimeError("front shooting did not reach the rest state")
    fr.details.update(kappa=kappa, alpha=alpha, beta=beta)
    ts, ys = fr.trajectory.xs, fr.trajectory.ys

    def columns(lo, hi):
        return np.stack([epsilon * ys[lo:hi, 0], epsilon**2 * ys[lo:hi, 1]])

    prof = reconstruct(J, len(ts), lambda lo, hi: ts[lo:hi] / epsilon,
                       columns, (epsilon**2, epsilon * c_star))
    return prof, fr


def front_report(K, J, epsilon, c_star, on_profile=None, tol_reach=ARRIVAL_TOL):
    """Wave report for a single front run: defect norms and monotonicity.

    ``on_profile(epsilon, profile, mu)`` is called when supplied.
    """
    prof, fr = front_profile(J, epsilon, c_star, tol_reach)
    mu = (epsilon**2, epsilon * c_star)
    rep = residual(K, J.nonlinearity, prof, mu=mu)
    if on_profile is not None:
        on_profile(epsilon, prof, mu)
    return WaveReport(
        kind="front",
        parameters={"epsilon": float(epsilon), "c_star": float(c_star)},
        residual_max=rep.max_norm,
        residual_l2=rep.l2_norm,
        slope=None,
        monotone=fr.monotone,
        details={
            "reach_distance": fr.reach_distance,
            "kappa": fr.details["kappa"],
            "alpha": fr.details["alpha"],
            "beta": fr.details["beta"],
            "saddle": fr.details["saddle"],
            "quadrature_error": rep.quadrature_error,
        },
    )
