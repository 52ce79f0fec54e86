"""Numerical validation of reduced dynamics.

The exact algebra ends at the reduced vector field; this module checks its
predictions numerically and independently of the quasi-polynomial route:

* ``reconstruct`` -- pointwise graph evaluation of a coordinate trajectory,
  ``u(x) = (u0(c(x)) + Psi(c(x), mu))(0)``, sampled on the trajectory grid;
* ``grid_convolve`` / ``residual`` -- trapezoidal convolution quadrature on a
  truncated uniform grid with a two-grid Richardson error estimate, measuring
  how well a profile satisfies ``u + K*u + F(u, mu) = 0``;
* ``find_homoclinic`` / ``find_front`` -- deterministic shooting for the two
  planar limit systems produced by ``scale_field``: the reversible pulse
  equation ``a'' = lam lin a + cub a^3`` and the damped front equation
  ``kappa a'' + c a' + a (alpha - beta a^2) = 0``, integrated by the
  fixed-step classical Runge-Kutta ``rk4_step`` on pairs of floats;
* ``planar_pulse_system`` / ``planar_front_system`` -- structure-checked
  extraction of those planar systems from a computed reduction;
* ``pulse_profile`` / ``pulse_scaling_report`` and ``front_profile`` /
  ``front_report`` -- end-to-end drivers producing ``WaveReport`` artifacts.
"""

from array import array
from dataclasses import dataclass, field as dataclass_field
from math import ceil, log, sqrt

import numpy as np

from .jet import JetIndex, scale_field
from .nonlin import mu_weight, walk_term


# ---------------------------------------------------------------------------
# containers


@dataclass
class Trajectory:
    """Solution samples of the reduced equation: ``ys[i]`` at ``xs[i]``."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.atleast_2d(np.asarray(self.ys, dtype=complex))
        if self.ys.shape[0] != self.xs.shape[0]:
            raise ValueError("trajectory sample count mismatch")


def _uniform_spacing(xs):
    d = np.diff(xs)
    h = float(d[0])
    if h <= 0 or np.abs(d - h).max() > 1e-9 * (1.0 + abs(h)):
        raise ValueError("grid must be uniform and increasing")
    return h


@dataclass
class GridProfile:
    """Uniformly sampled profile values (one row per grid point).

    Builders choose the half-width at least five times the slowest decay
    length of the profile, so that boundary values of localized profiles
    stay below 1e-6 of the peak; ``localized`` checks the latter.
    """

    xs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if self.values.shape[0] != self.xs.shape[0]:
            raise ValueError("profile sample count mismatch")
        if self.xs.shape[0] < 2:
            raise ValueError("profile needs at least two samples")
        _uniform_spacing(self.xs)

    @property
    def h(self):
        return float(self.xs[1] - self.xs[0])

    @property
    def halfwidth(self):
        return float(self.xs[-1] - self.xs[0]) / 2.0

    @property
    def n(self):
        return self.values.shape[1]

    def peak(self):
        return float(np.abs(self.values).max())

    def boundary_fraction(self):
        """Largest boundary magnitude relative to the peak."""
        p = self.peak()
        if p == 0.0:
            return 0.0
        edge = max(np.abs(self.values[0]).max(), np.abs(self.values[-1]).max())
        return float(edge / p)

    def localized(self, tol=1e-6):
        return self.boundary_fraction() <= tol

    def decay_length(self):
        """Tail e-folding length, estimated from running maxima.

        Per side, the length over which the running maximum grows by a
        factor e from the boundary value; infinite when the profile does
        not decay toward that side.  Oscillation-proof (uses envelopes);
        an estimate, meant for grid-sizing sanity checks.
        """
        mag = np.abs(self.values).max(axis=1)
        window = max(1, mag.shape[0] // 100)  # envelope-safe boundary level
        worst = 0.0
        for side in (mag, mag[::-1]):
            b = float(side[:window].max())
            if b == 0.0:
                continue
            run = np.maximum.accumulate(side)
            hit = np.nonzero(run >= np.e * b)[0]
            if hit.size == 0:
                return np.inf
            worst = max(worst, hit[0] * self.h)
        return worst


@dataclass
class ResidualReport:
    """Norms of the equation defect on a grid, with a quadrature estimate.

    ``values`` holds the full-grid defect; the norms exclude ``margin``
    points on each side (where the convolution stencil leaves the grid).
    ``quadrature_error`` is the two-grid Richardson estimate; ``converged``
    means it is dominated by the measured residual (or below 1e-9).
    """

    max_norm: float
    l2_norm: float
    quadrature_error: float
    converged: bool
    margin: int
    xs: np.ndarray
    values: np.ndarray


@dataclass
class ShootingResult:
    """Outcome of a deterministic shooting run on a planar system."""

    success: bool
    trajectory: Trajectory
    monotone: bool | None = None
    section_value: float | None = None
    crossing_time: float | None = None
    return_distance: float | None = None
    reach_distance: float | None = None
    details: dict = dataclass_field(default_factory=dict)


@dataclass
class WaveReport:
    """Summary artifact for a verified wave family."""

    kind: str
    parameters: dict
    residual_max: float
    residual_l2: float
    slope: float | None = None
    monotone: bool | None = None
    details: dict = dataclass_field(default_factory=dict)

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


def _planar_trajectory(xs, ys):
    """``Trajectory`` of a planar shot whose ``(a, p)`` samples are interleaved
    in the flat ``array("d")`` ``ys``."""
    return Trajectory(xs, np.frombuffer(ys).reshape(-1, 2))


# ---------------------------------------------------------------------------
# reconstruction


def reconstruct(J, trajectory, mu=()):
    """Profile of the manifold along a coordinate trajectory.

    The grid point at ``x`` uses the trajectory point at ``x`` through the
    graph map evaluated at the origin: ``u(x) = (u0(c(x)) + Psi(c(x)))(0)``.
    """
    mu = (mu,) if np.isscalar(mu) else tuple(mu)
    coords = trajectory.ys
    if coords.shape[1] != J.basis.size:
        raise ValueError("trajectory dimension does not match the basis")
    base = np.array([el.function.evaluate(0.0) for el in J.basis.elements])
    values = coords @ base
    for idx, psi in J.psi.items():
        w = idx.monomial(coords, mu)
        if np.any(w != 0.0):
            values = values + w[:, None] * psi.evaluate(0.0)[None, :]
    return GridProfile(trajectory.xs, values)


# ---------------------------------------------------------------------------
# grid convolution and residuals


def _stencil_halfwidth(K, h, tail_tol=1e-10):
    """Stencil points per side covering the kernel's decay radius."""
    return int(ceil(K.decay_radius(tail_tol) / h))


def _interp_shifted(xs, values, shift):
    """``u(xs - shift)`` by linear interpolation with edge continuation."""
    out = np.empty_like(values)
    target = xs - shift
    for c in range(values.shape[1]):
        out[:, c] = np.interp(target, xs, values[:, c].real) + 1j * np.interp(
            target, xs, values[:, c].imag
        )
    return out


def grid_convolve(K, xs, values, tail_tol=1e-10):
    """``(K * u)(xs)`` by the trapezoidal rule on the truncated support.

    The truncation radius is the kernel decay radius at ``tail_tol``
    (relative tail mass); beyond the grid the profile is continued by its
    edge values, so localized and front-like profiles are both handled.
    Smooth kernel parts use aligned trapezoid sums; point masses shift the
    profile by interpolation.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=complex)
    if values.ndim == 1:
        values = values[:, None]
    m, n = values.shape
    if K.n != n:
        raise ValueError(f"kernel dimension {K.n} does not match profile {n}")
    h = _uniform_spacing(xs)
    out = np.zeros((m, n), dtype=complex)

    if getattr(K, "family", None) != "dirac":
        half = _stencil_halfwidth(K, h, tail_tol)
        zs = np.arange(-half, half + 1) * h
        km = K.eval_x(zs)  # (2 half + 1, n, n)
        w = np.full(zs.shape, h)
        w[0] *= 0.5
        w[-1] *= 0.5
        kw = km * w[:, None, None]
        upad = np.concatenate(
            [np.repeat(values[:1], half, axis=0), values,
             np.repeat(values[-1:], half, axis=0)]
        )
        lo = 2 * half
        for a in range(n):
            acc = np.zeros(m, dtype=complex)
            for b in range(n):
                col = kw[:, a, b]
                if np.abs(col).max() == 0.0:
                    continue
                acc += np.convolve(col, upad[:, b])[lo:lo + m]
            out[:, a] = acc

    for A, xi in K.point_masses():
        out += _interp_shifted(xs, values, xi) @ A.T
    return out


def _place_column(s, n, target):
    out = np.zeros((s.shape[0], n), dtype=complex)
    out[:, target] = s[:, 0]
    return out


def grid_nonlinearity(F, xs, values, mu=(), tail_tol=1e-10):
    """``F(u, mu)`` on the grid; numeric counterpart of the exact series.

    Runs the exact evaluator's slot walk (``nonlin.walk_term``) on grid
    values, with ``grid_convolve`` in place of the coefficient identity.
    """
    mu = (mu,) if np.isscalar(mu) else tuple(mu)
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=complex)
    if values.ndim == 1:
        values = values[:, None]
    m, n = values.shape

    def conv(kern, v):
        return grid_convolve(kern, xs, v, tail_tol)

    out = np.zeros((m, n), dtype=complex)
    for t in F.terms:
        weight = t.coeff * mu_weight(t, mu)
        if weight == 0:
            continue
        out += weight * walk_term(t, [values] * t.degree, n, conv,
                                  lambda v, c: v[:, [c]], np.multiply,
                                  _place_column)
    return out


def _defect(K, F, xs, values, mu, tail_tol):
    return (
        values
        + grid_convolve(K, xs, values, tail_tol)
        + grid_nonlinearity(F, xs, values, mu, tail_tol)
    )


def residual(K, F, profile, mu=(), tail_tol=1e-10, require_convergence=False):
    """Defect norms of ``u + K*u + F(u, mu) = 0`` for a grid profile.

    Computes the defect on the grid and on its every-other-point coarsening;
    their difference estimates the quadrature error (the trapezoid rule is
    second order, so the coarse defect carries roughly four times the fine
    error).  Norms exclude the stencil margin at both ends.  With
    ``require_convergence`` a quadrature-dominated measurement raises.
    """
    xs, u = profile.xs, profile.values
    if K.n != profile.n:
        raise ValueError("kernel dimension does not match the profile")
    h = profile.h
    kernels = [K] + [k for t in F.terms
                     for k in (t.outer, *(kern for kern, _ in t.factors))
                     if k is not None]
    margin = max(_stencil_halfwidth(k, h, tail_tol) for k in kernels)
    margin_c = max(_stencil_halfwidth(k, 2 * h, tail_tol) for k in kernels)
    if 2 * margin >= len(xs) or 2 * margin_c >= len(xs[::2]):
        raise RuntimeError(
            "grid too narrow: the convolution stencil covers the whole domain"
        )
    r_fine = _defect(K, F, xs, u, mu, tail_tol)
    r_coarse = _defect(K, F, xs[::2], u[::2], mu, tail_tol)
    diff = np.abs(r_fine[::2] - r_coarse).max(axis=1)
    quadrature_error = float(diff[margin_c:len(diff) - margin_c].max())

    mag = np.abs(r_fine).max(axis=1)
    inner = mag[margin:len(mag) - margin]
    max_norm = float(inner.max())
    sq = (np.abs(r_fine[margin:len(mag) - margin]) ** 2).sum()
    l2_norm = float(np.sqrt(h * sq))
    converged = quadrature_error <= max(0.5 * max_norm, 1e-9)
    if require_convergence and not converged:
        raise RuntimeError(
            f"convolution quadrature did not converge: two-grid estimate "
            f"{quadrature_error:.3g} against residual {max_norm:.3g}"
        )
    return ResidualReport(
        max_norm=max_norm,
        l2_norm=l2_norm,
        quadrature_error=quadrature_error,
        converged=converged,
        margin=margin,
        xs=xs,
        values=r_fine,
    )


# ---------------------------------------------------------------------------
# shooting: reversible pulse


def find_homoclinic(lin, cub, lam_hat=1.0, start=1e-6, step=1e-3,
                    tol_return=1e-4, max_span=None):
    """Homoclinic loop of the reversible planar system ``a'' = lam lin a + cub a^3``.

    Shoots from the one-dimensional unstable manifold of the origin (offset
    ``start`` along the eigenvector), integrates to the symmetric section
    ``a' = 0`` with the crossing time refined by bisection, then continues
    for the mirrored duration and reports the closest return to the origin.
    Deterministic: fixed steps, fixed bisection depth.
    """
    lin, cub, lam_hat = float(lin), float(cub), float(lam_hat)
    if lam_hat * lin <= 0 or cub >= 0:
        raise ValueError(
            "homoclinic shooting needs an unstable origin (lam lin > 0) and a"
            " focusing cubic (cub < 0)"
        )
    k = sqrt(lam_hat * lin)
    peak = sqrt(2.0 * lam_hat * lin / -cub)
    if max_span is None:
        max_span = 4.0 * (log(peak / start) + 5.0) / k

    rate = lam_hat * lin

    def f(a, p):
        return p, rate * a + cub * (a * a * a)

    y = (start, start * k)
    ts, ys = array("d", [0.0]), array("d", y)
    t = 0.0
    crossing = None
    while t < max_span:
        ynew = rk4_step(f, y, step)
        if ynew[1] <= 0.0:
            lo, hi = 0.0, step
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if rk4_step(f, y, mid)[1] <= 0.0:
                    hi = mid
                else:
                    lo = mid
            tau = 0.5 * (lo + hi)
            y = rk4_step(f, y, tau)
            if t + tau > t:
                t += tau
                ts.append(t)
                ys.extend(y)
            else:
                ys[-2:] = array("d", y)
            crossing = t
            break
        y = ynew
        t += step
        ts.append(t)
        ys.extend(y)
    half = _planar_trajectory(ts, ys)
    if crossing is None:
        return ShootingResult(success=False, trajectory=half,
                              details={"rate": k, "reason": "no section crossing"})

    # return leg: mirror duration, track the closest approach to the origin
    nsteps = int(ceil(crossing / step))
    return_distance = np.inf
    for _ in range(nsteps):
        y = rk4_step(f, y, step)
        return_distance = min(return_distance, max(abs(y[0]), abs(y[1])))
    return ShootingResult(
        success=return_distance < tol_return,
        trajectory=half,
        section_value=float(half.ys[-1, 0].real),
        crossing_time=crossing,
        return_distance=return_distance,
        details={"rate": k, "peak_prediction": peak},
    )


# ---------------------------------------------------------------------------
# shooting: front


def find_front(kappa, alpha, beta, c_star, start=1e-6, step=None,
               tol_reach=1e-4, max_span=None):
    """Front of ``kappa a'' + c a' + a (alpha - beta a^2) = 0`` by shooting.

    Starts on the saddle's one-dimensional unstable manifold (eigenvector
    offset ``start`` from ``sqrt(alpha/beta)``) and integrates toward the
    rest state at the origin.  Success means the trajectory comes within
    ``tol_reach`` of the origin; the monotone flag checks the sign of the
    derivative samples (and non-negativity) up to that point.
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
    if step is None:
        step = 0.01 / max(1.0, s_unstable, c_star / kappa)
    if max_span is None:
        max_span = 3.0 * (log(a_star / start) / s_unstable
                          + log(a_star / tol_reach) / slow + 20.0)

    # numpy divides complex numbers by multiplying with the reciprocal; the
    # complex-array reference shooter in the tests must agree bit for bit
    inv_kappa = 1.0 / kappa

    def f(a, p):
        return p, -(c_star * p + a * (alpha - beta * (a * a))) * inv_kappa

    y = (a_star - start, -start * s_unstable)
    ys = array("d", y)
    nmax = int(ceil(max_span / step))
    reach_distance = max(abs(y[0]), abs(y[1]))
    success = False
    for _ in range(nmax):
        y = rk4_step(f, y, step)
        ys.extend(y)
        d = max(abs(y[0]), abs(y[1]))
        reach_distance = min(reach_distance, d)
        if d <= tol_reach:
            success = True
            break
        if y[0] < -0.5 * a_star or d > 1e6:
            break
    traj = _planar_trajectory(step * np.arange(len(ys) // 2), ys)
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


def _planar_coefficients(sf, expected, tol):
    """Coefficients of the scaled field at ``expected`` = {index: slot}.

    The kept entries must be exactly the expected ones, each concentrated on
    its slot, and the first expected entry, the flow coupling ``A' = B``,
    must be 1.  Returns ``(coefficients, scale)``, with ``scale`` the largest
    kept magnitude, against which ``tol`` is relative.
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
        if off > tol * scale:
            raise RuntimeError(
                f"scaled entry {idx.powers}|{idx.mu} is not concentrated on slot {slot}"
            )
        coeffs[idx] = complex(vec[slot])
    if abs(coeffs[next(iter(expected))] - 1.0) > tol * scale:
        raise RuntimeError("flow coupling A' = B is not normalized")
    return coeffs, scale


def _check_real(z, name, scale, tol):
    if abs(z.imag) > tol * scale:
        raise RuntimeError(f"coefficient {name} is not real: {z}")
    return float(z.real)


def planar_pulse_system(sf, tol=1e-8):
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
    coeffs, scale = _planar_coefficients(sf, expected, tol)
    lin = coeffs[JetIndex((1, 0, 0, 0), (1,))]
    cub = coeffs[JetIndex((2, 1, 0, 0), (0,))]
    for idx, partner in (
        (JetIndex((0, 1, 0, 0), (1,)), lin),
        (JetIndex((1, 2, 0, 0), (0,)), cub),
    ):
        if abs(coeffs[idx] - np.conj(partner)) > tol * scale:
            raise RuntimeError("conjugate entries of the scaled field disagree")
    lin = _check_real(lin, "lin", scale, tol)
    cub = _check_real(cub, "cub", scale, tol)
    if lin <= 0 or cub >= 0:
        raise RuntimeError(
            f"pulse balance needs lin > 0 > cub, got lin={lin}, cub={cub}"
        )
    return lin, cub


def planar_front_system(J, tol=1e-8):
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
    coeffs, scale = _planar_coefficients(sf, expected, tol)
    g0 = _check_real(coeffs[JetIndex((0, 1), (0, 1))], "g0", scale, tol)
    ga = _check_real(coeffs[JetIndex((1, 0), (1, 0))], "ga", scale, tol)
    gb = _check_real(coeffs[JetIndex((3, 0), (0, 0))], "gb", scale, tol)
    if g0 >= 0 or ga >= 0 or gb <= 0:
        raise RuntimeError(
            f"front balance needs g0, ga < 0 < gb, got ({g0}, {ga}, {gb})"
        )
    return -1.0 / g0, ga / g0, -gb / g0


# ---------------------------------------------------------------------------
# end-to-end drivers


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


def _hermite(ts, f, df, t):
    """Cubic Hermite interpolant of values ``f``, slopes ``df`` at nodes ``ts``."""
    i = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
    h = ts[i + 1] - ts[i]
    s = (t - ts[i]) / h
    return (
        (1.0 + 2.0 * s) * (1.0 - s) ** 2 * f[i]
        + s * (1.0 - s) ** 2 * h * df[i]
        + s**2 * (3.0 - 2.0 * s) * f[i + 1]
        - s**2 * (1.0 - s) * h * df[i + 1]
    )


def _pulse_orbit(J, step_scaled, start):
    """The parameter-independent part of the pulse family.

    Scales the reduced field to its leading pulse balance and shoots the
    reversible planar homoclinic once.  Returns ``(ell, lin, cub, shot)``.
    """
    ell = _pair_phases(J)
    sf = scale_field(J.field, (1, 1, 2, 2), 1.0, (2,),
                     phases=(ell, -ell, ell, -ell))
    lin, cub = planar_pulse_system(sf)
    hom = find_homoclinic(lin, cub, lam_hat=1.0, start=start, step=step_scaled)
    if not hom.success:
        raise RuntimeError("no homoclinic loop detected in the scaled system")
    return ell, lin, cub, hom


def _pulse_on_grid(J, orbit, lam, step_x, span_factor):
    """Map the scaled orbit to parameter ``lam`` and reconstruct the profile.

    The half orbit is interpolated by cubic Hermite pieces whose node slopes
    come from the planar field itself: ``a' = p`` and ``p' = lin a + cub a^3``.
    """
    ell, lin, cub, hom = orbit
    eps = sqrt(lam)
    T1 = hom.crossing_time
    m = int(ceil(span_factor * T1 / (eps * step_x)))
    xs = np.arange(-m, m + 1) * step_x
    # half orbit, peak at tau = 0: a even, a' odd
    tau = hom.trajectory.xs - T1
    a_n = hom.trajectory.ys[:, 0].real
    p_n = hom.trajectory.ys[:, 1].real
    z = -np.abs(eps * xs)
    a = _hermite(tau, a_n, p_n, z)
    p = _hermite(tau, p_n, lin * a_n + cub * a_n**3, z)
    p = np.where(xs <= 0, p, -p)
    phase = np.exp(1j * ell * xs)
    A = eps * a * phase
    B = eps**2 * p * phase
    traj = Trajectory(xs, np.stack([A, np.conj(A), B, np.conj(B)], axis=1))
    return reconstruct(J, traj, mu=(lam,))


def pulse_profile(J, lam, step_x=0.1, step_scaled=1e-3, start=1e-7,
                  span_factor=0.98):
    """Reconstructed pulse at parameter ``lam > 0``.

    Scales the reduced field to its leading pulse balance, shoots the
    reversible planar homoclinic, extends it symmetrically, and maps the
    slow coordinates back through carrier phases and the graph map.
    Returns ``(GridProfile, ShootingResult)``.
    """
    if lam <= 0:
        raise ValueError("pulse reconstruction needs lam > 0")
    orbit = _pulse_orbit(J, step_scaled, start)
    return _pulse_on_grid(J, orbit, lam, step_x, span_factor), orbit[-1]


def slope_loglog(xs, ys):
    """Least-squares slope of ``log ys`` against ``log xs``."""
    return float(
        np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)), 1)[0]
    )


def pulse_scaling_report(K, J, lams, step_x=0.1, on_profile=None,
                         step_scaled=1e-3, start=1e-7, span_factor=0.98):
    """Residual-vs-amplitude scaling of the pulse family.

    Shoots the parameter-independent scaled homoclinic once, builds the
    reconstructed pulse for every parameter value, measures the equation
    defect, and fits the log-log slope of residual against amplitude.
    ``details['amplitude_ratio']`` is peak / sqrt(lam) at the smallest
    parameter.  ``on_profile(lam, profile, residual_report)`` is called once
    per parameter when supplied.  The remaining keywords are those of
    ``pulse_profile``.
    """
    lams = sorted(float(l) for l in lams)
    if lams[0] <= 0:
        raise ValueError("pulse reconstruction needs lam > 0")
    orbit = _pulse_orbit(J, step_scaled, start)
    hom = orbit[-1]
    rows = []
    for lam in reversed(lams):
        prof = _pulse_on_grid(J, orbit, lam, step_x, span_factor)
        rep = residual(K, J.nonlinearity, prof, mu=(lam,))
        if on_profile is not None:
            on_profile(lam, prof, rep)
        rows.append(
            {
                "lambda": lam,
                "amplitude": prof.peak(),
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


def front_profile(J, epsilon, c_star, scaled_step=None, start=1e-6,
                  tol_reach=1e-4):
    """Reconstructed front at parameter ``epsilon`` and scaled speed ``c_star``.

    Extracts the planar front system from the reduction, shoots from the
    saddle, and maps the scaled trajectory back through the graph map with
    parameter values ``(epsilon^2, epsilon c_star)``.  The shooting result's
    details record the planar coefficients ``kappa``, ``alpha``, ``beta``.
    Returns ``(GridProfile, ShootingResult)``.
    """
    if epsilon <= 0:
        raise ValueError("front reconstruction needs epsilon > 0")
    kappa, alpha, beta = planar_front_system(J)
    fr = find_front(kappa, alpha, beta, c_star, start=start,
                    step=scaled_step, tol_reach=tol_reach)
    if not fr.success:
        raise RuntimeError("front shooting did not reach the rest state")
    fr.details.update(kappa=kappa, alpha=alpha, beta=beta)
    xs = fr.trajectory.xs / epsilon
    ys = np.stack(
        [epsilon * fr.trajectory.ys[:, 0], epsilon**2 * fr.trajectory.ys[:, 1]],
        axis=1,
    )
    traj = Trajectory(xs, ys)
    return reconstruct(J, traj, mu=(epsilon**2, epsilon * c_star)), fr


def front_report(K, J, epsilon, c_star, on_profile=None, **kwargs):
    """Wave report for a single front run: defect norms and monotonicity.

    ``on_profile(epsilon, profile, residual_report)`` is called when supplied.
    """
    prof, fr = front_profile(J, epsilon, c_star, **kwargs)
    rep = residual(K, J.nonlinearity, prof, mu=(epsilon**2, epsilon * c_star))
    if on_profile is not None:
        on_profile(epsilon, prof, rep)
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
