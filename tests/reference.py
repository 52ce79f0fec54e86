"""Reference algebra of the test suite: what the tests use of the
quasi-polynomial ring, of exact evaluation on the manifold, of kernels and of
wave profiles beyond what ``cm`` runs, as free functions over the library's
types.  The pipeline holds the jet on lattice rows and checks waves on
x-grids, so none of this is library code.  The ring's sums, scalar
multiples, components and pointwise product, and ``apply_term`` over them,
are the independent exact evaluator that ``jet.apply_term`` is checked
against.
"""

import cmath
import math
from contextlib import ExitStack, contextmanager
from math import comb
from unittest import mock

import numpy as np
from numpy.polynomial import polynomial as npoly

from cmnl import kernel as _kernel
from cmnl import spectrum as _spectrum
from cmnl.kernel import (
    ExponentialMixture, GaussianMixture, SumKernel, apply_T, convolve,
    taylor_transforms)
from cmnl.nonlin import mu_weight, walk_outer, walk_slots
from cmnl.quasipoly import FREQ_TOL, QuasiPolynomial
from cmnl.verify import (
    PULSE_SPAN, PULSE_START, PULSE_STEP_X, RECONSTRUCT_ROWS, GridProfile,
    Trajectory, _pulse_on_grid, _pulse_orbit, _sech_orbit, _stencil_halfwidth,
    _uniform_spacing, grid_convolve, reconstruct)

# -- the quasi-polynomial ring -----------------------------------------------


def zero(n=1):
    return QuasiPolynomial(n, ())


def exponential(nu, vec=(1.0,)):
    """vec * exp(nu x)."""
    return monomial(nu, 0, vec)


def monomial(nu, power, vec=(1.0,)):
    """vec * x^power * exp(nu x)."""
    vec = np.atleast_1d(np.asarray(vec, dtype=complex))
    coeffs = np.zeros((power + 1, vec.size), dtype=complex)
    coeffs[power] = vec
    return QuasiPolynomial(vec.size, [(nu, coeffs)])


def frequencies(f):
    return [nu for nu, _ in f.terms]


def term_for(f, nu, tol=FREQ_TOL):
    """Coefficient array for the term at frequency ``nu`` (zero-size if absent)."""
    for nu_j, coeffs in f.terms:
        if abs(nu_j - nu) <= tol:
            return coeffs
    return np.zeros((0, f.n), dtype=complex)


def max_coeff(f):
    """Largest coefficient magnitude (0 for the zero element)."""
    return max((np.abs(c).max() for _, c in f.terms), default=0.0)


def is_zero(f, tol=0.0):
    return max_coeff(f) <= tol


def add(f, g):
    """The sum of two quasi-polynomials of one dimension."""
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    return QuasiPolynomial(f.n, list(f.terms) + list(g.terms))


def sub(f, g):
    return add(f, QuasiPolynomial(g.n, [(nu, -c) for nu, c in g.terms]))


def scale(f, a):
    """``f`` times the complex scalar ``a``."""
    a = complex(a)
    return QuasiPolynomial(f.n, [(nu, a * c) for nu, c in f.terms])


def component(f, i):
    """Scalar-valued quasi-polynomial holding component ``i`` of ``f``."""
    if not 0 <= i < f.n:
        raise IndexError(f"component {i} out of range for dimension {f.n}")
    if f.n == 1:
        return f
    return QuasiPolynomial(1, [(nu, c[:, i : i + 1]) for nu, c in f.terms])


def multiply(f, g):
    """Pointwise product, term by term.  At least one factor must be
    scalar-valued (n = 1)."""
    if f.n != 1 and g.n != 1:
        raise ValueError("product needs a scalar-valued factor")
    if f.n == 1 and g.n != 1:
        f, g = g, f  # scalar factor second
    n = f.n
    out = []
    for nu1, c1 in f.terms:
        for nu2, c2 in g.terms:
            d1, d2 = c1.shape[0], c2.shape[0]
            prod = np.zeros((d1 + d2 - 1, n), dtype=complex)
            for q2 in range(d2):
                prod[q2 : q2 + d1] += c1 * c2[q2, 0]
            out.append((nu1 + nu2, prod))
    return QuasiPolynomial(n, out)


def place_component(f, n, i):
    """Vector-valued quasi-polynomial with scalar ``f`` in component ``i``."""
    if f.n != 1:
        raise ValueError("place_component expects a scalar-valued argument")
    if not 0 <= i < n:
        raise IndexError(f"component {i} out of range for dimension {n}")
    if n == 1:
        return f
    out = []
    for nu, c in f.terms:
        arr = np.zeros((c.shape[0], n), dtype=complex)
        arr[:, i] = c[:, 0]
        out.append((nu, arr))
    return QuasiPolynomial(n, out)


def mul(a, b):
    """Product of two quasi-polynomials (one of them scalar-valued), or of a
    quasi-polynomial and a number, in either order."""
    if isinstance(a, (int, float, complex)):
        a, b = b, a
    if isinstance(b, (int, float, complex)):
        return scale(a, b)
    return multiply(a, b)


def differentiate(f):
    """d/dx, term by term: (p' + nu p) exp(nu x)."""
    out = []
    for nu, coeffs in f.terms:
        new = nu * coeffs
        new[:-1] += np.arange(1, coeffs.shape[0])[:, None] * coeffs[1:]
        out.append((nu, new))
    return QuasiPolynomial(f.n, out)


def shift(f, xi):
    """Translate: return g with g(x) = f(x + xi)."""
    xi = complex(xi)
    out = []
    for nu, coeffs in f.terms:
        deg1 = coeffs.shape[0]
        new = np.zeros_like(coeffs)
        for q in range(deg1):
            for j in range(q + 1):
                new[j] += comb(q, j) * xi ** (q - j) * coeffs[q]
        out.append((nu, cmath.exp(nu * xi) * new))
    return QuasiPolynomial(f.n, out)


# -- exact evaluators of the reduction ---------------------------------------


def index_monomial(idx, coords, mu=()):
    """Numeric value of ``c^powers mu^mu`` for the ``JetIndex`` ``idx``.

    Coordinate j is ``coords[..., j]``: one point, or a path with one point
    per row.  Every parameter the index raises to a positive power needs a
    value in ``mu``.
    """
    if len(mu) < len(idx.mu) and any(idx.mu[len(mu):]):
        raise ValueError(
            f"index needs {len(idx.mu)} parameter values, got {len(mu)}"
        )
    coords = np.asarray(coords)
    w = np.ones(coords.shape[:-1], dtype=complex)
    for j, p in enumerate(idx.powers):
        if p:
            w = w * coords[..., j] ** p
    for v, r in zip(mu, idx.mu):
        if r:
            w = w * v**r
    return w


def apply_term(term, args):
    """Evaluate one term on quasi-polynomial arguments, exactly, in the
    algebra above: every product, convolution and placement canonicalizes a
    ``QuasiPolynomial``.  The oracle of ``jet.apply_term``, which runs the
    same slot walk on lattice rows.  The formal ``mu^r`` factor is not
    applied."""
    if len(args) != term.degree:
        raise ValueError(
            f"term of degree {term.degree} applied to {len(args)} arguments"
        )
    n = args[0].n
    if any(u.n != n for u in args):
        raise ValueError("argument dimensions differ")
    prod = walk_slots(term, args, n, convolve, component, multiply)
    return scale(walk_outer(term, prod, n, convolve, place_component), term.coeff)


def apply_series(F, u, mu=()):
    """Evaluate the whole series at the single argument ``u``, exactly.

    ``mu`` supplies numeric values of the formal parameters; every term's
    arguments are all equal to ``u``.
    """
    mu = (mu,) if np.isscalar(mu) else tuple(mu)
    out = zero(u.n)
    for t in F.terms:
        weight = mu_weight(t, mu)
        if weight == 0:
            continue
        out = add(out, scale(apply_term(t, [u] * t.degree), weight))
    return out


def coordinates(P, u):
    """Coordinates ``A^{-1} (f_k(u))_k`` of the quasi-polynomial ``u`` under
    the projection ``P``, by applying each functional to ``u`` as a whole."""
    return P.gram_inverse @ np.array([f.apply(u) for f in P.functionals])


def combine(basis, coords):
    """The canonical coordinate map: coords -> sum_k coords_k phi_k."""
    coords = np.asarray(coords, dtype=complex)
    if coords.shape != (basis.size,):
        raise ValueError(f"expected {basis.size} coordinates, got {coords.shape}")
    total = zero(basis.n)
    for c, el in zip(coords, basis.elements):
        total = add(total, scale(el.function, c))
    return total


def evaluate_field(fld, coords, mu=()):
    """Numeric right-hand side ``f(coords, mu)`` of the reduced equation."""
    coords = np.asarray(coords, dtype=complex)
    out = np.zeros(coords.shape[0], dtype=complex)
    for idx, vec in fld.items():
        out += np.asarray(vec) * index_monomial(idx, coords, mu)
    return out


def manifold_point(J, coords, mu=()):
    """Quasi-polynomial on the manifold graph at the given coordinates."""
    u = combine(J.basis, coords)
    for idx, psi in J.psi.items():
        w = index_monomial(idx, coords, mu)
        if w != 0:
            u = add(u, scale(psi, w))
    return u


def equation_residual(K, F, u, mu=()):
    """Exact algebra residual ``u + K*u + F(u, mu)``."""
    return add(apply_T(K, u), apply_series(F, u, mu))


# -- kernels -------------------------------------------------------------------


def moment(K, m, nu):
    """kappa_m(nu) = int x^m K(x) exp(-nu x) dx."""
    return (-1) ** m * K.transform(nu, m)


def breakpoints(K):
    """x-locations where the kernel is not smooth (for quadrature panels):
    the centres of the exponential terms, also inside sums."""
    if isinstance(K, SumKernel):
        return [b for p in K.parts for b in breakpoints(p)]
    if isinstance(K, ExponentialMixture):
        return [b for _, _, b in K.terms]
    return []


def t_series(K, nus, degree):
    """Taylor coefficients of That = I + Khat at ``nus`` through ``degree``."""
    series = taylor_transforms(K, nus, degree)
    series[:, 0] += np.eye(K.n)
    return series


def convolve_quadrature(K, u, xs, tol=1e-12, panel=1.0, npts=24):
    """Convolution (K * u)(xs) by panelled Gauss-Legendre quadrature.

    Independent x-space route used to cross-check ``kernel.convolve``:
    integrates K(z) u(x - z) over |z| <= decay radius.  ``u`` may be a
    QuasiPolynomial or a callable returning (n,) values.  Returns
    (len(xs), n).
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ueval = u.evaluate if isinstance(u, QuasiPolynomial) else u
    n = K.n
    R = K.decay_radius(tol)
    nodes, weights = np.polynomial.legendre.leggauss(npts)
    edges = np.linspace(-R, R, max(2, int(np.ceil(2 * R / panel)) + 1))
    inner = [b for b in breakpoints(K) if -R < b < R]
    if inner:
        edges = np.unique(np.concatenate([edges, inner]))
    out = np.zeros((xs.size, n), dtype=complex)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        zs = mid + half * nodes
        Kz = K.eval_x(zs)  # (npts, n, n)
        for iz, z in enumerate(zs):
            vals = np.atleast_2d(ueval(xs - z))
            out += (weights[iz] * half) * vals @ Kz[iz].T
    for A, xi in K.point_masses():
        vals = np.atleast_2d(ueval(xs - xi))
        out += vals @ A.T
    return out


def scale_kernel(K, s):
    """The kernel s * K of a closed-form family, in its family."""
    return type(K)([(s * c, *rest) for c, *rest in K.terms], n=K.n)


def differentiate_kernel(K):
    """The kernel K' (transform nu * Khat(nu)) of a gaussian mixture."""
    new_terms = []
    for coeffs, a, b in K.terms:
        deg1 = coeffs.shape[0]
        new = np.zeros((deg1 + 1, K.n, K.n), dtype=complex)
        for j in range(deg1):
            if j >= 1:
                new[j - 1] += j * coeffs[j]
            # d/dx exp(-a(x-b)^2) factor: -2a(x-b)
            new[j] += 2 * a * b * coeffs[j]
            new[j + 1] += -2 * a * coeffs[j]
        new_terms.append((new, a, b))
    return GaussianMixture(new_terms, n=K.n)


def add_kernels(*kernels):
    """One ``SumKernel`` over the parts of all ``kernels``."""
    return SumKernel([p for k in kernels
                      for p in (k.parts if isinstance(k, SumKernel) else [k])])


# -- an independent root count --------------------------------------------------


WINDING_CHUNK = 1 << 16  # boundary points per transform call


def winding_count(K, points):
    """Winding number of d = det(I + Khat) along the closed polyline
    ``points``: the sum of its wrapped phase steps over 2 pi.

    The oracle of the root counts of ``spectrum``, by the argument principle
    on a fixed sampling with no refinement.  Every step must turn by less
    than pi/2, or the sampling is too coarse to trust and the count fails.
    """
    points = np.asarray(points, dtype=complex)
    d = np.concatenate([
        np.linalg.det(np.eye(K.n) + K.transform_batch(points[i:i + WINDING_CHUNK]))
        for i in range(0, points.size, WINDING_CHUNK)])
    steps = np.angle(np.roll(d, -1) / d)
    assert np.abs(steps).max() < np.pi / 2, "winding steps too coarse"
    w = steps.sum() / (2 * np.pi)
    assert abs(w - round(w)) < 1e-6
    return round(w)


def _lapack_inverse(that):
    try:
        return np.linalg.inv(that)
    except np.linalg.LinAlgError:
        raise _spectrum.ContourError("contour hits a root") from None


@contextmanager
def lapack_root_location():
    """Root location through LAPACK on 1 x 1 matrices too, as for n > 1:
    the batched inverse of ``_log_derivative``, the determinants of
    ``char_value`` and ``_confirm``, and the SVD 2-norms of
    ``_choose_window`` and ``validate_decay``.  The oracle of the scalar
    forms that ``spectrum`` and ``kernel`` take for n = 1."""
    def norm(M):
        return np.linalg.norm(M, 2, axis=(-2, -1))

    with ExitStack() as stack:
        for module, name, value in (
                (_spectrum, "_inverse", _lapack_inverse),
                (_spectrum, "_det", np.linalg.det),
                (_spectrum, "spectral_norm", norm),
                (_kernel, "spectral_norm", norm)):
            stack.enter_context(mock.patch.object(module, name, value))
        yield


def rectangle(re0, re1, im0, im1, spacing=None):
    """Counter-clockwise samples of the rectangle's boundary ``spacing``
    apart, by default a sixteenth of its shorter side and at most 0.0025:
    the roots the counts of ``spectrum`` check lie at least half a strip
    width from the long sides, and the poles of an exponential mixture at
    least 0.01 from them."""
    if spacing is None:
        spacing = min(0.0025, min(re1 - re0, im1 - im0) / 16)
    corners = [complex(re1, im0), complex(re1, im1), complex(re0, im1), complex(re0, im0)]
    sides = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        n = int(np.ceil(abs(b - a) / spacing))
        sides.append(a + np.linspace(0.0, 1.0, n, endpoint=False) * (b - a))
    return np.concatenate(sides)


def circle(center, radius, nodes=4096):
    """``nodes`` equispaced samples of the circle, counter-clockwise."""
    return center + radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)


# -- quadrature rules and polynomials -------------------------------------------


def gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]:
    Newton's method on the three-term recurrence of P_n, from the usual
    cosine guesses.  The oracle of the rules that ``spectrum`` tables."""
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1)
        x = x - p1 / dp
    return x, 2 / ((1 - x * x) * dp * dp)


def gaussian_transform(K, nus, order=0):
    """``GaussianMixture.transform_batch`` with P_m evaluated by
    ``numpy.polynomial``'s ``polyval``."""
    nus = np.asarray(nus, dtype=complex)
    out = np.zeros(nus.shape + (K.n, K.n), dtype=complex)
    for coeffs, a, b in K.terms:
        i0 = np.sqrt(np.pi / a) * np.exp(nus * nus / (4 * a) - nus * b)
        polys = K._log_deriv_polys(a, b, coeffs.shape[0] - 1 + order)
        for j in range(coeffs.shape[0]):
            val = npoly.polyval(nus, polys[j + order])
            out += ((-1) ** j * val * i0)[..., None, None] * coeffs[j]
    return out


def sech_weight_moments(nu, smax):
    """``projection.sech_weight_moments`` through ``numpy.polynomial``:
    pi sec(pi nu/2) times the tan-polynomials P_{j+1} = (pi/2)(t P_j +
    (1 + t^2) P_j')."""
    a = np.pi / 2
    t = complex(np.tan(a * nu))
    sec = 1.0 / complex(np.cos(a * nu))
    poly = np.array([1.0])
    out = []
    for _ in range(smax + 1):
        out.append(np.pi * sec * complex(npoly.polyval(t, poly)))
        poly = a * npoly.polyadd(npoly.polymul([0.0, 1.0], poly),
                                 npoly.polymul([1.0, 0.0, 1.0], npoly.polyder(poly)))
    return out


def _real(z):
    if z.imag:
        raise ValueError(f"complex coefficient {z} in a real-coefficient kernel")
    return float(z.real)


def kernel_to_data(K):
    """The problem-file dict (``problem.kernel_from_data``) of a scalar gaussian or
    exponential mixture with real coefficients, or of a sum of them."""
    if isinstance(K, SumKernel):
        return {"family": "sum", "parts": [kernel_to_data(p) for p in K.parts]}
    terms = []
    for c, a, b in K.terms:
        if isinstance(K, ExponentialMixture):
            terms.append({"c": _real(c[0, 0]), "a": a, "b": b})
        elif c.shape[0] == 1:
            terms.append({"c": _real(c[0, 0, 0]), "a": a, "b": b})
        else:
            poly = [_real(p) for p in c[:, 0, 0]]
            terms.append({"c": 1.0, "a": a, "b": b, "poly": poly})
    return {"family": K.family, "n": K.n, "terms": terms}


# -- waves -----------------------------------------------------------------------


def _place_column(s, n, target):
    out = np.zeros((s.shape[0], n), dtype=complex)
    out[:, target] = s[:, 0]
    return out


def grid_nonlinearity(F, xs, values, mu=()):
    """``F(u, mu)`` on the grid, one ``grid_convolve`` per kernel of a term.

    Runs the exact evaluator's slot walk (``nonlin.walk_slots`` and
    ``walk_outer``) on grid values, term by term, with ``grid_convolve`` in
    place of the coefficient identity.
    """
    mu = (mu,) if np.isscalar(mu) else tuple(mu)
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=complex)
    if values.ndim == 1:
        values = values[:, None]
    m, n = values.shape

    def conv(kern, v):
        return grid_convolve(kern, xs, v)

    out = np.zeros((m, n), dtype=complex)
    for t in F.terms:
        weight = t.coeff * mu_weight(t, mu)
        if weight == 0:
            continue
        prod = walk_slots(t, [values] * t.degree, n, conv,
                          lambda v, c: v[:, [c]], np.multiply)
        out += weight * walk_outer(t, prod, n, conv, _place_column)
    return out


def defect_per_term(K, F, xs, values, mu=()):
    """``u + K*u + F(u, mu)`` with a convolution per term: the oracle of the
    grouped defect of ``verify.residual``."""
    return values + grid_convolve(K, xs, values) + grid_nonlinearity(F, xs, values, mu)


def defect(K, F, xs, values, mu=()):
    """``u + K*u + F(u, mu)`` on the whole grid, one convolution per outer
    kernel: ``verify._defect`` before it went block by block, and its
    bit-for-bit oracle.  Every convolution and group sum spans the grid."""
    m, n = values.shape

    def conv(kern, v):
        return grid_convolve(kern, xs, v)

    groups = {(K, None): values.copy()}
    for t in F.terms:
        weight = t.coeff * mu_weight(t, mu)
        if weight == 0:
            continue
        prod = walk_slots(t, [values] * t.degree, n, conv,
                          lambda v, c: v[:, [c]], np.multiply)
        if t.outer is not None and t.outer.n == 1 and n != 1:
            key, col = (t.outer, t.target), 0
        else:
            key, col = (t.outer, None), t.target
        if key not in groups:
            groups[key] = np.zeros((m, n if key[1] is None else 1), dtype=complex)
        groups[key][:, col] += weight * prod[:, 0]
    out = values.copy()
    for (kern, target), acc in groups.items():
        if kern is not None:
            acc = conv(kern, acc)
        if target is None:
            out += acc
        else:
            out[:, target] += acc[:, 0]
    return out


def whole_grid_residual(K, F, profile, mu=(), rows=RECONSTRUCT_ROWS):
    """``(max_norm, l2_norm, quadrature_error, defect)`` of ``verify.residual``
    from whole-grid defects (``defect``) on the grid and its every-other-point
    coarsening: the bit-for-bit oracle of the blocked residual.  The squares
    of the l2 norm are summed per block of ``rows`` grid rows, in
    ``residual``'s order."""
    profile = whole_profile(profile)
    xs, u, h = profile.xs, profile.values, profile.h
    kernels = [K] + [k for t in F.terms
                     for k in (t.outer, *(kern for kern, _ in t.factors))
                     if k is not None]
    margin = max(_stencil_halfwidth(k, h) for k in kernels)
    margin_c = max(_stencil_halfwidth(k, 2 * h) for k in kernels)
    r_fine = defect(K, F, xs, u, mu)
    r_coarse = defect(K, F, xs[::2], u[::2], mu)
    diff = np.abs(r_fine[::2] - r_coarse).max(axis=1)
    quadrature_error = float(diff[margin_c:len(diff) - margin_c].max())
    m = len(xs)
    sq = 0.0
    for lo in range(0, m, rows):
        block = np.abs(r_fine[max(lo, margin):min(lo + rows, m - margin)])
        if block.size:
            sq += (block**2).sum()
    return (float(np.abs(r_fine[margin:m - margin]).max()),
            float(np.sqrt(h * sq)), quadrature_error, r_fine)


def array_profile(xs, values):
    """The ``GridProfile`` that serves the rows of two arrays, kept as ``xs``
    and ``values`` (a vector is one component).  The grid must be uniform,
    and the arrays of one length."""
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=complex)
    if values.ndim == 1:
        values = values[:, None]
    if values.shape[0] != xs.shape[0]:
        raise ValueError("profile sample count mismatch")
    _uniform_spacing(xs)
    profile = GridProfile(*values.shape, lambda lo, hi: xs[lo:hi],
                          lambda lo, hi: values[lo:hi])
    profile.xs, profile.values = xs, values
    return profile


def whole_profile(profile):
    """``profile`` with every row computed: an ``array_profile``."""
    if hasattr(profile, "values"):
        return profile
    return array_profile(profile.x(0, profile.size), profile.rows(0, profile.size))


def trajectory_profile(J, trajectory, mu=()):
    """``verify.reconstruct`` along a ``Trajectory``, its coordinates the
    rows of ``trajectory.ys``, every row computed: an ``array_profile``."""
    xs, ys = trajectory.xs, trajectory.ys
    return whole_profile(reconstruct(
        J, len(xs), lambda lo, hi: xs[lo:hi],
        lambda lo, hi: np.ascontiguousarray(ys[lo:hi].T), mu))


def peak(profile):
    """Largest magnitude of a profile."""
    return float(np.abs(whole_profile(profile).values).max())


def whole_grid_pulse(J, orbit, lam, step_x=PULSE_STEP_X):
    """``verify._pulse_on_grid`` from one trajectory over the whole grid, its
    coordinate columns ``(A, conj A, B, conj B)`` side by side: the
    bit-for-bit oracle of the blocked pulse."""
    ell, hom = orbit
    eps = math.sqrt(lam)
    m = int(math.ceil(PULSE_SPAN * hom.crossing_time / (eps * step_x)))
    xs = np.arange(-m, m + 1) * step_x
    a, p = _sech_orbit(hom.section_value, hom.details["rate"], eps * xs)
    phase = np.exp(1j * ell * xs)
    A = eps * a * phase
    B = eps**2 * p * phase
    traj = Trajectory(xs, np.stack([A, np.conj(A), B, np.conj(B)], axis=1))
    return trajectory_profile(J, traj, mu=(lam,))


def pulse_profile(J, lam, step_x=PULSE_STEP_X, start=PULSE_START):
    """Reconstructed pulse at parameter ``lam > 0``.

    Scales the reduced field to its leading pulse balance, evaluates the
    closed-form reversible planar homoclinic on the grid, and maps the slow
    coordinates back through carrier phases and the graph map.
    Returns ``(GridProfile, ShootingResult)``, the profile array-backed.
    """
    if lam <= 0:
        raise ValueError("pulse reconstruction needs lam > 0")
    orbit = _pulse_orbit(J, start)
    return whole_profile(_pulse_on_grid(J, orbit, lam, step_x)), orbit[-1]


def halfwidth(profile):
    return float(profile.xs[-1] - profile.xs[0]) / 2.0


def boundary_fraction(profile):
    """Largest boundary magnitude relative to the peak."""
    p = peak(profile)
    if p == 0.0:
        return 0.0
    edge = max(np.abs(profile.values[0]).max(), np.abs(profile.values[-1]).max())
    return float(edge / p)


def localized(profile, tol=1e-6):
    return boundary_fraction(profile) <= tol


def decay_length(profile):
    """Tail e-folding length, estimated from running maxima.

    Per side, the length over which the running maximum grows by a factor e
    from the boundary value; infinite when the profile does not decay toward
    that side.  Oscillation-proof (uses envelopes); an estimate, meant for
    grid-sizing sanity checks.
    """
    mag = np.abs(profile.values).max(axis=1)
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
        worst = max(worst, hit[0] * profile.h)
    return worst


# -- report layout and comparison ----------------------------------------------


def quasi_to_data(f):
    """The nested-list layout of a quasi-polynomial in ``cm reduce`` reports:
    {"n": n, "terms": [{"nu": [re, im], "poly": ...}]}, ``poly`` a list over
    degree (constant first) of lists of ``[re, im]`` pairs, one per component.
    """
    terms = []
    for nu, coeffs in f.terms:
        poly = [[[float(c.real), float(c.imag)] for c in row] for row in coeffs]
        terms.append({"nu": [float(nu.real), float(nu.imag)], "poly": poly})
    return {"n": f.n, "terms": terms}


def quasi_from_data(data):
    """The quasi-polynomial of ``quasi_to_data`` output (or its JSON)."""
    n = int(data["n"])
    terms = []
    for t in data["terms"]:
        rows = [[complex(pair[0], pair[1]) for pair in row] for row in t["poly"]]
        terms.append((complex(t["nu"][0], t["nu"][1]),
                      np.array(rows, dtype=complex).reshape(-1, n)))
    return QuasiPolynomial(n, terms)


def isclose(f, g, tol=1e-10):
    """True when max coefficient of f - g is below tol * (1 + max scale)."""
    scale = 1.0 + max(max_coeff(f), max_coeff(g))
    return max_coeff(sub(f, g)) <= tol * scale
