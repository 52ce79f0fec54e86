"""Convolution kernels: closed-form families, transforms, convolution.

A kernel is a matrix-valued function K : R -> C^{n x n} with exponential
decay.  Everything downstream consumes its two-sided Laplace transform
Khat(nu) = int K(x) exp(-nu x) dx and the nu-derivatives, analytic on a strip
|Re nu| < eta0; the exponential moments int x^m K(x) exp(-nu x) dx are
(-1)^m Khat^(m)(nu).  Convolution maps quasi-polynomials to themselves:

    K * (x^q exp(nu x)) = exp(nu x) * sum_{r=0}^q C(q,r) Khat^(r)(nu) x^{q-r}

(expand (x - z)^q under the integral), implemented exactly in ``convolve``
and, per frequency, as ``convolution_matrix``.  The grid code in ``verify``
convolves with ``eval_x`` and ``point_masses`` instead.

Every transform derivative is exact: the closed-form families have
derivative recursions, and a symbol-defined kernel takes its caller's
``derivative``.  There are no finite differences, which would lose the
jet's digits at the orders it reaches.
"""

from math import comb, factorial

import numpy as np

from cmnl.quasipoly import QuasiPolynomial


def _as_matrix(c, n):
    """Coerce scalar / nested-list coefficient to an (n, n) complex matrix."""
    arr = np.asarray(c, dtype=complex)
    if arr.ndim == 0:
        return arr * np.eye(n, dtype=complex)
    if arr.shape != (n, n):
        raise ValueError(f"coefficient must be scalar or shape ({n}, {n})")
    return arr


class Kernel:
    """Base class: transform/moment interface shared by all families."""

    n = 1

    def transform(self, nu, order=0):
        """Khat^(order)(nu) as an (n, n) array."""
        return self.transform_batch(complex(nu), order)

    def transform_batch(self, nus, order=0):
        """Khat^(order) at every point of ``nus``.

        ``nus`` is a complex scalar or array of any shape; the result has
        shape ``nus.shape + (n, n)`` and is a new array the caller may
        modify.  Each family evaluates all points in one pass of array
        arithmetic, so callers that sample many points (contours, norm
        scans) should make one call here rather than one ``transform`` per
        point.
        """
        raise NotImplementedError

    def eta0(self):
        """Half-width of the strip where the transform is analytic (may be inf)."""
        raise NotImplementedError

    def eval_x(self, x):
        """Pointwise values K(x) as (..., n, n); not available for point masses."""
        raise NotImplementedError

    def point_masses(self):
        """List of (matrix, position) Dirac components (empty by default)."""
        return []

    def decay_radius(self, tol=1e-12):
        """R with the kernel mass outside [-R, R] below tol, relatively."""
        raise NotImplementedError


class GaussianMixture(Kernel):
    """sum_m P_m(x) exp(-a_m (x - b_m)^2) with matrix polynomial prefactors.

    Each term is ``(coeffs, a, b)`` where ``coeffs`` has shape (deg+1, n, n),
    constant coefficient first.  Transforms are exact: with
    I0(nu) = sqrt(pi/a) exp(nu^2/(4a) - nu b) one has

        int x^j exp(-a(x-b)^2) exp(-nu x) dx = (-1)^j I0^(j)(nu),

    and I0 derivatives follow the polynomial recursion P_{m+1} = P_m' + q' P_m
    with q(nu) = nu^2/(4a) - nu b.
    """

    family = "gaussian"

    def __init__(self, terms, n=1):
        self.n = int(n)
        self.terms = []
        for coeffs, a, b in terms:
            coeffs = np.asarray(coeffs, dtype=complex)
            if coeffs.ndim == 1:  # list of scalars -> diagonal matrices
                coeffs = coeffs[:, None, None] * np.eye(self.n)
            if coeffs.shape[1:] != (self.n, self.n):
                raise ValueError("bad coefficient shape")
            a = float(a)
            if a <= 0:
                raise ValueError("gaussian width parameter must be positive")
            self.terms.append((coeffs, a, float(b)))
        self._poly_cache = {}

    @classmethod
    def single(cls, c, a, b=0.0, poly=None, n=1):
        """One term c * (poly_0 + poly_1 x + ...) exp(-a (x-b)^2)."""
        c = _as_matrix(c, n)
        pcoeffs = [1.0] if poly is None else list(poly)
        coeffs = np.array([p * c for p in pcoeffs])
        return cls([(coeffs, a, b)], n=n)

    def _log_deriv_polys(self, a, b, upto):
        """Coefficient arrays of P_m with I0^(m) = P_m(nu) I0(nu)."""
        key = (a, b)
        polys = self._poly_cache.setdefault(key, [np.array([1.0 + 0j])])
        qprime = np.array([-b, 1.0 / (2 * a)], dtype=complex)  # q'(nu)
        while len(polys) <= upto:
            p = polys[-1]
            dp = np.arange(1, len(p)) * p[1:]
            prod = np.convolve(p, qprime)
            new = prod.copy()
            new[: len(dp)] += dp
            polys.append(new)
        return polys

    def transform_batch(self, nus, order=0):
        nus = np.asarray(nus, dtype=complex)
        out = np.zeros(nus.shape + (self.n, self.n), dtype=complex)
        for coeffs, a, b in self.terms:
            i0 = np.sqrt(np.pi / a) * np.exp(nus * nus / (4 * a) - nus * b)
            polys = self._log_deriv_polys(a, b, coeffs.shape[0] - 1 + order)
            for j in range(coeffs.shape[0]):
                # Horner's rule for P_m at every point, in the operations and
                # shapes of numpy.polynomial's polyval
                pm = polys[j + order].reshape((-1,) + (1,) * nus.ndim)
                val = pm[-1] + nus * 0
                for c in pm[-2::-1]:
                    val = c + val * nus
                out += ((-1) ** j * val * i0)[..., None, None] * coeffs[j]
        return out

    def eta0(self):
        return np.inf

    def eval_x(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape + (self.n, self.n), dtype=complex)
        for coeffs, a, b in self.terms:
            p = np.zeros_like(out)
            for j in range(coeffs.shape[0] - 1, -1, -1):
                p = p * x[..., None, None] + coeffs[j]
            out += p * np.exp(-a * (x - b) ** 2)[..., None, None]
        return out

    def decay_radius(self, tol=1e-12):
        R = 1.0
        for coeffs, a, b in self.terms:
            scale = max(np.abs(coeffs).max(), 1.0)
            deg = coeffs.shape[0] - 1
            r = abs(b) + 1.0
            for _ in range(4):
                body = np.log(scale / tol) + deg * np.log(1.0 + r)
                r = abs(b) + np.sqrt(max(body, 1.0) / a)
            R = max(R, r)
        return R


class ExponentialMixture(Kernel):
    """sum_m C_m exp(-a_m |x - b_m|), analytic strip |Re nu| < min a_m."""

    family = "exponential"

    def __init__(self, terms, n=1):
        self.n = int(n)
        self.terms = []
        for c, a, b in terms:
            a = float(a)
            if a <= 0:
                raise ValueError("exponential rate must be positive")
            self.terms.append((_as_matrix(c, self.n), a, float(b)))

    def transform_batch(self, nus, order=0):
        nus = np.asarray(nus, dtype=complex)
        out = np.zeros(nus.shape + (self.n, self.n), dtype=complex)
        for c, a, b in self.terms:
            if np.any(np.abs(nus.real) >= a):
                raise ValueError(
                    f"transform evaluated outside strip |Re nu| < {a}"
                )
            total = np.zeros(nus.shape, dtype=complex)
            for s in range(order + 1):
                g = factorial(s) * (
                    1.0 / (a - nus) ** (s + 1) + (-1) ** s / (a + nus) ** (s + 1)
                )
                total += comb(order, s) * (-b) ** (order - s) * g
            out += (total * np.exp(-nus * b))[..., None, None] * c
        return out

    def eta0(self):
        return min(a for _, a, _ in self.terms)

    def eval_x(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape + (self.n, self.n), dtype=complex)
        for c, a, b in self.terms:
            out += np.exp(-a * np.abs(x - b))[..., None, None] * c
        return out

    def decay_radius(self, tol=1e-12):
        R = 1.0
        for c, a, b in self.terms:
            scale = max(np.abs(c).max(), 1.0)
            R = max(R, abs(b) + np.log(scale / tol) / a)
        return R


class DiracMixture(Kernel):
    """sum_m A_m delta(x - xi_m); transform sum_m A_m exp(-nu xi_m)."""

    family = "dirac"

    def __init__(self, terms, n=1):
        self.n = int(n)
        self.terms = [(_as_matrix(c, self.n), float(xi)) for c, xi in terms]

    def transform_batch(self, nus, order=0):
        nus = np.asarray(nus, dtype=complex)
        out = np.zeros(nus.shape + (self.n, self.n), dtype=complex)
        for c, xi in self.terms:
            out += ((-xi) ** order * np.exp(-nus * xi))[..., None, None] * c
        return out

    def eta0(self):
        return np.inf

    def eval_x(self, x):
        raise ValueError("point masses have no pointwise kernel values")

    def point_masses(self):
        return list(self.terms)

    def decay_radius(self, tol=1e-12):
        return max((abs(xi) for _, xi in self.terms), default=0.0)


class SymbolKernel(Kernel):
    """Kernel given by its transform nu -> Khat(nu).

    Parameters
    ----------
    symbol : callable nu -> (n, n) array (or scalar for n = 1)
    eta0 : float
        Analyticity half-width of the symbol.
    derivative : callable (nu, order) -> (n, n), optional
        Exact derivatives Khat^(order)(nu).  Root location and the jet need
        them; without it every order >= 1 raises ``ValueError``.
    """

    family = "symbol"

    def __init__(self, symbol, eta0, n=1, derivative=None):
        self.n = int(n)
        self._symbol = symbol
        self._eta0 = float(eta0)
        self._derivative = derivative

    def transform_batch(self, nus, order=0):
        nus = np.asarray(nus, dtype=complex)
        if order and self._derivative is None:
            raise ValueError(
                f"symbol kernel has no derivative of order {order}: finite"
                " differences lose the jet's digits, pass an exact derivative"
            )
        out = np.empty(nus.shape + (self.n, self.n), dtype=complex)
        for idx in np.ndindex(nus.shape):  # one call per point
            nu = complex(nus[idx])
            out[idx] = self._derivative(nu, order) if order else self._symbol(nu)
        return out

    def eta0(self):
        return self._eta0


class SumKernel(Kernel):
    """Sum of kernels of possibly different families."""

    family = "sum"

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValueError("empty sum")
        self.n = parts[0].n
        if any(p.n != self.n for p in parts):
            raise ValueError("dimension mismatch in kernel sum")
        self.parts = parts

    def transform_batch(self, nus, order=0):
        nus = np.asarray(nus, dtype=complex)
        out = np.zeros(nus.shape + (self.n, self.n), dtype=complex)
        for p in self.parts:
            out += p.transform_batch(nus, order)
        return out

    def eta0(self):
        return min(p.eta0() for p in self.parts)

    def eval_x(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape + (self.n, self.n), dtype=complex)
        for p in self.parts:
            if not p.point_masses():
                out += p.eval_x(x)
        return out

    def point_masses(self):
        out = []
        for p in self.parts:
            out.extend(p.point_masses())
        return out

    def decay_radius(self, tol=1e-12):
        return max(p.decay_radius(tol) for p in self.parts)


def real_kernel(K):
    """True when every coefficient of K is real, so that Khat(conj nu) is
    conj Khat(nu) and the roots of d come in conjugate pairs; a
    ``SymbolKernel`` has no coefficients to read."""
    if hasattr(K, "parts"):
        return all(map(real_kernel, K.parts))
    return hasattr(K, "terms") and not any(np.imag(t[0]).any() for t in K.terms)


# -- convolution -------------------------------------------------------------


def taylor_transforms(K, nus, degree, start=0):
    """Taylor coefficients Khat^(r)(nu) / r! for r = start..degree.

    ``nus`` is a 1-d array of frequencies; the result has shape
    ``(len(nus), degree - start + 1, n, n)``.  One ``transform_batch`` call
    per order covers every frequency.
    """
    nus = np.asarray(nus, dtype=complex)
    out = np.empty((nus.size, degree - start + 1, K.n, K.n), dtype=complex)
    for r in range(start, degree + 1):
        out[:, r - start] = K.transform_batch(nus, r) / factorial(r)
    return out


def toeplitz_blocks(series, degree):
    """The upper block-triangular Toeplitz matrix of a matrix series.

    ``series`` has shape (R+1, n, n) with R >= ``degree``; block (s, j) of
    the ((degree+1) n)-square result is ``series[j - s]`` for j >= s and
    zero below the diagonal.  Every leading block square of it is the
    matrix of a smaller degree.
    """
    n = series.shape[-1]
    lag = np.subtract.outer(np.arange(degree + 1), np.arange(degree + 1))
    blocks = series[np.clip(-lag, 0, None)] * (lag <= 0)[:, :, None, None]
    size = (degree + 1) * n
    return blocks.transpose(0, 2, 1, 3).reshape(size, size)


def convolution_matrix(series, degree):
    """Matrix of v -> K * v on the coefficients of one frequency.

    ``series`` holds the Taylor coefficients Khat^(r)(nu) / r! (see
    ``taylor_transforms``).  The identity

        K * (x^q exp(nu x)) = exp(nu x) sum_r C(q, r) Khat^(r)(nu) x^{q-r}

    puts C(q, s) Khat^(q-s)(nu) = (q! / s!) series[q - s] at block (s, q).
    The matrix acts on the (degree+1, n) coefficient array flattened degree
    by degree; like ``toeplitz_blocks``, its leading squares serve every
    smaller degree.
    """
    n = series.shape[-1]
    fact = np.repeat([float(factorial(j)) for j in range(degree + 1)], n)
    return toeplitz_blocks(series, degree) * (fact[None, :] / fact[:, None])


def convolve(K, u):
    """Exact convolution K * u of a kernel with a quasi-polynomial.

    Expands (x - z)^q under the integral so every output coefficient is a
    finite moment combination:

        K * (x^q exp(nu x)) = exp(nu x) sum_r C(q, r) (-1)^r kappa_r(nu) x^{q-r},

    applied per frequency as ``convolution_matrix``.
    """
    if K.n != u.n:
        raise ValueError("kernel/argument dimension mismatch")
    top = max((c.shape[0] for _, c in u.terms), default=1) - 1
    series = taylor_transforms(K, [nu for nu, _ in u.terms], top)
    out_terms = []
    for (nu, coeffs), ser in zip(u.terms, series):
        M = convolution_matrix(ser, coeffs.shape[0] - 1)
        out_terms.append((nu, (M @ coeffs.ravel()).reshape(coeffs.shape)))
    return QuasiPolynomial(u.n, out_terms)


def apply_T(K, u):
    """T u = u + K * u."""
    return QuasiPolynomial(u.n, [*u.terms, *convolve(K, u).terms])


# -- decay / strip validation -------------------------------------------------


def spectral_norm(M):
    """The 2-norm of each (n, n) matrix of a stack: for n = 1 the modulus of
    its entry, its one singular value, with no LAPACK SVD."""
    if M.shape[-1] == 1:
        return np.abs(M[..., 0, 0])
    return np.linalg.norm(M, 2, axis=(-2, -1))


class DecayReport:
    """Result of ``validate_decay``: certified strip and diagnostics."""

    def __init__(self, eta, ok, checks):
        self.eta = eta
        self.ok = ok
        self.checks = checks


# share of the family analyticity bound that ``validate_decay`` proposes
DECAY_MARGIN = 0.9


def validate_decay(K, eta=None):
    """Certify a strip |Re nu| <= eta of analyticity with decaying transform.

    The candidate is ``DECAY_MARGIN`` times the family analyticity bound (or
    the explicit ``eta``); the check samples ||Khat|| along both strip edges and
    requires decay to below 0.5 in the tails (Riemann-Lebesgue proxy for the
    weighted-L1 hypothesis on K and K').
    """
    bound = K.eta0()
    if eta is None:
        eta = 1.0 if np.isinf(bound) else DECAY_MARGIN * bound
    elif eta >= bound:
        return DecayReport(eta, False, {"reason": "outside analyticity bound"})
    ls = np.concatenate([np.linspace(0, 10, 41), np.logspace(1.01, 3, 25)])
    sides = (+1, -1)
    edges = np.array([side * eta + 1j * ls for side in sides])
    norms = spectral_norm(K.transform_batch(edges))
    checks = {}
    ok = True
    for side, edge_norms in zip(sides, norms):
        tail = max(edge_norms[-8:])
        checks[f"tail_sup_edge_{side:+d}"] = tail
        if not np.isfinite(tail) or tail >= 0.5:
            ok = False
    return DecayReport(eta, ok, checks)
