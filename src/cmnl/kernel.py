"""Convolution kernels: closed-form families, transforms, moments, convolution.

A kernel is a matrix-valued function K : R -> C^{n x n} with exponential
decay.  The two quantities everything downstream consumes are

* the two-sided Laplace transform  Khat(nu) = int K(x) exp(-nu x) dx  and its
  nu-derivatives, analytic on a strip |Re nu| < eta0;
* the exponential moments  kappa_m(nu) = int x^m K(x) exp(-nu x) dx
                                       = (-1)^m Khat^(m)(nu).

Convolution maps the quasi-polynomial algebra to itself:

    K * (x^q exp(nu x)) = exp(nu x) * sum_{r=0}^q C(q,r) (-1)^r kappa_r(nu) x^{q-r}

(expand (x - z)^q under the integral), implemented exactly in ``convolve``.
``convolve_quadrature`` evaluates the same convolution by Gauss-Legendre
panels in x-space and is used as an independent check throughout the tests.

Closed-form families keep their transforms exact (derivative recursions, no
finite differences); symbol-defined kernels fall back to 4th-order central
differences with step 1e-3 * (1 + |nu|).
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


def fd_central_stencil(m, acc=4):
    """Finite-difference weights for the m-th derivative, central, given accuracy.

    Returns (offsets, weights) so f^(m)(x) ~ sum_k w_k f(x + o_k h) / h^m.
    """
    npts = 2 * ((m + 1) // 2) - 1 + acc
    p = (npts - 1) // 2
    offsets = np.arange(-p, p + 1)
    rows = np.vstack([offsets.astype(float) ** j for j in range(npts)])
    rhs = np.zeros(npts)
    rhs[m] = factorial(m)
    weights = np.linalg.solve(rows, rhs)
    return offsets, weights


class Kernel:
    """Base class: transform/moment interface shared by all families."""

    n = 1

    def transform(self, nu, order=0):
        """Khat^(order)(nu) as an (n, n) array."""
        raise NotImplementedError

    def moment(self, m, nu):
        """kappa_m(nu) = int x^m K(x) exp(-nu x) dx."""
        return (-1) ** m * self.transform(nu, m)

    def eta0(self):
        """Half-width of the strip where the transform is analytic (may be inf)."""
        raise NotImplementedError

    def eval_x(self, x):
        """Pointwise values K(x) as (..., n, n); not available for point masses."""
        raise NotImplementedError

    def point_masses(self):
        """List of (matrix, position) Dirac components (empty by default)."""
        return []

    def breakpoints(self):
        """x-locations where the kernel is not smooth (for quadrature panels)."""
        return []

    def decay_radius(self, tol=1e-12):
        """R with the kernel mass outside [-R, R] below tol, relatively."""
        raise NotImplementedError

    def scale(self, a):
        """The kernel a * K."""
        raise NotImplementedError

    def __add__(self, other):
        if not isinstance(other, Kernel):
            return NotImplemented
        parts = []
        for k in (self, other):
            parts.extend(k.parts if isinstance(k, SumKernel) else [k])
        return SumKernel(parts)


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

    def transform(self, nu, order=0):
        nu = complex(nu)
        out = np.zeros((self.n, self.n), dtype=complex)
        for coeffs, a, b in self.terms:
            i0 = np.sqrt(np.pi / a) * np.exp(nu * nu / (4 * a) - nu * b)
            polys = self._log_deriv_polys(a, b, coeffs.shape[0] - 1 + order)
            for j in range(coeffs.shape[0]):
                pm = polys[j + order]
                val = np.polynomial.polynomial.polyval(nu, pm)
                out += (-1) ** j * val * i0 * coeffs[j]
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

    def scale(self, s):
        return GaussianMixture([(s * c, a, b) for c, a, b in self.terms], n=self.n)

    def differentiate(self):
        """The kernel K' (transform nu * Khat(nu)); stays in the family."""
        new_terms = []
        for coeffs, a, b in self.terms:
            deg1 = coeffs.shape[0]
            new = np.zeros((deg1 + 1, self.n, self.n), dtype=complex)
            for j in range(deg1):
                if j >= 1:
                    new[j - 1] += j * coeffs[j]
                # d/dx exp(-a(x-b)^2) factor: -2a(x-b)
                new[j] += 2 * a * b * coeffs[j]
                new[j + 1] += -2 * a * coeffs[j]
            new_terms.append((new, a, b))
        return GaussianMixture(new_terms, n=self.n)

    def to_data(self):
        terms = []
        for coeffs, a, b in self.terms:
            entry = {"a": a, "b": b}
            if self.n == 1 and coeffs.shape[0] == 1:
                entry["c"] = _num_data(coeffs[0, 0, 0])
            elif self.n == 1:
                entry["c"] = 1.0
                entry["poly"] = [_num_data(c[0, 0]) for c in coeffs]
            else:
                entry["c"] = [[_num_data(v) for v in row] for row in coeffs[0]]
                if coeffs.shape[0] > 1:
                    raise ValueError("matrix gaussian terms serialize degree 0 only")
            terms.append(entry)
        return {"family": "gaussian", "n": self.n, "terms": terms}


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

    def transform(self, nu, order=0):
        nu = complex(nu)
        out = np.zeros((self.n, self.n), dtype=complex)
        for c, a, b in self.terms:
            if abs(nu.real) >= a:
                raise ValueError(
                    f"transform evaluated outside strip |Re nu| < {a}"
                )
            total = 0.0j
            for s in range(order + 1):
                g = factorial(s) * (
                    1.0 / (a - nu) ** (s + 1) + (-1) ** s / (a + nu) ** (s + 1)
                )
                total += comb(order, s) * (-b) ** (order - s) * g
            out += total * np.exp(-nu * b) * c
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

    def breakpoints(self):
        return [b for _, _, b in self.terms]

    def scale(self, s):
        return ExponentialMixture([(s * c, a, b) for c, a, b in self.terms], n=self.n)

    def to_data(self):
        terms = []
        for c, a, b in self.terms:
            if self.n == 1:
                entry = {"c": _num_data(c[0, 0]), "a": a, "b": b}
            else:
                entry = {"c": [[_num_data(v) for v in row] for row in c], "a": a, "b": b}
            terms.append(entry)
        return {"family": "exponential", "n": self.n, "terms": terms}


class DiracMixture(Kernel):
    """sum_m A_m delta(x - xi_m); transform sum_m A_m exp(-nu xi_m)."""

    family = "dirac"

    def __init__(self, terms, n=1):
        self.n = int(n)
        self.terms = [(_as_matrix(c, self.n), float(xi)) for c, xi in terms]

    def transform(self, nu, order=0):
        nu = complex(nu)
        out = np.zeros((self.n, self.n), dtype=complex)
        for c, xi in self.terms:
            out += (-xi) ** order * np.exp(-nu * xi) * c
        return out

    def eta0(self):
        return np.inf

    def eval_x(self, x):
        raise ValueError("point masses have no pointwise kernel values")

    def point_masses(self):
        return list(self.terms)

    def decay_radius(self, tol=1e-12):
        return max((abs(xi) for _, xi in self.terms), default=0.0)

    def scale(self, s):
        return DiracMixture([(s * c, xi) for c, xi in self.terms], n=self.n)

    def to_data(self):
        terms = []
        for c, xi in self.terms:
            if self.n == 1:
                terms.append({"c": _num_data(c[0, 0]), "xi": xi})
            else:
                terms.append({"c": [[_num_data(v) for v in row] for row in c], "xi": xi})
        return {"family": "dirac", "n": self.n, "terms": terms}


class SymbolKernel(Kernel):
    """Kernel given by its transform nu -> Khat(nu).

    Parameters
    ----------
    symbol : callable nu -> (n, n) array (or scalar for n = 1)
    eta0 : float
        Analyticity half-width of the symbol.
    derivative : callable (nu, order) -> (n, n), optional
        Exact derivatives; defaults to 4th-order central differences with
        step 1e-3 (1 + |nu|).
    """

    family = "symbol"

    def __init__(self, symbol, eta0, n=1, derivative=None, decay_radius=None):
        self.n = int(n)
        self._symbol = symbol
        self._eta0 = float(eta0)
        self._derivative = derivative
        self._decay_radius = decay_radius
        self._table = None

    def _value(self, nu):
        v = self._symbol(nu)
        arr = np.asarray(v, dtype=complex)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        return arr

    def transform(self, nu, order=0):
        nu = complex(nu)
        if order == 0:
            return self._value(nu)
        if self._derivative is not None:
            arr = np.asarray(self._derivative(nu, order), dtype=complex)
            return arr.reshape(1, 1) if arr.ndim == 0 else arr
        h = 1e-3 * (1.0 + abs(nu))
        offsets, weights = fd_central_stencil(order, acc=4)
        out = np.zeros((self.n, self.n), dtype=complex)
        for o, w in zip(offsets, weights):
            if w != 0.0:
                out += w * self._value(nu + o * h)
        return out / h**order

    def eta0(self):
        return self._eta0

    def tabulate(self, halfwidth=40.0, npts=2**14):
        """Sample K(x) on a uniform grid by inverse Fourier transform.

        Uses K(x) = (1/2 pi) int Khat(i l) exp(i l x) dl on a truncated grid;
        cached, consumed by ``eval_x``.  With ``x_j = j dx - halfwidth`` and
        ``dx = 2 halfwidth / npts`` the phase ``exp(i l_k x_j)`` is
        ``(-1)^k exp(2 pi i j k / npts)``, so the sum is one inverse FFT.
        """
        dx = 2 * halfwidth / npts
        ls = np.fft.fftfreq(npts, d=dx) * 2 * np.pi
        vals = np.array([self._value(1j * l) for l in ls])  # (npts, n, n)
        signs = np.where(np.arange(npts) % 2 == 0, 1.0, -1.0)
        table = np.fft.ifft(signs[:, None, None] * vals, axis=0) / dx
        xs = np.arange(npts) * dx - halfwidth
        self._table = (xs, table)
        return xs, table

    def eval_x(self, x):
        """K(x) by a 4-point local cubic on the uniform table."""
        if self._table is None:
            self.tabulate()
        xs, table = self._table
        dx = xs[1] - xs[0]
        s = (np.clip(np.asarray(x, dtype=float), xs[0], xs[-1]) - xs[0]) / dx
        i = np.clip(np.floor(s).astype(int), 1, len(xs) - 3)
        t = (s - i)[..., None, None]
        # Lagrange weights on the nodes i - 1, i, i + 1, i + 2
        return (
            -t * (t - 1) * (t - 2) / 6 * table[i - 1]
            + (t + 1) * (t - 1) * (t - 2) / 2 * table[i]
            - (t + 1) * t * (t - 2) / 2 * table[i + 1]
            + (t + 1) * t * (t - 1) / 6 * table[i + 2]
        )

    def decay_radius(self, tol=1e-12):
        if self._decay_radius is not None:
            return self._decay_radius
        return 40.0

    def scale(self, s):
        base_sym, base_der = self._symbol, self._derivative
        der = None
        if base_der is not None:
            der = lambda nu, order: s * np.asarray(base_der(nu, order))
        return SymbolKernel(
            lambda nu: s * np.asarray(base_sym(nu)),
            self._eta0,
            n=self.n,
            derivative=der,
            decay_radius=self._decay_radius,
        )


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

    def transform(self, nu, order=0):
        out = np.zeros((self.n, self.n), dtype=complex)
        for p in self.parts:
            out += p.transform(nu, order)
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

    def breakpoints(self):
        out = []
        for p in self.parts:
            out.extend(p.breakpoints())
        return out

    def scale(self, s):
        return SumKernel([p.scale(s) for p in self.parts])

    def differentiate(self):
        return SumKernel([p.differentiate() for p in self.parts])

    def to_data(self):
        return {"family": "sum", "parts": [p.to_data() for p in self.parts]}


# -- convolution -------------------------------------------------------------


class TransformMemo:
    """Transforms Khat^(r)(nu) per (kernel, nu, r), kept for one computation.

    ``compute_jet`` makes one per call and drops it on return, so no kernel
    object keeps cache state.  A miss calls the kernel's ``transform``; a
    hit hands out the stored array itself, so callers must not write to it.
    ``blocks`` holds the bordered solver's factored block systems
    (``tsolve``) of the same computation.
    """

    __slots__ = ("values", "blocks")

    def __init__(self):
        self.values = {}
        self.blocks = {}

    def transform(self, K, nu, order=0):
        key = (K, nu, order)
        val = self.values.get(key)
        if val is None:
            val = self.values[key] = K.transform(nu, order)
        return val


def convolve(K, u, memo=None):
    """Exact convolution K * u of a kernel with a quasi-polynomial.

    Expands (x - z)^q under the integral so every output coefficient is a
    finite moment combination:

        K * (x^q exp(nu x)) = exp(nu x) sum_r C(q, r) (-1)^r kappa_r(nu) x^{q-r}.

    With a ``TransformMemo`` the transforms behind the moments are shared.
    """
    if K.n != u.n:
        raise ValueError("kernel/argument dimension mismatch")
    transform = K.transform if memo is None else (
        lambda nu, r: memo.transform(K, nu, r))
    out_terms = []
    for nu, coeffs in u.terms:
        deg1 = coeffs.shape[0]
        moments = [(-1) ** r * transform(nu, r) for r in range(deg1)]
        new = np.zeros_like(coeffs)
        for q in range(deg1):
            for r in range(q + 1):
                new[q - r] += comb(q, r) * (-1) ** r * (moments[r] @ coeffs[q])
        out_terms.append((nu, new))
    return QuasiPolynomial(u.n, out_terms)


def apply_T(K, u, memo=None):
    """T u = u + K * u."""
    return u + convolve(K, u, memo)


def convolve_quadrature(K, u, xs, tol=1e-12, panel=1.0, npts=24):
    """Convolution (K * u)(xs) by panelled Gauss-Legendre quadrature.

    Independent x-space route used to cross-check ``convolve``: integrates
    K(z) u(x - z) over |z| <= decay radius.  ``u`` may be a QuasiPolynomial
    or a callable returning (n,) values.  Returns (len(xs), n).
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ueval = u.evaluate if isinstance(u, QuasiPolynomial) else u
    n = K.n
    R = K.decay_radius(tol)
    nodes, weights = np.polynomial.legendre.leggauss(npts)
    edges = np.linspace(-R, R, max(2, int(np.ceil(2 * R / panel)) + 1))
    inner = [b for b in K.breakpoints() if -R < b < R]
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


# -- decay / strip validation -------------------------------------------------


class DecayReport:
    """Result of ``validate_decay``: certified strip and diagnostics."""

    def __init__(self, eta, ok, checks):
        self.eta = eta
        self.ok = ok
        self.checks = checks

    def __repr__(self):
        return f"DecayReport(eta={self.eta:.4g}, ok={self.ok})"


def validate_decay(K, eta=None, margin=0.9):
    """Certify a strip |Re nu| <= eta of analyticity with decaying transform.

    The candidate is ``margin`` times the family analyticity bound (or the
    explicit ``eta``); the check samples ||Khat|| along both strip edges and
    requires decay to below 0.5 in the tails (Riemann-Lebesgue proxy for the
    weighted-L1 hypothesis on K and K').
    """
    bound = K.eta0()
    if eta is None:
        eta = 1.0 if np.isinf(bound) else margin * bound
    elif eta >= bound:
        return DecayReport(eta, False, {"reason": "outside analyticity bound"})
    ls = np.concatenate([np.linspace(0, 10, 41), np.logspace(1.01, 3, 25)])
    checks = {}
    ok = True
    for side in (+1, -1):
        norms = []
        for l in ls:
            klm = K.transform(side * eta + 1j * l, 0)
            norms.append(np.linalg.norm(klm, 2))
        tail = max(norms[-8:])
        checks[f"tail_sup_edge_{side:+d}"] = tail
        if not np.isfinite(tail) or tail >= 0.5:
            ok = False
    return DecayReport(eta, ok, checks)


def _num_data(z):
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _num_from_data(v):
    if isinstance(v, list):
        return complex(v[0], v[1])
    return complex(v)


def _check_keys(d, required, optional=()):
    keys = set(d)
    missing = set(required) - keys
    unknown = keys - set(required) - set(optional)
    if missing:
        raise ValueError(f"missing keys: {sorted(missing)}")
    if unknown:
        raise ValueError(f"unknown keys: {sorted(unknown)}")


def from_data(data):
    """Build a kernel from its JSON dict (strict: unknown keys rejected)."""
    _check_keys(data, ["family"], ["n", "terms", "parts"])
    family = data["family"]
    if family == "sum":
        _check_keys(data, ["family", "parts"])
        return SumKernel([from_data(p) for p in data["parts"]])
    n = int(data.get("n", 1))
    terms = data.get("terms", [])
    if family == "gaussian":
        built = []
        for t in terms:
            _check_keys(t, ["c", "a"], ["b", "poly"])
            cm = _coeff_from_data(t["c"], n)
            pcoeffs = [_num_from_data(p) for p in t.get("poly", [1.0])]
            coeffs = np.array([p * cm for p in pcoeffs])
            built.append((coeffs, t["a"], t.get("b", 0.0)))
        return GaussianMixture(built, n=n)
    if family == "exponential":
        built = []
        for t in terms:
            _check_keys(t, ["c", "a"], ["b"])
            built.append((_coeff_from_data(t["c"], n), t["a"], t.get("b", 0.0)))
        return ExponentialMixture(built, n=n)
    if family == "dirac":
        built = []
        for t in terms:
            _check_keys(t, ["c", "xi"])
            built.append((_coeff_from_data(t["c"], n), t["xi"]))
        return DiracMixture(built, n=n)
    raise ValueError(f"unknown kernel family: {family}")


def _coeff_from_data(v, n):
    """Number -> scalar matrix; [re, im] -> complex scalar; nested list -> matrix."""
    if isinstance(v, (int, float)):
        return _as_matrix(complex(v), n)
    if isinstance(v, list) and v:
        if isinstance(v[0], list):
            return np.array(
                [[_num_from_data(x) for x in row] for row in v], dtype=complex
            )
        if len(v) == 2 and all(isinstance(x, (int, float)) for x in v):
            return _as_matrix(complex(v[0], v[1]), n)
    raise ValueError("bad coefficient entry")
