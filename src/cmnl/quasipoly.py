"""Quasi-polynomials: finite sums of polynomial-times-exponential terms.

A quasi-polynomial is a function R -> C^n of the form

    f(x) = sum_j p_j(x) exp(nu_j x)

with distinct complex frequencies nu_j and polynomials p_j whose coefficients
are vectors in C^n.  The kernel basis and the graph-map entries are returned
as ``QuasiPolynomial``.  Inside ``jet.compute_jet`` the same functions are
held as coefficient rows on the lattice of root frequencies, and ``verify``
evaluates them at x = 0.  The per-frequency closed forms serve both:
``derivative_weights`` here, ``kernel.convolution_matrix`` and
``tsolve.solve_frequency``.

The class keeps what the pipeline runs: the canonical constructor,
conjugation, evaluation and derivatives at zero.  Products, sums and
convolutions are computed on lattice rows (``jet._Rows``), also by
``jet.apply_term``.  The rest of the ring (sums, scalar multiples,
components, the pointwise product, differences, translation,
differentiation) is the test suite's reference algebra, in
``tests/reference.py``.

Canonical form
--------------
Terms at exactly equal frequencies are summed, and the frequency stays as
it is.  Only distinct frequencies closer than ``FREQ_TOL`` are averaged:
their coefficient arrays are added and the merged frequency is their
coefficient-weighted mean.  Trailing polynomial coefficients and whole terms
below ``TRIM_REL`` times the largest coefficient magnitude are dropped, and
terms are sorted by (Re nu, Im nu).  Every ``QuasiPolynomial`` comes out of
the canonicalizing constructor, so equality of canonical data is meaningful.
"""

from bisect import bisect_left
from itertools import accumulate
from math import comb, factorial

import numpy as np

# Distinct frequencies within this distance are considered equal and merged.
FREQ_TOL = 1e-9

# Coefficients below TRIM_REL times the largest coefficient magnitude are
# treated as zero when trimming.
TRIM_REL = 1e-13


def _as_coeff_array(poly, n):
    """Coerce a polynomial coefficient spec to a complex array of shape (deg+1, n)."""
    arr = np.asarray(poly, dtype=complex)
    if arr.ndim == 1:
        if n == 1:
            arr = arr.reshape(-1, 1)
        else:
            raise ValueError("vector-valued term needs 2-d coefficients (deg+1, n)")
    if arr.ndim != 2 or arr.shape[1] != n:
        raise ValueError(f"coefficient array must have shape (deg+1, {n})")
    return arr


def kept_rows(mags, thr, sizes):
    """Rows to keep of each run of ``sizes`` rows of ``mags``: through the
    run's last row above ``thr`` (a scalar, or one value per row)."""
    kept = np.flatnonzero(mags > thr).tolist()
    out, start = [], 0
    for size in sizes:
        k = bisect_left(kept, start + size)
        out.append(kept[k - 1] + 1 - start if k and kept[k - 1] >= start else 0)
        start += size
    return out


class QuasiPolynomial:
    """A C^n-valued quasi-polynomial in canonical form.

    Parameters
    ----------
    n : int
        Dimension of the values.
    terms : iterable of (nu, coeffs)
        ``nu`` is the complex frequency; ``coeffs`` has shape (deg+1, n) with
        the constant polynomial coefficient first, i.e. the term is
        ``sum_q coeffs[q] x^q exp(nu x)``.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=()):
        self.n = int(n)
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        prepared = [(complex(nu), _as_coeff_array(poly, self.n)) for nu, poly in terms]
        self.terms = self._canonicalize(prepared)

    @classmethod
    def canonical(cls, n, terms):
        """The quasi-polynomial of ``terms`` that are in canonical form
        already (merged, trimmed, sorted, ``+ 0.0``), taken as they are."""
        q = cls.__new__(cls)
        q.n, q.terms = n, terms
        return q

    # -- canonical form ------------------------------------------------------

    @staticmethod
    def _canonicalize(prepared):
        if not prepared:
            return []
        # Sum exactly equal frequencies; cluster the distinct ones within
        # FREQ_TOL.  Sorting by (Re, Im) first makes the greedy clustering
        # deterministic.
        groups = {}
        for nu, coeffs in prepared:
            groups.setdefault(nu, []).append(coeffs)
        clusters = []
        for nu in sorted(groups, key=lambda nu: (nu.real, nu.imag)):
            for cl in clusters:
                if abs(nu - cl[0]) <= FREQ_TOL:
                    cl.append(nu)
                    break
            else:
                clusters.append([nu])
        nus, totals = [], []
        for cl in clusters:
            arrays = [c for nu in cl for c in groups[nu]]
            nu = cl[0]
            if len(cl) > 1:
                weights = np.array([np.abs(c).max() if c.size else 0.0
                                    for c in arrays])
                wmax = weights.max()
                if wmax > 0:
                    # Normalized so that extreme coefficient magnitudes
                    # cannot overflow the weighted mean.
                    nus_cl = [v for v in cl for _ in groups[v]]
                    nu = complex(np.average(nus_cl, weights=weights / wmax))
            total = arrays[0]
            if len(arrays) > 1:
                total = np.zeros((max(c.shape[0] for c in arrays),
                                  arrays[0].shape[1]), dtype=complex)
                for c in arrays:
                    total[: c.shape[0]] += c
            nus.append(nu)
            totals.append(total)
        # One fresh buffer, ``+ 0.0`` rounding as a sum started from zero;
        # trimmed against the global coefficient scale.
        rows = np.concatenate(totals) + 0.0
        mags = np.abs(rows).max(axis=1)
        sizes = [c.shape[0] for c in totals]
        keep = kept_rows(mags, TRIM_REL * mags.max(initial=0.0), sizes)
        starts = accumulate(sizes, initial=0)
        out = [(nu, rows[s: s + k]) for nu, s, k in zip(nus, starts, keep) if k]
        out.sort(key=lambda t: (t[0].real, t[0].imag))
        return out

    # -- evaluation ----------------------------------------------------------

    def conjugate(self):
        """Complex conjugate: conj(f)(x) = conj(f(x)) for real x."""
        return QuasiPolynomial(
            self.n, [(nu.conjugate(), np.conj(c)) for nu, c in self.terms]
        )

    def evaluate(self, x):
        """Evaluate at a scalar or 1-d array ``x``.

        Returns shape (n,) for scalar input, (len(x), n) for array input.
        """
        xa = np.asarray(x, dtype=complex)
        scalar = xa.ndim == 0
        xs = np.atleast_1d(xa)
        vals = np.zeros((xs.size, self.n), dtype=complex)
        for nu, coeffs in self.terms:
            # Horner in x for the polynomial part.
            p = np.zeros((xs.size, self.n), dtype=complex)
            for q in range(coeffs.shape[0] - 1, -1, -1):
                p = p * xs[:, None] + coeffs[q]
            vals += p * np.exp(nu * xs)[:, None]
        return vals[0] if scalar else vals

    def derivative_at_zero(self, order):
        """Value of the ``order``-th derivative at x = 0, as a (n,) vector."""
        out = np.zeros(self.n, dtype=complex)
        for nu, coeffs in self.terms:
            w = derivative_weights(nu, order, coeffs.shape[0] - 1)
            for q in np.flatnonzero(w):
                out += w[q] * coeffs[q]
        return out


def derivative_weights(nu, order, degree):
    """Weights w with d^m/dx^m (sum_q c_q x^q e^{nu x}) at x = 0 equal to
    sum_q w[q] c_q, for m = ``order`` and q = 0..``degree``.

    w[q] = C(m, q) q! nu^(m-q) for q <= m, and 0 above m.
    """
    m = int(order)
    w = np.zeros(degree + 1, dtype=complex)
    for q in range(min(m, degree) + 1):
        if m == q:
            fac = 1.0
        elif nu == 0:
            continue
        else:
            fac = nu ** (m - q)
        w[q] = comb(m, q) * factorial(q) * fac
    return w

