"""Kernel basis of the linearized operator and projections onto it.

The kernel of u -> u + K*u restricted to quasi-polynomials is spanned by the
chain functions of the characteristic roots.  This module assembles that
finite basis from a located spectrum, and builds an idempotent projection Q
onto its span in two flavors:

* pointwise -- functionals  u -> <d/dx^m u(0), direction>  built from chain
  head vectors (optionally replaced by supplied adjoint vectors), with
  derivative orders chosen per root group; the default for all reductions.
* gram -- functionals  u -> integral of <u(y), phi_k(y)> w(y) dy  against a
  gaussian or hyperbolic-secant weight, evaluated in closed form.

Either flavor yields coordinates c = A^{-1} (functionals applied to u) in the
fixed basis ordering; ``basis.combine(c)`` is the projected element
sum_k c_k phi_k.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .quasipoly import QuasiPolynomial, derivative_weights
from .spectrum import chain_functions, conjugate_chains, jordan_chains

GRAM_COND_LIMIT = 1e12


@dataclass
class BasisElement:
    """One kernel basis function with its bookkeeping indices.

    ``partner`` is the index of the conjugate element (-1 when the element is
    its own conjugate, i.e. belongs to a root on the real axis).
    """

    function: QuasiPolynomial
    nu: complex
    group: int
    chain: int
    order: int
    head: np.ndarray
    partner: int = -1


class KernelBasis:
    """Ordered basis of ker(u -> u + K*u) over quasi-polynomials.

    Ordering contract (public API): root groups sorted by |Im nu| with
    real-axis roots first; inside a conjugate-pair group, chains in discovery
    order, then chain order p ascending, with the +Im member immediately
    followed by its conjugate.
    """

    def __init__(self, elements, n, strip=None):
        self.elements = list(elements)
        self.n = n
        self.strip = strip
        self.condition = self._independence_condition()

    @property
    def size(self):
        return len(self.elements)

    def combine(self, coords):
        """The canonical coordinate map: coords -> sum_k coords_k phi_k."""
        coords = np.asarray(coords, dtype=complex)
        if coords.shape != (self.size,):
            raise ValueError(f"expected {self.size} coordinates, got {coords.shape}")
        total = QuasiPolynomial.zero(self.n)
        for c, el in zip(coords, self.elements):
            total = total + el.function.scale(c)
        return total

    def _independence_condition(self):
        """Condition number of the derivative-jet coordinate matrix.

        Rows are (derivative order, component) pairs at x = 0, enough rows to
        exceed the basis size; a finite condition number certifies linear
        independence of the basis functions.
        """
        m = self.size
        if m == 0:
            return 0.0
        rows = []
        for order in range(m):
            block = np.array(
                [el.function.derivative_at_zero(order) for el in self.elements]
            )  # (M, n)
            rows.append(block.T)  # (n, M)
        jet = np.vstack(rows)
        sv = np.linalg.svd(jet, compute_uv=False)
        if sv[-1] <= 1e-13 * sv[0]:
            raise RuntimeError("kernel basis functions are numerically dependent")
        return float(sv[0] / sv[-1])


def kernel_basis(K, spectrum, tol=1e-8):
    """Assemble the kernel basis from a located spectrum.

    Chains are computed once per conjugate pair (at the +Im root) and
    conjugated for the partner, so the pairing is exact.
    """
    elements = []
    for gi, group in enumerate(spectrum.pair_groups()):
        if len(group) == 1:
            root = spectrum.roots[group[0]]
            chains = jordan_chains(K, root.nu, root.multiplicity, tol)
            for k, chain in enumerate(chains):
                for p, fn in enumerate(chain_functions(root.nu, chain)):
                    elements.append(BasisElement(fn, root.nu, gi, k, p, chain[0]))
        else:
            plus = spectrum.roots[group[0]]
            minus = spectrum.roots[group[1]]
            chains = jordan_chains(K, plus.nu, plus.multiplicity, tol)
            cchains = conjugate_chains(chains)
            for k, (chain, cchain) in enumerate(zip(chains, cchains)):
                fns = chain_functions(plus.nu, chain)
                cfns = chain_functions(minus.nu, cchain)
                for p in range(len(chain)):
                    i = len(elements)
                    elements.append(
                        BasisElement(fns[p], plus.nu, gi, k, p, chain[0], i + 1)
                    )
                    elements.append(
                        BasisElement(cfns[p], minus.nu, gi, k, p, cchain[0], i)
                    )
    return KernelBasis(elements, K.n, strip=spectrum.strip)


# ---------------------------------------------------------------------------
# functionals


class _Functional:
    """A linear functional given by its rows: on one quasi-polynomial term
    ``sum_q c_q x^q e^{nu x}`` it is ``sum(rows(nu, degree) * c)``."""

    def rows(self, nu, degree):
        raise NotImplementedError

    def apply(self, u):
        return complex(sum(np.sum(self.rows(nu, c.shape[0] - 1) * c)
                           for nu, c in u.terms))


@dataclass
class DerivativeFunctional(_Functional):
    """u -> <u^(order)(0), direction>  (Hermitian pairing, direction conjugated)."""

    order: int
    direction: np.ndarray

    def rows(self, nu, degree):
        return np.multiply.outer(derivative_weights(nu, self.order, degree),
                                 np.conj(self.direction))


@dataclass
class WeightedFunctional(_Functional):
    """u -> integral <u(y), element(y)> weight(y) dy, in closed form."""

    weight: str
    element: QuasiPolynomial
    _conj: QuasiPolynomial = field(init=False, repr=False)

    def __post_init__(self):
        self._conj = self.element.conjugate()

    def rows(self, nu, degree):
        # x^q e^{nu x} against x^p e^{nu_c x} weighs in the moment of x^{q+p}
        out = np.zeros((degree + 1, self._conj.n), dtype=complex)
        for nu_c, pc in self._conj.terms:
            moments = np.array(
                weight_moments(self.weight, nu + nu_c, degree + pc.shape[0] - 1))
            out += moments[np.add.outer(np.arange(degree + 1),
                                        np.arange(pc.shape[0]))] @ pc
        return out


def gaussian_weight_moments(nu, smax):
    """[integral x^s e^{nu x} e^{-x^2} dx for s = 0..smax].

    Base value sqrt(pi) e^{nu^2/4}; integration by parts gives the two-term
    recursion G_{s+1} = (nu/2) G_s + (s/2) G_{s-1}.
    """
    nu = complex(nu)
    out = [np.sqrt(np.pi) * np.exp(nu * nu / 4)]
    for s in range(smax):
        nxt = (nu / 2) * out[s]
        if s >= 1:
            nxt += (s / 2) * out[s - 1]
        out.append(nxt)
    return out


def sech_weight_moments(nu, smax):
    """[integral x^s e^{nu x} sech(x) dx for s = 0..smax], for |Re nu| < 1.

    The base integral is pi sec(pi nu/2); x-powers are nu-derivatives, and the
    j-th derivative of sec is sec times a polynomial in tan, built by the
    recursion P_{j+1} = (pi/2) (t P_j + (1 + t^2) P_j').
    """
    nu = complex(nu)
    if abs(nu.real) >= 1.0:
        raise RuntimeError(
            f"frequency {nu} outside the sech weight strip |Re nu| < 1"
        )
    a = np.pi / 2
    t = complex(np.tan(a * nu))
    sec = 1.0 / complex(np.cos(a * nu))
    poly = np.array([1.0])  # coefficients in t, low order first
    out = []
    for _ in range(smax + 1):
        out.append(np.pi * sec * complex(npoly.polyval(t, poly)))
        poly = a * (
            npoly.polyadd(
                npoly.polymul([0.0, 1.0], poly),
                npoly.polymul([1.0, 0.0, 1.0], npoly.polyder(poly)),
            )
        )
    return out


def weight_moments(weight, nu, smax):
    if weight == "gaussian":
        return gaussian_weight_moments(nu, smax)
    if weight == "sech":
        return sech_weight_moments(nu, smax)
    raise ValueError(f"unknown weight {weight!r}")


# ---------------------------------------------------------------------------
# projection


@dataclass
class Projection:
    """Idempotent projection onto the span of a kernel basis.

    ``gram`` holds the functional matrix A with A[k, l] = f_k(phi_l);
    coordinates of u are A^{-1} (f_k(u))_k.  ``augmented`` records whether the
    default functional choice was ill conditioned and extra derivative orders
    were selected greedily.
    """

    basis: KernelBasis
    functionals: list
    gram: np.ndarray
    gram_inverse: np.ndarray
    flavor: str
    weight: str | None = None
    augmented: bool = False

    def coordinates(self, u):
        b = np.array([f.apply(u) for f in self.functionals])
        return self.gram_inverse @ b

    def coordinate_rows(self, nu, degree):
        """(M, (degree+1) n) matrix taking the flattened coefficients of one
        term at ``nu`` to its coordinates; ``coordinates`` sums these."""
        rows = np.array([f.rows(nu, degree).ravel() for f in self.functionals])
        return self.gram_inverse @ rows


def _chain_directions(elements, directions):
    """Candidate directions for ``elements``, in element order, deduplicated.

    ``directions`` optionally replaces chain head vectors: it maps (group,
    chain, sign of Im nu) to a vector; heads are used where no entry exists.
    """
    dirs = []
    for el in elements:
        key = (el.group, el.chain, 1 if el.nu.imag >= 0 else -1)
        d = np.asarray(directions.get(key, el.head), dtype=complex)
        if not any(np.linalg.norm(d - e) < 1e-12 for e in dirs):
            dirs.append(d)
    return dirs


def _functional_matrix(functionals, basis):
    return np.array([[f.apply(el.function) for el in basis.elements] for f in functionals])


def _greedy_select(candidates, basis, m):
    """Pick m functionals maximizing the smallest singular value greedily."""
    C = _functional_matrix(candidates, basis)
    chosen = []
    remaining = list(range(len(candidates)))
    for _ in range(m):
        best, best_s = None, -1.0
        for i in remaining:
            s = np.linalg.svd(C[chosen + [i]], compute_uv=False)[-1]
            if s > best_s:
                best_s, best = s, i
        chosen.append(best)
        remaining.remove(best)
    return [candidates[i] for i in chosen]


def build_pointwise(basis, directions=None):
    """Projection from derivative evaluations at x = 0.

    Per root group of total size s, functionals pair derivative orders
    0..s-1 with the group's chain directions (order-major, truncated at s).
    With a single direction per group this is the classical jet matrix; when
    the resulting global matrix is ill conditioned, functionals are reselected
    greedily from a larger pool of orders and ``augmented`` is flagged.
    """
    directions = directions or {}
    functionals = []
    ngroups = max((el.group for el in basis.elements), default=-1) + 1
    for gi in range(ngroups):
        group_elements = [el for el in basis.elements if el.group == gi]
        s = len(group_elements)
        dirs = _chain_directions(group_elements, directions)
        pool = [
            DerivativeFunctional(m, d) for m in range(s) for d in dirs
        ]
        functionals.extend(pool[:s])
    A = _functional_matrix(functionals, basis)
    augmented = False
    if np.linalg.cond(A) > GRAM_COND_LIMIT:
        max_order = basis.size + max(el.order for el in basis.elements) + 3
        dirs = _chain_directions(basis.elements, directions)
        pool = [
            DerivativeFunctional(m, d) for m in range(max_order + 1) for d in dirs
        ]
        functionals = _greedy_select(pool, basis, basis.size)
        A = _functional_matrix(functionals, basis)
        augmented = True
        if np.linalg.cond(A) > GRAM_COND_LIMIT:
            raise RuntimeError(
                "functional matrix is singular even after derivative-order "
                "augmentation; degenerate direction choice"
            )
    return Projection(
        basis=basis,
        functionals=functionals,
        gram=A,
        gram_inverse=np.linalg.inv(A),
        flavor="pointwise",
        augmented=augmented,
    )


def build_gram(basis, weight="gaussian"):
    """Projection from weighted inner products against the basis functions."""
    functionals = [WeightedFunctional(weight, el.function) for el in basis.elements]
    A = _functional_matrix(functionals, basis)
    if np.linalg.cond(A) > GRAM_COND_LIMIT:
        raise RuntimeError(f"singular Gram matrix for weight {weight!r}")
    return Projection(
        basis=basis,
        functionals=functionals,
        gram=A,
        gram_inverse=np.linalg.inv(A),
        flavor="gram",
        weight=weight,
    )
