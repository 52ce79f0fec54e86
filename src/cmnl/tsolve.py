"""Bordered linear solver: u + K*u + g = 0 with prescribed kernel coordinates.

On quasi-polynomials the operator T(u) = u + K*u acts frequency by frequency:
T(x^j e^{nu x} c) = e^{nu x} sum_r C(j,r) That^(r)(nu) c x^{j-r}, so each
frequency of the right-hand side yields an upper-triangular block system with
That(nu) on the diagonal.  At a characteristic root the diagonal is singular
and the ansatz degree is raised by the root's algebraic multiplicity; the
system is then solved in the minimum-norm sense with the singular directions
truncated, and the remaining kernel freedom is fixed afterwards so that the
projection of the solution equals the requested coordinates.

The block system is solved in Taylor-scaled unknowns: with
c~_j = j! c_j, b~_s = s! b_s and blocks A~[s, j] = That^(j-s)(nu) / (j-s)!,
the rows read sum_j A~[s, j] c~_j = b~_s, and c_j = c~_j / j!.  The plain
blocks C(j, s) That^(j-s) grow with the degree like binomials.  For a
right-hand side of degree 9 at the double root of the conjugate-pair test
kernel, their nonzero singular values ran from 2.4e5 down to 1.4e-4, and
the cutoff ``tol * sigma_max`` dropped a genuine direction; the scaled
blocks do not grow with the degree.
"""

from dataclasses import dataclass
from math import factorial

import numpy as np

from .kernel import TransformMemo
from .quasipoly import QuasiPolynomial
from .spectrum import _truncated_svd

ROOT_MATCH_TOL = 1e-7


@dataclass
class BorderedProblem:
    """Data of one bordered solve.

    ``target_coords`` defaults to zero (solution orthogonal to the kernel in
    the projection's sense).
    """

    K: object
    projection: object
    g: QuasiPolynomial
    target_coords: np.ndarray | None = None

    def __post_init__(self):
        m = self.projection.basis.size
        if self.target_coords is None:
            self.target_coords = np.zeros(m, dtype=complex)
        else:
            self.target_coords = np.asarray(self.target_coords, dtype=complex)
            if self.target_coords.shape != (m,):
                raise ValueError(f"expected {m} target coordinates")


def _root_multiplicities(basis):
    """Representative root frequencies with algebraic multiplicities."""
    roots = []
    for el in basis.elements:
        for k, (nu, alpha) in enumerate(roots):
            if abs(el.nu - nu) <= ROOT_MATCH_TOL:
                roots[k] = (nu, alpha + 1)
                break
        else:
            roots.append((el.nu, 1))
    return roots


def _solve_frequency(K, nu, coeffs, alpha, tol, memo):
    """Solve the block system for one frequency of g.

    ``coeffs`` is the (q+1, n) polynomial part of g at nu; the ansatz carries
    degree q + alpha.  Returns the (q+alpha+1, n) coefficients of u at nu.
    The system is solved in the Taylor-scaled unknowns ``j! c_j``; its
    factorization is kept in ``memo.blocks`` per (kernel, nu, degree).
    """
    n = K.n
    q = coeffs.shape[0] - 1
    D = q + alpha
    key = (K, nu, D, tol)
    block = memo.blocks.get(key)
    if block is None:
        derivs = [memo.transform(K, nu, k) / factorial(k) for k in range(D + 1)]
        derivs[0] = derivs[0] + np.eye(n)
        A = np.zeros(((D + 1) * n, (D + 1) * n), dtype=complex)
        for s in range(D + 1):
            for j in range(s, D + 1):
                A[s * n : (s + 1) * n, j * n : (j + 1) * n] = derivs[j - s]
        block = memo.blocks[key] = (A,) + _truncated_svd(A, tol)
    A, Uh, sv, V = block
    b = np.zeros((D + 1) * n, dtype=complex)
    for s in range(q + 1):
        b[s * n : (s + 1) * n] = -factorial(s) * coeffs[s]
    c = V @ ((Uh @ b) / sv)
    if np.linalg.norm(A @ c - b) > 10 * tol * (1 + np.linalg.norm(b)):
        raise RuntimeError(
            f"inconsistent compatibility condition at frequency {nu}: the "
            "multiplicity data does not match the kernel"
        )
    scale = np.array([factorial(j) for j in range(D + 1)], dtype=float)
    return c.reshape(D + 1, n) / scale[:, None]


def solve(problem, tol=1e-9, memo=None):
    """Unique quasi-polynomial u with u + K*u + g = 0 and Q(u) = target.

    ``memo`` (a ``kernel.TransformMemo``) shares transforms and factored
    blocks across the solves of one computation.  Checking the residual
    ``u + K*u + g`` is the caller's job: ``compute_jet`` records it per
    index, and the CLI gates it with ``--tol-solve``.
    """
    if memo is None:
        memo = TransformMemo()
    K, P, g = problem.K, problem.projection, problem.g
    basis = P.basis
    if g.n != K.n:
        raise ValueError("right-hand side dimension does not match the kernel")
    strip = basis.strip
    roots = _root_multiplicities(basis)
    terms = []
    for nu, coeffs in g.terms:
        if strip is not None and abs(nu.real) > strip + 1e-12:
            raise ValueError(
                f"frequency {nu} lies outside the certified strip |Re| <= {strip}"
            )
        alpha = 0
        for nu_r, a in roots:
            if abs(nu - nu_r) <= ROOT_MATCH_TOL:
                nu, alpha = nu_r, a
                break
        terms.append((nu, _solve_frequency(K, nu, coeffs, alpha, tol, memo)))
    u = QuasiPolynomial(K.n, terms)
    deltas = problem.target_coords - P.coordinates(u)
    for delta, el in zip(deltas, basis.elements):
        if delta != 0:
            terms.extend((nu, delta * c) for nu, c in el.function.terms)
    return QuasiPolynomial(K.n, terms)
