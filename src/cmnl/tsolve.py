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

The scaled system is block Toeplitz.  ``block_operator`` turns it into one
solve matrix per (frequency, degree): off the roots, block back-substitution
with one inverse of the diagonal block (``inverse_series``); at a root, the
truncated SVD, whose cutoff and singular-value gap it reports.  ``solve``
and ``compute_jet`` both solve each frequency through ``solve_frequency``.
"""

from dataclasses import dataclass
from math import factorial

import numpy as np

from .kernel import taylor_transforms, toeplitz_blocks
from .quasipoly import QuasiPolynomial
from .spectrum import _truncated_svd

ROOT_MATCH_TOL = 1e-7

# relative SVD cutoff of the block systems at a root
BLOCK_TOL = 1e-9


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


def block_operator(series, alpha, tol):
    """Taylor-scaled block system of T at one frequency, and its solver.

    ``series`` holds the Taylor coefficients of That = I + Khat at the
    frequency, through the ansatz degree D; ``alpha`` is the root
    multiplicity there (0 off the roots).  Returns ``(A, S, gap)``: the
    block matrix ``A``, the matrix ``S`` with ``c~ = S b~``, and at a root
    the truncation record ``(cutoff, smallest kept sigma, largest dropped
    sigma)`` (``None`` off the roots).
    """
    D = series.shape[0] - 1
    A = toeplitz_blocks(series, D)
    if alpha == 0:
        return A, toeplitz_blocks(inverse_series(series), D), None
    return (A,) + truncated_inverse(A, tol)


def inverse_series(series):
    """Block back-substitution: the series B with (sum A_k z^k)(sum B_k z^k) = I.

    Its Toeplitz matrix inverts the one of ``series``; only the diagonal
    block ``A_0`` is factored.
    """
    inv0 = np.linalg.inv(series[0])
    out = np.empty_like(series)
    out[0] = inv0
    for k in range(1, series.shape[0]):
        acc = sum(series[j] @ out[k - j] for j in range(1, k + 1))
        out[k] = -inv0 @ acc
    return out


def truncated_inverse(A, tol):
    """Minimum-norm solver of ``A c = b`` with singular values below
    ``tol * max(sigma_max, 1)`` truncated, and its truncation record."""
    Uh, s, V, cutoff, dropped = _truncated_svd(A, tol)
    kept = float(s.min()) if s.size else 0.0
    return V @ (Uh / s[:, None]), (cutoff, kept, dropped)


def solve_frequency(A, S, coeffs, tol, nu):
    """Solve the block system for one frequency of g.

    ``coeffs`` is the (q+1, n) polynomial part of g at ``nu``; ``A`` and
    ``S`` come from ``block_operator`` at the ansatz degree D = q + alpha.
    Returns the (D+1, n) coefficients of u at ``nu``.
    """
    n = coeffs.shape[1]
    D1 = A.shape[0] // n
    fact = np.array([float(factorial(j)) for j in range(D1)])
    b = np.zeros((D1, n), dtype=complex)
    b[: coeffs.shape[0]] = -fact[: coeffs.shape[0], None] * coeffs
    b = b.ravel()
    c = S @ b
    # ``not <=`` also rejects a NaN from a singular diagonal block
    if not np.linalg.norm(A @ c - b) <= 10 * tol * (1 + np.linalg.norm(b)):
        raise RuntimeError(
            f"inconsistent compatibility condition at frequency {nu}: the "
            "multiplicity data does not match the kernel"
        )
    return c.reshape(D1, n) / fact[:, None]


def t_series(K, nus, degree):
    """Taylor coefficients of That = I + Khat at ``nus`` through ``degree``."""
    series = taylor_transforms(K, nus, degree)
    series[:, 0] += np.eye(K.n)
    return series


def check_strip(nu, strip):
    """Reject a frequency outside the certified strip |Re nu| <= ``strip``."""
    if strip is not None and abs(nu.real) > strip + 1e-12:
        raise ValueError(
            f"frequency {nu} lies outside the certified strip |Re| <= {strip}"
        )


def solve(problem, tol=BLOCK_TOL):
    """Unique quasi-polynomial u with u + K*u + g = 0 and Q(u) = target.

    Checking the residual ``u + K*u + g`` is the caller's job: the CLI gates
    the jet's per-index residual with ``--tol-solve``.
    """
    K, P, g = problem.K, problem.projection, problem.g
    basis = P.basis
    if g.n != K.n:
        raise ValueError("right-hand side dimension does not match the kernel")
    roots = _root_multiplicities(basis)
    plan = []
    for nu, coeffs in g.terms:
        check_strip(nu, basis.strip)
        alpha = 0
        for nu_r, a in roots:
            if abs(nu - nu_r) <= ROOT_MATCH_TOL:
                nu, alpha = nu_r, a
                break
        plan.append((nu, coeffs, alpha))
    top = max((c.shape[0] - 1 + a for _, c, a in plan), default=0)
    series = t_series(K, [nu for nu, _, _ in plan], top)
    terms = []
    for (nu, coeffs, alpha), ser in zip(plan, series):
        A, S, _ = block_operator(ser[: coeffs.shape[0] + alpha], alpha, tol)
        terms.append((nu, solve_frequency(A, S, coeffs, tol, nu)))
    u = QuasiPolynomial(K.n, terms)
    deltas = problem.target_coords - P.coordinates(u)
    for delta, el in zip(deltas, basis.elements):
        if delta != 0:
            terms.extend((nu, delta * c) for nu, c in el.function.terms)
    return QuasiPolynomial(K.n, terms)
