"""Per-frequency algebra of the bordered problem u + K*u + g = 0, Q(u) = target.

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
truncated SVD, whose cutoff and singular-value gap it reports.
``solve_frequency`` applies it to a stack of right-hand sides at one
frequency and degree.  The solver itself is ``jet._Solver``: ``compute_jet``
stacks a whole jet order on it, and ``jet.solve`` runs one
``BorderedProblem`` through it.
"""

from math import factorial

import numpy as np

from .kernel import toeplitz_blocks
from .spectrum import _truncated_svd

# relative SVD cutoff of the block systems at a root
BLOCK_TOL = 1e-9


class BorderedProblem:
    """Data of one bordered solve.

    ``target_coords`` defaults to zero (solution orthogonal to the kernel in
    the projection's sense).
    """

    def __init__(self, K, projection, g, target_coords=None):
        self.K, self.projection, self.g = K, projection, g
        m = projection.basis.size
        if target_coords is None:
            self.target_coords = np.zeros(m, dtype=complex)
        else:
            self.target_coords = np.asarray(target_coords, dtype=complex)
            if self.target_coords.shape != (m,):
                raise ValueError(f"expected {m} target coordinates")


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
    U, s, Vh, keep, cutoff = _truncated_svd(A, tol)
    kept = float(s[keep].min()) if keep.any() else 0.0
    dropped = float(s[~keep].max(initial=0.0))
    return (Vh[keep].conj().T @ (U[:, keep].conj().T / s[keep, None]),
            (cutoff, kept, dropped))


def solve_frequency(A, S, coeffs, tol, nu):
    """Solve the block systems of a stack of right-hand sides at one frequency.

    ``coeffs`` is the (k, q+1, n) stack of polynomial parts of k right-hand
    sides at ``nu``; ``A`` and ``S`` come from ``block_operator`` at the
    ansatz degree D = q + alpha.  Returns the (k, D+1, n) solutions, each by
    its own matrix-vector product, so stacking does not change its bits.
    """
    k, q1, n = coeffs.shape
    D1 = A.shape[0] // n
    fact = np.array([float(factorial(j)) for j in range(D1)])
    b = np.zeros((k, D1, n), dtype=complex)
    b[:, :q1] = -fact[:q1, None] * coeffs
    b = b.reshape(k, -1, 1)
    c = S[None] @ b
    # ``not <=`` also rejects a NaN from a singular diagonal block
    if not (np.linalg.norm((A[None] @ c - b)[..., 0], axis=1)
            <= 10 * tol * (1 + np.linalg.norm(b[..., 0], axis=1))).all():
        raise RuntimeError(
            f"inconsistent compatibility condition at frequency {nu}: the "
            "multiplicity data does not match the kernel"
        )
    return c.reshape(k, D1, n) / fact[:, None]


def check_strip(nu, strip):
    """Reject a frequency outside the certified strip |Re nu| <= ``strip``."""
    if strip is not None and abs(nu.real) > strip + 1e-12:
        raise RuntimeError(
            f"frequency {nu} lies outside the certified strip |Re| <= {strip}"
        )
