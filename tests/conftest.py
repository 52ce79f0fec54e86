"""Shared model kernels and problem builders for the test suite."""

import numpy as np
from hypothesis import settings

from cmnl.jet import compute_jet
from cmnl.kernel import ExponentialMixture, GaussianMixture
from cmnl.nonlin import NonlinearitySpec, TaylorTerm
from cmnl.projection import build_pointwise, kernel_basis
from cmnl.spectrum import locate_roots

from reference import add_kernels, combine, coordinates, differentiate_kernel, scale_kernel

SQRT_PI = np.sqrt(np.pi)

# Every run of the suite draws the same hypothesis examples, so a failure
# repeats; nothing is read from or written to an example database.
settings.register_profile("repeatable", derandomize=True, deadline=None, database=None)
settings.load_profile("repeatable")


def scaled_gaussian(c, a=1.0, b=0.0):
    """K(x) = c exp(-a (x - b)^2)."""
    return GaussianMixture.single(c, a, b)


def simple_zero_kernel():
    """Asymmetric gaussian kernel (a + b x) e^{-x^2} whose only axis root is a
    simple characteristic root at nu = 0.

    The transform is sqrt(pi) e^{nu^2/4} (a - b nu / 2); the amplitudes give
    Khat(0) = -1 and Khat'(0) = 1.
    """
    return GaussianMixture.single(
        1.0, 1.0, poly=[-1.0 / SQRT_PI, -2.0 / SQRT_PI]
    )


def critical_pair_kernel():
    """Scalar two-gaussian kernel whose characteristic roots are exactly the
    double conjugate pair +-i.

    With K = c1 e^{-x^2} + c2 e^{-x^2/4} the transform is
    c1 sqrt(pi) e^{nu^2/4} + 2 c2 sqrt(pi) e^{nu^2}; the chosen amplitudes
    make 1 + Khat and its nu-derivative vanish at nu = i.
    """
    c1 = -(4.0 / 3.0) * np.exp(0.25) / SQRT_PI
    c2 = np.e / (6.0 * SQRT_PI)
    return add_kernels(scaled_gaussian(c1, 1.0), scaled_gaussian(c2, 0.25))


def two_exponential_kernel():
    """c1 e^{-|x|} + c2 e^{-2|x|} with simple axis roots at +-0.3i, +-0.7i:
    1 + 2 c1/(1 - s) + 4 c2/(4 - s) = 0 at s = nu^2 = -0.09 and -0.49."""
    s = np.array([-0.09, -0.49])
    c1, c2 = np.linalg.solve(np.column_stack([2 / (1 - s), 4 / (4 - s)]), [-1.0, -1.0])
    return ExponentialMixture([(c1, 1.0, 0.0), (c2, 2.0, 0.0)])


def project(P, u):
    """(coordinates of u, their combination of the basis) under projection P."""
    coords = coordinates(P, u)
    return coords, combine(P.basis, coords)


def polynomial_terms(coeffs, kernel=None, outer=None, mu_power=()):
    """Terms for a scalar pointwise polynomial ``sum_d coeffs[d] u^d``.

    ``coeffs[d]`` multiplies ``u^d``; the entry for ``d = 0`` must be absent
    or zero.  ``kernel`` is applied inside each factor, ``outer`` outside the
    product.  The default leaves the terms parameter-free.
    """
    terms = []
    for d, c in enumerate(coeffs):
        if c == 0:
            continue
        if d == 0:
            raise ValueError("constant terms are not part of the grammar")
        terms.append(
            TaylorTerm(c, ((kernel, 0),) * d, mu_power=mu_power, outer=outer)
        )
    return terms


def build_pair_jet(order=3, max_order=5):
    """Reduction of u + K*u - mu K*u + (1/3) K*(u^3) = 0 over the double
    conjugate pair of ``critical_pair_kernel``.  Returns (K, jet result).
    """
    K = critical_pair_kernel()
    basis = kernel_basis(K, locate_roots(K))
    P = build_pointwise(basis)
    F = NonlinearitySpec(
        (
            TaylorTerm(-1.0, ((None, 0),), mu_power=1, outer=K),
            TaylorTerm(1.0 / 3.0, ((None, 0),) * 3, outer=K),
        ),
        max_order=max_order,
    )
    return K, compute_jet(K, P, F, order)


def build_front_jet(order=3):
    """Reduction of the comoving pitchfork problem over the length-two chain
    at frequency zero.

    The stationary equation in the comoving frame expands as
    u - G*u - mu G*u - c G'*u - c^2 G''*u - c mu G'*u + G*(u^3) + higher
    order, with G the unit-mass gaussian e^{-x^2}/sqrt(pi) (parameter 0 is
    the bifurcation parameter mu, parameter 1 the wave speed c).  Returns
    (K, jet result, G).
    """
    G = GaussianMixture.single(1.0 / SQRT_PI, 1.0)
    K = scale_kernel(G, -1.0)
    Gp = differentiate_kernel(G)
    Gpp = differentiate_kernel(Gp)
    basis = kernel_basis(K, locate_roots(K))
    P = build_pointwise(basis)
    F = NonlinearitySpec(
        (
            TaylorTerm(-1.0, ((None, 0),), mu_power=(1, 0), outer=G),
            TaylorTerm(-1.0, ((None, 0),), mu_power=(0, 1), outer=Gp),
            TaylorTerm(-1.0, ((None, 0),), mu_power=(0, 2), outer=Gpp),
            TaylorTerm(-1.0, ((None, 0),), mu_power=(1, 1), outer=Gp),
            TaylorTerm(1.0, ((None, 0),) * 3, outer=G),
        ),
        max_order=5,
    )
    return K, compute_jet(K, P, F, order), G
