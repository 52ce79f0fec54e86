"""Shared model kernels and problem builders for the test suite."""

import numpy as np

from cmnl.jet import compute_jet
from cmnl.kernel import GaussianMixture
from cmnl.nonlin import NonlinearitySpec, TaylorTerm
from cmnl.projection import build_pointwise, kernel_basis
from cmnl.spectrum import locate_roots

SQRT_PI = np.sqrt(np.pi)


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
    return scaled_gaussian(c1, 1.0) + scaled_gaussian(c2, 0.25)


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
        declared_symmetries=frozenset({"reflection", "sign"}),
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
    K = G.scale(-1.0)
    Gp = G.differentiate()
    Gpp = Gp.differentiate()
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
        declared_symmetries=frozenset({"reflection", "sign"}),
    )
    return K, compute_jet(K, P, F, order), G
