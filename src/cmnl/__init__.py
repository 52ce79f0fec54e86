"""Center-manifold reduction of nonlocal convolution equations on the line.

The package computes finite-dimensional reductions of equations of the form

    u(x) + (K * u)(x) + F(u, mu)(x) = 0,   x in R,

where K is a matrix-valued convolution kernel with exponential decay and F is
an analytic superposition/convolution nonlinearity.  The pipeline is:

1. ``spectrum``   -- characteristic roots of nu |-> det(I + Khat(nu)) in a
                     strip around the imaginary axis, with Jordan chains;
2. ``projection`` -- dual functionals spanning the center subspace;
3. ``tsolve``     -- bordered solver for T u = g on quasi-polynomials;
4. ``jet``        -- order-by-order Taylor jet of the reduction map and the
                     reduced vector field on the center coordinates;
5. ``verify``     -- shooting of the planar limit systems, profile
                     reconstruction, and convolution residuals.

Everything is exact arithmetic over the quasi-polynomial algebra implemented
in ``quasipoly``; floating point enters only through kernel transforms and
linear solves.  ``problem`` and ``cli`` wrap the pipeline behind a JSON
problem-file schema and the ``cm`` command.
"""

from cmnl.jet import (
    JetIndex,
    JetResult,
    compute_jet,
    equation_residual,
    evaluate_field,
    manifold_point,
    scale_field,
)
from cmnl.kernel import (
    DiracMixture,
    ExponentialMixture,
    GaussianMixture,
    SumKernel,
    SymbolKernel,
    apply_T,
    convolve,
)
from cmnl.kernel import from_data as kernel_from_data
from cmnl.nonlin import NonlinearitySpec, TaylorTerm
from cmnl.problem import ProblemDefinition, ProblemError, load_problem
from cmnl.projection import build_gram, build_pointwise, kernel_basis
from cmnl.quasipoly import QuasiPolynomial
from cmnl.spectrum import locate_roots
from cmnl.tsolve import BorderedProblem, solve
from cmnl.verify import (
    front_report,
    grid_convolve,
    pulse_scaling_report,
    reconstruct,
    residual,
)

__all__ = [
    "BorderedProblem",
    "DiracMixture",
    "ExponentialMixture",
    "GaussianMixture",
    "JetIndex",
    "JetResult",
    "NonlinearitySpec",
    "ProblemDefinition",
    "ProblemError",
    "QuasiPolynomial",
    "SumKernel",
    "SymbolKernel",
    "TaylorTerm",
    "apply_T",
    "build_gram",
    "build_pointwise",
    "compute_jet",
    "convolve",
    "equation_residual",
    "evaluate_field",
    "front_report",
    "grid_convolve",
    "kernel_basis",
    "kernel_from_data",
    "load_problem",
    "locate_roots",
    "manifold_point",
    "pulse_scaling_report",
    "reconstruct",
    "residual",
    "scale_field",
    "solve",
]
__version__ = "0.1.0"
