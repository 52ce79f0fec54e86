"""Center-manifold reduction of nonlocal convolution equations on the line.

The package computes finite-dimensional reductions of equations of the form

    u(x) + (K * u)(x) + F(u, mu)(x) = 0,   x in R,

where K is a matrix-valued convolution kernel with exponential decay and F is
an analytic superposition/convolution nonlinearity.  The pipeline is:

1. ``spectrum``   -- characteristic roots of nu |-> det(I + Khat(nu)) in a
                     strip around the imaginary axis, with Jordan chains;
2. ``projection`` -- dual functionals spanning the center subspace;
3. ``tsolve``     -- per-frequency block systems of the bordered problem
                     T u + g = 0, Q(u) = target;
4. ``jet``        -- the bordered solver on coefficient rows, and with it the
                     order-by-order Taylor jet of the reduction map and the
                     reduced vector field on the center coordinates;
5. ``verify``     -- shooting of the planar limit systems, profile
                     reconstruction, and convolution residuals.

The jet is solved order by order on coefficient rows over the lattice of
root frequencies, through per-frequency closed forms (``kernel``,
``tsolve``), so floating point enters only through kernel transforms and
linear solves; the basis and the graph map come back as ``QuasiPolynomial``
(``quasipoly``).  ``solve`` runs one ``BorderedProblem`` through the same
solver.  ``verify`` then works on x-grids.  ``problem`` and ``cli`` wrap the
pipeline behind a JSON problem-file schema and the ``cm`` command.
"""

from cmnl.jet import (
    JetIndex,
    JetResult,
    compute_jet,
    scale_field,
    solve,
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
from cmnl.nonlin import NonlinearitySpec, TaylorTerm
from cmnl.problem import (
    ProblemDefinition, ProblemError, kernel_from_data, load_problem)
from cmnl.projection import build_gram, build_pointwise, kernel_basis
from cmnl.quasipoly import QuasiPolynomial
from cmnl.spectrum import locate_roots
from cmnl.tsolve import BorderedProblem
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
    "front_report",
    "grid_convolve",
    "kernel_basis",
    "kernel_from_data",
    "load_problem",
    "locate_roots",
    "pulse_scaling_report",
    "reconstruct",
    "residual",
    "scale_field",
    "solve",
]
__version__ = "0.1.0"
