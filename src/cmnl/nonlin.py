"""Finite Taylor grammar for the nonlinear part of the convolution equation.

A nonlinearity is a finite formal sum of separable multilinear convolution
terms

    coeff * mu^r * Outer * [ prod_i (K_i * u)_{c_i} ] e_t,

where the product over factor slots is pointwise in x, each inner kernel
``K_i`` is optional (``None`` means the bare argument), ``c_i`` picks a
component, ``e_t`` is the unit vector of the output component, and ``Outer``
is an optional final convolution.  Terms evaluate exactly on quasi-polynomial
arguments through the moment calculus, so the order-by-order reduction never
needs quadrature.

Declared symmetries (reflection x -> -x, sign u -> -u, and orthogonal matrix
actions on components) are verified term by term: sign equivariance is a
parity condition on the degree, reflection requires every kernel to be even
(checked through vanishing odd moments), and matrix actions require the
coefficient tensors of each term group to commute with the action.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernel import convolve
from .quasipoly import QuasiPolynomial, multiply, place_component

KNOWN_SYMMETRIES = ("reflection", "sign")

_ODD_MOMENTS = (1, 3, 5)
_EVEN_MOMENTS = (0, 2, 4)
_ACTION_SAMPLES = (0.0, 0.37j, 0.21 + 0.14j)


@dataclass(frozen=True)
class TaylorTerm:
    """One separable multilinear convolution term.

    ``factors`` lists ``(kernel, component)`` pairs, one per argument slot;
    a ``None`` kernel means the slot uses the argument itself.  ``target``
    is the output component receiving the pointwise product.  ``mu_power``
    accepts a single exponent or one exponent per formal parameter and is
    stored as a tuple; parameter factors are tracked formally, the term's
    value never includes them.
    """

    coeff: complex
    factors: tuple
    mu_power: tuple = ()
    outer: object = None
    target: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coeff", complex(self.coeff))
        factors = tuple((kern, int(comp)) for kern, comp in self.factors)
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise ValueError("a term needs at least one u-factor")
        mu = self.mu_power
        mu = (int(mu),) if np.isscalar(mu) else tuple(int(r) for r in mu)
        object.__setattr__(self, "mu_power", mu)
        if any(r < 0 for r in mu):
            raise ValueError("mu_power must be nonnegative")

    @property
    def degree(self):
        """Number of u-factors."""
        return len(self.factors)

    @property
    def parameter_order(self):
        """Total formal-parameter exponent."""
        return sum(self.mu_power)


def polynomial_terms(coeffs, kernel=None, outer=None, mu_power=()):
    """Terms for a scalar pointwise polynomial ``sum_d coeffs[d] u^d``.

    ``coeffs[d]`` multiplies ``u^d``; the entry for ``d = 0`` must be absent
    or zero.  ``kernel`` is applied inside each factor, ``outer`` outside the
    product.  The default leaves the terms parameter-free.  Convenience for
    one-component problems.
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


@dataclass(frozen=True)
class NonlinearitySpec:
    """Finite Taylor series of multilinear convolution terms.

    The series has no constant part and no parameter-free linear part: a
    term with ``mu_power == 0`` must have degree at least two.  Degree plus
    ``mu_power`` (the parameter counts with weight one) must stay within
    ``max_order``.
    """

    terms: tuple
    max_order: int
    declared_symmetries: frozenset = frozenset()
    matrix_actions: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(
            self, "declared_symmetries", frozenset(self.declared_symmetries)
        )
        object.__setattr__(self, "matrix_actions", tuple(self.matrix_actions))
        if self.max_order < 2:
            raise ValueError("max_order must be at least 2")
        unknown = self.declared_symmetries.difference(KNOWN_SYMMETRIES)
        if unknown:
            raise ValueError(f"unknown symmetries: {sorted(unknown)}")
        for i, t in enumerate(self.terms):
            if t.parameter_order == 0 and t.degree < 2:
                raise ValueError(
                    f"term {i}: parameter-free part must start at degree 2"
                )
            if t.degree + t.parameter_order > self.max_order:
                raise ValueError(
                    f"term {i}: degree {t.degree} + parameter order"
                    f" {t.parameter_order} exceeds max_order {self.max_order}"
                )

    @property
    def nparams(self):
        """Number of formal parameters referenced by the terms."""
        return max((len(t.mu_power) for t in self.terms), default=0)


def walk_slots(term, args, n, convolve, component, product):
    """The pointwise product over the factor slots of one term.

    ``args`` holds one argument per factor slot, each with ``n`` components.
    The operations supply the representation: ``convolve(kernel, v)``,
    ``component(v, c)`` (a one-component value) and ``product(a, b)``
    (pointwise).  The result has one component.
    """
    if not 0 <= term.target < n:
        raise ValueError(f"output component {term.target} out of range")
    prod = None
    for (kern, comp), u in zip(term.factors, args):
        if not 0 <= comp < n:
            raise ValueError(f"factor component {comp} out of range")
        if kern is None:
            s = component(u, comp)
        elif kern.n == 1 and n != 1:
            # scalar kernels broadcast componentwise
            s = convolve(kern, component(u, comp))
        else:
            s = component(convolve(kern, u), comp)
        prod = s if prod is None else product(prod, s)
    return prod


def walk_outer(term, prod, n, convolve, place):
    """Place a slot product at the term's target and apply the outer kernel.

    ``place(v, n, target)`` turns a one-component value into an
    ``n``-vector.  The step is linear in ``prod``, so the slot products of
    several arguments may be summed first.
    """
    outer = term.outer
    if outer is not None and outer.n == 1 and n != 1:
        return place(convolve(outer, prod), n, term.target)
    out = place(prod, n, term.target)
    return out if outer is None else convolve(outer, out)


def walk_term(term, args, n, convolve, component, product, place):
    """The slot walk of one term, shared by the exact and the grid evaluators.

    ``walk_slots`` followed by ``walk_outer``.  Neither the coefficient nor
    the ``mu^r`` factor is applied.
    """
    prod = walk_slots(term, args, n, convolve, component, product)
    return walk_outer(term, prod, n, convolve, place)


def _exact_convolve(memo):
    # resolves the module's ``convolve`` at call time
    return lambda kern, v: convolve(kern, v, memo)


def apply_term(term, args, memo=None, finish=True):
    """Evaluate one term on quasi-polynomial arguments, exactly.

    ``args`` supplies one quasi-polynomial per factor slot.  Inner
    convolutions and the outer convolution use the coefficient identity, the
    pointwise products stay in the algebra, so the result is exact up to
    floating point.  The formal ``mu^r`` factor is not applied.  ``memo``
    (a ``kernel.TransformMemo``) shares the kernel transforms.  With
    ``finish=False`` only the one-component slot product is returned;
    ``finish_term`` completes it.
    """
    if len(args) != term.degree:
        raise ValueError(
            f"term of degree {term.degree} applied to {len(args)} arguments"
        )
    n = args[0].n
    if any(u.n != n for u in args):
        raise ValueError("argument dimensions differ")
    prod = walk_slots(term, args, n, _exact_convolve(memo),
                      QuasiPolynomial.component, multiply)
    return finish_term(term, prod, n, memo) if finish else prod


def finish_term(term, prod, n, memo=None):
    """Coefficient, placement and outer convolution of an exact slot product."""
    out = walk_outer(term, prod, n, _exact_convolve(memo), place_component)
    return out.scale(term.coeff)


def mu_weight(term, mu):
    """Numeric value of the term's formal factor ``mu^r``."""
    weight = 1.0 + 0j
    for p, r in enumerate(term.mu_power):
        if r == 0:
            continue
        if p >= len(mu):
            raise ValueError(
                f"term needs parameter {p}, only {len(mu)} supplied"
            )
        weight *= mu[p] ** r
    return weight


def apply_series(F, u, mu=()):
    """Evaluate the whole series at the single argument ``u``, exactly.

    ``mu`` supplies numeric values of the formal parameters; every term's
    arguments are all equal to ``u``.
    """
    mu = (mu,) if np.isscalar(mu) else tuple(mu)
    out = QuasiPolynomial.zero(u.n)
    for t in F.terms:
        weight = mu_weight(t, mu)
        if weight == 0:
            continue
        out = out + apply_term(t, [u] * t.degree).scale(weight)
    return out


# ---------------------------------------------------------------------------
# symmetry verification


@dataclass
class SymmetryReport:
    """Outcome of the per-term symmetry verification."""

    passed: bool
    violations: list = field(default_factory=list)

    def __bool__(self):
        return self.passed


def _kernel_is_even(K, tol=1e-9):
    """Even kernels have vanishing odd moments."""
    scale = 1.0 + max(np.abs(K.moment(m, 0.0)).max() for m in _EVEN_MOMENTS)
    return all(
        np.abs(K.moment(m, 0.0)).max() <= tol * scale for m in _ODD_MOMENTS
    )


def _term_kernels(term):
    kernels = [] if term.outer is None else [term.outer]
    kernels.extend(kern for kern, _ in term.factors if kern is not None)
    return kernels


def _check_reflection(terms, violations):
    for i, t in enumerate(terms):
        for K in _term_kernels(t):
            if not _kernel_is_even(K):
                violations.append(
                    f"term {i}: kernel with nonvanishing odd moments breaks"
                    " reflection equivariance"
                )
                break


def _check_sign(terms, violations):
    for i, t in enumerate(terms):
        if t.degree % 2 == 0:
            violations.append(
                f"term {i}: even degree {t.degree} breaks sign equivariance"
            )


def _group_tensors(terms, n):
    """Coefficient tensors of terms sharing (mu_power, kernels, slots)."""
    groups = {}
    for t in terms:
        key = (
            t.mu_power,
            id(t.outer),
            tuple(id(kern) for kern, _ in t.factors),
        )
        tensor = groups.get(key)
        if tensor is None:
            tensor = np.zeros((n,) * (1 + t.degree), dtype=complex)
            groups[key] = tensor
        tensor[(t.target,) + tuple(comp for _, comp in t.factors)] += t.coeff
    return groups


def _kernel_commutes(K, rho, tol=1e-9):
    for s in _ACTION_SAMPLES:
        val = K.transform(s)
        if np.abs(rho @ val - val @ rho).max() > tol * (1 + np.abs(val).max()):
            return False
    return True


def _check_actions(terms, actions, violations):
    if not terms:
        return
    n_min = 1
    for t in terms:
        n_min = max(n_min, t.target + 1, *(comp + 1 for _, comp in t.factors))
        n_min = max(n_min, *(K.n for K in _term_kernels(t)), 1)
    for a, rho in enumerate(actions):
        rho = np.asarray(rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] < n_min:
            violations.append(
                f"action {a}: shape {rho.shape} is too small for the terms"
            )
            continue
        n = rho.shape[0]
        for i, t in enumerate(terms):
            for K in _term_kernels(t):
                if K.n != 1 and not _kernel_commutes(K, rho):
                    violations.append(
                        f"action {a}: kernel in term {i} does not commute"
                    )
        for (mu_r, _, _), tensor in _group_tensors(terms, n).items():
            d = tensor.ndim - 1
            rotated = tensor
            for axis in range(1, d + 1):
                rotated = np.moveaxis(
                    np.tensordot(rotated, rho, axes=([axis], [0])), -1, axis
                )
            pushed = np.tensordot(rho, tensor, axes=([1], [0]))
            if not np.allclose(rotated, pushed, atol=1e-10):
                violations.append(
                    f"action {a}: coefficient tensor at mu^{mu_r},"
                    f" degree {d} does not commute with the action"
                )


def check_symmetries(F):
    """Verify each declared symmetry term by term; list violations."""
    violations = []
    if "reflection" in F.declared_symmetries:
        _check_reflection(F.terms, violations)
    if "sign" in F.declared_symmetries:
        _check_sign(F.terms, violations)
    if F.matrix_actions:
        _check_actions(F.terms, F.matrix_actions, violations)
    return SymmetryReport(passed=not violations, violations=violations)
