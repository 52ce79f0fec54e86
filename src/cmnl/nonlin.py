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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import convolve
from .quasipoly import QuasiPolynomial, multiply, place_component


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

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.max_order < 2:
            raise ValueError("max_order must be at least 2")
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


def apply_term(term, args):
    """Evaluate one term on quasi-polynomial arguments, exactly.

    ``args`` supplies one quasi-polynomial per factor slot.  Inner
    convolutions and the outer convolution use the coefficient identity, the
    pointwise products stay in the algebra, so the result is exact up to
    floating point.  The formal ``mu^r`` factor is not applied.
    """
    if len(args) != term.degree:
        raise ValueError(
            f"term of degree {term.degree} applied to {len(args)} arguments"
        )
    n = args[0].n
    if any(u.n != n for u in args):
        raise ValueError("argument dimensions differ")
    out = walk_term(term, args, n, convolve, QuasiPolynomial.component,
                    multiply, place_component)
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
