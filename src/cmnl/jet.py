"""Order-by-order reduction: the graph map's Taylor coefficients and the
reduced vector field on the kernel coordinates.

With ``u0 = sum_i c_i phi_i`` ranging over the kernel basis and formal
parameters ``mu``, the graph ansatz ``u = u0 + Psi(c, mu)`` with
``Psi = sum Psi_m c^m mu^r`` and every ``Psi_m`` in ker Q is inserted into
``u + K*u + F(u, mu) = 0``.  Matching the monomial ``c^m mu^r`` at total
order ``o`` yields ``T Psi_m + G_m = 0`` where ``G_m`` collects the
multilinear expansion of F's terms over pieces of order below ``o``; each
``Psi_m`` is produced by the bordered solver with zero target coordinates.

The expansion enumerates, per term, the multisets of pieces over each group
of interchangeable slots (same kernel, same component), weighted by their
multinomial count.  The slot products of one (term, index) are summed
first; the coefficient and the outer convolution are applied once.

Every frequency of the jet is a lattice point ``sum_r k_r nu_r`` over the
distinct roots.  The lattice is built once per ``compute_jet``, and the
frequencies of every right-hand side are snapped to it before the outer
convolution and the solve, so each lattice point is one float.  Keyed on
those exact frequencies, one ``TransformMemo`` per call shares the kernel
transforms between the convolutions, the bordered solves and the residuals,
and keeps each block system's factorization.

The reduced field is obtained by differentiating the translation flow at
time zero.  Shifting a quasi-polynomial and projecting commutes with
differentiation, so the coefficient of the field at index ``m`` is simply
the projection of ``d/dx Psi_m`` (and of ``d/dx phi_i`` for the linear
part).

``scale_field`` applies a small-parameter scaling ``x = eps^a x_hat``,
``c_i = eps^{b_i} e^{i omega_i x} c_hat_i``, ``mu_p = eps^{g_p} mu_hat_p``
and splits the field into the epsilon-order-zero resonant part and dropped
terms with their orders.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field as dataclass_field
from math import factorial

import numpy as np

from .kernel import TransformMemo, apply_T
from .nonlin import apply_series, apply_term, finish_term
from .quasipoly import FREQ_TOL, QuasiPolynomial
from .tsolve import ROOT_MATCH_TOL, BorderedProblem, solve


@dataclass(frozen=True)
class JetIndex:
    """Multi-index over kernel coordinates (``powers``) and parameters (``mu``)."""

    powers: tuple
    mu: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "powers", tuple(int(p) for p in self.powers))
        object.__setattr__(self, "mu", tuple(int(r) for r in self.mu))
        if any(p < 0 for p in self.powers) or any(r < 0 for r in self.mu):
            raise ValueError("exponents must be nonnegative")

    @property
    def order(self):
        """Total order, every parameter counting with weight one."""
        return sum(self.powers) + sum(self.mu)

    def graded_key(self):
        """Sort key: graded lexicographic, coordinates before parameters."""
        return (self.order, self.powers + self.mu)

    def monomial(self, coords, mu=()):
        """Numeric value of ``c^powers mu^mu``."""
        w = 1.0 + 0.0j
        for c, p in zip(coords, self.powers):
            if p:
                w *= c**p
        for v, r in zip(mu, self.mu):
            if r:
                w *= v**r
        return w

    def to_data(self):
        return {"powers": list(self.powers), "mu": list(self.mu)}


@dataclass
class JetResult:
    """Computed reduction: graph coefficients, field, and diagnostics.

    ``psi`` maps indices of total order >= 2 to ker-Q quasi-polynomials;
    indices whose right-hand side vanished identically are listed in
    ``vanished`` instead.  ``field`` includes the linear part (unit indices)
    alongside one entry per stored graph coefficient.  ``diagnostics`` holds
    the per-index relative solver residual.
    """

    projection: object
    nonlinearity: object
    order: int
    weights: tuple
    psi: dict
    field: dict = dataclass_field(default_factory=dict)
    diagnostics: dict = dataclass_field(default_factory=dict)
    vanished: tuple = ()

    @property
    def basis(self):
        return self.projection.basis

    @property
    def nparams(self):
        return self.nonlinearity.nparams

    def indices(self):
        """Stored graph indices in graded lexicographic order."""
        return sorted(self.psi, key=JetIndex.graded_key)

    def field_indices(self):
        return sorted(self.field, key=JetIndex.graded_key)

    def to_data(self):
        entries = []
        for idx in self.indices():
            entries.append(
                {
                    "index": idx.to_data(),
                    "psi": self.psi[idx].to_data(),
                    "residual": self.diagnostics[idx],
                }
            )
        fld = []
        for idx in self.field_indices():
            vec = self.field[idx]
            fld.append(
                {
                    "index": idx.to_data(),
                    "coeff": [[float(z.real), float(z.imag)] for z in vec],
                }
            )
        return {
            "order": self.order,
            "weights": list(self.weights),
            "psi": entries,
            "field": fld,
            "vanished": [idx.to_data() for idx in
                         sorted(self.vanished, key=JetIndex.graded_key)],
        }


def _unit(M, i):
    m = [0] * M
    m[i] = 1
    return tuple(m)


def _pad(t, n):
    return tuple(t) + (0,) * (n - len(t))


class _Piece:
    """One summand of the graph expansion: quasi-polynomial times monomial."""

    __slots__ = ("m", "rho", "value", "order")

    def __init__(self, m, rho, value, order):
        self.m, self.rho, self.value, self.order = m, rho, value, order


class _Lattice:
    """The jet's frequencies sum_r k_r nu_r over the distinct roots nu_r.

    A root whose negative is already a generator (the conjugate of an axis
    root) adds none.  The points are the roots themselves, then every
    combination with sum |k_r| <= order; a point within ``FREQ_TOL`` of an
    earlier one is that point, so each lattice point is one float.
    """

    def __init__(self, roots, order):
        gens = []
        for nu in roots:
            if all(abs(nu - g) > ROOT_MATCH_TOL and abs(nu + g) > ROOT_MATCH_TOL
                   for g in gens):
                gens.append(nu)

        def combos(r, left):
            if r == len(gens):
                yield 0
                return
            for k in range(-left, left + 1):
                for rest in combos(r + 1, left - abs(k)):
                    yield k * gens[r] + rest

        points = []
        for p in (*roots, *combos(0, order)):
            if not points or np.abs(np.subtract(points, p)).min() > FREQ_TOL:
                points.append(p)
        self._points = points
        self._array = np.array(points)
        self._snapped = {p: p for p in points}

    def snap(self, nu):
        """The lattice point within ``FREQ_TOL`` of ``nu`` (else ``nu``)."""
        p = self._snapped.get(nu)
        if p is None:
            p = self._points[int(np.abs(self._array - nu).argmin())]
            p = self._snapped[nu] = p if abs(p - nu) <= FREQ_TOL else nu
        return p


def _slot_multisets(term, pieces, budget):
    """Yield ``(weight, args)``: the term's argument lists whose piece orders
    sum to ``budget``, each once up to reordering interchangeable slots.

    Slots with the same (kernel, component) commute in the pointwise
    product, so each such group takes a multiset of pieces, weighted by its
    multinomial count.  With all slots distinct this is every ordered
    assignment once.  ``pieces`` is sorted by order.
    """
    groups = {}
    for slot, factor in enumerate(term.factors):
        groups.setdefault(factor, []).append(slot)
    slots = [s for g in groups.values() for s in g]
    spans, lo = [], 0
    for g in groups.values():
        spans.append((lo, lo + len(g)))
        lo += len(g)
    starts = {lo for lo, _ in spans}
    top = pieces[-1].order
    chosen = []

    def rec(pos, start, remaining):
        # piece indices never decrease inside a group
        left = len(slots) - pos
        if left == 0:
            yield list(chosen)
            return
        if pos in starts:
            start = 0
        for i in range(start, len(pieces)):
            o = pieces[i].order
            if o > remaining - (left - 1):
                break
            if remaining - o <= top * (left - 1):
                chosen.append(i)
                yield from rec(pos + 1, i, remaining - o)
                chosen.pop()

    for picks in rec(0, 0, budget):
        weight = 1
        for lo, hi in spans:
            group = picks[lo:hi]
            weight *= factorial(hi - lo)
            for i in set(group):
                weight //= factorial(group.count(i))
        args = [None] * len(slots)
        for s, i in zip(slots, picks):
            args[s] = pieces[i]
        yield weight, args


def _term_rhs(term, pieces, budget, rho_t, lattice, memo):
    """One term's part of the right-hand sides, as {(m, rho): value}.

    The slot products of each index are summed on lattice frequencies
    first; the coefficient and the outer convolution are applied once.
    """
    n = pieces[0].value.n
    parts = defaultdict(list)
    for weight, args in _slot_multisets(term, pieces, budget):
        m = tuple(map(sum, zip(*(p.m for p in args))))
        rho = tuple(map(sum, zip(rho_t, *(p.rho for p in args))))
        prod = apply_term(term, [p.value for p in args], memo, finish=False)
        parts[m, rho].extend(
            (lattice.snap(nu), weight * c) for nu, c in prod.terms)
    return {key: finish_term(term, QuasiPolynomial(1, terms), n, memo)
            for key, terms in parts.items()}


def compute_jet(K, projection, F, order, weights=None):
    """Compute the graph map and reduced field to the given total order.

    ``projection`` fixes the kernel basis and the bordering; ``F`` is the
    nonlinearity series.  ``weights`` optionally reweights each formal
    parameter's contribution to the total order (default: weight one each).
    """
    basis = projection.basis
    M = basis.size
    nparams = F.nparams
    if order < 2:
        raise ValueError("minimum order 2: the graph map starts at quadratic order")
    if order > F.max_order:
        raise ValueError(
            f"order {order} exceeds the nonlinearity's Taylor order {F.max_order}"
        )
    if weights is None:
        weights = (1,) * nparams
    weights = tuple(int(w) for w in weights)
    if len(weights) != nparams or any(w < 1 for w in weights):
        raise ValueError("need one positive weight per formal parameter")

    lattice = _Lattice([el.nu for el in basis.elements], order)
    memo = TransformMemo()
    zero_rho = (0,) * nparams
    pieces = [
        _Piece(_unit(M, i), zero_rho, el.function, 1)
        for i, el in enumerate(basis.elements)
    ]
    psi, diagnostics, vanished = {}, {}, []

    for o in range(2, order + 1):
        rhs = {}
        for t in F.terms:
            rho_t = _pad(t.mu_power, nparams)
            budget = o - sum(w * r for w, r in zip(weights, rho_t))
            if budget < t.degree:
                continue
            for key, g in _term_rhs(t, pieces, budget, rho_t, lattice,
                                    memo).items():
                rhs[key] = g if key not in rhs else rhs[key] + g
        for key in sorted(rhs, key=lambda k: (sum(k[0]) + sum(k[1]), k[0] + k[1])):
            g = rhs[key]
            idx = JetIndex(*key)
            if g.max_coeff() == 0.0:
                vanished.append(idx)
                continue
            u = solve(BorderedProblem(K, projection, g), memo=memo)
            psi[idx] = u
            diagnostics[idx] = (apply_T(K, u, memo) + g).max_coeff() / (
                1.0 + g.max_coeff()
            )
            pieces.append(_Piece(key[0], key[1], u, o))

    result = JetResult(
        projection=projection,
        nonlinearity=F,
        order=order,
        weights=weights,
        psi=psi,
        diagnostics=diagnostics,
        vanished=tuple(vanished),
    )
    result.field = reduced_field(result)
    return result


def flow_coordinates(projection, g):
    """Coordinates of the translation-flow derivative of ``g`` at time zero.

    Shifting then projecting commutes with d/dx on quasi-polynomial data, so
    this is the projection of ``g'``.
    """
    return projection.coordinates(g.differentiate())


def reduced_field(J):
    """Field coefficients: flow derivative of every graph entry plus the
    linear part from the basis elements themselves."""
    P = J.projection
    M = J.basis.size
    zero_rho = (0,) * J.nparams
    out = {}
    for i, el in enumerate(J.basis.elements):
        idx = JetIndex(_unit(M, i), zero_rho)
        out[idx] = flow_coordinates(P, el.function)
    for idx, u in J.psi.items():
        out[idx] = flow_coordinates(P, u)
    return out


def evaluate_field(fld, coords, mu=()):
    """Numeric right-hand side ``f(coords, mu)`` of the reduced equation."""
    coords = np.asarray(coords, dtype=complex)
    out = np.zeros(coords.shape[0], dtype=complex)
    for idx, vec in fld.items():
        out += np.asarray(vec) * idx.monomial(coords, mu)
    return out


def manifold_point(J, coords, mu=()):
    """Quasi-polynomial on the manifold graph at the given coordinates."""
    u = J.basis.combine(coords)
    for idx, psi in J.psi.items():
        w = idx.monomial(coords, mu)
        if w != 0:
            u = u + psi.scale(w)
    return u


def equation_residual(K, F, u, mu=()):
    """Exact algebra residual ``u + K*u + F(u, mu)``."""
    return apply_T(K, u) + apply_series(F, u, mu)


# ---------------------------------------------------------------------------
# scaling


@dataclass
class ScaledField:
    """Leading-order field after a small-parameter scaling.

    ``field`` keeps the epsilon-order-zero resonant coefficients; ``dropped``
    records ``(coordinate, index, epsilon_order, oscillatory)`` for every
    removed term.
    """

    field: dict
    dropped: tuple
    coord_exponents: tuple
    x_exponent: float
    param_exponents: tuple
    phases: tuple


def scale_field(fld, coord_exponents, x_exponent, param_exponents=(),
                phases=None, tol=1e-9):
    """Apply ``x = eps^a x_hat``, ``c_i = eps^{b_i} e^{i omega_i x} c_hat_i``,
    ``mu_p = eps^{g_p} mu_hat_p`` and return the leading-order field.

    A term scales like ``eps^e`` with ``e = b.m + g.r - b_i - a`` on
    coordinate ``i``; terms with ``e = 0`` and vanishing phase mismatch are
    kept, positive orders and oscillatory terms are dropped and reported,
    and any negative order raises (the scaling has no leading balance).
    When phases are given, the linear rotation ``i omega_i c_i`` is removed
    from the diagonal before bookkeeping.
    """
    b = tuple(float(v) for v in coord_exponents)
    g = tuple(float(v) for v in param_exponents)
    M = len(b)
    omega = None if phases is None else tuple(float(v) for v in phases)
    if omega is not None and len(omega) != M:
        raise ValueError("need one phase per coordinate")

    work = {idx: np.array(vec, dtype=complex) for idx, vec in fld.items()}
    if omega is not None:
        for i in range(M):
            idx = JetIndex(_unit(M, i), (0,) * _mu_len(work))
            if idx in work:
                work[idx][i] -= 1j * omega[i]

    # coefficients below tol relative to the largest one are numerical zeros
    peak = max((float(np.abs(v).max()) for v in work.values()), default=0.0)
    floor = tol * peak
    kept = {}
    dropped = []
    for idx, vec in work.items():
        if len(idx.powers) != M:
            raise ValueError("field index length does not match exponents")
        if len(idx.mu) > len(g):
            raise ValueError("need one parameter exponent per parameter")
        base = sum(bv * p for bv, p in zip(b, idx.powers))
        base += sum(gv * r for gv, r in zip(g, idx.mu))
        for i in np.flatnonzero(np.abs(vec) > floor):
            e = base - b[i] - x_exponent
            theta = 0.0
            if omega is not None:
                theta = sum(w * p for w, p in zip(omega, idx.powers)) - omega[i]
            oscillatory = abs(theta) > 1e-9
            if e < -tol:
                raise ValueError(
                    f"non-positive leading balance: coordinate {i} at index"
                    f" {idx.powers}|{idx.mu} scales like eps^{e:.3g}"
                )
            if oscillatory or e > tol:
                dropped.append((int(i), idx, float(e), oscillatory))
            else:
                if idx not in kept:
                    kept[idx] = np.zeros(M, dtype=complex)
                kept[idx][i] = vec[i]
    return ScaledField(
        field=kept,
        dropped=tuple(dropped),
        coord_exponents=b,
        x_exponent=float(x_exponent),
        param_exponents=g,
        phases=omega,
    )


def _mu_len(fld):
    for idx in fld:
        return len(idx.mu)
    return 0
