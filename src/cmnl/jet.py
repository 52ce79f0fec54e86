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
distinct roots, built once per ``compute_jet`` (``_Lattice``) together with
a table of index sums.  Inside the call every piece is held as lattice
rows, ``{point: (degree+1, n) coefficient array}``; only the psi entries
and the basis are quasi-polynomials.  On rows (``_Rows``), a pointwise
product adds indices through the table and convolves the degree axes, and
a convolution applies one moment matrix per point, built from batched
kernel transforms at the points the right-hand sides reach.  The same
``nonlin.walk_slots``/``walk_outer`` that evaluate a term on
quasi-polynomials drive these operations.  ``_Solver`` keeps one solve
operator per (point, degree): block back-substitution off the roots, a
truncated SVD at a root (its singular-value gap goes to ``root_blocks``).
The right-hand sides of one order depend only on lower orders, so the
whole order is solved at once: the (index, point) pairs are stacked per
(point, degree), and each stack gets one solve, one coordinate product,
one residual matvec and one flow product.  A stacked product is one
matrix-vector product per pair, so every pair keeps the bits of its own.

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

from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from math import factorial
from operator import add

import numpy as np

from .kernel import apply_T, convolution_matrix, taylor_transforms
# ``apply_term`` and ``solve`` stay bound here because bench/tracer.py
# wraps cmnl.jet.apply_term and cmnl.jet.solve by name
from .nonlin import apply_series, apply_term, walk_outer, walk_slots  # noqa: F401
from .problem import ProblemError
from .quasipoly import FREQ_TOL, TRIM_REL, QuasiPolynomial, kept_rows
from .tsolve import (  # noqa: F401
    BLOCK_TOL, ROOT_MATCH_TOL, block_operator, check_strip, solve, solve_frequency)


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
        """Numeric value of ``c^powers mu^mu``.

        Coordinate j is ``coords[..., j]``: one point, or a path with one
        point per row.  Every parameter the index raises to a positive power
        needs a value in ``mu``.
        """
        if len(mu) < len(self.mu) and any(self.mu[len(mu):]):
            raise ValueError(
                f"index needs {len(self.mu)} parameter values, got {len(mu)}"
            )
        coords = np.asarray(coords)
        w = np.ones(coords.shape[:-1], dtype=complex)
        for j, p in enumerate(self.powers):
            if p:
                w = w * coords[..., j] ** p
        for v, r in zip(mu, self.mu):
            if r:
                w = w * v**r
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
    the per-index relative solver residual.  ``root_blocks`` records each
    block factored at a root, sorted by (Im nu, Re nu, degree): the SVD
    cutoff, the smallest kept and the largest dropped singular value.
    """

    projection: object
    nonlinearity: object
    order: int
    weights: tuple
    psi: dict
    field: dict = dataclass_field(default_factory=dict)
    diagnostics: dict = dataclass_field(default_factory=dict)
    vanished: tuple = ()
    root_blocks: tuple = ()

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
        """Report data.  The psi blocks (``terms[k]["poly"]``) and the field
        vectors stay complex arrays, shared with this result (copy them
        before editing); ``cli.canonical_json`` writes them as nested lists
        of ``[re, im]`` pairs, which ``json.dumps`` does not."""
        entries = [{"index": idx.to_data(), "residual": self.diagnostics[idx],
                    "psi": {"n": self.psi[idx].n,
                            "terms": [{"nu": [nu.real, nu.imag], "poly": c}
                                      for nu, c in self.psi[idx].terms]}}
                   for idx in self.indices()]
        fld = [{"index": idx.to_data(),
                "coeff": np.asarray(self.field[idx], dtype=complex)}
               for idx in self.field_indices()]
        return {
            "order": self.order,
            "weights": list(self.weights),
            "psi": entries,
            "field": fld,
            "vanished": [idx.to_data() for idx in
                         sorted(self.vanished, key=JetIndex.graded_key)],
            "root_blocks": list(self.root_blocks),
        }


def _unit(M, i):
    m = [0] * M
    m[i] = 1
    return tuple(m)


def _pad(t, n):
    return tuple(t) + (0,) * (n - len(t))


class _Piece:
    """One summand of the graph expansion: lattice rows times monomial."""

    __slots__ = ("m", "rho", "value", "order")

    def __init__(self, m, rho, value, order):
        self.m, self.rho, self.value, self.order = m, rho, value, order


def _vectors(G, left):
    """Integer vectors of length G with sum |k_r| <= left."""
    if G == 0:
        yield ()
        return
    for k in range(-left, left + 1):
        for rest in _vectors(G - 1, left - abs(k)):
            yield (k,) + rest


class _Lattice:
    """The jet's frequencies sum_r k_r nu_r over the distinct roots nu_r.

    A root whose negative is already a generator (the conjugate of an axis
    root) adds none.  The integer vectors k with sum |k_r| <= order are
    enumerated by increasing sum; a vector whose frequency lies within
    ``FREQ_TOL`` of an earlier one names that point, and each root keeps its
    exact value.  ``add[i][j]`` is the point of the sum of the points i and
    j (their first vectors added), -1 beyond the order.
    """

    def __init__(self, roots, order):
        gens = []
        for nu in roots:
            if all(abs(nu - g) > ROOT_MATCH_TOL and abs(nu + g) > ROOT_MATCH_TOL
                   for g in gens):
                gens.append(nu)
        points, first, point_of = [], [], {}
        for k in sorted(_vectors(len(gens), order),
                        key=lambda k: (sum(map(abs, k)), k)):
            value = sum((kr * g for kr, g in zip(k, gens)), 0j)
            if points:
                dist = np.abs(np.subtract(points, value))
                j = int(dist.argmin())
                if dist[j] <= FREQ_TOL:
                    point_of[k] = j
                    continue
            point_of[k] = len(points)
            points.append(value)
            first.append(k)
        for nu in roots:
            j = int(np.abs(np.subtract(points, nu)).argmin())
            if abs(points[j] - nu) <= ROOT_MATCH_TOL:
                points[j] = nu
        self.add = [[point_of.get(tuple(map(add, a, b)), -1) for b in first]
                    for a in first]
        self.points = np.array(points)
        self.index = {nu: i for i, nu in enumerate(points)}


def _accumulate(out, k, arr):
    """Add the coefficient array ``arr`` (owned by the caller) at point k."""
    prev = out.get(k)
    if prev is None:
        out[k] = arr
    elif prev.shape[0] >= arr.shape[0]:
        prev[: arr.shape[0]] += arr
    else:
        arr[: prev.shape[0]] += prev
        out[k] = arr


def _add_rows(acc, rows, scale):
    """acc += scale * rows, without sharing arrays with ``rows``."""
    for i, c in rows.items():
        _accumulate(acc, i, scale * c)


def _trim(rowsets):
    """Each row set without the coefficients below ``TRIM_REL`` of its own
    largest magnitude, as ``QuasiPolynomial`` trims; one pass over all rows."""
    items = [(j, i, c) for j, rows in enumerate(rowsets) for i, c in rows.items()]
    out = [{} for _ in rowsets]
    if items:
        sizes = [c.shape[0] for _, _, c in items]
        owner = np.repeat([j for j, _, _ in items], sizes)
        mags = np.abs(np.concatenate([c for _, _, c in items])).max(axis=1)
        scale = np.zeros(len(rowsets))
        np.maximum.at(scale, owner, mags)
        for (j, i, c), k in zip(items, kept_rows(mags, TRIM_REL * scale[owner], sizes)):
            if k:
                out[j][i] = c[:k]
    return out


def _stacks(rowsets):
    """``[(point, js, stack)]``: the arrays of the row sets stacked per
    (point, rows), ``js`` the numbers of their sets."""
    groups = {}
    for j, rows in enumerate(rowsets):
        for i, c in rows.items():
            groups.setdefault((i, c.shape[0]), []).append((j, c))
    return [(i, [j for j, _ in m], np.array([c for _, c in m]))
            for (i, _), m in groups.items()]


class _Rows:
    """Operations on lattice rows ``{point: (degree+1, n) array}``.

    A product adds lattice indices and convolves the degree axes; a
    convolution applies ``kernel.convolution_matrix`` per point.  Kernel
    Taylor coefficients are fetched in batches (``prefetch``) and kept per
    (kernel, point), so a point is transformed only once a row reaches it.
    """

    def __init__(self, lattice, n):
        self.lattice = lattice
        self.n = n
        self._series = {}
        self._conv = {}

    def from_quasi(self, u):
        return {self.lattice.index[nu]: c.copy() for nu, c in u.terms}

    def to_quasi(self, rows):
        return QuasiPolynomial(
            self.n, [(self.lattice.points[i], c) for i, c in rows.items()])

    def prefetch(self, K, wants):
        """Extend K's Taylor coefficients to ``wants`` = {point: degree}."""
        have = self._series.setdefault(K, {})
        need = {i: d for i, d in wants.items()
                if i not in have or have[i].shape[0] <= d}
        if not need:
            return
        lo = min(have[i].shape[0] if i in have else 0 for i in need)
        hi = max(need.values())
        new = taylor_transforms(K, self.lattice.points[list(need)], hi, lo)
        for i, block in zip(need, new):
            old = have.get(i)
            have[i] = block if old is None else np.concatenate(
                [old, block[old.shape[0] - lo:]])

    def series(self, K, i, degree):
        """Khat^(r)(nu_i) / r! for r = 0 to at least ``degree``."""
        have = self._series.get(K, {}).get(i)
        if have is None or have.shape[0] <= degree:
            self.prefetch(K, {i: degree})
            have = self._series[K][i]
        return have

    def conv_matrix(self, K, i, degree):
        size = (degree + 1) * K.n
        M = self._conv.get((K, i))
        if M is None or M.shape[0] < size:
            ser = self.series(K, i, degree)
            M = self._conv[K, i] = convolution_matrix(ser, ser.shape[0] - 1)
        return M[:size, :size]

    def convolve(self, K, v):
        return {i: (self.conv_matrix(K, i, c.shape[0] - 1) @ c.ravel())
                .reshape(c.shape) for i, c in v.items()}

    def component(self, v, comp):
        if self.n == 1:
            return v
        return {i: c[:, comp:comp + 1] for i, c in v.items()}

    def product(self, a, b):
        add = self.lattice.add
        out = {}
        for i, ca in a.items():
            row, x = add[i], ca[:, 0]
            for j, cb in b.items():
                k = row[j]
                if k < 0:
                    raise RuntimeError("product frequency beyond the jet lattice")
                _accumulate(out, k, np.convolve(x, cb[:, 0])[:, None])
        return out

    def place(self, v, n, target):
        if n == 1:
            return v
        out = {}
        for i, c in v.items():
            out[i] = np.zeros((c.shape[0], n), dtype=complex)
            out[i][:, target] = c[:, 0]
        return out


def _degrees(rowsets, extra=lambda i: 0):
    """{point: largest degree (plus ``extra(point)``) over the row sets}."""
    out = {}
    for rows in rowsets:
        for i, c in rows.items():
            d = c.shape[0] - 1 + extra(i)
            if d > out.get(i, -1):
                out[i] = d
    return out


class _Solver:
    """Bordered solves, residuals and coordinates of one jet on lattice rows.

    One solve operator per (point, degree) comes from ``tsolve``: block
    back-substitution off the roots, the truncated SVD at a root, whose
    truncation record is kept in ``root_blocks``.  Coordinate and flow rows
    per point come from ``Projection.coordinate_rows``.
    """

    def __init__(self, K, projection, rows, tol=BLOCK_TOL):
        self.K, self.P, self.rows, self.tol = K, projection, rows, tol
        index = rows.lattice.index
        self.alpha = Counter(index[el.nu] for el in projection.basis.elements)
        self.basis = [rows.from_quasi(el.function)
                      for el in projection.basis.elements]
        self._ops = {}
        self._coords = {}
        self.root_blocks = []

    def prefetch(self, rhs):
        """Check the strip and fetch the transforms of the solves of ``rhs``."""
        wants = _degrees(rhs, lambda i: self.alpha[i])
        for i in wants:
            check_strip(self.rows.lattice.points[i], self.P.basis.strip)
        self.rows.prefetch(self.K, wants)

    def _operator(self, i, D):
        op = self._ops.get((i, D))
        if op is None:
            series = self.rows.series(self.K, i, D)[: D + 1].copy()
            series[0] += np.eye(self.K.n)
            A, S, gap = block_operator(series, self.alpha[i], self.tol)
            if gap is not None:
                self.root_blocks.append((self.rows.lattice.points[i], D, gap))
            op = self._ops[i, D] = (A, S)
        return op

    def solve(self, gs):
        """Rows of each u with u + K*u + g = 0 and zero coordinates: one
        stacked solve per (point, degree), then the basis combination that
        zeroes the coordinates, added to each stack at a basis point."""
        points = self.rows.lattice.points
        us = [dict.fromkeys(g) for g in gs]
        stacks = {}
        for i, js, G in _stacks(gs):
            A, S = self._operator(i, G.shape[1] - 1 + self.alpha[i])
            U = solve_frequency(A, S, G, self.tol, points[i])
            for j, c in zip(js, U):
                us[j][i] = c
            stacks.setdefault(i, []).append((js, U))
        for b, delta in zip(self.basis, -self.coordinates(us).T):
            for i, c in b.items():
                for js, U in stacks.get(i, ()):
                    sel = np.flatnonzero(delta[js])
                    U[sel, : c.shape[0]] += delta[js][sel, None, None] * c
                for j in np.flatnonzero(delta).tolist():
                    if i not in gs[j]:
                        _accumulate(us[j], i, delta[j] * c)
        return us

    def residual(self, us, gs):
        """max |u + K*u + g| / (1 + max |g|) of each pair, one stacked block
        matvec per (point, rows of u, rows of g); rows of g beyond u count
        in full."""
        none = np.zeros((0, self.K.n), dtype=complex)
        groups = {}
        for j, (u, g) in enumerate(zip(us, gs)):
            for i in u.keys() | g.keys():
                c, gi = u.get(i, none), g.get(i, none)
                groups.setdefault((i, c.shape[0], gi.shape[0]), []).append((j, c, gi))
        worst, gmax = np.zeros(len(us)), np.zeros(len(us))
        for (i, du, dg), m in groups.items():
            js = [j for j, _, _ in m]
            U, G = np.array([c for _, c, _ in m]), np.array([g for _, _, g in m])
            r = np.zeros((len(js), max(du, dg), self.K.n), dtype=complex)
            if du:
                M = self.rows.conv_matrix(self.K, i, du - 1)
                r[:, :du] = U + (M[None] @ U.reshape(len(js), -1, 1)).reshape(U.shape)
            r[:, :dg] += G
            worst[js] = np.maximum(worst[js], np.abs(r).max(axis=(1, 2)))
            gmax[js] = np.maximum(gmax[js], np.abs(G).max(axis=(1, 2), initial=0.0))
        return (worst / (1.0 + gmax)).tolist()

    def _coordinate_rows(self, i, degree):
        n = self.K.n
        cols = (degree + 1) * n
        have = self._coords.get(i)
        if have is None or have[0].shape[1] < cols:
            nu = self.rows.lattice.points[i]
            R = self.P.coordinate_rows(nu, degree)
            # d/dx (c_q x^q e^{nu x}): nu c_q at x^q and q c_q at x^{q-1}
            deriv = nu * np.eye(degree + 1) + np.diag(np.arange(1, degree + 1), 1)
            have = self._coords[i] = (R, R @ np.kron(deriv, np.eye(n)))
        return have[0][:, :cols], have[1][:, :cols]

    def coordinates(self, us, flow=False):
        """Projection coordinates of each u, or of u' with ``flow``: one
        stacked row-matrix product per (point, degree), the partials of each
        u added in its own point order."""
        place = {(j, i): p for j, u in enumerate(us) for p, i in enumerate(u)}
        parts = np.zeros((max(map(len, us), default=0), len(us), self.P.basis.size),
                         dtype=complex)
        for i, js, C in _stacks(us):
            R = self._coordinate_rows(i, C.shape[1] - 1)[flow]
            C = C.reshape(len(js), -1, 1)
            parts[[place[j, i] for j in js], js] = (R[None] @ C)[..., 0]
        out = np.zeros(parts.shape[1:], dtype=complex)
        for p in parts:
            out += p
        return out


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


def _term_rhs(term, pieces, budget, rho_t, rows):
    """One term's part of the right-hand sides, as {(m, rho): rows}.

    The slot products of each index are summed first; the coefficient, the
    placement and the outer convolution are applied once.
    """
    n = rows.n
    parts = {}
    for weight, args in _slot_multisets(term, pieces, budget):
        m = tuple(map(sum, zip(*(p.m for p in args))))
        rho = tuple(map(sum, zip(rho_t, *(p.rho for p in args))))
        prod = walk_slots(term, [p.value for p in args], n, rows.convolve,
                          rows.component, rows.product)
        _add_rows(parts.setdefault((m, rho), {}), prod, weight)
    if term.outer is not None:
        rows.prefetch(term.outer, _degrees(parts.values()))
    out = {}
    for key, prod in parts.items():
        out[key] = {}
        _add_rows(out[key], walk_outer(term, prod, n, rows.convolve, rows.place),
                  term.coeff)
    return out


def compute_jet(K, projection, F, order, weights=None):
    """Compute the graph map and reduced field to the given total order.

    ``projection`` fixes the kernel basis and the bordering; ``F`` is the
    nonlinearity series.  ``weights`` optionally reweights each formal
    parameter's contribution to the total order (default: weight one each).
    An order outside ``2..F.max_order`` raises ``ProblemError``: the order
    comes from the problem file or the command line.
    """
    basis = projection.basis
    M = basis.size
    nparams = F.nparams
    if order < 2:
        raise ProblemError("minimum order 2: the graph map starts at quadratic order")
    if order > F.max_order:
        raise ProblemError(
            f"order {order} exceeds the nonlinearity's Taylor order {F.max_order}"
        )
    if weights is None:
        weights = (1,) * nparams
    weights = tuple(int(w) for w in weights)
    if len(weights) != nparams or any(w < 1 for w in weights):
        raise ValueError("need one positive weight per formal parameter")

    rows = _Rows(_Lattice([el.nu for el in basis.elements], order), K.n)
    solver = _Solver(K, projection, rows)
    inner = {kern for t in F.terms for kern, _ in t.factors if kern is not None}
    zero_rho = (0,) * nparams
    pieces, fld = [], {}
    for i, b in enumerate(solver.basis):
        pieces.append(_Piece(_unit(M, i), zero_rho, b, 1))
        fld[JetIndex(_unit(M, i), zero_rho)] = solver.coordinates([b], flow=True)[0]
    psi, diagnostics, vanished = {}, {}, []

    for o in range(2, order + 1):
        for kern in inner:
            rows.prefetch(kern, _degrees(p.value for p in pieces))
        rhs = {}
        for t in F.terms:
            rho_t = _pad(t.mu_power, nparams)
            budget = o - sum(w * r for w, r in zip(weights, rho_t))
            if budget < t.degree:
                continue
            for key, g in _term_rhs(t, pieces, budget, rho_t, rows).items():
                _add_rows(rhs.setdefault(key, {}), g, 1.0)
        rhs = dict(zip(rhs, _trim(list(rhs.values()))))
        solver.prefetch(rhs.values())
        keys = sorted(rhs, key=lambda k: (sum(k[0]) + sum(k[1]), k[0] + k[1]))
        vanished += [JetIndex(*key) for key in keys if not rhs[key]]
        keys = [key for key in keys if rhs[key]]
        gs = [rhs[key] for key in keys]
        us = _trim(solver.solve(gs))
        for key, u, r, f in zip(keys, us, solver.residual(us, gs),
                                solver.coordinates(us, flow=True)):
            idx = JetIndex(*key)
            psi[idx] = rows.to_quasi(u)
            diagnostics[idx] = r
            fld[idx] = f
            pieces.append(_Piece(key[0], key[1], u, o))

    blocks = sorted(solver.root_blocks,
                    key=lambda b: (b[0].imag, b[0].real, b[1]))
    return JetResult(
        projection=projection,
        nonlinearity=F,
        order=order,
        weights=weights,
        psi=psi,
        field=fld,
        diagnostics=diagnostics,
        vanished=tuple(vanished),
        root_blocks=tuple(
            {"nu": [float(nu.real), float(nu.imag)], "degree": D, "cutoff": cut,
             "smallest_kept": kept, "largest_dropped": dropped}
            for nu, D, (cut, kept, dropped) in blocks),
    )


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
                raise RuntimeError(
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
