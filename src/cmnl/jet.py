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
kernel transforms at the points the right-hand sides reach;
``nonlin.walk_slots``/``walk_outer`` drive these operations.  ``_Solver``
keeps one solve operator per (point, degree): block back-substitution off
the roots, a truncated SVD at a root (its singular-value gap goes to
``root_blocks``).
The right-hand sides of one order depend only on lower orders, so the
whole order is solved at once: the (index, point) pairs are stacked per
(point, degree), and each stack gets one solve, one coordinate product,
one residual matvec and one flow product.  A stacked product is one
matrix-vector product per pair, so every pair keeps the bits of its own.
A real problem (``_conjugation``) solves one index of each conjugate pair
(m, sigma m) and conjugates the result onto the other.
``solve``, the public bordered solver, runs one ``BorderedProblem``
through the same ``_Solver`` on an order-one lattice that also has the
right-hand side's frequencies, so frequencies meet roots in ``_Lattice``
only.  ``apply_term`` evaluates one term of F on quasi-polynomials the same
way: on the rows of a lattice of its arguments' frequencies.

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
from functools import cached_property
from math import factorial
from operator import add

import numpy as np

from .kernel import convolution_matrix, real_kernel, taylor_transforms
from .nonlin import walk_outer, walk_slots
from .problem import ProblemError
from .quasipoly import FREQ_TOL, TRIM_REL, QuasiPolynomial, kept_rows
from .tsolve import BLOCK_TOL, block_operator, check_strip, solve_frequency

# a frequency this close to a characteristic root is that root
ROOT_MATCH_TOL = 1e-7


class JetIndex:
    """Multi-index over kernel coordinates (``powers``) and parameters (``mu``).

    Equal exponents make equal indices, which hash alike."""

    def __init__(self, powers, mu=()):
        self.powers = tuple(int(p) for p in powers)
        self.mu = tuple(int(r) for r in mu)
        if any(p < 0 for p in self.powers) or any(r < 0 for r in self.mu):
            raise ValueError("exponents must be nonnegative")

    def __eq__(self, other):
        if other.__class__ is not JetIndex:
            return NotImplemented
        return self.powers == other.powers and self.mu == other.mu

    def __hash__(self):
        return hash((self.powers, self.mu))

    @property
    def order(self):
        """Total order, every parameter counting with weight one."""
        return sum(self.powers) + sum(self.mu)

    def graded_key(self):
        """Sort key: graded lexicographic, coordinates before parameters."""
        return (self.order, self.powers + self.mu)

    def to_data(self):
        return {"powers": list(self.powers), "mu": list(self.mu)}


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

    def __init__(self, projection, nonlinearity, order, weights, psi, field,
                 diagnostics, vanished, root_blocks):
        self.projection, self.nonlinearity = projection, nonlinearity
        self.order, self.weights, self.psi = order, weights, psi
        self.field, self.diagnostics = field, diagnostics
        self.vanished, self.root_blocks = vanished, root_blocks

    @property
    def basis(self):
        return self.projection.basis

    @property
    def nparams(self):
        return self.nonlinearity.nparams

    @cached_property
    def psi_at_zero(self):
        """{index: Psi_m(0)}, each the sum of its entry's constant rows,
        as ``QuasiPolynomial.evaluate(0.0)`` adds them; computed once."""
        return {idx: sum((c[0] for _, c in q.terms), np.zeros(q.n, dtype=complex))
                for idx, q in self.psi.items()}

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


def _code(exponents):
    """One int for a tuple of exponents, 16 bits each: the code of a sum of
    exponent tuples is the sum of their codes."""
    return sum(e << (16 * j) for j, e in enumerate(exponents))


class _Piece:
    """One summand of the graph expansion: lattice rows times monomial."""

    __slots__ = ("m", "rho", "value", "order", "code")

    def __init__(self, m, rho, value, order):
        self.m, self.rho, self.value, self.order = m, rho, value, order
        self.code = _code((*m, *rho))


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

    A root within ``ROOT_MATCH_TOL`` of a generator or of its negative (the
    conjugate of an axis root) adds none; so does such an ``extra``
    frequency, which otherwise joins the generators.  The integer vectors k
    with sum |k_r| <= order are enumerated by increasing sum; a vector whose
    frequency lies within ``FREQ_TOL`` of an earlier one names that point,
    and each root keeps its exact value.  ``add[i][j]`` is the point of the
    sum of the points i and j (their first vectors added), -1 beyond the
    order.
    """

    def __init__(self, roots, order, extra=()):
        gens = []
        for nu in [*roots, *extra]:
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
        self.conj = None  # the conjugate of each point, when rows are mirrored
        self._series = {}
        self._conv = {}

    def from_quasi(self, u):
        return {self.lattice.index[nu]: c.copy() for nu, c in u.terms}

    def nearest(self, u):
        """The rows of ``u``, each frequency at its nearest lattice point."""
        points, out = self.lattice.points, {}
        for nu, c in u.terms:
            _accumulate(out, int(np.abs(points - nu).argmin()), c.copy())
        return out

    def to_quasi(self, rows, trimmed=False):
        """The rows as a QuasiPolynomial; rows that ``_trim`` trimmed are
        already canonical up to the sort and the ``+ 0.0``."""
        terms = [(complex(self.lattice.points[i]), c) for i, c in rows.items()]
        if not trimmed:
            return QuasiPolynomial(self.n, terms)
        return QuasiPolynomial.canonical(
            self.n, sorted([(nu, c + 0.0) for nu, c in terms],
                           key=lambda t: (t[0].real, t[0].imag)))

    def prefetch(self, K, wants):
        """Extend K's Taylor coefficients to ``wants`` = {point: degree},
        and to the conjugate points, which mirrored rows reach."""
        have = self._series.setdefault(K, {})
        if self.conj:
            wants = dict(wants)
            for i, d in list(wants.items()):
                wants[self.conj[i]] = max(d, wants.get(self.conj[i], -1))
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

    The solve operators come from ``tsolve``.  Off the roots a point has
    one, block back-substitution built at the largest degree that the
    stacks of an order need there (``prefetch``); its leading squares are
    the operators of the smaller degrees (``toeplitz_blocks``).  A root
    point has one truncated SVD per degree, whose truncation record is kept
    in ``gaps`` per (point, degree).  Coordinate and flow rows per point
    come from ``Projection.coordinate_rows``; when a point's rows have to
    grow, they grow to twice the degree asked for.
    """

    def __init__(self, K, projection, rows):
        self.K, self.P, self.rows = K, projection, rows
        index = rows.lattice.index
        self.alpha = Counter(index[el.nu] for el in projection.basis.elements)
        self.basis = [rows.from_quasi(el.function)
                      for el in projection.basis.elements]
        self._ops = {}  # (point, None) off the roots, (point, degree) at one
        self._wants = {}  # the degrees of the last prefetch
        self._coords = {}
        self.gaps = {}

    def prefetch(self, rhs):
        """Check the strip and fetch the transforms of the solves of ``rhs``."""
        wants = self._wants = _degrees(rhs, lambda i: self.alpha[i])
        for i in wants:
            check_strip(self.rows.lattice.points[i], self.P.basis.strip)
        self.rows.prefetch(self.K, wants)

    def _operator(self, i, D):
        size = (D + 1) * self.K.n
        key = (i, D if self.alpha[i] else None)
        op = self._ops.get(key)
        if op is None or op[0].shape[0] < size:
            top = D if self.alpha[i] else max(D, self._wants.get(i, D))
            series = self.rows.series(self.K, i, top)[: top + 1].copy()
            series[0] += np.eye(self.K.n)
            A, S, gap = block_operator(series, self.alpha[i], BLOCK_TOL)
            if gap is not None:
                self.gaps[i, D] = gap
            op = self._ops[key] = (A, S)
        return op[0][:size, :size], op[1][:size, :size]

    def solve(self, gs):
        """Rows of each u with u + K*u + g = 0 and zero coordinates: one
        stacked solve per (point, degree), then the basis combination that
        zeroes the coordinates, added to each stack at a basis point."""
        points = self.rows.lattice.points
        us = [dict.fromkeys(g) for g in gs]
        stacks = {}
        for i, js, G in _stacks(gs):
            A, S = self._operator(i, G.shape[1] - 1 + self.alpha[i])
            U = solve_frequency(A, S, G, BLOCK_TOL, points[i])
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

    def mirror_gaps(self, gs, conj):
        """Copy the record of each root block (i, D) that the solves of
        ``gs`` used to (conj[i], D), the block their mirrors would use."""
        for g in gs:
            for i, c in g.items():
                D = c.shape[0] - 1 + self.alpha[i]
                if (i, D) in self.gaps:
                    self.gaps.setdefault((conj[i], D), self.gaps[i, D])

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
            if have is not None:
                degree *= 2
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


def solve(problem):
    """Unique quasi-polynomial u with u + K*u + g = 0 and Q(u) = target.

    ``g`` goes on rows over the order-one lattice of the basis roots with
    the frequencies of ``g`` as extra generators, so a frequency within
    ``ROOT_MATCH_TOL`` of a root is solved at that root.  ``_Solver`` solves
    it with zero coordinates, and the target coordinates times the basis
    are added.  Checking the residual ``u + K*u + g`` is the caller's job:
    the CLI gates the jet's per-index residual with ``--tol-solve``.
    """
    K, P, g = problem.K, problem.projection, problem.g
    if g.n != K.n:
        raise ValueError("right-hand side dimension does not match the kernel")
    rows = _Rows(_Lattice([el.nu for el in P.basis.elements], 1,
                          [nu for nu, _ in g.terms]), K.n)
    rhs = rows.nearest(g)
    solver = _Solver(K, P, rows)
    solver.prefetch([rhs])
    (u,) = solver.solve([rhs])
    for b, target in zip(solver.basis, problem.target_coords):
        _add_rows(u, b, target)
    return rows.to_quasi(u)


def apply_term(term, args):
    """Evaluate one term on quasi-polynomial arguments, exactly.

    ``args`` supplies one quasi-polynomial per factor slot.  They go on rows
    over the lattice of their frequencies to the term's degree, each
    frequency at its nearest point, as in ``solve``, and the slot walk runs
    on the rows' products and convolutions, as in ``compute_jet``.  The
    formal ``mu^r`` factor is not applied.
    """
    if len(args) != term.degree:
        raise ValueError(
            f"term of degree {term.degree} applied to {len(args)} arguments"
        )
    n = args[0].n
    if any(u.n != n for u in args):
        raise ValueError("argument dimensions differ")
    rows = _Rows(_Lattice((), term.degree, [nu for u in args for nu, _ in u.terms]), n)
    prod = walk_slots(term, [rows.nearest(u) for u in args], n, rows.convolve,
                      rows.component, rows.product)
    out = walk_outer(term, prod, n, rows.convolve, rows.place)
    return rows.to_quasi({i: term.coeff * c for i, c in out.items()})


def _graded(key):
    return sum(key[0]) + sum(key[1]), key[0] + key[1]


def _picks(pieces, starts, top, chosen, left, start, remaining):
    """Yield every extension of the piece indices ``chosen`` by ``left``
    more whose orders sum to ``remaining``, indices never decreasing inside
    a group of slots (a slot in ``starts`` opens a group), ``top`` the
    largest order.  A module-level generator: a closure that called itself
    would leave a reference cycle, holding ``pieces``, at every call."""
    if left == 0:
        yield list(chosen)
        return
    if len(chosen) in starts:
        start = 0
    for i in range(start, len(pieces)):
        o = pieces[i].order
        if o > remaining - (left - 1):
            break
        if remaining - o <= top * (left - 1):
            chosen.append(i)
            yield from _picks(pieces, starts, top, chosen, left - 1, i,
                              remaining - o)
            chosen.pop()


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
    for picks in _picks(pieces, starts, pieces[-1].order, [], len(slots), 0,
                        budget):
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


def _term_rhs(term, pieces, budget, rho_t, rows, keep=None):
    """One term's part of the right-hand sides, as {(m, rho): rows}, for
    the indices m with ``keep(m)`` (all without ``keep``).

    The slot products of each index are summed first; the coefficient, the
    placement and the outer convolution are applied once.
    """
    n = rows.n
    parts = {}
    base = _code((0,) * len(pieces[0].m) + rho_t)
    keys = {}  # code of (m, rho) -> (m, rho), or None when not kept
    for weight, args in _slot_multisets(term, pieces, budget):
        code = sum([p.code for p in args], base)
        key = keys.get(code, ())
        if key == ():
            m = tuple(map(sum, zip(*(p.m for p in args))))
            rho = tuple(map(sum, zip(rho_t, *(p.rho for p in args))))
            key = keys[code] = (m, rho) if keep is None or keep(m) else None
        if key is None:
            continue
        prod = walk_slots(term, [p.value for p in args], n, rows.convolve,
                          rows.component, rows.product)
        _add_rows(parts.setdefault(key, {}), prod, weight)
    if term.outer is not None:
        rows.prefetch(term.outer, _degrees(parts.values()))
    out = {}
    for key, prod in parts.items():
        out[key] = {}
        _add_rows(out[key], walk_outer(term, prod, n, rows.convolve, rows.place),
                  term.coeff)
    return out


def _conjugation(K, projection, F, lattice):
    """``(sigma, conj)`` when the problem is real, else None.

    ``sigma[i]`` is the partner of basis coordinate i (i itself on the real
    axis) and ``conj[p]`` the lattice point of conj(nu_p).  Real means: real
    kernel coefficients and term coefficients, each basis function exactly
    the conjugate of its partner's, and a projection that commutes with
    conjugation (Gram, whose weights are real, or pointwise with directions
    closed under conjugation).  Then Psi_{sigma m} = conj Psi_m and
    f_{sigma m} = conj(f_m)[sigma], with (sigma m)_i = m_{sigma i}.
    """
    kernels = {K, *(t.outer for t in F.terms),
               *(k for t in F.terms for k, _ in t.factors)}
    kernels.discard(None)
    if any(t.coeff.imag for t in F.terms) or not all(map(real_kernel, kernels)):
        return None
    els = projection.basis.elements
    sigma = [i if el.partner < 0 else el.partner for i, el in enumerate(els)]
    for el, s in zip(els, sigma):
        mirror = {nu.conjugate(): c.conj() for nu, c in els[s].function.terms}
        if len(mirror) != len(el.function.terms) or not all(
                np.array_equal(c, mirror.get(nu)) for nu, c in el.function.terms):
            return None
    fs = projection.functionals if projection.flavor == "pointwise" else ()
    if not all(any(g.order == f.order
                   and np.array_equal(g.direction, f.direction.conj()) for g in fs)
               for f in fs):
        return None
    pts = lattice.points
    dist = np.abs(pts[None, :] - pts.conj()[:, None])
    conj = dist.argmin(axis=1)
    if dist[np.arange(len(pts)), conj].max(initial=0.0) > FREQ_TOL:
        return None
    return sigma, conj.tolist()


def compute_jet(K, projection, F, order, weights=None):
    """Compute the graph map and reduced field to the given total order.

    ``projection`` fixes the kernel basis and the bordering; ``F`` is the
    nonlinearity series.  ``weights`` optionally reweights each formal
    parameter's contribution to the total order (default: weight one each).
    An order outside ``2..F.max_order`` raises ``ProblemError``: the order
    comes from the problem file or the command line.

    When the problem is real (``_conjugation``), only one index of each
    pair (m, sigma m) is solved; the other takes the conjugate rows on the
    conjugate points, the same residual and the conjugate field entry, and
    the root blocks its solve would have used get the mirrored records.
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
    sigma, rows.conj = _conjugation(K, projection, F, rows.lattice) or (None, None)
    conj = rows.conj

    def mirror(key):  # (sigma m, rho)
        return (tuple(key[0][s] for s in sigma), key[1]) if sigma else key

    # of each pair (m, sigma m) the smaller is solved
    keep = (lambda m: m <= tuple(m[s] for s in sigma)) if sigma else None
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
            for key, g in _term_rhs(t, pieces, budget, rho_t, rows, keep).items():
                _add_rows(rhs.setdefault(key, {}), g, 1.0)
        rhs = dict(zip(rhs, _trim(list(rhs.values()))))
        solver.prefetch(rhs.values())
        keys = [key for key in sorted(rhs, key=_graded) if rhs[key]]
        gs = [rhs[key] for key in keys]
        us = _trim(solver.solve(gs))
        done = dict(zip(keys, zip(us, solver.residual(us, gs),
                                  solver.coordinates(us, flow=True))))
        if sigma:
            pairs = [(key, mirror(key)) for key in keys if mirror(key) != key]
            solver.mirror_gaps([rhs[key] for key, _ in pairs], conj)
            for key, other in pairs:
                u, r, f = done[key]
                done[other] = ({conj[i]: c.conj() for i, c in u.items()}, r,
                               f.conj()[sigma])
        gone = ({mirror(key) for key in rhs} | rhs.keys()) - done.keys()
        vanished += [JetIndex(*key) for key in sorted(gone, key=_graded)]
        for key in sorted(done, key=_graded):
            u, r, f = done[key]
            idx = JetIndex(*key)
            psi[idx] = rows.to_quasi(u, trimmed=True)
            diagnostics[idx] = r
            fld[idx] = f
            pieces.append(_Piece(key[0], key[1], u, o))

    blocks = sorted(((rows.lattice.points[i], D, gap)
                     for (i, D), gap in solver.gaps.items()),
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


# ---------------------------------------------------------------------------
# scaling

# relative size below which a scaled coefficient is a numerical zero, and
# absolute size below which an epsilon order counts as zero
SCALE_TOL = 1e-9


class ScaledField:
    """Leading-order field after a small-parameter scaling.

    ``field`` keeps the epsilon-order-zero resonant coefficients; ``dropped``
    records ``(coordinate, index, epsilon_order, oscillatory)`` for every
    removed term.
    """

    def __init__(self, field, dropped, coord_exponents, x_exponent,
                 param_exponents, phases):
        self.field, self.dropped = field, dropped
        self.coord_exponents, self.x_exponent = coord_exponents, x_exponent
        self.param_exponents, self.phases = param_exponents, phases


def scale_field(fld, coord_exponents, x_exponent, param_exponents=(),
                phases=None):
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

    peak = max((float(np.abs(v).max()) for v in work.values()), default=0.0)
    floor = SCALE_TOL * peak
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
            if e < -SCALE_TOL:
                raise RuntimeError(
                    f"non-positive leading balance: coordinate {i} at index"
                    f" {idx.powers}|{idx.mu} scales like eps^{e:.3g}"
                )
            if oscillatory or e > SCALE_TOL:
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
