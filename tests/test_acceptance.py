"""End-to-end acceptance suite: one test per advertised capability.

Run with ``-v`` to get one pass/fail line per criterion.  Every expected
number is frozen from an independent source: closed-form moment identities
evaluated through the kernel module's own transform code, hand-checkable
derivative-matching algebra at the origin (the flow tables), or exact wave
constants of the reduced planar equations.
"""

import json
import time

import numpy as np
import pytest

from conftest import SQRT_PI, build_front_jet, build_pair_jet, critical_pair_kernel, project
from reference import (
    add, combine, coordinates, differentiate, equation_residual, exponential,
    manifold_point, moment as kernel_moment, monomial, mul, rectangle, shift,
    term_for, winding_count)

from cmnl.cli import main
from cmnl.jet import JetIndex, solve
from cmnl.kernel import GaussianMixture, apply_T
from cmnl.projection import build_pointwise, kernel_basis
from cmnl.spectrum import locate_roots
from cmnl.tsolve import BorderedProblem
from cmnl.verify import front_report, planar_front_system, pulse_scaling_report

ELL = 1.0  # critical frequency of the two-Gaussian pair kernel


def assert_rel(got, want, rel, label=""):
    got = np.atleast_1d(np.asarray(got, dtype=complex))
    want = np.atleast_1d(np.asarray(want, dtype=complex))
    scale = max(1.0, float(np.abs(want).max()))
    err = float(np.abs(got - want).max())
    assert err <= rel * scale, f"{label}: |err|={err:.3e} > {rel}*{scale:.3e}"


def moment(K, m, s):
    """kappa_{m,s} = int x^m K(x) e^{-i s ell x} dx via the kernel module."""
    return complex(np.asarray(kernel_moment(K, m, 1j * s * ELL)).reshape(-1)[0])


def column(J, powers, mu):
    return np.asarray(J.field[JetIndex(powers, mu)])


@pytest.fixture(scope="module")
def pair():
    t0 = time.perf_counter()
    K, J = build_pair_jet(order=3)
    return K, J, time.perf_counter() - t0


@pytest.fixture(scope="module")
def pair_projection():
    K = critical_pair_kernel()
    basis = kernel_basis(K, locate_roots(K))
    return K, basis, build_pointwise(basis)


@pytest.fixture(scope="module")
def front():
    return build_front_jet(order=3)


# ---------------------------------------------------------------------------
# criterion 1: scalar quadratic problem end to end through the CLI


def test_criterion_1_quadratic_reduction_through_cli(tmp_path):
    # K = (a + bx)e^{-x^2}, a = -1/sqrt(pi) (zero-mass root at 0), b generic.
    a, b = -1.0 / SQRT_PI, -4.0 / SQRT_PI
    problem = {
        "schema": 1,
        "name": "quadratic-end-to-end",
        "kernels": {
            "K": {"family": "gaussian",
                  "terms": [{"c": 1.0, "a": 1.0, "poly": [a, b]}]}
        },
        "kernel": "K",
        "nonlinearity": {
            "max_order": 3,
            "terms": [{"coeff": -1.0, "factors": [[None, 0], [None, 0]]}],
        },
        "order": 3,
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem), encoding="utf-8")
    out = tmp_path / "report.json"

    t0 = time.perf_counter()
    code = main(["reduce", str(path), "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))

    K = GaussianMixture.single(1.0, 1.0, poly=[a, b])
    alpha = -1.0 / moment(K, 1, 0).real          # = 1/2 for this b
    kappa2 = moment(K, 2, 0).real                # = -1/2
    want = {2: alpha, 3: -kappa2 * alpha**3}

    got = {}
    for entry in report["result"]["field"]:
        k = sum(entry["index"]["powers"])
        if k in (2, 3):
            got[k] = complex(*entry["coeff"][0])
    assert_rel(got[2], want[2], 1e-8, "quadratic field coefficient")
    assert_rel(got[3], want[3], 1e-8, "cubic field coefficient")

    # graph-map coefficients: psi_2 = alpha x, psi_3 = (-kappa2 alpha^3) x
    # + (alpha^2) x^2
    psis = {tuple(e["index"]["powers"]): e["psi"] for e in report["result"]["psi"]}

    def poly(powers):
        (term,) = psis[powers]["terms"]
        return [complex(*pair[0]) for pair in term["poly"]]

    assert_rel(poly((2,))[1], alpha, 1e-8, "graph x-coefficient at order 2")
    assert_rel(poly((3,))[1], -kappa2 * alpha**3, 1e-8,
               "graph x-coefficient at order 3")
    assert_rel(poly((3,))[2], alpha**2, 1e-8, "graph x^2-coefficient")
    assert elapsed < 1.0, f"reduce took {elapsed:.2f}s"
    print(f"criterion 1 (quadratic reduction via cm reduce): PASS "
          f"({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 2: flow-derivative coordinate tables on the pair basis

# Coordinates of the projected derivative of y^q e^{i s y}, basis order
# (e^{iy}, e^{-iy}, y e^{iy}, y e^{-iy}).  Each tuple is forced by matching
# the first four derivatives at 0 (hand-checkable linear algebra).
FLOW_TABLE = {
    (1, 2): (1.5j, -1.5j, 4, 1),
    (1, 3): (6, -6, -7.5j, -4.5j),
    (1, 4): (-6j, 6j, -6, -6),
    (1, 5): (0, 0, 0, 0),
    (-1, 2): (1.5j, -1.5j, 1, 4),
    (-1, 3): (-6, 6, 4.5j, 7.5j),
    (-1, 4): (-6j, 6j, -6, -6),
    (-1, 5): (0, 0, 0, 0),
    (3, 0): (-12j, 15j, -24, -12),
    (3, 1): (-22, 23, 32j, 19j),
    (3, 2): (25.5j, -25.5j, 31, 22),
    (3, 3): (18, -18, -19.5j, -16.5j),
    (-3, 0): (-15j, 12j, -12, -24),
    (-3, 1): (23, -22, -19j, -32j),
    (-3, 2): (25.5j, -25.5j, 22, 31),
    (-3, 3): (-18, 18, 16.5j, 19.5j),
}


def test_criterion_2_flow_derivative_coordinate_tables(pair_projection):
    _, _, P = pair_projection
    for (s, q), want in FLOW_TABLE.items():
        g = monomial(1j * s * ELL, q)
        got = np.asarray(coordinates(P, differentiate(g)))
        err = np.abs(got - np.array(want, dtype=complex)).max()
        assert err < 1e-10, f"table entry s={s} q={q}: err={err:.2e}"
    print(f"criterion 2 (flow-derivative tables, {len(FLOW_TABLE)} tuples): "
          "PASS")


# ---------------------------------------------------------------------------
# criterion 3: quadratic-order graph coefficients on the pair problem


def test_criterion_3_quadratic_parameter_graph_coefficients(pair):
    K, J, build_time = pair
    k01 = moment(K, 0, 1)
    k21 = moment(K, 2, 1)
    k31 = moment(K, 3, 1)
    alpha0 = -k01**2 / k21
    alpha2 = -k01**2 / (3 * k21)
    alpha1 = -k01**2 * k31 / (3 * k21**2)

    # A*mu entry: alpha0 [(x^2 + 2ix/l - 3/(2l^2)) e^{ilx}
    #                     + ((i/l)x + 3/(2l^2)) e^{-ilx}]
    p = J.psi[JetIndex((1, 0, 0, 0), (1,))]
    assert_rel(np.asarray(term_for(p, 1j * ELL)).ravel(),
               alpha0 * np.array([-1.5 / ELL**2, 2j / ELL, 1.0]),
               1e-8, "A*mu graph entry, e^{ilx} part")
    assert_rel(np.asarray(term_for(p, -1j * ELL)).ravel(),
               alpha0 * np.array([1.5 / ELL**2, 1j / ELL]),
               1e-8, "A*mu graph entry, e^{-ilx} part")

    # B*mu entry: (alpha2 x^3 + alpha1 x^2 + b0 x + c0) e^{ilx}
    #             + (b1 x - c0) e^{-ilx}
    b0 = (4j * ELL * alpha1 + 3 * alpha2) / (2 * ELL**2)
    b1 = (2j * ELL * alpha1 + 3 * alpha2) / (2 * ELL**2)
    c0 = (3j * alpha2 - 3 * ELL * alpha1) / (2 * ELL**3)
    q = J.psi[JetIndex((0, 0, 1, 0), (1,))]
    assert_rel(np.asarray(term_for(q, 1j * ELL)).ravel(),
               np.array([c0, b0, alpha1, alpha2]),
               1e-8, "B*mu graph entry, e^{ilx} part")
    assert_rel(np.asarray(term_for(q, -1j * ELL)).ravel(),
               np.array([-c0, b1]),
               1e-8, "B*mu graph entry, e^{-ilx} part")

    # A^2 Abar entry is exactly the negative of the A*mu entry.
    r = J.psi[JetIndex((2, 1, 0, 0), (0,))]
    for s in (1, -1):
        assert_rel(np.asarray(term_for(r, 1j * s * ELL)).ravel(),
                   -np.asarray(term_for(p, 1j * s * ELL)).ravel(),
                   1e-8, f"A^2 Abar = -A*mu, e^{{{s}ilx}} part")
    assert build_time < 10.0, f"jet build took {build_time:.2f}s"
    print(f"criterion 3 (quadratic graph coefficients): PASS "
          f"({build_time:.2f}s jet build)")


# ---------------------------------------------------------------------------
# criterion 4: cubic-order graph coefficient families


def test_criterion_4_cubic_graph_coefficient_families(pair):
    K, J, _ = pair
    k01, k21 = moment(K, 0, 1), moment(K, 2, 1)
    k31, k41, k51 = moment(K, 3, 1), moment(K, 4, 1), moment(K, 5, 1)
    k03, k13 = moment(K, 0, 3), moment(K, 1, 3)
    k23, k33 = moment(K, 2, 3), moment(K, 3, 3)
    D = -1 + k03 / k01

    def terms(powers, s):
        qp = J.psi[JetIndex(powers, (0,))]
        return np.asarray(term_for(qp, 1j * s * ELL)).ravel()

    # B^3 (third harmonic, ascending x^0..x^3)
    beta3 = k03 / (3 * D)
    beta2 = k13 / D**2
    beta1 = -k23 / D**2 + 2 * k13**2 / (k01 * D**3)
    beta0 = (k33 / (3 * D**2) - 2 * k13 * k23 / (k01 * D**3)
             + 2 * k13**3 / (k01**2 * D**4))
    assert_rel(terms((0, 0, 3, 0), 3), [beta0, beta1, beta2, beta3],
               1e-7, "B^3 family")

    # B^2 Bbar (resonant first harmonic; named family sits at x^2..x^5)
    d3 = k01**2 / (10 * k21)
    d2 = k01**2 * k31 / (6 * k21**2)
    d1 = k01 + (2 / 9) * k01**2 * k31**2 / k21**3 - k01**2 * k41 / (6 * k21**2)
    d0 = ((2 / 9) * k01**2 * k31**3 / k21**4
          - k01**2 * k31 * k41 / (3 * k21**3) + k01**2 * k51 / (10 * k21**2))
    assert_rel(terms((0, 0, 2, 1), 1)[2:], [d0, d1, d2, d3],
               1e-7, "B^2 Bbar family")

    # A^2 B (third harmonic, degree 1)
    g1, g0 = k03 / D, k13 / D**2
    assert_rel(terms((2, 0, 1, 0), 3), [g0, g1], 1e-7, "A^2 B family")

    # A B Bbar (resonant first harmonic; named family at x^2..x^4)
    w2 = k01**2 / (3 * k21)
    w1 = (4 / 9) * k01**2 * k31 / k21**2
    w0 = (2 * k01 + (4 / 9) * k01**2 * k31**2 / k21**3
          - k01**2 * k41 / (3 * k21**2))
    assert_rel(terms((1, 0, 1, 1), 1)[2:], [w0, w1, w2],
               1e-7, "A B Bbar family")

    # A B^2 (third harmonic, degree 2)
    r2, r1 = k03 / D, 2 * k13 / D**2
    r0 = -k23 / D**2 + 2 * k13**2 / (k01 * D**3)
    assert_rel(terms((1, 0, 2, 0), 3), [r0, r1, r2], 1e-7, "A B^2 family")

    # A^3: single coefficient times a universal bracket
    b3 = k03 / (3 * D)
    assert_rel(terms((3, 0, 0, 0), 3), [b3], 1e-7, "A^3 third harmonic")
    assert_rel(terms((3, 0, 0, 0), 1), b3 * np.array([4, -8j * ELL]),
               1e-7, "A^3 first harmonic")
    assert_rel(terms((3, 0, 0, 0), -1), -b3 * np.array([5, 4j * ELL]),
               1e-7, "A^3 conjugate harmonic")
    print("criterion 4 (cubic graph coefficient families, 6 families): PASS")


# ---------------------------------------------------------------------------
# criterion 5: linear-in-parameter reduced block and eigenvalue expansions


def test_criterion_5_linear_parameter_block_and_expansions(pair):
    K, J, _ = pair
    k01, k21, k31 = moment(K, 0, 1), moment(K, 2, 1), moment(K, 3, 1)
    alpha0 = (-k01**2 / k21).real
    alpha2 = -k01**2 / (3 * k21)
    alpha1 = -k01**2 * k31 / (3 * k21**2)
    a0 = (3 * alpha2 + 1j * ELL * alpha1) / ELL**2
    assert abs(a0.imag) < 1e-10
    a0 = a0.real

    # linear part: Jordan block pair at +-i ell
    assert_rel(column(J, (1, 0, 0, 0), (0,)), [1j * ELL, 0, 0, 0], 1e-8)
    assert_rel(column(J, (0, 1, 0, 0), (0,)), [0, -1j * ELL, 0, 0], 1e-8)
    assert_rel(column(J, (0, 0, 1, 0), (0,)), [1, 0, 1j * ELL, 0], 1e-8)
    assert_rel(column(J, (0, 0, 0, 1), (0,)), [0, 1, 0, -1j * ELL], 1e-8)

    # parameter block: coefficients 2i alpha0/l, 2 alpha0, 2 a0/l, -2i a0
    amu = alpha0 * np.array([2j / ELL, -2j / ELL, 2, 2])
    bmu = a0 * np.array([2 / ELL, -2 / ELL, -2j, -2j])
    assert_rel(column(J, (1, 0, 0, 0), (1,)), amu, 1e-8, "A*mu column")
    assert_rel(column(J, (0, 1, 0, 0), (1,)), amu, 1e-8, "Abar*mu column")
    assert_rel(column(J, (0, 0, 1, 0), (1,)), bmu, 1e-8, "B*mu column")
    assert_rel(column(J, (0, 0, 0, 1), (1,)), -bmu, 1e-8, "Bbar*mu column")
    assert_rel(column(J, (2, 1, 0, 0), (0,)), -amu, 1e-8, "A^2 Abar column")

    # closed-form frequency and rate curves and their leading expansions
    def ell_of(lam):
        return 0.5 * np.sqrt(2 * ELL**2 - 4 * ELL * a0 * lam
                             + 2 * ELL * np.sqrt(-4 * ELL * a0 * lam
                                                 + ELL**2 + 8 * alpha0 * lam))

    def alpha_of(lam):
        return (ELL * a0 * lam - ELL**2 / 2
                + (ELL / 2) * np.sqrt(ELL**2 + (8 * alpha0
                                                - 4 * ELL * a0) * lam))

    # the curves are the spectrum of the reduced linear part:
    # leading eigenvalue nu(lam) has Im nu = ell(lam), (Re nu)^2 = alpha(lam)
    cols0 = [column(J, pw, (0,)) for pw in
             [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]]
    cols1 = [column(J, pw, (1,)) for pw in
             [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]]
    M0, M1 = np.stack(cols0, axis=1), np.stack(cols1, axis=1)
    for lam in (1e-3, 1e-4):
        ev = np.linalg.eigvals(M0 + lam * M1)
        lead = ev[np.argmax(ev.real)]
        assert abs(abs(lead.imag) - ell_of(lam)) < 1e-10
        assert abs(lead.real**2 - alpha_of(lam)) < 1e-10

    # slope tests: remainders after the advertised linear terms are O(lam^2)
    rem_ell = [abs(ell_of(lam) - ELL - (alpha0 - a0) * lam)
               for lam in (1e-3, 1e-4)]
    rem_alp = [abs(alpha_of(lam) - 2 * alpha0 * lam) for lam in (1e-3, 1e-4)]
    slope_ell = np.log10(rem_ell[0] / rem_ell[1])
    slope_alp = np.log10(rem_alp[0] / rem_alp[1])
    assert slope_ell >= 1.5, f"frequency remainder slope {slope_ell:.2f}"
    assert slope_alp >= 1.5, f"rate remainder slope {slope_alp:.2f}"
    print(f"criterion 5 (linear parameter block, slopes {slope_ell:.2f}/"
          f"{slope_alp:.2f}): PASS")


# ---------------------------------------------------------------------------
# criterion 6: pulse amplitude scaling


def test_criterion_6_pulse_amplitude_scaling(pair):
    K, J, _ = pair
    t0 = time.perf_counter()
    rep = pulse_scaling_report(K, J, [1e-2, 1e-3, 1e-4])
    elapsed = time.perf_counter() - t0
    assert rep.slope >= 1.5, f"residual-amplitude slope {rep.slope:.2f}"
    ratio = rep.details["amplitude_ratio"]
    assert abs(ratio / (2 * np.sqrt(2)) - 1) <= 0.10, f"amplitude ratio {ratio}"
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    print(f"criterion 6 (pulse scaling, slope {rep.slope:.2f}, "
          f"amplitude/sqrt(lam) {ratio:.4f}): PASS ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 7: front coefficients and monotone/critical fronts


def test_criterion_7_front_coefficients_and_monotone_front(front):
    K, J, G = front
    kappa2 = complex(np.asarray(kernel_moment(G, 2, 0.0)).reshape(-1)[0]).real / 2
    # per-unit-speed damping, parameter, and cubic coefficients
    assert_rel(column(J, (0, 1), (0, 1))[1], -1.0 / kappa2, 1e-7,
               "speed-damping coefficient")
    assert_rel(column(J, (1, 0), (1, 0))[1], -1.0 / kappa2, 1e-7,
               "parameter coefficient")
    assert_rel(column(J, (3, 0), (0, 0))[1], 1.0 / kappa2, 1e-7,
               "cubic coefficient")

    kappa, alpha, beta = planar_front_system(J)
    assert_rel([kappa, alpha, beta], [kappa2, 1.0, 1.0], 1e-7,
               "planar system coefficients")
    threshold = 2 * np.sqrt(kappa * alpha)

    rep = front_report(K, J, 1e-2, 1.1 * threshold)
    assert rep.monotone is True
    assert rep.residual_max < 1e-6

    rep2 = front_report(K, J, 1e-2, threshold)
    assert rep2.details["reach_distance"] <= 1e-4
    print(f"criterion 7 (front coefficients, monotone at "
          f"{1.1 * threshold:.2f}, existence at {threshold:.2f}): PASS")


# ---------------------------------------------------------------------------
# criterion 8: invariant representatives


def test_criterion_8_invariant_representatives(pair, pair_projection):
    Kp, basis, P = pair_projection
    _, J, _ = pair

    # projection idempotence
    u = add(add(monomial(1j, 3), mul(monomial(-0.4, 1), 0.7)),
            exponential(2j, (1.5,)))
    coords, _ = project(P, u)
    coords2, _ = project(P, combine(basis, coords))
    assert np.abs(coords2 - coords).max() < 1e-12 * (1 + np.abs(coords).max())

    # winding count equals kernel dimension
    spec = locate_roots(Kp)
    count = winding_count(Kp, rectangle(-spec.strip, spec.strip, -spec.window, spec.window))
    assert count == basis.size == spec.total_multiplicity == 4

    # moment / transform derivative consistency
    nu = 0.3 + 0.2j
    h = 1e-5
    fd = (np.asarray(Kp.transform(nu + h)) - np.asarray(Kp.transform(nu - h))) / (2 * h)
    an = np.asarray(Kp.transform(nu, 1))
    assert np.abs(fd - an).max() < 1e-6
    assert abs(moment(Kp, 1, 0) + complex(np.asarray(Kp.transform(0.0, 1)).reshape(-1)[0])) < 1e-12

    # bordered-solve residual on a grid (resonant and non-resonant data)
    xs = np.linspace(-5, 5, 201)
    for g in (monomial(0.5, 1),
              monomial(1j, 1)):
        sol = solve(BorderedProblem(Kp, P, g))
        defect = add(apply_T(Kp, sol), g)
        scale = 1 + np.abs(g.evaluate(xs)).max()
        assert np.abs(defect.evaluate(xs)).max() < 1e-7 * scale

    # shift-group flow consistency by finite differences
    g = add(monomial(3j, 2), monomial(1j, 1))
    hh = 1e-5
    fd = (np.asarray(coordinates(P, shift(g, hh)))
          - np.asarray(coordinates(P, shift(g, -hh)))) / (2 * hh)
    an = np.asarray(coordinates(P, differentiate(g)))
    assert np.abs(fd - an).max() < 1e-6 * (1 + np.abs(an).max())

    # odd symmetry: even coordinate orders never enter the graph; anything
    # flagged as identically-vanishing right-hand side must be even
    assert all(sum(idx.powers) % 2 == 1 for idx in J.psi)
    assert all(sum(idx.powers) % 2 == 0 for idx in J.vanished)

    # truncated-equation defect at a small manifold point shrinks at the
    # expected fourth-order rate for an order-3 jet
    def defect_at(t):
        coords = np.array([t, t, 0.5 * t, 0.5 * t], dtype=complex)
        u = manifold_point(J, coords, mu=(t * t,))
        d = equation_residual(Kp, J.nonlinearity, u, mu=(t * t,))
        return np.abs(d.evaluate(xs)).max()

    d1, d2 = defect_at(1e-2), defect_at(5e-3)
    assert d1 / d2 > 8.0, f"defect ratio {d1 / d2:.2f}"
    print("criterion 8 (invariant representatives): PASS")
