"""Correctness checks on ``cm`` reports, against closed forms computed here.

Nothing in this file imports ``cmnl``: kernel moments come from exact
Gaussian integrals (completing the square), and the order-5 defect test
convolves with the benchmark's own trapezoid quadrature.  Each check takes
the parsed report and the problem parameters (``problems.parameters`` plus
``tol_solve``) and raises ``CheckFailure`` with a reason when the report is
wrong.  ``CHECKS`` maps check names to functions; ``run.py`` names the
checks of each invocation and ``selftest.py`` shows that each one rejects a
report with one coefficient or root perturbed.
"""

import math

import numpy as np

import problems

SQRT_PI = math.sqrt(math.pi)
ELL = 1.0  # carrier frequency of the double-pair kernel
REL = 1e-8  # relative tolerance of the closed-form comparisons (criteria 1-5)
ROOT_TOL = 1e-8


class CheckFailure(Exception):
    """A report that contradicts a closed form or a required property."""


def _require(cond, msg):
    if not cond:
        raise CheckFailure(msg)


def _close(got, want, rel, label):
    got = np.atleast_1d(np.asarray(got, dtype=complex))
    want = np.atleast_1d(np.asarray(want, dtype=complex))
    _require(got.shape == want.shape,
             f"{label}: shape {got.shape} != {want.shape}")
    scale = max(1.0, float(np.abs(want).max()))
    err = float(np.abs(got - want).max())
    _require(err <= rel * scale, f"{label}: |err| {err:.3e} > {rel:g} * {scale:.3g}")


# ---------------------------------------------------------------------------
# exact Gaussian integrals


def gauss_moment(a, m, nu):
    """int x^m exp(-a x^2) exp(-nu x) dx, by completing the square.

    With s = nu / (2a) the integrand is exp(nu^2/(4a)) (y - s)^m exp(-a y^2),
    y = x + s, and the even moments of exp(-a y^2) are Gamma((k+1)/2) /
    a^((k+1)/2).
    """
    s = nu / (2.0 * a)
    total = 0.0j
    for k in range(0, m + 1, 2):
        g = math.gamma((k + 1) / 2.0) / a ** ((k + 1) / 2.0)
        total += math.comb(m, k) * (-s) ** (m - k) * g
    return complex(np.exp(nu * nu / (4.0 * a)) * total)


def pair_moment(m, s):
    """kappa_{m,s} = int x^m K(x) exp(-i s ell x) dx for the double-pair kernel."""
    c1, c2 = problems.pair_amplitudes()
    nu = 1j * s * ELL
    return c1 * gauss_moment(1.0, m, nu) + c2 * gauss_moment(0.25, m, nu)


# ---------------------------------------------------------------------------
# report access


def _key(entry):
    idx = entry["index"]
    return tuple(idx["powers"]), tuple(idx["mu"])


def field_map(report):
    return {
        _key(e): np.array([complex(re, im) for re, im in e["coeff"]])
        for e in report["result"]["field"]
    }


def psi_map(report):
    return {_key(e): e["psi"] for e in report["result"]["psi"]}


def qp_term(psi, nu, tol=1e-9):
    """Ascending polynomial coefficients (component 0) at frequency ``nu``."""
    for t in psi["terms"]:
        if abs(complex(*t["nu"]) - nu) <= tol:
            return np.array([complex(*row[0]) for row in t["poly"]])
    return np.zeros(0, dtype=complex)


def _entry(table, key, label):
    _require(key in table, f"{label}: entry {key} missing")
    return table[key]


# ---------------------------------------------------------------------------
# spectrum


def _roots(report, want, dimension):
    _require(report.get("command") == "spectrum", "not a spectrum report")
    roots = sorted(
        ((complex(*r["nu"]), r["multiplicity"]) for r in report["roots"]),
        key=lambda r: (r[0].imag, r[0].real),
    )
    _require(len(roots) == len(want),
             f"{len(roots)} roots reported, {len(want)} built in")
    for (nu, mult), (nu_w, mult_w) in zip(roots, want):
        _require(abs(nu - nu_w) <= ROOT_TOL, f"root {nu} is not {nu_w}")
        _require(mult == mult_w, f"root {nu_w}: multiplicity {mult} != {mult_w}")
    _require(report["dimension"] == dimension,
             f"dimension {report['dimension']} != {dimension}")
    _require(report["strip"] > 0, "empty strip")


def roots_simple_zero(report, params):
    """README kernel: zero mass and nonzero first moment, so 0 is simple."""
    _roots(report, [(0j, 1)], 1)


def roots_double_zero(report, params):
    """Exponential and front kernels: 1 + Khat = O(nu^2) at 0."""
    _roots(report, [(0j, 2)], 2)


def roots_double_pair(report, params):
    """Double-pair kernel: 1 + Khat and Khat' vanish at +-i."""
    _roots(report, [(-1j * ELL, 2), (1j * ELL, 2)], 4)


# ---------------------------------------------------------------------------
# reduce, small problems


def residuals(report, params):
    """Every bordered-solve residual is at or below --tol-solve."""
    tol = params["tol_solve"]
    worst = max((e["residual"] for e in report["result"]["psi"]), default=0.0)
    _require(worst <= tol, f"solver residual {worst:.3e} > tol-solve {tol:g}")


def readme_field(report, params):
    """Criterion 1: A' = alpha A^2 - kappa2 alpha^3 A^3 with alpha = -1/kappa1."""
    a, b = -1.0 / SQRT_PI, params["readme_b"]
    kappa1 = (a * gauss_moment(1.0, 1, 0) + b * gauss_moment(1.0, 2, 0)).real
    kappa2 = (a * gauss_moment(1.0, 2, 0) + b * gauss_moment(1.0, 3, 0)).real
    alpha = -1.0 / kappa1
    fld = field_map(report)
    _close(_entry(fld, ((2,), ()), "readme")[0], alpha, REL, "A^2 coefficient")
    _close(_entry(fld, ((3,), ()), "readme")[0], -kappa2 * alpha**3, REL,
           "A^3 coefficient")


def _jordan_linear_part(fld, mu, label):
    _close(_entry(fld, ((0, 1), mu), label), [1, 0], REL, f"{label}: A' = B")
    _close(_entry(fld, ((1, 0), mu), label), [0, 0], REL, f"{label}: A column")


def exp_field(report, params):
    """Double zero of c e^{-a|x|}, c = -a/2, with F = -u^2.

    The A^2 solve gives psi = -(c_F/kappa2) x^2 with kappa2 = 4c/a^3, whose
    flow derivative puts -2 c_F / kappa2 on B'.
    """
    c_k, a, c_f = -0.5, 1.0, -1.0
    kappa2 = 4.0 * c_k / a**3
    fld = field_map(report)
    _jordan_linear_part(fld, (), "exponential")
    _close(_entry(fld, ((2, 0), ()), "exponential"), [0, -2.0 * c_f / kappa2],
           REL, "exponential: A^2 column")


def front_field(report, params):
    """Criterion 7 entries: -1/kappa on c B and mu A, +1/kappa on A^3, where
    kappa = (1/2) int x^2 G is projection independent."""
    kappa = 0.5 * gauss_moment(1.0, 2, 0).real / SQRT_PI
    fld = field_map(report)
    _jordan_linear_part(fld, (0, 0), "front")
    for key, want in (
        (((0, 1), (0, 1)), -1.0 / kappa),
        (((1, 0), (1, 0)), -1.0 / kappa),
        (((3, 0), (0, 0)), 1.0 / kappa),
    ):
        _close(_entry(fld, key, "front")[1], want, 1e-7, f"front {key}")


# ---------------------------------------------------------------------------
# reduce, order-5 pair problem


def _pair_constants(params):
    k01, k21, k31 = pair_moment(0, 1), pair_moment(2, 1), pair_moment(3, 1)
    alpha0 = -k01**2 / k21
    alpha2 = -k01**2 / (3 * k21)
    alpha1 = -k01**2 * k31 / (3 * k21**2)
    # the closed forms are linear in the parameter term; criteria 3 and 5
    # state them for c_mu = -1, and the cubic enters A^2 Abar as 3 gamma.
    s = -params["pair_c_mu"]
    cubic = 3.0 * params["pair_gamma"] / params["pair_c_mu"]
    return alpha0, alpha1, alpha2, s, cubic


def pair_order2(report, params):
    """Criterion 3: the A mu and B mu graph entries, their conjugates, and
    A^2 Abar = (3 gamma / c_mu) A mu."""
    alpha0, alpha1, alpha2, s, cubic = _pair_constants(params)
    psi = psi_map(report)
    i, L = 1j * ELL, ELL
    p = _entry(psi, ((1, 0, 0, 0), (1,)), "pair")
    want_p = {i: s * alpha0 * np.array([-1.5 / L**2, 2j / L, 1.0]),
              -i: s * alpha0 * np.array([1.5 / L**2, 1j / L])}
    b0 = (4j * L * alpha1 + 3 * alpha2) / (2 * L**2)
    b1 = (2j * L * alpha1 + 3 * alpha2) / (2 * L**2)
    c0 = (3j * alpha2 - 3 * L * alpha1) / (2 * L**3)
    q = _entry(psi, ((0, 0, 1, 0), (1,)), "pair")
    want_q = {i: s * np.array([c0, b0, alpha1, alpha2]),
              -i: s * np.array([-c0, b1])}
    pc = _entry(psi, ((0, 1, 0, 0), (1,)), "pair")
    qc = _entry(psi, ((0, 0, 0, 1), (1,)), "pair")
    r = _entry(psi, ((2, 1, 0, 0), (0,)), "pair")
    for nu in (i, -i):
        _close(qp_term(p, nu), want_p[nu], REL, f"A mu entry at {nu}")
        _close(qp_term(q, nu), want_q[nu], REL, f"B mu entry at {nu}")
        _close(qp_term(pc, -nu), np.conj(want_p[nu]), REL,
               f"Abar mu entry at {-nu}")
        _close(qp_term(qc, -nu), np.conj(want_q[nu]), REL,
               f"Bbar mu entry at {-nu}")
        _close(qp_term(r, nu), cubic * want_p[nu], REL,
               f"A^2 Abar entry at {nu}")


def pair_block(report, params):
    """Criterion 5: Jordan blocks at +-i and the linear-in-mu block."""
    alpha0, alpha1, alpha2, s, cubic = _pair_constants(params)
    a0 = (3 * alpha2 + 1j * ELL * alpha1) / ELL**2
    _require(abs(a0.imag) < 1e-10, f"a0 = {a0} is not real")
    alpha0, a0 = alpha0.real, a0.real
    fld = field_map(report)
    units = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    linear = [[1j * ELL, 0, 0, 0], [0, -1j * ELL, 0, 0],
              [1, 0, 1j * ELL, 0], [0, 1, 0, -1j * ELL]]
    amu = s * alpha0 * np.array([2j / ELL, -2j / ELL, 2, 2])
    bmu = s * a0 * np.array([2 / ELL, -2 / ELL, -2j, -2j])
    for unit, want in zip(units, linear):
        _close(_entry(fld, (unit, (0,)), "pair"), want, REL, f"{unit} column")
    for unit, want in zip(units, [amu, amu, bmu, -bmu]):
        _close(_entry(fld, (unit, (1,)), "pair"), want, REL, f"{unit} mu column")
    _close(_entry(fld, ((2, 1, 0, 0), (0,)), "pair"), cubic * amu, REL,
           "A^2 Abar column")


def odd_psi(report, params):
    """Sign symmetry: only odd coordinate orders enter the graph map."""
    even = [k for k in psi_map(report) if sum(k[0]) % 2 == 0]
    _require(not even, f"graph entries of even coordinate order: {even[:3]}")
    _require(psi_map(report), "empty graph map")


DEFECT_X = np.linspace(-2.0, 2.0, 41)
DEFECT_T = (0.004, 0.002)
DEFECT_RATE_ORDER = 6


def _eval_qp(terms, x):
    """Sum of poly(x) e^{nu x} over ``{nu: ascending coefficients}``."""
    out = np.zeros(np.shape(x), dtype=complex)
    for nu, coeffs in terms.items():
        out += np.polynomial.polynomial.polyval(x, coeffs) * np.exp(nu * x)
    return out


def _manifold_point(report, coords, mu):
    """u = sum c_i phi_i + sum psi_m c^m mu^r as {nu: coefficients}."""
    terms = {}

    def add(nu, coeffs, w):
        old = terms.get(nu, np.zeros(0, dtype=complex))
        new = np.zeros(max(len(old), len(coeffs)), dtype=complex)
        new[:len(old)] += old
        new[:len(coeffs)] += w * coeffs
        terms[nu] = new

    # pair basis (A, Abar, B, Bbar) = (e^{ix}, e^{-ix}, x e^{ix}, x e^{-ix})
    for c, nu, deg in zip(coords, (1j, -1j, 1j, -1j), (0, 0, 1, 1)):
        add(nu * ELL, np.eye(deg + 1)[deg].astype(complex), c)
    for (powers, mus), psi in psi_map(report).items():
        w = np.prod([c**p for c, p in zip(coords, powers)]) * mu ** sum(mus)
        for t in psi["terms"]:
            nu = complex(*t["nu"])
            nu = complex(round(nu.real, 6), round(nu.imag, 6))
            add(nu, np.array([complex(*row[0]) for row in t["poly"]]), w)
    return terms


def _kernel_convolve(f, x, h=0.02, radius=14.0):
    """(K * f)(x) for the double-pair kernel by the trapezoid rule in z.

    The kernel is a sum of Gaussians, so the rule converges spectrally; the
    tail beyond ``radius`` is below e^{-radius^2/4} ~ 1e-21.
    """
    c1, c2 = problems.pair_amplitudes()
    z = np.arange(-radius, radius + h / 2, h)
    kz = c1 * np.exp(-z * z) + c2 * np.exp(-z * z / 4.0)
    vals = f(x[:, None] - z[None, :])
    return h * (vals * kz[None, :]).sum(axis=1)


def pair_defect(report, params, t):
    """max |u + K*u + c_mu mu K*u + gamma K*(u^3)| on DEFECT_X at amplitude t."""
    coords = np.array([t, t, 0.5 * t, 0.5 * t], dtype=complex)
    mu = t * t
    terms = _manifold_point(report, coords, mu)

    def u(x):
        return _eval_qp(terms, x)

    x = DEFECT_X
    d = (u(x) + (1.0 + params["pair_c_mu"] * mu) * _kernel_convolve(u, x)
         + params["pair_gamma"] * _kernel_convolve(lambda y: u(y) ** 3, x))
    return float(np.abs(d).max())


def defect_rate(report, params):
    """Halving the amplitude shrinks the order-5 defect at least 2^6-fold."""
    d1, d2 = (pair_defect(report, params, t) for t in DEFECT_T)
    want = 2.0 ** DEFECT_RATE_ORDER
    _require(d2 > 0 and d1 / d2 >= want,
             f"defect ratio {d1 / d2 if d2 else math.inf:.2f} < {want:g} "
             f"({d1:.3e} -> {d2:.3e})")


# ---------------------------------------------------------------------------
# verify


def seed_echo(report, params):
    _require(report.get("seed") == params["seed"],
             f"seed {report.get('seed')} != {params['seed']}")


def pulse(report, params):
    """Criterion 6: residual/amplitude slope >= 1.5 and amplitude/sqrt(lam)
    within 10% of 2 sqrt 2."""
    rep = report["report"]
    _require(rep["type"] == "homoclinic", "not a pulse report")
    lams = sorted(row["lambda"] for row in rep["details"]["sweep"])
    _require(lams == sorted(problems.PULSE_LAMBDAS), f"sweep over {lams}")
    _require(rep["slope"] >= 1.5, f"slope {rep['slope']:.3f} < 1.5")
    ratio = rep["details"]["amplitude_ratio"]
    _require(abs(ratio / (2 * math.sqrt(2)) - 1) <= 0.10,
             f"amplitude ratio {ratio:.4f} not within 10% of 2 sqrt 2")


def front_wave(report, params):
    """Criterion 7: (kappa, alpha, beta) = (1/4, 1, 1); a monotone front with
    residual below 1e-6 that reaches the rest state within 1e-4."""
    rep = report["report"]
    _require(rep["type"] == "front", "not a front report")
    det = rep["details"]
    kappa = 0.5 * gauss_moment(1.0, 2, 0).real / SQRT_PI
    _close([det["kappa"], det["alpha"], det["beta"]], [kappa, 1.0, 1.0], 1e-7,
           "front coefficients")
    _require(rep["monotone"] is True, "front is not monotone")
    _require(rep["residual_max"] < 1e-6,
             f"front residual {rep['residual_max']:.3e} >= 1e-6")
    _require(det["reach_distance"] <= 1e-4,
             f"reach distance {det['reach_distance']:.3e} > 1e-4")


CHECKS = {
    f.__name__: f
    for f in (
        roots_simple_zero, roots_double_zero, roots_double_pair, residuals,
        readme_field, exp_field, front_field, pair_order2, pair_block,
        odd_psi, defect_rate, seed_echo, pulse, front_wave,
    )
}


def run_checks(names, report, params):
    """Apply the named checks; return the list of failure messages."""
    failures = []
    for name in names:
        try:
            CHECKS[name](report, params)
        except CheckFailure as exc:
            failures.append(f"{name}: {exc}")
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            failures.append(f"{name}: malformed report ({exc!r})")
    return failures
