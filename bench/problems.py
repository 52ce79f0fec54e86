"""Problem files for the benchmark, built from closed-form constructions.

Every kernel here has its characteristic roots placed by construction, so the
checks in ``checks.py`` can compare the pipeline's output against formulas
evaluated in the benchmark itself:

* ``readme``: the README quadratic kernel ``(a + b x) e^{-x^2}`` with
  ``a = -1/sqrt(pi)`` (zero mass, so ``nu = 0`` is a root) and a generic
  ``b`` (so the root is simple).  Nonlinearity ``-u^2``, order 3.
* ``exp-double``: ``-1/2 e^{-|x|}``, transform ``-1/(1 - nu^2)``, so
  ``1 + Khat = -nu^2 / (1 - nu^2)`` has a double root at 0.  Nonlinearity
  ``-u^2``, order 3.
* ``pair``: the double-pair kernel of ``tests/conftest.py``,
  ``c1 e^{-x^2} + c2 e^{-x^2/4}`` with amplitudes that make ``1 + Khat`` and
  its derivative vanish at ``nu = +-i``.  Nonlinearity
  ``c_mu mu K*u + gamma K*(u^3)``.
* ``front``: the comoving pitchfork, ``K = -G`` with the unit-mass Gaussian
  ``G = e^{-x^2}/sqrt(pi)`` (a Jordan chain of length two at 0) and the
  comoving terms built from ``G'`` and ``G''``.

The seed moves only parameters that the closed forms carry symbolically and
that leave the amount of work unchanged: the README slope ``b`` and, for the
order-5 pair problem, the coefficients ``c_mu`` and ``gamma``.  The pulse and
front problems are fixed, because their wave constants (2 sqrt 2 and
(1/4, 1, 1)) are stated for those coefficients; their seed is echoed through
``cm verify --seed``.

Run ``python3 bench/problems.py --seed N --out DIR`` to write the files.
"""

import argparse
import json
import math
import os
import random

SQRT_PI = math.sqrt(math.pi)

PULSE_LAMBDAS = [1e-2, 1e-3, 1e-4]
FRONT_EPSILON = 1e-2
FRONT_C_STAR = 1.1  # 10% above the critical speed 2 sqrt(kappa alpha) = 1


def parameters(seed):
    """The seed-dependent parameters of every problem, as plain numbers."""
    rng = random.Random(seed)
    return {
        # README slope b = -s 4/sqrt(pi); s = 1 is the README example.
        "readme_b": -rng.uniform(0.8, 1.25) * 4.0 / SQRT_PI,
        # order-5 pair coefficients; (-1, 1/3) are the conftest values.
        "pair_c_mu": -rng.uniform(0.8, 1.25),
        "pair_gamma": rng.uniform(0.8, 1.25) / 3.0,
    }


def pair_amplitudes():
    """(c1, c2) with 1 + Khat(i) = Khat'(i) = 0 for c1 e^{-x^2} + c2 e^{-x^2/4}."""
    return -(4.0 / 3.0) * math.exp(0.25) / SQRT_PI, math.e / (6.0 * SQRT_PI)


def _gaussian(c, a, poly=None):
    term = {"c": c, "a": a}
    if poly is not None:
        term["poly"] = poly
    return {"family": "gaussian", "terms": [term]}


def _quadratic_problem(name, kernel):
    return {
        "schema": 1,
        "name": name,
        "kernels": {"K": kernel},
        "kernel": "K",
        "nonlinearity": {
            "max_order": 3,
            "terms": [{"coeff": -1.0, "factors": [[None, 0], [None, 0]]}],
        },
        "order": 3,
    }


def readme_problem(b):
    return _quadratic_problem(
        "readme-quadratic", _gaussian(1.0, 1.0, [-1.0 / SQRT_PI, b])
    )


def exp_double_problem():
    return _quadratic_problem(
        "exponential-double-zero",
        {"family": "exponential", "terms": [{"c": -0.5, "a": 1.0}]},
    )


def pair_problem(c_mu, gamma, order, verify=False):
    c1, c2 = pair_amplitudes()
    data = {
        "schema": 1,
        "name": "critical-pair",
        "kernels": {
            "K": {"family": "sum",
                  "parts": [_gaussian(c1, 1.0), _gaussian(c2, 0.25)]}
        },
        "kernel": "K",
        "nonlinearity": {
            "max_order": 5,
            "symmetries": ["reflection", "sign"],
            "terms": [
                {"coeff": c_mu, "factors": [[None, 0]], "mu_power": [1],
                 "outer": "K"},
                {"coeff": gamma, "factors": [[None, 0]] * 3, "outer": "K"},
            ],
        },
        "order": order,
    }
    if verify:
        data["verify"] = {"wave": "homoclinic", "lambdas": PULSE_LAMBDAS}
    return data


def front_problem(order, gram=False):
    c = 1.0 / SQRT_PI
    data = {
        "schema": 1,
        "name": "comoving-pitchfork",
        "kernels": {
            "K": _gaussian(-c, 1.0),
            "G": _gaussian(c, 1.0),
            "Gp": _gaussian(1.0, 1.0, [0.0, -2.0 * c]),
            "Gpp": _gaussian(1.0, 1.0, [-2.0 * c, 0.0, 4.0 * c]),
        },
        "kernel": "K",
        "nonlinearity": {
            "max_order": 5,
            "symmetries": ["reflection", "sign"],
            "terms": [
                {"coeff": -1.0, "factors": [[None, 0]], "mu_power": [1, 0],
                 "outer": "G"},
                {"coeff": -1.0, "factors": [[None, 0]], "mu_power": [0, 1],
                 "outer": "Gp"},
                {"coeff": -1.0, "factors": [[None, 0]], "mu_power": [0, 2],
                 "outer": "Gpp"},
                {"coeff": -1.0, "factors": [[None, 0]], "mu_power": [1, 1],
                 "outer": "Gp"},
                {"coeff": 1.0, "factors": [[None, 0]] * 3, "outer": "G"},
            ],
        },
        "order": order,
        "verify": {"wave": "front", "epsilon": FRONT_EPSILON,
                   "c_star": FRONT_C_STAR},
    }
    if gram:
        data["projection"] = {"flavor": "gram", "weight": "gaussian"}
    return data


def build(seed):
    """File name -> problem data for one seed."""
    p = parameters(seed)
    return {
        "readme.json": readme_problem(p["readme_b"]),
        "exp-double.json": exp_double_problem(),
        "pair-o3.json": pair_problem(-1.0, 1.0 / 3.0, 3, verify=True),
        "pair-o5.json": pair_problem(p["pair_c_mu"], p["pair_gamma"], 5),
        "front-gram-o3.json": front_problem(3, gram=True),
        "front-o5.json": front_problem(5),
    }


def write(seed, out_dir):
    """Write every problem file for ``seed`` under ``out_dir``; return paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, data in build(seed).items():
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        paths[name] = path
    return paths


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args()
    for path in write(args.seed, args.out).values():
        print(path)


if __name__ == "__main__":
    main()
