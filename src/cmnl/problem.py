"""Problem definitions: strict JSON ingestion for the command-line pipeline.

Schema (version 1)::

    {
      "schema": 1,
      "name": "optional title",
      "n": 1,
      "kernels": {"K": {"family": "gaussian", ...}, ...},
      "kernel": "K",                      # linear part u + K*u
      "nonlinearity": {
        "max_order": 5,
        "symmetries": ["reflection", "sign"],   # optional, not used
        "terms": [
          {"coeff": -1.0,                # or [re, im]
           "factors": [[null, 0], ...],  # [kernel name or null, component]
           "mu_power": [1, 0],           # optional; int or list of ints
           "outer": "K",                 # optional kernel name
           "target": 0}                  # optional component, default 0
        ]
      },
      "projection": {"flavor": "pointwise"},    # optional; or
                                                # {"flavor": "gram",
                                                #  "weight": "gaussian"|"sech"}
      "order": 3,                         # jet order (>= 2)
      "verify": {"wave": "homoclinic", "lambdas": [...],
                 "step_x": 0.1, "start": 1e-7},
                                          # optional; or
                                          # {"wave": "front",
                                          #  "epsilon": ..., "c_star": ...,
                                          #  "tol_reach": 1e-4}
                                          # numbers positive and finite;
                                          # step_x, start, tol_reach optional
      "out": "report.json",               # optional output paths
      "csv": "csv-dir"
    }

A kernel is ``{"family": "gaussian"|"exponential"|"dirac", "n": 1,
"terms": [...]}`` or ``{"family": "sum", "parts": [kernel, ...]}``; its
terms are ``{"c", "a", "b", "poly"}`` (gaussian ``c * poly(x) *
exp(-a (x - b)^2)``), ``{"c", "a", "b"}`` (exponential ``c exp(-a |x - b|)``)
or ``{"c", "xi"}`` (dirac ``c delta(x - xi)``), with ``b`` and ``poly``
optional.  ``c`` is a number, an ``[re, im]`` pair or a matrix as a list of
rows; ``poly`` lists numbers or pairs; ``a``, ``b`` and ``xi`` are real.

Every number is finite, and neither a boolean nor a string.  Unknown fields
anywhere are rejected, and every kernel name used by a term must exist in
the ``kernels`` table.  All ingestion failures raise
``ProblemError`` (an input error, as opposed to numerical failures later in
the pipeline).  ``symmetries`` is accepted for existing files and checked
for known names only; the reduction does not use it.
"""

import json
import sys

import numpy as np

from .kernel import DiracMixture, ExponentialMixture, GaussianMixture, SumKernel
from .nonlin import NonlinearitySpec, TaylorTerm

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema", "name", "n", "kernels", "kernel", "nonlinearity",
    "projection", "order", "verify", "out", "csv",
}
_NONLIN_KEYS = {"max_order", "symmetries", "terms"}
KNOWN_SYMMETRIES = ("reflection", "sign")
_TERM_KEYS = {"coeff", "factors", "mu_power", "outer", "target"}
_PROJECTION_KEYS = {"flavor", "weight"}
# the keys of a verify plan, by wave
_WAVE_KEYS = {
    "homoclinic": {"wave", "lambdas", "step_x", "start"},
    "front": {"wave", "epsilon", "c_star", "tol_reach"},
}
_VERIFY_KEYS = set().union(*_WAVE_KEYS.values())


class ProblemError(ValueError):
    """Invalid problem input: malformed file, schema violation, bad reference."""


def _check_keys(data, allowed, where):
    if not isinstance(data, dict):
        raise ProblemError(f"{where} must be an object")
    unknown = set(data) - allowed
    if unknown:
        raise ProblemError(f"unknown fields in {where}: {sorted(unknown)}")


def _finite(value):
    """Whether ``value`` is a JSON number that is a finite float (booleans
    and integers beyond the float range excluded)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


def _integer(value):
    """Whether ``value`` is an integer ``_finite`` number (no boolean)."""
    return isinstance(value, int) and _finite(value)


def _number(value, where, pair=True):
    """A finite real number, or with ``pair`` also a complex one from an
    ``[re, im]`` pair of finite numbers."""
    parts = value if pair and isinstance(value, list) and len(value) == 2 else [value]
    if not all(map(_finite, parts)):
        kind = "(finite) or an [re, im] pair of finite numbers" if pair else "(finite, real)"
        raise ProblemError(f"{where} must be a number {kind}")
    return complex(*parts) if len(parts) == 2 else float(value)


def _numbers(values, where):
    """A list of numbers, each real or an ``[re, im]`` pair, as complex."""
    if not isinstance(values, list):
        raise ProblemError(f"{where} must be a list of numbers")
    return [complex(_number(v, f"{where}[{j}]")) for j, v in enumerate(values)]


def _coefficient(value, n, where):
    """A kernel coefficient: a number times the identity, or a matrix given
    as a list of rows."""
    if isinstance(value, list) and value and isinstance(value[0], list):
        return np.array([_numbers(row, f"{where}[{i}]")
                         for i, row in enumerate(value)], dtype=complex)
    return complex(_number(value, where)) * np.eye(n, dtype=complex)


# per kernel family: its class, the keys of a term, and the real ones among
# them in the constructor's order (``b`` defaults to 0)
_FAMILIES = {
    "gaussian": (GaussianMixture, {"c", "a", "b", "poly"}, ("a", "b")),
    "exponential": (ExponentialMixture, {"c", "a", "b"}, ("a", "b")),
    "dirac": (DiracMixture, {"c", "xi"}, ("xi",)),
}


def kernel_from_data(data, where="kernel"):
    """Build a kernel from its JSON object (strict: unknown keys rejected)."""
    _check_keys(data, {"family", "n", "terms", "parts"}, where)
    family = data.get("family")
    if family == "sum":
        _check_keys(data, {"family", "parts"}, where)
        parts = data.get("parts")
        if not isinstance(parts, list):
            raise ProblemError(f"{where}.parts must be a list of kernels")
        return SumKernel([kernel_from_data(p, f"{where}.parts[{j}]")
                          for j, p in enumerate(parts)])
    if family not in _FAMILIES:
        raise ProblemError(f"{where}: unknown kernel family {family!r}")
    n = data.get("n", 1)
    if not _integer(n):
        raise ProblemError(f"{where}.n must be an integer")
    cls, keys, reals = _FAMILIES[family]
    built = []
    for j, t in enumerate(data.get("terms", [])):
        at = f"{where}.terms[{j}]"
        _check_keys(t, keys, at)
        if "c" not in t or reals[0] not in t:
            raise ProblemError(f"{at} needs 'c' and {reals[0]!r}")
        c = _coefficient(t["c"], n, f"{at}.c")
        if "poly" in keys:
            c = np.array([p * c for p in _numbers(t.get("poly", [1.0]), f"{at}.poly")])
        built.append((c, *(_number(t.get(k, 0.0), f"{at}.{k}", pair=False)
                           for k in reals)))
    return cls(built, n=n)


class ProblemDefinition:
    """Validated problem: kernels, nonlinearity, pipeline settings."""

    def __init__(self, n, kernels, kernel_name, nonlinearity, order,
                 projection_flavor, projection_weight, verify_plan, name,
                 out_path, csv_path):
        self.n, self.kernels, self.kernel_name = n, kernels, kernel_name
        self.nonlinearity, self.order = nonlinearity, order
        self.projection_flavor = projection_flavor
        self.projection_weight = projection_weight
        self.verify_plan, self.name = verify_plan, name
        self.out_path, self.csv_path = out_path, csv_path

    @property
    def kernel(self):
        """The linear-part kernel (u + K*u + F = 0)."""
        return self.kernels[self.kernel_name]


def _kernel_table(data, n):
    if not isinstance(data, dict) or not data:
        raise ProblemError("'kernels' must be a non-empty object")
    table = {}
    for name, desc in data.items():
        try:
            table[name] = kernel_from_data(desc, f"kernel {name!r}")
        except ProblemError:
            raise
        except (ValueError, TypeError) as exc:
            raise ProblemError(f"kernel {name!r}: {exc}") from exc
        if table[name].n != n:
            raise ProblemError(
                f"kernel {name!r} has dimension {table[name].n}, problem has {n}"
            )
    return table


def _lookup(kernels, name, where):
    if name is None:
        return None
    if not isinstance(name, str) or name not in kernels:
        raise ProblemError(f"{where} references unknown kernel {name!r}")
    return kernels[name]


def _term_from_data(data, kernels, n, where):
    _check_keys(data, _TERM_KEYS, where)
    if "coeff" not in data or "factors" not in data:
        raise ProblemError(f"{where} needs 'coeff' and 'factors'")
    coeff = _number(data["coeff"], f"{where}.coeff")
    factors = []
    raw = data["factors"]
    if not isinstance(raw, list) or not raw:
        raise ProblemError(f"{where}.factors must be a non-empty list")
    for j, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ProblemError(
                f"{where}.factors[{j}] must be [kernel name or null, component]"
            )
        kern = _lookup(kernels, pair[0], f"{where}.factors[{j}]")
        comp = pair[1]
        if not _integer(comp) or not 0 <= comp < n:
            raise ProblemError(
                f"{where}.factors[{j}] component must be an integer in [0, {n})"
            )
        factors.append((kern, comp))
    mu_power = data.get("mu_power", ())
    if isinstance(mu_power, tuple):
        pass  # key absent: parameter-free term
    elif isinstance(mu_power, list):
        if not all(_integer(r) and r >= 0 for r in mu_power):
            raise ProblemError(f"{where}.mu_power entries must be integers >= 0")
        mu_power = tuple(mu_power)
    elif not (_integer(mu_power) and mu_power >= 0):
        raise ProblemError(f"{where}.mu_power must be an integer or a list")
    outer = _lookup(kernels, data.get("outer"), f"{where}.outer")
    target = data.get("target", 0)
    if not _integer(target) or not 0 <= target < n:
        raise ProblemError(f"{where}.target must be an integer in [0, {n})")
    try:
        return TaylorTerm(coeff, tuple(factors), mu_power=mu_power,
                          outer=outer, target=target)
    except ValueError as exc:
        raise ProblemError(f"{where}: {exc}") from exc


def _nonlinearity_from_data(data, kernels, n):
    _check_keys(data, _NONLIN_KEYS, "'nonlinearity'")
    if "max_order" not in data or "terms" not in data:
        raise ProblemError("'nonlinearity' needs 'max_order' and 'terms'")
    max_order = data["max_order"]
    if not _integer(max_order) or max_order < 2:
        raise ProblemError("'nonlinearity.max_order' must be an integer >= 2")
    raw_terms = data["terms"]
    if not isinstance(raw_terms, list):
        raise ProblemError("'nonlinearity.terms' must be a list")
    terms = [
        _term_from_data(t, kernels, n, f"'nonlinearity.terms[{i}]'")
        for i, t in enumerate(raw_terms)
    ]
    symmetries = data.get("symmetries", [])
    if not isinstance(symmetries, list) or not all(
        isinstance(s, str) for s in symmetries
    ):
        raise ProblemError("'nonlinearity.symmetries' must be a list of strings")
    unknown = sorted(set(symmetries).difference(KNOWN_SYMMETRIES))
    if unknown:
        raise ProblemError(f"'nonlinearity.symmetries': unknown {unknown}")
    try:
        return NonlinearitySpec(tuple(terms), max_order)
    except ValueError as exc:
        raise ProblemError(f"'nonlinearity': {exc}") from exc


def _positive(value):
    """Whether ``value`` is a positive finite number (booleans excluded)."""
    return _finite(value) and value > 0


def _verify_from_data(data):
    _check_keys(data, _VERIFY_KEYS, "'verify'")
    wave = data.get("wave")
    if wave not in _WAVE_KEYS:
        raise ProblemError("'verify.wave' must be 'homoclinic' or 'front'")
    extra = sorted(set(data) - _WAVE_KEYS[wave])
    if extra:
        raise ProblemError(f"'verify.{extra[0]}' does not apply to {wave}")
    if wave == "homoclinic":
        lams = data.get("lambdas")
        if not isinstance(lams, list) or not lams or not all(map(_positive, lams)):
            raise ProblemError(
                "'verify.lambdas' must be a non-empty list of positive finite numbers"
            )
        if len(set(lams)) < len(lams):
            # the sweep's log-log slope divides by log(lambda) differences
            raise ProblemError("'verify.lambdas' must not repeat a value")
    elif "epsilon" not in data or "c_star" not in data:
        raise ProblemError("a front plan needs 'verify.epsilon' and 'verify.c_star'")
    for key in sorted(set(data) - {"wave", "lambdas"}):
        if not _positive(data[key]):
            raise ProblemError(f"'verify.{key}' must be a positive finite number")
    return dict(data)


def problem_from_data(data):
    """Build a validated ``ProblemDefinition`` from parsed JSON data."""
    _check_keys(data, _TOP_KEYS, "the problem")
    if data.get("schema") != SCHEMA_VERSION:
        raise ProblemError(
            f"unsupported schema {data.get('schema')!r}: expected {SCHEMA_VERSION}"
        )
    n = data.get("n", 1)
    if not _integer(n) or n < 1:
        raise ProblemError("'n' must be a positive integer")
    for key in ("kernels", "kernel", "nonlinearity", "order"):
        if key not in data:
            raise ProblemError(f"missing required field {key!r}")
    kernels = _kernel_table(data["kernels"], n)
    kernel_name = data["kernel"]
    if kernel_name not in kernels:
        raise ProblemError(f"'kernel' references unknown kernel {kernel_name!r}")
    F = _nonlinearity_from_data(data["nonlinearity"], kernels, n)
    order = data["order"]
    if not _integer(order):
        raise ProblemError("'order' must be an integer")

    flavor, weight = "pointwise", None
    if "projection" in data:
        _check_keys(data["projection"], _PROJECTION_KEYS, "'projection'")
        flavor = data["projection"].get("flavor", "pointwise")
        if flavor not in ("pointwise", "gram"):
            raise ProblemError("'projection.flavor' must be 'pointwise' or 'gram'")
        weight = data["projection"].get("weight")
        if flavor == "gram":
            if weight not in ("gaussian", "sech"):
                raise ProblemError(
                    "'projection.weight' must be 'gaussian' or 'sech'"
                )
        elif weight is not None:
            raise ProblemError("'projection.weight' requires the gram flavor")

    plan = None
    if "verify" in data:
        plan = _verify_from_data(data["verify"])

    for key in ("name", "out", "csv"):
        if key in data and not isinstance(data[key], str):
            raise ProblemError(f"{key!r} must be a string")

    return ProblemDefinition(
        n=n,
        kernels=kernels,
        kernel_name=kernel_name,
        nonlinearity=F,
        order=order,
        projection_flavor=flavor,
        projection_weight=weight,
        verify_plan=plan,
        name=data.get("name"),
        out_path=data.get("out"),
        csv_path=data.get("csv"),
    )


def load_problem(path):
    """Read and validate a problem file; all failures raise ``ProblemError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemError(f"malformed JSON in {path}: {exc}") from exc
    return problem_from_data(data)
