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
      "verify": {"wave": "homoclinic", "lambdas": [...], "step_x": 0.1},
                                          # optional; or
                                          # {"wave": "front",
                                          #  "epsilon": ..., "c_star": ...}
      "out": "report.json",               # optional output paths
      "csv": "csv-dir"
    }

Unknown fields anywhere are rejected, and every kernel name used by a term
must exist in the ``kernels`` table.  All ingestion failures raise
``ProblemError`` (an input error, as opposed to numerical failures later in
the pipeline).  ``symmetries`` is accepted for existing files and checked
for known names only; the reduction does not use it.
"""

import json
from dataclasses import dataclass

from .kernel import from_data as kernel_from_data
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
_VERIFY_KEYS = {
    "wave", "lambdas", "step_x", "epsilon", "c_star", "start", "tol_return",
    "tol_reach",
}


class ProblemError(ValueError):
    """Invalid problem input: malformed file, schema violation, bad reference."""


def _check_keys(data, allowed, where):
    if not isinstance(data, dict):
        raise ProblemError(f"{where} must be an object")
    unknown = set(data) - allowed
    if unknown:
        raise ProblemError(f"unknown fields in {where}: {sorted(unknown)}")


def _number(value, where):
    """A real or complex number from a JSON scalar or ``[re, im]`` pair."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) for v in value)
    ):
        return complex(value[0], value[1])
    raise ProblemError(f"{where} must be a number or an [re, im] pair")


@dataclass
class ProblemDefinition:
    """Validated problem: kernels, nonlinearity, pipeline settings."""

    n: int
    kernels: dict
    kernel_name: str
    nonlinearity: NonlinearitySpec
    order: int
    projection_flavor: str = "pointwise"
    projection_weight: str | None = None
    verify_plan: dict | None = None
    name: str | None = None
    out_path: str | None = None
    csv_path: str | None = None

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
            table[name] = kernel_from_data(desc)
        except (ValueError, KeyError, TypeError) as exc:
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
        if not isinstance(comp, int) or not 0 <= comp < n:
            raise ProblemError(
                f"{where}.factors[{j}] component must be an integer in [0, {n})"
            )
        factors.append((kern, comp))
    mu_power = data.get("mu_power", ())
    if isinstance(mu_power, tuple):
        pass  # key absent: parameter-free term
    elif isinstance(mu_power, list):
        if not all(isinstance(r, int) and not isinstance(r, bool) and r >= 0
                   for r in mu_power):
            raise ProblemError(f"{where}.mu_power entries must be integers >= 0")
        mu_power = tuple(mu_power)
    elif not (isinstance(mu_power, int) and not isinstance(mu_power, bool)
              and mu_power >= 0):
        raise ProblemError(f"{where}.mu_power must be an integer or a list")
    outer = _lookup(kernels, data.get("outer"), f"{where}.outer")
    target = data.get("target", 0)
    if not isinstance(target, int) or not 0 <= target < n:
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
    if not isinstance(max_order, int) or max_order < 2:
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


def _verify_from_data(data):
    _check_keys(data, _VERIFY_KEYS, "'verify'")
    wave = data.get("wave")
    if wave == "homoclinic":
        lams = data.get("lambdas")
        if (
            not isinstance(lams, list)
            or not lams
            or not all(
                isinstance(l, (int, float)) and not isinstance(l, bool) and l > 0
                for l in lams
            )
        ):
            raise ProblemError(
                "'verify.lambdas' must be a non-empty list of positive numbers"
            )
        for key in ("epsilon", "c_star", "tol_reach"):
            if key in data:
                raise ProblemError(f"'verify.{key}' does not apply to homoclinic")
    elif wave == "front":
        for key in ("epsilon", "c_star"):
            v = data.get(key)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or v <= 0:
                raise ProblemError(f"'verify.{key}' must be a positive number")
        for key in ("lambdas", "tol_return"):
            if key in data:
                raise ProblemError(f"'verify.{key}' does not apply to front")
    else:
        raise ProblemError("'verify.wave' must be 'homoclinic' or 'front'")
    return dict(data)


def problem_from_data(data):
    """Build a validated ``ProblemDefinition`` from parsed JSON data."""
    _check_keys(data, _TOP_KEYS, "the problem")
    if data.get("schema") != SCHEMA_VERSION:
        raise ProblemError(
            f"unsupported schema {data.get('schema')!r}: expected {SCHEMA_VERSION}"
        )
    n = data.get("n", 1)
    if not isinstance(n, int) or n < 1:
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
    if not isinstance(order, int):
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
