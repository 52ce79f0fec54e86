"""Command-line front end: ``cm spectrum | reduce | verify``.

Each command reads a problem file (see :mod:`cmnl.problem` for the schema),
runs the corresponding slice of the pipeline, and emits a machine-readable
JSON report -- to stdout or, with ``--out``, to a file.  ``cm verify``
additionally writes plot-ready CSV profiles under ``--csv``.

Reports are byte-stable: keys sorted, floats printed with 17 significant
digits, LF line endings; re-parsing and re-serializing a report reproduces
it byte for byte.  Complex ``ndarray`` leaves are written as the nested
``[re, im]`` lists that the re-parsed report holds.

Exit codes: 0 success, 1 numerical failure (``RuntimeError`` or
``LinAlgError``: solver residuals above ``--tol-solve``, failed shooting,
scaling or planar extraction, failed scaling certification), 2 input error
(``ProblemError``: unreadable or invalid problem file, bad order).
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .jet import compute_jet
from .problem import SCHEMA_VERSION, ProblemError, load_problem
from .projection import build_gram, build_pointwise, kernel_basis
from .spectrum import locate_roots
from .verify import front_report, pulse_scaling_report

SLOPE_REQUIREMENT = 1.5


# ---------------------------------------------------------------------------
# canonical serialization


def _format_number(x):
    if x != x or x in (math.inf, -math.inf):
        raise RuntimeError("non-finite value in report")
    if isinstance(x, int):
        return repr(x)
    if x == 0.0:
        return "0"
    return format(x, ".17g")


@functools.lru_cache(maxsize=1024)
def _array_template(shape, level):
    """%-template writing a complex array of ``shape`` as nested lists of
    ``[re, im]`` pairs, laid out as ``_serialize`` lays out lists."""
    if shape and shape[0] == 0:
        return "[]"
    inner = "  " * (level + 1)
    row = _array_template(shape[1:], level + 1) if shape else "%.17g"
    body = ",\n".join([inner + row] * (shape[0] if shape else 2))
    return "[\n" + body + "\n" + "  " * level + "]"


def _serialize(obj, level):
    kind = type(obj)
    # the exact types first: nearly every value of a report has one
    if kind is float:
        return _format_number(obj)
    if kind is int:
        return repr(obj)
    if kind is np.ndarray and obj.dtype == complex:
        # ``+ 0.0`` writes -0.0 as 0, as ``_format_number`` does
        values = np.ascontiguousarray(obj).view(float).ravel() + 0.0
        text = _array_template(obj.shape, level) % tuple(values.tolist())
        if "n" in text:  # %.17g writes a letter n only in inf and nan
            raise RuntimeError("non-finite value in report")
        return text
    if kind is not dict and kind is not list:
        if obj is None:
            return "null"
        if isinstance(obj, bool):
            return "true" if obj else "false"
        if isinstance(obj, (int, float)):
            return _format_number(obj)
        if isinstance(obj, str):
            return json.dumps(obj)
        if not isinstance(obj, (list, tuple, dict)):
            raise TypeError(f"cannot serialize {type(obj).__name__} in report")
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join([inner + _key(k) + ": " + _serialize(obj[k], level + 1)
                           for k in sorted(obj)])
        return "{\n" + body + "\n" + pad + "}"
    if not obj:
        return "[]"
    body = ",\n".join([inner + _serialize(v, level + 1) for v in obj])
    return "[\n" + body + "\n" + pad + "]"


@functools.lru_cache(maxsize=1024)
def _key(k):
    if not isinstance(k, str):
        raise TypeError("report keys must be strings")
    return json.dumps(k)


def canonical_json(obj):
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    return _serialize(obj, 0) + "\n"


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def write_profile_csv(path, profile, resid):
    """Profile and pointwise residual as CSV (header row, LF endings)."""
    mag = np.abs(resid.values).max(axis=1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if profile.n == 1:
            fh.write("x,re_u,im_u,residual\n")
        else:
            cols = ",".join(f"re_u{c},im_u{c}" for c in range(profile.n))
            fh.write(f"x,{cols},residual\n")
        for i, x in enumerate(profile.xs):
            vals = ",".join(
                f"{v.real:.17g},{v.imag:.17g}" for v in profile.values[i]
            )
            fh.write(f"{x:.17g},{vals},{mag[i]:.17g}\n")


# ---------------------------------------------------------------------------
# pipeline


def _build_reduction(prob, tol_root, tol_solve, order):
    K = prob.kernel
    spectrum = locate_roots(K, tol_root=tol_root)
    basis = kernel_basis(K, spectrum)
    if basis.size == 0:
        raise RuntimeError("no characteristic roots on the axis: nothing to reduce")
    if prob.projection_flavor == "gram":
        P = build_gram(basis, prob.projection_weight)
    else:
        P = build_pointwise(basis)
    J = compute_jet(K, P, prob.nonlinearity, order)
    bad = {
        idx: r for idx, r in J.diagnostics.items() if not r <= tol_solve
    }
    if bad:
        worst = max(bad.values())
        raise RuntimeError(
            f"{len(bad)} bordered-solve residuals exceed tol-solve "
            f"({worst:.3g} > {tol_solve:g})"
        )
    return spectrum, P, J


def _spectrum_data(prob, tol_root):
    spectrum = locate_roots(prob.kernel, tol_root=tol_root)
    roots = sorted(spectrum.roots, key=lambda r: (r.nu.imag, r.nu.real))
    diagnostics = dict(spectrum.diagnostics)
    diagnostics["excluded_offaxis"] = [
        [z.real, z.imag] for z in diagnostics["excluded_offaxis"]
    ]
    return {
        "schema": SCHEMA_VERSION,
        "command": "spectrum",
        "problem": prob.name,
        "strip": spectrum.strip,
        "window": spectrum.window,
        "roots": [r.to_data() for r in roots],
        "dimension": spectrum.total_multiplicity,
        "diagnostics": diagnostics,
    }


def _reduce_data(prob, tol_root, tol_solve, order):
    _, P, J = _build_reduction(prob, tol_root, tol_solve, order)
    basis = [
        {
            "nu": [el.nu.real, el.nu.imag],
            "order": el.order,
            "group": el.group,
            "chain": el.chain,
        }
        for el in J.basis.elements
    ]
    return {
        "schema": SCHEMA_VERSION,
        "command": "reduce",
        "problem": prob.name,
        "n": prob.n,
        "basis": basis,
        "projection": {
            "flavor": P.flavor,
            "weight": P.weight,
            "augmented": P.augmented,
        },
        "result": J.to_data(),
    }


def _verify_data(prob, tol_root, tol_solve, csv_dir, seed):
    plan = prob.verify_plan
    if plan is None:
        raise ProblemError("the problem file has no 'verify' plan")
    _, _, J = _build_reduction(prob, tol_root, tol_solve, prob.order)
    K = prob.kernel

    writer = None
    if csv_dir:
        os.makedirs(csv_dir, exist_ok=True)

        def writer(tag, profile, resid):
            name = f"{plan['wave']}_{_format_number(float(tag))}.csv"
            write_profile_csv(os.path.join(csv_dir, name), profile, resid)

    if plan["wave"] == "homoclinic":
        report = pulse_scaling_report(
            K, J, plan["lambdas"],
            step_x=plan.get("step_x", 0.1),
            on_profile=writer,
            **({"start": plan["start"]} if "start" in plan else {}),
        )
        if report.slope is not None and report.slope < SLOPE_REQUIREMENT:
            raise RuntimeError(
                f"scaling certification failed: log-log slope {report.slope:.3f}"
                f" below {SLOPE_REQUIREMENT}"
            )
    else:
        report = front_report(
            K, J, plan["epsilon"], plan["c_star"],
            on_profile=writer,
            **({"tol_reach": plan["tol_reach"]} if "tol_reach" in plan else {}),
        )
    return {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "problem": prob.name,
        "seed": seed,
        "report": report.to_data(),
    }


# ---------------------------------------------------------------------------
# argument parsing


def _parser():
    parser = argparse.ArgumentParser(
        prog="cm",
        description="Center-manifold reduction of nonlocal convolution "
        "equations u + K*u + F(u, mu) = 0: characteristic spectrum, "
        "order-by-order reduced vector fields, and numerical wave "
        "verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, solve=True):
        p.add_argument("problem", help="problem definition JSON file")
        p.add_argument("--out", help="write the JSON report here (default: stdout)")
        p.add_argument(
            "--tol-root", type=float, default=1e-9,
            help="characteristic-root refinement tolerance (default 1e-9)",
        )
        if solve:
            p.add_argument(
                "--tol-solve", type=float, default=1e-7,
                help="acceptable bordered-solve relative residual (default 1e-7)",
            )

    p = sub.add_parser("spectrum", help="locate characteristic roots")
    common(p, solve=False)

    p = sub.add_parser("reduce", help="compute the reduced vector field")
    common(p)
    p.add_argument(
        "--order", type=int, default=None,
        help="jet truncation order (default: the problem file's 'order')",
    )

    p = sub.add_parser("verify", help="reconstruct waves and measure residuals")
    common(p)
    p.add_argument("--csv", help="directory for plot-ready CSV profiles")
    p.add_argument(
        "--seed", type=int, default=0,
        help="recorded in the report; the pipeline itself is deterministic",
    )
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        prob = load_problem(args.problem)
        if args.command == "spectrum":
            data = _spectrum_data(prob, args.tol_root)
        elif args.command == "reduce":
            order = args.order if args.order is not None else prob.order
            data = _reduce_data(prob, args.tol_root, args.tol_solve, order)
        else:
            csv_dir = args.csv or prob.csv_path
            data = _verify_data(
                prob, args.tol_root, args.tol_solve, csv_dir, args.seed
            )
        _emit(canonical_json(data), args.out or prob.out_path)
        return 0
    except ProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
