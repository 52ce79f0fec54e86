"""Command-line front end: ``cm spectrum | reduce | verify``.

Each command reads a problem file (see :mod:`cmnl.problem` for the schema),
runs the corresponding slice of the pipeline, and emits a machine-readable
JSON report -- to stdout or, with ``--out``, to a file.  ``cm verify``
additionally writes plot-ready CSV profiles under ``--csv``.

Reports are byte-stable: keys sorted, floats printed with 17 significant
digits, LF line endings; re-parsing and re-serializing a report reproduces
it byte for byte.  Complex ``ndarray`` leaves are written as the nested
``[re, im]`` lists that the re-parsed report holds.  A report is written
through one %-template: one walk writes the text of the whole report, with
a ``%.17g`` per float, and collects the floats, which one ``%`` then formats.

Exit codes: 0 success, 1 numerical failure (``RuntimeError`` or
``LinAlgError``: solver residuals above ``--tol-solve``, failed shooting,
scaling or planar extraction, failed scaling certification), 2 input error
(``ProblemError``: unreadable or invalid problem file, bad order, a report
or CSV path that cannot be written, the CSV directory made before the
reduction; or a command line that ``_parse`` rejects: an unknown command or
option, a missing value or ``PROBLEM``, a tolerance that is not finite and
positive, an order or seed that is not an integer).  ``-h`` prints the
usage and exits 0.
"""

import contextlib
import functools
import gc
import json
import math
import os
import sys

import numpy as np

from .jet import compute_jet
from .problem import SCHEMA_VERSION, ProblemError, load_problem
from .projection import build_gram, build_pointwise, kernel_basis
from .spectrum import locate_roots
from .verify import defect_rows, front_report, pulse_scaling_report

SLOPE_REQUIREMENT = 1.5


# ---------------------------------------------------------------------------
# canonical serialization


@functools.lru_cache(maxsize=1024)
def _array_template(shape, level):
    """%-template writing a complex array of ``shape`` as nested lists of
    ``[re, im]`` pairs, laid out as ``_walk`` lays out lists."""
    if shape and shape[0] == 0:
        return "[]"
    inner = "  " * (level + 1)
    row = _array_template(shape[1:], level + 1) if shape else "%.17g"
    body = ",\n".join([inner + row] * (shape[0] if shape else 2))
    return "[\n" + body + "\n" + "  " * level + "]"


@functools.lru_cache(maxsize=1024)
def _key(k, level):
    """The template text of a key of a dict at ``level``, up to its value."""
    if not isinstance(k, str):
        raise TypeError("report keys must be strings")
    return "  " * (level + 1) + json.dumps(k).replace("%", "%%") + ": "


def _walk(obj, level, text, values):
    """Append the %-template of ``obj`` written at nesting ``level`` to the
    list ``text``, and its float leaves, in order, to ``values``."""
    kind = type(obj)
    # the exact types first: nearly every value of a report has one
    if kind is float:
        text.append("%.17g")
        values.append(obj + 0.0)  # ``+ 0.0`` writes -0.0 as 0
    elif kind is int:
        text.append(repr(obj))
    elif kind is np.ndarray and obj.dtype == complex:
        text.append(_array_template(obj.shape, level))
        values += (np.ascontiguousarray(obj).view(float).ravel() + 0.0).tolist()
    elif isinstance(obj, dict):
        if not obj:
            text.append("{}")
            return
        text.append("{\n")
        for k in sorted(obj):
            text.append(_key(k, level))
            _walk(obj[k], level + 1, text, values)
            text.append(",\n")
        text[-1] = "\n" + "  " * level + "}"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            text.append("[]")
            return
        inner = "  " * (level + 1)
        text.append("[\n")
        for v in obj:
            text.append(inner)
            _walk(v, level + 1, text, values)
            text.append(",\n")
        text[-1] = "\n" + "  " * level + "]"
    elif obj is None or isinstance(obj, (bool, str)):
        text.append(json.dumps(obj).replace("%", "%%"))
    elif isinstance(obj, int):
        text.append(repr(obj))
    elif isinstance(obj, float):
        _walk(float(obj), level, text, values)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} in report")


def canonical_json(obj):
    """Deterministic JSON text: sorted keys, 17-significant-digit floats.

    One walk writes the report's template and its float leaves, and one
    ``%`` formats the whole report."""
    text, values = [], []
    _walk(obj, 0, text, values)
    if not all(map(math.isfinite, values)):
        raise RuntimeError("non-finite value in report")
    return "".join(text) % tuple(values) + "\n"


@contextlib.contextmanager
def _writing(path):
    """An ``OSError`` on the output ``path`` as a ``ProblemError``."""
    try:
        yield
    except OSError as exc:
        raise ProblemError(f"cannot write {path}: {exc}") from exc


def _emit(text, out_path):
    if out_path:
        with _writing(out_path), open(out_path, "w", encoding="utf-8",
                                      newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def write_profile_csv(path, K, F, profile, mu=()):
    """Profile and pointwise defect magnitude of ``u + K*u + F(u, mu)`` as
    CSV (header row, LF endings), recomputed one block of grid rows at a
    time (``verify.defect_rows``)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if profile.n == 1:
            fh.write("x,re_u,im_u,residual\n")
        else:
            cols = ",".join(f"re_u{c},im_u{c}" for c in range(profile.n))
            fh.write(f"x,{cols},residual\n")
        for xs, us, rs in defect_rows(K, F, profile, mu):
            for x, u, mag in zip(xs, us, np.abs(rs).max(axis=1)):
                vals = ",".join(f"{v.real:.17g},{v.imag:.17g}" for v in u)
                fh.write(f"{x:.17g},{vals},{mag:.17g}\n")


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
        "basis_condition": J.basis.condition,
        "projection": {
            "flavor": P.flavor,
            "weight": P.weight,
            "augmented": P.augmented,
            "condition": P.condition,
        },
        "result": J.to_data(),
    }


def _verify_data(prob, tol_root, tol_solve, csv_dir, seed):
    plan = prob.verify_plan
    if plan is None:
        raise ProblemError("the problem file has no 'verify' plan")
    writer = None
    if csv_dir:
        with _writing(csv_dir):
            os.makedirs(csv_dir, exist_ok=True)

        def writer(tag, profile, mu):
            path = os.path.join(csv_dir, f"{plan['wave']}_{float(tag):.17g}.csv")
            with _writing(path):
                write_profile_csv(path, prob.kernel, prob.nonlinearity, profile, mu)

    _, _, J = _build_reduction(prob, tol_root, tol_solve, prob.order)
    K = prob.kernel

    # the optional keys the plan holds; verify.py has their defaults
    optional = {k: v for k, v in plan.items()
                if k in ("step_x", "start", "tol_reach")}
    if plan["wave"] == "homoclinic":
        report = pulse_scaling_report(K, J, plan["lambdas"], on_profile=writer,
                                      **optional)
        if report.slope is not None and report.slope < SLOPE_REQUIREMENT:
            raise RuntimeError(
                f"scaling certification failed: log-log slope {report.slope:.3f}"
                f" below {SLOPE_REQUIREMENT}"
            )
    else:
        report = front_report(K, J, plan["epsilon"], plan["c_star"],
                              on_profile=writer, **optional)
    return {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "problem": prob.name,
        "seed": seed,
        "report": report.to_data(),
    }


# ---------------------------------------------------------------------------
# argument parsing

DESCRIPTION = (
    "Center-manifold reduction of nonlocal convolution equations\n"
    "u + K*u + F(u, mu) = 0: characteristic spectrum, order-by-order reduced\n"
    "vector fields, and numerical wave verification."
)

# option: (metavar, type, default, help); a float is a tolerance, which must
# be finite and positive
OPTIONS = {
    "--out": ("FILE", str, None, "write the JSON report here (default: stdout)"),
    "--tol-root": ("TOL", float, 1e-9,
                   "characteristic-root refinement tolerance (default 1e-9)"),
    "--tol-solve": ("TOL", float, 1e-7,
                    "acceptable bordered-solve relative residual (default 1e-7)"),
    "--order": ("N", int, None,
                "jet truncation order (default: the problem file's 'order')"),
    "--csv": ("DIR", str, None, "directory for plot-ready CSV profiles"),
    "--seed": ("N", int, 0, "recorded in the report; the pipeline itself is "
               "deterministic (default 0)"),
}

# command: (help, its options)
COMMANDS = {
    "spectrum": ("locate characteristic roots", ("--out", "--tol-root")),
    "reduce": ("compute the reduced vector field",
               ("--out", "--tol-root", "--tol-solve", "--order")),
    "verify": ("reconstruct waves and measure residuals",
               ("--out", "--tol-root", "--tol-solve", "--csv", "--seed")),
}


class UsageError(Exception):
    """A command line that ``_parse`` cannot read."""


def _parse(argv):
    """``(command, options)`` for the argument list ``argv``: ``options``
    maps ``problem`` and every option of the command, with dashes as
    underscores, to its value or default.  ``options`` is None when the list
    asks for help (``-h`` or ``--help``).  An option's value follows it as
    the next argument or after ``=``; option names are matched whole, never
    by prefix.  Raises ``UsageError``."""
    if not argv:
        raise UsageError("no command given")
    if argv[0] in ("-h", "--help"):
        return None, None
    command, rest = argv[0], iter(argv[1:])
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r}")
    names = COMMANDS[command][1]
    options = {name[2:].replace("-", "_"): OPTIONS[name][2] for name in names}
    positional = []
    for arg in rest:
        if arg in ("-h", "--help"):
            return command, None
        if arg == "--":
            positional += rest
        elif not arg.startswith("-"):
            positional.append(arg)
        else:
            name, eq, text = arg.partition("=")
            if name not in names:
                raise UsageError(f"cm {command} has no option {name}")
            if not eq:
                text = next(rest, None)
                if text is None:
                    raise UsageError(f"option {name} needs a value")
            kind = OPTIONS[name][1]
            try:
                value = kind(text)
                if kind is float and not 0 < value < math.inf:
                    raise ValueError
            except ValueError:
                expected = "an integer" if kind is int else "a finite positive number"
                raise UsageError(f"option {name}: {text!r} is not {expected}") from None
            options[name[2:].replace("-", "_")] = value
    if len(positional) != 1:
        raise UsageError("missing PROBLEM" if not positional
                         else f"unexpected argument {positional[1]!r}")
    options["problem"] = positional[0]
    return command, options


def _usage(command):
    """The usage lines of ``command``, or of every command if it names none."""
    lines = [
        f"cm {name} PROBLEM "
        + " ".join(f"[{opt} {OPTIONS[opt][0]}]" for opt in COMMANDS[name][1])
        for name in ([command] if command in COMMANDS else COMMANDS)
    ]
    lines.append(f"cm {command if command in COMMANDS else '[COMMAND]'} -h")
    return "usage: " + "\n       ".join(lines)


def _help(command):
    """``-h``: the usage, then the options of ``command`` (of every command
    if None) with their help."""
    parts = [_usage(command)]
    if command is None:
        parts.append(DESCRIPTION)
    for name in [command] if command else COMMANDS:
        what, opts = COMMANDS[name]
        rows = [("PROBLEM", "problem definition JSON file")] + [
            (f"{opt} {OPTIONS[opt][0]}", OPTIONS[opt][3]) for opt in opts]
        parts.append(f"cm {name}: {what}\n" + "\n".join(
            f"  {left:<17} {right}" for left, right in rows))
    return "\n\n".join(parts)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        command, args = _parse(argv)
    except UsageError as exc:
        print(f"error: {exc}\n{_usage(argv[0] if argv else None)}", file=sys.stderr)
        return 2
    if args is None:
        print(_help(command))
        return 0
    try:
        prob = load_problem(args["problem"])
        if command == "spectrum":
            data = _spectrum_data(prob, args["tol_root"])
        elif command == "reduce":
            order = args["order"] if args["order"] is not None else prob.order
            data = _reduce_data(prob, args["tol_root"], args["tol_solve"], order)
        else:
            data = _verify_data(prob, args["tol_root"], args["tol_solve"],
                                args["csv"] or prob.csv_path, args["seed"])
        _emit(canonical_json(data), args["out"] or prob.out_path)
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


# Everything imported so far lives as long as the process and holds no
# cyclic garbage: frozen, the collections inside ``main`` do not traverse
# it, and the interpreter's exit does not tear it down object by object.
gc.freeze()

if __name__ == "__main__":
    raise SystemExit(main())
