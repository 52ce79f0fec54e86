"""Problem-file ingestion and the ``cm`` command-line pipeline.

Oracle notes
------------
* saddle-node problem (a + b x) e^{-x^2} with a = -1/sqrt(pi): the axis
  spectrum is the simple root 0; at order 3 the reduced field is
  A' = alpha A^2 - kappa2 alpha^3 A^3 with alpha = -1 / int x K = 1 for
  b = -2/sqrt(pi) and kappa2 = int x^2 K = -1/2, so the cubic entry is 1/2.
* critical pair problem: double roots +-i, total dimension 4.
* comoving pitchfork: the resonant field entries carry 2 gamma0 = -4,
  2 alpha0 = -4, 2 beta0 = 4 (kernel second moment 1/2).
"""

import gc
import json
import math
import os
import re
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SQRT_PI, build_pair_jet, two_exponential_kernel
from reference import (
    array_profile, defect, kernel_to_data, quasi_to_data, trajectory_profile,
    whole_grid_pulse)

import cmnl
from cmnl import (
    cli, jet, kernel, nonlin, problem, projection, quasipoly, spectrum, tsolve,
    verify)
from cmnl.cli import canonical_json, main, write_profile_csv
from cmnl.kernel import ExponentialMixture
from cmnl.problem import ProblemError, load_problem, problem_from_data
from cmnl.projection import build_gram, build_pointwise, kernel_basis
from cmnl.spectrum import locate_roots


# ---------------------------------------------------------------------------
# problem builders

ROOT = Path(__file__).resolve().parents[1]
BENCH_PROBLEMS = runpy.run_path(str(ROOT / "bench" / "problems.py"))


def saddle_problem_data(b=-2.0 / SQRT_PI, order=3):
    return {
        "schema": 1,
        "name": "saddle-node",
        "kernels": {
            "K": {
                "family": "gaussian",
                "terms": [
                    {"c": 1.0, "a": 1.0, "poly": [-1.0 / SQRT_PI, b]}
                ],
            }
        },
        "kernel": "K",
        "nonlinearity": {
            "max_order": 3,
            "terms": [{"coeff": -1.0, "factors": [[None, 0], [None, 0]]}],
        },
        "order": order,
    }


def pair_problem_data():
    """The pair-o3 problem of the benchmark, with a two-value pulse sweep."""
    data = BENCH_PROBLEMS["pair_problem"](-1.0, 1.0 / 3.0, 3, verify=True)
    data["verify"]["lambdas"] = [1e-2, 1e-3]
    return data


def front_problem_data():
    """The comoving pitchfork of the benchmark at order 3."""
    return BENCH_PROBLEMS["front_problem"](3)


def write_problem(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def field_entry(report, powers, mu=None):
    """Field coefficient vector from a reduce report, as a complex array."""
    for entry in report["result"]["field"]:
        idx = entry["index"]
        if idx["powers"] == list(powers) and (
            mu is None or idx["mu"] == list(mu)
        ):
            return np.array([complex(re, im) for re, im in entry["coeff"]])
    raise AssertionError(f"field entry {powers}|{mu} not found")


# ---------------------------------------------------------------------------
# ingestion


class TestProblemParsing:
    def test_valid_problem_parses(self):
        prob = problem_from_data(pair_problem_data())
        assert prob.n == 1
        assert prob.kernel.n == 1
        assert prob.nonlinearity.nparams == 1
        assert prob.order == 3
        assert prob.verify_plan["wave"] == "homoclinic"
        assert prob.projection_flavor == "pointwise"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ProblemError, match="cannot read"):
            load_problem(str(tmp_path / "nope.json"))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ProblemError, match="malformed JSON"):
            load_problem(str(path))

    def test_wrong_schema_version(self):
        data = saddle_problem_data()
        data["schema"] = 2
        with pytest.raises(ProblemError, match="unsupported schema"):
            problem_from_data(data)

    def test_unknown_top_level_field(self):
        data = saddle_problem_data()
        data["kernell"] = "K"
        with pytest.raises(ProblemError, match="unknown fields.*kernell"):
            problem_from_data(data)

    def test_unknown_term_field(self):
        data = saddle_problem_data()
        data["nonlinearity"]["terms"][0]["coef"] = 1.0
        with pytest.raises(ProblemError, match="unknown fields.*coef"):
            problem_from_data(data)

    def test_missing_kernel_reference_in_term(self):
        data = pair_problem_data()
        data["nonlinearity"]["terms"][0]["outer"] = "missing"
        with pytest.raises(ProblemError, match="unknown kernel 'missing'"):
            problem_from_data(data)

    def test_missing_linear_kernel_name(self):
        data = saddle_problem_data()
        data["kernel"] = "Q"
        with pytest.raises(ProblemError, match="unknown kernel 'Q'"):
            problem_from_data(data)

    def test_kernel_dimension_mismatch(self):
        data = saddle_problem_data()
        data["n"] = 2
        with pytest.raises(ProblemError, match="dimension"):
            problem_from_data(data)

    def test_unknown_symmetry_rejected(self, tmp_path, capsys):
        # "symmetries" is accepted and ignored, but only with known names
        data = saddle_problem_data()
        data["nonlinearity"]["symmetries"] = ["sign", "rotation"]
        path = write_problem(tmp_path, data)
        with pytest.raises(ProblemError, match=r"symmetries.*'rotation'"):
            load_problem(path)
        assert main(["reduce", path]) == 2
        assert "rotation" in capsys.readouterr().err

    def test_complex_coefficient_pairs(self):
        data = saddle_problem_data()
        data["nonlinearity"]["terms"][0]["coeff"] = [0.0, -1.0]
        prob = problem_from_data(data)
        assert prob.nonlinearity.terms[0].coeff == -1.0j

    def test_boolean_is_not_a_number(self):
        data = saddle_problem_data()
        data["nonlinearity"]["terms"][0]["coeff"] = True
        with pytest.raises(ProblemError, match="must be a number"):
            problem_from_data(data)

    @pytest.mark.parametrize("pair", [False, True], ids=["scalar", "pair"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, True, "2"],
                             ids=["nan", "inf", "-inf", "huge", "bool", "string"])
    @pytest.mark.parametrize("field", ["a", "b", "c", "poly", "xi", "n", "coeff"])
    def test_numbers_are_finite(self, tmp_path, capsys, field, value, pair):
        # NaN rows once vanished from the jet, booleans and strings passed
        # as kernel numbers, and an integer beyond the float range ended in
        # a traceback; each number is a finite float, also in a pair
        data = saddle_problem_data()
        gauss = {"family": "gaussian",
                 "terms": [{"c": 1.0, "a": 1.0, "b": 0.0, "poly": [1.0, 0.5]}]}
        dirac = {"family": "dirac", "terms": [{"c": 1.0, "xi": 0.5}]}
        data["kernels"].update(G=gauss, D=dirac)
        value = [0.0, value] if pair else value
        if field == "n":
            gauss["n"], where = value, "kernel 'G'.n"
        elif field == "xi":
            dirac["terms"][0]["xi"], where = value, "kernel 'D'.terms[0].xi"
        elif field == "poly":
            gauss["terms"][0]["poly"][1] = value
            where = "kernel 'G'.terms[0].poly[1]"
        elif field == "coeff":
            data["nonlinearity"]["terms"][0]["coeff"] = value
            where = "'nonlinearity.terms[0]'.coeff"
        else:
            gauss["terms"][0][field], where = value, f"kernel 'G'.terms[0].{field}"
        with pytest.raises(ProblemError, match=re.escape(where)):
            problem_from_data(data)
        assert main(["reduce", write_problem(tmp_path, data)]) == 2
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, where", [
        ("n", True, "'n' must be"),
        ("kernel n", True, "kernel 'K'.n must be"),
        ("component", False, "factors[0] component must be"),
        ("target", False, "target must be"),
        ("mu_power", True, "mu_power must be"),
        ("mu_power entry", True, "mu_power entries must be"),
        ("order", True, "'order' must be"),
        ("max_order", True, "'nonlinearity.max_order' must be"),
    ])
    def test_boolean_is_not_an_integer(self, tmp_path, capsys, field, value, where):
        # "n": true was read as n = 1, a component or target of false as 0,
        # and cm spectrum exited 0
        data = saddle_problem_data()
        term = data["nonlinearity"]["terms"][0]
        if field == "n":
            data["n"] = value
        elif field == "kernel n":
            data["kernels"]["K"]["n"] = value
        elif field == "component":
            term["factors"][0][1] = value
        elif field in ("target", "mu_power"):
            term[field] = value
        elif field == "mu_power entry":
            term["mu_power"] = [value]
        elif field == "order":
            data["order"] = value
        else:
            data["nonlinearity"]["max_order"] = value
        with pytest.raises(ProblemError, match=re.escape(where)):
            problem_from_data(data)
        assert main(["spectrum", write_problem(tmp_path, data)]) == 2
        assert where in capsys.readouterr().err

    def test_parameter_free_linear_term_rejected(self):
        data = saddle_problem_data()
        data["nonlinearity"]["terms"][0]["factors"] = [[None, 0]]
        with pytest.raises(ProblemError, match="degree 2"):
            problem_from_data(data)

    def test_verify_plan_validation(self):
        data = pair_problem_data()
        data["verify"] = {"wave": "spiral"}
        with pytest.raises(ProblemError, match="homoclinic.*front"):
            problem_from_data(data)
        data["verify"] = {"wave": "homoclinic", "lambdas": []}
        with pytest.raises(ProblemError, match="lambdas"):
            problem_from_data(data)
        data["verify"] = {"wave": "front", "epsilon": 0.1}
        with pytest.raises(ProblemError, match="c_star"):
            problem_from_data(data)
        data["verify"] = {"wave": "front", "epsilon": 0.1, "c_star": 1.0,
                          "lambdas": [0.1]}
        with pytest.raises(ProblemError, match="does not apply"):
            problem_from_data(data)

    def test_verify_plan_numbers_are_positive_and_finite(self):
        # a string step_x once reached the shooting and failed there with a
        # TypeError traceback
        for key, value in (("step_x", "abc"), ("step_x", 0.0), ("start", -1e-7),
                           ("start", float("inf")), ("lambdas", [float("nan")])):
            data = pair_problem_data()
            data["verify"][key] = value
            with pytest.raises(ProblemError, match=f"verify.{key}"):
                problem_from_data(data)
        data = front_problem_data()
        data["verify"]["tol_reach"] = float("nan")
        with pytest.raises(ProblemError, match="verify.tol_reach"):
            problem_from_data(data)

    def test_verify_plan_keys_that_are_not_used(self):
        # tol_return was accepted and never passed on; step_x and start
        # were accepted on front plans and ignored there
        data = pair_problem_data()
        data["verify"]["tol_return"] = 1e-30
        with pytest.raises(ProblemError, match="unknown fields.*tol_return"):
            problem_from_data(data)
        for key in ("step_x", "start"):
            data = front_problem_data()
            data["verify"][key] = 0.5
            with pytest.raises(ProblemError, match=f"verify.{key}' does not apply"):
                problem_from_data(data)

    def test_projection_validation(self):
        data = saddle_problem_data()
        data["projection"] = {"flavor": "gram"}
        with pytest.raises(ProblemError, match="weight"):
            problem_from_data(data)
        data["projection"] = {"flavor": "pointwise", "weight": "gaussian"}
        with pytest.raises(ProblemError, match="gram flavor"):
            problem_from_data(data)
        data["projection"] = {"flavor": "gram", "weight": "gaussian"}
        assert problem_from_data(data).projection_weight == "gaussian"


# ---------------------------------------------------------------------------
# canonical serialization


class TestCanonicalJson:
    def test_sorted_keys_and_fixed_floats(self):
        text = canonical_json({"b": 0.1, "a": [1, 2.0, 1e-17]})
        assert text.index('"a"') < text.index('"b"')
        assert "0.10000000000000001" in text
        assert "1.0000000000000001e-17" in text

    def test_reparse_reserialize_is_byte_identical(self):
        data = {
            "x": [0.1, 0.2, 1.0 / 3.0, 1e300, 1e-300, -2.5, 0.0, -0.0],
            "n": 17,
            "s": "text",
            "flag": True,
            "none": None,
            "nested": {"z": [1.5, {"q": 2}], "a": 3.25},
        }
        text = canonical_json(data)
        assert canonical_json(json.loads(text)) == text

    def test_non_finite_raises(self):
        with pytest.raises(RuntimeError, match="non-finite"):
            canonical_json({"x": float("nan")})

    @pytest.mark.parametrize("shape", [(4,), (5, 1), (3, 3), (0, 2)])
    def test_complex_arrays_write_as_nested_pairs(self, shape):
        # an array leaf gives the bytes of its [re, im] lists
        rng = np.random.default_rng(5)
        arr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        arr *= 10.0 ** rng.integers(-300, 300, size=shape)
        if arr.size:
            arr.flat[0] = complex(-0.0, 5e-324)
            arr.flat[-1] = complex(-5e-324, -0.0)

        def pairs(a):
            if a.ndim > 1:
                return [pairs(row) for row in a]
            return [[float(z.real), float(z.imag)] for z in a]

        for wrap in (lambda v: v, lambda v: {"b": [1, {"a": v}], "c": 0.5}):
            assert canonical_json(wrap(arr)) == canonical_json(wrap(pairs(arr)))

    def test_jet_arrays_write_as_the_list_layout(self):
        # ``JetResult.to_data`` hands its coefficient blocks over as arrays
        _, J = build_pair_jet(order=5)
        data = J.to_data()
        lists = dict(data)
        lists["psi"] = [dict(e, psi=quasi_to_data(J.psi[idx]))
                        for e, idx in zip(data["psi"], J.indices())]
        lists["field"] = [
            dict(e, coeff=[[float(z.real), float(z.imag)] for z in J.field[idx]])
            for e, idx in zip(data["field"], J.field_indices())
        ]
        assert canonical_json(data) == canonical_json(lists)

    @pytest.mark.parametrize("bad", [complex("nan"), complex(0.0, float("inf")),
                                     complex(-float("inf"), 1.0)])
    def test_non_finite_array_raises(self, bad):
        with pytest.raises(RuntimeError, match="non-finite"):
            canonical_json({"x": np.array([1.0 + 1.0j, bad])})


    def test_percent_in_keys_and_strings(self):
        # the report is one %-template: a % of a key or string is doubled
        text = canonical_json({"a%d": "x%s 100%", "b": [0.5, -0.0, 3]})
        assert '"a%d": "x%s 100%"' in text
        assert canonical_json(json.loads(text)) == text

    @settings(max_examples=150)
    @given(data=st.data())
    def test_array_leaves_write_their_list_bytes_at_every_level(self, data):
        # psi and field entries hold their blocks as complex arrays; the
        # same entries with the arrays as [re, im] lists give the same bytes
        entries, level = data.draw(report_entries())
        arrays, lists = entries, [_as_lists(e) for e in entries]
        for _ in range(level):
            arrays, lists = {"r": [arrays]}, {"r": [lists]}
        assert canonical_json(arrays) == canonical_json(lists)

    @settings(max_examples=60)
    @given(data=st.data(), bad=st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_entry_leaf_raises(self, data, bad):
        entries, _ = data.draw(report_entries(allow_ints=False))
        leaves = [(e, k) for e in entries for k in _float_leaves(e)]
        if not leaves:
            return
        _, (where, key) = data.draw(st.sampled_from(leaves))
        where[key] = bad
        with pytest.raises(RuntimeError, match="non-finite"):
            canonical_json({"psi": entries})


LEAVES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1e300]),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def report_entries(draw, allow_ints=True):
    """(entries, nesting level): psi and field entries as ``JetResult.to_data``
    writes them, with random shapes, signed zeros, empty terms and, unless
    ``allow_ints`` is False, an int now and then where a float belongs."""
    with_ints = allow_ints and draw(st.integers(0, 3)) == 0
    leaf = st.one_of(LEAVES, st.integers(-3, 3)) if with_ints else LEAVES
    nparams, size = draw(st.integers(0, 2)), draw(st.integers(0, 4))
    n = draw(st.integers(1, 2))

    def array(shape):
        count = int(np.prod(shape)) * 2
        values = draw(st.lists(LEAVES, min_size=count, max_size=count))
        return np.array(values).view(complex).reshape(shape)

    def index():
        ints = st.lists(st.integers(0, 2**40), min_size=nparams, max_size=nparams)
        powers = st.lists(st.integers(0, 6), min_size=size, max_size=size)
        return {"mu": draw(ints), "powers": draw(powers)}

    entries = []
    kinds = st.lists(st.sampled_from(["psi", "field"]), min_size=1, max_size=4)
    for kind in draw(kinds):
        if kind == "field":
            entries.append({"coeff": array((size,)), "index": index()})
            continue
        terms = [{"nu": [draw(leaf), draw(leaf)],
                  "poly": array((draw(st.integers(0, 3)), n))}
                 for _ in range(draw(st.integers(0, 3)))]
        entries.append({"index": index(), "psi": {"n": n, "terms": terms},
                        "residual": draw(leaf)})
    return entries, draw(st.integers(0, 3))


def _as_lists(entry):
    """An entry with its complex arrays as nested ``[re, im]`` lists."""
    if isinstance(entry, np.ndarray):
        return entry.view(float).reshape(entry.shape + (2,)).tolist()
    if isinstance(entry, dict):
        return {k: _as_lists(v) for k, v in entry.items()}
    if isinstance(entry, list):
        return [_as_lists(v) for v in entry]
    return entry


def _float_leaves(entry):
    """(container, key) of every float leaf of an entry; a complex array
    is a flat float view of its real and imaginary parts."""
    def parts(a):
        flat = a.view(float).reshape(-1)
        return [(flat, k) for k in range(flat.size)]

    if "coeff" in entry:
        return parts(entry["coeff"])
    out = [(entry, "residual")]
    for term in entry["psi"]["terms"]:
        out += [(term["nu"], 0), (term["nu"], 1)] + parts(term["poly"])
    return out


# ---------------------------------------------------------------------------
# commands


def run_reduce(tmp_path, data, extra=()):
    path = write_problem(tmp_path, data)
    out = tmp_path / "report.json"
    code = main(["reduce", path, "--out", str(out), *extra])
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    return code, text


class TestSpectrumCommand:
    def test_simple_zero_spectrum(self, tmp_path):
        path = write_problem(tmp_path, saddle_problem_data())
        out = tmp_path / "spec.json"
        assert main(["spectrum", path, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["command"] == "spectrum"
        assert data["dimension"] == 1
        (root,) = data["roots"]
        assert root["multiplicity"] == 1
        assert abs(complex(root["nu"][0], root["nu"][1])) < 1e-9

    def test_critical_pair_spectrum(self, tmp_path):
        path = write_problem(tmp_path, pair_problem_data())
        out = tmp_path / "spec.json"
        assert main(["spectrum", path, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["dimension"] == 4
        assert [r["multiplicity"] for r in data["roots"]] == [2, 2]
        values = sorted(complex(*r["nu"]).imag for r in data["roots"])
        assert abs(values[0] + 1.0) < 1e-7
        assert abs(values[1] - 1.0) < 1e-7

    def test_two_exponential_spectrum(self, tmp_path):
        # the isolating circles once left the strip of this kernel, and the
        # transform's strip check surfaced as an input error (exit 2)
        data = saddle_problem_data()
        data["kernels"]["K"] = kernel_to_data(two_exponential_kernel())
        path = write_problem(tmp_path, data)
        out = tmp_path / "spec.json"
        assert main(["spectrum", path, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["strip"] == pytest.approx(0.9)
        assert [r["multiplicity"] for r in data["roots"]] == [1, 1, 1, 1]
        values = [complex(*r["nu"]).imag for r in data["roots"]]
        assert np.allclose(values, [-0.7, -0.3, 0.3, 0.7], atol=1e-9)

    def test_spectrum_diagnostics(self, tmp_path):
        # a real root pair +-0.905 inside the first strip: the report records
        # the shrink, the excluded roots as [re, im] pairs and every final box
        data = saddle_problem_data()
        data["kernels"]["K"] = kernel_to_data(
            ExponentialMixture([((0.905**2 - 1) / 2, 1.0, 0.0)]))
        path = write_problem(tmp_path, data)
        texts = []
        for name in ("a.json", "b.json"):
            assert main(["spectrum", path, "--out", str(tmp_path / name)]) == 0
            texts.append((tmp_path / name).read_text(encoding="utf-8"))
        assert texts[0] == texts[1]
        report = json.loads(texts[0])
        assert report["roots"] == []
        diag = report["diagnostics"]
        assert set(diag) == {
            "boxes", "decay_checks", "excluded_offaxis", "strip_shrinks",
            "unconfirmed_clusters",
        }
        assert diag["strip_shrinks"] == 1
        assert diag["unconfirmed_clusters"] == []
        assert np.allclose(sorted(diag["excluded_offaxis"]), [[-0.905, 0.0], [0.905, 0.0]], atol=1e-8)
        assert set(diag["decay_checks"]) == {"tail_sup_edge_+1", "tail_sup_edge_-1"}
        assert diag["boxes"] == []  # the shrunk strip holds no root
        path = write_problem(tmp_path, saddle_problem_data())
        assert main(["spectrum", path, "--out", str(tmp_path / "c.json")]) == 0
        (box,) = json.loads((tmp_path / "c.json").read_text())["diagnostics"]["boxes"]
        assert set(box) == {"count", "gap", "im", "panels", "rank"}
        assert box["count"] == box["rank"] == 1 and box["panels"] > 0
        assert box["im"][0] < 0.0 < box["im"][1]

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        assert main(["spectrum", str(path)]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_stdout_default(self, tmp_path, capsys):
        path = write_problem(tmp_path, saddle_problem_data())
        assert main(["spectrum", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dimension"] == 1

    def test_percent_in_the_problem_name(self, tmp_path, capsys):
        data = saddle_problem_data()
        data["name"] = "100% %s %d %%"
        assert main(["spectrum", write_problem(tmp_path, data)]) == 0
        text = capsys.readouterr().out
        assert json.loads(text)["problem"] == "100% %s %d %%"
        assert canonical_json(json.loads(text)) == text


class TestReduceCommand:
    def test_saddle_node_field_coefficients(self, tmp_path):
        code, text = run_reduce(tmp_path, saddle_problem_data())
        assert code == 0
        report = json.loads(text)
        quad = field_entry(report, [2])
        cub = field_entry(report, [3])
        assert abs(quad[0] - 1.0) < 1e-8
        assert abs(cub[0] - 0.5) < 1e-8

    def test_generic_slope_scales_the_field(self, tmp_path):
        # alpha = -1 / int x K depends on the odd part of the kernel
        b = -4.0 / SQRT_PI  # int x K = -2, alpha = 1/2
        code, text = run_reduce(tmp_path, saddle_problem_data(b=b))
        assert code == 0
        report = json.loads(text)
        assert abs(field_entry(report, [2])[0] - 0.5) < 1e-8
        assert abs(field_entry(report, [3])[0] - 0.0625) < 1e-8

    def test_order_one_is_an_input_error(self, tmp_path, capsys):
        code, _ = run_reduce(tmp_path, saddle_problem_data(),
                             extra=["--order", "1"])
        assert code == 2
        assert "minimum order 2" in capsys.readouterr().err
        code, _ = run_reduce(tmp_path, saddle_problem_data(order=4))
        assert code == 2
        assert "exceeds" in capsys.readouterr().err

    def test_front_problem_emits_wave_coefficients(self, tmp_path):
        code, text = run_reduce(tmp_path, front_problem_data())
        assert code == 0
        report = json.loads(text)
        assert abs(field_entry(report, [0, 1], [0, 1])[1] + 4.0) < 1e-7
        assert abs(field_entry(report, [1, 0], [1, 0])[1] + 4.0) < 1e-7
        assert abs(field_entry(report, [3, 0], [0, 0])[1] - 4.0) < 1e-7

    def test_output_is_byte_stable(self, tmp_path):
        code, text = run_reduce(tmp_path, pair_problem_data())
        assert code == 0
        assert canonical_json(json.loads(text)) == text
        code2, text2 = run_reduce(tmp_path, pair_problem_data())
        assert text2 == text

    def test_order_five_report_reparses_byte_identical(self, tmp_path):
        data = pair_problem_data()
        data["order"] = 5
        code, text = run_reduce(tmp_path, data)
        assert code == 0
        assert canonical_json(json.loads(text)) == text

    def test_order_nine_pair_fails_the_solve_tolerance(self, tmp_path, capsys):
        # the trimmed solutions at +-7i are shorter than their right-hand
        # sides; their residuals used to end in a broadcasting traceback
        data = pair_problem_data()
        data["order"] = data["nonlinearity"]["max_order"] = 9
        code, _ = run_reduce(tmp_path, data)
        assert code == 1
        assert "bordered-solve residuals exceed tol-solve" in capsys.readouterr().err

    def test_complex_coefficient_pair_passes_the_solve_tolerance(self, tmp_path):
        # a complex cubic coefficient: no conjugate symmetry, every index is
        # solved, and every residual passes the gate
        data = pair_problem_data()
        data["order"] = 5
        cubic = data["nonlinearity"]["terms"][1]
        cubic["coeff"] = [cubic["coeff"], 0.25 * cubic["coeff"]]
        code, text = run_reduce(tmp_path, data, extra=["--tol-solve", "1e-7"])
        assert code == 0
        psi = json.loads(text)["result"]["psi"]
        assert len(psi) == 132
        assert max(e["residual"] for e in psi) <= 1e-7

    def test_tiny_solve_tolerance_fails_numerically(self, tmp_path, capsys):
        code, _ = run_reduce(tmp_path, pair_problem_data(),
                             extra=["--tol-solve", "1e-300"])
        assert code == 1
        assert "tol-solve" in capsys.readouterr().err

    def test_gram_projection_reaches_the_same_quadratic(self, tmp_path):
        data = saddle_problem_data()
        data["projection"] = {"flavor": "gram", "weight": "gaussian"}
        code, text = run_reduce(tmp_path, data)
        assert code == 0
        assert abs(field_entry(json.loads(text), [2])[0] - 1.0) < 1e-6

    @pytest.mark.parametrize("flavor", ["pointwise", "gram"])
    def test_report_carries_the_condition_numbers(self, tmp_path, flavor):
        data = pair_problem_data()
        if flavor == "gram":
            data["projection"] = {"flavor": "gram", "weight": "gaussian"}
        code, text = run_reduce(tmp_path, data)
        assert code == 0
        report = json.loads(text)
        K = problem_from_data(data).kernel
        basis = kernel_basis(K, locate_roots(K))
        P = build_gram(basis) if flavor == "gram" else build_pointwise(basis)
        assert report["basis_condition"] == pytest.approx(basis.condition, rel=1e-12)
        assert report["projection"]["condition"] == pytest.approx(
            np.linalg.cond(P.gram), rel=1e-12)
        assert report["basis_condition"] >= 1.0
        assert report["projection"]["condition"] >= 1.0


class TestVerifyCommand:
    def test_pulse_sweep_report_and_csv(self, tmp_path):
        path = write_problem(tmp_path, pair_problem_data())
        out = tmp_path / "report.json"
        csv_dir = tmp_path / "csv"
        code = main(["verify", path, "--out", str(out), "--csv", str(csv_dir)])
        assert code == 0
        data = json.loads(out.read_text())
        rep = data["report"]
        assert rep["type"] == "homoclinic"
        assert rep["slope"] >= 1.5
        assert abs(rep["details"]["amplitude_ratio"] - 2.0 * math.sqrt(2)) < 0.1
        files = sorted(p.name for p in csv_dir.iterdir())
        assert files == ["homoclinic_0.001.csv", "homoclinic_0.01.csv"]
        raw = (csv_dir / files[1]).read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "x,re_u,im_u,residual"
        assert len(lines) > 1000
        assert canonical_json(json.loads(out.read_text())) == out.read_text()

    def test_front_monotone_flag(self, tmp_path):
        path = write_problem(tmp_path, front_problem_data())
        out = tmp_path / "front.json"
        csv_dir = tmp_path / "csv"
        code = main(["verify", path, "--out", str(out), "--csv", str(csv_dir)])
        assert code == 0
        rep = json.loads(out.read_text())["report"]
        assert rep["type"] == "front"
        assert rep["monotone"] is True
        assert rep["details"]["reach_distance"] <= 1e-4
        (csv_file,) = csv_dir.iterdir()
        assert csv_file.name == "front_0.01.csv"
        assert csv_file.read_text().splitlines()[0] == "x,re_u,im_u,residual"

    def test_plan_defaults_are_the_documented_values(self, tmp_path):
        # a pulse plan without step_x and start runs at the values the
        # README documents, 0.1 and 1e-7
        reports = []
        for extra in ({}, {"step_x": 0.1, "start": 1e-7}):
            data = pair_problem_data()
            data["verify"].update(extra)
            out = tmp_path / f"r{len(reports)}.json"
            assert main(["verify", write_problem(tmp_path, data),
                         "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_csv_rows_are_the_whole_grid_oracles(self, tmp_path):
        # the pulse and front CSV rows, streamed block by block, are the x,
        # u and |defect| of whole-grid profiles and defects, bit for bit
        for data in (pair_problem_data(), front_problem_data()):
            plan = data["verify"]
            csv_dir = tmp_path / plan["wave"]
            path = write_problem(tmp_path, data)
            assert main(["verify", path, "--out", str(tmp_path / "r.json"),
                         "--csv", str(csv_dir)]) == 0
            prob = load_problem(path)
            _, _, J = cli._build_reduction(prob, 1e-9, 1e-7, prob.order)
            if plan["wave"] == "homoclinic":
                orbit = verify._pulse_orbit(J, 1e-7)
                waves = [(lam, whole_grid_pulse(J, orbit, lam), (lam,))
                         for lam in plan["lambdas"]]
            else:
                eps, c = plan["epsilon"], plan["c_star"]
                ys = verify.front_profile(J, eps, c)[1].trajectory
                mu = (eps**2, eps * c)
                coords = np.stack([eps * ys.ys[:, 0], eps**2 * ys.ys[:, 1]], axis=1)
                waves = [(eps, trajectory_profile(
                    J, verify.Trajectory(ys.xs / eps, coords), mu), mu)]
            assert len(list(csv_dir.iterdir())) == len(waves)
            for tag, prof, mu in waves:
                name = f"{plan['wave']}_{tag:.17g}.csv"
                table = np.loadtxt(csv_dir / name, delimiter=",", skiprows=1)
                r = defect(prob.kernel, J.nonlinearity, prof.xs, prof.values, mu)
                assert len(table) == len(prof.xs) > 1000
                assert np.array_equal(table[:, 0], prof.xs)
                assert np.array_equal(table[:, 1] + 1j * table[:, 2],
                                      prof.values[:, 0])
                assert np.array_equal(table[:, 3], np.abs(r).max(axis=1))

    def test_missing_kernel_reference_exits_2(self, tmp_path, capsys):
        data = pair_problem_data()
        data["nonlinearity"]["terms"][1]["outer"] = "ghost"
        path = write_problem(tmp_path, data)
        assert main(["verify", path]) == 2
        assert "unknown kernel 'ghost'" in capsys.readouterr().err

    def test_problem_without_plan_exits_2(self, tmp_path, capsys):
        path = write_problem(tmp_path, saddle_problem_data())
        assert main(["verify", path]) == 2
        assert "verify" in capsys.readouterr().err

    def test_bad_plan_number_exits_2(self, tmp_path, capsys):
        data = pair_problem_data()
        data["verify"]["step_x"] = "abc"
        assert main(["verify", write_problem(tmp_path, data)]) == 2
        assert "verify.step_x" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["pulse-on-front", "front-on-pair",
                                      "pulse-with-two-parameters"])
    def test_plan_the_reduction_does_not_fit_exits_1(self, tmp_path, capsys, case):
        # the wave driver refuses the reduction: a numerical failure.  A
        # second parameter once ended in scale_field's ValueError.
        if case == "pulse-on-front":
            data = front_problem_data()
            data["verify"] = {"wave": "homoclinic", "lambdas": [1e-2]}
        elif case == "front-on-pair":
            data = pair_problem_data()
            data["verify"] = {"wave": "front", "epsilon": 1e-2, "c_star": 1.1}
        else:
            data = pair_problem_data()
            data["nonlinearity"]["terms"][0]["mu_power"] = [1, 1]
        message = "front extraction" if case == "front-on-pair" else "pulse driver"
        assert main(["verify", write_problem(tmp_path, data)]) == 1
        assert f"{message} expects" in capsys.readouterr().err

    def test_two_sample_front_exits_1(self, tmp_path, capsys):
        # with tol_reach = 1 the shot stops after one step, and the residual
        # grid once failed with an IndexError on the one-point coarse grid
        data = front_problem_data()
        data["verify"]["tol_reach"] = 1.0
        assert main(["verify", write_problem(tmp_path, data)]) == 1
        assert "grid too narrow" in capsys.readouterr().err

    def test_start_beyond_the_pulse_peak_exits_1(self, tmp_path, capsys):
        # the pulse's half orbit rises from amplitude `start` to its peak
        # P = sqrt(2) and cannot start above it
        data = pair_problem_data()
        data["verify"]["start"] = 5
        assert main(["verify", write_problem(tmp_path, data)]) == 1
        err = capsys.readouterr().err
        assert "numerical failure: verify.start = 5" in err
        assert "P = 1.41421" in err

    def test_repeated_lambda_exits_2(self, tmp_path, capsys):
        # a repeated lambda once ran the whole sweep, warned of a division by
        # zero in the log-log slope, and exited 1 on a non-finite report
        data = pair_problem_data()
        data["verify"]["lambdas"] = [1e-2, 1e-2]
        with pytest.raises(ProblemError, match="must not repeat"):
            problem_from_data(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["verify", write_problem(tmp_path, data)]) == 2
        assert "'verify.lambdas' must not repeat a value" in capsys.readouterr().err

    def test_linear_algebra_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr("cmnl.cli.locate_roots", singular)
        assert main(["spectrum", write_problem(tmp_path, saddle_problem_data())]) == 1
        assert "numerical failure: Singular matrix" in capsys.readouterr().err


def run_cm(*argv):
    """``python -m cmnl.cli argv`` in a child process."""
    return subprocess.run([sys.executable, "-m", "cmnl.cli", *argv],
                          capture_output=True, text=True, env=package_env())


class TestOutputPaths:
    """An output that cannot be written, from the command line or the
    problem file, is an input error: exit 2 with ``error: cannot write
    PATH: ...`` and no traceback (once a ``FileNotFoundError`` traceback and
    exit 1)."""

    def test_report_file_below_a_missing_directory(self, tmp_path):
        out = tmp_path / "missing" / "r.json"
        data = saddle_problem_data()
        for flags, file_data in ((["--out", str(out)], data),
                                 ([], dict(data, out=str(out)))):
            proc = run_cm("spectrum", write_problem(tmp_path, file_data), *flags)
            assert proc.returncode == 2
            assert proc.stderr.startswith(f"error: cannot write {out}: ")
            assert "Traceback" not in proc.stderr and proc.stdout == ""

    def test_csv_directory_below_a_regular_file(self, tmp_path, capsys, monkeypatch):
        # the directory is made before the reduction, which never runs
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        csv_dir = blocker / "csv"
        data = pair_problem_data()
        runs = ((["--csv", str(csv_dir)], data), ([], dict(data, csv=str(csv_dir))))
        for flags, file_data in runs:
            proc = run_cm("verify", write_problem(tmp_path, file_data), *flags)
            assert proc.returncode == 2
            assert proc.stderr.startswith(f"error: cannot write {csv_dir}: ")
            assert "Traceback" not in proc.stderr and proc.stdout == ""

        def reduction(*args, **kwargs):
            raise AssertionError("the reduction ran")

        monkeypatch.setattr("cmnl.cli.locate_roots", reduction)
        for flags, file_data in runs:
            assert main(["verify", write_problem(tmp_path, file_data), *flags]) == 2
            assert capsys.readouterr().err.startswith(f"error: cannot write {csv_dir}: ")

    def test_csv_file_that_cannot_be_written(self, tmp_path):
        # a directory where the first profile's file goes
        csv_dir = tmp_path / "csv"
        target = csv_dir / "homoclinic_0.01.csv"
        target.mkdir(parents=True)
        proc = run_cm("verify", write_problem(tmp_path, pair_problem_data()),
                      "--csv", str(csv_dir))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in proc.stderr and proc.stdout == ""


class TestArguments:
    @pytest.mark.parametrize("argv, named", [
        ([], "no command"),
        (["simplify", "P"], "'simplify'"),
        (["reduce"], "PROBLEM"),
        (["reduce", "P", "Q"], "'Q'"),
        (["reduce", "P", "--bogus", "1"], "--bogus"),
        (["spectrum", "P", "--order", "3"], "--order"),
        (["verify", "P", "--order=3"], "--order"),
        (["reduce", "P", "--tol-sol", "1e-7"], "--tol-sol"),  # no prefixes
        (["reduce", "P", "--order"], "--order"),
        (["reduce", "P", "--order", "x"], "--order"),
        (["reduce", "P", "--order", "3.0"], "--order"),
        (["verify", "P", "--seed", "1.5"], "--seed"),
        (["reduce", "P", "--tol-solve", "nan"], "--tol-solve"),
        (["reduce", "P", "--tol-solve", "-1"], "--tol-solve"),
        (["verify", "P", "--tol-solve=0"], "--tol-solve"),
        (["spectrum", "P", "--tol-root", "nan"], "--tol-root"),
        (["spectrum", "P", "--tol-root", "-1"], "--tol-root"),
        (["spectrum", "P", "--tol-root=inf"], "--tol-root"),
        (["spectrum", "P", "--tol-root", "1e-9x"], "--tol-root"),
    ])
    def test_usage_errors_exit_2(self, tmp_path, capsys, argv, named):
        path = write_problem(tmp_path, saddle_problem_data())
        assert main([path if a == "P" else a for a in argv]) == 2
        captured = capsys.readouterr()
        first, *usage = captured.err.splitlines()
        assert first.startswith("error: ") and named in first
        assert usage[0].startswith("usage: cm ")
        assert captured.out == ""  # no report

    def test_help_lists_every_command_and_option(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["cm", "--help"])
        assert main() == 0  # reads sys.argv[1:]
        out = capsys.readouterr().out
        for text in ("cm spectrum", "cm reduce", "cm verify", "--out", "--tol-root",
                     "(default 1e-9)", "--tol-solve", "(default 1e-7)", "--order",
                     "--csv", "--seed", "PROBLEM"):
            assert text in out
        assert main(["-h"]) == 0
        assert capsys.readouterr().out == out

    def test_command_help_lists_its_options(self, capsys):
        assert main(["reduce", "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: cm reduce PROBLEM")
        for option in ("--out", "--tol-root", "--tol-solve", "--order"):
            assert option in out
        assert "--csv" not in out and "--seed" not in out and "cm verify" not in out
        # help is printed before the problem file is read
        assert main(["spectrum", "missing.json", "-h"]) == 0
        assert "--tol-root" in capsys.readouterr().out

    def test_equals_form_and_option_order(self, tmp_path):
        path = write_problem(tmp_path, saddle_problem_data(order=2))
        first, second, third = (tmp_path / f"{k}.json" for k in "abc")
        assert main(["reduce", path, "--out", str(first), "--order", "3"]) == 0
        assert main(["reduce", f"--out={second}", "--order=3", path]) == 0
        assert main(["reduce", "--order", "3", "--out", str(third), "--", path]) == 0
        assert first.read_bytes() == second.read_bytes() == third.read_bytes()
        assert '"order": 3' in first.read_text(encoding="utf-8")


def package_env():
    """This environment with the tested ``cmnl`` importable in a child
    process, also when only pytest's ``pythonpath`` setting found it."""
    src = str(Path(cmnl.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestCommandLineEntry:
    def test_module_invocation_reports_input_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "cmnl.cli", "spectrum", str(path)],
            capture_output=True,
            text=True,
            env=package_env(),
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_cli_import_loads_no_scipy(self):
        # the runtime needs numpy only; scipy is a test dependency
        code = (
            "import sys, cmnl.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=package_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_the_frozen_import_graph_holds_no_garbage(self):
        # importing cmnl.cli freezes what it imported; cyclic garbage left
        # by an import would be frozen too, and kept for the whole process
        code = (
            "import gc, json\n"
            "gc.collect()\n"
            "import cmnl.cli\n"
            "frozen, found = gc.get_freeze_count(), gc.collect()\n"
            "gc.unfreeze()\n"
            "gc.set_debug(gc.DEBUG_SAVEALL)\n"
            "kept = gc.collect()\n"
            "kinds = sorted({type(o).__name__ for o in gc.garbage})\n"
            "print(json.dumps([frozen, found, kept, kinds]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=package_env(),
        )
        assert proc.returncode == 0, proc.stderr
        frozen, found, kept, kinds = json.loads(proc.stdout)
        assert frozen > 0
        assert found == 0
        assert kept == 0, (
            f"importing cmnl.cli leaves {kept} unreachable objects, which "
            f"gc.freeze() keeps alive: {', '.join(kinds[:20])}")

    def test_reduce_and_verify_leave_no_garbage(self, tmp_path):
        # a cycle keeps what it reaches alive until a collection: the jet's
        # slot walk and the reconstruction's monomial plan, closures that
        # called themselves, left one per call: 416 unreachable objects,
        # the jet's pieces among them, on reduce pair-o5, 236 on verify pair-o3
        problems = BENCH_PROBLEMS["build"](1)
        runs = [["reduce", write_problem(tmp_path, problems["pair-o5.json"])],
                ["verify", write_problem(tmp_path, problems["pair-o3.json"])]]
        for argv in runs:
            gc.collect()
            gc.disable()
            try:
                assert main([*argv, "--out", str(tmp_path / "r.json")]) == 0
                found = gc.collect()
            finally:
                gc.enable()
            assert found == 0, argv[0]

    def test_commands_load_no_argparse_or_numpy_polynomial(self, tmp_path):
        # every cm process would pay for these imports before its work
        path = write_problem(tmp_path, saddle_problem_data())
        code = (
            "import sys; from cmnl.cli import main\n"
            "for command in ('spectrum', 'reduce'):\n"
            f"    assert main([command, {path!r}, '--out', {str(tmp_path / 'r.json')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m in "
            "('argparse', 'gettext', 'locale', 'numpy.polynomial')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=package_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_tracer_runs_reduce(self, tmp_path):
        # bench/tracer.py wraps functions of the package by name; a refactor
        # that drops one makes it fail with AttributeError
        tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
        path = write_problem(tmp_path, saddle_problem_data())
        trace = tmp_path / "trace.json"
        proc = subprocess.run(
            [sys.executable, str(tracer), str(trace), "reduce", str(path)],
            capture_output=True, text=True, env=package_env(),
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(trace.read_text(encoding="utf-8"))
        assert summary["exit_code"] == 0
        assert summary["seconds"]["jet.compute"] > 0

    def test_tracer_runs_verify(self, tmp_path):
        # the tracer's verify layers see the calls of a front and of a pulse
        # sweep, reconstruct's among them
        tracer = ROOT / "bench" / "tracer.py"
        for data in (front_problem_data(), pair_problem_data()):
            trace = tmp_path / "trace.json"
            proc = subprocess.run(
                [sys.executable, str(tracer), str(trace), "verify",
                 write_problem(tmp_path, data), "--out", str(tmp_path / "r.json")],
                capture_output=True, text=True, env=package_env(),
            )
            assert proc.returncode == 0, proc.stderr
            summary = json.loads(trace.read_text(encoding="utf-8"))
            assert summary["exit_code"] == 0
            for layer in ("verify.reconstruct", "verify.residual", "verify.shoot"):
                assert summary["calls"].get(layer, 0) > 0, (data["verify"], layer)

    def test_library_keeps_only_what_cm_runs(self, tmp_path):
        # every function of the pipeline's modules runs in the seed-1 bench
        # commands, or is a body the tracer pins or a helper such a body
        # calls, or is listed with the path that runs it
        problems = ROOT / "bench" / "problems.py"
        paths = runpy.run_path(str(problems))["write"](1, str(tmp_path))
        ran = set()

        def profile(frame, event, arg):
            if event == "call":
                ran.add(frame.f_code)

        # a silent nan of numpy (a RuntimeWarning) fails the run, too
        sys.setprofile(profile)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                for path in paths.values():
                    plan = '"verify"' in Path(path).read_text(encoding="utf-8")
                    for command in ("spectrum", "reduce", "verify")[: 2 + plan]:
                        assert main([command, path, "--out", str(tmp_path / "r.json")]) == 0
        finally:
            sys.setprofile(None)
        pinned = {
            "jet.apply_term", "tsolve.BorderedProblem.__init__", "jet.solve",
            "jet._Rows.nearest",  # jet.solve and jet.apply_term
            # the front shot inlines its stages; the tracer counts its calls
            "verify.rk4_step",
            "verify._uniform_spacing",  # grid_convolve without a spacing
            # paths that the seed-1 problems do not take
            "cli.write_profile_csv",  # --csv
            "verify.defect_rows",  # --csv
            "cli._usage",  # a usage error, or -h
            "cli._help",  # -h
            "projection._Functional.rows",  # abstract: every functional overrides it
            "projection._greedy_select",  # an ill-conditioned pointwise jet matrix
            "projection.sech_weight_moments",  # the sech weight of a gram projection
            "spectrum._axis_root",  # a double root found just off the axis
            "spectrum._clear_cut",  # a box that is cut
            "verify._interp_shifted",  # Dirac kernels on the verify grid
            # abstract: every family overrides them
            "kernel.Kernel.transform_batch", "kernel.Kernel.eta0",
            "kernel.Kernel.eval_x", "kernel.Kernel.decay_radius",
            # the tracer wraps transform on every family; the pipeline
            # evaluates transform_batch
            "kernel.Kernel.transform",
            "kernel.convolve",  # the tracer wraps it; apply_T calls it
            "kernel.apply_T",  # the tracer wraps it; the tests' oracle calls it
            "kernel.GaussianMixture.single",  # library-only: the README example
            # an exponential kernel with a verify plan
            "kernel.ExponentialMixture.eval_x", "kernel.ExponentialMixture.decay_radius",
            # the dirac family of the schema
            "kernel.DiracMixture.__init__", "kernel.DiracMixture.transform_batch",
            "kernel.DiracMixture.eta0", "kernel.DiracMixture.eval_x",
            "kernel.DiracMixture.point_masses", "kernel.DiracMixture.decay_radius",
            # library-only: no problem file can build a symbol kernel
            "kernel.SymbolKernel.__init__", "kernel.SymbolKernel.transform_batch",
            "kernel.SymbolKernel.eta0",
        }
        defined = {}
        for mod in (quasipoly, nonlin, tsolve, jet, problem, cli, spectrum,
                    projection, verify, kernel):
            short = mod.__name__.split(".")[-1]
            for name, obj in vars(mod).items():
                members = vars(obj).items() if isinstance(obj, type) else [("", obj)]
                for attr, fn in members:
                    fn = getattr(fn, "fget", None) or getattr(fn, "__func__", fn)
                    code = getattr(fn, "__code__", None)
                    if code is not None and code.co_filename == mod.__file__:
                        defined[".".join(filter(None, (short, name, attr)))] = code
        assert pinned <= defined.keys()
        assert {name for name, code in defined.items() if code not in ran} == pinned

    def test_readme_library_example_runs(self, capsys):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        (example,) = re.findall(r"```python\n(.*?)```", readme, re.S)
        names = {}
        exec(example, names)
        fld = names["J"].field
        assert fld[jet.JetIndex((2,), ())] == pytest.approx([1.0])
        assert fld[jet.JetIndex((3,), ())] == pytest.approx([0.5])
        assert len(capsys.readouterr().out.splitlines()) == len(fld) == 3


class TestCsvWriter:
    def test_vector_profile_columns(self, tmp_path):
        from cmnl.kernel import GaussianMixture
        from cmnl.nonlin import NonlinearitySpec

        xs = np.arange(-2, 3) * 1.0
        values = np.stack([xs + 1j, -xs], axis=1)
        prof = array_profile(xs, values)
        K = GaussianMixture.single(np.eye(2), 1.0, n=2)
        path = tmp_path / "p.csv"
        write_profile_csv(str(path), K, NonlinearitySpec((), 2), prof)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,re_u0,im_u0,re_u1,im_u1,residual"
        assert len(lines) == 6
