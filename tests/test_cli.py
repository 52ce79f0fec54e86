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

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    SQRT_PI,
    build_pair_jet,
    critical_pair_kernel,
    quasi_to_data,
    two_exponential_kernel,
)

import cmnl
from cmnl.cli import canonical_json, main, write_profile_csv
from cmnl.kernel import ExponentialMixture, GaussianMixture
from cmnl.problem import ProblemError, load_problem, problem_from_data


# ---------------------------------------------------------------------------
# problem builders


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


def pair_problem_data(lambdas=(1e-2, 1e-3)):
    return {
        "schema": 1,
        "name": "critical-pair",
        "kernels": {"K": critical_pair_kernel().to_data()},
        "kernel": "K",
        "nonlinearity": {
            "max_order": 5,
            "symmetries": ["reflection", "sign"],
            "terms": [
                {
                    "coeff": -1.0,
                    "factors": [[None, 0]],
                    "mu_power": [1],
                    "outer": "K",
                },
                {
                    "coeff": 1.0 / 3.0,
                    "factors": [[None, 0], [None, 0], [None, 0]],
                    "outer": "K",
                },
            ],
        },
        "order": 3,
        "verify": {"wave": "homoclinic", "lambdas": list(lambdas)},
    }


def front_problem_data(epsilon=1e-2, c_star=1.1):
    G = GaussianMixture.single(1.0 / SQRT_PI, 1.0)
    Gp = G.differentiate()
    return {
        "schema": 1,
        "name": "comoving-pitchfork",
        "kernels": {
            "K": G.scale(-1.0).to_data(),
            "G": G.to_data(),
            "Gp": Gp.to_data(),
            "Gpp": Gp.differentiate().to_data(),
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
                {"coeff": 1.0, "factors": [[None, 0], [None, 0], [None, 0]],
                 "outer": "G"},
            ],
        },
        "order": 3,
        "verify": {"wave": "front", "epsilon": epsilon, "c_star": c_star},
    }


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
        data["kernels"]["K"] = two_exponential_kernel().to_data()
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
        data["kernels"]["K"] = ExponentialMixture([((0.905**2 - 1) / 2, 1.0, 0.0)]).to_data()
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

    def test_linear_algebra_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr("cmnl.cli.locate_roots", singular)
        assert main(["spectrum", write_problem(tmp_path, saddle_problem_data())]) == 1
        assert "numerical failure: Singular matrix" in capsys.readouterr().err


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


class TestCsvWriter:
    def test_vector_profile_columns(self, tmp_path):
        from cmnl.verify import GridProfile, ResidualReport

        xs = np.arange(-2, 3) * 1.0
        values = np.stack([xs + 1j, -xs], axis=1)
        prof = GridProfile(xs, values)
        rep = ResidualReport(0.0, 0.0, 0.0, True, 0, xs, np.zeros((5, 2)))
        path = tmp_path / "p.csv"
        write_profile_csv(str(path), prof, rep)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,re_u0,im_u0,re_u1,im_u1,residual"
        assert len(lines) == 6
