"""Self-test of the benchmark's correctness checks.

Usage (from the repository root)::

    python3 bench/selftest.py [--seed N]

It runs every invocation of every workload once (about 20 s), requires
each check named in ``run.WORKLOADS`` to accept the genuine report, and then
requires it to reject the same report with one coefficient, root or reported
value perturbed.  Every check in ``checks.CHECKS`` must have at least one
perturbation here, so no check can pass vacuously.  It also shows that a
later round whose report differs from the first round's is flagged.  Exit
status 0 means every case behaved; 1 lists the cases that did not.
"""

import argparse
import copy
import json
import shutil
import sys

import checks
import run


def _bump(pair, rel):
    """Scale a serialized complex number ``[re, im]`` by ``1 + rel``."""
    pair[0] *= 1 + rel
    pair[1] *= 1 + rel


def _field(report, powers, mu):
    for e in report["result"]["field"]:
        if e["index"]["powers"] == powers and e["index"]["mu"] == mu:
            return e["coeff"]
    raise KeyError((powers, mu))


def _psi_poly(report, powers, mu, nu_im):
    """Polynomial rows of the graph entry ``(powers, mu)`` at frequency i nu_im."""
    for e in report["result"]["psi"]:
        if e["index"]["powers"] == powers and e["index"]["mu"] == mu:
            for t in e["psi"]["terms"]:
                if abs(complex(*t["nu"]) - 1j * nu_im) <= 1e-9:
                    return t["poly"]
    raise KeyError((powers, mu, nu_im))


def shift_root(report):
    report["roots"][-1]["nu"][0] += 1e-6


def raise_multiplicity(report):
    report["roots"][-1]["multiplicity"] += 1


def raise_residual(report):
    report["result"]["psi"][0]["residual"] = 2 * run.TOL_SOLVE


def readme_a2(report):
    _bump(_field(report, [2], [])[0], 1e-6)


def readme_a3(report):
    _bump(_field(report, [3], [])[0], 1e-6)


def exp_a2(report):
    _bump(_field(report, [2, 0], [])[1], 1e-6)


def front_cubic(report):
    _bump(_field(report, [3, 0], [0, 0])[1], 1e-6)


def front_speed(report):
    _bump(_field(report, [0, 1], [0, 1])[1], 1e-6)


def pair_a_mu(report):
    _bump(_psi_poly(report, [1, 0, 0, 0], [1], 1.0)[2][0], 1e-6)


def pair_b_mu(report):
    _bump(_psi_poly(report, [0, 0, 1, 0], [1], -1.0)[1][0], 1e-6)


def pair_cubic(report):
    _bump(_psi_poly(report, [2, 1, 0, 0], [0], 1.0)[0][0], 1e-6)


def pair_block_mu(report):
    _bump(_field(report, [0, 0, 1, 0], [1])[0], 1e-6)


def pair_block_jordan(report):
    _bump(_field(report, [1, 0, 0, 0], [0])[0], 1e-6)


def even_psi(report):
    report["result"]["psi"][0]["index"]["powers"][0] += 1


def defect_order3(report):
    # the third harmonic is outside the kernel of T, so the defect sees it
    _bump(_psi_poly(report, [3, 0, 0, 0], [0], 3.0)[0][0], 1e-2)


def defect_order5(report):
    # at the check's amplitudes an order-5 error shows only when it is of
    # the size of the order-7 defect, hence the large perturbation
    _bump(_psi_poly(report, [3, 2, 0, 0], [0], 1.0)[3][0], 1.0)


def other_seed(report):
    report["seed"] += 1


def pulse_ratio(report):
    report["report"]["details"]["amplitude_ratio"] *= 1.15


def pulse_slope(report):
    report["report"]["slope"] = 1.49


def front_kappa(report):
    report["report"]["details"]["kappa"] *= 1 + 1e-6


def front_monotone(report):
    report["report"]["monotone"] = False


def front_residual(report):
    report["report"]["residual_max"] = 2e-6


def front_reach(report):
    report["report"]["details"]["reach_distance"] = 2e-4


PERTURBATIONS = {
    "roots_simple_zero": [shift_root, raise_multiplicity],
    "roots_double_zero": [shift_root, raise_multiplicity],
    "roots_double_pair": [shift_root, raise_multiplicity],
    "residuals": [raise_residual],
    "readme_field": [readme_a2, readme_a3],
    "exp_field": [exp_a2],
    "front_field": [front_cubic, front_speed],
    "pair_order2": [pair_a_mu, pair_b_mu, pair_cubic],
    "pair_block": [pair_block_mu, pair_block_jordan],
    "odd_psi": [even_psi],
    "defect_rate": [defect_order3, defect_order5],
    "seed_echo": [other_seed],
    "pulse": [pulse_ratio, pulse_slope],
    "front_wave": [front_kappa, front_monotone, front_residual, front_reach],
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    failures = []
    missing = sorted(set(checks.CHECKS) - set(PERTURBATIONS))
    if missing:
        failures.append(f"checks without a perturbation: {missing}")

    workdir = run.BENCH / "work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cases = 0
    try:
        for workload in run.WORKLOADS:
            bench_run = run.Run(workload, args.seed, workdir)
            for inv in bench_run.invocations:
                res = run.launch(inv, workdir, workload, traced=False)
                if not res["ok"]:
                    failures.append(f"{inv} failed: {res['stderr']}")
                    continue
                data = res["report"].read_bytes()
                report = json.loads(data)
                for name in inv.checks:
                    try:
                        checks.CHECKS[name](report, bench_run.params)
                    except checks.CheckFailure as exc:
                        failures.append(f"{inv}: {name} rejects the genuine "
                                        f"report: {exc}")
                        continue
                    for perturb in PERTURBATIONS[name]:
                        cases += 1
                        bad = copy.deepcopy(report)
                        perturb(bad)
                        try:
                            checks.CHECKS[name](bad, bench_run.params)
                        except checks.CheckFailure as exc:
                            print(f"ok  {inv}: {name} rejects "
                                  f"{perturb.__name__}: {exc}")
                        else:
                            failures.append(f"{inv}: {name} accepts "
                                            f"{perturb.__name__}")
                # the byte-identity check between rounds
                cases += 1
                bench_run.correct = True
                bench_run.accept(inv, data)
                bench_run.accept(inv, data.replace(b"1", b"2", 1))
                if bench_run.correct:
                    failures.append(f"{inv}: a changed later report passes")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in failures:
        print(f"FAIL {msg}")
    print(f"{cases} perturbation cases, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
