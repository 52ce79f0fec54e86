"""The cm pipeline benchmark: cold start, order-5 jet and wave sweep.

Usage (from the repository root)::

    python3 bench/run.py --workload cli-small --seed 1 --seconds 36 --trace 0

Each workload is a fixed list of ``cm spectrum | reduce | verify``
invocations on problem files that ``problems.py`` builds from the seed.  One
round runs every invocation once, each as a fresh Python process on the
repository's ``src`` (the ``cm`` script need not be installed), one process
at a time.  Rounds repeat until the one whose end is nearest to
``--seconds``, with at least ``MIN_ROUNDS``; every round is whole, so the
share of failed invocations does not depend on the run length.  The
reports of the first round are checked against closed forms
(``checks.py``); every later report must be byte-identical to its
first-round counterpart.

``--trace 0`` prints the end-to-end metrics (medians over rounds):

* ``setup_s``: launch of a process until ``cmnl.cli.main`` is entered
  (interpreter start and imports), median over all invocations;
* ``wall_s``: launch to exit, summed over one round's invocations;
* ``compute_s``: time inside ``cmnl.cli.main``, summed over a round;
* ``peak_rss_mb``: largest maximum resident set size in a round (MiB).

``--trace 1`` alternates an untraced round with a round launched through
``tracer.py`` and prints the per-layer metrics; ``trace.overhead_s`` is the
traced minus the untraced ``compute_s``.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import problems

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TOL_SOLVE = 1e-7
MIN_ROUNDS = 3
MIN_TRACED_PAIRS = 2  # two traced rounds show that the counts repeat

# What the ``cm`` console script does, plus the two clock readings around
# ``main``.  CLOCK_MONOTONIC is shared by all processes, so the parent can
# subtract its launch time from the child's entry time.
LAUNCHER = """\
import sys, time
from cmnl.cli import main
entered = time.monotonic()
code = main(sys.argv[2:])
left = time.monotonic()
with open(sys.argv[1], "w") as fh:
    fh.write(f"{entered!r} {left!r}\\n")
sys.exit(code)
"""

# (command, problem file, checks of its report)
WORKLOADS = {
    # spectrum and reduce on small problems: mostly interpreter start and
    # imports, then root location; the jet barely runs.
    "cli-small": [
        ("spectrum", "readme.json", ["roots_simple_zero"]),
        ("reduce", "readme.json", ["readme_field", "residuals"]),
        ("spectrum", "exp-double.json", ["roots_double_zero"]),
        ("reduce", "exp-double.json", ["exp_field", "residuals"]),
        ("spectrum", "pair-o3.json", ["roots_double_pair"]),
        ("spectrum", "front-gram-o3.json", ["roots_double_zero"]),
        ("reduce", "front-gram-o3.json", ["front_field", "residuals"]),
    ],
    # the order-5 jet of the double-pair problem: quasipoly, nonlin, tsolve
    # and kernel.convolve dominate; verify never runs.
    "jet-o5": [
        ("reduce", "pair-o5.json",
         ["pair_order2", "pair_block", "odd_psi", "residuals", "defect_rate"]),
    ],
    # pulse sweep and order-5 front: RK4 shooting, reconstruction and the
    # grid residual, plus a two-parameter jet with a Jordan chain at 0.
    "wave-sweep": [
        ("verify", "pair-o3.json", ["pulse", "seed_echo"]),
        ("verify", "front-o5.json", ["front_wave", "seed_echo"]),
    ],
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "compute_s": "s",
              "peak_rss_mb": "MB"}

PER_LAYER = {
    # name: (unit, source) -- source is ("seconds"|"self_seconds"|"calls"|
    # "counts"|"maxima", layer) in the tracer summary
    "problem.load_s": ("s", ("seconds", "problem.load")),
    "cli.serialize_s": ("s", ("seconds", "cli.serialize")),
    "cli.report_bytes": ("bytes", ("counts", "cli.report_bytes")),
    "spectrum.locate_roots_s": ("s", ("seconds", "spectrum.locate_roots")),
    "spectrum.transform_calls": ("count", ("counts", "spectrum.transform_calls")),
    "projection.basis_s": ("s", ("seconds", "projection.basis")),
    "projection.build_s": ("s", ("seconds", "projection.build")),
    "jet.compute_s": ("s", ("seconds", "jet.compute")),
    "jet.self_s": ("s", ("self_seconds", "jet.compute")),
    "jet.psi_entries": ("count", ("counts", "jet.psi_entries")),
    "nonlin.apply_term_calls": ("count", ("calls", "nonlin.apply_term")),
    "nonlin.apply_term_s": ("s", ("seconds", "nonlin.apply_term")),
    "quasipoly.constructions": ("count", ("calls", "quasipoly.construct")),
    "quasipoly.construct_s": ("s", ("seconds", "quasipoly.construct")),
    "tsolve.solve_calls": ("count", ("calls", "tsolve.solve")),
    "tsolve.solve_s": ("s", ("seconds", "tsolve.solve")),
    "tsolve.block_rows": ("count", ("counts", "tsolve.block_rows")),
    "tsolve.block_rows_max": ("count", ("maxima", "tsolve.block_rows_max")),
    "kernel.transform_calls": ("count", ("calls", "kernel.transform")),
    "kernel.transform_distinct": ("count", ("transform_distinct", None)),
    "kernel.transform_s": ("s", ("seconds", "kernel.transform")),
    "kernel.convolve_calls": ("count", ("calls", "kernel.convolve")),
    "kernel.convolve_s": ("s", ("seconds", "kernel.convolve")),
    "kernel.apply_T_calls": ("count", ("calls", "kernel.apply_T")),
    "verify.shots": ("count", ("calls", "verify.shoot")),
    "verify.rk4_steps": ("count", ("counts", "verify.rk4_steps")),
    "verify.shoot_s": ("s", ("seconds", "verify.shoot")),
    "verify.reconstruct_s": ("s", ("seconds", "verify.reconstruct")),
    "verify.residual_s": ("s", ("seconds", "verify.residual")),
    "verify.grid_convolve_calls": ("count", ("counts", "verify.grid_convolve")),
}

UNITS = dict(END_TO_END, **{"import.s": "s", "import.modules": "count",
                            "trace.overhead_s": "s"},
             **{name: unit for name, (unit, _) in PER_LAYER.items()})


class Invocation:
    """One ``cm`` process: its argument list and where its outputs go."""

    def __init__(self, index, command, problem, check_names, paths, seed):
        self.index = index
        self.command = command
        self.problem = problem
        self.checks = check_names
        self.args = [command, paths[problem]]
        if command != "spectrum":
            self.args += ["--tol-solve", repr(TOL_SOLVE)]
        if command == "verify":
            self.args += ["--seed", str(seed)]

    def __str__(self):
        return f"cm {self.command} {self.problem}"


def launch(inv, workdir, tag, traced):
    """Run one invocation to its exit; return its measurements.

    The untraced launcher writes the clock readings around ``main``; the
    traced one writes the tracer summary.  Both write the report to
    ``--out`` and nothing to standard output.
    """
    stem = workdir / f"{tag}-{inv.index}"
    report, side, err = (stem.with_suffix(s) for s in (".json", ".t", ".err"))
    if traced:
        head = [sys.executable, str(BENCH / "tracer.py"), str(side)]
    else:
        head = [sys.executable, "-c", LAUNCHER, str(side)]
    argv = head + inv.args + ["--out", str(report)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(err, "wb") as err_fh:
        launched = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err_fh)
        _, status, usage = os.wait4(proc.pid, 0)
        exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = {"ok": proc.returncode == 0, "wall": exited - launched,
           "rss_mb": usage.ru_maxrss / 1024.0, "report": report,
           "stderr": err.read_text(errors="replace").strip()}
    if out["ok"]:
        if traced:
            out["trace"] = json.loads(side.read_text())
            out["compute"] = out["trace"]["main_s"]
        else:
            entered, left = map(float, side.read_text().split())
            out["setup"] = entered - launched
            out["compute"] = left - entered
    return out


class Run:
    """State of one benchmark run: counts, measurements, verdicts."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        paths = problems.write(seed, str(workdir / "problems"))
        self.invocations = [
            Invocation(i, cmd, prob, names, paths, seed)
            for i, (cmd, prob, names) in enumerate(WORKLOADS[workload])
        ]
        self.params = dict(problems.parameters(seed), tol_solve=TOL_SOLVE,
                           seed=seed)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.first_reports = {}
        self.rounds = 0

    def fail(self, msg):
        self.correct = False
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    def round(self, traced=False):
        """One round of every invocation; returns the per-invocation results."""
        self.rounds += 1
        results = []
        for inv in self.invocations:
            self.attempted += 1
            res = launch(inv, self.workdir, f"r{self.rounds}", traced)
            if not res["ok"]:
                self.failed += 1
                print(f"{inv} failed: {res['stderr']}", file=sys.stderr)
            else:
                self.accept(inv, res["report"].read_bytes())
            res["report"].unlink(missing_ok=True)
            results.append(res)
        return [r for r in results if r["ok"]]

    def accept(self, inv, data):
        """Check the first report of an invocation; later ones must match it."""
        first = self.first_reports.get(inv.index)
        if first is None:
            self.first_reports[inv.index] = data
            for msg in checks.run_checks(inv.checks, json.loads(data),
                                         self.params):
                self.fail(f"{inv}: {msg}")
        elif data != first:
            self.fail(f"{inv}: report differs from the first round's")


def warm_up():
    """Import the package once, so bytecode compilation is not timed."""
    subprocess.run([sys.executable, "-c", "import cmnl.cli"], cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)


def timed_rounds(seconds, body, min_rounds):
    """Call ``body()`` while another call would end nearer to ``seconds``.

    Rounds last several seconds, so stopping at the round whose end is
    nearest to ``seconds`` keeps the run length close to the request.
    """
    start = time.monotonic()
    done = 0
    while True:
        body()
        done += 1
        elapsed = time.monotonic() - start
        if done >= min_rounds and elapsed * (done + 0.5) / done > seconds:
            return


def measure(run, seconds):
    setups, walls, computes, rss = [], [], [], []

    def body():
        res = run.round()
        if len(res) == len(run.invocations):
            setups.extend(r["setup"] for r in res)
            walls.append(sum(r["wall"] for r in res))
            computes.append(sum(r["compute"] for r in res))
            rss.append(max(r["rss_mb"] for r in res))
            print(f"round {run.rounds}: wall {walls[-1]:.4f} s, compute "
                  f"{computes[-1]:.4f} s, setup {min(setups[-len(res):]):.4f}"
                  f"-{max(setups[-len(res):]):.4f} s", file=sys.stderr)

    timed_rounds(seconds, body, MIN_ROUNDS)
    if not walls:
        return {}
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "compute_s": statistics.median(computes),
        "peak_rss_mb": statistics.median(rss),
    }


def _layer_value(trace, source):
    kind, layer = source
    if layer is None:
        return trace[kind]
    return trace[kind].get(layer, 0)


def measure_traced(run, seconds):
    plain, traced, imports, modules, per_round = [], [], [], [], []

    def body():
        res = run.round()
        tres = run.round(traced=True)
        if len(res) != len(run.invocations) or \
                len(tres) != len(run.invocations):
            return
        plain.append(sum(r["compute"] for r in res))
        traced.append(sum(r["compute"] for r in tres))
        imports.extend(r["trace"]["import_s"] for r in tres)
        modules.append(max(r["trace"]["import_modules"] for r in tres))
        values = {}
        for name, (_, source) in PER_LAYER.items():
            vals = [_layer_value(r["trace"], source) for r in tres]
            values[name] = max(vals) if source[0] == "maxima" else sum(vals)
        per_round.append(values)

    timed_rounds(seconds, body, MIN_TRACED_PAIRS)
    if not per_round:
        return {}
    metrics = {"import.s": statistics.median(imports),
               "import.modules": modules[0]}
    for name, (unit, source) in PER_LAYER.items():
        vals = [v[name] for v in per_round]
        if unit == "s":
            metrics[name] = statistics.median(vals)
        else:
            metrics[name] = vals[0]
            if any(v != vals[0] for v in vals):
                print(f"warning: {name} differs between traced rounds: {vals}",
                      file=sys.stderr)
    metrics["trace.overhead_s"] = statistics.median(
        t - p for t, p in zip(traced, plain))
    return metrics


def main():
    parser = argparse.ArgumentParser(description="cm pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "cmnl" / "cli.py").is_file():
        print(f"error: no cmnl sources under {SRC}", file=sys.stderr)
        return 2

    workdir = BENCH / "work" / str(os.getpid())
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        warm_up()
        run = Run(args.workload, args.seed, workdir)
        if args.trace:
            metrics = measure_traced(run, args.seconds)
        else:
            metrics = measure(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not metrics:
        print("error: no round completed without a failure", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}: {run.rounds} rounds, "
          f"{run.attempted} invocations attempted, {run.failed} failed, "
          f"outputs {'correct' if run.correct else 'INCORRECT'}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>14.6g} {UNITS[name]}")
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
