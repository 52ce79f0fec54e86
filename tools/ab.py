"""Interleaved A/B launches of ``cm`` on two trees.

Runs the ``bench/run.py`` invocations of the chosen workloads (all three by
default) on the ``src`` of two repository roots, one process at a time::

    python3 tools/ab.py ../parent . --launches 20
    python3 tools/ab.py ../parent . --workload wave-sweep --problems DIR

Every launch runs each invocation once per tree, the tree that goes first
alternating from launch to launch, so that a drift of the machine's speed
falls on both.  A process runs the bench's ``LAUNCHER``, whose clock
readings give ``setup_s`` (launch to entry of ``cmnl.cli.main``) and
``compute_s`` (inside it); ``wall_s`` is launch to exit and ``rss_mb`` the
peak resident set size that ``wait4`` reports.  The problem files are the
seed-1 files of ``bench/problems.py``, or those of ``--problems DIR``.

For each invocation, and for each workload aggregated as ``bench/run.py``
aggregates a round (``setup_s`` pooled over the invocations, ``wall_s`` and
``compute_s`` summed, ``rss_mb`` the largest), it prints each tree's median
and quartiles, the change of the medians, in how many launches the second
tree read lower, and ``apart`` when the medians differ by more than the
whole range of either tree's samples.  It also reports whether the two trees
wrote byte-identical reports, and the launcher's own peak RSS: ``Popen``
starts a child by vfork and exec, and the exec'd process keeps the peak of
the address space it leaves, so no ``rss_mb`` reads below the launcher's
peak at the child's launch.

The header gives each tree's bytecode state after a warm-up import: how many
of its package's modules a launch loads from a valid ``__pycache__`` file.
Under ``PYTHONDONTWRITEBYTECODE=1`` the warm-up writes no cache, so a tree
that holds one loads bytecode while the other compiles at every launch,
which moves ``setup_s`` by a fifth and ``compute_s`` by up to a quarter.
The tool exits 2 when the two states differ.
"""

import argparse
import hashlib
import importlib.util
import os
import resource
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "bench"))
sys.dont_write_bytecode = True  # leave no cache in bench/

import problems  # noqa: E402
import run  # noqa: E402

SEED = 1
METRICS = ("setup_s", "compute_s", "wall_s", "rss_mb")


def launch(root, args, workdir):
    """One ``cm`` process on the ``src`` of ``root``: its measurements and
    the SHA-256 of its report."""
    side, report = workdir / "clock", workdir / "report"
    argv = [sys.executable, "-c", run.LAUNCHER, str(side), *args,
            "--out", str(report)]
    env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"))
    launched = time.monotonic()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    exited = time.monotonic()
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"cm {' '.join(args)} on {root} exited {code}")
    entered, left = map(float, side.read_text().split())
    return {"setup_s": entered - launched, "compute_s": left - entered,
            "wall_s": exited - launched, "rss_mb": usage.ru_maxrss / 1024.0,
            "digest": hashlib.sha256(report.read_bytes()).hexdigest()}


def bytecode_state(root):
    """After a warm-up import of ``cmnl.cli`` on the ``src`` of ``root``:
    how many of the package's modules load from cached bytecode, as ``"k of
    n modules cached"``.  A cache file counts when it records its source's
    modification time and size, as the import system checks it."""
    subprocess.run([sys.executable, "-c", "import cmnl.cli"], cwd=root,
                   env=dict(os.environ, PYTHONPATH=str(Path(root) / "src")),
                   check=True, stdin=subprocess.DEVNULL)
    sources = sorted((Path(root) / "src" / "cmnl").glob("*.py"))
    cached = 0
    for source in sources:
        stat = source.stat()
        stamp = struct.pack("<II", int(stat.st_mtime) & 0xFFFFFFFF,
                            stat.st_size & 0xFFFFFFFF)
        cache = Path(importlib.util.cache_from_source(str(source)))
        cached += cache.exists() and cache.read_bytes()[8:16] == stamp
    return f"{cached} of {len(sources)} modules cached"


def compare(roots, groups, launches, problem_dir=None):
    """Launch the invocations of ``groups`` ({name: [(command, problem
    file)]}) on both ``roots``, interleaved, ``launches`` times.

    Returns ``{label: {metric: (samples of roots[0], samples of roots[1])}}``
    with a label per invocation and per group, and ``{label: identical}``
    for the reports of each invocation.  The package of each root should
    be imported once before (``bytecode_state``), so that no launch pays
    for writing its cache.
    """
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = problems.write(SEED, str(tmp / "problems"))
        if problem_dir is not None:
            paths.update((p.name, str(p)) for p in Path(problem_dir).glob("*.json"))
        invocations = {}
        for name, members in groups.items():
            for command, problem in members:
                inv = run.Invocation(0, command, problem, [], paths, SEED)
                invocations[f"{command} {problem}"] = inv.args
        # samples[label][side] = one measurement dict per launch
        samples = {label: ([], []) for label in invocations}
        for i in range(launches):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for label, args in invocations.items():
                for side in order:
                    samples[label][side].append(launch(roots[side], args, tmp))

    out, identical = {}, {}
    for label, sides in samples.items():
        out[label] = {m: tuple([s[m] for s in side] for side in sides)
                      for m in METRICS}
        identical[label] = len({s["digest"] for side in sides for s in side}) == 1
    for name, members in groups.items():
        labels = [f"{command} {problem}" for command, problem in members]
        agg = {}
        for m, combine in (("setup_s", None), ("compute_s", sum),
                           ("wall_s", sum), ("rss_mb", max)):
            sides = []
            for side in (0, 1):
                per_inv = [out[label][m][side] for label in labels]
                if combine is None:
                    sides.append([v for vals in per_inv for v in vals])
                else:
                    sides.append([combine(vals) for vals in zip(*per_inv)])
            agg[m] = tuple(sides)
        out[name] = agg
    return out, identical


def summary(a, b):
    """Medians, quartiles and verdicts of two sample lists."""
    qa = statistics.quantiles(a, n=4, method="inclusive")
    qb = statistics.quantiles(b, n=4, method="inclusive")
    ma, mb = statistics.median(a), statistics.median(b)
    lower = sum(y < x for x, y in zip(a, b)) if len(a) == len(b) else None
    return {"a": (qa[0], ma, qa[2]), "b": (qb[0], mb, qb[2]),
            "change": (mb - ma) / ma if ma else float("nan"),
            "b_lower": lower,
            "apart": abs(mb - ma) > max(max(a) - min(a), max(b) - min(b))}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="first repository root (the parent)")
    parser.add_argument("b", help="second repository root (the change)")
    parser.add_argument("--launches", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--problems", help="directory of problem files that "
                        "replace the seed-1 files of the same name")
    args = parser.parse_args()
    if args.launches < 2:
        parser.error("--launches must be at least 2")
    groups = {w: [(c, p) for c, p, _ in run.WORKLOADS[w]]
              for w in (args.workload or sorted(run.WORKLOADS))}
    roots = [str(Path(r).resolve()) for r in (args.a, args.b)]
    states = [bytecode_state(root) for root in roots]
    print(f"A = {roots[0]} ({states[0]})\nB = {roots[1]} ({states[1]})")
    if states[0] != states[1]:
        print("error: the trees differ in bytecode state, which moves setup_s and"
              " compute_s more than most changes; remove src/cmnl/__pycache__ from"
              " both, or unset PYTHONDONTWRITEBYTECODE", file=sys.stderr)
        return 2
    results, identical = compare(roots, groups, args.launches, args.problems)
    print(f"{args.launches} interleaved launches"
          " per tree; median [q1, q3]; 'B lower' counts launches")
    for label, metrics in results.items():
        note = "" if label in groups else (
            "  (reports identical)" if identical[label] else "  (REPORTS DIFFER)")
        print(f"\n{label}{note}")
        for m, (a, b) in metrics.items():
            s = summary(a, b)
            print(f"  {m:9s}  A {s['a'][1]:9.4f} [{s['a'][0]:.4f}, {s['a'][2]:.4f}]"
                  f"  B {s['b'][1]:9.4f} [{s['b'][0]:.4f}, {s['b'][2]:.4f}]"
                  f"  {100 * s['change']:+6.1f}%  B lower {s['b_lower']}/{len(b)}"
                  f"{'  apart' if s['apart'] else ''}")
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"\nlauncher peak RSS {own:.2f} MB: the floor of every rss_mb reading")
    return 0


if __name__ == "__main__":
    sys.exit(main())
