"""SHA-256 of every seed-1 ``cm`` report, one line per report.

Writes the benchmark's problem files with ``bench/problems.py``, runs the 15
``cm`` commands on them (``spectrum`` and ``reduce`` on all six problems,
``verify`` on the three with a verify plan), each as a fresh process on the
``src`` of ``--root``, and prints ``<sha256>  <command> <problem>``.  Two
trees give byte-identical reports exactly when their outputs ``diff`` clean::

    python3 tools/seed_digests.py > change.txt
    python3 tools/seed_digests.py --root ../parent > parent.txt
    diff parent.txt change.txt

``--against ROOT`` runs the ``src`` of a second tree too, after each
command of the first.  For every report whose digest differs it prints that
tree's digest and the first ten JSON paths whose values differ, each with
the value of ``ROOT`` and then the first tree's; it exits 1 when any report
differs::

    python3 tools/seed_digests.py --against ../parent

``--keep DIR`` also keeps the reports, as ``DIR/<command>-<problem>`` (and
``DIR/<command>-<problem>.against``), for a closer look at the ones that
differ.  A command that fails prints its exit code in place of the digest.
"""

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "bench"))
sys.dont_write_bytecode = True  # leave no cache in bench/

import problems  # noqa: E402

SEED = 1
SHOWN = 10  # differing JSON paths printed per report


def commands(paths):
    """(command, problem name, argv tail) of every seed-1 report."""
    out = []
    for command in ("spectrum", "reduce", "verify"):
        for name, path in sorted(paths.items()):
            if command == "verify":
                if "verify" not in json.loads(Path(path).read_text()):
                    continue
                extra = ["--seed", str(SEED)]
            else:
                extra = []
            out.append((command, name, [command, path, *extra]))
    return out


def digest(root, argv, report):
    """Run ``cm`` on the ``src`` of ``root``: the SHA-256 of its report, or
    ``exit <code>`` when it fails."""
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "cmnl.cli", *argv, "--out", str(report)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return (hashlib.sha256(report.read_bytes()).hexdigest()
            if proc.returncode == 0 else f"exit {proc.returncode}")


def differences(old, new, path="$"):
    """Yield ``(path, old value, new value)`` wherever two parsed JSON values
    differ, in document order; a missing key reads as ``<absent>``."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in [*old, *(k for k in new if k not in old)]:
            if key not in old or key not in new:
                yield (f"{path}.{key}", old.get(key, "<absent>"),
                       new.get(key, "<absent>"))
            else:
                yield from differences(old[key], new[key], f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for k, (a, b) in enumerate(zip(old, new)):
            yield from differences(a, b, f"{path}[{k}]")
    elif type(old) is not type(new) or old != new:
        yield path, old, new


def compare(root, against, runs, outdir):
    """Print the digest of each of ``runs`` on ``root``, and with ``against``
    the differences from that tree's report; return how many differ."""
    differ = 0
    for command, name, argv in runs:
        report = outdir / f"{command}-{name}"
        mine = digest(root, argv, report)
        print(f"{mine}  {command} {name}", flush=True)
        if against is None:
            continue
        base = outdir / f"{command}-{name}.against"
        theirs = digest(against, argv, base)
        if theirs == mine:
            continue
        differ += 1
        print(f"  --against: {theirs}", flush=True)
        if mine.startswith("exit") or theirs.startswith("exit"):
            continue
        found = differences(json.loads(base.read_text()), json.loads(report.read_text()))
        for path, old, new in itertools.islice(found, SHOWN):
            print(f"  {path}: {old!r} -> {new!r}", flush=True)
    return differ


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=str(HERE),
                        help="repository whose src runs (default: this one)")
    parser.add_argument("--against", help="second repository to compare with")
    parser.add_argument("--keep", help="directory that keeps the reports")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(args.keep or tmp)
        outdir.mkdir(parents=True, exist_ok=True)
        paths = problems.write(SEED, str(Path(tmp) / "problems"))
        runs = commands(paths)
        differ = compare(args.root, args.against, runs, outdir)
    if differ:
        print(f"{differ} of {len(runs)} reports differ", flush=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
