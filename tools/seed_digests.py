"""SHA-256 of every seed-1 ``cm`` report and CSV profile, one line per file.

Writes the benchmark's problem files with ``bench/problems.py``, runs the 15
``cm`` commands on them (``spectrum`` and ``reduce`` on all six problems,
``verify`` on the three with a verify plan, with ``--csv``), each as a fresh
process on the ``src`` of ``--root``, and prints ``<sha256>  <command>
<problem>`` for each report and ``<sha256>  <command> <problem> <csv>`` for
each CSV profile that ``verify`` writes.  Two trees give byte-identical
reports and profiles exactly when their outputs ``diff`` clean::

    python3 tools/seed_digests.py > change.txt
    python3 tools/seed_digests.py --root ../parent > parent.txt
    diff parent.txt change.txt

``--against ROOT`` runs the ``src`` of a second tree too, after each
command of the first.  For every file whose digest differs it prints that
tree's digest and, for a report, the first ten JSON paths whose values
differ, each with the value of ``ROOT`` and then the first tree's; it exits
1 when any file differs::

    python3 tools/seed_digests.py --against ../parent

``--keep DIR`` also keeps the reports, as ``DIR/<command>-<problem>`` (and
``DIR/<command>-<problem>.against``), and the CSV profiles in the
directories of those names plus ``.csv``, for a closer look at the ones
that differ.  A command that fails prints its exit code in place of the
digest.
"""

import argparse
import hashlib
import itertools
import json
import os
import shutil
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


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(root, argv, report):
    """Run ``cm`` on the ``src`` of ``root``: ``{name: SHA-256}`` of its
    report, named ``""``, and of every CSV profile that ``verify`` writes
    under ``<report>.csv``, named by its file; ``{"": "exit <code>"}`` when
    it fails."""
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    csv = Path(f"{report}.csv")
    shutil.rmtree(csv, ignore_errors=True)
    extra = ["--csv", str(csv)] if argv[0] == "verify" else []
    proc = subprocess.run(
        [sys.executable, "-m", "cmnl.cli", *argv, "--out", str(report), *extra],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if proc.returncode:
        return {"": f"exit {proc.returncode}"}
    out = {"": sha256(report)}
    if extra:
        out.update((f.name, sha256(f)) for f in sorted(csv.iterdir()))
    return out


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
    """Print the digest of each file that ``runs`` write on ``root``, and
    with ``against`` the differences from that tree's files; return
    ``(how many differ, how many were compared)``."""
    differ = total = 0
    for command, name, argv in runs:
        report = outdir / f"{command}-{name}"
        base = outdir / f"{command}-{name}.against"
        mine = digests(root, argv, report)
        theirs = {} if against is None else digests(against, argv, base)
        for file in [*mine, *(f for f in theirs if f not in mine)]:
            total += 1
            ours = mine.get(file, "<absent>")
            print(f"{ours}  {command} {name} {file}".rstrip(), flush=True)
            if against is None or theirs.get(file) == ours:
                continue
            differ += 1
            print(f"  --against: {theirs.get(file, '<absent>')}", flush=True)
            if file or ours.startswith("exit") or theirs[file].startswith("exit"):
                continue
            found = differences(json.loads(base.read_text()),
                                json.loads(report.read_text()))
            for path, old, new in itertools.islice(found, SHOWN):
                print(f"  {path}: {old!r} -> {new!r}", flush=True)
    return differ, total


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
        differ, total = compare(args.root, args.against, commands(paths), outdir)
    if differ:
        print(f"{differ} of {total} files differ", flush=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
