"""SHA-256 of every seed-1 ``cm`` report, one line per report.

Writes the benchmark's problem files with ``bench/problems.py``, runs the 15
``cm`` commands on them (``spectrum`` and ``reduce`` on all six problems,
``verify`` on the three with a verify plan), each as a fresh process on the
``src`` of ``--root``, and prints ``<sha256>  <command> <problem>``.  Two
trees give byte-identical reports exactly when their outputs ``diff`` clean::

    python3 tools/seed_digests.py > change.txt
    python3 tools/seed_digests.py --root ../parent > parent.txt
    diff parent.txt change.txt

``--keep DIR`` also keeps the reports, as ``DIR/<command>-<problem>``, for a
closer look at the ones that differ.  A command that fails prints its exit
code in place of the digest.
"""

import argparse
import hashlib
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


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=str(HERE),
                        help="repository whose src runs (default: this one)")
    parser.add_argument("--keep", help="directory that keeps the reports")
    args = parser.parse_args()
    env = dict(os.environ, PYTHONPATH=str(Path(args.root).resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(args.keep or tmp)
        outdir.mkdir(parents=True, exist_ok=True)
        paths = problems.write(SEED, str(Path(tmp) / "problems"))
        for command, name, argv in commands(paths):
            report = outdir / f"{command}-{name}"
            proc = subprocess.run(
                [sys.executable, "-m", "cmnl.cli", *argv, "--out", str(report)],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            digest = (hashlib.sha256(report.read_bytes()).hexdigest()
                      if proc.returncode == 0 else f"exit {proc.returncode}")
            print(f"{digest}  {command} {name}", flush=True)


if __name__ == "__main__":
    main()
