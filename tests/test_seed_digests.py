"""The report and CSV comparison of ``tools/seed_digests.py --against`` on
copies of one tree."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# runs in a child process, since importing the tool puts bench/ on sys.path;
# compares the files of one command, argv[5] on the problem argv[6], of the
# trees argv[2] and argv[3], and exits as the tool does
CHILD = """
import runpy, sys
from pathlib import Path
sd = runpy.run_path(sys.argv[1])
out = Path(sys.argv[4])
paths = sd["problems"].write(1, str(out / "problems"))
runs = [r for r in sd["commands"](paths) if r[:2] == tuple(sys.argv[5:7])]
assert len(runs) == 1
sys.exit(1 if sd["compare"](sys.argv[2], sys.argv[3], runs, out)[0] else 0)
"""


def copy(tmp_path, name):
    shutil.copytree(ROOT / "src", tmp_path / name / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / name


def compare(tmp_path, root, against, run=("spectrum", "readme.json")):
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    return subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "tools" / "seed_digests.py"),
         str(root), str(against), str(out), *run],
        capture_output=True, text=True, cwd=tmp_path)


def test_two_copies_of_one_tree_write_the_same_report(tmp_path):
    proc = compare(tmp_path, copy(tmp_path, "a"), copy(tmp_path, "b"))
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    digest, command = line.split("  ")
    assert len(digest) == 64 and command == "spectrum readme.json"


def test_an_edited_float_is_shown_at_its_json_paths(tmp_path):
    # the strip that validate_decay proposes for a kernel analytic
    # everywhere, 1.0, becomes 0.75 in the copy that runs first
    edited = copy(tmp_path, "b")
    source = edited / "src" / "cmnl" / "kernel.py"
    text = source.read_text(encoding="utf-8")
    assert text.count("eta = 1.0 if np.isinf(bound)") == 1
    source.write_text(text.replace("eta = 1.0 if", "eta = 0.75 if"), encoding="utf-8")
    proc = compare(tmp_path, edited, copy(tmp_path, "a"))
    assert proc.returncode == 1, proc.stderr
    first, against, *paths = proc.stdout.splitlines()
    assert first.endswith("  spectrum readme.json")
    assert against.startswith("  --against: ") and against[13:] != first[:64]
    assert "  $.strip: 1 -> 0.75" in paths
    assert 1 < len(paths) <= 10
    assert all(p.startswith("  $.") and " -> " in p for p in paths)


def test_an_edited_csv_profile_differs_where_the_report_does_not(tmp_path):
    # the copy that runs first writes the defect column of the CSV profile
    # with 6 digits in place of 17; the verify report keeps its bytes
    edited = copy(tmp_path, "b")
    source = edited / "src" / "cmnl" / "cli.py"
    text = source.read_text(encoding="utf-8")
    assert text.count("{mag:.17g}") == 1
    source.write_text(text.replace("{mag:.17g}", "{mag:.6g}"), encoding="utf-8")
    proc = compare(tmp_path, edited, copy(tmp_path, "a"),
                   ("verify", "front-o5.json"))
    assert proc.returncode == 1, proc.stderr
    report, csv, against = proc.stdout.splitlines()
    assert report.endswith("  verify front-o5.json")
    assert csv.endswith("  verify front-o5.json front_0.01.csv")
    assert against.startswith("  --against: ") and against[13:] != csv[:64]
