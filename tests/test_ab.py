"""The A/B launcher ``tools/ab.py`` on two copies of one tree."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# runs in a child process, since importing the tool puts bench/ on sys.path
CHILD = """
import json, runpy, sys
ab = runpy.run_path(sys.argv[1])
states = [ab["bytecode_state"](root) for root in sys.argv[2:]]
assert states[0] == states[1], states
results, identical = ab["compare"](sys.argv[2:], {"one": [("spectrum", "readme.json")]}, 8)
print(json.dumps({"identical": identical, "summaries": {
    label: {m: ab["summary"](*sides) for m, sides in metrics.items()}
    for label, metrics in results.items()}}))
"""


def copies(tmp_path):
    """Two copies of the package source, without bytecode caches."""
    roots = []
    for name in ("a", "b"):
        shutil.copytree(ROOT / "src", tmp_path / name / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        roots.append(str((tmp_path / name).resolve()))
    return roots


def test_two_copies_of_one_tree_do_not_differ_beyond_their_spread(tmp_path):
    # eight interleaved launches of `cm spectrum` per copy: the copies write
    # the same report, and no metric's medians differ by more than the whole
    # range of either copy's samples
    roots = copies(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "tools" / "ab.py"), *roots],
        capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["identical"] == {"spectrum readme.json": True}
    assert set(out["summaries"]) == {"spectrum readme.json", "one"}
    for metrics in out["summaries"].values():
        assert set(metrics) == {"setup_s", "compute_s", "wall_s", "rss_mb"}
        for m, s in metrics.items():
            assert 0 < s["a"][0] <= s["a"][1] <= s["a"][2], m
            assert 0 < s["b"][0] <= s["b"][1] <= s["b"][2], m
            assert 0 <= s["b_lower"] <= 8
            assert not s["apart"], (m, s)


def test_trees_in_different_bytecode_states_are_refused(tmp_path):
    # without bytecode writing, the warm-up import caches nothing, so a tree
    # that holds a cache would load bytecode and the other compile its source
    roots = copies(tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run([sys.executable, "-c", "import cmnl.cli"], check=True,
                   env=dict(env, PYTHONPATH=str(Path(roots[1]) / "src")))
    modules = len(list((Path(roots[1]) / "src" / "cmnl").glob("*.py")))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), *roots, "--launches", "2"],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(env, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 2, proc.stderr
    assert f"A = {roots[0]} (0 of {modules} modules cached)" in proc.stdout
    assert f"B = {roots[1]} ({modules} of {modules} modules cached)" in proc.stdout
    assert "differ in bytecode state" in proc.stderr
    assert "interleaved launches" not in proc.stdout  # nothing was launched
