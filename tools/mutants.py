"""Run the mutant catalogue and write its record.

    python tools/mutants.py [--output MUTANTS.json]

Each entry of tests/mutants.json names one file, an old line fragment that
occurs there once, the text that replaces it, and the test that should then
fail. For each entry this copies the tree to a temporary directory, applies
that one replacement, and runs the named test with `pytest -x`. The mutant
is killed when the test fails (pytest exit 1) and survives when it passes;
any other exit is an error. The named tests are first run once on the
unmutated tree, where they must all pass, so that a kill means the mutant
caused it.

The record lists every entry with its verdict, then the equivalent mutants
that tests/test_syntax.py lists in EQUIVALENT_MUTANTS, each with its reason
and no run. The exit status is 1 when any entry is not killed and 2 when a
named test fails on the unmutated tree. Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "out")


def equivalent_mutants() -> list[dict]:
    """EQUIVALENT_MUTANTS from tests/test_syntax.py, read as a literal."""
    tree = ast.parse((ROOT / "tests" / "test_syntax.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["EQUIVALENT_MUTANTS"]:
            return ast.literal_eval(node.value)
    raise SystemExit("tests/test_syntax.py has no EQUIVALENT_MUTANTS")


def run_tests(tree: Path, tests: list[str]) -> int:
    """pytest's exit code for tests, run -x in tree against tree/src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=tree, env=env, capture_output=True).returncode


def verdict(entry: dict) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        path = tree / entry["file"]
        text = path.read_text()
        if text.count(entry["old"]) != 1:
            return "error"
        path.write_text(text.replace(entry["old"], entry["new"]))
        return {1: "killed", 0: "survived"}.get(run_tests(tree, [entry["test"]]), "error")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=str(ROOT / "MUTANTS.json"))
    args = parser.parse_args(argv)
    catalogue = json.loads((ROOT / "tests" / "mutants.json").read_text())
    tests = sorted({m["test"] for m in catalogue})
    if run_tests(ROOT, tests):
        print("a named test fails on the unmutated tree", file=sys.stderr)
        return 2
    record = []
    for m in catalogue:
        record.append({"id": m["id"], "file": m["file"], "test": m["test"], "verdict": verdict(m)})
        print(f"{record[-1]['verdict']:9} {m['id']}", flush=True)
    for m in equivalent_mutants():
        record.append({"id": m["id"], "file": m["file"], "verdict": "equivalent",
                       "reason": m["reason"]})
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    return 0 if all(r["verdict"] in ("killed", "equivalent") for r in record) else 1


if __name__ == "__main__":
    sys.exit(main())
