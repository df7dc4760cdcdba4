"""pyproject.toml declares Python >= 3.10: no source, test or benchmark file
may use syntax that only a later grammar accepts."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_file_parses_as_python_3_10():
    files = [f for d in ("src", "tests", "perfbench") for f in (ROOT / d).rglob("*.py")]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
