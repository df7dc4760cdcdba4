"""Checks on the source text itself. pyproject.toml declares Python >= 3.10:
no source, test or benchmark file may use syntax that only a later grammar
accepts. No module in src/normgraph may import a name it does not use, and
no function or method there may go unused by the package itself. Each
one-line mutant that tests/mutants.json lists must apply at exactly one place
in its file and name a test that exists. Each removes or weakens one check
in src/, and its test fails once it is applied. Each one-line mutant listed
as equivalent applies at one place too, with the reason it changes no
output."""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_file_parses_as_python_3_10():
    files = [f for d in ("src", "tests", "perfbench", "tools") for f in (ROOT / d).rglob("*.py")]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def unused_imports(path: Path) -> list[str]:
    """Names imported anywhere in a module that it never reads and does not
    list in its __all__ (imports from __future__ aside)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {e.value for e in node.value.elts}
    return sorted(imported - read - exported)


def test_every_import_in_src_is_used():
    found = {
        path.name: names
        for path in sorted((ROOT / "src" / "normgraph").glob("*.py"))
        if (names := unused_imports(path))
    }
    assert found == {
        # perfbench/layers.py rebinds cli.primes_up_to to time the sieve's
        # prime generation, so cli imports it without using it
        "cli.py": ["primes_up_to"],
        # and it rebinds k46.make_graph and k46.poly_pow_mod, which
        # tests/test_trace_sites.py requires to exist, though k46 graphs a
        # witness over the witness's own field and decides its cube
        # conditions by cubic reciprocity, with no polynomial power
        "k46.py": ["make_graph", "poly_pow_mod"],
    }


# names that only tests call, each mapped to the reason it is kept
TEST_ONLY = {
    "ExtField.norm_pow": "a third norm route, a^((p^k - 1)/(p - 1)), against which the tests "
    "and the acceptance gate hold the two routes that ExtField.norm runs",
    "NormGraph.common_neighbors": "the acceptance gate compares the witness's right side "
    "with it, and the tests check census counts and witness maximality with it",
}

def test_every_function_in_src_is_used():
    """Every module-level function and method (dunders aside) in
    src/normgraph is read somewhere in src/normgraph, as a name or an
    attribute, or listed in an __all__; else it is in TEST_ONLY."""
    defined, read, exported = set(), set(), set()
    for path in sorted((ROOT / "src" / "normgraph").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            elif isinstance(node, ast.ClassDef):
                defined |= {f"{node.name}.{item.name}" for item in node.body
                            if isinstance(item, ast.FunctionDef)}
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported |= {e.value for e in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unused = {
        name for name in defined
        if not (bare := name.rpartition(".")[2]).startswith("__") and bare not in read | exported
    }
    assert unused == set(TEST_ONLY)


# one-line mutants that change no output, each with the reason
EQUIVALENT_MUTANTS = [
    {
        "id": "graph-search-prune-keeps-ties",
        "file": "src/normgraph/graph.py",
        "old": ").bit_count() > best:",
        "new": ").bit_count() >= best:",
        "reason": "it only prunes less: a prefix with as many bits as the best can at most "
        "tie it, and a tie found later in colex order never replaces the best",
    },
]


def test_every_equivalent_mutant_applies_at_one_place():
    for m in EQUIVALENT_MUTANTS:
        assert list(m) == ["id", "file", "old", "new", "reason"], m
        assert m["old"] != m["new"], m["id"]
        assert (ROOT / m["file"]).read_text().count(m["old"]) == 1, m["id"]


def test_every_mutant_applies_at_one_place():
    mutants = json.loads((ROOT / "tests" / "mutants.json").read_text())
    assert len({m["id"] for m in mutants}) == len(mutants)
    for m in mutants:
        assert list(m) == ["id", "file", "old", "new", "test"], m
        assert m["old"] != m["new"], m["id"]
        assert (ROOT / m["file"]).read_text().count(m["old"]) == 1, m["id"]
        path, *_, name = m["test"].split("::")
        assert f"def {name.partition('[')[0]}(" in (ROOT / path).read_text(), m["id"]
