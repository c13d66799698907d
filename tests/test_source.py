"""Rules that hold for the package source as a whole."""

import ast
from pathlib import Path

import wramsey


def test_no_assert_statements_in_the_package():
    # Certificates must still be checked under ``python -O``, which strips
    # every assert, so the package decides nothing with one.
    found = []
    for path in sorted(Path(wramsey.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
