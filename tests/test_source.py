"""Rules that hold for the package source as a whole."""

import ast
import os
import subprocess
import sys
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


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # Start-up is most of a small command's time, and importing
    # ``dataclasses`` (which imports ``inspect``) cost a fresh process about
    # 7 ms.  A bare interpreter in the same environment shows what site
    # loads by itself, which is not the package's doing.
    paths = [str(Path(wramsey.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))

    def loaded(imports):
        code = (f"import sys{imports}; "
                "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        return set(run.stdout.split())

    assert loaded(", wramsey.cli") - loaded("") == set()
