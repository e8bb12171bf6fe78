"""Import hygiene: no module imports a name at top level that it never uses."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "simulq").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that the module never reads.

    A name counts as read if it appears anywhere in the module as an
    identifier (``np`` in ``np.zeros`` too) or as a string in ``__all__``.
    """
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
    return sorted(set(bound) - read)


def test_checker_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport os.path\nimport numpy as np\n"
        "from json import dumps, loads as parse\nfrom math import pi\n"
        "__all__ = ['pi']\n"
        "def f():\n    import sys\n    return np.zeros(1), parse\n"
    )
    assert unused_imports(source) == ["dumps", "os"]


def test_the_suite_checks_both_trees():
    assert {p.parent.name for p in MODULES} == {"simulq", "tests"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []
