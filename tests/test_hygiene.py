"""Code hygiene: no module imports a name at top level that it never uses, and
no private top-level name in ``src/simulq`` is left without a reader."""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC_MODULES = sorted((ROOT / "src" / "simulq").glob("*.py"))
MODULES = sorted([*SRC_MODULES, *(ROOT / "tests").glob("*.py")])


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


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Top-level ``_name`` functions, classes and constants (not dunders), by name."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for target in node.targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                defined[name] = node
    return defined


def _names_read(node: ast.AST) -> set[str]:
    """Identifiers ``node`` reads: loaded names, attributes and imported names."""
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            read.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            read.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            read |= {alias.name for alias in sub.names}
    return read


def dead_private_names(module: str, trees: dict[str, ast.Module]) -> list[str]:
    """Private top-level names of ``trees[module]`` that nothing else reads.

    A read inside the name's own definition (a recursive call, say) does
    not count; a read anywhere else in any of ``trees`` does.
    """
    defined = _private_definitions(trees[module])
    read = set()
    for key, tree in trees.items():
        for node in tree.body:
            own = {name for name, d in defined.items() if d is node} if key == module else set()
            read |= _names_read(node) - own
    return sorted(set(defined) - read)


def test_checker_finds_dead_private_names():
    module = (
        "import numpy as np\n"
        "_USED = 1\n_DEAD = 2\n__version__ = '0'\n"
        "def _helper():\n    return _USED\n"
        "def _recursive(k):\n    return _recursive(k - 1) if k else 0\n"
        "def _attr_only():\n    pass\n"
        "def _imported():\n    pass\n"
        "class _Unused:\n    pass\n"
        "def public():\n    return _helper()\n"
    )
    other = "from m import _imported\nimport m\nm._attr_only()\n"
    trees = {"m": ast.parse(module), "t": ast.parse(other)}
    assert dead_private_names("m", trees) == ["_DEAD", "_Unused", "_recursive"]


@functools.cache
def _parsed_modules() -> dict[str, ast.Module]:
    return {str(p): ast.parse(p.read_text()) for p in MODULES}


@pytest.mark.parametrize("path", SRC_MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_dead_private_name(path):
    assert dead_private_names(str(path), _parsed_modules()) == []


def calls(name: str):
    """A node test: a call of ``name(...)`` or ``x.name(...)``."""
    return lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None),
        getattr(node.func, "attr", None),
    )


def holds_text(fragment: str):
    """A node test: a string constant, or a literal part of an f-string, containing ``fragment``."""
    return lambda node: (
        isinstance(node, ast.Constant) and isinstance(node.value, str) and fragment in node.value
    )


def sites_of(test, trees: dict[str, ast.Module]) -> list[str]:
    """``key:function`` for each node of ``trees`` that passes ``test``, once per function.

    The function is the innermost one around the node; a node outside every
    function is at ``key:<module>``.
    """
    found = set()

    def visit(key: str, node: ast.AST, where: str) -> None:
        if test(node):
            found.add(f"{key}:{where}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        for child in ast.iter_child_nodes(node):
            visit(key, child, where)

    for key, tree in trees.items():
        visit(key, tree, "<module>")
    return sorted(found)


def test_checker_finds_sites():
    source = (
        "import numpy as np\n"
        "RNG = np.random.default_rng(1)\n"
        "def resolve(seed):\n"
        "    def inner():\n"
        "        raise ValueError(f'the seed must be an integer, got {seed!r}')\n"
        "    return default_rng(seed), inner\n"
        "def refuse(n):\n"
        "    raise ValueError('the count must be an integer')\n"
        "def quiet():\n"
        "    return default_rng\n"
    )
    trees = {"m": ast.parse(source)}
    assert sites_of(calls("default_rng"), trees) == ["m:<module>", "m:resolve"]
    assert sites_of(holds_text("must be an integer"), trees) == ["m:inner", "m:refuse"]
    assert sites_of(holds_text("must be a float"), trees) == []


def constructors_of(name: str, trees: dict[str, ast.Module]) -> list[str]:
    """The keys of ``trees`` whose module calls ``name(...)`` (or ``x.name(...)``)."""
    return sorted({site.partition(":")[0] for site in sites_of(calls(name), trees)})


def test_checker_finds_constructors():
    trees = {
        "a": ast.parse("raise Boom('x')\n"),
        "b": ast.parse("import m\nraise m.Boom('x')\n"),
        "c": ast.parse("try:\n    f()\nexcept Boom:\n    pass\n"),
    }
    assert constructors_of("Boom", trees) == ["a", "b"]


def test_protocol_violation_is_raised_by_the_measurement_module_only():
    # one Born-rule check: a second copy of it elsewhere would construct its own
    trees = {p.name: _parsed_modules()[str(p)] for p in SRC_MODULES}
    assert constructors_of("ProtocolViolation", trees) == ["measurement.py"]


def holders_of(values: set[str], trees: dict[str, ast.Module]) -> list[str]:
    """The keys of ``trees`` whose module holds a string constant equal to one of ``values``."""
    return sorted(
        key
        for key, tree in trees.items()
        if any(
            isinstance(node, ast.Constant) and node.value in values for node in ast.walk(tree)
        )
    )


def test_checker_finds_string_constants():
    trees = {
        "a": ast.parse("if s == 'id':\n    pass\n"),
        "b": ast.parse("T = {'name': 'id'}\n"),
        "c": ast.parse("raise ValueError(f'id {s}')\n"),
        "d": ast.parse("x = id\n"),
    }
    assert holders_of({"id"}, trees) == ["a", "b"]


def test_scheme_ids_are_written_by_the_protocols_module_only():
    # one table of named schemes (``_teleport_layout`` and ``_SCHEMES``)
    trees = {p.name: _parsed_modules()[str(p)] for p in SRC_MODULES}
    assert holders_of({"qftN", "ulock2"}, trees) == ["protocols.py"]


def functions_setting(attrs: set[str], trees: dict[str, ast.Module]) -> list[str]:
    """``key:function`` for each function of ``trees`` that sets one of ``attrs``.

    Setting means assigning ``x.attr`` or passing ``attr=`` to a call.  A
    nested function's sites count for the functions around it too.
    """
    found = set()
    for key, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                stored = isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                if (stored and node.attr in attrs) or (
                    isinstance(node, ast.keyword) and node.arg in attrs
                ):
                    found.add(f"{key}:{fn.name}")
    return sorted(found)


def test_checker_finds_functions_setting_attributes():
    source = (
        "class R:\n    passed: bool = False\n"
        "def verdict(r):\n    r.passed = all(r.checks)\n"
        "def unpack(r, s):\n    r.ok, s.passed = 1, 2\n"
        "def build():\n    return R(passed=True)\n"
        "def reads(r):\n    return r.passed and r.other\n"
        "def other(r):\n    r.other = 1\n"
    )
    trees = {"m": ast.parse(source)}
    assert functions_setting({"passed"}, trees) == ["m:build", "m:unpack", "m:verdict"]


def test_lock_verdict_is_set_in_one_function():
    # one verdict rule: a second copy of it would set valid_lock or passed itself
    trees = {p.name: _parsed_modules()[str(p)] for p in SRC_MODULES}
    setters = functions_setting({"valid_lock", "passed"}, trees)
    assert len(setters) == 1, setters


def decorated_public_functions(trees: dict[str, ast.Module]) -> list[str]:
    """``key:function`` for each public top-level function of ``trees`` with a decorator.

    The benchmark's tracer wraps plain functions only: a cache decorator
    such as ``functools.cache`` would hide the function from it.  Caches
    live in private module-level state instead.
    """
    return sorted(
        f"{key}:{node.name}"
        for key, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.decorator_list
    )


def test_checker_finds_decorated_public_functions():
    source = (
        "import functools\n"
        "@functools.cache\ndef cached(n):\n    return n\n"
        "@functools.lru_cache(maxsize=4)\nasync def limited(n):\n    return n\n"
        "@functools.cache\ndef _private(n):\n    return n\n"
        "def plain(n):\n    return n\n"
        "class C:\n    @staticmethod\n    def method():\n        pass\n"
    )
    trees = {"m": ast.parse(source)}
    assert decorated_public_functions(trees) == ["m:cached", "m:limited"]


def test_public_functions_are_plain():
    trees = {p.name: _parsed_modules()[str(p)] for p in SRC_MODULES}
    assert decorated_public_functions(trees) == []


# Each input rule's home, by a text that only its refusal holds, or the call only it makes
_RULE_HOMES = [
    (calls("default_rng"), "measurement.py:resolve_rng"),
    (holds_text("must be an integer, got "), "qlinalg.py:_as_count"),
    (holds_text("must be 0 or 1, got "), "gates.py:as_bits"),
    (holds_text("the lock must be a Unitary, got "), "protocols.py:_require_lock"),
    (holds_text("the lock must act on "), "protocols.py:_require_lock"),
]


@pytest.mark.parametrize(
    "test, home", _RULE_HOMES, ids=["seed", "count", "bits", "lock type", "lock size"]
)
def test_each_input_rule_has_one_home(test, home):
    # a second copy of a rule would hold its message, or call default_rng, itself
    trees = {p.name: _parsed_modules()[str(p)] for p in SRC_MODULES}
    assert sites_of(test, trees) == [home]


def test_step_names_are_written_once():
    # the engines record their steps under DENSE_STEPS and TELEPORT_STEPS, not literals
    trees = {p.name: _parsed_modules()[str(p)] for p in SRC_MODULES}
    sites = sites_of(
        lambda node: isinstance(node, ast.Constant) and re.fullmatch(r"step\d_\w+", str(node.value)),
        trees,
    )
    assert sites == ["protocols.py:<module>"]
