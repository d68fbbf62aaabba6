"""Source hygiene: no module imports a name it never reads, and no
function assigns a local it never reads.

A name bound by `import` or `from ... import` counts as used when it
appears as an `ast.Name` anywhere in the module, which covers the base of
every attribute chain (`os.path.join` reads `os`).  Package `__init__.py`
files re-export names and `__future__` imports are directives, so both
are exempt.

A name bound by a plain `name = ...` inside a function counts as used
when the function, nested functions included, loads it.  Names the
function shares through `global` or `nonlocal` are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKED = sorted(p for top in ("src", "tests", "demos")
                 for p in (ROOT / top).rglob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """Names a module imports but never reads, with their line numbers."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound.setdefault(alias.asname or alias.name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unused_locals(source):
    """Plain `name = ...` locals a function never loads, with line numbers."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, FUNCTIONS):
            continue
        bound = {}
        stack = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                continue  # another scope; checked on its own
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound.setdefault(target.id, node.lineno)
            stack.extend(ast.iter_child_nodes(node))
        loaded = {node.id for node in ast.walk(func)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        shared = {name for node in ast.walk(func)
                  if isinstance(node, (ast.Global, ast.Nonlocal))
                  for name in node.names}
        found.extend((line, name) for name, line in bound.items()
                     if name not in loaded and name not in shared)
    return sorted(found)


def test_rule_flags_unused_and_keeps_used():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path as osp\nimport sys\n"
              "from math import gcd as g, lcm\n"
              "print(sys.argv, osp.sep, g)\n")
    assert unused_imports(source) == [(2, "os"), (5, "lcm")]


def test_checked_tree_is_not_empty():
    tops = {p.relative_to(ROOT).parts[0] for p in CHECKED}
    assert tops == {"src", "tests", "demos"}


@pytest.mark.parametrize("path", CHECKED,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_local_rule_flags_unused_and_keeps_used():
    source = ("def f(xs):\n"
              "    dead = {}\n"
              "    total = 0\n"
              "    seen = set()\n"
              "    a, b = xs\n"
              "    count = 0\n"
              "    def inner():\n"
              "        nonlocal count\n"
              "        count = 1\n"
              "        unread = seen\n"
              "    for x in xs:\n"
              "        total += x\n"
              "        last = x\n"
              "    return total\n")
    assert unused_locals(source) == [(2, "dead"), (10, "unread"), (13, "last")]


@pytest.mark.parametrize("path", CHECKED,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_locals(path):
    assert unused_locals(path.read_text()) == []
