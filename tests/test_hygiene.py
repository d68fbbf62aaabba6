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

A defaulted parameter of a `src` function that no call in `src`,
`tests`, `demos` or `bench/workloads.py` sets is a knob with one value,
so it must be a constant instead.

A top-level function, class or constant of `src` that no `src` module
loads serves only its callers outside the library, and so does a method
whose name no `src` module reads as an attribute.  Test-only builders
and oracles belong in `tests`, so such a name must be listed with the
reason it stays public.
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


def unset_defaults(defining, calling=()):
    """Defaulted parameters of the functions in `defining` ({module:
    source}) that no call sets, as sorted (module, function, parameter).

    Calls are read from `defining` and from the sources in `calling`, and
    matched to definitions by name; `C(...)` is a call of `C.__init__`.
    A call sets a parameter by keyword, by position (after `self` or
    `cls` for a method), or through `*args` / `**kwargs`.  Passing on an
    enclosing function's own unset parameter (`f(budget=budget)`) sets
    nothing.
    """
    targets = {}    # called name -> [(function, positional names)]
    defaults = {}   # function -> its defaulted parameter names
    enclosing = {}  # call node -> the function whose body holds it

    def visit(module, node, prefix, cls, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and func is not None:
                enclosing[child] = func
            if isinstance(child, ast.ClassDef):
                visit(module, child, f"{prefix}{child.name}.", child.name,
                      func)
            elif not isinstance(child, FUNCTIONS):
                visit(module, child, prefix, cls, func)
            else:
                qual = (module, prefix + child.name)
                args = child.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                if cls is not None and not any(
                        getattr(d, "id", None) == "staticmethod"
                        for d in child.decorator_list):
                    positional = positional[1:]
                defaults[qual] = set(
                    positional[len(positional) - len(args.defaults):]) | {
                    a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None}
                names = {child.name}
                if child.name == "__init__":
                    names.add(cls)
                for name in names:
                    targets.setdefault(name, []).append((qual, positional))
                visit(module, child, f"{prefix}{child.name}.", None, qual)

    trees = [ast.parse(source) for source in calling]
    for module, source in defining.items():
        trees.append(ast.parse(source))
        visit(module, trees[-1], "", None, None)

    def passed_on(call, value):
        func = enclosing.get(call)
        if isinstance(value, ast.Name) and value.id in defaults.get(func, ()):
            return func + (value.id,)
        return None

    sets = []   # (parameter set, the enclosing parameter it passes on)
    for call in (node for tree in trees for node in ast.walk(tree)
                 if isinstance(node, ast.Call)):
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        spread = (any(isinstance(a, ast.Starred) for a in call.args)
                  or any(kw.arg is None for kw in call.keywords))
        for qual, positional in targets.get(name, ()):
            if spread:
                sets.extend((qual + (p,), None) for p in defaults[qual])
                continue
            sets.extend((qual + (p,), passed_on(call, arg))
                        for p, arg in zip(positional, call.args))
            sets.extend((qual + (kw.arg,), passed_on(call, kw.value))
                        for kw in call.keywords)
    live = set()
    while True:
        grown = live | {p for p, via in sets if via is None or via in live}
        if grown == live:
            break
        live = grown
    return sorted(qual + (p,) for qual, params in defaults.items()
                  for p in params if qual + (p,) not in live)


def test_default_rule_flags_unset_and_keeps_set():
    library = ("class C:\n"
               "    def __init__(self, a, b=1, c=2):\n"
               "        self.a = a\n"
               "    def m(self, x=0, *, y=1):\n"
               "        return x\n"
               "    @staticmethod\n"
               "    def s(x=0, z=0):\n"
               "        return x\n"
               "def f(a, k=0):\n"
               "    return a\n"
               "def g(a, k=None):\n"
               "    return f(a, k=k)\n"
               "def h(a, w=0, u=0):\n"
               "    return g(a, w), q(v=u), star(*a), stars(**a)\n"
               "def q(v=0):\n"
               "    return v\n"
               "def star(x=0):\n"
               "    return x\n"
               "def stars(y=0):\n"
               "    return y\n"
               "def r(n, lo=0):\n"
               "    return r(n - 1, lo)\n")
    calls = "C(0, 2).m(1)\nC.s(5)\nh(1, u=3)\nr(3)\n"
    assert unset_defaults({"lib": library}, [calls]) == [
        ("lib", "C.__init__", "c"), ("lib", "C.m", "y"), ("lib", "C.s", "z"),
        ("lib", "f", "k"), ("lib", "g", "k"), ("lib", "h", "w"),
        ("lib", "r", "lo")]


def test_no_unset_defaults():
    src = [p for p in CHECKED if p.relative_to(ROOT).parts[0] == "src"]
    calling = [p for p in CHECKED if p not in src]
    calling.append(ROOT / "bench" / "workloads.py")
    assert unset_defaults({p.stem: p.read_text() for p in src},
                          [p.read_text() for p in calling]) == []


def unloaded_definitions(modules):
    """Top-level functions, classes and constants, and methods of
    top-level classes, of `modules` ({module: source}) that no module
    loads, as sorted (module, name, line); a method is named
    `Class.method`.

    A name is loaded when a top-level statement of its own module other
    than its definition reads it, so a recursive call does not count, or
    when another module imports it (`from .module import name`); an
    import that is never read is caught by the import rule.  A method is
    loaded when code outside its own body reads an attribute of its name
    on any object, since the reader's type is not known; a `__dunder__`
    method is called by Python itself and is not checked.
    """
    defined = {}
    loaded = set()
    methods = {}    # (module, Class.method) -> method name
    attrs = {}      # attribute name -> the methods whose bodies read it
    for module, source in modules.items():
        for stmt in ast.parse(source).body:
            parts = [(stmt, None)]
            if isinstance(stmt, ast.ClassDef):
                parts = [(item, (module, f"{stmt.name}.{item.name}"))
                         if isinstance(item, FUNCTIONS) else (item, None)
                         for item in stmt.body]
            for part, qual in parts:
                if qual is not None and not part.name.startswith("__"):
                    methods[qual] = part.name
                    defined[qual] = part.lineno
                for node in ast.walk(part):
                    if (isinstance(node, ast.Attribute)
                            and isinstance(node.ctx, ast.Load)):
                        attrs.setdefault(node.attr, set()).add(qual)
            if isinstance(stmt, (*FUNCTIONS, ast.ClassDef)):
                names = {stmt.name}
            elif isinstance(stmt, ast.Assign):
                names = {node.id for target in stmt.targets
                         for node in ast.walk(target)
                         if isinstance(node, ast.Name)}
            elif isinstance(stmt, ast.AnnAssign):
                names = {getattr(stmt.target, "id", None)} - {None}
            else:
                names = set()
            defined.update(((module, name), stmt.lineno) for name in names)
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load)
                        and node.id not in names):
                    loaded.add((module, node.id))
                elif isinstance(node, ast.ImportFrom) and node.level == 1:
                    loaded.update((node.module, alias.name)
                                  for alias in node.names)
    loaded.update(qual for qual, name in methods.items()
                  if attrs.get(name, set()) - {qual})
    return sorted(key + (line,) for key, line in defined.items()
                  if key not in loaded)


def test_definition_rule_flags_unloaded_and_keeps_loaded():
    lib = ("from .util import helper\n"
           "LIMIT = 3\n"
           "UNUSED: int = 4\n"
           "_A, _B = 1, 2\n"
           "def api(x):\n"
           "    return helper(x) + LIMIT + _A\n"
           "def rec(n):\n"
           "    return rec(n - 1) if n else 0\n"
           "class Thing:\n"
           "    def make(self):\n"
           "        return Thing()\n"
           "    def __eq__(self, other):\n"
           "        return self.size == other.size\n"
           "    @property\n"
           "    def size(self):\n"
           "        return 1\n"
           "    def again(self):\n"
           "        return self.again()\n"
           "if __name__ == '__main__':\n"
           "    api(1)\n")
    util = ("def helper(x):\n"
            "    return x\n"
            "def lazy():\n"
            "    from .lib import Thing\n"
            "    return Thing\n")
    assert unloaded_definitions({"lib": lib, "util": util}) == [
        ("lib", "Thing.again", 17), ("lib", "Thing.make", 10),
        ("lib", "UNUSED", 3), ("lib", "_B", 4), ("lib", "rec", 7),
        ("util", "lazy", 3)]


# `src` names that no `src` module loads, each with why it stays public
PUBLIC_UNLOADED = {
    "bounds.comparison_rows": "the table of demos/bounds_walkthrough.py",
    "gausscodes.FIGURE_EIGHT": "an input knot of the knot_sums workload",
    "gausscodes.alexander_det": "the knot_sums workload and the ribbon "
                                "demo refute unknottedness with it",
    "gausscodes.LEFT_TREFOIL": "an input knot of the knot_sums workload",
    "invariants.fit_arrow_formula": "re-derives the frozen weights; order 4 "
                                    "will fit its patterns with it",
    "linalg.WeightSystem.annihilates": "the chord_dims workload checks every "
                                       "dual functional with it",
    "linalg.WeightSystem.normalized_at": "demos/dimensions_walkthrough.py "
                                         "scales its weight system with it",
    "ribbon.FormalKnot.as_code": "the planned `ribbon index` realizes formal "
                                 "sums as Gauss codes with it",
    "ribbon.formal_vn_inverse": "the planned `ribbon match` builds on it",
    "ribbon.realize_weights": "the planned `ribbon match` builds on it",
}


def test_src_definitions_are_loaded_or_listed():
    src = {p.stem: p.read_text() for p in CHECKED
           if p.relative_to(ROOT).parts[0] == "src"}
    found = [f"{module}.{name}" for module, name, _ in
             unloaded_definitions(src)]
    assert found == sorted(PUBLIC_UNLOADED)
