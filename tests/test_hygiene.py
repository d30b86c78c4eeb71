"""Source hygiene of the package: no module imports a name it never uses,
every import sits at module level, one function holds the square-and-
multiply loop, one function writes markdown table rows, every division
is exact, importing the command line tool loads no module it does not
need, every public function and class is reached from the package,
its scripts or its benchmark, only the tower's constructor sets an
attribute of a tower, and lru_cache sits on five functions only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ffverify"
# __init__.py imports names only to re-export them.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by an import (at any scope) that no other name in
    the module reads, in source order; `from __future__` is skipped."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno)
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(
        imported, key=lambda t: t[1]) if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "from math import gcd, lcm\n"
              "def f():\n"
              "    from fractions import Fraction\n"
              "    return gcd(2, 4), os.sep\n")
    assert unused_imports(source) == ["osp (line 2)", "lcm (line 3)",
                                      "Fraction (line 5)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def function_imports(source: str) -> list[str]:
    """The import statements inside a function body, as "f (line n)"
    with f the innermost enclosing function, in source order."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if func and isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append(f"{func} (line {child.lineno})")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_function_imports_are_found():
    source = ("import os\n"
              "def f():\n"
              "    import sys\n"
              "    def g():\n"
              "        from math import gcd\n"
              "    return os.sep\n")
    assert function_imports(source) == ["f (line 3)", "g (line 5)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_function_level_imports(path):
    assert function_imports(path.read_text()) == []


def right_shift_assignments(source: str) -> list[str]:
    """The `>>=` statements, as "f (line n)" with f the dotted name of
    the innermost enclosing class or function ("<module>" at top level),
    in source order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.AugAssign)
                    and isinstance(child.op, ast.RShift)):
                found.append(f"{scope or '<module>'} (line {child.lineno})")
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(ast.parse(source), None)
    return found


def test_right_shift_assignments_are_found():
    source = ("n = 8\n"
              "n >>= 1\n"
              "class A:\n"
              "    def power(self, n):\n"
              "        n >>= 1\n"
              "        def inner(m):\n"
              "            m >>= 2\n"
              "        return n >> 1\n")
    assert right_shift_assignments(source) == [
        "<module> (line 2)", "A.power (line 5)", "A.power.inner (line 7)"]


def test_one_square_and_multiply():
    """fields.power is the package's one square-and-multiply loop; every
    other exponentiation calls it, so `>>=` appears nowhere else."""
    found = {path.name: [f.split(" ")[0]
                         for f in right_shift_assignments(path.read_text())]
             for path in sorted(SRC.glob("*.py"))}
    assert {name: f for name, f in found.items() if f} == {
        "fields.py": ["power"]}


def table_row_strings(source: str) -> list[str]:
    """The string constants (f-string parts included) that start with
    "| " or contain "| ---", the marks of a markdown table row, as
    "f (line n)" with f the dotted name of the innermost enclosing class
    or function ("<module>" at top level), in source order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Constant) and isinstance(child.value, str)
                    and (child.value.startswith("| ")
                         or "| ---" in child.value)):
                found.append(f"{scope or '<module>'} (line {child.lineno})")
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(ast.parse(source), None)
    return found


def test_table_row_strings_are_found():
    source = ("HEAD = '| a | b |'\n"
              "class T:\n"
              "    def md(self, x):\n"
              "        return [f'| {x} |', 'rule: | --- |', 'a | b', '|x']\n"
              "def csv(x):\n"
              "    return f'{x},|,| '\n")
    assert table_row_strings(source) == [
        "<module> (line 1)", "T.md (line 4)", "T.md (line 4)"]


def test_one_markdown_table_writer():
    """howe.markdown_table writes every markdown table of the package
    and its scripts; no other code spells a table row."""
    found = {path.relative_to(ROOT).as_posix(): [
        f.split(" ")[0] for f in table_row_strings(path.read_text())]
        for top in ("src", "scripts") for path in sorted(
            (ROOT / top).rglob("*.py"))}
    assert {name: sorted(set(f)) for name, f in found.items() if f} == {
        "src/ffverify/howe.py": ["markdown_table"]}


def inexact_divisions(source: str) -> list[str]:
    """The divisions whose left operand is not a Fraction(...) call, the
    float literals and the float(...) calls, as "what (line n)" in source
    order.  Between ints, / yields a float; Fraction(a) / b stays exact."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            left = node.left
            if not (isinstance(left, ast.Call)
                    and isinstance(left.func, ast.Name)
                    and left.func.id == "Fraction"):
                found.append((node.lineno, "/"))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "/="))
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, "float literal"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float()"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_inexact_divisions_are_found():
    source = ("from fractions import Fraction\n"
              "a = Fraction(1) / 3 + Fraction(2, 3) / Fraction(1, 2)\n"
              "b = 1 / 2\n"
              "c = a / b\n"
              "c /= 2\n"
              "d = a // 2 if a else float('nan')\n"
              "e = 0.5\n"
              "f = 'no / float() in strings'\n")
    assert inexact_divisions(source) == ["/ (line 3)", "/ (line 4)",
                                         "/= (line 5)", "float() (line 6)",
                                         "float literal (line 7)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_divisions_are_exact(path):
    assert inexact_divisions(path.read_text()) == []


# Modules that `import ffverify.cli` must not load: dataclasses (which
# loads inspect) and csv cost start-up time in every process, and the
# package needs neither.
_STARTUP_EXCLUDED = ("dataclasses", "inspect", "csv")


def test_cli_import_loads_no_heavy_module():
    """Under python -S, site imports nothing, so every module loaded is
    loaded by ffverify.cli and what it imports."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = ("import sys, ffverify.cli; "
             f"print(sorted(m for m in {_STARTUP_EXCLUDED!r} "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def unreached_definitions(modules: dict, readers: list) -> list[str]:
    """The public module-level functions and classes of modules ({name:
    source}) that no source in readers reads, as "module.name" in source
    order.  A read is a bare name or an attribute; a read inside the
    module-level definition of the same name (a recursive call) does not
    count, and neither does an import, so a re-export reaches nothing."""
    read = set()
    for source in readers:
        tree = ast.parse(source)

        def visit(node, own):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Name) and child.id != own:
                    read.add(child.id)
                elif isinstance(child, ast.Attribute) and child.attr != own:
                    read.add(child.attr)
                visit(child, child.name if node is tree and isinstance(
                    child, (ast.FunctionDef, ast.ClassDef)) else own)

        visit(tree, None)
    return [f"{module}.{node.name}" for module, source in modules.items()
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in read]


def test_unreached_definitions_are_found():
    module = ("def used():\n"
              "    return 1\n"
              "def dead(n):\n"
              "    return dead(n - 1) if n else used()\n"
              "def _private():\n"
              "    pass\n"
              "class Dead:\n"
              "    pass\n"
              "class Used:\n"
              "    pass\n")
    reexport = "from .m import Dead, dead, used\n"
    caller = "import m\nm.used()\nx = isinstance(1, Used)\n"
    assert unreached_definitions({"m": module}, [module, reexport, caller]) == [
        "m.dead", "m.Dead"]


# The tests compare the structured counts against count_points_naive, the
# independent route, so it is kept although only tests call it.
_TEST_ONLY_ROUTES = ["varieties.count_points_naive"]


def test_every_public_definition_is_reached():
    """No public function or class of the package is reached only by
    tests: src/ (but the re-exports of __init__.py), scripts/ and
    perfbench/ read each one."""
    readers = [path.read_text() for top in ("src", "scripts", "perfbench")
               for path in sorted((ROOT / top).rglob("*.py"))
               if path != SRC / "__init__.py"]
    modules = {path.stem: path.read_text() for path in MODULES}
    assert unreached_definitions(modules, readers) == _TEST_ONLY_ROUTES


# The names under which code holds a tower: TowerContext's self, and
# ctx or tower, bare or as an attribute (K.tower, _LevelArith.ctx).
_TOWER_NAMES = ("ctx", "tower")


def tower_attribute_assignments(source: str) -> list[str]:
    """The statements that set or delete an attribute of a tower, as
    "f (line n)" with f the dotted name of the innermost enclosing class
    or function ("<module>" at top level), in source order.  A setattr
    or delattr call on a tower counts too."""
    found = []

    def is_tower(node, scope):
        if isinstance(node, ast.Name):
            return (node.id in _TOWER_NAMES
                    or (node.id == "self"
                        and scope.split(".")[0] == "TowerContext"))
        return isinstance(node, ast.Attribute) and node.attr in _TOWER_NAMES

    def targets(node):
        if isinstance(node, ast.Assign):
            return node.targets
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            return [node.target]
        if isinstance(node, ast.Delete):
            return node.targets
        return []

    def flat(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            return [t for elt in target.elts for t in flat(elt)]
        return [target.value if isinstance(target, ast.Starred) else target]

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            hits = [t for target in targets(child) for t in flat(target)
                    if isinstance(t, ast.Attribute) and is_tower(t.value, scope)]
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id in ("setattr", "delattr") and child.args
                    and is_tower(child.args[0], scope)):
                hits.append(child)
            found.extend(f"{scope or '<module>'} (line {child.lineno})"
                         for _ in hits)
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_tower_attribute_assignments_are_found():
    source = ("class TowerContext:\n"
              "    def __init__(self):\n"
              "        self.p, self._tables = 2, {}\n"
              "    def table(self, key):\n"
              "        self._tables[key] = 1\n"
              "        self.extra = 1\n"
              "class K:\n"
              "    def __init__(self, tower):\n"
              "        self.tower = tower\n"
              "        self.tower._cache = {}\n"
              "def grid(ctx):\n"
              "    ctx._grid += 1\n"
              "    ctx.table('grid', dict)['x'] = 1\n"
              "    setattr(ctx, 'y', 2)\n"
              "    del ctx.y\n")
    assert tower_attribute_assignments(source) == [
        "TowerContext.__init__ (line 3)", "TowerContext.__init__ (line 3)",
        "TowerContext.table (line 6)", "K.__init__ (line 10)",
        "grid (line 12)", "grid (line 14)", "grid (line 15)"]


def test_only_the_tower_constructor_sets_a_tower_attribute():
    """What code derives from a tower it keeps through
    TowerContext.table, so TowerContext.__init__ is the one place that
    sets an attribute of a tower, in the package and its scripts."""
    found = {path.relative_to(ROOT).as_posix(): sorted(set(
        f.split(" ")[0] for f in tower_attribute_assignments(path.read_text())))
        for top in ("src", "scripts") for path in sorted(
            (ROOT / top).rglob("*.py"))}
    assert {name: f for name, f in found.items() if f} == {
        "src/ffverify/fields.py": ["TowerContext.__init__"]}


# The process-wide caches: each is keyed by plain ints where no tower
# exists, and returns an immutable result.
_LRU_CACHED = {"characters.py": ["brauer_decompositions"],
               "cyclotomic.py": ["_power_table", "cyclotomic_coeffs"],
               "fields.py": ["build_tower", "least_irreducible"]}
_CACHE_NAMES = ("lru_cache", "cache", "cached_property")


def _is_cache_name(node) -> bool:
    return (isinstance(node, ast.Name) and node.id in _CACHE_NAMES
            or isinstance(node, ast.Attribute) and node.attr in _CACHE_NAMES)


def cache_uses(source: str) -> list[str]:
    """The functions decorated by functools.lru_cache, cache or
    cached_property, by name, and "<expr> (line n)" for any other read
    of those names, in source order; imports are not reads."""
    tree = ast.parse(source)
    found, decorators = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                dec = dec.func if isinstance(dec, ast.Call) else dec
                if _is_cache_name(dec):
                    found.append((dec.lineno, node.name))
                    decorators.add(dec)
    found += [(node.lineno, f"<expr> (line {node.lineno})")
              for node in ast.walk(tree)
              if _is_cache_name(node) and node not in decorators]
    return [name for _, name in sorted(found)]


def test_cache_uses_are_found():
    source = ("import functools\n"
              "from functools import cache, lru_cache\n"
              "@lru_cache(maxsize=None)\n"
              "def a(n):\n"
              "    return n\n"
              "@functools.cache\n"
              "def b(n):\n"
              "    return n\n"
              "c = lru_cache(maxsize=2)(b)\n"
              "class T:\n"
              "    @functools.cached_property\n"
              "    def d(self):\n"
              "        return 1\n")
    assert cache_uses(source) == ["a", "b", "<expr> (line 9)", "d"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_lru_cache_only_where_no_tower_exists(path):
    """A table derived from a tower is kept by TowerContext.table; the
    process-wide caches are the five functions of _LRU_CACHED."""
    assert sorted(cache_uses(path.read_text())) == _LRU_CACHED.get(path.name, [])
