"""Source hygiene of the package: no module imports a name it never uses,
every import sits at module level, one function holds the square-and-
multiply loop, one function writes markdown table rows, one module
holds the lazy loader, every division is exact, importing the command
line tool loads no module it does not need, the package and each
command compile only the layers their caller reaches, each layer
imports only the layers of a written-out graph, every public
function and class is reached from the package, its scripts or its
benchmark, every statement runs in a small fixed matrix of the program,
only the tower's constructor sets an attribute of a tower, and
lru_cache sits on five functions only."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trace_matrix

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ffverify"
# The layers: __init__.py only registers them and looks names up in them.
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


def scoped_nodes(source: str, match) -> list[str]:
    """The nodes for which match holds, as "f (line n)" with f the dotted
    name of the innermost enclosing class or function ("<module>" at top
    level), in source order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append(f"{scope or '<module>'} (line {child.lineno})")
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(ast.parse(source), None)
    return found


def right_shift_assignments(source: str) -> list[str]:
    """The `>>=` statements, as scoped_nodes names them."""
    return scoped_nodes(source, lambda node: isinstance(node, ast.AugAssign)
                        and isinstance(node.op, ast.RShift))


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


def lazy_loader_uses(source: str) -> list[str]:
    """The imports of importlib or LazyLoader and the reads of either
    name, bare or as an attribute, as scoped_nodes names them."""
    def match(node):
        if isinstance(node, ast.Import):
            return any(a.name.split(".")[0] == "importlib"
                       for a in node.names)
        if isinstance(node, ast.ImportFrom):
            return ((node.module or "").split(".")[0] == "importlib"
                    or any(a.name == "LazyLoader" for a in node.names))
        return (isinstance(node, ast.Name)
                and node.id in ("importlib", "LazyLoader")
                or isinstance(node, ast.Attribute)
                and node.attr == "LazyLoader")
    return scoped_nodes(source, match)


def test_lazy_loader_uses_are_found():
    source = ("import importlib.util\n"
              "from importlib import import_module\n"
              "from .loader import LazyLoader\n"
              "def load(spec):\n"
              "    return importlib.util.LazyLoader(spec.loader)\n"
              "class Registry:\n"
              "    def get(self, util):\n"
              "        return util.LazyLoader, LazyLoader\n"
              "lazy = 'importlib.util.LazyLoader'\n")
    assert lazy_loader_uses(source) == [
        "<module> (line 1)", "<module> (line 2)", "<module> (line 3)",
        "load (line 5)", "load (line 5)", "Registry.get (line 8)",
        "Registry.get (line 8)"]


def test_one_lazy_loader():
    """`import ffverify` registers every layer through LazyLoader; no
    other module of the package imports or reads importlib, so no layer
    is loaded a second way."""
    found = {path.name: sorted(set(
        f.split(" ")[0] for f in lazy_loader_uses(path.read_text())))
        for path in sorted(SRC.glob("*.py"))}
    assert {name: f for name, f in found.items() if f} == {
        "__init__.py": ["<module>", "_register"]}


# The trial division of fields, and the functions of each module that
# may read it: each bounds its argument first.  prime_power,
# char_of and ell_parts check an input (q = p^e, q and ell);
# _is_irreducible factors a degree of at most 4e and Level.log_tables
# the order of a level of a tower that prime_power has bounded.
_TRIAL_DIVISIONS = ("prime_factors",)
_TRIAL_DIVISION_READERS = {
    "src/ffverify/characters.py": ["char_of", "ell_parts"],
    "src/ffverify/fields.py": ["Level.log_tables", "_is_irreducible",
                               "prime_power"]}


def trial_division_reads(source: str) -> list[str]:
    """The reads of prime_factors, bare or as an attribute and called
    or not, as scoped_nodes names them; imports and the def statements
    are not reads."""
    return scoped_nodes(source, lambda node: (
        isinstance(node, ast.Name) and node.id in _TRIAL_DIVISIONS
        or isinstance(node, ast.Attribute)
        and node.attr in _TRIAL_DIVISIONS))


def test_trial_division_reads_are_found():
    source = ("from .fields import prime_factors\n"
              "def prime_factors(n):\n"
              "    return [n]\n"
              "def ell_parts(q, ell):\n"
              "    if ell < 2 ** 32 and prime_factors(ell) == [ell]:\n"
              "        return q\n"
              "class Table:\n"
              "    def order(self, q):\n"
              "        return fields.prime_factors(q)\n"
              "check = prime_factors\n"
              "odd = list(map(prime_factors, range(9)))\n")
    assert trial_division_reads(source) == [
        "ell_parts (line 5)", "Table.order (line 9)", "<module> (line 10)",
        "<module> (line 11)"]


def test_every_trial_division_sits_behind_a_bound():
    """prime_factors divides up to the square root of its argument, so
    an unbounded input would run for hours: only the functions of
    _TRIAL_DIVISION_READERS, which bound it, read it, in the package and
    its scripts."""
    found = {path.relative_to(ROOT).as_posix(): sorted(set(
        f.split(" ")[0] for f in trial_division_reads(path.read_text())))
        for top in ("src", "scripts") for path in sorted(
            (ROOT / top).rglob("*.py"))}
    assert {name: f for name, f in found.items() if f} == (
        _TRIAL_DIVISION_READERS)


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
    """cli.markdown_table writes every markdown table of the package
    and its scripts; no other code spells a table row."""
    found = {path.relative_to(ROOT).as_posix(): [
        f.split(" ")[0] for f in table_row_strings(path.read_text())]
        for top in ("src", "scripts") for path in sorted(
            (ROOT / top).rglob("*.py"))}
    assert {name: sorted(set(f)) for name, f in found.items() if f} == {
        "src/ffverify/cli.py": ["markdown_table"]}


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


def loaded_modules(code: str, modules) -> list:
    """The names in modules of the modules that running code loads in a
    fresh python -S process.  Under -S, site imports nothing, so every
    module loaded is loaded by code and what it imports."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = (f"{code}\nimport sys\n"
             f"print(sorted(set({tuple(modules)!r}) & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    return ast.literal_eval(out)


def test_cli_import_loads_no_heavy_module():
    assert loaded_modules("import ffverify.cli", _STARTUP_EXCLUDED) == []


def compiled_modules(code: str) -> list:
    """The modules of src/ffverify whose code runs, by file stem, when
    code runs in a fresh python -S process, read from the exec audit
    events of module code objects.  `import ffverify` puts every layer
    in sys.modules without running it, so membership there shows
    nothing."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = ("import contextlib, io, os, sys\n"
             f"src = {str(SRC) + os.sep!r}\n"
             "ran = set()\n"
             "def hook(event, args):\n"
             "    code = args[0] if event == 'exec' else None\n"
             "    if (getattr(code, 'co_name', None) == '<module>'\n"
             "            and code.co_filename.startswith(src)):\n"
             "        ran.add(os.path.basename(code.co_filename)[:-3])\n"
             "sys.addaudithook(hook)\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    exec({code!r})\n"
             "print(sorted(ran))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    return ast.literal_eval(out)


@pytest.mark.parametrize("code,layers", [
    ("import ffverify", []),
    ("import ffverify; ffverify.build_tower(3, 1)", ["fields"]),
    ("from ffverify import fixed_point_grid", ["fields", "fixed_points"]),
], ids=["import", "build_tower", "fixed_point_grid"])
def test_the_package_loads_only_the_layers_a_caller_reaches(code, layers):
    """The package runs a layer when one of its names is first looked
    up, so a caller that needs a tower compiles no character table."""
    assert compiled_modules(code) == sorted(["__init__"] + layers)


def _cli(*argv) -> str:
    """The code that runs ffverify.cli.main on argv."""
    return f"import ffverify.cli\nffverify.cli.main({list(argv)!r})"


_CLI_BASE = ["__init__", "cli", "fields", "varieties"]
# what a theta table runs
_THETA = ["__init__", "characters", "cyclotomic", "fields", "howe"]


@pytest.mark.parametrize("code,modules", [
    (_cli("count", "--p", "3", "--n", "2"), _CLI_BASE),
    (_cli("fixed-points", "--p", "3"), _CLI_BASE + ["fixed_points"]),
    (_cli("gauss", "--p", "3"), _CLI_BASE + ["cyclotomic"]),
    (_cli("verify", "--p", "3", "--ell", "5"),
     [p.stem for p in SRC.glob("*.py")]),
    (_cli("howe", "--p", "3"), _THETA + ["cli", "varieties"]),
    # cli.markdown_table writes every --format md table: no theta layer
    (_cli("count", "--p", "3", "--n", "2", "--format", "md"), _CLI_BASE),
    (_cli("gauss", "--p", "3", "--format", "md"), _CLI_BASE + ["cyclotomic"]),
    (_cli("fixed-points", "--p", "3", "--format", "md"),
     _CLI_BASE + ["fixed_points"]),
    # the library path of the benchmark's lib job
    ("from ffverify import howe\nhowe.theta_mod_ell(2, 13, 7)", _THETA),
], ids=["count", "fixed-points", "gauss", "verify", "howe", "count-md",
        "gauss-md", "fixed-points-md", "theta_mod_ell"])
def test_each_command_compiles_only_the_layers_it_reaches(code, modules):
    """`import ffverify` registers every layer without running it, so a
    count compiles neither the character tables nor the theta layer, and
    a theta table neither the fixed-point grid nor the traces, which
    only howe.verify_all reads.  The parser reads
    varieties.VARIETY_KINDS and varieties.DEFAULT_BUDGET, so every
    command compiles varieties."""
    assert compiled_modules(code) == sorted(modules)


# The layer graph: each layer and the layers it imports.  A layer
# compiles the layers it imports as soon as it reads a name from one,
# so an edge added here is a layer more for every caller of it.
_LAYER_GRAPH = {
    "fields": [],
    "cyclotomic": ["fields"],
    "varieties": ["fields"],
    "fixed_points": ["fields"],
    "characters": ["cyclotomic", "fields"],
    "traces": ["cyclotomic", "fields", "fixed_points"],
    "howe": ["characters", "cyclotomic", "fields", "fixed_points", "traces",
             "varieties"],
    "cli": ["characters", "cyclotomic", "fields", "fixed_points", "howe",
            "varieties"],
}


def layer_edges(sources: dict) -> dict:
    """{layer: sorted layers it imports} for sources ({layer: source}),
    read from its relative imports at any scope: `from .layer import x`
    and `from . import layer`."""
    graph = {}
    for layer, source in sources.items():
        found = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found |= ({node.module.split(".")[0]} if node.module
                          else {a.name for a in node.names})
        graph[layer] = sorted(found)
    return graph


def edge_changes(graph: dict, expected: dict) -> list[str]:
    """The edges graph adds to expected ("a -> b") and those it drops
    ("a -/-> b"), layer by layer in the order of graph."""
    return [f"{layer} {arrow} {other}" for layer, imports in graph.items()
            for arrow, others in (
                ("->", sorted(set(imports) - set(expected.get(layer, ())))),
                ("-/->", sorted(set(expected.get(layer, ())) - set(imports))))
            for other in others]


def test_an_added_layer_edge_is_found():
    planted = {"fixed_points": ("from .fields import Level\n"
                                "def nu(ctx, zeta):\n"
                                "    from .cyclotomic import nu_sign\n"
                                "    return nu_sign(ctx, zeta)\n"),
               "cli": "from . import fields, varieties\n"}
    graph = layer_edges(planted)
    assert graph == {"fixed_points": ["cyclotomic", "fields"],
                     "cli": ["fields", "varieties"]}
    assert edge_changes(graph, _LAYER_GRAPH) == [
        "fixed_points -> cyclotomic", "cli -/-> characters",
        "cli -/-> cyclotomic", "cli -/-> fixed_points", "cli -/-> howe"]


def test_the_layer_graph_is_pinned():
    """fixed_points imports fields alone, so the grid compiles neither
    the cyclotomic numbers nor the point counts."""
    graph = layer_edges({p.stem: p.read_text() for p in MODULES})
    assert sorted(graph) == sorted(_LAYER_GRAPH)
    assert edge_changes(graph, _LAYER_GRAPH) == []


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


def test_every_public_definition_is_reached():
    """No public function or class of the package is reached only by
    tests: src/ (but the re-exports of __init__.py), scripts/ and
    perfbench/ read each one.  The tests' own routes live in
    tests/reference.py."""
    readers = [path.read_text() for top in ("src", "scripts", "perfbench")
               for path in sorted((ROOT / top).rglob("*.py"))
               if path != SRC / "__init__.py"]
    modules = {path.stem: path.read_text() for path in MODULES}
    assert unreached_definitions(modules, readers) == []


def statements(source: str) -> list:
    """(first line, last line, tail end, scope, node) of each statement,
    in source order.  A simple statement spans its lines, a compound one
    its header: the decorators up to the line before its body.  The tail
    end is the last line of the statement's block, so the lines from its
    first line to there hold it and the statements that follow it in
    its block.  scope is the dotted name of the innermost enclosing
    function or class ("<module>" at top level).  Docstrings, global and
    nonlocal are left out, as they run no code."""
    found = []

    def visit(body, scope, is_def):
        for i, node in enumerate(body):
            if ((i == 0 and is_def and isinstance(node, ast.Expr)
                 and isinstance(node.value, ast.Constant)
                 and isinstance(node.value.value, str))
                    or isinstance(node, (ast.Global, ast.Nonlocal))):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(
                node, "decorator_list", [])])
            inner = getattr(node, "body", None)
            last = (max(node.lineno, inner[0].lineno - 1)
                    if isinstance(inner, list) else node.end_lineno)
            found.append((first, last, body[-1].end_lineno, scope, node))
            named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
            sub = (node.name if scope == "<module>" else
                   f"{scope}.{node.name}") if named else scope
            blocks = [getattr(node, f, []) for f in ("body", "orelse",
                                                     "finalbody")]
            blocks += [h.body for h in getattr(node, "handlers", [])]
            for k, block in enumerate(blocks):
                visit(block, sub, named and k == 0)

    visit(ast.parse(source).body, "<module>", True)
    return found


def unrun_statements(sources: dict, ran: dict, allowed) -> list[str]:
    """The statements of sources ({module name: source}) whose lines are
    not in ran ({module name: lines that ran}), as "module:line: first
    line of the statement", in module and source order; then one "stale:
    key" for each key of allowed that exempts no statement or exempts
    one that ran.  A raise is exempt, and so is what a key of allowed
    names: "module.function" every statement in that function, and
    "module.scope: first line" that statement of scope and the ones that
    follow it in its block."""
    spans = {key: _exempt_spans(key, sources) for key in allowed}
    out, exempted = [], {key: [] for key in allowed}
    for module, source in sources.items():
        lines = source.splitlines()
        for first, last, _, _, node in statements(source):
            if isinstance(node, ast.Raise):
                continue
            ok = any(n in ran.get(module, ()) for n in range(first, last + 1))
            hits = [key for key, (owner, found) in spans.items()
                    if owner == module and any(a <= first <= b
                                               for a, b in found)]
            for key in hits:
                exempted[key].append(ok)
            if not ok and not hits:
                out.append(f"{module}:{first}: {lines[first - 1].strip()}")
    return out + [f"stale: {key}" for key, oks in exempted.items()
                  if not oks or any(oks)]


def _exempt_spans(key: str, sources: dict):
    """(module, [(first line, last line), ...]): where the statements
    that key exempts begin.  A function exempts its body, a statement
    its tail."""
    name, _, text = key.partition(": ")
    module, _, scope = name.partition(".")
    source = sources.get(module, "")
    lines = source.splitlines()
    found = []
    for first, _, tail, inner, node in statements(source):
        if text and inner == scope and lines[first - 1].strip() == text:
            found.append((first, tail))
        elif (not text and isinstance(node, ast.FunctionDef)
              and f"{inner}.{node.name}".removeprefix("<module>.") == scope):
            found.append((node.body[0].lineno, node.end_lineno))
    return module, found


def test_unrun_statements_are_found(tmp_path):
    """A planted module under the tracer of tests/trace_matrix.py: a
    statement that does not run is named, a raise is not, an allowed
    scope or tail is not, and a key that exempts nothing or exempts a
    statement that ran is stale."""
    source = ("def used(x):\n"
              "    if x < 0:\n"
              "        raise ValueError(x)\n"
              "    if x > 9:\n"
              "        x = 9\n"
              "        return x\n"
              "    return x + 1\n"
              "def dead():\n"
              "    return 2\n"
              "def tail(x):\n"
              "    y = x\n"
              "    return y\n")
    (tmp_path / "planted.py").write_text(source)
    sys.path.insert(0, str(tmp_path))
    try:  # imported under the tracer, so that its def statements run
        ran = trace_matrix.trace_lines(
            tmp_path, lambda: __import__("planted").used(1))
    finally:
        sys.path.remove(str(tmp_path))
        sys.modules.pop("planted", None)
    ran = {"planted": ran["planted.py"]}
    assert unrun_statements({"planted": source}, ran, {}) == [
        "planted:5: x = 9", "planted:6: return x", "planted:9: return 2",
        "planted:11: y = x", "planted:12: return y"]
    allowed = {"planted.dead": "", "planted.used: x = 9": "",
               "planted.tail: y = x": "", "planted.used: return x + 1": "",
               "planted.gone": ""}
    assert unrun_statements({"planted": source}, ran, allowed) == [
        "stale: planted.used: return x + 1", "stale: planted.gone"]


# What no run of the program executes and is kept on purpose, besides
# every raise: the failure branches of the program's own checks, the
# empty results of a solve, the mod-ell dimensions that item 1 of
# ROADMAP.md leaves unread, __repr__ and the entry point.
_NOT_RUN = {
    'characters._reduction: return "restriction is not in the Brauer span"':
        "a failed Brauer solve, the reason brauer_decompose raises",
    'characters._reduction: return "non-integral Brauer multiplicity"':
        "a failed Brauer solve: no multiplicity may be a fraction",
    'characters._reduction: return "negative Brauer multiplicity"':
        "a failed Brauer solve: no multiplicity may be negative",
    'characters._reduction: return "Brauer constituents do not fill the '
    'dimension"': "a failed Brauer solve: the dimensions must add up",
    "howe.compare_semisimplifications: reduction = ss_dim = deficit = None":
        "the comparison row of a failed Brauer solve, which fails verify",
    "fixed_points._projectively_equal: return False":
        "a reported point that is not fixed, which fails the grid",
    'cli.main: sys.stderr.write(f"internal error: {exc}\\n")':
        "exit 3, for an exception the tool does not expect",
    "fields.ArtinSchreierExtension.solve_affine: return []":
        "no solution; the grid's one solve, c^q - c = 1, has one",
    "characters.dim_mod_ell_unitary: s = (-1) ** n":
        "ell divides q + 1: verify reads these dimensions only where it "
        "does not (ROADMAP.md, item 1)",
    "fields.TowerContext.__repr__": "the tower as a debugger shows it",
    "cli.<module>: sys.exit(main())": "the entry point of python -m",
}


def test_every_statement_runs(tmp_path):
    """Every statement of src/ffverify runs in tests/trace_matrix.py, a
    small fixed matrix of the CLI, the scripts and the benchmark's
    library job in a fresh interpreter, but a raise and _NOT_RUN."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "trace_matrix.py"),
         str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    ran = {Path(name).stem: set(lines)
           for name, lines in json.loads(proc.stdout).items()}
    sources = {path.stem: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    assert unrun_statements(sources, ran, _NOT_RUN) == []


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
