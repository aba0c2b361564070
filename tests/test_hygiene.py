"""Static checks over the package and its tests."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "matchdist").glob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
# every file whose references keep a package helper alive
READERS = sorted([*SOURCES, *(ROOT / "perfbench").glob("*.py")])


def unused_imports(tree):
    """Names bound by the module's imports and never read, with their
    lines.  __future__ imports are skipped, and a name listed in __all__
    counts as read: it is a re-export."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def private_helpers(tree, private_module=False):
    """Private module-level functions, classes and constants, with their
    lines, and in a private module every module-level function, whatever
    its name; dunder names are not helpers.  A constant is a name bound by
    a module-level assignment."""
    out = {node.name: node.lineno for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef))
           and (node.name.startswith("_")
                or private_module and not isinstance(node, ast.ClassDef))}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out.update((n.id, node.lineno) for t in targets
                       for n in ast.walk(t) if isinstance(n, ast.Name)
                       and isinstance(n.ctx, ast.Store)
                       and n.id.startswith("_"))
    return {name: line for name, line in out.items()
            if not name.startswith("__")}


def references(tree):
    """Every name the tree reads, as a bare name, an attribute, an imported
    name or a string constant (monkeypatch.setattr and the benchmark's
    tracer name attributes by string).  A bare name that is only bound is
    not read."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unreferenced_helpers(tree, refs, private_module=False):
    """The tree's helpers (private_helpers) that no name in refs reads,
    with their lines."""
    return sorted((line, name) for name, line
                  in private_helpers(tree, private_module).items()
                  if name not in refs)


def is_private_module(path):
    return path.stem.startswith("_") and not path.stem.startswith("__")


def _is_inf_marker(node):
    """Whether node reads INF or -INF, by name or as an attribute."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (isinstance(node, ast.Name) and node.id == "INF"
            or isinstance(node, ast.Attribute) and node.attr == "INF")


def inf_comparisons(tree):
    """Lines that test equality with the INF marker (== INF, != INF, in
    either operand order) outside the body of rational.is_inf: an exact
    value compared with the float INF runs Fraction.__eq__'s slow
    abstract-base-class checks, which is_inf's type test skips."""
    skip = {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "is_inf"
            for node in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Compare) and id(node) not in skip
                  and any(isinstance(op, (ast.Eq, ast.NotEq))
                          for op in node.ops)
                  and any(map(_is_inf_marker,
                              [node.left, *node.comparators])))


_IMPORT_ERRORS = {"ImportError", "ModuleNotFoundError"}


def import_fallbacks(tree):
    """Lines of the except clauses that catch ImportError or
    ModuleNotFoundError, by name or as an attribute, alone or in a tuple:
    an optional dependency forks the package into two configurations, and
    a run measures only the one installed."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        types = node.type.elts if isinstance(node.type, ast.Tuple) \
            else [node.type]
        names = {t.id if isinstance(t, ast.Name) else getattr(t, "attr", None)
                 for t in types}
        if names & _IMPORT_ERRORS:
            out.append(node.lineno)
    return sorted(out)


_FRACTION_SLOTS = {"_numerator", "_denominator"}


def private_fraction_api(tree):
    """Lines that reach into fractions.Fraction's private API: the
    _normalize keyword, _from_coprime_ints, or a write to ._numerator or
    ._denominator, as an assignment or through setattr or __setattr__.
    That API differs across Python 3.10-3.13, so rationals are built only
    through the public constructor and arithmetic."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "_normalize":
            out.add(node.lineno)
        elif isinstance(node, ast.Attribute) and (
                node.attr == "_from_coprime_ints"
                or node.attr in _FRACTION_SLOTS
                and isinstance(node.ctx, ast.Store)):
            out.add(node.lineno)
        elif isinstance(node, ast.Call) and any(
                isinstance(arg, ast.Constant) and arg.value in _FRACTION_SLOTS
                for arg in node.args):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                getattr(func, "attr", None)
            if name in ("setattr", "__setattr__"):
                out.add(node.lineno)
    return sorted(out)


def test_sources_found():
    names = {p.name for p in READERS}
    assert {"exactdist.py", "__init__.py", "test_hygiene.py",
            "run.py"} <= names


def test_no_unused_imports():
    found = ["%s:%d: %s" % (path.relative_to(ROOT), line, name)
             for path in SOURCES
             for line, name in unused_imports(ast.parse(path.read_text(),
                                                        str(path)))]
    assert found == []


def test_unused_imports_are_caught():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, numpy.linalg\n"
                     "from math import gcd as g, lcm\n"
                     "__all__ = ['lcm']\n"
                     "x = numpy.linalg.norm\n")
    assert unused_imports(tree) == [(2, "os"), (3, "g")]


def test_no_unreferenced_helpers():
    refs = set().union(*(references(ast.parse(path.read_text(), str(path)))
                         for path in READERS))
    found = ["%s:%d: %s" % (path.relative_to(ROOT), line, name)
             for path in PACKAGE
             for line, name in unreferenced_helpers(
                 ast.parse(path.read_text(), str(path)), refs,
                 is_private_module(path))]
    assert found == []


def test_unreferenced_helpers_are_caught():
    tree = ast.parse("def _used():\n    pass\n"
                     "def _dead():\n    pass\n"
                     "class _Gone:\n    pass\n"
                     "def __getattr__(name):\n    pass\n"
                     "def _patched():\n    pass\n"
                     "def public():\n"
                     "    def _inner():\n        pass\n"
                     "    return _used()\n"
                     "_DEAD = 1\n"
                     "_LIVE: int = 2\n"
                     "__version__ = '1'\n"
                     "x = _LIVE\n")
    other = ast.parse("setattr(m, '_patched', None)\n")
    refs = references(tree) | references(other)
    # a constant's own binding is not a read of it
    assert unreferenced_helpers(tree, refs) == [
        (3, "_dead"), (5, "_Gone"), (15, "_DEAD")]
    # in a private module a public name with no reader is dead too
    assert unreferenced_helpers(tree, refs, True) == [
        (3, "_dead"), (5, "_Gone"), (11, "public"), (15, "_DEAD")]
    assert is_private_module(ROOT / "src" / "matchdist" / "_fastpath.py")
    assert not is_private_module(ROOT / "src" / "matchdist" / "__init__.py")


def test_no_inf_comparisons():
    found = ["%s:%d" % (path.relative_to(ROOT), line)
             for path in PACKAGE
             for line in inf_comparisons(ast.parse(path.read_text(),
                                                   str(path)))]
    assert found == []


def test_inf_comparisons_are_caught():
    tree = ast.parse("def is_inf(x):\n    return x == INF\n"
                     "a = x == INF\n"
                     "b = INF != y\n"
                     "c = x == -rational.INF\n"
                     "d = is_inf(x) or x < INF\n"
                     "e = x == 'inf'\n")
    assert inf_comparisons(tree) == [3, 4, 5]


def test_no_import_fallbacks():
    found = ["%s:%d" % (path.relative_to(ROOT), line)
             for path in PACKAGE
             for line in import_fallbacks(ast.parse(path.read_text(),
                                                    str(path)))]
    assert found == []


def test_import_fallbacks_are_caught():
    tree = ast.parse("try:\n    from gmpy2 import mpq as Q\n"
                     "except ImportError:\n    Q = None\n"
                     "try:\n    import a\n"
                     "except (OSError, builtins.ModuleNotFoundError):\n"
                     "    pass\n"
                     "try:\n    x = 1\nexcept ValueError:\n    pass\n"
                     "try:\n    x = 1\nexcept:\n    pass\n")
    assert import_fallbacks(tree) == [3, 7]


def test_no_private_fraction_api():
    found = ["%s:%d" % (path.relative_to(ROOT), line)
             for path in PACKAGE
             for line in private_fraction_api(ast.parse(path.read_text(),
                                                        str(path)))]
    assert found == []


def test_private_fraction_api_is_caught():
    tree = ast.parse("a = Q(1, 2, _normalize=False)\n"
                     "b = Q._from_coprime_ints(1, 2)\n"
                     "c._numerator = 3\n"
                     "object.__setattr__(c, '_denominator', 4)\n"
                     "setattr(c, '_numerator', 5)\n"
                     "d = c._numerator + c.denominator\n"
                     "e = Q(1, 2)\n"
                     "object.__setattr__(line, 'b', (c, -c))\n")
    assert private_fraction_api(tree) == [1, 2, 3, 4, 5]
