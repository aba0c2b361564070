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
    """Private module-level functions, classes and constants and private
    methods of module-level classes, with their lines, and in a private
    module every module-level function, whatever its name; dunder names are
    not helpers.  A constant is a name bound by a module-level
    assignment."""
    out = {node.name: node.lineno for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef))
           and (node.name.startswith("_")
                or private_module and not isinstance(node, ast.ClassDef))}
    out.update((node.name, node.lineno) for cls in tree.body
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_"))
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


def module_names(tree):
    """The names a def, a class or an assignment binds at module level,
    with their lines; dunder names are skipped."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.setdefault(node.name, node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for name in [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]:
                out.setdefault(name, node.lineno)
    return {name: line for name, line in out.items()
            if not name.startswith("__")}


def unread_names(trees):
    """The module-level names (module_names) of the trees that none of the
    trees reads (references), as (tree index, line, name).  A name that
    __all__ lists is read: references takes string constants."""
    refs = set().union(*map(references, trees))
    return sorted((i, line, name) for i, tree in enumerate(trees)
                  for name, line in module_names(tree).items()
                  if name not in refs)


def attribute_reads(tree):
    """Every attribute name the tree reads: loaded, augmented (x.a += 1
    reads x.a) or named by a string constant to getattr.  A store alone is
    no read, nor is a slot's own name in __slots__."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target,
                                                            ast.Attribute):
            out.add(node.target.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            out.add(node.args[1].value)
    return out


def slot_entries(tree):
    """The __slots__ entries of the module-level classes, with the lines
    of their __slots__."""
    return {name: node.lineno for cls in tree.body
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in node.targets)
            for name in ast.literal_eval(node.value)}


def unreferenced_helpers(tree, refs, reads=frozenset(),
                         private_module=False):
    """The tree's helpers (private_helpers) that no name in refs reads, and
    its slots (slot_entries) that no attribute in reads reads, with their
    lines."""
    return sorted([(line, name) for name, line
                   in private_helpers(tree, private_module).items()
                   if name not in refs]
                  + [(line, name) for name, line
                     in slot_entries(tree).items() if name not in reads])


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


_RATIONAL_PUSH = ("push_param", "pull_param")


def rational_push_uses(tree):
    """How the tree names geometry's rational push_param and pull_param,
    as sorted (line, how) pairs: "def" for a definition, "import" for an
    imported name, "read" for a bare name or an attribute, and "string" for
    a string constant that contains one of them (a docstring, an __all__
    entry, a name given to setattr)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names, how = [node.name], "def"
        elif isinstance(node, ast.ImportFrom):
            names, how = [alias.name for alias in node.names], "import"
        elif isinstance(node, ast.Name):
            names, how = [node.id], "read"
        elif isinstance(node, ast.Attribute):
            names, how = [node.attr], "read"
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [n for n in _RATIONAL_PUSH if n in node.value]
            how = "string"
        else:
            continue
        if any(n in _RATIONAL_PUSH for n in names):
            out.add((node.lineno, how))
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
    trees = [ast.parse(path.read_text(), str(path)) for path in READERS]
    refs = set().union(*map(references, trees))
    reads = set().union(*map(attribute_reads, trees))
    found = ["%s:%d: %s" % (path.relative_to(ROOT), line, name)
             for path in PACKAGE
             for line, name in unreferenced_helpers(
                 ast.parse(path.read_text(), str(path)), refs, reads,
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
                     "x = _LIVE\n"
                     "class _Kept:\n"
                     "    __slots__ = ('read', 'bumped', 'named', 'stored')\n"
                     "    def __init__(self):\n"
                     "        self.read = self.bumped = self.stored = 0\n"
                     "    def _called(self):\n"
                     "        self.bumped += 1\n"
                     "        return self.read + getattr(self, 'named')\n"
                     "    def _orphan(self):\n"
                     "        pass\n"
                     "    def unread(self):\n"
                     "        pass\n"
                     "_Kept()._called()\n")
    other = ast.parse("setattr(m, '_patched', None)\n")
    refs = references(tree) | references(other)
    reads = attribute_reads(tree) | attribute_reads(other)
    # a constant's own binding is not a read of it, a slot's own name in
    # __slots__ or a store to it is not a read of the slot, and a public
    # method is no helper
    assert unreferenced_helpers(tree, refs, reads) == [
        (3, "_dead"), (5, "_Gone"), (15, "_DEAD"), (20, "stored"),
        (26, "_orphan")]
    # in a private module a public name with no reader is dead too
    assert unreferenced_helpers(tree, refs, reads, True) == [
        (3, "_dead"), (5, "_Gone"), (11, "public"), (15, "_DEAD"),
        (20, "stored"), (26, "_orphan")]
    assert is_private_module(ROOT / "src" / "matchdist" / "_fastpath.py")
    assert not is_private_module(ROOT / "src" / "matchdist" / "__init__.py")


# the package's names that only perfbench/ reads; once it stops, each
# should leave the package
_READ_OUTSIDE = {"_fastpath.py: eval_keys", "_fastpath.py: vector_ready",
                 "_fastpath.py: exact_reduced_values",
                 "exactdist.py: _essential_count"}


def test_package_reads_its_own_names():
    """Every module-level name of the package is read by a package module
    or exported, but those only perfbench/ reads: a helper only the tests
    read belongs in tests/."""
    trees = [ast.parse(path.read_text(), str(path)) for path in PACKAGE]
    found = {"%s: %s" % (PACKAGE[i].name, name)
             for i, _, name in unread_names(trees)}
    assert found == _READ_OUTSIDE


def test_unread_names_are_caught():
    a = ast.parse("def used():\n    return _helper()\n"
                  "def _helper():\n    pass\n"
                  "def dead():\n    pass\n"
                  "class Gone:\n    pass\n"
                  "_CONST, (x, y) = 1, (2, 3)\n"
                  "LIMIT: int = 4\n"
                  "__all__ = ['exported']\n"
                  "def exported():\n    pass\n")
    b = ast.parse("from a import used\n"
                  "__version__ = '1'\n"
                  "z = a.y\n")
    assert unread_names([a, b]) == [(0, 5, "dead"), (0, 7, "Gone"),
                                    (0, 9, "_CONST"), (0, 9, "x"),
                                    (0, 10, "LIMIT"), (1, 3, "z")]


def test_one_rational_push():
    """Only geometry defines push_param and pull_param, and only __init__
    imports and exports them: no other package module reads them, so the
    package restricts no module in rationals."""
    found = {}
    for path in PACKAGE:
        for _, how in rational_push_uses(ast.parse(path.read_text(),
                                                   str(path))):
            found.setdefault(path.name, set()).add(how)
    assert found == {"geometry.py": {"def", "string"},
                     "__init__.py": {"import", "string"}}


def test_rational_push_uses_are_caught():
    tree = ast.parse("from .geometry import push_param as p, weight\n"
                     "def pull_param(line, v):\n    pass\n"
                     "x = geometry.push_param\n"
                     "y = pull_param(line, v)\n"
                     "setattr(geometry, 'push_param', None)\n"
                     "'bars through pull_param'\n"
                     "z = push(line) + param\n"
                     "from .modules import rect\n")
    assert rational_push_uses(tree) == [(1, "import"), (2, "def"),
                                        (4, "read"), (5, "read"),
                                        (6, "string"), (7, "string")]


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
