"""Static checks over the package and its tests."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "matchdist").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


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


def test_sources_found():
    names = {p.name for p in SOURCES}
    assert {"exactdist.py", "__init__.py", "test_hygiene.py"} <= names


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
