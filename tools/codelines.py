"""Code lines of the matchdist package, per file and in total.

    python3 tools/codelines.py [CHECKOUT]
    python3 tools/codelines.py PARENT CHANGE

A code line is a line of src/matchdist/*.py that holds a token other than
a comment, and that no docstring covers: the lines tokenize gives a code
token, less those of every module, class and function docstring that ast
finds.  Blank lines, comment lines and docstrings do not count; a line
that carries code and a trailing comment counts once.  CHECKOUT defaults
to the checkout this script sits in.  Prints one line per file, as its
count of code lines, its size in bytes and its name, and then both
totals.  The bytes are there because the benchmark's set-up imports the
package fresh, compiling every source file again, so its setup_s and
peak_rss_mb follow the source bytes, docstrings and comments included.

Given two checkouts, it prints per file, and then for the total, the code
lines at PARENT, at CHANGE and their difference, then the bytes at PARENT,
at CHANGE and their difference, and the name; a file that one checkout
lacks counts 0 lines and 0 bytes there.
"""
from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# tokens that carry no code of their own
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring of the tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(path):
    """The number of code lines of one Python file."""
    with open(path, "rb") as f:
        lines = {n for tok in tokenize.tokenize(f.readline)
                 if tok.type not in _SKIP
                 for n in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - docstring_lines(ast.parse(Path(path).read_bytes())))


def counts(root):
    """{file name: (code lines, bytes)} of root's src/matchdist, with the
    sums under "total"."""
    out = {path.name: (code_lines(path), path.stat().st_size)
           for path in sorted((root / "src" / "matchdist").glob("*.py"))}
    out["total"] = (sum(n for n, _ in out.values()),
                    sum(b for _, b in out.values()))
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 2:
        sys.exit("usage: codelines.py [CHECKOUT] | PARENT CHANGE")
    if len(argv) < 2:
        for name, (n, b) in counts(Path(argv[0]) if argv else ROOT).items():
            print("%5d %7d %s" % (n, b, name))
        return 0
    parent, change = (counts(Path(a)) for a in argv)
    names = sorted((set(parent) | set(change)) - {"total"}) + ["total"]
    for name in names:
        (n0, b0), (n1, b1) = (s.get(name, (0, 0)) for s in (parent, change))
        print("%5d %5d %+5d %7d %7d %+7d %s"
              % (n0, n1, n1 - n0, b0, b1, b1 - b0, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
