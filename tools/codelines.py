"""Code lines of the matchdist package, per file and in total.

    python3 tools/codelines.py [CHECKOUT]

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


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else ROOT
    total = size = 0
    for path in sorted((root / "src" / "matchdist").glob("*.py")):
        n, b = code_lines(path), path.stat().st_size
        total, size = total + n, size + b
        print("%5d %7d %s" % (n, b, path.name))
    print("%5d %7d total" % (total, size))
    return 0


if __name__ == "__main__":
    sys.exit(main())
