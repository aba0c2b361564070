"""Command-line interface: module files in, exact results out.

A module file holds one module, either as rectangle statements or as a graded
presentation:

    # comment
    rect 0 4 7 11          # rect x1 y1 x2 y2; inf allowed for x2/y2
    gen g 0 0              # gen <name> x y
    rel r 0 7 g            # rel <name> x y <generator names>

Numbers are integers, exact decimals ("2.5"), or fractions ("7/11").  A file
mixes rect with gen/rel never.  A rel names each of its generators once:
coefficients are in the two-element field, where a generator named twice
would cancel.  main reads and parses the command's one or two module files,
in order, before the command runs, and passes the modules to its handler,
so a file error is reported before a bad line spec.

Exit codes: 0 success, 1 output pipe closed by its reader (as by "| head"),
2 malformed input: a module file that does not parse, an unreadable path,
or a bad argument (a usage error, or a value such as "scan --theta-steps 1"
or "vcost --x abc"), 3 invalid line specification, 4 both modules trivial
where a line search needs at least one critical value.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .bottleneck import bottleneck
from .exactdist import (BothTrivial, candidate_lines, horizontal_cost,
                        matching_distance, switch_points, vertical_cost)
from .fibered import restrict_module
from .geometry import NonPositiveDirection, line_through, normalize_line
from .gridscan import GridSpec, scan, write_csv
from .modules import Presentation, TwoParamModule, critical_values, rect
from .rational import INF, fmt, is_inf, rat


class ParseError(Exception):
    """Malformed module file; message carries the line number."""

    def __init__(self, lineno, message):
        super().__init__("line %d: %s" % (lineno, message))
        self.lineno = lineno


class InvalidLineSpec(ValueError):
    """--through/--line arguments that do not give a positive-slope line."""


def _scalar(tok, lineno, allow_inf=False):
    if tok == "inf":
        if allow_inf:
            return INF
        raise ParseError(lineno, "'inf' only allowed for upper coordinates")
    try:
        return rat(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(lineno, "bad number %r" % tok) from None


def parse_module(text: str) -> TwoParamModule:
    """Parse module file text; raises ParseError with a line number."""
    rects, gens, rels = [], [], []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kind = toks[0]
        if kind == "rect":
            if gens or rels:
                raise ParseError(lineno, "cannot mix rect with gen/rel")
            if len(toks) != 5:
                raise ParseError(lineno,
                                 "rect needs 4 coordinates, got %d"
                                 % (len(toks) - 1))
            x1, y1 = _scalar(toks[1], lineno), _scalar(toks[2], lineno)
            x2 = _scalar(toks[3], lineno, allow_inf=True)
            y2 = _scalar(toks[4], lineno, allow_inf=True)
            try:
                rects.append(rect(x1, y1, x2, y2))
            except ValueError as e:
                raise ParseError(lineno, str(e)) from None
        elif kind in ("gen", "rel"):
            if rects:
                raise ParseError(lineno, "cannot mix gen/rel with rect")
            if kind == "gen":
                if len(toks) != 4:
                    raise ParseError(lineno, "gen needs a name and 2 "
                                             "coordinates")
                gens.append((toks[1], (_scalar(toks[2], lineno),
                                       _scalar(toks[3], lineno)), lineno))
            else:
                if len(toks) < 4:
                    raise ParseError(lineno, "rel needs a name, 2 "
                                             "coordinates, and generator "
                                             "names")
                if len(col := frozenset(toks[4:])) < len(toks) - 4:
                    twice = min(n for n in col if toks.count(n) > 1)
                    raise ParseError(lineno, "relation %r names generator "
                                             "%r twice" % (toks[1], twice))
                rels.append((toks[1], (_scalar(toks[2], lineno),
                                       _scalar(toks[3], lineno)),
                             col, lineno))
        else:
            raise ParseError(lineno, "unknown statement %r" % kind)

    if not gens and not rels:
        return TwoParamModule.from_rects(rects)

    pres = Presentation(tuple((n, g) for n, g, _ in gens),
                        tuple((n, g, c) for n, g, c, _ in rels))
    if pres.violation is not None:
        # the index counts the generators first, then the relations
        index, message = pres.violation
        raise ParseError((gens + rels)[index][-1], message)
    return TwoParamModule.from_presentation(pres)


def _rats(spec):
    parts = spec.split(",")
    if len(parts) != 4:
        raise InvalidLineSpec("expected 4 comma-separated numbers, got %r"
                              % spec)
    try:
        return [rat(p) for p in parts]
    except (ValueError, ZeroDivisionError):
        raise InvalidLineSpec("bad number in %r" % spec) from None


def _line_from_args(args):
    if args.through is not None:
        x1, y1, x2, y2 = _rats(args.through)
        ln = line_through((x1, y1), (x2, y2))
        if ln is None:
            raise InvalidLineSpec("points (%s, %s) and (%s, %s) do not span "
                                  "a positive-slope line"
                                  % (fmt(x1), fmt(y1), fmt(x2), fmt(y2)))
        return ln
    m1, m2, b1, b2 = _rats(args.line)
    try:
        return normalize_line((m1, m2), (b1, b2))
    except NonPositiveDirection as e:
        raise InvalidLineSpec(str(e)) from None


def _value_line(v) -> str:
    return "%s %s" % (fmt(v), repr(float(v)))


def _result_doc(res, seconds) -> dict:
    doc = {
        "value": fmt(res.value),
        "value_float": None if is_inf(res.value) else float(res.value),
        "witness_line": None,
        "realizer": None,
        "candidate_count": res.candidate_count,
        "seconds": seconds,
    }
    if res.witness_line is not None:
        (m1, m2), (b1, b2) = res.witness_line.m, res.witness_line.b
        doc["witness_line"] = {"m1": fmt(m1), "m2": fmt(m2),
                               "b1": fmt(b1), "b2": fmt(b2)}
    w = res.witness_detail
    if w is not None and w.realizer is not None:
        s, t, delta = w.realizer
        doc["realizer"] = {"s": fmt(s), "t": fmt(t), "delta": int(delta)}
    return doc


def _cmd_dist(args, M, N):
    t0 = time.perf_counter()
    res = matching_distance(M, N)
    seconds = time.perf_counter() - t0
    if args.json:
        print(json.dumps(_result_doc(res, seconds), indent=2))
    else:
        print(_value_line(res.value))


def _cmd_bottleneck(args, M, N):
    line = _line_from_args(args)
    cost, _ = bottleneck(restrict_module(M, line), restrict_module(N, line))
    print(fmt(cost))


def _cmd_restrict(args, M):
    line = _line_from_args(args)
    for bar in restrict_module(M, line):
        print(fmt(bar.birth), fmt(bar.death))


def _cmd_switchpoints(args, M, N):
    sp = switch_points(set(critical_values(M)) | set(critical_values(N)))
    for p in sorted(sp.proper):
        print("point", fmt(p[0]), fmt(p[1]))
    for d in sorted(sp.at_infinity, key=lambda d: (d.h1, d.h2)):
        print("direction", d.h1, d.h2)


def _cmd_lines(args, M, N):
    for ln in candidate_lines(M, N).lines:
        print(fmt(ln.m[0]), fmt(ln.m[1]), fmt(ln.b[0]), fmt(ln.b[1]))


def _cmd_limit(args, M, N):
    print(_value_line(args.limit(M, N, rat(args.at))))


def _cmd_scan(args, M, N):
    g = GridSpec(args.theta_steps, args.offset_steps)
    res = scan(M, N, g)
    if args.out:
        with open(args.out, "w", newline="") as f:
            write_csv(res.rows, f)
        print("max %r at theta %r offset %r"
              % (res.max_value, res.argmax[0], res.argmax[1]))
    else:
        write_csv(res.rows, sys.stdout)


def _add_line_group(sub):
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument("--through", metavar="x1,y1,x2,y2",
                     help="line through two points")
    grp.add_argument("--line", metavar="m1,m2,b1,b2",
                     help="line with direction (m1, m2) through (b1, b2)")


def _parser():
    p = argparse.ArgumentParser(
        prog="matchdist",
        description="Exact matching distance between two-parameter "
                    "persistence modules.")
    subs = p.add_subparsers(dest="command", required=True)

    def sub(name, fn, helptext, two_modules=True, **defaults):
        s = subs.add_parser(name, help=helptext)
        s.add_argument("module_a", help="module file")
        if two_modules:
            s.add_argument("module_b", help="module file")
        # module_b stays None where a positional does not set it
        s.set_defaults(fn=fn, module_b=None, **defaults)
        return s

    s = sub("dist", _cmd_dist, "exact matching distance")
    s.add_argument("--json", action="store_true",
                   help="full result document as JSON")
    s = sub("bottleneck", _cmd_bottleneck,
            "bottleneck distance of the restrictions to one line")
    _add_line_group(s)
    s = sub("restrict", _cmd_restrict,
            "barcode of one module on one line", two_modules=False)
    _add_line_group(s)
    sub("switchpoints", _cmd_switchpoints,
        "switch points of the combined critical values")
    sub("lines", _cmd_lines, "the finite candidate line set")
    s = sub("vcost", _cmd_limit, "limit cost along vertical lines",
            limit=vertical_cost)
    s.add_argument("--x", dest="at", metavar="X", required=True,
                   help="x0 of the vertical line")
    s = sub("hcost", _cmd_limit, "limit cost along horizontal lines",
            limit=horizontal_cost)
    s.add_argument("--y", dest="at", metavar="Y", required=True,
                   help="y0 of the horizontal line")
    s = sub("scan", _cmd_scan, "grid sweep of weighted bottleneck costs")
    s.add_argument("--theta-steps", type=int, required=True)
    s.add_argument("--offset-steps", type=int, required=True)
    s.add_argument("--out", help="CSV file (default: CSV on stdout)")
    return p


# errors reported as "error: ..." and their exit codes, the first match
# winning; every other one of them exits 2, malformed input or a bad
# argument value
_ERRORS = (ParseError, OSError, ValueError)
_EXIT_CODES = ((InvalidLineSpec, 3), (BothTrivial, 4))


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        modules = [parse_module(Path(p).read_text())
                   for p in (args.module_a, args.module_b) if p is not None]
        args.fn(args, *modules)
        # flushed here, so that a reader who has gone is caught below
        sys.stdout.flush()
    except BrokenPipeError:
        # send what is left to devnull, so the flush at exit cannot raise
        # again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _ERRORS as e:
        print("error: %s" % e, file=sys.stderr)
        return next((code for kind, code in _EXIT_CODES
                     if isinstance(e, kind)), 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
