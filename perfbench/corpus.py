"""Workload corpora: stored module pairs with reference outputs, the seeded
equivariant transform that turns them into a run's inputs, and the checks
that every output is held to.

Each workload has a fixed library in ``corpus/<workload>.json``, drawn once by
``make_corpus.py`` and recorded together with the program's outputs at the
commit that introduced the benchmark.  A run's seed picks, per pair, a scale
factor lam in {1/2, 1, 2}, an integer translation t and the argument order,
and shuffles the op order.  The matching distance is equivariant under
p -> lam*p + t applied to both modules: the value scales by lam, every
candidate line maps to a candidate line (so ``candidate_count`` and the line
count are unchanged), and the lex-min tie-break over (m1/m2, b1) is
preserved.  So every seed gives new inputs whose expected outputs follow
exactly from the recorded ones, while the combinatorial work per pass stays
the same from seed to seed.

Only the standard library is used here, never the package under test: the
expected values, witness lines and line digests are computed independently
of it.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
WORKLOADS = ("rect_small", "perline", "explore")
SCALES = (Fraction(1, 2), Fraction(1), Fraction(2))
SCAN_GRID = 1000
SCAN_TOL = 1e-9

INF = float("inf")


def frac(s):
    return INF if s == "inf" else Fraction(s)


def fstr(x):
    return "inf" if x == INF else str(x)


def as_frac(x):
    """Exact value of a program scalar (Fraction, mpq or int) or INF."""
    if x == INF:
        return INF
    if type(x) is Fraction:
        return x
    return Fraction(str(x))


# --- line algebra, independent of the package ---------------------------

def shift(m1, m2, t):
    """Under p -> lam*p + t a normalized line (m1, m2, b1) keeps its
    direction and b1 becomes lam*b1 + shift: the translation moves b1 by
    t1, and sliding back along the line to restore b1 + b2 = 0 takes
    m1*(t1 + t2)/(m1 + m2) off again."""
    return t[0] - m1 * (t[0] + t[1]) / (m1 + m2)


def map_line(m1, m2, b1, lam, t):
    return m1, m2, lam * b1 + shift(m1, m2, t)


def line_keys(lines, lam, t):
    """Digest keys "m1 m2 b1" (each as n/d) of package lines mapped by
    p -> lam*p + t.  Integer arithmetic with the shift cached per direction;
    Fraction arithmetic per line would cost more than the op under test."""
    a, b = lam.numerator, lam.denominator
    shifts = {}
    for ln in lines:
        m1, m2 = ln.m
        d = (int(m1.numerator), int(m1.denominator),
             int(m2.numerator), int(m2.denominator))
        c = shifts.get(d)
        if c is None:
            cf = shift(Fraction(d[0], d[1]), Fraction(d[2], d[3]), t)
            c = shifts[d] = (cf.numerator, cf.denominator)
        p, q = int(ln.b[0].numerator), int(ln.b[0].denominator)
        num = a * p * c[1] + c[0] * b * q
        den = b * q * c[1]
        g = gcd(num, den)
        yield "%d/%d %d/%d %d/%d" % (*d, num // g, den // g)


def lines_digest(keys):
    h = hashlib.sha256()
    for k in keys:
        h.update(k.encode())
        h.update(b"\n")
    return h.hexdigest()


# --- ops ----------------------------------------------------------------

@dataclass
class Op:
    """One call into the package: its kind, inputs and expected outputs."""

    ident: str
    kind: str            # "dist", "lines" or "scan"
    M: object
    N: object
    lam: Fraction
    t: tuple
    expect: dict
    corrupt: bool = False


def transform_rects(rects, lam, t):
    out = []
    for x1, y1, x2, y2 in rects:
        out.append((lam * x1 + t[0], lam * y1 + t[1],
                    x2 if x2 == INF else lam * x2 + t[0],
                    y2 if y2 == INF else lam * y2 + t[1]))
    return out


def load_library(workload):
    with open(CORPUS_DIR / ("%s.json" % workload)) as fh:
        return json.load(fh)


def parse_rects(spec):
    return [tuple(frac(v) for v in r) for r in spec]


def build_ops(md, lib, seed, tiny=0):
    """The run's op list: each library entry under its seeded transform, in
    seeded order.  ``md`` is the imported package; modules are built through
    its public constructors.  With tiny > 0 only every k-th entry is used,
    about tiny of them, spread over the library's kinds and sizes."""
    rng = random.Random("%s:%d" % (lib["workload"], seed))
    entries = lib["entries"]
    if tiny:
        entries = entries[::-(-len(entries) // tiny)]
    ops = []
    for e in entries:
        lam = rng.choice(SCALES)
        t = (Fraction(rng.randint(0, 3)), Fraction(rng.randint(0, 3)))
        swap = rng.random() < 0.5
        mods = []
        for side in ("M", "N"):
            rects = transform_rects(parse_rects(e[side]), lam, t)
            module = md.TwoParamModule.from_rects(
                [md.rect(*r) for r in rects])
            if e["form"] == "pres":
                module = combined_presentation(md, module)
            mods.append(module)
        if swap:
            mods.reverse()
        ops.append(Op(e["id"], e["kind"], mods[0], mods[1], lam, t,
                      e["expect"]))
    rng.shuffle(ops)
    return ops


def combined_presentation(md, module):
    """One presentation for a whole rectangle module, generators renamed."""
    gens, rels = [], []
    for k, r in enumerate(module.rectangles):
        p = md.rect_as_presentation(r)
        gens += [("%s_%d" % (n, k), g) for n, g in p.generators]
        rels += [("%s_%d" % (n, k), g,
                  frozenset("%s_%d" % (c, k) for c in col))
                 for n, g, col in p.relations]
    return md.TwoParamModule.from_presentation(
        md.Presentation(tuple(gens), tuple(rels)))


def call(md, op):
    if op.kind == "dist":
        return md.exactdist.matching_distance(op.M, op.N)
    if op.kind == "lines":
        return md.exactdist.candidate_lines(op.M, op.N)
    return md.gridscan.scan(op.M, op.N,
                            md.gridscan.GridSpec(SCAN_GRID, SCAN_GRID))


def _scaled(value, lam):
    return INF if value == INF else lam * value


def check(op, out):
    """List of mismatches between one op's output and what is expected of
    it; empty when the output is correct."""
    ex = op.expect
    bad = []
    if op.kind == "dist":
        want = _scaled(frac(ex["value"]), op.lam)
        if op.corrupt:
            want = want + 1
        got = as_frac(out.value)
        if got != want:
            bad.append("value %s != %s" % (fstr(got), fstr(want)))
        if out.candidate_count != ex["count"]:
            bad.append("candidate_count %d != %d"
                       % (out.candidate_count, ex["count"]))
        w = out.witness_line
        got_line = None if w is None else tuple(
            as_frac(v) for v in (w.m[0], w.m[1], w.b[0]))
        want_line = map_line(*map(frac, ex["witness"]), op.lam, op.t)
        if got_line != want_line:
            bad.append("witness line differs")
        # independent checks: worked-example goldens and the rectangle form
        for key in ("golden", "rect_value"):
            if key in ex and got != _scaled(frac(ex[key]), op.lam):
                bad.append("%s %s != %s" % (key, fstr(got), ex[key]))
    elif op.kind == "lines":
        if len(out.lines) != ex["count"]:
            bad.append("line count %d != %d" % (len(out.lines), ex["count"]))
        # undo the transform and compare with the recorded digest; the
        # transform preserves the (m1/m2, b1) order of the sorted lines
        keys = line_keys(out.lines, 1 / op.lam,
                         (-op.t[0] / op.lam, -op.t[1] / op.lam))
        want = ex["digest"] if not op.corrupt else "corrupted"
        if lines_digest(keys) != want:
            bad.append("sorted line digest differs")
    else:
        exact = _scaled(frac(ex["exact"]), op.lam)
        if op.corrupt:
            exact = Fraction(-1)
        bound = exact + SCAN_TOL * max(1.0, abs(float(exact)))
        if not out.max_value <= bound:
            bad.append("scan max %r above exact %s" % (out.max_value,
                                                       fstr(exact)))
    return bad
