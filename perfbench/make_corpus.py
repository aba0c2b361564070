"""Draw the workload libraries and record the program's outputs on them.

    python3 perfbench/make_corpus.py [--workload NAME]

Writes ``perfbench/corpus/<workload>.json``.  Run it once, at the commit that
defines the benchmark; later commits are checked against what it recorded, so
re-running it after a change to the package would hide a regression in the
outputs.  Pairs are drawn from a fixed library seed and kept or rejected by
their candidate line count, so each library spans the sizes the workload is
meant to cover within the run budget.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

import corpus as C
from run import import_package

LIBRARY_SEED = 20221023


def rand_rat(rng, lo=0, hi=12, dmax=4):
    den = rng.randint(1, dmax)
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_pool(rng, size, lo=0, hi=12, dmax=4):
    vals = set()
    while len(vals) < size:
        vals.add(rand_rat(rng, lo, hi, dmax))
    return sorted(vals)


def rand_rect(rng, pool, p_inf):
    """Corners from the pool; an infinite upper coordinate with probability
    p_inf and both infinite with p_inf**2, as the test suite draws them."""
    while True:
        x1, x2 = rng.choice(pool), rng.choice(pool)
        y1, y2 = rng.choice(pool), rng.choice(pool)
        lo = (min(x1, x2), min(y1, y2))
        up = [max(x1, x2), max(y1, y2)]
        if rng.random() < p_inf:
            up[rng.randint(0, 1)] = C.INF
        if rng.random() < p_inf * p_inf:
            up = [C.INF, C.INF]
        if lo[0] < up[0] and lo[1] < up[1]:
            return (lo[0], lo[1], up[0], up[1])


def spec(rects):
    return [[C.fstr(v) for v in r] for r in rects]


def module(md, rects, form="rect"):
    m = md.TwoParamModule.from_rects([md.rect(*r) for r in rects])
    return C.combined_presentation(md, m) if form == "pres" else m


WORKED = [
    ("ex_diag_not_suff", [("0", "0", "7", "7"), ("0", "4", "7", "11")],
     [("0", "0", "7", "11"), ("0", "4", "7", "7")], "28/11"),
    ("ex_need_omega", [("0", "0", "7", "8"), ("0", "4", "7", "11")],
     [("0", "0", "7", "11"), ("0", "4", "7", "8")], "21/10"),
    ("ex_need_diag", [("2", "2", "inf", "7")], [("2", "2", "inf", "10")],
     "3"),
]


class Builder:
    def __init__(self, md):
        self.md = md
        self.entries = []
        self.seen = set()

    def fresh(self, key):
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def dist(self, ident, M, N, form="rect", extra=None, res=None):
        """Record a distance op; res, when given, is the already computed
        result on (M, N)."""
        if res is None:
            res = distance(self.md, M, N, form)
        w = res.witness_line
        expect = {"value": C.fstr(C.as_frac(res.value)),
                  "witness": [C.fstr(C.as_frac(v))
                              for v in (w.m[0], w.m[1], w.b[0])],
                  "count": res.candidate_count}
        expect.update(extra or {})
        self.entries.append({"id": ident, "kind": "dist", "form": form,
                             "M": spec(M), "N": spec(N), "expect": expect})
        return res

    def lines(self, ident, M, N):
        md = self.md
        t0 = time.perf_counter()
        out = md.exactdist.candidate_lines(module(md, M), module(md, N))
        dt = time.perf_counter() - t0
        keys = C.line_keys(out.lines, Fraction(1), (0, 0))
        self.entries.append({"id": ident, "kind": "lines", "form": "rect",
                             "M": spec(M), "N": spec(N),
                             "expect": {"count": len(out.lines),
                                        "digest": C.lines_digest(keys)}})
        return dt

    def scan(self, ident, M, N, exact):
        md = self.md
        t0 = time.perf_counter()
        out = md.gridscan.scan(module(md, M), module(md, N),
                               md.gridscan.GridSpec(C.SCAN_GRID, C.SCAN_GRID))
        dt = time.perf_counter() - t0
        if not out.max_value <= float(exact) + C.SCAN_TOL:
            raise SystemExit("scan above exact value on %s" % ident)
        self.entries.append({"id": ident, "kind": "scan", "form": "rect",
                             "M": spec(M), "N": spec(N),
                             "expect": {"exact": C.fstr(exact)}})
        return dt


def distance(md, M, N, form="rect"):
    return md.exactdist.matching_distance(module(md, M, form),
                                          module(md, N, form))


def count_lines(md, M, N):
    return len(md.exactdist.candidate_lines(module(md, M),
                                            module(md, N)).lines)


def build_rect_small(b, rng):
    """The worked examples, then pairs of at most 3 rectangles per module
    over shared pools of 4-6 rationals, banded by candidate line count."""
    for name, M, N, golden in WORKED:
        b.dist(name, C.parse_rects(M), C.parse_rects(N),
               extra={"golden": golden})
    bands = [(2_000, 60_000, 22), (60_000, 400_000, 13),
             (400_000, 800_000, 2)]
    want = {i: n for i, (_, _, n) in enumerate(bands)}
    k = 0
    while any(want.values()):
        pool = rand_pool(rng, rng.choice([4, 4, 5, 5, 6]))
        M = [rand_rect(rng, pool, 0.15) for _ in range(rng.randint(1, 3))]
        N = [rand_rect(rng, pool, 0.15) for _ in range(rng.randint(1, 3))]
        if not b.fresh((tuple(M), tuple(N))):
            continue
        mm, nn = module(b.md, M), module(b.md, N)
        if not b.md._fastpath.vector_ready(mm, nn):
            continue
        t0 = time.perf_counter()
        res = distance(b.md, M, N)
        dt = time.perf_counter() - t0
        n = res.candidate_count
        for i, (lo, hi, _) in enumerate(bands):
            if lo <= n < hi and want[i]:
                want[i] -= 1
                b.dist("rs-%02d" % k, M, N, res=res)
                print("  rs-%02d lines=%d value=%s %.3fs"
                      % (k, n, C.fstr(C.as_frac(res.value)), dt), flush=True)
                k += 1


def build_perline(b, rng):
    """Pairs past the vector limits: five finite rectangles per side over
    3-value integer pools, presentation forms of small rectangle pairs, and
    many small per-line pairs (5 rectangles over 2-value pools with
    infinite uppers, and presentations over 2-value pools)."""
    md = b.md
    plan = [("p5", 2), ("pres3", 2), ("p5small", 18), ("pres2", 18)]
    k = 0
    for kind, n in plan:
        while n:
            if kind == "p5":
                lo = rng.randint(0, 2)
                vals = sorted(rng.sample(range(lo, lo + 4), 3))
                M = [rand_rect(rng, vals, 0.0) for _ in range(5)]
                N = [rand_rect(rng, vals, 0.0) for _ in range(5)]
                form = "rect"
            elif kind == "p5small":
                vals = sorted(rng.sample(range(0, 5), 2))
                M = [rand_rect(rng, vals, 0.5) for _ in range(5)]
                N = [rand_rect(rng, vals, 0.5) for _ in range(5)]
                form = "rect"
            else:
                size = 3 if kind == "pres3" else 2
                pool = rand_pool(rng, size, 0, 6, 2)
                M = [rand_rect(rng, pool, 0.3)
                     for _ in range(rng.randint(1, 2))]
                N = [rand_rect(rng, pool, 0.3)
                     for _ in range(rng.randint(1, 2))]
                form = "pres"
            if not b.fresh((kind, tuple(M), tuple(N))):
                continue
            mm, nn = module(md, M), module(md, N)
            if form == "rect" and md._fastpath.vector_ready(mm, nn):
                continue
            ex = md.exactdist
            # skip the pairs the engine settles without a line search
            if ex._essential_count(mm) != ex._essential_count(nn) or \
                    sorted(M) == sorted(N):
                continue
            lines = count_lines(md, M, N)
            if kind in ("p5", "pres3") and not 1_000 <= lines < 2_500:
                continue
            if kind in ("p5small", "pres2") and not 100 <= lines < 1_000:
                continue
            extra = None
            if form == "pres":
                rv = md.exactdist.matching_distance(mm, nn).value
                extra = {"rect_value": C.fstr(C.as_frac(rv))}
            t0 = time.perf_counter()
            res = b.dist("pl-%02d-%s" % (k, kind), M, N, form, extra)
            print("  pl-%02d %s lines=%d value=%s %.3fs"
                  % (k, kind, lines, C.fstr(C.as_frac(res.value)),
                     time.perf_counter() - t0), flush=True)
            k += 1
            n -= 1


def build_explore(b, rng):
    """Vector-ready pairs with a finite distance; each gives one dense grid
    scan and one full candidate line materialization."""
    md = b.md
    k = 0
    while k < 20:
        pool = rand_pool(rng, 4)
        M = [rand_rect(rng, pool, 0.15) for _ in range(rng.randint(1, 3))]
        N = [rand_rect(rng, pool, 0.15) for _ in range(rng.randint(1, 3))]
        if not b.fresh((tuple(M), tuple(N))):
            continue
        mm, nn = module(md, M), module(md, N)
        if not md._fastpath.vector_ready(mm, nn):
            continue
        res = distance(md, M, N)
        if not 2_000 <= res.candidate_count < 8_000:
            continue
        exact = C.as_frac(res.value)
        if exact == C.INF or exact == 0:
            continue
        ds = b.scan("ex-%02d-scan" % k, M, N, exact)
        dl = b.lines("ex-%02d-lines" % k, M, N)
        print("  ex-%02d lines=%d exact=%s scan %.3fs lines %.3fs"
              % (k, res.candidate_count, C.fstr(exact), ds, dl), flush=True)
        k += 1


BUILDERS = {"rect_small": build_rect_small, "perline": build_perline,
            "explore": build_explore}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=C.WORKLOADS, action="append")
    args = ap.parse_args(argv)
    md = import_package()
    for workload in args.workload or C.WORKLOADS:
        print(workload, flush=True)
        b = Builder(md)
        BUILDERS[workload](b, random.Random(LIBRARY_SEED))
        lib = {"workload": workload, "library_seed": LIBRARY_SEED,
               "entries": b.entries}
        C.CORPUS_DIR.mkdir(exist_ok=True)
        with open(C.CORPUS_DIR / ("%s.json" % workload), "w") as fh:
            json.dump(lib, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
