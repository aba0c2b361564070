"""Shared fixtures: the worked example modules and seeded random generators."""
from __future__ import annotations

import random

from matchdist.fibered import Bar
from matchdist.geometry import Line, normalize_line
from matchdist.modules import (Presentation, TwoParamModule, rect,
                               rect_as_presentation)
from matchdist.rational import INF, Q


# Worked example pairs, used throughout the suite.

def ex_diag_not_suff():
    m = TwoParamModule.from_rects([rect(0, 0, 7, 7), rect(0, 4, 7, 11)])
    n = TwoParamModule.from_rects([rect(0, 0, 7, 11), rect(0, 4, 7, 7)])
    return m, n


def ex_need_diag():
    m = TwoParamModule.from_rects([rect(2, 2, INF, 7)])
    n = TwoParamModule.from_rects([rect(2, 2, INF, 10)])
    return m, n


def ex_need_omega():
    m = TwoParamModule.from_rects([rect(0, 0, 7, 8), rect(0, 4, 7, 11)])
    n = TwoParamModule.from_rects([rect(0, 0, 7, 11), rect(0, 4, 7, 8)])
    return m, n


# Seeded random data.  Coordinates are small rationals (denominator <= 4)
# so exact arithmetic stays cheap and collisions/ties actually happen.

def rand_rat(rng: random.Random, lo=0, hi=12, dmax=4):
    den = rng.randint(1, dmax)
    return Q(rng.randint(lo * den, hi * den), den)


def rand_point(rng, lo=0, hi=12):
    return (rand_rat(rng, lo, hi), rand_rat(rng, lo, hi))


def rand_rect(rng, pool=None, p_inf=0.15):
    while True:
        if pool is not None:
            x1, x2 = rng.choice(pool), rng.choice(pool)
            y1, y2 = rng.choice(pool), rng.choice(pool)
        else:
            x1, x2 = rand_rat(rng), rand_rat(rng)
            y1, y2 = rand_rat(rng), rand_rat(rng)
        lo = (min(x1, x2), min(y1, y2))
        up = [max(x1, x2), max(y1, y2)]
        if rng.random() < p_inf:
            up[rng.randint(0, 1)] = INF
        if rng.random() < p_inf * p_inf:
            up = [INF, INF]
        if lo[0] < up[0] and lo[1] < up[1]:
            return rect(lo[0], lo[1], up[0], up[1])


def combined_presentation(module):
    """One presentation for a whole rectangle module, generators renamed."""
    gens, rels = [], []
    for k, r in enumerate(module.rectangles):
        p = rect_as_presentation(r)
        for name, grade in p.generators:
            gens.append(("%s_%d" % (name, k), grade))
        for name, grade, col in p.relations:
            rels.append(("%s_%d" % (name, k), grade,
                         frozenset("%s_%d" % (c, k) for c in col)))
    return TwoParamModule.from_presentation(
        Presentation(tuple(gens), tuple(rels)))


def rand_presentation(rng, pool, rank, essential):
    """A random presentation of the given rank with rank + essential
    generators, over grades drawn from pool, so grades tie and repeat.

    Its columns are not one rectangle's: rank independent columns, each a
    generator plus some generators drawn before it, then columns that
    reduce to zero (a copy of an earlier column, or the sum of two).  A
    relation sits at the componentwise max of its column's grades, or
    higher.  Generators and relations come in shuffled input order.
    """
    n = rank + essential
    grades = [(rng.choice(pool), rng.choice(pool)) for _ in range(n)]
    cols = []
    for i in range(rank):
        cols.append({i} | set(rng.sample(range(i), rng.randint(0, min(i, 2)))))
    for _ in range(rng.randint(0, 3) if rank else 0):
        a, b = rng.choice(cols), rng.choice(cols)
        cols.append(set(a) if rng.random() < 0.5 else a ^ b or set(a))
    rels = []
    for col in cols:
        x = max(grades[g][0] for g in col)
        y = max(grades[g][1] for g in col)
        if rng.random() < 0.5:
            x = rng.choice([v for v in pool if v >= x])
        if rng.random() < 0.5:
            y = rng.choice([v for v in pool if v >= y])
        rels.append((x, y, col))
    names = ["g%d" % i for i in range(n)]
    rng.shuffle(names)
    gens = list(zip(names, grades))
    rng.shuffle(gens)
    rng.shuffle(rels)
    return TwoParamModule.from_presentation(Presentation(
        tuple(gens),
        tuple(("r%d" % j, (x, y), frozenset(names[g] for g in col))
              for j, (x, y, col) in enumerate(rels))))


def rand_pool(rng, size, lo=0, hi=12, dmax=4):
    """A small sorted set of coordinate values.  Drawing rectangle corners
    from a shared pool provokes the degenerate configurations (shared
    coordinates, collinear candidate points, exact cost ties) where the
    interesting behavior lives, and keeps the candidate line sets small."""
    vals = set()
    while len(vals) < size:
        vals.add(rand_rat(rng, lo, hi, dmax))
    return sorted(vals)


def rand_rect_module(rng, max_rects=3, pool=None, p_inf=0.15):
    k = rng.randint(1, max_rects)
    return TwoParamModule.from_rects(
        [rand_rect(rng, pool, p_inf) for _ in range(k)])


def rand_line(rng) -> Line:
    m1 = Q(rng.randint(1, 8), rng.randint(1, 8))
    m2 = Q(rng.randint(1, 8), rng.randint(1, 8))
    return normalize_line((m1, m2), rand_point(rng))


def rand_diagram(rng, max_bars=4, p_ess=0.25):
    bars = []
    for _ in range(rng.randint(0, max_bars)):
        b = rand_rat(rng)
        if rng.random() < p_ess:
            bars.append(Bar(b, INF))
        else:
            d = rand_rat(rng)
            if d <= b:
                d = b + Q(rng.randint(1, 8), rng.randint(1, 4))
            bars.append(Bar(b, d))
    return tuple(sorted(bars, key=lambda x: (x.birth, x.death)))
