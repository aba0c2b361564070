"""Shared fixtures: the worked example modules and seeded random generators."""
from __future__ import annotations

import random
from itertools import combinations

from matchdist.fibered import Bar
from matchdist.geometry import Line, normalize_line
from matchdist.modules import (Presentation, TwoParamModule, rect,
                               rect_as_presentation)
from matchdist.rational import INF, Q, is_inf


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


def entangled_presentation(module):
    """Another presentation of a rectangle module, one whose components are
    not all rectangle-shaped: combined_presentation's, with the first
    rectangle b that has a finite upper coordinate and some other rectangle
    a with lower(a) <= lower(b) rewritten on the basis b + a, which turns
    b's relation columns {b} into {b, a}.  b's relations dominate lower(b),
    so they dominate lower(a) too, and the presentation stays valid.  A
    module with no such pair keeps combined_presentation's form."""
    rects = module.rectangles
    pres = combined_presentation(module).presentation
    for j, b in enumerate(rects):
        if is_inf(b.upper[0]) and is_inf(b.upper[1]):
            continue
        for i, a in enumerate(rects):
            if i != j and a.lower[0] <= b.lower[0] and \
                    a.lower[1] <= b.lower[1]:
                ga, gb = "g_%d" % i, "g_%d" % j
                rels = tuple((n, g, col | {ga} if gb in col else col)
                             for n, g, col in pres.relations)
                return TwoParamModule.from_presentation(
                    Presentation(pres.generators, rels))
    return TwoParamModule.from_presentation(pres)


def data_presentation(points, f, names=None):
    """H0 of the function-Rips bifiltration of a point cloud with integer
    coordinates and integer function values f: generator v_i at (f_i, 0),
    and one relation per pair {v_i, v_j} at (max(f_i, f_j), d(p_i, p_j)),
    d the L1 distance, so that every grade is an integer.  names names the
    generators, v0, v1, ... by default."""
    names = names or ["v%d" % i for i in range(len(points))]
    rels = [("%s.%s" % (names[i], names[j]),
             (max(f[i], f[j]), sum(abs(a - b) for a, b in zip(p, q))),
             frozenset((names[i], names[j])))
            for (i, p), (j, q) in combinations(enumerate(points), 2)]
    return TwoParamModule.from_presentation(Presentation(
        tuple((n, (v, 0)) for n, v in zip(names, f)), tuple(rels)))


def rand_split_presentation(rng, pool, rects, tangled, essential):
    """A random presentation whose components mix the kinds the kernel's
    split tells apart, over grades drawn from pool (at least two values):
    rects one-generator components whose 1-4 relations each share a
    coordinate with their generator, several on one axis and some at the
    generator's own grade; tangled components that are no rectangle, a
    one-generator staircase or two generators joined by a column; essential
    generators without relations; and 0-2 relations with empty columns.
    Names, generators and relations come in shuffled input order."""
    gens, rels = [], []

    def gen(grade):
        gens.append(grade)
        return len(gens) - 1

    def above(v, strict=False):
        return rng.choice([w for w in pool if w > v or (w == v and
                                                        not strict)])

    for _ in range(rects):
        x, y = rng.choice(pool[:-1]), rng.choice(pool[:-1])
        g = gen((x, y))
        for _ in range(rng.randint(1, 4)):
            u = rng.random()
            grade = ((x, y) if u < 0.15 else (above(x, True), y) if u < 0.6
                     else (x, above(y, True)))
            rels.append((grade, {g}))
    for _ in range(tangled):
        if rng.random() < 0.4:
            # a relation off both of its generator's axes: a staircase
            x, y = rng.choice(pool[:-1]), rng.choice(pool[:-1])
            g = gen((x, y))
            rels.append(((above(x, True), above(y, True)), {g}))
            if rng.random() < 0.5:
                rels.append(((x, above(y, True)), {g}))
        else:
            a, b = (gen((rng.choice(pool), rng.choice(pool))) for _ in "ab")
            x = max(gens[a][0], gens[b][0])
            y = max(gens[a][1], gens[b][1])
            rels.append(((above(x), above(y)), {a, b}))
            if rng.random() < 0.5:
                rels.append(((above(gens[a][0]), gens[a][1]), {a}))
    for _ in range(essential):
        gen((rng.choice(pool), rng.choice(pool)))
    for _ in range(rng.randint(0, 2)):
        rels.append(((rng.choice(pool), rng.choice(pool)), set()))
    names = ["g%d" % i for i in range(len(gens))]
    rng.shuffle(names)
    order = list(range(len(gens)))
    rng.shuffle(order)
    rng.shuffle(rels)
    return TwoParamModule.from_presentation(Presentation(
        tuple((names[i], gens[i]) for i in order),
        tuple(("r%d" % j, grade, frozenset(names[g] for g in col))
              for j, (grade, col) in enumerate(rels))))


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
