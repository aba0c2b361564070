"""Independent reference implementations used only by the test suite.

These transcribe defining formulas directly (quadruple loops, fixpoint
iteration, exhaustive matchings) with no algebraic shortcuts, and serve as
oracles for the optimized library code.  lattice_sets and select_exact
are the exceptions: the first is the lattice stage as the library had it
on sets of integer tuples, a reference for its integer codes, and the
second selects the maximum by restricting every candidate line in
rationals, as a reference for the selection fold, the vector kernel and
the witness matching read off the kernel's integers.
restrict_module_rational is the restriction as the library had it, every
push and pull a rational (restrict_rect, restrict_presentation): the
reference for fibered.restrict_module and _fastpath.key_diagram, which
read the kernel's integer sides.  _exact_cost costs one line with it, and
vertical_cost_rational is the axis limit as the library had it, its
sample lines costed by _exact_cost.
"""
from __future__ import annotations

from itertools import combinations, permutations, product
from math import gcd, lcm

import numpy as np

from matchdist.bottleneck import bottleneck
from matchdist.exactdist import (BothTrivial, DistanceResult, _lattice,
                                 _line_from_key, _stream, _unpack)
from matchdist.fibered import Bar, _validated, reduce_columns
from matchdist.geometry import (Line, ProjPoint, normalize_line, pull_param,
                                push_param, weight)
from matchdist.modules import (Presentation, Rect, TwoParamModule,
                               critical_values, lub_closure)
from matchdist.rational import INF, Q, is_inf, rat


def ext_abs_diff(a, b):
    """|a - b| under the matching conventions: inf - inf = 0 and
    inf - finite = inf."""
    ai = is_inf(a)
    bi = is_inf(b)
    if ai and bi:
        return Q(0)
    if ai or bi:
        return INF
    return abs(a - b)


def lub_closure_fixpoint(points):
    """Closure under pairwise componentwise max by literal fixpoint iteration."""
    out = {(p[0], p[1]) for p in points}
    while True:
        new = set()
        for p in out:
            for q in out:
                lub = (max(p[0], q[0]), max(p[1], q[1]))
                if lub not in out:
                    new.add(lub)
        if not new:
            return frozenset(out)
        out |= new


def _keep_infinite(a, b):
    """Canonicalized direction [0:a:b] if both coordinates end up positive."""
    if a == 0 or b == 0:
        return None
    if (a > 0) != (b > 0):
        return None
    return ProjPoint.of(0, a, b)


def switch_points_quadruples(points):
    """Literal quadruple-loop transcription of the switch-point formulas.

    Returns (proper: set of points, at_infinity: set of ProjPoint).  Ordered
    quadruples (u, v, w, x) with u != v, w != x and at least three distinct
    members; all (delta, eta) in {1,2}^2.
    """
    pts = [(p[0], p[1]) for p in points]
    proper = set()
    infinite = {ProjPoint.of(0, 1, 1)}
    for u, v, w, x in product(pts, repeat=4):
        if u == v or w == x:
            continue
        if len({u, v, w, x}) < 3:
            continue
        u1, u2 = u
        v1, v2 = v
        w1, w2 = w
        x1, x2 = x
        for d, e in product((1, 2), (1, 2)):
            cand_inf = [_keep_infinite(d * (w1 - x1), e * (u2 - v2))]
            if d == e:
                cand_inf.append(_keep_infinite(v1 - x1, u2 - w2))
            for pt in cand_inf:
                if pt is not None:
                    infinite.add(pt)

            cand_proper = [
                (d, d * x1, e * (v2 - u2) + d * w2),
                (d, e * (v1 - u1) + d * w1, d * x2),
                (d, d * x1, e * (u2 - v2) + d * w2),
                (d, e * (u1 - v1) + d * w1, d * x2),
                (e + d, d * x1 + e * v1, d * w2 + e * u2),
            ]
            if d != e:
                cand_proper.append((e - d, e * v1 - d * x1, e * u2 - d * w2))
            for h0, h1, h2 in cand_proper:
                proper.add((Q(h1) / h0, Q(h2) / h0))
    return proper, infinite


def matching_cost(d1, d2, pairs):
    """Cost of an explicit partial matching, straight from the definition."""
    used1 = {i for i, _ in pairs}
    used2 = {j for _, j in pairs}
    cost = Q(0)
    for i, j in pairs:
        a, b = d1[i], d2[j]
        cost = max(cost, abs(a.birth - b.birth),
                   ext_abs_diff(a.death, b.death))
    for i, bar in enumerate(d1):
        if i not in used1:
            cost = max(cost, INF if bar.death == INF
                       else (bar.death - bar.birth) / 2)
    for j, bar in enumerate(d2):
        if j not in used2:
            cost = max(cost, INF if bar.death == INF
                       else (bar.death - bar.birth) / 2)
    return cost


class TooLarge(ValueError):
    """Raised by bottleneck_bruteforce when diagrams exceed its guard."""


def _half(bar):
    return INF if bar.death == INF else (bar.death - bar.birth) / 2


def bottleneck_bruteforce(d1, d2):
    """Exhaustive minimum over every partial multi-bijection.

    Raises:
        TooLarge: if |D1| + |D2| > 8.
    """
    if len(d1) + len(d2) > 8:
        raise TooLarge("brute force limited to 8 bars total")
    n2 = len(d2)
    halves2 = [_half(b) for b in d2]
    best = INF

    def rec(i, used, cur):
        nonlocal best
        if cur >= best and best != INF:
            return
        if i == len(d1):
            tot = cur
            for j in range(n2):
                if j not in used:
                    tot = max(tot, halves2[j])
            best = min(best, tot)
            return
        a = d1[i]
        rec(i + 1, used, max(cur, _half(a)))
        for j in range(n2):
            if j not in used:
                b = d2[j]
                rec(i + 1, used | {j},
                    max(cur, abs(a.birth - b.birth),
                        ext_abs_diff(a.death, b.death)))

    rec(0, frozenset(), Q(0))
    return best


def essential_bruteforce(births1, births2):
    """Min over all bijections of the max birth difference (inf if sizes differ)."""
    if len(births1) != len(births2):
        return INF
    if not births1:
        return Q(0)
    best = INF
    for perm in permutations(range(len(births2))):
        worst = max(abs(births1[i] - births2[perm[i]])
                    for i in range(len(births1)))
        best = min(best, worst)
    return best


def distinct_keys_pairloop(X, Y, dvals):
    """Every distinct candidate key (dx, dy, k), sorted, by a plain loop
    over point pairs in python ints: a positive-slope line through two
    sorted points, as its primitive direction and dy*X - dx*Y, and every
    line through a point with a direction of dvals."""
    out = set()
    n = len(X)
    for a in range(n):
        for b in range(a + 1, n):
            dx = X[b] - X[a]
            dy = Y[b] - Y[a]
            if dx <= 0 or dy <= 0:
                continue
            g = gcd(dx, dy)
            dx //= g
            dy //= g
            out.add((dx, dy, dy * X[a] - dx * Y[a]))
    for d1, d2 in dvals:
        for a in range(n):
            out.add((d1, d2, d2 * X[a] - d1 * Y[a]))
    return sorted(out)


def distinct_keys(X, Y, dvals):
    """All distinct candidate keys of the stream (exactdist._stream), as
    python int triples sorted by (dx, dy, k)."""
    spec, packed = _stream(X, Y, dvals)
    return list(zip(*(v.tolist() for v in _unpack(spec, packed))))


def match_patterns(r1, r2):
    """All partial injections of range(r1) into range(r2), each with the
    indices it leaves unmatched on either side."""
    out = []
    for k in range(min(r1, r2) + 1):
        for c1 in combinations(range(r1), k):
            for c2 in permutations(range(r2), k):
                s1 = tuple(i for i in range(r1) if i not in c1)
                s2 = tuple(j for j in range(r2) if j not in c2)
                out.append((tuple(zip(c1, c2)), s1, s2))
    return out


def lattice_rational(M, N, extra=None):
    """The candidate points and directions of a module pair in rationals,
    scaled to integers: the lub closures of both modules' critical values
    by fixpoint iteration, the switch points of their union by the
    quadruple loop and the extra proper points, the positive switch and
    extra directions.  Returns (X, Y, dvals, lam): the
    points times lam, sorted, as two int lists, the sorted direction pairs,
    and lam, the least common denominator of the coordinates."""
    cm, cn = critical_values(M), critical_values(N)
    pts, dirs = switch_points_quadruples(cm | cn)
    pts |= lub_closure_fixpoint(cm) | lub_closure_fixpoint(cn)
    if extra is not None:
        pts |= {(Q(x), Q(y)) for x, y in extra.proper}
        dirs |= set(extra.at_infinity)
    lam = lcm(1, *(v.denominator for p in pts for v in p))
    XY = sorted((int(x * lam), int(y * lam)) for x, y in pts)
    dvals = sorted((d.h1, d.h2) for d in dirs
                   if d.h0 == 0 and d.h1 > 0 and d.h2 > 0)
    return [x for x, _ in XY], [y for _, y in XY], dvals, lam


# switch ratios r in {1/2, 1, 2} as (numerator, denominator)
_RS = ((1, 2), (1, 1), (2, 1))


def _pos_dir(a, b):
    """Primitive direction (a, b)/g when both coordinates end up positive,
    else None."""
    if a == 0 or b == 0 or (a > 0) != (b > 0):
        return None
    g = gcd(a, b) if a > 0 else -gcd(a, b)
    return a // g, b // g


def _switch_lattice(pts):
    """Switch points of a set of integer points whose coordinates are all
    multiples of 6, so that every half and third below stays integral.

    Returns (proper, dirs): proper points on the same lattice, and the
    primitive positive directions at infinity, the diagonal (1, 1) always
    among them.  Classes of ordered pairs (p, q), p != q: dy holds
    second-coordinate differences p2-q2, dx first-coordinate differences
    p1-q1, and d2 the crossed corner keys (q1, p2).  Every catalogue formula
    is a combination of two class values scaled by a ratio r in {1/2, 1, 2}.
    Each class maps to the one unordered pair of points that realizes it,
    or to None once a second pair does, and two classes combine unless
    both name the same single pair: otherwise some quadruple behind the
    combination uses two different unordered pairs.
    """
    pts = list(set(pts))
    dy, dx, d2 = {}, {}, {}
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            if i == j:
                continue
            pid = (i, j) if i < j else (j, i)
            key = p[1] - q[1]
            if dy.setdefault(key, pid) != pid:
                dy[key] = None
            key = p[0] - q[0]
            if dx.setdefault(key, pid) != pid:
                dx[key] = None
            key = q[0], p[1]
            if d2.setdefault(key, pid) != pid:
                d2[key] = None

    proper = set()
    dirs = {(1, 1)}
    for a, ca in dy.items():
        if a == 0:
            continue
        for b, cb in dx.items():
            if b == 0 or ca == cb is not None:
                continue
            for rn, rd in _RS:
                d = _pos_dir(b, rn * a // rd)
                if d is not None:
                    dirs.add(d)

    for a, ca in dy.items():
        ra = [rn * a // rd for rn, rd in _RS]
        for (k1, k2), ck in d2.items():
            if ca == ck is not None:
                continue
            for v in ra:
                proper.add((k1, k2 + v))
    for b, cb in dx.items():
        rb = [rn * b // rd for rn, rd in _RS]
        for (k1, k2), ck in d2.items():
            if cb == ck is not None:
                continue
            for v in rb:
                proper.add((k1 + v, k2))

    items = list(d2.items())
    for (l1, l2), cl in items:
        for (r1, r2), cr in items:
            if cl == cr is not None:
                continue
            proper.add((2 * l1 - r1, 2 * l2 - r2))
            proper.add(((l1 + r1) // 2, (l2 + r2) // 2))
            proper.add(((2 * l1 + r1) // 3, (2 * l2 + r2) // 3))
            d = _pos_dir(l1 - r1, l2 - r2)
            if d is not None:
                dirs.add(d)
    return proper, dirs


def _scaled(pts, dirs, s):
    """Common-denominator integer scaling of the integer points (x/s, y/s):
    the sorted points as (X, Y) int lists, the sorted direction pairs, and
    the scaling lam = s/g, the least positive integer that makes every
    lam*x/s integral, where g is the gcd of s and every coordinate.

    Scaling by lam > 0 keeps the order, so the integer pairs sort as the
    points do.
    """
    g = gcd(s, *(v for p in pts for v in p))
    XY = sorted((x // g, y // g) for x, y in pts)
    return [x for x, _ in XY], [y for _, y in XY], sorted(dirs), s // g


def _den(pts):
    """Least common denominator of the coordinates of rational points."""
    return lcm(1, *(int(v.denominator) for p in pts for v in p))


def _up(pts, s):
    """Rational points times s, as integer pairs; s must clear every
    denominator."""
    return {(int(x.numerator) * (s // int(x.denominator)),
             int(y.numerator) * (s // int(y.denominator))) for x, y in pts}


def _pos_dirs(ds):
    """The positive directions (h1, h2) among the projective points ds."""
    return {(int(d.h1), int(d.h2)) for d in ds
            if d.h0 == 0 and d.h1 > 0 and d.h2 > 0}


def lattice_sets(M, N, extra=None):
    """exactdist._lattice on sets of integer tuples: the lub closures of
    both modules' critical values, the switch points of their union by
    _switch_lattice's difference classes and the extra proper points, all
    scaled by six times the critical values' common denominator, times
    that of the extra points, with the positive switch and extra
    directions.  Returns (X, Y, dvals, lam) as _scaled gives them: the
    sorted points as two int lists, the sorted direction pairs and lam."""
    cm, cn = critical_values(M), critical_values(N)
    xp = set() if extra is None else {(rat(p[0]), rat(p[1]))
                                      for p in extra.proper}
    s = lcm(6 * _den(cm | cn), _den(xp))
    um, un = _up(cm, s), _up(cn, s)
    proper, dirs = _switch_lattice(um | un)
    pts = lub_closure(um) | lub_closure(un) | proper | _up(xp, s)
    if extra is not None:
        dirs |= _pos_dirs(extra.at_infinity)
    return _scaled(pts, dirs, s)


def lex_pair(dx, dy, k, lam):
    """The line order (m1/m2, b1) of the key (dx, dy, k) with scaling
    lam."""
    return (Q(int(dx), int(dy)), Q(int(k), lam * (int(dx) + int(dy))))


def _sorted_diagram(bars) -> tuple:
    """Bars sorted by (birth, death); an infinite death sorts last through
    its is_inf flag, so no rational is ordered against the float INF."""
    return tuple(sorted(bars, key=lambda b: (b.birth, is_inf(b.death),
                                             b.death)))


def restrict_rect(r: Rect, line: Line):
    """Bar of a rectangle module on the line, or None if it misses the line."""
    birth = push_param(line, r.lower)
    death = pull_param(line, r.upper)
    if is_inf(death) or birth < death:
        return Bar(birth, death)
    return None


def restrict_module_rational(module: TwoParamModule, line: Line) -> tuple:
    """Persistence diagram of the restriction of the module to the line."""
    if module.rectangles is not None:
        bars = []
        for r in module.rectangles:
            bar = restrict_rect(r, line)
            if bar is not None:
                bars.append(bar)
        return _sorted_diagram(bars)
    return restrict_presentation(module.presentation, line)


def restrict_presentation(pres: Presentation, line: Line) -> tuple:
    """Barcode of a presented module restricted to the line.

    Generators and relations are sorted by the push parameter of their grade
    (stable on ties by input order).  Columns are reduced left to right over
    the two-element field (reduce_columns); a column's pivot is its
    generator of largest birth parameter.  Pivoted columns yield finite bars
    (zero-length ones dropped), unpivoted generators yield essential bars.

    Raises:
        InvalidPresentation: if a relation grade fails the componentwise
            dominance invariant (or a column references an unknown name).
    """
    gens = _validated(pres).generators
    push = [push_param(line, grade) for _, grade in gens]
    order = sorted(range(len(gens)), key=lambda i: (push[i], i))
    birth = [push[i] for i in order]
    rank = {gens[i][0]: r for r, i in enumerate(order)}

    rels = pres.relations
    death = [push_param(line, grade) for _, grade, _ in rels]
    rel_order = sorted(range(len(rels)), key=lambda j: (death[j], j))

    pairs, free = reduce_columns(
        ({rank[name] for name in rels[j][2]} for j in rel_order), len(gens))
    bars = [Bar(birth[r], death[rel_order[c]]) for r, c in pairs
            if birth[r] < death[rel_order[c]]]
    bars += [Bar(birth[r], INF) for r in free]
    return _sorted_diagram(bars)


def _exact_cost(M, N, line):
    """Weighted cost on one line, value only."""
    c = bottleneck(restrict_module_rational(M, line),
                   restrict_module_rational(N, line))[0]
    if is_inf(c):
        return INF
    return weight(line) * c


def vertical_cost_rational(M, N, x0, anchor_height=None):
    """exactdist.vertical_cost with its two sample lines built by
    normalize_line through the anchor and costed by _exact_cost, each
    module restricted in rationals."""
    if M.is_trivial and N.is_trivial:
        raise BothTrivial("no critical values")
    x0 = rat(x0)
    X, Y, dirs, lam = _lattice(M, N, None)
    ymax = Q(int(np.max(Y)), lam)
    if anchor_height is None:
        yr = ymax + 1
    else:
        yr = rat(anchor_height)
        if yr <= ymax:
            raise ValueError("anchor height %s not above the point set (max "
                             "second coordinate %s)" % (yr, ymax))
    # slopes through the anchor, on the lattice: (x0 - x)/(yr - y) with
    # (x, y) = (X, Y)/lam
    xl, yl = x0 * lam, yr * lam
    cands = [Q(a, b) for a, b in dirs]
    cands += [(xl - x) / (yl - y) for x, y in zip(X.tolist(), Y.tolist())
              if x < xl]
    cutoff = min(c for c in cands if c > 0)
    e1, e2 = cutoff / 2, cutoff / 4
    vals = []
    for e in (e1, e2):
        line = normalize_line((e, 1), (x0, yr))
        value = _exact_cost(M, N, line)
        if is_inf(value):
            return INF
        vals.append(value)
    f1, f2 = vals
    return (e1 * f2 - e2 * f1) / (e1 - e2)


def select_exact(M, N, keys, lam, count):
    """matching_distance's result over key triples, line by line: each
    line restricted in rationals and costed exactly, the maximum kept, the
    lex-smallest line on ties, and the witness matched on the rational
    restrictions to that line."""
    best = best_key = best_lex = None
    for key in keys:
        c = _exact_cost(M, N, _line_from_key(*key, lam))
        lex = lex_pair(*key, lam)
        if best is None or c > best or (c == best and lex < best_lex):
            best, best_key, best_lex = c, key, lex
    line = _line_from_key(*best_key, lam)
    _, wit = bottleneck(restrict_module_rational(M, line),
                        restrict_module_rational(N, line))
    return DistanceResult(best, line, wit, count)
