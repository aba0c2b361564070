"""Vectorized evaluation of weighted bottleneck costs over many lines.

Every module pair takes this path, whatever its number of bars.  Every
module keeps a fixed set of bar slots across all lines.  Dead bars are
collapsed to zero-length bars at their birth instead of being dropped,
which leaves the bottleneck value unchanged (a zero-length bar matches the
diagonal for free, and pairing any bar with a point on the diagonal never
beats that bar's own half-persistence).  A rectangle has one slot.  A
presentation is split into the components of its generator-relation graph,
which GF(2) reduction never mixes (_split): a component of one generator
whose relations each share a coordinate with it is a rectangle and takes
the rectangle path, with the same costs bit for bit.  The other components
read their slots off barcode templates, one GF(2) reduction per distinct
pair of grade push orders (_Pres), after Lesnick and Wright's per-cell
templates in RIVET; no line is reduced on its own.

One kernel (_chunk) serves two arithmetics, which differ only in where a
line crosses a coordinate, in how lengths are halved and in the final
weighting.  Its matching minimum is bottleneck.cheapest_matching when the
side with fewer finite bars has at most MAX_FINITE of them (vector_ready),
and bottleneck.threshold_matching, a search run line by line, past that;
the two agree bit for bit.  The float arithmetic (_FloatLines) serves the
grid scan (line_evaluator); a presentation's float pushes order its grades
within rounding, and rounding is monotone, so every relation stays at or
after its own generators and the float barcode is that of a filtration
within push rounding error.  Sides with unequal essential counts, read off
the converted sides, cost +inf on every float line, and the exact map
raises on them.  The integer arithmetic (_KeyNumerators) is exact: on the
key (dx, dy, k) with scaling lam, every push and pull onto the line is a
fraction over the common per-line denominator
lam*(dx+dy)*dx*dy, so bottleneck costs reduce to integer max/min
arithmetic on numerators, and the weighted value is an unreduced fraction
per line.  exact_evaluator returns those fractions, and matching_distance
takes them for every line and reduces only the few that can still win.
The map picks its integers call by call, from the keys it gets: int64
where its certificate shows that every intermediate fits, Python ints in
object arrays otherwise.  exact_reduced_values reduces every line.  The
witness diagrams come from the same integer sides (key_diagram), so no
module is restricted in rationals.

Each converted side is one record (essential lowers, finite rects, pres),
pres the _Pres of the entangled components or None, so the kernel reads
one shape for both kinds of module.  Each map carries the same attributes
whatever the pair, so its callers read them and never probe:
line_evaluator's live_span and row_bound, and exact_evaluator's sides and
bound, an exact fraction per direction over the kernel's own denominator,
where the fraction 1/0, +inf, bounds nothing.  Every pair of rectangles
without essential bars has finite bounds, whether a side is a rectangle
module or a presentation whose components are all rectangle-shaped.
"""
from __future__ import annotations

import math
from functools import partial, reduce

import numpy as np

from .bottleneck import cheapest_matching, threshold_matching
from .fibered import Bar, _validated, bar_counts, reduce_columns
from .rational import INF, Q, is_inf

MAX_FINITE = 6
CHUNK = 16384


def _sorted_network(vals):
    """vals sorted elementwise, by odd-even transposition: one
    compare-exchange (np.minimum, np.maximum) per adjacent pair and round."""
    v = list(vals)
    for r in range(len(v)):
        for i in range(r % 2, len(v) - 1, 2):
            v[i], v[i + 1] = (np.minimum(v[i], v[i + 1]),
                              np.maximum(v[i], v[i + 1]))
    return v


def _essential_cost(e1, e2):
    """Elementwise bottleneck cost of matching the essential births e1 to
    e2, equal in count: the max of |sorted e1 - sorted e2|, None when both
    are empty; raises ValueError on unequal counts.

    The sorted matching is optimal on a line, and rounding is monotone, so
    in floats too the result equals the minimum over all permutations bit
    for bit.
    """
    if len(e1) != len(e2):
        raise ValueError("essential counts differ")
    gaps = [np.abs(a - b)
            for a, b in zip(_sorted_network(e1), _sorted_network(e2))]
    return reduce(np.maximum, gaps) if gaps else None


def _row_groups(sig):
    """Distinct rows of a 2-d integer array, and the index of each row's
    match among them, as np.unique(sig, axis=0, return_inverse=True) gives
    them up to the order of the rows: a lexsort, without the
    structured-dtype sort that makes np.unique's row mode some 30 times
    slower."""
    order = np.lexsort(sig.T)
    rows = sig[order]
    new = np.empty(len(rows), dtype=bool)
    new[:1] = True
    np.any(rows[1:] != rows[:-1], axis=1, out=new[1:])
    inv = np.empty(len(rows), dtype=np.intp)
    inv[order] = np.cumsum(new) - 1
    return rows[new], inv


class _Pres:
    """The entangled components of a presentation (_split), in the kernel's
    coordinates, and their barcode templates.

    gens holds generator grades and rels (grade, column) pairs, a column
    being the set of its generators' indices in gens, both in input order.
    On a line, restrict_presentation's pairing depends only on two orders:
    the push order of the generator grades and that of the relation grades,
    each with ties broken by input index.  How the two interleave does not
    matter, and the number of pairs is the rank of the relation matrix on
    every line.  So a template, the reduction run once for one pair of
    orders, gives every line with those orders its bars as fixed slots:
    rank finite slots (generator g, relation r) with birth push(g) and death
    push(r), and one essential slot per unpaired generator.  A bar of zero
    length stays as a zero-length slot, as a dead rectangle does.
    """

    __slots__ = ("gens", "rels", "cols", "essential", "templates")

    def __init__(self, gens, rels, conv):
        self.gens = [(conv(x), conv(y)) for x, y in gens]
        self.rels = [(conv(x), conv(y)) for (x, y), _ in rels]
        self.cols = [col for _, col in rels]
        self.essential = len(gens) - len(reduce_columns(self.cols,
                                                        len(gens))[0])
        self.templates = {}

    def _template(self, row):
        """(generators, relations, essential generators) as input indices,
        slot by slot, for the orders in row: the generator order, then the
        relation order."""
        key = row.tobytes()
        t = self.templates.get(key)
        if t is None:
            ng = len(self.gens)
            go, ro = row[:ng].tolist(), row[ng:].tolist()
            rank = {g: r for r, g in enumerate(go)}
            pairs, free = reduce_columns(
                ({rank[g] for g in self.cols[j]} for j in ro), ng)
            t = self.templates[key] = (
                [go[r] for r, _ in pairs], [ro[c] for _, c in pairs],
                [go[r] for r in free])
        return t

    def bars(self, push):
        """(births, deaths, essential births) over a chunk of lines, where
        push maps a grade to its push values along the chunk; every order
        is taken from the values push returns."""
        # the lines of a chunk may come as a block, (r, n) arrays: the
        # pushes are flattened to one line axis and the slots reshaped back
        gp = np.stack([push(*g) for g in self.gens])
        shape = gp.shape[1:]
        gp = gp.reshape(len(self.gens), -1)
        rp = np.stack([push(*r) for r in self.rels]).reshape(
            len(self.rels), -1) if self.rels else gp[:0]
        rows, inv = _row_groups(np.concatenate(
            [np.argsort(gp, axis=0, kind="stable"),
             np.argsort(rp, axis=0, kind="stable")]).T)
        slots = [self._template(row) for row in rows]

        def gather(vals, part):
            idx = np.array([t[part] for t in slots], dtype=np.intp)
            out = np.take_along_axis(vals, idx[inv].T, axis=0)
            return list(out.reshape(out.shape[:1] + shape))

        # no death precedes its birth: a reduced column sums columns that
        # push no later than its own relation, and each relation pushes no
        # earlier than its own generators (in floats too, rounding being
        # monotone)
        return gather(gp, 0), gather(rp, 1), gather(gp, 2)


def _split(pres):
    """A valid presentation as (rects, rest): the rectangles of its
    rectangle-shaped components, (lower, upper) with INF for an infinite
    upper coordinate, and the (gens, rels) of _Pres for the others, None
    when there are none.

    The components are those of the graph that joins the generators of
    each relation column.  Column reduction adds a column only to one that
    shares its pivot, so it never mixes two components: each keeps its own
    rank and pairing, ties broken by input index as in the whole matrix.
    A relation with an empty column never pairs and is dropped.  A
    component of one generator g whose relations each share a coordinate
    with g, all of them at or above g, is the rectangle [g, (u1, u2)): u1
    is the least first coordinate of a relation at g's second coordinate,
    u2 the least second coordinate of one at g's first, INF where there is
    none, and a relation at g itself makes both u1, u2 those of g, a bar of
    zero length on every line, as its template gives it.  On a line the
    template pairs g with the relation of least push, and push(r) is
    max(push(g), the crossing of r's other coordinate), so the death is
    the rectangle's, in floats too, rounding being monotone.
    """
    idx = {name: i for i, (name, _) in enumerate(pres.generators)}
    root = list(range(len(idx)))

    def find(i):
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    rels = []
    for _, grade, col in pres.relations:
        if col:
            js = [idx[n] for n in col]
            rels.append((grade, js))
            for j in js[1:]:
                root[find(j)] = find(js[0])
    members, owned = {}, {}
    for i in range(len(idx)):
        members.setdefault(find(i), []).append(i)
    for grade, js in rels:
        owned.setdefault(find(js[0]), []).append(grade)
    rects, tangled = [], []
    for r, gens in members.items():
        g = pres.generators[gens[0]][1]
        grades = owned.get(r, ())
        if len(gens) == 1 and all(x == g[0] or y == g[1]
                                  for x, y in grades):
            rects.append((g, (
                min((x for x, y in grades if y == g[1]), default=INF),
                min((y for x, y in grades if x == g[0]), default=INF))))
        else:
            tangled += gens
    if not tangled:
        return rects, None
    tangled.sort()
    at = {i: t for t, i in enumerate(tangled)}
    return rects, ([pres.generators[i][1] for i in tangled],
                   [(grade, {at[j] for j in js}) for grade, js in rels
                    if at.get(js[0]) is not None])


def _side(module, conv):
    """A module in the kernel's arithmetic, conv mapping each finite
    coordinate into it: (essential lowers, finite rects, pres).  A finite
    rect is its lower corner and the (axis, value) of each finite upper
    coordinate.  A rectangle module gives its rectangles, and a
    presentation, validated first, those of its rectangle-shaped
    components (_split); pres is the _Pres of its other components, None
    when there are none.

    Raises:
        InvalidPresentation: if a presentation is malformed.
    """
    if module.rectangles is None:
        rects, rest = _split(_validated(module.presentation))
    else:
        rects, rest = [(r.lower, r.upper) for r in module.rectangles], None
    ess, fin = [], []
    for lower, upper in rects:
        lower = (conv(lower[0]), conv(lower[1]))
        uppers = [(axis, conv(u)) for axis, u in enumerate(upper)
                  if not is_inf(u)]
        if uppers:
            fin.append((lower, uppers))
        else:
            ess.append(lower)
    return ess, fin, None if rest is None else _Pres(*rest, conv)


def _sides(M, N, conv):
    """_side(M, conv), _side(N, conv)."""
    return _side(M, conv), _side(N, conv)


def essential_count(side):
    """The essential bars of a side on every line."""
    ess, _, pres = side
    return len(ess) + (0 if pres is None else pres.essential)


def vector_ready(M, N) -> bool:
    """Whether the kernel takes bottleneck.cheapest_matching, not
    threshold_matching: whether the module with fewer finite bars has at
    most MAX_FINITE of them (fibered.bar_counts), finite rectangles of a
    rectangle module, the rank of the relation matrix of a presentation.

    cheapest_matching takes its columns over the smaller side, at
    rows * 2^cols * cols array operations per chunk, and holds two tables
    of up to 2^cols arrays of CHUNK values: 2 * 2^6 * CHUNK * 8 bytes, about
    16 MB, at the cap.  Rows, the larger side's bars, cost linearly.
    Essential bars need no cap: sorting them takes e*(e-1)/2
    compare-exchanges per side.  A presentation adds two argsorts of its
    grade pushes and a grouping of the lines by those orders per chunk, and
    one GF(2) reduction per distinct pair of orders (_Pres).

    Raises:
        InvalidPresentation: if a presentation is malformed.
    """
    return min(bar_counts(M)[0], bar_counts(N)[0]) <= MAX_FINITE


def line_floats(dxs, dys, ks, lam):
    dx = np.asarray(dxs, dtype=np.float64)
    dy = np.asarray(dys, dtype=np.float64)
    k = np.asarray(ks, dtype=np.float64)
    mx = np.maximum(dx, dy)
    m1 = dx / mx
    m2 = dy / mx
    b1 = k / (float(lam) * (dx + dy))
    return m1, m2, b1, -b1


class _FloatLines:
    """Float arithmetic of the kernel over lines in standard normalization:
    a coordinate v is crossed at the line parameter (v - b)/m, lengths are
    halved, and the weight min(m1, m2) scales the cost."""

    def __init__(self, m1, m2, b1, b2):
        self.lines = ((b1, m1), (b2, m2))
        self.weight = np.minimum(m1, m2)

    def zeros(self):
        return np.zeros(np.broadcast(
            *(a for line in self.lines for a in line)).shape)

    def cross(self, axis, v):
        b, m = self.lines[axis]
        return (v - b) / m

    def extent(self, axis, w):
        return w / self.lines[axis][1]

    @staticmethod
    def half(x):
        # the double x / 2, also on subnormals: both round x/2 exactly once
        return x * 0.5

    @staticmethod
    def whole(x):
        return x

    def weigh(self, total):
        return self.weight * total


class _KeyNumerators:
    """Exact arithmetic of the kernel over keys (dx, dy, k) with scaling lam
    and lam-scaled integer coordinates: every push and pull onto the line is
    a numerator over the common denominator lam*(dx+dy)*dx*dy.  Lengths are
    kept whole, so costs are numerators over twice that denominator, and
    the weighted value is a fraction (p, q) per line, q > 0, not reduced:
    reduce_fractions reduces it.  The arrays are int64 or Python ints in
    object arrays."""

    def __init__(self, lam, dxv, dyv, kv=None):
        self.lam, self.dxv, self.dyv, self.kv = lam, dxv, dyv, kv
        self.s = dxv + dyv

    def zeros(self):
        return np.zeros_like(self.dxv)

    def cross(self, axis, v):
        if axis == 0:
            return (self.s * v - self.kv) * self.dyv
        return (self.s * v + self.kv) * self.dxv

    def extent(self, axis, w):
        # cross(axis, v + w) - cross(axis, v): k cancels
        return self.s * w * (self.dyv if axis == 0 else self.dxv)

    @staticmethod
    def half(x):
        return x

    @staticmethod
    def whole(x):
        return 2 * x

    def weigh(self, total):
        return (np.minimum(self.dxv, self.dyv) * total,
                2 * self.lam * self.s * self.dxv * self.dyv)


def _chunk(sm, sn, ar):
    """Weighted bottleneck costs of the sides sm, sn over one chunk of
    lines, in the arithmetic ar (_FloatLines or _KeyNumerators): the finite
    bars through the matching minimum vector_ready names, the essential
    ones through the sorted matching."""
    # crossings of x = v and y = v, once per distinct coordinate value;
    # rectangles of one module share many
    at = ({}, {})

    def cross(axis, v):
        t = at[axis].get(v)
        if t is None:
            t = at[axis][v] = ar.cross(axis, v)
        return t

    def push(l1, l2):
        return np.maximum(cross(0, l1), cross(1, l2))

    def bars(side):
        ess, fin, pres = side
        births, deaths = [], []
        for lower, uppers in fin:
            b = push(*lower)
            d = reduce(np.minimum, [cross(axis, u) for axis, u in uppers])
            births.append(b)
            deaths.append(np.maximum(b, d))
        essential = [push(*e) for e in ess]
        if pres is not None:
            b, d, e = pres.bars(push)
            births += b
            deaths += d
            essential += e
        return births, deaths, essential

    bm, dm, em = bars(sm)
    bn, dn, en = bars(sn)
    hm = [ar.half(d - b) for b, d in zip(bm, dm)]
    hn = [ar.half(d - b) for b, d in zip(bn, dn)]
    pc = [[ar.whole(np.maximum(np.abs(bm[i] - bn[j]), np.abs(dm[i] - dn[j])))
           for j in range(len(bn))] for i in range(len(bm))]

    match = (cheapest_matching if min(len(hm), len(hn)) <= MAX_FINITE
             else threshold_matching)
    fin_cost = match(pc, hm, hn)
    if fin_cost is None:
        fin_cost = ar.zeros()
    ess_cost = _essential_cost(em, en)
    if ess_cost is not None:
        fin_cost = np.maximum(fin_cost, ar.whole(ess_cost))
    return ar.weigh(fin_cost)


def _finite_rects(sm, sn):
    """The finite rects of the converted sides sm, sn, or None when a side
    has an entangled component (a _Pres) or essential bars.  Only pairs of
    rectangles without essential bars, rectangle modules or presentations
    of rectangle-shaped components, have every bar die on one offset
    interval per direction and a weighted cost that a direction bounds."""
    if any(pres is not None or ess for ess, _, pres in (sm, sn)):
        return None
    return sm[1] + sn[1]


def _direction_bound(fin, ar):
    """An upper bound on _chunk's weighted cost over the lines of the
    arithmetic ar, from the finite rects fin of both sides: the weight times
    the largest half-length a bar can have, the least over its finite
    uppers u of ar.extent(axis, u - l).

    Matching every bar to the diagonal is feasible, and a bar lives between
    its lower and each finite upper crossing.  On a key (dx, dy, k) a width
    w gives s*w*dy on the first axis and s*w*dx on the second, k cancelling
    (s = dx + dy), so on integers the bound takes directions alone: exact,
    over the kernel's own q = 2*lam*s*dx*dy, and exact under the map's
    certificate with kb = 0 (exact_evaluator), s*w*dy being at most twice
    a push bound.  In floats each crossing rounds; _row_bound adds the
    margin."""
    ext = {}

    def extent(axis, w):
        t = ext.get((axis, w))
        if t is None:
            t = ext[axis, w] = ar.extent(axis, w)
        return t

    total = reduce(np.maximum, [
        reduce(np.minimum, [extent(axis, u - lower[axis])
                            for axis, u in uppers])
        for lower, uppers in fin])
    return ar.weigh(ar.half(total))


def _row_bound(fin, m1, m2, b1, b2):
    """Per direction of the (r, 1) column m1, m2, a float no float cost of
    _chunk on that direction exceeds, at any offset of the row b1, b2:
    _direction_bound plus the margin 2^-48*(V + B) + 2^-1022, V the largest
    |coordinate| of the finite rects fin and B the largest |b|.  Without
    finite rects (fin None or empty, _finite_rects) every entry is +inf,
    which bounds nothing.

    The margin, with u = 2^-53: a crossing c(v) = fl(fl(v - b)/m) rounds
    twice, so it lies within 2.0001u*(|v| + |b|)/m of (v - b)/m.  A bar's
    float length is at most c(u) - c(l) on any axis with a finite upper u,
    as max and min are exact, which is the width's (u - l)/m plus at most
    2.0001u*(|u| + |l| + 2|b|)/m <= 4.0002u*(V + B)/m.  Halving, the
    matching minimum (at most the largest half-length, max and min being
    exact) and the product with the weight w = min(m1, m2) <= m round twice
    more, and w/m <= 1 turns the crossing error into an absolute
    2.0001u*(V + B) per row, whatever the direction.  The bound's own float
    steps, fl(u - l), the division, the halving and the weight, each round
    down by at most a relative u, or 6.01u in all on a bound T <= V.  So a
    cost exceeds the bound by at most 8.2u*(V + B), within the margin's 32u
    after its own two roundings and that of the sum; 2^-1022 covers a
    halving that rounds a subnormal up.  Offsets past the box make B large
    and the bound loose, never wrong.
    """
    if not fin:
        return np.full(np.shape(m1), math.inf)
    scale = max(abs(v) for lower, uppers in fin
                for v in (*lower, *(u for _, u in uppers)))
    reach = max(float(np.abs(b).max()) for b in (b1, b2))
    margin = 2.0 ** -48 * (scale + reach) + 2.0 ** -1022
    return _direction_bound(fin, _FloatLines(m1, m2, b1, b2)) + margin


def _first_true(pred, shape, n):
    """Per entry of shape, the first index j in [0, n] at which pred(j)
    holds, n when it never does, for a predicate that holds at every index
    past one where it holds: a bisection vectorized over the entries, with
    pred taking an index array of that shape."""
    lo = np.zeros(shape, dtype=np.intp)
    hi = np.full(shape, n, dtype=np.intp)
    for _ in range(n.bit_length()):
        active = lo < hi
        mid = (lo + hi) // 2
        holds = pred(np.minimum(mid, n - 1))
        hi = np.where(active & holds, mid, hi)
        lo = np.where(active & ~holds, mid + 1, lo)
    return lo


def _live_span(fin, m1, m2, b1, b2):
    """Per direction row, the column span [lo, hi) of the offset row outside
    which _chunk gives +0.0 in floats, for the finite rects fin of the sides
    that line_evaluator converted (_finite_rects, None for an entangled
    presentation or essential bars): m1, m2 are an (r, 1) direction
    column, b1, b2 the (1, n) row b = (-o/2, o/2) of nondecreasing offsets
    o.  A row with no live column gets lo = n, hi = 0, so that a hull of
    rows is the min of their lo and the max of their hi.

    The span is exact in the kernel's own float predicates, with no bound.
    b1 = -o/2 and b2 = o/2 move monotonically with o, and so does each
    crossing, one rounded subtraction and one rounded division:
    (v - b1)/m1 never falls and (v - b2)/m2 never rises as o grows.  A
    finite bar of a rectangle with lower (l1, l2) has birth
    max(cross0(l1), cross1(l2)) and death max(birth, min of its finite
    upper crossings).  So it is dead, its death equal to its birth, where
    P2 = cross0(u1) > cross1(l2) fails for a finite u1, and where
    P3 = cross1(u2) > cross0(l1) fails for a finite u2; an infinite upper
    drops its predicate.  Along a row P2 turns from false to true at most
    once and P3 from true to false, so each bar can be alive only on one
    interval of columns, found by bisection, and the span is the hull of
    those intervals over both modules.  Outside it every half-length is
    b - b = +0.0, every matching minimum of nonnegative costs with an
    all-diagonal option of cost +0.0 is +0.0, and the weight times +0.0 is
    +0.0: the value the full evaluation gives, bit for bit, as long as the
    crossings are finite.

    Entangled presentations and essential bars, where fin is None, get
    full rows: their bars need not die on one offset interval, and
    essential costs stay positive far away.  So do two trivial modules,
    whose fin is empty and whose rows hold no bar at all.
    """
    r, n = len(m1), b1.shape[-1]
    if not fin:
        return np.zeros(r, dtype=np.intp), np.full(r, n, dtype=np.intp)
    # an infinite upper crosses at inf, where its predicate always holds
    l1, l2, u1, u2 = np.array([
        (*lower, *(dict(uppers).get(axis, np.inf) for axis in (0, 1)))
        for lower, uppers in fin]).T
    bo, bt = b1.ravel(), b2.ravel()

    def p2(j):
        return (u1 - bo[j]) / m1 > (l2 - bt[j]) / m2

    def p3_fails(j):
        return ~((u2 - bt[j]) / m2 > (l1 - bo[j]) / m1)

    shape = (r, len(fin))
    lo, hi = _first_true(p2, shape, n), _first_true(p3_fails, shape, n)
    dead = lo >= hi
    return (np.where(dead, n, lo).min(axis=1),
            np.where(dead, 0, hi).max(axis=1))


def line_evaluator(M, N):
    """The weighted-cost map of two modules over float lines, with
    both modules converted into the kernel's floats once, for every call.

    The map takes line arrays (m1, m2, b1, b2) in standard normalization,
    max(m1, m2) = 1 and b2 = -b1, that broadcast to one shape, and returns
    the costs in that shape.  A grid block passes its directions as an
    (r, 1) column and its offsets as a (1, n) row: a crossing (v - b)/m then
    takes v - b once per offset and one division per line, and no line
    array is built.  Every operation is elementwise, so each cost is the
    one the lines would get as flat arrays, bit for bit.  The lines go
    through the kernel in slices of the last axis of about CHUNK lines.
    Sides with unequal essential counts (essential_count) give +inf on every
    line, in the lines' broadcast shape: no matching pairs every essential
    bar.

    Every map has two attributes, each a partial of its function over the
    finite rects of the same converted sides (_finite_rects), taken once.
    live_span(m1, m2, b1, b2) is _live_span: for a direction column against
    a nondecreasing offset row, the columns of each row outside which the
    map gives +0.0.  row_bound(m1, m2, b1, b2) is _row_bound: per direction
    of the column, a float that no cost on that direction exceeds, at any
    offset of the row, +inf unless the pair is one of rectangles without
    essential bars (_finite_rects), rectangle modules or presentations
    whose components are all rectangle-shaped.
    """
    sm, sn = _sides(M, N, float)
    unequal = essential_count(sm) != essential_count(sn)

    def costs(m1, m2, b1, b2):
        lines = (m1, m2, b1, b2)
        shape = np.broadcast(*lines).shape
        if unequal:
            return np.full(shape, math.inf)
        n = shape[-1]
        width = max(1, CHUNK // max(1, math.prod(shape[:-1])))
        if 0 < n <= width:
            return _chunk(sm, sn, _FloatLines(*lines))
        out = np.empty(shape, dtype=np.float64)
        for s in range(0, n, width):
            sl = (..., slice(s, s + width))
            out[sl] = _chunk(sm, sn, _FloatLines(
                *(a if a.shape[-1] == 1 else a[sl] for a in lines)))
        return out

    fin = _finite_rects(sm, sn)
    costs.live_span = partial(_live_span, fin)
    costs.row_bound = partial(_row_bound, fin)
    return costs


def eval_lines(M, N, m1, m2, b1, b2):
    """Weighted bottleneck costs of two modules over 1-d float
    line arrays, through line_evaluator: +inf on every line when the
    essential counts differ.

    Lines are in standard normalization: max(m1, m2) = 1, b2 = -b1.
    """
    return line_evaluator(M, N)(m1, m2, b1, b2)


def eval_keys(M, N, dxs, dys, ks, lam):
    m1, m2, b1, b2 = line_floats(dxs, dys, ks, lam)
    return eval_lines(M, N, m1, m2, b1, b2)


def exact_evaluator(M, N, lam):
    """The exact weighted-cost map over key arrays (dxv, dyv, kv) with
    scaling lam, with both modules converted into lam-scaled integers once,
    for every call.  It returns unreduced fractions (p, q), q > 0, int64 or
    Python ints in object arrays, and raises ValueError on unequal
    essential counts.  The map's sides are the converted sides.  A
    coordinate v becomes numerator*(lam // denominator): lam clears the
    denominator of every module coordinate, a critical value's.

    The map certifies its own arithmetic, call by call, on the keys it
    gets: object keys stay object, and integer keys are valued in int64
    when every intermediate of the kernel, the unreduced numerators and
    denominators among them, is below 2^62, and in Python ints otherwise.
    With dxm, dym and kb the largest dx, dy and |k| of the call, s = dxm +
    dym, m = max(dxm, dym) and amax the largest |converted coordinate|, a
    push numerator is at most (s*amax + kb)*m, a weighted numerator at most
    4*m^2*(s*amax + kb) and q at most 2*lam*s*dxm*dym.

    A presentation's push numerators order its grades exactly as
    restrict_presentation's push parameters do, ties included, so its
    barcode templates pair the same generators and relations.

    Every map has a bound(dxv, dyv): per direction, the exact direction
    bound as unreduced fractions (p_ub, q_ub), the arrays of
    _direction_bound, with q_ub the map's own q and p <= p_ub on every line
    of that direction, exact under the map's certificate with kb = 0, on a
    pair of rectangles without essential bars (_finite_rects), rectangle
    modules or presentations whose components are all rectangle-shaped,
    with a finite rect.  On every other pair it is the fraction 1/0 in
    int64 arrays, whatever the keys' dtype: doubles gives it +inf, and it
    equals no reduced value, whose q is at least 1.
    """
    amax = 0

    def conv(v):
        nonlocal amax
        c = v.numerator * (lam // v.denominator)
        amax = max(amax, abs(c))
        return c

    sm, sn = _sides(M, N, conv)

    def numerators(dxv, dyv, kv=None):
        # kv None: directions alone, certified with kb = 0
        keys = (dxv, dyv) if kv is None else (dxv, dyv, kv)
        if dxv.dtype != object:
            dxm, dym = int(dxv.max(initial=0)), int(dyv.max(initial=0))
            kb = 0 if kv is None else max(int(kv.max(initial=0)),
                                          -int(kv.min(initial=0)))
            s, m = dxm + dym, max(dxm, dym)
            fits = max(4 * m * m * (s * amax + kb),
                       2 * lam * s * dxm * dym) < 1 << 62
            keys = (v.astype(np.int64 if fits else object, copy=False)
                    for v in keys)
        return _KeyNumerators(lam, *keys)

    def values(dxv, dyv, kv):
        return _chunk(sm, sn, numerators(dxv, dyv, kv))

    fin = _finite_rects(sm, sn)

    def bound(dxv, dyv):
        if not fin:
            # int64 even for object keys: 1/0 on Python ints raises
            return np.ones_like(dxv, np.int64), np.zeros_like(dxv, np.int64)
        return _direction_bound(fin, numerators(dxv, dyv))

    values.sides = sm, sn
    values.bound = bound
    return values


def key_diagram(side, dx, dy, k, lam):
    """restrict_module's diagram of a module on the line of the key
    (dx, dy, k), tuple for tuple, from its side as exact_evaluator converts
    it.

    A numerator c of _KeyNumerators.cross is the line parameter
    c*max(dx, dy)/(lam*s*dx*dy), s = dx + dy, so the bars are built and
    sorted on the integers, by (birth, essential, death) as fibered sorts
    them, and each endpoint becomes one rational at the end.  Dead bars and
    zero-length pairs are dropped.  A side's _Pres is paired by its
    template for the orders by (numerator, index), restrict_presentation's.
    """
    ar = _KeyNumerators(lam, dx, dy, k)

    def push(grade):
        return max(ar.cross(0, grade[0]), ar.cross(1, grade[1]))

    lowers, rects, pres = side
    fin = [(push(lower), min(ar.cross(*u) for u in uppers))
           for lower, uppers in rects]
    ess = [push(lower) for lower in lowers]
    if pres is not None:
        gp, rp = [push(g) for g in pres.gens], [push(r) for r in pres.rels]
        row = [i for v in (gp, rp) for i in sorted(range(len(v)),
                                                   key=v.__getitem__)]
        gens, rels, free = pres._template(np.array(row, dtype=np.intp))
        fin += [(gp[g], rp[r]) for g, r in zip(gens, rels)]
        ess += [gp[g] for g in free]
    mx, den = max(dx, dy), lam * ar.s * dx * dy
    # built without Bar.__post_init__: every birth is finite, and every
    # death INF or a numerator above the birth's
    new, put = object.__new__, object.__setattr__
    out = []
    for b, essential, d in sorted([(b, False, d) for b, d in fin if b < d]
                                  + [(b, True, 0) for b in ess]):
        bar = new(Bar)
        put(bar, "birth", Q(b * mx, den))
        put(bar, "death", INF if essential else Q(d * mx, den))
        out.append(bar)
    return tuple(out)


def doubles(ps, qs):
    """The doubles of the fractions ps/qs: int64 arrays convert each side
    and divide, and object arrays divide Python ints, one correctly
    rounded int / int per entry.  An int64 fraction p/0, p > 0, gives
    +inf."""
    with np.errstate(divide="ignore"):
        return (ps / qs).astype(np.float64, copy=False)


def reduce_fractions(ps, qs):
    """The fractions ps/qs in lowest terms, as new arrays."""
    g = np.gcd(ps, qs)
    return ps // g, qs // g


def exact_reduced_values(M, N, dxv, dyv, kv, lam):
    """Exact weighted costs over key arrays as reduced fractions.

    Returns (p, q) arrays with value = p/q in lowest terms, valued through
    exact_evaluator CHUNK keys at a time: int64 when every chunk is
    certified in int64, Python ints in object arrays otherwise.  Requires
    modules with equal essential counts.
    """
    values = exact_evaluator(M, N, lam)
    parts = [values(dxv[t:t + CHUNK], dyv[t:t + CHUNK], kv[t:t + CHUNK])
             for t in range(0, len(dxv), CHUNK)]
    if not parts:
        return dxv[:0], dxv[:0]
    return reduce_fractions(*(np.concatenate(c) for c in zip(*parts)))
