"""Vectorized evaluation of weighted bottleneck costs over many lines.

Modules take these paths when the side with fewer finite bars has at most
MAX_FINITE of them (vector_ready): finite rectangles of a rectangle module,
the rank of the relation matrix of a presentation.  The number of essential
bars is not limited.  The caller falls back to exact per-line evaluation
otherwise.  Every module keeps a fixed set of bar slots across all lines.
Dead bars are collapsed to zero-length bars at their birth instead of being
dropped, which leaves the bottleneck value unchanged (a zero-length bar
matches the diagonal for free, and pairing any bar with a point on the
diagonal never beats that bar's own half-persistence).  A rectangle has one
slot.  A presentation reads its slots off barcode templates, one GF(2)
reduction per distinct pair of grade push orders (_Pres), after Lesnick and
Wright's per-cell templates in RIVET; no line is reduced on its own.

Two precisions share one structure.  The float path screens large line sets
with a sound error margin; a presentation's float pushes order its grades
within rounding, and rounding is monotone, so every relation stays at or
after its own generators and the float barcode is that of a filtration
within push rounding error.  The integer path is exact: on the key
(dx, dy, k) with scaling lam, every push and pull onto the line is a
fraction over the common per-line denominator lam*(dx+dy)*dx*dy, so
bottleneck costs reduce to integer max/min arithmetic on numerators, and the
weighted value becomes a canonical reduced fraction per line.  All
intermediates are certified against the int64 range before the path is
taken.
"""
from __future__ import annotations

import numpy as np

from .fibered import bar_counts, reduce_columns
from .rational import INF

MAX_FINITE = 6
CHUNK = 16384


def _max(a, b):
    return a if b is None else np.maximum(a, b)


def _cheapest_matching(pc, h1, h2):
    """Elementwise bottleneck cost of the cheapest partial matching: the
    minimum over bottleneck.match_patterns(len(h1), len(h2)) of the maximum
    of the matched pc[i][j], the unmatched h1[i] and the unmatched h2[j];
    None when both sides are empty.

    Rows are matched one at a time, keeping for every set of used columns
    the cheapest cost of the rows still to come.  max and min are exact, so
    the result equals the pattern-by-pattern minimum bit for bit, at a
    fraction of its array operations (4x4: 199 against 1127).  The columns
    are taken over the smaller side, which transposes pc when h2 is longer;
    the minimum is symmetric, so the result is unchanged.
    """
    if len(h2) > len(h1):
        pc = [[row[j] for row in pc] for j in range(len(h2))]
        h1, h2 = h2, h1
    r1, r2 = len(h1), len(h2)
    full = (1 << r2) - 1
    # rest[S]: cost of the columns left unmatched once the rows are done
    rest = {full: None}
    for used in range(full - 1, -1, -1):
        j = (~used & (used + 1)).bit_length() - 1  # lowest unused column
        rest[used] = _max(h2[j], rest[used | 1 << j])
    for i in reversed(range(r1)):
        rest = {used: _row_cost(pc[i], h1[i], rest, used, r2)
                for used in rest if bin(used).count("1") <= i}
    return rest[0]


def _row_cost(pci, h1i, rest, used, r2):
    best = _max(h1i, rest[used])
    for j in range(r2):
        if not used >> j & 1:
            best = np.minimum(best, _max(pci[j], rest[used | 1 << j]))
    return best


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
    are empty.

    The sorted matching is optimal on a line, and rounding is monotone, so
    in floats too the result equals the minimum over all permutations bit
    for bit.
    """
    cost = None
    for a, b in zip(_sorted_network(e1), _sorted_network(e2)):
        cost = _max(np.abs(a - b), cost)
    return cost


def _split(module):
    """(essential lowers, finite rects) as float tuples; inf upper allowed on
    one coordinate of a finite rect."""
    ess, fin = [], []
    for r in module.rectangles:
        l1, l2 = float(r.lower[0]), float(r.lower[1])
        u1 = INF if r.upper[0] == INF else float(r.upper[0])
        u2 = INF if r.upper[1] == INF else float(r.upper[1])
        if u1 == INF and u2 == INF:
            ess.append((l1, l2))
        else:
            fin.append((l1, l2, u1, u2))
    return ess, fin


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
    """A presentation's grades, in the kernel's coordinates, and its barcode
    templates.

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

    def __init__(self, module, conv):
        pres = module.presentation
        idx = {name: i for i, (name, _) in enumerate(pres.generators)}
        self.gens = [(conv(g[0]), conv(g[1])) for _, g in pres.generators]
        self.rels = [(conv(g[0]), conv(g[1])) for _, g, _ in pres.relations]
        self.cols = [[idx[n] for n in col] for _, _, col in pres.relations]
        self.essential = bar_counts(module)[1]
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
        if not self.gens:
            return [], [], []
        gp = np.stack([push(*g) for g in self.gens])
        rp = np.stack([push(*r) for r in self.rels]) if self.rels else gp[:0]
        rows, inv = _row_groups(np.concatenate(
            [np.argsort(gp, axis=0, kind="stable"),
             np.argsort(rp, axis=0, kind="stable")]).T)
        slots = [self._template(row) for row in rows]

        def gather(vals, part):
            idx = np.array([t[part] for t in slots], dtype=np.intp)
            return list(np.take_along_axis(vals, idx[inv].T, axis=0))

        # no death precedes its birth: a reduced column sums columns that
        # push no later than its own relation, and each relation pushes no
        # earlier than its own generators (in floats too, rounding being
        # monotone)
        return gather(gp, 0), gather(rp, 1), gather(gp, 2)


def _float_side(module):
    if module.rectangles is None:
        return _Pres(module, float)
    return _split(module)


def _sides(M, N, side):
    """side(M), side(N): a _Pres or the (essential, finite) split of a
    rectangle module; raises ValueError on unequal essential counts."""
    sm, sn = side(M), side(N)
    em, en = (s.essential if isinstance(s, _Pres) else len(s[0])
              for s in (sm, sn))
    if em != en:
        raise ValueError("essential counts differ")
    return sm, sn


def vector_ready(M, N) -> bool:
    """Whether the module with fewer finite bars has at most MAX_FINITE of
    them (fibered.bar_counts): finite rectangles of a rectangle module, the
    rank of the relation matrix of a presentation.

    The matching minimum takes its columns over the smaller side, at
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


def _coords(module):
    """Every finite coordinate of the module's grades."""
    if module.rectangles is not None:
        for r in module.rectangles:
            yield from (v for v in (*r.lower, *r.upper) if v != INF)
        return
    pres = module.presentation
    for _, grade in pres.generators:
        yield from grade
    for _, grade, _ in pres.relations:
        yield from grade


def coord_scale(M, N) -> float:
    out = 1.0
    for mod in (M, N):
        for v in _coords(mod):
            out = max(out, abs(float(v)))
    return out


def line_floats(dxs, dys, ks, lam):
    dx = np.asarray(dxs, dtype=np.float64)
    dy = np.asarray(dys, dtype=np.float64)
    k = np.asarray(ks, dtype=np.float64)
    mx = np.maximum(dx, dy)
    m1 = dx / mx
    m2 = dy / mx
    b1 = k / (float(lam) * (dx + dy))
    return m1, m2, b1, -b1


def eval_lines(M, N, m1, m2, b1, b2):
    """Weighted bottleneck costs for vector_ready modules over float line
    arrays.

    Lines are in standard normalization: max(m1, m2) = 1, b2 = -b1.
    Requires equal essential counts on the two sides.
    """
    sm, sn = _sides(M, N, _float_side)
    out = np.empty(len(m1), dtype=np.float64)
    for s in range(0, len(m1), CHUNK):
        sl = slice(s, s + CHUNK)
        out[sl] = _eval_chunk(sm, sn, m1[sl], m2[sl], b1[sl], b2[sl])
    return out


def _eval_chunk(sm, sn, m1, m2, b1, b2):
    # line parameters where the line crosses x = v and y = v, once per
    # distinct coordinate value; rectangles of one module share many
    at1, at2 = {}, {}

    def cross(at, v, b, m):
        t = at.get(v)
        if t is None:
            t = at[v] = (v - b) / m
        return t

    def push(l1, l2):
        return np.maximum(cross(at1, l1, b1, m1), cross(at2, l2, b2, m2))

    def bars(side):
        if isinstance(side, _Pres):
            return side.bars(push)
        ess, fin = side
        births, deaths = [], []
        for l1, l2, u1, u2 in fin:
            b = push(l1, l2)
            d = np.minimum(cross(at1, u1, b1, m1), cross(at2, u2, b2, m2))
            births.append(b)
            deaths.append(np.maximum(b, d))
        return births, deaths, [push(*e) for e in ess]

    bm, dm, em = bars(sm)
    bn, dn, en = bars(sn)
    hm = [(d - b) / 2 for b, d in zip(bm, dm)]
    hn = [(d - b) / 2 for b, d in zip(bn, dn)]
    pc = [[np.maximum(np.abs(bm[i] - bn[j]), np.abs(dm[i] - dn[j]))
           for j in range(len(bn))] for i in range(len(bm))]

    fin_cost = _cheapest_matching(pc, hm, hn)
    if fin_cost is None:
        fin_cost = np.zeros_like(m1)

    total = _max(fin_cost, _essential_cost(em, en))
    return np.minimum(m1, m2) * total


def eval_keys(M, N, dxs, dys, ks, lam):
    m1, m2, b1, b2 = line_floats(dxs, dys, ks, lam)
    return eval_lines(M, N, m1, m2, b1, b2)


def _split_int(module, lam):
    """(essential lowers, finite rects) as exact lam-scaled integers; an
    infinite coordinate of a finite rect becomes None."""
    ess, fin = [], []
    for r in module.rectangles:
        l1, l2 = int(r.lower[0] * lam), int(r.lower[1] * lam)
        u1 = None if r.upper[0] == INF else int(r.upper[0] * lam)
        u2 = None if r.upper[1] == INF else int(r.upper[1] * lam)
        if u1 is None and u2 is None:
            ess.append((l1, l2))
        else:
            fin.append((l1, l2, u1, u2))
    return ess, fin


def exact_reduced_values(M, N, dxv, dyv, kv, lam):
    """Exact weighted costs over int64 key arrays as reduced fractions.

    Returns (p, q) int64 arrays with value = p/q in lowest terms, or None
    when the certified intermediate bounds do not fit int64.  Requires
    vector_ready modules with equal essential counts.

    A presentation's push numerators order its grades exactly as
    restrict_presentation's push parameters do, ties included, so its
    barcode templates pair the same generators and relations.
    """
    def side(module):
        if module.rectangles is None:
            return _Pres(module, lambda v: int(v * lam))
        return _split_int(module, lam)

    sm, sn = _sides(M, N, side)
    amax = max((abs(int(v * lam)) for mod in (M, N) for v in _coords(mod)),
               default=0)
    dxm = int(dxv.max()) if dxv.size else 1
    dym = int(dyv.max()) if dyv.size else 1
    kb = int(np.abs(kv).max()) if kv.size else 0
    s = dxm + dym
    push_bound = (s * amax + kb) * max(dxm, dym)
    num_bound = max(dxm, dym) * 4 * push_bound
    den_bound = 2 * lam * s * dxm * dym
    if max(num_bound, den_bound) >= 1 << 62:
        return None
    ps = np.empty(len(dxv), dtype=np.int64)
    qs = np.empty(len(dxv), dtype=np.int64)
    for t in range(0, len(dxv), CHUNK):
        sl = slice(t, t + CHUNK)
        ps[sl], qs[sl] = _exact_chunk(sm, sn, lam, dxv[sl], dyv[sl], kv[sl])
    return ps, qs


def _exact_chunk(sm, sn, lam, dxv, dyv, kv):
    s = dxv + dyv

    def push(l1, l2):
        return np.maximum((s * l1 - kv) * dyv, (s * l2 + kv) * dxv)

    def bars(side):
        if isinstance(side, _Pres):
            return side.bars(push)
        ess, fin = side
        births, deaths = [], []
        for l1, l2, u1, u2 in fin:
            b = push(l1, l2)
            if u1 is None:
                d = (s * u2 + kv) * dxv
            elif u2 is None:
                d = (s * u1 - kv) * dyv
            else:
                d = np.minimum((s * u1 - kv) * dyv, (s * u2 + kv) * dxv)
            births.append(b)
            deaths.append(np.maximum(b, d))
        return births, deaths, [push(*e) for e in ess]

    bm, dm, em = bars(sm)
    bn, dn, en = bars(sn)
    # numerators over the common denominator 2*lam*(dx+dy)*dx*dy
    hm = [d - b for b, d in zip(bm, dm)]
    hn = [d - b for b, d in zip(bn, dn)]
    pc = [[2 * np.maximum(np.abs(bm[i] - bn[j]), np.abs(dm[i] - dn[j]))
           for j in range(len(bn))] for i in range(len(bm))]

    fin_cost = _cheapest_matching(pc, hm, hn)
    if fin_cost is None:
        fin_cost = np.zeros_like(dxv)

    ess_cost = _essential_cost(em, en)
    total = fin_cost if ess_cost is None else \
        np.maximum(fin_cost, 2 * ess_cost)

    p = np.minimum(dxv, dyv) * total
    q = 2 * lam * s * dxv * dyv
    g = np.gcd(p, q)
    return p // g, q // g
