"""Vectorized evaluation of weighted bottleneck costs over many lines.

Rectangle modules take these paths when the side with fewer finite
rectangles has at most MAX_FINITE of them; the number of essential
rectangles is not limited.  The caller falls back to exact per-line
evaluation otherwise, and for presentations.  Dead bars are collapsed to
zero-length bars at their birth instead of being dropped, which leaves the
bottleneck value unchanged (a zero-length bar matches the diagonal for free,
and pairing any bar with a point on the diagonal never beats that bar's own
half-persistence), so every rectangle keeps a fixed slot across all lines.

Two precisions share one structure.  The float path screens large line sets
with a sound error margin.  The integer path is exact: on the key (dx, dy, k)
with scaling lam, every push and pull onto the line is a fraction over the
common per-line denominator lam*(dx+dy)*dx*dy, so bottleneck costs reduce to
integer max/min arithmetic on numerators, and the weighted value becomes a
canonical reduced fraction per line.  All intermediates are certified against
the int64 range before the path is taken.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .rational import INF

MAX_FINITE = 6
CHUNK = 16384


@lru_cache(maxsize=None)
def match_patterns(r1, r2):
    """All partial injections of range(r1) into range(r2), with leftovers."""
    out = []
    for k in range(min(r1, r2) + 1):
        for c1 in combinations(range(r1), k):
            for c2 in permutations(range(r2), k):
                s1 = tuple(i for i in range(r1) if i not in c1)
                s2 = tuple(j for j in range(r2) if j not in c2)
                out.append((tuple(zip(c1, c2)), s1, s2))
    return tuple(out)


def _max(a, b):
    return a if b is None else np.maximum(a, b)


def _cheapest_matching(pc, h1, h2):
    """Elementwise bottleneck cost of the cheapest partial matching: the
    minimum over match_patterns(len(h1), len(h2)) of the maximum of the
    matched pc[i][j], the unmatched h1[i] and the unmatched h2[j]; None when
    both sides are empty.

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


def vector_ready(M, N) -> bool:
    """Whether both modules are rectangle modules and the one with fewer
    finite rectangles has at most MAX_FINITE of them.

    The matching minimum takes its columns over the smaller side, at
    rows * 2^cols * cols array operations per chunk, and holds two tables
    of up to 2^cols arrays of CHUNK values: 2 * 2^6 * CHUNK * 8 bytes, about
    16 MB, at the cap.  Rows, the larger side's rectangles, cost linearly.
    Essential rectangles need no cap: sorting them takes e*(e-1)/2
    compare-exchanges per side.
    """
    if M.rectangles is None or N.rectangles is None:
        return False
    _, fm = _split(M)
    _, fn = _split(N)
    return min(len(fm), len(fn)) <= MAX_FINITE


def coord_scale(M, N) -> float:
    out = 1.0
    for mod in (M, N):
        for r in mod.rectangles:
            for v in (*r.lower, *r.upper):
                if v != INF:
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
    """Weighted bottleneck costs for rectangle modules over float line arrays.

    Lines are in standard normalization: max(m1, m2) = 1, b2 = -b1.
    Requires equal essential counts on the two sides.
    """
    em, fm = _split(M)
    en, fn = _split(N)
    if len(em) != len(en):
        raise ValueError("essential counts differ")
    out = np.empty(len(m1), dtype=np.float64)
    for s in range(0, len(m1), CHUNK):
        sl = slice(s, s + CHUNK)
        out[sl] = _eval_chunk(em, fm, en, fn,
                              m1[sl], m2[sl], b1[sl], b2[sl])
    return out


def _eval_chunk(em, fm, en, fn, m1, m2, b1, b2):
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

    def bars(fin):
        births, deaths = [], []
        for l1, l2, u1, u2 in fin:
            b = push(l1, l2)
            d = np.minimum(cross(at1, u1, b1, m1), cross(at2, u2, b2, m2))
            births.append(b)
            deaths.append(np.maximum(b, d))
        return births, deaths

    bm, dm = bars(fm)
    bn, dn = bars(fn)
    hm = [(d - b) / 2 for b, d in zip(bm, dm)]
    hn = [(d - b) / 2 for b, d in zip(bn, dn)]
    pc = [[np.maximum(np.abs(bm[i] - bn[j]), np.abs(dm[i] - dn[j]))
           for j in range(len(fn))] for i in range(len(fm))]

    fin_cost = _cheapest_matching(pc, hm, hn)
    if fin_cost is None:
        fin_cost = np.zeros_like(m1)

    total = _max(fin_cost, _essential_cost([push(*e) for e in em],
                                           [push(*e) for e in en]))
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
    """
    em, fm = _split_int(M, lam)
    en, fn = _split_int(N, lam)
    if len(em) != len(en):
        raise ValueError("essential counts differ")
    coords = [v for rs in (em, fm, en, fn) for r in rs for v in r
              if v is not None]
    amax = max((abs(v) for v in coords), default=0)
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
        ps[sl], qs[sl] = _exact_chunk(em, fm, en, fn, lam,
                                      dxv[sl], dyv[sl], kv[sl])
    return ps, qs


def _exact_chunk(em, fm, en, fn, lam, dxv, dyv, kv):
    s = dxv + dyv

    def push(l1, l2):
        return np.maximum((s * l1 - kv) * dyv, (s * l2 + kv) * dxv)

    def bars(fin):
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
        return births, deaths

    bm, dm = bars(fm)
    bn, dn = bars(fn)
    # numerators over the common denominator 2*lam*(dx+dy)*dx*dy
    hm = [d - b for b, d in zip(bm, dm)]
    hn = [d - b for b, d in zip(bn, dn)]
    pc = [[2 * np.maximum(np.abs(bm[i] - bn[j]), np.abs(dm[i] - dn[j]))
           for j in range(len(fn))] for i in range(len(fm))]

    fin_cost = _cheapest_matching(pc, hm, hn)
    if fin_cost is None:
        fin_cost = np.zeros_like(dxv)

    ess_cost = _essential_cost([push(*e) for e in em],
                               [push(*e) for e in en])
    total = fin_cost if ess_cost is None else \
        np.maximum(fin_cost, 2 * ess_cost)

    p = np.minimum(dxv, dyv) * total
    q = 2 * lam * s * dxv * dyv
    g = np.gcd(p, q)
    return p // g, q // g
