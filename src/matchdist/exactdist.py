"""Exact matching distance via reduction to finitely many candidate lines.

The distance is a supremum over positive-slope lines of the weighted
bottleneck distance between restricted barcodes.  It is attained on a line
through two members of a finite point set: the lub-closures of the critical
values together with the switch points, the locations where the combinatorial
type of a restriction can change.  Switch points are enumerated by difference
classes: each formula in the catalogue depends on its generating quadruple
only through one or two coordinate differences or corner keys, so classes of
ordered point pairs stand in for quadruples, with a realizability filter
guaranteeing a quadruple with at least three distinct points behind every
emitted point.

Candidate lines are identified by primitive integer keys (dx, dy, k) over a
common-denominator scaling of the point set; a key passes scaled point (X, Y)
when dy*X - dx*Y = k.  The pair enumeration is quadratic in the point set and
can reach tens of millions of pairs, so keys are produced in cache-sized
bands of the upper triangle and consumed by one streaming loop over a single
injective packing of each key into one integer.  One spec (_pack_spec) fixes
every integer type of the stream: the packed keys (int64 when the ranges
allow, Python ints in object arrays otherwise), the blocks and unpacked
keys, and the pair stage's coordinate differences (int32 inside the int64
guard).  The point-direction lines come one broadcast per group of
directions.  Blocks are dropped once packed; their keys are sorted and
deduplicated in batches, and the sorted runs merged as they grow.  Every
fold then takes the sorted distinct keys in chunks of _fastpath.CHUNK keys,
split into direction runs, so each line is handed over once and what a fold
unpacks and values never exceeds one chunk.  A bounded selection drops
whole runs while still packed.

Pairs that need a line search go through one selection fold, whatever
their number of bars, with both modules converted once per call, in one
exact pass: each line is valued once on unreduced integer numerators, a
band with a written 3-ulp bound keeps the lines that can still win, and
only those are reduced and compared exactly.  The kernel picks its
numerators chunk by chunk (_fastpath.exact_evaluator): int64 where its
certificate over the chunk's keys shows every intermediate below 2^62,
which covers every pair of moderate coordinates, and Python ints
otherwise.  The pruning is sound chunk by chunk, so splitting the keys
into chunks changes no result.  The lex-min tie-break compares the keys'
integers too, so no fold builds a rational: only the witness line is
restricted in rationals.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import gcd, lcm
from typing import NamedTuple

import numpy as np

from . import _fastpath
from .bottleneck import MatchingWitness, bottleneck, bottleneck_cost
from .fibered import bar_counts, restrict_module
from .geometry import (Line, NonPositiveDirection, ProjPoint,
                       normalize_line, weight)
from .modules import TwoParamModule, critical_values, lub_closure, swap_axes
from .rational import INF, Q, is_inf, rat


class BothTrivial(ValueError):
    """Raised when an operation needs at least one nontrivial module."""


@dataclass(frozen=True)
class SwitchPointSet:
    """Finite proper points plus positive directions on the line at infinity."""

    proper: frozenset
    at_infinity: frozenset


@dataclass(frozen=True)
class CandidateLineSet:
    """Deduplicated normalized lines, sorted by (m1/m2, b1)."""

    lines: tuple


@dataclass(frozen=True)
class DistanceResult:
    value: object
    witness_line: Line | None
    witness_detail: MatchingWitness | None
    candidate_count: int


# switch ratios r in {1/2, 1, 2} as (numerator, denominator)
_RS = ((1, 2), (1, 1), (2, 1))


class _Cls:
    """Tracks which unordered point pairs realize a difference class."""

    __slots__ = ("pid", "multi")

    def __init__(self):
        self.pid = None
        self.multi = False

    def note(self, pid):
        if self.pid is None:
            self.pid = pid
        elif not self.multi and self.pid != pid:
            self.multi = True


def _note(d, key, pid):
    c = d.get(key)
    if c is None:
        d[key] = c = _Cls()
    c.note(pid)


def _ok(c1, c2):
    # some quadruple uses two different unordered pairs
    return c1.multi or c2.multi or c1.pid != c2.pid


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
    """
    pts = list(set(pts))
    dy, dx, d2 = {}, {}, {}
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            if i == j:
                continue
            pid = (i, j) if i < j else (j, i)
            _note(dy, p[1] - q[1], pid)
            _note(dx, p[0] - q[0], pid)
            _note(d2, (q[0], p[1]), pid)

    proper = set()
    dirs = {(1, 1)}
    for a, ca in dy.items():
        if a == 0:
            continue
        for b, cb in dx.items():
            if b == 0 or not _ok(ca, cb):
                continue
            for rn, rd in _RS:
                d = _pos_dir(b, rn * a // rd)
                if d is not None:
                    dirs.add(d)

    for a, ca in dy.items():
        ra = [rn * a // rd for rn, rd in _RS]
        for (k1, k2), ck in d2.items():
            if _ok(ca, ck):
                for v in ra:
                    proper.add((k1, k2 + v))
    for b, cb in dx.items():
        rb = [rn * b // rd for rn, rd in _RS]
        for (k1, k2), ck in d2.items():
            if _ok(cb, ck):
                for v in rb:
                    proper.add((k1 + v, k2))

    items = list(d2.items())
    for (l1, l2), cl in items:
        for (r1, r2), cr in items:
            if not _ok(cl, cr):
                continue
            proper.add((2 * l1 - r1, 2 * l2 - r2))
            proper.add(((l1 + r1) // 2, (l2 + r2) // 2))
            proper.add(((2 * l1 + r1) // 3, (2 * l2 + r2) // 3))
            d = _pos_dir(l1 - r1, l2 - r2)
            if d is not None:
                dirs.add(d)
    return proper, dirs


def _den(pts):
    """Least common denominator of the coordinates of rational points."""
    return lcm(1, *(int(v.denominator) for p in pts for v in p))


def _up(pts, s):
    """Rational points times s, as integer pairs; s must clear every
    denominator."""
    return {(int(x.numerator) * (s // int(x.denominator)),
             int(y.numerator) * (s // int(y.denominator))) for x, y in pts}


def switch_points(C) -> SwitchPointSet:
    """All switch points generated by the point set C.

    The catalogue is evaluated on integers: C is scaled by six times its
    common denominator, which keeps every formula integral.
    """
    pts = {(rat(p[0]), rat(p[1])) for p in C}
    s = 6 * _den(pts)
    proper, dirs = _switch_lattice(_up(pts, s))
    return SwitchPointSet(frozenset((Q(x, s), Q(y, s)) for x, y in proper),
                          frozenset(ProjPoint(0, a, b) for a, b in dirs))


def _pos_dirs(ds):
    return {(int(d.h1), int(d.h2)) for d in ds
            if d.h0 == 0 and d.h1 > 0 and d.h2 > 0}


def _lattice(M, N, extra):
    """The one point lattice: the lub closures of the two modules' critical
    values, the switch points of their union and the extra proper points,
    with the positive switch and extra directions, as _scaled returns them.

    No rational arithmetic runs past the critical values: they are scaled
    by six times their common denominator, times that of the extra points,
    so that every switch formula stays integral.  matching_distance,
    candidate_lines and vertical_cost all read their points from here.
    """
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


_GUARD = 1 << 25
_BLOCK = 1 << 22
# pairs per row band of the pair stage
_BAND_PAIRS = 1 << 16


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


class _Spec(NamedTuple):
    sdy: int
    sk: int
    kb: int
    dtype: np.dtype       # of the packed keys
    key_dtype: np.dtype   # of the blocks and the unpacked (dx, dy, k)
    diff_dtype: np.dtype  # of the pair stage's coordinate differences


def _pack_spec(X, Y, dvals):
    """Every integer type of the stream, and the injective key encoding
    (dx*SDY + dy)*SK + (k + KB), the one representation of keys in the
    stream.  Expects sorted X.

    key_dtype is that of the blocks and of the unpacked keys: int64 inside
    the guard, where every difference and k fit, and object past it.  The
    packed keys are int64 inside the guard when the encoding's top fits
    below 2^62, and Python ints in object arrays otherwise; np.sort, the
    adjacent-difference mask, //, % and np.gcd all work on both.  The pair
    stage keeps coordinate differences in the narrowest dtype that holds
    them: int32 inside the guard, where they stay below 2^26; past it
    int64 while every |coordinate| is below 2^62, and object beyond.
    """
    ax = max(abs(X[0]), abs(X[-1]))
    ymin, ymax = min(Y), max(Y)
    ay = max(abs(ymin), abs(ymax))
    dxm = max(X[-1] - X[0], max((d[0] for d in dvals), default=0))
    dym = max(ymax - ymin, max((d[1] for d in dvals), default=0))
    kb = dym * ax + dxm * ay + 1
    top = (dxm * (dym + 1) + dym) * (2 * kb + 1) + 2 * kb
    inside = max(ax, ay, max((max(d) for d in dvals), default=0)) <= _GUARD
    fits = (top if inside else max(ax, ay)) < 1 << 62
    return _Spec(dym + 1, 2 * kb + 1, kb,
                 np.dtype(np.int64 if inside and fits else object),
                 np.dtype(np.int64 if inside else object),
                 np.dtype(np.int32 if inside else np.int64 if fits else object))


def _pack(spec, dxv, dyv, kv):
    """Packed keys of (dx, dy, k) arrays, built in place in one fresh array
    of the spec's dtype, so the inputs are never written; dx and dy may be
    of a narrower dtype than k."""
    out = dxv.astype(spec.dtype)
    out *= spec.sdy
    out += dyv
    out *= spec.sk
    out += kv
    out += spec.kb
    return out


def _unpack(spec, packed):
    # remainders as a - (a // b)*b: numpy's int64 % divides again, several
    # times slower than //, and np.divmod rejects object arrays
    rest = packed // spec.sk
    kv = packed - rest * spec.sk
    kv -= spec.kb
    dxv = rest // spec.sdy
    dyv = rest - dxv * spec.sdy
    return tuple(v.astype(spec.key_dtype, copy=False) for v in (dxv, dyv, kv))


def _pair_keys(Xd, Yd, Xa, Ya, a, b, c):
    """Primitive keys of the positive-slope lines through rows a..b-1 and
    columns c..: dx and dy in the difference dtype of Xd and Yd, k in that
    of Xa and Ya.  dx > 0 keeps each unordered pair of sorted points once,
    and dy > 0 drops the rest of the axis-parallel and negative-slope
    pairs."""
    dx = Xd[None, c:] - Xd[a:b, None]
    dy = Yd[None, c:] - Yd[a:b, None]
    keep = dx > 0
    keep &= dy > 0
    rows = np.count_nonzero(keep, axis=1)
    dxv, dyv = dx[keep], dy[keep]
    g = np.gcd(dxv, dyv)
    dxv //= g
    dyv //= g
    k = np.repeat(Xa[a:b], rows)
    k *= dyv
    ya = np.repeat(Ya[a:b], rows)
    ya *= dxv
    k -= ya
    return dxv, dyv, k


def _iter_blocks(X, Y, dvals, spec):
    """Yield primitive (dx, dy, k) key blocks: every positive-slope line
    through two distinct points once per unordered pair, then every (point,
    direction) line once.  Expects sorted points.

    k is of the spec's key_dtype: int64 inside the guard and Python ints in
    object arrays past it; dx and dy of pairs are of its diff_dtype, int32
    inside the guard.  The pairs come in row bands of about _BAND_PAIRS
    pairs, so a band's differences, mask and gcd stay in cache.  A band's
    columns start at the first point of larger X than its first row's, so
    the lower triangle and that row's equal-X ties are never built.  The
    direction blocks take about _BLOCK/4 lines each, a group of directions
    against every point: k is d2*X - d1*Y over the (group, n) grid."""
    n = len(X)
    Xa = np.asarray(X, dtype=spec.key_dtype)
    Ya = np.asarray(Y, dtype=spec.key_dtype)
    Xd, Yd = Xa.astype(spec.diff_dtype), Ya.astype(spec.diff_dtype)
    a = 0
    while (c := bisect_right(X, X[a])) < n:
        b = min(n - 1, a + max(1, _BAND_PAIRS // (n - c)))
        yield _pair_keys(Xd, Yd, Xa, Ya, a, b, c)
        a = b
    D = np.array(dvals, dtype=spec.key_dtype).reshape(-1, 2)
    step = max(1, _BLOCK // 4 // n)
    for s in range(0, len(D), step):
        d1, d2 = D[s:s + step, :1], D[s:s + step, 1:]
        k = d2 * Xa
        k -= d1 * Ya
        yield np.repeat(d1, n), np.repeat(d2, n), k.ravel()


def _unique_sorted(a, kind=None):
    """Sorted distinct values of a 1-d array, as np.unique returns them;
    a itself is sorted in place, so callers pass arrays they own.

    A sort and an adjacent-difference mask: np.unique on integers takes a
    hash-table path in numpy >= 2.3, which is many times slower than this
    on the millions of keys a block holds.  kind is passed to the sort.
    """
    a.sort(kind=kind)
    if a.size > 1:
        keep = np.empty(a.size, dtype=bool)
        keep[0] = True
        np.not_equal(a[1:], a[:-1], out=keep[1:])
        a = a[keep]
    return a


def _merge(runs):
    """The sorted distinct values of sorted runs; the stable sort merges
    them."""
    if len(runs) == 1:
        return runs[0]
    return _unique_sorted(np.concatenate(runs), "stable")


def _batches(spec, blocks):
    """The packed keys of the blocks, concatenated into batches of at least
    _BLOCK/2 keys, the last one possibly smaller; a block is dropped once
    packed."""
    held, fill = [], 0
    for blk in blocks:
        held.append(_pack(spec, *blk))
        fill += held[-1].size
        del blk
        if fill >= _BLOCK // 2:
            yield np.concatenate(held)
            held, fill = [], 0
    if held:
        yield np.concatenate(held)


def _stream(X, Y, dvals):
    """The one key loop: the spec and the sorted distinct packed keys of
    every block, each line once however many blocks repeat it.

    The blocks' packed keys are sorted and deduplicated once per batch of
    about _BLOCK/2 keys (_batches), not once per band, and each batch
    leaves one sorted run.  The runs are merged whenever they hold more
    than 4*_BLOCK keys, so memory is bounded by the number of distinct
    candidate lines.  The folds run over the union afterwards, in _fold."""
    spec = _pack_spec(X, Y, dvals)
    runs, size = [], 0
    for batch in _batches(spec, _iter_blocks(X, Y, dvals, spec)):
        # a batch repeats lines that pass through more than two points
        run = _unique_sorted(batch)
        del batch
        if run.size:
            runs.append(run)
            size += run.size
        if len(runs) > 1 and size > 4 * _BLOCK:
            runs = [_merge(runs)]
            size = runs[0].size
    return spec, _merge(runs) if runs else np.empty(0, spec.dtype)


def _run_heads(spec, packed):
    """The first index of each direction run of sorted packed keys: keys
    sort by (dx, dy, k), so the keys of one direction dx*SDY + dy =
    packed // SK are adjacent, the least k first."""
    code = packed // spec.sk
    head = np.ones(code.size, dtype=bool)
    np.not_equal(code[1:], code[:-1], out=head[1:])
    return np.flatnonzero(head)


def _fold(spec, union, fold):
    """fold.finish() after fold.take(spec, packed, heads) on the distinct
    packed keys in slices of _fastpath.CHUNK keys, so what a fold unpacks
    and values holds one chunk at a time.  Every distinct line is handed
    over once, in key order.  heads are the slice's _run_heads when
    fold.by_run is set, and None for a fold that takes every key."""
    step = _fastpath.CHUNK
    for s in range(0, union.size, step):
        packed = union[s:s + step]
        fold.take(spec, packed,
                  _run_heads(spec, packed) if fold.by_run else None)
    return fold.finish()


class _LexMin:
    """Exact running minimum of the line order (dx/dy, k/(lam*(dx+dy))), on
    the keys' integers.

    Keys are primitive, so keys of equal ratio dx/dy share one direction,
    within which b1 orders as k: the lex-min is the least k of the
    direction of least ratio.  An offer is the (dx, dy, k) arrays of some
    keys, and takes the doubles of dx/dy (_doubles, one correctly rounded
    division per key).  Rounding is
    monotone, so only keys whose double ties the least one can hold the
    least ratio, and those are compared exactly by cross-multiplication:
    inside _GUARD dx, dy < 2^27, so the products fit in int64.  The offer's
    best key meets the running one as the Python ints (dx*dy', k) against
    (dx'*dy, k'), so the result depends neither on the order of the keys
    nor on that of the offers.  Within a direction the least k comes
    first, so a fold of sorted packed keys (take) offers the run heads
    alone.
    """

    __slots__ = ("key",)
    by_run = True

    def __init__(self):
        self.key = None

    def take(self, spec, packed, heads):
        self.offer(*_unpack(spec, packed[heads]))

    def offer(self, dxv, dyv, kv):
        r = _doubles(dxv, dyv)
        t = np.flatnonzero(r == r.min())
        dx, dy, k = dxv[t], dyv[t], kv[t]
        i = 0
        while True:
            below = dx * dy[i] < dx[i] * dy
            if not below.any():
                break
            i = int(np.argmax(below))
        same = (dx == dx[i]) & (dy == dy[i])
        key = int(dx[i]), int(dy[i]), int(k[same].min())
        if self.key is None or ((key[0] * self.key[1], key[2])
                                < (self.key[0] * key[1], self.key[2])):
            self.key = key

    def finish(self):
        return self.key


def _doubles(ps, qs):
    """The doubles of the fractions ps/qs: int64 arrays convert each side
    and divide, and object arrays divide Python ints, one correctly
    rounded int / int per entry."""
    return (ps / qs).astype(np.float64, copy=False)


# _band's threshold over the running maximum; _Select drops a direction
# run whose bound's double is below it, so the bound prunes by the same
# proven band
_BAND = 1 - 2.0 ** -50


def _band(ps, qs, fmax):
    """The running maximum fmax of the doubles of the fractions ps/qs
    (q > 0, int64 or Python ints), raised to this chunk's, and the mask of
    the fractions whose double is at least fmax*_BAND = fmax*(1 - 2^-50),
    the band that may still hold the exact maximum.

    The bound, with u = 2^-53: on int64, converting p and q and dividing
    round once each, so a double r lies within a relative 3u of p/q (to
    first order; (1+u)^2/(1-u) - 1 < 3.01u); on Python ints the one
    correctly rounded division lies within u, inside the same 3u.  The
    product fmax*(1 - 8u) rounds once more.  A fraction outside the band
    has an exact value below fmax*(1 - 8u)(1 + u)/(1 - 3.01u), and fmax is
    the double of an offered fraction of exact value at least
    fmax/(1 + 3.01u); the ratio of the two is below (1 - 8u)(1 + 7.1u) < 1,
    so the dropped fraction is beaten exactly.  Relative error bounds need
    normal doubles: values are at least 0, and p/q >= 1/q > 2^-1021 when
    positive and q < 2^1021, which every int64 q is.  Past that, the one
    rounding of Python ints is still monotone, so a double below fmax still
    belongs to a fraction below fmax's.
    """
    r = _doubles(ps, qs)
    fmax = max(fmax, float(r.max()))
    return fmax, r >= fmax * _BAND


def _exact_top(ps, qs):
    """Indices of the exact maximum of the fractions ps/qs, given in lowest
    terms with q > 0, and of all its ties, in input order.

    Equal fractions have equal reduced numerators and denominators, so
    each distinct value costs one vectorized comparison over the entries
    left, and the distinct values are compared by Python-int
    cross-multiplication.  A band holds one or a few distinct values."""
    rest = np.arange(len(ps))
    best = top = None
    while rest.size:
        p, q = int(ps[rest[0]]), int(qs[rest[0]])
        same = (ps[rest] == p) & (qs[rest] == q)
        if best is None or p * best[1] > best[0] * q:
            best, top = (p, q), rest[same]
        rest = rest[~same]
    return top


# keys of highest bound that a selection values first, on its first chunk,
# to seed the running maximum that the bound prunes against
_SEED = 256


class _Select:
    """The exact maximum of the weighted cost over distinct keys, offered
    one chunk at a time, and the lex-min key among the lines that attain it.

    One discard rule.  The kernel values every key exactly
    (_fastpath.exact_evaluator, both modules converted once per call) as an
    unreduced fraction p/q, and a key is kept when its double lies in
    _band, whose written bound is 3 ulps per double and one rounding of the
    threshold.  A kept key stays as its row (dx, dy, k, p, q), so no
    packing passes the stream.  The kept keys are banded again against the
    running maximum when they outgrow _BLOCK and at finish, where only they
    are reduced, _exact_top takes their exact maximum and _LexMin the
    lex-min of its ties.  A key is dropped only when a key
    offered no later beats it exactly, so splitting the keys into chunks
    changes no result.

    The kernel picks its own integers, chunk by chunk: the map values a
    chunk in int64 when its certificate holds over that chunk's keys, and
    in Python ints otherwise, so the chunks of one selection may differ in
    arithmetic.  _band, _prune, reduce_fractions and _exact_top take both,
    and int64 and object parts concatenate to object.

    On a rectangle pair without essential bars the selection works per
    direction run (by_run): the double of the run's direction bound p_ub/q
    (_fastpath._direction_bound: the kernel's own q, p <= p_ub exactly) is
    taken once, at the run's head, and a run below _band's threshold, whose
    argument carries over, is dropped while still packed; only the live
    keys are unpacked and valued.  The first chunk values its runs of
    highest bound first, up to _SEED keys, so the bound prunes from the
    start; _LexMin picks among the tied keys in any order.
    """

    __slots__ = ("values", "by_run", "fmax", "parts", "size")

    def __init__(self, M, N, lam):
        self.values = _fastpath.exact_evaluator(M, N, lam)
        self.by_run = hasattr(self.values, "bound")
        self.fmax = -np.inf
        self.parts, self.size = [], 0

    def take(self, spec, packed, heads):
        if heads is not None:
            packed = self._live(spec, packed, heads)
        if packed.size:
            self._score(*_unpack(spec, packed))
        if self.size > _BLOCK:
            self._prune()

    def _live(self, spec, packed, heads):
        """The keys of the runs whose bound reaches the band, after valuing
        the seed runs when nothing is valued yet."""
        r = _doubles(*self.values.bound(*_unpack(spec, packed[heads])[:2]))
        sizes = np.concatenate((heads[1:], [packed.size])) - heads
        if self.fmax == -np.inf and packed.size > _SEED:
            order = np.argsort(-r)
            top = np.searchsorted(np.cumsum(sizes[order]), _SEED, "right")
            seed = np.zeros(r.size, dtype=bool)
            seed[order[:max(1, top)]] = True
            self._score(*_unpack(spec, packed[np.repeat(seed, sizes)]))
            r[seed] = -np.inf
        return packed[np.repeat(r >= self.fmax * _BAND, sizes)]

    def _score(self, dxv, dyv, kv):
        """Value the keys exactly and keep those in the band."""
        self._keep((dxv, dyv, kv, *self.values(dxv, dyv, kv)))

    def _keep(self, cols):
        """Add the rows of the columns (dx, dy, k, p, q) in _band, after
        raising fmax to their maximum."""
        self.fmax, keep = _band(cols[3], cols[4], self.fmax)
        self.parts.append(tuple(c[keep] for c in cols))
        self.size += int(np.count_nonzero(keep))

    def _prune(self):
        cols = [np.concatenate(c) for c in zip(*self.parts)]
        self.parts, self.size = [], 0
        self._keep(cols)

    def finish(self):
        """The lex-min key among the lines of exact maximal value."""
        self._prune()
        *keys, ps, qs = self.parts[0]
        top = _exact_top(*_fastpath.reduce_fractions(ps, qs))
        lexmin = _LexMin()
        lexmin.offer(*(c[top] for c in keys))
        return lexmin.finish()


def _check_positive(dxv, dyv):
    """Raise NonPositiveDirection, as Line does, unless every direction
    (dx, dy) is componentwise positive: one test over int or key arrays."""
    if not (np.all(np.greater(dxv, 0)) and np.all(np.greater(dyv, 0))):
        raise NonPositiveDirection("direction must be componentwise positive")


def _key_lines(dx, dy, ks, lam):
    """The lines of the primitive keys (dx, dy, k), k in ks, of one
    direction whose positivity the caller has checked.

    They are built without Line.__post_init__, whose other conditions hold
    by construction: the one shared m = (dx, dy)/max(dx, dy) has max(m) = 1,
    and b = (b1, -b1) with b1 = k/(lam*(dx + dy)) has b1 + b2 = 0.  Every
    field is a canonical Q, so the lines equal and hash as Line(m, b) does.
    """
    mx = max(dx, dy)
    m = (Q(dx, mx), Q(dy, mx))
    den = lam * (dx + dy)
    new, put = object.__new__, object.__setattr__
    out = []
    for k in ks:
        b1 = Q(k, den)
        line = new(Line)
        put(line, "m", m)
        put(line, "b", (b1, -b1))
        out.append(line)
    return out


def _line_from_key(dx, dy, k, lam):
    _check_positive(dx, dy)
    return _key_lines(int(dx), int(dy), (int(k),), lam)[0]


class _Ratio(tuple):
    """A direction (dx, dy, ...) of positive ints that orders as dx/dy, by
    cross-multiplication."""

    __slots__ = ()

    def __lt__(self, other):
        return self[0] * other[1] < other[0] * self[1]


def _direction_order(d):
    """Sort key of a direction (dx, dy, ...) of positive ints in the order
    of dx/dy: the correctly rounded double dx/dy, then the exact ratio.
    Rounding is monotone, a >= b implies fl(a) >= fl(b), so unequal
    doubles order as the ratios do, and only directions whose doubles tie
    compare their ratios, by _Ratio's cross-multiplication."""
    return d[0] / d[1], _Ratio(d)


def _distinct_keys(X, Y, dvals):
    """All distinct candidate keys as python int triples, sorted by
    (dx, dy, k)."""
    spec, packed = _stream(X, Y, dvals)
    return list(zip(*(v.tolist() for v in _unpack(spec, packed))))


def candidate_lines(M: TwoParamModule, N: TwoParamModule,
                    extra_switch_points: SwitchPointSet | None = None
                    ) -> CandidateLineSet:
    """Every line through two distinct points of the candidate point set, plus
    every line through one such point with a positive switch direction.

    The set is materialized, which can be very large when the modules have
    many distinct coordinate differences; matching_distance never builds it.

    The lines come straight from the stream's sorted key arrays, sorted by
    (m1/m2, b1) without comparing rationals per line.  Keys are primitive,
    so the lines of one direction share one (dx, dy) and form one run of
    the arrays, sorted by k; and within a direction b1 = k/(lam*(dx+dy))
    orders as k.  So only the distinct directions are sorted, by
    dx/dy = m1/m2 (_direction_order), and each keeps its run in key order.
    The directions are checked positive once per call, over the run heads,
    and _key_lines builds each line in standard normalization by
    construction, with no second check per line.

    Raises:
        BothTrivial: if neither module has any critical values.
    """
    if M.is_trivial and N.is_trivial:
        raise BothTrivial("no critical values to aim lines at")
    X, Y, dvals, lam = _lattice(M, N, extra_switch_points)
    spec, packed = _stream(X, Y, dvals)
    starts = _run_heads(spec, packed)
    dxv, dyv, kv = _unpack(spec, packed)
    dxv, dyv = dxv[starts], dyv[starts]
    _check_positive(dxv, dyv)
    runs = zip(dxv.tolist(), dyv.tolist(), starts.tolist(),
               [*starts[1:].tolist(), kv.size])
    ks = kv.tolist()
    lines = []
    for dx, dy, a, b in sorted(runs, key=_direction_order):
        lines += _key_lines(dx, dy, ks[a:b], lam)
    return CandidateLineSet(tuple(lines))


def _essential_count(module: TwoParamModule) -> int:
    """Number of essential bars of any restriction; line-independent."""
    return bar_counts(module)[1]


def _struct_key(module):
    if module.rectangles is not None:
        return ("r", tuple(sorted((r.lower, r.upper)
                                  for r in module.rectangles)))
    return ("p", module.presentation)


def _exact_cost(M, N, line):
    """Weighted cost on one line, value only."""
    c = bottleneck_cost(restrict_module(M, line), restrict_module(N, line))
    if is_inf(c):
        return INF
    return weight(line) * c


def _exact_value(M, N, line):
    """Weighted cost with the full matching witness."""
    c, w = bottleneck(restrict_module(M, line), restrict_module(N, line))
    if is_inf(c):
        return INF, w
    return weight(line) * c, w


def _result_at(M, N, key, lam, count):
    line = _line_from_key(*key, lam)
    value, wit = _exact_value(M, N, line)
    return DistanceResult(value, line, wit, count)


def matching_distance(M: TwoParamModule, N: TwoParamModule,
                      extra_switch_points: SwitchPointSet | None = None
                      ) -> DistanceResult:
    """Exact matching distance with a witness line and matching.

    Ties between maximizing lines are broken by the lexicographically
    smallest (m1/m2, b1).  Candidate keys are streamed in blocks, so memory
    is bounded by the number of distinct lines, never the number of pairs.
    """
    if M.is_trivial and N.is_trivial:
        return DistanceResult(Q(0), None, None, 0)
    X, Y, dvals, lam = _lattice(M, N, extra_switch_points)

    # equal-value decisions that need no line search; the witness line is
    # then just the lex-min candidate
    spec, union = _stream(X, Y, dvals)
    if (_essential_count(M) != _essential_count(N)
            or _struct_key(M) == _struct_key(N)):
        fold = _LexMin()
    else:
        fold = _Select(M, N, lam)
    return _result_at(M, N, _fold(spec, union, fold), lam, int(union.size))


def vertical_cost(M: TwoParamModule, N: TwoParamModule, x0,
                  anchor_height=None):
    """Limit of the weighted bottleneck along lines steepening to the vertical
    through (x0, anchor).

    The anchor sits strictly above every candidate point; two sample slopes
    are taken below every slope at which a line through the anchor meets a
    candidate point or direction, where the weighted cost is affine in the
    slope, and the limit is its extrapolation to slope zero.

    Raises:
        BothTrivial: if both modules are trivial.
        ValueError: if anchor_height is not strictly above the point set.
    """
    if M.is_trivial and N.is_trivial:
        raise BothTrivial("no critical values")
    x0 = rat(x0)
    X, Y, dirs, lam = _lattice(M, N, None)
    ymax = Q(max(Y), lam)
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
    cands += [(xl - x) / (yl - y) for x, y in zip(X, Y) if x < xl]
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


def horizontal_cost(M: TwoParamModule, N: TwoParamModule, y0,
                    anchor_height=None):
    """Mirror of vertical_cost across the diagonal."""
    return vertical_cost(swap_axes(M), swap_axes(N), y0, anchor_height)
