"""Exact matching distance via reduction to finitely many candidate lines.

The distance is a supremum over positive-slope lines of the weighted
bottleneck distance between restricted barcodes.  It is attained on a line
through two members of a finite point set: the lub-closures of the critical
values together with the switch points, the locations where the combinatorial
type of a restriction can change.  Switch points are enumerated by difference
classes: each formula in the catalogue depends on its generating quadruple
only through one or two coordinate differences or corner keys, so classes of
point pairs stand in for quadruples, with a realizability filter
guaranteeing a quadruple with at least three distinct points behind every
emitted point.  Each point is one integer code (_codec), and the point set
reaches the stream as two sorted arrays (_scaled).

Candidate lines are identified by primitive integer keys (dx, dy, k) over a
common-denominator scaling of the point set; a key passes scaled point (X, Y)
when dy*X - dx*Y = k, and dx, dy > 0 on every key the stream makes.  The
pair enumeration is quadratic in the point set and can reach tens of
millions of pairs, so keys are produced in cache-sized bands of the upper
triangle and consumed by one streaming loop over a single
injective packing of each key into one integer.  One spec (_pack_spec) fixes
every integer type of the stream, each by an exact bound on the values it
holds: the unpacked keys are int64 while every |k| and product X*dy,
Y*dx stays below 2^62 and every dx, dy below 2^53; the packed keys also
while the packing's largest value stays below 2^62; and the pair stage's
coordinate differences are int32 while every |coordinate| is below 2^30.
Past a bound a type holds Python ints in object arrays, so the three key
regimes are int64 packed keys, object packed keys over int64 unpacked
keys, and object unpacked keys.  Each pair's direction is divided by the gcd
of its differences, taken after one Euclid step: with lo the smaller
difference and r the larger one's remainder mod lo, the gcd is
gcd(lo, r), read off one int16 table of gcd(a, b) for a, b < 512 when
lo < 512 (_table_gcd), and np.gcd otherwise and on object arrays; on
int32 its quotients and those of the reduction are exact doubles.  The
process builds that table once, in about 9 ms, for its first lattice of
at least 512^2 point pairs; smaller lattices before it take np.gcd.  The
point-direction lines come one broadcast per group of directions.  Each
block's keys are packed straight from the points into the next free
slots of one key buffer per call (_Keys), which keeps its sorted distinct
keys at its front: when a block does not fit, the keys written since are
sorted, merged into them and compacted in place, and the buffer grows
only when its distinct keys fill three quarters of it.  So the stream's
memory is bounded
by the number of distinct lines: the buffer, at most its first capacity
or about twice the distinct keys, and one cache-sized block; the union is
the buffer, shrunk to its distinct keys.  It is then read in chunks of
_fastpath.CHUNK keys (_chunks), split into direction runs, so each line is
read once and what is unpacked and valued never exceeds one chunk.  Pairs
that need no line search take the lex-min key (_first_key) over the run
heads of the union, chunk by chunk.

Pairs that need a line search go through one selection (_Select), whatever
their number of bars, with both modules converted once per call, in one
exact pass by direction run: a run whose direction bound shows it beaten,
or shows that it can at best tie the running best in a direction ordered
after the best key's, is dropped while still packed (the map gives each
run's exact bound once, a fraction that is 1/0, +inf, and drops nothing,
on pairs without one), each live line is valued once on unreduced integer
numerators, a band with a written 3-ulp bound keeps the lines that can
still win, and only those are reduced and compared exactly, chunk by
chunk, against one running best.  The kernel picks its numerators chunk
by chunk (_fastpath.exact_evaluator): int64 where its certificate over the
chunk's keys shows every intermediate below 2^62, which covers every pair
of moderate coordinates, and Python ints otherwise.  The pruning is sound
chunk by chunk, so splitting the keys into chunks changes no result.  The
lex-min tie-break compares the keys' integers too (_line_order), so no
selection builds a rational.  The witness matching is read off the same
integer sides, on the winning key (_fastpath.key_diagram), so no module is
restricted in rationals; its weighted cost must equal the selection's
exact maximum, or the call raises.  vertical_cost's sample lines are
keys on those sides too.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import NamedTuple

import numpy as np

from . import _fastpath
from .bottleneck import MatchingWitness, bottleneck
from .fibered import bar_counts
from .geometry import Line, ProjPoint, weight
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


def _codec(pts):
    """off and S = 2*off + 1 of the codes e = (x + off)*S + (y + off) of
    the catalogue of the integer points pts, off = 5c with c their largest
    |coordinate|: a class value, at most 2c, times at most 2, is added to
    a corner, so every coordinate made lies in [-off, off]."""
    off = 5 * max((abs(v) for p in pts for v in p), default=0)
    return off, 2 * off + 1


def _switch_lattice(pts, off, S):
    """Switch points of a set of integer points whose coordinates are all
    multiples of 6, so that every half and third below stays integral.

    Returns (proper, dirs): the codes (_codec) of the proper points, and
    the primitive positive directions at infinity, (1, 1) among them.
    Classes of pairs {p, q}: dy holds |p2-q2|, dx |p1-q1|, and d2 the codes
    of the crossed corners (q1, p2) and (p1, q2).  Every catalogue formula
    combines two class values scaled by a ratio r in {1/2, 1, 2}, and the
    code is affine, so each acts on codes: k + r*a, k + r*b*S, 2l - r,
    (l + r)/2, (2l + r)/3.  Each class maps to the one pair that realizes
    it, or to None once a second pair does, and two classes combine unless
    both name the same single pair: otherwise some quadruple behind the
    combination uses two different pairs.  The directions of dy x dx take
    a, b > 0, since -a names the pairs of a; those of d2 x d2 come from the
    distinct code differences l - r.
    """
    pts = list(set(pts))
    n = len(pts)
    dy, dx, d2 = {}, {}, {}
    for i, (p1, p2) in enumerate(pts):
        for j in range(i + 1, n):
            q1, q2 = pts[j]
            for cls, key in ((dy, abs(p2 - q2)), (dx, abs(p1 - q1)),
                             (d2, (q1 + off) * S + p2 + off),
                             (d2, (p1 + off) * S + q2 + off)):
                if cls.setdefault(key, i * n + j) != i * n + j:
                    cls[key] = None
    ks, held = list(d2), set(d2.values()) - {None}

    def others(c):
        return [k for k in ks if d2[k] != c] if c in held else ks

    free, tied = set(), {}
    for cls, unit in ((dy, 1), (dx, S)):
        for a, c in cls.items():
            v = a * unit
            (tied.setdefault(c, set()) if c in held else free).update(
                (v // 2, v, 2 * v, -v // 2, -v, -2 * v))
    proper, free = set(), list(free)
    for k in ks:
        proper.update(map(k.__add__, free))
    for c, vs in tied.items():
        rs = others(c)
        for v in vs.difference(free):
            proper.update(map(v.__add__, rs))
    sums, thirds, diffs = set(), set(), set()
    for l in ks:
        rs, l2 = others(d2[l]), 2 * l
        proper.update(map(l2.__sub__, rs))
        sums.update(map(l.__add__, rs))
        thirds.update(map(l2.__add__, rs))
        diffs.update(map(l.__sub__, rs))
    proper.update([t // 2 for t in sums])
    proper.update([t // 3 for t in thirds])

    dirs = {(1, 1)}
    for d in diffs:
        b, a = divmod(d, S)
        if b > 0 and 0 < a <= off:
            g = gcd(b, a)
            dirs.add((b // g, a // g))
    for a, ca in dy.items():
        for b, cb in dx.items():
            if a and b and (ca is None or ca != cb):
                for v in (a // 2, a, 2 * a):
                    g = gcd(b, v)
                    dirs.add((b // g, v // g))
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

    The catalogue is evaluated on integer codes (_codec): C is scaled by
    six times its common denominator, which keeps every formula integral.
    """
    pts = {(rat(p[0]), rat(p[1])) for p in C}
    s = 6 * _den(pts)
    up = _up(pts, s)
    off, S = _codec(up)
    X, Y, dirs, lam = _scaled(*_switch_lattice(up, off, S), s, off, S)
    return SwitchPointSet(frozenset((Q(x, lam), Q(y, lam)) for x, y in
                                    zip(X.tolist(), Y.tolist())),
                          frozenset(ProjPoint(0, a, b) for a, b in dirs))


def _lattice(M, N, extra):
    """The one point lattice: the lub closures of the two modules' critical
    values, the switch points of their union and the extra proper points,
    with the positive switch and extra directions, as _scaled returns them:
    the points as two sorted arrays.

    No rational arithmetic runs past the critical values: they are scaled
    by six times their common denominator, times that of the extra points,
    so that every switch formula stays integral, and each point is one
    integer code (_codec).  matching_distance, candidate_lines and
    vertical_cost all read their points from here.
    """
    cm, cn = critical_values(M), critical_values(N)
    xp = set() if extra is None else {(rat(p[0]), rat(p[1]))
                                      for p in extra.proper}
    s = lcm(6 * _den(cm | cn), _den(xp))
    um, un, ux = _up(cm, s), _up(cn, s), _up(xp, s)
    off, S = _codec(um | un | ux)
    proper, dirs = _switch_lattice(um | un, off, S)
    proper.update((x + off) * S + y + off
                  for x, y in lub_closure(um) | lub_closure(un) | ux)
    if extra is not None:
        dirs |= {(int(d.h1), int(d.h2)) for d in extra.at_infinity
                 if d.h0 == 0 and d.h1 > 0 and d.h2 > 0}
    return _scaled(proper, dirs, s, off, S)


# first capacity of the stream's key buffer (_Keys), in keys
_BLOCK = 1 << 22
# pairs per row band of the pair stage
_BAND_PAIRS = 1 << 16
# side of the pair stage's int16 gcd table (_table_gcd), which _iter_blocks
# builds once; gating the build on _GCD_SIDE**2 pairs keeps its cost below
# one cell per pair of the lattice that pays for it.  The table is a pure
# function of the side, so one serves every caller in the process.
_GCD_SIDE = 512
_gcd_table = None


def _scaled(codes, dirs, s, off, S):
    """Common-denominator integer scaling of the points (x/s, y/s) of the
    codes (_codec): the sorted points as arrays X, Y, the sorted
    direction pairs, and the scaling lam = s/g, the least positive integer
    that makes every lam*x/s integral, where g is the gcd of s and every
    coordinate.  The codes sort as the points do, lam > 0 keeps the order,
    and the arrays are int64 while every code is below 2^62, Python ints
    in object arrays past it.
    """
    e = np.fromiter(codes, np.int64 if S * S <= 1 << 62 else object,
                    len(codes))
    e.sort()
    X = e // S
    Y = e - X * S
    X -= off
    Y -= off
    g = gcd(s, int(np.gcd.reduce(X)), int(np.gcd.reduce(Y)))
    if g > 1:
        X //= g
        Y //= g
    return X, Y, sorted(dirs), s // g


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
    stream.  Expects X sorted, as _lattice's arrays come.

    Each type is the narrowest that an exact bound on the values it holds
    allows: int64 below 2^62, Python ints in object arrays beyond; np.sort,
    the adjacent-difference mask, //, - and np.gcd work on both.  With ax,
    ay the largest |X|, |Y|, and dxm, dym the largest dx, dy of any key
    (the coordinate ranges, or a direction's entries):

    - key_dtype, of the unpacked (dx, dy, k): every |X*dy|, |Y*dx| and
      |k| = |dy*X - dx*Y| is below KB = dym*ax + dxm*ay + 1.  int64 iff KB,
      ax and ay are below 2^62 and dxm, dym below 2^53, where dx and dy
      convert to doubles exactly, so that _lex_min's double of dx/dy is one
      correctly rounded division.
    - dtype, of the packed keys and of the X, Y, A_i, B_i and C_d that
      _iter_blocks packs them from, dx*A_i + dy*B_i + KB for a pair of row
      i, with A_i = SDY*SK - Y_i and B_i = SK + X_i, and d2*X - d1*Y + C_d
      for a point and a direction d, with C_d = d1*SDY*SK + d2*SK + KB.
      With top = (dxm*SDY + dym)*SK + 2*KB, the packing's largest value,
      every term and partial sum of both lies in [-2*KB, top + KB]: each
      of |X*dy|, |Y*dx|, |X_i|, |Y_i| and |k| is below KB.  int64 iff top
      is below 2^62 and key_dtype is int64, so that with KB below 2^62
      that range lies inside int64.
    - diff_dtype, of the pair stage's coordinate differences, each at most
      2*max(ax, ay) in size: int32 iff ax and ay are below 2^30, int64 iff
      below 2^62, object beyond.
    """
    xmin, xmax = int(X[0]), int(X[-1])
    ymin, ymax = int(np.min(Y)), int(np.max(Y))
    ax, ay = max(-xmin, xmax), max(-ymin, ymax)
    dxm = max(xmax - xmin, max((d[0] for d in dvals), default=0))
    dym = max(ymax - ymin, max((d[1] for d in dvals), default=0))
    kb = dym * ax + dxm * ay + 1
    top = (dxm * (dym + 1) + dym) * (2 * kb + 1) + 2 * kb
    blocks = max(kb, ax, ay) < 1 << 62 and max(dxm, dym) < 1 << 53
    a = max(ax, ay)
    return _Spec(dym + 1, 2 * kb + 1, kb,
                 np.dtype(np.int64 if blocks and top < 1 << 62 else object),
                 np.dtype(np.int64 if blocks else object),
                 np.dtype(np.int32 if a < 1 << 30 else
                          np.int64 if a < 1 << 62 else object))


def _unpack(spec, packed):
    # remainders as a - (a // b)*b: numpy's int64 % divides again, several
    # times slower than //, and np.divmod rejects object arrays
    rest = packed // spec.sk
    kv = packed - rest * spec.sk
    kv -= spec.kb
    dxv = rest // spec.sdy
    dyv = rest - dxv * spec.sdy
    return tuple(v.astype(spec.key_dtype, copy=False) for v in (dxv, dyv, kv))


def _table_gcd(table, dx, dy):
    """gcd(dx, dy) of positive int32 or int64 arrays, in their dtype, read
    off a square table of gcd(a, b) for a, b below its side.

    One Euclid step: with lo = min(dx, dy), hi = max(dx, dy) and
    r = hi - floor(hi/lo)*lo (as in _unpack), gcd(dx, dy) = gcd(lo, r)
    and r < lo, so every pair with lo below the side reads cell (lo, r).
    The floor is hi // lo, or on int32 the double hi/lo truncated: for
    integers 0 < lo <= hi < 2^53 where lo does not divide hi,
    fl(hi/lo) <= (hi/lo)(1 + 2^-53) < hi/lo + 1/lo <= floor(hi/lo) + 1 and
    rounding is monotone, so truncating gives the floor; an integer
    quotient below 2^53 is exact.  lo is clamped to side - 1 first, so the
    flat index stays below side**2 in any dtype; the pairs with
    lo >= side, whose cells the clamp misreads, take np.gcd instead."""
    side = len(table)
    lo = np.minimum(dx, dy)
    big = lo >= side
    np.minimum(lo, side - 1, out=lo)
    hi = np.maximum(dx, dy)
    r = (hi / lo).astype(np.int32) if hi.dtype == np.int32 else hi // lo
    r *= lo
    np.subtract(hi, r, out=r)
    lo *= side
    lo += r
    g = table.ravel().take(lo).astype(dx.dtype)
    if big.any():
        g[big] = np.gcd(dx[big], dy[big])
    return g


def _pair_keys(Xd, Yd, a, b, c):
    """Primitive directions (dx, dy) of the positive-slope lines through
    rows a..b-1 and columns c.., in the difference dtype of Xd and Yd, and
    the number of them in each row.  dx > 0 keeps each unordered pair of
    sorted points once, and dy > 0 drops the rest of the axis-parallel and
    negative-slope pairs.  Once _iter_blocks has built the gcd table, int32
    and int64 differences divide by its gcds (_table_gcd), which take about
    half of np.gcd's time; object differences, and every band before the
    build, take np.gcd.  On int32 the divisions are exact doubles
    (_table_gcd)."""
    dx = Xd[None, c:] - Xd[a:b, None]
    dy = Yd[None, c:] - Yd[a:b, None]
    keep = dx > 0
    keep &= dy > 0
    dxv, dyv = dx[keep], dy[keep]
    g = (np.gcd(dxv, dyv) if _gcd_table is None or dxv.dtype == object
         else _table_gcd(_gcd_table, dxv, dyv))
    if g.dtype == np.int32:
        dxv, dyv = (dxv / g).astype(np.int32), (dyv / g).astype(np.int32)
    else:
        dxv //= g
        dyv //= g
    return dxv, dyv, np.count_nonzero(keep, axis=1)


def _pack_pairs(dxv, dyv, A, B, rows, kb, out):
    """Pack the keys of a band's pairs into out, dx*A_i + dy*B_i + KB with
    the A_i, B_i of each pair's row i (_pack_spec), in out's dtype: rows
    counts the pairs of each row, so A and B are repeated over them.  dx*A
    is written first, so an object out holds Python ints."""
    np.multiply(dxv, np.repeat(A, rows), out=out)
    out += np.repeat(B, rows) * dyv
    out += kb


def _pack_dirs(D, C, XP, YP, out):
    """Pack the keys of the lines through every point (X, Y) with each
    direction (d1, d2) of the rows of D into out, direction by direction,
    d2*X - d1*Y + C_d with C the C_d of D's rows (_pack_spec)."""
    grid = out.reshape(len(D), -1)
    np.multiply(D[:, 1:], XP, out=grid)
    grid -= D[:, :1] * YP
    grid += C[:, None]


def _iter_blocks(X, Y, dvals, spec, slot):
    """Pack the keys block by block, each block of m keys straight into
    slot(m), an array of the spec's dtype that slot hands out for it:
    every positive-slope line through two distinct points once per
    unordered pair, then every (point, direction) line once.  Expects the
    points sorted, as _lattice's arrays come.

    The keys are packed straight from the points, with no (dx, dy, k)
    block: the pairs' dx and dy come in the spec's diff_dtype, int32 while
    every |coordinate| is below 2^30, and everything else is in its dtype,
    int64 or Python ints, the X and Y of the points and the A_i, B_i and
    C_d of the two packings (_pack_spec), so one path serves every key
    regime.  The pairs come in row bands of about _BAND_PAIRS pairs, so a
    band's differences, mask, gcd and repeated A_i, B_i stay in cache.  A
    band's columns start at the first point of larger X than its first
    row's, so the lower triangle and that row's equal-X ties are never
    built.  The direction blocks take about _BAND_PAIRS lines each too, a
    group of directions against every point, one broadcast over the
    (group, n) grid.

    The first lattice of at least _GCD_SIDE**2 point pairs, n = 725 points
    at the side of 512, builds the process's gcd table (_gcd_table), in
    about 9 ms, and from then on every band takes its gcds from it
    (_pair_keys).  Smaller lattices never build it."""
    global _gcd_table
    n = len(X)
    if _gcd_table is None and n * (n - 1) // 2 >= _GCD_SIDE ** 2:
        ints = np.arange(_GCD_SIDE, dtype=np.int16)
        _gcd_table = np.gcd(ints[:, None], ints[None, :])
    XP, YP = np.asarray(X, dtype=spec.dtype), np.asarray(Y, dtype=spec.dtype)
    Xd, Yd = np.asarray(X, spec.diff_dtype), np.asarray(Y, spec.diff_dtype)
    A, B = spec.sdy * spec.sk - YP, spec.sk + XP
    a = 0
    while (c := int(Xd.searchsorted(Xd[a], "right"))) < n:
        b = min(n - 1, a + max(1, _BAND_PAIRS // (n - c)))
        dxv, dyv, rows = _pair_keys(Xd, Yd, a, b, c)
        _pack_pairs(dxv, dyv, A[a:b], B[a:b], rows, spec.kb, slot(dxv.size))
        a = b
    D = np.array(dvals, dtype=spec.dtype).reshape(-1, 2)
    C = D[:, 0] * (spec.sdy * spec.sk) + D[:, 1] * spec.sk + spec.kb
    step = max(1, _BAND_PAIRS // n)
    for s in range(0, len(D), step):
        _pack_dirs(D[s:s + step], C[s:s + step], XP, YP,
                   slot(min(step, len(D) - s) * n))


class _Keys:
    """The key buffer of one _stream call, its sorted distinct keys at its
    front: size of them, then the keys written since, up to fill.

    slot(m) hands out the next m free slots.  When they do not fit, the
    written keys are sorted, merged with the distinct prefix (a stable
    sort, which merges the two sorted runs) and compacted in place, one
    _BAND_PAIRS block of the merged keys at a time; and the buffer grows by
    half only when its distinct keys fill three quarters of it or leave
    less than m free.  union() compacts the last keys and shrinks the
    buffer to its distinct keys.  So besides the buffer, of at most about
    twice the distinct keys once it grows, the stream holds one block at a
    time.

    Both resize in place with ndarray.resize(refcheck=False): no view of
    the buffer is alive between blocks, and the reference check would also
    count references that are no view, such as the one a profiling or
    tracing hook (cProfile, coverage, a debugger) holds while it calls the
    bound method, and raise ValueError."""

    __slots__ = ("buf", "size", "fill")

    def __init__(self, cap, dtype):
        self.buf = np.empty(cap, dtype)
        self.size = self.fill = 0

    def slot(self, m):
        if self.fill + m > self.buf.size:
            self._compact()
            cap = self.buf.size
            if self.size + max(m, cap // 4) > cap:
                self.buf.resize(max(cap + cap // 2, self.size + m),
                                refcheck=False)
        self.fill += m
        return self.buf[self.fill - m:self.fill]

    def _compact(self):
        keys, w = self.buf[:self.fill], 0
        keys[self.size:].sort()
        if self.size:
            keys.sort(kind="stable")
        # a block's first key repeats the last one kept iff it repeats its
        # predecessor: the keys are sorted
        for s in range(0, keys.size, _BAND_PAIRS):
            blk = keys[s:s + _BAND_PAIRS]
            keep = np.empty(blk.size, dtype=bool)
            keep[0] = w == 0 or blk[0] != keys[w - 1]
            np.not_equal(blk[1:], blk[:-1], out=keep[1:])
            blk = blk[keep]
            keys[w:w + blk.size] = blk
            w += blk.size
        self.size = self.fill = w

    def union(self):
        """The sorted distinct keys, as the buffer itself: it owns its
        memory, and the call drops every other reference to it."""
        self._compact()
        self.buf.resize(self.size, refcheck=False)
        return self.buf


def _stream(X, Y, dvals):
    """The one key loop: the spec and the sorted distinct packed keys of
    every block, each line once however many blocks repeat it.

    _iter_blocks packs each block straight into the next free slots of one
    key buffer, which its slot method hands out (_Keys), at first of
    min(n(n-1)/2 + n*|dirs|, _BLOCK) keys, local to the call so that calls
    can run in threads; the slot is the block's only view of the buffer,
    dropped once the block is packed.  The buffer keeps its distinct keys
    at its front, so memory is bounded by the number of distinct lines:
    the buffer, at most its first capacity or about twice the distinct
    keys, and one cache-sized block.  _first_key and _Select read the
    union afterwards chunk by chunk."""
    spec = _pack_spec(X, Y, dvals)
    n = len(X)
    keys = _Keys(min(n * (n - 1) // 2 + n * len(dvals), _BLOCK), spec.dtype)
    _iter_blocks(X, Y, dvals, spec, keys.slot)
    return spec, keys.union()


def _run_heads(spec, packed):
    """The first index of each direction run of sorted packed keys: keys
    sort by (dx, dy, k), so the keys of one direction dx*SDY + dy =
    packed // SK are adjacent, the least k first."""
    code = packed // spec.sk
    head = np.ones(code.size, dtype=bool)
    np.not_equal(code[1:], code[:-1], out=head[1:])
    return np.flatnonzero(head)


def _chunks(union):
    """The distinct packed keys in slices of _fastpath.CHUNK keys, in key
    order, so that what is unpacked and valued holds one chunk at a time."""
    step = _fastpath.CHUNK
    for s in range(0, union.size, step):
        yield union[s:s + step]


def _lex_min(dxv, dyv, kv):
    """The least key, as Python ints, in the line order (_line_order) among
    the keys of the arrays (dx, dy, k).

    Rounding is monotone, so only keys whose double of dx/dy
    (_fastpath.doubles, one correctly rounded division per key: int64 keys
    have dx, dy below 2^53, _pack_spec's bound) ties the least one can hold
    the least ratio, and _line_order orders those exactly.  The result does
    not depend on the order of the keys.
    """
    r = _fastpath.doubles(dxv, dyv)
    t = np.flatnonzero(r == r.min())
    return min(zip(*(v[t].tolist() for v in (dxv, dyv, kv))), key=_line_order)


def _first_key(spec, union):
    """The lex-min of the distinct packed keys, for pairs that need no line
    search: one _lex_min over the run heads of the union, taken chunk by
    chunk (_chunks).  Within a direction run the least k comes first, so
    the heads alone hold the lex-min; a run cut by a chunk boundary adds
    its second part's head, a key of the run, which changes nothing."""
    heads = [c[_run_heads(spec, c)] for c in _chunks(union)]
    return _lex_min(*_unpack(spec, np.concatenate(heads)))


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
    r = _fastpath.doubles(ps, qs)
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


# keys that a selection values first, on its first chunk, by highest bound
# and then by dx/dy, to seed the running best that the bound and the tie
# rule prune against
_SEED = 256


class _Select:
    """The exact maximum of the weighted cost over distinct keys, offered
    one chunk at a time, and the lex-min key among the lines that attain it.

    Every selection goes by direction run, on one row of state: the running
    best (key, (p, q)), the lex-min key of the exact maximum so far and that
    maximum as reduced ints, (None, (-1, 1)) before any key, below every
    value; and fmax, the running maximum of the doubles.

    The map's bound (values, _fastpath.exact_evaluator, both modules
    converted once per call) gives per direction the exact direction bound
    as an unreduced fraction p_ub/q_ub (_fastpath._direction_bound: q_ub the
    kernel's own q, p <= p_ub exactly) on a pair of rectangles without
    essential bars, and 1/0 on every other pair; its double r
    (_fastpath.doubles) is +inf there.  It is taken once, at each run's
    head, and a run is dropped while still packed when its bound lies below
    _band's threshold, or when it can at best tie the running best in a
    direction that orders after the best key's (the tie rule); only the
    live keys are unpacked and valued, as unreduced fractions p/q.  The
    first chunk values its seed first, its runs in the order of their
    bounds, highest first, and of dx/dy among equal bounds, up to the run
    that takes them past _SEED keys, and every run of bound +inf; so the
    bound prunes from the start, and on a plateau of equal bounds the
    seed's best is the plateau's first direction in the line order.  Where
    every bound is +inf the seed takes every run, and each chunk goes to
    the kernel in one call.

    Soundness is _band's argument, batch by batch.  A valued key outside
    the band, or a run whose bound's double is below fmax*_BAND, is beaten
    exactly by a key offered no later, whose double raised fmax: the bound's
    double lies within 3 ulps of p_ub/q_ub, as the band's doubles do of
    p/q.  So the exact maximum and all its ties survive every band.  Only a
    batch's survivors are reduced; _exact_top takes their exact maximum and
    _lex_min the lex-min of its ties, which merge into the running best by
    cross-multiplication: a greater value replaces it, an equal one keeps
    the lex-min of the two keys (_line_order), and a smaller one is dropped
    before any _lex_min.

    The tie rule looks only at kept runs whose bound's double r lies in the
    band above fmax, r*_BAND <= fmax: an exact tie with the best, whose
    double is at most fmax, can only lie there.  It drops such a run when
    its exact bound, reduced (_fastpath.reduce_fractions, on these runs
    only), equals the best's reduced (p, q), which 1/0 never does, q being
    at least 1, and the double of its dx/dy is strictly greater than that of
    the best key's.  Reduced pairs are equal exactly when the values are,
    and rounding is monotone, so a strict inequality of correctly rounded
    doubles implies the strict exact one (int64 keys have dx, dy below
    2^53, _pack_spec's bound); doubles that tie keep the run.  Every key
    of a dropped run is worth at most the best, and an equal value orders
    after the best key in the line order, whose lex-min only moves to an
    earlier key; a later greater value replaces the best and beats the
    dropped keys anyway.  So each step keeps the lex-min of the maximum
    over every key offered so far, whatever the order, and splitting the
    keys into chunks changes no result.

    The kernel picks its own integers, chunk by chunk: the map values a
    chunk in int64 when its certificate holds over that chunk's keys, and
    in Python ints otherwise, so the chunks of one selection may differ in
    arithmetic; _band, reduce_fractions and _exact_top take both.
    """

    __slots__ = ("values", "fmax", "best")

    def __init__(self, values):
        self.values = values
        self.fmax = -np.inf
        self.best = None, (-1, 1)

    def run(self, spec, union):
        """The best (key, (p, q)) after taking the distinct packed keys
        chunk by chunk."""
        for packed in _chunks(union):
            packed = self._live(spec, packed)
            if packed.size:
                self._score(*_unpack(spec, packed))
        return self.best

    def _live(self, spec, packed):
        """The keys of the direction runs whose bound reaches the band and
        that the tie rule keeps, after valuing the seed runs when nothing is
        valued yet."""
        heads = _run_heads(spec, packed)
        dxv, dyv, _ = _unpack(spec, packed[heads])
        p_ub, q_ub = self.values.bound(dxv, dyv)
        r = _fastpath.doubles(p_ub, q_ub)
        d = _fastpath.doubles(dxv, dyv)
        sizes = np.concatenate((heads[1:], [packed.size])) - heads
        if self.fmax == -np.inf and packed.size > _SEED:
            order = np.lexsort((d, -r))
            top = np.searchsorted(np.cumsum(sizes[order]), _SEED, "right")
            seed = np.isposinf(r)
            seed[order[:top + 1]] = True
            self._score(*_unpack(spec, packed[np.repeat(seed, sizes)]))
            r[seed] = -np.inf
        keep = r >= self.fmax * _BAND
        tie = np.flatnonzero(keep & (r * _BAND <= self.fmax))
        if tie.size:
            (bdx, bdy, _), (p, q) = self.best
            tie = tie[d[tie] > bdx / bdy]
            ps, qs = _fastpath.reduce_fractions(p_ub[tie], q_ub[tie])
            keep[tie[(ps == p) & (qs == q)]] = False
        return packed[np.repeat(keep, sizes)]

    def _score(self, dxv, dyv, kv):
        """Value the keys exactly, band them against fmax and merge the
        exact maximum of the survivors into the running best."""
        ps, qs = self.values(dxv, dyv, kv)
        self.fmax, keep = _band(ps, qs, self.fmax)
        live = np.flatnonzero(keep)
        if not live.size:
            return
        ps, qs = _fastpath.reduce_fractions(ps[live], qs[live])
        top = _exact_top(ps, qs)
        p, q = int(ps[top[0]]), int(qs[top[0]])
        best, (bp, bq) = self.best
        if p * bq < bp * q:
            return
        top = live[top]
        key = _lex_min(dxv[top], dyv[top], kv[top])
        if p * bq == bp * q:
            key = min(key, best, key=_line_order)
        self.best = key, (p, q)


_ONE = Q(1)


def _key_lines(runs, ks, lam):
    """The lines of the primitive keys of the stream, a direction run at a
    time: for each run (dx, dy, a, b), the keys (dx, dy, k) for k in
    ks[a:b], in order.  Every direction is one of positive ints, as every
    key of the stream has: _pair_keys keeps only the pairs with dx > 0 and
    dy > 0, and _switch_lattice and _lattice only the positive directions.

    They are built without Line.__post_init__, whose conditions hold by
    construction: dx, dy > 0 make the direction positive, the run's one
    shared m = (dx, dy)/max(dx, dy), its larger component the one shared
    Q(1), has max(m) = 1, and b = (k/den, -k/den) with den = lam*(dx + dy)
    has b1 + b2 = 0.  Every field is a canonical Q, so the lines equal and
    hash as Line(m, b) does.  b2 is a fresh Q(-k, den), not -b1:
    Fraction.__neg__ costs more than a new Q.
    """
    new, put = object.__new__, object.__setattr__
    out = []
    for dx, dy, a, b in runs:
        m = (_ONE, Q(dy, dx)) if dx >= dy else (Q(dx, dy), _ONE)
        den = lam * (dx + dy)
        for k in ks[a:b]:
            line = new(Line)
            put(line, "m", m)
            put(line, "b", (Q(k, den), Q(-k, den)))
            out.append(line)
    return out


def _line_from_key(dx, dy, k, lam):
    """The line of one key of the stream (_key_lines)."""
    return _key_lines(((int(dx), int(dy), 0, 1),), (int(k),), lam)[0]


class _Ratio(tuple):
    """A direction (dx, dy, ...) of positive ints that orders as dx/dy, by
    cross-multiplication."""

    __slots__ = ()

    def __lt__(self, other):
        return self[0] * other[1] < other[0] * self[1]


def _line_order(t):
    """Sort key of a key (dx, dy, k) of positive dx, dy in the line order
    (dx/dy, k/(lam*(dx+dy))), the order of the lex-min tie-break.

    The correctly rounded double dx/dy comes first.  Rounding is monotone,
    a >= b implies fl(a) >= fl(b), so unequal doubles order as the ratios
    do.  Where the doubles tie, tuple comparison tries == on the
    directions first: keys are primitive, so equal directions are equal
    pairs and go on to k, as b1 orders within a direction, and unequal
    ones order by _Ratio's cross-multiplication.  A run (dx, dy, a, b) of
    candidate_lines sorts by its direction, its a never compared: its
    direction is its own."""
    return t[0] / t[1], _Ratio(t[:2]), t[2]


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
    dx/dy = m1/m2 (_line_order), and each keeps its run in key order.
    Every key direction is positive by construction, so _key_lines builds
    each line in standard normalization with no check, all runs in one
    call.

    Raises:
        BothTrivial: if neither module has any critical values.
    """
    if M.is_trivial and N.is_trivial:
        raise BothTrivial("no critical values to aim lines at")
    X, Y, dvals, lam = _lattice(M, N, extra_switch_points)
    spec, packed = _stream(X, Y, dvals)
    starts = _run_heads(spec, packed)
    dxv, dyv, kv = _unpack(spec, packed)
    runs = zip(dxv[starts].tolist(), dyv[starts].tolist(), starts.tolist(),
               [*starts[1:].tolist(), kv.size])
    return CandidateLineSet(tuple(_key_lines(
        sorted(runs, key=_line_order), kv.tolist(), lam)))


def _essential_count(module: TwoParamModule) -> int:
    """Number of essential bars of any restriction; line-independent."""
    return bar_counts(module)[1]


def _same_module(M, N, sides):
    """Whether M and N are the same module in the same form, on their sides
    as exact_evaluator converts them: equal presentations, or equal
    multisets of rectangles.  The conversion is injective, so this is
    equality of the sorted essential lowers and finite rects."""
    if M.presentation is not None or N.presentation is not None:
        return M.presentation == N.presentation
    (em, fm, _), (en, fn, _) = sides
    return sorted(em) == sorted(en) and sorted(fm) == sorted(fn)


def _result_at(sides, key, lam, count, top):
    """The result at the line of key, with the witness matching of the
    sides' diagrams there.  Its weighted cost must equal the selection's
    exact maximum top, reduced ints (p, q), unless top is None: a mismatch
    raises ArithmeticError.  vertical_cost reads only the value."""
    line = _line_from_key(*key, lam)
    cost, wit = bottleneck(*(_fastpath.key_diagram(side, *key, lam)
                             for side in sides))
    value = cost if is_inf(cost) else weight(line) * cost
    if top is not None and (is_inf(value) or top != (value.numerator,
                                                     value.denominator)):
        raise ArithmeticError("the kernel's maximum %d/%d differs from the "
                              "witness's weighted cost %s" % (*top, value))
    return DistanceResult(value, line, wit, count)


def matching_distance(M: TwoParamModule, N: TwoParamModule,
                      extra_switch_points: SwitchPointSet | None = None
                      ) -> DistanceResult:
    """Exact matching distance with a witness line and matching.

    Ties between maximizing lines are broken by the lexicographically
    smallest (m1/m2, b1).  Candidate keys are streamed in blocks into one
    buffer that keeps only their distinct keys (_stream), so memory is
    bounded by the number of distinct lines, never the number of pairs: 8
    bytes per int64 key in a buffer of at most about twice the distinct
    lines, or its first 2^22 keys, and one cache-sized block.
    """
    if M.is_trivial and N.is_trivial:
        return DistanceResult(Q(0), None, None, 0)
    X, Y, dvals, lam = _lattice(M, N, extra_switch_points)

    # equal-value decisions that need no line search; the witness line is
    # then just the lex-min candidate
    spec, union = _stream(X, Y, dvals)
    values = _fastpath.exact_evaluator(M, N, lam)
    em, en = map(_fastpath.essential_count, values.sides)
    if em != en or _same_module(M, N, values.sides):
        key, top = _first_key(spec, union), None
    else:
        key, top = _Select(values).run(spec, union)
    return _result_at(values.sides, key, lam, int(union.size), top)


def vertical_cost(M: TwoParamModule, N: TwoParamModule, x0,
                  anchor_height=None):
    """Limit of the weighted bottleneck along lines steepening to the vertical
    through (x0, anchor).

    The anchor sits strictly above every candidate point; two sample slopes
    are taken below every slope at which a line through the anchor meets a
    candidate point or direction, where the weighted cost is affine in the
    slope, and the limit is its extrapolation to slope zero.  The sample
    lines are keys (e.numerator, e.denominator, k) on the integer sides
    (_result_at), over an L that clears lam, x0 and yr.

    Raises:
        BothTrivial: if both modules are trivial.
        ValueError: if anchor_height is not strictly above the point set.
    """
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
    L = lcm(lam, x0.denominator, yr.denominator)
    sides = _fastpath.exact_evaluator(M, N, L).sides
    xa, ya = int(x0 * L), int(yr * L)
    f1, f2 = (_result_at(sides, (e.numerator, e.denominator,
                                 e.denominator * xa - e.numerator * ya),
                         L, 0, None).value for e in (e1, e2))
    return INF if is_inf(f1) else (e1 * f2 - e2 * f1) / (e1 - e2)


def horizontal_cost(M: TwoParamModule, N: TwoParamModule, y0,
                    anchor_height=None):
    """Mirror of vertical_cost across the diagonal."""
    return vertical_cost(swap_axes(M), swap_axes(N), y0, anchor_height)
