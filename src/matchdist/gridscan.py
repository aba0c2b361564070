"""Floating-point grid sweep of the weighted bottleneck across line parameters.

The sweep is a lower-bound cross-check for the exact engine: every sample is
the weighted bottleneck cost on one positive-slope line, so no sample can
exceed the exact maximum by more than float round-off.  Lines are drawn from
an (angle, offset) grid, with the direction renormalized to the standard form
so weights match the exact path; a line of offset o has b = (-o/2, o/2), so
b1 + b2 = 0 holds exactly in floats and an exactly normalized Line can be
rebuilt from the doubles.  Every pair is evaluated by _fastpath's float
kernel (line_evaluator), whatever the number of bars: a presentation's
rectangle-shaped components as rectangles, its other components through
their barcode templates; a pair with unequal essential counts costs +inf
on every line, and its rows are full.

The grid is evaluated in blocks of whole theta rows, one evaluator call per
block of about _BLOCK_LINES evaluated lines.  A line of direction m meets a
bar's rectangle only for offsets in one interval, so past it the bar is
dead.  Each row is therefore evaluated only on its live span, the columns
outside which every finite bar is dead in the kernel's own float predicates
(_fastpath._live_span), and holds +0.0 elsewhere, the value the kernel
gives there.  A block is passed as a broadcast pair, its directions as an
(r, 1) column against the offsets of its rows' span hull as a (1, h) row;
the two modules are converted into the kernel's floats once per scan.
The thetas and their directions are computed once per theta_steps: the
most recent grid's table is kept as read-only arrays (_theta_table), so a
run of scans on one grid shares it and the cache holds one table.
Every kernel is elementwise, so each value is the one a call per row over
all offsets would give, bit for bit.

A scan's max and argmax need not see every row.  Matching every bar to the
diagonal is feasible, so on a pair of rectangles without essential bars,
rectangle modules or presentations of rectangle-shaped components, no cost
on a row of direction m exceeds min(m1, m2) times the largest half-length
min(W/m1, H/m2)/2 of a bar's W x H rectangle, plus a float margin
(_fastpath._row_bound); rows are visited in decreasing bound until one is
below the best value found.
"""
from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import _fastpath
from .geometry import line_through
from .modules import critical_values, lub_closure


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid over (theta, offset) line parameters.

    theta takes theta_steps values strictly inside (0, pi/2); offset takes
    offset_steps values across offset_range.  The default offset range is the
    offset span of the critical-value bounding box of both modules, padded by
    the box diameter, so every line meeting the box occurs in the sweep.
    """

    theta_steps: int
    offset_steps: int
    offset_range: tuple | None = None

    def __post_init__(self):
        if not all(isinstance(n, numbers.Integral) and n >= 2
                   for n in (self.theta_steps, self.offset_steps)):
            raise ValueError("grid needs a whole number of at least 2 steps "
                             "on each axis")
        if self.offset_range is not None:
            lo, hi = self.offset_range
            if not lo < hi:
                raise ValueError("empty offset range")
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("offset range must be finite")


@dataclass(frozen=True)
class HeatmapRow:
    theta: float
    offset: float
    weighted_cost: float


class _LazyRows:
    """Re-iterable view; each pass re-evaluates the grid."""

    def __init__(self, fn):
        self._fn = fn

    def __iter__(self):
        return self._fn()


@dataclass(frozen=True)
class ScanResult:
    max_value: float
    argmax: tuple
    rows: object  # iterable of HeatmapRow in (theta, offset) order


def default_offset_range(M, N) -> tuple:
    pts = set(critical_values(M)) | set(critical_values(N))
    if not pts:
        return (-1.0, 1.0)
    xs = [float(p[0]) for p in pts]
    ys = [float(p[1]) for p in pts]
    d = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    return (min(ys) - max(xs) - d, max(ys) - min(xs) + d)


def _axes(M, N, g):
    lo, hi = g.offset_range if g.offset_range is not None \
        else default_offset_range(M, N)
    thetas = _theta_table(g.theta_steps)[0]
    offsets = np.linspace(float(lo), float(hi), g.offset_steps)
    return thetas, offsets


# lines per evaluator call: whole rows fill a block, and a row whose live
# span is longer than this gets a call of its own.  A block of several rows
# pays the kernel's fixed cost, some hundred numpy calls, once.  Much larger
# blocks are slower: glibc then trims and regrows the heap on every call,
# and the page faults cost more than the calls saved.  For the same reason a
# block's output, rows times offsets, is capped at _OUT_BLOCKS blocks' worth
# of lines when its rows have narrow spans
_BLOCK_LINES = 4096
_OUT_BLOCKS = 2


def _directions(thetas):
    """Standard-form directions (m1, m2) at the angles thetas.

    math.cos and math.sin, not np.cos and np.sin, which need not round the
    same way."""
    m1, m2 = np.empty(len(thetas)), np.empty(len(thetas))
    for i, th in enumerate(thetas.tolist()):
        c, s = math.cos(th), math.sin(th)
        mx = max(c, s)
        m1[i], m2[i] = c / mx, s / mx
    return m1, m2


@lru_cache(maxsize=1)
def _theta_table(steps):
    """The thetas of a grid of theta_steps = steps and their directions
    (_directions), as read-only arrays (thetas, m1, m2).  Every grid of one
    theta_steps has the same ones, so scans share them; only the most
    recent theta_steps is kept."""
    thetas = np.linspace(0.0, math.pi / 2, steps + 2)[1:-1]
    table = (thetas, *_directions(thetas))
    for a in table:
        a.flags.writeable = False
    return table


def _rows(m1, m2, offsets, ev):
    """Yield the cost rows over offsets of the directions (m1[i], m2[i]), a
    block of whole rows at a time: (index of the block's first direction,
    its (r, n) costs).

    ev is a map of _fastpath.line_evaluator.  Each row is evaluated only
    on its live span, where a finite bar can be alive (ev.live_span,
    _fastpath._live_span); elsewhere its costs are +0.0, which is what the
    evaluator gives there bit for bit.  A block takes rows while their span
    hull times their number stays within _BLOCK_LINES lines, or r = 1 for a
    row past that, and r * n within _OUT_BLOCKS * _BLOCK_LINES.  It goes to
    ev once, on its hull, as a broadcast pair: the directions as an (r, 1)
    column and the hull's offsets as a (1, h) row, so no line array is
    repeated or tiled."""
    n = len(offsets)
    b1, b2 = (-offsets / 2)[None, :], (offsets / 2)[None, :]
    lo, hi = (s.tolist()
              for s in ev.live_span(m1[:, None], m2[:, None], b1, b2))
    a = 0
    while a < len(m1):
        c0, c1, e = lo[a], hi[a], a + 1
        while e < len(m1) and (e + 1 - a) * n <= _OUT_BLOCKS * _BLOCK_LINES:
            h0, h1 = min(c0, lo[e]), max(c1, hi[e])
            if (e + 1 - a) * (h1 - h0) > _BLOCK_LINES:
                break
            c0, c1, e = h0, h1, e + 1
        vals = np.zeros((e - a, n))
        if c0 < c1:
            vals[:, c0:c1] = ev(m1[a:e, None], m2[a:e, None],
                                b1[:, c0:c1], b2[:, c0:c1])
        yield a, vals
        a = e


def _first_max(m1, m2, offsets, ev, ub):
    """The first maximum in (theta, offset) order of the rows over offsets
    of the directions (m1[i], m2[i]), as (value, (row, column)), where ub[i]
    is a float no cost on row i exceeds.

    _rows runs on the directions in decreasing ub and stops before the
    block whose first row's bound is below the best value found: no cost
    on it, nor on any later row, can reach that value.  Every row that
    holds the maximum is therefore visited, and a row replaces the best on
    a greater value or on an equal one at a smaller index."""
    order = np.argsort(-ub, kind="stable")
    ub = ub[order].tolist()
    best, at = -math.inf, (0, 0)
    for a, vals in _rows(m1[order], m2[order], offsets, ev):
        for r, c in enumerate(vals.argmax(axis=1).tolist()):
            v, i = float(vals[r, c]), int(order[a + r])
            if v > best or (v == best and i < at[0]):
                best, at = v, (i, c)
        e = a + len(vals)
        if e < len(ub) and ub[e] < best:
            break
    return best, at


def scan(M, N, g: GridSpec) -> ScanResult:
    """Sweep the grid; returns the max, its (theta, offset), and lazy rows.

    Rows are produced in (theta, offset) order; iterating them re-runs the
    evaluation (_rows), so a scan whose rows are never read costs no row
    storage, and every row equals the full evaluation bit for bit.  The max
    and argmax are the first maximum in (theta, offset) order, as a call per
    row gives.  Every grid finds them best-first (_first_max): rows in
    decreasing row bound (the map's row_bound, _fastpath._row_bound),
    stopping once the next row's bound is below the best value found.
    Only a pair of rectangles without essential bars, rectangle modules or
    presentations whose components are all rectangle-shaped, has finite
    bounds; the +inf bounds of any other pair keep every row, in order.
    """
    thetas, offsets = _axes(M, N, g)
    _, m1, m2 = _theta_table(g.theta_steps)
    ev = _fastpath.line_evaluator(M, N)
    ub = ev.row_bound(m1[:, None], m2[:, None], (-offsets / 2)[None, :],
                      (offsets / 2)[None, :]).ravel()
    best, (i, j) = _first_max(m1, m2, offsets, ev, ub)
    arg = (float(thetas[i]), float(offsets[j]))

    def gen():
        offs = offsets.tolist()
        for a, vals in _rows(m1, m2, offsets, ev):
            for th, row in zip(thetas[a:a + len(vals)].tolist(),
                               vals.tolist()):
                for o, v in zip(offs, row):
                    yield HeatmapRow(th, o, v)

    return ScanResult(best, arg, _LazyRows(gen))


def restricted_max(M, N, g: GridSpec, family: str) -> float:
    """Max over one restricted line family.

    "diagonal_only" sweeps slope-1 lines over the offset grid, one block of
    a single direction row, evaluated on its live span;
    "critical_pairs_only" evaluates the finitely many lines through two
    points of the lub-closed critical value sets (no grid involved).
    """
    ev = _fastpath.line_evaluator(M, N)
    if family == "diagonal_only":
        _, offsets = _axes(M, N, g)
        ones = np.ones(1)
        return float(next(_rows(ones, ones, offsets, ev))[1].max())
    if family != "critical_pairs_only":
        raise ValueError("unknown family %r" % family)
    pts = lub_closure(critical_values(M)) | lub_closure(critical_values(N))
    lines = [ln for p, q in combinations(pts, 2)
             if (ln := line_through(p, q)) is not None]
    if not lines:
        return 0.0
    m1, m2, b1 = (np.array(col, dtype=np.float64)
                  for col in zip(*((*ln.m, ln.b[0]) for ln in lines)))
    return float(ev(m1, m2, b1, -b1).max())


def write_csv(rows, fileobj) -> None:
    """CSV with header theta,offset,weighted_bottleneck; inf spelled "inf"."""
    w = csv.writer(fileobj)
    w.writerow(["theta", "offset", "weighted_bottleneck"])
    for r in rows:
        w.writerow([repr(r.theta), repr(r.offset), repr(r.weighted_cost)])
