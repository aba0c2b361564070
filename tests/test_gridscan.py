"""Grid sweep tests: golden values, dominance by the exact engine, and the
CSV boundary."""
import csv
import io
import math
import random
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (combined_presentation, entangled_presentation,
                      ex_diag_not_suff, ex_need_diag, ex_need_omega,
                      rand_pool, rand_presentation, rand_rect,
                      rand_rect_module)
from matchdist import _fastpath, fibered, gridscan
from matchdist._fastpath import line_evaluator
from matchdist.exactdist import matching_distance
from matchdist.fibered import bar_counts
from matchdist.geometry import Line
from matchdist.gridscan import (GridSpec, HeatmapRow, _axes, _directions,
                                default_offset_range, restricted_max, scan,
                                write_csv)
from matchdist.modules import TwoParamModule, rect
from matchdist.rational import INF, Q, rat
from oracles import _exact_cost


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1, 5)
    with pytest.raises(ValueError):
        GridSpec(5, 1)
    with pytest.raises(ValueError):
        GridSpec(3, 3, offset_range=(2, 2))
    for bad in ((0, float("inf")), (float("-inf"), 0),
                (float("-inf"), float("inf")), (0, float("nan"))):
        with pytest.raises(ValueError):
            GridSpec(3, 3, offset_range=bad)
    for bad in ((2.5, 3), (3, 2.5), (3.0, 3), ("3", 3)):
        with pytest.raises(ValueError):
            GridSpec(*bad)
    GridSpec(2, 2)
    GridSpec(np.int64(3), 3, offset_range=(Q(-1, 3), 2.5))


def test_default_offset_range():
    M, N = ex_need_omega()
    assert default_offset_range(M, N) == (-18.0, 22.0)
    t = TwoParamModule.from_rects([])
    assert default_offset_range(t, t) == (-1.0, 1.0)


def test_scan_golden_interior_pivot():
    M, N = ex_need_omega()
    res = scan(M, N, GridSpec(400, 400))
    assert abs(res.max_value - 2.1) < 0.02
    assert res.max_value <= float(Q(21, 10)) + 1e-9


def test_scan_golden_split_swap():
    M, N = ex_diag_not_suff()
    res = scan(M, N, GridSpec(400, 400))
    exact = float(Q(28, 11))
    assert exact - 0.05 < res.max_value <= exact + 1e-9


def test_restricted_diagonal_hits_golden_offsets():
    # spacing 1/2 over (-18, 22) puts the maximizing offsets 2.5 and 2 on
    # the grid exactly
    g = GridSpec(2, 81)
    M, N = ex_need_omega()
    assert restricted_max(M, N, g, "diagonal_only") == pytest.approx(
        1.5, abs=1e-9)
    M, N = ex_diag_not_suff()
    assert restricted_max(M, N, g, "diagonal_only") == pytest.approx(
        2.0, abs=1e-9)


def test_restricted_critical_pairs_golden():
    M, N = ex_need_omega()
    v = restricted_max(M, N, GridSpec(2, 2), "critical_pairs_only")
    assert v == pytest.approx(float(Q(21, 11)), abs=1e-9)


def test_neither_restricted_family_suffices():
    M, N = ex_need_omega()
    g = GridSpec(400, 400)
    full = scan(M, N, g).max_value
    assert full > restricted_max(M, N, g, "critical_pairs_only")
    assert full > restricted_max(M, N, GridSpec(2, 81), "diagonal_only")


def test_unknown_family_rejected():
    M, N = ex_need_omega()
    with pytest.raises(ValueError):
        restricted_max(M, N, GridSpec(2, 2), "everything")


def test_samples_never_exceed_exact():
    rng = random.Random(17)
    pool = rand_pool(rng, 4)
    cases = [ex_diag_not_suff(), ex_need_omega(), ex_need_diag(),
             (rand_rect_module(rng, max_rects=2, pool=pool, p_inf=0),
              rand_rect_module(rng, max_rects=2, pool=pool, p_inf=0)),
             (TwoParamModule.from_rects([rect(0, 0, INF, INF)]),
              TwoParamModule.from_rects([rect(0, 0, 4, 4)]))]
    for M, N in cases:
        exact = float(matching_distance(M, N).value)
        res = scan(M, N, GridSpec(50, 50))
        assert res.max_value <= exact + 1e-9
        assert all(r.weighted_cost <= exact + 1e-9 for r in res.rows)


def test_refinement_monotone():
    # theta interiors nest when fine_steps+1 is a multiple of coarse+1, and
    # offsets nest when fine-1 is a multiple of coarse-1
    M, N = ex_need_omega()
    rng_kwargs = dict(offset_range=(-18, 22))
    coarse = scan(M, N, GridSpec(4, 5, **rng_kwargs)).max_value
    fine = scan(M, N, GridSpec(9, 9, **rng_kwargs)).max_value
    assert fine >= coarse - 1e-12


def test_rows_order_and_argmax():
    M, N = ex_need_diag()
    g = GridSpec(3, 4)
    res = scan(M, N, g)
    rows = list(res.rows)
    assert len(rows) == 3 * 4
    assert rows == list(res.rows)  # re-iterable, deterministic
    order = [(r.theta, r.offset) for r in rows]
    assert order == sorted(order)
    assert max(r.weighted_cost for r in rows) == res.max_value
    assert any((r.theta, r.offset) == res.argmax
               and r.weighted_cost == res.max_value for r in rows)


def _scan_per_row(M, N, g):
    """scan's max, argmax and rows from one evaluator call per theta row."""
    thetas, offsets = _axes(M, N, g)
    ev = line_evaluator(M, N)
    best, arg, rows = -math.inf, (float(thetas[0]), float(offsets[0])), []
    for th in thetas:
        c, s = math.cos(th), math.sin(th)
        mx = max(c, s)
        ones = np.ones_like(offsets)
        row = ev(ones * (c / mx), ones * (s / mx), -offsets / 2, offsets / 2)
        j = int(np.argmax(row))
        if row[j] > best:
            best, arg = float(row[j]), (float(th), float(offsets[j]))
        rows += [HeatmapRow(float(th), float(o), float(v))
                 for o, v in zip(offsets, row)]
    return best, arg, rows


def _bits(rows):
    return np.array([(r.theta, r.offset, r.weighted_cost)
                     for r in rows]).tobytes()


def _wide_pair(finite):
    rng = random.Random(37)
    pool = rand_pool(rng, 3)
    return tuple(TwoParamModule.from_rects([rand_rect(rng, pool, p_inf=0)
                                            for _ in range(finite)])
                 for _ in "MN")


@pytest.mark.parametrize("pair, g, block", [
    # 1000 offsets do not divide the block, and 7 rows leave a partial last
    # block
    (ex_need_omega, GridSpec(7, 1000), None),
    # more offsets than the block holds: one row per call
    (ex_need_omega, GridSpec(3, 5000), None),
    (lambda: _wide_pair(5), GridSpec(5, 900), None),
    (lambda: tuple(map(combined_presentation, ex_need_omega())),
     GridSpec(5, 1300), None),
    (lambda: tuple(map(entangled_presentation, ex_need_omega())),
     GridSpec(5, 1300), None),
    # grids of fewer than _BLOCK_LINES lines, one block on the span path
    (ex_need_omega, GridSpec(5, 7), None),
    (lambda: tuple(map(entangled_presentation, ex_need_omega())),
     GridSpec(20, 60), None),
    # past the kernel's dynamic-programming width, the threshold search
    # runs line by line; a small block gives the same shapes on a small
    # grid
    (lambda: _wide_pair(7), GridSpec(5, 7), 16),
    (lambda: _wide_pair(7), GridSpec(2, 20), 16),
], ids=["rect", "rect-row-per-call", "rect-5x5", "presentation",
        "presentation-entangled", "rect-one-block",
        "presentation-entangled-one-block", "past-dp-width",
        "past-dp-width-row-per-call"])
def test_blocks_match_one_call_per_row(pair, g, block, monkeypatch):
    """Rows evaluated in blocks give every value, the max and the argmax of
    one evaluator call per row, bit for bit, for rectangles and
    presentations, rectangle-shaped or entangled, on grids of one block
    and of many, at and past the kernel's dynamic-programming width."""
    if block is not None:
        monkeypatch.setattr(gridscan, "_BLOCK_LINES", block)
    M, N = pair()
    width = min(bar_counts(M)[0], bar_counts(N)[0])
    assert (width > _fastpath.MAX_FINITE) == (block is not None)
    best, arg, rows = _scan_per_row(M, N, g)
    res = scan(M, N, g)
    assert repr(res.max_value) == repr(best)
    assert res.argmax == arg
    want = _bits(rows)
    assert _bits(res.rows) == want
    assert _bits(res.rows) == want  # re-iterable


def _scan_flat(M, N, g):
    """scan's max, argmax and rows, and the diagonal family's max, from
    flat line arrays, directions repeated and offsets tiled, in one
    evaluator call each."""
    thetas, offsets = _axes(M, N, g)
    m1, m2 = _directions(thetas)
    n, r = len(offsets), len(thetas)
    ev = line_evaluator(M, N)
    vals = ev(np.repeat(m1, n), np.repeat(m2, n), np.tile(-offsets / 2, r),
              np.tile(offsets / 2, r)).reshape(r, n)
    best, arg, rows = -math.inf, (float(thetas[0]), float(offsets[0])), []
    for th, row in zip(thetas, vals):
        j = int(np.argmax(row))
        if row[j] > best:
            best, arg = float(row[j]), (float(th), float(offsets[j]))
        rows += [HeatmapRow(float(th), float(o), float(v))
                 for o, v in zip(offsets, row)]
    ones = np.ones(n)
    diag = float(ev(ones, ones, -offsets / 2, offsets / 2).max())
    return best, arg, rows, diag


def _unequal_essential_pair():
    return (TwoParamModule.from_rects([rect(0, 0, INF, INF),
                                       rect(1, 1, 3, 2)]),
            TwoParamModule.from_rects([rect(0, 1, 2, 3)]))


@pytest.mark.parametrize("pair", [
    ex_need_omega,
    lambda: tuple(map(combined_presentation, ex_need_omega())),
    lambda: tuple(map(entangled_presentation, ex_need_omega())),
    lambda: _wide_pair(7),
    lambda: (TwoParamModule.from_rects([]),) * 2,
    _unequal_essential_pair,
], ids=["rect", "presentation", "presentation-entangled", "past-dp-width",
        "trivial", "unequal-essential"])
@pytest.mark.parametrize("g, block, chunk", [
    # blocks of 2 rows and a last block of 1, sliced into kernel chunks of
    # 2 offsets
    (GridSpec(7, 9), 20, 4),
    # each row longer than a block, sliced into chunks of 4 offsets
    (GridSpec(3, 9), 5, 4),
    # one block over the whole grid, one chunk
    (GridSpec(4, 6), 24, None),
], ids=["rows-split", "row-past-block", "one-block"])
def test_broadcast_blocks_match_flat_lines(pair, g, block, chunk,
                                           monkeypatch):
    """Blocks passed as a direction column against an offset row give the
    max, the argmax, every row and the diagonal family's max of flat line
    arrays, bit for bit, on every evaluator branch."""
    monkeypatch.setattr(gridscan, "_BLOCK_LINES", block)
    if chunk is not None:
        monkeypatch.setattr(_fastpath, "CHUNK", chunk)
    M, N = pair()
    best, arg, rows, diag = _scan_flat(M, N, g)
    res = scan(M, N, g)
    assert repr(res.max_value) == repr(best)
    assert res.argmax == arg
    assert _bits(res.rows) == _bits(rows)
    assert repr(restricted_max(M, N, g, "diagonal_only")) == repr(diag)


def _unequal_forms():
    """_unequal_essential_pair as rectangles and as presentations, in both
    argument orders; the entangled form's first module keeps a _Pres, its
    second, one rectangle, is rectangle-shaped."""
    M, N = _unequal_essential_pair()
    P, R = combined_presentation(M), combined_presentation(N)
    E = entangled_presentation(M)
    return {"rect": (M, N), "rect-swapped": (N, M),
            "presentation": (P, R), "presentation-swapped": (R, P),
            "entangled": (E, R), "entangled-swapped": (R, E)}


@pytest.mark.parametrize("form", list(_unequal_forms()))
@pytest.mark.parametrize("g", [GridSpec(7, 9), GridSpec(60, 80)],
                         ids=["one-block", "spans"])
def test_unequal_essential_counts_cost_inf(form, g):
    """Sides with unequal essential counts cost +inf on every line, in the
    lines' broadcast shape: the scan's max is +inf at the first grid point,
    every row holds +inf in (theta, offset) order, and both restricted
    families give +inf, on a grid of one block and on one past it."""
    M, N = _unequal_forms()[form]
    thetas, offsets = _axes(M, N, g)
    res = scan(M, N, g)
    assert res.max_value == math.inf
    assert res.argmax == (float(thetas[0]), float(offsets[0]))
    rows = list(res.rows)
    assert [(r.theta, r.offset) for r in rows] == [
        (t, o) for t in thetas.tolist() for o in offsets.tolist()]
    assert all(r.weighted_cost == math.inf for r in rows)
    for family in ("diagonal_only", "critical_pairs_only"):
        assert restricted_max(M, N, g, family) == math.inf
    costs = line_evaluator(M, N)(np.ones((3, 1)), np.ones((3, 1)),
                                 np.zeros((1, 5)), np.zeros((1, 5)))
    assert costs.shape == (3, 5) and np.all(costs == math.inf)


@pytest.mark.parametrize("pair, reductions", [
    (lambda: tuple(map(combined_presentation, ex_need_omega())), 0),
    (lambda: _unequal_forms()["presentation"], 0),
    (lambda: _unequal_forms()["presentation-swapped"], 0),
    (lambda: tuple(map(entangled_presentation, ex_need_omega())), 2),
    (lambda: _unequal_forms()["entangled"], 1),
    (lambda: _unequal_forms()["entangled-swapped"], 1),
], ids=["equal-essential", "unequal", "unequal-swapped",
        "entangled-equal-essential", "entangled-unequal",
        "entangled-unequal-swapped"])
def test_presentation_scan_counts_bars_once(pair, reductions, monkeypatch):
    """A presentation scan reduces a relation matrix for the bar counts
    only for a module with entangled components, once, when the kernel
    converts it: a presentation whose components are all rectangle-shaped
    reduces none.  Reductions of the barcode templates do not count, and
    fibered.bar_counts, wherever the package binds it, never runs."""
    calls, templating = [], []
    reduce_columns = fibered.reduce_columns
    template = _fastpath._Pres._template

    def counted(columns, rows):
        if not templating:
            calls.append(rows)
        return reduce_columns(columns, rows)

    def templated(self, row):
        templating.append(row)
        try:
            return template(self, row)
        finally:
            templating.pop()

    def never(module):
        raise AssertionError("bar_counts called")

    patches = {"reduce_columns": counted, "bar_counts": never}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "matchdist":
            for attr in patches.keys() & vars(mod).keys():
                monkeypatch.setattr(mod, attr, patches[attr])
    monkeypatch.setattr(_fastpath._Pres, "_template", templated)
    M, N = pair()
    scan(M, N, GridSpec(60, 80))
    assert len(calls) == reductions


def test_scan_converts_modules_once(monkeypatch):
    """A vector-ready 1000x1000 scan converts its two modules into the
    kernel's floats once, not once per block."""
    calls = []
    sides = _fastpath._sides

    def counted(M, N, conv):
        calls.append(conv)
        return sides(M, N, conv)

    monkeypatch.setattr(_fastpath, "_sides", counted)
    M, N = ex_need_omega()
    assert _fastpath.vector_ready(M, N)
    res = scan(M, N, GridSpec(1000, 1000))
    assert res.max_value <= float(Q(21, 10)) + 1e-9
    assert calls == [float]


# corner scales for the span test: small integers, slivers of width 1e-9,
# widths of 1e6, corners near 1e15, where v - b rounds coarsely, and corners
# near 2^50 with widths of one to four ulps
_SPAN_KINDS = {"int": (0, 1), "sliver": (0, 1e-9), "wide": (0, 10 ** 6),
               "huge": (10 ** 15, 1), "ulps": (2 ** 50, Q(1, 4))}


@st.composite
def _span_rect(draw, base, unit, infinite=True):
    x, y = (base + draw(st.integers(0, 12)) for _ in "xy")
    w, h = (draw(st.integers(1, 4)) * unit for _ in "wh")
    # at most one infinite upper: an essential bar takes full rows
    inf_axis = draw(st.sampled_from([None, None, 0, 1] if infinite
                                    else [None]))
    return rect(x, y, INF if inf_axis == 0 else x + w,
                INF if inf_axis == 1 else y + h)


def _boundary(r, m1, m2):
    """The float offset at which a bar of r starts or stops being alive on
    the direction (m1, m2), where it has a finite upper: where the crossing
    of u1 meets that of l2, or where the crossing of u2 meets that of l1."""
    (l1, l2), (u1, u2) = r.lower, r.upper
    if u1 != INF:
        return 2 * (m1 * float(l2) - m2 * float(u1)) / (m1 + m2)
    return 2 * (m1 * float(u2) - m2 * float(l1)) / (m1 + m2)


@st.composite
def _span_cases(draw):
    """A rectangle pair without essential bars, and a grid whose offsets
    are integers (so boundary offsets of integer corners fall on grid
    points), the default range, a range far outside the box, or a range
    that ends within a few ulps of where a bar dies on one of the rows.
    Some pairs have MAX_FINITE + 1 finite bars a side, past the kernel's
    dynamic-programming width, where the threshold search decides."""
    base, unit = _SPAN_KINDS[draw(st.sampled_from(sorted(_SPAN_KINDS)))]
    wide = _fastpath.MAX_FINITE + 1
    sizes = draw(st.sampled_from([((1, 3), (0, 3))] * 3
                                 + [((wide, wide),) * 2]))
    # among so many bars a one-sided infinite upper would leave every
    # column live, so wide pairs have finite uppers only
    inf = sizes[0][0] < wide
    M, N = (TwoParamModule.from_rects(
        draw(st.lists(_span_rect(base, unit, inf), min_size=lo, max_size=hi)))
        for lo, hi in sizes)
    thetas = draw(st.integers(2, 9))
    where = draw(st.sampled_from(["integers", "default", "far", "edge"]))
    if where == "integers":
        lo = draw(st.integers(-30, 0))
        hi = lo + draw(st.integers(1, 45))
        return M, N, GridSpec(thetas, hi - lo + 1, offset_range=(lo, hi))
    steps = draw(st.integers(2, 40))
    if where == "default":
        return M, N, GridSpec(thetas, steps)
    if where == "far":
        c = draw(st.sampled_from([-1, 1])) * 10.0 ** draw(st.integers(3, 17))
        return M, N, GridSpec(thetas, steps, offset_range=(c, c + abs(c) / 2))
    m1, m2 = _directions(_axes(M, N, GridSpec(thetas, 2))[0])
    i = draw(st.integers(0, thetas - 1))
    o = _boundary(draw(st.sampled_from(M.rectangles)), m1[i], m2[i])
    for _ in range(draw(st.integers(0, 2))):
        o = np.nextafter(o, draw(st.sampled_from([-np.inf, np.inf])))
    w = draw(st.sampled_from([1e-12, 1.0, 50.0])) * max(1.0, abs(o))
    rng = (o, o + w) if draw(st.booleans()) else (o - w, o)
    return M, N, GridSpec(thetas, steps, offset_range=tuple(map(float, rng)))


@settings(max_examples=200, deadline=None)
@given(_span_cases(), st.sampled_from([1, 8, 64]))
def test_live_spans_match_flat_lines(case, block):
    """Rows evaluated only on their live spans, zeros elsewhere, give every
    row, the max, the argmax and the diagonal family's max of the full
    flat grid, bit for bit: the float predicates of the span argument
    (_fastpath._live_span) change value where the kernel's bars die, at
    grid points, on slivers, far from the box and at coarse rounding.
    Blocks of a few lines make these small grids, and the diagonal
    family's row, take the span path."""
    M, N, g = case
    best, arg, rows, diag = _scan_flat(M, N, g)
    with mock.patch.object(gridscan, "_BLOCK_LINES", block):
        res = scan(M, N, g)
        assert repr(res.max_value) == repr(best)
        assert res.argmax == arg
        assert _bits(res.rows) == _bits(rows)
        assert repr(restricted_max(M, N, g, "diagonal_only")) == repr(diag)


@settings(max_examples=200, deadline=None)
@given(_span_cases(), st.sampled_from([1, 8, 64]))
def test_row_bounds_hold_and_best_first_matches_flat_lines(case, block):
    """Every row's float costs stay at or below its row bound, the
    direction bound plus its written margin (_fastpath._row_bound), at grid
    points, on slivers, far from the box, at coarse rounding and a few ulps
    from where a bar dies; and the best-first scan, which blocks of a few
    lines make these small grids take, gives the max and argmax of the
    full flat grid, bit for bit."""
    M, N, g = case
    thetas, offsets = _axes(M, N, g)
    m1, m2 = _directions(thetas)
    ev = line_evaluator(M, N)
    n = len(offsets)
    b1, b2 = (-offsets / 2)[None, :], (offsets / 2)[None, :]
    bound = ev.row_bound(m1[:, None], m2[:, None], b1, b2).ravel()
    vals = ev(np.repeat(m1, n), np.repeat(m2, n), np.tile(b1[0], len(m1)),
              np.tile(b2[0], len(m1))).reshape(len(m1), n)
    assert np.all(vals.max(axis=1) <= bound)
    best, arg, _, _ = _scan_flat(M, N, g)
    with mock.patch.object(gridscan, "_BLOCK_LINES", block):
        res = scan(M, N, g)
    assert repr(res.max_value) == repr(best)
    assert res.argmax == arg


def test_best_first_scan_skips_live_lines(monkeypatch):
    """A 1000x1000 scan of finite rectangles reaches its max and argmax
    with the kernel on fewer lines than the rows' live spans hold, and
    reads every live span, but not the whole grid, when its rows are
    iterated."""
    M, N = ex_need_omega()
    g = GridSpec(1000, 1000)
    thetas, offsets = _axes(M, N, g)
    m1, m2 = _directions(thetas)
    lo, hi = line_evaluator(M, N).live_span(
        m1[:, None], m2[:, None], (-offsets / 2)[None, :],
        (offsets / 2)[None, :])
    live = int(np.maximum(hi - lo, 0).sum())
    lines = []
    chunk = _fastpath._chunk

    def counted(sm, sn, ar):
        lines.append(ar.zeros().size)
        return chunk(sm, sn, ar)

    monkeypatch.setattr(_fastpath, "_chunk", counted)
    res = scan(M, N, g)
    assert 0 < sum(lines) < live
    del lines[:]
    assert sum(1 for _ in res.rows) == 1000 * 1000
    assert live <= sum(lines) < 1000 * 1000


@pytest.mark.parametrize("pair, full", [
    (ex_need_omega, False),
    (lambda: tuple(map(combined_presentation, ex_need_omega())), False),
    (lambda: tuple(map(entangled_presentation, ex_need_omega())), True),
    (lambda: (TwoParamModule.from_rects([rect(0, 0, INF, INF),
                                         rect(1, 2, 6, 5)]),
              TwoParamModule.from_rects([rect(1, 1, INF, INF),
                                         rect(0, 3, 4, 7)])), True),
], ids=["rect", "presentation", "entangled", "essential"])
def test_scan_skips_dead_offsets(pair, full, monkeypatch):
    """A 1000x1000 scan of finite rectangles runs the kernel on fewer lines
    than the grid holds, and so does one of presentations whose components
    are all rectangle-shaped; an entangled presentation pair, and a pair
    with one essential bar per side, run it on every line."""
    lines = []
    chunk = _fastpath._chunk

    def counted(sm, sn, ar):
        lines.append(ar.zeros().size)
        return chunk(sm, sn, ar)

    monkeypatch.setattr(_fastpath, "_chunk", counted)
    M, N = pair()
    scan(M, N, GridSpec(1000, 1000))
    if full:
        assert sum(lines) == 1000 * 1000
    else:
        assert 0 < sum(lines) < 1000 * 1000


@pytest.mark.parametrize("pair, finite", [
    (ex_need_omega, True),
    (lambda: tuple(map(combined_presentation, ex_need_omega())), True),
    (lambda: tuple(map(entangled_presentation, ex_need_omega())), False),
    (lambda: (TwoParamModule.from_rects([rect(0, 0, INF, INF),
                                         rect(1, 2, 6, 5)]),
              TwoParamModule.from_rects([rect(1, 1, INF, INF),
                                         rect(0, 3, 4, 7)])), False),
    (lambda: (TwoParamModule.from_rects([]),) * 2, False),
], ids=["rect", "presentation", "entangled", "essential", "trivial"])
def test_every_map_has_row_bound_and_live_span(pair, finite):
    """Every map of line_evaluator has row_bound and live_span.  The row
    bound is an (r, 1) column, finite on a pair of rectangles without
    essential bars, rectangle modules or presentations of rectangle-shaped
    components, and +inf on an entangled presentation pair, on a pair with
    essential bars and on two trivial modules, whose live spans are full
    rows."""
    M, N = pair()
    ev = line_evaluator(M, N)
    thetas, offsets = _axes(M, N, GridSpec(7, 9))
    m1, m2 = _directions(thetas)
    line = (m1[:, None], m2[:, None], (-offsets / 2)[None, :],
            (offsets / 2)[None, :])
    bound = ev.row_bound(*line)
    assert bound.shape == (7, 1)
    assert np.all(np.isfinite(bound) if finite else bound == math.inf)
    if not finite:
        lo, hi = ev.live_span(*line)
        assert lo.tolist() == [0] * 7 and hi.tolist() == [9] * 7


def test_direction_table_follows_the_grid():
    """Scans on 7, then 1000, then again 7 theta steps in one process
    give the max, argmax and rows of flat lines on a fresh
    _directions(_axes(...)[0]), bit for bit: the one table kept is the
    most recent grid's, equal to fresh thetas and directions, and
    writing to any of its arrays raises."""
    M, N = ex_need_omega()
    for g in (GridSpec(7, 5), GridSpec(1000, 3), GridSpec(7, 5)):
        res = scan(M, N, g)
        best, arg, rows, _ = _scan_flat(M, N, g)
        assert (repr(res.max_value), res.argmax) == (repr(best), arg)
        assert _bits(res.rows) == _bits(rows)
        assert gridscan._theta_table.cache_info().currsize == 1
        thetas = np.linspace(0.0, math.pi / 2, g.theta_steps + 2)[1:-1]
        table = gridscan._theta_table(g.theta_steps)
        assert table[0] is _axes(M, N, g)[0]
        for got, want in zip(table, (thetas, *_directions(thetas))):
            assert got.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                got[0] = 0.5


_EDGE_DOUBLES = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
                 2.2250738585072014e-308, -2.2250738585072014e-308,
                 2.225073858507201e-308, 1e-323, 3 * 5e-324,
                 1.7976931348623157e308, -1.7976931348623157e308]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False),
                          st.floats(allow_nan=False, allow_subnormal=True,
                                    min_value=-1e-306, max_value=1e-306),
                          st.sampled_from(_EDGE_DOUBLES)),
                min_size=1, max_size=8))
def test_float_half_is_division_by_two(xs):
    """_FloatLines.half, x * 0.5, is the double x / 2 bit for bit, on
    arrays and on single doubles, subnormals, +-0 and +-inf included."""
    x = np.array(xs + _EDGE_DOUBLES)
    assert _fastpath._FloatLines.half(x).tobytes() == (x / 2).tobytes()
    for v in xs:
        assert np.float64(_fastpath._FloatLines.half(v)).tobytes() == \
            np.float64(v / 2).tobytes()


def test_trivial_scan_all_zero():
    t = TwoParamModule.from_rects([])
    res = scan(t, t, GridSpec(3, 3))
    assert res.max_value == 0.0
    assert all(r.weighted_cost == 0.0 for r in res.rows)


def test_presentation_path_agrees_with_rect_path():
    """A presentation whose components are all rectangle-shaped takes the
    rectangle path: its scan is the rectangle form's, bit for bit."""
    M, N = ex_need_omega()
    g = GridSpec(10, 10)
    fast = scan(M, N, g)
    slow = scan(combined_presentation(M), combined_presentation(N), g)
    assert (repr(slow.max_value), slow.argmax) == \
        (repr(fast.max_value), fast.argmax)
    assert _bits(slow.rows) == _bits(fast.rows)


def test_entangled_presentation_path_agrees_with_rect_path():
    """An entangled presentation's scan, through its barcode templates,
    agrees with the rectangle form's within rounding."""
    M, N = ex_need_omega()
    g = GridSpec(10, 10)
    fast = list(scan(M, N, g).rows)
    slow = list(scan(entangled_presentation(M), entangled_presentation(N),
                     g).rows)
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert (a.theta, a.offset) == (b.theta, b.offset)
        assert a.weighted_cost == pytest.approx(b.weighted_cost, abs=1e-9)


def _assert_vector_path_agrees(M, N):
    """The vectorized evaluator agrees with exact restriction per line, and
    the scan stays below the exact distance."""
    lo, hi = default_offset_range(M, N)
    th, off = np.meshgrid(np.linspace(0.05, 1.5, 12), np.linspace(lo, hi, 15))
    th, off = th.ravel(), off.ravel()
    mx = np.maximum(np.cos(th), np.sin(th))
    lines = (np.cos(th) / mx, np.sin(th) / mx, -off / 2, off / 2)
    fast = line_evaluator(M, N)(*lines)
    # the offsets make b1 + b2 = 0 exactly, so the doubles give a
    # normalized Line
    exact = np.array([
        float(_exact_cost(M, N, Line((rat(m1), rat(m2)), (rat(b1), rat(b2)))))
        for m1, m2, b1, b2 in zip(*(a.tolist() for a in lines))])
    assert fast.max() > 0
    assert np.all(np.abs(fast - exact) <= 1e-9 * np.maximum(1, np.abs(exact)))
    value = float(matching_distance(M, N).value)
    assert scan(M, N, GridSpec(60, 60)).max_value <= value + 1e-9


def test_five_rectangle_pair_vector_path_agrees():
    """Five finite rectangles per side take the vectorized evaluator."""
    rng = random.Random(29)
    pool = rand_pool(rng, 3)
    M, N = (TwoParamModule.from_rects([rand_rect(rng, pool, p_inf=0)
                                       for _ in range(5)]) for _ in "MN")
    _assert_vector_path_agrees(M, N)


def test_presentation_pair_vector_path_agrees():
    """Presentations with columns of several generators, columns that
    reduce to zero and essential generators take the vectorized evaluator
    too."""
    rng = random.Random(31)
    pool = rand_pool(rng, 3)
    M, N = (rand_presentation(rng, pool, 4, 1) for _ in "MN")
    _assert_vector_path_agrees(M, N)


def test_csv_round_trip_and_inf_sentinel():
    M = TwoParamModule.from_rects([rect(0, 0, INF, INF)])
    N = TwoParamModule.from_rects([rect(0, 0, 4, 4)])
    res = scan(M, N, GridSpec(2, 3))
    buf = io.StringIO()
    write_csv(res.rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "theta,offset,weighted_bottleneck"
    parsed = list(csv.reader(lines[1:]))
    assert len(parsed) == 2 * 3
    for (ts, os_, cs), row in zip(parsed, res.rows):
        assert float(ts) == row.theta
        assert float(os_) == row.offset
        assert cs == "inf" and float(cs) == math.inf
