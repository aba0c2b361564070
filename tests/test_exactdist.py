"""End-to-end tests for the exact distance engine.

The slow cross-check compares the streaming engine against a plain loop over
the materialized candidate line set, on value, witness line, and count.
"""
import cProfile
import itertools
import math
import random
import sys
import threading
import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchdist.exactdist as exactdist
import matchdist.fibered as fibered
import matchdist.geometry as geometry
from conftest import (combined_presentation, entangled_presentation,
                      ex_diag_not_suff, ex_need_diag, ex_need_omega,
                      rand_diagram, rand_line, rand_point, rand_pool,
                      rand_presentation, rand_rat, rand_rect,
                      rand_rect_module, rand_split_presentation)
from matchdist import _fastpath
from matchdist.bottleneck import (bottleneck, cheapest_matching,
                                  threshold_matching)
from matchdist.exactdist import (BothTrivial, CandidateLineSet,
                                 SwitchPointSet, candidate_lines,
                                 horizontal_cost, matching_distance,
                                 vertical_cost)
from matchdist.fibered import (Bar, bar_counts, restrict_module,
                               restrict_presentation)
from matchdist.geometry import (Line, ProjPoint, line_through,
                                normalize_line, push_param, weight)
from matchdist.gridscan import GridSpec, scan
from matchdist.modules import (Presentation, TwoParamModule, critical_values,
                               lub_closure, rect, scale, swap_axes,
                               translate)
from matchdist.rational import INF, Q
from oracles import (bottleneck_bruteforce, distinct_keys,
                     distinct_keys_pairloop, lattice_rational, lattice_sets,
                     lex_pair, match_patterns, select_exact)


def _assert_as_oracle(res, ref):
    """res has the value, witness line and count of the per-line oracle
    select_exact, and its witness matching: the pairs, the bars sent to
    the diagonal, the cost and the realizer, all on the diagrams of
    restrict_module."""
    assert (res.value, res.witness_line, res.candidate_count) == \
        (ref.value, ref.witness_line, ref.candidate_count)
    assert res.witness_detail == ref.witness_detail


def brute(M, N, extra=None):
    """Max over the materialized candidate set; lines come lex-sorted, so
    keeping only strict improvements reproduces the lex-min tie-break."""
    lines = candidate_lines(M, N, extra).lines
    best = wit = None
    for line in lines:
        v = exactdist._exact_cost(M, N, line)
        if best is None or v > best:
            best, wit = v, line
    return best, wit, len(lines)


# Worked examples.

def test_golden_split_swap():
    M, N = ex_diag_not_suff()
    res = matching_distance(M, N)
    assert res.value == Q(28, 11)
    assert res.witness_line.m == (Q(7, 11), Q(1))
    assert res.witness_line.b == (Q(0), Q(0))
    assert res.witness_detail.cost == 4
    assert weight(res.witness_line) * res.witness_detail.cost == res.value
    assert res.candidate_count == len(candidate_lines(M, N).lines)


def test_golden_interior_pivot():
    M, N = ex_need_omega()
    res = matching_distance(M, N)
    assert res.value == Q(21, 10)
    assert res.witness_line.m == (Q(7, 10), Q(1))
    assert res.witness_line.b == (Q(-7, 17), Q(7, 17))
    # the witness passes through the switch point (7/2, 6) and the
    # closure point (7, 11)
    for p in ((Q(7, 2), Q(6)), (Q(7), Q(11))):
        m, b = res.witness_line.m, res.witness_line.b
        assert m[1] * (p[0] - b[0]) == m[0] * (p[1] - b[1])
    assert res.candidate_count == len(candidate_lines(M, N).lines)


def test_golden_infinite_strips():
    M, N = ex_need_diag()
    res = matching_distance(M, N)
    assert res.value == 3
    assert res.witness_line.m == (Q(1), Q(1))
    assert res.witness_line.b == (Q(-1), Q(1))
    assert res.candidate_count == len(candidate_lines(M, N).lines)


def test_candidate_lines_contain_known_witnesses():
    M, N = ex_diag_not_suff()
    lines = candidate_lines(M, N).lines
    assert line_through((0, 0), (7, 11)) in lines
    assert len(set(lines)) == len(lines)
    M, N = ex_need_omega()
    lines = candidate_lines(M, N).lines
    assert line_through((Q(7, 2), 6), (7, 11)) in lines


def test_candidate_lines_lex_sorted():
    M, N = ex_need_diag()
    lines = candidate_lines(M, N).lines
    keys = [(line.m[0] / line.m[1], line.b[0]) for line in lines]
    assert keys == sorted(keys)


def _key_path(M, N, extra):
    """The key regime, by the dtypes of the packing: int64 packed keys
    ("int64"), object packed keys over int64 unpacked keys ("object"), or
    object unpacked keys ("bigint")."""
    X, Y, dvals, _ = exactdist._lattice(M, N, extra)
    return _spec_path(exactdist._pack_spec(X, Y, dvals))


def _spec_path(spec):
    if spec.key_dtype == object:
        return "bigint"
    return "int64" if spec.dtype == np.int64 else "object"


def test_candidate_lines_match_exact_sort_on_every_key_path(monkeypatch):
    """Ordering on the integer keys gives the lines of a sort of every key
    by its exact (m1/m2, b1), in the same order, in every key regime (int64
    packed keys, object packed keys over int64 unpacked keys, object
    unpacked keys), with and without extra switch points and directions.
    Every line passes the public constructor's check and equals and
    hashes as the line it builds, so every key direction is positive; a
    lattice with no positive-slope line gives the empty set."""
    rng = random.Random(19)
    pool = rand_pool(rng, 3)
    cases = [(ex_need_omega(), 1, "int64"),
             ((rand_rect_module(rng, max_rects=2, pool=pool, p_inf=0.2),
               rand_rect_module(rng, max_rects=2, pool=pool, p_inf=0.2)),
              1, "int64"),
             (ex_diag_not_suff(), 100003, "object"),
             (ex_need_omega(), 10 ** 9, "bigint")]
    for (M, N), f, path in cases:
        M, N = scale(M, f), scale(N, f)
        # thirds and halves keep the lattice scaling, and so the key path
        extra = SwitchPointSet(
            frozenset({(f * Q(1, 3), f * Q(5, 2)), (2 * f, 9 * f),
                       (f * Q(13, 2), 4 * f)}),
            frozenset({ProjPoint.of(0, 2, 9), ProjPoint.of(0, 7, 3),
                       ProjPoint.of(0, 1, 0)}))
        for ex in (None, extra):
            assert _key_path(M, N, ex) == path
            X, Y, dvals, lam = exactdist._lattice(M, N, ex)
            keys = sorted(distinct_keys(X, Y, dvals),
                          key=lambda t: lex_pair(*t, lam))
            want = tuple(exactdist._line_from_key(*t, lam) for t in keys)
            assert len({ln.m for ln in want}) > 2
            got = candidate_lines(M, N, ex).lines
            assert got == want
            for ln in got:
                again = Line(ln.m, ln.b)
                assert again == ln and hash(again) == hash(ln)
    # two points on a vertical line and no switch direction
    monkeypatch.setattr(exactdist, "_lattice",
                        lambda M, N, extra: ([0, 0], [0, 6], [], 1))
    assert candidate_lines(*ex_need_omega()) == CandidateLineSet(())


def test_candidate_lines_are_canonical_on_every_key_path():
    """In every key regime, every component of every line is a Q in
    lowest terms with a positive denominator, b2 = -b1 and max(m) = 1,
    and the lines of one direction run share one m."""
    for (M, N), f, path in [(ex_need_omega(), 1, "int64"),
                            (ex_diag_not_suff(), 100003, "object"),
                            (ex_need_omega(), 10 ** 9, "bigint")]:
        M, N = scale(M, f), scale(N, f)
        assert _key_path(M, N, None) == path
        lines = candidate_lines(M, N).lines
        for ln in lines:
            for c in (*ln.m, *ln.b):
                assert type(c) is Q and c.denominator > 0
                assert gcd(c.numerator, c.denominator) == 1
            assert ln.b[1] == -ln.b[0] and max(ln.m) == 1
        runs = [[lines[0]]]
        for a, b in zip(lines, lines[1:]):
            if a.m == b.m:
                runs[-1].append(b)
            else:
                runs.append([b])
        assert len(runs) > 2 and max(map(len, runs)) > 2
        assert all(ln.m is run[0].m for run in runs for ln in run)


def test_direction_order_matches_fractions():
    """_direction_order sorts directions as their exact ratios dx/dy do,
    also where the doubles of two ratios coincide: (2^60+1)/2^60 against
    2^60/(2^60-1) and 1/1, whose doubles are all 1.0, in every order and
    among random directions around them."""
    B = 2 ** 60
    tied = [(B + 1, B), (B, B - 1), (1, 1), (B - 1, B), (B, B + 1)]
    assert len({dx / dy for dx, dy in tied}) == 1
    assert len({Q(dx, dy) for dx, dy in tied}) == len(tied)
    rng = random.Random(53)
    dirs = tied + [(rng.randint(1, 1 << 62), rng.randint(1, 1 << 62))
                   for _ in range(200)]
    dirs += [(3 * k, 7 * k + 1) for k in (1, 2, 1 << 50)]
    want = sorted(dirs, key=lambda d: Q(*d))
    for order in itertools.permutations(tied):
        got = sorted(list(order) + dirs[len(tied):],
                     key=exactdist._direction_order)
        assert got == want


# Degenerate inputs.

def test_both_trivial():
    t = TwoParamModule.from_rects([])
    res = matching_distance(t, t)
    assert res.value == 0
    assert res.witness_line is None and res.witness_detail is None
    assert res.candidate_count == 0
    with pytest.raises(BothTrivial):
        candidate_lines(t, t)
    with pytest.raises(BothTrivial):
        vertical_cost(t, t, 1)


def test_equal_modules_distance_zero():
    M, _ = ex_diag_not_suff()
    res = matching_distance(M, M)
    assert res.value == 0
    assert res.witness_line is not None
    assert res.witness_detail.cost == 0
    assert res.candidate_count > 0


def test_equal_modules_shortcut_on_sides(monkeypatch):
    """A rectangle module against itself with its rectangles permuted is
    decided equal without a line search, and its distance is 0.  Against
    its own presentation form it is another form, so the line search runs
    and still finds 0; so it does against a module that differs in one
    essential rectangle alone."""
    M = TwoParamModule.from_rects([
        rect(1, 2, INF, INF), rect(0, 0, 7, 7), rect(0, 4, INF, 11),
        rect(3, 0, INF, INF), rect(2, 1, 5, 9), rect(0, 0, 7, 7)])
    # the essential and the finite rectangles both change order
    permuted = TwoParamModule.from_rects(M.rectangles[::-1])
    select = exactdist._Select

    def no_search(values):
        raise AssertionError("line search on equal modules")

    monkeypatch.setattr(exactdist, "_Select", no_search)
    assert matching_distance(M, permuted).value == 0
    searched = []

    def counted(values):
        searched.append(values)
        return select(values)

    monkeypatch.setattr(exactdist, "_Select", counted)
    assert matching_distance(M, combined_presentation(M)).value == 0
    assert len(searched) == 1
    # the same finite rectangles, one essential rectangle moved
    rects = list(M.rectangles)
    rects[3] = rect(3, 1, INF, INF)
    moved = TwoParamModule.from_rects(rects)
    assert matching_distance(M, moved).value > 0
    assert len(searched) == 2


def test_square_vs_trivial():
    sq = TwoParamModule.from_rects([rect(0, 0, 4, 4)])
    t = TwoParamModule.from_rects([])
    res = matching_distance(sq, t)
    assert res.value == 2
    assert res.witness_line == normalize_line((1, 1), (0, 0))
    assert matching_distance(t, sq).value == 2


def test_essential_mismatch_is_infinite():
    M = TwoParamModule.from_rects([rect(0, 0, INF, INF)])
    N = TwoParamModule.from_rects([rect(0, 0, 4, INF)])
    res = matching_distance(M, N)
    assert res.value == INF
    assert res.witness_detail.cost == INF
    # the exact map values no line of such a pair
    one = np.ones(1, dtype=np.int64)
    with pytest.raises(ValueError):
        _fastpath.exact_evaluator(M, N, 1)(one, one, 0 * one)
    # every candidate is a witness; the engine reports the lex-smallest
    assert res.witness_line == candidate_lines(M, N).lines[0]


# Engine vs. materialized candidate loop.

def test_matches_candidate_loop():
    rng = random.Random(314)
    for _ in range(6):
        pool = rand_pool(rng, rng.choice([4, 5]))
        M = rand_rect_module(rng, max_rects=2, pool=pool, p_inf=0.2)
        N = rand_rect_module(rng, max_rects=2, pool=pool, p_inf=0.2)
        res = matching_distance(M, N)
        bv, bl, bc = brute(M, N)
        assert res.value == bv
        assert res.witness_line == bl
        assert res.candidate_count == bc


def test_presentation_form_agrees():
    rng = random.Random(271)
    for _ in range(2):
        pool = rand_pool(rng, 4)
        Mr = rand_rect_module(rng, max_rects=2, pool=pool, p_inf=0.2)
        Nr = rand_rect_module(rng, max_rects=2, pool=pool, p_inf=0.2)
        ref = matching_distance(Mr, Nr)
        res = matching_distance(combined_presentation(Mr),
                                combined_presentation(Nr))
        assert res.value == ref.value
        assert res.witness_line == ref.witness_line
        assert res.candidate_count == ref.candidate_count


def test_entangled_presentation_form_agrees():
    """Entangled presentations of rectangle pairs (entangled_presentation:
    one generator rewritten as a sum of two), which keep a _Pres on both
    sides, give the rectangle form's value, witness line, witness matching
    and count."""
    rng = random.Random(272)
    pairs = [ex_need_omega(), ex_diag_not_suff()]
    while len(pairs) < 6:
        pool = rand_pool(rng, 4)
        pair = tuple(rand_rect_module(rng, max_rects=3, pool=pool, p_inf=0.2)
                     for _ in "MN")
        sides = _fastpath._sides(*map(entangled_presentation, pair), float)
        if all(pres is not None for _, _, pres in sides):
            pairs.append(pair)
    for Mr, Nr in pairs:
        M, N = entangled_presentation(Mr), entangled_presentation(Nr)
        assert all(pres is not None for _, _, pres in
                   _fastpath._sides(M, N, float))
        ref = matching_distance(Mr, Nr)
        res = matching_distance(M, N)
        assert (res.value, res.witness_line, res.candidate_count) == \
            (ref.value, ref.witness_line, ref.candidate_count)
        assert res.witness_detail == ref.witness_detail


def test_dominates_arbitrary_lines():
    rng = random.Random(7)
    cases = [ex_diag_not_suff(), ex_need_omega()]
    pool = rand_pool(rng, 4)
    cases.append((rand_rect_module(rng, max_rects=2, pool=pool, p_inf=0),
                  rand_rect_module(rng, max_rects=2, pool=pool, p_inf=0)))
    for M, N in cases:
        res = matching_distance(M, N)
        for _ in range(10):
            assert exactdist._exact_cost(M, N, rand_line(rng)) <= res.value


def test_realizer_values_are_pushes_of_closure_points():
    """The witness matching's realizing parameters are pushes of points of
    the lub-closed critical value sets onto the witness line."""
    rng = random.Random(23)
    cases = [ex_diag_not_suff(), ex_need_omega(), ex_need_diag()]
    pool = rand_pool(rng, 4)
    cases.append((rand_rect_module(rng, max_rects=2, pool=pool, p_inf=0),
                  rand_rect_module(rng, max_rects=2, pool=pool, p_inf=0)))
    for M, N in cases:
        res = matching_distance(M, N)
        if res.witness_detail.realizer is None:
            continue
        line = res.witness_line
        vals = {push_param(line, p)
                for p in lub_closure(critical_values(M))
                | lub_closure(critical_values(N))}
        s, t, delta = res.witness_detail.realizer
        assert s in vals and t in vals
        assert weight(line) * abs(s - t) / delta == res.value


def test_extra_switch_points_do_not_change_value():
    rng = random.Random(99)
    M, N = ex_need_diag()
    base = matching_distance(M, N)
    extra = SwitchPointSet(
        frozenset(rand_point(rng) for _ in range(3)),
        frozenset(ProjPoint.of(0, rng.randint(1, 9), rng.randint(1, 9))
                  for _ in range(2)))
    res = matching_distance(M, N, extra)
    assert res.value == base.value
    assert res.candidate_count >= base.candidate_count


def test_metric_and_equivariance_spot_checks():
    rng = random.Random(41)
    pool = rand_pool(rng, 4)
    M = rand_rect_module(rng, max_rects=2, pool=pool, p_inf=0)
    N = rand_rect_module(rng, max_rects=2, pool=pool, p_inf=0)
    P = rand_rect_module(rng, max_rects=2, pool=pool, p_inf=0)
    dmn = matching_distance(M, N).value
    dnp = matching_distance(N, P).value
    dmp = matching_distance(M, P).value
    assert matching_distance(N, M).value == dmn
    assert dmp <= dmn + dnp
    t = (Q(3, 2), Q(-1, 2))
    assert matching_distance(translate(M, t), translate(N, t)).value == dmn
    for f in (Q(1, 2), Q(3)):
        assert matching_distance(scale(M, f), scale(N, f)).value == f * dmn


# Vertical and horizontal limits.

def test_vertical_cost_golden():
    M = TwoParamModule.from_rects([rect(2, 2, 7, INF)])
    N = TwoParamModule.from_rects([rect(2, 2, 10, INF)])
    assert vertical_cost(M, N, 8) == 1
    assert vertical_cost(M, N, 8, anchor_height=50) == 1
    assert horizontal_cost(swap_axes(M), swap_axes(N), 8) == 1


def test_vertical_cost_zero_and_errors():
    M, N = ex_need_diag()
    assert vertical_cost(M, N, 5) == 0
    # near-horizontal lines still see the death gap: sending both bars to
    # the diagonal costs (5/slope - 7)/2, weighted by the slope, limit 5/2
    assert horizontal_cost(M, N, 5) == Q(5, 2)
    with pytest.raises(ValueError):
        vertical_cost(M, N, 8, anchor_height=2)


def test_vertical_cost_infinite_on_essential_mismatch():
    M = TwoParamModule.from_rects([rect(0, 0, INF, INF)])
    N = TwoParamModule.from_rects([rect(0, 0, 4, 4)])
    assert vertical_cost(M, N, 6) == INF


def test_vertical_cost_below_distance():
    M, N = ex_diag_not_suff()
    d = matching_distance(M, N).value
    for x0 in (Q(5), Q(8), Q(100)):
        assert vertical_cost(M, N, x0) <= d
        assert horizontal_cost(M, N, x0) <= d


def _axis_pairs():
    """The worked examples, twelve random pairs of up to three rectangles,
    a worked example scaled by 100003, and the presentation form of the
    second random pair."""
    pairs = [ex_diag_not_suff(), ex_need_omega(), ex_need_diag()]
    rng = random.Random(21)
    for _ in range(12):
        pool = rand_pool(rng, rng.choice([4, 5]))
        pairs.append((rand_rect_module(rng, 3, pool, 0.2),
                      rand_rect_module(rng, 3, pool, 0.2)))
    M, N = ex_diag_not_suff()
    pairs.append((scale(M, 100003), scale(N, 100003)))
    M, N = pairs[4]
    pairs.append((combined_presentation(M), combined_presentation(N)))
    return pairs


# vertical_cost | horizontal_cost of each _axis_pairs pair at _AXIS_X0
_AXIS_X0 = (Q(5), Q(8), Q(100), Q(-3), Q(7, 2))
_AXIS_LIMITS = """
    0 0 0 0 0 | 0 0 0 0 0
    0 0 0 0 0 | 0 0 0 0 0
    0 0 0 0 0 | 5/2 1 0 3 3
    1/4 0 0 1/4 1/4 | 3/2 3/2 0 3/2 3/2
    0 0 0 0 0 | 7/4 1/4 0 7/4 7/4
    0 0 0 0 0 | 13/8 13/8 0 13/8 13/8
    0 0 0 0 0 | 3 3/2 0 3 3
    3 3/2 0 5 15/4 | 0 0 0 0 0
    0 0 0 0 0 | 0 0 0 0 0
    1/4 1/4 0 1/4 1/4 | 9/8 1/4 0 9/8 9/8
    0 0 0 0 0 | 0 0 0 0 0
    0 0 0 0 0 | 0 0 0 0 0
    0 0 0 0 0 | 1/2 0 0 3 5/4
    inf inf inf inf inf | inf inf inf inf inf
    0 0 0 0 0 | 0 0 0 5/4 0
    0 0 0 0 0 | 0 0 0 0 0
    0 0 0 0 0 | 7/4 1/4 0 7/4 7/4
"""


def test_axis_limits_pinned():
    """Exact vertical and horizontal limits on 17 pairs at 5 positions each,
    as the rational point pipeline gave them."""
    rows = _AXIS_LIMITS.split("\n")[1:-1]
    pairs = _axis_pairs()
    assert len(rows) == len(pairs)
    for (M, N), row in zip(pairs, rows):
        want = [INF if v == "inf" else Q(v) for v in row.split() if v != "|"]
        got = [vertical_cost(M, N, x0) for x0 in _AXIS_X0]
        got += [horizontal_cost(M, N, y0) for y0 in _AXIS_X0]
        assert got == want
    M, N = pairs[7]
    assert vertical_cost(M, N, Q(7, 2), anchor_height=Q(101, 2)) == Q(15, 4)


# Internal evaluation paths agree with each other.

def _diagram(rng, finite, essential):
    bars = [Bar(b, b + Q(rng.randint(1, 16), rng.randint(1, 4)))
            for b in (rand_rat(rng) for _ in range(finite))]
    bars += [Bar(rand_rat(rng), INF) for _ in range(essential)]
    return tuple(sorted(bars, key=lambda x: (x.birth, x.death)))


def test_diagram_cost_matches_bottleneck():
    """bottleneck() equals the brute force where that is small enough, on
    random diagrams, at 5-6 finite bars on a side and with an empty side.  On
    diagrams without essential bars, threshold_matching on single-line
    object arrays of rationals equals bottleneck() too."""
    rng = random.Random(5)
    cases = [(rand_diagram(rng), rand_diagram(rng)) for _ in range(200)]
    for _ in range(30):
        e = rng.randint(0, 2)
        wide = _diagram(rng, rng.choice([5, 6]), e)
        cases += [(wide, rand_diagram(rng)), (rand_diagram(rng), wide),
                  (wide, _diagram(rng, rng.randint(3, 6), e)),
                  (wide, ()), ((), _diagram(rng, rng.randint(1, 4), e)),
                  (_diagram(rng, 0, e), _diagram(rng, rng.randint(0, 3), e))]
    cases.append(((), ()))

    def line(v):
        return np.array([v], dtype=object)

    for d1, d2 in cases:
        want = bottleneck(d1, d2)[0]
        if len(d1) + len(d2) <= 8:
            assert bottleneck_bruteforce(d1, d2) == want
        if d1 + d2 and INF not in {b.death for b in d1 + d2}:
            pc = [[line(max(abs(a.birth - b.birth), abs(a.death - b.death)))
                   for b in d2] for a in d1]
            got = threshold_matching(
                pc, [line((a.death - a.birth) / 2) for a in d1],
                [line((b.death - b.birth) / 2) for b in d2])
            assert got.shape == (1,)
            assert type(got[0]) is type(want)
            assert got[0] == want


def test_key_buffer_matches_np_unique(monkeypatch):
    """The key buffer's union of keys written in slots of 1 to 5 keys
    equals np.unique of all of them, in int64 and in Python ints: with 4
    slots at first, it compacts, merges with its distinct prefix and grows
    as the keys come, deduplicating in blocks of 3 keys, so that runs of
    equal keys straddle block edges; a union of one key or none is
    returned too."""
    monkeypatch.setattr(exactdist, "_BAND_PAIRS", 3)
    rng = np.random.default_rng(12)
    cases = [[], [7], [5, 5, 5, 5], [-3, 8, -3, -(1 << 62), 0, 8],
             list(range(-4, 9)), list(range(9, -4, -1)),
             rng.integers(-50, 50, 1000), rng.integers(-9, 9, 100)]
    for case, dtype in itertools.product(cases, (np.int64, object)):
        a = np.asarray(case, dtype=np.int64)
        keys = exactdist._Keys(4, np.dtype(dtype))
        s = 0
        while s < a.size:
            m = min(a.size - s, int(rng.integers(1, 6)))
            keys.slot(m)[...] = a[s:s + m]
            s += m
        got = keys.union()
        assert got.dtype == dtype and got.flags.owndata
        assert got.tolist() == np.unique(a).tolist()


def test_cheapest_matching_matches_patterns():
    """The row-by-row minimum equals the minimum over every matching
    pattern exactly, for floats and for int64 numerators."""
    rng = np.random.default_rng(13)
    assert cheapest_matching([], [], []) is None
    sizes = range(6)
    for r1, r2, dtype in itertools.product(sizes, sizes,
                                           (np.float64, np.int64)):
        if r1 == r2 == 0:
            continue
        draw = [(rng.random(64) * 9).astype(dtype)
                for _ in range(r1 + r2 + r1 * r2)]
        h1, h2 = draw[:r1], draw[r1:r1 + r2]
        pc = [draw[r1 + r2 + i * r2:r1 + r2 + (i + 1) * r2]
              for i in range(r1)]
        want = np.minimum.reduce([
            np.maximum.reduce([pc[i][j] for i, j in pairs]
                              + [h1[i] for i in un1] + [h2[j] for j in un2])
            for pairs, un1, un2 in match_patterns(r1, r2)])
        got = cheapest_matching(pc, h1, h2)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_threshold_matching_matches_cheapest_matching():
    """The search branch equals the dynamic program bit for bit, in dtype
    and shape, on floats, int64 and Python ints in object arrays, at 0 to
    8 bars a side.  Coarse draws give zero-length bars and tied costs."""
    rng = np.random.default_rng(15)
    assert threshold_matching([], [], []) is None
    sizes = range(9)
    for r1, r2, dtype in itertools.product(sizes, sizes,
                                           (np.float64, np.int64, object)):
        if r1 == r2 == 0:
            continue
        # a gridscan block is 2-d, a chunk of keys 1-d
        shape = (4, 12) if (r1 + r2) % 2 else (48,)
        draw = [rng.integers(0, 7, shape) for _ in range(r1 + r2 + r1 * r2)]
        if dtype == np.float64:
            draw = [d / 3 for d in draw]
        else:
            draw = [d.astype(dtype) for d in draw]
        h1, h2 = draw[:r1], draw[r1:r1 + r2]
        pc = [draw[r1 + r2 + i * r2:r1 + r2 + (i + 1) * r2]
              for i in range(r1)]
        want = cheapest_matching(pc, h1, h2)
        got = threshold_matching(pc, h1, h2)
        assert got.dtype == want.dtype and got.shape == want.shape
        if dtype == object:
            assert got.tolist() == want.tolist()
            assert {type(v) for v in got.ravel()} == {int}
        else:
            assert got.tobytes() == want.tobytes()


def test_essential_network_matches_permutations():
    """The sorted matching of essential births costs exactly the minimum
    over every permutation, for floats and for int64 numerators."""
    rng = np.random.default_rng(14)
    assert _fastpath._essential_cost([], []) is None
    for e, dtype in itertools.product(range(1, 6), (np.float64, np.int64)):
        # coarse draws give ties within and across the sides
        draw = [(rng.random(256) * 9).round(rng.integers(0, 3)).astype(dtype)
                for _ in range(2 * e)]
        a, b = draw[:e], draw[e:]
        want = np.minimum.reduce([
            np.maximum.reduce([np.abs(a[i] - b[p[i]]) for i in range(e)])
            for p in itertools.permutations(range(e))])
        got = _fastpath._essential_cost(a, b)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_lattice_matches_rational_scaling():
    """The integer pipeline reproduces the points, directions and scaling
    of the rational one, with and without extra switch points."""
    rng = random.Random(8)
    pool = rand_pool(rng, 5)
    cases = [ex_diag_not_suff(), ex_need_omega(), ex_need_diag(),
             (rand_rect_module(rng, max_rects=3, pool=pool, p_inf=0.2),
              rand_rect_module(rng, max_rects=3, pool=pool, p_inf=0.2)),
             (TwoParamModule.from_rects([]),
              TwoParamModule.from_rects([rect(Q(1, 3), 0, 2, Q(5, 7))]))]
    extra = SwitchPointSet(frozenset({(Q(1, 7), Q(5, 3)), (2, 9)}),
                           frozenset({ProjPoint.of(0, 2, 9),
                                      ProjPoint.of(0, 1, 0)}))
    for M, N in cases:
        for ex in (None, extra):
            assert _lattice_lists(M, N, ex) == lattice_rational(M, N, ex)


def _lattice_lists(M, N, extra):
    """exactdist._lattice with its point arrays as lists of Python ints."""
    X, Y, dvals, lam = exactdist._lattice(M, N, extra)
    return X.tolist(), Y.tolist(), dvals, lam


_EXTRA = SwitchPointSet(
    frozenset({(Q(1, 7), Q(5, 3)), (2, 9), (Q(-3, 2), Q(13, 2))}),
    frozenset({ProjPoint.of(0, 2, 9), ProjPoint.of(0, 1, 0),
               ProjPoint.of(0, 5, 3)}))


def _rand_module(rng, pool, form):
    if form == "rect":
        return rand_rect_module(rng, max_rects=3, pool=pool, p_inf=0.2)
    return rand_presentation(rng, pool, rng.randint(0, 3), rng.randint(0, 2))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       forms=st.sampled_from([("rect", "rect"), ("pres", "pres"),
                              ("rect", "pres")]),
       lo=st.sampled_from([0, -12]), extra=st.booleans())
def test_lattice_matches_sets(seed, forms, lo, extra):
    """The lattice on integer codes gives the points, directions and lam
    of the set-of-tuples reference lattice_sets, on random pairs of
    rectangle modules and presentations over pools of values of either
    sign, with and without extra switch points; such small lattices give
    int64 arrays."""
    rng = random.Random(seed)
    pool = rand_pool(rng, rng.randint(2, 6), lo=lo)
    M, N = (_rand_module(rng, pool, form) for form in forms)
    ex = _EXTRA if extra else None
    X, Y, _, _ = exactdist._lattice(M, N, ex)
    assert X.dtype == Y.dtype == np.int64
    assert _lattice_lists(M, N, ex) == lattice_sets(M, N, ex)


def test_lattice_past_int64_matches_sets():
    """Codes past 2^62 give object arrays of Python ints, and the lattice
    still equals lattice_sets: on the float-coordinate pairs, whose
    denominators reach 2^55, and on _huge_pair() scaled by 10^9 or
    translated by (10^9, 10^9); _huge_pair() itself gives int64 arrays."""
    pairs = [(TwoParamModule.from_rects(rm), TwoParamModule.from_rects(rn))
             for rm, rn in _FLOAT_RECTS] + [_float_pair()]
    M0, N0 = _huge_pair()
    t = (10 ** 9, 10 ** 9)
    pairs += [(scale(M0, 10 ** 9), scale(N0, 10 ** 9)),
              (translate(M0, t), translate(N0, t))]
    for M, N in pairs:
        for ex in (None, _EXTRA):
            X, Y, _, _ = exactdist._lattice(M, N, ex)
            assert X.dtype == Y.dtype == object
            assert _lattice_lists(M, N, ex) == lattice_sets(M, N, ex)
    X, Y, _, _ = exactdist._lattice(M0, N0, None)
    assert X.dtype == Y.dtype == np.int64


def test_lattice_reaches_five_times_the_largest_coordinate():
    """The catalogue reaches +-5c on each axis, c the largest |coordinate|
    of the scaled critical and extra points, at the edge of the codes'
    offset off = 5c: the critical values of the square [-1, 1)^2 have the
    difference 2 on each axis from two pairs, so shifts of +-4 apply to
    the crossed corners at +-1.  The lattice equals lattice_sets there,
    also with an extra point beyond the catalogue's reach, which sets
    c."""
    sq = TwoParamModule.from_rects([rect(-1, -1, 1, 1)])
    cases = [(TwoParamModule.from_rects([]), None, 5),
             (TwoParamModule.from_rects([rect(0, -1, 1, 1)]), None, 5),
             (TwoParamModule.from_rects([rect(Q(-1, 3), 0, 1, Q(1, 2))]),
              None, 5),
             (sq, SwitchPointSet(frozenset({(7, -7), (-7, 7)}),
                                 frozenset()), 7)]
    for N, ex, reach in cases:
        X, Y, dvals, lam = _lattice_lists(sq, N, ex)
        for v in (X, Y):
            assert {-5 * lam, 5 * lam} <= set(v)
            assert (min(v), max(v)) == (-reach * lam, reach * lam)
        assert (X, Y, dvals, lam) == lattice_sets(sq, N, ex)


def test_codes_at_the_int64_bound():
    """_scaled decodes the codes into int64 arrays while S^2 <= 2^62, so
    that every code in [0, S^2) is below 2^62, and into object arrays
    past it; the corners of the code range decode exactly on both
    sides."""
    for off, dtype in ((2 ** 30 - 1, np.int64), (2 ** 30, object)):
        S = 2 * off + 1
        pts = [(-off, -off), (-off, off), (off, -off), (off, off), (0, 6)]
        codes = {(x + off) * S + y + off for x, y in pts}
        X, Y, dirs, lam = exactdist._scaled(codes, {(1, 1)}, 1, off, S)
        assert X.dtype == Y.dtype == dtype
        assert list(zip(X.tolist(), Y.tolist())) == sorted(pts)
        assert (dirs, lam) == ([(1, 1)], 1)


def _scaled_keys(M, N):
    X, Y, dvals, lam = exactdist._lattice(M, N, None)
    return distinct_keys(X, Y, dvals), lam


def test_integer_path_matches_exact_cost():
    rng = random.Random(11)
    pool = rand_pool(rng, 4)
    pairs = [(rand_rect_module(rng, max_rects=2, pool=pool, p_inf=0),
              rand_rect_module(rng, max_rects=2, pool=pool, p_inf=0)),
             (TwoParamModule.from_rects([rect(0, 0, 3, 5),
                                         rect(1, 1, INF, INF)]),
              TwoParamModule.from_rects([rect(0, 1, 4, 4),
                                         rect(2, 0, INF, INF)]))]
    for M, N in pairs:
        assert _fastpath.vector_ready(M, N)
        keys, lam = _scaled_keys(M, N)
        keys = rng.sample(keys, min(500, len(keys)))
        dxv = np.array([k[0] for k in keys], dtype=np.int64)
        dyv = np.array([k[1] for k in keys], dtype=np.int64)
        kv = np.array([k[2] for k in keys], dtype=np.int64)
        res = _fastpath.exact_reduced_values(M, N, dxv, dyv, kv, lam)
        assert res[0].dtype == res[1].dtype == np.int64
        for p, q, key in zip(res[0].tolist(), res[1].tolist(), keys):
            line = exactdist._line_from_key(*key, lam)
            assert Q(p, q) == exactdist._exact_cost(M, N, line)


def test_tiny_blocks_stream_identically(monkeypatch):
    M, N = ex_need_omega()
    base = matching_distance(M, N)
    monkeypatch.setattr(exactdist, "_BLOCK", 64)
    res = matching_distance(M, N)
    assert (res.value, res.witness_line, res.candidate_count) == \
        (base.value, base.witness_line, base.candidate_count)


def test_unpackable_coordinates_fall_back():
    """Coordinates large enough to overflow the int64 key packing (but not
    the int64 key triples) pack into Python ints; scaling maps the result
    exactly onto the small instance's."""
    M0, N0 = ex_diag_not_suff()
    f = 100003
    M, N = scale(M0, f), scale(N0, f)
    X, Y, dvals, lam = exactdist._lattice(M, N, None)
    spec = exactdist._pack_spec(X, Y, dvals)
    assert spec.key_dtype == np.int64 and spec.dtype == object
    res = matching_distance(M, N)
    small = matching_distance(M0, N0)
    assert res.value == f * small.value
    assert res.witness_line.m == small.witness_line.m
    assert res.witness_line.b == (f * small.witness_line.b[0],
                                  f * small.witness_line.b[1])
    assert res.candidate_count == small.candidate_count


def _huge_pair():
    return (TwoParamModule.from_rects([rect(0, 0, 4, 7)]),
            TwoParamModule.from_rects([rect(1, 2, 5, 6)]))


def test_huge_coordinates_use_exact_keys():
    M0, N0 = _huge_pair()
    f = 10 ** 9
    M, N = scale(M0, f), scale(N0, f)
    X, Y, dvals, lam = exactdist._lattice(M, N, None)
    assert exactdist._pack_spec(X, Y, dvals).key_dtype == object
    res = matching_distance(M, N)
    small = matching_distance(M0, N0)
    assert res.value == f * small.value
    assert res.witness_line.m == small.witness_line.m
    assert res.candidate_count == small.candidate_count


def test_translated_coordinates_keep_int64_keys():
    """Translated by (10^9, 10^9), _huge_pair() has large coordinates over
    small ranges, so its unpacked keys, packed keys and coordinate
    differences all stay int64; it gives the untranslated value, count and
    witness direction, and the witness offset moves by the translation."""
    M0, N0 = _huge_pair()
    t = (10 ** 9, 10 ** 9)
    M, N = translate(M0, t), translate(N0, t)
    X, Y, dvals, _ = exactdist._lattice(M, N, None)
    spec = exactdist._pack_spec(X, Y, dvals)
    assert spec.dtype == spec.key_dtype == spec.diff_dtype == np.int64
    res = matching_distance(M, N)
    small = matching_distance(M0, N0)
    assert (res.value, res.candidate_count) == \
        (small.value, small.candidate_count)
    (m1, m2), (b1, _) = small.witness_line.m, small.witness_line.b
    assert res.witness_line.m == (m1, m2)
    b1 += t[0] - m1 * (t[0] + t[1]) / (m1 + m2)
    assert res.witness_line.b == (b1, -b1)


def _grid(xs, ys):
    """X and Y of the sorted points of the grid xs x ys."""
    pts = sorted({(x, y) for x in xs for y in ys})
    return [x for x, _ in pts], [y for _, y in pts]


_O, _I64, _I32 = np.dtype(object), np.dtype(np.int64), np.dtype(np.int32)
# X, Y, the key bound kb, and the types (packed keys, unpacked keys,
# differences)
# at each edge of _pack_spec's bounds, on the direction (1, 1): the pair
# stage's differences reach 2*|coordinate|, |k| reaches kb - 1, and the
# packing's top is 8*kb + 3, whose nearest values to 2^62 are 2^62 - 5 and
# 2^62 + 3.  A lone point has no key, but its coordinate bounds the
# unpacked keys.
_A30, _A62, _B61, _B58 = 2 ** 30, 2 ** 62, 2 ** 61, 2 ** 58
_EDGES = {
    "coordinate 2^30 - 1": (_grid((1 - _A30, _A30 - 1), (0, 1)),
                            3 * _A30 - 2, (_O, _I64, _I32)),
    "coordinate 2^30": (_grid((-_A30, _A30), (0, 1)),
                        3 * _A30 + 1, (_O, _I64, _I64)),
    "coordinate 2^62 - 1": (_grid((1 - _A62, _A62 - 1), (0, 1)),
                            3 * _A62 - 2, (_O, _O, _I64)),
    "coordinate 2^62": (_grid((-_A62, _A62), (0, 1)),
                        3 * _A62 + 1, (_O, _O, _O)),
    "kb 2^62 - 1": (_grid((_B61 - 2, _B61 - 1), (1 - _B61, 2 - _B61)),
                    _A62 - 1, (_O, _I64, _I64)),
    "kb 2^62": (_grid((_B61 - 1, _B61), (1 - _B61, 2 - _B61)),
                _A62, (_O, _O, _I64)),
    "top 2^62 - 5": (_grid((_B58 - 2, _B58 - 1), (1 - _B58, 2 - _B58)),
                     2 ** 59 - 1, (_I64, _I64, _I64)),
    "top 2^62 + 3": (_grid((_B58 - 1, _B58), (1 - _B58, 2 - _B58)),
                     2 ** 59, (_O, _I64, _I64)),
    "lone point 2^63": (([2 ** 63], [1]), 1, (_O, _O, _O)),
}


@pytest.mark.parametrize("edge", list(_EDGES))
def test_stream_types_at_their_bounds(edge):
    """At each edge of _pack_spec's bounds, just below and just above it,
    each integer type is the one its bound gives, and the stream's sorted
    distinct keys equal a plain loop over the pairs in Python ints; a type
    wider than its bound allows overflows or fails the type check."""
    (X, Y), kb, types = _EDGES[edge]
    dvals = [] if len(X) == 1 else [(1, 1)]
    spec = exactdist._pack_spec(X, Y, dvals)
    assert spec.kb == kb
    assert (spec.dtype, spec.key_dtype, spec.diff_dtype) == types
    got = distinct_keys(X, Y, dvals)
    assert got == distinct_keys_pairloop(X, Y, dvals)


def test_lex_min_past_exact_doubles():
    """Directions whose entries pass 2^53 do not convert to doubles
    exactly, and the doubles of (2^53+1)/(2^53+3) and (2^53+2)/(2^53+5)
    converted entry by entry order them wrongly; such keys stay Python
    ints, so the lex-min is the lesser ratio.  Just below, (2^53-1)/(2^53-2)
    and (2^53-2)/(2^53-3) round to one double and stay int64."""
    B = 2 ** 53
    for dvals, want, dtype in (([(B + 1, B + 3), (B + 2, B + 5)],
                                (B + 2, B + 5, 0), object),
                               ([(B - 2, B - 3), (B - 1, B - 2)],
                                (B - 1, B - 2, 0), np.int64)):
        assert Q(*want[:2]) == min(Q(*d) for d in dvals)
        spec, union = exactdist._stream([0], [0], dvals)
        assert spec.key_dtype == dtype
        assert exactdist._first_key(spec, union) == want


# Rectangle pairs with 5-6 finite or 4-5 essential rectangles on a side.

def _finite_rect(rng, pool, p_inf):
    while True:
        r = rand_rect(rng, pool, p_inf)
        if r.upper[0] != INF or r.upper[1] != INF:
            return r


def _shaped(rng, pool, finite, essential, p_inf=0.0):
    rs = [_finite_rect(rng, pool, p_inf) for _ in range(finite)]
    rs += [rect(rng.choice(pool), rng.choice(pool), INF, INF)
           for _ in range(essential)]
    return TwoParamModule.from_rects(rs)


# (pool size, finite rectangles of M and of N, essential ones per side,
# p_inf); pools of 2-3 integers keep the candidate sets at 217 or 1849 lines.
# The 7v7 and 8v8 shapes are past the kernel's dynamic-programming width,
# _fastpath.MAX_FINITE, and take its threshold search
_WIDE_SHAPES = [(3, 5, 5, 0, 0.2), (2, 5, 5, 0, 0.5), (2, 1, 1, 4, 0.0),
                (3, 1, 1, 5, 0.2), (3, 1, 6, 0, 0.2), (2, 6, 1, 0, 0.5),
                (2, 6, 6, 0, 0.5), (3, 6, 6, 0, 0.2), (3, 7, 7, 0, 0.2),
                (2, 8, 8, 1, 0.5), (3, 8, 8, 0, 0.0)]


def _wide_pairs():
    rng = random.Random(61)
    for size, f1, f2, e, p_inf in _WIDE_SHAPES:
        pool = list(range(size))
        yield (_shaped(rng, pool, f1, e, p_inf),
               _shaped(rng, pool, f2, e, p_inf))


def test_wide_rectangle_pairs_match_per_line_selection(monkeypatch):
    """One exact pass, with both modules converted into integers once per
    pair, gives the value, witness line and count of the per-line exact
    selection over every distinct key, at and past the dynamic-programming
    width; the grid scan stays below the exact value."""
    calls = []
    exact = _fastpath.exact_evaluator

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(_fastpath, "exact_evaluator", counted)
    for M, N in _wide_pairs():
        n = len(calls)
        res = matching_distance(M, N)
        assert len(calls) == n + 1
        X, Y, dvals, lam = exactdist._lattice(M, N, None)
        keys = distinct_keys(X, Y, dvals)
        ref = select_exact(M, N, keys, lam, len(keys))
        _assert_as_oracle(res, ref)
        assert scan(M, N, GridSpec(25, 25)).max_value <= \
            float(res.value) + 1e-9


def test_matching_distance_restricts_no_module(monkeypatch):
    """matching_distance restricts no module in rationals: with
    restrict_module, push_param and pull_param made to raise, it gives
    these pinned values, counts and witness lines, on a rectangle pair with
    essential bars and one without, the 7v7 pair past the kernel's
    dynamic-programming width, a presentation pair, both shortcuts
    (unequal essential counts, equal modules) and a pair scaled by 10^9
    past the int64 certificate.  Its witness matching is that of the
    rational restrictions to its line."""
    M = TwoParamModule.from_rects([rect(0, 0, INF, INF), rect(1, 1, 3, 2)])
    N = TwoParamModule.from_rects([rect(0, 1, 2, 3)])
    cases = [(list(_wide_pairs())[2], 1, 217, (Q(1, 6), Q(-3, 7))),
             (ex_diag_not_suff(), Q(28, 11), 5529, (Q(7, 11), Q(0))),
             (_past_cap_pair(), Q(3, 2), 1849, (Q(1, 2), Q(1))),
             (_small_pres_pair(), 3, 4799, (Q(1, 18), Q(-9, 19))),
             ((M, N), INF, 8499, (Q(1, 27), Q(3, 14))),
             ((N, N), 0, 217, (Q(1, 9), Q(3, 10))),
             (tuple(scale(m, 10 ** 9) for m in _huge_pair()), 2 * 10 ** 9,
              54414, (Q(1), Q(0)))]

    def never(*args):
        raise AssertionError("restricted in rationals")

    for (A, B), value, count, (m1, b1) in cases:
        with monkeypatch.context() as mp:
            for module in (exactdist, fibered):
                mp.setattr(module, "restrict_module", never)
            for module in (geometry, fibered):
                mp.setattr(module, "push_param", never)
                mp.setattr(module, "pull_param", never)
            res = matching_distance(A, B)
        line = res.witness_line
        assert (res.value, res.candidate_count) == (value, count)
        assert line == Line((m1, Q(1)), (b1, -b1))
        assert res.witness_detail == bottleneck(
            restrict_module(A, line), restrict_module(B, line))[1]


def test_wide_rectangle_pairs_integer_values():
    rng = random.Random(62)
    for M, N in _wide_pairs():
        X, Y, dvals, lam = exactdist._lattice(M, N, None)
        keys = distinct_keys(X, Y, dvals)
        keys = rng.sample(keys, min(60, len(keys)))
        dxv, dyv, kv = (np.array(col, dtype=np.int64) for col in zip(*keys))
        res = _fastpath.exact_reduced_values(M, N, dxv, dyv, kv, lam)
        assert res[0].dtype == res[1].dtype == np.int64
        for p, q, key in zip(res[0].tolist(), res[1].tolist(), keys):
            line = exactdist._line_from_key(*key, lam)
            assert Q(p, q) == exactdist._exact_cost(M, N, line)


# Presentations whose columns are not single rectangles: several generators
# per column, columns that reduce to zero, tied and repeated grades, and
# essential generators, at ranks 0 to 7.

# (pool, rank of M, rank of N, essential generators per side); pools of 2-3
# values keep the candidate sets at 217 or 1849 lines.  Rank 7 on both
# sides is past the kernel's dynamic-programming width
_PRES_SHAPES = [((0, 1, 2), 0, 0, 3), ((0, 1, 2), 1, 2, 1),
                ((0, 1, 2), 2, 2, 2), ((0, Q(1, 2), 1), 3, 3, 1),
                ((0, Q(3, 2), 3), 4, 3, 0), ((0, 1), 5, 5, 1),
                ((0, 1, 2), 6, 6, 0), ((0, 1, 2), 6, 4, 2),
                ((0, 1, 2), 7, 7, 1)]


def _pres_pairs():
    rng = random.Random(71)
    for pool, rm, rn, e in _PRES_SHAPES:
        pool = [Q(v) for v in pool]
        yield (rand_presentation(rng, pool, rm, e),
               rand_presentation(rng, pool, rn, e))
    # one rectangle module against a presentation
    pool = [Q(v) for v in (0, 1, 2)]
    yield (_shaped(rng, pool, 3, 1, 0.2), rand_presentation(rng, pool, 2, 1))


def test_presentation_templates_match_restriction():
    """The bars the int64 kernel reads off its barcode templates are the
    bars of restrict_presentation on every line, zero-length ones aside."""
    rng = random.Random(70)
    for rank in range(7):
        pool = rand_pool(rng, 5, dmax=2)
        lam = 2
        pres = rand_presentation(rng, pool, rank, rng.randint(0, 2))
        gens, rels = pres.presentation.generators, pres.presentation.relations
        idx = {name: i for i, (name, _) in enumerate(gens)}
        # the whole presentation, unsplit
        side = _fastpath._Pres([g for _, g in gens],
                               [(g, {idx[n] for n in col})
                                for _, g, col in rels],
                               lambda v: int(v * lam))
        dxv = np.array([rng.randint(1, 9) for _ in range(400)])
        dyv = np.array([rng.randint(1, 9) for _ in range(400)])
        kv = np.array([rng.randint(-60, 60) * lam for _ in range(400)])
        s = dxv + dyv
        births, deaths, ess = side.bars(lambda l1, l2: np.maximum(
            (s * l1 - kv) * dyv, (s * l2 + kv) * dxv))
        for t in range(len(kv)):
            dx, dy, k = int(dxv[t]), int(dyv[t]), int(kv[t])
            line = exactdist._line_from_key(dx, dy, k, lam)
            # push parameters are the numerators over this denominator
            den = Q(lam * (dx + dy) * dx * dy, max(dx, dy))
            got = sorted([(Q(int(b[t])) / den, Q(int(d[t])) / den)
                          for b, d in zip(births, deaths) if d[t] > b[t]]
                         + [(Q(int(e[t])) / den, INF) for e in ess])
            want = [(b.birth, b.death)
                    for b in restrict_presentation(pres.presentation, line)]
            assert got == want


@pytest.mark.parametrize("f", [1, 10 ** 9], ids=["int64", "bigint"])
def test_key_diagrams_match_restriction(f):
    """key_diagram gives restrict_module's diagram, tuple for tuple, on
    random keys: on rectangle modules with finite and infinite uppers,
    essential rectangles among them, whose bars die on some keys, and on
    presentations with essential generators whose pairs have zero length
    on some keys; with small coordinates, and scaled by 10^9, on object
    unpacked keys.  Half the keys pass through a lattice point."""
    rng = random.Random(78)
    seen = set()
    for t in range(40):
        pool = rand_pool(rng, 4)
        if t % 2:
            module = rand_rect_module(rng, max_rects=4, pool=pool, p_inf=0.4)
        else:
            module = rand_presentation(rng, pool, rng.randint(0, 4),
                                       rng.randint(0, 2))
        if module.is_trivial:
            continue
        module = scale(module, f)
        finite, essential = bar_counts(module)
        X, Y, _, lam = exactdist._lattice(module, module, None)
        side = _fastpath.exact_evaluator(module, module, lam).sides[0]
        for _ in range(30):
            dx, dy = rng.randint(1, 9), rng.randint(1, 9)
            g = gcd(dx, dy)
            dx, dy = dx // g, dy // g
            if rng.random() < 0.5:
                i = rng.randrange(len(X))
                k = dy * X[i] - dx * Y[i]
            else:
                k = rng.randint(dy * min(X) - dx * max(Y),
                                dy * max(X) - dx * min(Y))
            want = restrict_module(module,
                                   exactdist._line_from_key(dx, dy, k, lam))
            assert _fastpath.key_diagram(side, dx, dy, k, lam) == want
            kind = "rect" if module.rectangles is not None else "pres"
            if sum(1 for b in want if b.death != INF) < finite:
                seen.add((kind, "dropped"))
            if essential:
                seen.add((kind, "essential"))
    assert seen == {(kind, what) for kind in ("rect", "pres")
                    for what in ("dropped", "essential")}


def test_kernel_witness_mismatch_raises(monkeypatch):
    """A selection whose exact maximum disagrees with the witness
    matching's weighted cost raises, and returns no value: _Select.finish
    made to report p/q + 1/q fails the check."""
    finish = exactdist._Select.finish

    def off(self):
        key, (p, q) = finish(self)
        return key, (p + 1, q)

    monkeypatch.setattr(exactdist._Select, "finish", off)
    with pytest.raises(ArithmeticError):
        matching_distance(*ex_need_omega())


def test_presentation_pairs_match_per_line_selection(monkeypatch):
    """Presentations take one exact pass, with both modules converted into
    integers once per pair, which gives the value, witness line and count
    of the per-line exact selection over every distinct key, at and past
    the dynamic-programming width; the grid scan stays below the exact
    value."""
    calls = []
    exact = _fastpath.exact_evaluator

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(_fastpath, "exact_evaluator", counted)
    for M, N in _pres_pairs():
        n = len(calls)
        res = matching_distance(M, N)
        assert len(calls) == n + 1
        X, Y, dvals, lam = exactdist._lattice(M, N, None)
        keys = distinct_keys(X, Y, dvals)
        ref = select_exact(M, N, keys, lam, len(keys))
        _assert_as_oracle(res, ref)
        assert scan(M, N, GridSpec(25, 25)).max_value <= \
            float(res.value) + 1e-9


def test_presentation_pairs_vector_values():
    """Integer values equal the per-line exact cost on sampled keys, and
    float values lie within rounding of it."""
    rng = random.Random(72)
    for M, N in _pres_pairs():
        X, Y, dvals, lam = exactdist._lattice(M, N, None)
        keys = distinct_keys(X, Y, dvals)
        keys = rng.sample(keys, min(150, len(keys)))
        dxv, dyv, kv = (np.array(col, dtype=np.int64) for col in zip(*keys))
        res = _fastpath.exact_reduced_values(M, N, dxv, dyv, kv, lam)
        assert res[0].dtype == res[1].dtype == np.int64
        fv = _fastpath.eval_keys(M, N, dxv, dyv, kv, lam)
        for p, q, f, key in zip(res[0].tolist(), res[1].tolist(),
                                fv.tolist(), keys):
            want = exactdist._exact_cost(M, N,
                                         exactdist._line_from_key(*key, lam))
            assert Q(p, q) == want
            assert abs(f - float(want)) <= 1e-9 * max(1.0, float(want))


# Presentations split into the components of their generator-relation
# graph: rectangle-shaped components take the rectangle path, the others
# stay in one _Pres.

# (rectangle-shaped components, entangled ones, essential generators) of
# rand_split_presentation
_SPLIT_SHAPES = [(2, 0, 0), (3, 0, 1), (1, 1, 0), (2, 1, 1), (0, 2, 0),
                 (3, 0, 0), (2, 2, 0), (3, 1, 2)]


def _split_pairs():
    """Pairs of rand_split_presentation modules of each shape, the second
    redrawn until the essential counts agree, and two against a rectangle
    module; a pool of 3 values keeps the candidate sets small."""
    rng = random.Random(74)
    pool = [Q(v) for v in (0, 1, 2)]
    for shape in _SPLIT_SHAPES:
        M = rand_split_presentation(rng, pool, *shape)
        for _ in range(100):
            N = rand_split_presentation(rng, pool, *shape)
            if bar_counts(N)[1] == bar_counts(M)[1]:
                break
        yield M, N
    yield (rand_split_presentation(rng, pool, 2, 1, 0),
           _shaped(rng, pool, 3, 0, 0.2))
    yield (_shaped(rng, pool, 2, 1, 0.2),
           rand_split_presentation(rng, pool, 1, 0, 1))


def _unsplit(pres):
    """_fastpath._split's result for the presentation kept whole: no
    rectangle, and all generators and relations in one _Pres."""
    idx = {name: i for i, (name, _) in enumerate(pres.generators)}
    return [], ([g for _, g in pres.generators],
                [(g, {idx[n] for n in col}) for _, g, col in pres.relations])


def test_split_presentations_match_per_line_selection():
    """Presentations that mix rectangle-shaped components with entangled
    ones, empty relation columns, relations at their generator's grade,
    several relations per axis and generators without relations give the
    value, witness line, witness matching and count of the per-line exact
    selection, which restricts each whole presentation in rationals."""
    seen = set()
    for M, N in _split_pairs():
        res = matching_distance(M, N)
        X, Y, dvals, lam = exactdist._lattice(M, N, None)
        keys = distinct_keys(X, Y, dvals)
        _assert_as_oracle(res, select_exact(M, N, keys, lam, len(keys)))
        for (ess, fin, pres), module in zip(
                _fastpath.exact_evaluator(M, N, lam).sides, (M, N)):
            if module.presentation is not None:
                seen.add(("rects", bool(fin or ess)))
                seen.add(("pres", pres is not None))
        seen.add(("bound", exactdist._Select(
            _fastpath.exact_evaluator(M, N, lam)).by_run))
    assert seen == {(kind, flag) for kind in ("rects", "pres", "bound")
                    for flag in (False, True)}


def test_split_sides_match_unsplit_sides(monkeypatch):
    """The split sides give the results of the whole presentations, each
    kept in one _Pres: line_evaluator's float costs bit for bit on random
    lines, and on sampled keys exact_evaluator's fractions, numerator for
    numerator, and each module's key_diagram, bar for bar.  A
    rectangle-shaped component's death is the push of its least relation,
    max(push(g), the crossing of the relation's other coordinate), in
    floats too."""
    rng = random.Random(75)
    lines = []
    for _ in range(400):
        theta, o = rng.uniform(0.01, 1.56), rng.uniform(-4, 4)
        mx = max(math.cos(theta), math.sin(theta))
        lines.append((math.cos(theta) / mx, math.sin(theta) / mx,
                      -o / 2, o / 2))
    lines = [np.array(c) for c in zip(*lines)]
    for M, N in _split_pairs():
        X, Y, dvals, lam = exactdist._lattice(M, N, None)
        keys = distinct_keys(X, Y, dvals)
        keys = rng.sample(keys, min(300, len(keys)))
        cols = [np.array(c, dtype=np.int64) for c in zip(*keys)]

        def results():
            out = [_fastpath.line_evaluator(M, N)(*lines).tobytes()]
            values = _fastpath.exact_evaluator(M, N, lam)
            if bar_counts(M)[1] == bar_counts(N)[1]:
                out += [a.tobytes() for a in values(*cols)]
            return out + [_fastpath.key_diagram(side, *key, lam)
                          for side in values.sides for key in keys]

        got = results()
        with monkeypatch.context() as m:
            m.setattr(_fastpath, "_split", _unsplit)
            want = results()
        assert got == want


@pytest.mark.parametrize("pres, message", [
    (Presentation((("a", (0, 0)),), (("r", (1, 0), frozenset({"zz"})),)),
     "unknown generator 'zz'"),
    (Presentation((("a", (1, 1)),), (("r", (2, 0), frozenset({"a"})),)),
     "is below generator 'a'"),
    (Presentation((("a", (0, 0)), ("a", (1, 1))),
                  (("r", (2, 2), frozenset({"a"})),)),
     "duplicate generator name 'a'"),
], ids=["unknown-name", "below-generator", "duplicate-name"])
def test_malformed_presentation_raises(pres, message):
    """matching_distance and scan raise InvalidPresentation on a malformed
    presentation, on either side, before any part of it is converted:
    an unknown generator name in a relation column, a relation below its
    generator, a duplicate generator name."""
    M = TwoParamModule.from_presentation(pres)
    N = TwoParamModule.from_rects([rect(0, 0, 2, 2)])
    for pair in ((M, N), (N, M)):
        with pytest.raises(fibered.InvalidPresentation, match=message):
            matching_distance(*pair)
        with pytest.raises(fibered.InvalidPresentation, match=message):
            scan(*pair, GridSpec(4, 4))


@pytest.mark.parametrize("hook", ["setprofile", "settrace", "cProfile"])
def test_stream_runs_under_a_profiler(hook, monkeypatch):
    """matching_distance and candidate_lines run under a profiling or
    tracing hook, whose bound-method call holds one more reference to the
    key buffer, with _BLOCK small enough that the buffer grows and shrinks
    many times: the results are those of a run without the hook."""
    monkeypatch.setattr(exactdist, "_BLOCK", 64)
    M, N = ex_need_omega()
    want = matching_distance(M, N), candidate_lines(M, N)

    def both():
        return matching_distance(M, N), candidate_lines(M, N)

    if hook == "cProfile":
        got = cProfile.Profile().runcall(both)
    else:
        install = getattr(sys, hook)
        install(lambda *args: None)
        try:
            got = both()
        finally:
            install(None)
    assert got == want
    assert len(want[1].lines) > 4 * 64


def _small_pres_pair():
    pool = [Q(v) for v in (0, 1, 3)]
    rng = random.Random(73)
    return (rand_presentation(rng, pool, 2, 1),
            rand_presentation(rng, pool, 3, 1))


def test_unpackable_presentation_coordinates_fall_back():
    """Presentations past the int64 key packing pack their keys into Python
    ints, and scale exactly onto the small pair."""
    M0, N0 = _small_pres_pair()
    f = 100003
    M, N = scale(M0, f), scale(N0, f)
    X, Y, dvals, lam = exactdist._lattice(M, N, None)
    spec = exactdist._pack_spec(X, Y, dvals)
    assert spec.key_dtype == np.int64 and spec.dtype == object
    res = matching_distance(M, N)
    small = matching_distance(M0, N0)
    assert res.value == f * small.value > 0
    assert res.witness_line.m == small.witness_line.m
    assert res.witness_line.b == (f * small.witness_line.b[0],
                                  f * small.witness_line.b[1])
    assert res.candidate_count == small.candidate_count


def test_huge_presentation_coordinates_use_exact_keys():
    M0, N0 = _small_pres_pair()
    f = 10 ** 9
    M, N = scale(M0, f), scale(N0, f)
    X, Y, dvals, lam = exactdist._lattice(M, N, None)
    assert exactdist._pack_spec(X, Y, dvals).key_dtype == object
    res = matching_distance(M, N)
    small = matching_distance(M0, N0)
    assert res.value == f * small.value > 0
    assert res.witness_line.m == small.witness_line.m
    assert res.candidate_count == small.candidate_count


# One packed key stream in every regime: int64 packed keys, Python-int
# packed keys over int64 unpacked keys, and Python-int unpacked keys.

def test_distinct_keys_match_pair_loop(monkeypatch):
    """The streamed keys, packed, deduplicated and merged into the key
    buffer's distinct keys across many compactions, equal a plain loop
    over point pairs in python ints, in all three key regimes; on a lattice
    of 8 points and 7 directions too, whose direction blocks, of 16 lines
    with _BAND_PAIRS = 16, hold two directions each and the last one, and
    on one of 14 points cut into pair bands of at most 20 pairs."""
    monkeypatch.setattr(exactdist, "_BLOCK", 64)
    rng = random.Random(29)
    pool = rand_pool(rng, 3)
    rnd = (rand_rect_module(rng, max_rects=2, pool=pool, p_inf=0.2),
           rand_rect_module(rng, max_rects=2, pool=pool, p_inf=0.2))
    cases = [(ex_need_omega(), 1, "int64"), (rnd, 1, "int64"),
             (ex_diag_not_suff(), 100003, "object"),
             (_small_pres_pair(), 100003, "object"),
             (ex_need_omega(), 10 ** 9, "bigint"),
             (rnd, 10 ** 9, "bigint")]
    for (M, N), f, path in cases:
        M, N = scale(M, f), scale(N, f)
        assert _key_path(M, N, None) == path
        X, Y, dvals, _ = exactdist._lattice(M, N, None)
        got = distinct_keys(X, Y, dvals)
        assert len(got) > 4 * exactdist._BLOCK
        assert got == distinct_keys_pairloop(X, Y, dvals)
        assert {type(v) for key in got for v in key} == {int}
    pts = [(0, 0), (1, 3), (2, 1), (3, 4), (4, 2), (5, 5), (6, 1), (7, 6)]
    dirs = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
    for f, path in ((1, "int64"), (100003, "object"), (10 ** 9, "bigint")):
        X, Y = [f * x for x, _ in pts], [f * y for _, y in pts]
        spec = exactdist._pack_spec(X, Y, dirs)
        assert _spec_path(spec) == path
        with monkeypatch.context() as mp:
            mp.setattr(exactdist, "_BAND_PAIRS", 16)
            blocks = list(exactdist._iter_blocks(X, Y, dirs, spec))
        assert [m for m, _ in blocks[-4:]] == [16, 16, 16, 8]
        got = distinct_keys(X, Y, dirs)
        assert got == distinct_keys_pairloop(X, Y, dirs)
        assert {type(v) for key in got for v in key} == {int}
    # row bands of at most 20 pairs, on a lattice whose equal-X groups
    # straddle band edges and whose bands mix groups
    bands = []
    pair_keys = exactdist._pair_keys

    def recorded(Xd, Yd, a, b, c):
        bands.append((a, b, c))
        return pair_keys(Xd, Yd, a, b, c)

    monkeypatch.setattr(exactdist, "_BAND_PAIRS", 20)
    monkeypatch.setattr(exactdist, "_pair_keys", recorded)
    pts = sorted([(0, 0), (0, 2), (0, 5), (1, 1), (1, 4), (2, 0), (2, 3),
                  (2, 6), (2, 7), (3, 2), (4, 1), (4, 5), (4, 8), (4, 9)])
    for f, path in ((1, "int64"), (100003, "object"), (10 ** 9, "bigint")):
        X, Y = [f * x for x, _ in pts], [f * y for _, y in pts]
        assert _spec_path(exactdist._pack_spec(X, Y, dirs)) == path
        bands.clear()
        got = distinct_keys(X, Y, dirs)
        assert got == distinct_keys_pairloop(X, Y, dirs)
        assert {type(v) for key in got for v in key} == {int}
        assert all(X[c - 1] == X[a] < X[c] for a, _, c in bands)
        assert any(X[b - 1] == X[b] for _, b, _ in bands)
        assert any(X[a] < X[b - 1] for a, b, _ in bands)



# The pair stage's gcd table: gcd(lo, r) after one Euclid step, np.gcd
# past the table's side.

def _gcd_grid(side):
    ints = np.arange(side, dtype=np.int16)
    return np.gcd.outer(ints, ints)


_GCD_512 = _gcd_grid(512)


@st.composite
def _gcd_pair(draw, top):
    """A positive pair (dx, dy) up to top, in either order.  Its smaller
    entry lo is often at the table's edge (1, 511, 512, 513), and its
    larger one hi often lo itself, lo + 1, a multiple q*lo (r = 0), or
    q*lo - 1 or q*lo + lo - 1 with q*lo near top, whose quotients hi/lo
    lie just below an integer, where a quotient rounded up or to nearest
    misreads the floor.  Or both share a common divisor g as large as top
    allows, which the reduction divides out."""
    lo = draw(st.sampled_from([1, 511, 512, 513]) | st.integers(1, top))
    q = draw(st.integers(max(1, top // lo - 2), top // lo)
             | st.integers(1, top // lo))
    hi = draw(st.sampled_from([h for h in (lo, lo + 1, q * lo, q * lo - 1,
                                           q * lo + lo - 1)
                               if lo <= h <= top])
              | st.integers(lo, top))
    g = draw(st.just(1) | st.just(top // hi) | st.integers(1, top // hi))
    return (g * lo, g * hi) if draw(st.booleans()) else (g * hi, g * lo)


@pytest.mark.parametrize("dtype, top", [(np.int32, (1 << 31) - 2),
                                        (np.int64, (1 << 62) - 1)])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_table_gcd_equals_np_gcd(dtype, top, data):
    """The table gcd equals np.gcd in its dtype, and _pair_keys' reduced
    directions equal the pairs divided by their gcds in python ints, on
    pairs up to the largest difference of the dtype's coordinates whose
    quotients are aimed at a misread floor; neither writes its inputs."""
    pairs = data.draw(st.lists(_gcd_pair(top), min_size=1, max_size=40))
    dx = np.array([p[0] for p in pairs], dtype=dtype)
    dy = np.array([p[1] for p in pairs], dtype=dtype)
    before = dx.copy(), dy.copy()
    got = exactdist._table_gcd(_GCD_512, dx, dy)
    assert got.dtype == dtype
    assert np.array_equal(got, np.gcd(dx, dy))
    assert np.array_equal(dx, before[0]) and np.array_equal(dy, before[1])
    Xd, Yd = (np.concatenate([np.zeros(1, dtype), v]) for v in (dx, dy))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactdist, "_gcd_table", _GCD_512)
        dxv, dyv, rows = exactdist._pair_keys(Xd, Yd, 0, 1, 1)
    assert dxv.dtype == dyv.dtype == dtype and rows.tolist() == [len(pairs)]
    assert list(zip(dxv.tolist(), dyv.tolist())) == [
        (a // gcd(a, b), b // gcd(a, b)) for a, b in pairs]


def _stream_table8(monkeypatch, X, Y, dirs):
    """The streamed keys of (X, Y, dirs) with the table's side cut to 8,
    and the dtypes of the differences that took the table."""
    calls = []
    table_gcd = exactdist._table_gcd

    def recorded(table, dx, dy):
        calls.append(dx.dtype)
        return table_gcd(table, dx, dy)

    monkeypatch.setattr(exactdist, "_GCD_SIDE", 8)
    monkeypatch.setattr(exactdist, "_gcd_table", None)
    monkeypatch.setattr(exactdist, "_table_gcd", recorded)
    got = distinct_keys(X, Y, dirs)
    assert np.array_equal(exactdist._gcd_table, _gcd_grid(8))
    return got, set(calls)


def _lo_hi(pts):
    """The (smaller, larger) differences of every positive-slope pair of
    pts."""
    return {tuple(sorted((q[0] - p[0], q[1] - p[1])))
            for p, q in itertools.combinations(sorted(pts), 2)
            if q[0] > p[0] and q[1] > p[1]}


@pytest.mark.parametrize("shift, path, diff_dtype", [
    (0, "int64", np.int32), (1 << 50, "object", np.int64),
    (1 << 61, "bigint", np.int64)])
def test_table_gcd_stream_matches_pair_loop(monkeypatch, shift, path,
                                            diff_dtype):
    """With the table's side cut to 8, a lattice of 40 points builds it,
    and its bands mix table cells and np.gcd: the streamed keys equal the
    plain pair loop in every key regime, the translated ones on int64
    differences."""
    rng = random.Random(31)
    pts = sorted({(rng.randrange(40), rng.randrange(40)) for _ in range(40)})
    los = [lo for lo, _ in _lo_hi(pts)]
    assert min(los) < 8 <= max(los)
    X, Y = [x + shift for x, _ in pts], [y + shift for _, y in pts]
    dirs = [(1, 1), (2, 3), (9, 4)]
    spec = exactdist._pack_spec(X, Y, dirs)
    assert _spec_path(spec) == path and spec.diff_dtype == diff_dtype
    got, calls = _stream_table8(monkeypatch, X, Y, dirs)
    assert calls == {np.dtype(diff_dtype)}
    assert got == distinct_keys_pairloop(X, Y, dirs)
    assert {type(v) for key in got for v in key} == {int}


def test_table_gcd_stream_at_int32_edge(monkeypatch):
    """On 40 points whose coordinates span (-2^30, 2^30), the differences
    stay int32 and reach past 2^30, so the table's double quotients hi/lo
    run near 2^31; with the table's side cut to 8 the bands mix table
    cells and np.gcd, and the streamed keys equal the plain pair loop."""
    rng = random.Random(41)
    w = (1 << 30) - 64
    pts = sorted({(rng.randrange(40) + w * rng.randrange(-1, 2),
                   rng.randrange(40) + w * rng.randrange(-1, 2))
                  for _ in range(40)})
    pairs = _lo_hi(pts)
    assert min(pairs)[0] < 8 <= max(pairs)[0]
    assert any(lo < 8 and hi > 1 << 30 for lo, hi in pairs)
    X, Y = [x for x, _ in pts], [y for _, y in pts]
    assert max(map(abs, X + Y)) < 1 << 30
    dirs = [(1, 1), (2, 3)]
    spec = exactdist._pack_spec(X, Y, dirs)
    assert spec.diff_dtype == np.int32
    got, calls = _stream_table8(monkeypatch, X, Y, dirs)
    assert calls == {np.dtype(np.int32)}
    assert got == distinct_keys_pairloop(X, Y, dirs)


def test_gcd_table_built_once_from_725_points(monkeypatch):
    """The worked example never builds the table; a lattice of 724 points,
    261,726 pairs, does not either, and one of 725 points, 262,450 pairs,
    builds it once, equal to np.gcd's, and streams the pair loop's keys."""
    monkeypatch.setattr(exactdist, "_gcd_table", None)
    matching_distance(*ex_need_omega())
    assert exactdist._gcd_table is None
    rng = random.Random(37)
    X = sorted(rng.randrange(4000) for _ in range(725))
    Y = [rng.randrange(4000) for _ in range(725)]
    distinct_keys(X[:724], Y[:724], [])
    assert exactdist._gcd_table is None
    got = distinct_keys(X, Y, [(1, 1)])
    table = exactdist._gcd_table
    assert table.dtype == np.int16 and np.array_equal(table, _GCD_512)
    assert got == distinct_keys_pairloop(X, Y, [(1, 1)])
    distinct_keys(X, Y, [])
    assert exactdist._gcd_table is table

def test_scaled_pairs_match_per_line_selection():
    """On object packed keys, over int64 unpacked keys and over object
    unpacked keys, the streamed selection gives the value, witness line and
    count of the per-line exact selection over every distinct key: on
    scaled pairs, on float-coordinate pairs, whose unpacked keys are Python
    ints, and on pairs of int64 keys past the int64 certificate, with and
    without essential bars."""
    cases = [((scale(M0, f), scale(N0, f)), path)
             for M0, N0 in (ex_diag_not_suff(), _small_pres_pair())
             for f, path in ((100003, "object"), (10 ** 9, "bigint"))]
    cases += [((TwoParamModule.from_rects(rm), TwoParamModule.from_rects(rn)),
               "bigint") for rm, rn in _FLOAT_RECTS]
    # int64 keys whose kernel numerators may pass 2^62: valued in Python ints
    for M, N in _past_certificate_pairs():
        X, Y, dvals, lam = exactdist._lattice(M, N, None)
        spec, union = exactdist._stream(X, Y, dvals)
        values = _fastpath.exact_evaluator(M, N, lam)
        p, q = values(*exactdist._unpack(spec, union))
        assert p.dtype == q.dtype == object
        cases.append(((M, N), "object"))
    for (M, N), path in cases:
        assert _key_path(M, N, None) == path
        res = matching_distance(M, N)
        X, Y, dvals, lam = exactdist._lattice(M, N, None)
        keys = distinct_keys(X, Y, dvals)
        ref = select_exact(M, N, keys, lam, len(keys))
        assert res.value > 0
        _assert_as_oracle(res, ref)


def _past_certificate_pairs():
    """Two pairs of int64 keys past the kernel's int64 certificate: the
    second has infinite uppers and essential bars, and 3,027 lines."""
    a, b, c = (Q(k, 100003) for k in (10001, 70005, 30007))
    for rm, rn in (([rect(a, a, b, b)], [rect(a, a, c, b)]),
                   ([rect(a, a, b, INF), rect(a, c, INF, INF)],
                    [rect(a, a, c, INF), rect(c, a, INF, INF)])):
        yield TwoParamModule.from_rects(rm), TwoParamModule.from_rects(rn)


def test_exact_evaluator_is_exact_past_its_certificate():
    """Given int64 keys whose kernel numerators may pass 2^62, the map
    values them exactly: every distinct key of the two pairs past the
    certificate gets the per-line exact cost, where int64 arithmetic
    overflows on some of them."""
    for M, N in _past_certificate_pairs():
        X, Y, dvals, lam = exactdist._lattice(M, N, None)
        keys = distinct_keys(X, Y, dvals)
        dxv, dyv, kv = (np.array(col, dtype=np.int64) for col in zip(*keys))
        p, q = _fastpath.exact_evaluator(M, N, lam)(dxv, dyv, kv)
        for pt, qt, key in zip(p.tolist(), q.tolist(), keys):
            line = exactdist._line_from_key(*key, lam)
            assert Q(pt, qt) == exactdist._exact_cost(M, N, line)


def test_one_selection_mixes_int64_and_object_chunks(monkeypatch):
    """The kernel picks int64 or Python ints per chunk, from that chunk's
    keys: with 64-key chunks, one selection over the pair past the
    certificate with infinite uppers runs chunks of both arithmetics, and
    gives the value, witness line and count of the per-line oracle."""
    M, N = list(_past_certificate_pairs())[1]
    monkeypatch.setattr(_fastpath, "CHUNK", 64)
    dtypes = []
    chunk = _fastpath._chunk

    def recorded(sm, sn, ar):
        dtypes.append(ar.dxv.dtype)
        return chunk(sm, sn, ar)

    monkeypatch.setattr(_fastpath, "_chunk", recorded)
    res = matching_distance(M, N)
    assert set(dtypes) == {np.dtype(np.int64), np.dtype(object)}
    X, Y, dvals, lam = exactdist._lattice(M, N, None)
    keys = distinct_keys(X, Y, dvals)
    ref = select_exact(M, N, keys, lam, len(keys))
    _assert_as_oracle(res, ref)


# Rectangle pairs given as Python floats: rat keeps their exact binary
# values, so the lattice scaling is 2^55 or more and the unpacked keys are
# Python ints.  These are small enough for the per-line oracle.
_FLOAT_RECTS = [([rect(0.1, 0.1, 0.7, 0.7)], [rect(0.1, 0.1, 0.3, 0.7)]),
                ([rect(0.1, 0.1, 0.7, 0.7)], [rect(0.3, 0.3, 0.7, 0.7)]),
                ([rect(0.1, 0.1, 0.7, INF), rect(0.1, 0.3, INF, INF)],
                 [rect(0.1, 0.1, 0.3, INF), rect(0.3, 0.1, INF, INF)])]


def _float_pair():
    """A float-coordinate pair of 414,687 lines, drawn from random.Random(5)
    as rounded uniform(0, 10) values."""
    return (TwoParamModule.from_rects([rect(6.229, 7.952, 7.418, 9.425)]),
            TwoParamModule.from_rects([rect(7.399, 0.29, 9.223, 4.656)]))


def test_float_pair_reduces_few_lines(monkeypatch):
    """Past the int64 certificate too, lines are kept by the exact pass's
    band alone: of the float pair's 414,687 lines, whose values spread over
    some 128k distinct fractions, at most 10,000 reach _exact_top.  A
    selection that kept them all, as a float screen whose margin exceeds
    every value does, fails at its first call instead of running on."""
    M, N = _float_pair()
    assert _key_path(M, N, None) == "bigint"
    sizes = []
    top = exactdist._exact_top

    def capped(ps, qs):
        sizes.append(len(ps))
        assert len(ps) <= 10000
        return top(ps, qs)

    monkeypatch.setattr(exactdist, "_exact_top", capped)
    res = matching_distance(M, N)
    assert res.candidate_count == 414687
    assert sizes and res.value > 0


def test_object_kernel_matches_exact_cost():
    """Past the int64 certificate, exact_reduced_values computes in Python
    ints in object arrays, and its reduced fractions equal the per-line
    exact cost, for a rectangle pair and a presentation pair; the distance
    still scales exactly onto the small pair's."""
    rng = random.Random(75)
    f = 10 ** 15
    for M0, N0 in (ex_need_omega(), _small_pres_pair()):
        M, N = scale(M0, f), scale(N0, f)
        X, Y, dvals, lam = exactdist._lattice(M, N, None)
        keys = rng.sample(distinct_keys(X, Y, dvals), 150)
        dxv, dyv, kv = (np.array(col, dtype=object) for col in zip(*keys))
        ps, qs = _fastpath.exact_reduced_values(M, N, dxv, dyv, kv, lam)
        assert ps.dtype == qs.dtype == object
        for p, q, key in zip(ps.tolist(), qs.tolist(), keys):
            line = exactdist._line_from_key(*key, lam)
            assert gcd(p, q) == 1
            assert Q(p, q) == exactdist._exact_cost(M, N, line)
        res, small = matching_distance(M, N), matching_distance(M0, N0)
        assert res.value == f * small.value > 0
        assert res.witness_line.m == small.witness_line.m
        assert res.candidate_count == small.candidate_count


# _Select reads the distinct packed keys in slices of _fastpath.CHUNK
# (_chunks); _first_key reads them whole.

def _chunk_sizes(monkeypatch, size):
    """Patch _fastpath.CHUNK to size; the returned list collects the number
    of packed keys in each slice that _chunks yields."""
    monkeypatch.setattr(_fastpath, "CHUNK", size)
    sizes = []
    chunks = exactdist._chunks

    def counted(union):
        for packed in chunks(union):
            sizes.append(len(packed))
            yield packed

    monkeypatch.setattr(exactdist, "_chunks", counted)
    return sizes


def test_tiny_chunks_match_per_line_selection(monkeypatch):
    """With 64-key chunks, the selection gives the value, witness line and
    count of the per-line exact selection over every distinct key, on
    rectangle and presentation pairs of 217 and 1849 lines."""
    sizes = _chunk_sizes(monkeypatch, 64)
    pairs = list(itertools.islice(_wide_pairs(), 3))
    pairs += list(itertools.islice(_pres_pairs(), 1, 4))
    for M, N in pairs:
        assert _fastpath.vector_ready(M, N)
        n = len(sizes)
        res = matching_distance(M, N)
        X, Y, dvals, lam = exactdist._lattice(M, N, None)
        keys = distinct_keys(X, Y, dvals)
        assert len(sizes) - n >= len(keys) // 64
        ref = select_exact(M, N, keys, lam, len(keys))
        _assert_as_oracle(res, ref)
    assert max(sizes) <= 64


def _no_search_pairs():
    """Pairs that need no line search, with their values: unequal essential
    counts, equal rectangle modules and equal presentations."""
    M, _ = ex_diag_not_suff()
    P = combined_presentation(M)
    return [((TwoParamModule.from_rects([rect(0, 0, INF, INF),
                                         rect(1, 1, 3, 2)]),
              TwoParamModule.from_rects([rect(0, 1, 2, 3)])), INF),
            ((M, M), 0), ((P, P), 0)]


def test_tiny_chunks_keep_lex_min_witness(monkeypatch):
    """On pairs that need no line search, with 64-key chunks and more than
    two chunks' worth of keys, the value is +inf or 0, the witness is the
    lex-min of every distinct key and the count is theirs."""
    monkeypatch.setattr(_fastpath, "CHUNK", 64)
    for (M, N), value in _no_search_pairs():
        res = matching_distance(M, N)
        X, Y, dvals, lam = exactdist._lattice(M, N, None)
        keys = distinct_keys(X, Y, dvals)
        assert len(keys) // 64 > 1
        assert res.value == value
        best = min(keys, key=lambda t: lex_pair(*t, lam))
        assert res.witness_line == exactdist._line_from_key(*best, lam)
        assert res.candidate_count == len(keys)


@pytest.mark.parametrize("f, path", [(1, "int64"), (100003, "object"),
                                     (10 ** 9, "bigint")])
def test_first_key_matches_lex_pair_oracle(f, path, monkeypatch):
    """On pairs that need no line search, scaled into each key regime,
    _first_key takes one _lex_min call over the run heads of the whole
    union and gives the least key of distinct_keys in lex_pair's line
    order, as Python ints."""
    calls = []
    lex_min = exactdist._lex_min

    def counted(*cols):
        calls.append(len(cols[0]))
        return lex_min(*cols)

    monkeypatch.setattr(exactdist, "_lex_min", counted)
    for (M, N), _ in _no_search_pairs():
        M, N = scale(M, f), scale(N, f)
        assert _key_path(M, N, None) == path
        X, Y, dvals, lam = exactdist._lattice(M, N, None)
        spec, union = exactdist._stream(X, Y, dvals)
        heads = exactdist._run_heads(spec, union)
        del calls[:]
        key = exactdist._first_key(spec, union)
        assert calls == [len(heads)]
        keys = distinct_keys(X, Y, dvals)
        assert key == min(keys, key=lambda t: lex_pair(*t, lam))
        assert all(type(v) is int for v in key)


@pytest.mark.parametrize("f", [1, 100003, 10 ** 9])
def test_chunk_boundaries_inside_direction_runs(f, monkeypatch):
    """With CHUNK = 16 and 64, a chunk boundary cuts a direction run in
    two, the second part headed by a larger k, on int64 keys and on keys
    scaled by 100003 and 10^9.  Where it cuts the run of the witness,
    _Select, bounding per run, gives the value, witness line and count of
    the per-line oracle; and _first_key, which reads a suffix of the keys
    whole, gives the lex-min key over a suffix that a chunk boundary would
    have cut inside that key's run."""
    M, N = (scale(m, f) for m in list(_tied_pairs())[1])
    X, Y, dvals, lam = exactdist._lattice(M, N, None)
    spec, union = exactdist._stream(X, Y, dvals)
    keys = distinct_keys(X, Y, dvals)
    code = (union // spec.sk).tolist()
    ref = select_exact(M, N, keys, lam, len(keys))
    assert exactdist._Select(_fastpath.exact_evaluator(M, N, lam)).by_run
    wit = next(i for i, key in enumerate(keys)
               if exactdist._line_from_key(*key, lam) == ref.witness_line)
    best = min(range(len(keys)), key=lambda i: lex_pair(*keys[i], lam))
    run = [i for i, c in enumerate(code) if c == code[best]]
    assert run[0] == best < run[-1]
    for chunk in (16, 64):
        monkeypatch.setattr(_fastpath, "CHUNK", chunk)
        cut = [s for s in range(chunk, len(keys), chunk)
               if code[s - 1] == code[s] == code[wit]]
        assert cut
        res = matching_distance(M, N)
        _assert_as_oracle(res, ref)
        # a chunk of the suffix would end at the lex-min key, inside its run
        start = (best + 1) % chunk
        assert start <= best
        assert exactdist._first_key(spec, union[start:]) == keys[best]


def test_folds_build_no_rational(monkeypatch):
    """The folds compare the keys' integers and build no rational: with Q
    made to raise, 64-key chunks give matching_distance's witness key, by
    _first_key on a pair that needs no line search and by _Select on one
    that does."""
    M = TwoParamModule.from_rects([rect(0, 0, INF, INF), rect(1, 1, 3, 2)])
    N = TwoParamModule.from_rects([rect(0, 1, 2, 3)])
    wide = next(_wide_pairs())
    for (A, B), search in (((M, N), False), (wide, True)):
        want = matching_distance(A, B)
        X, Y, dvals, lam = exactdist._lattice(A, B, None)
        spec, union = exactdist._stream(X, Y, dvals)
        with monkeypatch.context() as mp:
            mp.setattr(_fastpath, "CHUNK", 64)
            mp.setattr(exactdist, "Q", None)
            if search:
                key, _ = exactdist._Select(_fastpath.exact_evaluator(
                    A, B, lam)).run(spec, union)
            else:
                key = exactdist._first_key(spec, union)
        assert exactdist._line_from_key(*key, lam) == want.witness_line


def _lex_min_of(keys, dtype):
    """One _lex_min call over keys, a list of key triples, each column as a
    dtype array."""
    return exactdist._lex_min(*(np.array(c, dtype=dtype) for c in zip(*keys)))


@pytest.mark.parametrize("dtype, a, b", [
    (np.int64, (2 ** 24 + 1, 2 ** 24), (2 ** 24, 2 ** 24 - 1)),
    (object, (2 ** 60 + 1, 2 ** 60), (2 ** 60, 2 ** 60 - 1)),
], ids=["near-tie", "equal-doubles"])
def test_lex_min_band_keeps_near_ties(dtype, a, b):
    """_lex_min keeps the exact lex-min against a direction whose ratio
    dx/dy is above it by a relative 2^-48, and against one whose double
    equals its own (object keys, past 2^53), in both orders, and out of
    key order."""
    assert Q(*a) < Q(*b)
    if dtype is object:
        assert float(a[0]) / float(a[1]) == float(b[0]) / float(b[1])
    for first, second in (((*a, 0), (*b, 0)), ((*b, 0), (*a, 0))):
        assert _lex_min_of([first, second], dtype) == (*a, 0)
    # directions interleaved, k descending
    assert _lex_min_of([(*a, 3), (*b, 2), (*a, 1), (*b, 0)], dtype) \
        == (*a, 1)


@pytest.mark.parametrize("dtype, top", [(np.int64, 2 ** 40),
                                        (object, 2 ** 70)],
                         ids=["int64", "object"])
def test_lex_min_matches_line_order(dtype, top):
    """_lex_min gives the least key in lex_pair's line order, on random
    primitive keys in random order; the directions include pairs whose
    doubles of dx/dy tie, (t+1)/t against (t+2)/(t+1) with t near top."""
    rng = random.Random(1729)
    ties = [(t + 1, t) for t in (top, top + 6)] + \
        [(t + 2, t + 1) for t in (top, top + 6)]
    assert float(ties[0][0]) / ties[0][1] == float(ties[2][0]) / ties[2][1]
    for trial in range(60):
        dirs = rng.sample(ties, rng.randint(1, 4))
        for _ in range(rng.randint(0, 4)):
            dx, dy = rng.randint(1, 50), rng.randint(1, 50)
            dirs.append((dx // gcd(dx, dy), dy // gcd(dx, dy)))
        keys = list({(dx, dy, rng.randint(-top, top))
                     for dx, dy in dirs for _ in range(rng.randint(1, 3))})
        rng.shuffle(keys)
        lam = rng.randint(1, 10)
        want = min(keys, key=lambda t: lex_pair(*t, lam))
        best = _lex_min_of(keys, dtype)
        assert best == want and all(type(v) is int for v in best)


def _band_top(ps, qs, chunk):
    """The selection fold's steps on fractions alone: _band over chunks of
    chunk entries, the kept ones banded again against the final maximum,
    reduced, and _exact_top; returns the sorted indices of the exact
    maximum's ties."""
    fmax, kept = -np.inf, []
    for s in range(0, len(ps), chunk):
        fmax, keep = exactdist._band(ps[s:s + chunk], qs[s:s + chunk], fmax)
        kept.append(np.nonzero(keep)[0] + s)
    idx = np.concatenate(kept)
    idx = idx[exactdist._band(ps[idx], qs[idx], fmax)[1]]
    top = exactdist._exact_top(*_fastpath.reduce_fractions(ps[idx], qs[idx]))
    return sorted(idx[top].tolist())


def test_band_keeps_exact_maximum_over_equal_doubles():
    """The certified band and the exact maximum, on int64 fractions whose
    doubles do not order them: equal doubles with unequal values, and a
    larger value with the smaller double.  Every case is taken in both
    orders and among lower fillers, in one chunk and in 64-entry chunks;
    the plateau case spreads unreduced exact ties over several chunks,
    with a smaller value of the same double among them.  A fold that kept
    only the float argmax, or only the entries at the largest double,
    fails."""
    B = 1 << 53
    c = 1 << 55
    cases = [
        ([(B + 1, B)], [(1, 1)]),
        ([(B - 4, B - 3)], [(B + 3, B + 5)]),
        ([(3 * k, 7 * k) for k in (1, 2, 5, 1 << 40)] * 40,
         [(3 * c - 1, 7 * c)]),
    ]
    assert float(B + 1) / float(B) == 1.0
    assert float(B - 4) / float(B - 3) < float(B + 3) / float(B + 5)
    assert float(3 * c - 1) / float(7 * c) == 3 / 7
    rng = random.Random(76)
    for wins, losers in cases:
        assert all(Q(*w) == Q(*wins[0]) > Q(*v) for w in wins for v in losers)
        fillers = [(rng.randint(1, 1 << 40), 1 << 42) for _ in range(150)]
        mixed = wins + losers + fillers
        rng.shuffle(mixed)
        for entries in (wins + losers, losers + wins, mixed):
            want = [t for t, e in enumerate(entries) if e in wins]
            ps, qs = (np.array(col, dtype=np.int64) for col in zip(*entries))
            for chunk in (64, len(entries)):
                assert _band_top(ps, qs, chunk) == want


def _counted_sides(monkeypatch):
    """Count _fastpath._sides calls: one per conversion of both modules."""
    calls = []
    sides = _fastpath._sides

    def counted(M, N, conv):
        calls.append(conv)
        return sides(M, N, conv)

    monkeypatch.setattr(_fastpath, "_sides", counted)
    return calls


def _converts_once(monkeypatch, M, N):
    """Value M, N at the default chunk size and at 64 with the float kernel
    stubbed out; each call must convert both modules once and give the
    unstubbed value and witness."""
    def never(*args):
        raise AssertionError("float kernel called")

    want = matching_distance(M, N)
    for chunk in (_fastpath.CHUNK, 64):
        monkeypatch.setattr(_fastpath, "eval_keys", never)
        monkeypatch.setattr(_fastpath, "line_evaluator", never)
        monkeypatch.setattr(_fastpath, "CHUNK", chunk)
        calls = _counted_sides(monkeypatch)
        res = matching_distance(M, N)
        monkeypatch.undo()
        assert res.candidate_count > 4 * 64
        assert (res.value, res.witness_line) == \
            (want.value, want.witness_line)
        assert len(calls) == 1


def test_certified_pair_converts_modules_once(monkeypatch):
    """A certified pair's lines are valued in one exact pass: both modules
    are converted once per call, not once per chunk, whatever the chunk
    size, and the float kernel never runs."""
    M, N = ex_need_omega()
    assert _key_path(M, N, None) == "int64"
    _converts_once(monkeypatch, M, N)


def test_uncertified_pair_converts_modules_per_call(monkeypatch):
    """On object unpacked keys, where the keys are Python ints, the lines
    are valued in the same one exact pass: both modules are converted once
    per call, whatever the chunk size, and the float kernel never runs."""
    f = 10 ** 9
    M, N = (scale(m, f) for m in _huge_pair())
    assert _key_path(M, N, None) == "bigint"
    _converts_once(monkeypatch, M, N)


def test_scaled_pairs_are_certified_by_their_keys(monkeypatch):
    """Where the packing's bounds fail, the int64 certificate bounds the
    keys themselves: the split-swap example scaled by 1000 (bound 2^72
    from the packing, 2^39 from the keys) and by 100003 (2^102 against
    2^46) takes the exact pass, one exact_evaluator call and no float
    evaluator, and gives f times the value, the mapped witness line and
    the same count."""
    small = matching_distance(*ex_diag_not_suff())
    calls = []
    exact = _fastpath.exact_evaluator

    def counted(*args):
        calls.append(args)
        return exact(*args)

    def never(*args):
        raise AssertionError("line_evaluator called")

    monkeypatch.setattr(_fastpath, "exact_evaluator", counted)
    monkeypatch.setattr(_fastpath, "line_evaluator", never)
    for f in (1000, 100003):
        M, N = (scale(m, f) for m in ex_diag_not_suff())
        assert _key_path(M, N, None) == "object"
        calls.clear()
        res = matching_distance(M, N)
        assert len(calls) == 1
        assert res.value == f * small.value
        assert res.witness_line.m == small.witness_line.m
        assert res.witness_line.b == (f * small.witness_line.b[0],
                                      f * small.witness_line.b[1])
        assert res.candidate_count == small.candidate_count


def test_pack_and_unpack_leave_inputs_unchanged():
    """Each block's write (_pack_pairs, _pack_dirs) packs into its out slice
    only and leaves its inputs unchanged, and _unpack computes on fresh
    arrays, in every key regime, from int32 differences too; they
    round-trip exactly to the pair loop's keys.  out is a slice inside a
    larger int64 or object array; an object slice holds Python ints, and
    int64 keys pack into one as they do into int64."""
    for f, path in ((1, "int64"), (100003, "object"), (10 ** 9, "bigint")):
        M, N = (scale(m, f) for m in ex_need_omega())
        assert _key_path(M, N, None) == path
        X, Y, dvals, _ = exactdist._lattice(M, N, None)
        spec = exactdist._pack_spec(X, Y, dvals)
        assert f > 1 or spec.diff_dtype == np.int32
        out_dtypes = [spec.dtype, *([np.dtype(object)]
                                    if spec.dtype == np.int64 else [])]
        for dtype in out_dtypes:
            parts = []
            for m, write in exactdist._iter_blocks(X, Y, dvals, spec):
                before = [a.copy() for a in write.args
                          if isinstance(a, np.ndarray)]
                buf = np.full(m + 5, 7, dtype=dtype)
                write(buf[3:3 + m])
                assert buf[:3].tolist() == [7] * 3
                assert buf[-2:].tolist() == [7] * 2
                after = [a for a in write.args if isinstance(a, np.ndarray)]
                for a, b in zip(after, before):
                    assert np.array_equal(a, b) and a.dtype == b.dtype
                parts.append(buf[3:3 + m])
            packed = np.concatenate(parts)
            if dtype == object:
                assert {type(v) for v in packed.tolist()} == {int}
            kept = packed.copy()
            out = exactdist._unpack(spec, packed)
            assert np.array_equal(packed, kept)
            if dtype == spec.dtype:
                assert all(o.dtype == spec.key_dtype for o in out)
            got = sorted(set(zip(*(o.tolist() for o in out))))
            assert got == distinct_keys_pairloop(X, Y, dvals)


# The stream's key buffer: blocks are packed into one buffer per call, which
# keeps its sorted distinct keys at its front and grows only when they fill
# it.

def _record_stream(monkeypatch):
    """Patch _Keys.slot and _Keys._compact to record, per call, each slot
    handed out as (start, end, distinct keys, capacity) and each compaction
    as (keys before, distinct keys after), all ints: a recorded view of the
    buffer would keep it from growing.  Each compaction must leave the
    sorted distinct keys of what the buffer held."""
    slots, compactions = [], []
    slot, compact = exactdist._Keys.slot, exactdist._Keys._compact

    def slotted(self, m):
        out = slot(self, m)
        slots.append((self.fill - m, self.fill, self.size, self.buf.size))
        return out

    def compacted(self):
        want = sorted(set(self.buf[:self.fill].tolist()))
        fill = self.fill
        compact(self)
        assert self.buf[:self.size].tolist() == want
        compactions.append((fill, self.size))

    monkeypatch.setattr(exactdist._Keys, "slot", slotted)
    monkeypatch.setattr(exactdist._Keys, "_compact", compacted)
    return slots, compactions


def _assert_slots_follow(slots):
    """Each slot starts where the last one ended, or right after the
    distinct keys when the buffer was compacted in between, and fits the
    buffer: no slot is handed out over keys not yet compacted."""
    end = 0
    for start, stop, size, cap in slots:
        assert start in (end, size) and size <= start <= stop <= cap
        end = stop


def test_keys_are_compacted_before_the_buffer_refills(monkeypatch):
    """With _BLOCK = 2 and one row per band, the rows give blocks of 1, 0,
    2 and 1 keys: the 1-key prefix is compacted before the next block,
    which does not fit beside it, so the buffer grows to 3; the last block
    fits only after a compaction, which leaves 2 distinct keys.  The union
    is the buffer itself, owning its memory, and the pair loop's keys.  A
    lattice with no key gives an empty union that owns its memory too."""
    monkeypatch.setattr(exactdist, "_BLOCK", 2)
    monkeypatch.setattr(exactdist, "_BAND_PAIRS", 1)
    slots, compactions = _record_stream(monkeypatch)
    X, Y = [0, 1, 2, 3, 4], [3, 4, 0, 1, 2]
    spec, union = exactdist._stream(X, Y, [])
    assert slots == [(0, 1, 0, 2), (1, 1, 0, 2), (1, 3, 1, 3), (2, 3, 2, 3)]
    _assert_slots_follow(slots)
    assert compactions == [(1, 1), (3, 2), (3, 2)]
    assert union.base is None and union.flags.owndata and union.size == 2
    got = list(zip(*(v.tolist() for v in exactdist._unpack(spec, union))))
    assert got == distinct_keys_pairloop(X, Y, []) == [(1, 1, -3), (1, 1, 2)]
    slots.clear()
    spec, union = exactdist._stream([0, 1], [0, 0], [])
    assert slots == [(0, 0, 0, 1)]
    assert union.size == 0 and union.base is None and union.flags.owndata


@pytest.mark.parametrize("f, path", [(1, "int64"), (100003, "object"),
                                     (10 ** 9, "bigint")])
def test_block_larger_than_the_buffer(monkeypatch, f, path):
    """A band of more keys than the whole buffer grows the buffer to hold
    it beside the distinct keys, between blocks packed into free slots, in
    every key regime; the union is the pair loop's."""
    monkeypatch.setattr(exactdist, "_BLOCK", 8)
    monkeypatch.setattr(exactdist, "_BAND_PAIRS", 12)
    slots, _ = _record_stream(monkeypatch)
    pts = sorted({(x, (3 * x + 5 * y) % 11) for x in range(8)
                  for y in range(3)})
    X, Y = [f * x for x, _ in pts], [f * y for _, y in pts]
    dirs = [(1, 2), (3, 1)]
    assert _spec_path(exactdist._pack_spec(X, Y, dirs)) == path
    got = distinct_keys(X, Y, dirs)
    _assert_slots_follow(slots)
    assert slots[0][1] > 8 and slots[0][3] == slots[0][1]
    assert len({cap for *_, cap in slots}) > 2 and len(slots) > 10
    assert got == distinct_keys_pairloop(X, Y, dirs)
    assert {type(v) for key in got for v in key} == {int}


@pytest.mark.parametrize("f, path", [(1, "int64"), (100003, "object"),
                                     (10 ** 9, "bigint")])
def test_buffer_flushes_and_merges(monkeypatch, f, path):
    """With _BLOCK = 64 and bands of about 24 pairs, the buffer is
    compacted many times, merging its new keys into its distinct keys, and
    grows as they fill it, in every key regime; the union is the pair
    loop's."""
    monkeypatch.setattr(exactdist, "_BLOCK", 64)
    monkeypatch.setattr(exactdist, "_BAND_PAIRS", 24)
    slots, compactions = _record_stream(monkeypatch)
    M, N = (scale(m, f) for m in ex_need_omega())
    assert _key_path(M, N, None) == path
    X, Y, dvals, _ = exactdist._lattice(M, N, None)
    got = distinct_keys(X, Y, dvals)
    _assert_slots_follow(slots)
    assert len(slots) > 100
    # merges into a distinct prefix, and growth past the first capacity
    assert sum(size > 0 for _, _, size, _ in slots) > 8
    assert len(compactions) > 8 and slots[-1][3] > 4 * 64
    assert len(got) > 4 * exactdist._BLOCK
    assert got == distinct_keys_pairloop(X, Y, dvals)
    assert {type(v) for key in got for v in key} == {int}


def test_stream_memory_follows_its_distinct_keys(monkeypatch):
    """With _BLOCK = 2^10 and bands of 2^12 pairs, a lattice of 700 points
    and 2 directions, 117,416 distinct keys, makes the key buffer compact,
    merge and grow many times.  _stream's tracemalloc peak stays within
    8 B per key of the buffer's last capacity plus 64 B per band pair,
    which holds a band's arrays and a block of the compaction: no run,
    concatenation or copy of the union is held beside the buffer.  The
    union is the pair loop's."""
    monkeypatch.setattr(exactdist, "_BLOCK", 1 << 10)
    monkeypatch.setattr(exactdist, "_BAND_PAIRS", 1 << 12)
    caps, compactions = [], []
    union, compact = exactdist._Keys.union, exactdist._Keys._compact

    def recorded(self):
        caps.append(self.buf.size)
        return union(self)

    def counted(self):
        compactions.append(self.size)
        compact(self)

    monkeypatch.setattr(exactdist._Keys, "union", recorded)
    monkeypatch.setattr(exactdist._Keys, "_compact", counted)
    rng = random.Random(41)
    X = sorted(rng.randrange(3000) for _ in range(700))
    Y = [rng.randrange(3000) for _ in range(700)]
    dirs = [(1, 1), (2, 3)]
    tracemalloc.start()
    try:
        spec, packed = exactdist._stream(X, Y, dirs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.dtype == np.int64 and packed.size == 117416
    assert sum(size > 0 for size in compactions) > 8
    assert caps[0] > 100 * (1 << 10)
    assert peak <= 8 * caps[0] + 64 * (1 << 12)
    keys = exactdist._unpack(spec, packed)
    assert list(zip(*(v.tolist() for v in keys))) == \
        distinct_keys_pairloop(X, Y, dirs)


def test_threads_stream_as_sequential_calls(monkeypatch):
    """Two threads streaming different lattices at once, each with its own
    key buffer, get the unions of sequential calls; with _BLOCK = 256 each
    call refills its buffer many times."""
    monkeypatch.setattr(exactdist, "_BLOCK", 256)
    monkeypatch.setattr(exactdist, "_BAND_PAIRS", 64)
    lattices = [exactdist._lattice(*pair, None)[:3]
                for pair in (ex_need_omega(), ex_diag_not_suff())]
    want = [exactdist._stream(*lat) for lat in lattices]
    start = threading.Barrier(2)
    got = [[], []]

    def work(i):
        start.wait()
        for _ in range(4):
            got[i].append(exactdist._stream(*lattices[i]))

    threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
    # switch threads often, so the two streams interleave inside blocks
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    for (spec, union), outs in zip(want, got):
        assert len(outs) == 4
        for s, u in outs:
            assert s == spec and u.dtype == union.dtype
            assert np.array_equal(u, union)


# The direction bound: an upper bound on the weighted cost of a key that
# depends only on its direction, with which certified selections skip keys.

def _tied_pairs():
    """Random rectangle pairs from 2- or 3-value pools, up to 6 finite
    rects against up to 2, with infinite uppers and no essential bars:
    their maxima tie on many lines, several of one direction."""
    rng = random.Random(67)
    for t in range(12):
        pool = list(range(2 + t % 2))
        yield tuple(TwoParamModule.from_rects(
            [_finite_rect(rng, pool, 0.4) for _ in range(rng.randint(1, n))])
            for n in (6, 2))


def test_direction_bound_holds_on_every_key():
    """On every distinct key of a rectangle pair without essential bars,
    up to MAX_FINITE + 2 finite bars a side, the kernel's unreduced value
    p/q has the bound's own q and p <= p_ub in Python ints; a pair with
    essential bars has the bound None."""
    for M, N in itertools.chain(_wide_pairs(), _tied_pairs()):
        X, Y, dvals, lam = exactdist._lattice(M, N, None)
        keys = distinct_keys(X, Y, dvals)
        dxv, dyv, kv = (np.array(col, dtype=np.int64) for col in zip(*keys))
        values = _fastpath.exact_evaluator(M, N, lam)
        if bar_counts(M)[1]:
            assert values.bound is None
            continue
        p, q = values(dxv, dyv, kv)
        pu, qu = values.bound(dxv, dyv)
        assert pu.dtype == qu.dtype == np.int64
        assert qu.tolist() == q.tolist()
        assert all(a <= b for a, b in zip(p.tolist(), pu.tolist()))


def test_bound_pruned_selection_matches_oracle():
    """Selections that skip keys by the direction bound give the value,
    witness line and count of the per-line oracle on tied pools: with the
    first offer seeded by its keys of highest bound, out of key order, in
    one offer or over many, where a witness read off the survivors in
    their offered order would be wrong."""
    shapes = [s[0] for s in _WIDE_SHAPES]
    pairs = [pair for pair, size in zip(_wide_pairs(), shapes) if size == 2]
    for M, N in pairs + list(_tied_pairs()):
        X, Y, dvals, lam = exactdist._lattice(M, N, None)
        keys = distinct_keys(X, Y, dvals)
        ref = select_exact(M, N, keys, lam, len(keys))
        for seed, chunk in [(None, None), (3, 64), (1, 16)]:
            with pytest.MonkeyPatch.context() as mp:
                if seed is not None:
                    mp.setattr(exactdist, "_SEED", seed)
                    mp.setattr(_fastpath, "CHUNK", chunk)
                res = matching_distance(M, N)
            _assert_as_oracle(res, ref)


def _kernel_lines(monkeypatch):
    """Count the lines _fastpath._chunk gets."""
    lines = []
    chunk = _fastpath._chunk

    def counted(sm, sn, ar):
        lines.append(ar.zeros().size)
        return chunk(sm, sn, ar)

    monkeypatch.setattr(_fastpath, "_chunk", counted)
    return lines


def _past_cap_pair():
    rng = random.Random(10)
    pool = rand_pool(rng, 3)
    return tuple(TwoParamModule.from_rects([rand_rect(rng, pool, p_inf=0)
                                            for _ in range(7)])
                 for _ in "MN")


@pytest.mark.parametrize("pair, full", [
    (_past_cap_pair, False),
    (ex_need_omega, False),
    (lambda: tuple(map(combined_presentation, ex_need_omega())), False),
    (lambda: tuple(map(entangled_presentation, ex_need_omega())), True),
], ids=["past-dp-width", "rect", "presentation", "entangled"])
def test_bound_skips_kernel_lines(pair, full, monkeypatch):
    """A certified rectangle pair sends fewer lines to the kernel than it
    has candidates, and so does a pair of presentations whose components
    are all rectangle-shaped; an entangled presentation pair, which has no
    bound, sends all."""
    M, N = pair()
    lines = _kernel_lines(monkeypatch)
    res = matching_distance(M, N)
    if full:
        assert sum(lines) == res.candidate_count
    else:
        assert 0 < sum(lines) < res.candidate_count
