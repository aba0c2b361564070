"""End-to-end tests for the exact distance engine.

The slow cross-check compares the streaming engine against a plain loop over
the materialized candidate line set, on value, witness line, and count.
"""
import itertools
import random
from math import gcd

import numpy as np
import pytest

import matchdist.exactdist as exactdist
from conftest import (combined_presentation, ex_diag_not_suff, ex_need_diag,
                      ex_need_omega, rand_diagram, rand_line, rand_point,
                      rand_pool, rand_presentation, rand_rat, rand_rect,
                      rand_rect_module)
from matchdist import _fastpath
from matchdist.bottleneck import (bottleneck, bottleneck_bruteforce,
                                  bottleneck_cost, cheapest_matching,
                                  threshold_matching)
from matchdist.exactdist import (BothTrivial, CandidateLineSet,
                                 SwitchPointSet, candidate_lines,
                                 horizontal_cost, matching_distance,
                                 vertical_cost)
from matchdist.fibered import Bar, bar_counts, restrict_presentation
from matchdist.geometry import (Line, NonPositiveDirection, ProjPoint,
                                line_through, normalize_line, push_param,
                                weight)
from matchdist.gridscan import GridSpec, scan
from matchdist.modules import (TwoParamModule, critical_values, lub_closure,
                               rect, scale, swap_axes, translate)
from matchdist.rational import INF, Q
from oracles import (distinct_keys_pairloop, lattice_rational, lex_pair,
                     match_patterns, select_exact)


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
    """The key regime, by the dtypes of the packing: int64 keys, object
    packed keys over int64 blocks inside the guard, or object blocks past
    it."""
    X, Y, dvals, _ = exactdist._lattice(M, N, extra)
    return _spec_path(exactdist._pack_spec(X, Y, dvals))


def _spec_path(spec):
    if spec.key_dtype == object:
        return "bigint"
    return "int64" if spec.dtype == np.int64 else "object"


def test_candidate_lines_match_exact_sort_on_every_key_path(monkeypatch):
    """Ordering on the integer keys gives the lines of a sort of every key
    by its exact (m1/m2, b1), in the same order, in every key regime (int64
    keys, object keys inside the guard, object keys past it), with and
    without extra switch points and directions.  Every line passes the
    public constructor's check and equals and hashes as the line it
    builds; a lattice with no positive-slope line gives the empty set, and
    a non-positive direction raises as Line does."""
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
            keys = sorted(exactdist._distinct_keys(X, Y, dvals),
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
    for dx, dy in ((0, 3), (3, -1)):
        with pytest.raises(NonPositiveDirection):
            exactdist._line_from_key(dx, dy, 1, 1)
        with pytest.raises(NonPositiveDirection):
            exactdist._check_positive(np.array([2, dx]), np.array([5, dy]))


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
    """bottleneck_cost equals bottleneck() below its matching cap, past it
    (5-6 finite bars on a side) and with an empty side; against the brute
    force too where that is small enough.  On diagrams without essential
    bars, threshold_matching on rationals equals bottleneck() too."""
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
    for d1, d2 in cases:
        want = bottleneck(d1, d2)[0]
        assert bottleneck_cost(d1, d2) == want
        if len(d1) + len(d2) <= 8:
            assert bottleneck_bruteforce(d1, d2) == want
        if d1 + d2 and INF not in {b.death for b in d1 + d2}:
            pc = [[max(abs(a.birth - b.birth), abs(a.death - b.death))
                   for b in d2] for a in d1]
            got = threshold_matching(pc, [(a.death - a.birth) / 2 for a in d1],
                                     [(b.death - b.birth) / 2 for b in d2])
            assert type(got) is type(want)
            assert got == want


def test_unique_sorted_matches_np_unique():
    rng = np.random.default_rng(12)
    cases = [[], [7], [5, 5, 5, 5], [-3, 8, -3, -(1 << 62), 0, 8],
             list(range(-4, 9)), list(range(9, -4, -1)),
             rng.integers(-50, 50, 1000)]
    for case in cases:
        a = np.asarray(case, dtype=np.int64)
        want = np.unique(a)
        for kind in (None, "stable"):
            got = exactdist._unique_sorted(a.copy(), kind)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def test_cheapest_matching_matches_patterns():
    """The row-by-row minimum equals the minimum over every matching
    pattern exactly, for floats, for int64 numerators and for rational
    scalars."""
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
    qrng = random.Random(13)
    for r1, r2, _ in itertools.product(range(5), range(5), range(8)):
        if r1 == r2 == 0:
            continue
        # coarse draws give ties within and across the sides
        draw = [Q(qrng.randint(0, 12), qrng.randint(1, 3))
                for _ in range(r1 + r2 + r1 * r2)]
        h1, h2 = draw[:r1], draw[r1:r1 + r2]
        pc = [draw[r1 + r2 + i * r2:r1 + r2 + (i + 1) * r2]
              for i in range(r1)]
        want = min(max([pc[i][j] for i, j in pairs] + [h1[i] for i in un1]
                       + [h2[j] for j in un2])
                   for pairs, un1, un2 in match_patterns(r1, r2))
        got = cheapest_matching(pc, h1, h2)
        assert type(got) is type(want)
        assert got == want


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
            assert exactdist._lattice(M, N, ex) == lattice_rational(M, N, ex)


def _scaled_keys(M, N):
    X, Y, dvals, lam = exactdist._lattice(M, N, None)
    return exactdist._distinct_keys(X, Y, dvals), lam


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
        keys = exactdist._distinct_keys(X, Y, dvals)
        ref = select_exact(M, N, keys, lam, len(keys))
        assert (res.value, res.witness_line, res.candidate_count) == \
            (ref.value, ref.witness_line, ref.candidate_count)
        assert scan(M, N, GridSpec(25, 25)).max_value <= \
            float(res.value) + 1e-9


def test_past_dp_width_restricts_only_the_witness(monkeypatch):
    """Past the kernel's dynamic-programming width, matching_distance
    restricts in rationals only its witness line, once per module; a
    per-line selection restricted this pair's 1,849 lines twice each."""
    rng = random.Random(10)
    pool = rand_pool(rng, 3)
    M, N = (TwoParamModule.from_rects([rand_rect(rng, pool, p_inf=0)
                                       for _ in range(7)]) for _ in "MN")
    lines = []
    restrict = exactdist.restrict_module

    def counted(module, line):
        lines.append(line)
        return restrict(module, line)

    monkeypatch.setattr(exactdist, "restrict_module", counted)
    res = matching_distance(M, N)
    assert res.candidate_count == 1849
    assert res.value == Q(3, 2)
    assert lines == [res.witness_line] * 2


def test_wide_rectangle_pairs_integer_values():
    rng = random.Random(62)
    for M, N in _wide_pairs():
        X, Y, dvals, lam = exactdist._lattice(M, N, None)
        keys = exactdist._distinct_keys(X, Y, dvals)
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
        side = _fastpath._Pres(pres, lambda v: int(v * lam))
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
        keys = exactdist._distinct_keys(X, Y, dvals)
        ref = select_exact(M, N, keys, lam, len(keys))
        assert (res.value, res.witness_line, res.candidate_count) == \
            (ref.value, ref.witness_line, ref.candidate_count)
        assert scan(M, N, GridSpec(25, 25)).max_value <= \
            float(res.value) + 1e-9


def test_presentation_pairs_vector_values():
    """Integer values equal the per-line exact cost on sampled keys, and
    float values lie within rounding of it."""
    rng = random.Random(72)
    for M, N in _pres_pairs():
        X, Y, dvals, lam = exactdist._lattice(M, N, None)
        keys = exactdist._distinct_keys(X, Y, dvals)
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


# One packed key stream in every regime: int64 keys, Python-int packed keys
# over int64 blocks inside the guard, and Python-int blocks past it.

def test_distinct_keys_match_pair_loop(monkeypatch):
    """The streamed keys, packed, deduplicated per batch and merged across
    many batches, equal a plain loop over point pairs in python ints, in
    all three key regimes; on a lattice of 8 points and 7 directions too,
    whose direction blocks hold two directions each and the last one, and
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
        got = exactdist._distinct_keys(X, Y, dvals)
        assert len(got) > 4 * exactdist._BLOCK
        assert got == distinct_keys_pairloop(X, Y, dvals)
        assert {type(v) for key in got for v in key} == {int}
    pts = [(0, 0), (1, 3), (2, 1), (3, 4), (4, 2), (5, 5), (6, 1), (7, 6)]
    dirs = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
    for f, path in ((1, "int64"), (100003, "object"), (10 ** 9, "bigint")):
        X, Y = [f * x for x, _ in pts], [f * y for _, y in pts]
        spec = exactdist._pack_spec(X, Y, dirs)
        assert _spec_path(spec) == path
        blocks = list(exactdist._iter_blocks(X, Y, dirs, spec))
        assert [len(b[0]) for b in blocks[-4:]] == [16, 16, 16, 8]
        got = exactdist._distinct_keys(X, Y, dirs)
        assert got == distinct_keys_pairloop(X, Y, dirs)
        assert {type(v) for key in got for v in key} == {int}
    # row bands of at most 20 pairs, on a lattice whose equal-X groups
    # straddle band edges and whose bands mix groups
    bands = []
    pair_keys = exactdist._pair_keys

    def recorded(Xd, Yd, Xa, Ya, a, b, c):
        bands.append((a, b, c))
        return pair_keys(Xd, Yd, Xa, Ya, a, b, c)

    monkeypatch.setattr(exactdist, "_BAND_PAIRS", 20)
    monkeypatch.setattr(exactdist, "_pair_keys", recorded)
    pts = sorted([(0, 0), (0, 2), (0, 5), (1, 1), (1, 4), (2, 0), (2, 3),
                  (2, 6), (2, 7), (3, 2), (4, 1), (4, 5), (4, 8), (4, 9)])
    for f, path in ((1, "int64"), (100003, "object"), (10 ** 9, "bigint")):
        X, Y = [f * x for x, _ in pts], [f * y for _, y in pts]
        assert _spec_path(exactdist._pack_spec(X, Y, dirs)) == path
        bands.clear()
        got = exactdist._distinct_keys(X, Y, dirs)
        assert got == distinct_keys_pairloop(X, Y, dirs)
        assert {type(v) for key in got for v in key} == {int}
        assert all(X[c - 1] == X[a] < X[c] for a, _, c in bands)
        assert any(X[b - 1] == X[b] for _, b, _ in bands)
        assert any(X[a] < X[b - 1] for a, b, _ in bands)


def test_scaled_pairs_match_per_line_selection():
    """Past the int64 packing, inside the guard and past it, the streamed
    selection gives the value, witness line and count of the per-line exact
    selection over every distinct key: on scaled pairs, on float-coordinate
    pairs, whose keys are Python ints past the guard, and on pairs of int64
    keys past the int64 certificate, with and without essential bars."""
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
        keys = exactdist._distinct_keys(X, Y, dvals)
        ref = select_exact(M, N, keys, lam, len(keys))
        assert res.value > 0
        assert (res.value, res.witness_line, res.candidate_count) == \
            (ref.value, ref.witness_line, ref.candidate_count)


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
        keys = exactdist._distinct_keys(X, Y, dvals)
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
    keys = exactdist._distinct_keys(X, Y, dvals)
    ref = select_exact(M, N, keys, lam, len(keys))
    assert (res.value, res.witness_line, res.candidate_count) == \
        (ref.value, ref.witness_line, ref.candidate_count)


# Rectangle pairs given as Python floats: rat keeps their exact binary
# values, so the lattice scaling is 2^55 or more and the keys are Python
# ints past the guard.  These are small enough for the per-line oracle.
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
        keys = rng.sample(exactdist._distinct_keys(X, Y, dvals), 150)
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


# The folds take the distinct packed keys in slices of _fastpath.CHUNK.

def _chunk_sizes(monkeypatch, fold, size):
    """Patch _fastpath.CHUNK to size; the returned list collects the number
    of packed keys that _fold hands to the fold class per chunk."""
    monkeypatch.setattr(_fastpath, "CHUNK", size)
    sizes = []
    take = fold.take

    def counted(self, spec, packed, heads):
        sizes.append(len(packed))
        return take(self, spec, packed, heads)

    monkeypatch.setattr(fold, "take", counted)
    return sizes


def test_tiny_chunks_match_per_line_selection(monkeypatch):
    """With 64-key chunks, the selection fold gives the value, witness line
    and count of the per-line exact selection over every distinct key, on
    rectangle and presentation pairs of 217 and 1849 lines."""
    sizes = _chunk_sizes(monkeypatch, exactdist._Select, 64)
    pairs = list(itertools.islice(_wide_pairs(), 3))
    pairs += list(itertools.islice(_pres_pairs(), 1, 4))
    for M, N in pairs:
        assert _fastpath.vector_ready(M, N)
        n = len(sizes)
        res = matching_distance(M, N)
        X, Y, dvals, lam = exactdist._lattice(M, N, None)
        keys = exactdist._distinct_keys(X, Y, dvals)
        assert len(sizes) - n >= len(keys) // 64
        ref = select_exact(M, N, keys, lam, len(keys))
        assert (res.value, res.witness_line, res.candidate_count) == \
            (ref.value, ref.witness_line, ref.candidate_count)
    assert max(sizes) <= 64


def test_tiny_chunks_keep_lex_min_witness(monkeypatch):
    """On pairs that need no line search (unequal essential counts, equal
    modules), the witness of chunked offers is the lex-min of every
    distinct key."""
    sizes = _chunk_sizes(monkeypatch, exactdist._LexMin, 64)
    M, _ = ex_diag_not_suff()
    P = combined_presentation(M)
    pairs = [(TwoParamModule.from_rects([rect(0, 0, INF, INF),
                                         rect(1, 1, 3, 2)]),
              TwoParamModule.from_rects([rect(0, 1, 2, 3)])),
             (M, M), (P, P)]
    for M, N in pairs:
        n = len(sizes)
        res = matching_distance(M, N)
        X, Y, dvals, lam = exactdist._lattice(M, N, None)
        keys = exactdist._distinct_keys(X, Y, dvals)
        assert len(sizes) - n >= len(keys) // 64 > 1
        best = min(keys, key=lambda t: lex_pair(*t, lam))
        assert res.witness_line == exactdist._line_from_key(*best, lam)
        assert res.candidate_count == len(keys)
    assert max(sizes) <= 64


@pytest.mark.parametrize("f", [1, 100003, 10 ** 9])
def test_chunk_boundaries_inside_direction_runs(f, monkeypatch):
    """With CHUNK = 16 and 64, a chunk boundary cuts a direction run in
    two, the second part headed by a larger k, on int64 keys and on keys
    scaled by 100003 and 10^9.  Where it cuts the run of the witness,
    _Select, bounding per run, gives the value, witness line and count of
    the per-line oracle; where it cuts the run of the lex-min key of a
    suffix of the keys, _LexMin over that suffix gives that key."""
    M, N = (scale(m, f) for m in list(_tied_pairs())[1])
    X, Y, dvals, lam = exactdist._lattice(M, N, None)
    spec, union = exactdist._stream(X, Y, dvals)
    keys = exactdist._distinct_keys(X, Y, dvals)
    code = (union // spec.sk).tolist()
    ref = select_exact(M, N, keys, lam, len(keys))
    assert exactdist._Select(M, N, lam).by_run
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
        assert (res.value, res.witness_line, res.candidate_count) == \
            (ref.value, ref.witness_line, ref.candidate_count)
        # a chunk of the suffix ends at the lex-min key, inside its run
        start = (best + 1) % chunk
        assert start <= best
        assert exactdist._fold(spec, union[start:], exactdist._LexMin()) \
            == keys[best]


def test_folds_build_no_rational(monkeypatch):
    """The folds compare the keys' integers and build no rational: with Q
    made to raise, 64-key chunks give matching_distance's witness key, by
    _LexMin on a pair that needs no line search and by _Select on one that
    does."""
    M = TwoParamModule.from_rects([rect(0, 0, INF, INF), rect(1, 1, 3, 2)])
    N = TwoParamModule.from_rects([rect(0, 1, 2, 3)])
    wide = next(_wide_pairs())
    for (A, B), make in (((M, N), lambda *args: exactdist._LexMin()),
                         (wide, exactdist._Select)):
        want = matching_distance(A, B)
        X, Y, dvals, lam = exactdist._lattice(A, B, None)
        spec, union = exactdist._stream(X, Y, dvals)
        with monkeypatch.context() as mp:
            mp.setattr(_fastpath, "CHUNK", 64)
            mp.setattr(exactdist, "Q", None)
            key = exactdist._fold(spec, union, make(A, B, lam))
        assert exactdist._line_from_key(*key, lam) == want.witness_line


@pytest.mark.parametrize("dtype, a, b", [
    (np.int64, (2 ** 24 + 1, 2 ** 24), (2 ** 24, 2 ** 24 - 1)),
    (object, (2 ** 60 + 1, 2 ** 60), (2 ** 60, 2 ** 60 - 1)),
], ids=["near-tie", "equal-doubles"])
def test_lex_min_band_keeps_near_ties(dtype, a, b):
    """_LexMin keeps the exact lex-min against a direction whose ratio
    dx/dy is above it by a relative 2^-48, and against one whose double
    equals its own (object keys past the guard), in both orders, in one
    offer and split across offers, and in one offer out of key order."""
    assert Q(*a) < Q(*b)
    if dtype is object:
        assert float(a[0]) / float(a[1]) == float(b[0]) / float(b[1])

    def lex_min(offers):
        fold = exactdist._LexMin()
        for keys in offers:
            fold.offer(*(np.array(c, dtype=dtype) for c in zip(*keys)))
        return fold.finish()

    for first, second in (((*a, 0), (*b, 0)), ((*b, 0), (*a, 0))):
        for offers in ([[first, second]], [[first], [second]]):
            assert lex_min(offers) == (*a, 0)
    # directions interleaved, k descending
    assert lex_min([[(*a, 3), (*b, 2), (*a, 1), (*b, 0)]]) == (*a, 1)


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
    """Past the guard, where the keys are Python ints, the lines are valued
    in the same one exact pass: both modules are converted once per call,
    whatever the chunk size, and the float kernel never runs."""
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
    """_pack and _unpack compute in place on fresh arrays only, in every
    key regime, and round-trip exactly, from int32 differences too."""
    for f, path in ((1, "int64"), (100003, "object"), (10 ** 9, "bigint")):
        M, N = (scale(m, f) for m in ex_need_omega())
        assert _key_path(M, N, None) == path
        X, Y, dvals, _ = exactdist._lattice(M, N, None)
        spec = exactdist._pack_spec(X, Y, dvals)
        cols = [np.array(c, dtype=spec.key_dtype)
                for c in zip(*exactdist._distinct_keys(X, Y, dvals))]
        inputs = [cols, [c.astype(spec.dtype) for c in cols]]
        if spec.key_dtype == np.int64:
            inputs.append([cols[0].astype(np.int32),
                           cols[1].astype(np.int32), cols[2]])
        for blk in inputs:
            before = [c.copy() for c in blk]
            packed = exactdist._pack(spec, *blk)
            assert packed.dtype == spec.dtype
            for c, b in zip(blk, before):
                assert np.array_equal(c, b) and c.dtype == b.dtype
            kept = packed.copy()
            out = exactdist._unpack(spec, packed)
            assert np.array_equal(packed, kept)
            for o, c in zip(out, cols):
                assert o.dtype == spec.key_dtype
                assert np.array_equal(o, c)


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
    essential bars gets no bound."""
    for M, N in itertools.chain(_wide_pairs(), _tied_pairs()):
        X, Y, dvals, lam = exactdist._lattice(M, N, None)
        keys = exactdist._distinct_keys(X, Y, dvals)
        dxv, dyv, kv = (np.array(col, dtype=np.int64) for col in zip(*keys))
        values = _fastpath.exact_evaluator(M, N, lam)
        if bar_counts(M)[1]:
            assert not hasattr(values, "bound")
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
        keys = exactdist._distinct_keys(X, Y, dvals)
        ref = select_exact(M, N, keys, lam, len(keys))
        for seed, chunk in [(None, None), (3, 64), (1, 16)]:
            with pytest.MonkeyPatch.context() as mp:
                if seed is not None:
                    mp.setattr(exactdist, "_SEED", seed)
                    mp.setattr(_fastpath, "CHUNK", chunk)
                res = matching_distance(M, N)
            assert (res.value, res.witness_line, res.candidate_count) == \
                (ref.value, ref.witness_line, ref.candidate_count)


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
    (lambda: tuple(map(combined_presentation, ex_need_omega())), True),
], ids=["past-dp-width", "rect", "presentation"])
def test_bound_skips_kernel_lines(pair, full, monkeypatch):
    """A certified rectangle pair sends fewer lines to the kernel than it
    has candidates; a presentation pair, which has no bound, sends all."""
    M, N = pair()
    lines = _kernel_lines(monkeypatch)
    res = matching_distance(M, N)
    if full:
        assert sum(lines) == res.candidate_count
    else:
        assert 0 < sum(lines) < res.candidate_count
