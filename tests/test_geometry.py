from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matchdist.geometry import (Line, NonPositiveDirection, ProjPoint,
                                line_through, line_through_infinite,
                                normalize_line, pull_param, push_param,
                                weight)
from matchdist.rational import INF, Q

rat_st = st.builds(Q, st.integers(-24, 48), st.integers(1, 4))
pos_st = st.builds(Q, st.integers(1, 16), st.integers(1, 4))
point_st = st.tuples(rat_st, rat_st)

RIGHT = frozenset({1})
LEFT = frozenset({2})
ON = frozenset({1, 2})


def reciprocal_position(line, u):
    """Which face of the cone boundary of u the line crosses.

    Returns {1} if u lies strictly right of the line, {2} if strictly left,
    {1, 2} if on it.  Cross-product sign test, no division.
    """
    (m1, m2), (b1, b2) = line.m, line.b
    lhs = m2 * (Q(u[0]) - b1)
    rhs = m1 * (Q(u[1]) - b2)
    if lhs > rhs:
        return RIGHT
    if lhs < rhs:
        return LEFT
    return ON


def ratios(line, u):
    (m1, m2), (b1, b2) = line.m, line.b
    return (u[0] - b1) / m1, (u[1] - b2) / m2


@given(pos_st, pos_st, point_st)
def test_normalize_line_invariants(d1, d2, p):
    line = normalize_line((d1, d2), p)
    assert max(line.m) == 1
    assert line.b[0] + line.b[1] == 0
    assert reciprocal_position(line, p) == ON
    # slope ratio preserved
    assert line.m[1] * d1 == line.m[0] * d2


@given(pos_st, pos_st, point_st, st.builds(Q, st.integers(1, 9), st.integers(1, 3)))
def test_normalize_line_scale_invariant(d1, d2, p, s):
    assert normalize_line((d1, d2), p) == normalize_line((d1 * s, d2 * s), p)


def test_normalize_line_rejects_bad_direction():
    for d in [(0, 1), (1, 0), (-1, 2), (2, Q(-1, 3))]:
        with pytest.raises(NonPositiveDirection):
            normalize_line(d, (0, 0))


def test_line_constructor_validates():
    with pytest.raises(NonPositiveDirection):
        Line((Q(0), Q(1)), (Q(0), Q(0)))
    with pytest.raises(ValueError):
        Line((Q(1, 2), Q(1, 2)), (Q(0), Q(0)))  # max(m) != 1
    with pytest.raises(ValueError):
        Line((Q(1), Q(1)), (Q(1), Q(1)))  # b1 + b2 != 0


def _rational_check(m, b):
    """Line's validation as rational comparisons: the predicate that the
    integer-form check must give on ints and rationals."""
    (m1, m2), (b1, b2) = m, b
    if not (m1 > 0 and m2 > 0):
        raise NonPositiveDirection("direction")
    if max(m1, m2) != 1 or b1 + b2 != 0:
        raise ValueError("normalization")


def _outcome(check, m, b):
    """None when check accepts (m, b), else the class of its exception."""
    try:
        check(m, b)
    except ValueError as e:
        return type(e)
    return None


# zero, negatives, 1 and values either side of it, as ints, Fractions and
# floats; directions with a coordinate 1 in each type; offsets with
# b1 + b2 = 0, with b1 = b2, with opposite numerators over denominators
# that may differ, and arbitrary
_frac_st = st.one_of(st.sampled_from([0, 1, -1, 2]),
                     st.builds(Fraction, st.integers(-6, 8),
                               st.integers(1, 4)))
_scalar_st = st.one_of(_frac_st, _frac_st.map(float), st.integers(-3, 3))
_one_st = st.sampled_from([1, Fraction(1), 1.0])
_dir_st = st.one_of(st.tuples(_scalar_st, _scalar_st),
                    st.tuples(_one_st, _scalar_st),
                    st.tuples(_scalar_st, _one_st))
_off_st = st.one_of(_scalar_st.map(lambda v: (v, -v)),
                    _scalar_st.map(lambda v: (v, v)),
                    st.builds(lambda p, q, r: (Fraction(p, q), Fraction(-p, r)),
                              st.integers(-6, 6), st.integers(1, 4),
                              st.integers(1, 4)),
                    st.tuples(_scalar_st, _scalar_st))


@given(_dir_st, _off_st)
def test_line_validation_matches_rational_comparisons(m, b):
    assert _outcome(Line, m, b) == _outcome(_rational_check, m, b)


def test_known_line():
    line = normalize_line((Q(7, 10), 1), (Q(7, 2), 6))
    assert line.m == (Q(7, 10), Q(1))
    assert line.b == (Q(-7, 17), Q(7, 17))
    assert weight(line) == Q(7, 10)
    assert push_param(line, (0, 0)) == Q(10, 17)
    assert push_param(line, (0, 4)) == Q(61, 17)
    assert pull_param(line, (7, 8)) == Q(129, 17)
    assert pull_param(line, (7, 11)) == Q(180, 17)
    assert pull_param(line, (7, INF)) == Q(180, 17)


def test_reciprocal_position_diagonal():
    line = normalize_line((1, 1), (0, 0))
    assert reciprocal_position(line, (1, 0)) == RIGHT
    assert reciprocal_position(line, (0, 1)) == LEFT
    assert reciprocal_position(line, (2, 2)) == ON


@given(pos_st, pos_st, point_st, point_st)
def test_push_pull_are_extreme_ratios(d1, d2, p, u):
    line = normalize_line((d1, d2), p)
    r1, r2 = ratios(line, u)
    assert push_param(line, u) == max(r1, r2)
    assert pull_param(line, u) == min(r1, r2)
    assert pull_param(line, u) <= push_param(line, u)
    if reciprocal_position(line, u) == ON:
        assert push_param(line, u) == pull_param(line, u)


@given(pos_st, pos_st, point_st, point_st, point_st)
def test_push_monotone(d1, d2, p, u, shift):
    line = normalize_line((d1, d2), p)
    v = (u[0] + abs(shift[0]), u[1] + abs(shift[1]))
    assert push_param(line, u) <= push_param(line, v)


@given(pos_st, pos_st, point_st, point_st)
def test_push_point_on_line(d1, d2, p, u):
    # the pushed point b + push*m dominates u and lies on the line
    line = normalize_line((d1, d2), p)
    s = push_param(line, u)
    q = (line.b[0] + s * line.m[0], line.b[1] + s * line.m[1])
    assert q[0] >= u[0] and q[1] >= u[1]
    assert q[0] == u[0] or q[1] == u[1]


def test_pull_infinite_corners():
    line = normalize_line((1, 2), (3, 3))
    assert pull_param(line, (INF, INF)) == INF
    assert pull_param(line, (5, INF)) == pull_param(line, (5, 10 ** 9))
    assert pull_param(line, (INF, 5)) == pull_param(line, (10 ** 9, 5))


@given(point_st, point_st)
def test_line_through_contains_both(p, q):
    line = line_through(p, q)
    dx, dy = q[0] - p[0], q[1] - p[1]
    if dx == 0 or dy == 0 or (dx > 0) != (dy > 0):
        assert line is None
    else:
        assert reciprocal_position(line, p) == ON
        assert reciprocal_position(line, q) == ON
        assert line == line_through(q, p)


def test_line_through_degenerate():
    assert line_through((0, 0), (0, 5)) is None
    assert line_through((0, 0), (5, 0)) is None
    assert line_through((0, 0), (5, -1)) is None
    assert line_through((1, 2), (1, 2)) is None


def test_line_through_infinite():
    d = ProjPoint.of(0, 2, 3)
    line = line_through_infinite((1, 1), d)
    assert line == normalize_line((2, 3), (1, 1))
    assert line_through_infinite((1, 1), ProjPoint.of(0, 1, -1)) is None
    with pytest.raises(ValueError):
        line_through_infinite((0, 0), ProjPoint.of(1, 1, 1))


def test_projpoint_canonical():
    assert ProjPoint.of(0, 2, 2) == ProjPoint.of(0, 1, 1)
    assert ProjPoint.of(0, -1, -1) == ProjPoint.of(0, 1, 1)
    assert ProjPoint.of(2, 4, 6) == ProjPoint.of(1, 2, 3)
    assert ProjPoint.of(Q(1, 2), 1, 1) == ProjPoint.of(1, 2, 2)
    assert ProjPoint.of(0, Q(1, 3), Q(1, 2)) == ProjPoint.of(0, 2, 3)
    assert ProjPoint.of(0, 1, 1).at_infinity
    assert not ProjPoint.of(1, 0, 0).at_infinity
    with pytest.raises(ValueError):
        ProjPoint.of(0, 0, 0)
