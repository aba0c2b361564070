import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from matchdist.exactdist import matching_distance
from matchdist.fibered import restrict_module
from matchdist.geometry import normalize_line
from matchdist.gridscan import GridSpec, scan
from matchdist.modules import (Presentation, Rect, TwoParamModule,
                               critical_values, lub_closure, rect,
                               rect_as_presentation, scale, swap_axes,
                               translate)
from matchdist.rational import INF, Q, is_inf
from oracles import lub_closure_fixpoint

rat_st = st.builds(Q, st.integers(0, 24), st.integers(1, 3))
point_st = st.tuples(rat_st, rat_st)


def test_rect_validation():
    with pytest.raises(ValueError):
        Rect((Q(0), INF), (Q(1), INF))
    with pytest.raises(ValueError):
        rect(0, 0, 0, 5)
    with pytest.raises(ValueError):
        rect(0, 3, 4, 3)
    r = rect("1/2", "2.5", "inf", 7)
    assert r.lower == (Q(1, 2), Q(5, 2))
    assert r.upper == (INF, Q(7))


def test_infinite_upper_is_not_ordered_against_a_rational(monkeypatch):
    """Rects with infinite uppers, INF or numpy's, are built without
    ordering a rational against the float marker, and a non-increasing
    finite side still raises."""
    richcmp = Fraction._richcmp

    def no_float(self, other, op):
        assert not isinstance(other, float), "rational ordered against INF"
        return richcmp(self, other, op)

    monkeypatch.setattr(Fraction, "_richcmp", no_float)
    big = np.float64("inf")
    for u1, u2 in ((INF, INF), (INF, 7), (3, INF), (big, 7), (big, big)):
        r = rect("1/2", 2, u1, u2)
        assert r.upper == tuple(INF if is_inf(u) else Q(u) for u in (u1, u2))
        assert Rect(r.lower, r.upper) == r
    for u1, u2 in ((INF, 2), ("1/2", INF), (0, INF)):
        with pytest.raises(ValueError):
            rect("1/2", 2, u1, u2)


def test_numpy_infinity_is_the_marker():
    """numpy's float64 infinity marks an essential upper as INF does, both
    through rect and in a Rect built directly."""
    big = np.float64("inf")
    assert is_inf(big) and is_inf(INF)
    assert not is_inf(Q(1)) and not is_inf(-INF) and not is_inf("inf")
    assert rect(0, 0, big, 1).upper == (INF, Q(1))
    r = Rect((Q(0), Q(0)), (big, Q(1)))
    assert critical_values(TwoParamModule.from_rects([r])) == \
        critical_values(TwoParamModule.from_rects([rect(0, 0, "inf", 1)]))


# the spellings of a finite coordinate that a constructor takes; every
# value spelled below is a dyadic rational, so its float is exact
_SPELLINGS = {
    "fraction": Q,
    "float": float,
    "decimal": lambda v: str(float(v)),
    "ratio": lambda v: "%d/%d" % (v.numerator, v.denominator),
    "int": int,
}


def _spelled(rects, spell):
    """The rectangles rects, (lower, upper) pairs of Fractions and INF, as
    a rectangle module built with Rect directly and as a presentation, one
    generator per rectangle and one relation per finite upper, with every
    finite coordinate spelled by spell."""
    def point(p):
        return tuple(c if is_inf(c) else spell(c) for c in p)

    gens, rels = [], []
    for k, (lower, upper) in enumerate(rects):
        gens.append(("g%d" % k, point(lower)))
        rels += [("r%d_%d" % (k, axis), point(
            (u, lower[1]) if axis == 0 else (lower[0], u)),
            frozenset({"g%d" % k}))
            for axis, u in enumerate(upper) if not is_inf(u)]
    return (TwoParamModule.from_rects([Rect(point(lo), point(up))
                                       for lo, up in rects]),
            TwoParamModule.from_presentation(
                Presentation(tuple(gens), tuple(rels))))


@pytest.mark.parametrize("shift", [(0, 0), (Q(1, 2), Q(1, 4))],
                         ids=["integral", "dyadic"])
def test_constructors_make_coordinates_exact(shift):
    """Rect and Presentation make every coordinate exact, so int (where the
    coordinates are integral), Fraction, float, decimal-string and
    fraction-string spellings build equal modules, with equal
    matching_distance (value, witness line and matching, count), scan
    (max, argmax, every row) and restrict_module results, as rectangles
    and as presentations."""
    def moved(r):
        (l1, l2), (u1, u2) = r
        return ((l1 + shift[0], l2 + shift[1]),
                (u1 if is_inf(u1) else u1 + shift[0],
                 u2 if is_inf(u2) else u2 + shift[1]))

    one = [moved(r) for r in (((Q(0), Q(0)), (Q(7), Q(8))),
                              ((Q(0), Q(4)), (Q(7), Q(11))),
                              ((Q(1), Q(2)), (INF, INF)))]
    two = [moved(r) for r in (((Q(0), Q(0)), (Q(7), Q(11))),
                              ((Q(0), Q(4)), (Q(7), Q(8))),
                              ((Q(2), Q(1)), (INF, INF)))]
    spellings = [name for name in _SPELLINGS if name != "int" or shift[0] == 0]
    lines = [normalize_line((1, 1), (0, 0)), normalize_line((1, 3), (2, 1))]
    g = GridSpec(9, 11)
    ref = None
    for name in spellings:
        pairs = list(zip(_spelled(one, _SPELLINGS[name]),
                         _spelled(two, _SPELLINGS[name])))
        got = []
        for M, N in pairs:
            res = matching_distance(M, N)
            sc = scan(M, N, g)
            got.append((M, N, res, repr(sc.max_value), sc.argmax,
                        [repr(r) for r in sc.rows],
                        [restrict_module(X, ln) for X in (M, N)
                         for ln in lines]))
        if ref is None:
            ref = got
            assert ref[0][2].value > 0
        assert got == ref, name


@pytest.mark.parametrize("bad", [INF, np.float64("inf"), -INF, math.nan,
                                 "inf", "x"],
                         ids=["inf", "numpy-inf", "-inf", "nan", "str-inf",
                              "str"])
def test_constructors_reject_non_finite_grades(bad):
    """An infinite, NaN or non-numeric grade of a generator or a relation,
    or lower coordinate of a Rect, raises ValueError at construction; an
    infinite lower coordinate, INF, numpy's or "inf", in either place and
    through rect too, reads "lower corner must be finite".  An upper
    corner takes INF, numpy's infinity and "inf", and rejects the rest."""
    col = frozenset({"g"})
    with pytest.raises(ValueError):
        Presentation((("g", (0, bad)),), ())
    with pytest.raises(ValueError):
        Presentation((("g", (0, 0)),), (("r", (bad, 1), col),))
    for lower in ((bad, 0), (0, bad)):
        for make in (lambda: Rect(lower, (1, 1)), lambda: rect(*lower, 1, 1)):
            with pytest.raises(ValueError) as err:
                make()
            if is_inf(bad) or bad == "inf":
                assert str(err.value) == "lower corner must be finite"
    if is_inf(bad) or bad == "inf":
        assert Rect((0, 0), (bad, 1)).upper == (INF, Q(1))
    else:
        with pytest.raises(ValueError):
            Rect((0, 0), (bad, 1))


def test_constructors_reject_grades_of_other_types():
    """A grade or coordinate that is neither a number nor a string, None
    here, raises TypeError, in a presentation as in a rectangle."""
    col = frozenset({"g"})
    with pytest.raises(TypeError):
        Presentation((("g", (0, None)),), ())
    with pytest.raises(TypeError):
        Presentation((("g", (0, 0)),), (("r", (None, 1), col),))
    with pytest.raises(TypeError):
        rect(None, 0, 1, 1)
    with pytest.raises(TypeError):
        Rect((0, 0), (1, None))


def test_module_exactly_one_form():
    with pytest.raises(ValueError):
        TwoParamModule()
    with pytest.raises(ValueError):
        TwoParamModule(rectangles=(), presentation=Presentation((), ()))
    assert TwoParamModule.from_rects([]).is_trivial
    assert TwoParamModule.from_presentation(Presentation((), ())).is_trivial
    assert not TwoParamModule.from_rects([rect(0, 0, 1, 1)]).is_trivial


def test_critical_values_rect():
    m = TwoParamModule.from_rects([rect(0, 0, 7, 7), rect(0, 4, 7, 11)])
    assert critical_values(m) == frozenset(
        {(0, 0), (7, 0), (0, 7), (0, 4), (7, 4), (0, 11)})
    # infinite upper coordinates contribute no relator grade
    m2 = TwoParamModule.from_rects([rect(1, 2, INF, 5), rect(0, 0, INF, INF)])
    assert critical_values(m2) == frozenset({(1, 2), (1, 5), (0, 0)})


def test_critical_values_presentation():
    pres = Presentation(
        generators=(("a", (Q(0), Q(1))), ("b", (Q(2), Q(0)))),
        relations=(("r", (Q(2), Q(1)), frozenset({"a", "b"})),))
    m = TwoParamModule.from_presentation(pres)
    assert critical_values(m) == frozenset({(0, 1), (2, 0), (2, 1)})


def test_grade_violation():
    ok = Presentation((("a", (0, 0)),), (("r", (1, 1), frozenset({"a"})),))
    assert ok.grade_violation() is None
    dup = Presentation((("a", (0, 0)), ("a", (1, 1))), ())
    assert "duplicate" in dup.grade_violation()
    unk = Presentation((("a", (0, 0)),), (("r", (1, 1), frozenset({"x"})),))
    assert "unknown" in unk.grade_violation()
    below = Presentation((("a", (2, 2)),), (("r", (3, 1), frozenset({"a"})),))
    assert "below" in below.grade_violation()


def test_lub_closure_small():
    got = lub_closure([(Q(0), Q(1)), (Q(1), Q(0))])
    assert got == frozenset({(0, 1), (1, 0), (1, 1)})
    assert lub_closure([]) == frozenset()
    one = [(Q(3), Q(4))]
    assert lub_closure(one) == frozenset({(3, 4)})


@given(st.lists(point_st, max_size=7))
def test_lub_closure_matches_fixpoint(pts):
    assert lub_closure(pts) == lub_closure_fixpoint(pts)


@given(st.lists(point_st, min_size=1, max_size=6))
def test_lub_closure_is_closed_and_minimal(pts):
    out = lub_closure(pts)
    for p in out:
        for q in out:
            assert (max(p[0], q[0]), max(p[1], q[1])) in out
    assert set(pts) <= set(out)


def test_rect_as_presentation_shapes():
    p = rect_as_presentation(rect(1, 2, 3, 4))
    assert len(p.generators) == 1 and len(p.relations) == 2
    assert p.grade_violation() is None
    p = rect_as_presentation(rect(1, 2, INF, 4))
    assert len(p.relations) == 1
    assert p.relations[0][1] == (1, 4)
    p = rect_as_presentation(rect(1, 2, INF, INF))
    assert p.relations == ()


def test_transforms():
    m = TwoParamModule.from_rects([rect(0, 1, 2, INF)])
    t = translate(m, (Q(1, 2), 3))
    assert t.rectangles[0] == Rect((Q(1, 2), Q(4)), (Q(5, 2), INF))
    s = scale(m, 2)
    assert s.rectangles[0] == Rect((Q(0), Q(2)), (Q(4), INF))
    w = swap_axes(m)
    assert w.rectangles[0] == Rect((Q(1), Q(0)), (INF, Q(2)))
    with pytest.raises(ValueError):
        scale(m, 0)
    with pytest.raises(ValueError):
        scale(m, -1)


def test_transforms_presentation():
    pres = Presentation((("a", (Q(0), Q(1))),),
                        (("r", (Q(2), Q(3)), frozenset({"a"})),))
    m = TwoParamModule.from_presentation(pres)
    w = swap_axes(m)
    assert w.presentation.generators[0][1] == (1, 0)
    assert w.presentation.relations[0][1] == (3, 2)
    t = translate(m, (1, 1))
    assert t.presentation.generators[0][1] == (1, 2)


def test_translate_scale_critical_values():
    rng = random.Random(7)
    for _ in range(20):
        k = rng.randint(1, 3)
        rects = []
        for _ in range(k):
            x1, y1 = rng.randint(0, 5), rng.randint(0, 5)
            rects.append(rect(x1, y1, x1 + rng.randint(1, 4),
                              y1 + rng.randint(1, 4)))
        m = TwoParamModule.from_rects(rects)
        cv = critical_values(m)
        t = (Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3)))
        assert critical_values(translate(m, t)) == \
            frozenset({(p[0] + t[0], p[1] + t[1]) for p in cv})
        f = Q(rng.randint(1, 5), rng.randint(1, 3))
        assert critical_values(scale(m, f)) == \
            frozenset({(p[0] * f, p[1] * f) for p in cv})
        assert critical_values(swap_axes(m)) == \
            frozenset({(p[1], p[0]) for p in cv})
