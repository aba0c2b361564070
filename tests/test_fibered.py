import random
from fractions import Fraction

import pytest

from conftest import (combined_presentation, ex_diag_not_suff, rand_line,
                      rand_rect_module)
from matchdist.fibered import (Bar, InvalidPresentation, restrict_module,
                               restrict_presentation, restrict_rect)
from matchdist.geometry import line_through, normalize_line
from matchdist.modules import Presentation, TwoParamModule, rect
from matchdist.rational import INF, Q


def as_pairs(diagram):
    return [(b.birth, b.death) for b in diagram]


def test_bar_validation():
    with pytest.raises(ValueError):
        Bar(Q(3), Q(3))
    with pytest.raises(ValueError):
        Bar(Q(3), Q(2))
    Bar(Q(3), INF)


def test_restrict_rect_known_line():
    line = line_through((0, 0), (7, 11))
    assert restrict_rect(rect(0, 0, 7, 7), line) == Bar(Q(0), Q(7))
    assert restrict_rect(rect(0, 4, 7, 11), line) == Bar(Q(4), Q(11))
    assert restrict_rect(rect(0, 0, 7, 11), line) == Bar(Q(0), Q(11))
    assert restrict_rect(rect(0, 4, 7, 7), line) == Bar(Q(4), Q(7))


def test_restrict_rect_misses():
    line = normalize_line((1, 1), (10, 0))
    assert restrict_rect(rect(0, 4, 2, 5), line) is None


def test_restrict_rect_infinite_upper():
    line = normalize_line((1, 1), (0, 0))
    assert restrict_rect(rect(1, 2, INF, INF), line) == Bar(Q(2), INF)
    assert restrict_rect(rect(1, 2, INF, 6), line) == Bar(Q(2), Q(6))


def test_restrict_module_known_diagrams():
    m, n = ex_diag_not_suff()
    line = line_through((0, 0), (7, 11))
    assert as_pairs(restrict_module(m, line)) == [(0, 7), (4, 11)]
    assert as_pairs(restrict_module(n, line)) == [(0, 11), (4, 7)]


def test_restrict_module_drops_missed_rects():
    m = TwoParamModule.from_rects([rect(0, 4, 2, 5), rect(0, 0, 9, 9)])
    line = normalize_line((1, 1), (2, 0))
    assert as_pairs(restrict_module(m, line)) == [(1, 8)]


def test_restrict_presentation_reduction():
    # second column reduces against the first before finding its pivot
    pres = Presentation(
        generators=(("a", (Q(0), Q(0))), ("b", (Q(1), Q(1)))),
        relations=(("r1", (Q(2), Q(2)), frozenset({"a", "b"})),
                   ("r2", (Q(2), Q(2)), frozenset({"b"}))))
    line = normalize_line((1, 1), (0, 0))
    got = restrict_presentation(pres, line)
    assert as_pairs(got) == [(0, 2), (1, 2)]


def test_restrict_presentation_essential_and_zero_length():
    pres = Presentation(
        generators=(("a", (Q(0), Q(0))), ("b", (Q(0), Q(3)))),
        relations=(("r1", (Q(0), Q(3)), frozenset({"a", "b"})),))
    line = normalize_line((1, 1), (0, 0))
    # r1 kills b at its own birth: zero-length bar dropped, a stays essential
    assert as_pairs(restrict_presentation(pres, line)) == [(0, INF)]


def test_restrict_presentation_invalid():
    pres = Presentation(
        generators=(("a", (Q(2), Q(2))),),
        relations=(("r", (Q(3), Q(1)), frozenset({"a"})),))
    line = normalize_line((1, 1), (0, 0))
    with pytest.raises(InvalidPresentation):
        restrict_presentation(pres, line)


def test_duplicate_rects_give_duplicate_bars():
    m = TwoParamModule.from_rects([rect(0, 0, 5, 5)] * 3)
    line = normalize_line((1, 1), (0, 0))
    assert as_pairs(restrict_module(m, line)) == [(0, 5)] * 3


def test_diagram_sorted():
    m = TwoParamModule.from_rects(
        [rect(3, 3, 9, 9), rect(0, 0, 5, 5), rect(0, 0, 4, 7)])
    line = normalize_line((1, 1), (0, 0))
    got = restrict_module(m, line)
    assert list(got) == sorted(got, key=lambda b: (b.birth, b.death))


def test_infinite_death_sorts_last_among_tied_births(monkeypatch):
    """Bars of tied births sort by death with the infinite one last, on a
    rectangle module and on its presentation, and no rational is ordered
    against the float INF on the way: not in pull_param, Bar, restrict_rect
    or the diagram's sort."""
    m = TwoParamModule.from_rects(
        [rect(0, 0, INF, INF), rect(0, 0, 5, 5), rect(1, 0, 2, INF),
         rect(0, 0, INF, 7), rect(0, 0, 3, 9)])
    p = combined_presentation(m)
    line = normalize_line((1, 1), (0, 0))
    richcmp = Fraction._richcmp

    def no_float(self, other, op):
        assert not isinstance(other, float), "rational ordered against INF"
        return richcmp(self, other, op)

    monkeypatch.setattr(Fraction, "_richcmp", no_float)
    want = [(0, 3), (0, 5), (0, 7), (0, INF), (1, 2)]
    assert as_pairs(restrict_module(m, line)) == want
    assert as_pairs(restrict_module(p, line)) == want
    assert Bar(Q(0), INF).death == INF
    with pytest.raises(ValueError):
        Bar(INF, INF)


def test_rect_vs_presentation_restriction_agree():
    rng = random.Random(20260816)
    for _ in range(120):
        m = rand_rect_module(rng, max_rects=3)
        p = combined_presentation(m)
        line = rand_line(rng)
        assert restrict_module(m, line) == restrict_module(p, line)
