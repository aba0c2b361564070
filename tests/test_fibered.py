import random
from fractions import Fraction
from math import lcm

import pytest

from conftest import (combined_presentation, data_presentation,
                      entangled_presentation, ex_diag_not_suff, rand_line,
                      rand_pool, rand_presentation, rand_rect_module,
                      rand_split_presentation)
from matchdist.fibered import Bar, InvalidPresentation, restrict_module
from matchdist.geometry import line_through, normalize_line
from matchdist.modules import (Presentation, TwoParamModule,
                               critical_values, rect)
from matchdist.rational import INF, Q
from oracles import (restrict_module_rational, restrict_presentation,
                     restrict_rect)


def as_pairs(diagram):
    return [(b.birth, b.death) for b in diagram]


def test_bar_validation():
    with pytest.raises(ValueError):
        Bar(Q(3), Q(3))
    with pytest.raises(ValueError):
        Bar(Q(3), Q(2))
    Bar(Q(3), INF)


def one_rect(r):
    return TwoParamModule.from_rects([r])


# The rational oracle's restrict_rect and restrict_presentation, and
# restrict_module on the kernel's integer sides, give the same golden
# diagrams.

def test_restrict_rect_known_line():
    line = line_through((0, 0), (7, 11))
    for r, bar in [(rect(0, 0, 7, 7), Bar(Q(0), Q(7))),
                   (rect(0, 4, 7, 11), Bar(Q(4), Q(11))),
                   (rect(0, 0, 7, 11), Bar(Q(0), Q(11))),
                   (rect(0, 4, 7, 7), Bar(Q(4), Q(7)))]:
        assert restrict_rect(r, line) == bar
        assert restrict_module(one_rect(r), line) == (bar,)


def test_restrict_rect_misses():
    line = normalize_line((1, 1), (10, 0))
    assert restrict_rect(rect(0, 4, 2, 5), line) is None
    assert restrict_module(one_rect(rect(0, 4, 2, 5)), line) == ()


def test_restrict_rect_infinite_upper():
    line = normalize_line((1, 1), (0, 0))
    for r, bar in [(rect(1, 2, INF, INF), Bar(Q(2), INF)),
                   (rect(1, 2, INF, 6), Bar(Q(2), Q(6)))]:
        assert restrict_rect(r, line) == bar
        assert restrict_module(one_rect(r), line) == (bar,)


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
    assert as_pairs(restrict_presentation(pres, line)) == [(0, 2), (1, 2)]
    assert as_pairs(restrict_module(TwoParamModule.from_presentation(pres),
                                    line)) == [(0, 2), (1, 2)]


def test_restrict_presentation_essential_and_zero_length():
    pres = Presentation(
        generators=(("a", (Q(0), Q(0))), ("b", (Q(0), Q(3)))),
        relations=(("r1", (Q(0), Q(3)), frozenset({"a", "b"})),))
    line = normalize_line((1, 1), (0, 0))
    # r1 kills b at its own birth: zero-length bar dropped, a stays essential
    assert as_pairs(restrict_presentation(pres, line)) == [(0, INF)]
    assert as_pairs(restrict_module(TwoParamModule.from_presentation(pres),
                                    line)) == [(0, INF)]


def test_restrict_presentation_invalid():
    pres = Presentation(
        generators=(("a", (Q(2), Q(2))),),
        relations=(("r", (Q(3), Q(1)), frozenset({"a"})),))
    line = normalize_line((1, 1), (0, 0))
    with pytest.raises(InvalidPresentation):
        restrict_presentation(pres, line)
    with pytest.raises(InvalidPresentation):
        restrict_module(TwoParamModule.from_presentation(pres), line)


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
    rectangle module and on its presentation, through restrict_module and
    the rational oracle, and no rational is ordered against the float INF
    on the way: not in pull_param, Bar, restrict_rect, key_diagram or
    either diagram's sort."""
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
    for restrict in (restrict_module, restrict_module_rational):
        assert as_pairs(restrict(m, line)) == want
        assert as_pairs(restrict(p, line)) == want
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


def _modules(rng, rounds):
    """Trivial modules, then per round a rectangle module with infinite
    uppers, its combined and entangled presentations, a random and a split
    presentation over a shared pool, and the H0 presentation of a small
    cloud."""
    yield TwoParamModule.from_rects([])
    yield TwoParamModule.from_presentation(Presentation((), ()))
    yield TwoParamModule.from_presentation(
        Presentation((), (("r", (Q(1, 3), Q(2)), frozenset()),)))
    for _ in range(rounds):
        m = rand_rect_module(rng, max_rects=4, p_inf=0.3)
        yield from (m, combined_presentation(m), entangled_presentation(m))
        pool = rand_pool(rng, 4)
        yield rand_presentation(rng, pool, rng.randint(0, 4),
                                rng.randint(0, 2))
        yield rand_split_presentation(rng, pool, rng.randint(0, 2),
                                      rng.randint(0, 2), rng.randint(0, 1))
        pts = [(rng.randint(0, 6), rng.randint(0, 6))
               for _ in range(rng.randint(1, 4))]
        yield data_presentation(pts, [rng.randint(0, 6) for _ in pts])


def test_restrict_module_matches_rational_oracle():
    """restrict_module, read off the integer sides, gives the rational
    oracle's diagram tuple for tuple, on modules of every form and on lines
    whose b1*(dx + dy) has a denominator that the module's critical values
    do not clear, as well as on rand_line's lines."""
    rng = random.Random(4101)
    uncleared = pairs = 0
    for module in _modules(rng, 40):
        den = lcm(1, *(v.denominator for p in critical_values(module)
                       for v in p))
        for t in range(10):
            if t % 2:
                line = rand_line(rng)
            else:
                m = (Q(rng.randint(1, 8), rng.randint(1, 8)),
                     Q(rng.randint(1, 8), rng.randint(1, 8)))
                line = normalize_line(m, (Q(rng.randint(-12000, 12000),
                                            rng.randint(2, 999)), 0))
            dx, dy = Q(*line.m).as_integer_ratio()
            uncleared += den % (line.b[0] * (dx + dy)).denominator != 0
            pairs += 1
            assert restrict_module(module, line) == \
                restrict_module_rational(module, line)
    assert pairs == 2430 and uncleared > pairs // 3


@pytest.mark.parametrize("gens,rels", [
    ((("a", (2, 2)),), (("r", (3, 1), {"a"}),)),
    ((("a", (0, 0)),), (("r", (1, 1), {"a", "b"}),)),
    ((("a", (0, 0)), ("a", (1, 1))), ()),
], ids=["below", "unknown", "duplicate"])
def test_invalid_presentation_raises_as_oracle(gens, rels):
    """An invalid presentation raises InvalidPresentation with the
    oracle's message."""
    module = TwoParamModule.from_presentation(Presentation(
        gens, tuple((n, g, frozenset(c)) for n, g, c in rels)))
    line = normalize_line((1, 2), (Q(1, 7), 0))
    with pytest.raises(InvalidPresentation) as want:
        restrict_module_rational(module, line)
    with pytest.raises(InvalidPresentation) as got:
        restrict_module(module, line)
    assert str(got.value) == str(want.value)
