import random

from conftest import ex_need_omega
from matchdist.exactdist import switch_points
from matchdist.geometry import ProjPoint
from matchdist.modules import critical_values
from matchdist.rational import Q
from oracles import switch_points_quadruples


def test_matches_quadruple_oracle():
    """switch_points equals the quadruple loop on sets of up to 5 points,
    and on sets of 6 to 10, as many as a pair of rectangle modules has
    critical values, drawn from four values of either sign per axis, so
    that coordinates and points repeat."""
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(0, 5)
        pts = [(Q(rng.randint(0, 8), rng.randint(1, 2)),
                Q(rng.randint(0, 8), rng.randint(1, 2))) for _ in range(n)]
        _assert_as_quadruples(pts)
    for _ in range(8):
        xs, ys = ([Q(rng.randint(-8, 8), rng.randint(1, 2)) for _ in range(4)]
                  for _ in range(2))
        pts = [(rng.choice(xs), rng.choice(ys))
               for _ in range(rng.randint(6, 10))]
        _assert_as_quadruples(pts)


def _assert_as_quadruples(pts):
    got = switch_points(pts)
    want_proper, want_inf = switch_points_quadruples(pts)
    assert set(got.proper) == want_proper
    assert set(got.at_infinity) == want_inf


def test_small_inputs():
    diag = ProjPoint.of(0, 1, 1)
    for pts in ([], [(Q(1), Q(2))], [(Q(0), Q(0)), (Q(3), Q(5))]):
        sp = switch_points(pts)
        # fewer than three distinct points cannot generate anything
        assert sp.proper == frozenset()
        assert sp.at_infinity == frozenset({diag})


def test_invariants():
    rng = random.Random(3)
    pts = [(Q(rng.randint(0, 9)), Q(rng.randint(0, 9))) for _ in range(5)]
    sp = switch_points(pts)
    assert ProjPoint.of(0, 1, 1) in sp.at_infinity
    for d in sp.at_infinity:
        assert d.h0 == 0 and d.h1 > 0 and d.h2 > 0


def test_known_proper_point():
    m, n = ex_need_omega()
    C = set(critical_values(m)) | set(critical_values(n))
    sp = switch_points(C)
    assert (Q(7, 2), Q(6)) in sp.proper


def test_known_infinite_direction():
    sp = switch_points([(0, 4), (0, 0), (7, 0)])
    assert ProjPoint.of(0, 7, 4) in sp.at_infinity


def test_duplicate_points_ignored():
    pts = [(Q(0), Q(0)), (Q(1), Q(2)), (Q(4), Q(1))]
    assert switch_points(pts) == switch_points(pts * 3)
