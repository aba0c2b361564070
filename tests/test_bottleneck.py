import random
import sys

import pytest

from conftest import rand_diagram
from matchdist.bottleneck import MatchingWitness, bottleneck
from matchdist.fibered import Bar
from matchdist.rational import INF, Q
from oracles import (TooLarge, bottleneck_bruteforce, essential_bruteforce,
                     matching_cost)

# the package exports the function bottleneck under the module's name
bn = sys.modules["matchdist.bottleneck"]


def dgm(*pairs):
    return tuple(Bar(Q(b) if b != INF else b, Q(d) if d != INF else d)
                 for b, d in pairs)


def check_witness(d1, d2, cost, w: MatchingWitness):
    assert w.cost == cost
    used1 = {i for i, _ in w.pairs}
    used2 = {j for _, j in w.pairs}
    diag1 = {i for s, i in w.unmatched_to_diagonal if s == 1}
    diag2 = {j for s, j in w.unmatched_to_diagonal if s == 2}
    assert used1 | diag1 == set(range(len(d1)))
    assert used2 | diag2 == set(range(len(d2)))
    assert not used1 & diag1 and not used2 & diag2
    assert len(used1) == len(w.pairs) and len(used2) == len(w.pairs)
    assert matching_cost(d1, d2, w.pairs) == cost
    if w.realizer is not None:
        s, t, delta = w.realizer
        assert abs(s - t) / delta == cost
    elif cost != INF:
        assert cost == 0


def test_empty():
    cost, w = bottleneck((), ())
    assert cost == 0 and w.pairs == () and w.realizer is None


def test_known_values():
    d1 = dgm((0, 7), (4, 11))
    d2 = dgm((0, 11), (4, 7))
    cost, w = bottleneck(d1, d2)
    assert cost == 4
    check_witness(d1, d2, cost, w)

    d1 = dgm((Q(10, 17), Q(129, 17)), (Q(61, 17), Q(180, 17)))
    d2 = dgm((Q(61, 17), Q(129, 17)), (Q(10, 17), Q(180, 17)))
    cost, w = bottleneck(d1, d2)
    assert cost == 3
    check_witness(d1, d2, cost, w)

    d1 = dgm((1, 8), (4, 11))
    d2 = dgm((4, 8), (1, 11))
    cost, w = bottleneck(d1, d2)
    assert cost == 3
    check_witness(d1, d2, cost, w)


def test_diagonal_beats_pairing():
    # cheaper to drop both tiny bars than to match across
    d1 = dgm((0, 1))
    d2 = dgm((100, 101))
    cost, w = bottleneck(d1, d2)
    assert cost == Q(1, 2)
    assert w.pairs == ()
    assert set(w.unmatched_to_diagonal) == {(1, 0), (2, 0)}
    check_witness(d1, d2, cost, w)


def test_essential_conventions():
    cost, _ = bottleneck(dgm((0, INF)), dgm((5, INF)))
    assert cost == 5
    cost, w = bottleneck(dgm((0, INF)), ())
    assert cost == INF and w.realizer is None
    cost, _ = bottleneck(dgm((0, INF), (0, 3)), dgm((1, INF)))
    assert cost == Q(3, 2)
    # essential bars must pair in birth order
    cost, w = bottleneck(dgm((0, INF), (10, INF)), dgm((2, INF), (11, INF)))
    assert cost == 2
    assert w.pairs == ((0, 0), (1, 1))


def test_mixed_essential_blocks_finite_pairing():
    # the finite bar cannot absorb the essential one
    d1 = dgm((0, INF), (5, 6))
    d2 = dgm((0, INF))
    cost, w = bottleneck(d1, d2)
    assert cost == Q(1, 2)
    check_witness(d1, d2, cost, w)


def test_realizer_ratio_forms():
    # cost realized by a birth difference
    cost, w = bottleneck(dgm((0, 10)), dgm((3, 10)))
    assert cost == 3 and w.realizer == (Q(0), Q(3), 1)
    # cost realized by a half-persistence
    cost, w = bottleneck(dgm((0, 8)), ())
    assert cost == 4 and w.realizer == (Q(0), Q(8), 2)


# Diagrams whose optimal matchings tie (equal pair costs, half-lengths
# equal to pair costs, tied essential births), with the whole witness
# bottleneck returns for them: which optimal matching it picks is pinned.
GOLDEN = [
    (((0, 4), (0, 4)), ((0, 4), (0, 4)),
     MatchingWitness(((0, 1), (1, 0)), (), Q(0), (Q(0), Q(0), 1))),
    (((0, 4), (0, 4), (2, 6)), ((1, 5), (1, 5)),
     MatchingWitness(((2, 0),), ((1, 0), (1, 1), (2, 1)), Q(2),
                     (Q(1), Q(5), 2))),
    (((0, 2), (1, 3)), ((1, 3), (2, 4)),
     MatchingWitness(((1, 0),), ((1, 0), (2, 1)), Q(1), (Q(2), Q(4), 2))),
    (((0, INF), (0, INF), (1, 3)), ((0, INF), (0, INF), (2, 4)),
     MatchingWitness(((0, 0), (1, 1)), ((1, 2), (2, 2)), Q(1),
                     (Q(2), Q(4), 2))),
    (((0, INF), (1, INF), (0, 2), (0, 2)), ((1, INF), (0, INF), (1, 3)),
     MatchingWitness(((0, 1), (1, 0)), ((1, 2), (1, 3), (2, 2)), Q(1),
                     (Q(1), Q(3), 2))),
    (((0, 6), (2, 4), (1, 5)), ((1, 5), (0, 6), (3, 5), (0, 2)),
     MatchingWitness(((0, 1), (2, 0)), ((1, 1), (2, 2), (2, 3)), Q(1),
                     (Q(3), Q(5), 2))),
    (((0, 2), (2, 4), (4, 6)), ((1, 3), (3, 5)),
     MatchingWitness(((1, 0),), ((1, 0), (1, 2), (2, 1)), Q(1),
                     (Q(2), Q(1), 1))),
]


@pytest.mark.parametrize("a, b, want", GOLDEN)
def test_tied_matchings_golden(a, b, want):
    d1, d2 = dgm(*a), dgm(*b)
    cost, w = bottleneck(d1, d2)
    assert (cost, w) == (want.cost, want)
    check_witness(d1, d2, cost, w)


def test_bruteforce_guard():
    big = dgm(*[(i, i + 1) for i in range(9)])
    with pytest.raises(TooLarge):
        bottleneck_bruteforce(big, ())


def test_matches_bruteforce_random():
    rng = random.Random(98765)
    for _ in range(250):
        d1 = rand_diagram(rng, max_bars=4)
        d2 = rand_diagram(rng, max_bars=4)
        cost, w = bottleneck(d1, d2)
        assert cost == bottleneck_bruteforce(d1, d2)
        check_witness(d1, d2, cost, w)


def _tied_diagram(rng, finite, essential):
    """Coarse endpoints, so costs tie within and across the sides."""
    bars = []
    for _ in range(finite):
        b = Q(rng.randint(0, 8), rng.randint(1, 2))
        bars.append(Bar(b, b + Q(rng.randint(1, 6), rng.randint(1, 2))))
    bars += [Bar(Q(rng.randint(0, 8), rng.randint(1, 2)), INF)
             for _ in range(essential)]
    rng.shuffle(bars)
    return tuple(bars)


def test_matching_rule_does_not_change_witness(monkeypatch):
    """The dynamic program and the threshold search give the same cost, so
    bottleneck() returns the same witness whichever the size rule picks:
    with every diagram sent to the search (cap 0) or to the dynamic
    program (cap 8)."""
    rng = random.Random(2024)
    cases = []
    for _ in range(300):
        e1 = rng.randint(0, 2)
        e2 = e1 if rng.random() < 0.9 else rng.randint(0, 2)
        cases.append((_tied_diagram(rng, rng.randint(0, 7), e1),
                      _tied_diagram(rng, rng.randint(0, 7), e2)))
    want = [bottleneck(d1, d2) for d1, d2 in cases]
    for cap in (0, 8):
        monkeypatch.setattr(bn, "_MATCHING_BARS", cap)
        assert [bottleneck(d1, d2) for d1, d2 in cases] == want


def test_small_diagrams_match_once(monkeypatch):
    """Up to the matching cap, the cost comes from the dynamic program and
    the feasibility matcher runs once, for the witness alone."""
    feasible = bn._feasible
    calls = []

    def counted(*args):
        calls.append(args[0])
        return feasible(*args)

    monkeypatch.setattr(bn, "_feasible", counted)
    rng = random.Random(77)
    for _ in range(100):
        e = rng.randint(0, 1)
        d1 = _tied_diagram(rng, rng.randint(2, 4), e)
        d2 = _tied_diagram(rng, rng.randint(2, 4), e)
        calls.clear()
        cost, w = bottleneck(d1, d2)
        assert len(calls) == 1
        check_witness(d1, d2, cost, w)


def test_essential_inorder_optimal():
    rng = random.Random(4242)
    for _ in range(200):
        k = rng.randint(0, 5)
        b1 = [Q(rng.randint(0, 30), rng.randint(1, 3)) for _ in range(k)]
        b2 = [Q(rng.randint(0, 30), rng.randint(1, 3)) for _ in range(k)]
        d1 = tuple(Bar(b, INF) for b in b1)
        d2 = tuple(Bar(b, INF) for b in b2)
        cost, _ = bottleneck(d1, d2)
        assert cost == essential_bruteforce(b1, b2)


def test_symmetry_and_identity():
    rng = random.Random(31337)
    for _ in range(80):
        d1 = rand_diagram(rng, max_bars=4)
        d2 = rand_diagram(rng, max_bars=4)
        c12, _ = bottleneck(d1, d2)
        c21, _ = bottleneck(d2, d1)
        assert c12 == c21
        c11, _ = bottleneck(d1, d1)
        assert c11 == 0


def test_triangle_inequality():
    rng = random.Random(555)
    for _ in range(60):
        ds = [rand_diagram(rng, max_bars=3) for _ in range(3)]
        ab, _ = bottleneck(ds[0], ds[1])
        bc, _ = bottleneck(ds[1], ds[2])
        ac, _ = bottleneck(ds[0], ds[2])
        if ab != INF and bc != INF:
            assert ac <= ab + bc
