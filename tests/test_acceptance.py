"""Acceptance suite: nine numbered criteria, one test and one printed
pass/fail line each.  Each criterion asserts its semantic checks and its
wall-clock budget; random data is seeded so reruns are identical."""
import random
import time
from contextlib import contextmanager

from conftest import (combined_presentation, ex_diag_not_suff, ex_need_diag,
                      ex_need_omega, rand_diagram, rand_line, rand_pool,
                      rand_rat, rand_rect_module)
from matchdist.bottleneck import bottleneck
from matchdist.cli import main
from matchdist.exactdist import (SwitchPointSet, matching_distance,
                                 switch_points, vertical_cost,
                                 horizontal_cost)
from matchdist.fibered import restrict_module
from matchdist.geometry import (ProjPoint, line_through, normalize_line,
                                weight)
from matchdist.gridscan import GridSpec, restricted_max, scan
from matchdist.modules import (TwoParamModule, critical_values, rect, scale,
                               translate)
from matchdist.rational import INF, Q
from oracles import bottleneck_bruteforce


@contextmanager
def criterion(num, label, budget):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print("CRITERION %d FAIL  %s (%.2fs)"
              % (num, label, time.perf_counter() - t0))
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed < budget
    print("CRITERION %d %s  %s (%.2fs, budget %ds)"
          % (num, "PASS" if ok else "FAIL", label, elapsed, budget))
    assert ok, "runtime budget exceeded: %.2fs >= %ds" % (elapsed, budget)


def test_criterion_1_split_swap_golden(tmp_path, capsys):
    with criterion(1, "split-swap example golden values", 10):
        M, N = ex_diag_not_suff()
        L = line_through((0, 0), (7, 11))
        assert bottleneck(restrict_module(M, L),
                          restrict_module(N, L))[0] == 4
        assert weight(L) == Q(7, 11)

        res = matching_distance(M, N)
        assert res.value >= Q(28, 11)

        a = tmp_path / "a"
        b = tmp_path / "b"
        a.write_text("rect 0 0 7 7\nrect 0 4 7 11\n")
        b.write_text("rect 0 0 7 11\nrect 0 4 7 7\n")
        assert main(["dist", str(a), str(b)]) == 0
        printed = Q(capsys.readouterr().out.split()[0])
        assert printed >= Q(28, 11) and printed == res.value

        grid = scan(M, N, GridSpec(1000, 1000)).max_value
        assert abs(float(res.value) - grid) < 0.02


def test_criterion_2_interior_pivot_golden():
    with criterion(2, "interior-pivot example golden values", 30):
        M, N = ex_need_omega()
        L = line_through((Q(7, 2), 6), (7, 11))
        assert bottleneck(restrict_module(M, L),
                          restrict_module(N, L))[0] == 3
        assert weight(L) == Q(7, 10)

        cp = restricted_max(M, N, GridSpec(2, 2), "critical_pairs_only")
        assert abs(cp - float(Q(21, 11))) < 1e-9

        # offset spacing 1/2 puts 2.5 on the grid; the slope-1 line there
        # attains the family maximum exactly
        diag = restricted_max(M, N, GridSpec(2, 81), "diagonal_only")
        assert abs(diag - 1.5) < 1e-9
        L25 = normalize_line((1, 1), (0, Q(5, 2)))
        assert weight(L25) * bottleneck(restrict_module(M, L25),
                                        restrict_module(N, L25))[0] == \
            Q(3, 2)

        res = matching_distance(M, N)
        assert res.value >= Q(21, 10)

        sp = switch_points(set(critical_values(M))
                           | set(critical_values(N)))
        assert (Q(7, 2), Q(6)) in sp.proper

        assert float(res.value) > cp
        assert float(res.value) > diag


def test_criterion_3_infinite_strips_value():
    with criterion(3, "infinite-strips example value vs dense grid", 10):
        M, N = ex_need_diag()
        res = matching_distance(M, N)
        # qualitative picture: a slope <= 1 line, and the slope-1 line
        # through (2, 2) attains the same value
        assert res.witness_line.m[1] <= res.witness_line.m[0]
        L = normalize_line((1, 1), (2, 2))
        assert weight(L) * bottleneck(restrict_module(M, L),
                                      restrict_module(N, L))[0] == res.value
        grid = scan(M, N, GridSpec(2000, 2000)).max_value
        assert abs(float(res.value) - grid) < 0.01


def test_criterion_4_bottleneck_bruteforce():
    with criterion(4, "bottleneck equals brute force, 500 pairs", 5):
        rng = random.Random(4)
        for _ in range(500):
            d1, d2 = rand_diagram(rng), rand_diagram(rng)
            assert bottleneck(d1, d2)[0] == bottleneck_bruteforce(d1, d2)


def test_criterion_5_restriction_equivalence():
    with criterion(5, "rectangle vs presentation restriction, 200x20", 10):
        rng = random.Random(55)
        for _ in range(200):
            M = rand_rect_module(rng)
            P = combined_presentation(M)
            for _ in range(20):
                L = rand_line(rng)
                assert restrict_module(M, L) == restrict_module(P, L)


def test_criterion_6_pseudometric_equivariance():
    with criterion(6, "pseudo-metric and equivariance, 50 triples", 120):
        rng = random.Random(6)
        sizes = [4] * 35 + [5] * 12 + [6] * 3
        rng.shuffle(sizes)
        for size in sizes:
            pool = rand_pool(rng, size)
            A = rand_rect_module(rng, max_rects=3, pool=pool, p_inf=0)
            B = rand_rect_module(rng, max_rects=3, pool=pool, p_inf=0)
            C = rand_rect_module(rng, max_rects=3, pool=pool, p_inf=0)
            dab = matching_distance(A, B).value
            assert matching_distance(B, A).value == dab
            dbc = matching_distance(B, C).value
            dac = matching_distance(A, C).value
            assert dac <= dab + dbc
            t = (rand_rat(rng, 0, 3), rand_rat(rng, 0, 3))
            assert matching_distance(translate(A, t),
                                     translate(B, t)).value == dab
            for lam in (Q(1, 2), Q(3)):
                assert matching_distance(scale(A, lam),
                                         scale(B, lam)).value == lam * dab


def test_criterion_7_grid_dominance():
    with criterion(7, "grid samples below exact value, 20 pairs", 120):
        rng = random.Random(77)
        for _ in range(20):
            pool = rand_pool(rng, rng.choice([4, 4, 5]))
            M = rand_rect_module(rng, max_rects=3, pool=pool, p_inf=0.15)
            N = rand_rect_module(rng, max_rects=3, pool=pool, p_inf=0.15)
            exact = float(matching_distance(M, N).value)
            res = scan(M, N, GridSpec(100, 100))
            assert res.max_value <= exact + 1e-9
            assert all(r.weighted_cost <= exact + 1e-9 for r in res.rows)


def test_criterion_8_axis_limit_diagnostics():
    with criterion(8, "vertical/horizontal limit diagnostics", 10):
        M8 = TwoParamModule.from_rects([rect(2, 2, 7, INF)])
        N8 = TwoParamModule.from_rects([rect(2, 2, 10, INF)])
        assert vertical_cost(M8, N8, 8) == 1
        assert vertical_cost(M8, N8, 8, anchor_height=101) == 1
        for M, N in (ex_diag_not_suff(), ex_need_omega(), ex_need_diag()):
            d = matching_distance(M, N).value
            for c0 in (Q(5), Q(8)):
                v = vertical_cost(M, N, c0)
                assert v == vertical_cost(M, N, c0, anchor_height=999)
                h = horizontal_cost(M, N, c0)
                assert h == horizontal_cost(M, N, c0, anchor_height=999)
                assert v <= d and h <= d


def test_criterion_9_switch_superset_safety():
    with criterion(9, "extra switch directions leave the value fixed", 60):
        rng = random.Random(9)
        for M, N in (ex_diag_not_suff(), ex_need_omega(), ex_need_diag()):
            base = matching_distance(M, N)
            dirs = frozenset(ProjPoint.of(0, rng.randint(1, 12),
                                          rng.randint(1, 12))
                             for _ in range(10))
            extra = SwitchPointSet(frozenset(), dirs)
            res = matching_distance(M, N, extra)
            assert res.value == base.value
