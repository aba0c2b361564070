"""The contract of the exact scalar helpers rat, is_inf and fmt, and of
the oracles' ext_abs_diff."""
from fractions import Fraction

import numpy as np
import pytest

from matchdist.rational import INF, Q, fmt, is_inf, rat
from oracles import ext_abs_diff


def test_q_is_fraction():
    assert Q is Fraction


@pytest.mark.parametrize("x, want", [
    (7, Fraction(7)),
    (-3, Fraction(-3)),
    (0.1, Fraction(3602879701896397, 2 ** 55)),
    (np.int64(-12), Fraction(-12)),
    (np.float64(2.5), Fraction(5, 2)),
    ("7", Fraction(7)),
    ("2.5", Fraction(5, 2)),
    ("-7/11", Fraction(-7, 11)),
], ids=["int", "negative-int", "float", "int64", "float64", "int-str",
        "decimal-str", "fraction-str"])
def test_rat_is_exact(x, want):
    got = rat(x)
    assert type(got) is Fraction
    assert got == want


def test_rat_returns_a_fraction_as_it_is():
    x = Fraction(-7, 11)
    assert rat(x) is x


@pytest.mark.parametrize("x", [INF, -INF, float("nan"), np.float64("inf"),
                               "inf"])
def test_rat_rejects_non_finite(x):
    # the CLI reports ValueError and ZeroDivisionError as malformed input
    with pytest.raises(ValueError):
        rat(x)


def test_rat_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        rat("7/0")


def test_is_inf():
    assert is_inf(INF)
    assert is_inf(np.inf)
    assert is_inf(np.float64("inf"))
    assert not is_inf(Fraction(5))
    assert not is_inf(5)
    assert not is_inf(-INF)


def test_ext_abs_diff_conventions():
    assert ext_abs_diff(INF, INF) == 0
    assert type(ext_abs_diff(INF, INF)) is Fraction
    assert is_inf(ext_abs_diff(INF, Fraction(3)))
    assert is_inf(ext_abs_diff(Fraction(3), INF))
    assert ext_abs_diff(Fraction(1, 3), Fraction(5, 6)) == Fraction(1, 2)
    assert ext_abs_diff(Fraction(5, 6), Fraction(1, 3)) == Fraction(1, 2)


def test_fmt():
    assert fmt(INF) == "inf"
    assert fmt(Fraction(-7, 11)) == "-7/11"
    assert fmt(Fraction(4, 2)) == "2"
    assert fmt(3) == "3"
