"""Exact rational scalars plus the +infinity marker used for open-ended deaths.

Every exact value is a fractions.Fraction, exported as Q.  Fraction parses
"p/q" and decimal strings and reduces to canonical form.  Infinity is
represented by float("inf"), which compares correctly against a Fraction; it
never enters exact arithmetic: callers test is_inf first.
"""
from __future__ import annotations

import math
from fractions import Fraction

Q = Fraction

INF = float("inf")


def is_inf(x) -> bool:
    """Whether x is the +infinity marker, numpy's float64 infinity too.  A
    type test first: comparing a Fraction with a float runs
    Fraction.__eq__'s abstract-base-class checks, many times the cost of
    this test, and every exact value is a rational, never a float."""
    return isinstance(x, float) and x == INF


def rat(x):
    """Convert x to an exact rational.

    Accepts ints, Fractions, floats (converted via their exact binary value)
    and strings: integers ("7"), decimals ("2.5", exact) and fractions
    ("7/11").  Infinity is rejected; callers handle it separately.  A
    Fraction is returned as it is.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError("not a finite number: %r" % x)
    return Fraction(x)


def fmt(x) -> str:
    """Render a rational or infinity as a plain fraction string."""
    return "inf" if is_inf(x) else str(x)
