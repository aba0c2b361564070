"""Exact rational scalars plus the +infinity marker used for open-ended deaths.

gmpy2's mpq is used when available (it is much faster); fractions.Fraction
otherwise.  Both types parse "p/q" and decimal strings, reduce to canonical
form, and hash compatibly.  Infinity is represented by float("inf"), which
compares correctly against both rational types; it never enters exact
arithmetic except through the explicit helpers below.
"""
from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as Q
except ImportError:  # gmpy2 missing: the slower, equally exact stdlib type
    Q = Fraction

INF = float("inf")


def rat(x):
    """Convert x to an exact rational.

    Accepts ints, rationals, Fractions, floats (converted via their exact
    binary value) and strings: integers ("7"), decimals ("2.5", exact) and
    fractions ("7/11").  Infinity is rejected; callers handle it separately.
    A value already of type Q is returned as it is.
    """
    if type(x) is Q:
        return x
    if isinstance(x, float):
        if x != x or x == INF or x == -INF:
            raise ValueError("not a finite number: %r" % x)
        return Q(Fraction(x))
    if isinstance(x, str):
        return Q(Fraction(x))
    return Q(x)


def ext_abs_diff(a, b):
    """|a - b| under the matching conventions: inf-inf = 0, inf-finite = inf."""
    ai = a == INF
    bi = b == INF
    if ai and bi:
        return Q(0)
    if ai or bi:
        return INF
    return abs(a - b)


def fmt(x) -> str:
    """Render a rational or infinity as a plain fraction string."""
    return "inf" if x == INF else str(x)
