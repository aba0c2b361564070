"""Exact plane geometry for positive-slope lines in a standard normalization.

A line of positive slope is stored by its direction m = (m1, m2) with
max(m1, m2) = 1 and its offset b = (b1, b2) with b1 + b2 = 0; this pins a
unique representative per geometric line, so lines compare and hash by value.
The parameterization of a line is s -> b + s*m; push_param/pull_param give the
parameters at which the line enters the upper cone of a point and leaves the
lower set of a (possibly unbounded) corner.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .rational import INF, is_inf, rat


class NonPositiveDirection(ValueError):
    """Raised when a line direction has a zero or negative component."""


@dataclass(frozen=True)
class ProjPoint:
    """Point of the projective plane in canonical integer coordinates.

    Canonical form: the three integers have gcd 1 and the first nonzero one is
    positive, so equal projective points are equal values.  Points on the line
    at infinity have h0 = 0 and stand for directions (h1, h2).
    """

    h0: int
    h1: int
    h2: int

    @staticmethod
    def of(h0, h1, h2) -> "ProjPoint":
        """Canonicalize homogeneous coordinates given as rationals or ints."""
        q = (rat(h0), rat(h1), rat(h2))
        if not any(q):
            raise ValueError("all-zero homogeneous coordinates")
        den = lcm(*(int(c.denominator) for c in q))
        n = [int(c * den) for c in q]
        g = gcd(*n)
        n = [c // g for c in n]
        lead = next(c for c in n if c != 0)
        if lead < 0:
            n = [-c for c in n]
        return ProjPoint(n[0], n[1], n[2])

    @property
    def at_infinity(self) -> bool:
        return self.h0 == 0


@dataclass(frozen=True)
class Line:
    """Positive-slope line in standard normalization: m1, m2 > 0,
    max(m1, m2) = 1 and b1 + b2 = 0, checked as rational comparisons."""

    m: tuple
    b: tuple

    def __post_init__(self):
        m1, m2 = self.m
        b1, b2 = self.b
        if not (m1 > 0 and m2 > 0):
            raise NonPositiveDirection("direction must be componentwise positive")
        if max(m1, m2) != 1 or b1 + b2 != 0:
            raise ValueError("line not in standard normalization")


def normalize_line(direction, through) -> Line:
    """Build the normalized Line with the given direction through a point.

    Args:
        direction: pair of positive rationals (any scale).
        through: finite point the line passes through.

    Raises:
        NonPositiveDirection: if any direction component is <= 0.
    """
    d1, d2 = rat(direction[0]), rat(direction[1])
    if d1 <= 0 or d2 <= 0:
        raise NonPositiveDirection(
            "direction (%s, %s) must be componentwise positive" % (d1, d2))
    mx = max(d1, d2)
    m1, m2 = d1 / mx, d2 / mx
    p1, p2 = rat(through[0]), rat(through[1])
    s = (p1 + p2) / (m1 + m2)
    return Line((m1, m2), (p1 - s * m1, p2 - s * m2))


def weight(line: Line):
    """The minimal direction coordinate, in (0, 1]."""
    return min(line.m)


def push_param(line: Line, u):
    """Parameter at which the line enters the upper cone of the finite point u."""
    (m1, m2), (b1, b2) = line.m, line.b
    u1, u2 = rat(u[0]), rat(u[1])
    if m2 * (u1 - b1) > m1 * (u2 - b2):
        return (u1 - b1) / m1
    return (u2 - b2) / m2


def pull_param(line: Line, v):
    """Parameter at which the line leaves the lower set of v; coordinates of v
    may be +inf, with the convention (inf - b)/m = inf.  An infinite
    coordinate is tested with is_inf, so no rational is ordered against
    the float INF."""
    (m1, m2), (b1, b2) = line.m, line.b
    v1, v2 = v
    if is_inf(v1):
        return INF if is_inf(v2) else (rat(v2) - b2) / m2
    c1 = (rat(v1) - b1) / m1
    return c1 if is_inf(v2) else min(c1, (rat(v2) - b2) / m2)


def line_through(p, q):
    """The normalized line through two finite points, or None if the segment
    is vertical, horizontal, or of negative slope."""
    dx = rat(q[0]) - rat(p[0])
    dy = rat(q[1]) - rat(p[1])
    if dx == 0 or dy == 0 or (dx > 0) != (dy > 0):
        return None
    if dx < 0:
        dx, dy = -dx, -dy
    return normalize_line((dx, dy), p)


def line_through_infinite(p, d: ProjPoint):
    """The normalized line through the finite point p with direction d, a point
    on the line at infinity; None unless both direction coordinates are
    positive."""
    if d.h0 != 0:
        raise ValueError("direction must lie on the line at infinity")
    if d.h1 <= 0 or d.h2 <= 0:
        return None
    return normalize_line((d.h1, d.h2), p)
