"""Restriction of a 2-parameter module to a positive-slope line.

The restriction is a 1-parameter module in the line's parameterization; for a
rectangle the bar is [push of the lower corner, pull of the upper corner), and
for a presentation the barcode comes from the standard left-to-right column
reduction of the relation matrix (reduce_columns) with generators and
relations ordered by the push parameters of their grades.  restrict_module
reads it off the module's integer side with _fastpath.key_diagram, the
package's one restriction, which every witness reads too.  Diagrams are
returned as tuples of bars sorted by (birth, death), so equality of diagrams
is multiset equality.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .geometry import Line
from .modules import Presentation, TwoParamModule, critical_values
from .rational import Q, is_inf


class InvalidPresentation(ValueError):
    """Raised when a relation grade fails to dominate its column's grades."""


@dataclass(frozen=True)
class Bar:
    """Half-open interval [birth, death), death possibly +inf, birth < death."""

    birth: object
    death: object

    def __post_init__(self):
        if is_inf(self.birth) or not (is_inf(self.death)
                                      or self.birth < self.death):
            raise ValueError("bar needs birth < death")


def restrict_module(module: TwoParamModule, line: Line) -> tuple:
    """Persistence diagram of the restriction of the module to the line,
    read off the module's integer side (_fastpath.key_diagram).

    The line becomes the key (dx, dy, k) with scaling L: dx/dy = m1/m2 in
    lowest terms, c = b1*(dx + dy) and k = c*L, where L is the least common
    denominator of c and of the module's critical values, so that it
    clears every coordinate of the side and c as well.

    Raises:
        InvalidPresentation: if a presentation is malformed.
    """
    # imported here: _fastpath imports Bar, _validated, bar_counts and
    # reduce_columns from this module
    from ._fastpath import _side, key_diagram
    dx, dy = Q(*line.m).as_integer_ratio()
    c = line.b[0] * (dx + dy)
    L = lcm(c.denominator, *(v.denominator for p in critical_values(module)
                             for v in p))
    side = _side(module, lambda v: v.numerator * (L // v.denominator))
    return key_diagram(side, dx, dy, int(c * L), L)


def reduce_columns(columns, rows):
    """Left-to-right column reduction over the two-element field.

    columns holds sets of row indices in processing order; a column's pivot
    is its largest row, and a column whose pivot is taken is added to the
    owner of that pivot until it finds a free pivot or vanishes.  Returns
    (pairs, free): (pivot row, column position) for every column that does
    not reduce to zero, in column order, and the rows among range(rows)
    that are no column's pivot, ascending.  The number of pairs is the rank
    of the matrix, whatever the order of rows and columns.
    """
    owner = {}
    pairs = []
    for c, col in enumerate(columns):
        col = set(col)
        while col:
            piv = max(col)
            seen = owner.get(piv)
            if seen is None:
                owner[piv] = col
                pairs.append((piv, c))
                break
            col ^= seen
    return pairs, [r for r in range(rows) if r not in owner]


def _validated(pres: Presentation) -> Presentation:
    bad = pres.grade_violation()
    if bad is not None:
        raise InvalidPresentation(bad)
    return pres


def bar_counts(module: TwoParamModule) -> tuple:
    """(finite, essential) bar counts shared by every restriction of the
    module, zero-length bars included.

    A rectangle with some finite upper coordinate gives one finite bar, one
    with none an essential bar.  A presentation of rank r over n generators
    gives r finite bars and n - r essential ones on every line.

    Raises:
        InvalidPresentation: if a presentation is malformed.
    """
    if module.rectangles is not None:
        ess = sum(1 for r in module.rectangles
                  if is_inf(r.upper[0]) and is_inf(r.upper[1]))
        return len(module.rectangles) - ess, ess
    pres = _validated(module.presentation)
    idx = {name: i for i, (name, _) in enumerate(pres.generators)}
    pairs, free = reduce_columns(
        ({idx[n] for n in col} for _, _, col in pres.relations), len(idx))
    return len(pairs), len(free)
