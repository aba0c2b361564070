"""Restriction of a 2-parameter module to a positive-slope line.

The restriction is a 1-parameter module in the line's parameterization; for a
rectangle the bar is [push of the lower corner, pull of the upper corner), and
for a presentation the barcode comes from the standard left-to-right column
reduction of the relation matrix with grades mapped through push_param.
Diagrams are returned as tuples of bars sorted by (birth, death), so equality
of diagrams is multiset equality.
"""
from __future__ import annotations

from dataclasses import dataclass

from .geometry import Line, pull_param, push_param
from .modules import Presentation, Rect, TwoParamModule
from .rational import INF, is_inf


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


def _sorted_diagram(bars) -> tuple:
    """Bars sorted by (birth, death); an infinite death sorts last through
    its is_inf flag, so no rational is ordered against the float INF."""
    return tuple(sorted(bars, key=lambda b: (b.birth, is_inf(b.death),
                                             b.death)))


def restrict_rect(r: Rect, line: Line):
    """Bar of a rectangle module on the line, or None if it misses the line."""
    birth = push_param(line, r.lower)
    death = pull_param(line, r.upper)
    if is_inf(death) or birth < death:
        return Bar(birth, death)
    return None


def restrict_module(module: TwoParamModule, line: Line) -> tuple:
    """Persistence diagram of the restriction of the module to the line."""
    if module.rectangles is not None:
        bars = []
        for r in module.rectangles:
            bar = restrict_rect(r, line)
            if bar is not None:
                bars.append(bar)
        return _sorted_diagram(bars)
    return restrict_presentation(module.presentation, line)


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
        InvalidPresentation: as restrict_presentation does.
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


def restrict_presentation(pres: Presentation, line: Line) -> tuple:
    """Barcode of a presented module restricted to the line.

    Generators and relations are sorted by the push parameter of their grade
    (stable on ties by input order).  Columns are reduced left to right over
    the two-element field (reduce_columns); a column's pivot is its
    generator of largest birth parameter.  Pivoted columns yield finite bars
    (zero-length ones dropped), unpivoted generators yield essential bars.

    Raises:
        InvalidPresentation: if a relation grade fails the componentwise
            dominance invariant (or a column references an unknown name).
    """
    gens = _validated(pres).generators
    push = [push_param(line, grade) for _, grade in gens]
    order = sorted(range(len(gens)), key=lambda i: (push[i], i))
    birth = [push[i] for i in order]
    rank = {gens[i][0]: r for r, i in enumerate(order)}

    rels = pres.relations
    death = [push_param(line, grade) for _, grade, _ in rels]
    rel_order = sorted(range(len(rels)), key=lambda j: (death[j], j))

    pairs, free = reduce_columns(
        ({rank[name] for name in rels[j][2]} for j in rel_order), len(gens))
    bars = [Bar(birth[r], death[rel_order[c]]) for r, c in pairs
            if birth[r] < death[rel_order[c]]]
    bars += [Bar(birth[r], INF) for r in free]
    return _sorted_diagram(bars)
