"""Two-parameter persistence modules and their critical values.

A module is either rectangle-decomposable (a multiset of half-open support
rectangles, upper corners possibly infinite) or given by a graded free
presentation over the two-element field.  Critical values are the grades of
generators and relators; the least-upper-bound closure of a finite point set
lives on the grid of its coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .rational import INF, is_inf, rat


def _coord(x):
    return INF if x == "inf" or is_inf(x) else rat(x)


@dataclass(frozen=True)
class Rect:
    """Support rectangle [lower1, upper1) x [lower2, upper2).

    The lower corner is finite; upper coordinates may be +inf.  Both
    inequalities lower < upper are strict.  Every coordinate is made exact
    at construction by _coord, which also takes "inf" and numpy's infinity
    to INF, so an infinite lower coordinate, in any of these spellings,
    raises ValueError("lower corner must be finite").
    """

    lower: tuple
    upper: tuple

    def __post_init__(self):
        l1, l2 = lower = tuple(map(_coord, self.lower))
        if is_inf(l1) or is_inf(l2):
            raise ValueError("lower corner must be finite")
        u1, u2 = upper = tuple(map(_coord, self.upper))
        # the lower corner is finite, so an infinite upper needs no
        # comparison, which would take Fraction's float path
        if not ((is_inf(u1) or l1 < u1) and (is_inf(u2) or l2 < u2)):
            raise ValueError("rectangle needs lower < upper in both coordinates")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


def rect(x1, y1, x2, y2) -> Rect:
    """Convenience constructor; accepts ints, strings, rationals, and inf."""
    return Rect((x1, y1), (x2, y2))


@dataclass(frozen=True)
class Presentation:
    """Graded free presentation over the two-element field.

    generators: tuple of (name, grade) with grade a finite point.
    relations: tuple of (name, grade, column) where column is a frozenset of
    generator names carrying coefficient 1.
    Every grade is made exact by rat at construction, so an infinite or
    NaN float grade, or a string that is no number, raises ValueError, and
    a grade of another type, such as None, raises TypeError, as in rect.
    """

    generators: tuple
    relations: tuple

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(
            (n, (rat(g[0]), rat(g[1]))) for n, g in self.generators))
        object.__setattr__(self, "relations", tuple(
            (n, (rat(g[0]), rat(g[1])), c) for n, g, c in self.relations))

    def grade_violation(self):
        """First structural defect as a message string, or None if valid."""
        bad = self.violation
        return None if bad is None else bad[1]

    @cached_property
    def violation(self):
        """(index, message) of the first structural defect, or None if
        valid; the index counts the generators first, then the relations.

        Checks duplicate generator names, unknown names in relation columns,
        and the requirement that a relation's grade dominates the grade of
        every generator in its column componentwise.  The presentation is
        immutable, so the checks run once and their result is kept.
        """
        grades = {}
        for i, (name, grade) in enumerate(self.generators):
            if name in grades:
                return i, "duplicate generator name %r" % name
            grades[name] = grade
        for i, (name, grade, column) in enumerate(self.relations,
                                                  len(self.generators)):
            for gen in sorted(column):
                if gen not in grades:
                    return i, ("relation %r references unknown generator %r"
                               % (name, gen))
                g = grades[gen]
                if not (grade[0] >= g[0] and grade[1] >= g[1]):
                    return i, ("relation %r at (%s, %s) is below generator "
                               "%r at (%s, %s)"
                               % (name, grade[0], grade[1], gen, g[0], g[1]))
        return None


@dataclass(frozen=True)
class TwoParamModule:
    """Exactly one of: a multiset of rectangles, or a presentation."""

    rectangles: tuple | None = None
    presentation: Presentation | None = None

    def __post_init__(self):
        if (self.rectangles is None) == (self.presentation is None):
            raise ValueError("exactly one of rectangles/presentation must be set")

    @classmethod
    def from_rects(cls, rects) -> "TwoParamModule":
        return cls(rectangles=tuple(rects))

    @classmethod
    def from_presentation(cls, pres: Presentation) -> "TwoParamModule":
        return cls(presentation=pres)

    @property
    def is_trivial(self) -> bool:
        """Structurally trivial: no rectangles, or no generators."""
        if self.rectangles is not None:
            return len(self.rectangles) == 0
        return len(self.presentation.generators) == 0


def critical_values(module: TwoParamModule) -> frozenset:
    """Grades of generators and relators, deduplicated; empty iff trivial.

    A rectangle [u, v) contributes its generator grade u and one relator grade
    per finite upper coordinate: (v1, u2) and (u1, v2); infinite relator grades
    are omitted (no relation exists in that direction).
    """
    out = set()
    if module.rectangles is not None:
        for r in module.rectangles:
            l1, l2 = r.lower
            u1, u2 = r.upper
            out.add((l1, l2))
            if not is_inf(u1):
                out.add((u1, l2))
            if not is_inf(u2):
                out.add((l1, u2))
    else:
        for _, grade in module.presentation.generators:
            out.add(grade)
        for _, grade, _ in module.presentation.relations:
            out.add(grade)
    return frozenset(out)


def lub_closure(points) -> frozenset:
    """Smallest superset of the given finite points closed under pairwise
    componentwise maximum.

    A grid point (x, y) belongs to the closure iff some input point realizes x
    with second coordinate <= y and some input point realizes y with first
    coordinate <= x (any lub of a subset is the lub of two such witnesses):
    iff the least second coordinate among the input points at x is <= y, and
    the least first coordinate among those at y is <= x.
    """
    low_y, low_x = {}, {}
    for p in points:
        x, y = p[0], p[1]
        low_y[x] = min(low_y.get(x, y), y)
        low_x[y] = min(low_x.get(y, x), x)
    return frozenset((x, y) for x, ly in low_y.items()
                     for y, lx in low_x.items() if ly <= y and lx <= x)


def rect_as_presentation(r: Rect) -> Presentation:
    """Canonical free presentation of a rectangle module: one generator at the
    lower corner, one relation per finite upper coordinate."""
    rels = []
    l1, l2 = r.lower
    u1, u2 = r.upper
    if not is_inf(u1):
        rels.append(("r1", (u1, l2), frozenset({"g"})))
    if not is_inf(u2):
        rels.append(("r2", (l1, u2), frozenset({"g"})))
    return Presentation(generators=(("g", (l1, l2)),), relations=tuple(rels))


def _transform(module: TwoParamModule, f) -> TwoParamModule:
    """The module with every grade, corners included, mapped by f."""
    if module.rectangles is not None:
        return TwoParamModule.from_rects(Rect(f(r.lower), f(r.upper))
                                         for r in module.rectangles)
    pres = module.presentation
    gens = tuple((n, f(g)) for n, g in pres.generators)
    rels = tuple((n, f(g), col) for n, g, col in pres.relations)
    return TwoParamModule.from_presentation(Presentation(gens, rels))


def translate(module: TwoParamModule, t) -> TwoParamModule:
    """Translate every grade by the finite vector t."""
    t = (rat(t[0]), rat(t[1]))
    return _transform(module, lambda p: tuple(
        INF if is_inf(c) else c + s for c, s in zip(p, t)))


def scale(module: TwoParamModule, factor) -> TwoParamModule:
    """Scale every grade by a positive rational factor."""
    f = rat(factor)
    if f <= 0:
        raise ValueError("scale factor must be positive")
    return _transform(module, lambda p: tuple(
        INF if is_inf(c) else c * f for c in p))


def swap_axes(module: TwoParamModule) -> TwoParamModule:
    """Mirror the module across the diagonal (swap the two parameters)."""
    return _transform(module, lambda p: (p[1], p[0]))
