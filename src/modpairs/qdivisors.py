"""Rational-coefficient divisors as integer divisors held at a positive level.

A divisor with rational multiplicities is stored as ``(level, pair)`` and
read as ``(1/level) * pair.divisor``; passing from level ``n`` to ``n * m``
multiplies the integer divisor by ``m`` and changes nothing semantically.
All arithmetic stays integral; exact rationals appear only in a read-only
projection for display and testing.

The cube constructor materializes the chart at infinity of the weighted
interval over a pair, the one chart carrying the added divisor component.
"""

from __future__ import annotations

from math import gcd

from .pairs import Chart, Pair, PairMap, StructureError, Value, _divisor, _monomial_map, _pair, _setters, twist

__all__ = ["QPair", "cube", "cube_projection", "cube_weight", "q_eq", "q_normalize", "q_rationals", "q_transition"]


class QPair(Value):
    """The rational divisor ``(1/level) * pair.divisor`` with integer storage."""

    __slots__ = ("level", "pair")

    def __init__(self, level: int, pair: Pair):
        if type(level) is not int or level < 1:
            raise StructureError(f"level must be a positive integer, got {level!r}")
        if not isinstance(pair, Pair):
            raise StructureError(f"pair must be a Pair, got {type(pair).__name__}")
        _qpair_level(self, level)
        _qpair_pair(self, pair)


_qpair_level, _qpair_pair = _setters(QPair)


def q_rationals(q: QPair) -> tuple:
    """Read-only projection to the exact rational multiplicities, as ``Fraction``s."""
    from fractions import Fraction  # imported here: ``import modpairs`` stays free of it

    return tuple([Fraction(m, q.level) for m in q.pair.divisor.mults])


def q_normalize(q: QPair) -> QPair:
    """Divide the level and every multiplicity by their common gcd.

    Idempotent, and a complete invariant: two levelled divisors are equal as
    rational divisors exactly when their normal forms are identical.  With no
    multiplicities at all (a point chart) the gcd is the level itself.
    """
    mults = q.pair.divisor.mults
    g = gcd(q.level, *mults)
    if g == 1:
        return q
    return QPair(q.level // g, _pair(q.pair.chart, _divisor(tuple([m // g for m in mults]))))


def q_eq(a: QPair, b: QPair) -> bool:
    """Equality of the underlying rational divisors, by exact cross-multiplication."""
    if a.pair.chart is not b.pair.chart and a.pair.chart != b.pair.chart:
        raise StructureError("cannot compare levelled divisors on different charts")
    la, lb = a.level, b.level
    for x, y in zip(a.pair.divisor.mults, b.pair.divisor.mults):
        if lb * x != la * y:
            return False
    return True


def q_transition(q: QPair, m: int) -> QPair:
    """Pass to level ``level * m`` by scaling the integer divisor; value unchanged."""
    if type(m) is not int or m < 1:
        raise ValueError(f"transition factor must be a positive integer, got {m!r}")
    return QPair(q.level * m, twist(q.pair, m))


def cube(p: Pair, n: int, coord: str = "inf") -> Pair:
    """Chart at infinity of the weight-``n`` interval over ``p``.

    Adds one fresh coordinate whose hyperplane carries multiplicity ``n``;
    the complementary interval chart adds no divisor component and is not
    materialized.  The fresh coordinate name must not collide with the
    chart's.
    """
    if type(n) is not int or n < 1:  # ``n`` becomes a multiplicity, which takes exact ints only
        raise ValueError(f"cube weight must be a positive integer, got {n!r}")
    if coord in p.chart.coords:
        raise StructureError(f"fresh coordinate name {coord!r} collides with the chart")
    chart = Chart(p.chart.coords + (coord,))
    return _pair(chart, _divisor(p.divisor.mults + (n,)))


def cube_projection(p: Pair, n: int, coord: str = "inf") -> PairMap:
    """The coordinate-forgetting projection from ``cube(p, n)`` down to ``p``."""
    top = cube(p, n, coord)
    rows = tuple([((i, 1),) for i in range(len(p.chart.coords))])
    return PairMap(_monomial_map(top.chart, p.chart, rows), top, p)


def cube_weight(f: PairMap) -> int | None:
    """Weight ``n`` if ``f`` is a cube projection up to coordinate renaming, else None.

    Recognizes exactly the coordinate-forgetting maps that drop one source
    coordinate of positive multiplicity and match every remaining
    multiplicity.  No closure under pullback is attempted.
    """
    ds, dt = f.src.chart.dim, f.dst.chart.dim
    if ds != dt + 1:
        return None
    used = []
    for row in f.map.rows:
        if len(row) != 1 or row[0][1] != 1:
            return None
        used.append(row[0][0])
    if len(set(used)) != dt:
        return None
    (extra,) = set(range(ds)) - set(used)
    for j, i in enumerate(used):
        if f.src.divisor.mults[i] != f.dst.divisor.mults[j]:
            return None
    n = f.src.divisor.mults[extra]
    return n if n >= 1 else None
